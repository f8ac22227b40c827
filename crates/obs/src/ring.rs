//! The per-thread event ring: one buffer that is both a thread's trace
//! and its flight-recorder tail.

use crate::event::{Event, EventKind, ALL_KINDS};
use crate::now_ns;
use std::sync::atomic::{AtomicU64, Ordering};

/// Ring capacity of a traced thread: 65 536 events (4 MiB). Old events
/// are overwritten once the ring is full — a trace always holds the
/// *newest* window of the run.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// Words one ring slot occupies (one encoded [`Event`]).
const EVENT_WORDS: usize = 8;

/// A fixed-capacity event ring written by exactly one thread and
/// readable by any. Recording is eight relaxed stores plus a `Release`
/// head bump: no lock, no allocation. The buffer is sized at
/// construction and never grows; when full, the oldest event is
/// overwritten and [`EventRing::dropped`] counts the loss.
///
/// The owning thread reads back exactly what it wrote. A reader on
/// another thread (the flight recorder capturing a tail mid-run) may
/// observe the oldest slot of a full ring mid-overwrite; such a slot is
/// skipped when its kind word is out of range and otherwise read as a
/// benign mixed payload — the capture is a diagnostic tail, not an
/// exact log.
///
/// # Examples
///
/// ```
/// use dyc_obs::{EventKind, EventRing};
///
/// let r = EventRing::new(4, 0);
/// for site in 0..6u32 {
///     r.record(EventKind::DispatchHit, site, 0, 0, 0, 0);
/// }
/// // Capacity 4: the two oldest events were overwritten.
/// let ev = r.events();
/// assert_eq!(ev.len(), 4);
/// assert_eq!(r.dropped(), 2);
/// assert_eq!(ev[0].site, 2); // oldest surviving
/// assert_eq!(ev[3].site, 5); // newest
/// ```
#[derive(Debug)]
pub struct EventRing {
    slots: Box<[AtomicU64]>,
    /// Events ever recorded; the next write goes to `head % cap`.
    head: AtomicU64,
    cap: usize,
    thread: u32,
}

impl EventRing {
    /// A ring for `thread` holding at most `cap` events (minimum 1).
    pub fn new(cap: usize, thread: u32) -> EventRing {
        let cap = cap.max(1);
        EventRing {
            slots: (0..cap * EVENT_WORDS).map(|_| AtomicU64::new(0)).collect(),
            head: AtomicU64::new(0),
            cap,
            thread,
        }
    }

    /// Record one event, overwriting the oldest when full. The kind is
    /// stored as its discriminant and the head doubles as the event's
    /// sequence number.
    #[inline]
    pub fn record(&self, kind: EventKind, site: u32, key: u64, cycle: u64, a: u64, b: u64) {
        let h = self.head.load(Ordering::Relaxed);
        let base = (h as usize % self.cap) * EVENT_WORDS;
        let words = [kind as u64, u64::from(site), key, h, now_ns(), cycle, a, b];
        for (slot, w) in self.slots[base..base + EVENT_WORDS].iter().zip(words) {
            slot.store(w, Ordering::Relaxed);
        }
        self.head.store(h + 1, Ordering::Release);
    }

    /// The resident events, oldest first. Slots whose kind word is out of
    /// range (a torn read racing the writer) are skipped.
    pub fn events(&self) -> Vec<Event> {
        let h = self.head.load(Ordering::Acquire);
        let n = (h as usize).min(self.cap);
        let mut out = Vec::with_capacity(n);
        for i in (h - n as u64)..h {
            let base = (i as usize % self.cap) * EVENT_WORDS;
            let w = |j: usize| self.slots[base + j].load(Ordering::Relaxed);
            let Some(&kind) = ALL_KINDS.get(w(0) as usize) else {
                continue;
            };
            out.push(Event {
                kind,
                site: w(1) as u32,
                thread: self.thread,
                key: w(2),
                seq: w(3),
                t_ns: w(4),
                cycle: w(5),
                a: w(6),
                b: w(7),
            });
        }
        out
    }

    /// Events ever recorded (resident + dropped).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Events lost to overwriting.
    pub fn dropped(&self) -> u64 {
        self.recorded().saturating_sub(self.cap as u64)
    }
}

/// Merge per-thread event streams into one timeline, ordered by
/// (wall time, thread, sequence) — the order the exporters and the
/// aggregation pass expect.
pub fn merge(streams: Vec<Vec<Event>>) -> Vec<Event> {
    let mut all: Vec<Event> = streams.into_iter().flatten().collect();
    all.sort_by_key(|e| (e.t_ns, e.thread, e.seq));
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraparound_keeps_the_newest_events() {
        let r = EventRing::new(8, 3);
        for i in 0..20u64 {
            r.record(EventKind::DispatchMiss, i as u32, i, i * 10, i, 0);
        }
        let ev = r.events();
        assert_eq!(ev.len(), 8);
        assert_eq!(r.dropped(), 12);
        assert_eq!(r.recorded(), 20);
        // The surviving window is exactly the last 8 records, in order.
        for (j, e) in ev.iter().enumerate() {
            assert_eq!(e.seq, 12 + j as u64);
            assert_eq!(e.site, 12 + j as u32);
            assert_eq!((e.key, e.cycle, e.a), (e.seq, e.seq * 10, e.seq));
            assert_eq!(e.thread, 3);
        }
    }

    #[test]
    fn ordering_is_monotone_per_thread() {
        let r = EventRing::new(64, 0);
        for i in 0..200u32 {
            r.record(EventKind::DispatchMiss, i, 0, u64::from(i), 0, 0);
        }
        for w in r.events().windows(2) {
            assert!(w[1].seq == w[0].seq + 1, "seq strictly increasing");
            assert!(w[1].t_ns >= w[0].t_ns, "wall clock non-decreasing");
        }
    }

    #[test]
    fn partial_fill_returns_in_insertion_order() {
        let r = EventRing::new(16, 0);
        r.record(EventKind::GeExecBegin, 1, 0, 0, 0, 0);
        r.record(EventKind::GeExecEnd, 1, 0, 0, 9, 0);
        let ev = r.events();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].kind, EventKind::GeExecBegin);
        assert_eq!(ev[1].kind, EventKind::GeExecEnd);
        assert_eq!(ev[1].a, 9);
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn round_trips_every_kind() {
        let r = EventRing::new(64, 0);
        for (i, kind) in ALL_KINDS.into_iter().enumerate() {
            r.record(kind, i as u32, i as u64, 0, 7, 9);
        }
        let ev = r.events();
        assert_eq!(ev.len(), ALL_KINDS.len());
        for (i, e) in ev.iter().enumerate() {
            assert_eq!(e.kind, ALL_KINDS[i]);
            assert_eq!((e.key, e.a, e.b), (i as u64, 7, 9));
        }
    }

    #[test]
    fn merge_orders_across_threads() {
        let a = EventRing::new(8, 0);
        let b = EventRing::new(8, 1);
        a.record(EventKind::DispatchHit, 0, 0, 0, 0, 0);
        b.record(EventKind::DispatchHit, 1, 0, 0, 0, 0);
        a.record(EventKind::DispatchHit, 2, 0, 0, 0, 0);
        let merged = merge(vec![a.events(), b.events()]);
        assert_eq!(merged.len(), 3);
        for w in merged.windows(2) {
            assert!((w[0].t_ns, w[0].thread, w[0].seq) <= (w[1].t_ns, w[1].thread, w[1].seq));
        }
    }
}
