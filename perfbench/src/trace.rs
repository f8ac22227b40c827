//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call into a DyC-RS layer in a span: a name,
//! a start, an end, the enclosing span and the identifier of the
//! operation it belongs to (every span of one compile, invocation or
//! dispatch shares it). Spans stay in memory until the run ends, when
//! [`self_times`] derives each layer's self time and [`write_chrome`]
//! writes them out. A recorder that is off only runs the closure.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans kept per recorder; later spans are counted as dropped.
const SPAN_CAP: usize = 400_000;

/// One recorded span. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call, e.g. `lang.parse`.
    pub name: &'static str,
    /// Operation the span belongs to.
    pub op: u64,
    /// Index of the enclosing span in the same recorder, if any.
    pub parent: Option<u32>,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// Recording thread (0 = main).
    pub thread: u32,
}

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    thread: u32,
    /// Operation ids are `thread << 48 | n`, unique across recorders.
    next_op: u64,
    spans: Vec<Span>,
    stack: Vec<(u32, u64)>,
    dropped: u64,
}

impl Tracer {
    /// A recorder for `thread`, timing from `epoch`; inert unless `on`.
    pub fn new(on: bool, epoch: Instant, thread: u32) -> Tracer {
        Tracer {
            on,
            epoch,
            thread,
            next_op: 0,
            spans: Vec::new(),
            stack: Vec::new(),
            dropped: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Turn recording on or off between operations.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Run `f` inside a span named `name`. Outside any span this starts a
    /// new operation; inside one, the span joins the enclosing operation.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let (parent, op) = match self.stack.last() {
            Some(&(idx, op)) => ((idx != u32::MAX).then_some(idx), op),
            None => {
                self.next_op += 1;
                (None, u64::from(self.thread) << 48 | self.next_op)
            }
        };
        let slot = if self.spans.len() < SPAN_CAP {
            self.spans.push(Span {
                name,
                op,
                parent,
                start: self.now(),
                end: 0,
                thread: self.thread,
            });
            Some(self.spans.len() as u32 - 1)
        } else {
            self.dropped += 1;
            None
        };
        // A dropped span still carries the operation for its children.
        self.stack.push((slot.or(parent).unwrap_or(u32::MAX), op));
        let out = f(self);
        self.stack.pop();
        if let Some(i) = slot {
            self.spans[i as usize].end = self.now();
        }
        out
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Spans that did not fit in memory.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Move `other`'s spans into this recorder (parents re-indexed).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        self.dropped += other.dropped;
    }
}

/// Per-name totals derived from the spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus the direct children's), ns.
    pub self_ns: u64,
}

/// Self time per span name: each span's duration minus the durations of
/// the spans directly inside it.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if let Some(c) = child.get_mut(p as usize) {
                *c += s.end.saturating_sub(s.start);
            }
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, c) in spans.iter().zip(child) {
        let dur = s.end.saturating_sub(s.start);
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += dur;
        e.self_ns += dur.saturating_sub(c);
    }
    out
}

/// Write the spans as a Chrome `trace_event` JSON file (complete `X`
/// events; the operation and parent go in `args`).
pub fn write_chrome(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 < spans.len() { "," } else { "" };
        let parent = s.parent.map_or(-1, i64::from);
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{i},\"op\":{},\"parent\":{parent}}}}}{sep}",
            s.name,
            s.thread,
            s.start as f64 / 1e3,
            s.end.saturating_sub(s.start) as f64 / 1e3,
            s.op,
        );
    }
    out.push_str("]}\n");
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_share_an_operation_and_split_self_time() {
        let mut t = Tracer::new(true, Instant::now(), 0);
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        t.span("outer", |_| {});
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].op, s[1].op);
        assert_ne!(s[0].op, s[2].op);
        assert_eq!(s[1].parent, Some(0));
        let times = self_times(s);
        let outer = times["outer"];
        let inner = times["inner"];
        assert_eq!(outer.count, 2);
        assert!(inner.self_ns >= 2_000_000);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
    }

    #[test]
    fn an_inert_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 0);
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(t.spans().is_empty());
    }
}
