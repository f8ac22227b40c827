//! Concurrent dispatch: a sharded, `Arc`-shared code cache with
//! single-flight specialization and bounded eviction.
//!
//! The single-threaded [`Runtime`](crate::Runtime) owns its caches and
//! module outright; this module makes the same staged pipeline safely
//! callable from many threads:
//!
//! * **[`SharedRuntime`]** holds everything immutable or lock-guarded that
//!   threads share: the staged program, the [`ShardedCache`] mapping
//!   `(site, key)` to published code, an append-only site table (internal
//!   promotion sites discovered by any thread become visible to all), an
//!   append-only code registry, and the single-flight wait-map.
//! * **[`ThreadRuntime`]** is one thread's [`DispatchHandler`]: it owns a
//!   private [`Module`] replica and [`Vm`], so *execution* never takes a
//!   lock — only dispatch lookups touch the shared cache, and a
//!   steady-state hit is one shard read-lock with zero allocations.
//! * **Single-flight**: exactly one thread runs the GE executor per
//!   `(site, key)`. Racers either block on the winner's `Flight`
//!   ([`MissPolicy::Block`]) or immediately run a *generic continuation*
//!   — unspecialized code for the region compiled on demand
//!   ([`MissPolicy::Fallback`]) — so no duplicate specializations are
//!   ever performed.
//! * **Bounded eviction**: `cache_all(k)` sites keep at most `k`
//!   specializations, evicted by a second-chance clock whose reference
//!   bits are lock-free atomics set on the hit path.
//!
//! # Memory ordering
//!
//! Publication is lock-mediated: a winner appends the new [`CodeFunc`] to
//! the registry (write lock), inserts the cache binding (shard write
//! lock), and only then resolves and removes its flight (the key's
//! flight-shard mutex — the wait-map is sharded by the same key hash as
//! the cache, so each key's flight protocol runs under one mutex).
//! Any thread that observes the cache binding or the flight result
//! acquired one of those locks after the winner released it, so it also
//! observes the registry entry — plain `Relaxed` atomics are only used
//! for meters and clock reference bits, never to publish data.
//!
//! ```
//! use std::sync::Arc;
//! use dyc_bta::OptConfig;
//! use dyc_rt::concurrent::SharedRuntime;
//! use dyc_vm::{CostModel, Value, Vm};
//!
//! let src = "int pow(int b, int e) { make_static(e);
//!            int r = 1; while (e > 0) { r = r * b; e = e - 1; } return r; }";
//! let mut ir = dyc_ir::lower_program(&dyc_lang::parse_program(src).unwrap()).unwrap();
//! dyc_ir::opt::optimize_program(&mut ir);
//! let staged = dyc_stage::stage_program(ir, OptConfig::all());
//! let shared = Arc::new(SharedRuntime::new(staged));
//!
//! // Each thread gets its own handler, module replica, and VM.
//! let mut handler = SharedRuntime::thread(&shared);
//! let mut module = shared.base_module();
//! let mut vm = Vm::new(CostModel::alpha21164());
//! let id = module.func_by_name("pow").unwrap();
//! for _ in 0..3 {
//!     let out = vm
//!         .call_with_handler(&mut module, &mut handler, id, &[Value::I(3), Value::I(4)])
//!         .unwrap();
//!     assert_eq!(out, Some(Value::I(81)));
//! }
//! // One specialization served all three calls (two were shard hits).
//! assert_eq!(shared.stats().specializations, 1);
//! ```

use crate::artifact::{self, CacheBundle, SiteSpec, ARTIFACT_VERSION};
use crate::cache::{DoubleHashCache, Probed};
use crate::costs::DynCosts;
use crate::ge_exec::{GeExecutor, SpecEnv, SpecHost};
use crate::native::{exec_entry, lower_func, NativeArtifact, NativeDispatch, NativeEngine};
use crate::policy::{PolicyDecision, PolicyEngine, PolicyParams};
use crate::runtime::{Site, Store};
use crate::stats::RtStats;
use dyc_bta::PolicyMode;
use dyc_obs::{now_ns, EventKind, LatencyHistogram, LiveHandles, LiveMetric, LiveThread, Trace};
use dyc_stage::{SitePolicy, StagedProgram};
use dyc_vm::{CodeFunc, DispatchHandler, DispatchOutcome, FuncId, Module, Value, Vm, VmError};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};

/// What a racing thread does when another thread is already specializing
/// the same `(site, key)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MissPolicy {
    /// Wait for the winner and invoke its specialized code — preserves
    /// the single-threaded runtime's code and cache contents exactly.
    #[default]
    Block,
    /// Run a *generic continuation* (unspecialized code for the region)
    /// immediately instead of waiting. Results are identical; the racing
    /// call just doesn't benefit from specialization.
    Fallback,
}

/// Cached binding: the published code's global id plus, for bounded
/// sites, its slot in the site's second-chance clock (so a hit can set
/// the reference bit without a second hash).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CacheVal {
    gid: u32,
    clock_idx: u32,
}

/// Per-shard meter snapshot (feeds the §4.4.3 dispatch-cost tables).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardMeter {
    /// Lookups routed to this shard.
    pub lookups: u64,
    /// Total probe count across those lookups.
    pub probes: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Slot-table size (open-addressing capacity, grows by doubling).
    pub slots: usize,
}

struct Shard<V> {
    table: RwLock<DoubleHashCache<V>>,
    lookups: AtomicU64,
    probes: AtomicU64,
}

/// FNV-1a over the key words, finished with a 64-bit mix step (the
/// first half of the murmur3 finalizer). The fold alone is exactly
/// [`DoubleHashCache`]'s `h1`: a shard is picked by the low bits of the
/// hash, so every key in a shard would share those bits of `h1` and
/// reach only `1/shards` of the shard's table. The mix spreads every
/// input bit over the low bits, decorrelating shard choice from probe
/// position. Shared by [`ShardedCache`] and [`FlightMap`], so a key's
/// cache shard and flight shard indices agree (modulo mask width).
fn shard_hash(key: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in key {
        h ^= *w;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^ (h >> 33)
}

/// A sharded double-hash code cache: N independent
/// [`DoubleHashCache`] shards, each behind its own reader-writer lock,
/// selected by a hash of the key. Readers on different shards never
/// contend, and readers on the same shard share the read lock; only an
/// insert or removal takes a shard's write lock.
///
/// # Examples
///
/// ```
/// use dyc_rt::concurrent::ShardedCache;
/// use dyc_vm::FuncId;
///
/// let c: ShardedCache = ShardedCache::new(8);
/// c.insert(vec![1, 42], FuncId(7));
/// assert_eq!(c.get(&[1, 42]).value, Some(FuncId(7)));
/// assert_eq!(c.get(&[2, 42]).value, None);
/// assert_eq!(c.len(), 1);
/// ```
pub struct ShardedCache<V = FuncId> {
    shards: Box<[Shard<V>]>,
    mask: u64,
}

impl<V: Copy> ShardedCache<V> {
    /// A cache with `shards` shards (rounded up to a power of two).
    pub fn new(shards: usize) -> ShardedCache<V> {
        let n = shards.max(1).next_power_of_two();
        let shards = (0..n)
            .map(|_| Shard {
                table: RwLock::new(DoubleHashCache::new()),
                lookups: AtomicU64::new(0),
                probes: AtomicU64::new(0),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        ShardedCache {
            shards,
            mask: (n - 1) as u64,
        }
    }

    /// Shard selection — see [`shard_hash`].
    fn shard_of(&self, key: &[u64]) -> &Shard<V> {
        &self.shards[(shard_hash(key) & self.mask) as usize]
    }

    /// Metered lookup: one shard read-lock, no allocations.
    pub fn get(&self, key: &[u64]) -> Probed<V> {
        let s = self.shard_of(key);
        let p = s.table.read().unwrap().probe(key);
        s.lookups.fetch_add(1, Ordering::Relaxed);
        s.probes.fetch_add(u64::from(p.probes), Ordering::Relaxed);
        p
    }

    /// Insert (or overwrite) a binding.
    pub fn insert(&self, key: Vec<u64>, value: V) {
        self.shard_of(&key)
            .table
            .write()
            .unwrap()
            .insert(key, value);
    }

    /// Remove a binding, returning it if present.
    pub fn remove(&self, key: &[u64]) -> Option<V> {
        self.shard_of(key).table.write().unwrap().remove(key)
    }

    /// Remove every binding whose first key word equals `first` (the
    /// shared cache prefixes every key with its site id). Returns the
    /// number of bindings removed.
    pub fn purge_prefix(&self, first: u64) -> usize {
        let mut removed = 0;
        for s in &self.shards {
            let mut t = s.table.write().unwrap();
            let doomed: Vec<Vec<u64>> = t
                .iter()
                .filter(|(k, _)| k.first() == Some(&first))
                .map(|(k, _)| k.to_vec())
                .collect();
            for k in &doomed {
                t.remove(k);
            }
            removed += doomed.len();
        }
        removed
    }

    /// Total entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.table.read().unwrap().len())
            .sum()
    }

    /// True if no shard holds an entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard meters, in shard order.
    pub fn meters(&self) -> Vec<ShardMeter> {
        self.shards
            .iter()
            .map(|s| {
                let t = s.table.read().unwrap();
                ShardMeter {
                    lookups: s.lookups.load(Ordering::Relaxed),
                    probes: s.probes.load(Ordering::Relaxed),
                    entries: t.len(),
                    slots: t.capacity(),
                }
            })
            .collect()
    }

    /// Every `(key, value)` binding currently cached.
    pub fn snapshot(&self) -> Vec<(Vec<u64>, V)> {
        let mut out = Vec::new();
        for s in &self.shards {
            let t = s.table.read().unwrap();
            out.extend(t.iter().map(|(k, v)| (k.to_vec(), v)));
        }
        out
    }
}

impl<V: Copy> std::fmt::Debug for ShardedCache<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCache")
            .field("shards", &self.shards.len())
            .field("entries", &self.len())
            .finish()
    }
}

/// Second-chance clock for one bounded (`cache_all(k)`) site. Reference
/// bits are atomics so the cache-hit path can mark an entry recently
/// used without taking the clock mutex; the key ring and hand are only
/// touched under the mutex by the (already-serialized) insert path.
#[derive(Debug)]
struct EvictCtl {
    bits: Box<[AtomicBool]>,
    clock: Mutex<ClockKeys>,
}

#[derive(Debug)]
struct ClockKeys {
    /// Full shared-cache key per retained entry, indexed by clock slot.
    keys: Vec<Vec<u64>>,
    hand: usize,
    /// Effective capacity. Starts at the declared `cache_all(k)` bound;
    /// the adaptive policy may grow it (never past `bits.len()`, which
    /// is pre-allocated at the maximum so reference bits are never
    /// reallocated while the hit path touches them lock-free).
    cap: usize,
}

impl EvictCtl {
    fn new(cap: usize, max_cap: usize) -> EvictCtl {
        let max_cap = max_cap.max(cap);
        EvictCtl {
            bits: (0..max_cap).map(|_| AtomicBool::new(false)).collect(),
            clock: Mutex::new(ClockKeys {
                keys: Vec::new(),
                hand: 0,
                cap,
            }),
        }
    }

    fn touch(&self, idx: u32) {
        self.bits[idx as usize].store(true, Ordering::Relaxed);
    }

    /// Raise the effective capacity to `n` (clamped to the
    /// pre-allocated maximum; never shrinks).
    fn grow_to(&self, n: usize) {
        let mut c = self.clock.lock().unwrap();
        c.cap = c.cap.max(n.min(self.bits.len()));
    }

    /// Admit `key`, choosing an eviction victim if the site is at
    /// capacity. Returns the clock slot for the new entry and the evicted
    /// key, if any.
    ///
    /// The caller must remove the returned victim from the code cache
    /// *after* this returns — the shard write-lock is deliberately not
    /// taken while the clock mutex is held, so other threads' admits at
    /// this site never queue behind a cache-shard lock. The window in
    /// which the victim's slot is reassigned but its cache entry still
    /// exists is benign: a hit on the victim during the window runs
    /// still-valid code (registry entries are never freed), and a
    /// concurrent re-specialization of the victim at worst loses its
    /// fresh insert to our delayed remove and re-specializes once more.
    fn admit(&self, key: &[u64]) -> (u32, Option<Vec<u64>>) {
        let mut c = self.clock.lock().unwrap();
        let cap = c.cap;
        if c.keys.len() < cap {
            c.keys.push(key.to_vec());
            let idx = c.keys.len() - 1;
            self.bits[idx].store(true, Ordering::Relaxed);
            return (idx as u32, None);
        }
        // Sweep, clearing reference bits until an unreferenced victim
        // turns up. Concurrent hits can re-set bits mid-sweep, so bound
        // the sweep at two revolutions and then take the hand's slot.
        let mut steps = 0;
        let victim = loop {
            steps += 1;
            if steps > 2 * cap || !self.bits[c.hand].swap(false, Ordering::Relaxed) {
                break c.hand;
            }
            c.hand = (c.hand + 1) % cap;
        };
        c.hand = (victim + 1) % cap;
        let old = std::mem::replace(&mut c.keys[victim], key.to_vec());
        self.bits[victim].store(true, Ordering::Relaxed);
        (victim as u32, Some(old))
    }

    fn reset(&self) {
        let mut c = self.clock.lock().unwrap();
        c.keys.clear();
        c.hand = 0;
        for b in self.bits.iter() {
            b.store(false, Ordering::Relaxed);
        }
    }

    /// True when the clock already retains `cap` entries — admitting
    /// another key would evict. Warm-start uses this to reject surplus
    /// bundle entries instead of evicting ones it just restored.
    fn at_capacity(&self) -> bool {
        let c = self.clock.lock().unwrap();
        c.keys.len() >= c.cap
    }
}

/// One shared dispatch site: the [`Site`] itself plus the concurrent
/// per-site state (eviction clock, lazily built generic continuation).
#[derive(Debug)]
struct SiteEntry {
    site: Site,
    evict: Option<EvictCtl>,
    /// Global id of the site's generic continuation, built on first use
    /// by the [`MissPolicy::Fallback`] path.
    fallback: Mutex<Option<u32>>,
}

impl SiteEntry {
    /// `cap_growth` is the adaptive policy's bound multiplier (1 in
    /// `Always` mode): reference bits are pre-allocated at
    /// `k * cap_growth` so capacity growth never reallocates them.
    fn new(site: Site, cap_growth: usize) -> SiteEntry {
        let evict = match site.policy {
            SitePolicy::CacheAllBounded(k) => {
                let k = k.max(1) as usize;
                Some(EvictCtl::new(k, k.saturating_mul(cap_growth.max(1))))
            }
            _ => None,
        };
        SiteEntry {
            site,
            evict,
            fallback: Mutex::new(None),
        }
    }
}

/// One in-flight specialization: racers park on the condvar until the
/// winner resolves it with the published global id (or the error).
#[derive(Debug)]
struct Flight {
    state: Mutex<Option<Result<u32, String>>>,
    cv: Condvar,
}

impl Flight {
    fn new() -> Flight {
        Flight {
            state: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn resolve(&self, r: Result<u32, String>) {
        *self.state.lock().unwrap() = Some(r);
        self.cv.notify_all();
    }

    fn wait(&self) -> Result<u32, String> {
        let mut g = self.state.lock().unwrap();
        loop {
            if let Some(r) = g.clone() {
                return r;
            }
            g = self.cv.wait(g).unwrap();
        }
    }
}

/// The single-flight wait-map, sharded by the same FNV-1a hash as the
/// code cache so a key's flight entry and cache binding live in the
/// same 1/Nth of the keyspace. Before the serving work this was one
/// global `Mutex<HashMap>`: under a cold-start stampede every miss on
/// *any* key serialized on it, convoying unrelated sites (see
/// EXPERIMENTS.md, hypothesis H1). Sharding preserves the protocol
/// exactly — single-flight is a per-key property, and one key always
/// maps to one shard — while letting misses on unrelated keys proceed
/// independently.
/// One flight-map shard: the in-flight specializations whose keys hash
/// into it.
type FlightShard = Mutex<HashMap<Vec<u64>, Arc<Flight>>>;

#[derive(Debug)]
struct FlightMap {
    shards: Box<[FlightShard]>,
    mask: u64,
}

impl FlightMap {
    fn new(shards: usize) -> FlightMap {
        let n = shards.max(1).next_power_of_two();
        FlightMap {
            shards: (0..n).map(|_| Mutex::new(HashMap::new())).collect(),
            mask: (n - 1) as u64,
        }
    }

    /// The mutex guarding `key`'s flight entry. Both winner steps (insert
    /// on entry, remove after publication) and every racer check go
    /// through this one lock, so the per-key protocol is untouched by
    /// sharding.
    fn shard(&self, key: &[u64]) -> &Mutex<HashMap<Vec<u64>, Arc<Flight>>> {
        &self.shards[(shard_hash(key) & self.mask) as usize]
    }

    fn n_shards(&self) -> usize {
        self.shards.len()
    }
}

/// Atomic global meters (per-thread meters live in each
/// [`ThreadRuntime`]'s [`RtStats`]).
#[derive(Debug, Default)]
struct ConcStats {
    specializations: AtomicU64,
    single_flight_waits: AtomicU64,
    single_flight_fallbacks: AtomicU64,
    single_flight_races: AtomicU64,
    cache_evictions: AtomicU64,
    cache_invalidations: AtomicU64,
    generic_continuations: AtomicU64,
    cache_warm_loads: AtomicU64,
    cache_warm_rejects: AtomicU64,
    native_installs: AtomicU64,
    native_fallbacks: AtomicU64,
    policy_defers: AtomicU64,
    policy_promotes: AtomicU64,
    policy_throttled: AtomicU64,
}

/// Plain snapshot of the shared runtime's meters.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ConcSnapshot {
    /// Specializations performed across all threads. With
    /// [`MissPolicy::Block`] this equals what a single-threaded oracle
    /// running the same call sequence performs — single-flight suppresses
    /// every duplicate.
    pub specializations: u64,
    /// Times a racing thread blocked on another thread's in-flight
    /// specialization.
    pub single_flight_waits: u64,
    /// Times a racing thread took the generic continuation instead.
    pub single_flight_fallbacks: u64,
    /// Times a miss lost the publication race: between the failed cache
    /// probe and taking the flight-shard lock, the winner had already
    /// published, so the miss was served from the cache with no
    /// specialization, wait, or fallback. With this meter the serving
    /// harness can balance its books exactly: `misses = specializations
    /// + waits + fallbacks + races + policy defers + policy throttles`.
    pub single_flight_races: u64,
    /// Bounded-site evictions performed by the second-chance clock.
    pub cache_evictions: u64,
    /// Explicit site invalidations.
    pub cache_invalidations: u64,
    /// Generic continuations compiled (at most one per site).
    pub generic_continuations: u64,
    /// Cached specializations restored from a snapshot bundle at
    /// warm-start (each skips a future first-dispatch specialization).
    pub cache_warm_loads: u64,
    /// Snapshot entries rejected at warm-start: stale or corrupted
    /// fingerprints, schema mismatches, or bounded-capacity surplus.
    /// Per-entry and never fatal — rejected keys re-specialize on first
    /// dispatch.
    pub cache_warm_rejects: u64,
    /// Materialized functions additionally lowered to native x86-64
    /// machine code across all threads (each thread installs into its
    /// own engine, so one published specialization can count once per
    /// thread that runs it).
    pub native_installs: u64,
    /// Materializations that stayed on the VM backend despite the
    /// native option — the lowering declined or the platform lacks the
    /// backend.
    pub native_fallbacks: u64,
    /// Adaptive policy only: dispatch misses whose specialization was
    /// deferred below the site's break-even threshold (the dispatch ran
    /// the generic continuation). Always zero in `PolicyMode::Always`.
    pub policy_defers: u64,
    /// Adaptive policy only: keys specialized after at least one
    /// deferral (the miss that crossed the threshold).
    pub policy_promotes: u64,
    /// Adaptive policy only: misses suppressed because the (internal)
    /// site's specializations were never re-dispatched.
    pub policy_throttled: u64,
    /// Code functions published to the shared registry.
    pub published: u64,
    /// Per-shard cache meters.
    pub shards: Vec<ShardMeter>,
}

impl ConcSnapshot {
    /// Duplicate specializations avoided by single-flight (waits plus
    /// fallbacks — each one is a miss that did *not* redundantly run the
    /// GE executor).
    pub fn single_flight_suppressed(&self) -> u64 {
        self.single_flight_waits + self.single_flight_fallbacks
    }
}

/// Construction options for [`SharedRuntime`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedOptions {
    /// Shard count for the code cache (rounded up to a power of two).
    /// `0` (the default) auto-sizes from the machine: 8 shards per
    /// hardware thread, clamped to `[16, 512]`. The serving measurements
    /// (EXPERIMENTS.md, "Serving under skewed traffic") found throughput
    /// flat from 16 shards up but degrading below 4 on write-heavy churn,
    /// so auto keeps a 16-shard floor even on small machines and scales
    /// with the hardware instead of freezing yesterday's constant.
    pub shards: usize,
    /// Shard count for the single-flight wait-map (rounded up to a power
    /// of two). `0` (the default) matches the resolved cache shard
    /// count, so one key contends with the same 1/Nth of the keyspace in
    /// both structures. `1` reproduces the pre-serving global mutex —
    /// kept selectable so the EXPERIMENTS.md before/after numbers stay
    /// reproducible from one binary.
    pub flight_shards: usize,
    /// What racing threads do on a miss that is already in flight.
    pub miss_policy: MissPolicy,
    /// Give every [`ThreadRuntime`] an allocation-free miss-path latency
    /// histogram ([`LatencyHistogram`]): each dispatch miss records the
    /// wall nanoseconds from miss detection to having runnable code
    /// (specialization, single-flight wait, or generic-continuation
    /// build). Unlike the event ring this survives 10⁸-dispatch runs
    /// whole, so the serving harness computes true p50/p95/p99 from it.
    /// Off by default: the hit path is untouched either way, but each
    /// miss pays two clock reads.
    pub latency: bool,
    /// Specialization instruction budget (guards non-terminating static
    /// loops), per specialization.
    pub spec_budget: u64,
    /// Give every [`ThreadRuntime`] a cycle-stamped event recorder (see
    /// [`dyc_obs`]). Purely observational: enabling it changes no
    /// results, no published code bytes, and no [`RtStats`] counters.
    /// Also switched on by [`OptConfig::trace`](dyc_bta::OptConfig) on
    /// the staged program's config.
    pub trace: bool,
    /// Lower materialized specializations to native x86-64 machine code
    /// (each thread owns its own executable arena) and run them instead
    /// of interpreting. Also switched on by
    /// [`OptConfig::native`](dyc_bta::OptConfig) on the staged program's
    /// config. A no-op on platforms without the native backend.
    pub native: bool,
    /// When to specialize a dispatched (site, key):
    /// [`PolicyMode::Always`] (the default — specialize on first miss,
    /// today's behavior exactly) or [`PolicyMode::Adaptive`] (count
    /// dispatches and defer below the per-site break-even; see
    /// [`crate::policy`]). Also switched on by
    /// [`OptConfig::policy`](dyc_bta::OptConfig) on the staged
    /// program's config.
    pub policy: PolicyMode,
}

impl Default for SharedOptions {
    fn default() -> SharedOptions {
        SharedOptions {
            shards: 0,
            flight_shards: 0,
            miss_policy: MissPolicy::Block,
            latency: false,
            spec_budget: 4_000_000,
            trace: false,
            native: false,
            policy: PolicyMode::Always,
        }
    }
}

/// Resolve a shard-count knob: `0` auto-sizes to 8 shards per hardware
/// thread, clamped to `[16, 512]` (see [`SharedOptions::shards`] for the
/// measured rationale).
fn resolve_shards(n: usize) -> usize {
    if n != 0 {
        return n;
    }
    let hw = std::thread::available_parallelism().map_or(1, |p| p.get());
    (hw * 8).clamp(16, 512)
}

/// The thread-shared half of the concurrent runtime. Wrap it in an
/// [`Arc`] and hand each thread a [`ThreadRuntime`] from
/// [`SharedRuntime::thread`]; see the [module docs](self) for the full
/// protocol.
pub struct SharedRuntime {
    staged: StagedProgram,
    costs: DynCosts,
    opts: SharedOptions,
    /// The statically compiled module every thread replica starts from;
    /// global code ids below `base_len` are base functions with the same
    /// [`FuncId`] in every replica.
    base_module: Module,
    base_len: usize,
    /// Append-only site table. Entry sites occupy the prefix; internal
    /// promotion sites discovered during any thread's specialization are
    /// appended under the write lock and never mutated afterwards.
    sites: RwLock<Vec<Arc<SiteEntry>>>,
    /// `[site, key bits...]` → published code.
    cache: ShardedCache<CacheVal>,
    /// Published specialized code, in publication order. Global id =
    /// `base_len + index`; threads copy entries into their own modules on
    /// first use.
    registry: RwLock<Vec<Arc<CodeFunc>>>,
    /// Single-flight wait-map, keyed (and sharded) like the cache.
    inflight: FlightMap,
    stats: ConcStats,
    /// Adaptive specialization policy, `None` in `Always` mode (the
    /// default). Consulted only on the miss path; see [`crate::policy`].
    policy: Option<PolicyEngine>,
    /// Trace thread-id allocator: each [`ThreadRuntime`] takes the next
    /// id so merged event streams distinguish recorders.
    next_thread: AtomicU32,
    /// Live-telemetry handles ([`SharedRuntime::attach_live`]). `None`
    /// (the default) costs the warm path nothing; threads created after
    /// attachment register a per-thread slot and flight ring.
    live: RwLock<Option<LiveHandles>>,
}

impl std::fmt::Debug for SharedRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedRuntime")
            .field("base_len", &self.base_len)
            .field("n_sites", &self.n_sites())
            .field("published", &self.registry.read().unwrap().len())
            .field("opts", &self.opts)
            .finish()
    }
}

/// [`SpecHost`] that appends internal promotion sites to the shared site
/// table, making them visible to every thread.
struct SharedSiteHost<'a> {
    shared: &'a SharedRuntime,
}

impl SpecHost for SharedSiteHost<'_> {
    fn add_site(&mut self, mut site: Site) -> u32 {
        site.precompute_layout();
        let mut sites = self.shared.sites.write().unwrap();
        let id = sites.len() as u32;
        sites.push(Arc::new(SiteEntry::new(site, self.shared.cap_growth())));
        id
    }
}

impl SharedRuntime {
    /// Build the shared runtime for a staged program with default
    /// options (auto-sized shards, [`MissPolicy::Block`]).
    pub fn new(staged: StagedProgram) -> SharedRuntime {
        SharedRuntime::with_options(staged, SharedOptions::default())
    }

    /// Build the shared runtime with explicit [`SharedOptions`].
    pub fn with_options(staged: StagedProgram, opts: SharedOptions) -> SharedRuntime {
        let base_module = staged.build_module();
        let base_len = base_module.len();
        let adaptive =
            opts.policy == PolicyMode::Adaptive || staged.cfg.policy == PolicyMode::Adaptive;
        let policy = adaptive.then(|| PolicyEngine::new(PolicyParams::default()));
        let cap_growth = policy
            .as_ref()
            .map_or(1, |e| e.params().cap_growth_limit.max(1));
        let mut sites = Vec::new();
        for (i, e) in staged.entry_sites.iter().enumerate() {
            let mut site = Site {
                func: e.func,
                block: e.block,
                inst_idx: e.inst_idx,
                base_store: Store::new(),
                key_vars: e.key_vars.iter().map(|(v, _)| *v).collect(),
                arg_vars: e.arg_vars.clone(),
                policy: e.policy,
                division: staged.ge.entry_divisions[i],
                key_pos: Vec::new(),
                dyn_pos: Vec::new(),
            };
            site.precompute_layout();
            sites.push(Arc::new(SiteEntry::new(site, cap_growth)));
        }
        let cache_shards = resolve_shards(opts.shards);
        let flight_shards = if opts.flight_shards == 0 {
            cache_shards
        } else {
            opts.flight_shards
        };
        SharedRuntime {
            cache: ShardedCache::new(cache_shards),
            costs: DynCosts::calibrated(),
            opts,
            base_module,
            base_len,
            sites: RwLock::new(sites),
            registry: RwLock::new(Vec::new()),
            inflight: FlightMap::new(flight_shards),
            stats: ConcStats::default(),
            policy,
            next_thread: AtomicU32::new(0),
            live: RwLock::new(None),
            staged,
        }
    }

    /// Attach live-telemetry handles: every [`ThreadRuntime`] created
    /// afterwards registers a sharded counter slot (and a flight ring
    /// when the handles carry a recorder) and feeds the registry from
    /// its meter points. Attach before spawning workers; existing
    /// threads are unaffected. Telemetry never changes published code,
    /// results, or [`RtStats`] — see `dyc_obs::live`'s
    /// observer-effect-free obligations.
    pub fn attach_live(&self, handles: LiveHandles) {
        *self.live.write().unwrap() = Some(handles);
    }

    /// The attached live-telemetry handles, if any.
    pub fn live_handles(&self) -> Option<LiveHandles> {
        self.live.read().unwrap().clone()
    }

    /// The adaptive policy engine, when enabled (diagnostics and tests).
    pub fn policy_engine(&self) -> Option<&PolicyEngine> {
        self.policy.as_ref()
    }

    /// Bounded-cap growth multiplier for new sites: the policy's
    /// `cap_growth_limit` in adaptive mode, 1 otherwise.
    fn cap_growth(&self) -> usize {
        self.policy
            .as_ref()
            .map_or(1, |e| e.params().cap_growth_limit.max(1))
    }

    /// A fresh per-thread dispatch handler. Pair it with
    /// [`SharedRuntime::base_module`] and the thread's own [`Vm`].
    pub fn thread(shared: &Arc<SharedRuntime>) -> ThreadRuntime {
        let tid = shared.next_thread.fetch_add(1, Ordering::Relaxed);
        let trace = if shared.opts.trace || shared.staged.cfg.trace {
            Trace::on(tid)
        } else {
            Trace::off()
        };
        let miss_hist = shared
            .opts
            .latency
            .then(|| Box::new(LatencyHistogram::new()));
        let live = shared
            .live
            .read()
            .unwrap()
            .as_ref()
            .map(|h| Box::new(h.thread(tid)));
        ThreadRuntime {
            shared: Arc::clone(shared),
            stats: RtStats::new(),
            scratch_key: Vec::new(),
            local_ids: Vec::new(),
            site_cache: Vec::new(),
            trace,
            native: NativeEngine::new(),
            miss_hist,
            live,
        }
    }

    /// A fresh copy of the statically compiled base module for a thread
    /// replica.
    pub fn base_module(&self) -> Module {
        self.base_module.clone()
    }

    /// The staged program being run.
    pub fn staged(&self) -> &StagedProgram {
        &self.staged
    }

    /// Number of dispatch sites (entries + internal promotions so far).
    pub fn n_sites(&self) -> usize {
        self.sites.read().unwrap().len()
    }

    /// Number of entry (statically splice-created) dispatch sites. Site
    /// ids at or above this are internal promotion sites, numbered in
    /// the order their parent specializations first created them.
    pub fn n_entry_sites(&self) -> usize {
        self.staged.entry_sites.len()
    }

    /// Number of code functions published to the shared registry.
    pub fn published(&self) -> usize {
        self.registry.read().unwrap().len()
    }

    /// Resolved code-cache shard count (after auto-sizing and
    /// power-of-two rounding).
    pub fn n_cache_shards(&self) -> usize {
        self.cache.n_shards()
    }

    /// Resolved single-flight wait-map shard count.
    pub fn n_flight_shards(&self) -> usize {
        self.inflight.n_shards()
    }

    /// The published code with global id `gid` (diagnostics / the stress
    /// harness's byte-identity check).
    ///
    /// # Panics
    ///
    /// Panics if `gid` is a base-module id or out of range.
    pub fn code(&self, gid: u32) -> Arc<CodeFunc> {
        Arc::clone(&self.registry.read().unwrap()[gid as usize - self.base_len])
    }

    /// Drop every specialization cached at `point`, exactly like
    /// [`Runtime::invalidate_site`](crate::Runtime::invalidate_site). The
    /// next dispatch through the site re-specializes; published code is
    /// unreachable through this site afterwards but stays in the registry
    /// (ids are never reused, so a stale [`FuncId`] can never be served).
    /// An invalidation racing an in-flight specialization may see that
    /// specialization's binding appear after the purge — that binding is
    /// freshly generated code, not stale code.
    pub fn invalidate_site(&self, point: u32) {
        self.stats
            .cache_invalidations
            .fetch_add(1, Ordering::Relaxed);
        self.cache.purge_prefix(u64::from(point));
        let entry = self.sites.read().unwrap().get(point as usize).cloned();
        if let Some(e) = entry {
            if let Some(ev) = &e.evict {
                ev.reset();
            }
        }
    }

    /// Snapshot of every `(site, key, global id)` binding currently
    /// cached, with the site prefix stripped from the key (matching
    /// [`Runtime::cache_entries`](crate::Runtime::cache_entries)).
    pub fn cache_snapshot(&self) -> Vec<(u32, Vec<u64>, u32)> {
        self.cache
            .snapshot()
            .into_iter()
            .map(|(k, v)| (k[0] as u32, k[1..].to_vec(), v.gid))
            .collect()
    }

    /// Serialize the shared dynamic-code cache — every `(site, key,
    /// code)` binding plus the internal promotion sites — as a
    /// versioned, fingerprinted [`CacheBundle`]. The published registry
    /// supplies the code bytes, so no thread module is needed. Safe to
    /// call while threads run, though a bundle snapshotted mid-burst
    /// simply misses in-flight specializations.
    pub fn snapshot_bundle(&self) -> CacheBundle {
        let cfg = artifact::config_hash(&self.staged.cfg);
        let prog = artifact::program_hash(&self.staged);
        let n_entry = self.staged.entry_sites.len();
        let guard = self.sites.read().unwrap();
        let sites = guard[n_entry..]
            .iter()
            .map(|e| SiteSpec::from_site(&e.site))
            .collect();
        let entries = self
            .cache_snapshot()
            .into_iter()
            .map(|(site, key, gid)| {
                let schema = guard[site as usize]
                    .site
                    .key_vars
                    .iter()
                    .map(|v| v.0)
                    .collect();
                artifact::artifact_for_func(cfg, prog, site, key, schema, &self.code(gid))
            })
            .collect();
        CacheBundle {
            version: ARTIFACT_VERSION,
            config_hash: cfg,
            program_hash: prog,
            n_entry_sites: n_entry as u32,
            sites,
            entries,
        }
    }

    /// Warm-start the shared runtime from a snapshot bundle, mirroring
    /// [`Runtime::restore_bundle`](crate::Runtime::restore_bundle): the
    /// header's `(version, config-hash, program-hash)` triple and site
    /// layout must match and the runtime must be fresh (nothing
    /// published or promoted yet), else every entry is rejected; each
    /// entry then re-verifies its own triple and site binding. Accepted
    /// code is published to the registry and bound in the sharded cache
    /// — threads spawned afterwards hit it on their first dispatch.
    /// Rejections and loads are metered in [`ConcSnapshot`]
    /// (`cache_warm_rejects` / `cache_warm_loads`); nothing panics.
    pub fn restore_bundle(&self, bundle: &CacheBundle) {
        let expect_cfg = artifact::config_hash(&self.staged.cfg);
        let expect_prog = artifact::program_hash(&self.staged);
        let fresh = self.n_sites() == self.staged.entry_sites.len() && self.published() == 0;
        let header_ok = bundle.version == ARTIFACT_VERSION
            && bundle.config_hash == expect_cfg
            && bundle.program_hash == expect_prog
            && bundle.n_entry_sites as usize == self.staged.entry_sites.len()
            && fresh;
        let internal: Option<Vec<Site>> = if header_ok {
            bundle.sites.iter().map(|s| s.to_site().ok()).collect()
        } else {
            None
        };
        let Some(internal) = internal else {
            self.stats
                .cache_warm_rejects
                .fetch_add(bundle.entries.len() as u64, Ordering::Relaxed);
            return;
        };
        {
            let mut host = SharedSiteHost { shared: self };
            for site in internal {
                host.add_site(site);
            }
        }
        let guard = self.sites.read().unwrap();
        for art in &bundle.entries {
            let entry = guard.get(art.site as usize);
            let site_ok = entry.is_some_and(|e| {
                art.key_schema == e.site.key_vars.iter().map(|v| v.0).collect::<Vec<_>>()
            });
            if art.verify(expect_cfg, expect_prog).is_err() || !site_ok {
                self.stats
                    .cache_warm_rejects
                    .fetch_add(1, Ordering::Relaxed);
                continue;
            }
            let entry = entry.expect("checked above");
            let mut full_key = Vec::with_capacity(art.key.len() + 1);
            full_key.push(u64::from(art.site));
            full_key.extend_from_slice(&art.key);
            let clock_idx = match &entry.evict {
                Some(ev) => {
                    if ev.at_capacity() {
                        self.stats
                            .cache_warm_rejects
                            .fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    let (ci, evicted) = ev.admit(&full_key);
                    if let Some(old) = evicted {
                        self.cache.remove(&old);
                    }
                    ci
                }
                None => 0,
            };
            let gid = {
                let mut reg = self.registry.write().unwrap();
                let gid = (self.base_len + reg.len()) as u32;
                reg.push(Arc::new(art.to_func()));
                gid
            };
            if let Some(eng) = &self.policy {
                // Restored entries are already-proven keys: seed the
                // engine so they never defer and re-specialize
                // immediately if ever evicted.
                eng.seed_promoted(full_key.clone());
            }
            self.cache.insert(full_key, CacheVal { gid, clock_idx });
            self.stats.cache_warm_loads.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Snapshot of the global meters.
    pub fn stats(&self) -> ConcSnapshot {
        ConcSnapshot {
            specializations: self.stats.specializations.load(Ordering::Relaxed),
            single_flight_waits: self.stats.single_flight_waits.load(Ordering::Relaxed),
            single_flight_fallbacks: self.stats.single_flight_fallbacks.load(Ordering::Relaxed),
            single_flight_races: self.stats.single_flight_races.load(Ordering::Relaxed),
            cache_evictions: self.stats.cache_evictions.load(Ordering::Relaxed),
            cache_invalidations: self.stats.cache_invalidations.load(Ordering::Relaxed),
            generic_continuations: self.stats.generic_continuations.load(Ordering::Relaxed),
            cache_warm_loads: self.stats.cache_warm_loads.load(Ordering::Relaxed),
            cache_warm_rejects: self.stats.cache_warm_rejects.load(Ordering::Relaxed),
            native_installs: self.stats.native_installs.load(Ordering::Relaxed),
            native_fallbacks: self.stats.native_fallbacks.load(Ordering::Relaxed),
            policy_defers: self.stats.policy_defers.load(Ordering::Relaxed),
            policy_promotes: self.stats.policy_promotes.load(Ordering::Relaxed),
            policy_throttled: self.stats.policy_throttled.load(Ordering::Relaxed),
            published: self.registry.read().unwrap().len() as u64,
            shards: self.cache.meters(),
        }
    }

    /// The global id of `entry`'s generic continuation, compiling and
    /// publishing it on first use. The continuation is ordinary
    /// unspecialized code (annotations vanish, the site's baked static
    /// context is materialized as constants), so it is charged like
    /// statically compiled code — no dynamic-compilation cycles.
    fn generic_continuation(&self, entry: &SiteEntry) -> u32 {
        let mut slot = entry.fallback.lock().unwrap();
        if let Some(g) = *slot {
            return g;
        }
        let site = &entry.site;
        let consts: Vec<_> = site.base_store.iter().map(|(v, val)| (*v, *val)).collect();
        let cf = dyc_ir::codegen::codegen_region_generic(
            &self.staged.ir.funcs[site.func],
            site.block,
            site.inst_idx,
            &site.arg_vars,
            &consts,
        );
        let gid = {
            let mut reg = self.registry.write().unwrap();
            let gid = (self.base_len + reg.len()) as u32;
            reg.push(Arc::new(cf));
            gid
        };
        self.stats
            .generic_continuations
            .fetch_add(1, Ordering::Relaxed);
        *slot = Some(gid);
        gid
    }
}

/// Outcome of the single-flight miss path.
enum MissResult {
    /// Specialized code (winner's own, or the winner we waited for).
    Spec(u32),
    /// The generic continuation — invoked with the *full* dispatch
    /// arguments, not the dynamic subset.
    Generic(u32),
}

/// One thread's dispatch handler over a [`SharedRuntime`]. Owns the
/// thread-local state — per-thread [`RtStats`], the reusable key buffer,
/// and the lazy map from global code ids to this thread's module-local
/// [`FuncId`]s — so the steady-state hit path takes one shard read-lock
/// and performs no heap allocation.
#[derive(Debug)]
pub struct ThreadRuntime {
    shared: Arc<SharedRuntime>,
    /// This thread's run-time meters. `specializations` counts only
    /// specializations this thread won; the global total lives in
    /// [`SharedRuntime::stats`].
    pub stats: RtStats,
    scratch_key: Vec<u64>,
    /// Global registry id − `base_len` → this thread's local [`FuncId`],
    /// filled on first use.
    local_ids: Vec<Option<FuncId>>,
    /// Locally cached prefix of the shared site table (append-only, so a
    /// prefix is never stale).
    site_cache: Vec<Arc<SiteEntry>>,
    /// This thread's event recorder ([`Trace::off`] unless
    /// [`SharedOptions::trace`] or the staged config's `trace` flag is
    /// set). Recording never touches [`RtStats`], published code, or
    /// results; drain it with [`Trace::events`] after the run.
    pub trace: Trace,
    /// This thread's native x86-64 engine. Each thread owns its own
    /// executable arena (mirroring the private module replica), keyed by
    /// the thread-local [`FuncId`]s from [`ThreadRuntime::materialize`].
    /// Inert on platforms without the backend.
    native: NativeEngine,
    /// Miss-path latency histogram, present when
    /// [`SharedOptions::latency`] is set. Boxed so the (cold) miss
    /// path's bookkeeping doesn't bloat the handler the hit path walks.
    miss_hist: Option<Box<LatencyHistogram>>,
    /// This thread's live-telemetry handle, present when the shared
    /// runtime had handles attached ([`SharedRuntime::attach_live`])
    /// before this thread was created. The warm path pays one `None`
    /// branch when telemetry is off and two relaxed atomic adds when on.
    live: Option<Box<LiveThread>>,
}

impl ThreadRuntime {
    /// The shared runtime this handler dispatches against.
    pub fn shared(&self) -> &Arc<SharedRuntime> {
        &self.shared
    }

    /// This thread's miss-path latency histogram, when
    /// [`SharedOptions::latency`] was set: one sample per dispatch miss,
    /// wall nanoseconds from miss detection to runnable code. Merge the
    /// per-thread histograms ([`LatencyHistogram::merge`]) for whole-run
    /// percentiles.
    pub fn miss_latency(&self) -> Option<&LatencyHistogram> {
        self.miss_hist.as_deref()
    }

    /// [`SharedRuntime::invalidate_site`], recorded in this thread's
    /// trace (the shared method is `&self` and has no recorder).
    pub fn invalidate_site(&mut self, point: u32) {
        self.shared.invalidate_site(point);
        self.trace
            .rec(EventKind::CacheInvalidate, point, 0, 0, 0, 0);
    }

    /// Native backend gate: [`SharedOptions::native`] or the staged
    /// config's `native` flag.
    fn native_on(&self) -> bool {
        self.shared.opts.native || self.shared.staged.cfg.native
    }

    /// Hand a lowered artifact to this thread's native engine, metering
    /// the outcome locally and globally.
    fn install_native(&mut self, point: u32, fid: FuncId, art: Option<NativeArtifact>) {
        match self.native.install(fid, art) {
            Some(len) => {
                self.stats.native_installs += 1;
                self.shared
                    .stats
                    .native_installs
                    .fetch_add(1, Ordering::Relaxed);
                self.trace
                    .rec(EventKind::NativeInstall, point, 0, 0, len as u64, 0);
                self.live_event(EventKind::NativeInstall, point, &[], 0, len as u64, 0);
            }
            None => {
                self.stats.native_fallbacks += 1;
                self.shared
                    .stats
                    .native_fallbacks
                    .fetch_add(1, Ordering::Relaxed);
                self.trace.rec(EventKind::NativeFallback, point, 0, 0, 0, 0);
                self.live_event(EventKind::NativeFallback, point, &[], 0, 0, 0);
            }
        }
    }

    /// Native fast path for an invocation tail: when `fid` has an
    /// installed machine-code entry, run it here and hand the
    /// interpreter a completed result. Charges nothing to the cycle
    /// model.
    fn finish_invoke(
        &mut self,
        fid: FuncId,
        out_args: &[Value],
        module: &mut Module,
        vm: &mut Vm,
    ) -> Result<DispatchOutcome, VmError> {
        if let Some(entry) = self.native.entry(fid) {
            let value = exec_entry(&entry, out_args, self, module, vm)?;
            return Ok(DispatchOutcome::Completed { value });
        }
        Ok(DispatchOutcome::Invoke { func: fid })
    }

    /// Bump a live counter by one (no-op without attached telemetry).
    #[inline]
    fn live_bump(&self, m: LiveMetric) {
        if let Some(l) = &self.live {
            l.slot.add(m, 1);
        }
    }

    /// Record a cold-path event into this thread's flight ring, hashing
    /// the key words only when a ring is attached. Always additional to
    /// (never instead of) the `Trace` recorder, so tracing semantics are
    /// unchanged whether or not telemetry is on.
    #[inline]
    fn live_event(
        &self,
        kind: EventKind,
        site: u32,
        key_words: &[u64],
        cycle: u64,
        a: u64,
        b: u64,
    ) {
        if let Some(l) = &self.live {
            if let Some(ring) = &l.ring {
                ring.record(kind, site, dyc_obs::key_hash(key_words), cycle, a, b);
            }
        }
    }

    fn charge(&mut self, vm: &mut Vm, cycles: u64) {
        self.stats.dyncomp_cycles += cycles;
        vm.stats.dyncomp_cycles += cycles;
    }

    /// Make `site_cache[point]` valid, refreshing the local prefix from
    /// the shared table only when `point` is beyond it (i.e. another
    /// thread registered a new internal promotion site). The dispatch
    /// path then borrows the entry in place, so a hit never touches the
    /// shared `Arc`'s reference count.
    fn refresh_sites(&mut self, point: u32) {
        if point as usize >= self.site_cache.len() {
            let sites = self.shared.sites.read().unwrap();
            let have = self.site_cache.len();
            self.site_cache.extend(sites[have..].iter().cloned());
        }
    }

    /// Copy published code `gid` into this thread's module on first use;
    /// base-module ids map to themselves. `point` tags the native-install
    /// trace event.
    fn materialize(&mut self, point: u32, gid: u32, module: &mut Module, vm: &mut Vm) -> FuncId {
        if (gid as usize) < self.shared.base_len {
            return FuncId(gid);
        }
        let idx = gid as usize - self.shared.base_len;
        if idx >= self.local_ids.len() {
            self.local_ids.resize(idx + 1, None);
        }
        if let Some(f) = self.local_ids[idx] {
            return f;
        }
        let cf = self.shared.registry.read().unwrap()[idx].as_ref().clone();
        let fid = module.add_func(cf);
        // Installing code in this replica models the same `imb` + install
        // cost the winner paid in its own module.
        vm.flush_icache();
        let install = self.shared.costs.install;
        self.charge(vm, install);
        self.local_ids[idx] = Some(fid);
        // First materialization in this thread: lower to machine code in
        // this thread's own arena (the winner thread did the same in
        // `do_specialize`).
        if self.native_on() {
            let art = lower_func(module.func(fid));
            self.install_native(point, fid, art);
        }
        fid
    }

    /// Run the GE executor for this site/key in this thread's module.
    /// `key` is the shared-cache key (`[site, key bits...]`), used only
    /// to tag trace events.
    fn do_specialize(
        &mut self,
        entry: &SiteEntry,
        key: &[u64],
        args: &[Value],
        module: &mut Module,
        vm: &mut Vm,
    ) -> Result<FuncId, VmError> {
        let site = &entry.site;
        let mut store = site.base_store.clone();
        for (v, &p) in site.key_vars.iter().zip(&site.key_pos) {
            store.insert(*v, args[p]);
        }
        self.stats.specializations += 1;
        let Some(d) = site.division else {
            return Err(VmError::Dispatch(
                "concurrent dispatch requires a staged GE division \
                 (online-specializer fallback is single-threaded only)"
                    .into(),
            ));
        };
        let point = key[0] as u32;
        let kh = if self.trace.is_on() {
            dyc_obs::key_hash(&key[1..])
        } else {
            0
        };
        let (dyn0, instr0) = (self.stats.dyncomp_cycles, self.stats.instrs_generated);
        self.trace.rec(
            EventKind::GeExecBegin,
            point,
            kh,
            vm.stats.total_cycles(),
            0,
            0,
        );
        self.live_event(
            EventKind::GeExecBegin,
            point,
            &key[1..],
            vm.stats.total_cycles(),
            0,
            0,
        );
        let shared = Arc::clone(&self.shared);
        let mut env = SpecEnv {
            staged: &shared.staged,
            costs: shared.costs,
            budget: shared.opts.spec_budget,
            stats: &mut self.stats,
            trace: &mut self.trace,
        };
        let mut host = SharedSiteHost { shared: &shared };
        let (f, native_art) =
            GeExecutor::run(&mut env, &mut host, point, site, store, d, module, vm)?;
        vm.flush_icache();
        let install = shared.costs.install;
        self.charge(vm, install);
        if self.native_on() {
            // The GE path lowered during emission when the staged config
            // asked for it; lower the finished code otherwise.
            let art = native_art.or_else(|| lower_func(module.func(f)));
            self.install_native(point, f, art);
        }
        self.trace.rec(
            EventKind::GeExecEnd,
            point,
            kh,
            vm.stats.total_cycles(),
            self.stats.dyncomp_cycles - dyn0,
            self.stats.instrs_generated - instr0,
        );
        self.live_event(
            EventKind::GeExecEnd,
            point,
            &key[1..],
            vm.stats.total_cycles(),
            self.stats.dyncomp_cycles - dyn0,
            self.stats.instrs_generated - instr0,
        );
        if let Some(l) = &self.live {
            // Per-site specialization economics for the sampler's
            // break-even-drift window.
            l.registry
                .note_spec(point, self.stats.dyncomp_cycles - dyn0);
        }
        if let Some(eng) = &shared.policy {
            // Feed the measured cost into the site's break-even
            // threshold estimate.
            eng.note_spec(point, self.stats.dyncomp_cycles - dyn0);
        }
        Ok(f)
    }

    /// Winner path: specialize, publish to the registry and cache, then
    /// resolve and remove the flight (in that order — see the module docs
    /// on memory ordering).
    fn specialize_publish(
        &mut self,
        entry: &SiteEntry,
        key: &[u64],
        args: &[Value],
        flight: &Flight,
        module: &mut Module,
        vm: &mut Vm,
    ) -> Result<u32, VmError> {
        let out = match self.do_specialize(entry, key, args, module, vm) {
            Ok(fid) => {
                let cf = module.func(fid).clone();
                let gid = {
                    let mut reg = self.shared.registry.write().unwrap();
                    let gid = (self.shared.base_len + reg.len()) as u32;
                    reg.push(Arc::new(cf));
                    gid
                };
                let idx = gid as usize - self.shared.base_len;
                if idx >= self.local_ids.len() {
                    self.local_ids.resize(idx + 1, None);
                }
                self.local_ids[idx] = Some(fid);
                let clock_idx = match &entry.evict {
                    Some(ev) => {
                        if let Some(eng) = &self.shared.policy {
                            // Auto-sizing: revivals observed at this site
                            // grow the effective bound (pre-allocated
                            // headroom, so no reallocation).
                            if let SitePolicy::CacheAllBounded(k) = entry.site.policy {
                                ev.grow_to(eng.cap_for(key[0] as u32, k.max(1) as usize));
                            }
                        }
                        let (ci, evicted) = ev.admit(key);
                        if let Some(old) = evicted {
                            // Outside the clock mutex: see `admit` docs.
                            self.shared.cache.remove(&old);
                            self.stats.cache_evictions += 1;
                            self.shared
                                .stats
                                .cache_evictions
                                .fetch_add(1, Ordering::Relaxed);
                            if self.trace.is_on() {
                                self.trace.rec(
                                    EventKind::CacheEvict,
                                    key[0] as u32,
                                    dyc_obs::key_hash(&old[1..]),
                                    vm.stats.total_cycles(),
                                    u64::from(ci),
                                    0,
                                );
                            }
                            self.live_bump(LiveMetric::Evictions);
                            self.live_event(
                                EventKind::CacheEvict,
                                key[0] as u32,
                                &old[1..],
                                vm.stats.total_cycles(),
                                u64::from(ci),
                                0,
                            );
                        }
                        ci
                    }
                    None => 0,
                };
                self.shared
                    .cache
                    .insert(key.to_vec(), CacheVal { gid, clock_idx });
                self.shared
                    .stats
                    .specializations
                    .fetch_add(1, Ordering::Relaxed);
                self.live_bump(LiveMetric::Specializations);
                Ok(gid)
            }
            Err(e) => Err(e),
        };
        self.shared.inflight.shard(key).lock().unwrap().remove(key);
        flight.resolve(match &out {
            Ok(g) => Ok(*g),
            Err(e) => Err(e.to_string()),
        });
        out
    }

    /// Single-flight miss path: become the winner or follow the policy.
    fn miss(
        &mut self,
        entry: &SiteEntry,
        key: &[u64],
        args: &[Value],
        module: &mut Module,
        vm: &mut Vm,
    ) -> Result<MissResult, VmError> {
        // Adaptive-policy gate: decide *whether* to specialize before
        // entering the single-flight protocol. A deferred or throttled
        // miss runs the generic continuation and never takes a flight.
        if self.shared.policy.is_some() {
            let shared = Arc::clone(&self.shared);
            let eng = shared.policy.as_ref().expect("checked above");
            let point = key[0] as u32;
            let entry_site = (point as usize) < shared.staged.entry_sites.len();
            let decision = eng.on_miss(key, entry_site);
            let count = u64::from(eng.count_of(key));
            let trace_on = self.trace.is_on();
            let kh = if trace_on {
                dyc_obs::key_hash(&key[1..])
            } else {
                0
            };
            match decision {
                PolicyDecision::Specialize { promoted } => {
                    if promoted {
                        self.stats.policy_promotes += 1;
                        shared.stats.policy_promotes.fetch_add(1, Ordering::Relaxed);
                        self.live_bump(LiveMetric::PolicyPromotes);
                        self.live_event(
                            EventKind::PolicyPromote,
                            point,
                            &key[1..],
                            vm.stats.total_cycles(),
                            count,
                            0,
                        );
                        if trace_on {
                            self.trace.rec(
                                EventKind::PolicyPromote,
                                point,
                                kh,
                                vm.stats.total_cycles(),
                                count,
                                0,
                            );
                        }
                    }
                }
                PolicyDecision::Defer => {
                    self.stats.policy_defers += 1;
                    shared.stats.policy_defers.fetch_add(1, Ordering::Relaxed);
                    self.live_bump(LiveMetric::PolicyDefers);
                    self.live_event(
                        EventKind::PolicyDefer,
                        point,
                        &key[1..],
                        vm.stats.total_cycles(),
                        count,
                        0,
                    );
                    if trace_on {
                        self.trace.rec(
                            EventKind::PolicyDefer,
                            point,
                            kh,
                            vm.stats.total_cycles(),
                            count,
                            0,
                        );
                    }
                    return Ok(MissResult::Generic(shared.generic_continuation(entry)));
                }
                PolicyDecision::Throttle => {
                    self.stats.policy_throttled += 1;
                    shared
                        .stats
                        .policy_throttled
                        .fetch_add(1, Ordering::Relaxed);
                    self.live_bump(LiveMetric::PolicyThrottles);
                    self.live_event(
                        EventKind::PolicyThrottle,
                        point,
                        &key[1..],
                        vm.stats.total_cycles(),
                        count,
                        0,
                    );
                    if trace_on {
                        self.trace.rec(
                            EventKind::PolicyThrottle,
                            point,
                            kh,
                            vm.stats.total_cycles(),
                            count,
                            0,
                        );
                    }
                    return Ok(MissResult::Generic(shared.generic_continuation(entry)));
                }
            }
        }
        enum Role {
            Winner(Arc<Flight>),
            Racer(Arc<Flight>),
            Published(u32),
        }
        let role = {
            let mut map = self.shared.inflight.shard(key).lock().unwrap();
            if let Some(fl) = map.get(key) {
                Role::Racer(Arc::clone(fl))
            } else if let Some(v) = self.shared.cache.get(key).value {
                // Published between our probe and taking the shard lock.
                Role::Published(v.gid)
            } else {
                let fl = Arc::new(Flight::new());
                map.insert(key.to_vec(), Arc::clone(&fl));
                Role::Winner(fl)
            }
        };
        match role {
            Role::Published(gid) => {
                self.shared
                    .stats
                    .single_flight_races
                    .fetch_add(1, Ordering::Relaxed);
                self.live_bump(LiveMetric::FlightRaces);
                Ok(MissResult::Spec(gid))
            }
            Role::Winner(fl) => {
                vm.stats.dispatch_misses += 1;
                self.specialize_publish(entry, key, args, &fl, module, vm)
                    .map(MissResult::Spec)
            }
            Role::Racer(fl) => match self.shared.opts.miss_policy {
                MissPolicy::Block => {
                    self.stats.single_flight_waits += 1;
                    self.shared
                        .stats
                        .single_flight_waits
                        .fetch_add(1, Ordering::Relaxed);
                    self.live_bump(LiveMetric::FlightWaits);
                    let t0 = (self.trace.is_on() || self.live.is_some()).then(now_ns);
                    let res = fl.wait();
                    if let Some(t0) = t0 {
                        let waited = now_ns().saturating_sub(t0);
                        if self.trace.is_on() {
                            self.trace.rec(
                                EventKind::FlightWait,
                                key[0] as u32,
                                dyc_obs::key_hash(&key[1..]),
                                vm.stats.total_cycles(),
                                waited,
                                0,
                            );
                        }
                        self.live_event(
                            EventKind::FlightWait,
                            key[0] as u32,
                            &key[1..],
                            vm.stats.total_cycles(),
                            waited,
                            0,
                        );
                    }
                    match res {
                        Ok(gid) => Ok(MissResult::Spec(gid)),
                        Err(m) => Err(VmError::Dispatch(m)),
                    }
                }
                MissPolicy::Fallback => {
                    self.stats.single_flight_fallbacks += 1;
                    self.shared
                        .stats
                        .single_flight_fallbacks
                        .fetch_add(1, Ordering::Relaxed);
                    self.live_bump(LiveMetric::FlightFallbacks);
                    if self.trace.is_on() {
                        self.trace.rec(
                            EventKind::FlightFallback,
                            key[0] as u32,
                            dyc_obs::key_hash(&key[1..]),
                            vm.stats.total_cycles(),
                            0,
                            0,
                        );
                    }
                    self.live_event(
                        EventKind::FlightFallback,
                        key[0] as u32,
                        &key[1..],
                        vm.stats.total_cycles(),
                        0,
                        0,
                    );
                    Ok(MissResult::Generic(self.shared.generic_continuation(entry)))
                }
            },
        }
    }
}

/// Charge a dispatch lookup to the thread's meters and the VM's. A free
/// function so the dispatch path can call it while it borrows its site
/// entry from the handler.
fn charge_dispatch(stats: &mut RtStats, vm: &mut Vm, cycles: u64) {
    stats.dispatch_cycles += cycles;
    vm.stats.dispatch_cycles += cycles;
}

impl DispatchHandler for ThreadRuntime {
    fn dispatch(
        &mut self,
        point: u32,
        args: &[Value],
        out_args: &mut Vec<Value>,
        module: &mut Module,
        vm: &mut Vm,
    ) -> Result<DispatchOutcome, VmError> {
        self.refresh_sites(point);
        let entry = &self.site_cache[point as usize];
        let site = &entry.site;
        if args.len() != site.arg_vars.len() {
            return Err(VmError::Dispatch(format!(
                "site {point}: expected {} args, got {}",
                site.arg_vars.len(),
                args.len()
            )));
        }

        // Build the shared-cache key: [site, promoted key bits...]
        // (cache-one-unchecked sites key on the site alone).
        let mut key = std::mem::take(&mut self.scratch_key);
        key.clear();
        if key.capacity() < site.key_pos.len() + 1 {
            self.stats.dispatch_allocs += 1;
        }
        key.push(u64::from(point));
        if site.policy != SitePolicy::CacheOneUnchecked {
            key.extend(site.key_pos.iter().map(|&p| args[p].key_bits()));
        }

        // Hit path: one shard read-lock, metered per policy with the same
        // cost constants as the single-threaded dispatcher.
        let probed = self.shared.cache.get(&key);
        let cost = match site.policy {
            SitePolicy::CacheOneUnchecked => {
                let c = self.shared.costs.dispatch_unchecked;
                charge_dispatch(&mut self.stats, vm, c);
                self.stats.dispatch_unchecked += 1;
                c
            }
            SitePolicy::CacheIndexed => {
                let c = self.shared.costs.dispatch_indexed;
                charge_dispatch(&mut self.stats, vm, c);
                self.stats.dispatch_indexed += 1;
                c
            }
            SitePolicy::CacheAll | SitePolicy::CacheAllBounded(_) => {
                let c = self
                    .shared
                    .costs
                    .hashed_dispatch(key.len() - 1, probed.probes);
                charge_dispatch(&mut self.stats, vm, c);
                self.stats.dispatch_hashed += 1;
                self.stats.dispatch_probes += u64::from(probed.probes);
                c
            }
        };

        // Trace tags: events record into the preallocated per-thread ring,
        // so the warm path stays allocation-free even while tracing.
        let trace_on = self.trace.is_on();
        let kh = if trace_on {
            dyc_obs::key_hash(&key[1..])
        } else {
            0
        };
        let hashed = matches!(
            site.policy,
            SitePolicy::CacheAll | SitePolicy::CacheAllBounded(_)
        );
        let probes = if hashed { u64::from(probed.probes) } else { 0 };

        let gid = match probed.value {
            Some(v) => {
                if let Some(l) = &self.live {
                    l.slot.add(LiveMetric::Dispatches, 1);
                    l.slot.add(LiveMetric::Hits, 1);
                }
                if let Some(eng) = &self.shared.policy {
                    eng.note_hit(point);
                }
                if let Some(ev) = &entry.evict {
                    ev.touch(v.clock_idx);
                }
                if trace_on {
                    let kind = match site.policy {
                        SitePolicy::CacheOneUnchecked => EventKind::DispatchUnchecked,
                        SitePolicy::CacheIndexed => EventKind::DispatchIndexed,
                        _ => EventKind::DispatchHit,
                    };
                    self.trace
                        .rec(kind, point, kh, vm.stats.total_cycles(), cost, probes);
                }
                out_args.extend(site.dyn_pos.iter().map(|&i| args[i]));
                v.gid
            }
            None => {
                // The miss path needs `&mut self`, so it holds its own
                // reference to the entry; only here is the `Arc` cloned.
                let entry = Arc::clone(entry);
                if trace_on {
                    self.trace.rec(
                        EventKind::DispatchMiss,
                        point,
                        kh,
                        vm.stats.total_cycles(),
                        cost,
                        probes,
                    );
                }
                self.live_bump(LiveMetric::Dispatches);
                self.live_bump(LiveMetric::Misses);
                self.live_event(
                    EventKind::DispatchMiss,
                    point,
                    &key[1..],
                    vm.stats.total_cycles(),
                    cost,
                    probes,
                );
                // Miss-path latency: miss detection → runnable code
                // (specialize, wait, or continuation build), recorded in
                // the pre-allocated per-thread histogram. Hit dispatches
                // never reach this arm, so the warm path reads no clock.
                let lat0 = (self.miss_hist.is_some() || self.live.is_some()).then(now_ns);
                let missed = self.miss(&entry, &key, args, module, vm);
                if let Some(t0) = lat0 {
                    let d = now_ns().saturating_sub(t0);
                    if let Some(h) = self.miss_hist.as_mut() {
                        h.record(d);
                    }
                    if let Some(l) = &self.live {
                        l.slot.record_miss_ns(d);
                    }
                }
                match missed? {
                    MissResult::Spec(gid) => {
                        out_args.extend(entry.site.dyn_pos.iter().map(|&i| args[i]));
                        gid
                    }
                    MissResult::Generic(gid) => {
                        // The generic continuation takes every dispatch
                        // argument (nothing is baked in but the base store).
                        let fid = self.materialize(point, gid, module, vm);
                        self.scratch_key = key;
                        out_args.extend_from_slice(args);
                        return self.finish_invoke(fid, out_args, module, vm);
                    }
                }
            }
        };

        let fid = self.materialize(point, gid, module, vm);
        self.scratch_key = key;
        self.finish_invoke(fid, out_args, module, vm)
    }
}

impl NativeDispatch for ThreadRuntime {
    fn native_dispatch(
        &mut self,
        point: u32,
        args: &[Value],
        module: &mut Module,
        vm: &mut Vm,
    ) -> Result<Option<Value>, VmError> {
        // Mirror of the interpreter's `Dispatch` arm: count it, run the
        // handler, then either take the completed value (the callee ran
        // natively too) or interpret the specialized function.
        vm.stats.dispatches += 1;
        let mut out_args = Vec::new();
        match self.dispatch(point, args, &mut out_args, module, vm)? {
            DispatchOutcome::Completed { value } => Ok(value),
            DispatchOutcome::Invoke { func } => vm.call_with_handler(module, self, func, &out_args),
        }
    }

    fn native_call(
        &mut self,
        func: FuncId,
        args: &[Value],
        module: &mut Module,
        vm: &mut Vm,
    ) -> Result<Option<Value>, VmError> {
        if let Some(entry) = self.native.entry(func) {
            return exec_entry(&entry, args, self, module, vm);
        }
        vm.call_with_handler(module, self, func, args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyc_bta::OptConfig;
    use dyc_vm::CostModel;

    fn staged(src: &str) -> StagedProgram {
        let mut ir = dyc_ir::lower_program(&dyc_lang::parse_program(src).unwrap()).unwrap();
        dyc_ir::opt::optimize_program(&mut ir);
        dyc_stage::stage_program(ir, OptConfig::all())
    }

    const POWER: &str = "int pow(int b, int e) { make_static(e);
        int r = 1; while (e > 0) { r = r * b; e = e - 1; } return r; }";

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn shared_runtime_is_send_and_sync() {
        assert_send_sync::<SharedRuntime>();
        assert_send_sync::<ThreadRuntime>();
    }

    /// `[site, k]` keys must spread over the shards *and* over each
    /// shard's table. With the shard chosen from the low bits of
    /// `DoubleHashCache::h1` itself, every key in a shard shares those
    /// bits and lookups average about 7 probes; a shard hash without
    /// enough mixing (a plain rotate) instead sends every key to one
    /// shard. The first assert catches the former, the second the latter.
    #[test]
    fn shard_hash_spreads_keys_over_shards_and_slots() {
        const KEYS: u64 = 4_096;
        const SHARDS: usize = 16;
        let c: ShardedCache<u32> = ShardedCache::new(SHARDS);
        for k in 0..KEYS {
            c.insert(vec![3, k], k as u32);
        }
        for k in 0..KEYS {
            assert_eq!(c.get(&[3, k]).value, Some(k as u32));
        }
        let meters = c.meters();
        let lookups: u64 = meters.iter().map(|m| m.lookups).sum();
        let probes: u64 = meters.iter().map(|m| m.probes).sum();
        assert_eq!(lookups, KEYS);
        let per_lookup = probes as f64 / lookups as f64;
        assert!(per_lookup <= 1.3, "{per_lookup:.2} probes per lookup");
        let hottest = meters.iter().map(|m| m.lookups).max().unwrap();
        let imbalance = hottest as f64 / (KEYS as f64 / SHARDS as f64);
        assert!(imbalance <= 1.5, "hottest shard imbalance {imbalance:.2}");
    }

    #[test]
    fn sharded_cache_basics() {
        let c: ShardedCache<u32> = ShardedCache::new(3); // rounds to 4
        assert_eq!(c.n_shards(), 4);
        assert!(c.is_empty());
        for i in 0..100u64 {
            c.insert(vec![i % 7, i], i as u32);
        }
        assert_eq!(c.len(), 100);
        for i in 0..100u64 {
            assert_eq!(c.get(&[i % 7, i]).value, Some(i as u32));
        }
        assert_eq!(c.remove(&[0, 0]), Some(0));
        assert_eq!(c.get(&[0, 0]).value, None);
        // Purge everything with site prefix 3.
        let purged = c.purge_prefix(3);
        assert!(purged > 0);
        assert!(c.snapshot().iter().all(|(k, _)| k[0] != 3));
        let m = c.meters();
        assert_eq!(m.len(), 4);
        assert!(m.iter().map(|s| s.lookups).sum::<u64>() >= 101);
    }

    #[test]
    fn single_thread_end_to_end_with_cache_hits() {
        let shared = Arc::new(SharedRuntime::new(staged(POWER)));
        let mut t = SharedRuntime::thread(&shared);
        let mut module = shared.base_module();
        let mut vm = Vm::new(CostModel::alpha21164());
        let id = module.func_by_name("pow").unwrap();
        for _ in 0..4 {
            let out = vm
                .call_with_handler(&mut module, &mut t, id, &[Value::I(3), Value::I(4)])
                .unwrap();
            assert_eq!(out, Some(Value::I(81)));
        }
        let s = shared.stats();
        assert_eq!(s.specializations, 1);
        assert_eq!(s.published, 1);
        assert_eq!(s.single_flight_suppressed(), 0);
        assert_eq!(t.stats.specializations, 1);
        assert_eq!(t.stats.runtime_bta_calls, 0);
        // New key, new specialization.
        let out = vm
            .call_with_handler(&mut module, &mut t, id, &[Value::I(2), Value::I(10)])
            .unwrap();
        assert_eq!(out, Some(Value::I(1024)));
        assert_eq!(shared.stats().specializations, 2);
    }

    #[test]
    fn threads_race_without_duplicate_specializations() {
        let shared = Arc::new(SharedRuntime::new(staged(POWER)));
        let n = 8;
        let barrier = Arc::new(std::sync::Barrier::new(n));
        let handles: Vec<_> = (0..n)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let mut t = SharedRuntime::thread(&shared);
                    let mut module = shared.base_module();
                    let mut vm = Vm::new(CostModel::alpha21164());
                    let id = module.func_by_name("pow").unwrap();
                    barrier.wait();
                    for e in [4i64, 4, 7, 7, 4, 9] {
                        let out = vm
                            .call_with_handler(&mut module, &mut t, id, &[Value::I(2), Value::I(e)])
                            .unwrap();
                        assert_eq!(out, Some(Value::I(1i64 << e)));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Three distinct keys → exactly three specializations globally,
        // no matter how the eight threads interleaved.
        let s = shared.stats();
        assert_eq!(s.specializations, 3);
        assert_eq!(s.published, 3);
        assert_eq!(shared.cache_snapshot().len(), 3);
    }

    #[test]
    fn fallback_policy_produces_correct_results_under_races() {
        let shared = Arc::new(SharedRuntime::with_options(
            staged(POWER),
            SharedOptions {
                miss_policy: MissPolicy::Fallback,
                ..SharedOptions::default()
            },
        ));
        let n = 8;
        let barrier = Arc::new(std::sync::Barrier::new(n));
        let handles: Vec<_> = (0..n)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let mut t = SharedRuntime::thread(&shared);
                    let mut module = shared.base_module();
                    let mut vm = Vm::new(CostModel::alpha21164());
                    let id = module.func_by_name("pow").unwrap();
                    barrier.wait();
                    for e in [5i64, 5, 8, 8, 5] {
                        let out = vm
                            .call_with_handler(&mut module, &mut t, id, &[Value::I(2), Value::I(e)])
                            .unwrap();
                        assert_eq!(out, Some(Value::I(1i64 << e)));
                    }
                    t.stats.single_flight_fallbacks
                })
            })
            .collect();
        let fallbacks: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        let s = shared.stats();
        assert_eq!(s.specializations, 2); // two distinct keys
        assert_eq!(s.single_flight_fallbacks, fallbacks);
        // Whether any race actually happened is scheduling-dependent, but
        // a compiled continuation implies at least one fallback occurred.
        assert!(s.generic_continuations <= 1);
        assert!((s.generic_continuations == 0) == (fallbacks == 0));
    }

    #[test]
    fn generic_continuation_matches_specialized_results() {
        let shared = Arc::new(SharedRuntime::new(staged(POWER)));
        let mut t = SharedRuntime::thread(&shared);
        let mut module = shared.base_module();
        let mut vm = Vm::new(CostModel::alpha21164());
        // Force-build the continuation for the entry site and run it with
        // the full dispatch arguments [b, e] (arg order).
        let sites = shared.sites.read().unwrap();
        let entry = Arc::clone(&sites[0]);
        drop(sites);
        let gid = shared.generic_continuation(&entry);
        let fid = t.materialize(0, gid, &mut module, &mut vm);
        for (b, e) in [(3i64, 4i64), (2, 0), (5, 3), (-2, 5)] {
            let args: Vec<Value> = entry
                .site
                .arg_vars
                .iter()
                .map(|v| {
                    // pow's arg_vars are its two params in order (b, e).
                    let idx = entry.site.arg_vars.iter().position(|x| x == v).unwrap();
                    if idx == 0 {
                        Value::I(b)
                    } else {
                        Value::I(e)
                    }
                })
                .collect();
            let generic = vm.call(&mut module, fid, &args).unwrap();
            assert_eq!(generic, Some(Value::I(b.pow(e as u32))), "pow({b},{e})");
        }
        // Only one continuation is ever compiled per site.
        assert_eq!(shared.generic_continuation(&entry), gid);
        assert_eq!(shared.stats().generic_continuations, 1);
    }

    #[test]
    fn bounded_sites_evict_and_respecialize() {
        let src = "int pow(int b, int e) { make_static(e: cache_all(2));
            int r = 1; while (e > 0) { r = r * b; e = e - 1; } return r; }";
        let shared = Arc::new(SharedRuntime::new(staged(src)));
        let mut t = SharedRuntime::thread(&shared);
        let mut module = shared.base_module();
        let mut vm = Vm::new(CostModel::alpha21164());
        let id = module.func_by_name("pow").unwrap();
        let mut run = |e: i64| {
            let out = vm
                .call_with_handler(&mut module, &mut t, id, &[Value::I(2), Value::I(e)])
                .unwrap();
            assert_eq!(out, Some(Value::I(1i64 << e)));
        };
        run(1);
        run(2);
        run(3); // capacity 2: someone is evicted
        let s = shared.stats();
        assert_eq!(s.specializations, 3);
        assert_eq!(s.cache_evictions, 1);
        assert!(shared.cache_snapshot().len() <= 2);
        // The evicted key re-specializes correctly (never a stale id).
        let before = shared.stats().specializations;
        run(1);
        run(2);
        run(3);
        let after = shared.stats().specializations;
        assert!(after > before, "an evicted key must re-specialize");
        assert!(shared.cache_snapshot().len() <= 2);
    }

    #[test]
    fn invalidate_site_forces_respecialization() {
        let shared = Arc::new(SharedRuntime::new(staged(POWER)));
        let mut t = SharedRuntime::thread(&shared);
        let mut module = shared.base_module();
        let mut vm = Vm::new(CostModel::alpha21164());
        let id = module.func_by_name("pow").unwrap();
        let args = [Value::I(3), Value::I(4)];
        vm.call_with_handler(&mut module, &mut t, id, &args)
            .unwrap();
        assert_eq!(shared.stats().specializations, 1);
        shared.invalidate_site(0);
        assert!(shared.cache_snapshot().is_empty());
        let out = vm
            .call_with_handler(&mut module, &mut t, id, &args)
            .unwrap();
        assert_eq!(out, Some(Value::I(81)));
        let s = shared.stats();
        assert_eq!(s.specializations, 2);
        assert_eq!(s.cache_invalidations, 1);
    }

    #[test]
    fn steady_state_hits_do_not_allocate_in_dispatch() {
        let shared = Arc::new(SharedRuntime::new(staged(POWER)));
        let mut t = SharedRuntime::thread(&shared);
        let mut module = shared.base_module();
        let mut vm = Vm::new(CostModel::alpha21164());
        let id = module.func_by_name("pow").unwrap();
        let args = [Value::I(3), Value::I(4)];
        // Warm up: specialize + materialize + grow the scratch key.
        vm.call_with_handler(&mut module, &mut t, id, &args)
            .unwrap();
        vm.call_with_handler(&mut module, &mut t, id, &args)
            .unwrap();
        let allocs = t.stats.dispatch_allocs;
        for _ in 0..50 {
            vm.call_with_handler(&mut module, &mut t, id, &args)
                .unwrap();
        }
        assert_eq!(
            t.stats.dispatch_allocs, allocs,
            "hit path must not allocate"
        );
    }

    #[test]
    fn conc_snapshot_covers_every_meter() {
        // Size accounting: adding an atomic to ConcStats or a field to
        // ConcSnapshot without updating the other (and `stats()`) trips
        // one of these, which forces the round-trip list below — and
        // therefore the snapshot plumbing — to stay complete.
        assert_eq!(std::mem::size_of::<ConcStats>(), 14 * 8);
        assert_eq!(
            std::mem::size_of::<ConcSnapshot>(),
            std::mem::size_of::<Vec<ShardMeter>>() + 15 * 8
        );
        let shared = SharedRuntime::new(staged(POWER));
        let fields: [&AtomicU64; 14] = [
            &shared.stats.specializations,
            &shared.stats.single_flight_waits,
            &shared.stats.single_flight_fallbacks,
            &shared.stats.single_flight_races,
            &shared.stats.cache_evictions,
            &shared.stats.cache_invalidations,
            &shared.stats.generic_continuations,
            &shared.stats.cache_warm_loads,
            &shared.stats.cache_warm_rejects,
            &shared.stats.native_installs,
            &shared.stats.native_fallbacks,
            &shared.stats.policy_defers,
            &shared.stats.policy_promotes,
            &shared.stats.policy_throttled,
        ];
        for (i, f) in fields.iter().enumerate() {
            f.store(i as u64 + 1, Ordering::Relaxed);
        }
        let s = shared.stats();
        let got = [
            s.specializations,
            s.single_flight_waits,
            s.single_flight_fallbacks,
            s.single_flight_races,
            s.cache_evictions,
            s.cache_invalidations,
            s.generic_continuations,
            s.cache_warm_loads,
            s.cache_warm_rejects,
            s.native_installs,
            s.native_fallbacks,
            s.policy_defers,
            s.policy_promotes,
            s.policy_throttled,
        ];
        for (i, v) in got.iter().enumerate() {
            assert_eq!(*v, i as u64 + 1, "meter {i} dropped by stats()");
        }
        assert_eq!(s.published, 0);
    }

    #[test]
    fn adaptive_policy_defers_then_promotes() {
        let shared = Arc::new(SharedRuntime::with_options(
            staged(POWER),
            SharedOptions {
                policy: PolicyMode::Adaptive,
                ..SharedOptions::default()
            },
        ));
        let mut t = SharedRuntime::thread(&shared);
        let mut module = shared.base_module();
        let mut vm = Vm::new(CostModel::alpha21164());
        let id = module.func_by_name("pow").unwrap();
        let run = |t: &mut ThreadRuntime, module: &mut Module, vm: &mut Vm| {
            vm.call_with_handler(module, t, id, &[Value::I(3), Value::I(4)])
                .unwrap()
        };
        // First dispatch: below the cold-start threshold (2) → the
        // generic continuation runs, with the right answer.
        assert_eq!(run(&mut t, &mut module, &mut vm), Some(Value::I(81)));
        let s = shared.stats();
        assert_eq!(
            (s.specializations, s.policy_defers, s.generic_continuations),
            (0, 1, 1)
        );
        // Second: crosses the threshold → promoted and specialized.
        assert_eq!(run(&mut t, &mut module, &mut vm), Some(Value::I(81)));
        let s = shared.stats();
        assert_eq!((s.specializations, s.policy_promotes), (1, 1));
        // Third: a plain cache hit.
        assert_eq!(run(&mut t, &mut module, &mut vm), Some(Value::I(81)));
        assert_eq!(shared.stats().specializations, 1);
        // Per-thread meters agree with the global atomics.
        assert_eq!((t.stats.policy_defers, t.stats.policy_promotes), (1, 1));
    }

    #[test]
    fn adaptive_policy_counts_exactly_under_contention() {
        let shared = Arc::new(SharedRuntime::with_options(
            staged(POWER),
            SharedOptions {
                policy: PolicyMode::Adaptive,
                ..SharedOptions::default()
            },
        ));
        let n = 8;
        let barrier = Arc::new(std::sync::Barrier::new(n));
        let handles: Vec<_> = (0..n)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let mut t = SharedRuntime::thread(&shared);
                    let mut module = shared.base_module();
                    let mut vm = Vm::new(CostModel::alpha21164());
                    let id = module.func_by_name("pow").unwrap();
                    barrier.wait();
                    for _ in 0..50 {
                        let out = vm
                            .call_with_handler(&mut module, &mut t, id, &[Value::I(2), Value::I(6)])
                            .unwrap();
                        assert_eq!(out, Some(Value::I(64)));
                    }
                    (t.stats.policy_defers, t.stats.policy_promotes)
                })
            })
            .collect();
        let (mut defers, mut promotes) = (0u64, 0u64);
        for h in handles {
            let (d, p) = h.join().unwrap();
            defers += d;
            promotes += p;
        }
        // Every per-key decision is serialized by the engine's map
        // mutex, so for one shared key exactly one miss defers (count 1)
        // and exactly one promotes (count 2), no matter how the eight
        // threads interleave — and single-flight still collapses the
        // post-promotion races into one specialization.
        let s = shared.stats();
        assert_eq!((s.policy_defers, s.policy_promotes), (1, 1));
        assert_eq!((defers, promotes), (1, 1));
        assert_eq!(s.specializations, 1);
        assert_eq!(s.policy_throttled, 0);
    }

    #[test]
    fn adaptive_grows_bounded_caps_to_fit_the_working_set() {
        let src = "int pow(int b, int e) { make_static(e: cache_all(2));
            int r = 1; while (e > 0) { r = r * b; e = e - 1; } return r; }";
        let shared = Arc::new(SharedRuntime::with_options(
            staged(src),
            SharedOptions {
                policy: PolicyMode::Adaptive,
                ..SharedOptions::default()
            },
        ));
        let mut t = SharedRuntime::thread(&shared);
        let mut module = shared.base_module();
        let mut vm = Vm::new(CostModel::alpha21164());
        let id = module.func_by_name("pow").unwrap();
        // Working set of 3 cycled through a declared bound of 2: each
        // eviction's victim comes back (a revival), growing the
        // effective cap until all three variants are co-resident.
        for _round in 0..6 {
            for e in [1i64, 2, 3] {
                let out = vm
                    .call_with_handler(&mut module, &mut t, id, &[Value::I(2), Value::I(e)])
                    .unwrap();
                assert_eq!(out, Some(Value::I(1i64 << e)));
            }
        }
        assert_eq!(shared.cache_snapshot().len(), 3);
        // Steady state: a further round is all hits — no re-specialization,
        // no eviction (impossible under the fixed cap of 2).
        let s0 = shared.stats();
        for e in [1i64, 2, 3] {
            vm.call_with_handler(&mut module, &mut t, id, &[Value::I(2), Value::I(e)])
                .unwrap();
        }
        let s1 = shared.stats();
        assert_eq!(s1.specializations, s0.specializations);
        assert_eq!(s1.cache_evictions, s0.cache_evictions);
    }
}
