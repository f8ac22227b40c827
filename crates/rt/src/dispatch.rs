//! The dispatch core: the one implementation of the paper's dispatch
//! ladder (§2.2.3, §4.4.3) that both session kinds run.
//!
//! [`DispatchCore`] owns everything a dispatch does that does not depend
//! on where the code cache lives: the argument check and key build,
//! per-policy cost charging and meters, hit/miss/evict events, the
//! adaptive-policy gate and generic continuations, specialization
//! (through the staged [`GeExecutor`] or the online `Specializer`),
//! install, native install and the native fast path.
//!
//! Every fact the core observes — a hit, a miss, a wait, a published
//! specialization, an eviction, a policy decision — goes through one
//! call, `DispatchCore::note` (or `note_hashed`, given a known key
//! hash), which bumps the matching [`RtStats`] field, the backend's
//! shared meter and the live counter, and records the event in the
//! thread's one [`EventRing`] (its trace and its flight-recorder tail).
//!
//! Where the cache lives is a [`CacheBackend`], a static trait with two
//! implementations, each instantiated once:
//!
//! * [`OwnedCache`](crate::runtime::OwnedCache): per-site tables owned by
//!   one session and probed with no locks — [`crate::Runtime`];
//! * [`SharedCache`](crate::concurrent::SharedCache): one thread's view
//!   of an `Arc`-shared sharded cache with single-flight specialization —
//!   [`crate::ThreadRuntime`].
//!
//! The core is generic over the backend rather than holding a trait
//! object, so each instantiation's hit path is compiled straight through
//! (the `Lexer`/`DynLexer` split of SNIPPETS.md snippet 3, static half
//! only).

use crate::costs::DynCosts;
use crate::ge_exec::{GeExecutor, SpecEnv, SpecHost};
use crate::native::{exec_entry, lower_func, NativeArtifact, NativeDispatch, NativeEngine};
use crate::policy::{PolicyDecision, PolicyEngine};
use crate::runtime::Site;
use crate::specializer::Specializer;
use crate::stats::RtStats;
use dyc_obs::{
    now_ns, Event, EventKind, EventRing, FlightRecorder, LatencyHistogram, LiveHandles, LiveMetric,
    LiveThread, DEFAULT_CAPACITY,
};
use dyc_stage::{SitePolicy, StagedProgram};
use dyc_vm::{DispatchHandler, DispatchOutcome, FuncId, Module, Value, Vm, VmError};
use std::sync::Arc;

/// How a dispatch looks its key up — chosen by the core from the site's
/// policy and, for indexed sites, the key's range. The lane fixes the
/// charged cost and the meters; the backend decides which table serves it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// `cache_one_unchecked`: no key, one slot.
    Unchecked,
    /// `cache_indexed` with a key in `0..256`: array indexing.
    Indexed(u8),
    /// `cache_indexed` with a key outside `0..256`: a hashed lookup in the
    /// overflow table.
    Overflow,
    /// `cache_all` and `cache_all(k)`: a hashed lookup.
    Hashed,
}

/// What a cache probe found.
#[derive(Debug)]
pub enum Probe<C, S> {
    /// The key is cached.
    Hit(C),
    /// The key is absent; the slot (if the backend reserves one) is
    /// handed back on the miss path.
    Miss(S),
}

/// How a miss that passed the policy gate is resolved. The owned backend
/// always answers [`Claim::Winner`]; the others are single-flight
/// outcomes of the shared backend.
#[derive(Debug)]
pub enum Claim<C, T> {
    /// This dispatch specializes the key and publishes with the ticket.
    Winner(T),
    /// Another thread published the key between the probe and the claim.
    Raced(C),
    /// Another thread was specializing the key; this one waited (for the
    /// given wall nanoseconds when timed) for its result.
    Waited(Result<C, String>, u64),
    /// Another thread was specializing the key; run the generic
    /// continuation instead of waiting.
    Fallback,
}

/// Where a [`DispatchCore`] keeps its sites and cached code.
pub trait CacheBackend {
    /// A cached code handle.
    type Code: Copy;
    /// What a miss probe reserves for the later fill.
    type Slot;
    /// What a winning claim carries to [`CacheBackend::publish`].
    type Ticket;

    /// The staged program.
    fn staged(&self) -> &StagedProgram;
    /// The adaptive policy engine, `None` in `Always` mode.
    fn policy(&self) -> Option<&PolicyEngine>;
    /// Make site `point` visible to [`CacheBackend::site`].
    fn sync(&mut self, point: u32);
    /// Site `point` (after [`CacheBackend::sync`]).
    fn site(&self, point: u32) -> &Site;
    /// Look `key` up at `point`; returns the probe count with the result.
    /// A hit on a bounded site sets its reference bit.
    fn probe(
        &mut self,
        point: u32,
        lane: Lane,
        key: &[u64],
    ) -> (Probe<Self::Code, Self::Slot>, u32);
    /// The module-local function for `code`, and whether it was just
    /// copied into `module`.
    fn resolve(&mut self, code: Self::Code, module: &mut Module) -> (FuncId, bool);
    /// Decide who resolves a miss. `timed` asks for the wait's length.
    fn claim(
        &mut self,
        point: u32,
        slot: Self::Slot,
        timed: bool,
    ) -> Claim<Self::Code, Self::Ticket>;
    /// Bind `key` to the winner's `fid`; returns the evicted key and its
    /// clock slot when a bounded site was full.
    fn publish(
        &mut self,
        point: u32,
        lane: Lane,
        key: &[u64],
        ticket: Self::Ticket,
        fid: FuncId,
        module: &Module,
    ) -> Option<(Vec<u64>, u32)>;
    /// Release a winning claim whose specialization failed.
    fn abandon(&mut self, ticket: Self::Ticket, err: &VmError);
    /// The site's generic continuation in `module`, and whether it was
    /// just added there.
    fn generic(&mut self, point: u32, module: &mut Module) -> (FuncId, bool);
    /// Run `f` with the staged program and the host that registers new
    /// internal promotion sites.
    fn with_spec<R>(&mut self, f: impl FnOnce(&StagedProgram, &mut dyn SpecHost) -> R) -> R;
    /// Bump the backend's own meter for `kind` (a `shared_kind`), if it
    /// keeps one.
    fn count(&self, _kind: EventKind) {}
    /// Drop every specialization cached at `point`.
    fn invalidate(&mut self, point: u32);
}

/// True for the kinds [`DispatchCore::note_hashed`] forwards to
/// [`CacheBackend::count`]: the facts a shared backend meters across
/// threads. Invalidations and warm loads are not here: the shared
/// runtime meters those itself, since they also happen outside any
/// thread's dispatch.
pub(crate) const fn shared_kind(kind: EventKind) -> bool {
    use EventKind as K;
    matches!(
        kind,
        K::FlightWait
            | K::FlightFallback
            | K::FlightRace
            | K::GeExecEnd
            | K::CacheEvict
            | K::NativeInstall
            | K::NativeFallback
            | K::PolicyDefer
            | K::PolicyPromote
            | K::PolicyThrottle
    )
}

/// A miss resolved to runnable code.
enum Resolved {
    /// Specialized code: invoked with the dynamic arguments.
    Spec(FuncId),
    /// The generic continuation: invoked with every dispatch argument.
    Generic(FuncId),
}

/// The run-time system: one dispatch handler over a [`CacheBackend`].
/// Implements [`DispatchHandler`]; attach it to a [`Vm`] run with
/// [`Vm::call_with_handler`].
#[derive(Debug)]
pub struct DispatchCore<B> {
    pub(crate) backend: B,
    /// Cost constants for overhead accounting.
    pub costs: DynCosts,
    /// Run-time statistics (Table 2/3 instrumentation). In a threaded
    /// session these are this thread's meters; the global ones live in
    /// [`crate::SharedRuntime::stats`].
    pub stats: RtStats,
    /// Specialization instruction budget, per specialization (guards
    /// non-terminating static loops).
    pub spec_budget: u64,
    /// `OptConfig::native`: lower specialized code to x86-64 and run it.
    native_on: bool,
    /// Native x86-64 engine: the executable arena and the map from this
    /// module's functions to their machine-code entries. Inert (a no-op
    /// stub) on platforms without the backend.
    native: NativeEngine,
    /// Reusable cache-key buffer: hashed dispatches build their key here
    /// instead of allocating per call.
    scratch_key: Vec<u64>,
    /// This thread's event ring, when it is traced (`OptConfig::trace`) or
    /// its flight recorder is armed; registered with the recorder in the
    /// latter case. Purely observational: recording never touches
    /// [`RtStats`], the emitted code, or results.
    ring: Option<Arc<EventRing>>,
    /// `OptConfig::trace`: the ring also records hits and is read back as
    /// the session's trace.
    trace: bool,
    /// Miss-path latency histogram: one sample per miss, wall nanoseconds
    /// from miss detection to runnable code. The live slot's histogram
    /// when telemetry is attached, else its own under
    /// `SharedOptions::latency`.
    pub(crate) miss_hist: Option<Arc<LatencyHistogram>>,
    /// Live-telemetry handle (`SharedRuntime::attach_live`). The warm path
    /// pays one `None` branch when telemetry is off and two relaxed
    /// atomic adds when on.
    live: Option<Box<LiveThread>>,
}

impl<B: CacheBackend> DispatchCore<B> {
    /// A core over `backend` for event thread `thread`, fed into `live`
    /// when telemetry is attached, timing its misses when `latency` asks
    /// for it. A traced thread's ring has [`DEFAULT_CAPACITY`], an
    /// untraced one's the flight recorder's capacity.
    pub(crate) fn with_backend(
        backend: B,
        thread: u32,
        live: Option<&LiveHandles>,
        latency: bool,
    ) -> DispatchCore<B> {
        let cfg = backend.staged().cfg;
        let flight = live.and_then(|h| h.flight.as_deref());
        let cap = if cfg.trace {
            Some(DEFAULT_CAPACITY)
        } else {
            flight.map(FlightRecorder::capacity)
        };
        let ring = cap.map(|c| Arc::new(EventRing::new(c, thread)));
        if let (Some(f), Some(r)) = (flight, &ring) {
            f.register(Arc::clone(r));
        }
        let live = live.map(|h| Box::new(h.thread()));
        let miss_hist = match &live {
            Some(l) => Some(Arc::clone(&l.slot.miss_ns)),
            None => latency.then(|| Arc::new(LatencyHistogram::new())),
        };
        DispatchCore {
            costs: DynCosts::calibrated(),
            stats: RtStats::new(),
            spec_budget: 4_000_000,
            native_on: cfg.native,
            native: NativeEngine::new(),
            scratch_key: Vec::new(),
            ring,
            trace: cfg.trace,
            miss_hist,
            live,
            backend,
        }
    }

    /// The staged program being run.
    pub fn staged(&self) -> &StagedProgram {
        self.backend.staged()
    }

    /// The adaptive policy engine, when `OptConfig::policy` is
    /// `PolicyMode::Adaptive` (diagnostics and tests).
    pub fn policy_engine(&self) -> Option<&PolicyEngine> {
        self.backend.policy()
    }

    /// Number of entry (statically splice-created) dispatch sites. Site
    /// ids at or above this are internal promotion sites, numbered in
    /// the order their parent specializations first created them.
    pub fn n_entry_sites(&self) -> usize {
        self.staged().entry_sites.len()
    }

    /// Number of functions with an installed native machine-code entry
    /// (always zero unless `OptConfig::native` is set, and on platforms
    /// without the backend).
    pub fn native_installed(&self) -> usize {
        self.native.installed()
    }

    /// The trace recorded so far, oldest first: this thread's ring when
    /// `OptConfig::trace` is on, else empty.
    pub fn trace_events(&self) -> Vec<Event> {
        self.trace_ring().map(EventRing::events).unwrap_or_default()
    }

    /// Events the trace lost to overwriting (0 when tracing is off).
    pub fn trace_dropped(&self) -> u64 {
        self.trace_ring().map_or(0, EventRing::dropped)
    }

    fn trace_ring(&self) -> Option<&EventRing> {
        self.ring.as_deref().filter(|_| self.trace)
    }

    /// Drop every specialization cached at `point`. The next dispatch
    /// through the site re-specializes from scratch; code already
    /// installed stays where it is but is never re-entered through this
    /// site, and cumulative probe meters survive.
    pub fn invalidate_site(&mut self, point: u32) {
        self.note_hashed(EventKind::CacheInvalidate, point, 0, 0, 0, 0);
        self.backend.invalidate(point);
    }

    /// Note one keyed event: [`DispatchCore::note_hashed`] with the hash
    /// of `key`, computed only when a ring records `kind`.
    #[inline(always)]
    pub(crate) fn note(
        &mut self,
        kind: EventKind,
        point: u32,
        key: &[u64],
        cycle: u64,
        a: u64,
        b: u64,
    ) {
        let kh = match self.recording(kind) {
            Some(_) => dyc_obs::key_hash(key),
            None => 0,
        };
        self.note_hashed(kind, point, kh, cycle, a, b);
    }

    /// Note one event whose key hash is already known (0 for the keyless
    /// kinds): bump the [`RtStats`] field, the backend's shared meter and
    /// the live counters `kind` maps to, and record the event in this
    /// thread's ring. The one place the core writes a counted fact. Hit
    /// kinds touch no shared meter, and the ring records them only when
    /// tracing. Always inlined: each caller's kind is a constant or one
    /// of a few (the hit arm's three hit kinds), so the match folds to
    /// those kinds' counters — with live telemetry attached, a hit is two
    /// relaxed adds to this thread's slot.
    #[inline(always)]
    pub(crate) fn note_hashed(
        &mut self,
        kind: EventKind,
        point: u32,
        key_hash: u64,
        cycle: u64,
        a: u64,
        b: u64,
    ) {
        use EventKind as K;
        use LiveMetric as L;
        let s = &mut self.stats;
        // (RtStats field, live counters); `shared_kind` says which kinds
        // the backend meters.
        let (field, live): (Option<&mut u64>, &[LiveMetric]) = match kind {
            K::DispatchHit | K::DispatchUnchecked | K::DispatchIndexed => {
                (None, &[L::Dispatches, L::Hits])
            }
            K::DispatchMiss => (None, &[L::Dispatches, L::Misses]),
            K::FlightWait => (Some(&mut s.single_flight_waits), &[L::FlightWaits]),
            K::FlightFallback => (Some(&mut s.single_flight_fallbacks), &[L::FlightFallbacks]),
            K::FlightRace => (None, &[L::FlightRaces]),
            K::GeExecBegin => (Some(&mut s.specializations), &[]),
            K::GeExecEnd => (None, &[L::Specializations]),
            // Counted by the emitter and the specializers, recorded
            // through `SpecEnv::record`.
            K::TemplateCopy | K::HolePatch | K::Promotion => (None, &[]),
            K::CacheEvict => (Some(&mut s.cache_evictions), &[L::Evictions]),
            K::CacheInvalidate => (Some(&mut s.cache_invalidations), &[]),
            K::CacheWarmLoad => (Some(&mut s.cache_warm_loads), &[]),
            K::NativeInstall => (Some(&mut s.native_installs), &[]),
            K::NativeFallback => (Some(&mut s.native_fallbacks), &[]),
            K::PolicyDefer => (Some(&mut s.policy_defers), &[L::PolicyDefers]),
            K::PolicyPromote => (Some(&mut s.policy_promotes), &[L::PolicyPromotes]),
            K::PolicyThrottle => (Some(&mut s.policy_throttled), &[L::PolicyThrottles]),
        };
        if let Some(f) = field {
            *f += 1;
        }
        if shared_kind(kind) {
            self.backend.count(kind);
        }
        if let Some(l) = &self.live {
            for &m in live {
                l.slot.add(m, 1);
            }
            if kind == K::GeExecEnd {
                // Per-site specialization economics for the sampler's
                // break-even-drift window.
                l.registry.note_spec(point, a);
            }
        }
        if let Some(r) = self.recording(kind) {
            r.record(kind, point, key_hash, cycle, a, b);
        }
    }

    /// The ring that records `kind`, if any.
    fn recording(&self, kind: EventKind) -> Option<&EventRing> {
        self.ring
            .as_deref()
            .filter(|_| self.trace || !kind.is_hit())
    }

    /// True when anything observes this thread: a ring or live telemetry.
    fn observed(&self) -> bool {
        self.ring.is_some() || self.live.is_some()
    }

    pub(crate) fn charge(&mut self, vm: &mut Vm, cycles: u64) {
        self.stats.dyncomp_cycles += cycles;
        vm.stats.dyncomp_cycles += cycles;
    }

    /// Hand a lowered artifact to the native engine, metering the
    /// outcome: a successful publication counts as a native install
    /// (traced with the machine-code size); a declined lowering or an
    /// inert platform backend counts as a fallback to the VM.
    fn native_install(&mut self, point: u32, func: FuncId, art: Option<NativeArtifact>) {
        match self.native.install(func, art) {
            Some(len) => self.note_hashed(EventKind::NativeInstall, point, 0, 0, len as u64, 0),
            None => self.note_hashed(EventKind::NativeFallback, point, 0, 0, 0, 0),
        }
    }

    /// The module-local function for cached `code`. Code another thread
    /// specialized is installed here on first use, which models the same
    /// `imb` + install cost the winner paid in its own module.
    fn resolve(&mut self, point: u32, code: B::Code, module: &mut Module, vm: &mut Vm) -> FuncId {
        let (fid, fresh) = self.backend.resolve(code, module);
        if fresh {
            vm.flush_icache();
            let install = self.costs.install;
            self.charge(vm, install);
            self.lower(point, fid, module);
        }
        fid
    }

    /// Lower `fid` to native code, when the native option is on.
    pub(crate) fn lower(&mut self, point: u32, fid: FuncId, module: &Module) {
        if self.native_on {
            let art = lower_func(module.func(fid));
            self.native_install(point, fid, art);
        }
    }

    /// This site's generic continuation: ordinary unspecialized code for
    /// the region, so it is charged like statically compiled code — no
    /// dynamic-compilation cycles, no install. With the native option it
    /// is lowered once, like any installed code.
    fn generic(&mut self, point: u32, module: &mut Module) -> FuncId {
        let (fid, fresh) = self.backend.generic(point, module);
        if fresh {
            self.lower(point, fid, module);
        }
        fid
    }

    /// Adaptive-mode miss gate. Consulted after a miss is detected and
    /// metered: returns the generic continuation to run when the policy
    /// defers or throttles this specialization, `None` when the miss
    /// should specialize as usual (always the case in `Always` mode).
    fn policy_gate(
        &mut self,
        point: u32,
        key: &[u64],
        module: &mut Module,
        vm: &Vm,
    ) -> Option<FuncId> {
        let eng = self.backend.policy()?;
        let mut pkey = Vec::with_capacity(key.len() + 1);
        pkey.push(u64::from(point));
        pkey.extend_from_slice(key);
        let entry_site = (point as usize) < self.backend.staged().entry_sites.len();
        let decision = eng.on_miss(&pkey, entry_site);
        let count = u64::from(eng.count_of(&pkey));
        let kind = match decision {
            PolicyDecision::Specialize { promoted: false } => return None,
            PolicyDecision::Specialize { promoted: true } => EventKind::PolicyPromote,
            PolicyDecision::Defer => EventKind::PolicyDefer,
            PolicyDecision::Throttle => EventKind::PolicyThrottle,
        };
        self.note(kind, point, key, vm.stats.total_cycles(), count, 0);
        (kind != EventKind::PolicyPromote).then(|| self.generic(point, module))
    }

    /// Specialize site `point` for the key values in `args`: through the
    /// flat GE program when the site has a precompiled entry division,
    /// through the online specializer otherwise (both emit byte-identical
    /// code), then install it.
    fn specialize(
        &mut self,
        point: u32,
        args: &[Value],
        module: &mut Module,
        vm: &mut Vm,
    ) -> Result<FuncId, VmError> {
        let site = self.backend.site(point).clone();
        let mut store = site.base_store.clone();
        for (v, &p) in site.key_vars.iter().zip(&site.key_pos) {
            store.insert(*v, args[p]);
        }
        // Every event of the specialization is tagged with the hash of
        // its key values in `key_pos` order — the dispatch key's order.
        let kh = if self.ring.is_some() {
            let bits: Vec<u64> = site.key_pos.iter().map(|&p| args[p].key_bits()).collect();
            dyc_obs::key_hash(&bits)
        } else {
            0
        };
        let cycle = vm.stats.total_cycles();
        self.note_hashed(EventKind::GeExecBegin, point, kh, cycle, 0, 0);
        let (dyn0, instr0) = (self.stats.dyncomp_cycles, self.stats.instrs_generated);
        let (costs, budget) = (self.costs, self.spec_budget);
        let (stats, trace) = (&mut self.stats, self.ring.as_deref());
        let (func, native_art) = self.backend.with_spec(|staged, host| {
            let mut env = SpecEnv {
                staged,
                costs,
                budget,
                stats,
                trace,
                key_hash: kh,
            };
            match site.division {
                Some(d) => GeExecutor::run(&mut env, host, point, &site, store, d, module, vm),
                None => {
                    Specializer::run(&mut env, host, &site, store, module, vm).map(|f| (f, None))
                }
            }
        })?;
        // Install: i-cache coherence + bookkeeping.
        vm.flush_icache();
        let install = self.costs.install;
        self.charge(vm, install);
        if self.native_on {
            // The GE path lowered during emission (through NativeSink);
            // the online specializer's code is lowered here from the
            // finished function. Either way the VM code stays installed
            // as the always-correct fallback.
            let art = native_art.or_else(|| lower_func(module.func(func)));
            self.native_install(point, func, art);
        }
        let spent = self.stats.dyncomp_cycles - dyn0;
        let emitted = self.stats.instrs_generated - instr0;
        let cycle = vm.stats.total_cycles();
        self.note_hashed(EventKind::GeExecEnd, point, kh, cycle, spent, emitted);
        if let Some(eng) = self.backend.policy() {
            // Feed the measured cost into the site's break-even
            // threshold estimate.
            eng.note_spec(point, spent);
        }
        Ok(func)
    }

    /// The miss path after the miss is metered: the policy gate, then the
    /// backend's claim, then specialize-and-publish for the winner.
    #[allow(clippy::too_many_arguments)]
    fn miss(
        &mut self,
        point: u32,
        lane: Lane,
        key: &[u64],
        slot: B::Slot,
        args: &[Value],
        module: &mut Module,
        vm: &mut Vm,
    ) -> Result<Resolved, VmError> {
        if let Some(g) = self.policy_gate(point, key, module, vm) {
            return Ok(Resolved::Generic(g));
        }
        let timed = self.observed();
        let cycle = |vm: &Vm| vm.stats.total_cycles();
        let fid = match self.backend.claim(point, slot, timed) {
            Claim::Winner(ticket) => match self.specialize(point, args, module, vm) {
                Ok(fid) => {
                    let evicted = self.backend.publish(point, lane, key, ticket, fid, module);
                    if let Some((old, idx)) = evicted {
                        self.note(EventKind::CacheEvict, point, &old, cycle(vm), idx.into(), 0);
                    }
                    fid
                }
                Err(e) => {
                    self.backend.abandon(ticket, &e);
                    return Err(e);
                }
            },
            Claim::Raced(code) => {
                self.note(EventKind::FlightRace, point, key, cycle(vm), 0, 0);
                self.resolve(point, code, module, vm)
            }
            Claim::Waited(res, waited) => {
                self.note(EventKind::FlightWait, point, key, cycle(vm), waited, 0);
                let code = res.map_err(VmError::Dispatch)?;
                self.resolve(point, code, module, vm)
            }
            Claim::Fallback => {
                self.note(EventKind::FlightFallback, point, key, cycle(vm), 0, 0);
                return Ok(Resolved::Generic(self.generic(point, module)));
            }
        };
        Ok(Resolved::Spec(fid))
    }
}

impl<B: CacheBackend> DispatchCore<B>
where
    DispatchCore<B>: NativeDispatch,
{
    /// The dispatch ladder: [`DispatchHandler::dispatch`] for both
    /// instantiations.
    fn run_dispatch(
        &mut self,
        point: u32,
        args: &[Value],
        out_args: &mut Vec<Value>,
        module: &mut Module,
        vm: &mut Vm,
    ) -> Result<DispatchOutcome, VmError> {
        self.backend.sync(point);
        let site = self.backend.site(point);
        if args.len() != site.arg_vars.len() {
            return Err(VmError::Dispatch(format!(
                "site {point}: expected {} args, got {}",
                site.arg_vars.len(),
                args.len()
            )));
        }
        // Build the key: hashed lanes into the reusable scratch buffer,
        // indexed lanes into a one-word array, unchecked lanes none.
        let mut key = std::mem::take(&mut self.scratch_key);
        key.clear();
        let mut word = [0u64; 1];
        let lane = match site.policy {
            SitePolicy::CacheOneUnchecked => Lane::Unchecked,
            SitePolicy::CacheIndexed => {
                // §3.1's proposed fast dispatch: "the lookup could be
                // implemented as a simple array indexing, in place of
                // DyC's current general-purpose hash-table lookup" —
                // with a hashed overflow for out-of-range values.
                let kv = args[site.key_pos[0]];
                word[0] = kv.key_bits();
                match kv.as_i() {
                    v @ 0..=255 => Lane::Indexed(v as u8),
                    _ => Lane::Overflow,
                }
            }
            SitePolicy::CacheAll | SitePolicy::CacheAllBounded(_) => {
                if key.capacity() < site.key_pos.len() {
                    self.stats.dispatch_allocs += 1;
                }
                key.extend(site.key_pos.iter().map(|&p| args[p].key_bits()));
                Lane::Hashed
            }
        };
        let k: &[u64] = match lane {
            Lane::Unchecked => &[],
            Lane::Indexed(_) | Lane::Overflow => &word,
            Lane::Hashed => &key,
        };

        // One probe serves hit and miss; a hashed miss reserves the slot
        // the post-specialization fill uses. Metered per lane with the
        // §4.4.3 cost constants.
        let (probe, probes) = self.backend.probe(point, lane, k);
        let (cost, ev_probes) = match lane {
            Lane::Unchecked => {
                self.stats.dispatch_unchecked += 1;
                (self.costs.dispatch_unchecked, 0)
            }
            Lane::Indexed(_) => {
                self.stats.dispatch_indexed += 1;
                (self.costs.dispatch_indexed, 0)
            }
            Lane::Overflow => {
                self.stats.dispatch_hashed += 1;
                (self.costs.hashed_dispatch(1, probes), u64::from(probes))
            }
            Lane::Hashed => {
                self.stats.dispatch_hashed += 1;
                self.stats.dispatch_probes += u64::from(probes);
                (
                    self.costs.hashed_dispatch(k.len(), probes),
                    u64::from(probes),
                )
            }
        };
        self.stats.dispatch_cycles += cost;
        vm.stats.dispatch_cycles += cost;

        let func = match probe {
            Probe::Hit(code) => {
                if let Some(eng) = self.backend.policy() {
                    eng.note_hit(point);
                }
                if self.observed() {
                    let kind = match lane {
                        Lane::Unchecked => EventKind::DispatchUnchecked,
                        Lane::Indexed(_) => EventKind::DispatchIndexed,
                        Lane::Overflow | Lane::Hashed => EventKind::DispatchHit,
                    };
                    self.note(kind, point, k, vm.stats.total_cycles(), cost, ev_probes);
                }
                self.resolve(point, code, module, vm)
            }
            Probe::Miss(slot) => {
                vm.stats.dispatch_misses += 1;
                if matches!(lane, Lane::Overflow | Lane::Hashed) {
                    // The key the fill stores.
                    self.stats.dispatch_allocs += 1;
                }
                let cycle = vm.stats.total_cycles();
                self.note(EventKind::DispatchMiss, point, k, cycle, cost, ev_probes);
                // Miss-path latency: miss detection → runnable code. Hit
                // dispatches never reach this arm, so the warm path reads
                // no clock.
                let lat0 = self.miss_hist.is_some().then(now_ns);
                let missed = self.miss(point, lane, k, slot, args, module, vm);
                if let (Some(t0), Some(h)) = (lat0, &self.miss_hist) {
                    h.record(now_ns().saturating_sub(t0));
                }
                match missed? {
                    Resolved::Spec(f) => f,
                    Resolved::Generic(f) => {
                        // The generic continuation takes every dispatch
                        // argument (nothing is baked in but the base store).
                        self.scratch_key = key;
                        out_args.extend_from_slice(args);
                        return self.finish(f, out_args, module, vm);
                    }
                }
            }
        };
        self.scratch_key = key;

        // Pass-through arguments, subset by the precomputed layout into
        // the interpreter's reusable buffer.
        let site = self.backend.site(point);
        if out_args.capacity() < site.dyn_pos.len() {
            self.stats.dispatch_allocs += 1;
        }
        out_args.extend(site.dyn_pos.iter().map(|&i| args[i]));
        self.finish(func, out_args, module, vm)
    }

    /// Native fast path: when `func` has an installed machine-code
    /// entry, run it right here and hand the interpreter a completed
    /// result instead of a frame to push. Deliberately charges nothing
    /// to the cycle model — the modeled staged pipeline is unchanged;
    /// only wall-clock improves.
    fn finish(
        &mut self,
        func: FuncId,
        args: &[Value],
        module: &mut Module,
        vm: &mut Vm,
    ) -> Result<DispatchOutcome, VmError> {
        if self.native_on {
            if let Some(entry) = self.native.entry(func) {
                let value = exec_entry(&entry, args, self, module, vm)?;
                return Ok(DispatchOutcome::Completed { value });
            }
        }
        Ok(DispatchOutcome::Invoke { func })
    }
}

/// The handler traits are implemented per instantiation rather than
/// generically: a generic impl would be compiled in each crate that uses
/// a runtime, away from the backend and native-engine calls of its hit
/// path, while these are compiled here beside them.
macro_rules! dispatch_handler {
    ($core:ty) => {
        impl DispatchHandler for $core {
            fn dispatch(
                &mut self,
                point: u32,
                args: &[Value],
                out_args: &mut Vec<Value>,
                module: &mut Module,
                vm: &mut Vm,
            ) -> Result<DispatchOutcome, VmError> {
                self.run_dispatch(point, args, out_args, module, vm)
            }
        }

        impl NativeDispatch for $core {
            fn native_dispatch(
                &mut self,
                point: u32,
                args: &[Value],
                module: &mut Module,
                vm: &mut Vm,
            ) -> Result<Option<Value>, VmError> {
                // Mirror of the interpreter's `Dispatch` arm: count it,
                // run the handler, then either take the completed value
                // (the callee ran natively too) or interpret the
                // specialized function.
                vm.stats.dispatches += 1;
                let mut out_args = Vec::new();
                match self.dispatch(point, args, &mut out_args, module, vm)? {
                    DispatchOutcome::Completed { value } => Ok(value),
                    DispatchOutcome::Invoke { func } => {
                        vm.call_with_handler(module, self, func, &out_args)
                    }
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
    };
}

dispatch_handler!(crate::Runtime);
dispatch_handler!(crate::ThreadRuntime);
