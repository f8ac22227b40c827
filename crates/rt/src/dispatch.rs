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
use dyc_obs::{now_ns, EventKind, LatencyHistogram, LiveMetric, LiveThread, Trace};
use dyc_stage::{SitePolicy, StagedProgram};
use dyc_vm::{DispatchHandler, DispatchOutcome, FuncId, Module, Value, Vm, VmError};

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

/// A counted occurrence. The dispatch core bumps the matching
/// [`RtStats`] field, the backend's shared meter and the live counter
/// together, so the three never drift apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Meter {
    /// A winner published its specialization.
    Published,
    /// A bounded site evicted an entry.
    Eviction,
    /// A function got a native machine-code entry.
    NativeInstall,
    /// A function stayed on the VM despite the native option.
    NativeFallback,
    /// The adaptive policy deferred a miss.
    PolicyDefer,
    /// The adaptive policy promoted a key.
    PolicyPromote,
    /// The adaptive policy throttled a miss.
    PolicyThrottle,
    /// A racer waited on another thread's flight.
    FlightWait,
    /// A racer ran the generic continuation instead of waiting.
    FlightFallback,
    /// A miss found its key published when it claimed it.
    FlightRace,
}

impl Meter {
    /// The number of meters (`FlightRace` is the last).
    pub const COUNT: usize = Meter::FlightRace as usize + 1;
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
    /// Bump the backend's own meter for `m`, if it keeps one.
    fn count(&self, _m: Meter) {}
    /// Drop every specialization cached at `point`.
    fn invalidate(&mut self, point: u32);
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
    /// Event recorder, enabled by `OptConfig::trace` (off by default).
    /// Purely observational: recording never touches [`RtStats`], the
    /// emitted code, or results. Drain it with [`Trace::events`].
    pub trace: Trace,
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
    /// Miss-path latency histogram (`SharedOptions::latency`): one sample
    /// per miss, wall nanoseconds from miss detection to runnable code.
    /// Boxed so the cold miss path doesn't bloat what the hit path walks.
    pub(crate) miss_hist: Option<Box<LatencyHistogram>>,
    /// Live-telemetry handle (`SharedRuntime::attach_live`). The warm path
    /// pays one `None` branch when telemetry is off and two relaxed
    /// atomic adds when on.
    pub(crate) live: Option<Box<LiveThread>>,
}

impl<B: CacheBackend> DispatchCore<B> {
    /// A core over `backend`, tracing as trace thread `thread` when the
    /// staged config asks for it.
    pub(crate) fn with_backend(backend: B, thread: u32) -> DispatchCore<B> {
        let cfg = backend.staged().cfg;
        DispatchCore {
            costs: DynCosts::calibrated(),
            stats: RtStats::new(),
            trace: if cfg.trace {
                Trace::on(thread)
            } else {
                Trace::off()
            },
            spec_budget: 4_000_000,
            native_on: cfg.native,
            native: NativeEngine::new(),
            scratch_key: Vec::new(),
            miss_hist: None,
            live: None,
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

    /// This session's miss-path latency histogram, when
    /// `SharedOptions::latency` was set: one sample per dispatch miss,
    /// wall nanoseconds from miss detection to runnable code. Merge the
    /// per-thread histograms ([`LatencyHistogram::merge`]) for whole-run
    /// percentiles.
    pub fn miss_latency(&self) -> Option<&LatencyHistogram> {
        self.miss_hist.as_deref()
    }

    /// Drop every specialization cached at `point`. The next dispatch
    /// through the site re-specializes from scratch; code already
    /// installed stays where it is but is never re-entered through this
    /// site, and cumulative probe meters survive.
    pub fn invalidate_site(&mut self, point: u32) {
        self.stats.cache_invalidations += 1;
        self.trace
            .rec(EventKind::CacheInvalidate, point, 0, 0, 0, 0);
        self.backend.invalidate(point);
    }

    /// Count `m` in [`RtStats`], the backend's meter and live telemetry.
    pub(crate) fn count(&mut self, m: Meter) {
        use LiveMetric as L;
        let s = &mut self.stats;
        let (field, live) = match m {
            Meter::Published => (None, Some(L::Specializations)),
            Meter::Eviction => (Some(&mut s.cache_evictions), Some(L::Evictions)),
            Meter::NativeInstall => (Some(&mut s.native_installs), None),
            Meter::NativeFallback => (Some(&mut s.native_fallbacks), None),
            Meter::PolicyDefer => (Some(&mut s.policy_defers), Some(L::PolicyDefers)),
            Meter::PolicyPromote => (Some(&mut s.policy_promotes), Some(L::PolicyPromotes)),
            Meter::PolicyThrottle => (Some(&mut s.policy_throttled), Some(L::PolicyThrottles)),
            Meter::FlightWait => (Some(&mut s.single_flight_waits), Some(L::FlightWaits)),
            Meter::FlightFallback => (
                Some(&mut s.single_flight_fallbacks),
                Some(L::FlightFallbacks),
            ),
            Meter::FlightRace => (None, Some(L::FlightRaces)),
        };
        if let Some(f) = field {
            *f += 1;
        }
        self.backend.count(m);
        if let (Some(l), Some(lm)) = (&self.live, live) {
            l.slot.add(lm, 1);
        }
    }

    /// True when an event would be recorded anywhere.
    fn observed(&self) -> bool {
        self.trace.is_on() || self.live.as_ref().is_some_and(|l| l.ring.is_some())
    }

    /// Record an event in the trace and the live flight ring, tagged with
    /// the hash of `key` (computed only when something records).
    fn event(&mut self, kind: EventKind, point: u32, key: &[u64], cycle: u64, a: u64, b: u64) {
        if self.observed() {
            self.record(kind, point, dyc_obs::key_hash(key), cycle, a, b);
        }
    }

    /// [`DispatchCore::event`] with the key hash already computed.
    fn record(&mut self, kind: EventKind, point: u32, kh: u64, cycle: u64, a: u64, b: u64) {
        self.trace.rec(kind, point, kh, cycle, a, b);
        if let Some(ring) = self.live.as_ref().and_then(|l| l.ring.as_ref()) {
            ring.record(kind, point, kh, cycle, a, b);
        }
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
            Some(len) => {
                self.count(Meter::NativeInstall);
                self.record(EventKind::NativeInstall, point, 0, 0, len as u64, 0);
            }
            None => {
                self.count(Meter::NativeFallback);
                self.record(EventKind::NativeFallback, point, 0, 0, 0, 0);
            }
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
        let (meter, kind) = match decision {
            PolicyDecision::Specialize { promoted: false } => return None,
            PolicyDecision::Specialize { promoted: true } => {
                (Meter::PolicyPromote, EventKind::PolicyPromote)
            }
            PolicyDecision::Defer => (Meter::PolicyDefer, EventKind::PolicyDefer),
            PolicyDecision::Throttle => (Meter::PolicyThrottle, EventKind::PolicyThrottle),
        };
        self.count(meter);
        self.event(kind, point, key, vm.stats.total_cycles(), count, 0);
        (meter != Meter::PolicyPromote).then(|| self.generic(point, module))
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
        self.stats.specializations += 1;
        let kh = if self.observed() {
            let bits: Vec<u64> = site.key_pos.iter().map(|&p| args[p].key_bits()).collect();
            dyc_obs::key_hash(&bits)
        } else {
            0
        };
        let (dyn0, instr0) = (self.stats.dyncomp_cycles, self.stats.instrs_generated);
        self.record(
            EventKind::GeExecBegin,
            point,
            kh,
            vm.stats.total_cycles(),
            0,
            0,
        );
        let (costs, budget) = (self.costs, self.spec_budget);
        let (stats, trace) = (&mut self.stats, &mut self.trace);
        let (func, native_art) = self.backend.with_spec(|staged, host| {
            let mut env = SpecEnv {
                staged,
                costs,
                budget,
                stats,
                trace,
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
        self.record(
            EventKind::GeExecEnd,
            point,
            kh,
            vm.stats.total_cycles(),
            spent,
            emitted,
        );
        if let Some(l) = &self.live {
            // Per-site specialization economics for the sampler's
            // break-even-drift window.
            l.registry.note_spec(point, spent);
        }
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
        let timed = self.trace.is_on() || self.live.is_some();
        let fid = match self.backend.claim(point, slot, timed) {
            Claim::Winner(ticket) => match self.specialize(point, args, module, vm) {
                Ok(fid) => {
                    let evicted = self.backend.publish(point, lane, key, ticket, fid, module);
                    if let Some((old, idx)) = evicted {
                        self.count(Meter::Eviction);
                        self.event(
                            EventKind::CacheEvict,
                            point,
                            &old,
                            vm.stats.total_cycles(),
                            u64::from(idx),
                            0,
                        );
                    }
                    self.count(Meter::Published);
                    fid
                }
                Err(e) => {
                    self.backend.abandon(ticket, &e);
                    return Err(e);
                }
            },
            Claim::Raced(code) => {
                self.count(Meter::FlightRace);
                self.resolve(point, code, module, vm)
            }
            Claim::Waited(res, waited) => {
                self.count(Meter::FlightWait);
                self.event(
                    EventKind::FlightWait,
                    point,
                    key,
                    vm.stats.total_cycles(),
                    waited,
                    0,
                );
                let code = res.map_err(VmError::Dispatch)?;
                self.resolve(point, code, module, vm)
            }
            Claim::Fallback => {
                self.count(Meter::FlightFallback);
                self.event(
                    EventKind::FlightFallback,
                    point,
                    key,
                    vm.stats.total_cycles(),
                    0,
                    0,
                );
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
                if let Some(l) = &self.live {
                    l.slot.add(LiveMetric::Dispatches, 1);
                    l.slot.add(LiveMetric::Hits, 1);
                }
                if let Some(eng) = self.backend.policy() {
                    eng.note_hit(point);
                }
                if self.trace.is_on() {
                    let kind = match lane {
                        Lane::Unchecked => EventKind::DispatchUnchecked,
                        Lane::Indexed(_) => EventKind::DispatchIndexed,
                        Lane::Overflow | Lane::Hashed => EventKind::DispatchHit,
                    };
                    let total = vm.stats.total_cycles();
                    self.trace
                        .rec(kind, point, dyc_obs::key_hash(k), total, cost, ev_probes);
                }
                self.resolve(point, code, module, vm)
            }
            Probe::Miss(slot) => {
                vm.stats.dispatch_misses += 1;
                if matches!(lane, Lane::Overflow | Lane::Hashed) {
                    // The key the fill stores.
                    self.stats.dispatch_allocs += 1;
                }
                if let Some(l) = &self.live {
                    l.slot.add(LiveMetric::Dispatches, 1);
                    l.slot.add(LiveMetric::Misses, 1);
                }
                self.event(
                    EventKind::DispatchMiss,
                    point,
                    k,
                    vm.stats.total_cycles(),
                    cost,
                    ev_probes,
                );
                // Miss-path latency: miss detection → runnable code. Hit
                // dispatches never reach this arm, so the warm path reads
                // no clock.
                let lat0 = (self.miss_hist.is_some() || self.live.is_some()).then(now_ns);
                let missed = self.miss(point, lane, k, slot, args, module, vm);
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
