//! `serve_*`: closed-loop serving streams against one shared runtime.
//!
//! [`THREADS`] serving threads each send their next dispatch only after
//! the previous one returned (a DyC region call waits for its result).
//! Keys come from the `traffic` stream generators seeded by `--seed`,
//! and every result is checked against `traffic::expected`.
//!
//! A run is a sequence of epochs of a fixed dispatch count. The threads
//! start each epoch together, so an epoch's wall time is its makespan.
//! Right after its dynamic epoch each thread calls the static build on
//! the same keys (a static epoch). The host's speed drifts by up to 2x
//! within a second, so the serving metrics compare each dynamic epoch
//! with the static epoch beside it: `serve_speedup` is the median
//! epoch's dynamic over static rate, and `dispatch_p50_ratio` and
//! `dispatch_p99_ratio` its dynamic over static latency quantiles.
//!
//! `serve_zipf` keeps one runtime for the whole run; the streams whose
//! keys never recur (`serve_stampede`, `serve_churn_bounded`) start each
//! epoch on a fresh runtime, because the published-code registry is
//! never freed and would otherwise grow without bound. After every epoch
//! the runtime's meter identities are checked.
//!
//! The served region is also measured on its own, single-threaded, for
//! the figures `paper_suite` gives per program: warm invocation on the
//! VM and on native code against the static build over keys with trip
//! counts 1 to 8, and the cycle model's speedup, overhead and generated
//! instructions.
//!
//! [`beside`] serves `serve_zipf`'s stream next to another workload, so
//! that `paper_suite` reports the serving metrics too.

use crate::report::{Metrics, Tally};
use crate::stats::{geomean, median, FineHist};
use crate::trace::{self_times, Tracer};
use dyc::{Compiler, OptConfig, Program, Session, SharedOptions, SharedRuntime, Value};
use dyc_bench::traffic::{expected, serve_source, KeyStream, Pattern, StreamConfig, TrafficGen};
use dyc_rt::{ConcSnapshot, RtStats, ThreadRuntime};
use dyc_vm::{CostModel, ExecStats, FuncId, Module, Vm};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Serving threads (closed-loop callers).
pub const THREADS: usize = 2;
/// In a traced epoch, one dispatch in this many gets a span.
const SPAN_SAMPLE: u64 = 64;
/// Set-up passes between two epochs; `setup_s` is the median pass.
const SETUP_REPS: usize = 10;
/// Keys of the single-threaded region measurement (trip counts 1..=8).
const PROBE_KEYS: i64 = 8;
/// Timed calls per key and backend in one region-probe block.
const PROBE_SAMPLES: usize = 1_000;
/// Epochs a run completes even when the budget is already spent.
const MIN_EPOCHS: u64 = 3;
/// Least time between two interludes (set-up passes and a probe block)
/// in a serving workload.
const INTERLUDE_EVERY: Duration = Duration::from_millis(400);

/// One serving workload.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    /// Key-stream shape.
    pub pattern: Pattern,
    /// `cache_all(k)` bound compiled into the served source.
    pub bound: Option<u32>,
    /// Dispatches per epoch, over all threads.
    pub epoch_dispatches: u64,
    /// Start every epoch on a fresh runtime.
    pub fresh_per_epoch: bool,
}

/// `serve_zipf`: zipf(1.1) over 4,096 keys, one runtime for the run.
pub const ZIPF: ServeSpec = ServeSpec {
    pattern: Pattern::Zipfian,
    bound: None,
    epoch_dispatches: 250_000,
    fresh_per_epoch: false,
};

/// `serve_stampede`: both threads walk the same fresh keys, 4 times each.
pub const STAMPEDE: ServeSpec = ServeSpec {
    pattern: Pattern::Stampede,
    bound: None,
    epoch_dispatches: 50_000,
    fresh_per_epoch: true,
};

/// `serve_churn_bounded`: a 512-key sliding window under `cache_all(480)`.
pub const CHURN_BOUNDED: ServeSpec = ServeSpec {
    pattern: Pattern::Churn,
    bound: Some(480),
    epoch_dispatches: 50_000,
    fresh_per_epoch: true,
};

fn options() -> SharedOptions {
    SharedOptions {
        latency: true,
        ..SharedOptions::default()
    }
}

/// The stream seed of `epoch`: one stream for a run on one runtime,
/// a fresh one per epoch otherwise.
fn epoch_seed(seed: u64, epoch: u64, fresh: bool) -> u64 {
    if fresh {
        seed ^ (epoch + 1).wrapping_mul(0xd1b5_4a32_d192_ed03)
    } else {
        seed
    }
}

/// Order-independent digest of a runtime's code cache: FNV-1a over each
/// (site, key, instruction stream and frame shape) binding, summed.
pub fn code_digest(shared: &SharedRuntime) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    shared
        .cache_snapshot()
        .into_iter()
        .map(|(site, key, gid)| {
            let f = shared.code(gid);
            let canon = format!("{}/{}:{:?}", f.n_params, f.n_regs, f.code);
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            let words = std::iter::once(u64::from(site)).chain(key);
            for w in words.chain(canon.bytes().map(u64::from)) {
                h ^= w;
                h = h.wrapping_mul(PRIME);
            }
            h
        })
        .fold(0u64, u64::wrapping_add)
}

/// What one thread did in one epoch.
#[derive(Debug, Default)]
struct EpochOut {
    dispatches: u64,
    wall_ns: u64,
    hits: u64,
    misses: u64,
    miss_ns: u64,
    vm: ExecStats,
    rt: RtStats,
    tally: Tally,
    /// This thread's dispatch latencies in the epoch, as sparse
    /// `(ns, count)` pairs.
    hist: Vec<(u64, u32)>,
    /// The static epoch's wall time and call latencies.
    static_wall_ns: u64,
    static_hist: Vec<(u64, u32)>,
}

/// What to replay: the stream and its seed, for how long, and whether
/// the serving threads record spans (on every other epoch).
#[derive(Debug, Clone, Copy)]
struct Replay {
    spec: ServeSpec,
    seed: u64,
    budget: Duration,
    traced: bool,
    /// Time origin of the spans.
    epoch0: Instant,
    /// Least time between two calls of the interlude.
    interlude: Duration,
}

/// State shared between the coordinating thread and the workers.
struct Ctx<'a> {
    cfg: Replay,
    program: &'a Program,
    epoch: AtomicU64,
    stop: AtomicBool,
    start: Barrier,
    /// Between the dynamic and the static epoch (workers only).
    mid: Barrier,
    end: Barrier,
    runtime: RwLock<Arc<SharedRuntime>>,
    outs: Mutex<Vec<EpochOut>>,
    gen: TrafficGen,
}

/// One serving thread's handles onto the current runtime.
struct Handles {
    rt: ThreadRuntime,
    module: Module,
    vm: Vm,
    func: FuncId,
}

impl Handles {
    fn new(shared: &Arc<SharedRuntime>) -> Handles {
        let rt = SharedRuntime::thread(shared);
        let module = shared.base_module();
        let func = module
            .func_by_name("serve")
            .expect("the serve source defines `serve`");
        Handles {
            rt,
            module,
            vm: Vm::new(CostModel::alpha21164()),
            func,
        }
    }

    fn misses(&self) -> (u64, u64) {
        self.rt
            .miss_latency()
            .map_or((0, 0), |h| (h.count(), h.sum()))
    }
}

/// Per-thread results over the whole run.
struct WorkerEnd {
    hit: FineHist,
    miss: FineHist,
    tracer: Tracer,
}

fn worker(t: usize, ctx: &Ctx) -> WorkerEnd {
    let mut hit = FineHist::default();
    let mut miss = FineHist::default();
    let mut epoch_hist = FineHist::default();
    let mut tracer = Tracer::new(false, ctx.cfg.epoch0, t as u32 + 1);
    let mut static_hist = FineHist::default();
    let mut handles: Option<Handles> = None;
    // The dynamic and the static epoch's streams: the same keys.
    let mut stream: Option<(KeyStream, KeyStream)> = None;
    let spec = ctx.cfg.spec;
    let per_thread = spec.epoch_dispatches / THREADS as u64;
    let (mut sent, mut static_sent) = (0u64, 0u64);
    loop {
        ctx.start.wait();
        if ctx.stop.load(Ordering::SeqCst) {
            break;
        }
        let epoch = ctx.epoch.load(Ordering::SeqCst);
        tracer.set_on(ctx.cfg.traced && epoch % 2 == 1);
        let shared = Arc::clone(&ctx.runtime.read().expect("runtime lock poisoned"));
        let h = match &mut handles {
            Some(h) if Arc::ptr_eq(h.rt.shared(), &shared) => h,
            slot => slot.insert(tracer.span("rt.thread", |_| Handles::new(&shared))),
        };
        if spec.fresh_per_epoch || stream.is_none() {
            let seed = epoch_seed(ctx.cfg.seed, epoch, spec.fresh_per_epoch);
            stream = Some((
                ctx.gen.stream(seed, t as u32),
                ctx.gen.stream(seed, t as u32),
            ));
        }
        let (stream, static_stream) = stream.as_mut().expect("stream set above");
        let mut out = EpochOut::default();
        let (vm0, rt0, (m0, s0)) = (h.vm.stats.clone(), h.rt.stats.clone(), h.misses());
        let t0 = Instant::now();
        for _ in 0..per_thread {
            let key = stream.next_key() as i64;
            let x = (sent % 5) as i64;
            sent += 1;
            let before = h.misses().0;
            let mut call = |_: &mut Tracer| {
                let t = Instant::now();
                let r = h.vm.call_with_handler(
                    &mut h.module,
                    &mut h.rt,
                    h.func,
                    &[Value::I(key), Value::I(x)],
                );
                (r, t.elapsed().as_nanos() as u64)
            };
            let (r, ns) = if tracer.is_on() && sent.is_multiple_of(SPAN_SAMPLE) {
                tracer.span("rt.dispatch", call)
            } else {
                call(&mut tracer)
            };
            epoch_hist.record(ns);
            if h.misses().0 == before {
                out.hits += 1;
                hit.record(ns);
            } else {
                miss.record(ns);
            }
            let want = expected(key, x);
            match r {
                Ok(Some(Value::I(v))) if v == want => out.tally.attempted += 1,
                other => {
                    out.tally.attempted += 1;
                    out.tally
                        .fail(format!("serve({key}, {x}) = {other:?}, expected {want}"));
                }
            }
        }
        out.wall_ns = t0.elapsed().as_nanos() as u64;
        out.dispatches = per_thread;
        let (m1, s1) = h.misses();
        out.misses = m1 - m0;
        out.miss_ns = s1 - s0;
        out.vm = h.vm.stats.delta_since(&vm0);
        out.rt = h.rt.stats.delta(&rt0);
        out.hist = epoch_hist.take_sparse();

        ctx.mid.wait();
        // A fresh static session each epoch, as the dynamic side gets
        // fresh handles with each fresh runtime: one session's heap
        // placement would otherwise bias the whole run.
        let mut stat = ctx.program.static_session();
        let t0 = Instant::now();
        for _ in 0..per_thread {
            let key = static_stream.next_key() as i64;
            let x = (static_sent % 5) as i64;
            static_sent += 1;
            let t = Instant::now();
            let r = stat.run("serve", &[Value::I(key), Value::I(x)]);
            static_hist.record(t.elapsed().as_nanos() as u64);
            let want = expected(key, x);
            out.tally.check(r == Ok(Some(Value::I(want))), || {
                format!("static serve({key}, {x}) = {r:?}, expected {want}")
            });
        }
        out.static_wall_ns = t0.elapsed().as_nanos() as u64;
        out.static_hist = static_hist.take_sparse();
        if spec.fresh_per_epoch {
            // The runtime is replaced: free this thread's module replica
            // now, not when the next epoch starts.
            handles = None;
        }
        ctx.outs.lock().expect("epoch results lock poisoned")[t] = out;
        ctx.end.wait();
    }
    WorkerEnd { hit, miss, tracer }
}

/// Whole-run totals over every runtime's lifetime.
#[derive(Debug, Default)]
struct Totals {
    dispatches: u64,
    misses: u64,
    miss_ns: u64,
    vm: ExecStats,
    rt: RtStats,
    conc: ConcSnapshot,
    shard_lookups: Vec<u64>,
    shard_probes: Vec<u64>,
    peak_published: u64,
    epochs: Vec<Epoch>,
    digests: Vec<u64>,
}

/// One epoch's rate and latency quantiles, and its static epoch's.
#[derive(Debug, Default)]
struct Epoch {
    /// Dispatches per second over the epoch's makespan.
    rate: f64,
    /// Whether the serving threads recorded spans in it.
    traced: bool,
    /// Median dispatch latency over all threads, ns.
    p50: Option<f64>,
    /// 99th-percentile dispatch latency over all threads, ns.
    p99: Option<f64>,
    /// The same three figures of the static epoch.
    static_rate: f64,
    static_p50: Option<f64>,
    static_p99: Option<f64>,
}

/// The runtime's books for one lifetime, checked: every dispatch the
/// callers sent reached the VM, the dispatches that left the runtime's
/// miss count alone (`hits`) plus the misses it recorded make up all
/// dispatches, every miss resolved exactly one way, and every cache
/// lookup is a dispatch or a winner's or racer's re-probe.
fn check_meters(
    dispatches: u64,
    vm_dispatches: u64,
    hits: u64,
    misses: u64,
    s: &ConcSnapshot,
    tally: &mut Tally,
) {
    tally.check(vm_dispatches == dispatches, || {
        format!("callers sent {dispatches} dispatches, the VM counted {vm_dispatches}")
    });
    tally.check(hits + misses == dispatches, || {
        format!("hits {hits} + misses {misses} != dispatches {dispatches}")
    });
    let resolved = s.specializations
        + s.single_flight_waits
        + s.single_flight_fallbacks
        + s.single_flight_races
        + s.policy_defers
        + s.policy_throttled;
    tally.check(misses == resolved, || {
        format!("misses {misses} != specializations + waits + fallbacks + races + defers + throttles {resolved}")
    });
    let lookups: u64 = s.shards.iter().map(|m| m.lookups).sum();
    tally.check(
        lookups == dispatches + s.specializations + s.single_flight_races,
        || format!("shard lookups {lookups} do not balance"),
    );
}

fn add_conc(a: &mut ConcSnapshot, b: &ConcSnapshot) {
    a.specializations += b.specializations;
    a.single_flight_waits += b.single_flight_waits;
    a.single_flight_fallbacks += b.single_flight_fallbacks;
    a.single_flight_races += b.single_flight_races;
    a.cache_evictions += b.cache_evictions;
    a.published += b.published;
}

/// Replay `spec` from `seed` on `program`'s runtimes for at least
/// [`MIN_EPOCHS`] epochs and until `budget` has passed, calling `between`
/// between epochs, at most every `interlude` and after the last, while
/// the serving threads wait. Returns the totals
/// and the per-thread histograms and spans.
fn replay(
    cfg: Replay,
    program: &Program,
    first: Arc<SharedRuntime>,
    tally: &mut Tally,
    between: &mut dyn FnMut(u64),
) -> (Totals, Vec<WorkerEnd>) {
    let Replay {
        spec,
        budget,
        traced,
        interlude,
        ..
    } = cfg;
    let ctx = Ctx {
        cfg,
        program,
        epoch: AtomicU64::new(0),
        stop: AtomicBool::new(false),
        start: Barrier::new(THREADS + 1),
        mid: Barrier::new(THREADS),
        end: Barrier::new(THREADS + 1),
        runtime: RwLock::new(first),
        outs: Mutex::new((0..THREADS).map(|_| EpochOut::default()).collect()),
        gen: TrafficGen::new(StreamConfig::of(spec.pattern)),
    };
    let mut tot = Totals::default();
    let ends = std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let ctx = &ctx;
                s.spawn(move || worker(t, ctx))
            })
            .collect();
        let began = Instant::now();
        let mut since = began;
        // Running totals of the current runtime's lifetime.
        let (mut life_disp, mut life_vm, mut life_hits, mut life_miss) = (0u64, 0, 0, 0);
        let mut epoch = 0u64;
        loop {
            ctx.epoch.store(epoch, Ordering::SeqCst);
            ctx.start.wait();
            ctx.end.wait();
            let outs = std::mem::take(&mut *ctx.outs.lock().expect("epoch results lock poisoned"));
            *ctx.outs.lock().expect("epoch results lock poisoned") =
                (0..THREADS).map(|_| EpochOut::default()).collect();
            let wall = outs.iter().map(|o| o.wall_ns).max().unwrap_or(0);
            let static_wall = outs.iter().map(|o| o.static_wall_ns).max().unwrap_or(0);
            let disp: u64 = outs.iter().map(|o| o.dispatches).sum();
            let mut hist = FineHist::default();
            let mut static_hist = FineHist::default();
            for o in &outs {
                hist.add_sparse(&o.hist);
                static_hist.add_sparse(&o.static_hist);
            }
            tot.epochs.push(Epoch {
                rate: disp as f64 / (wall.max(1) as f64 / 1e9),
                traced: traced && epoch % 2 == 1,
                p50: hist.quantile(0.5),
                p99: hist.quantile(0.99),
                static_rate: disp as f64 / (static_wall.max(1) as f64 / 1e9),
                static_p50: static_hist.quantile(0.5),
                static_p99: static_hist.quantile(0.99),
            });
            for o in outs {
                life_disp += o.dispatches;
                life_vm += o.vm.dispatches;
                life_miss += o.misses;
                life_hits += o.hits;
                tot.dispatches += o.dispatches;
                tot.misses += o.misses;
                tot.miss_ns += o.miss_ns;
                tot.vm.absorb(&o.vm);
                tot.rt = add_rt(&tot.rt, &o.rt);
                tally.absorb(o.tally);
            }
            let shared = Arc::clone(&ctx.runtime.read().expect("runtime lock poisoned"));
            let snap = shared.stats();
            check_meters(life_disp, life_vm, life_hits, life_miss, &snap, tally);
            epoch += 1;
            let last = epoch >= MIN_EPOCHS && began.elapsed() >= budget;
            if spec.fresh_per_epoch || last {
                // The runtime's lifetime ends: fold its meters in.
                add_conc(&mut tot.conc, &snap);
                tot.peak_published = tot.peak_published.max(snap.published);
                for (i, m) in snap.shards.iter().enumerate() {
                    if tot.shard_lookups.len() <= i {
                        tot.shard_lookups.push(0);
                        tot.shard_probes.push(0);
                    }
                    tot.shard_lookups[i] += m.lookups;
                    tot.shard_probes[i] += m.probes;
                }
                tot.digests.push(code_digest(&shared));
                (life_disp, life_vm, life_hits, life_miss) = (0, 0, 0, 0);
                if !last {
                    *ctx.runtime.write().expect("runtime lock poisoned") =
                        program.shared_runtime_with(options());
                }
            }
            if last || since.elapsed() >= interlude {
                between(epoch);
                since = Instant::now();
            }
            if last {
                ctx.stop.store(true, Ordering::SeqCst);
                ctx.start.wait();
                break;
            }
        }
        workers
            .into_iter()
            .map(|w| w.join().expect("serving thread panicked"))
            .collect::<Vec<_>>()
    });
    (tot, ends)
}

fn add_rt(a: &RtStats, b: &RtStats) -> RtStats {
    let mut out = a.clone();
    out.specializations += b.specializations;
    out.dyncomp_cycles += b.dyncomp_cycles;
    out.instrs_generated += b.instrs_generated;
    out.ge_exec_cycles += b.ge_exec_cycles;
    out.emit_cycles += b.emit_cycles;
    out.template_copy_cycles += b.template_copy_cycles;
    out.hole_patch_cycles += b.hole_patch_cycles;
    out.dae_removed += b.dae_removed;
    out.dispatch_allocs += b.dispatch_allocs;
    out
}

/// The served region measured single-threaded (see the module docs), in
/// short blocks spread over the run so the medians see the whole run.
pub struct Probe {
    vm_program: Program,
    native_program: Program,
    stat: Session,
    /// Per key: static-build cycles of one invocation.
    static_cycles: Vec<u64>,
    /// Per key: (static cycles, warm dynamic cycles, overhead cycles,
    /// instructions generated), from the first block.
    pub models: Vec<(u64, u64, u64, u64)>,
    /// Blocks run so far.
    pub blocks: usize,
    /// Per key: each block's median warm VM invocation, ns.
    pub vm_ns: Vec<Vec<f64>>,
    /// Per key: each block's median warm native invocation, ns.
    pub native_ns: Vec<Vec<f64>>,
    /// Per key: first invocation minus warm invocation in a fresh
    /// session, ns.
    pub spec_ns: Vec<Vec<f64>>,
    /// Per key: each block's median static-build invocation, ns.
    pub static_ns: Vec<Vec<f64>>,
    /// Per key: each block's median of static-build time over warm VM
    /// time, the two calls timed back to back.
    pub vm_x: Vec<Vec<f64>>,
    /// Per key: the same against warm native invocations.
    pub native_x: Vec<Vec<f64>>,
    /// Per key: each block's first-invocation cost over its median
    /// static-build invocation.
    pub spec_x: Vec<Vec<f64>>,
    /// Native installs and declined lowerings over all blocks.
    pub native: (u64, u64),
    /// Generated code lowered by `native.lower` (functions, bytes).
    pub lowered: (u64, u64),
}

/// The probe's dynamic argument.
const PROBE_X: i64 = 3;

fn probe_check(r: &Result<Option<Value>, dyc::VmError>, key: i64, tally: &mut Tally) -> bool {
    let ok = matches!(r, Ok(Some(Value::I(v))) if *v == expected(key, PROBE_X));
    tally.check(ok, || format!("probe serve({key}, {PROBE_X}) = {r:?}"))
}

fn timed_call(
    tracer: &mut Tracer,
    span: &'static str,
    sess: &mut Session,
    key: i64,
) -> (Result<(Option<Value>, ExecStats), dyc::VmError>, f64) {
    tracer.span(span, |_| {
        let t = Instant::now();
        let r = sess.run_measured("serve", &[Value::I(key), Value::I(PROBE_X)]);
        (r, t.elapsed().as_nanos() as f64)
    })
}

impl Probe {
    /// Compile the served source for the VM and native backends and
    /// take the static build's cycles per key.
    pub fn new(bound: Option<u32>, tally: &mut Tally) -> Option<Probe> {
        let src = serve_source(bound);
        let native_cfg = OptConfig {
            native: true,
            ..OptConfig::all()
        };
        let compiled = Compiler::new()
            .compile(&src)
            .and_then(|p| Ok((p, Compiler::with_config(native_cfg).compile(&src)?)));
        let Ok((vm_program, native_program)) = compiled else {
            tally.check(false, || "the serve source does not compile".to_string());
            return None;
        };
        let mut stat = vm_program.static_session();
        let mut static_cycles = Vec::new();
        for key in 0..PROBE_KEYS {
            let r = stat.run_measured("serve", &[Value::I(key), Value::I(PROBE_X)]);
            static_cycles.push(r.as_ref().map_or(0, |(_, d)| d.run_cycles()));
            probe_check(&r.map(|(v, _)| v), key, tally);
        }
        let keys = PROBE_KEYS as usize;
        Some(Probe {
            vm_program,
            native_program,
            stat,
            static_cycles,
            models: Vec::new(),
            blocks: 0,
            vm_ns: vec![Vec::new(); keys],
            native_ns: vec![Vec::new(); keys],
            spec_ns: vec![Vec::new(); keys],
            static_ns: vec![Vec::new(); keys],
            vm_x: vec![Vec::new(); keys],
            native_x: vec![Vec::new(); keys],
            spec_x: vec![Vec::new(); keys],
            native: (0, 0),
            lowered: (0, 0),
        })
    }

    /// One block: fresh VM and native sessions specialize every key
    /// (one first-invocation sample per key), then [`PROBE_SAMPLES`]
    /// rounds of a static-build, a warm VM and a warm native call per
    /// key. The host's speed drifts by up to 2x within a second, so each
    /// dynamic call is compared with the static call timed beside it.
    pub fn block(&mut self, traced: bool, tracer: &mut Tracer, tally: &mut Tally) {
        let mut dynv = tracer.span("core.session", |_| self.vm_program.dynamic_session());
        let mut nat = tracer.span("core.session", |_| self.native_program.dynamic_session());
        let mut models = Vec::new();
        let mut spec_ns = vec![None; PROBE_KEYS as usize];
        self.blocks += 1;
        for key in 0..PROBE_KEYS {
            let k = key as usize;
            let before = dynv.rt_stats().cloned().unwrap_or_default();
            let (first, t1) = timed_call(tracer, "rt.specialize", &mut dynv, key);
            let spec = dynv.rt_stats().cloned().unwrap_or_default().delta(&before);
            let (warm, t2) = timed_call(tracer, "vm.region", &mut dynv, key);
            let d_cycles = warm.as_ref().map_or(0, |(_, d)| d.run_cycles());
            if probe_check(&first.map(|(v, _)| v), key, tally)
                && probe_check(&warm.map(|(v, _)| v), key, tally)
            {
                spec_ns[k] = Some(t1 - t2);
            }
            let (r, _) = timed_call(tracer, "rt.specialize", &mut nat, key);
            probe_check(&r.map(|(v, _)| v), key, tally);
            models.push((
                self.static_cycles[k],
                d_cycles,
                spec.dyncomp_cycles,
                spec.instrs_generated,
            ));
        }
        if self.models.is_empty() {
            self.models = models;
        } else {
            tally.check(self.models == models, || {
                "the served region's cycle model differs between blocks".to_string()
            });
        }
        // Per key: (static, VM, native) times of each round whose three
        // calls all passed.
        let mut rounds: Vec<Vec<[f64; 3]>> =
            vec![Vec::with_capacity(PROBE_SAMPLES); PROBE_KEYS as usize];
        let traced_block = tracer.is_on();
        for i in 0..PROBE_SAMPLES {
            // Spans for one warm round in SPAN_SAMPLE, like the serving
            // threads, so a long traced run keeps its spans in memory.
            tracer.set_on(traced_block && i % SPAN_SAMPLE as usize == 0);
            for key in 0..PROBE_KEYS {
                let mut ns = [0.0; 3];
                let mut ok = true;
                for (j, (sess, span)) in [
                    (&mut self.stat, "vm.static_region"),
                    (&mut dynv, "vm.region"),
                    (&mut nat, "native.region"),
                ]
                .into_iter()
                .enumerate()
                {
                    let (r, t) = timed_call(tracer, span, sess, key);
                    ok &= probe_check(&r.map(|(v, _)| v), key, tally);
                    ns[j] = t;
                }
                if ok {
                    rounds[key as usize].push(ns);
                }
            }
        }
        tracer.set_on(traced_block);
        for (k, rs) in rounds.iter().enumerate() {
            let col = |f: fn(&[f64; 3]) -> f64| median(&rs.iter().map(f).collect::<Vec<_>>());
            let stat = col(|r| r[0]);
            self.static_ns[k].extend(stat);
            self.vm_ns[k].extend(col(|r| r[1]));
            self.native_ns[k].extend(col(|r| r[2]));
            self.vm_x[k].extend(col(|r| r[0] / r[1]));
            self.native_x[k].extend(col(|r| r[0] / r[2]));
            if let (Some(spec), Some(stat)) = (spec_ns[k], stat) {
                self.spec_ns[k].push(spec);
                self.spec_x[k].push(spec / stat);
            }
        }
        let rt = nat.rt_stats().cloned().unwrap_or_default();
        self.native.0 += rt.native_installs;
        self.native.1 += rt.native_fallbacks;
        if traced {
            let funcs: Vec<_> = dynv.cached_code().into_iter().map(|(_, _, f)| f).collect();
            let (n, bytes) = tracer.span("native.lower", |_| {
                let mut acc = (0, 0);
                for f in &funcs {
                    if let Some(a) = dyc_rt::native::lower_func(f) {
                        acc.0 += 1;
                        acc.1 += a.bytes.len() as u64;
                    }
                }
                acc
            });
            self.lowered = (self.lowered.0 + n, self.lowered.1 + bytes);
        }
    }

    /// Geomean over keys of each key's median value, and the number of
    /// values behind it.
    fn geo_median(per_key: &[Vec<f64>]) -> (Option<f64>, u64) {
        let medians: Option<Vec<f64>> = per_key.iter().map(|s| median(s)).collect();
        let n = per_key.iter().map(|s| s.len() as u64).sum();
        (medians.and_then(|m| geomean(&m)), n)
    }

    /// The model figures as (speedup, overhead, generated) geomeans.
    pub fn model(&self) -> (Option<f64>, Option<f64>, Option<f64>) {
        let col = |f: fn(&(u64, u64, u64, u64)) -> f64| {
            geomean(&self.models.iter().map(f).collect::<Vec<_>>())
        };
        (
            col(|m| m.0 as f64 / m.1 as f64),
            col(|m| m.2 as f64),
            col(|m| m.3 as f64),
        )
    }
}

/// Compile the served source and build a runtime with [`THREADS`] thread
/// handles, as a server would at start-up.
fn setup_once(spec: &ServeSpec, tally: &mut Tally) -> Option<(Program, Arc<SharedRuntime>)> {
    tally.attempted += 1;
    let program = match Compiler::new().compile(&serve_source(spec.bound)) {
        Ok(p) => p,
        Err(e) => {
            tally.fail(format!("serve source: {e}"));
            return None;
        }
    };
    let shared = program.shared_runtime_with(options());
    for _ in 0..THREADS {
        std::hint::black_box(Handles::new(&shared));
    }
    Some((program, shared))
}

/// The serving metrics, each the median over epochs: when untraced, the
/// dynamic epoch against its static epoch; when traced, the raw rate and
/// latency quantiles of the epochs without spans.
fn set_serving_metrics(metrics: &mut Metrics, tot: &Totals, traced: bool) {
    let n = tot.dispatches;
    let over = |f: &dyn Fn(&Epoch) -> Option<f64>| -> Option<f64> {
        let v: Option<Vec<f64>> = tot.epochs.iter().filter(|e| !e.traced).map(f).collect();
        v.and_then(|v| median(&v))
    };
    if traced {
        metrics.set("throughput_per_s", over(&|e| Some(e.rate)), n);
        metrics.set("dispatch_p50_ns", over(&|e| e.p50), n);
        metrics.set("dispatch_p99_ns", over(&|e| e.p99), n);
    } else {
        metrics.set("serve_speedup", over(&|e| Some(e.rate / e.static_rate)), n);
        metrics.set(
            "dispatch_p50_ratio",
            over(&|e| Some(e.p50? / e.static_p50?)),
            n,
        );
        metrics.set(
            "dispatch_p99_ratio",
            over(&|e| Some(e.p99? / e.static_p99?)),
            n,
        );
    }
}

/// Serve `serve_zipf`'s stream from `seed` for `seconds` beside another
/// workload, which `between` runs after every epoch while the serving
/// threads wait, and set the serving metrics from the epochs.
pub fn beside(
    seed: u64,
    seconds: f64,
    metrics: &mut Metrics,
    tally: &mut Tally,
    between: &mut dyn FnMut(&mut Tally),
) {
    let Some((program, shared)) = setup_once(&ZIPF, tally) else {
        return;
    };
    let cfg = Replay {
        spec: ZIPF,
        seed,
        budget: Duration::from_secs_f64(seconds),
        traced: false,
        epoch0: Instant::now(),
        interlude: Duration::ZERO,
    };
    let mut inner = Tally::default();
    let (tot, _) = replay(cfg, &program, shared, tally, &mut |_| between(&mut inner));
    tally.absorb(inner);
    set_serving_metrics(metrics, &tot, false);
}

/// Set the region figures of `paper_suite` from the probe: `speedup_vm`,
/// `speedup_native` and `spec_cost_calls` when untraced, the raw times
/// behind them when traced. A host without native installs reports the
/// native figure as failed, never a VM number in its place.
fn set_probe_metrics(probe: &Probe, traced: bool, metrics: &mut Metrics, tally: &mut Tally) {
    let no_native = probe.native.0 == 0;
    let per_block = PROBE_SAMPLES as u64;
    let [vm, native, spec] = if traced {
        [&probe.vm_ns, &probe.native_ns, &probe.spec_ns]
    } else {
        [&probe.vm_x, &probe.native_x, &probe.spec_x]
    }
    .map(|v| Probe::geo_median(v));
    let scale = if traced { 1e-3 } else { 1.0 };
    let names = if traced {
        ["region_ns_vm", "region_ns_native", "spec_us"]
    } else {
        ["speedup_vm", "speedup_native", "spec_cost_calls"]
    };
    metrics.set(names[0], vm.0, vm.1 * per_block);
    if no_native && !traced {
        tally.check(false, || "no native installs on this host".to_string());
    }
    metrics.set(
        names[1],
        native.0.filter(|_| !no_native),
        native.1 * per_block,
    );
    metrics.set(names[2], spec.0.map(|x| x * scale), spec.1);
}

/// Run one serving workload for `seconds`, filling `metrics`.
pub fn run(
    spec: ServeSpec,
    seed: u64,
    seconds: f64,
    traced: bool,
    trace_out: Option<&std::path::Path>,
    metrics: &mut Metrics,
    tally: &mut Tally,
) {
    let epoch0 = Instant::now();
    let mut tracer = Tracer::new(traced, epoch0, 0);
    let mut setup_s = Vec::new();
    let t = Instant::now();
    let built = setup_once(&spec, tally);
    setup_s.push(t.elapsed().as_secs_f64());
    let (Some((program, shared)), Some(mut probe)) = (built, Probe::new(spec.bound, tally)) else {
        return;
    };
    let mut pipeline = Vec::new();
    let mut between = |tracer: &mut Tracer, tally: &mut Tally| {
        // Between epochs (the serving threads wait): more set-up passes,
        // one region-probe block, and in a traced run the explicit
        // pipeline.
        for _ in 0..SETUP_REPS {
            let t = Instant::now();
            std::hint::black_box(setup_once(&spec, tally));
            setup_s.push(t.elapsed().as_secs_f64());
        }
        probe.block(traced, tracer, tally);
        if traced {
            let r = crate::suite::traced_pipeline(&serve_source(spec.bound), tracer);
            if tally.check(r.is_ok(), || "serve source: pipeline failed".to_string()) {
                pipeline.extend(r.ok());
            }
        }
    };
    between(&mut tracer, tally);
    let mut probe_tally = Tally::default();
    let cfg = Replay {
        spec,
        seed,
        budget: Duration::from_secs_f64(seconds),
        traced,
        epoch0,
        interlude: INTERLUDE_EVERY,
    };
    let (tot, ends) = replay(cfg, &program, shared, tally, &mut |_| {
        between(&mut tracer, &mut probe_tally)
    });
    tally.absorb(probe_tally);
    let mut hit = FineHist::default();
    let mut miss = FineHist::default();
    for e in ends {
        hit.merge(&e.hit);
        miss.merge(&e.miss);
        tracer.absorb(e.tracer);
    }
    set_probe_metrics(&probe, traced, metrics, tally);
    if !traced {
        let (speedup, overhead, gen) = probe.model();
        let nk = probe.models.len() as u64;
        metrics.set("setup_s", median(&setup_s), setup_s.len() as u64);
        metrics.set("model_speedup", speedup, nk);
        metrics.set("model_overhead_cycles", overhead, nk);
        metrics.set("gen_instrs", gen, nk);
        set_serving_metrics(metrics, &tot, false);
        return;
    }
    set_serving_metrics(metrics, &tot, true);

    let layers = self_times(tracer.spans());
    let passes = pipeline.len().max(1) as f64;
    crate::suite::set_pipeline_metrics(
        metrics,
        &layers,
        &pipeline[..pipeline.len().min(1)],
        passes,
    );
    let blocks = probe.blocks.max(1) as f64;
    let (native_ns, native_n) = layers
        .get("native.lower")
        .map_or((0.0, 0), |l| (l.self_ns as f64 / blocks, l.count));
    metrics.set("native.lower_ns", Some(native_ns), native_n);
    let specs = tot.conc.specializations;
    let per_spec = |x: u64| Some(x as f64 / specs.max(1) as f64);
    metrics.set(
        "rt.spec_ns",
        Some(tot.miss_ns as f64 / tot.misses.max(1) as f64),
        tot.misses,
    );
    metrics.set("rt.ge_exec_cycles", per_spec(tot.rt.ge_exec_cycles), specs);
    metrics.set("rt.emit_cycles", per_spec(tot.rt.emit_cycles), specs);
    metrics.set(
        "rt.template_copy_cycles",
        per_spec(tot.rt.template_copy_cycles),
        specs,
    );
    metrics.set(
        "rt.hole_patch_cycles",
        per_spec(tot.rt.hole_patch_cycles),
        specs,
    );
    metrics.set("rt.dae_removed", per_spec(tot.rt.dae_removed), specs);
    metrics.set("rt.specializations", Some(specs as f64), specs);
    metrics.set("rt.hit_ns", hit.quantile(0.5), hit.count());
    let d = tot.dispatches;
    metrics.set(
        "rt.hit_rate",
        Some((d - tot.misses.min(d)) as f64 / d.max(1) as f64),
        d,
    );
    let lookups: u64 = tot.shard_lookups.iter().sum();
    let probes: u64 = tot.shard_probes.iter().sum();
    let hottest = tot.shard_lookups.iter().copied().max().unwrap_or(0);
    let n_shards = tot.shard_lookups.len().max(1) as f64;
    metrics.set(
        "rt.probes_per_lookup",
        Some(probes as f64 / lookups.max(1) as f64),
        lookups,
    );
    metrics.set(
        "rt.shard_imbalance",
        Some(hottest as f64 / (lookups.max(1) as f64 / n_shards)),
        lookups,
    );
    metrics.set("rt.dispatch_allocs", Some(tot.rt.dispatch_allocs as f64), d);
    let c = &tot.conc;
    metrics.set(
        "rt.flight_waits",
        Some(c.single_flight_waits as f64),
        tot.misses,
    );
    metrics.set(
        "rt.flight_races",
        Some(c.single_flight_races as f64),
        tot.misses,
    );
    metrics.set(
        "rt.flight_fallbacks",
        Some(c.single_flight_fallbacks as f64),
        tot.misses,
    );
    let distinct = distinct_keys(spec, seed, tot.dispatches);
    metrics.set(
        "rt.dup_spec_ratio",
        Some(specs as f64 / distinct.max(1) as f64),
        distinct,
    );
    metrics.set("rt.evictions", Some(c.cache_evictions as f64), d);
    metrics.set(
        "rt.published",
        Some(tot.peak_published as f64),
        tot.digests.len() as u64,
    );
    metrics.set(
        "native.installs",
        Some(probe.native.0 as f64),
        blocks as u64,
    );
    metrics.set(
        "native.fallbacks",
        Some(probe.native.1 as f64),
        blocks as u64,
    );
    metrics.set(
        "native.code_bytes",
        Some(probe.lowered.1 as f64),
        probe.lowered.0,
    );
    let (static_ns, n) = Probe::geo_median(&probe.static_ns);
    metrics.set("vm.static_region_ns", static_ns, n * PROBE_SAMPLES as u64);
    let per_disp = |x: u64| Some(x as f64 / d.max(1) as f64);
    metrics.set("vm.instrs_executed", per_disp(tot.vm.instrs_executed), d);
    metrics.set("vm.exec_cycles", per_disp(tot.vm.exec_cycles), d);
    metrics.set(
        "vm.icache_miss_cycles",
        per_disp(tot.vm.icache_miss_cycles),
        d,
    );
    // Tracing overhead: traced against untraced epoch makespans.
    let mut ns: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    for e in &tot.epochs {
        ns[usize::from(e.traced)].push(1e9 / e.rate);
    }
    crate::suite::overhead_metrics(metrics, &ns, &tracer);
    crate::print_layers(&layers);
    if let Some(path) = trace_out {
        crate::write_trace(path, tracer.spans(), tally);
    }
}

/// Distinct (site, key) pairs the run dispatched, per runtime lifetime
/// (a key sent again to a fresh runtime counts again), regenerated from
/// the seeded streams.
fn distinct_keys(spec: ServeSpec, seed: u64, dispatches: u64) -> u64 {
    let gen = TrafficGen::new(StreamConfig::of(spec.pattern));
    let per_thread_epoch = spec.epoch_dispatches / THREADS as u64;
    let epochs = dispatches / spec.epoch_dispatches.max(1);
    let mut total = 0u64;
    let mut seen = std::collections::HashSet::new();
    let mut streams: Vec<KeyStream> = Vec::new();
    for e in 0..epochs {
        if spec.fresh_per_epoch || e == 0 {
            seen.clear();
            let s = epoch_seed(seed, e, spec.fresh_per_epoch);
            streams = (0..THREADS).map(|t| gen.stream(s, t as u32)).collect();
        }
        for st in &mut streams {
            for _ in 0..per_thread_epoch {
                if seen.insert(st.next_key()) {
                    total += 1;
                }
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Replay `spec` for [`MIN_EPOCHS`] epochs; the code digest of each
    /// runtime it used.
    fn digests(spec: ServeSpec, seed: u64) -> Vec<u64> {
        let mut tally = Tally::default();
        let (program, shared) = setup_once(&spec, &mut tally).expect("serve source compiles");
        let cfg = Replay {
            spec,
            seed,
            budget: Duration::ZERO,
            traced: false,
            epoch0: Instant::now(),
            interlude: INTERLUDE_EVERY,
        };
        let (tot, _) = replay(cfg, &program, shared, &mut tally, &mut |_| {});
        assert_eq!(tally.failed, 0, "replay failed: {tally:?}");
        tot.digests
    }

    /// Unbounded streams only: under `cache_all(k)` which keys stay
    /// resident depends on how the threads interleave.
    #[test]
    fn same_seed_gives_the_same_code() {
        for base in [ZIPF, STAMPEDE] {
            let spec = ServeSpec {
                epoch_dispatches: 20_000,
                ..base
            };
            let a = digests(spec, 7);
            assert!(!a.is_empty());
            assert_eq!(a, digests(spec, 7), "{:?}", spec.pattern);
        }
    }

    #[test]
    fn the_region_model_repeats_bit_for_bit() {
        let model = || {
            let mut tally = Tally::default();
            let mut probe = Probe::new(None, &mut tally).expect("serve source compiles");
            let mut tracer = Tracer::new(false, Instant::now(), 0);
            probe.block(false, &mut tracer, &mut tally);
            probe.block(false, &mut tracer, &mut tally);
            assert_eq!(tally.failed, 0, "probe failed: {tally:?}");
            let (a, b, c) = probe.model();
            [a, b, c].map(|x| x.expect("model figure").to_bits())
        };
        assert_eq!(model(), model());
    }
}
