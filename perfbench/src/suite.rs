//! `paper_suite`: the 11 Table 1 programs with their deterministic
//! inputs.
//!
//! A set-up pass compiles every program twice (VM and native
//! configurations), runs its static build, specializes it on first
//! invocation and warms it up. The timed phase then runs rounds until the
//! time budget is spent. A round invokes every program once on its static
//! build, once warm on the VM and once on the native backend, and takes
//! one first-invocation sample from a fresh session of one program
//! (rotating), so each program gets the same number of samples. After
//! every [`BLOCK_ROUNDS`] rounds a new set-up pass runs (`setup_s` is the
//! median pass) and its sessions are timed from then on. Every result
//! goes through the workload's oracle ([`Workload::check_region`]).
//!
//! The host's speed drifts by up to 2x from one half-second to the next,
//! and all of a program's invocations drift together. So the end-to-end
//! figures compare each dynamic-build invocation with the static-build
//! invocation timed just before it, in the same round: `speedup_vm`,
//! `speedup_native` and `spec_cost_calls` are medians of these paired
//! ratios. The raw times are per-layer metrics. An untraced run also
//! serves `serve_zipf`'s stream in short epochs between slices of rounds,
//! for the serving metrics.

use crate::report::{program_key, Metrics, Tally};
use crate::stats::{geomean, median};
use crate::trace::{self_times, LayerTime, Tracer};
use dyc::{Compiler, ExecStats, OptConfig, Program, RtStats, Session, Value, VmError};
use dyc_workloads::Workload;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Rounds per block; a set-up pass runs after each block.
const BLOCK_ROUNDS: usize = 40;
/// Rounds the timed phase runs even when the budget is already spent.
const MIN_ROUNDS: usize = 22;
/// Rounds run between two serving epochs, at most this long.
const SLICE: Duration = Duration::from_millis(500);

/// Modeled figures of one program, from the cycle model (deterministic:
/// equal across set-up passes and across runs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Model {
    /// Cycles of one static-build region invocation (`s`).
    pub static_cycles: u64,
    /// Cycles of one warm dynamic-build invocation (`d`).
    pub dyn_cycles: u64,
    /// Run-time specializer statistics after the first invocation.
    pub rt: SpecCounts,
    /// One warm VM invocation's execution counters.
    pub warm: WarmCounts,
}

/// The first invocation's run-time specializer counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpecCounts {
    /// Dynamic-compilation overhead cycles (`o`).
    pub overhead: u64,
    /// Instructions generated.
    pub instrs: u64,
    /// Specializations performed.
    pub specializations: u64,
    /// GE executor cycles.
    pub ge_exec: u64,
    /// Emission cycles.
    pub emit: u64,
    /// Template copy cycles.
    pub template_copy: u64,
    /// Hole patch cycles.
    pub hole_patch: u64,
    /// Instructions removed by dead-assignment elimination.
    pub dae_removed: u64,
}

impl SpecCounts {
    fn of(rt: &RtStats) -> SpecCounts {
        SpecCounts {
            overhead: rt.dyncomp_cycles,
            instrs: rt.instrs_generated,
            specializations: rt.specializations,
            ge_exec: rt.ge_exec_cycles,
            emit: rt.emit_cycles,
            template_copy: rt.template_copy_cycles,
            hole_patch: rt.hole_patch_cycles,
            dae_removed: rt.dae_removed,
        }
    }
}

/// One warm invocation's VM counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WarmCounts {
    /// Instructions executed.
    pub instrs: u64,
    /// Execution cycles.
    pub exec_cycles: u64,
    /// I-cache miss cycles.
    pub icache_cycles: u64,
}

impl WarmCounts {
    fn of(d: &ExecStats) -> WarmCounts {
        WarmCounts {
            instrs: d.instrs_executed,
            exec_cycles: d.exec_cycles,
            icache_cycles: d.icache_miss_cycles,
        }
    }
}

/// Static-pipeline counts of one program.
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelineCounts {
    lowered: u64,
    optimized: u64,
    ge_ops: u64,
    template_instrs: u64,
}

/// One program, set up and ready for the timed phase.
struct Prog {
    key: String,
    w: Box<dyn Workload>,
    region: &'static str,
    program: Program,
    stat: Session,
    stat_args: Vec<Value>,
    vm: Session,
    vm_args: Vec<Value>,
    nat: Session,
    nat_args: Vec<Value>,
    model: Model,
    /// This round's static-build invocation, ns.
    last_static: Option<f64>,
    samples: Samples,
}

/// A program's timed samples, carried over from one set-up pass's
/// sessions to the next.
#[derive(Debug, Default)]
struct Samples {
    /// Static-build invocations, ns.
    static_ns: Vec<f64>,
    /// Warm VM invocations, ns.
    vm_ns: Vec<f64>,
    /// Warm native invocations, ns.
    nat_ns: Vec<f64>,
    /// First invocation minus warm invocation in a fresh session, ns.
    spec_ns: Vec<f64>,
    /// Static-build time over warm VM time, per round.
    vm_x: Vec<f64>,
    /// Static-build time over warm native time, per round.
    nat_x: Vec<f64>,
    /// First-invocation cost over the round's static-build time.
    spec_x: Vec<f64>,
}

/// Median of `xs`, 0 when empty.
fn med(xs: &[f64]) -> f64 {
    median(xs).unwrap_or(0.0)
}

/// True when two region results agree (floats to a relative 1e-9).
fn same_result(a: Option<Value>, b: Option<Value>) -> bool {
    match (a, b) {
        (Some(Value::F(x)), Some(Value::F(y))) => {
            x == y || (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0)
        }
        (a, b) => a == b,
    }
}

/// Run the region once inside a span named `span`, timing only the call.
fn timed_run(
    tracer: &mut Tracer,
    span: &'static str,
    sess: &mut Session,
    region: &str,
    args: &[Value],
) -> (Result<(Option<Value>, ExecStats), VmError>, f64) {
    tracer.span(span, |_| {
        let t = Instant::now();
        let out = sess.run_measured(region, args);
        (out, t.elapsed().as_nanos() as f64)
    })
}

/// Reset the region's memory, invoke it, and check the result. Returns
/// the wall nanoseconds and the execution counters when it passed.
fn invoke_checked(
    w: &dyn Workload,
    tracer: &mut Tracer,
    span: &'static str,
    sess: &mut Session,
    args: &[Value],
    tally: &mut Tally,
) -> Option<(f64, Option<Value>, ExecStats)> {
    let region = w.meta().region_func;
    w.reset(sess, args);
    let (out, ns) = timed_run(tracer, span, sess, region, args);
    match out {
        Ok((value, delta)) => {
            let ok = tracer.span("oracle.check", |_| w.check_region(value, sess));
            tally
                .check(ok, || {
                    format!("{}: {span} gave a wrong result", w.meta().name)
                })
                .then_some((ns, value, delta))
        }
        Err(e) => {
            tally.check(false, || format!("{}: {span} failed: {e}", w.meta().name));
            None
        }
    }
}

/// The explicit static pipeline, one span per layer call, as the traced
/// run records it (the untraced run only calls `Compiler::compile`).
pub fn traced_pipeline(src: &str, tracer: &mut Tracer) -> Result<PipelineCounts, String> {
    let count = |ir: &dyc_ir::ProgramIr| -> u64 {
        ir.funcs
            .iter()
            .flat_map(|f| &f.blocks)
            .map(|b| b.insts.len() as u64)
            .sum()
    };
    tracer.span("pipeline", |t| {
        let ast = t
            .span("lang.parse", |_| dyc_lang::parse_program(src))
            .map_err(|e| e.to_string())?;
        let mut ir = t
            .span("ir.lower", |_| dyc_ir::lower_program(&ast))
            .map_err(|e| e.to_string())?;
        let lowered = count(&ir);
        t.span("ir.opt", |_| dyc_ir::opt::optimize_program(&mut ir));
        let optimized = count(&ir);
        let module = t.span("ir.codegen", |_| dyc_ir::codegen::codegen_program(&ir));
        std::hint::black_box(module);
        let cfg = OptConfig::all();
        t.span("bta.analyze", |_| {
            for f in &ir.funcs {
                std::hint::black_box(dyc_bta::analyze(f, &cfg));
            }
        });
        let staged = t.span("stage.stage", |_| dyc_stage::stage_program(ir, cfg));
        let mut ge_ops = 0;
        let mut template_instrs = 0;
        for gf in staged.ge.funcs.iter().flatten() {
            for d in &gf.divisions {
                ge_ops += d.ops.len() as u64;
                for op in &d.ops {
                    if let dyc_stage::ge::GeOp::EmitTemplate(t) = op {
                        template_instrs += t.instrs.len() as u64;
                    }
                }
            }
        }
        Ok(PipelineCounts {
            lowered,
            optimized,
            ge_ops,
            template_instrs,
        })
    })
}

/// Lower every specialized function of `sess` to native code, in one
/// `native.lower` span. Returns (functions lowered, declined, code bytes).
fn traced_native_lower(sess: &Session, tracer: &mut Tracer) -> (u64, u64, u64) {
    let funcs: Vec<_> = sess.cached_code().into_iter().map(|(_, _, f)| f).collect();
    tracer.span("native.lower", |_| {
        let mut out = (0, 0, 0);
        for f in &funcs {
            match dyc_rt::native::lower_func(f) {
                Some(a) => {
                    out.0 += 1;
                    out.2 += a.bytes.len() as u64;
                }
                None => out.1 += 1,
            }
        }
        out
    })
}

/// Set up one program: compile, run the static build, specialize and
/// warm up the VM and native dynamic builds. `None` when a step failed
/// (already counted in `tally`).
fn setup_prog(w: Box<dyn Workload>, tracer: &mut Tracer, tally: &mut Tally) -> Option<Prog> {
    let meta = w.meta();
    let name = meta.name;
    let region = meta.region_func;
    let src = w.source();
    let native_cfg = OptConfig {
        native: true,
        ..OptConfig::all()
    };
    let compiled = tracer.span("core.compile", |_| {
        Compiler::new()
            .compile(&src)
            .and_then(|p| Ok((p, Compiler::with_config(native_cfg).compile(&src)?)))
    });
    let (program, native_program) = match compiled {
        Ok(p) => p,
        Err(e) => {
            tally.check(false, || format!("{name}: compile error: {e}"));
            return None;
        }
    };
    tally.attempted += 1;

    let mut stat = tracer.span("core.session", |_| program.static_session());
    let stat_args = w.setup_region(&mut stat);
    let (s_out, s_delta) = {
        let (out, _) = timed_run(tracer, "vm.static_region", &mut stat, region, &stat_args);
        match out {
            Ok(r) => r,
            Err(e) => {
                tally.check(false, || format!("{name}: static build failed: {e}"));
                return None;
            }
        }
    };
    if !tally.check(w.check_region(s_out, &mut stat), || {
        format!("{name}: static build gave a wrong result")
    }) {
        return None;
    }

    let mut vm = tracer.span("core.session", |_| program.dynamic_session());
    let vm_args = w.setup_region(&mut vm);
    let (first, _) = timed_run(tracer, "rt.specialize", &mut vm, region, &vm_args);
    let d_first = match first {
        Ok((v, _)) => v,
        Err(e) => {
            tally.check(false, || format!("{name}: first invocation failed: {e}"));
            return None;
        }
    };
    let ok = w.check_region(d_first, &mut vm) && same_result(s_out, d_first);
    if !tally.check(ok, || {
        format!("{name}: dynamic build disagrees with the oracle or the static build")
    }) {
        return None;
    }
    let rt = SpecCounts::of(vm.rt_stats().expect("a dynamic session has run-time stats"));
    let (_, _, warm) = invoke_checked(w.as_ref(), tracer, "vm.region", &mut vm, &vm_args, tally)?;
    tally.check(warm.dyncomp_cycles == 0, || {
        format!("{name}: a warm invocation specialized again")
    });

    let mut nat = tracer.span("core.session", |_| native_program.dynamic_session());
    let nat_args = w.setup_region(&mut nat);
    let (first, _) = timed_run(tracer, "rt.specialize", &mut nat, region, &nat_args);
    match first {
        Ok((v, _)) => {
            let ok = w.check_region(v, &mut nat) && same_result(s_out, v);
            if !tally.check(ok, || format!("{name}: native build gave a wrong result")) {
                return None;
            }
        }
        Err(e) => {
            tally.check(false, || {
                format!("{name}: native first invocation failed: {e}")
            });
            return None;
        }
    }
    for _ in 0..2 {
        invoke_checked(w.as_ref(), tracer, "vm.region", &mut vm, &vm_args, tally)?;
        invoke_checked(
            w.as_ref(),
            tracer,
            "native.region",
            &mut nat,
            &nat_args,
            tally,
        )?;
    }
    Some(Prog {
        key: program_key(name),
        w,
        region,
        program,
        stat,
        stat_args,
        vm,
        vm_args,
        nat,
        nat_args,
        model: Model {
            static_cycles: s_delta.run_cycles(),
            dyn_cycles: warm.run_cycles(),
            rt,
            warm: WarmCounts::of(&warm),
        },
        last_static: None,
        samples: Samples::default(),
    })
}

/// One set-up pass over every program. In a traced run it also runs the
/// explicit pipeline and the native lowering of each program.
struct Pass {
    progs: Vec<Prog>,
    secs: f64,
    pipeline: Vec<PipelineCounts>,
    lowered: (u64, u64, u64),
}

fn setup_pass(traced: bool, tracer: &mut Tracer, tally: &mut Tally) -> Pass {
    let t = Instant::now();
    let progs: Vec<Prog> = dyc_workloads::all()
        .into_iter()
        .filter_map(|w| setup_prog(w, tracer, tally))
        .collect();
    let secs = t.elapsed().as_secs_f64();
    let mut pass = Pass {
        progs,
        secs,
        pipeline: Vec::new(),
        lowered: (0, 0, 0),
    };
    if traced {
        for p in &pass.progs {
            let r = traced_pipeline(&p.w.source(), tracer);
            if tally.check(r.is_ok(), || format!("{}: pipeline failed", p.key)) {
                pass.pipeline.extend(r.ok());
            }
            let (n, f, b) = traced_native_lower(&p.vm, tracer);
            pass.lowered = (pass.lowered.0 + n, pass.lowered.1 + f, pass.lowered.2 + b);
        }
    }
    pass
}

/// Geomeans over programs of the Table 2 speedup `s/d`, the Table 3
/// overhead cycles and the instructions generated.
pub fn model_figures(models: &[Model]) -> [Option<f64>; 3] {
    let col = |f: fn(&Model) -> f64| geomean(&models.iter().map(f).collect::<Vec<_>>());
    [
        col(|m| m.static_cycles as f64 / m.dyn_cycles as f64),
        col(|m| m.rt.overhead as f64),
        col(|m| m.rt.instrs as f64),
    ]
}

/// The timed phase's state: the sessions being timed and what the
/// rounds have measured so far.
struct Timed {
    traced: bool,
    tracer: Tracer,
    progs: Vec<Prog>,
    /// The first set-up pass's cycle model; every later pass must match.
    models: Vec<Model>,
    setup_s: Vec<f64>,
    passes: usize,
    round: usize,
    /// Round times with spans off and on (a traced run records spans on
    /// every other round, so the difference is the tracing overhead).
    round_ns: [Vec<f64>; 2],
}

impl Timed {
    /// Whether another round is due before `deadline`.
    fn more(&self, deadline: Instant) -> bool {
        !self.progs.is_empty() && (self.round < MIN_ROUNDS || Instant::now() < deadline)
    }

    /// One round, then a new set-up pass when a block ends.
    fn round(&mut self, tally: &mut Tally) {
        let on = self.traced && self.round % 2 == 1;
        let tracer = &mut self.tracer;
        tracer.set_on(on);
        let t = Instant::now();
        for p in &mut self.progs {
            let w = p.w.as_ref();
            let mut timed = |span, sess: &mut Session, args: &[Value]| {
                invoke_checked(w, tracer, span, sess, args, tally).map(|(ns, _, _)| ns)
            };
            let stat = timed("vm.static_region", &mut p.stat, &p.stat_args);
            let vm = timed("vm.region", &mut p.vm, &p.vm_args);
            let nat = timed("native.region", &mut p.nat, &p.nat_args);
            let s = &mut p.samples;
            s.static_ns.extend(stat);
            s.vm_ns.extend(vm);
            s.nat_ns.extend(nat);
            if let Some(st) = stat {
                s.vm_x.extend(vm.map(|v| st / v));
                s.nat_x.extend(nat.map(|v| st / v));
            }
            p.last_static = stat;
        }
        self.round_ns[usize::from(on)].push(t.elapsed().as_nanos() as f64);

        // First-invocation sample from a fresh session.
        let n = self.progs.len();
        let p = &mut self.progs[self.round % n];
        let w = p.w.as_ref();
        let mut fresh = tracer.span("core.session", |_| p.program.dynamic_session());
        let args = w.setup_region(&mut fresh);
        let (first, t1) = timed_run(tracer, "rt.specialize", &mut fresh, p.region, &args);
        let ok = matches!(first, Ok((v, _)) if w.check_region(v, &mut fresh));
        if tally.check(ok, || format!("{}: fresh first invocation failed", p.key)) {
            if let Some((t2, _, _)) =
                invoke_checked(w, tracer, "vm.region", &mut fresh, &args, tally)
            {
                p.samples.spec_ns.push(t1 - t2);
                p.samples
                    .spec_x
                    .extend(p.last_static.map(|st| (t1 - t2) / st));
            }
        }
        self.round += 1;

        if self.round.is_multiple_of(BLOCK_ROUNDS) {
            self.tracer.set_on(self.traced);
            let pass = setup_pass(self.traced, &mut self.tracer, tally);
            self.setup_s.push(pass.secs);
            self.passes += 1;
            let again: Vec<Model> = pass.progs.iter().map(|p| p.model).collect();
            let same = tally.check(again == self.models, || {
                "the cycle model differs between set-up passes".to_string()
            });
            // The next block times the new pass's sessions, so the run
            // samples many heap layouts instead of one.
            if same {
                let mut next = pass.progs;
                for (old, new) in self.progs.iter_mut().zip(&mut next) {
                    new.samples = std::mem::take(&mut old.samples);
                }
                self.progs = next;
            }
        }
    }
}

/// Run `paper_suite` for `seconds`, filling `metrics` (end-to-end, or
/// per-layer when `traced`). `seed` seeds only the serving stream of the
/// untraced run; the programs' inputs are fixed.
pub fn run(
    seed: u64,
    seconds: f64,
    traced: bool,
    trace_out: Option<&std::path::Path>,
    metrics: &mut Metrics,
    tally: &mut Tally,
) {
    let epoch = Instant::now();
    let mut tracer = Tracer::new(traced, epoch, 0);

    // A set-up pass runs before the first block and after every block;
    // each block times the sessions of the pass before it.
    let first = setup_pass(traced, &mut tracer, tally);
    let (pipeline, lowered) = (first.pipeline, first.lowered);
    let mut st = Timed {
        traced,
        tracer,
        models: first.progs.iter().map(|p| p.model).collect(),
        progs: first.progs,
        setup_s: vec![first.secs],
        passes: 1,
        round: 0,
        round_ns: [Vec::new(), Vec::new()],
    };

    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    if !traced {
        crate::serve::beside(seed, seconds, metrics, tally, &mut |tally| {
            let until = (Instant::now() + SLICE).min(deadline);
            while !st.progs.is_empty() && Instant::now() < until {
                st.round(tally);
            }
        });
    }
    while st.more(deadline) {
        st.round(tally);
    }
    let Timed {
        mut tracer,
        progs,
        models,
        setup_s,
        passes,
        round_ns,
        ..
    } = st;
    tracer.set_on(false);

    let all_ok = progs.len() == dyc_workloads::all().len();
    // Geomean over the programs of each one's median sample, and the
    // number of samples behind it.
    let geo_med = |f: fn(&Samples) -> &[f64]| {
        let n = progs
            .iter()
            .map(|p| f(&p.samples).len() as u64)
            .sum::<u64>();
        let meds: Vec<f64> = progs.iter().map(|p| med(f(&p.samples))).collect();
        (all_ok.then(|| geomean(&meds)).flatten(), n)
    };
    let native_installs: u64 = progs
        .iter()
        .map(|p| p.nat.rt_stats().map_or(0, |s| s.native_installs))
        .sum();
    // Without native installs the "native" sessions ran on the VM: report
    // the native figure as failed rather than a VM number.
    let native_ok = |x: Option<f64>| x.filter(|_| native_installs > 0);

    if !traced {
        if native_installs == 0 {
            tally.check(false, || "no native installs on this host".to_string());
        }
        metrics.set("setup_s", median(&setup_s), setup_s.len() as u64);
        let (vm, n) = geo_med(|s| &s.vm_x);
        metrics.set("speedup_vm", vm, n);
        let (native, n) = geo_med(|s| &s.nat_x);
        metrics.set("speedup_native", native_ok(native), n);
        let (spec, n) = geo_med(|s| &s.spec_x);
        metrics.set("spec_cost_calls", spec, n);
        let n_models = models.len() as u64;
        let [speedup, overhead, gen] = model_figures(&models).map(|x| x.filter(|_| all_ok));
        metrics.set("model_speedup", speedup, n_models);
        metrics.set("model_overhead_cycles", overhead, n_models);
        metrics.set("gen_instrs", gen, n_models);
        return;
    }

    let (vm, n) = geo_med(|s| &s.vm_ns);
    metrics.set("region_ns_vm", vm, n);
    let (native, n) = geo_med(|s| &s.nat_ns);
    metrics.set("region_ns_native", native_ok(native), n);
    let (spec, n) = geo_med(|s| &s.spec_ns);
    metrics.set("spec_us", spec.map(|ns| ns / 1e3), n);

    // Per-layer metrics from the spans and the programs' own counters.
    let spans = tracer.spans();
    let layers = self_times(spans);
    set_pipeline_metrics(metrics, &layers, &pipeline, passes as f64);
    let (native_ns, native_n) = layers
        .get("native.lower")
        .map_or((0.0, 0), |l| (l.self_ns as f64 / passes as f64, l.count));
    metrics.set("native.lower_ns", Some(native_ns), native_n);

    let spec = |f: fn(&SpecCounts) -> u64| models.iter().map(|m| f(&m.rt)).sum::<u64>();
    let specs = spec(|c| c.specializations);
    let per_spec = |f: fn(&SpecCounts) -> u64| Some(spec(f) as f64 / specs.max(1) as f64);
    let spec_total: f64 = progs.iter().map(|p| med(&p.samples.spec_ns)).sum();
    let (_, spec_n) = geo_med(|s| &s.spec_ns);
    metrics.set("rt.spec_ns", Some(spec_total / specs.max(1) as f64), spec_n);
    metrics.set("rt.ge_exec_cycles", per_spec(|c| c.ge_exec), specs);
    metrics.set("rt.emit_cycles", per_spec(|c| c.emit), specs);
    metrics.set(
        "rt.template_copy_cycles",
        per_spec(|c| c.template_copy),
        specs,
    );
    metrics.set("rt.hole_patch_cycles", per_spec(|c| c.hole_patch), specs);
    metrics.set("rt.dae_removed", per_spec(|c| c.dae_removed), specs);
    metrics.set(
        "rt.specializations",
        Some(specs as f64),
        models.len() as u64,
    );

    // Dispatch and cache counters of the warm VM sessions.
    let (mut dispatches, mut misses, mut hashed, mut probes, mut allocs, mut evictions) =
        (0, 0, 0, 0, 0, 0);
    let mut published = 0u64;
    for p in &progs {
        let s = p.vm.stats();
        dispatches += s.dispatches;
        misses += s.dispatch_misses;
        let rt =
            p.vm.rt_stats()
                .expect("a dynamic session has run-time stats");
        hashed += rt.dispatch_hashed;
        probes += rt.dispatch_probes;
        allocs += rt.dispatch_allocs;
        evictions += rt.cache_evictions;
        published += p.vm.cached_code().len() as u64;
    }
    metrics.set(
        "rt.hit_rate",
        Some((dispatches - misses) as f64 / dispatches.max(1) as f64),
        dispatches,
    );
    metrics.set(
        "rt.probes_per_lookup",
        Some(probes as f64 / hashed.max(1) as f64),
        hashed,
    );
    metrics.set("rt.dispatch_allocs", Some(allocs as f64), dispatches);
    metrics.set(
        "rt.dup_spec_ratio",
        Some(specs as f64 / published.max(1) as f64),
        published,
    );
    metrics.set("rt.evictions", Some(evictions as f64), dispatches);
    metrics.set("rt.published", Some(published as f64), published);

    let n_progs = progs.len() as u64;
    metrics.set("native.installs", Some(native_installs as f64), n_progs);
    let nat_fallbacks: u64 = progs
        .iter()
        .map(|p| p.nat.rt_stats().map_or(0, |s| s.native_fallbacks))
        .sum();
    metrics.set("native.fallbacks", Some(nat_fallbacks as f64), n_progs);
    metrics.set(
        "native.code_bytes",
        Some(lowered.2 as f64),
        lowered.0 + lowered.1,
    );

    let (static_ns, n_static) = geo_med(|s| &s.static_ns);
    metrics.set("vm.static_region_ns", static_ns, n_static);
    let warm =
        |f: fn(&WarmCounts) -> u64| Some(models.iter().map(|m| f(&m.warm)).sum::<u64>() as f64);
    let nm = models.len() as u64;
    metrics.set("vm.instrs_executed", warm(|c| c.instrs), nm);
    metrics.set("vm.exec_cycles", warm(|c| c.exec_cycles), nm);
    metrics.set("vm.icache_miss_cycles", warm(|c| c.icache_cycles), nm);

    overhead_metrics(metrics, &round_ns, &tracer);
    for p in &progs {
        let k = &p.key;
        for (name, xs, scale) in [
            ("region_ns_vm", &p.samples.vm_ns, 1.0),
            ("region_ns_native", &p.samples.nat_ns, 1.0),
            ("spec_us", &p.samples.spec_ns, 1e3),
        ] {
            metrics.set(
                format!("{name}.{k}"),
                Some(med(xs) / scale),
                xs.len() as u64,
            );
        }
    }
    crate::print_layers(&layers);
    if let Some(path) = trace_out {
        crate::write_trace(path, spans, tally);
    }
}

/// The static-pipeline metrics: each layer's self time per pass (over
/// `passes` passes) and the summed instruction and GE counts.
pub fn set_pipeline_metrics(
    metrics: &mut Metrics,
    layers: &BTreeMap<&'static str, LayerTime>,
    counts: &[PipelineCounts],
    passes: f64,
) {
    for (metric, span) in [
        ("lang.parse_ns", "lang.parse"),
        ("ir.lower_ns", "ir.lower"),
        ("ir.opt_ns", "ir.opt"),
        ("ir.codegen_ns", "ir.codegen"),
        ("bta.analyze_ns", "bta.analyze"),
        ("stage.stage_ns", "stage.stage"),
    ] {
        let (v, c) = layers
            .get(span)
            .map_or((0.0, 0), |l| (l.self_ns as f64 / passes, l.count));
        metrics.set(metric, Some(v), c);
    }
    let sum = |f: fn(&PipelineCounts) -> u64| Some(counts.iter().map(f).sum::<u64>() as f64);
    let n = counts.len() as u64;
    metrics.set("ir.insts_lowered", sum(|c| c.lowered), n);
    metrics.set("ir.insts_optimized", sum(|c| c.optimized), n);
    metrics.set("stage.ge_ops", sum(|c| c.ge_ops), n);
    metrics.set("stage.template_instrs", sum(|c| c.template_instrs), n);
}

/// `obs.trace_overhead_pct` (median traced against median untraced
/// round or window) and `obs.events_dropped`.
pub fn overhead_metrics(metrics: &mut Metrics, ns: &[Vec<f64>; 2], tracer: &Tracer) {
    let pct = match (median(&ns[0]), median(&ns[1])) {
        (Some(off), Some(on)) if off > 0.0 => Some((on / off - 1.0) * 100.0),
        _ => None,
    };
    metrics.set(
        "obs.trace_overhead_pct",
        pct,
        (ns[0].len() + ns[1].len()) as u64,
    );
    metrics.set(
        "obs.events_dropped",
        Some(tracer.dropped() as f64),
        tracer.spans().len() as u64 + tracer.dropped(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_model_figures_repeat_bit_for_bit() {
        let figures = || {
            let mut tally = Tally::default();
            let mut tracer = Tracer::new(false, Instant::now(), 0);
            let pass = setup_pass(false, &mut tracer, &mut tally);
            assert_eq!(tally.failed, 0, "set-up failed: {tally:?}");
            assert_eq!(pass.progs.len(), dyc_workloads::all().len());
            let models: Vec<Model> = pass.progs.iter().map(|p| p.model).collect();
            model_figures(&models).map(|x| x.expect("model figure").to_bits())
        };
        assert_eq!(figures(), figures());
    }

    #[test]
    fn same_result_compares_floats_relatively() {
        assert!(same_result(
            Some(Value::F(1.0)),
            Some(Value::F(1.0 + 1e-12))
        ));
        assert!(!same_result(Some(Value::F(1.0)), Some(Value::F(1.1))));
        assert!(same_result(Some(Value::I(3)), Some(Value::I(3))));
        assert!(!same_result(None, Some(Value::I(3))));
    }
}
