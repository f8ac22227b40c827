//! One dispatch core, two cache backends: a single-session `Runtime` and
//! a `ThreadRuntime` over a shared runtime run the same dispatch ladder,
//! so a one-thread threaded session must be indistinguishable from a
//! dynamic session — results, cached code and every run-time meter —
//! with either specializer behind it.

use dyc::{CodeFunc, Compiler, OptConfig, PolicyMode, Program, RtStats, Session, Value};
use dyc_workloads::all;

/// A dynamic session and a one-thread threaded session of `program`.
fn both(program: &Program) -> [(&'static str, Session); 2] {
    let shared = program.shared_runtime();
    [
        ("single", program.dynamic_session()),
        ("threaded", program.threaded_session(&shared)),
    ]
}

/// Cached bindings in a comparable form: sorted by (site, key), code
/// compared by frame shape and instruction stream (the function name
/// embeds a module-local id).
fn normalize(mut entries: Vec<(u32, Vec<u64>, CodeFunc)>) -> Vec<(u32, Vec<u64>, String)> {
    entries.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
    entries
        .into_iter()
        .map(|(s, k, f)| (s, k, format!("{}/{} {:?}", f.n_params, f.n_regs, f.code)))
        .collect()
}

#[test]
fn out_of_range_indexed_keys_are_metered_by_key_range_in_both_sessions() {
    let program = Compiler::new()
        .compile("int f(int k, int d) { make_static(k: cache_indexed); return k + d; }")
        .unwrap();
    for (kind, mut sess) in both(&program) {
        for k in [3, 300, 3, 300, -5] {
            let out = sess.run("f", &[Value::I(k), Value::I(1)]).unwrap();
            assert_eq!(out, Some(Value::I(k + 1)), "{kind}");
        }
        let rt = sess.rt_stats().unwrap();
        // k = 3 twice through the array, 300, 300 and -5 hashed through
        // the overflow table: 2 × 14 + 3 × 78 cycles.
        assert_eq!(
            (rt.dispatch_indexed, rt.dispatch_hashed),
            (2, 3),
            "{kind}: dispatches per lane"
        );
        assert_eq!(sess.stats().dispatch_cycles, 262, "{kind}: dispatch cycles");
    }
}

#[test]
fn generic_continuations_charge_no_compile_cycles() {
    let mut cfg = OptConfig::all();
    cfg.policy = PolicyMode::Adaptive;
    let program = Compiler::with_config(cfg)
        .compile(
            "int pow(int b, int e) { make_static(e);
             int r = 1; while (e > 0) { r = r * b; e = e - 1; } return r; }",
        )
        .unwrap();
    for (kind, mut sess) in both(&program) {
        // Below the cold-start threshold: the first dispatch defers and
        // runs the generic continuation, charged like static code.
        let out = sess.run("pow", &[Value::I(3), Value::I(4)]).unwrap();
        assert_eq!(out, Some(Value::I(81)), "{kind}");
        let rt = sess.rt_stats().unwrap();
        assert_eq!((rt.policy_defers, rt.specializations), (1, 0), "{kind}");
        assert_eq!(rt.dyncomp_cycles, 0, "{kind}: session meter");
        assert_eq!(sess.stats().dyncomp_cycles, 0, "{kind}: VM meter");
    }
}

/// Both specializers: the staged GE executor (the default) and the
/// online specializer, which threaded sessions run too.
fn specializer_configs() -> [(&'static str, OptConfig); 2] {
    let mut online = OptConfig::all();
    online.staged_ge = false;
    [("staged", OptConfig::all()), ("online", online)]
}

#[test]
fn a_one_thread_threaded_session_matches_a_dynamic_session_on_every_workload() {
    for (spec, cfg) in specializer_configs() {
        for w in all() {
            let name = format!("{} ({spec})", w.meta().name);
            let program = Compiler::with_config(cfg)
                .compile(&w.source())
                .unwrap_or_else(|e| panic!("{name}: compile failed: {e}"));
            let runs: Vec<(Vec<Option<Value>>, _, RtStats)> = both(&program)
                .into_iter()
                .map(|(kind, mut sess)| {
                    let args = w.setup_region(&mut sess);
                    sess.set_step_limit(200_000_000);
                    let results = (0..2)
                        .map(|_| {
                            let r = sess
                                .run(w.meta().region_func, &args)
                                .unwrap_or_else(|e| panic!("{name} {kind}: {e}"));
                            assert!(w.check_region(r, &mut sess), "{name} {kind}");
                            w.reset(&mut sess, &args);
                            r
                        })
                        .collect();
                    let rt = sess.rt_stats().unwrap().clone();
                    (results, normalize(sess.cached_code()), rt)
                })
                .collect();
            let (single, threaded) = (&runs[0], &runs[1]);
            assert_eq!(single.0, threaded.0, "{name}: results");
            assert!(!single.1.is_empty(), "{name}: nothing cached");
            assert_eq!(single.1, threaded.1, "{name}: cached code");
            assert_eq!(single.2, threaded.2, "{name}: run-time meters");
        }
    }
}
