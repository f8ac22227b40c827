//! Tracing is free of observer effects: enabling the per-thread event
//! recorder must not change results, printed output, cached code bytes,
//! or a single [`dyc::RtStats`] counter — and the warm dispatch path
//! must stay allocation-free while recording.

use dyc::obs::{Category, EventKind};
use dyc::{CodeFunc, Compiler, OptConfig, Value};
use dyc_workloads::all;

fn traced_config() -> OptConfig {
    let mut cfg = OptConfig::all();
    cfg.trace = true;
    cfg
}

/// Strip module-local naming/address detail so code bodies compare
/// byte-for-byte across sessions.
fn normalize(mut entries: Vec<(u32, Vec<u64>, CodeFunc)>) -> Vec<(u32, Vec<u64>, String)> {
    entries.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
    entries
        .into_iter()
        .map(|(s, k, f)| {
            (
                s,
                k,
                format!("params={} regs={} code={:?}", f.n_params, f.n_regs, f.code),
            )
        })
        .collect()
}

#[test]
fn tracing_changes_nothing_observable_on_all_workloads() {
    for w in all() {
        let meta = w.meta();
        let src = w.source();
        let plain = Compiler::new().compile(&src).unwrap();
        let traced = Compiler::with_config(traced_config())
            .compile(&src)
            .unwrap();

        let mut off = plain.dynamic_session();
        let mut on = traced.dynamic_session();
        let (args_off, args_on) = (w.setup_region(&mut off), w.setup_region(&mut on));
        assert_eq!(args_off, args_on, "{}: deterministic setup", meta.name);
        off.set_step_limit(200_000_000);
        on.set_step_limit(200_000_000);

        for rep in 0..4 {
            let a = off.run(meta.region_func, &args_off).unwrap();
            let b = on.run(meta.region_func, &args_on).unwrap();
            assert_eq!(a, b, "{} rep {rep}: traced result diverged", meta.name);
            w.reset(&mut off, &args_off);
            w.reset(&mut on, &args_on);
        }

        assert_eq!(off.take_output(), on.take_output(), "{}: output", meta.name);
        assert_eq!(
            off.rt_stats(),
            on.rt_stats(),
            "{}: tracing perturbed RtStats",
            meta.name
        );
        assert_eq!(
            normalize(off.cached_code()),
            normalize(on.cached_code()),
            "{}: tracing changed emitted code bytes",
            meta.name
        );
        assert!(
            off.trace_events().is_empty(),
            "{}: untraced session recorded events",
            meta.name
        );
        assert!(
            !on.trace_events().is_empty(),
            "{}: traced session recorded nothing",
            meta.name
        );
    }
}

/// The same observer-effect identity with the native x86-64 backend
/// switched on: the recorder must not perturb results, output, the
/// native install/fallback meters, or the cached (VM) code bytes — and
/// every native install/fallback must show up as an event.
#[test]
fn tracing_changes_nothing_observable_with_native_backend() {
    let native_cfg = OptConfig {
        native: true,
        ..OptConfig::all()
    };
    let native_traced_cfg = OptConfig {
        trace: true,
        ..native_cfg
    };
    for w in all() {
        let meta = w.meta();
        let src = w.source();
        let plain = Compiler::with_config(native_cfg).compile(&src).unwrap();
        let traced = Compiler::with_config(native_traced_cfg)
            .compile(&src)
            .unwrap();

        let mut off = plain.dynamic_session();
        let mut on = traced.dynamic_session();
        let (args_off, args_on) = (w.setup_region(&mut off), w.setup_region(&mut on));
        off.set_step_limit(200_000_000);
        on.set_step_limit(200_000_000);

        for rep in 0..4 {
            let a = off.run(meta.region_func, &args_off).unwrap();
            let b = on.run(meta.region_func, &args_on).unwrap();
            assert_eq!(
                a, b,
                "{} rep {rep}: traced native result diverged",
                meta.name
            );
            w.reset(&mut off, &args_off);
            w.reset(&mut on, &args_on);
        }

        assert_eq!(off.take_output(), on.take_output(), "{}: output", meta.name);
        assert_eq!(
            off.rt_stats(),
            on.rt_stats(),
            "{}: tracing perturbed RtStats under the native backend",
            meta.name
        );
        assert_eq!(
            normalize(off.cached_code()),
            normalize(on.cached_code()),
            "{}: tracing changed emitted code bytes under the native backend",
            meta.name
        );

        // Every lowering attempt is an event: installs and fallbacks in
        // the meters must match the recorded event stream one for one.
        let rt = on.rt_stats().expect("dynamic session");
        let events = on.trace_events();
        let count = |k: EventKind| events.iter().filter(|e| e.kind == k).count() as u64;
        assert_eq!(
            count(EventKind::NativeInstall),
            rt.native_installs,
            "{}: install events out of step with the meter",
            meta.name
        );
        assert_eq!(
            count(EventKind::NativeFallback),
            rt.native_fallbacks,
            "{}: fallback events out of step with the meter",
            meta.name
        );
        assert!(
            rt.native_installs + rt.native_fallbacks > 0,
            "{}: native config never attempted a lowering",
            meta.name
        );
        // Install events carry the published code size.
        assert!(
            events
                .iter()
                .filter(|e| e.kind == EventKind::NativeInstall)
                .all(|e| e.a > 0),
            "{}: a native install published zero bytes",
            meta.name
        );
    }
}

#[test]
fn traced_session_records_the_staged_pipeline() {
    const SRC: &str = r#"
        int power(int base, int exp) {
            make_static(exp);
            int r = 1;
            while (exp > 0) { r = r * base; exp = exp - 1; }
            return r;
        }
    "#;
    let p = Compiler::with_config(traced_config()).compile(SRC).unwrap();
    let mut d = p.dynamic_session();
    d.run("power", &[Value::I(3), Value::I(4)]).unwrap();
    d.run("power", &[Value::I(5), Value::I(4)]).unwrap(); // hit
    d.run("power", &[Value::I(5), Value::I(6)]).unwrap(); // miss

    let events = d.trace_events();
    let count = |k: EventKind| events.iter().filter(|e| e.kind == k).count();
    assert_eq!(count(EventKind::DispatchMiss), 2);
    assert_eq!(count(EventKind::GeExecBegin), 2);
    assert_eq!(count(EventKind::GeExecEnd), 2);
    assert!(count(EventKind::DispatchHit) + count(EventKind::DispatchUnchecked) >= 1);

    // Begin/end pair up and carry the dyncomp cycles actually charged.
    let spent: u64 = events
        .iter()
        .filter(|e| e.kind == EventKind::GeExecEnd)
        .map(|e| e.a)
        .sum();
    assert_eq!(spent, d.rt_stats().unwrap().dyncomp_cycles);

    // Per-site aggregation sees the same story.
    let profiles = dyc::obs::site_profiles(&events);
    assert_eq!(profiles.len(), 1);
    let prof = &profiles[0];
    assert_eq!(prof.specializations, 2);
    assert_eq!(prof.misses, 2);
    assert!(prof.break_even(10.0).is_some());
}

#[test]
fn warm_traced_dispatch_does_not_allocate() {
    const SRC: &str = r#"
        int scale(int x, int k) {
            make_static(k);
            return x * k;
        }
    "#;
    let p = Compiler::with_config(traced_config()).compile(SRC).unwrap();
    let mut d = p.dynamic_session();
    for x in 0..4 {
        d.run("scale", &[Value::I(x), Value::I(9)]).unwrap();
    }
    let before = d.rt_stats().unwrap().clone();
    let events_before = d.trace_events().len();
    for x in 0..64 {
        d.run("scale", &[Value::I(x), Value::I(9)]).unwrap();
    }
    let warm = d.rt_stats().unwrap().delta(&before);
    assert_eq!(warm.dispatch_allocs, 0, "traced warm dispatch allocated");
    assert_eq!(warm.specializations, 0, "warm phase must be all hits");
    // Recording kept happening the whole time, into the fixed ring.
    assert!(d.trace_events().len() > events_before);
    assert!(d
        .trace_events()
        .iter()
        .any(|e| e.kind.category() == Category::Dispatch));
}

/// Every event recorded inside a specialization — template copies, hole
/// patches, internal promotions — carries the (site, key hash) of the
/// `ge-exec` span it happened in, as does the span's end. `dycstat`
/// attributes inner events to a (site, key) by these tags.
#[test]
fn inner_events_carry_their_span_key_on_all_workloads() {
    let mut inner = 0;
    for w in all() {
        let meta = w.meta();
        let p = Compiler::with_config(traced_config())
            .compile(&w.source())
            .unwrap();
        let mut s = p.dynamic_session();
        let args = w.setup_region(&mut s);
        s.set_step_limit(200_000_000);
        s.run(meta.region_func, &args).unwrap();

        let mut open: Vec<(u32, u64)> = Vec::new();
        for e in s.trace_events() {
            match e.kind {
                EventKind::GeExecBegin => open.push((e.site, e.key)),
                EventKind::GeExecEnd => {
                    let span = open.pop().expect("end without begin");
                    assert_eq!(span, (e.site, e.key), "{}: span end", meta.name);
                }
                EventKind::TemplateCopy | EventKind::HolePatch | EventKind::Promotion => {
                    inner += 1;
                    let span = *open.last().expect("inner event outside a span");
                    assert_eq!(
                        span,
                        (e.site, e.key),
                        "{}: {} event tagged with another (site, key)",
                        meta.name,
                        e.kind.name()
                    );
                }
                _ => {}
            }
        }
        assert!(open.is_empty(), "{}: unclosed span", meta.name);
    }
    assert!(inner > 0, "no events inside a span");
}

/// The flight recorder captures what happens inside a specialization,
/// not just the dispatch ladder around it: a threaded mipsi run with an
/// armed recorder and tracing off holds promotions and template copies.
#[test]
fn flight_recorder_captures_events_inside_specializations() {
    let w = dyc_workloads::by_name("mipsi").unwrap();
    let meta = w.meta();
    let p = Compiler::new().compile(&w.source()).unwrap();
    let shared = p.shared_runtime();
    let handles = dyc::obs::LiveHandles::with_flight(4096);
    shared.attach_live(handles.clone());
    let mut s = p.threaded_session(&shared);
    let args = w.setup_region(&mut s);
    s.set_step_limit(200_000_000);
    s.run(meta.region_func, &args).unwrap();

    assert!(s.trace_events().is_empty(), "tracing is off");
    let captured = handles.flight.as_ref().unwrap().capture();
    for kind in [EventKind::Promotion, EventKind::TemplateCopy] {
        assert!(
            captured.iter().any(|e| e.kind == kind),
            "flight capture holds no {} event",
            kind.name()
        );
    }
}
