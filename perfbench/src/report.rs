//! The metric catalogue, the failure tally, and the result output: a
//! human-readable table followed by one JSON line.

use std::collections::BTreeMap;

/// End-to-end metrics, reported by every untraced run: `(name, unit)`.
/// `error_rate` is not among them: it is `failed / attempted` on the
/// result line, and is printed in the table.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("speedup_vm", "x"),
    ("speedup_native", "x"),
    ("spec_cost_calls", "calls"),
    ("model_speedup", "x"),
    ("model_overhead_cycles", "cycles"),
    ("gen_instrs", "count"),
    ("serve_speedup", "x"),
    ("dispatch_p50_ratio", "x"),
    ("dispatch_p99_ratio", "x"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every traced run: `(name, unit)`. A
/// layer the workload does not run reports 0 with 0 samples.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lang.parse_ns", "ns"),
    ("ir.lower_ns", "ns"),
    ("ir.opt_ns", "ns"),
    ("ir.codegen_ns", "ns"),
    ("ir.insts_lowered", "count"),
    ("ir.insts_optimized", "count"),
    ("bta.analyze_ns", "ns"),
    ("stage.stage_ns", "ns"),
    ("stage.ge_ops", "count"),
    ("stage.template_instrs", "count"),
    ("rt.spec_ns", "ns"),
    ("rt.ge_exec_cycles", "cycles"),
    ("rt.emit_cycles", "cycles"),
    ("rt.template_copy_cycles", "cycles"),
    ("rt.hole_patch_cycles", "cycles"),
    ("rt.dae_removed", "count"),
    ("rt.specializations", "count"),
    ("rt.hit_ns", "ns"),
    ("rt.hit_rate", "ratio"),
    ("rt.probes_per_lookup", "probes"),
    ("rt.shard_imbalance", "ratio"),
    ("rt.dispatch_allocs", "count"),
    ("rt.flight_waits", "count"),
    ("rt.flight_races", "count"),
    ("rt.flight_fallbacks", "count"),
    ("rt.dup_spec_ratio", "ratio"),
    ("rt.evictions", "count"),
    ("rt.published", "count"),
    ("native.lower_ns", "ns"),
    ("native.installs", "count"),
    ("native.fallbacks", "count"),
    ("native.code_bytes", "bytes"),
    ("vm.static_region_ns", "ns"),
    ("vm.instrs_executed", "count"),
    ("vm.exec_cycles", "cycles"),
    ("vm.icache_miss_cycles", "cycles"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.events_dropped", "count"),
    ("region_ns_vm", "ns"),
    ("region_ns_native", "ns"),
    ("spec_us", "us"),
    ("throughput_per_s", "1/s"),
    ("dispatch_p50_ns", "ns"),
    ("dispatch_p99_ns", "ns"),
];

/// Per-program rows of the traced `paper_suite` run: `(prefix, unit)`,
/// each followed by `.<program>`.
pub const PER_PROGRAM: &[(&str, &str)] = &[
    ("region_ns_vm", "ns"),
    ("region_ns_native", "ns"),
    ("spec_us", "us"),
];

/// A workload's metric name for a program name (`:` is not allowed).
pub fn program_key(name: &str) -> String {
    name.replace(':', "_")
}

/// Operations attempted and failed, with the first few failure notes.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted (compiles, invocations, dispatches, checks).
    pub attempted: u64,
    /// Operations whose result differed from the oracle, or that failed.
    pub failed: u64,
    notes: Vec<String>,
}

impl Tally {
    /// Count one attempted operation that succeeded when `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
        ok
    }

    /// Count a failure of an operation already counted as attempted.
    pub fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 10 {
            self.notes.push(note);
        }
    }

    /// Fold another tally in.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for n in other.notes {
            if self.notes.len() < 10 {
                self.notes.push(n);
            }
        }
    }
}

/// A measured value and how many samples it summarizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    /// The value; `None` when it could not be measured (a failure).
    pub value: Option<f64>,
    /// Samples behind the value.
    pub samples: u64,
}

/// Metric values collected by one workload run, by name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, Value>);

impl Metrics {
    /// Set `name` to `value` summarizing `samples` samples.
    pub fn set(&mut self, name: impl Into<String>, value: Option<f64>, samples: u64) {
        self.0.insert(name.into(), Value { value, samples });
    }
}

/// Print the table and the result line. End-to-end metrics that could
/// not be measured count as failures; per-layer metrics a workload does
/// not exercise print as 0 with no samples.
pub fn emit(workload: &str, traced: bool, metrics: &Metrics, mut tally: Tally) {
    let mut rows: Vec<(String, &str, Value)> = Vec::new();
    if traced {
        let programs: Vec<String> = dyc_workloads::all()
            .iter()
            .map(|w| program_key(w.meta().name))
            .collect();
        let per_program = PER_PROGRAM
            .iter()
            .flat_map(|(p, u)| programs.iter().map(move |g| (format!("{p}.{g}"), *u)));
        for (name, unit) in PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .chain(per_program)
        {
            let v = metrics.0.get(&name).copied().unwrap_or(Value {
                value: Some(0.0),
                samples: 0,
            });
            rows.push((name, unit, v));
        }
    } else {
        for (name, unit) in END_TO_END {
            let v = metrics.0.get(*name).copied().unwrap_or(Value {
                value: None,
                samples: 0,
            });
            if v.value.is_none() {
                tally.fail(format!("{name} could not be measured"));
            }
            rows.push((name.to_string(), unit, v));
        }
    }
    let mode = if traced {
        "per-layer (traced)"
    } else {
        "end-to-end"
    };
    println!("workload {workload}: {mode} metrics");
    println!(
        "  {:<34} {:>18} {:<7} {:>10}",
        "metric", "value", "unit", "samples"
    );
    for (name, unit, v) in &rows {
        let shown = v.value.map_or("failed".to_string(), |x| format!("{x:.4}"));
        println!("  {name:<34} {shown:>18} {unit:<7} {:>10}", v.samples);
    }
    let error_rate = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!(
        "  {:<34} {:>18.6} {:<7} {:>10}",
        "error_rate", error_rate, "ratio", tally.attempted
    );
    for n in &tally.notes {
        println!("  failure: {n}");
    }
    let body: Vec<String> = rows
        .iter()
        .map(|(name, unit, v)| {
            let value = v.value.map_or("null".to_string(), json_number);
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    );
}

/// A finite float as a JSON number with all its digits (`null` if not
/// finite).
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), if the
/// platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
