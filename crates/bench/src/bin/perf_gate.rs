//! `perf_gate` — CI regression gate over the deterministic cycle model.
//!
//! The cycle model (dispatch cost, dynamic-compile overhead, template
//! copy/patch split) is exactly reproducible run-to-run, so it can be
//! gated hard in CI without flakiness; wall-clock numbers are machine-
//! dependent and are reported but never gated.
//!
//! ```text
//! # distill a checked-in baseline from a full bench_smoke report
//! perf_gate distill BENCH_dyncompile.json --out BENCH_baseline.json
//!
//! # compare a fresh report against the baseline (exit 1 on any move)
//! perf_gate check BENCH_baseline.json fresh.json --tolerance 0
//! ```
//!
//! `distill` extracts the gateable cycle metrics — per-workload
//! `staged_overhead_cycles` / `unfused_overhead_cycles` /
//! `online_overhead_cycles` / `template_copy_cycles` /
//! `hole_patch_cycles` and per-site `dispatch_cycles` /
//! `dyncomp_cycles` — into a flat `cycle_model` table keyed
//! `workload` / `workload/siteN`, plus a report-only `wall_clock`
//! section. `check` accepts either a distilled baseline or a full
//! report on both sides (full reports are distilled on the fly) and
//! fails if any gated metric moves more than `baseline * tolerance`
//! away from the baseline in either direction (the default tolerance is
//! 0: the model is deterministic, so any move is a change to explain),
//! or if a baseline metric disappeared from the current report. An
//! improvement fails too, so the baseline never goes stale: regenerate
//! `BENCH_dyncompile.json` and re-run `perf_gate distill`.

use dyc_obs::Json;
use std::fmt::Write as _;
use std::process::ExitCode;

/// Cycle metrics gated per workload row.
const WORKLOAD_METRICS: [&str; 5] = [
    "staged_overhead_cycles",
    "unfused_overhead_cycles",
    "online_overhead_cycles",
    "template_copy_cycles",
    "hole_patch_cycles",
];

/// Cycle metrics gated per `workload/siteN` row.
const SITE_METRICS: [&str; 2] = ["dispatch_cycles", "dyncomp_cycles"];

/// Wall-clock metrics carried for the report-only section.
const WALL_METRICS: [&str; 2] = ["vm_ns", "native_ns"];

/// One gated row: a name and its `(metric, value)` pairs.
type Row = (String, Vec<(String, f64)>);

/// Pull the gateable rows out of a full `bench_smoke` report, or pass
/// a distilled file through unchanged (idempotent).
fn distill(doc: &Json) -> Result<(Vec<Row>, Vec<Row>), String> {
    if doc.get("cycle_model").is_some() {
        return Ok((
            rows_of(doc.get("cycle_model"), None)?,
            rows_of(doc.get("wall_clock"), Some(&WALL_METRICS))?,
        ));
    }
    let mut cycle: Vec<Row> = Vec::new();
    for (wl, v) in obj(doc.get("workloads"), "workloads")? {
        cycle.push((wl.clone(), pick(v, &WORKLOAD_METRICS)));
    }
    for (wl, sites) in obj(doc.get("per_site"), "per_site")? {
        for (site, v) in obj(Some(sites), "per_site entry")? {
            cycle.push((format!("{wl}/{site}"), pick(v, &SITE_METRICS)));
        }
    }
    let wall = match doc.get("wall_clock") {
        Some(w) => obj(Some(w), "wall_clock")?
            .iter()
            .map(|(wl, v)| (wl.clone(), pick(v, &WALL_METRICS)))
            .collect(),
        None => Vec::new(),
    };
    Ok((cycle, wall))
}

/// Iterate an object's members, with a decent error when absent.
fn obj<'a>(v: Option<&'a Json>, what: &str) -> Result<&'a [(String, Json)], String> {
    match v {
        Some(Json::Obj(m)) => Ok(m),
        _ => Err(format!("input has no `{what}` object")),
    }
}

/// The named numeric members of `v`, in table order, skipping absent ones.
fn pick(v: &Json, metrics: &[&str]) -> Vec<(String, f64)> {
    metrics
        .iter()
        .filter_map(|m| Some(((*m).to_string(), v.get(m)?.num()?)))
        .collect()
}

/// Read a distilled section back into rows; `only` restricts metrics.
fn rows_of(section: Option<&Json>, only: Option<&[&str]>) -> Result<Vec<Row>, String> {
    let Some(section) = section else {
        return Ok(Vec::new());
    };
    let mut rows = Vec::new();
    for (name, v) in obj(Some(section), "section")? {
        let metrics = match v {
            Json::Obj(m) => m
                .iter()
                .filter(|(k, _)| only.is_none_or(|o| o.contains(&k.as_str())))
                .filter_map(|(k, v)| Some((k.clone(), v.num()?)))
                .collect(),
            _ => return Err(format!("`{name}` is not an object")),
        };
        rows.push((name.clone(), metrics));
    }
    Ok(rows)
}

/// Render distilled rows as the baseline JSON document.
fn render(cycle: &[Row], wall: &[Row]) -> String {
    let mut out = String::from("{\n");
    for (si, (section, rows)) in [("cycle_model", cycle), ("wall_clock", wall)]
        .iter()
        .enumerate()
    {
        let _ = writeln!(out, "  {}: {{", dyc_obs::json::escape(section));
        for (ri, (name, metrics)) in rows.iter().enumerate() {
            let body: Vec<String> = metrics
                .iter()
                .map(|(k, v)| format!("{}: {v}", dyc_obs::json::escape(k)))
                .collect();
            let comma = if ri + 1 == rows.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "    {}: {{{}}}{comma}",
                dyc_obs::json::escape(name),
                body.join(", ")
            );
        }
        let comma = if si == 0 { "," } else { "" };
        let _ = writeln!(out, "  }}{comma}");
    }
    out.push_str("}\n");
    out
}

/// Compare current rows against the baseline. Returns the failure
/// lines (empty = gate passes) and prints the delta table.
fn gate(base: &[Row], cur: &[Row], tol: f64) -> Vec<String> {
    let mut failures = Vec::new();
    println!(
        "{:<28} {:<24} {:>12} {:>12} {:>8}",
        "row", "metric", "baseline", "current", "delta"
    );
    for (name, metrics) in base {
        let cur_row = cur.iter().find(|(n, _)| n == name).map(|(_, m)| m);
        for (metric, b) in metrics {
            let c = cur_row.and_then(|m| m.iter().find(|(k, _)| k == metric));
            match c {
                Some((_, c)) => {
                    let delta = if *b == 0.0 {
                        0.0
                    } else {
                        (c / b - 1.0) * 100.0
                    };
                    let moved = if *b == 0.0 {
                        *c != 0.0
                    } else {
                        (c - b).abs() > b.abs() * tol
                    };
                    let verdict = if moved {
                        let side = if c > b { "above" } else { "below" };
                        failures.push(format!(
                            "{name}.{metric}: {c} is {side} baseline {b} by more than {:.0}%; \
                             if the change is intended, regenerate BENCH_dyncompile.json and \
                             re-run `perf_gate distill BENCH_dyncompile.json --out \
                             BENCH_baseline.json`",
                            tol * 100.0
                        ));
                        "FAIL"
                    } else {
                        ""
                    };
                    println!("{name:<28} {metric:<24} {b:>12} {c:>12} {delta:>+7.1}% {verdict}");
                }
                None => failures.push(format!("{name}.{metric}: missing from current report")),
            }
        }
    }
    failures
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("parse {path}: {e}"))
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perf_gate distill <bench.json> [--out FILE]\n       \
         perf_gate check <baseline.json> <current.json> [--tolerance F]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("distill") => {
            let Some(path) = args.get(1) else {
                return usage();
            };
            let doc = match load(path) {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("perf_gate: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let (cycle, wall) = match distill(&doc) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("perf_gate: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let text = render(&cycle, &wall);
            let out = args
                .iter()
                .position(|a| a == "--out")
                .and_then(|i| args.get(i + 1));
            match out {
                Some(f) => {
                    if let Err(e) = std::fs::write(f, &text) {
                        eprintln!("perf_gate: write {f}: {e}");
                        return ExitCode::FAILURE;
                    }
                    println!(
                        "distilled {} cycle rows + {} wall rows -> {f}",
                        cycle.len(),
                        wall.len()
                    );
                }
                None => print!("{text}"),
            }
            ExitCode::SUCCESS
        }
        Some("check") => {
            let (Some(base_path), Some(cur_path)) = (args.get(1), args.get(2)) else {
                return usage();
            };
            let tol: f64 = args
                .iter()
                .position(|a| a == "--tolerance")
                .and_then(|i| args.get(i + 1))
                .map_or(0.0, |v| v.parse().expect("bad --tolerance"));
            let run = || -> Result<Vec<String>, String> {
                let (base_cycle, base_wall) = distill(&load(base_path)?)?;
                let (cur_cycle, cur_wall) = distill(&load(cur_path)?)?;
                let failures = gate(&base_cycle, &cur_cycle, tol);
                // Wall clock: machine-dependent, never gated.
                for (name, metrics) in &base_wall {
                    for (metric, b) in metrics {
                        if let Some((_, c)) = cur_wall
                            .iter()
                            .find(|(n, _)| n == name)
                            .and_then(|(_, m)| m.iter().find(|(k, _)| k == metric))
                        {
                            let delta = if *b == 0.0 {
                                0.0
                            } else {
                                (c / b - 1.0) * 100.0
                            };
                            println!(
                                "{name:<28} {metric:<24} {b:>12} {c:>12} {delta:>+7.1}% \
                                 (wall clock, report only)"
                            );
                        }
                    }
                }
                Ok(failures)
            };
            match run() {
                Ok(failures) if failures.is_empty() => {
                    println!("\nperf gate: PASS (tolerance {:.0}%)", tol * 100.0);
                    ExitCode::SUCCESS
                }
                Ok(failures) => {
                    eprintln!("\nperf gate: FAIL");
                    for f in &failures {
                        eprintln!("  {f}");
                    }
                    ExitCode::FAILURE
                }
                Err(e) => {
                    eprintln!("perf_gate: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
        "workloads": {
            "alpha": {"instrs_generated": 10, "staged_overhead_cycles": 100,
                      "unfused_overhead_cycles": 120, "online_overhead_cycles": 200,
                      "template_copy_cycles": 8, "hole_patch_cycles": 24}
        },
        "per_site": {"alpha": {"site0": {"dispatch_cycles": 90, "dyncomp_cycles": 650,
                                          "uses": 9}}},
        "wall_clock": {"alpha": {"vm_ns": 1000, "native_ns": 100, "native_speedup": 10.0}}
    }"#;

    #[test]
    fn distill_extracts_gated_rows_and_round_trips() {
        let (cycle, wall) = distill(&Json::parse(SAMPLE).unwrap()).unwrap();
        assert_eq!(cycle.len(), 2);
        assert_eq!(cycle[0].0, "alpha");
        assert_eq!(cycle[0].1.len(), 5, "all five workload cycle metrics");
        assert_eq!(cycle[1].0, "alpha/site0");
        assert_eq!(
            cycle[1].1,
            vec![
                ("dispatch_cycles".to_string(), 90.0),
                ("dyncomp_cycles".to_string(), 650.0)
            ]
        );
        assert_eq!(wall[0].1.len(), 2, "wall metrics only, speedup dropped");
        // A distilled document distills to itself.
        let text = render(&cycle, &wall);
        let (c2, w2) = distill(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(c2, cycle);
        assert_eq!(w2, wall);
    }

    #[test]
    fn gate_passes_within_tolerance_and_fails_beyond() {
        let (base, _) = distill(&Json::parse(SAMPLE).unwrap()).unwrap();
        let mut same = base.clone();
        assert!(gate(&base, &same, 0.10).is_empty(), "identical must pass");
        // +9% on one metric: inside a 10% tolerance.
        same[0].1[0].1 = 109.0;
        assert!(gate(&base, &same, 0.10).is_empty());
        // +11%: outside.
        same[0].1[0].1 = 111.0;
        let failures = gate(&base, &same, 0.10);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("alpha.staged_overhead_cycles"));
        // -9%: an improvement inside the tolerance passes.
        same[0].1[0].1 = 91.0;
        assert!(gate(&base, &same, 0.10).is_empty());
        // -11%: an improvement beyond it fails too, asking for a
        // re-baseline so the checked-in numbers never go stale.
        same[0].1[0].1 = 89.0;
        let failures = gate(&base, &same, 0.10);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("below baseline"));
        assert!(failures[0].contains("perf_gate distill"));
        // At tolerance 0 the gate is exact: any move fails, none passes.
        assert_eq!(gate(&base, &same, 0.0).len(), 1);
        assert!(gate(&base, &base, 0.0).is_empty());
    }

    #[test]
    fn gate_fails_on_a_vanished_row() {
        let (base, _) = distill(&Json::parse(SAMPLE).unwrap()).unwrap();
        let cur = vec![base[0].clone()];
        let failures = gate(&base, &cur, 0.10);
        assert_eq!(failures.len(), 2, "both site metrics reported missing");
        assert!(failures.iter().all(|f| f.contains("missing from current")));
    }

    #[test]
    fn checked_in_baseline_matches_the_checked_in_report() {
        // The repo's BENCH_baseline.json must stay the exact distillation
        // of BENCH_dyncompile.json — regenerate it when the bench
        // changes: `perf_gate distill BENCH_dyncompile.json --out
        // BENCH_baseline.json`.
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let full = load(&format!("{root}/BENCH_dyncompile.json")).unwrap();
        let base = load(&format!("{root}/BENCH_baseline.json")).unwrap();
        let (fc, fw) = distill(&full).unwrap();
        let (bc, bw) = distill(&base).unwrap();
        assert_eq!(fc, bc, "BENCH_baseline.json is stale — re-run distill");
        assert_eq!(fw, bw);
        assert!(gate(&bc, &fc, 0.0).is_empty());
    }
}
