//! The DyC-RS benchmark: the paper suite and three serving streams, end
//! to end and per layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_suite|serve_zipf|serve_stampede|serve_churn_bounded> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! An untraced run (`--trace 0`) prints the end-to-end metrics; a traced
//! run (`--trace 1`) wraps every layer call in a span, prints the
//! per-layer metrics with each layer's self time, and writes the spans
//! to `perfbench/out/trace-<workload>-<seed>.json`. Each run prints a
//! table and, as its last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `WORKLOADS.md` says what each
//! workload stresses and what each metric should move.

mod report;
mod serve;
mod stats;
mod suite;
mod trace;

use report::{Metrics, Tally};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use trace::{LayerTime, Span};

/// The workloads, in reporting order.
const WORKLOADS: &[&str] = &[
    "paper_suite",
    "serve_zipf",
    "serve_stampede",
    "serve_churn_bounded",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or(format!("missing {flag}"))
    };
    let workload = get("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds >= 0.0 && seconds.is_finite()) {
        return Err("--seconds must be a non-negative number".to_string());
    }
    let traced = match get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        traced,
    })
}

/// Print each layer's span count, total and self time.
pub(crate) fn print_layers(layers: &BTreeMap<&'static str, LayerTime>) {
    println!("layer self times (from spans):");
    println!(
        "  {:<20} {:>10} {:>16} {:>16}",
        "span", "count", "total_ns", "self_ns"
    );
    for (name, l) in layers {
        println!(
            "  {name:<20} {:>10} {:>16} {:>16}",
            l.count, l.total_ns, l.self_ns
        );
    }
}

/// Write the spans out; a write failure counts as a failed operation.
pub(crate) fn write_trace(path: &Path, spans: &[Span], tally: &mut Tally) {
    match trace::write_chrome(path, spans) {
        Ok(()) => {
            tally.attempted += 1;
            println!(
                "spans written to {} ({} spans)",
                path.display(),
                spans.len()
            );
        }
        Err(e) => {
            tally.check(false, || format!("writing {}: {e}", path.display()));
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let trace_out: Option<PathBuf> = args.traced.then(|| {
        PathBuf::from(format!(
            "perfbench/out/trace-{}-{}.json",
            args.workload, args.seed
        ))
    });
    let mut metrics = Metrics::default();
    let mut tally = Tally::default();
    let out = trace_out.as_deref();
    match args.workload.as_str() {
        "paper_suite" => {
            // The suite's inputs are the paper's deterministic ones; the
            // seed only seeds the serving stream run beside them.
            suite::run(
                args.seed,
                args.seconds,
                args.traced,
                out,
                &mut metrics,
                &mut tally,
            );
        }
        name => {
            let spec = match name {
                "serve_zipf" => serve::ZIPF,
                "serve_stampede" => serve::STAMPEDE,
                _ => serve::CHURN_BOUNDED,
            };
            serve::run(
                spec,
                args.seed,
                args.seconds,
                args.traced,
                out,
                &mut metrics,
                &mut tally,
            );
        }
    }
    // Measured last, in this process alone: one workload per process.
    metrics.set("peak_rss_mb", report::peak_rss_mb(), 1);
    report::emit(&args.workload, args.traced, &metrics, tally);
}
