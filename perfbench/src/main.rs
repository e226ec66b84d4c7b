//! The repository benchmark.
//!
//! ```text
//! etpp-perfbench --workload <cycle-tiny|replay-small> --seed N --seconds S --trace 0|1
//! etpp-perfbench --list-metrics
//! ```
//!
//! It drives the public entry points of `workloads`, `trace`, `sim`
//! (`run`, `replay_run`, `run_sweep`), `mem`, `isa` and `core` from
//! outside. The seed permutes cell execution order only: the workload
//! generators use fixed internal seeds, so every seed simulates the same
//! cycles, which the run checks. Untraced runs report the end-to-end
//! metrics; traced runs record spans around each call and report the
//! per-layer split. The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the exit code is 1
//! when any output check fails.

mod attrib;
mod common;
mod components;
mod grids;
mod metrics;
mod spans;
mod stats;
mod sweep;

use common::Ctx;
use metrics::{Kind, Values};
use std::fmt::Write as _;
use std::path::PathBuf;

/// What a workload run reports besides its metric values.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Order-independent digest of per-cell simulated cycles: equal for
    /// every seed and for traced and untraced runs.
    pub digest: u64,
    /// Which percentile `cell_ms_tail` is, over how many samples.
    pub tail_note: String,
}

const WORKLOADS: [&str; 2] = ["cycle-tiny", "replay-small"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: etpp-perfbench --workload <{}> --seed N --seconds S --trace 0|1\n       \
         etpp-perfbench --list-metrics",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Option<Args> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        if flag == "--list-metrics" {
            return None;
        }
        let Some(value) = it.next() else {
            usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().unwrap_or_else(|_| usage("--seed: integer"))),
            "--seconds" => {
                let s: f64 = value.parse().unwrap_or_else(|_| usage("--seconds: number"));
                if !(s.is_finite() && s > 0.0) {
                    usage("--seconds must be positive");
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace: 0 or 1"),
                })
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload}"));
    }
    Some(Args {
        workload,
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
    })
}

fn list_metrics() {
    for d in metrics::all() {
        println!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"kind\": \"{}\", \
             \"bound\": {}, \"moves\": \"{}\"}}",
            d.name,
            d.unit,
            if d.higher_is_better {
                "higher"
            } else {
                "lower"
            },
            if d.kind == Kind::EndToEnd {
                "end_to_end"
            } else {
                "per_layer"
            },
            d.bound,
            d.moves
        );
    }
}

fn main() {
    let Some(args) = parse_args() else {
        list_metrics();
        return;
    };
    let out_dir = PathBuf::from("perfbench").join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("error: cannot create {}: {e}", out_dir.display());
        std::process::exit(2);
    }
    let mut ctx = Ctx {
        seconds: args.seconds,
        traced: args.trace,
        tracer: spans::Tracer::new(args.trace),
        rng: stats::SplitMix::new(args.seed),
        out_dir: out_dir.clone(),
        errors: Vec::new(),
    };
    let mut values = Values::default();
    let outcome = match args.workload.as_str() {
        "cycle-tiny" => grids::cycle_tiny(&mut ctx, &mut values),
        _ => grids::replay_small(&mut ctx, &mut values),
    };
    match common::peak_rss_mb() {
        Some(mb) => values.set("peak_rss_mb", mb),
        None => ctx.check(false, || {
            "VmHWM unavailable in /proc/self/status".to_string()
        }),
    }

    let kind = if args.trace {
        Kind::PerLayer
    } else {
        Kind::EndToEnd
    };
    let mut report = String::new();
    let mut json_metrics = Vec::new();
    for d in metrics::all().iter().filter(|d| d.kind == kind) {
        // A layer the workload does not exercise reports 0.
        let v = values.0.get(d.name).copied().unwrap_or(0.0);
        if !v.is_finite() {
            let name = d.name;
            ctx.check(false, || format!("{name} is not finite ({v})"));
        }
        let v = if v.is_finite() { v } else { 0.0 };
        let note = if d.name == "cell_ms_tail" {
            format!("  ({})", outcome.tail_note)
        } else {
            String::new()
        };
        let _ = writeln!(report, "  {:<34} {:>16.6} {}{note}", d.name, v, d.unit);
        json_metrics.push(format!(
            "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            d.name, d.unit
        ));
    }
    if args.trace {
        eprintln!("layer self time (spans, s):");
        for (name, (count, total, own)) in ctx.tracer.layer_table() {
            eprintln!("  {name:<24} n={count:<6} total {total:>10.4}  self {own:>10.4}");
        }
        let path = out_dir.join(format!("spans-{}-seed{}.json", args.workload, args.seed));
        if let Err(e) = std::fs::write(&path, ctx.tracer.chrome_json()) {
            ctx.check(false, || format!("writing {}: {e}", path.display()));
        } else {
            eprintln!(
                "spans: {} written to {}",
                ctx.tracer.spans().len(),
                path.display()
            );
        }
    }
    let correct = ctx.errors.is_empty() && outcome.failed == 0;
    eprintln!(
        "{} seed={} trace={}: {} cells attempted, {} failed (failed_frac {}), digest {:016x}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        outcome.attempted,
        outcome.failed,
        stats::ratio(outcome.failed as f64, outcome.attempted as f64),
        outcome.digest
    );
    eprint!("{report}");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        json_metrics.join(", ")
    );
    if !correct {
        eprintln!("{} check(s) failed", ctx.errors.len());
        std::process::exit(1);
    }
}
