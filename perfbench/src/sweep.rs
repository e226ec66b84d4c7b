//! The sweep layer: the grids push their own streams through the sweep
//! farm (`run_sweep`) with `repro --sweep`'s production options —
//! result cache, fsync'd journal and the default armed watchdog budget —
//! filling a fresh cache cold and then reading it warm, plus a cold pass
//! on one worker and a watchdog overhead loop. Traced runs only.

use crate::common::{decode, replay_runnable, same_cycles, CellRec, Ctx, Pass};
use crate::metrics::Values;
use crate::stats::ratio;
use etpp_sim::replay::CaptureSource;
use etpp_sim::sweeps::{settings_string, CellPath, CellResult, ShardRun, SweepOptions, SweepSpec};
use etpp_sim::{run, run_sweep, KeyedCapture, PrefetchMode, SystemConfig, Watchdog};
use etpp_workloads::BuiltWorkload;
use std::path::Path;
use std::time::{Duration, Instant};

/// Workers of the farm (at most the host's two cores).
const JOBS: usize = 2;

/// A budget the watchdog overhead loop can never exhaust.
const NEVER_FIRES: Duration = Duration::from_secs(3600);

/// The farm's inputs: a spec over some workloads and their captures.
struct Farm<'a> {
    spec: SweepSpec,
    scale: &'static str,
    wls: &'a [BuiltWorkload],
    caps: &'a [KeyedCapture],
}

/// A capture keyed as the sweep farm's result cache expects.
fn keyed(trace: etpp_trace::CapturedTrace) -> KeyedCapture {
    KeyedCapture {
        content_hash: etpp_trace::content_hash_versioned(
            &trace.records,
            etpp_trace::FORMAT_VERSION,
        ),
        trace,
        source: CaptureSource::Captured,
        trace_format: etpp_trace::FORMAT_VERSION,
    }
}

/// Counters of one cold+warm pair.
struct Pair {
    cold_s: f64,
    warm_s: f64,
    escalated: u64,
    misses: u64,
    retries: u64,
    quarantined: u64,
    warm_hit_ratio: f64,
}

/// Runs the sweep once into a fresh cache and journal under `dir`.
fn sweep_once(
    ctx: &mut Ctx,
    farm: &Farm<'_>,
    dir: &Path,
    jobs: usize,
    name: &'static str,
) -> (ShardRun, f64) {
    let opts = SweepOptions {
        cache_dir: Some(dir.join("cache")),
        journal: Some(dir.join("journal-0-of-1.jsonl")),
        ..SweepOptions::new(jobs, farm.scale)
    };
    let open = ctx.tracer.enter(name, 0);
    let t = Instant::now();
    let run = run_sweep(&farm.spec, farm.wls, farm.caps, &opts);
    let secs = t.elapsed().as_secs_f64();
    ctx.tracer.exit(open);
    (run, secs)
}

fn fresh_dir(ctx: &Ctx, tag: &str) -> std::path::PathBuf {
    let dir = ctx
        .out_dir
        .join(format!("sweep-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Fills a fresh cache cold, then reads it warm, checking that the warm
/// pass only hits and reproduces every cold cell.
fn pair(ctx: &mut Ctx, farm: &Farm<'_>) -> Pair {
    let dir = fresh_dir(ctx, "pair");
    let (cold, cold_s) = sweep_once(ctx, farm, &dir, JOBS, "sim.run_sweep.cold");
    let (warm, warm_s) = sweep_once(ctx, farm, &dir, JOBS, "sim.run_sweep.warm");
    if let Err(e) = std::fs::remove_dir_all(&dir) {
        ctx.check(false, || format!("removing {}: {e}", dir.display()));
    }
    let cfg = SystemConfig::paper();
    let mut cells = Vec::new();
    for c in &cold.cells {
        let wi = farm
            .wls
            .iter()
            .position(|w| w.name == c.workload)
            .expect("sweep workload");
        let key = cell_key(c);
        let expected_skip = !replay_runnable(&cfg, c.mode, &farm.wls[wi]);
        if c.path == CellPath::Skip {
            ctx.check(expected_skip, || format!("{key}: skipped but runnable"));
            continue;
        }
        ctx.check(!expected_skip, || {
            format!("{key}: ran with no engine for the mode")
        });
        let ok = c.validated && matches!(c.path, CellPath::Replay | CellPath::Cycle);
        ctx.check(ok, || {
            format!("{key}: path {:?}, validated {}", c.path, c.validated)
        });
        cells.push(sweep_cell(c));
    }
    ctx.check(cold.failures.is_empty() && cold.quarantined() == 0, || {
        format!("cold sweep quarantined {} job(s)", cold.failures.len())
    });
    // Cells plus the per-workload baselines the cold pass looked up.
    let lookups = cold.cache_hits() + cold.cache_misses();
    ctx.check(
        warm.cache_misses() == 0 && warm.escalations() == 0 && warm.cache_hits() == lookups,
        || {
            format!(
                "warm sweep: {} hits, {} misses, {} escalations (expected {lookups} hits only)",
                warm.cache_hits(),
                warm.cache_misses(),
                warm.escalations()
            )
        },
    );
    let warm_cells = Pass {
        wall_s: warm_s,
        cells: warm
            .cells
            .iter()
            .filter(|c| c.path != CellPath::Skip)
            .map(sweep_cell)
            .collect(),
    };
    let cold_cells = Pass {
        wall_s: cold_s,
        cells,
    };
    same_cycles(ctx, &cold_cells, &warm_cells, "the warm sweep");
    Pair {
        cold_s,
        warm_s,
        escalated: cold.escalations(),
        misses: cold.cache_misses(),
        retries: cold.retries(),
        quarantined: cold.quarantined(),
        warm_hit_ratio: ratio(
            warm.cache_hits() as f64,
            (warm.cache_hits() + warm.cache_misses()) as f64,
        ),
    }
}

fn cell_key(c: &CellResult) -> String {
    format!(
        "{}/{}/{}",
        c.workload,
        c.mode.key(),
        settings_string(&c.settings)
    )
}

/// A farm cell as a per-cell record; the farm keeps no per-cell clock.
fn sweep_cell(c: &CellResult) -> CellRec {
    CellRec {
        key: cell_key(c),
        cycles: c.cycles,
        ms: 0.0,
        accesses: 0,
        validated: c.validated,
    }
}

/// Σ `run_watched` over Σ `run` on the sweep's base-config cells, with
/// a budget that never fires; the two alternate which runs first.
fn watchdog_overhead(ctx: &mut Ctx, farm: &Farm<'_>) -> f64 {
    let cfg = SystemConfig::paper();
    let (mut plain, mut watched) = (0.0, 0.0);
    let mut flip = false;
    for wl in farm.wls {
        for &mode in &farm.spec.modes {
            if !replay_runnable(&cfg, mode, wl) {
                continue;
            }
            for watched_turn in [flip, !flip] {
                let t = Instant::now();
                let r = if watched_turn {
                    etpp_sim::run_watched(&cfg, mode, wl, &Watchdog::with_budget(NEVER_FIRES))
                } else {
                    run(&cfg, mode, wl)
                };
                let secs = t.elapsed().as_secs_f64();
                let ok = r.is_ok_and(|r| r.validated);
                ctx.check(ok, || {
                    format!("{}/{}: watchdog loop run failed", wl.name, mode.key())
                });
                if watched_turn {
                    watched += secs;
                } else {
                    plain += secs;
                }
            }
            flip = !flip;
        }
    }
    watched / plain
}

/// The sweep layer on a grid's own streams: one mode (stride) on the
/// base configuration, as a cold+warm pair on [`JOBS`] workers, a cold
/// pass on one worker for the parallel speed-up, and the watchdog loop.
pub fn grid_farm_layers(
    ctx: &mut Ctx,
    wls: &[BuiltWorkload],
    streams: &[&[u8]],
    scale: &'static str,
    values: &mut Values,
) {
    let caps: Vec<KeyedCapture> = streams
        .iter()
        .map(|bytes| keyed(decode(ctx, bytes, 0)))
        .collect();
    let spec = SweepSpec {
        name: "perfbench-grid",
        base: SystemConfig::paper(),
        modes: vec![PrefetchMode::Stride],
        axes: Vec::new(),
    };
    let farm = Farm {
        spec,
        scale,
        wls,
        caps: &caps,
    };
    let traced = pair(ctx, &farm);
    values.set("sweep.cold_s", traced.cold_s);
    values.set("sweep.warm_ms", traced.warm_s * 1e3);
    values.set(
        "sweep.escalated_frac",
        ratio(traced.escalated as f64, traced.misses as f64),
    );
    values.set("sweep.retries", traced.retries as f64);
    values.set("sweep.quarantined", traced.quarantined as f64);
    values.set("sweep.hit_ratio", traced.warm_hit_ratio);
    let dir = fresh_dir(ctx, "one-worker");
    let (_, one_worker_s) = sweep_once(ctx, &farm, &dir, 1, "sim.run_sweep.cold");
    let _ = std::fs::remove_dir_all(&dir);
    values.set("sweep.parallel_speedup", one_worker_s / traced.cold_s);
    values.set("watchdog.overhead_ratio", watchdog_overhead(ctx, &farm));
}
