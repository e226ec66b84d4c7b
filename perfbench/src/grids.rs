//! The two single-worker grids.
//!
//! `cycle-tiny`: the cycle-level simulator (`etpp_sim::run`) on all eight
//! Table-2 workloads × every `PrefetchMode::ALL` mode at Tiny — the
//! figure-regeneration path. The core, memory hierarchy, engines and PPU
//! interpreter do all the work on footprints of a few × L1.
//!
//! `replay-small`: IntSort and HJ-8 at Small, captured and encoded in
//! set-up; the timed phase decodes each trace and replays it
//! (`replay_run`) under five modes — trace decode, the replay front end
//! and a DRAM-bound memory hierarchy do the work.

use crate::attrib;
use crate::common::{
    build, capture, cycle_runnable, demand_accesses, grid_e2e, pass_count, same_cycles,
    setups_and_passes, CellRec, Ctx, Pass, SetupPhases,
};
use crate::metrics::{Values, REPLAY_MODES, REPLAY_WORKLOADS};
use crate::stats::{fnv1a, geomean, median, FNV_OFFSET};
use crate::Outcome;
use etpp_sim::{replay_run, run, PrefetchMode, SystemConfig};
use etpp_workloads::{all_workloads, workload_by_name, BuiltWorkload, Scale};
use std::time::Instant;

/// Nominal host seconds of one pass (see `common::pass_count`).
const CYCLE_PASS_S: f64 = 6.0;
const REPLAY_PASS_S: f64 = 10.0;

/// Set-ups per run, so each run's set-up takes about a second or more:
/// building the Tiny workloads takes ~0.04 s, the Small capture ~5 s.
const CYCLE_SETUPS: usize = 25;
const REPLAY_SETUPS: usize = 3;

/// Every (workload, mode) cell the cycle core can run: the paper's
/// missing bars are left out.
fn cycle_cells(cfg: &SystemConfig, wls: &[BuiltWorkload]) -> Vec<(usize, PrefetchMode)> {
    wls.iter()
        .enumerate()
        .flat_map(|(wi, wl)| {
            PrefetchMode::ALL
                .into_iter()
                .filter(|&m| cycle_runnable(cfg, m, wl))
                .map(move |m| (wi, m))
        })
        .collect()
}

fn cycle_pass(
    ctx: &mut Ctx,
    cfg: &SystemConfig,
    wls: &[BuiltWorkload],
    cells: &[(usize, PrefetchMode)],
) -> Pass {
    let mut cells = cells.to_vec();
    ctx.rng.shuffle(&mut cells);
    let pass_open = ctx.tracer.enter("bench.pass", 0);
    let t0 = Instant::now();
    let mut out = Vec::with_capacity(cells.len());
    for (wi, mode) in cells {
        let wl = &wls[wi];
        let id = (wi * PrefetchMode::ALL.len() + mode as usize + 1) as u32;
        let cell_open = ctx.tracer.enter("bench.cell", id);
        let call = ctx.tracer.enter("sim.run", id);
        let t = Instant::now();
        let r = run(cfg, mode, wl);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        ctx.tracer.exit(call);
        match r {
            Ok(r) => out.push(CellRec {
                key: format!("{}/{}", wl.name, mode.key()),
                cycles: r.cycles,
                ms,
                accesses: demand_accesses(&r.mem),
                validated: r.validated,
            }),
            Err(skip) => ctx.check(false, || {
                format!("{}/{}: unexpected skip ({skip})", wl.name, mode.key())
            }),
        }
        ctx.tracer.exit(cell_open);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    ctx.tracer.exit(pass_open);
    Pass { wall_s, cells: out }
}

/// Runs `pass` untraced then traced and returns the traced pass and the
/// tracing overhead (traced wall over untraced wall, minus 1), checking
/// that tracing changed no simulated cycle.
fn overhead_pair(ctx: &mut Ctx, mut pass: impl FnMut(&mut Ctx) -> Pass) -> (Pass, f64) {
    ctx.tracer.set_enabled(false);
    let plain = pass(ctx);
    ctx.tracer.set_enabled(true);
    let traced = pass(ctx);
    same_cycles(ctx, &plain, &traced, "the traced pass");
    let overhead = traced.wall_s / plain.wall_s - 1.0;
    (traced, overhead)
}

/// Simulated speed-up of `manual` over `none`, geometric mean over the
/// workloads that have both cells.
fn manual_speedup(pass: &Pass) -> f64 {
    let by_key = pass.cycles_by_key();
    let speedups: Vec<f64> = by_key
        .iter()
        .filter_map(|(k, &c)| {
            let wl = k.strip_suffix("/manual")?;
            let none = by_key.get(format!("{wl}/none").as_str())?;
            Some(*none as f64 / c as f64)
        })
        .collect();
    geomean(&speedups)
}

fn check_pass(ctx: &mut Ctx, pass: &Pass) -> u64 {
    let mut failed = 0;
    for c in &pass.cells {
        if !c.validated {
            failed += 1;
            let key = c.key.clone();
            ctx.check(false, || format!("{key}: failed validation"));
        }
    }
    failed
}

/// Checks that every cell validated and sets the grids' end-to-end
/// metrics.
fn finish_grid(ctx: &mut Ctx, passes: &[Pass], setup_s: f64, values: &mut Values) -> Outcome {
    let mut failed = 0;
    for p in passes {
        failed += check_pass(ctx, p);
    }
    values.set("setup_s", setup_s);
    let (pct, n) = grid_e2e(passes, values);
    Outcome {
        attempted: passes.iter().map(|p| p.cells.len() as u64).sum(),
        failed,
        digest: crate::common::digest(&passes[0]),
        tail_note: format!("p{pct} of {n} cells"),
    }
}

pub fn cycle_tiny(ctx: &mut Ctx, values: &mut Values) -> Outcome {
    let cfg = SystemConfig::paper();
    let mut phases_per_rep: Vec<SetupPhases> = Vec::new();
    let passes = if ctx.traced {
        0
    } else {
        pass_count(ctx.seconds, CYCLE_PASS_S)
    };
    let mut cells = None;
    let (wls, setup_s, timed) = setups_and_passes(
        ctx,
        CYCLE_SETUPS,
        |ctx| {
            let mut phases = SetupPhases::default();
            let wls: Vec<BuiltWorkload> = all_workloads()
                .iter()
                .map(|w| build(ctx, w.as_ref(), Scale::Tiny, &mut phases))
                .collect();
            phases_per_rep.push(phases);
            wls
        },
        |wls| workloads_fingerprint(wls),
        passes,
        |ctx, wls| {
            // Every set-up builds the same workloads, so the same cells.
            let cells = cells.get_or_insert_with(|| cycle_cells(&cfg, wls));
            cycle_pass(ctx, &cfg, wls, cells)
        },
    );
    if !ctx.traced {
        return finish_grid(ctx, &timed, setup_s, values);
    }
    let cells = cycle_cells(&cfg, &wls);
    let pass = |ctx: &mut Ctx| cycle_pass(ctx, &cfg, &wls, &cells);
    let (pass, overhead) = overhead_pair(ctx, pass);
    // Streams for the split: the grid itself captures nothing, so the
    // capture and encode times here are the split's own preparation.
    let mut prep = SetupPhases::default();
    let streams: Vec<Vec<u8>> = wls
        .iter()
        .map(|wl| capture(ctx, &cfg, wl, "tiny", &mut prep))
        .collect();
    let streams: Vec<&[u8]> = streams.iter().map(Vec::as_slice).collect();
    let residual = attrib::run_split(
        ctx,
        &cfg,
        &wls.iter().collect::<Vec<_>>(),
        &streams,
        &PrefetchMode::ALL,
        false,
        values,
    );
    crate::sweep::grid_farm_layers(ctx, &wls, &streams, "tiny", values);
    set_setup_layers(values, &phases_per_rep, Some(prep));
    traced_common(ctx, values, &pass, overhead, residual);
    finish_grid(ctx, &[pass], setup_s, values)
}

fn workloads_fingerprint(wls: &[BuiltWorkload]) -> u64 {
    let mut h = FNV_OFFSET;
    for wl in wls {
        h = fnv1a(wl.name.as_bytes(), h);
        h = fnv1a(&wl.expected.to_le_bytes(), h);
        h = fnv1a(&(wl.trace.len() as u64).to_le_bytes(), h);
    }
    h
}

/// Per-layer set-up metrics: the median over set-up repetitions of each
/// phase; `extra` adds phases run outside set-up (the split's captures).
pub fn set_setup_layers(values: &mut Values, reps: &[SetupPhases], extra: Option<SetupPhases>) {
    let med = |f: fn(&SetupPhases) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let extra = extra.unwrap_or_default();
    values.set("workloads.build_s", med(|p| p.build_s));
    values.set("trace.capture_s", med(|p| p.capture_s) + extra.capture_s);
    values.set("trace.encode_s", med(|p| p.encode_s) + extra.encode_s);
}

/// Per-layer metrics every traced run reports: component loops,
/// simulated totals, tracing overhead, and the share-sum check.
pub fn traced_common(
    ctx: &mut Ctx,
    values: &mut Values,
    pass: &Pass,
    overhead: f64,
    residual: f64,
) {
    let ns = crate::components::measure();
    values.set("mem.cache_ns", ns.cache);
    values.set("mem.dram_ns", ns.dram);
    values.set("mem.tick_ns", ns.tick);
    values.set("isa.kernel_ns", ns.kernel);
    values.set("core.event_ns", ns.event);
    values.set(
        "sim.cycles_total",
        pass.cells.iter().map(|c| c.cycles as f64).sum(),
    );
    if !values.0.contains_key("sim.speedup_geomean.manual") {
        values.set("sim.speedup_geomean.manual", manual_speedup(pass));
    }
    values.set("bench.span_overhead", overhead);
    // Each cell's layer shares must account for its traced time, to
    // within the tracing overhead (floored at 1% for the host's noise).
    let tol = overhead.abs().max(0.01);
    eprintln!(
        "share-sum check: largest unexplained share of a cell {residual:.5} (tolerance {tol:.5})"
    );
    ctx.check(residual <= tol, || {
        format!("layer shares leave {residual:.4} of a cell's traced time unexplained (> {tol:.4})")
    });
}

/// The replay pair, built and captured. Only the `.etpt` encodings are
/// kept: the timed phase decodes them, as a replay from a trace cache
/// would.
struct ReplaySetup {
    wls: Vec<BuiltWorkload>,
    streams: Vec<Vec<u8>>,
}

fn replay_pass(ctx: &mut Ctx, cfg: &SystemConfig, s: &ReplaySetup) -> Pass {
    let modes: Vec<PrefetchMode> = REPLAY_MODES
        .iter()
        .map(|k| PrefetchMode::from_key(k).expect("replay modes are mode keys"))
        .collect();
    let mut order: Vec<usize> = (0..s.wls.len()).collect();
    ctx.rng.shuffle(&mut order);
    let pass_open = ctx.tracer.enter("bench.pass", 0);
    let t0 = Instant::now();
    let mut out = Vec::new();
    for wi in order {
        let wl = &s.wls[wi];
        let trace = crate::common::decode(ctx, &s.streams[wi], 0);
        let accesses = trace.access_count();
        let mut mode_order = modes.clone();
        ctx.rng.shuffle(&mut mode_order);
        for mode in mode_order {
            let id = (wi * PrefetchMode::ALL.len() + mode as usize + 1) as u32;
            let cell_open = ctx.tracer.enter("bench.cell", id);
            let call = ctx.tracer.enter("sim.replay_run", id);
            let t = Instant::now();
            let r = replay_run(cfg, mode, wl, &trace.records);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            ctx.tracer.exit(call);
            match r {
                Ok(r) => {
                    ctx.check(r.accesses == accesses, || {
                        format!(
                            "{}/{}: replayed {} of {accesses} accesses",
                            wl.name,
                            mode.key(),
                            r.accesses
                        )
                    });
                    out.push(CellRec {
                        key: format!("{}/{}", wl.name, mode.key()),
                        cycles: r.cycles,
                        ms,
                        accesses: r.accesses,
                        validated: r.validated,
                    });
                }
                Err(skip) => ctx.check(false, || {
                    format!("{}/{}: unexpected skip ({skip})", wl.name, mode.key())
                }),
            }
            ctx.tracer.exit(cell_open);
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    ctx.tracer.exit(pass_open);
    Pass { wall_s, cells: out }
}

pub fn replay_small(ctx: &mut Ctx, values: &mut Values) -> Outcome {
    let cfg = SystemConfig::paper();
    let mut phases_per_rep: Vec<SetupPhases> = Vec::new();
    let passes = if ctx.traced {
        0
    } else {
        pass_count(ctx.seconds, REPLAY_PASS_S)
    };
    let (setup, setup_s, timed) = setups_and_passes(
        ctx,
        REPLAY_SETUPS,
        |ctx| {
            let mut phases = SetupPhases::default();
            let mut wls = Vec::new();
            let mut streams = Vec::new();
            for name in REPLAY_WORKLOADS {
                let w = workload_by_name(name).expect("Table-2 workload");
                let wl = build(ctx, w.as_ref(), Scale::Small, &mut phases);
                streams.push(capture(ctx, &cfg, &wl, "small", &mut phases));
                wls.push(wl);
            }
            phases_per_rep.push(phases);
            ReplaySetup { wls, streams }
        },
        |s| s.streams.iter().fold(FNV_OFFSET, |h, b| fnv1a(b, h)),
        passes,
        |ctx, s| replay_pass(ctx, &cfg, s),
    );
    if !ctx.traced {
        return finish_grid(ctx, &timed, setup_s, values);
    }
    let (pass, overhead) = overhead_pair(ctx, |ctx| replay_pass(ctx, &cfg, &setup));
    let modes: Vec<PrefetchMode> = REPLAY_MODES
        .iter()
        .map(|k| PrefetchMode::from_key(k).expect("replay modes are mode keys"))
        .collect();
    let streams: Vec<&[u8]> = setup.streams.iter().map(Vec::as_slice).collect();
    let residual = attrib::run_split(
        ctx,
        &cfg,
        &setup.wls.iter().collect::<Vec<_>>(),
        &streams,
        &modes,
        true,
        values,
    );
    crate::sweep::grid_farm_layers(ctx, &setup.wls, &streams, "small", values);
    set_setup_layers(values, &phases_per_rep, None);
    traced_common(ctx, values, &pass, overhead, residual);
    finish_grid(ctx, &[pass], setup_s, values)
}
