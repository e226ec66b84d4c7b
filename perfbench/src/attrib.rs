//! Subtractive layer attribution (ROADMAP 1(a)), run only when traced.
//!
//! On each workload's captured stream it times five runs: decode-only,
//! replay with the null engine, replay with the mode, the cycle core with
//! the null engine, and the cycle core with the mode. Their differences
//! split host time without instrumenting the simulator:
//!
//! - decode: `trace.decode`
//! - replay front end and memory hierarchy: replay-null
//! - OoO core: cycle-null minus replay-null
//! - engine on replay: replay-mode minus replay-null
//! - engine on the cycle core: cycle-mode minus cycle-null

use crate::common::{decode, replay_runnable, Ctx};
use crate::metrics::{Values, REPLAY_MODES, REPLAY_WORKLOADS, VISIT_KEYS};
use crate::stats::{geomean, ratio};
use etpp_core::PfEngineStats;
use etpp_mem::MemStats;
use etpp_sim::{replay_run, run, PrefetchMode, SystemConfig, VisitCounts};
use etpp_workloads::BuiltWorkload;
use std::time::Instant;

/// The no-prefetch runs of one workload's stream.
struct NullRuns {
    wl: &'static str,
    decode_s: f64,
    records: u64,
    bytes: u64,
    replay_s: f64,
    replay_cycles: u64,
    replay_iters: u64,
    dep_stalls: u64,
    cycle_s: f64,
    cycle_cycles: u64,
    cycle_iters: u64,
    /// The capture run's cycles, from the trace's metadata.
    capture_cycles: u64,
    visits: VisitCounts,
    replay_mem: MemStats,
    cycle_mem: MemStats,
}

/// One (workload, mode) cell: the mode on both paths.
struct ModeCell {
    wl: &'static str,
    mode: PrefetchMode,
    /// Duration of the cell's enclosing `bench.cell` span.
    cell_s: f64,
    replay: Option<(f64, u64, MemStats)>,
    cycle_s: f64,
    cycle_cycles: u64,
    cycle_mem: MemStats,
    pf: Option<PfEngineStats>,
}

/// Runs `f` inside span `name` and returns its result and host seconds.
fn timed<T>(ctx: &mut Ctx, name: &'static str, cell: u32, f: impl FnOnce() -> T) -> (T, f64) {
    let open = ctx.tracer.enter(name, cell);
    let t = Instant::now();
    let out = f();
    let s = t.elapsed().as_secs_f64();
    ctx.tracer.exit(open);
    (out, s)
}

fn add_mem(acc: &mut MemStats, m: &MemStats) {
    for (a, b) in [(&mut acc.l1, &m.l1), (&mut acc.l2, &m.l2)] {
        a.read_hits += b.read_hits;
        a.read_misses += b.read_misses;
        a.write_hits += b.write_hits;
        a.write_misses += b.write_misses;
        a.prefetches_used += b.prefetches_used;
        a.late_prefetch_merges += b.late_prefetch_merges;
    }
    acc.dram.reads += m.dram.reads;
    acc.prefetches_issued += m.prefetches_issued;
}

fn miss_rate(c: &etpp_mem::CacheStats) -> f64 {
    let misses = c.read_misses + c.write_misses;
    ratio(misses as f64, (misses + c.read_hits + c.write_hits) as f64)
}

/// Runs the five-run split over `workloads` (with `streams[i]` the
/// `.etpt` encoding of `workloads[i]`'s capture) and `modes`, and sets the per-layer
/// metrics it yields. `replay_primary` says whether the workload's timed
/// phase replays (its memory counts then come from replay runs) or runs
/// the cycle core. Returns the largest share of a cell's traced time its
/// layer shares leave unexplained.
pub fn run_split(
    ctx: &mut Ctx,
    cfg: &SystemConfig,
    workloads: &[&BuiltWorkload],
    streams: &[&[u8]],
    modes: &[PrefetchMode],
    replay_primary: bool,
    values: &mut Values,
) -> f64 {
    let mut order: Vec<usize> = (0..workloads.len()).collect();
    ctx.rng.shuffle(&mut order);
    let mut nulls: Vec<NullRuns> = Vec::new();
    let mut cells: Vec<ModeCell> = Vec::new();
    // Cell ids of the split start above the timed passes' ids, so one
    // span file can hold both.
    let mut next_cell = 1_000_000u32;
    for wi in order {
        let (wl, bytes) = (workloads[wi], streams[wi]);
        next_cell += 1;
        let null_cell = next_cell;
        let (trace, decode_s) = {
            let t = Instant::now();
            let trace = decode(ctx, bytes, null_cell);
            (trace, t.elapsed().as_secs_f64())
        };
        let records = &trace.records;
        let (rn, replay_s) = timed(ctx, "sim.replay_run", null_cell, || {
            replay_run(cfg, PrefetchMode::None, wl, records).expect("null engine replays")
        });
        let (cn, cycle_s) = timed(ctx, "sim.run", null_cell, || {
            run(cfg, PrefetchMode::None, wl).expect("null engine runs")
        });
        ctx.check(rn.validated && cn.validated, || {
            format!("{}: no-prefetch attribution run failed validation", wl.name)
        });
        let capture_cycles = trace.meta.capture_cycles;
        ctx.check(capture_cycles == cn.cycles, || {
            format!(
                "{}: capture run took {capture_cycles} cycles, a plain run {}",
                wl.name, cn.cycles
            )
        });
        ctx.check(cn.visits.total() == cn.host_iters, || {
            format!(
                "{}: visit attribution covers {} of {} visits",
                wl.name,
                cn.visits.total(),
                cn.host_iters
            )
        });
        nulls.push(NullRuns {
            wl: wl.name,
            decode_s,
            records: records.len() as u64,
            bytes: bytes.len() as u64,
            replay_s,
            replay_cycles: rn.cycles,
            replay_iters: rn.host_iters,
            dep_stalls: rn.dep_stalls,
            cycle_s,
            cycle_cycles: cn.cycles,
            cycle_iters: cn.host_iters,
            capture_cycles,
            visits: cn.visits,
            replay_mem: rn.mem,
            cycle_mem: cn.mem,
        });
        // Which modes run is decided before any cell span opens:
        // building an engine to probe it is not the cell's work.
        let mut mode_order: Vec<(PrefetchMode, bool)> = modes
            .iter()
            .copied()
            .filter(|&m| m != PrefetchMode::None && m != PrefetchMode::Software)
            .filter(|&m| crate::common::cycle_runnable(cfg, m, wl))
            .map(|m| (m, replay_runnable(cfg, m, wl)))
            .collect();
        ctx.rng.shuffle(&mut mode_order);
        for (mode, replayable) in mode_order {
            next_cell += 1;
            let cell = next_cell;
            let open = ctx.tracer.enter("bench.cell", cell);
            let replay = replayable.then(|| {
                let (r, s) = timed(ctx, "sim.replay_run", cell, || {
                    replay_run(cfg, mode, wl, records).expect("runnable mode replays")
                });
                (r, s)
            });
            let (c, cycle_s) = timed(ctx, "sim.run", cell, || {
                run(cfg, mode, wl).expect("runnable mode runs")
            });
            let ok = c.validated && replay.as_ref().is_none_or(|(r, _)| r.validated);
            let cell_s = ctx.tracer.exit(open);
            ctx.check(ok, || {
                format!(
                    "{}/{}: attribution run failed validation",
                    wl.name,
                    mode.key()
                )
            });
            cells.push(ModeCell {
                wl: wl.name,
                mode,
                cell_s,
                replay: replay.map(|(r, s)| (s, r.cycles, r.mem)),
                cycle_s,
                cycle_cycles: c.cycles,
                cycle_mem: c.mem,
                pf: c.pf,
            });
        }
    }
    set_metrics(&nulls, &cells, replay_primary, values)
}

fn set_metrics(
    nulls: &[NullRuns],
    cells: &[ModeCell],
    replay_primary: bool,
    values: &mut Values,
) -> f64 {
    let sum = |f: &dyn Fn(&NullRuns) -> f64| nulls.iter().map(f).sum::<f64>();
    let null_of = |wl: &str| {
        nulls
            .iter()
            .find(|n| n.wl == wl)
            .expect("null runs per workload")
    };

    let decode_s = sum(&|n| n.decode_s);
    let records = sum(&|n| n.records as f64);
    values.set("trace.decode_s", decode_s);
    values.set("trace.decode_mrec_per_s", ratio(records, decode_s) / 1e6);
    values.set(
        "trace.bytes_per_record",
        ratio(sum(&|n| n.bytes as f64), records),
    );

    let replay_null_s = sum(&|n| n.replay_s);
    let replay_iters = sum(&|n| n.replay_iters as f64);
    values.set("replay.null_s", replay_null_s);
    values.set("replay.host_iters", replay_iters);
    values.set(
        "replay.ff",
        ratio(sum(&|n| n.replay_cycles as f64), replay_iters),
    );
    values.set(
        "replay.ns_per_visit",
        ratio(replay_null_s, replay_iters) * 1e9,
    );
    values.set("replay.dep_stalls", sum(&|n| n.dep_stalls as f64));
    let errs: Vec<f64> = nulls
        .iter()
        .map(|n| (1.0 - ratio(n.replay_cycles as f64, n.capture_cycles as f64)).abs())
        .collect();
    values.set(
        "replay_cycle_err",
        errs.iter().sum::<f64>() / errs.len() as f64,
    );

    // The OoO core's share: what the cycle-level core costs beyond replaying
    // the same stream, per visit.
    let core_s = sum(&|n| n.cycle_s - n.replay_s);
    let cycle_iters = sum(&|n| n.cycle_iters as f64);
    let ns_per_visit = ratio(core_s, cycle_iters) * 1e9;
    values.set("cpu.core_s", core_s);
    values.set("cpu.host_iters", cycle_iters);
    values.set(
        "cpu.ff",
        ratio(sum(&|n| n.cycle_cycles as f64), cycle_iters),
    );
    values.set("cpu.ns_per_visit", ns_per_visit);
    let mut visits = [0u64; VISIT_KEYS.len()];
    for n in nulls {
        for (slot, (_, count)) in visits.iter_mut().zip(n.visits.iter()) {
            *slot += count;
        }
    }
    for (key, count) in VISIT_KEYS.iter().zip(visits) {
        values.set(&format!("cpu.visits.{key}"), count as f64);
    }
    // Cross-check: the per-visit cost times each workload's visits
    // (`VisitCounts`, which cover every visit: checked per run
    // above) against that workload's measured core share. The totals
    // agree by construction; the rows show how far one per-visit cost
    // explains the core's time across workloads.
    eprintln!("cpu cross-check: {ns_per_visit:.1} ns/visit x visits vs measured core share");
    for n in nulls {
        let predicted = ns_per_visit * 1e-9 * n.visits.total() as f64;
        eprintln!(
            "  {:<10} visits {:>9}  predicted {:>8.4} s  measured {:>8.4} s",
            n.wl,
            n.visits.total(),
            predicted,
            n.cycle_s - n.replay_s
        );
    }

    // Engine shares.
    let (mut prog_cycle, mut base_cycle, mut prog_replay, mut base_replay) = (0.0, 0.0, 0.0, 0.0);
    let mut residual_max = 0.0f64;
    for c in cells {
        let n = null_of(c.wl);
        let engine_cycle = c.cycle_s - n.cycle_s;
        let engine_replay = c.replay.as_ref().map_or(0.0, |(s, _, _)| s - n.replay_s);
        if c.mode.is_programmable() {
            prog_cycle += engine_cycle;
            prog_replay += engine_replay;
        } else {
            base_cycle += engine_cycle;
            base_replay += engine_replay;
        }
        // The shares of the cell's runs: front end and memory
        // (replay-null), OoO core, and engine — on both paths.
        let mut shares = n.replay_s + (n.cycle_s - n.replay_s) + engine_cycle;
        if c.replay.is_some() {
            shares += n.replay_s + engine_replay;
        }
        residual_max = residual_max.max((c.cell_s - shares).abs() / c.cell_s);
    }
    values.set("core.engine_cycle_s", prog_cycle);
    values.set("baselines.engine_cycle_s", base_cycle);
    values.set("core.engine_replay_s", prog_replay);
    eprintln!(
        "layer shares (s): decode {decode_s:.4}  replay front end + mem {replay_null_s:.4}  \
         OoO core {core_s:.4}  engines on cycle core: programmable {prog_cycle:.4} \
         fixed-function {base_cycle:.4}  engines on replay: programmable {prog_replay:.4} \
         fixed-function {base_replay:.4}"
    );

    // Replay against the cycle core on the ROADMAP's pair.
    for wl in REPLAY_WORKLOADS {
        let Some(n) = nulls.iter().find(|n| n.wl == wl) else {
            continue;
        };
        let mut speedups = vec![n.cycle_s / n.replay_s];
        speedups.extend(
            cells
                .iter()
                .filter(|c| c.wl == wl)
                .filter_map(|c| c.replay.as_ref().map(|(s, _, _)| c.cycle_s / s)),
        );
        values.set(&format!("replay.vs_cycle.{wl}"), geomean(&speedups));
        for mode in REPLAY_MODES {
            let agreement = if mode == "none" {
                Some(ratio(n.replay_cycles as f64, n.cycle_cycles as f64))
            } else {
                cells
                    .iter()
                    .find(|c| c.wl == wl && c.mode.key() == mode)
                    .and_then(|c| {
                        c.replay
                            .as_ref()
                            .map(|(_, cyc, _)| ratio(*cyc as f64, c.cycle_cycles as f64))
                    })
            };
            if let Some(a) = agreement {
                values.set(&format!("replay.agreement.{wl}.{mode}"), a);
            }
        }
    }

    // Model counts: memory from the path the workload's timed phase
    // takes, engine counts from the cycle core (replay keeps none).
    let mut mem = MemStats::default();
    for n in nulls {
        add_mem(
            &mut mem,
            if replay_primary {
                &n.replay_mem
            } else {
                &n.cycle_mem
            },
        );
    }
    for c in cells {
        match (&c.replay, replay_primary) {
            (Some((_, _, m)), true) => add_mem(&mut mem, m),
            (_, false) => add_mem(&mut mem, &c.cycle_mem),
            (None, true) => {}
        }
    }
    values.set("mem.l1_miss_rate", miss_rate(&mem.l1));
    values.set("mem.l2_miss_rate", miss_rate(&mem.l2));
    values.set("mem.dram_reads", mem.dram.reads as f64);
    values.set("mem.pf_issued", mem.prefetches_issued as f64);
    values.set(
        "mem.pf_useful_frac",
        ratio(mem.l1.prefetches_used as f64, mem.prefetches_issued as f64),
    );
    values.set("mem.late_pf_merges", mem.l1.late_prefetch_merges as f64);

    let (mut events, mut insts, mut obs, mut dropped, mut busy, mut ppu_cycles) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    for c in cells {
        if let Some(pf) = &c.pf {
            events += pf.events_run;
            insts += pf.insts_executed;
            obs += pf.obs_enqueued;
            dropped += pf.obs_dropped;
            busy += pf.per_ppu_busy.iter().sum::<u64>();
            ppu_cycles += c.cycle_cycles * pf.per_ppu_busy.len() as u64;
        }
    }
    values.set("core.events_run", events as f64);
    values.set("core.insts_executed", insts as f64);
    values.set(
        "core.obs_drop_frac",
        ratio(dropped as f64, (obs + dropped) as f64),
    );
    values.set("core.ppu_busy_frac", ratio(busy as f64, ppu_cycles as f64));
    residual_max
}
