//! What the two workloads share: the run context, per-cell records,
//! the timed-pass loop, set-up repetition, and trace capture, encoding
//! and decoding through the `trace` crate's public API.

use crate::metrics::Values;
use crate::spans::Tracer;
use crate::stats::{fnv1a, mean, median, SplitMix, FNV_OFFSET};
use etpp_sim::{PrefetchMode, SystemConfig};
use etpp_trace::{CapturedTrace, TraceReader, TraceWriter};
use etpp_workloads::BuiltWorkload;
use std::collections::BTreeMap;
use std::time::Instant;

/// State of one benchmark run.
pub struct Ctx {
    pub seconds: f64,
    pub traced: bool,
    pub tracer: Tracer,
    pub rng: SplitMix,
    /// Where the run may write (sweep cache and journal directories, span dumps).
    pub out_dir: std::path::PathBuf,
    /// Check failures; any entry makes the run incorrect.
    pub errors: Vec<String>,
}

impl Ctx {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("CHECK FAILED: {msg}");
            self.errors.push(msg);
        }
    }
}

/// One simulated cell of a timed pass.
#[derive(Debug, Clone)]
pub struct CellRec {
    /// `workload/mode[/settings]`: identical across seeds and passes.
    pub key: String,
    pub cycles: u64,
    /// Host time of the `run`/`replay_run` call alone.
    pub ms: f64,
    /// Simulated demand accesses.
    pub accesses: u64,
    pub validated: bool,
}

/// One timed pass over a workload's cells.
#[derive(Debug, Default)]
pub struct Pass {
    pub wall_s: f64,
    pub cells: Vec<CellRec>,
}

impl Pass {
    pub fn cycles_by_key(&self) -> BTreeMap<&str, u64> {
        self.cells
            .iter()
            .map(|c| (c.key.as_str(), c.cycles))
            .collect()
    }
}

/// Digest of per-cell simulated cycles, independent of execution order.
pub fn digest(pass: &Pass) -> u64 {
    let mut h = FNV_OFFSET;
    for (k, c) in pass.cycles_by_key() {
        h = fnv1a(k.as_bytes(), h);
        h = fnv1a(&c.to_le_bytes(), h);
    }
    h
}

/// Passes for a measuring phase of `seconds` when a pass takes about
/// `nominal_s` (measured on a 2-core x86-64 host): at least one. The
/// count depends on the arguments only, never on the host's speed, so
/// every run of a workload takes the same number of samples and its
/// percentiles are the same order statistics.
pub fn pass_count(seconds: f64, nominal_s: f64) -> usize {
    ((seconds / nominal_s).round() as usize).max(1)
}

/// Records a check failure unless `b` simulated exactly `a`'s cycles on
/// exactly `a`'s cells.
pub fn same_cycles(ctx: &mut Ctx, a: &Pass, b: &Pass, what: &str) {
    let (ka, kb) = (a.cycles_by_key(), b.cycles_by_key());
    ctx.check(ka == kb, || {
        let diff = ka
            .iter()
            .find(|(k, c)| kb.get(*k) != Some(c))
            .map_or("cell sets differ".to_string(), |(k, c)| {
                format!("{k}: {c} vs {:?}", kb.get(k))
            });
        format!("simulated cycles differ in {what}: {diff}")
    });
}

/// Runs `reps` set-ups (at least 3) and `passes` timed passes, spreading
/// the set-ups evenly between the passes: the host's speed drifts over
/// tens of seconds, so the set-ups and the passes each sample the whole
/// run rather than its start or its end. Each pass runs on the latest
/// set-up and must simulate the first pass's cycles. Set-up is
/// deterministic, so `fingerprint` must agree across repetitions.
/// Returns the last set-up, the median set-up time and the passes.
pub fn setups_and_passes<T>(
    ctx: &mut Ctx,
    reps: usize,
    mut setup: impl FnMut(&mut Ctx) -> T,
    fingerprint: impl Fn(&T) -> u64,
    passes: usize,
    mut pass: impl FnMut(&mut Ctx, &T) -> Pass,
) -> (T, f64, Vec<Pass>) {
    assert!(reps >= 3, "a median needs at least three set-ups");
    let mut times = Vec::with_capacity(reps);
    let mut kept: Option<(T, u64)> = None;
    let mut out: Vec<Pass> = Vec::with_capacity(passes);
    for i in 0..passes.max(1) {
        // Set-up j runs before pass j * passes / reps.
        while times.len() < reps && times.len() * passes / reps <= i {
            // Free the previous repetition first, so peak memory is one
            // set-up's worth.
            let prev_fp = kept.take().map(|(_, fp)| fp);
            let t = Instant::now();
            let open = ctx.tracer.enter("bench.setup", 0);
            let built = setup(ctx);
            ctx.tracer.exit(open);
            times.push(t.elapsed().as_secs_f64());
            let fp = fingerprint(&built);
            if let Some(prev) = prev_fp {
                ctx.check(prev == fp, || {
                    format!("set-up is not deterministic: fingerprint {prev:016x} then {fp:016x}")
                });
            }
            kept = Some((built, fp));
        }
        if i < passes {
            let p = pass(ctx, &kept.as_ref().expect("set-up 0 runs first").0);
            if let Some(first) = out.first() {
                same_cycles(ctx, first, &p, "a later pass");
            }
            out.push(p);
        }
    }
    if !out.is_empty() {
        let walls: Vec<String> = out.iter().map(|p| format!("{:.3}", p.wall_s)).collect();
        eprintln!("pass wall times (s): {}", walls.join(" "));
    }
    (kept.expect("reps >= 3").0, median(&times), out)
}

/// Host seconds spent in each set-up phase of one repetition.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupPhases {
    pub build_s: f64,
    pub capture_s: f64,
    pub encode_s: f64,
}

/// Builds `wl` at `scale` inside a `workloads.build` span.
pub fn build(
    ctx: &mut Ctx,
    wl: &dyn etpp_workloads::Workload,
    scale: etpp_workloads::Scale,
    phases: &mut SetupPhases,
) -> BuiltWorkload {
    let t = Instant::now();
    let built = ctx.tracer.span("workloads.build", 0, || wl.build(scale));
    phases.build_s += t.elapsed().as_secs_f64();
    built
}

/// Captures `wl` from a validated no-prefetch cycle run and returns its
/// `.etpt` encoding, made in memory.
pub fn capture(
    ctx: &mut Ctx,
    cfg: &SystemConfig,
    wl: &BuiltWorkload,
    scale_label: &str,
    phases: &mut SetupPhases,
) -> Vec<u8> {
    let t = Instant::now();
    let (run, trace) = ctx.tracer.span("trace.capture", 0, || {
        etpp_sim::run_captured(cfg, PrefetchMode::None, wl, scale_label)
            .expect("the no-prefetch mode runs on every workload")
    });
    phases.capture_s += t.elapsed().as_secs_f64();
    ctx.check(run.validated, || {
        format!("{}: capture run failed validation", wl.name)
    });
    let t = Instant::now();
    let bytes = ctx.tracer.span("trace.encode", 0, || encode(&trace));
    phases.encode_s += t.elapsed().as_secs_f64();
    bytes
}

fn encode(trace: &CapturedTrace) -> Vec<u8> {
    let mut w = TraceWriter::new(Vec::new(), &trace.meta).expect("writing to memory cannot fail");
    for r in &trace.records {
        w.record(r).expect("writing to memory cannot fail");
    }
    w.finish().expect("writing to memory cannot fail").0
}

/// Decodes `.etpt` bytes inside a `trace.decode` span.
pub fn decode(ctx: &mut Ctx, bytes: &[u8], cell: u32) -> CapturedTrace {
    ctx.tracer.span("trace.decode", cell, || {
        TraceReader::new(bytes)
            .and_then(|r| r.read_to_end())
            .expect("bytes encoded in this run decode")
    })
}

/// Demand accesses a cycle-level run simulated.
pub fn demand_accesses(mem: &etpp_mem::MemStats) -> u64 {
    let l1 = &mem.l1;
    l1.read_hits + l1.read_misses + l1.write_hits + l1.write_misses
}

/// Whether `mode` can run on `wl` on the cycle core (the paper's missing
/// bars are not run).
pub fn cycle_runnable(cfg: &SystemConfig, mode: PrefetchMode, wl: &BuiltWorkload) -> bool {
    match mode {
        PrefetchMode::Software => wl.sw_trace.is_some(),
        _ => etpp_sim::make_engine(cfg, mode, wl).is_ok(),
    }
}

/// Whether `mode` can replay `wl`'s stream (an engine exists for it).
pub fn replay_runnable(cfg: &SystemConfig, mode: PrefetchMode, wl: &BuiltWorkload) -> bool {
    mode != PrefetchMode::Software && etpp_sim::make_engine(cfg, mode, wl).is_ok()
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// End-to-end metrics common to the two grids. A cell's time is its
/// mean over the passes, so `wall_s` is the mean pass: the host's speed
/// drifts over seconds, and every pass samples it at other moments. The
/// percentiles are taken over those per-cell times. Returns the tail's
/// percentile and the number of cells.
pub fn grid_e2e(passes: &[Pass], values: &mut Values) -> (f64, usize) {
    let mut per_cell: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for p in passes {
        for c in &p.cells {
            per_cell.entry(c.key.as_str()).or_default().push(c.ms);
        }
    }
    let cell_ms: Vec<f64> = per_cell.values().map(|ms| mean(ms)).collect();
    let wall_s = mean(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let first = &passes[0];
    let accesses: u64 = first.cells.iter().map(|c| c.accesses).sum();
    let (pct, tail) = crate::stats::tail(&cell_ms);
    values.set("wall_s", wall_s);
    values.set("sim_maccess_per_s", accesses as f64 / wall_s / 1e6);
    values.set("cells_per_s", first.cells.len() as f64 / wall_s);
    values.set("cell_ms_p50", median(&cell_ms));
    values.set("cell_ms_tail", tail);
    (pct, cell_ms.len())
}
