//! Every metric the benchmark reports: name, unit, direction, and — for
//! the per-layer metrics — the end-to-end metric and workload each one
//! should move. `BENCHMARK.json` at the repository root lists the same
//! names, units and directions (`--list-metrics` prints this table so a
//! test can compare the two).

use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Which run reports a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Untraced runs (`--trace 0`).
    EndToEnd,
    /// Traced runs (`--trace 1`).
    PerLayer,
}

#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub kind: Kind,
    /// End-to-end: the share of the parent's median by which the metric
    /// may worsen. Per-layer: unused (0).
    pub bound: f64,
    /// Per-layer: which end-to-end metric on which workload it should
    /// move (empty for end-to-end metrics).
    pub moves: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Def {
    Def {
        name,
        unit,
        higher_is_better: higher,
        kind: Kind::EndToEnd,
        bound,
        moves: "",
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool, moves: &'static str) -> Def {
    Def {
        name,
        unit,
        higher_is_better: higher,
        kind: Kind::PerLayer,
        bound: 0.0,
        moves,
    }
}

/// The replay pair and its five modes (ROADMAP item 2's scale and modes).
pub const REPLAY_WORKLOADS: [&str; 2] = ["IntSort", "HJ-8"];
pub const REPLAY_MODES: [&str; 5] = ["none", "stride", "pc_delta", "converted", "manual"];

/// `HorizonSource` keys, in `HorizonSource::ALL` order.
pub const VISIT_KEYS: [&str; 11] = [
    "core_progress",
    "load_retry",
    "lq_full",
    "store_writeback",
    "fetch_stall",
    "fu_completion",
    "oldest_miss",
    "mem_event",
    "engine_round",
    "pending_delivery",
    "finish",
];

/// What the sweep layer's metrics move: the farm runs on each grid's
/// streams in traced runs, outside every timed phase.
const SWEEP: &str = "the sweep farm (repro --sweep) on either grid's streams; no timed phase";

/// The fixed-name metrics. Per-workload families (`replay.vs_cycle.*`,
/// `replay.agreement.*`, `cpu.visits.*`) are expanded by [`all`].
pub const FIXED: &[Def] = &[
    e2e("setup_s", "s", false, 0.25),
    e2e("wall_s", "s", false, 0.24),
    e2e("sim_maccess_per_s", "Maccess/s", true, 0.24),
    e2e("cells_per_s", "1/s", true, 0.24),
    e2e("peak_rss_mb", "MiB", false, 0.24),
    // Per-cell host time (each cell's mean over the passes). Not bounded:
    // replay-small has ten cells, so its p50 lies between two of them and
    // carries their noise on top of the host's.
    layer("cell_ms_p50", "ms", false, "wall_s on both workloads"),
    layer(
        "cell_ms_tail",
        "ms",
        false,
        "wall_s on cycle-tiny (p75 of its 92 cells; p50 on replay-small)",
    ),
    layer("workloads.build_s", "s", false, "setup_s on both workloads"),
    layer("trace.capture_s", "s", false, "setup_s on replay-small"),
    layer("trace.encode_s", "s", false, "setup_s on replay-small"),
    layer(
        "trace.decode_s",
        "s",
        false,
        "wall_s and peak_rss_mb on replay-small; none on cycle-tiny",
    ),
    layer(
        "trace.decode_mrec_per_s",
        "Mrec/s",
        true,
        "wall_s on replay-small; none on cycle-tiny",
    ),
    layer(
        "trace.bytes_per_record",
        "B/rec",
        false,
        "peak_rss_mb on replay-small; none on cycle-tiny",
    ),
    layer(
        "replay.null_s",
        "s",
        false,
        "sim_maccess_per_s on replay-small",
    ),
    layer(
        "replay.host_iters",
        "count",
        false,
        "sim_maccess_per_s on replay-small",
    ),
    layer(
        "replay.ff",
        "cyc/visit",
        true,
        "sim_maccess_per_s on replay-small",
    ),
    layer(
        "replay.ns_per_visit",
        "ns",
        false,
        "sim_maccess_per_s on replay-small",
    ),
    layer(
        "replay.dep_stalls",
        "count",
        false,
        "sim_maccess_per_s on replay-small",
    ),
    layer(
        "replay_cycle_err",
        "ratio",
        false,
        "replay fidelity on replay-small",
    ),
    layer(
        "cpu.core_s",
        "s",
        false,
        "wall_s on cycle-tiny; none on replay-small",
    ),
    layer("cpu.host_iters", "count", false, "wall_s on cycle-tiny"),
    layer("cpu.ff", "cyc/visit", true, "wall_s on cycle-tiny"),
    layer("cpu.ns_per_visit", "ns", false, "wall_s on cycle-tiny"),
    layer(
        "mem.cache_ns",
        "ns",
        false,
        "wall_s on cycle-tiny (L1-resident)",
    ),
    layer(
        "mem.dram_ns",
        "ns",
        false,
        "wall_s on replay-small (DRAM-bound)",
    ),
    layer(
        "mem.tick_ns",
        "ns",
        false,
        "wall_s on cycle-tiny and replay-small",
    ),
    layer(
        "mem.l1_miss_rate",
        "ratio",
        false,
        "wall_s on cycle-tiny and replay-small",
    ),
    layer("mem.l2_miss_rate", "ratio", false, "wall_s on replay-small"),
    layer("mem.dram_reads", "count", false, "wall_s on replay-small"),
    layer(
        "mem.pf_issued",
        "count",
        false,
        "wall_s on cycle-tiny and replay-small",
    ),
    layer(
        "mem.pf_useful_frac",
        "ratio",
        true,
        "simulated speed-up on cycle-tiny",
    ),
    layer(
        "mem.late_pf_merges",
        "count",
        false,
        "simulated speed-up on cycle-tiny",
    ),
    layer("core.engine_cycle_s", "s", false, "wall_s on cycle-tiny"),
    layer(
        "baselines.engine_cycle_s",
        "s",
        false,
        "wall_s on cycle-tiny",
    ),
    layer("core.engine_replay_s", "s", false, "wall_s on replay-small"),
    layer("isa.kernel_ns", "ns", false, "wall_s on cycle-tiny"),
    layer(
        "core.event_ns",
        "ns",
        false,
        "wall_s on cycle-tiny and replay-small",
    ),
    layer("core.events_run", "count", false, "wall_s on cycle-tiny"),
    layer(
        "core.insts_executed",
        "count",
        false,
        "wall_s on cycle-tiny",
    ),
    layer(
        "core.obs_drop_frac",
        "ratio",
        false,
        "simulated speed-up on cycle-tiny",
    ),
    layer("core.ppu_busy_frac", "ratio", false, "wall_s on cycle-tiny"),
    layer("sweep.cold_s", "s", false, SWEEP),
    layer("sweep.warm_ms", "ms", false, SWEEP),
    layer("sweep.escalated_frac", "ratio", false, SWEEP),
    layer("sweep.retries", "count", false, SWEEP),
    layer("sweep.quarantined", "count", false, SWEEP),
    layer(
        "sweep.hit_ratio",
        "ratio",
        true,
        "the sweep farm's warm pass, outside the timed phase (must be 1)",
    ),
    layer("sweep.parallel_speedup", "x", true, SWEEP),
    layer(
        "watchdog.overhead_ratio",
        "ratio",
        false,
        "host cost of the watchdog every sweep cell runs under (run_watched over run)",
    ),
    layer(
        "sim.cycles_total",
        "cycles",
        false,
        "simulated result: a speed-only change keeps it",
    ),
    layer(
        "sim.speedup_geomean.manual",
        "x",
        true,
        "simulated result: a speed-only change keeps it",
    ),
    layer(
        "bench.span_overhead",
        "ratio",
        false,
        "tracing cost (traced over untraced wall, minus 1)",
    ),
];

/// Every metric: [`FIXED`] plus the per-workload families.
pub fn all() -> &'static [Def] {
    static ALL: OnceLock<Vec<Def>> = OnceLock::new();
    ALL.get_or_init(expand)
}

fn expand() -> Vec<Def> {
    let mut defs: Vec<Def> = FIXED.to_vec();
    for wl in REPLAY_WORKLOADS {
        defs.push(layer(
            leak(format!("replay.vs_cycle.{wl}")),
            "x",
            true,
            "ROADMAP item 2's decision number (replay-small)",
        ));
    }
    for wl in REPLAY_WORKLOADS {
        for mode in REPLAY_MODES {
            defs.push(layer(
                leak(format!("replay.agreement.{wl}.{mode}")),
                "ratio",
                true,
                "replay_cycle_err on replay-small (replay over cycle-core cycles; 1 is exact)",
            ));
        }
    }
    for key in VISIT_KEYS {
        defs.push(layer(
            leak(format!("cpu.visits.{key}")),
            "count",
            false,
            "wall_s on cycle-tiny",
        ));
    }
    defs
}

fn leak(s: String) -> &'static str {
    Box::leak(s.into_boxed_str())
}

/// Metric values of one run, keyed by name.
#[derive(Debug, Default)]
pub struct Values(pub BTreeMap<&'static str, f64>);

impl Values {
    /// Sets metric `name`, which must be one of [`all`]'s names.
    pub fn set(&mut self, name: &str, v: f64) {
        let def = all()
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("unknown metric {name}"));
        self.0.insert(def.name, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let defs = all();
        let mut names: Vec<&str> = defs.iter().map(|d| d.name).collect();
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(n.chars().next().unwrap().is_ascii_alphanumeric(), "{n}");
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'),
                "{n}"
            );
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
        assert!(defs.iter().all(|d| d.unit.len() <= 16));
        assert!(defs
            .iter()
            .filter(|d| d.kind == Kind::EndToEnd)
            .all(|d| d.bound > 0.0 && d.bound <= 0.25));
    }

    #[test]
    fn visit_keys_follow_horizon_sources() {
        let keys: Vec<&str> = etpp_sim::HorizonSource::ALL
            .iter()
            .map(|s| s.key())
            .collect();
        assert_eq!(keys, VISIT_KEYS);
    }
}
