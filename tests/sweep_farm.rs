//! Sweep-farm contracts: merged tables are byte-identical for any
//! (jobs, shard-count) split of the same sweep, and the content-hash
//! result cache hits on every warm lookup while a config change misses
//! exactly the changed cells.

use etpp::sim::replay::load_or_capture;
use etpp::sim::sweeps::{self, axes, SweepOptions, SweepSpec};
use etpp::sim::{PrefetchMode, SystemConfig};
use etpp::workloads::{workload_by_name, Scale};
use std::path::PathBuf;

fn probe_spec() -> SweepSpec {
    SweepSpec {
        name: "farm-test",
        base: SystemConfig::paper(),
        modes: vec![PrefetchMode::Stride, PrefetchMode::Manual],
        axes: vec![axes::obs_queue(&[10, 40]), axes::pf_buffer(&[16, 64])],
    }
}

fn opts(jobs: usize, shard: (usize, usize), cache_dir: Option<PathBuf>) -> SweepOptions {
    SweepOptions {
        cache_dir,
        shard,
        ..SweepOptions::new(jobs, "tiny")
    }
}

/// A scratch directory that cleans up after itself even on panic.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let p = std::env::temp_dir().join(format!("etpp-sweep-farm-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        TempDir(p)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn merged_tables_are_byte_identical_for_any_jobs_and_shard_split() {
    let spec = probe_spec();
    let wl = workload_by_name("IntSort").unwrap().build(Scale::Tiny);
    let cap = load_or_capture(None, &spec.base, &wl, "tiny").expect("capture");
    let wls = std::slice::from_ref(&wl);
    let caps = std::slice::from_ref(&cap);

    let render = |jobs: usize, n_shards: usize| -> String {
        let files: Vec<sweeps::ShardFile> = (0..n_shards)
            .map(|k| {
                let run = sweeps::run_sweep(&spec, wls, caps, &opts(jobs, (k, n_shards), None));
                sweeps::parse_shard(&run.to_json()).expect("own shard file parses")
            })
            .collect();
        sweeps::render_merged(&sweeps::merge_shards(&files).expect("full coverage"))
    };

    let reference = render(1, 1);
    assert!(
        reference.contains("obs_queue=10 pf_buffer=16"),
        "settings rendered:\n{reference}"
    );
    for (jobs, shards) in [(4, 1), (1, 4), (4, 4), (2, 3)] {
        assert_eq!(
            reference,
            render(jobs, shards),
            "jobs={jobs} shards={shards} changed the merged tables"
        );
    }
}

#[test]
fn result_cache_hits_warm_and_invalidates_exactly_changed_cells() {
    let spec = probe_spec();
    let wl = workload_by_name("IntSort").unwrap().build(Scale::Tiny);
    let cap = load_or_capture(None, &spec.base, &wl, "tiny").expect("capture");
    let wls = std::slice::from_ref(&wl);
    let caps = std::slice::from_ref(&cap);
    let tmp = TempDir::new("cache");
    let run = |spec: &SweepSpec| {
        sweeps::run_sweep(spec, wls, caps, &opts(2, (0, 1), Some(tmp.0.clone())))
    };

    // Cold: every lookup (8 cells + the baseline) executes and populates.
    let cold = run(&spec);
    assert_eq!(cold.cache_hits(), 0, "cold run must not hit");
    assert_eq!(cold.cache_misses(), 9);

    // Warm: every lookup hits; the merged tables (which exclude cache
    // status — it is the one legitimately nondeterministic field) come
    // back byte-identical.
    let warm = run(&spec);
    assert_eq!(warm.cache_misses(), 0, "warm run must hit every cell");
    assert_eq!(warm.cache_hits(), 9);
    let tables = |r: &sweeps::ShardRun| {
        let f = sweeps::parse_shard(&r.to_json()).expect("shard parses");
        sweeps::render_merged(&sweeps::merge_shards(std::slice::from_ref(&f)).expect("covered"))
    };
    assert_eq!(tables(&cold), tables(&warm));
    assert!(warm.cells.iter().all(|c| c.cached));

    // A changed axis value invalidates exactly the changed cells: the
    // baseline and the obs_queue=10 half still hit, the new obs_queue=80
    // half misses.
    let mut changed = probe_spec();
    changed.axes[0] = axes::obs_queue(&[10, 80]);
    let partial = run(&changed);
    assert_eq!(partial.cache_hits(), 5, "baseline + 4 unchanged cells");
    assert_eq!(partial.cache_misses(), 4, "4 obs_queue=80 cells are new");
    for c in &partial.cells {
        let expect_hit = c.settings.iter().any(|&(n, v)| n == "obs_queue" && v == 10);
        assert_eq!(
            c.cached, expect_hit,
            "cell {:?} cache attribution wrong",
            c.settings
        );
    }
}

#[test]
fn composed_grid_covers_the_documented_cross_product() {
    let spec = sweeps::composed_grid();
    // 6 modes × 4 obs_queue × 2 req_queue × 4 lookahead_scale ×
    // 4 pf_buffer × 2 num_ppus × 2 ppu_hz.
    assert_eq!(spec.cells_per_workload(), 3072);
    assert_eq!(spec.total_jobs(2), 6144);
    assert!(spec
        .axes
        .iter()
        .any(|a| a.name == "lookahead_scale" && a.values.contains(&0)));
    // The grown axes (PR 7's ROADMAP leftover) and the zoo modes.
    for name in ["req_queue", "num_ppus", "ppu_hz"] {
        assert!(
            spec.axes.iter().any(|a| a.name == name),
            "missing axis {name}"
        );
    }
    for mode in [PrefetchMode::RptStride, PrefetchMode::PcDelta] {
        assert!(spec.modes.contains(&mode), "missing zoo mode {mode:?}");
    }
}
