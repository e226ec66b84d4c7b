//! Absolute-cycle agreement between trace replay and the cycle core.
//!
//! The v1 replay front end (fixed 8-deep issue window, no dependence
//! edges) replays pointer-chase workloads optimistically: every load in
//! the window issues as soon as a slot frees, so traversal
//! serialisation is under-modelled and absolute cycle counts sit well
//! below the cycle core's. Format-v2 traces record load→load dependence
//! edges and replay them with a dependence-aware scheduler
//! ([`ReplayParams::dependence_aware`]). At Tiny scale, on four of the
//! eight Table-2 workloads that brings replay's absolute cycles inside
//! a pinned tolerance of the cycle core and strictly closer than v1; on
//! the other four it does not, and their errors are pinned so a change
//! is seen.
//!
//! Tolerances are pinned from measured values (same-host, deterministic
//! simulation) recorded next to each constant.

use etpp::sim::{replay as rp, run, run_captured, PrefetchMode, SystemConfig};
use etpp::trace::ReplayParams;
use etpp::workloads::{workload_by_name, Scale};

/// The legacy v1 replay front end: what `replay_run` used before
/// dependence edges existed (and still uses on v1 streams).
fn v1_params() -> ReplayParams {
    ReplayParams {
        window: 8,
        dependence_aware: false,
        ..ReplayParams::default()
    }
}

/// Relative absolute-cycle error of a replayed count vs the cycle core.
fn rel_err(replayed: u64, cycle: u64) -> f64 {
    (replayed as f64 - cycle as f64).abs() / cycle.max(1) as f64
}

struct Agreement {
    workload: &'static str,
    mode: PrefetchMode,
    cycle: u64,
    v1_err: f64,
    v2_err: f64,
}

/// Captures `wl` once, then runs the cycle core and both replay front
/// ends under each of `modes` and reports the two absolute-cycle errors
/// per mode.
fn measure(
    wl: &etpp::workloads::BuiltWorkload,
    modes: &[PrefetchMode],
    label: &str,
) -> Vec<Agreement> {
    let cfg = SystemConfig::paper();
    let (baseline, trace) =
        run_captured(&cfg, PrefetchMode::None, wl, label).expect("baseline runs");
    assert!(baseline.validated);
    assert_eq!(
        trace.meta.capture_cycles, baseline.cycles,
        "the capture must carry the cycle core's cycle count"
    );
    let agreement = |mode: PrefetchMode| {
        let cycle = if mode == PrefetchMode::None {
            baseline.cycles
        } else {
            run(&cfg, mode, wl).expect("mode expressible").cycles
        };
        let v1 = rp::replay_run_with(&cfg, mode, wl, &trace.records, &v1_params(), None)
            .expect("replays");
        let v2 = rp::replay_run(&cfg, mode, wl, &trace.records).expect("replays");
        assert!(
            v1.validated && v2.validated,
            "replays must reproduce output"
        );
        assert!(
            v2.dep_stalls > 0,
            "{}: dependence-aware replay must actually serialise some loads",
            wl.name
        );
        let a = Agreement {
            workload: wl.name,
            mode,
            cycle,
            v1_err: rel_err(v1.cycles, cycle),
            v2_err: rel_err(v2.cycles, cycle),
        };
        eprintln!(
            "{label} {}/{:?}: cycle={} v1_err={:.4} v2_err={:.4}",
            a.workload, a.mode, a.cycle, a.v1_err, a.v2_err
        );
        a
    };
    modes.iter().map(|&m| agreement(m)).collect()
}

/// Tiny-scale agreement on all eight Table-2 workloads, run on every
/// `cargo test`. Measured on the pinning host (debug and release
/// identical — the simulator is deterministic):
///
/// | workload  | mode   | v1 err | v2 err |
/// |-----------|--------|--------|--------|
/// | G500-CSR  | none   | 0.0321 | 0.4703 |
/// | G500-CSR  | manual | 0.0921 | 0.2407 |
/// | G500-List | none   | 0.8531 | 0.0196 |
/// | G500-List | manual | 0.8353 | 0.0187 |
/// | HJ-2      | none   | 0.4693 | 0.2965 |
/// | HJ-2      | manual | 0.4582 | 0.3625 |
/// | HJ-8      | none   | 0.8583 | 0.1480 |
/// | HJ-8      | manual | 0.7825 | 0.1451 |
/// | PageRank  | none   | 0.0672 | 0.2003 |
/// | PageRank  | manual | 0.3296 | 0.0705 |
/// | RandAcc   | none   | 0.4201 | 0.4039 |
/// | RandAcc   | manual | 0.1852 | 0.1550 |
/// | IntSort   | none   | 0.3021 | 0.0774 |
/// | IntSort   | manual | 0.2922 | 0.1244 |
/// | ConjGrad  | none   | 0.2511 | 0.1654 |
/// | ConjGrad  | manual | 0.2799 | 0.1972 |
///
/// The four workloads in [`TINY_STRICT`] pass the strict gate: v2
/// beats v1 and stays within [`TINY_V2_TOLERANCE`].
const TINY_V2_TOLERANCE: f64 = 0.25;

/// Workloads where dependence-aware replay is strictly closer to the
/// cycle core than v1 and inside [`TINY_V2_TOLERANCE`].
const TINY_STRICT: [&str; 4] = ["IntSort", "HJ-8", "G500-List", "ConjGrad"];

/// The other four workloads do not pass the strict gate: v2 is worse
/// than v1 on G500-CSR (both modes) and PageRank/none, and HJ-2 and
/// RandAcc/none sit outside [`TINY_V2_TOLERANCE`]. Their v2 errors are
/// pinned instead, so a front-end change that moves them is seen.
///
/// `(workload, mode, v2 err)`
const TINY_V2_PINNED: &[(&str, PrefetchMode, f64)] = &[
    ("G500-CSR", PrefetchMode::None, 0.4703),
    ("G500-CSR", PrefetchMode::Manual, 0.2407),
    ("HJ-2", PrefetchMode::None, 0.2965),
    ("HJ-2", PrefetchMode::Manual, 0.3625),
    ("PageRank", PrefetchMode::None, 0.2003),
    ("PageRank", PrefetchMode::Manual, 0.0705),
    ("RandAcc", PrefetchMode::None, 0.4039),
    ("RandAcc", PrefetchMode::Manual, 0.1550),
];

#[test]
fn tiny_dependence_aware_replay_is_strictly_closer_than_v1() {
    for name in TINY_STRICT {
        let wl = workload_by_name(name).unwrap().build(Scale::Tiny);
        for a in measure(&wl, &[PrefetchMode::None, PrefetchMode::Manual], "tiny") {
            let mode = a.mode;
            assert!(
                a.v2_err < a.v1_err,
                "{name}/{mode:?}: v2 ({:.4}) must beat v1 ({:.4})",
                a.v2_err,
                a.v1_err
            );
            assert!(
                a.v2_err <= TINY_V2_TOLERANCE,
                "{name}/{mode:?}: v2 error {:.4} above tolerance {TINY_V2_TOLERANCE}",
                a.v2_err
            );
        }
    }
}

#[test]
fn tiny_replay_error_matches_pinned_values_off_the_strict_gate() {
    for name in ["G500-CSR", "HJ-2", "PageRank", "RandAcc"] {
        let wl = workload_by_name(name).unwrap().build(Scale::Tiny);
        for a in measure(&wl, &[PrefetchMode::None, PrefetchMode::Manual], "tiny") {
            let mode = a.mode;
            let &(_, _, v2_pinned) = TINY_V2_PINNED
                .iter()
                .find(|p| (p.0, p.1) == (name, mode))
                .expect("every off-gate cell is pinned");
            assert!(
                (a.v2_err - v2_pinned).abs() <= PIN_SLACK,
                "{name}/{mode:?}: v2 error {:.4} drifted from pinned {v2_pinned:.4}",
                a.v2_err
            );
        }
    }
}

/// Small-scale pinned agreement — the scale the ROADMAP item is
/// measured at. Values measured on the pinning host (deterministic):
/// the dependence-aware front end cuts the manual-mode absolute-cycle
/// error from 18.7% to 13.6% on IntSort and from 68.3% to 8.6% on HJ-8
/// (replay remains optimistic — no front-end or branch modelling).
///
/// `(workload, v1 manual err, v2 manual err)`
const SMALL_MANUAL_MEASURED: &[(&str, f64, f64)] =
    &[("IntSort", 0.1865, 0.1361), ("HJ-8", 0.6833, 0.0858)];

/// v2 manual-mode absolute-cycle error ceiling at Small scale.
const SMALL_V2_TOLERANCE: f64 = 0.15;

/// Slack around the pinned measured errors: simulation is
/// deterministic, so drift here means the front-end model changed —
/// re-measure and re-pin deliberately, don't widen the slack.
const PIN_SLACK: f64 = 0.02;

#[test]
#[ignore = "small-scale cycle runs; run with --ignored in release (CI does)"]
fn small_scale_manual_agreement_matches_pinned_values() {
    if cfg!(debug_assertions) {
        eprintln!("skipped: small-scale fidelity is pinned in release builds only");
        return;
    }
    for &(name, v1_pinned, v2_pinned) in SMALL_MANUAL_MEASURED {
        let wl = workload_by_name(name).unwrap().build(Scale::Small);
        let a = &measure(&wl, &[PrefetchMode::Manual], "small")[0];
        assert!(
            a.v2_err < a.v1_err,
            "{name}: v2 ({:.4}) must beat v1 ({:.4})",
            a.v2_err,
            a.v1_err
        );
        assert!(
            a.v2_err <= SMALL_V2_TOLERANCE,
            "{name}: v2 error {:.4} above tolerance {SMALL_V2_TOLERANCE}",
            a.v2_err
        );
        assert!(
            (a.v1_err - v1_pinned).abs() <= PIN_SLACK,
            "{name}: v1 error {:.4} drifted from pinned {v1_pinned:.4}",
            a.v1_err
        );
        assert!(
            (a.v2_err - v2_pinned).abs() <= PIN_SLACK,
            "{name}: v2 error {:.4} drifted from pinned {v2_pinned:.4}",
            a.v2_err
        );
    }
}
