//! Re-measures the absolute-cycle agreement numbers pinned in
//! `tests/replay_fidelity.rs` (plus window variants around them),
//! printing replayed cycles and signed relative error vs the cycle core
//! per front-end configuration:
//!
//! ```text
//! cargo run --release -p etpp-sim --example fidelity_probe
//! ```
//!
//! Run this before re-pinning the fidelity constants after a deliberate
//! front-end model change; the `v2w8` column is what `replay_run` uses.

use etpp_sim::{replay as rp, run, run_captured, PrefetchMode, SystemConfig};
use etpp_trace::ReplayParams;
use etpp_workloads::{workload_by_name, Scale};

fn main() {
    let cfg = SystemConfig::paper();
    for name in ["IntSort", "HJ-8"] {
        let wl = workload_by_name(name).unwrap().build(Scale::Small);
        let (base, trace) = run_captured(&cfg, PrefetchMode::None, &wl, "small").unwrap();
        for mode in [PrefetchMode::None, PrefetchMode::Manual] {
            let cycle = if mode == PrefetchMode::None {
                base.cycles
            } else {
                run(&cfg, mode, &wl).unwrap().cycles
            };
            print!("{name}/{mode:?}: cycle={cycle}");
            for (label, params) in [
                (
                    "v1w8",
                    ReplayParams {
                        window: 8,
                        dependence_aware: false,
                        ..Default::default()
                    },
                ),
                (
                    "v2w8",
                    ReplayParams {
                        window: 8,
                        ..Default::default()
                    },
                ),
                (
                    "v2w12",
                    ReplayParams {
                        window: 12,
                        ..Default::default()
                    },
                ),
                (
                    "v2w16",
                    ReplayParams {
                        window: 16,
                        ..Default::default()
                    },
                ),
                (
                    "v2w16g1",
                    ReplayParams {
                        window: 16,
                        issue_gap: 1,
                        gap_cap: 1,
                        ..Default::default()
                    },
                ),
                (
                    "v2w16g2",
                    ReplayParams {
                        window: 16,
                        gap_cap: 2,
                        ..Default::default()
                    },
                ),
            ] {
                let r =
                    rp::replay_run_with(&cfg, mode, &wl, &trace.records, &params, None).unwrap();
                print!(
                    " {label}={} ({:+.3})",
                    r.cycles,
                    r.cycles as f64 / cycle as f64 - 1.0
                );
            }
            println!();
        }
    }
}
