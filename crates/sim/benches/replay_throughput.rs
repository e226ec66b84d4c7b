//! Trace-replay throughput benches: the event-horizon fast path against
//! the per-cycle reference loop, for a baseline and a programmable
//! engine. The `manual/*` pair is the headline of PR 2 — programmable
//! replay used to be tick-bound while baselines fast-forwarded.
//!
//! ```text
//! cargo bench -p etpp-sim --bench replay_throughput
//! ```

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use etpp_sim::{load_or_capture, make_engine, PrefetchMode, SystemConfig};
use etpp_trace::{replay, CapturedTrace, ReplayParams};
use etpp_workloads::{BuiltWorkload, Scale, Workload};

fn setup() -> (SystemConfig, BuiltWorkload, CapturedTrace) {
    let cfg = SystemConfig::paper();
    let wl = etpp_workloads::intsort::IntSort.build(Scale::Tiny);
    let trace = load_or_capture(None, &cfg, &wl, "tiny")
        .expect("capture")
        .trace;
    (cfg, wl, trace)
}

fn bench_mode(
    c: &mut Criterion,
    cfg: &SystemConfig,
    wl: &BuiltWorkload,
    trace: &CapturedTrace,
    mode: PrefetchMode,
    label: &str,
) {
    let mut g = c.benchmark_group(label);
    g.sample_size(10);
    for (name, per_cycle_reference) in [("event_horizon", false), ("per_cycle_ref", true)] {
        g.bench_function(name, |b| {
            let params = ReplayParams {
                window: 8,
                per_cycle_reference,
                ..ReplayParams::default()
            };
            b.iter(|| {
                let mut engine = make_engine(cfg, mode, wl).expect("engine mode");
                let r = replay(
                    &params,
                    cfg.mem,
                    wl.image.clone(),
                    &trace.records,
                    engine.as_dyn(),
                    None,
                );
                black_box(r.cycles)
            });
        });
    }
    g.finish();
}

fn bench_replay(c: &mut Criterion) {
    let (cfg, wl, trace) = setup();
    bench_mode(c, &cfg, &wl, &trace, PrefetchMode::None, "replay_none");
    bench_mode(c, &cfg, &wl, &trace, PrefetchMode::Manual, "replay_manual");
}

criterion_group!(benches, bench_replay);
criterion_main!(benches);
