//! Run-level observability: the phase sampler, the merged counter
//! registry and the Chrome-trace assembly for one simulation run.
//!
//! [`TelemetrySpec`] configures collection (it rides *next to*
//! [`crate::SystemConfig`], which stays `Copy`); [`TelemetryReport`] is
//! what [`crate::run_telemetry`] hands back: every component's
//! counters/histograms merged into one deterministic [`Registry`], an
//! interval [`PhaseSeries`] of the run, the prefetch lifecycle
//! classification, and (optionally) the span log rendered via
//! [`etpp_telemetry::chrome_trace_json`].

use etpp_mem::{LifecycleCounts, PcLifecycle};
use etpp_telemetry::{chrome_trace_json, Hist, PhaseSeries, Registry, SpanEvent};
use std::collections::BTreeMap;

/// Default cap on recorded span events per run (driver + memory lanes
/// each), chosen so a paper-scale trace stays well under 100 MB of JSON.
pub const DEFAULT_SPAN_CAP: usize = 200_000;

/// What to collect during a run. Separate from [`crate::SystemConfig`]
/// so the config stays `Copy` and telemetry stays strictly additive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetrySpec {
    /// Snapshot all registered counters every this many simulated
    /// cycles (samples land on the first visit at/after each boundary).
    pub sample_interval: u64,
    /// Record span events for the Chrome trace (driver visits, engine
    /// rounds, DRAM reads, fills).
    pub chrome_spans: bool,
    /// Cap on span events per sink; excess events are dropped and
    /// counted in `trace.spans_dropped`.
    pub span_cap: usize,
}

impl TelemetrySpec {
    /// Counters + histograms + phase samples + Chrome spans.
    pub fn full(sample_interval: u64) -> Self {
        TelemetrySpec {
            sample_interval,
            chrome_spans: true,
            span_cap: DEFAULT_SPAN_CAP,
        }
    }

    /// Counters + histograms + phase samples, no span log (cheapest).
    pub fn counters_only(sample_interval: u64) -> Self {
        TelemetrySpec {
            sample_interval,
            chrome_spans: false,
            span_cap: 0,
        }
    }
}

/// Columns of the phase time-series, in emission order. Scalar counters
/// are cumulative; histogram-derived columns (`*.count`, `*.p50`,
/// `*.p99`) snapshot the named histogram at the sample cycle.
pub const PHASE_COLUMNS: &[&str] = &[
    "core.insts_retired",
    "core.loads_issued",
    "core.load_retries",
    "mem.l1_read_hits",
    "mem.l1_read_misses",
    "mem.l1_late_pf_merges",
    "mem.l1_prefetch_fills",
    "mem.l1_prefetches_used",
    "mem.dram_reads",
    "pf.issued",
    "pf.accurate",
    "pf.late",
    "mem.load_latency.count",
    "mem.load_latency.p50",
    "mem.load_latency.p99",
    "mem.l1_mshr_occupancy.count",
    "mem.l1_mshr_occupancy.p99",
];

/// Everything observed during one telemetry-enabled run.
#[derive(Debug, Clone)]
pub struct TelemetryReport {
    /// All component counters and histograms, merged. Deterministic
    /// layout: two runs of the same workload produce byte-identical
    /// JSON, and shard merges are order-free.
    pub registry: Registry,
    /// The interval time-series of [`PHASE_COLUMNS`].
    pub phases: PhaseSeries,
    /// Prefetch lifecycle terminal-class counts.
    pub lifecycle: LifecycleCounts,
    /// Per-demand-PC accurate/late attribution (sorted by PC).
    pub per_pc: BTreeMap<u32, PcLifecycle>,
    /// Span events (empty unless `chrome_spans` was set).
    pub spans: Vec<SpanEvent>,
    /// Events dropped after a span sink's cap was reached.
    pub spans_dropped: u64,
}

impl TelemetryReport {
    /// The span log in Chrome trace-event JSON (Perfetto-loadable).
    pub fn chrome_trace_json(&self) -> String {
        chrome_trace_json(&self.spans)
    }
}

/// Live sampling state threaded through the driver loop (internal to
/// [`crate::system::run_inner`]; public within the crate only).
pub(crate) struct PhaseSampler {
    interval: u64,
    next_at: u64,
    pub(crate) series: PhaseSeries,
}

impl PhaseSampler {
    pub(crate) fn new(interval: u64) -> Self {
        let interval = interval.max(1);
        PhaseSampler {
            interval,
            next_at: interval,
            series: PhaseSeries::new(
                interval,
                PHASE_COLUMNS.iter().map(|s| s.to_string()).collect(),
            ),
        }
    }

    /// Whether the clock has crossed the next sample boundary.
    #[inline]
    pub(crate) fn due(&self, now: u64) -> bool {
        now >= self.next_at
    }

    /// Records a sample stamped at `now` and re-arms for the next
    /// boundary after `now` (visits can jump several intervals at
    /// once; cumulative counters make the skipped boundaries
    /// recoverable by interpolation).
    pub(crate) fn sample(&mut self, now: u64, values: Vec<u64>) {
        self.series.push(now, values);
        self.next_at = (now / self.interval + 1) * self.interval;
    }
}

/// Snapshot helper: histogram-derived phase columns.
pub(crate) fn hist_columns(h: &Hist) -> (u64, u64, u64) {
    (h.count(), h.quantile(0.5), h.quantile(0.99))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_crosses_multiple_intervals() {
        let mut s = PhaseSampler::new(100);
        assert!(!s.due(99));
        assert!(s.due(100));
        s.sample(105, vec![0; PHASE_COLUMNS.len()]);
        assert!(!s.due(150));
        assert!(s.due(200));
        // A jump over several boundaries re-arms past the jump.
        s.sample(437, vec![1; PHASE_COLUMNS.len()]);
        assert!(!s.due(499));
        assert!(s.due(500));
        assert_eq!(s.series.samples.len(), 2);
        assert_eq!(s.series.samples[1].cycle, 437);
    }
}
