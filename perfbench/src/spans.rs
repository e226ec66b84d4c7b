//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name (the layer call it wraps), a start and end in
//! nanoseconds since the tracer was created, the span that was open when
//! it began, and a cell id shared by every span of one simulated cell
//! (0 outside cells). Nothing is recorded while the tracer is disabled,
//! so untraced runs pay one branch per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub cell: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Handle to an open span (index into the span list).
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// The span recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "toggle tracing between spans only");
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` for cell `cell`, nested in the span
    /// currently open.
    pub fn enter(&mut self, name: &'static str, cell: u32) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            cell,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes `open`, which must be the innermost open span, and
    /// returns its duration in seconds (0 while disabled).
    pub fn exit(&mut self, open: Open) -> f64 {
        let Some(idx) = open.0 else { return 0.0 };
        let top = self.stack.pop();
        assert_eq!(top, Some(idx), "spans must close innermost first");
        self.spans[idx].end_ns = self.now_ns();
        self.spans[idx].dur_s()
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, cell: u32, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name, cell);
        let out = f();
        self.exit(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part its direct
    /// children cover (children never overlap: one thread records).
    pub fn self_times_s(&self) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c) as f64 * 1e-9)
            .collect()
    }

    /// Per span name: (count, total seconds, self seconds).
    pub fn layer_table(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut table: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times_s()) {
            let e = table.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_s();
            e.2 += own;
        }
        table
    }

    /// The spans in Chrome trace-event format (`ph: X`, microseconds),
    /// loadable in Perfetto; `args` carries the cell id and parent.
    pub fn chrome_json(&self) -> String {
        let mut j = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                j,
                "  {{\"name\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"pid\": 0, \"tid\": 0, \"args\": {{\"id\": {i}, \"cell\": {}, \"parent\": {parent}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.cell,
            );
            j.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        j.push_str("]}\n");
        j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let x = t.span("a", 1, || 5);
        assert_eq!(x, 5);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer", 0);
        let inner = t.enter("inner", 1);
        let leaf = t.enter("leaf", 1);
        t.exit(leaf);
        t.exit(inner);
        t.exit(outer);
        // Overwrite the clock readings with known values.
        let times = [(0, 100), (10, 60), (20, 30)];
        for (s, (a, b)) in t.spans.iter_mut().zip(times) {
            s.start_ns = a;
            s.end_ns = b;
        }
        let own: Vec<f64> = t.self_times_s().iter().map(|s| s * 1e9).collect();
        assert!((own[0] - 50.0).abs() < 1e-6);
        assert!((own[1] - 40.0).abs() < 1e-6);
        assert!((own[2] - 10.0).abs() < 1e-6);
        assert_eq!(t.spans()[2].parent, Some(1));
        assert_eq!(t.spans()[1].cell, 1);
    }
}
