//! Spans recorded by the benchmark around each public call it replays.
//!
//! Spans stay in memory and are written out once, at the end of a traced
//! run. A span's layer is its name up to the first `.` (`core.price` is
//! the `core` crate's); its self time is its duration minus the part its
//! children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `layer.call`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The iteration the span belongs to.
    pub iteration: u32,
    /// A probe re-measures work that a sibling span repeats internally
    /// (pricing inside `Explorer::evaluate_with_telemetry`); it is not
    /// part of the direct call.
    pub probe: bool,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The crate the span's call belongs to.
    pub fn layer(&self) -> &'static str {
        self.name.split_once('.').map_or(self.name, |(l, _)| l)
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    iteration: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            iteration: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    /// Tags the spans opened from now on with `iteration`.
    pub fn set_iteration(&mut self, iteration: u32) {
        self.iteration = iteration;
    }

    fn push(&mut self, name: &'static str, probe: bool) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            iteration: self.iteration,
            probe,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) {
        self.push(name, false);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        let i = self.open.pop().expect("close() matches an open()");
        self.spans[i].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span with no children.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.push(name, false);
        let out = f();
        self.close();
        out
    }

    /// Runs `f` inside a probe span (see [`Span::probe`]).
    pub fn probe<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) {
        self.push(name, true);
        drop(f());
        self.close();
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"iteration\":{},\"probe\":{}}}",
                s.name, s.start_ns, s.end_ns, s.iteration, s.probe
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

/// Per-iteration sums the traced run reports, in ms.
#[derive(Debug, Default, Clone)]
pub struct IterationTimes {
    /// Self time per layer. Probe time is moved from `dse` (whose
    /// `dse.evaluate` span repeats the probed pricing) to the probed
    /// layer, so the layers sum to the replay without its probes.
    pub self_ms: BTreeMap<&'static str, f64>,
    /// Total duration per span name.
    pub by_name_ms: BTreeMap<&'static str, f64>,
    /// Time of non-probe children of root spans: the public calls the
    /// direct calls are made of.
    pub covered_ms: f64,
    /// Probe time.
    pub probe_ms: f64,
}

/// Sums `spans` by iteration.
pub fn iteration_times(spans: &[Span]) -> BTreeMap<u32, IterationTimes> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let ms = |ns: u64| ns as f64 / 1e6;
    let mut out: BTreeMap<u32, IterationTimes> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let it = out.entry(s.iteration).or_default();
        *it.by_name_ms.entry(s.name).or_default() += ms(s.dur_ns());
        *it.self_ms.entry(s.layer()).or_default() += ms(s.dur_ns() - child_ns[i]);
        if s.probe {
            it.probe_ms += ms(s.dur_ns());
            *it.self_ms.entry("dse").or_default() -= ms(s.dur_ns());
        }
        if s.parent.is_some_and(|p| spans[p].parent.is_none()) && !s.probe {
            it.covered_ms += ms(s.dur_ns());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        probe: bool,
    ) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            iteration: 0,
            probe,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_moves_probes_out_of_dse() {
        let spans = [
            span("dse.explore", 0, 100_000_000, None, false),
            span("engine.run", 0, 10_000_000, Some(0), false),
            span("core.price", 10_000_000, 30_000_000, Some(0), true),
            span("dse.evaluate", 30_000_000, 90_000_000, Some(0), false),
        ];
        let t = &iteration_times(&spans)[&0];
        assert_eq!(t.self_ms["engine"], 10.0);
        assert_eq!(t.self_ms["core"], 20.0);
        // root self 10 + evaluate 60 - probe 20
        assert_eq!(t.self_ms["dse"], 50.0);
        assert_eq!(t.covered_ms, 70.0);
        assert_eq!(t.probe_ms, 20.0);
        let total: f64 = t.self_ms.values().sum();
        assert_eq!(total, 100.0 - t.probe_ms);
    }
}
