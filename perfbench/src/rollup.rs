//! A telemetry [`Sink`] that rolls the program's span stream up into per
//! name count, wall and self time, and keeps the flushed counters and
//! histograms.
//!
//! Self time is a span's wall time minus the wall time of its direct
//! children. Spans reach the sink as start/end pairs carrying their parent
//! id, and a child always ends before its parent, so the child total is
//! complete when the parent's end record arrives.

use chiron_telemetry::{Record, Sink};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

/// Totals for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans closed.
    pub count: u64,
    /// Summed wall time, ns.
    pub wall_ns: u64,
    /// Summed self time (wall minus direct children), ns.
    pub self_ns: u64,
}

impl SpanTotals {
    /// Summed wall time in ms.
    #[must_use]
    pub fn wall_ms(&self) -> f64 {
        self.wall_ns as f64 / 1e6
    }

    /// Summed self time in ms.
    #[must_use]
    pub fn self_ms(&self) -> f64 {
        self.self_ns as f64 / 1e6
    }
}

#[derive(Default)]
struct State {
    spans: BTreeMap<String, SpanTotals>,
    /// Wall time of the direct children of each still-open span.
    child_ns: HashMap<u64, u64>,
    /// Wall time of the benchmark's own outermost spans.
    root_bench_ns: u64,
    metrics: BTreeMap<String, f64>,
}

/// The benchmark-owned rollup sink. Install it with
/// [`chiron_telemetry::add_sink`] (clone the `Arc` first) and read it back
/// after [`chiron_telemetry::flush`].
#[derive(Default)]
pub struct Rollup {
    state: Mutex<State>,
}

impl Rollup {
    /// A fresh, shareable rollup.
    #[must_use]
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("rollup lock poisoned by a panicking sink")
    }

    /// Totals for span `name` (zero when it never closed).
    #[must_use]
    pub fn span(&self, name: &str) -> SpanTotals {
        self.state().spans.get(name).copied().unwrap_or_default()
    }

    /// Every span name seen, with its totals.
    #[must_use]
    pub fn spans(&self) -> BTreeMap<String, SpanTotals> {
        self.state().spans.clone()
    }

    /// A flushed counter, gauge or histogram statistic (`<name>.sum`,
    /// `<name>.count`, ...); 0 when absent.
    #[must_use]
    pub fn metric(&self, name: &str) -> f64 {
        self.state().metrics.get(name).copied().unwrap_or(0.0)
    }

    /// Summed wall time of the outermost `bench.*` spans, ns: the share of
    /// the run that the benchmark's spans around public calls account for.
    #[must_use]
    pub fn root_bench_ns(&self) -> u64 {
        self.state().root_bench_ns
    }
}

impl Sink for Rollup {
    fn record(&self, record: &Record) {
        let mut st = self.state();
        match record {
            Record::SpanEnd {
                id,
                parent,
                name,
                wall_ns,
                ..
            } => {
                let children = st.child_ns.remove(id).unwrap_or(0);
                let totals = st.spans.entry(name.clone()).or_default();
                totals.count += 1;
                totals.wall_ns += wall_ns;
                totals.self_ns += wall_ns.saturating_sub(children);
                if *parent == 0 {
                    if name.starts_with("bench.") {
                        st.root_bench_ns += wall_ns;
                    }
                } else {
                    *st.child_ns.entry(*parent).or_insert(0) += wall_ns;
                }
            }
            Record::Metric { name, value, .. } => {
                st.metrics.insert(name.clone(), *value);
            }
            Record::SpanStart { .. } | Record::Event { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn end(id: u64, parent: u64, name: &str, wall_ns: u64) -> Record {
        Record::SpanEnd {
            id,
            parent,
            name: name.to_string(),
            wall_ns,
            cpu_ns: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let r = Rollup::default();
        r.record(&end(3, 2, "leaf", 10));
        r.record(&end(2, 1, "mid", 30));
        r.record(&end(1, 0, "bench.top", 100));
        assert_eq!(r.span("leaf").self_ns, 10);
        assert_eq!(r.span("mid").self_ns, 20);
        assert_eq!(r.span("bench.top").self_ns, 70);
        assert_eq!(r.root_bench_ns(), 100);
        assert_eq!(r.span("absent"), SpanTotals::default());
    }
}
