//! In-memory span recorder for the traced run.
//!
//! Spans are taken by the benchmark around its own calls into a layer's
//! public function; the program itself carries no tracing. Every span has a
//! name, start, end, parent and request id. Spans stay in memory while the
//! workload runs and are written out as CSV at the end. A layer's self time
//! is a span's duration minus the time covered by its children.

use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Span names, `module.call`, one per layer boundary the benchmark times.
pub mod name {
    pub const SETUP: &str = "bench.setup";
    pub const DATASET: &str = "robot.DatasetBuilder::build";
    pub const FIT: &str = "core.fit";
    pub const SAVE: &str = "core.VaradeDetector::save";
    pub const LOAD: &str = "core.VaradeDetector::load";
    pub const REGISTER: &str = "fleet.Fleet::register_stream";
    pub const REQUEST: &str = "bench.request";
    pub const PUSH: &str = "core.StreamingVarade::push";
    pub const NORMALIZE: &str = "timeseries.MinMaxNormalizer::transform_row";
    pub const WINDOW: &str = "timeseries.StreamingWindow::push";
    pub const INCREMENTAL: &str = "core.score_window_incremental";
    pub const FULL: &str = "core.score_window";
    pub const FLEET_PUSH: &str = "fleet.FleetHandle::push_from";
    pub const PUBLISH: &str = "fleet.FleetHandle::publish_model";
    pub const SNAPSHOT: &str = "fleet.FleetHandle::telemetry";
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    parent: u32,
    request: u64,
    start_ns: u64,
    end_ns: u64,
}

/// Open span handle returned by [`Tracer::begin`].
#[must_use]
pub struct Open(Option<u32>);

/// Per-name aggregate of closed spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Aggregate {
    pub count: u64,
    pub self_ns: u64,
}

impl Aggregate {
    /// Mean self time per span in nanoseconds (0 when no span was taken).
    pub fn mean_self_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64
        }
    }
}

/// Span recorder. A disabled tracer takes no clock reads and stores nothing,
/// so the untraced run pays one branch per would-be span.
pub struct Tracer {
    enabled: bool,
    base: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            base: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Opens a span; its parent is the innermost span still open.
    pub fn begin(&mut self, name: &'static str, request: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            request,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(index);
        Open(Some(index))
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn end(&mut self, open: Open) {
        let Some(index) = open.0 else { return };
        let end_ns = self.now_ns();
        assert_eq!(self.stack.pop(), Some(index), "spans close innermost first");
        self.spans[index as usize].end_ns = end_ns;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, request);
        let out = f();
        self.end(open);
        out
    }

    /// Self time of every closed span, in recording order.
    fn self_ns(&self) -> Vec<u64> {
        let duration = |s: &Span| s.end_ns.saturating_sub(s.start_ns);
        let mut own: Vec<u64> = self.spans.iter().map(duration).collect();
        for span in &self.spans {
            if span.parent != NO_PARENT {
                let parent = &mut own[span.parent as usize];
                *parent = parent.saturating_sub(duration(span));
            }
        }
        own
    }

    /// Per-name count and self time over every closed span.
    pub fn aggregates(&self) -> BTreeMap<&'static str, Aggregate> {
        let mut out: BTreeMap<&'static str, Aggregate> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_ns()) {
            let agg = out.entry(span.name).or_default();
            agg.count += 1;
            agg.self_ns += own;
        }
        out
    }

    /// Self times of the spans named `name`, in nanoseconds.
    pub fn self_times(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .zip(self.self_ns())
            .filter(|(s, _)| s.name == name)
            .map(|(_, own)| own)
            .collect()
    }

    /// Writes every span as one CSV row:
    /// `id,parent,request,name,start_ns,end_ns` (parent empty for roots).
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,parent,request,name,start_ns,end_ns")?;
        for (id, span) in self.spans.iter().enumerate() {
            write!(out, "{id},")?;
            if span.parent != NO_PARENT {
                write!(out, "{}", span.parent)?;
            }
            writeln!(
                out,
                ",{},{},{},{}",
                span.request, span.name, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let outer = t.begin(name::REQUEST, 7);
        t.span(name::PUSH, 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(outer);
        let aggs = t.aggregates();
        let push = aggs[name::PUSH];
        assert_eq!((aggs[name::REQUEST].count, push.count), (1, 1));
        assert!(push.self_ns >= 2_000_000);
        assert!(aggs[name::REQUEST].self_ns < push.self_ns);
        assert_eq!(t.self_times(name::PUSH), vec![push.self_ns]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span(name::PUSH, 0, || 3), 3);
        assert_eq!(t.len(), 0);
    }
}
