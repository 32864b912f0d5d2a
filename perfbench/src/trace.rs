//! In-memory spans recorded around each call into a layer.
//!
//! A request opens a root span; every layer call made for it is a child span
//! that points at the root, and all spans of one request share its id.  Spans
//! stay in a `Vec` until the run ends, when [`Tracer::write_csv`] writes them
//! out.  A disabled tracer records nothing and costs one branch per call, so
//! the same replay code gives both the traced and the untraced totals.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Id shared by every span of one request.
    pub request: u64,
    /// Layer name, e.g. `wal.append`.
    pub name: &'static str,
    /// Index of the parent span (`None` for a request root).
    pub parent: Option<usize>,
    /// Start, in ns since the tracer was created.
    pub start: u64,
    /// End, in ns since the tracer was created.
    pub end: u64,
}

/// Self times in µs keyed by (root span name, span name).
pub type SelfTimes = BTreeMap<(&'static str, &'static str), Vec<f64>>;

/// Handle on an open root span (a no-op handle when tracing is off).
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    requests: u64,
}

impl Tracer {
    /// A recorder; `on = false` records nothing.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::with_capacity(if on { 1 << 16 } else { 0 }),
            requests: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens the root span of a new request.
    pub fn request(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        self.requests += 1;
        let start = self.now();
        self.spans.push(Span {
            request: self.requests,
            name,
            parent: None,
            start,
            end: start,
        });
        Open(Some(self.spans.len() - 1))
    }

    /// Closes a root span.
    pub fn end(&mut self, open: Open) {
        if let Some(index) = open.0 {
            self.spans[index].end = self.now();
        }
    }

    /// Runs `f` inside a child span of `parent`.
    pub fn span<R>(&mut self, parent: Open, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = self.mark();
        let out = f();
        self.record(parent, name, start);
        out
    }

    /// The current time, for a span whose name is known only after the call.
    pub fn mark(&self) -> Option<u64> {
        self.on.then(|| self.now())
    }

    /// Records a child span of `parent` from `start` (a [`Tracer::mark`]) to now.
    pub fn record(&mut self, parent: Open, name: &'static str, start: Option<u64>) {
        if let (Some(parent), Some(start)) = (parent.0, start) {
            let end = self.now();
            self.spans.push(Span {
                request: self.spans[parent].request,
                name,
                parent: Some(parent),
                start,
                end,
            });
        }
    }

    /// Self time of every span in µs, grouped by (root name, span name): a
    /// span's duration minus the part its children cover.  Root spans group
    /// under an empty root name.
    pub fn self_times(&self) -> SelfTimes {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.end - span.start;
            }
        }
        let mut out = SelfTimes::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            let own = (span.end - span.start).saturating_sub(covered);
            let root = span.parent.map_or("", |p| self.spans[p].name);
            out.entry((root, span.name))
                .or_default()
                .push(own as f64 / 1e3);
        }
        out
    }

    /// For every request rooted at `root`, the summed self time of its layer
    /// spans in µs: the time the request spent inside layer calls.
    pub fn layer_time_per_request(&self, root: &'static str) -> Vec<f64> {
        let mut per_root: BTreeMap<usize, u64> = BTreeMap::new();
        for (index, span) in self.spans.iter().enumerate() {
            match span.parent {
                None if span.name == root => {
                    per_root.entry(index).or_insert(0);
                }
                Some(parent) if self.spans[parent].name == root => {
                    *per_root.entry(parent).or_insert(0) += span.end - span.start;
                }
                _ => {}
            }
        }
        per_root.into_values().map(|ns| ns as f64 / 1e3).collect()
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one CSV row: request, name, parent, start, end.
    pub fn write_csv(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "request,name,parent,start_ns,end_ns")?;
        for span in &self.spans {
            let parent = span.parent.map_or(String::new(), |p| p.to_string());
            writeln!(
                out,
                "{},{},{},{},{}",
                span.request, span.name, parent, span.start, span.end
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_requests_share_ids() {
        let mut t = Tracer::new(true);
        let root = t.request("request.ingest");
        t.span(root, "a", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let mark = t.mark();
        t.record(root, "b", mark);
        t.end(root);
        let second = t.request("request.ingest");
        t.end(second);

        assert_eq!(t.len(), 4);
        assert!(t.spans[..3].iter().all(|s| s.request == 1));
        assert_eq!(t.spans[3].request, 2);
        let times = t.self_times();
        let a = times[&("request.ingest", "a")][0];
        assert!(a >= 2_000.0);
        let root_self = times[&("", "request.ingest")][0];
        assert!(root_self < a, "children are not the root's self time");
        let per_request = t.layer_time_per_request("request.ingest");
        assert_eq!(per_request.len(), 2);
        assert!(per_request[0] >= a);
        assert_eq!(per_request[1], 0.0);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let root = t.request("r");
        assert_eq!(t.span(root, "a", || 7), 7);
        t.record(root, "b", t.mark());
        t.end(root);
        assert_eq!(t.len(), 0);
    }
}
