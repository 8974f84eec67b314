//! In-memory spans around calls into each layer's public functions.
//!
//! A span has a name, a pass id, the span that caused it, start and end
//! times relative to the tracer's epoch, and a work count taken at the
//! same boundary (events for a consensus run, iterations for a
//! microbenchmark). Nothing is written while the benchmark measures; the
//! self-time table is printed when it ends.

use std::collections::BTreeMap;
use std::time::Instant;

struct Span {
    name: &'static str,
    pass: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    count: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Time spent under one span name, summed over its spans.
pub struct SelfTime {
    pub name: &'static str,
    pub calls: u64,
    pub total_ns: u64,
    /// Total minus the time covered by child spans.
    pub self_ns: u64,
    pub count: u64,
}

pub struct Tracer {
    epoch: Instant,
    pass: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            pass: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a new pass: spans opened from here on carry its id.
    pub fn next_pass(&mut self) {
        self.pass += 1;
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            pass: self.pass,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            count: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost span, which must be `id`, recording `count`.
    pub fn exit(&mut self, id: usize, count: u64) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.count = count;
    }

    /// Wraps `f` in a leaf span whose count is what `f` returns; returns
    /// the count and the span's duration in nanoseconds.
    pub fn span(&mut self, name: &'static str, f: impl FnOnce() -> u64) -> (u64, u64) {
        let id = self.enter(name);
        let count = f();
        self.exit(id, count);
        (count, self.spans[id].duration_ns())
    }

    /// Durations of every span called `name`, in nanoseconds.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// Number of passes that recorded at least one span.
    pub fn passes(&self) -> usize {
        let mut ids: Vec<u64> = self.spans.iter().map(|s| s.pass).collect();
        ids.dedup();
        ids.len()
    }

    /// Self time per span name, in name order.
    pub fn self_times(&self) -> Vec<SelfTime> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.duration_ns();
            }
        }
        let mut by_name: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            let entry = by_name.entry(span.name).or_insert(SelfTime {
                name: span.name,
                calls: 0,
                total_ns: 0,
                self_ns: 0,
                count: 0,
            });
            entry.calls += 1;
            entry.total_ns += span.duration_ns();
            entry.self_ns += span.duration_ns().saturating_sub(covered);
            entry.count += span.count;
        }
        by_name.into_values().collect()
    }
}
