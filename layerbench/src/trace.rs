//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records a name, the job it belongs to, the span that caused it,
//! and its start and end. Spans stay in memory during the run; the caller
//! writes them out when the benchmark ends. A layer's self time is its
//! span's duration minus the part of that interval its child spans cover
//! (children may run on other threads and overlap one another).

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `sampler.pass`.
    pub name: &'static str,
    /// Job the span belongs to (its position in the workload).
    pub job: usize,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Start, in ns since the tracer's origin.
    pub start: u64,
    /// End, in ns since the tracer's origin; `start` until closed.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Collects spans from any number of threads.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&self, name: &'static str, job: usize, parent: Option<SpanId>) -> SpanId {
        let start = self.now();
        let mut spans = self.spans.lock().expect("tracer lock poisoned");
        spans.push(Span {
            name,
            job,
            parent,
            start,
            end: start,
        });
        spans.len() - 1
    }

    /// Closes a span opened with [`Tracer::open`].
    pub fn close(&self, id: SpanId) {
        let end = self.now();
        self.spans.lock().expect("tracer lock poisoned")[id].end = end;
    }

    /// Runs `f` inside a span and returns its result.
    pub fn time<R>(
        &self,
        name: &'static str,
        job: usize,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, job, parent);
        let out = f();
        self.close(id);
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("tracer lock poisoned").clone()
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = 0u64;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur().saturating_sub(covered)
        })
        .collect()
}

/// Spans of traced round `round` as JSON lines (one object per span, self
/// time included).
pub fn to_jsonl(spans: &[Span], round: usize) -> String {
    let selfs = self_times(spans);
    let mut out = String::new();
    for (id, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"round\":{round},\"id\":{id},\"name\":\"{}\",\"job\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
            s.name, s.job, s.start, s.end
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start: u64, end: u64) -> Span {
        Span {
            name,
            job: 0,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span("job", None, 0, 100),
            // Two concurrent passes overlapping on [20, 60).
            span("sampler.pass", Some(0), 10, 60),
            span("dbi.pass", Some(0), 20, 70),
            // A checkpoint write inside the sampling pass.
            span("store.checkpoint.write", Some(1), 30, 35),
            // A child that outlives its parent only counts inside it.
            span("late", Some(3), 33, 50),
        ];
        assert_eq!(self_times(&spans), vec![40, 45, 50, 3, 17]);
    }

    #[test]
    fn tracer_records_nesting_and_order() {
        let t = Tracer::default();
        let outer = t.open("outer", 3, None);
        t.time("inner", 3, Some(outer), || ());
        t.close(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(outer));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        let dump = to_jsonl(&spans, 4);
        assert_eq!(dump.lines().count(), 2);
        assert!(dump.starts_with("{\"round\":4,\"id\":0,\"name\":\"outer\""));
    }
}
