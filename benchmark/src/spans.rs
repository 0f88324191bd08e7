//! In-memory spans recorded by the benchmark around its calls into the
//! program, and their reduction to per-layer self times.

use crate::report::{self_time, Interval};
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The search episode the call served, if any.
    pub episode: Option<u32>,
    /// 0 for the calling thread; jobs of a parallel batch get their own
    /// lane so their spans are never mistaken for sequential children.
    pub lane: usize,
    /// How many workers shared the batch this span ran in (1 outside
    /// parallel batches): a layer's share of the wall time is its self
    /// time divided by this.
    pub workers: usize,
}

/// A span log sharing one time origin, so logs recorded on worker
/// threads merge into the caller's.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index; close it with [`Self::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        episode: Option<u32>,
    ) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            episode,
            lane: 0,
            workers: 1,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, index: usize) {
        self.spans[index].end_ns = self.now();
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        episode: Option<u32>,
        f: impl FnOnce() -> R,
    ) -> R {
        let index = self.open(name, parent, episode);
        let out = f();
        self.close(index);
        out
    }

    /// Appends a job's log recorded on a worker thread: its root spans
    /// become children of `parent`, and all its spans move to `lane`.
    pub fn absorb(&mut self, job: SpanLog, parent: usize, lane: usize, workers: usize) {
        let offset = self.spans.len();
        for mut span in job.spans {
            span.parent = Some(span.parent.map_or(parent, |p| p + offset));
            span.lane = lane;
            span.workers = workers;
            self.spans.push(span);
        }
    }

    pub fn interval(&self, index: usize) -> Interval {
        let s = &self.spans[index];
        (s.start_ns, s.end_ns)
    }

    /// Self time of every span in nanoseconds: its duration minus what its
    /// same-lane children cover. Children on other lanes ran concurrently
    /// on worker threads and are accounted by the caller.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<Interval>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                if self.spans[p].lane == span.lane {
                    children[p].push((span.start_ns, span.end_ns));
                }
            }
        }
        (0..self.spans.len())
            .map(|i| self_time(self.interval(i), &children[i]))
            .collect()
    }

    /// Sum of self time per span name, in wall-clock milliseconds: spans
    /// inside a parallel batch count their self time divided by the
    /// batch's workers.
    pub fn wall_share_by_name(&self, self_ns: &[u64]) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (span, &ns) in self.spans.iter().zip(self_ns) {
            *out.entry(span.name).or_insert(0.0) += ns as f64 / 1e6 / span.workers as f64;
        }
        out
    }

    /// The spans as JSON, one object per line inside an array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let episode = s.episode.map_or("null".to_string(), |e| e.to_string());
            out.push_str(&format!(
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"episode\": {episode}, \"lane\": {}}}{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                s.lane,
                if i + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            episode: None,
            lane: 0,
            workers: 1,
        }
    }

    #[test]
    fn self_times_subtract_same_lane_children_only() {
        let mut log = SpanLog::new(Instant::now());
        log.spans = vec![
            span("root", 0, 100, None),
            span("batch", 10, 90, Some(0)),
            span("par.map", 20, 80, Some(1)),
        ];
        let mut job = SpanLog::new(Instant::now());
        job.spans = vec![span("job", 20, 70, None), span("train", 25, 65, Some(0))];
        log.absorb(job, 2, 1, 2);
        let own = log.self_times();
        assert_eq!(own, vec![20, 20, 60, 10, 40]);
        let share = log.wall_share_by_name(&own);
        // Worker spans count half: two workers shared the batch.
        assert!((share["train"] - 40.0 / 2.0 / 1e6).abs() < 1e-12);
        assert!((share["root"] - 20.0 / 1e6).abs() < 1e-12);
    }
}
