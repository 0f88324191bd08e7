//! The benchmark's own arithmetic: percentiles, span self times, the
//! unattributed residual, and the one-line JSON result.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Operations attempted: episodes (search, fleet) or requests (serve).
    pub attempted: u64,
    /// Attempted operations that errored, were shed, or gave a wrong answer.
    pub failed: u64,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed above the JSON result.
    pub notes: Vec<String>,
    /// Checks that failed outside the per-operation count (replay
    /// mismatch, layer sum mismatch).
    pub check_failures: Vec<String>,
}

impl RunResult {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.check_failures.is_empty()
    }
}

/// Whether `name` is a legal metric name: non-empty, at most 64
/// characters of `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Renders the result as the single JSON line the benchmark ends with.
///
/// # Errors
///
/// Names the first metric whose name is illegal, whose value is not
/// finite, or which is reported twice.
pub fn to_json_line(result: &RunResult) -> Result<String, String> {
    let mut seen = std::collections::HashSet::new();
    let mut metrics = String::new();
    for (i, m) in result.metrics.iter().enumerate() {
        if !valid_metric_name(&m.name) {
            return Err(format!("illegal metric name {:?}", m.name));
        }
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        if !seen.insert(m.name.as_str()) {
            return Err(format!("metric {} reported twice", m.name));
        }
        if i > 0 {
            metrics.push_str(", ");
        }
        write!(
            metrics,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        )
        .expect("writing to a String cannot fail");
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        result.correct(),
        result.attempted,
        result.failed
    ))
}

/// A finite f64 as a JSON number with all its digits (Rust's shortest
/// round-trip form, which never uses exponent notation).
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') {
        s
    } else {
        format!("{s}.0")
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `n` ordered samples, where `at(k)` is
/// the `k`-th smallest, interpolating linearly between closest ranks (the
/// same rule as NumPy's default).
///
/// # Panics
///
/// Panics when `n` is 0.
pub fn quantile_ranked(n: usize, q: f64, at: impl Fn(usize) -> f64) -> f64 {
    assert!(n > 0, "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let low = at(lo);
    low + (at(hi) - low) * (pos - lo as f64)
}

/// [`quantile_ranked`] over a sorted slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    quantile_ranked(sorted.len(), q, |k| sorted[k])
}

/// Exact latencies in nanoseconds, kept as one count per nanosecond up to
/// [`NsHistogram::DIRECT_NS`] and as raw values above it, so memory stays
/// flat however many requests a run sends.
#[derive(Debug, Clone)]
pub struct NsHistogram {
    counts: Vec<u32>,
    overflow: Vec<u64>,
    n: usize,
}

impl Default for NsHistogram {
    fn default() -> Self {
        Self {
            counts: vec![0; Self::DIRECT_NS as usize],
            overflow: Vec::new(),
            n: 0,
        }
    }
}

impl NsHistogram {
    /// Latencies below this many nanoseconds are counted per nanosecond.
    /// Requests take tens of microseconds; 200 µs keeps the array (and the
    /// pages a run touches, which `peak_rss_mb` sees) small.
    pub const DIRECT_NS: u64 = 200_000;

    pub fn record(&mut self, ns: u64) {
        match self.counts.get_mut(ns as usize) {
            Some(c) => *c += 1,
            None => self.overflow.push(ns),
        }
        self.n += 1;
    }

    pub fn merge(&mut self, other: &NsHistogram) {
        // Skipping empty buckets leaves untouched pages unmapped.
        for (c, &o) in self.counts.iter_mut().zip(&other.counts) {
            if o != 0 {
                *c += o;
            }
        }
        self.overflow.extend_from_slice(&other.overflow);
        self.n += other.n;
    }

    pub fn len(&self) -> usize {
        self.n
    }

    /// The `k`-th smallest recorded value, in nanoseconds.
    fn at_rank(&self, k: usize) -> u64 {
        let mut seen = 0usize;
        for (ns, &c) in self.counts.iter().enumerate() {
            seen += c as usize;
            if seen > k {
                return ns as u64;
            }
        }
        let mut rest = self.overflow.clone();
        rest.sort_unstable();
        rest[k - seen]
    }

    /// The `q`-quantile in microseconds, by the rule of [`quantile_ranked`].
    pub fn quantile_us(&self, q: f64) -> f64 {
        quantile_ranked(self.n, q, |k| self.at_rank(k) as f64 / 1e3)
    }
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, 0.5)
}

/// Median milliseconds of `reps` calls of `f`; each result goes through
/// `black_box` so the call cannot be optimised away.
pub fn median_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = std::time::Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// The percentiles a tail can be reported at, highest first.
const TAIL_LADDER: [f64; 6] = [99.99, 99.9, 99.0, 95.0, 90.0, 75.0];

/// The highest ladder percentile up to `cap` that has at least ten
/// samples beyond it in a sample of `n`, or `None` when even the 75th
/// has fewer.
pub fn highest_supported_percentile(n: usize, cap: f64) -> Option<f64> {
    TAIL_LADDER.into_iter().filter(|&p| p <= cap).find(|&p| {
        // Samples strictly above the percentile's rank, counted exactly
        // in hundredths-of-a-percent to avoid float rounding at the edge.
        let beyond = n as u128 * (10_000 - (p * 100.0).round() as u128) / 10_000;
        beyond >= 10
    })
}

/// The percentile gated as the tail of `n` samples: the highest up to
/// p99 with at least ten samples beyond it, or the median when there is
/// none.
pub fn gated_tail_percentile(n: usize) -> f64 {
    highest_supported_percentile(n, 99.0).unwrap_or(50.0)
}

/// The tail line for a timing sample of `n` values with quantile function
/// `quantile`: the highest supported percentile, its value and the sample
/// count, e.g. `p99.9 = 81.2 us (n = 600000, ...)`.
pub fn tail_note(label: &str, n: usize, quantile: impl Fn(f64) -> f64, unit: &str) -> String {
    match highest_supported_percentile(n, 100.0) {
        Some(p) => format!(
            "{label}: p{p} = {:.3} {unit} (n = {n}, at least 10 samples beyond it)",
            quantile(p / 100.0),
        ),
        None => {
            format!("{label}: n = {n} is too few for any tail percentile with 10 samples beyond it")
        }
    }
}

/// A closed-open time interval in nanoseconds.
pub type Interval = (u64, u64);

/// Total length of the union of `intervals`, each clipped to `within`.
pub fn covered(within: Interval, intervals: &[Interval]) -> u64 {
    let mut clipped: Vec<Interval> = intervals
        .iter()
        .map(|&(s, e)| (s.max(within.0), e.min(within.1)))
        .filter(|&(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut current: Option<Interval> = None;
    for (s, e) in clipped {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

/// A span's self time: its duration minus the part of it that its child
/// spans cover (overlapping children are counted once).
pub fn self_time(parent: Interval, children: &[Interval]) -> u64 {
    (parent.1 - parent.0) - covered(parent, children)
}

/// What remains of `wall` once every layer's time is taken out; negative
/// when the layers over-count.
pub fn unattributed(wall: f64, layers: &[f64]) -> f64 {
    wall - layers.iter().sum::<f64>()
}

/// Whether the layer times plus the residual add up to the wall time,
/// within a relative tolerance of one part in a million plus 1 µs.
pub fn adds_up(wall_ms: f64, layers_ms: &[f64], residual_ms: f64) -> bool {
    let total = layers_ms.iter().sum::<f64>() + residual_ms;
    (total - wall_ms).abs() <= wall_ms.abs() * 1e-6 + 1e-3
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("unreadable VmHWM line {line:?}: {e}"))?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        // 1000 samples: exactly 10 lie beyond p99, 1 beyond p99.9.
        assert_eq!(highest_supported_percentile(1000, 100.0), Some(99.0));
        // 999 samples: 9.99 beyond p99 is too few, so fall back to p95.
        assert_eq!(highest_supported_percentile(999, 100.0), Some(95.0));
        assert_eq!(highest_supported_percentile(100_000, 100.0), Some(99.99));
        assert_eq!(highest_supported_percentile(10_000, 100.0), Some(99.9));
        assert_eq!(highest_supported_percentile(40, 100.0), Some(75.0));
        assert_eq!(highest_supported_percentile(39, 100.0), None);
        assert_eq!(highest_supported_percentile(0, 100.0), None);
        // A cap keeps the gated tail at p99 however large the sample.
        assert_eq!(highest_supported_percentile(100_000, 99.0), Some(99.0));
    }

    #[test]
    fn gated_tail_falls_back_to_the_median() {
        assert_eq!(gated_tail_percentile(2000), 99.0);
        assert_eq!(gated_tail_percentile(100_000), 99.0);
        assert_eq!(gated_tail_percentile(4), 50.0);
    }

    #[test]
    fn tail_note_reports_the_sample_count() {
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        let note = tail_note(
            "request latency",
            1000,
            |q| quantile_sorted(&sorted, q),
            "us",
        );
        assert!(note.contains("p99 = 990.010"), "{note}");
        assert!(note.contains("n = 1000"), "{note}");
        let few = tail_note("search", 3, |_| 0.0, "s");
        assert!(few.contains("n = 3 is too few"), "{few}");
    }

    #[test]
    fn histogram_quantiles_match_the_sorted_samples() {
        // A deterministic spread of values, some beyond the direct range.
        let values: Vec<u64> = (0..5000u64)
            .map(|i| (i * 7919 % 5000) * 37 + if i % 500 == 0 { 2_000_000 + i } else { 0 })
            .collect();
        let (mut a, mut b) = (NsHistogram::default(), NsHistogram::default());
        for (i, &v) in values.iter().enumerate() {
            if i % 2 == 0 {
                a.record(v)
            } else {
                b.record(v)
            }
        }
        a.merge(&b);
        let mut sorted: Vec<f64> = values.iter().map(|&v| v as f64 / 1e3).collect();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(a.len(), values.len());
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(a.quantile_us(q), quantile_sorted(&sorted, q), "q = {q}");
        }
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let sorted = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(quantile_sorted(&sorted, 0.0), 10.0);
        assert_eq!(quantile_sorted(&sorted, 1.0), 40.0);
        assert_eq!(quantile_sorted(&sorted, 0.5), 25.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // Children [10,30) and [20,50) overlap: together they cover 40.
        let children = [(10, 30), (20, 50), (70, 80)];
        assert_eq!(covered((0, 100), &children), 50);
        assert_eq!(self_time((0, 100), &children), 50);
        // Parts of children outside the parent do not count.
        assert_eq!(self_time((0, 100), &[(90, 130)]), 90);
        assert_eq!(self_time((5, 5), &[]), 0);
        assert_eq!(self_time((0, 10), &[(0, 10)]), 0);
    }

    #[test]
    fn unattributed_is_the_residual_and_checks_the_sum() {
        let layers = [600.0, 300.0, 99.0];
        let rest = unattributed(1000.0, &layers);
        assert!((rest - 1.0).abs() < 1e-9);
        assert!(adds_up(1000.0, &layers, rest));
        assert!(!adds_up(1000.0, &layers, rest + 0.5));
        // Over-counting layers give a negative residual.
        assert!(unattributed(10.0, &[6.0, 6.0]) < 0.0);
    }

    #[test]
    fn metric_names_outside_the_alphabet_are_rejected() {
        for ok in ["setup_s", "fusing.train_head_ms", "a-b.c_d", "9lives"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            "has space",
            "slash/name",
            "ünïcode",
            "quote\"",
            "_lead",
            &"x".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        let mut result = RunResult::default();
        result.push("bad name", 1.0, "ms");
        assert!(to_json_line(&result).is_err());
    }

    #[test]
    fn json_line_has_the_four_keys_and_full_digits() {
        let mut result = RunResult {
            attempted: 3,
            ..RunResult::default()
        };
        result.push("latency_ms", 1.2034567891, "ms");
        result.push("count", 7.0, "count");
        let line = to_json_line(&result).expect("valid");
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.2034567891, \"unit\": \"ms\"}, \
             \"count\": {\"value\": 7.0, \"unit\": \"count\"}}}"
        );
        result.push("nan", f64::NAN, "ms");
        assert!(to_json_line(&result).is_err());
    }
}
