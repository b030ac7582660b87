//! Spans recorded around the benchmark's own calls into each layer.
//!
//! A driver is generic over [`Probe`]: the timed run passes [`Off`],
//! whose methods compile to nothing, and the traced run passes a
//! [`Tracer`], which keeps every span in memory until the run ends.
//! Spans carry a name, start, end, parent and the simulated query id
//! they belong to; [`self_times`] subtracts the part of each span its
//! children cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span within its [`Tracer`].
pub type SpanId = u32;

/// One recorded span, in nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary name, e.g. `simulator.step`.
    pub name: &'static str,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Simulated query id the span belongs to (0 outside a query).
    pub query: u64,
    /// Start, ns since the tracer origin.
    pub start_ns: u64,
    /// End, ns since the tracer origin.
    pub end_ns: u64,
}

impl Span {
    /// Wall-clock duration in ns.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span sink the drivers call at every layer boundary.
pub trait Probe {
    /// Opens a span and returns its id.
    fn open(&mut self, name: &'static str, parent: Option<SpanId>, query: u64) -> SpanId;
    /// Closes a span opened by [`Probe::open`].
    fn close(&mut self, id: SpanId);
}

/// Tracing off: every call is a no-op the optimiser removes.
pub struct Off;

impl Probe for Off {
    #[inline(always)]
    fn open(&mut self, _: &'static str, _: Option<SpanId>, _: u64) -> SpanId {
        0
    }
    #[inline(always)]
    fn close(&mut self, _: SpanId) {}
}

/// Tracing on: spans accumulate in memory.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Every span recorded so far, in open order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of the spans named `name`, sorted ascending.
    #[must_use]
    pub fn sorted_durations(&self, name: &str) -> Vec<u64> {
        let mut d: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect();
        d.sort_unstable();
        d
    }

    /// Summed duration (ns) of the spans named `name`.
    #[must_use]
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum()
    }

    /// Number of spans named `name`.
    #[must_use]
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }
}

impl Probe for Tracer {
    fn open(&mut self, name: &'static str, parent: Option<SpanId>, query: u64) -> SpanId {
        let id = SpanId::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            query,
            start_ns: now,
            end_ns: now,
        });
        id
    }

    fn close(&mut self, id: SpanId) {
        let now = self.now_ns();
        self.spans[id as usize].end_ns = now;
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Summed self time (ns) per span name, in first-seen order.
#[must_use]
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: Vec<(&'static str, u64, u64)> = Vec::new();
    for (span, own) in spans.iter().zip(selfs) {
        match out.iter_mut().find(|(n, _, _)| *n == span.name) {
            Some(row) => {
                row.1 += span.duration_ns();
                row.2 += own;
            }
            None => out.push((span.name, span.duration_ns(), own)),
        }
    }
    out
}

/// Writes the spans as tab-separated lines (one header line), with each
/// span's self time.
///
/// # Errors
/// Any I/O error creating or writing the file.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tname\tparent\tquery\tstart_ns\tend_ns\tself_ns")?;
    for (i, (s, own)) in spans.iter().zip(self_times(spans)).enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{i}\t{}\t{parent}\t{}\t{}\t{}\t{own}",
            s.name, s.query, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// Percentiles the tail rule chooses from, in thousandths of a percent.
const LADDER_MILLI: [u64; 6] = [50_000, 90_000, 99_000, 99_900, 99_990, 99_999];

/// 1-based nearest rank of the percentile `milli` (thousandths of a
/// percent) among `n` samples.
fn rank(n: usize, milli: u64) -> usize {
    let scaled = n as u128 * u128::from(milli);
    let rank = scaled.div_ceil(100_000);
    usize::try_from(rank).unwrap_or(usize::MAX).max(1)
}

/// True if at least ten of `n` samples lie beyond the percentile.
#[must_use]
fn supported(n: usize, milli: u64) -> bool {
    n > 0 && n - rank(n, milli).min(n) >= 10
}

/// The highest ladder percentile (thousandths of a percent) with at
/// least ten samples beyond it, or `None` below twenty samples.
#[must_use]
pub fn tail_percentile(n: usize) -> Option<u64> {
    LADDER_MILLI
        .iter()
        .rev()
        .copied()
        .find(|&p| supported(n, p))
}

/// Nearest-rank percentile of ascending `sorted` samples (0 if empty).
#[must_use]
pub fn percentile(sorted: &[u64], milli: u64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), milli).min(sorted.len()) - 1] as f64
}

/// The 99th percentile when at least ten samples lie beyond it;
/// otherwise the highest percentile that has that support, or the
/// median when nothing does. Returns `(value, percentile used in
/// thousandths of a percent)`.
#[must_use]
pub fn p99_by_rule(sorted: &[u64]) -> (f64, u64) {
    let p = tail_percentile(sorted.len()).map_or(50_000, |t| t.min(99_000));
    (percentile(sorted, p), p)
}

/// Median of unsorted floats (0 if empty).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            query: 7,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,100] > a [10,40] > a1 [15,25]; root > b [50,60].
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("a1", Some(1), 15, 25),
            span("b", Some(0), 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 10, 10]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Children on parallel threads overlap: covered is their union.
        let spans = vec![
            span("root", None, 0, 100),
            span("w", Some(0), 10, 50),
            span("w", Some(0), 30, 70),
            span("w", Some(0), 90, 120),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn self_time_by_name_sums_per_layer() {
        let spans = vec![
            span("query", None, 0, 10),
            span("step", Some(0), 2, 8),
            span("query", None, 10, 20),
            span("step", Some(2), 11, 19),
        ];
        let rows = self_time_by_name(&spans);
        assert_eq!(rows, vec![("query", 20, 6), ("step", 14, 14)]);
    }

    #[test]
    fn tracer_records_parent_and_query() {
        let mut t = Tracer::new();
        let root = t.open("query", None, 3);
        let child = t.open("step", Some(root), 3);
        t.close(child);
        t.close(root);
        let s = t.spans();
        assert_eq!(s[1].parent, Some(root));
        assert_eq!(s[0].query, 3);
        assert!(s[0].end_ns >= s[1].end_ns && s[1].start_ns >= s[0].start_ns);
        assert_eq!(t.count("step"), 1);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50_000));
        assert_eq!(tail_percentile(99), Some(50_000));
        assert_eq!(tail_percentile(100), Some(90_000));
        assert_eq!(tail_percentile(999), Some(90_000));
        assert_eq!(tail_percentile(1_000), Some(99_000));
        assert_eq!(tail_percentile(10_000), Some(99_900));
        assert_eq!(tail_percentile(1_000_000), Some(99_999));
    }

    #[test]
    fn p99_falls_back_to_the_supported_tail() {
        let big: Vec<u64> = (1..=1_000).collect();
        assert_eq!(p99_by_rule(&big), (990.0, 99_000));
        let small: Vec<u64> = (1..=200).collect();
        assert_eq!(p99_by_rule(&small), (180.0, 90_000));
        let tiny: Vec<u64> = (1..=5).collect();
        assert_eq!(p99_by_rule(&tiny), (3.0, 50_000));
        assert_eq!(percentile(&[], 50_000), 0.0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
