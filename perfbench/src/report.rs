//! The metric catalog, the metric-name rule, and the result printer.
//!
//! Every metric the benchmark can report is declared here once, with its
//! unit and direction; `BENCHMARK.json` and `layers.json` list the same
//! names (a unit test keeps the three in step).

use std::fmt::Write as _;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name (see [`valid_name`]).
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported by the timed run (`--trace 0`).
pub const END_TO_END: [MetricDef; 4] = [
    m("sim_qps", "queries/s", Higher),
    m("cpu_us_per_query", "us", Lower),
    m("setup_s", "s", Lower),
    m("peak_rss_mib", "MiB", Lower),
];

/// Per-layer metrics, reported by the traced run (`--trace 1`).
pub const PER_LAYER: [MetricDef; 43] = [
    m("trace.overhead", "ratio", Lower),
    m("trace.loop_self_share", "fraction", Lower),
    m("workload.next_query_ns.p50", "ns", Lower),
    m("workload.repeat_share", "fraction", Higher),
    m("simulator.step_ns.p50", "ns", Lower),
    m("simulator.step_ns.p99", "ns", Lower),
    m("simulator.finish_ms", "ms", Lower),
    m("planner.enumerate_ns.p50", "ns", Lower),
    m("planner.plans_per_query", "count", Lower),
    m("planner.skeleton_build_ns.p50", "ns", Lower),
    m("planner.skeleton_cache.hit_ratio", "fraction", Higher),
    m("econ.plan_cache.hit_ratio", "fraction", Higher),
    m("econ.plan_cache.completions", "count", Higher),
    m("econ.plan_cache.conflicts", "count", Lower),
    m("econ.plan_cache.victim_hits", "count", Higher),
    m("econ.investments", "count", Lower),
    m("econ.evictions", "count", Lower),
    m("econ.cost_per_kq_usd", "usd", Lower),
    m("econ.mean_response_s", "s", Lower),
    m("econ.p99_response_s", "s", Lower),
    m("cache.hit_rate", "fraction", Higher),
    m("cache.final_disk_gib", "GiB", Lower),
    m("fleet.router.route_ns.p50", "ns", Lower),
    m("fleet.router.route_ns.p99", "ns", Lower),
    m("fleet.router.route_share", "fraction", Lower),
    m("fleet.router.bids_per_query", "count", Lower),
    m("fleet.router.top_node_share", "fraction", Lower),
    m("fleet.router.hhi", "ratio", Lower),
    m("fleet.node.serve_ns.p50", "ns", Lower),
    m("fleet.node.serve_ns.p99", "ns", Lower),
    m("fleet.node.accrue_ns.p50", "ns", Lower),
    m("fleet.tenant.next_ns.p50", "ns", Lower),
    m("fleet.exec.shard_speedup", "ratio", Higher),
    m("fleet.elastic.reviews", "count", Lower),
    m("fleet.elastic.spawns", "count", Lower),
    m("fleet.elastic.retires", "count", Lower),
    m("fleet.faults.crashes", "count", Lower),
    m("fleet.faults.retries", "count", Lower),
    m("fleet.faults.evacuations", "count", Higher),
    m("fleet.faults.structures_moved", "count", Higher),
    m("telemetry.trace_overhead", "ratio", Lower),
    m("telemetry.health_overhead", "ratio", Lower),
    m("telemetry.events", "count", Lower),
];

/// The metric-name rule: 1 to 64 characters from `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// How a reported value came about.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Measured(f64),
    /// The lever's counter does not exist in this build of the program.
    Absent,
}

/// Metric values of one run plus the run's pass/fail tally.
#[derive(Debug, Default)]
pub struct Report {
    values: Vec<(&'static str, Value)>,
    /// Free-form lines printed before the metrics.
    pub notes: Vec<String>,
    /// Output-check failures.
    pub failures: Vec<String>,
    /// Simulated queries submitted.
    pub attempted: u64,
    /// Simulated queries that panicked, failed a check, or went missing.
    pub failed: u64,
}

impl Report {
    /// Records a measured value (non-finite values count as a failure).
    pub fn set(&mut self, name: &'static str, value: f64) {
        if !value.is_finite() {
            self.failures
                .push(format!("{name} is not finite ({value})"));
        }
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, Value::Measured(value)));
    }

    /// Records a counter the program no longer provides.
    pub fn absent(&mut self, name: &'static str) {
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, Value::Absent));
    }

    /// Records a value that is `None` when its counter is absent.
    pub fn set_or_absent(&mut self, name: &'static str, value: Option<f64>) {
        match value {
            Some(v) => self.set(name, v),
            None => self.absent(name),
        }
    }

    /// The measured value of `name`, if set.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find_map(|(n, v)| match v {
            Value::Measured(x) if *n == name => Some(*x),
            _ => None,
        })
    }

    /// Records a failed output check.
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.failures.push(msg.into());
    }

    /// Records the failed checks of one run of `queries` simulated
    /// queries: the run's queries count as failed once, and never push
    /// `failed` past `attempted`.
    pub fn fail_run(&mut self, queries: u64, errors: Vec<String>) {
        if !errors.is_empty() {
            self.failed = (self.failed + queries).min(self.attempted);
            self.failures.extend(errors);
        }
    }

    /// True if every check passed and no query failed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// Failed ÷ submitted simulated queries.
    #[must_use]
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The human-readable metric lines for `catalog` followed by the
    /// closing JSON result line. Metrics a workload does not exercise
    /// read 0 and are labelled so.
    #[must_use]
    pub fn render(&self, catalog: &[MetricDef]) -> String {
        let mut out = String::new();
        for note in &self.notes {
            let _ = writeln!(out, "{note}");
        }
        for f in &self.failures {
            let _ = writeln!(out, "CHECK FAILED: {f}");
        }
        let mut json = String::new();
        for (i, def) in catalog.iter().enumerate() {
            debug_assert!(valid_name(def.name), "bad metric name {}", def.name);
            let (value, label) = match self.values.iter().find(|(n, _)| *n == def.name) {
                Some((_, Value::Measured(v))) if v.is_finite() => (*v, ""),
                Some((_, Value::Measured(_))) => (0.0, "  (not finite)"),
                Some((_, Value::Absent)) => (0.0, "  (absent: counter not in this build)"),
                None => (0.0, "  (layer not run by this workload)"),
            };
            let _ = writeln!(
                out,
                "{:<36} {:>18} {:<9} {}{label}",
                def.name,
                value,
                def.unit,
                def.better.as_str()
            );
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                def.name, def.unit
            );
        }
        let _ = writeln!(
            out,
            "{:<36} {:>18} {:<9} ({} failed of {} simulated queries)",
            "error_rate",
            self.error_rate(),
            "fraction",
            self.failed,
            self.attempted
        );
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        );
        out
    }
}

/// An ordered list of named aggregates and their FNV-1a hash — the
/// `result_digest` a performance change must leave bit-identical.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Digest(pub Vec<(String, String)>);

impl Digest {
    /// Appends one aggregate.
    pub fn push(&mut self, key: impl Into<String>, value: impl ToString) {
        self.0.push((key.into(), value.to_string()));
    }

    /// FNV-1a over every `key=value;` pair.
    #[must_use]
    pub fn hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (k, v) in &self.0 {
            for b in k.bytes().chain([b'=']).chain(v.bytes()).chain([b';']) {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    /// `0x…` rendering of [`Digest::hash`].
    #[must_use]
    pub fn hex(&self) -> String {
        format!("{:016x}", self.hash())
    }

    /// The first differing aggregate against `other`, for error messages.
    #[must_use]
    pub fn first_difference(&self, other: &Digest) -> String {
        for ((k, a), (_, b)) in self.0.iter().zip(&other.0) {
            if a != b {
                return format!("{k}: {a} != {b}");
            }
        }
        format!("{} vs {} aggregates", self.0.len(), other.0.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_rule_accepts_the_charset_only() {
        for ok in ["sim_qps", "fleet.router.route_ns.p99", "a-b", "9x"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "has space",
            "µs",
            "a/b",
            ".lead",
            "_lead",
            "x{y}",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn catalog_names_are_valid_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|d| d.name)
            .collect();
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
    }

    #[test]
    fn render_ends_with_the_json_line() {
        let mut r = Report {
            attempted: 10,
            ..Report::default()
        };
        r.set("sim_qps", 1234.5);
        r.set("setup_s", 0.000_25);
        let text = r.render(&END_TO_END);
        let last = text.lines().last().unwrap();
        assert!(last.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0,"));
        assert!(last.contains("\"sim_qps\": {\"value\": 1234.5, \"unit\": \"queries/s\"}"));
        assert!(last.contains("\"setup_s\": {\"value\": 0.00025, \"unit\": \"s\"}"));
        assert!(last.contains("\"peak_rss_mib\": {\"value\": 0, \"unit\": \"MiB\"}"));
    }

    #[test]
    fn failures_and_non_finite_values_make_a_run_incorrect() {
        let mut r = Report {
            attempted: 5,
            ..Report::default()
        };
        assert!(r.correct());
        r.set("sim_qps", f64::NAN);
        assert!(!r.correct());
        let mut q = Report {
            attempted: 5,
            failed: 1,
            ..Report::default()
        };
        assert!(!q.correct());
        assert_eq!(q.error_rate(), 0.2);
        q.absent("econ.plan_cache.victim_hits");
        assert_eq!(q.get("econ.plan_cache.victim_hits"), None);
    }

    #[test]
    fn digest_hash_is_order_and_value_sensitive() {
        let mut a = Digest::default();
        a.push("queries", 10);
        a.push("payments", 5);
        let mut b = Digest::default();
        b.push("queries", 10);
        b.push("payments", 6);
        assert_ne!(a.hash(), b.hash());
        assert_eq!(a.first_difference(&b), "payments: 5 != 6");
        assert_eq!(a.hash(), a.clone().hash());
        assert_eq!(a.hex().len(), 16);
    }
}
