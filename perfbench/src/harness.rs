//! The timed run and helpers shared by the traced runs.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::calib;
use crate::probe::{self, median, Tracer};
use crate::procfs;
use crate::report::{Digest, Report};

/// Fewest repetitions a timed run makes, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// Fewest set-up samples `setup_s` is the median of.
const MIN_SETUPS: usize = 15;

/// A workload of fixed size that the timed run repeats.
pub trait Workload {
    /// What set-up builds before the first query.
    type Setup;
    /// What one repetition produces.
    type Output;
    /// Simulated queries one repetition submits.
    fn queries(&self) -> u64;
    /// Threads a repetition keeps busy.
    fn threads(&self) -> usize {
        1
    }
    /// Builds everything the first query needs.
    fn setup(&self) -> Self::Setup;
    /// Serves every query with tracing off.
    fn run(&self, setup: Self::Setup) -> Self::Output;
    /// Output checks; returns the repetition's digest and any failures.
    fn check(&self, out: &Self::Output) -> (Digest, Vec<String>);
    /// Adds the simulated outputs to the report's notes.
    fn describe(&self, out: &Self::Output, report: &mut Report);
}

/// The timed run: repetitions (each set-up, then a timed loop from a
/// cold start, then output checks outside the timing) until `seconds`
/// pass, at least [`MIN_REPS`]. A calibration pass on each side of every
/// repetition converts its times to reference seconds (see
/// [`calib`]). Reports the end-to-end metrics; records no spans.
pub fn timed<W: Workload>(w: &W, seconds: f64, report: &mut Report) -> Option<Tracer> {
    let started = Instant::now();
    let (mut setups, mut qps, mut raw_qps, mut slowdowns) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut cpu_total, mut raw_cpu, mut served) = (0.0, 0.0, 0u64);
    let mut reference: Option<Digest> = None;
    let mut last: Option<W::Output> = None;
    let mut reps = 0;
    let mut rep_secs = 0.0;
    while reps < MIN_REPS || fits(started, rep_secs, seconds) {
        reps += 1;
        let rep_started = Instant::now();
        report.attempted += w.queries();
        let Some(before) = calib::slowdown(w.threads()) else {
            report.fail("the calibration child did not run");
            return None;
        };
        let rep = catch_unwind(AssertUnwindSafe(|| {
            let t = Instant::now();
            let setup = w.setup();
            let setup_s = t.elapsed().as_secs_f64();
            let cpu0 = procfs::cpu_seconds();
            let t = Instant::now();
            let out = w.run(setup);
            let wall = t.elapsed().as_secs_f64();
            let cpu = procfs::cpu_seconds().zip(cpu0).map(|(b, a)| b - a);
            (setup_s, wall, cpu, out)
        }));
        let Ok((setup_s, wall, cpu, out)) = rep else {
            report.fail_run(w.queries(), vec![format!("repetition {reps} panicked")]);
            continue;
        };
        let Some(after) = calib::slowdown(w.threads()) else {
            report.fail("the calibration child did not run");
            return None;
        };
        let slow = (before + after) / 2.0;
        let (digest, mut errors) = w.check(&out);
        rep_secs = rep_started.elapsed().as_secs_f64();
        if let Some(first) = &reference {
            if *first != digest {
                errors.push(format!(
                    "repetition {reps} diverged from repetition 1: {}",
                    digest.first_difference(first)
                ));
            }
        }
        let Some(cpu) = cpu else {
            report.fail("/proc/self/stat is unreadable");
            return None;
        };
        if !errors.is_empty() {
            report.fail_run(w.queries(), errors);
            continue;
        }
        reference.get_or_insert(digest);
        setups.push(setup_s / slow);
        qps.push(w.queries() as f64 * slow / wall);
        raw_qps.push(w.queries() as f64 / wall);
        cpu_total += cpu / slow;
        raw_cpu += cpu;
        slowdowns.push(slow);
        served += w.queries();
        last = Some(out);
    }
    let slow = median(&slowdowns);
    while setups.len() < MIN_SETUPS {
        let t = Instant::now();
        let setup = w.setup();
        setups.push(t.elapsed().as_secs_f64() / slow.max(f64::MIN_POSITIVE));
        drop(setup);
    }
    report.notes.push(format!(
        "timed run: {reps} repetitions of {} simulated queries in {:.2} s; sim_qps per repetition {:?}",
        w.queries(),
        started.elapsed().as_secs_f64(),
        qps.iter().map(|q| q.round()).collect::<Vec<_>>()
    ));
    report.notes.push(format!(
        "machine slowdown against the calibration reference: median {slow:.3} (min {:.3}, max {:.3}); \
         in wall seconds sim_qps {:.1} queries/s, cpu_us_per_query {:.4} us",
        slowdowns.iter().copied().fold(f64::INFINITY, f64::min),
        slowdowns.iter().copied().fold(0.0, f64::max),
        median(&raw_qps),
        raw_cpu * 1e6 / served.max(1) as f64,
    ));
    if let (Some(d), Some(out)) = (&reference, &last) {
        report.notes.push(format!("result_digest {}", d.hex()));
        let mut sim = Report::default();
        w.describe(out, &mut sim);
        for def in crate::report::PER_LAYER {
            if let Some(v) = sim.get(def.name) {
                report.notes.push(format!("{} {v} {}", def.name, def.unit));
            }
        }
    }
    if served == 0 {
        return None;
    }
    report.set("sim_qps", median(&qps));
    report.set("cpu_us_per_query", cpu_total * 1e6 / served as f64);
    report.set("setup_s", median(&setups));
    match procfs::peak_rss_mib() {
        Some(mib) => report.set("peak_rss_mib", mib),
        None => report.fail("/proc/self/status is unreadable"),
    }
    None
}

/// True if another round lasting about `round_secs` still ends within
/// `seconds` of `started`.
#[must_use]
pub fn fits(started: Instant, round_secs: f64, seconds: f64) -> bool {
    started.elapsed().as_secs_f64() + round_secs <= seconds
}

/// `trace.overhead`: median traced wall ÷ median untraced wall − 1.
pub fn set_overhead(report: &mut Report, plain_walls: &[f64], traced_walls: &[f64]) {
    report.set(
        "trace.overhead",
        median(traced_walls) / median(plain_walls) - 1.0,
    );
    report.notes.push(format!(
        "trace.overhead from {} untraced / {} traced repetitions",
        plain_walls.len(),
        traced_walls.len()
    ));
}

/// `trace.loop_self_share`: self time of the benchmark's own per-query
/// root spans ÷ their total time, and a per-layer self-time table.
pub fn set_loop_self_share(report: &mut Report, tracer: &Tracer) {
    let rows = probe::self_time_by_name(tracer.spans());
    let root = rows.iter().find(|(n, _, _)| *n == "query");
    if let Some(&(_, total, own)) = root {
        report.set("trace.loop_self_share", own as f64 / total.max(1) as f64);
    }
    report.notes.push(format!(
        "{:<30} {:>10} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    ));
    for (name, total, own) in rows {
        report.notes.push(format!(
            "{name:<30} {:>10} {:>12.3} {:>12.3}",
            tracer.count(name),
            total as f64 / 1e6,
            own as f64 / 1e6
        ));
    }
}

/// Sets a `.p99` metric by the percentile rule, noting a fallback.
pub fn set_p99(report: &mut Report, name: &'static str, sorted: &[u64]) {
    let (value, used) = probe::p99_by_rule(sorted);
    report.set(name, value);
    if used != 99_000 {
        report.notes.push(format!(
            "{name}: {} samples support only p{}",
            sorted.len(),
            used as f64 / 1000.0
        ));
    }
}
