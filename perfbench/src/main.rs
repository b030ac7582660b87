//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` is the timed run: tracing off, repetitions of the named
//! workload for `--seconds`, and the end-to-end metrics. `--trace 1` is
//! the traced run: spans around the benchmark's calls into each layer,
//! kept in memory and written to `.bench_trace/<workload>.tsv` at the
//! end, and the per-layer metrics. Either run checks the simulator's
//! outputs and prints every metric by name with its unit; the last line
//! of standard output is one JSON object. A failed check exits 1, bad
//! arguments exit 2. `perfbench --calibrate <threads>` is the
//! machine-speed probe the timed run starts as a child process.

mod calib;
mod env;
mod fleet;
mod harness;
mod levers;
mod node;
mod probe;
mod procfs;
mod report;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use report::{Report, END_TO_END, PER_LAYER};

/// The workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["node-adhoc", "node-prepared", "fleet-market", "fleet-ops"];

const USAGE: &str =
    "usage: perfbench --workload <node-adhoc|node-prepared|fleet-market|fleet-ops> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Per-repetition sizes of the four workloads.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Simulated queries per node-workload repetition.
    pub node_queries: u64,
    /// Queries per tenant of `fleet-market`.
    pub market_queries_per_tenant: u64,
    /// Queries per tenant of `fleet-ops`.
    pub ops_queries_per_tenant: u64,
}

/// The sizes the benchmark runs at.
pub const SIZES: Sizes = Sizes {
    node_queries: 60_000,
    market_queries_per_tenant: 1_500,
    ops_queries_per_tenant: 2_000,
};

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| *w == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !s.is_finite() || s < 0.0 {
                    return Err(format!("bad seconds {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Runs one workload and returns its report (and, when traced, the
/// spans to write out).
fn run(args: &Args, sizes: Sizes) -> (Report, Option<probe::Tracer>) {
    let mut report = Report::default();
    report.notes.push(format!(
        "perfbench {} seed {} seconds {} {}",
        args.workload,
        args.seed,
        args.seconds,
        if args.trace { "traced" } else { "timed" }
    ));
    let node = |prepared| node::NodeWorkload {
        prepared,
        seed: args.seed,
        queries: sizes.node_queries,
    };
    let fleet = |kind, queries_per_tenant| fleet::FleetWorkload {
        kind,
        seed: args.seed,
        queries_per_tenant,
    };
    let market = fleet(fleet::Kind::Market, sizes.market_queries_per_tenant);
    let ops = fleet(fleet::Kind::Ops, sizes.ops_queries_per_tenant);
    let s = args.seconds;
    let dispatch = |report: &mut Report| match (args.workload, args.trace) {
        ("node-adhoc", true) => node::traced(&node(false), s, report),
        ("node-prepared", true) => node::traced(&node(true), s, report),
        ("fleet-market", true) => fleet::market_traced(&market, s, report),
        ("fleet-ops", true) => fleet::ops_traced(&ops, s, report),
        ("node-adhoc", false) => harness::timed(&node(false), s, report),
        ("node-prepared", false) => harness::timed(&node(true), s, report),
        ("fleet-market", false) => harness::timed(&market, s, report),
        ("fleet-ops", false) => harness::timed(&ops, s, report),
        _ => unreachable!("workload names are validated"),
    };
    let spans = catch_unwind(AssertUnwindSafe(|| dispatch(&mut report))).unwrap_or_else(|_| {
        report.attempted = report.attempted.max(1);
        report.fail_run(report.attempted, vec!["the run panicked".to_string()]);
        None
    });
    (report, spans)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, threads] = argv.as_slice() {
        if flag == calib::FLAG {
            std::process::exit(calib::child_main(threads));
        }
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let (report, tracer) = run(&args, SIZES);
    let catalog = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    if let Some(tracer) = tracer {
        let path = Path::new(".bench_trace").join(format!("{}.tsv", args.workload));
        if let Err(e) = probe::write_spans(&path, tracer.spans()) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    print!("{}", report.render(catalog));
    std::process::exit(if report.correct() { 0 } else { 1 });
}

#[cfg(test)]
mod tests;
