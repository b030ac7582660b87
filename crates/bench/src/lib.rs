//! # bench — the experiment harness
//!
//! One binary per figure of the paper (see DESIGN.md's experiment index):
//!
//! | target | regenerates |
//! |--------|-------------|
//! | `fig4_operating_cost` | Fig. 4 — operating cost vs inter-arrival interval |
//! | `fig5_response_time`  | Fig. 5 — mean response time vs inter-arrival interval |
//! | `fig6_ablation_regret` | eq. 3 threshold fraction `a` sweep |
//! | `fig7_ablation_amortization` | eq. 7 horizon `n` sweep (fixed vs adaptive) |
//! | `fig8_ablation_cachesize` | bypass cache-cap sweep (the paper's "ideal 30 %") |
//! | `fig9_ablation_budget` | budget-shape sweep (Fig. 1 shapes) |
//! | `fig10_ablation_attribution` | regret attribution: uniform share vs full value |
//! | `pilot`, `probe_paper` | calibration tools (not shipped figures) |
//!
//! Every figure binary accepts `[scale_factor] [num_queries]` positional
//! arguments (defaults: SF 2500 — the paper's 2.5 TB — and a query count
//! sized so the run finishes in about a minute), prints the paper-style
//! table, and drops a CSV under `results/`.
//!
//! Beside the figures, three binaries cover the fleet extensions:
//!
//! | target | writes |
//! |--------|--------|
//! | `fleet_elastic` | `BENCH_fleet_elastic.json`: elastic vs static fleets |
//! | `fleet_faults` | `BENCH_fleet_faults.json`: the fault-plane grid |
//! | `explain` | a reference trace (`record`), and answers queries on it |
//!
//! The fleet bins only write records. The fleets they run are defined in
//! [`fleet_grid`], which the tests share: the invariants (shard and
//! tracing invariance, exact ledger replay, cross-footing rollups) and
//! the fault grid's orderings on live runs are held by the root test
//! suite, and the committed records by this crate's `tests/*_record.rs`.
//! Throughput is measured by the repo benchmark (`perfbench/`, declared
//! in `BENCHMARK.json`), not here.

#![forbid(unsafe_code)]

use simulator::{run_simulation, RunResult, Scheme, SimConfig};
use std::io::Write;
use std::path::Path;

pub mod cli;
pub mod fleet_grid;
pub mod row;

pub use cli::{cli_arg, cli_max_args, cli_scale, cli_usage_error, scale_args};
pub use fleet_grid::{recording_config, GridScale};
pub use row::{Row, RowSet};

/// The paper's inter-arrival grid (seconds), Figures 4 and 5.
pub const PAPER_INTERVALS: [f64; 4] = [1.0, 10.0, 30.0, 60.0];

/// Default scale factor for shipped figures: the paper's 2.5 TB backend.
pub const DEFAULT_SF: f64 = 2500.0;

/// Default query count for shipped figures. The paper simulates 10⁶
/// queries; 5 × 10⁵ reproduces the same post-warm-up regime in about a
/// minute of harness time.
pub const DEFAULT_QUERIES: u64 = 500_000;

/// Runs a set of independent cells in parallel, capped at the machine's
/// available parallelism (an unbounded thread-per-cell spawn used to
/// oversubscribe small runners on large grids).
///
/// Results are returned in input order.
///
/// # Panics
/// Panics if any cell's config is invalid.
#[must_use]
pub fn run_cells(cells: Vec<SimConfig>) -> Vec<RunResult> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    let parallelism = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let workers = parallelism.min(cells.len()).max(1);

    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<RunResult>>> = cells.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(cfg) = cells.get(i) else { break };
                let result = run_simulation(cfg.clone());
                *results[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every cell simulated")
        })
        .collect()
}

/// Runs the full paper grid: every scheme × every interval.
#[must_use]
pub fn run_paper_grid(sf: f64, n: u64) -> Vec<(f64, Vec<RunResult>)> {
    PAPER_INTERVALS
        .iter()
        .map(|&interval| {
            let cells: Vec<SimConfig> = Scheme::paper_schemes()
                .into_iter()
                .map(|scheme| SimConfig::paper_cell(scheme, interval, sf, n))
                .collect();
            (interval, run_cells(cells))
        })
        .collect()
}

/// Prints a figure header.
pub fn print_header(figure: &str, caption: &str, sf: f64, n: u64) {
    println!("================================================================");
    println!("{figure}: {caption}");
    println!(
        "(TPC-H SF {sf} ≈ {:.1} TB backend, {n} queries, 25 Mbps, EC2-2009 prices)",
        sf / 1000.0
    );
    println!("================================================================");
}

/// Writes rows as CSV under `results/<name>.csv`; ignores I/O errors after
/// warning (figures must still print when the directory is read-only).
pub fn write_csv(name: &str, header: &str, rows: &[String]) {
    let dir = Path::new("results");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create results/: {e}");
        return;
    }
    let path = dir.join(format!("{name}.csv"));
    match std::fs::File::create(&path) {
        Ok(mut f) => {
            let _ = writeln!(f, "{header}");
            for row in rows {
                let _ = writeln!(f, "{row}");
            }
            println!("(wrote {})", path.display());
        }
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

/// Formats one grid for CSV: `interval,scheme,value`.
#[must_use]
pub fn grid_csv_rows<F: Fn(&RunResult) -> String>(
    grid: &[(f64, Vec<RunResult>)],
    value: F,
) -> Vec<String> {
    let mut rows = Vec::new();
    for (interval, results) in grid {
        for r in results {
            rows.push(format!("{interval},{},{}", r.scheme, value(r)));
        }
    }
    rows
}

/// True if `(sf, n)` is the paper-scale default cell — the only cell
/// whose run may refresh a committed `BENCH_*.json` record.
#[must_use]
pub fn is_paper_cell(sf: f64, n: u64) -> bool {
    (sf - DEFAULT_SF).abs() < f64::EPSILON && n == DEFAULT_QUERIES
}

/// [`write_bench_json`] guarded by the figure harness's default-cell
/// rule: reduced-scale runs (CI, smoke tests) must not clobber the
/// committed paper-scale record.
///
/// # Errors
/// Returns [`write_bench_json`]'s error.
pub fn write_figure_bench_json(
    name: &str,
    sf: f64,
    n: u64,
    config: &str,
    cells: &[String],
) -> std::io::Result<()> {
    if is_paper_cell(sf, n) {
        write_bench_json(name, config, cells)
    } else {
        println!("(non-default cell: BENCH_{name}.json left untouched)");
        Ok(())
    }
}

/// Writes `BENCH_<name>.json` in the working directory (the repo root
/// when run via `cargo run`), the machine-readable record of a bench's
/// default cell. `config` is a JSON object string (including the scale,
/// so a record is never mistaken for one at a different scale); `cells`
/// are JSON object strings.
///
/// # Errors
/// Returns the I/O error, naming the record, when it cannot be written:
/// for the bins whose only job is the record, a failed write must fail
/// the run.
pub fn write_bench_json(name: &str, config: &str, cells: &[String]) -> std::io::Result<()> {
    let json = format!(
        "{{\n\"bench\": \"{name}\",\n\"config\": {config},\n\"cells\": [\n{}\n]\n}}\n",
        cells.join(",\n")
    );
    let path = format!("BENCH_{name}.json");
    std::fs::write(&path, json)
        .map_err(|e| std::io::Error::new(e.kind(), format!("cannot write {path}: {e}")))?;
    println!("(wrote {path})");
    Ok(())
}

/// The standard figure-bench JSON config object: grid scale plus the
/// measured wall-clock and simulated-queries-per-second throughput of
/// the whole run.
#[must_use]
pub fn bench_config_json(sf: f64, n: u64, total_queries: u64, wall_secs: f64) -> String {
    format!(
        "{{\"scale_factor\": {sf}, \"queries_per_cell\": {n}, \"total_queries\": {total_queries}, \
         \"wall_secs\": {wall_secs:.3}, \"queries_per_sec\": {:.0}}}",
        total_queries as f64 / wall_secs.max(1e-9)
    )
}

/// Formats one scheme×interval grid as JSON cell objects; `fields` maps a
/// run to `"key": value` pairs appended after the interval and scheme.
#[must_use]
pub fn grid_json_rows<F: Fn(&RunResult) -> String>(
    grid: &[(f64, Vec<RunResult>)],
    fields: F,
) -> Vec<String> {
    let mut rows = Vec::new();
    for (interval, results) in grid {
        for r in results {
            rows.push(format!(
                "  {{\"interval_s\": {interval}, \"scheme\": \"{}\", {}}}",
                r.scheme,
                fields(r)
            ));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    #[test]
    fn an_unwritable_record_is_an_error() {
        // The directory `BENCH_no-such-dir/` does not exist.
        let err = super::write_bench_json("no-such-dir/record", "{}", &[]).unwrap_err();
        let message = err.to_string();
        assert!(
            message.starts_with("cannot write BENCH_no-such-dir/record.json"),
            "{message}"
        );
    }
}
