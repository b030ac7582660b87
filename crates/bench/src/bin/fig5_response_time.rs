//! **Figure 5** — "Comparison of average response time for caching schemes".
//!
//! Regenerates the paper's response-time bars: mean query response time
//! (seconds) for each scheme at inter-arrival intervals of 1 / 10 / 30 /
//! 60 seconds, plus median/p99 context the paper aggregates away.
//!
//! Usage: `cargo run --release -p bench --bin fig5_response_time [sf] [queries]`

use bench::{
    bench_config_json, cli_scale, grid_csv_rows, grid_json_rows, print_header, run_paper_grid,
    write_csv, write_figure_bench_json,
};

fn main() -> std::io::Result<()> {
    let (sf, n) = cli_scale();
    print_header(
        "Figure 5",
        "mean response time (s) per caching scheme vs query inter-arrival time",
        sf,
        n,
    );
    let started = std::time::Instant::now();
    let grid = run_paper_grid(sf, n);
    let wall = started.elapsed().as_secs_f64();
    println!(
        "{:<14} {:>12} {:>12} {:>12} {:>12}",
        "interval", "bypass", "econ-col", "econ-cheap", "econ-fast"
    );
    for (interval, results) in &grid {
        print!("{:<14}", format!("{interval}s"));
        for r in results {
            print!(" {:>12.3}", r.mean_response_secs());
        }
        println!();
    }
    println!();
    println!("detail (median / p99 / cache-hit rate):");
    for (interval, results) in &grid {
        for r in results {
            println!(
                "  {interval:>4}s {:<11} mean {:>7.3}s  p50 {:>7.3}s  p99 {:>8.3}s  hits {:>5.1}%",
                r.scheme,
                r.mean_response_secs(),
                r.response_hist.quantile(0.5).unwrap_or(0.0),
                r.response_hist.quantile(0.99).unwrap_or(0.0),
                r.hit_rate() * 100.0
            );
        }
    }
    let rows = grid_csv_rows(&grid, |r| {
        format!(
            "{:.4},{:.4},{:.4},{:.4}",
            r.mean_response_secs(),
            r.response_hist.quantile(0.5).unwrap_or(0.0),
            r.response_hist.quantile(0.99).unwrap_or(0.0),
            r.hit_rate()
        )
    });
    write_csv(
        "fig5_response_time",
        "interval_s,scheme,mean_response_s,p50_s,p99_s,hit_rate",
        &rows,
    );
    let cells = grid_json_rows(&grid, |r| {
        format!(
            "\"mean_response_s\": {:.4}, \"p50_s\": {:.4}, \"p99_s\": {:.4}, \"hit_rate\": {:.4}",
            r.mean_response_secs(),
            r.response_hist.quantile(0.5).unwrap_or(0.0),
            r.response_hist.quantile(0.99).unwrap_or(0.0),
            r.hit_rate()
        )
    });
    let total = grid.iter().map(|(_, rs)| rs.len() as u64 * n).sum::<u64>();
    write_figure_bench_json(
        "fig5_response_time",
        sf,
        n,
        &bench_config_json(sf, n, total, wall),
        &cells,
    )
}
