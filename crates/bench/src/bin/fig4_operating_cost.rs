//! **Figure 4** — "Comparison of operating costs for caching schemes".
//!
//! Regenerates the paper's cost bars: total operating cost of the caching
//! infrastructure (execution resources + disk rent + node uptime +
//! structure builds) for each scheme at inter-arrival intervals of
//! 1 / 10 / 30 / 60 seconds.
//!
//! Usage: `cargo run --release -p bench --bin fig4_operating_cost [sf] [queries]`

use bench::{
    bench_config_json, cli_scale, grid_csv_rows, grid_json_rows, print_header, run_paper_grid,
    write_csv, write_figure_bench_json,
};

fn main() -> std::io::Result<()> {
    let (sf, n) = cli_scale();
    print_header(
        "Figure 4",
        "operating cost ($) per caching scheme vs query inter-arrival time",
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
            print!(" {:>12.2}", r.total_operating_cost().as_dollars());
        }
        println!();
    }
    println!();
    println!("cost decomposition (cpu/disk/network/io/builds), per cell:");
    for (interval, results) in &grid {
        for r in results {
            println!(
                "  {interval:>4}s {:<11} cpu ${:>8.2}  disk ${:>8.2}  net ${:>8.2}  io ${:>8.2}  builds ${:>7.2}",
                r.scheme,
                r.operating.cpu.as_dollars(),
                r.operating.disk.as_dollars(),
                r.operating.network.as_dollars(),
                r.operating.io.as_dollars(),
                r.build_spend.as_dollars(),
            );
        }
    }
    let rows = grid_csv_rows(&grid, |r| {
        format!(
            "{:.4},{:.4},{:.4},{:.4},{:.4},{:.4}",
            r.total_operating_cost().as_dollars(),
            r.operating.cpu.as_dollars(),
            r.operating.disk.as_dollars(),
            r.operating.network.as_dollars(),
            r.operating.io.as_dollars(),
            r.build_spend.as_dollars()
        )
    });
    write_csv(
        "fig4_operating_cost",
        "interval_s,scheme,total_cost_usd,cpu_usd,disk_usd,network_usd,io_usd,builds_usd",
        &rows,
    );
    let cells = grid_json_rows(&grid, |r| {
        format!(
            "\"total_cost_usd\": {:.4}, \"cpu_usd\": {:.4}, \"disk_usd\": {:.4}, \"network_usd\": {:.4}, \"io_usd\": {:.4}, \"builds_usd\": {:.4}",
            r.total_operating_cost().as_dollars(),
            r.operating.cpu.as_dollars(),
            r.operating.disk.as_dollars(),
            r.operating.network.as_dollars(),
            r.operating.io.as_dollars(),
            r.build_spend.as_dollars()
        )
    });
    let total = grid.iter().map(|(_, rs)| rs.len() as u64 * n).sum::<u64>();
    write_figure_bench_json(
        "fig4_operating_cost",
        sf,
        n,
        &bench_config_json(sf, n, total, wall),
        &cells,
    )
}
