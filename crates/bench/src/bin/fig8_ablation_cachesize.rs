//! **Ablation 3** — the bypass cache-size cap.
//!
//! The paper adopts 30 % of the database as "the ideal cache size for
//! net-only" from Malik et al. This sweep verifies the claim under our
//! workload: below the knee the cap forces evictions; above it extra
//! capacity buys nothing (the working set fits).
//!
//! Usage: `cargo run --release -p bench --bin fig8_ablation_cachesize [sf] [queries]`

use bench::{
    bench_config_json, cli_scale, print_header, run_cells, write_csv, write_figure_bench_json, Row,
    RowSet,
};
use simulator::{Scheme, SimConfig};

fn main() -> std::io::Result<()> {
    let (sf, n) = cli_scale();
    print_header(
        "Ablation 3 (bypass cache cap)",
        "bypass at 10 s inter-arrival, cap as fraction of the database",
        sf,
        n,
    );
    let fractions = [0.0002, 0.001, 0.05, 0.30, 0.60, 1.0];
    let cells: Vec<SimConfig> = fractions
        .iter()
        .map(|&f| SimConfig::paper_cell(Scheme::Bypass { cache_fraction: f }, 10.0, sf, n))
        .collect();
    let started = std::time::Instant::now();
    let results = run_cells(cells);
    let wall = started.elapsed().as_secs_f64();
    println!(
        "{:<10} {:>12} {:>12} {:>8} {:>8} {:>10}",
        "cap", "cost ($)", "resp (s)", "hits %", "evicts", "disk (GB)"
    );
    let mut set = RowSet::new();
    for (f, r) in fractions.iter().zip(&results) {
        let row = Row::new()
            .custom_cell("cache_fraction", &format!("{:.2}%", f * 100.0), f, 10, true)
            .f64_cell(
                "total_cost_usd",
                r.total_operating_cost().as_dollars(),
                12,
                2,
                4,
            )
            .f64_cell("mean_response_s", r.mean_response_secs(), 12, 3, 4)
            .pct_cell("hit_rate", r.hit_rate(), 7, 4)
            .num_cell("evicts", r.evictions, 8, false)
            .custom_cell(
                "final_disk_bytes",
                &format!("{:.0}", r.final_disk_bytes as f64 / 1e9),
                r.final_disk_bytes,
                10,
                false,
            );
        println!("{}", set.push(row));
    }
    write_csv("fig8_ablation_cachesize", &set.csv_header(), set.csv_rows());
    write_figure_bench_json(
        "fig8_ablation_cachesize",
        sf,
        n,
        &bench_config_json(sf, n, n * fractions.len() as u64, wall),
        set.json_rows(),
    )
}
