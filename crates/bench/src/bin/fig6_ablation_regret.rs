//! **Ablation 1** — the investment threshold fraction `a` of eq. 3.
//!
//! The paper fixes `0 < a < 1` without choosing a value. This sweep shows
//! the trade-off at the moderate 10 s inter-arrival point: small `a`
//! invests eagerly (fast warm-up, more wasted builds under drift), large
//! `a` invests late (cheap but slow).
//!
//! Usage: `cargo run --release -p bench --bin fig6_ablation_regret [sf] [queries]`

use bench::{
    bench_config_json, cli_scale, print_header, run_cells, write_csv, write_figure_bench_json, Row,
    RowSet,
};
use simulator::{Scheme, SimConfig};

fn main() -> std::io::Result<()> {
    let (sf, n) = cli_scale();
    print_header(
        "Ablation 1 (regret threshold a, eq. 3)",
        "econ-cheap at 10 s inter-arrival",
        sf,
        n,
    );
    let fractions = [0.02, 0.05, 0.1, 0.2, 0.4];
    let cells: Vec<SimConfig> = fractions
        .iter()
        .map(|&a| {
            let mut cfg = SimConfig::paper_cell(Scheme::EconCheap, 10.0, sf, n);
            cfg.econ.investment.regret_fraction = a;
            cfg
        })
        .collect();
    let started = std::time::Instant::now();
    let results = run_cells(cells);
    let wall = started.elapsed().as_secs_f64();
    println!(
        "{:<8} {:>12} {:>12} {:>8} {:>8} {:>8}",
        "a", "cost ($)", "resp (s)", "hits %", "builds", "evicts"
    );
    let mut set = RowSet::new();
    for (a, r) in fractions.iter().zip(&results) {
        let row = Row::new()
            .num_cell("a", a, 8, true)
            .f64_cell(
                "total_cost_usd",
                r.total_operating_cost().as_dollars(),
                12,
                2,
                4,
            )
            .f64_cell("mean_response_s", r.mean_response_secs(), 12, 3, 4)
            .pct_cell("hit_rate", r.hit_rate(), 7, 4)
            .num_cell("builds", r.investments, 8, false)
            .num_cell("evicts", r.evictions, 8, false);
        println!("{}", set.push(row));
    }
    write_csv("fig6_ablation_regret", &set.csv_header(), set.csv_rows());
    write_figure_bench_json(
        "fig6_ablation_regret",
        sf,
        n,
        &bench_config_json(sf, n, n * fractions.len() as u64, wall),
        set.json_rows(),
    )
}
