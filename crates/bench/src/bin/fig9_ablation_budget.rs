//! **Ablation 4** — budget-function shape (Fig. 1 of the paper).
//!
//! The experiments use step budgets ("the user defines a step preference
//! function"). This sweep swaps in the convex and concave shapes of
//! Fig. 1: decaying budgets shrink the affordable plan set (more Case C),
//! which throttles both profit and investment.
//!
//! Usage: `cargo run --release -p bench --bin fig9_ablation_budget [sf] [queries]`

use bench::{
    bench_config_json, cli_scale, print_header, run_cells, write_csv, write_figure_bench_json, Row,
    RowSet,
};
use econ::BudgetShape;
use simulator::{Scheme, SimConfig};

fn main() -> std::io::Result<()> {
    let (sf, n) = cli_scale();
    print_header(
        "Ablation 4 (budget shape, Fig. 1)",
        "econ-cheap at 10 s inter-arrival",
        sf,
        n,
    );
    let shapes = [
        ("step", BudgetShape::Step),
        ("convex", BudgetShape::Convex),
        ("concave", BudgetShape::Concave),
    ];
    let cells: Vec<SimConfig> = shapes
        .iter()
        .map(|&(_, shape)| {
            let mut cfg = SimConfig::paper_cell(Scheme::EconCheap, 10.0, sf, n);
            cfg.econ.budget_shape = shape;
            cfg
        })
        .collect();
    let started = std::time::Instant::now();
    let results = run_cells(cells);
    let wall = started.elapsed().as_secs_f64();
    println!(
        "{:<10} {:>12} {:>12} {:>8} {:>12} {:>12}",
        "shape", "cost ($)", "resp (s)", "hits %", "payments ($)", "profit ($)"
    );
    let mut set = RowSet::new();
    for ((name, _), r) in shapes.iter().zip(&results) {
        let row = Row::new()
            .str_cell("shape", name, 10, true)
            .f64_cell(
                "total_cost_usd",
                r.total_operating_cost().as_dollars(),
                12,
                2,
                4,
            )
            .f64_cell("mean_response_s", r.mean_response_secs(), 12, 3, 4)
            .pct_cell("hit_rate", r.hit_rate(), 7, 4)
            .f64_cell("payments_usd", r.payments.as_dollars(), 12, 2, 4)
            .f64_cell("profit_usd", r.profit.as_dollars(), 12, 2, 4);
        println!("{}", set.push(row));
    }
    write_csv("fig9_ablation_budget", &set.csv_header(), set.csv_rows());
    write_figure_bench_json(
        "fig9_ablation_budget",
        sf,
        n,
        &bench_config_json(sf, n, n * shapes.len() as u64, wall),
        set.json_rows(),
    )
}
