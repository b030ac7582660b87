//! **Ablation 2** — the amortisation horizon `n` of eq. 7.
//!
//! The paper defers "selecting n" to future work. This sweep compares
//! fixed horizons against the adaptive policy (n = expected queries in a
//! 30-day window) at the moderate 10 s point. Small fixed `n` makes the
//! `Build/n` installments swamp per-query prices and freezes investment —
//! the failure mode that motivated the adaptive default.
//!
//! Usage: `cargo run --release -p bench --bin fig7_ablation_amortization [sf] [queries]`

use bench::{
    bench_config_json, cli_scale, print_header, run_cells, write_csv, write_figure_bench_json, Row,
    RowSet,
};
use econ::AmortizationPolicy;
use simulator::{Scheme, SimConfig};

fn main() -> std::io::Result<()> {
    let (sf, n) = cli_scale();
    print_header(
        "Ablation 2 (amortisation horizon n, eq. 7)",
        "econ-cheap at 10 s inter-arrival",
        sf,
        n,
    );
    let policies: Vec<(&str, AmortizationPolicy)> = vec![
        ("fixed-1k", AmortizationPolicy::Fixed(1_000)),
        ("fixed-10k", AmortizationPolicy::Fixed(10_000)),
        ("fixed-100k", AmortizationPolicy::Fixed(100_000)),
        (
            "adaptive-30d",
            AmortizationPolicy::Adaptive {
                window_secs: 30.0 * 86_400.0,
                min_n: 1_000,
                max_n: 500_000,
            },
        ),
    ];
    let cells: Vec<SimConfig> = policies
        .iter()
        .map(|(_, p)| {
            let mut cfg = SimConfig::paper_cell(Scheme::EconCheap, 10.0, sf, n);
            cfg.econ.amortization = *p;
            cfg
        })
        .collect();
    let started = std::time::Instant::now();
    let results = run_cells(cells);
    let wall = started.elapsed().as_secs_f64();
    println!(
        "{:<14} {:>12} {:>12} {:>8} {:>8}",
        "policy", "cost ($)", "resp (s)", "hits %", "builds"
    );
    let mut set = RowSet::new();
    for ((name, _), r) in policies.iter().zip(&results) {
        let row = Row::new()
            .str_cell("policy", name, 14, true)
            .f64_cell(
                "total_cost_usd",
                r.total_operating_cost().as_dollars(),
                12,
                2,
                4,
            )
            .f64_cell("mean_response_s", r.mean_response_secs(), 12, 3, 4)
            .pct_cell("hit_rate", r.hit_rate(), 7, 4)
            .num_cell("builds", r.investments, 8, false);
        println!("{}", set.push(row));
    }
    write_csv(
        "fig7_ablation_amortization",
        &set.csv_header(),
        set.csv_rows(),
    );
    write_figure_bench_json(
        "fig7_ablation_amortization",
        sf,
        n,
        &bench_config_json(sf, n, n * policies.len() as u64, wall),
        set.json_rows(),
    )
}
