//! **Elastic fleet grid** — the economy-driven control plane
//! (`fleet::elastic`) against the fixed-population baseline, across
//! arrival scenarios with something to react to.
//!
//! Sweeps {static, elastic} × {steady, bursty, diurnal}
//! ([`bench::fleet_grid::elastic`]):
//!
//! * **steady** — the paper's fixed-interval arrivals; elasticity should
//!   shed the idle replicas cheapest-quote routing never warms and hold;
//! * **bursty** — per-tenant 2-state MMPP storms
//!   ([`workload::MarkovModulated`]); the controller rides the backlog
//!   EWMA up through storms and drains idle nodes through calms;
//! * **diurnal** — sinusoidally modulated arrivals
//!   ([`workload::DiurnalSinusoid`]), phase-aligned across tenants: the
//!   fleet breathes with the day/night cycle.
//!
//! The claim the committed record makes: on the bursty and diurnal
//! workloads the elastic fleet **beats the static fleet on total
//! operating cost at equal-or-better mean response time** — eq. 11's
//! node-seconds are the cost lever. `crates/bench/tests/elastic_record.rs`
//! holds the record to it; `tests/fleet_elastic.rs` holds the control
//! plane's determinism contract on live runs.
//!
//! Every cell runs with the health plane attached — a uniform
//! observational SLO contract (10 s p99 target, $1 spend cap) and a 60 s
//! vitals cadence — and the rows carry the per-tenant SLO rollup:
//! worst-tenant p99, fleet deadline-miss rate, and spend-cap breach
//! count.
//!
//! The run prints the grid and writes `results/fleet_elastic.csv`; at
//! the default scale it also writes `BENCH_fleet_elastic.json`.
//!
//! Usage: `cargo run --release -p bench --bin fleet_elastic \
//!         [scale_factor] [queries_per_tenant] [tenants] [nodes]`

use bench::fleet_grid::elastic::{config, controller, DEFAULT, SCENARIOS};
use bench::fleet_grid::slo_miss_rate;
use bench::{write_bench_json, write_csv, GridScale, Row, RowSet};
use fleet::{spend_cap_breaches, worst_p99, FleetSim};

const USAGE: &str = "{bin} [scale_factor] [queries_per_tenant] [tenants] [nodes]\n       \
                     defaults: scale_factor 50, queries_per_tenant 100, tenants 100, nodes 8";

fn main() -> std::io::Result<()> {
    let scale = GridScale::from_args(DEFAULT, 1, USAGE);
    let GridScale {
        scale_factor: sf,
        queries_per_tenant,
        tenants,
        nodes,
    } = scale;
    println!("================================================================");
    println!(
        "fleet_elastic: {tenants} tenants x {nodes} seed nodes, {{static, elastic}} x {{steady, bursty, diurnal}}"
    );
    println!(
        "(TPC-H SF {sf}, {queries_per_tenant} queries/tenant = {} total, cheapest-quote routing)",
        scale.total_queries()
    );
    println!("================================================================");
    println!(
        "{:>8} {:>8} {:>14} {:>12} {:>12} {:>8} {:>8} {:>7} {:>7} {:>6} {:>12} {:>7} {:>10} {:>7} {:>7}",
        "scenario",
        "mode",
        "cost ($)",
        "mean resp",
        "p99 resp",
        "hit rate",
        "builds",
        "spawns",
        "retires",
        "peak",
        "node-secs",
        "ledger",
        "worst p99",
        "miss%",
        "capbrk"
    );
    let mut set = RowSet::new();
    for scenario in SCENARIOS {
        for (mode, elastic) in [("static", false), ("elastic", true)] {
            let r = FleetSim::new(config(scale, scenario, elastic)).run();
            let e = r.elastic.as_ref();
            let row = Row::new()
                .str_cell("scenario", scenario, 8, false)
                .str_cell("mode", mode, 8, false)
                .f64_cell(
                    "total_cost_usd",
                    r.total_operating_cost().as_dollars(),
                    14,
                    4,
                    6,
                )
                .f64_cell("mean_response_s", r.mean_response_secs(), 12, 3, 6)
                .f64_cell(
                    "p99_response_s",
                    r.response_hist.p99().unwrap_or(0.0),
                    12,
                    3,
                    6,
                )
                .pct_cell("hit_rate", r.hit_rate(), 7, 4)
                .num_cell("builds", r.investments, 8, false)
                .num_cell("spawns", e.map_or(0, |e| e.spawns), 7, false)
                .num_cell("retires", e.map_or(0, |e| e.retires), 7, false)
                .num_cell("peak_nodes", e.map_or(nodes, |e| e.peak_nodes), 6, false)
                // The eq. 11 quantity, recorded for BOTH modes — the
                // static fleet's full-population uptime is exactly what
                // elasticity is measured against.
                .f64_cell("node_seconds", r.node_seconds, 12, 0, 1)
                .num_cell("ledger_entries", e.map_or(0, |e| e.ledger.len()), 7, false)
                // The per-tenant SLO rollup: the worst tenant's measured
                // p99, the fleet-wide deadline-miss rate against the 10 s
                // target, and how many tenants blew their spend cap.
                .f64_cell(
                    "slo_worst_p99_s",
                    worst_p99(&r.slo).map_or(0.0, |(_, p99)| p99),
                    10,
                    3,
                    6,
                )
                .pct_cell("slo_miss_rate", slo_miss_rate(&r.slo), 6, 4)
                .num_cell("slo_cap_breaches", spend_cap_breaches(&r.slo), 7, false);
            println!("{}", set.push(row));
        }
    }

    write_csv("fleet_elastic", &set.csv_header(), set.csv_rows());
    if scale == DEFAULT {
        // Serialize the controller config the run *actually used* so the
        // committed record can never drift from the code.
        let elastic_json =
            serde_json::to_string(&controller(nodes)).expect("elastic config serializes");
        let config = format!(
            "{{\"scale_factor\": {sf}, \"queries_per_tenant\": {queries_per_tenant}, \
             \"tenants\": {tenants}, \"nodes\": {nodes}, \"router\": \"cheapest-quote\", \
             \"elastic\": {elastic_json}}}"
        );
        write_bench_json("fleet_elastic", &config, set.json_rows())
    } else {
        println!("(non-default cell: BENCH_fleet_elastic.json left untouched)");
        Ok(())
    }
}
