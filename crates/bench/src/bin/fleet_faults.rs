//! **Fault-injection grid** — the deterministic fault plane
//! (`fleet::faults`) against the fault-free baseline, across crash,
//! recovery, degradation, flash-crowd, cascade and evacuation
//! scenarios.
//!
//! Sweeps {static, elastic} × {none, crash, crash-recover, degraded,
//! flash-crowd, cascade, cascade-evacuate, storm-crash, diurnal-crash}
//! over an underloaded steady fleet (60 s arrivals, so the elastic
//! control plane has idle capacity to drain and the fault plane has
//! survivors to re-route onto), as [`bench::fleet_grid::faults`] defines
//! it:
//!
//! * **none** — the fault-free reference;
//! * **crash** — node 0 (the node the drain order keeps alive longest)
//!   crashes mid-run with no recovery: its books settle at the crash
//!   instant (eq. 11 uptime + eq. 13 disk rent charged), the invested
//!   build capital is written off, and the in-flight backlog re-queues
//!   onto a survivor;
//! * **crash-recover** — the same crash, then a replacement node is
//!   rebuilt by replaying the crashed node's settlement journal into a
//!   fresh economy; the replay must reconcile **exactly** (zero drift
//!   on every ledger component) and the replacement pays eq. 10's boot
//!   cost again;
//! * **degraded** — node 0 limps at 6× service time for the middle of
//!   the run; queries whose winner is degraded with a backlog past the
//!   timeout re-route to the next-best quote;
//! * **flash-crowd** — every tenant's arrivals compress 6× over a surge
//!   window; the fleet must absorb the spike without losing a query;
//! * **cascade** — a rack-style fault group fells nodes {0, 3} at once,
//!   each crash raises a deterministic follow-on crash probability on
//!   the survivors (depth-capped, decaying), a mid-run degradation
//!   trips the deadline-budgeted retry policy, and the lost capital is
//!   written off in full;
//! * **cascade-evacuate** — the identical cascade, but a warning window
//!   precedes every planned crash: the doomed nodes' regret- and
//!   payment-ranked structures migrate to survivors at eq. 12's
//!   column-move price, so salvage replaces part of the write-off;
//! * **storm-crash** / **diurnal-crash** — the crash plan layered on
//!   MMPP storm/calm arrivals and the diurnal sinusoid.
//!
//! The claims the committed record makes: in the **crash** scenario the
//! elastic fleet — which drains idle capacity *and* respawns toward the
//! population floor at the review after the crash — beats the static
//! fleet (running its full surviving population) on total operating
//! cost; and in the **cascade** pair, evacuation strictly shrinks the
//! elastic fleet's ledgered loss (`write_off + transfer_spend` under
//! evacuation stays below the pure write-off) and its loss-adjusted
//! total cost. `crates/bench/tests/fault_record.rs` holds the record to
//! them; `tests/fleet_faults.rs` holds the same orderings on a live
//! reduced-scale grid, with the plane's determinism and exact
//! ledger-replay contracts.
//!
//! The run prints the grid and writes `results/fleet_faults.csv`; at the
//! default scale it also writes `BENCH_fleet_faults.json` (the
//! fault-plane counters per cell, the serialized fault plans and the
//! controller config).
//!
//! Usage: `cargo run --release -p bench --bin fleet_faults \
//!         [scale_factor] [queries_per_tenant] [tenants] [nodes]`

use bench::fleet_grid::faults::{
    arrivals, config, controller, horizon, plan, DEFAULT, INTERVAL_SECS, SCENARIOS,
};
use bench::fleet_grid::slo_miss_rate;
use bench::{write_bench_json, write_csv, GridScale, Row, RowSet};
use fleet::{spend_cap_breaches, worst_p99, FleetSim};
use telemetry::{detect_alarms, Baselines};

const USAGE: &str = "{bin} [scale_factor] [queries_per_tenant] [tenants] [nodes]\n       \
                     defaults: scale_factor 50, queries_per_tenant 100, tenants 64, nodes 8";

fn main() -> std::io::Result<()> {
    let scale = GridScale::from_args(DEFAULT, 2, USAGE);
    let GridScale {
        scale_factor: sf,
        queries_per_tenant,
        tenants,
        nodes,
    } = scale;
    let horizon = horizon(scale);
    println!("================================================================");
    println!(
        "fleet_faults: {tenants} tenants x {nodes} seed nodes, {{static, elastic}} x {{none, crash, crash-recover, degraded, flash-crowd, cascade, cascade-evacuate, storm-crash, diurnal-crash}}"
    );
    println!(
        "(TPC-H SF {sf}, {queries_per_tenant} queries/tenant = {} total, horizon {horizon:.0}s)",
        scale.total_queries()
    );
    println!("================================================================");
    println!(
        "{:>16} {:>8} {:>14} {:>12} {:>8} {:>7} {:>8} {:>8} {:>8} {:>8} {:>8} {:>7} {:>8} {:>12} {:>7} {:>7} {:>12} {:>10} {:>7} {:>7} {:>7}",
        "scenario",
        "mode",
        "cost ($)",
        "mean resp",
        "crashes",
        "recov",
        "reconc",
        "timeouts",
        "writeoff",
        "salvaged",
        "transfer",
        "retries",
        "cascades",
        "requeued(s)",
        "spawns",
        "retires",
        "node-secs",
        "worst p99",
        "miss%",
        "capbrk",
        "alarms"
    );
    let mut set = RowSet::new();
    for scenario in SCENARIOS {
        for (mode, elastic) in [("static", false), ("elastic", true)] {
            let r = FleetSim::new(config(scale, scenario, elastic)).run();
            let e = r.elastic.as_ref();
            let f = r.faults.as_ref();
            let row = Row::new()
                .str_cell("scenario", scenario, 16, false)
                .str_cell("mode", mode, 8, false)
                .f64_cell(
                    "total_cost_usd",
                    r.total_operating_cost().as_dollars(),
                    14,
                    4,
                    6,
                )
                .f64_cell("mean_response_s", r.mean_response_secs(), 12, 3, 6)
                .num_cell("crashes", f.map_or(0, |f| f.crashes), 8, false)
                .num_cell("recoveries", f.map_or(0, |f| f.recoveries), 7, false)
                .num_cell("reconciled", f.map_or(0, |f| f.reconciled), 8, false)
                .num_cell("timeouts", f.map_or(0, |f| f.timeouts), 8, false)
                .f64_cell(
                    "write_off_usd",
                    f.map_or(0.0, |f| f.write_off.as_dollars()),
                    8,
                    4,
                    6,
                )
                .f64_cell(
                    "salvaged_usd",
                    f.map_or(0.0, |f| f.salvaged.as_dollars()),
                    8,
                    4,
                    6,
                )
                .f64_cell(
                    "transfer_usd",
                    f.map_or(0.0, |f| f.transfer_spend.as_dollars()),
                    8,
                    4,
                    6,
                )
                .num_cell("retries", f.map_or(0, |f| f.retries), 7, false)
                .num_cell(
                    "cascade_crashes",
                    f.map_or(0, |f| f.cascade_crashes),
                    8,
                    false,
                )
                .f64_cell(
                    "requeued_secs",
                    f.map_or(0.0, |f| f.requeued_secs),
                    12,
                    3,
                    6,
                )
                .num_cell("spawns", e.map_or(0, |e| e.spawns), 7, false)
                .num_cell("retires", e.map_or(0, |e| e.retires), 7, false)
                // Eq. 11's node-seconds for BOTH modes: the crash
                // scenarios shrink the static fleet's uptime too (a dead
                // node stops billing), so the elastic win is measured
                // against the static fleet's own post-crash bill.
                .f64_cell("node_seconds", r.node_seconds, 12, 0, 1)
                // The per-tenant SLO rollup plus the e-process
                // drift-alarm count over the cell's own vitals and ledger.
                .f64_cell(
                    "slo_worst_p99_s",
                    worst_p99(&r.slo).map_or(0.0, |(_, p99)| p99),
                    10,
                    3,
                    6,
                )
                .pct_cell("slo_miss_rate", slo_miss_rate(&r.slo), 6, 4)
                .num_cell("slo_cap_breaches", spend_cap_breaches(&r.slo), 7, false)
                .num_cell(
                    "drift_alarms",
                    detect_alarms(
                        r.health.as_ref(),
                        &r.slo,
                        r.horizon_secs,
                        &Baselines::default(),
                    )
                    .len(),
                    7,
                    false,
                );
            println!("{}", set.push(row));
        }
    }

    write_csv("fleet_faults", &set.csv_header(), set.csv_rows());
    if scale == DEFAULT {
        // Serialize the plans and controller config the run *actually
        // used* so the committed record can never drift from the code.
        let plan_json = |name: &str| {
            serde_json::to_string(&plan(name, horizon).expect("faulted scenario"))
                .expect("fault plan serializes")
        };
        let arrival_json = |name: &str| {
            serde_json::to_string(&arrivals(name).expect("stochastic arrivals"))
                .expect("arrival kind serializes")
        };
        let elastic_json =
            serde_json::to_string(&controller(nodes)).expect("elastic config serializes");
        let config = format!(
            "{{\"scale_factor\": {sf}, \"queries_per_tenant\": {queries_per_tenant}, \
             \"tenants\": {tenants}, \"nodes\": {nodes}, \"interval_secs\": {INTERVAL_SECS}, \
             \"horizon_secs\": {horizon}, \"router\": \"cheapest-quote\", \
             \"elastic\": {elastic_json}, \
             \"arrivals\": {{\"storm-crash\": {}, \"diurnal-crash\": {}}}, \
             \"fault_plans\": {{\"crash\": {}, \"crash-recover\": {}, \"degraded\": {}, \
             \"flash-crowd\": {}, \"cascade\": {}, \"cascade-evacuate\": {}}}}}",
            arrival_json("storm-crash"),
            arrival_json("diurnal-crash"),
            plan_json("crash"),
            plan_json("crash-recover"),
            plan_json("degraded"),
            plan_json("flash-crowd"),
            plan_json("cascade"),
            plan_json("cascade-evacuate"),
        );
        write_bench_json("fleet_faults", &config, set.json_rows())
    } else {
        println!("(non-default cell: BENCH_fleet_faults.json left untouched)");
        Ok(())
    }
}
