//! **Elastic fleet grid** — the economy-driven control plane
//! (`fleet::elastic`) against the fixed-population baseline, across
//! arrival scenarios with something to react to.
//!
//! Sweeps {static, elastic} × {steady, bursty, diurnal}:
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
//! The claim the committed record pins: on the bursty and diurnal
//! workloads the elastic fleet **beats the static fleet on total
//! operating cost at equal-or-better mean response time** — eq. 11's
//! node-seconds are the cost lever, and the simulated response times
//! cannot be bought back by idle capacity.
//!
//! **Determinism self-check** (always on, any scale): each scenario's
//! elastic run is replayed at more executor shards **and with the
//! telemetry flight recorder attached** ([`FleetSim::run_traced`]); the
//! decision ledger
//! and every economic aggregate must be **bit-identical** to the
//! reference run, and the process exits non-zero on any drift —
//! neither elasticity nor observability may cost the fleet its
//! invariance contract.
//!
//! Every cell runs with the health plane attached — a uniform
//! observational SLO contract (10 s p99 target, $1 spend cap) and a 60 s
//! vitals cadence — and the committed rows carry the per-tenant SLO
//! rollup: worst-tenant p99, fleet deadline-miss rate, and spend-cap
//! breach count.
//!
//! At the default cell the run writes `BENCH_fleet_elastic.json`
//! (one timed run per cell and the merged traced-replay metrics
//! registry).
//!
//! Usage: `cargo run --release -p bench --bin fleet_elastic \
//!         [scale_factor] [queries_per_tenant] [tenants] [nodes]`

use bench::{
    cli_arg, cli_max_args, cli_usage_error, fleet_fingerprint, scale_args, write_bench_json,
    write_csv, Row, RowSet,
};
use fleet::{
    spend_cap_breaches, worst_p99, ElasticConfig, FleetConfig, FleetResult, FleetSim, TenantSloSpec,
};
use pricing::Money;
use simulator::ArrivalKind;
use telemetry::MetricsRegistry;

const USAGE: &str = "{bin} [scale_factor] [queries_per_tenant] [tenants] [nodes]\n       \
                     defaults: scale_factor 50, queries_per_tenant 100, tenants 100, nodes 8";

/// The three arrival scenarios. Gaps are sized so the seed fleet is
/// genuinely *underloaded* in calm phases (drainable idle capacity —
/// at SF 50 a query's mean response is ~1.8 s, so a cell stays stable
/// on one node below ~0.5 q/s) and pressed during storms/peaks
/// (diverging backlog for the controller to react to). Storm/peak
/// phases outlast eq. 10's 60 s node boot so a scale-up can still pay.
fn scenario_arrival(name: &str) -> ArrivalKind {
    match name {
        "steady" => ArrivalKind::Fixed {
            interval_secs: 15.0,
        },
        "bursty" => ArrivalKind::Mmpp {
            calm_gap_secs: 25.0,
            storm_gap_secs: 1.0,
            calm_sojourn_secs: 400.0,
            storm_sojourn_secs: 60.0,
        },
        "diurnal" => ArrivalKind::Diurnal {
            mean_gap_secs: 20.0,
            amplitude: 0.9,
            period_secs: 400.0,
            phase: -std::f64::consts::FRAC_PI_2,
        },
        other => unreachable!("unknown scenario {other}"),
    }
}

/// The control plane the grid runs: reviews every 5 simulated seconds,
/// smoothed over ~3 reviews, scales up under a mean backlog above 4 s
/// per routable node and drains below 0.5 s. Growth is capped at the
/// seed population, so the elastic fleet's instantaneous burn rate
/// never exceeds the static baseline it is compared against — the win
/// must come from draining idle capacity, not from refusing to grow.
fn elastic_config(seed_nodes: usize) -> ElasticConfig {
    ElasticConfig {
        review_interval_secs: 5.0,
        ewma_alpha: 0.3,
        scale_up_backlog: 4.0,
        scale_down_backlog: 0.25,
        max_response_secs: 0.0,
        min_nodes: 1,
        max_nodes: seed_nodes,
        cooldown_reviews: 4,
        drain_grace_secs: 60.0,
    }
}

struct Cell {
    scenario: &'static str,
    mode: &'static str,
    qps: f64,
    result: FleetResult,
}

fn main() {
    cli_max_args(4, USAGE);
    let (sf, queries_per_tenant) = scale_args(50.0, 100, USAGE);
    let tenants: u32 = cli_arg(3, "tenant count", 100, USAGE);
    let nodes: usize = cli_arg(4, "node count", 8, USAGE);
    if tenants == 0 || nodes == 0 {
        cli_usage_error("tenants and nodes must both be positive", USAGE);
    }
    let default_cell = (sf - 50.0).abs() < f64::EPSILON
        && queries_per_tenant == 100
        && tenants == 100
        && nodes == 8;

    let base = |scenario: &str, elastic: bool| -> FleetConfig {
        let mut config = FleetConfig::uniform(tenants, nodes, queries_per_tenant, 1.0)
            .with_arrivals(scenario_arrival(scenario));
        config.scale_factor = sf;
        config.cells = 16;
        // The health plane rides every cell: a uniform observational SLO
        // contract (the ledger is always on; the spec only marks the
        // targets) and a 60 s vitals cadence. The invariance replays
        // below therefore double as the snapshot-on determinism gate.
        config = config.with_health(60.0).with_slo(TenantSloSpec {
            p99_target_secs: 10.0,
            spend_cap: Some(Money::from_dollars(1.0)),
        });
        if elastic {
            config = config.with_elastic(elastic_config(nodes));
        }
        config
    };

    let parallelism = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    println!("================================================================");
    println!(
        "fleet_elastic: {tenants} tenants x {nodes} seed nodes, {{static, elastic}} x {{steady, bursty, diurnal}}"
    );
    println!(
        "(TPC-H SF {sf}, {queries_per_tenant} queries/tenant = {} total, cheapest-quote routing, {parallelism} core(s) available)",
        u64::from(tenants) * queries_per_tenant
    );
    println!("================================================================");

    let scenarios: [&'static str; 3] = ["steady", "bursty", "diurnal"];
    let mut cells: Vec<Cell> = Vec::new();
    for scenario in scenarios {
        for (mode, elastic) in [("static", false), ("elastic", true)] {
            let sim = FleetSim::new(base(scenario, elastic));
            let started = std::time::Instant::now();
            let result = sim.run();
            let wall = started.elapsed().as_secs_f64();
            cells.push(Cell {
                scenario,
                mode,
                qps: result.queries as f64 / wall.max(1e-9),
                result,
            });
        }
    }

    println!(
        "{:>8} {:>8} {:>10} {:>14} {:>12} {:>12} {:>8} {:>8} {:>7} {:>7} {:>6} {:>12} {:>7} {:>10} {:>7} {:>7}",
        "scenario",
        "mode",
        "queries/s",
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
    for cell in &cells {
        let r = &cell.result;
        let e = r.elastic.as_ref();
        let row = Row::new()
            .str_cell("scenario", cell.scenario, 8, false)
            .str_cell("mode", cell.mode, 8, false)
            .f64_cell("qps", cell.qps, 10, 0, 0)
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
            // The eq. 11 quantity, recorded for BOTH modes — the static
            // fleet's full-population uptime is exactly what elasticity
            // is measured against.
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
            .pct_cell(
                "slo_miss_rate",
                {
                    let admitted = r.slo.total_admitted();
                    let misses: u64 = r.slo.tenants.iter().map(|t| t.deadline_misses).sum();
                    if admitted == 0 {
                        0.0
                    } else {
                        misses as f64 / admitted as f64
                    }
                },
                6,
                4,
            )
            .num_cell("slo_cap_breaches", spend_cap_breaches(&r.slo), 7, false);
        println!("{}", set.push(row));
    }

    // ── Determinism self-check ──────────────────────────────────────
    // Elasticity must preserve the fleet's invariance contract: the
    // decision ledger and every aggregate are a pure function of the
    // config, not of the shard count.
    let mut invariant = true;
    let mut traced_registry = MetricsRegistry::new();
    for scenario in scenarios {
        let reference = fleet_fingerprint(
            cells
                .iter()
                .find(|c| c.scenario == scenario && c.mode == "elastic")
                .map(|c| &c.result)
                .expect("elastic cell ran"),
        );
        let mut config = base(scenario, true);
        config.shards = 4;
        if fleet_fingerprint(&FleetSim::new(config).run()) != reference {
            invariant = false;
            eprintln!("error: {scenario} elastic run drifted under shards=4");
        }
        // The flight recorder must be a pure observer: a traced replay
        // (every quote round, settlement and lifecycle decision
        // recorded) produces the same fingerprint as the no-op-sink run.
        let (traced, trace) = FleetSim::new(base(scenario, true)).run_traced();
        if fleet_fingerprint(&traced) != reference {
            invariant = false;
            eprintln!("error: {scenario} elastic run drifted under tracing");
        }
        traced_registry.merge(&trace.registry);
        println!("{scenario}: ledger + aggregates bit-identical across shards/tracing: OK");
    }

    // ── The economic claim ──────────────────────────────────────────
    let pair = |scenario: &str| {
        let get = |mode: &str| {
            cells
                .iter()
                .find(|c| c.scenario == scenario && c.mode == mode)
                .map(|c| &c.result)
                .expect("cell ran")
        };
        (get("static"), get("elastic"))
    };
    let mut claim_holds = true;
    for scenario in ["bursty", "diurnal"] {
        let (st, el) = pair(scenario);
        let cheaper = el.total_operating_cost() < st.total_operating_cost();
        let responsive = el.mean_response_secs() <= st.mean_response_secs() * (1.0 + 1e-9);
        println!(
            "{scenario}: elastic cost ${:.4} vs static ${:.4} ({}), mean resp {:.3}s vs {:.3}s ({})",
            el.total_operating_cost().as_dollars(),
            st.total_operating_cost().as_dollars(),
            if cheaper { "cheaper" } else { "NOT cheaper" },
            el.mean_response_secs(),
            st.mean_response_secs(),
            if responsive { "equal-or-better" } else { "WORSE" },
        );
        claim_holds &= cheaper && responsive;
    }

    write_csv("fleet_elastic", &set.csv_header(), set.csv_rows());
    if default_cell {
        // Serialize the controller config the run *actually used* so the
        // committed record can never drift from the code.
        let ec = elastic_config(nodes);
        let elastic_json = serde_json::to_string(&ec).expect("elastic config serializes");
        // The merged metrics-registry snapshot of the three traced
        // elastic replays.
        let registry_json = serde_json::to_string(&traced_registry).expect("registry serializes");
        let config = format!(
            "{{\"scale_factor\": {sf}, \"queries_per_tenant\": {queries_per_tenant}, \
             \"tenants\": {tenants}, \"nodes\": {nodes}, \"router\": \"cheapest-quote\", \
             \"parallelism\": {parallelism}, \
             \"qps_note\": \"one timed run per cell\", \
             \"registry_note\": \"merged traced-replay registry (3 elastic scenarios)\", \
             \"registry\": {registry_json}, \
             \"elastic\": {elastic_json}}}"
        );
        write_bench_json("fleet_elastic", &config, set.json_rows());
        if !claim_holds {
            eprintln!("error: elastic must beat static on cost at equal-or-better response (bursty + diurnal)");
            std::process::exit(1);
        }
    } else {
        println!("(non-default cell: BENCH_fleet_elastic.json left untouched)");
        if !claim_holds {
            println!("note: economic claim not gated at reduced scale");
        }
    }

    if invariant {
        println!("elastic determinism contract holds: OK");
    } else {
        eprintln!("error: elastic ledger/aggregates varied with a wall-clock-only knob");
        std::process::exit(1);
    }
}
