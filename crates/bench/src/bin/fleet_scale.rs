//! **Fleet scaling grid** — throughput of the sharded fleet executor
//! under cheapest-quote routing.
//!
//! Two sweeps over a 100-tenant fleet with cheapest-quote routing:
//!
//! * **shards** {1, 2, 4, 8} — cells execute on worker threads;
//! * **health cross-check** — the 1-shard settings with the vitals
//!   scraper (30 s cadence) and per-tenant SLO ledger attached: the
//!   same bitwise gate becomes the snapshot-on/off identity contract,
//!   and the row's q/s against the baseline bounds snapshot overhead.
//!
//! The shard count is wall-clock-only by construction: every economic
//! aggregate must be *identical* down the whole table, and the run exits
//! non-zero if any cell deviates — the fleet determinism contract. A
//! traced replay of the reference cell (telemetry flight recorder
//! attached) must match bit-for-bit too: observability is a pure
//! observer.
//!
//! At the default cell the run writes `BENCH_fleet_scale.json`,
//! recording measured queries/second (best of several interleaved runs
//! per cell) next to the committed PR 2 baseline; `bench --bin trend
//! --check` then holds the committed health-sweep row to its 1-shard
//! baseline.
//!
//! Usage: `cargo run --release -p bench --bin fleet_scale \
//!         [scale_factor] [queries_per_tenant] [tenants] [nodes]`

use bench::{
    cli_arg, cli_max_args, cli_usage_error, fleet_fingerprint, scale_args, write_bench_json,
    write_csv, Row, RowSet,
};
use fleet::{FleetConfig, FleetResult, FleetSim, TenantSloSpec};
use pricing::Money;

const SHARD_GRID: [usize; 4] = [1, 2, 4, 8];

/// Queries/second of the default cell (SF 50, 100 tenants × 100 queries,
/// 8 nodes, cheapest-quote, shards = 1) measured at commit 925d16f
/// (PR 2: memoized planning, still one full enumeration per bidding
/// node) with this harness on the reference machine. Only meaningful for
/// the default cell.
const PR2_BASELINE_QPS: f64 = 23_002.0;

const USAGE: &str = "{bin} [scale_factor] [queries_per_tenant] [tenants] [nodes]\n       \
                     defaults: scale_factor 50, queries_per_tenant 100, tenants 100, nodes 8";

/// Measurement repetitions per cell at the record-writing default cell.
/// Reps are interleaved round-robin across the grid (rep 1 of every
/// cell, then rep 2 of every cell, …) so slow machine drift cannot bias
/// one sweep against another, and each cell keeps its best rep.
/// Reduced-scale runs (CI) only need the bit-identity check, which one
/// rep establishes.
const MEASURE_REPS: usize = 12;

struct Cell {
    sweep: &'static str,
    shards: usize,
    sim: FleetSim,
    /// Measured queries/second of every rep, in run order. The committed
    /// record keeps the best *and* the min/median spread
    /// ([`bench::rep_spread`]), so `trend` can tell machine noise from
    /// real regressions.
    rep_qps: Vec<f64>,
    result: Option<FleetResult>,
}

impl Cell {
    fn spread(&self) -> bench::RepSpread {
        bench::rep_spread(&self.rep_qps)
    }
}

/// Prepares one grid cell (schema/candidate prep excluded from timing).
fn prepare_cell(base: &FleetConfig, sweep: &'static str, shards: usize) -> Cell {
    let mut config = base.clone();
    config.shards = shards;
    Cell {
        sweep,
        shards,
        sim: FleetSim::new(config),
        rep_qps: Vec::new(),
        result: None,
    }
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

    let mut base = FleetConfig::uniform(tenants, nodes, queries_per_tenant, 1.0);
    base.scale_factor = sf;
    base.cells = 16;

    let parallelism = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    println!("================================================================");
    println!(
        "fleet_scale: {tenants} tenants x {nodes} nodes, shard sweep {SHARD_GRID:?} + health cross-check"
    );
    println!(
        "(TPC-H SF {sf}, {queries_per_tenant} queries/tenant = {} total, cheapest-quote routing, {parallelism} core(s) available)",
        u64::from(tenants) * queries_per_tenant
    );
    println!("================================================================");
    println!(
        "{:>20} {:>7} {:>12} {:>12} {:>12} {:>14} {:>12} {:>8} {:>8}",
        "sweep",
        "shards",
        "queries/s",
        "q/s min",
        "q/s median",
        "cost ($)",
        "mean resp",
        "hit rate",
        "builds"
    );

    let mut cells: Vec<Cell> = SHARD_GRID
        .iter()
        .map(|&shards| prepare_cell(&base, "shard-sweep", shards))
        .collect();
    // Health-sweep: the vitals scraper and SLO ledger attached at the
    // reference settings. The row flows through the same bitwise
    // invariance gate as everything else — which *is* the
    // snapshot-on/off bit-identity contract (`fleet_fingerprint`
    // excludes the health series; the economics may not move) — and its
    // q/s next to the baseline row bounds the snapshot overhead.
    {
        let health_base = base.clone().with_health(30.0).with_slo(TenantSloSpec {
            p99_target_secs: 10.0,
            spend_cap: Some(Money::from_dollars(1.0)),
        });
        cells.push(prepare_cell(&health_base, "health-sweep", 1));
    }
    // `FLEET_SCALE_REPS` forces the rep count at any cell — local A/B
    // profiling needs best-of-N at reduced cells too. The record still
    // only refreshes at the default cell.
    let reps = std::env::var("FLEET_SCALE_REPS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&r| r > 0)
        .unwrap_or(if default_cell { MEASURE_REPS } else { 1 });
    for _rep in 0..reps {
        for cell in &mut cells {
            let started = std::time::Instant::now();
            let run = cell.sim.run();
            let wall = started.elapsed().as_secs_f64();
            cell.rep_qps.push(run.queries as f64 / wall.max(1e-9));
            cell.result = Some(run);
        }
    }

    let mut set = RowSet::new();
    let mut invariant = true;
    let reference = cells[0].result.clone().expect("reference cell ran");
    let ref_cost = reference.total_operating_cost();
    let ref_mean = reference.mean_response_secs();
    for cell in &cells {
        let r = cell.result.as_ref().expect("cell ran");
        let cost = r.total_operating_cost();
        let mean = r.mean_response_secs();
        let row = Row::new()
            .str_cell("sweep", cell.sweep, 20, false)
            .num_cell("shards", cell.shards, 7, false)
            .f64_cell("qps", cell.spread().best, 12, 0, 0)
            .f64_cell("qps_min", cell.spread().min, 12, 0, 0)
            .f64_cell("qps_median", cell.spread().median, 12, 0, 0)
            .f64_cell("total_cost_usd", cost.as_dollars(), 14, 4, 6)
            .f64_cell("mean_response_s", mean, 12, 3, 6)
            .pct_cell("hit_rate", r.hit_rate(), 7, 4)
            .num_cell("builds", r.investments, 8, false);
        println!("{}", set.push(row));
        if cost != ref_cost
            || r.queries != reference.queries
            || mean.to_bits() != ref_mean.to_bits()
        {
            invariant = false;
            eprintln!(
                "error: aggregates drifted at sweep={} shards={}",
                cell.sweep, cell.shards
            );
        }
    }

    // The flight recorder must be a pure observer: a traced replay of
    // the reference cell (every quote round and settlement recorded into
    // a `Recorder` sink plus a metrics registry) must reproduce the
    // no-op-sink aggregates bit-for-bit.
    let traced_registry = {
        let mut config = base.clone();
        config.shards = 1;
        let (traced, trace) = FleetSim::new(config).run_traced();
        if fleet_fingerprint(&traced) != fleet_fingerprint(&reference) {
            invariant = false;
            eprintln!("error: reference run drifted under tracing");
        } else {
            println!("traced replay bit-identical to the no-op-sink reference: OK");
        }
        trace.registry
    };

    let baseline_qps = cells[0].spread().best;

    // Snapshot overhead: the health-sweep row against the identical
    // baseline cell. Reported at every scale; the committed record is
    // what `trend --check` holds to the tolerance.
    if let Some(health_cell) = cells.iter().find(|c| c.sweep == "health-sweep") {
        let qps = health_cell.spread().best;
        println!(
            "health-sweep: {qps:.0} q/s with 30s vitals cadence vs {baseline_qps:.0} baseline ({:+.1}%)",
            (qps - baseline_qps) / baseline_qps * 100.0
        );
    }

    write_csv("fleet_scale", &set.csv_header(), set.csv_rows());
    // Only the default acceptance cell refreshes the committed record;
    // reduced-scale runs (CI) must not clobber it.
    if default_cell {
        // The traced replay's metrics-registry snapshot.
        let registry_json = serde_json::to_string(&traced_registry).expect("registry serializes");
        let config = format!(
            "{{\"scale_factor\": {sf}, \"queries_per_tenant\": {queries_per_tenant}, \
             \"tenants\": {tenants}, \"nodes\": {nodes}, \"router\": \"cheapest-quote\", \
             \"parallelism\": {parallelism}, \
             \"qps_note\": \"best of {reps} interleaved runs per cell; qps_min/qps_median record the rep spread\", \
             \"registry_note\": \"traced-replay registry of the reference cell\", \
             \"health_note\": \"the health-sweep row runs the reference settings with a 30s vitals cadence and per-tenant SLO ledger attached; its cost/queries/mean must be bit-identical to the baseline row (the snapshot-on/off identity gate) and its q/s bounds the snapshot overhead\", \
             \"registry\": {registry_json}, \
             \"pr2_baseline_qps\": {PR2_BASELINE_QPS:.0}, \"speedup_vs_pr2\": {:.2}, \
             \"baseline_note\": \"pr2_baseline_qps: commit 925d16f (one full enumeration per \
             bidding node) at this cell, shards 1\"}}",
            baseline_qps / PR2_BASELINE_QPS
        );
        write_bench_json("fleet_scale", &config, set.json_rows());
    } else {
        println!("(non-default cell: BENCH_fleet_scale.json left untouched)");
    }

    if invariant {
        println!("aggregates identical across shard counts and health snapshots: OK");
    } else {
        eprintln!("error: fleet aggregates varied with the shard count or tracing");
        std::process::exit(1);
    }
}
