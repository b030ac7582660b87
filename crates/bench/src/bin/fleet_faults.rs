//! **Fault-injection grid** — the deterministic fault plane
//! (`fleet::faults`) against the fault-free baseline, across crash,
//! recovery, degradation, flash-crowd, cascade and evacuation
//! scenarios.
//!
//! Sweeps {static, elastic} × {none, crash, crash-recover, degraded,
//! flash-crowd, cascade, cascade-evacuate, storm-crash, diurnal-crash}
//! over an underloaded steady fleet (60 s arrivals, so the elastic
//! control plane has idle capacity to drain and the fault plane has
//! survivors to re-route onto):
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
//!   MMPP storm/calm arrivals and the diurnal sinusoid: the bench row
//!   that pins fault × stochastic-arrival shard bit-identity.
//!
//! The claims the committed record pins: in the **crash** scenario the
//! elastic fleet — which drains idle capacity *and* respawns toward the
//! population floor at the review after the crash — beats the static
//! fleet (running its full surviving population) on total operating
//! cost; and in the **cascade** pair, evacuation strictly shrinks the
//! elastic fleet's ledgered loss (`write_off + transfer_spend` under
//! evacuation stays below the pure write-off) and its loss-adjusted
//! total cost. Resilience and economy come from the same control loop.
//!
//! **Determinism self-check** (always on, any scale): each faulted
//! scenario's elastic run is replayed at 2 and 4 executor shards and
//! with the flight recorder attached; every aggregate **and the fault
//! record stream**
//! must be bit-identical. Every recovery in the grid must reconcile
//! exactly, and the elastic crash cell must contain a
//! `population-floor` respawn in its decision ledger. Non-zero exit on
//! any violation.
//!
//! At the default cell the run writes `BENCH_fleet_faults.json`
//! (one timed run per cell, fault-plane counters per cell, the
//! serialized fault plans and the merged traced-replay registry).
//!
//! Usage: `cargo run --release -p bench --bin fleet_faults \
//!         [scale_factor] [queries_per_tenant] [tenants] [nodes]`

use bench::{
    cli_arg, cli_max_args, cli_usage_error, fleet_fingerprint, scale_args, write_bench_json,
    write_csv, Row, RowSet,
};
use fleet::{
    spend_cap_breaches, worst_p99, ElasticAction, ElasticConfig, FaultOutcome, FaultPlan,
    FleetConfig, FleetResult, FleetSim, TenantSloSpec,
};
use pricing::Money;
use simulator::ArrivalKind;
use telemetry::{detect_alarms, Baselines, MetricsRegistry};

const USAGE: &str = "{bin} [scale_factor] [queries_per_tenant] [tenants] [nodes]\n       \
                     defaults: scale_factor 50, queries_per_tenant 100, tenants 64, nodes 8";

/// Fixed inter-arrival gap (seconds). Underloaded on purpose — at the
/// default cell (SF 50, ~1.8 s mean service, 8 tenants per cell) the
/// utilization is ~0.24, so the elastic fleet drains to its floor, the
/// crash genuinely drops a cell below it, and the fault plane always
/// has a survivor to re-route onto.
const INTERVAL_SECS: f64 = 60.0;

/// The uniform observational SLO contract: every tenant targets this
/// p99. Sized between the fault-free grid's tail (which must hold its
/// 1% error budget) and the degraded node's 6x-slowed responses (which
/// must burn it hard enough for the e-process drift detector to fire —
/// the alarm fixture the committed record pins).
const SLO_P99_TARGET_SECS: f64 = 6.0;

/// The faulted scenarios (everything but `none`), with fault instants
/// proportional to the run horizon so the same grid exercises every
/// fault at any `queries_per_tenant` scale. The crash victim is node 0:
/// the elastic drain order retires highest ids first, so node 0 is
/// alive under *both* modes when the crash fires — the two cells suffer
/// the identical fault.
fn scenario_plan(name: &str, horizon: f64) -> Option<FaultPlan> {
    let plan = FaultPlan::new(horizon);
    // Crashes land just *after* an arrival batch (the fixed streams all
    // tick on multiples of the interval), so the victim dies with work
    // in flight and the backlog re-queue path shows in the record.
    let crash_at = 0.4 * horizon + 0.05;
    // The correlated-failure plan: a rack-style group fells {0, 3}
    // together (node 3 is already drained under the elastic mode, so
    // both modes lose node 0's capital to the same instant), each crash
    // rolls a decaying follow-on probability over the survivors, a
    // mid-run degradation trips the deadline-budgeted retry policy.
    let cascade = |p: FaultPlan| {
        p.with_group(vec![0, 3], crash_at)
            .with_cascade(0.35, 0.5, 0.005 * horizon, 2)
            .with_degrade(1, 0.2 * horizon, 0.6 * horizon, 6.0)
            .with_timeout(2.0)
            .with_retry(3, 0.5, 2.0, 0.5)
    };
    match name {
        "none" => None,
        "crash" | "storm-crash" | "diurnal-crash" => Some(plan.with_crash(0, crash_at)),
        "crash-recover" => Some(plan.with_crash_recover(0, crash_at, 0.08 * horizon)),
        "degraded" => Some(
            plan.with_degrade(0, 0.2 * horizon, 0.6 * horizon, 6.0)
                .with_timeout(2.0),
        ),
        "flash-crowd" => Some(plan.with_surge(0.3 * horizon, 0.1 * horizon, 6.0)),
        "cascade" => Some(cascade(plan)),
        // Warning-only evacuation, short window: long enough to ship
        // the ranked structures, short enough that the victim cannot
        // rebuild what it just shipped before the crash lands. Drain
        // evacuation (`on_drain`) stays off here — a node the control
        // plane retires voluntarily writes nothing off, so moving its
        // structures spends wire money without shrinking the loss this
        // scenario measures.
        "cascade-evacuate" => Some(cascade(plan).with_evacuation(0.01 * horizon, false)),
        other => unreachable!("unknown scenario {other}"),
    }
}

/// Arrival process per scenario: the storm/diurnal rows layer the crash
/// plan on stochastic arrivals; everything else runs the fixed grid.
fn scenario_arrivals(name: &str) -> Option<ArrivalKind> {
    match name {
        "storm-crash" => Some(ArrivalKind::Mmpp {
            calm_gap_secs: INTERVAL_SECS,
            storm_gap_secs: INTERVAL_SECS / 5.0,
            calm_sojourn_secs: 600.0,
            storm_sojourn_secs: 300.0,
        }),
        "diurnal-crash" => Some(ArrivalKind::Diurnal {
            mean_gap_secs: INTERVAL_SECS,
            amplitude: 0.8,
            period_secs: 1_500.0,
            phase: -std::f64::consts::FRAC_PI_2,
        }),
        _ => None,
    }
}

/// The control plane under test: drains idle capacity down to a floor
/// of 2 nodes and — the fault-plane contract — respawns toward that
/// floor at the first review after a crash drops the cell below it.
fn elastic_config(seed_nodes: usize) -> ElasticConfig {
    ElasticConfig {
        review_interval_secs: 5.0,
        ewma_alpha: 0.3,
        scale_up_backlog: 4.0,
        scale_down_backlog: 0.25,
        max_response_secs: 0.0,
        min_nodes: 2,
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
    let tenants: u32 = cli_arg(3, "tenant count", 64, USAGE);
    let nodes: usize = cli_arg(4, "node count", 8, USAGE);
    if tenants == 0 || nodes < 2 {
        cli_usage_error("tenants must be positive and nodes at least 2", USAGE);
    }
    let default_cell = (sf - 50.0).abs() < f64::EPSILON
        && queries_per_tenant == 100
        && tenants == 64
        && nodes == 8;
    // Last scheduled arrival of the fixed-interval stream; fault
    // instants are fractions of this, so they always land in-horizon.
    let horizon = queries_per_tenant as f64 * INTERVAL_SECS;

    let base = |scenario: &str, elastic: bool| -> FleetConfig {
        let mut config = FleetConfig::uniform(tenants, nodes, queries_per_tenant, INTERVAL_SECS);
        config.scale_factor = sf;
        config.cells = 8;
        // The health plane rides every cell: the SLO target is set so
        // the fault-free grid holds its p99 error budget while the
        // degradation scenarios genuinely burn it — the drift-alarm
        // fixture the committed record pins.
        config = config.with_health(INTERVAL_SECS).with_slo(TenantSloSpec {
            p99_target_secs: SLO_P99_TARGET_SECS,
            spend_cap: Some(Money::from_dollars(1.0)),
        });
        if let Some(arrival) = scenario_arrivals(scenario) {
            config = config.with_arrivals(arrival);
        }
        if elastic {
            config = config.with_elastic(elastic_config(nodes));
        }
        if let Some(plan) = scenario_plan(scenario, horizon) {
            config = config.with_faults(plan);
        }
        config
    };

    let parallelism = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    println!("================================================================");
    println!(
        "fleet_faults: {tenants} tenants x {nodes} seed nodes, {{static, elastic}} x {{none, crash, crash-recover, degraded, flash-crowd, cascade, cascade-evacuate, storm-crash, diurnal-crash}}"
    );
    println!(
        "(TPC-H SF {sf}, {queries_per_tenant} queries/tenant = {} total, horizon {horizon:.0}s, {parallelism} core(s) available)",
        u64::from(tenants) * queries_per_tenant
    );
    println!("================================================================");

    let scenarios: [&'static str; 9] = [
        "none",
        "crash",
        "crash-recover",
        "degraded",
        "flash-crowd",
        "cascade",
        "cascade-evacuate",
        "storm-crash",
        "diurnal-crash",
    ];
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
        "{:>16} {:>8} {:>10} {:>14} {:>12} {:>8} {:>7} {:>8} {:>8} {:>8} {:>8} {:>8} {:>7} {:>8} {:>12} {:>7} {:>7} {:>12} {:>10} {:>7} {:>7} {:>7}",
        "scenario",
        "mode",
        "queries/s",
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
    for cell in &cells {
        let r = &cell.result;
        let e = r.elastic.as_ref();
        let f = r.faults.as_ref();
        let row = Row::new()
            .str_cell("scenario", cell.scenario, 16, false)
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
            // Eq. 11's node-seconds for BOTH modes: the crash scenarios
            // shrink the static fleet's uptime too (a dead node stops
            // billing), so the elastic win is measured against the
            // static fleet's own post-crash bill.
            .f64_cell("node_seconds", r.node_seconds, 12, 0, 1)
            // The per-tenant SLO rollup plus the e-process drift-alarm
            // count over the cell's own vitals and ledger.
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

    let find = |scenario: &str, mode: &str| -> &Cell {
        cells
            .iter()
            .find(|c| c.scenario == scenario && c.mode == mode)
            .expect("grid cell exists")
    };

    // ── Determinism self-check ──────────────────────────────────────
    // Faults are config: every faulted aggregate — the fault record
    // stream included, via the shared fingerprint — must be a pure
    // function of the config, never of the shard count or the attached
    // flight recorder.
    let mut failed = false;
    let mut traced_registry = MetricsRegistry::new();
    for scenario in &scenarios[1..] {
        let reference = fleet_fingerprint(&find(scenario, "elastic").result);
        for shards in [4, 2] {
            let mut config = base(scenario, true);
            config.shards = shards;
            let replay = fleet_fingerprint(&FleetSim::new(config).run());
            if replay != reference {
                failed = true;
                eprintln!("error: {scenario} elastic run drifted under shards={shards}");
            }
        }
        let (traced, trace) = FleetSim::new(base(scenario, true)).run_traced();
        if fleet_fingerprint(&traced) != reference {
            failed = true;
            eprintln!("error: {scenario} elastic run drifted under tracing");
        }
        traced_registry.merge(&trace.registry);
        println!("{scenario}: aggregates + fault records bit-identical across shards/tracing: OK");
    }

    // ── Ledger-replay reconciliation ────────────────────────────────
    // Every recovery anywhere in the grid must rebuild the crashed
    // node's books exactly; the crash-recover cells must actually
    // recover every crash they planned.
    for cell in &cells {
        let Some(f) = cell.result.faults.as_ref() else {
            continue;
        };
        for record in &f.records {
            if let FaultOutcome::Recover(rec) = &record.event {
                if !rec.drift.is_zero() {
                    failed = true;
                    eprintln!(
                        "error: {}/{} cell {}: replay of node {} drifted: {:?}",
                        cell.scenario, cell.mode, record.cell, rec.crashed, rec.drift
                    );
                }
            }
        }
        if cell.scenario == "crash-recover"
            && (f.recoveries != f.crashes || f.reconciled != f.recoveries || f.recoveries == 0)
        {
            failed = true;
            eprintln!(
                "error: {}/{}: {} crashes, {} recoveries, {} reconciled — every crash must recover and reconcile",
                cell.scenario, cell.mode, f.crashes, f.recoveries, f.reconciled
            );
        }
    }
    if !failed {
        println!("ledger-replay reconciliation exact (zero drift) on every recovery: OK");
    }

    // ── The respawn contract ────────────────────────────────────────
    // The crash drops each elastic cell below its population floor; the
    // decision ledger must show the floor rule firing — resilience via
    // the ordinary review loop, not a special path.
    for scenario in ["crash", "crash-recover"] {
        let r = &find(scenario, "elastic").result;
        let ledger = r.elastic.as_ref().map(|e| &e.ledger[..]).unwrap_or(&[]);
        let floor_spawns = ledger
            .iter()
            .filter(|l| matches!(l.action, ElasticAction::ScaleUp { .. }))
            .filter(|l| l.rule == "population-floor")
            .count();
        if floor_spawns == 0 {
            failed = true;
            eprintln!("error: {scenario}/elastic ledger records no population-floor respawn");
        } else {
            println!(
                "{scenario}: elastic ledger records {floor_spawns} population-floor respawn(s): OK"
            );
        }
    }

    // ── The economic claim ──────────────────────────────────────────
    // Surviving the crash must not cost extra: the elastic fleet drains
    // idle capacity and *still* respawns after the crash, yet ends up
    // cheaper than the static fleet running its surviving population.
    let st = &find("crash", "static").result;
    let el = &find("crash", "elastic").result;
    let cheaper = el.total_operating_cost() < st.total_operating_cost();
    println!(
        "crash: elastic-with-respawn cost ${:.4} vs static-with-crash ${:.4} ({})",
        el.total_operating_cost().as_dollars(),
        st.total_operating_cost().as_dollars(),
        if cheaper { "cheaper" } else { "NOT cheaper" },
    );
    if !cheaper {
        failed = true;
        eprintln!("error: elastic-with-respawn must beat static-with-crash on total cost");
    }

    // ── The evacuation claim ────────────────────────────────────────
    // Capital preservation must pay for itself: against the identical
    // cascade, the warning-window evacuation salvages real capital,
    // shrinks the ledgered loss even after charging the full eq. 12
    // wire bill against it, and wins on loss-adjusted total cost
    // (operating + builds + capital destroyed).
    let loss_adjusted = |r: &FleetResult| {
        r.total_operating_cost()
            + r.faults
                .as_ref()
                .map_or(pricing::Money::ZERO, |f| f.write_off)
    };
    let casc = &find("cascade", "elastic").result;
    let evac = &find("cascade-evacuate", "elastic").result;
    let cf = casc.faults.as_ref().expect("cascade fault summary");
    let ef = evac
        .faults
        .as_ref()
        .expect("cascade-evacuate fault summary");
    if !ef.salvaged.is_positive() || ef.evacuations == 0 {
        failed = true;
        eprintln!(
            "error: cascade-evacuate/elastic salvaged nothing (salvaged={}, evacuations={})",
            ef.salvaged, ef.evacuations
        );
    }
    let salvage_wins = ef.write_off + ef.transfer_spend < cf.write_off;
    println!(
        "cascade: evacuation loss ${:.4} (write-off) + ${:.4} (transfers) vs pure write-off ${:.4} ({})",
        ef.write_off.as_dollars(),
        ef.transfer_spend.as_dollars(),
        cf.write_off.as_dollars(),
        if salvage_wins {
            "salvage beats write-off"
        } else {
            "salvage LOSES to write-off"
        },
    );
    if !salvage_wins {
        failed = true;
        eprintln!("error: evacuation must shrink the ledgered loss net of transfer spend");
    }
    let evac_cheaper = loss_adjusted(evac) < loss_adjusted(casc);
    println!(
        "cascade: elastic-with-evacuation loss-adjusted cost ${:.4} vs elastic-with-write-off ${:.4} ({}; raw ${:.4} vs ${:.4})",
        loss_adjusted(evac).as_dollars(),
        loss_adjusted(casc).as_dollars(),
        if evac_cheaper { "cheaper" } else { "NOT cheaper" },
        evac.total_operating_cost().as_dollars(),
        casc.total_operating_cost().as_dollars(),
    );
    if !evac_cheaper {
        failed = true;
        eprintln!(
            "error: elastic-with-evacuation must beat elastic-with-write-off on loss-adjusted cost"
        );
    }
    // The cascade pair must exercise both new mechanisms somewhere in
    // the grid: the static fleet has survivors for the follow-on roll
    // to infect (the elastic floor of 2 leaves it no fodder — that *is*
    // the resilience story), while the lean elastic fleet's degraded
    // node carries enough backlog to trip the deadline-budgeted retry.
    for scenario in ["cascade", "cascade-evacuate"] {
        let fs = find(scenario, "static")
            .result
            .faults
            .as_ref()
            .expect("fault summary");
        if fs.cascade_crashes == 0 {
            failed = true;
            eprintln!("error: {scenario}/static recorded no cascade follow-on crashes");
        }
        let fe = find(scenario, "elastic")
            .result
            .faults
            .as_ref()
            .expect("fault summary");
        if fe.retries == 0 {
            failed = true;
            eprintln!("error: {scenario}/elastic recorded no deadline-budgeted retries");
        }
    }

    // Every scenario serves the full query budget — faults delay and
    // re-route work, they never lose it.
    let budget = u64::from(tenants) * queries_per_tenant;
    for cell in &cells {
        if cell.result.queries != budget {
            failed = true;
            eprintln!(
                "error: {}/{} served {} of {budget} queries",
                cell.scenario, cell.mode, cell.result.queries
            );
        }
    }

    // ── The drift-alarm fixture ─────────────────────────────────────
    // The e-process detector must discriminate: the fault-free grid
    // stays silent, the 6x degradation burns enough p99 budget to cross
    // the e-value threshold. Gated at the default cell only — reduced
    // scales reshape the response distribution under the fixed target.
    let alarm_count = |scenario: &str, mode: &str| {
        let r = &find(scenario, mode).result;
        detect_alarms(
            r.health.as_ref(),
            &r.slo,
            r.horizon_secs,
            &Baselines::default(),
        )
        .len()
    };
    if default_cell {
        for mode in ["static", "elastic"] {
            let spurious = alarm_count("none", mode);
            if spurious != 0 {
                failed = true;
                eprintln!("error: none/{mode} raised {spurious} drift alarm(s) on a healthy run");
            }
        }
        let fired = alarm_count("degraded", "elastic");
        if fired == 0 {
            failed = true;
            eprintln!(
                "error: degraded/elastic raised no drift alarm — the 6x degradation must burn \
                 the p99 budget past the e-value threshold"
            );
        } else {
            println!(
                "drift-alarm fixture: none silent, degraded/elastic raised {fired} alarm(s): OK"
            );
        }
    }

    write_csv("fleet_faults", &set.csv_header(), set.csv_rows());
    if default_cell {
        // Serialize the plans and controller config the run *actually
        // used* so the committed record can never drift from the code.
        let plan_json = |name: &str| {
            serde_json::to_string(&scenario_plan(name, horizon).expect("faulted scenario"))
                .expect("fault plan serializes")
        };
        let elastic_json =
            serde_json::to_string(&elastic_config(nodes)).expect("elastic config serializes");
        let registry_json = serde_json::to_string(&traced_registry).expect("registry serializes");
        let config = format!(
            "{{\"scale_factor\": {sf}, \"queries_per_tenant\": {queries_per_tenant}, \
             \"tenants\": {tenants}, \"nodes\": {nodes}, \"interval_secs\": {INTERVAL_SECS}, \
             \"horizon_secs\": {horizon}, \"router\": \"cheapest-quote\", \
             \"parallelism\": {parallelism}, \
             \"qps_note\": \"one timed run per cell\", \
             \"registry_note\": \"merged traced-replay registry (8 faulted elastic scenarios)\", \
             \"registry\": {registry_json}, \
             \"elastic\": {elastic_json}, \
             \"arrivals\": {{\"storm-crash\": {}, \"diurnal-crash\": {}}}, \
             \"fault_plans\": {{\"crash\": {}, \"crash-recover\": {}, \"degraded\": {}, \
             \"flash-crowd\": {}, \"cascade\": {}, \"cascade-evacuate\": {}}}}}",
            serde_json::to_string(&scenario_arrivals("storm-crash").expect("mmpp arrivals"))
                .expect("arrival kind serializes"),
            serde_json::to_string(&scenario_arrivals("diurnal-crash").expect("diurnal arrivals"))
                .expect("arrival kind serializes"),
            plan_json("crash"),
            plan_json("crash-recover"),
            plan_json("degraded"),
            plan_json("flash-crowd"),
            plan_json("cascade"),
            plan_json("cascade-evacuate"),
        );
        write_bench_json("fleet_faults", &config, set.json_rows());
    } else {
        println!("(non-default cell: BENCH_fleet_faults.json left untouched)");
    }

    if failed {
        eprintln!("error: fault-plane self-check failed");
        std::process::exit(1);
    }
    println!("fault-plane determinism + recovery contract holds: OK");
}
