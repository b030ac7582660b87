//! Fault-injection plane — the acceptance properties of `fleet::faults`:
//!
//! 1. **Crash isolation** — once a node crashes, no routing strategy
//!    ever routes a query to it again (proptest over the routers).
//! 2. **Determinism** — fault-injected runs (crashes, recoveries,
//!    degradations, surges, timeouts) are bit-identical across executor
//!    shard counts, and traced runs are bit-identical to untraced ones.
//! 3. **Ledger-replay reconciliation** — recovering a crashed node by
//!    replaying its settlement journal into a fresh economy reproduces
//!    the pre-crash balances *exactly*, for random crash instants
//!    (proptest; zero drift on every component).
//! 4. **Population floor** — a crashed node is gone *immediately*: the
//!    elastic control plane's population-floor rule respawns at the next
//!    review, never waiting out a drain grace the dead node can't serve.
//! 5. **The `fleet_faults` grid's orderings** — on a reduced-scale run
//!    of the fleets `BENCH_fleet_faults.json` records, the elastic fleet
//!    beats the static one through a crash, and evacuation beats the
//!    pure write-off of the identical cascade.

use bench::fleet_grid::faults;
use bench::GridScale;
use cloudcache::fleet::{
    run_fleet, CacheNode, ElasticAction, ElasticConfig, FaultOutcome, FaultPlan, FleetConfig,
    FleetResult, FleetSim, NodePopulation, NodeSpec, RouterKind,
};
use cloudcache::pricing::{Money, PriceCatalog};
use cloudcache::simcore::SimTime;
use cloudcache::simulator::{ArrivalKind, Scheme};
use cloudcache::telemetry::TraceEvent;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A small faulted fleet: 8 fixed-interval tenants over 4 cells, 3 seed
/// nodes per cell, 40 queries per tenant — so per-cell arrivals land on
/// every half-second up to t=40 and every fault instant below the
/// horizon fires.
fn faulted_base(seed: u64) -> FleetConfig {
    let mut config = FleetConfig::uniform(8, 3, 40, 1.0);
    config.scale_factor = 10.0;
    config.cells = 4;
    config.seed = seed;
    config
}

const HORIZON: f64 = 40.0;

proptest! {
    /// Whatever router serves the fleet, a crashed node never wins
    /// another quote round and never settles another query after its
    /// crash instant.
    #[test]
    fn no_query_is_routed_to_a_crashed_node(
        victim in 0usize..3,
        crash_at_halves in 10u32..60, // t in [5, 30)
        router_pick in 0usize..3,
    ) {
        let crash_at = f64::from(crash_at_halves) * 0.5;
        let mut config = faulted_base(11)
            .with_faults(FaultPlan::new(HORIZON).with_crash(victim, crash_at));
        config.router = [RouterKind::RoundRobin, RouterKind::LeastOutstanding, RouterKind::CheapestQuote][router_pick];
        let (result, trace) = FleetSim::new(config).run_traced();

        let faults = result.faults.as_ref().expect("fault summary present");
        prop_assert_eq!(faults.crashes, 4, "one crash per cell replica");
        for event in &trace.events {
            match event {
                TraceEvent::QuoteRound(q) if q.at_secs >= crash_at => {
                    prop_assert_ne!(q.winner, victim,
                        "quote round at t={} picked crashed node", q.at_secs);
                }
                TraceEvent::Settlement(s) if s.at_secs >= crash_at => {
                    prop_assert_ne!(s.node, victim,
                        "settlement at t={} on crashed node", s.at_secs);
                }
                _ => {}
            }
        }
        // Every query still gets served — survivors absorb the load.
        prop_assert_eq!(result.queries, 8 * 40);
    }

    /// Fault-injected runs — crash + recovery + degradation + timeout +
    /// flash crowd all at once — are bit-identical across 1/2/4/8
    /// executor shards.
    #[test]
    fn faulted_runs_are_bit_identical_across_shards(
        seed in 0u64..1_000,
        victim in 0usize..3,
        crash_at_halves in 10u32..40, // t in [5, 20)
        recover in prop::bool::ANY,
        surge in prop::bool::ANY,
    ) {
        let crash_at = f64::from(crash_at_halves) * 0.5;
        let mut plan = FaultPlan::new(HORIZON)
            .with_degrade((victim + 1) % 3, 5.0, 25.0, 8.0)
            .with_timeout(0.1);
        plan = if recover {
            plan.with_crash_recover(victim, crash_at, 6.0)
        } else {
            plan.with_crash(victim, crash_at)
        };
        if surge {
            plan = plan.with_surge(8.0, 10.0, 4.0);
        }
        let base = faulted_base(seed).with_faults(plan);
        let reference = run_fleet(base.clone());
        for shards in [2usize, 4, 8] {
            let mut config = base.clone();
            config.shards = shards;
            prop_assert_eq!(&run_fleet(config), &reference, "drift at shards={}", shards);
        }
    }

    /// Replaying a crashed node's journal into a fresh economy reproduces
    /// its books exactly — zero drift on queries, payments, profit, cache
    /// hits, balance, regret and disk occupancy — for random crash and
    /// recovery instants.
    #[test]
    fn ledger_replay_reconciles_exactly(
        seed in 0u64..1_000,
        victim in 0usize..3,
        crash_at_halves in 10u32..50, // t in [5, 25)
        recover_after_halves in 4u32..20, // Δ in [2, 10): crash + Δ < 35 < horizon
    ) {
        let crash_at = f64::from(crash_at_halves) * 0.5;
        let recover_after = f64::from(recover_after_halves) * 0.5;
        let config = faulted_base(seed).with_faults(
            FaultPlan::new(HORIZON).with_crash_recover(victim, crash_at, recover_after),
        );
        let result = run_fleet(config);
        let faults = result.faults.as_ref().expect("fault summary present");
        prop_assert_eq!(faults.crashes, 4);
        prop_assert_eq!(faults.recoveries, 4, "every cell recovers its replica");
        prop_assert_eq!(faults.reconciled, faults.recoveries,
            "replay drifted: {:?}",
            faults.records.iter().filter_map(|r| match &r.event {
                FaultOutcome::Recover(rec) if !rec.drift.is_zero() => Some(rec.drift.clone()),
                _ => None,
            }).collect::<Vec<_>>());
        for record in &faults.records {
            if let FaultOutcome::Recover(rec) = &record.event {
                prop_assert!(rec.drift.is_zero());
                prop_assert_eq!(rec.crashed, victim);
                prop_assert!(rec.replacement >= 3, "replacement gets a fresh id");
            }
        }
    }

    /// Capital conservation under evacuation — for random crash instants,
    /// warning windows and fault groups, every crashed node's ledger
    /// reconstructs its invested build capital *exactly* in nanodollars:
    /// `write_off + salvaged + transfer_spend == build_spend`, summed
    /// over cells, with zero drift.
    #[test]
    fn evacuation_conserves_invested_capital_exactly(
        seed in 0u64..1_000,
        victim in 0usize..3,
        crash_at_halves in 30u32..70, // t in [15, 35): cache is warm
        warn_halves in 2u32..20,      // warning window in [1, 10)
        grouped in prop::bool::ANY,
    ) {
        let crash_at = f64::from(crash_at_halves) * 0.5;
        let warning = f64::from(warn_halves) * 0.5;
        let mut plan = FaultPlan::new(HORIZON).with_evacuation(warning, false);
        plan = if grouped {
            plan.with_group(vec![victim, (victim + 1) % 3], crash_at)
        } else {
            plan.with_crash(victim, crash_at)
        };
        let result = run_fleet(faulted_base(seed).with_faults(plan));
        let faults = result.faults.as_ref().expect("fault summary present");
        prop_assert_eq!(faults.crashes, if grouped { 8 } else { 4 });

        // Fold each crashed node's ledger: loss + salvage + wire cost.
        let mut reconstructed: BTreeMap<usize, Money> = BTreeMap::new();
        let mut crash_salvaged = Money::ZERO;
        let mut crash_transfer = Money::ZERO;
        for record in &faults.records {
            if let FaultOutcome::Crash(c) = &record.event {
                *reconstructed.entry(c.node).or_insert(Money::ZERO) +=
                    c.write_off + c.salvaged + c.transfer_spend;
                crash_salvaged += c.salvaged;
                crash_transfer += c.transfer_spend;
            }
        }
        // The reconstruction equals the victim's folded build spending —
        // the pre-fault invested capital — to the nanodollar.
        for (node, invested) in &reconstructed {
            let stats = result
                .nodes
                .iter()
                .find(|n| n.node == *node)
                .expect("crashed node keeps its stats row");
            prop_assert_eq!(
                *invested,
                stats.build_spend,
                "capital drift on node {}: reconstructed {} vs invested {}",
                node,
                invested,
                stats.build_spend
            );
        }
        // Every evacuated dollar lands on exactly one crash ledger:
        // summary totals (accumulated at evacuation time) cross-foot
        // with the per-crash attribution (accumulated at crash time).
        prop_assert_eq!(faults.salvaged, crash_salvaged);
        prop_assert_eq!(faults.transfer_spend, crash_transfer);
        prop_assert_eq!(result.queries, 8 * 40, "survivors absorb the load");
    }
}

/// A crashed node leaves `routable_count` (and the live set) at the
/// instant of the crash — not after a drain grace it can no longer
/// serve.
#[test]
fn crash_is_immediately_gone_from_the_population() {
    let h_schema = std::sync::Arc::new(cloudcache::catalog::tpch::tpch_schema(
        cloudcache::catalog::tpch::ScaleFactor(10.0),
    ));
    let econ = cloudcache::econ::EconConfig::default();
    let rates = PriceCatalog::ec2_2009().rates;
    let nodes: Vec<CacheNode> = (0..2)
        .map(|i| CacheNode::new(i, &NodeSpec::new(Scheme::EconCheap), &h_schema, &econ))
        .collect();
    let mut pop = NodePopulation::new(nodes);
    let at = SimTime::from_secs(10.0);
    assert_eq!(pop.routable_count(at), 2);
    let (id, run) = pop.crash(0, &rates, at);
    assert_eq!(id, 0);
    assert_eq!(run.queries, 0);
    assert_eq!(pop.routable_count(at), 1, "crash removes immediately");
    assert_eq!(pop.live().len(), 1);
    assert_eq!(pop.live()[0].id(), 1);
}

/// Satellite regression: with the population floor at the seed size, a
/// crash drops the cell below the floor and the elastic control plane
/// respawns at the *next review* — it does not wait out `drain_grace`
/// (set here far beyond the horizon, so any respawn proves the point).
#[test]
fn crashed_node_below_floor_respawns_at_next_review() {
    let review = 4.0;
    let crash_at = 10.0;
    let mut config = faulted_base(7)
        .with_faults(FaultPlan::new(HORIZON).with_crash(2, crash_at))
        .with_elastic(ElasticConfig {
            review_interval_secs: review,
            ewma_alpha: 0.3,
            scale_up_backlog: 1e12, // only the floor rule can spawn
            scale_down_backlog: 0.0,
            max_response_secs: 0.0,
            min_nodes: 3,
            max_nodes: 3,
            cooldown_reviews: 4,
            drain_grace_secs: 1_000.0,
        });
    config.shards = 2;
    let result = run_fleet(config);
    let elastic = result.elastic.as_ref().expect("elastic summary");
    let faults = result.faults.as_ref().expect("fault summary");
    assert_eq!(faults.crashes, 4);
    assert_eq!(elastic.spawns, 4, "one floor respawn per cell");

    let mut floor_spawns = 0;
    for entry in &elastic.ledger {
        if let ElasticAction::ScaleUp { .. } = entry.action {
            assert_eq!(entry.rule, "population-floor");
            assert!(
                entry.at_secs > crash_at,
                "respawn at t={} before the crash",
                entry.at_secs
            );
            assert!(
                entry.at_secs <= crash_at + 2.0 * review,
                "respawn at t={} waited past the next reviews (drain-grace leak)",
                entry.at_secs
            );
            floor_spawns += 1;
        }
    }
    assert_eq!(floor_spawns, 4);
}

/// Degraded winners whose backlog exceeds the per-query timeout re-route
/// to the next-best candidate; the run still serves everything.
#[test]
fn degraded_winner_times_out_and_reroutes() {
    let config = faulted_base(3).with_faults(
        FaultPlan::new(HORIZON)
            .with_degrade(0, 5.0, 35.0, 20.0)
            .with_timeout(0.05),
    );
    let (result, trace) = FleetSim::new(config).run_traced();
    let faults = result.faults.as_ref().expect("fault summary");
    assert!(
        faults.timeouts > 0,
        "a 20x slowdown over 30s must trip the 50ms timeout at least once"
    );
    assert_eq!(result.queries, 8 * 40, "re-routed queries still settle");
    assert_eq!(
        trace.registry.counter("fault.timeouts"),
        faults.timeouts,
        "registry and summary agree"
    );
}

/// Flash crowds compress arrivals: the surged run finishes the same
/// query budget strictly earlier, and the whole budget still settles.
#[test]
fn flash_crowd_compresses_the_horizon() {
    let base = faulted_base(9);
    let calm = run_fleet(base.clone());
    let surged = run_fleet(base.with_faults(FaultPlan::new(HORIZON).with_surge(10.0, 20.0, 8.0)));
    assert_eq!(surged.queries, calm.queries);
    assert!(
        surged.horizon_secs < calm.horizon_secs,
        "surge must pull arrivals earlier ({} !< {})",
        surged.horizon_secs,
        calm.horizon_secs
    );
}

/// The flight recorder stays an observer under faults: a traced faulted
/// run is bit-identical to the untraced run, and the registry's fault
/// metrics cross-foot with the merged summary.
#[test]
fn traced_faulted_run_matches_untraced_and_registry_crossfoots() {
    let config = faulted_base(5).with_faults(
        FaultPlan::new(HORIZON)
            .with_crash_recover(1, 12.0, 8.0)
            .with_degrade(0, 5.0, 20.0, 4.0)
            .with_timeout(0.1)
            .with_surge(25.0, 10.0, 3.0),
    );
    let untraced = run_fleet(config.clone());
    let (traced, trace) = FleetSim::new(config).run_traced();
    assert_eq!(traced, untraced);

    let faults = traced.faults.as_ref().expect("fault summary");
    assert_eq!(trace.registry.counter("fault.crashes"), faults.crashes);
    assert_eq!(
        trace.registry.counter("fault.recoveries"),
        faults.recoveries
    );
    assert_eq!(
        trace.registry.counter("fault.reconciled"),
        faults.reconciled
    );
    assert_eq!(trace.registry.counter("fault.timeouts"), faults.timeouts);
    assert_eq!(trace.registry.gauge("fault.write_off"), faults.write_off);
    let crash_events = trace
        .events
        .iter()
        .filter(|e| matches!(e, TraceEvent::NodeCrash(_)))
        .count() as u64;
    let recover_events = trace
        .events
        .iter()
        .filter(|e| matches!(e, TraceEvent::NodeRecover(_)))
        .count() as u64;
    assert_eq!(crash_events, faults.crashes);
    assert_eq!(recover_events, faults.recoveries);
}

/// A certain cascade (p = 1, no decay) after a seed crash fells exactly
/// one survivor per cell — propagation stops at the population floor of
/// one standing node — and the follow-on crash is ledgered at depth 1,
/// one propagation delay after its trigger.
#[test]
fn certain_cascade_fells_survivors_down_to_one_standing_node() {
    let config = faulted_base(21).with_faults(
        FaultPlan::new(HORIZON)
            .with_crash(0, 10.0)
            .with_cascade(1.0, 1.0, 2.0, 1),
    );
    let result = run_fleet(config);
    let faults = result.faults.as_ref().expect("fault summary");
    assert_eq!(
        faults.crashes, 8,
        "seed crash + exactly one follow-on per cell"
    );
    assert_eq!(faults.cascade_crashes, 4);
    assert_eq!(faults.max_cascade_depth, 1);
    let mut followons = 0;
    for record in &faults.records {
        if let FaultOutcome::Crash(c) = &record.event {
            if c.cascade_depth > 0 {
                assert_eq!(c.cascade_depth, 1);
                assert_eq!(c.node, 1, "lowest-id survivor draws first");
                assert!(
                    (record.at_secs - 12.0).abs() < 1e-9,
                    "follow-on fires one delay after the trigger, got t={}",
                    record.at_secs
                );
                followons += 1;
            }
        }
    }
    assert_eq!(followons, 4);
    assert_eq!(
        result.queries,
        8 * 40,
        "the one standing node still serves the whole budget"
    );
}

/// Cascade draws are a pure function of the config seed: same seed,
/// same follow-on crashes; the probability dial changes the outcome
/// deterministically (p = 0 never propagates).
#[test]
fn cascade_draws_derive_only_from_the_config_seed() {
    let plan = |p: f64| {
        faulted_base(33).with_faults(
            FaultPlan::new(HORIZON)
                .with_crash(2, 8.0)
                .with_cascade(p, 0.5, 3.0, 3),
        )
    };
    assert_eq!(run_fleet(plan(0.7)), run_fleet(plan(0.7)));
    let never = run_fleet(plan(0.0));
    let nf = never.faults.as_ref().expect("fault summary");
    assert_eq!(nf.cascade_crashes, 0);
    assert_eq!(nf.crashes, 4, "p = 0 leaves only the seed crash");
}

/// Satellite: the evacuation economics beat the write-off economics.
/// With a warning window, the doomed node's profitable structures move
/// to survivors at eq. 12's wire price; the ledgered loss shrinks by
/// exactly the capital that kept working.
#[test]
fn warning_evacuation_salvages_capital_and_shrinks_the_write_off() {
    let base = faulted_base(17);
    // Node 0 is the fleet's structure-heavy economy node under the
    // uniform scheme mix — the victim with capital worth rescuing.
    let crash_only = run_fleet(
        base.clone()
            .with_faults(FaultPlan::new(HORIZON).with_crash(0, 25.0)),
    );
    let evacuated = run_fleet(
        base.with_faults(
            FaultPlan::new(HORIZON)
                .with_crash(0, 25.0)
                .with_evacuation(10.0, false),
        ),
    );
    let fo = crash_only.faults.as_ref().expect("fault summary");
    let fe = evacuated.faults.as_ref().expect("fault summary");
    assert!(
        fe.salvaged.is_positive(),
        "a warm node at t=25 holds structures worth moving (salvaged={})",
        fe.salvaged
    );
    assert!(fe.evacuations > 0 && fe.structures_moved > 0);
    assert!(
        fe.write_off < fo.write_off,
        "salvage must shrink the ledgered loss ({} !< {})",
        fe.write_off,
        fo.write_off
    );
    // Salvage is net of the eq. 12 wire cost the receivers paid — both
    // sides of the move are ledgered.
    assert!(fe.transfer_spend.is_positive());
}

/// Deadline-budgeted retry: a degraded winner past the per-query
/// timeout triggers bounded, budget-decayed retries instead of a single
/// blind re-route — and the response histogram records exactly one
/// end-to-end sample per query, never one per timed-out attempt.
#[test]
fn budgeted_retry_reroutes_and_records_one_latency_sample_per_query() {
    let config = faulted_base(3).with_faults(
        FaultPlan::new(HORIZON)
            .with_degrade(0, 5.0, 35.0, 20.0)
            .with_timeout(0.05)
            .with_retry(3, 0.02, 2.0, 0.5),
    );
    let (result, trace) = FleetSim::new(config).run_traced();
    let faults = result.faults.as_ref().expect("fault summary");
    assert!(
        faults.retries > 0,
        "a 20x slowdown over 30s must trip the retry policy"
    );
    assert_eq!(
        faults.timeouts, 0,
        "the retry policy replaces the blind timeout re-route"
    );
    assert_eq!(result.queries, 8 * 40, "every retried query still settles");
    assert_eq!(
        result.response.count(),
        result.queries,
        "one end-to-end latency sample per query across retries"
    );
    assert_eq!(trace.registry.counter("fault.retries"), faults.retries);
    let retry_events = trace
        .events
        .iter()
        .filter(|e| matches!(e, TraceEvent::QueryRetry(_)))
        .count() as u64;
    assert_eq!(retry_events, faults.retries);
}

/// Satellite: the fault plane layers on stochastic arrival processes —
/// MMPP storm/calm switching and the diurnal sinusoid — and stays
/// bit-identical across executor shard counts.
#[test]
fn faulted_mmpp_and_diurnal_runs_are_bit_identical_across_shards() {
    let arrivals = [
        ArrivalKind::Mmpp {
            calm_gap_secs: 1.5,
            storm_gap_secs: 0.3,
            calm_sojourn_secs: 8.0,
            storm_sojourn_secs: 4.0,
        },
        ArrivalKind::Diurnal {
            mean_gap_secs: 1.0,
            amplitude: 0.8,
            period_secs: 20.0,
            phase: -std::f64::consts::FRAC_PI_2,
        },
    ];
    for arrival in arrivals {
        let base = faulted_base(13).with_arrivals(arrival).with_faults(
            FaultPlan::new(HORIZON)
                .with_crash(0, 14.0)
                .with_cascade(0.6, 0.5, 3.0, 2)
                .with_evacuation(6.0, true)
                .with_retry(3, 0.05, 2.0, 0.5)
                .with_degrade(2, 5.0, 30.0, 10.0)
                .with_timeout(0.05),
        );
        let reference = run_fleet(base.clone());
        assert_eq!(reference.queries, 8 * 40, "survivors absorb the load");
        for shards in [2, 4, 8] {
            let mut config = base.clone();
            config.shards = shards;
            assert_eq!(
                run_fleet(config),
                reference,
                "drift at shards={shards} ({arrival:?})"
            );
        }
    }
}

/// The flight recorder stays an observer under the full graceful-
/// degradation stack — cascade, evacuation, budgeted retry — and every
/// new registry metric cross-foots with the merged fault summary.
#[test]
fn traced_cascade_evacuate_retry_run_matches_untraced_and_crossfoots() {
    let config = faulted_base(5).with_faults(
        FaultPlan::new(HORIZON)
            .with_crash(0, 14.0)
            .with_cascade(1.0, 1.0, 3.0, 1)
            .with_evacuation(6.0, true)
            .with_retry(3, 0.05, 2.0, 0.5)
            .with_degrade(2, 5.0, 30.0, 10.0)
            .with_timeout(0.05),
    );
    let untraced = run_fleet(config.clone());
    let (traced, trace) = FleetSim::new(config).run_traced();
    assert_eq!(traced, untraced);

    let faults = traced.faults.as_ref().expect("fault summary");
    assert!(faults.evacuations > 0, "warning window must trigger moves");
    assert!(faults.cascade_crashes > 0, "certain cascade must propagate");
    assert_eq!(
        trace.registry.counter("fault.evacuations"),
        faults.evacuations
    );
    assert_eq!(
        trace.registry.counter("fault.structures_moved"),
        faults.structures_moved
    );
    assert_eq!(trace.registry.gauge("fault.salvaged"), faults.salvaged);
    assert_eq!(
        trace.registry.gauge("fault.transfer_spend"),
        faults.transfer_spend
    );
    assert_eq!(trace.registry.counter("fault.retries"), faults.retries);
    assert_eq!(
        trace.registry.counter("fault.cascade_crashes"),
        faults.cascade_crashes
    );
    let evacuate_events = trace
        .events
        .iter()
        .filter(|e| matches!(e, TraceEvent::NodeEvacuate(_)))
        .count() as u64;
    assert_eq!(evacuate_events, faults.evacuations);
}

/// The reduced scale the `fleet_faults` grid is checked at: SF 10, 32
/// tenants x 40 queries, 8 seed nodes per cell.
const GRID: GridScale = GridScale {
    scale_factor: 10.0,
    queries_per_tenant: 40,
    tenants: 32,
    nodes: 8,
};

/// One cell of the `fleet_faults` grid at [`GRID`] scale. Faults delay
/// and re-route work, they never lose it: every cell serves the full
/// query budget.
fn grid_run(scenario: &str, elastic: bool) -> FleetResult {
    let result = run_fleet(faults::config(GRID, scenario, elastic));
    assert_eq!(result.queries, GRID.total_queries(), "{scenario}");
    result
}

/// Population-floor respawns in an elastic run's decision ledger.
fn floor_respawns(result: &FleetResult) -> usize {
    let ledger = &result.elastic.as_ref().expect("elastic summary").ledger;
    ledger
        .iter()
        .filter(|l| matches!(l.action, ElasticAction::ScaleUp { .. }))
        .filter(|l| l.rule == "population-floor")
        .count()
}

/// The crash orderings `BENCH_fleet_faults.json` claims, on live runs:
/// the elastic fleet drains idle capacity *and* respawns toward its floor
/// after the crash, yet costs less than the static fleet running its
/// surviving population; every planned recovery replays exactly.
#[test]
fn fault_grid_elastic_fleet_survives_a_crash_cheaper_than_static() {
    let static_run = grid_run("crash", false);
    let elastic = grid_run("crash", true);
    assert!(
        elastic.total_operating_cost() < static_run.total_operating_cost(),
        "elastic-with-respawn {} must beat static-with-crash {}",
        elastic.total_operating_cost(),
        static_run.total_operating_cost()
    );
    let recovered = grid_run("crash-recover", true);
    for result in [&elastic, &recovered] {
        assert!(floor_respawns(result) > 0, "the floor rule must respawn");
    }
    for result in [&recovered, &grid_run("crash-recover", false)] {
        let f = result.faults.as_ref().expect("fault summary");
        assert!(f.recoveries > 0);
        assert_eq!(f.recoveries, f.crashes, "every crash recovers");
        assert_eq!(f.reconciled, f.recoveries, "every replay reconciles");
    }
}

/// The cascade orderings `BENCH_fleet_faults.json` claims, on live runs:
/// against the identical cascade, the warning-window evacuation salvages
/// real capital, its ledgered loss *including the full eq. 12 wire bill*
/// stays below the pure write-off, and it wins on loss-adjusted total
/// cost (operating + builds + capital destroyed). Both mechanisms of the
/// pair fire: follow-on crashes in the static fleets (the elastic floor
/// of 2 leaves no survivors to infect) and budgeted retries in the lean
/// elastic fleets.
#[test]
fn fault_grid_evacuation_beats_the_pure_write_off() {
    let cascade = grid_run("cascade", true);
    let evacuated = grid_run("cascade-evacuate", true);
    let cf = cascade.faults.as_ref().expect("fault summary");
    let ef = evacuated.faults.as_ref().expect("fault summary");
    assert!(ef.salvaged.is_positive() && ef.evacuations > 0);
    assert!(
        ef.write_off + ef.transfer_spend < cf.write_off,
        "evacuation loss {} + {} transfers must beat the pure write-off {}",
        ef.write_off,
        ef.transfer_spend,
        cf.write_off
    );
    let loss_adjusted = |r: &FleetResult, write_off: Money| r.total_operating_cost() + write_off;
    assert!(loss_adjusted(&evacuated, ef.write_off) < loss_adjusted(&cascade, cf.write_off));
    for (scenario, elastic) in [("cascade", &cascade), ("cascade-evacuate", &evacuated)] {
        let static_run = grid_run(scenario, false);
        let fs = static_run.faults.as_ref().expect("fault summary");
        assert!(fs.cascade_crashes > 0, "{scenario}/static never cascaded");
        let fe = elastic.faults.as_ref().expect("fault summary");
        assert!(fe.retries > 0, "{scenario}/elastic never retried");
    }
}

/// Every fleet of the grid serves its full query budget, and every
/// elastic one — control plane, health plane and SLO specs attached — is
/// one `FleetResult`, whole, at one, two and four shards, traced or not.
#[test]
fn fault_grid_runs_are_invariant_under_shards_and_tracing() {
    for scenario in faults::SCENARIOS {
        grid_run(scenario, false);
        let reference = grid_run(scenario, true);
        let config = faults::config(GRID, scenario, true);
        for shards in [4, 2] {
            let mut sharded = config.clone();
            sharded.shards = shards;
            assert_eq!(
                run_fleet(sharded),
                reference,
                "{scenario} at {shards} shards"
            );
        }
        let (traced, _) = FleetSim::new(config).run_traced();
        assert_eq!(traced, reference, "{scenario} traced");
    }
}
