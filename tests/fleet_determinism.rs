//! Fleet determinism and shard invariance — the acceptance properties of
//! the sharded executor:
//!
//! 1. same seed ⇒ identical `FleetResult` (pure function of the config);
//! 2. the whole `FleetResult` is invariant under the shard
//!    (worker-thread) count: 1 worker and 4 workers produce bit-identical
//!    cost, mean response time and tenant and node rollups;
//! 3. a cheapest-quote round that prices each distinct cold node state
//!    once picks the winner and bid of an exhaustive scan that quotes
//!    every routable node.

use std::sync::{Arc, OnceLock};

use cloudcache::catalog::tpch::{tpch_schema, ScaleFactor};
use cloudcache::catalog::Schema;
use cloudcache::econ::{BudgetShape, EconConfig, InvestmentRule};
use cloudcache::fleet::{
    run_fleet, CacheNode, CheapestQuote, FleetConfig, NodeSpec, Router, RouterKind,
};
use cloudcache::planner::{
    generate_candidates, CandidateIndex, CostParams, Estimator, PlannerContext,
};
use cloudcache::pricing::{Money, PriceCatalog};
use cloudcache::simcore::{NetworkModel, SimDuration, SimTime};
use cloudcache::simulator::Scheme;
use cloudcache::workload::{paper_templates, Query, WorkloadConfig, WorkloadGenerator};
use proptest::prelude::*;

/// The SF 10 schema, candidate set and estimator the router-level tests
/// plan against, built once per test binary.
struct Harness {
    schema: Arc<Schema>,
    candidates: Vec<cloudcache::cache::IndexDef>,
    cand_index: CandidateIndex,
    estimator: Estimator,
}

impl Harness {
    fn ctx(&self) -> PlannerContext<'_> {
        PlannerContext {
            schema: &self.schema,
            candidates: &self.candidates,
            cand_index: &self.cand_index,
            estimator: &self.estimator,
        }
    }
}

fn harness() -> &'static Harness {
    static HARNESS: OnceLock<Harness> = OnceLock::new();
    HARNESS.get_or_init(|| {
        let schema = Arc::new(tpch_schema(ScaleFactor(10.0)));
        let templates = paper_templates(&schema);
        let candidates = generate_candidates(&schema, &templates, 65);
        let cand_index = CandidateIndex::build(&schema, &candidates);
        let estimator = Estimator::new(
            CostParams::default(),
            PriceCatalog::ec2_2009(),
            NetworkModel::paper_sdss(),
        );
        Harness {
            schema,
            candidates,
            cand_index,
            estimator,
        }
    })
}

/// An economy whose investment rule fires within a handful of queries,
/// so short histories leave warm (non-empty) caches behind.
fn biting_econ() -> EconConfig {
    EconConfig {
        initial_credit: Money::from_dollars(0.02),
        investment: InvestmentRule {
            min_regret: Money::from_dollars(1e-5),
            ..InvestmentRule::default()
        },
        ..EconConfig::default()
    }
}

fn config(router: RouterKind, shards: usize, seed: u64) -> FleetConfig {
    let mut config = FleetConfig::mixed(12, 3, 80);
    config.scale_factor = 10.0;
    config.cells = 6;
    config.shards = shards;
    config.router = router;
    config.seed = seed;
    config
}

#[test]
fn same_seed_produces_identical_fleet_results() {
    for router in RouterKind::all() {
        let a = run_fleet(config(router, 1, 42));
        let b = run_fleet(config(router, 1, 42));
        assert_eq!(a, b, "router {}", a.router);
    }
}

#[test]
fn different_seeds_differ() {
    let a = run_fleet(config(RouterKind::CheapestQuote, 1, 1));
    let b = run_fleet(config(RouterKind::CheapestQuote, 1, 2));
    assert_ne!(
        a.mean_response_secs().to_bits(),
        b.mean_response_secs().to_bits(),
        "two seeds should not produce identical fleets"
    );
}

#[test]
fn aggregates_invariant_under_shard_count() {
    for router in RouterKind::all() {
        let sequential = run_fleet(config(router, 1, 7));
        let parallel = run_fleet(config(router, 4, 7));

        // The headline acceptance pair: fleet-level cost and mean
        // response time, exactly equal.
        assert_eq!(
            sequential.total_operating_cost(),
            parallel.total_operating_cost(),
            "cost varied with shard count under {}",
            sequential.router
        );
        assert_eq!(
            sequential.mean_response_secs().to_bits(),
            parallel.mean_response_secs().to_bits(),
            "mean response varied with shard count under {}",
            sequential.router
        );
        // And everything else too.
        assert_eq!(
            sequential, parallel,
            "result varied with shard count under {}",
            sequential.router
        );
    }
}

#[test]
fn oversubscribed_shards_are_harmless() {
    // More workers than cells clamps to the cell count.
    let few = run_fleet(config(RouterKind::LeastOutstanding, 2, 9));
    let many = run_fleet(config(RouterKind::LeastOutstanding, 64, 9));
    assert_eq!(few, many);
}

/// The exhaustive reference: every routable node quotes through
/// [`CacheNode::quote`] (fresh planning, no shared skeleton) and the
/// lowest id wins ties. `None` when no node is routable.
fn exhaustive_scan(
    nodes: &[CacheNode],
    ctx: &PlannerContext<'_>,
    query: &Query,
    now: SimTime,
) -> Option<(usize, Money)> {
    let mut best: Option<(usize, Money)> = None;
    for (i, node) in nodes.iter().enumerate() {
        if !node.routable(now) {
            continue;
        }
        let bid = node.quote(ctx, query, now);
        if best.is_none_or(|(_, b)| bid < b) {
            best = Some((i, bid));
        }
    }
    best
}

/// One node of a random fleet history, decoded from its sampled codes.
#[derive(Debug, Clone, Copy)]
struct NodePlan {
    scheme: u8,
    econ: u8,
    warm: u8,
    status: u8,
}

impl NodePlan {
    fn scheme(self) -> Scheme {
        match self.scheme {
            0..=2 => Scheme::EconCheap,
            3 => Scheme::EconFast,
            _ => Scheme::Bypass {
                cache_fraction: 0.3,
            },
        }
    }

    /// Step budgets make every bid the user's full budget whenever the
    /// backend plan is affordable; the convex budget decays with the
    /// chosen plan's time, so the budget shape moves even a cold node's
    /// bid.
    fn econ(self) -> EconConfig {
        match self.econ {
            0 => biting_econ(),
            _ => EconConfig {
                budget_shape: BudgetShape::Convex,
                ..biting_econ()
            },
        }
    }

    /// Warm-up history: how many of the pool's leading queries the node
    /// serves before routing starts, and the gap between them (seconds).
    /// Equal codes give equal histories, hence equal arrival rates.
    fn warmup(self) -> (usize, f64) {
        match self.warm {
            0 | 1 => (0, 0.0),
            2 => (1, 0.0),
            3 => (3, 1.0),
            4 => (3, 2.0),
            _ => (WARM_QUERIES, 1.0),
        }
    }
}

/// The longest warm-up history.
const WARM_QUERIES: usize = 12;

/// When routing starts: after every warm-up history has ended.
const ROUTING_STARTS: f64 = 100.0;

/// Query pool positions the routing rounds draw from.
const ROUTED_FROM: usize = WARM_QUERIES;

/// Builds one replica of a random fleet history: warm-up serves, then
/// draining, booting (routable 2 s after routing starts) and
/// route-suppressed nodes. Every call with the same inputs builds an
/// identical fleet.
fn replica(plans: &[NodePlan], pool: &[Query], ctx: &PlannerContext<'_>) -> Vec<CacheNode> {
    let h = harness();
    let start = SimTime::from_secs(ROUTING_STARTS);
    plans
        .iter()
        .enumerate()
        .map(|(i, plan)| {
            let spec = NodeSpec::new(plan.scheme());
            let econ = plan.econ();
            if plan.status == 4 {
                return CacheNode::new_booting(
                    i,
                    &spec,
                    &h.schema,
                    &econ,
                    start,
                    SimTime::from_secs(ROUTING_STARTS + 2.0),
                    Money::from_dollars(0.001),
                );
            }
            let mut node = CacheNode::new(i, &spec, &h.schema, &econ);
            let (served, gap) = plan.warmup();
            for (j, query) in pool[..served].iter().enumerate() {
                let _ = node.serve(ctx, query, SimTime::from_secs(1.0 + j as f64 * gap));
            }
            match plan.status {
                3 => node.begin_drain(start),
                5 => node.suppress_route(),
                _ => {}
            }
            node
        })
        .collect()
}

/// Routes one round per entry of `gaps` through cheapest-quote routing
/// on a replica of the history in `plans`, and asserts each round's
/// winner and bid equal the exhaustive scan's on a second replica. The
/// winner serves in both replicas, so state keeps evolving mid-run;
/// suppressed nodes return halfway. Budgets range from half to twice
/// the backend price: below it Case A bills the cheapest existing plan,
/// above it the budget shape sets the bid.
fn route_against_exhaustive(seed: u64, plans: &[NodePlan], gaps: &[u8]) {
    let h = harness();
    let ctx = h.ctx();
    let workload = WorkloadConfig {
        budget_scale_range: (0.5, 2.0),
        ..WorkloadConfig::default()
    };
    let pool: Vec<Query> = WorkloadGenerator::new(Arc::clone(&h.schema), workload, seed)
        .take(ROUTED_FROM + gaps.len())
        .collect();
    let mut router = CheapestQuote::default();
    let mut reference = replica(plans, &pool, &ctx);
    let mut routed = replica(plans, &pool, &ctx);

    let mut now = SimTime::from_secs(ROUTING_STARTS);
    for (round, &gap) in gaps.iter().enumerate() {
        now += SimDuration::from_secs(match gap {
            0 => 0.0,
            1 => 1.0,
            _ => 30.0,
        });
        if round == gaps.len() / 2 {
            for node in routed.iter_mut().chain(&mut reference) {
                node.unsuppress_route();
            }
        }
        for node in routed.iter_mut().chain(&mut reference) {
            node.accrue(now);
        }
        let query = &pool[ROUTED_FROM + round];
        let Some((winner, bid)) = exhaustive_scan(&reference, &ctx, query, now) else {
            continue; // every node draining, booting or suppressed
        };
        let chosen = router.route(&routed, &ctx, query, now);
        assert_eq!(
            (chosen, router.last_winning_quote()),
            (winner, Some(bid)),
            "round {round} for {plans:?}"
        );
        for nodes in [&mut routed, &mut reference] {
            let _ = nodes[winner].serve(&ctx, query, now);
        }
    }
}

proptest! {
    /// Over random fleet histories — cold and warmed nodes, econ-cheap,
    /// econ-fast and non-economic nodes, two economy configs, several
    /// arrival rates, and draining, booting and route-suppressed nodes —
    /// cheapest-quote routing picks exactly the exhaustive scan's winner
    /// and bid.
    ///
    /// Each node after the first copies its predecessor with at most one
    /// field redrawn, so fleets are rich in near-duplicates: nodes that
    /// match on all but one of scheme, config, history and status.
    #[test]
    fn cheapest_quote_matches_the_exhaustive_scan(
        seed in 0u64..1_000,
        first in (0u8..5, 0u8..2, 0u8..6, 0u8..8),
        edits in prop::collection::vec((0u8..5, 0u8..8), 1..8),
        gaps in prop::collection::vec(0u8..3, 6..7),
    ) {
        let (scheme, econ, warm, status) = first;
        let mut plans = vec![NodePlan { scheme, econ, warm, status }];
        for &(field, value) in &edits {
            let mut next = *plans.last().expect("seeded with the first node");
            match field {
                0 => next.scheme = value % 5,
                1 => next.econ = value % 2,
                2 => next.warm = value % 6,
                3 => next.status = value,
                _ => {} // an exact copy
            }
            plans.push(next);
        }
        route_against_exhaustive(seed, &plans, &gaps);
    }
}
