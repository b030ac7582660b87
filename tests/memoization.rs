//! Memoized planning — the bit-identity contract.
//!
//! The plan cache (`econ::plancache`) must be *observably absent*: a
//! manager running with memoization produces exactly the same
//! `QueryOutcome`s, account balances, quotes and investment decisions as
//! one planning every query from scratch, over arbitrary interleavings of
//! arrivals (including simultaneous ones), repeated instances, installs,
//! failures and evictions. The fleet's cheapest-quote routing must
//! likewise be unchanged. Alongside, the cache planning epoch must be
//! monotone — the property the memo's validity check rests on — the
//! 2-way associative sets must hold two live instances of one template
//! without thrashing, and templates with *more* live instances than
//! ways must ride the adaptive victim cache instead of thrashing.

use std::sync::Arc;

use cloudcache::cache::{CacheState, StructureKey};
use cloudcache::catalog::tpch::{tpch_schema, ScaleFactor};
use cloudcache::catalog::ColumnId;
use cloudcache::econ::{EconConfig, EconomyManager, InvestmentRule, SelectionObjective};
use cloudcache::fleet::{run_fleet, FleetConfig, RouterKind};
use cloudcache::planner::{
    generate_candidates, CandidateIndex, CostParams, Estimator, PlannerContext,
};
use cloudcache::pricing::{Money, PriceCatalog};
use cloudcache::simcore::{NetworkModel, SimDuration, SimTime};
use cloudcache::workload::{paper_templates, Query, WorkloadConfig, WorkloadGenerator};
use proptest::prelude::*;

struct Harness {
    schema: Arc<cloudcache::catalog::Schema>,
    candidates: Vec<cloudcache::cache::IndexDef>,
    cand_index: CandidateIndex,
    estimator: Estimator,
}

impl Harness {
    fn new() -> Self {
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
    }

    fn ctx(&self) -> PlannerContext<'_> {
        PlannerContext {
            schema: &self.schema,
            candidates: &self.candidates,
            cand_index: &self.cand_index,
            estimator: &self.estimator,
        }
    }
}

/// Economics that invest and fail structures within a short run.
fn biting_config(plan_cache: bool) -> EconConfig {
    EconConfig {
        initial_credit: Money::from_dollars(0.02),
        investment: InvestmentRule {
            min_regret: Money::from_dollars(1e-5),
            ..InvestmentRule::default()
        },
        plan_cache,
        ..EconConfig::default()
    }
}

/// Every plan-selection objective a manager can run under.
const OBJECTIVES: [SelectionObjective; 3] = [
    SelectionObjective::Cheapest,
    SelectionObjective::Fastest,
    SelectionObjective::MinProfit,
];

/// A query pool mixing fresh instances with replayed ones, so the memo
/// sees both misses (new fingerprints) and hits (exact repeats).
fn query_pool(harness: &Harness, seed: u64, fresh: usize) -> Vec<Query> {
    WorkloadGenerator::new(Arc::clone(&harness.schema), WorkloadConfig::default(), seed)
        .take(fresh)
        .collect()
}

proptest! {
    /// Two managers — one memoized, one planning fresh — driven through
    /// the same randomized arrival sequence (repeats, bursts, ties and
    /// long idle gaps included, with interleaved quotes warming the memo)
    /// under the same selection objective must report identical
    /// outcomes, balances and regret totals, while the cache epoch stays
    /// monotone.
    #[test]
    fn memoized_and_fresh_managers_agree(
        seed in 0u64..1_000,
        objective in 0usize..OBJECTIVES.len(),
        picks in prop::collection::vec((0usize..24, 0u8..6), 40..160),
    ) {
        let harness = Harness::new();
        let ctx = harness.ctx();
        let pool = query_pool(&harness, seed, 24);
        let config = |plan_cache| EconConfig {
            objective: OBJECTIVES[objective],
            ..biting_config(plan_cache)
        };
        let mut memo = EconomyManager::new(config(true));
        let mut fresh = EconomyManager::new(config(false));

        let mut now = SimTime::ZERO;
        let mut last_epoch = 0u64;
        for &(pick, gap_code) in &picks {
            // Gap 0 produces simultaneous arrivals; large gaps trigger
            // maintenance backlogs and structure failure.
            let gap = match gap_code {
                0 => 0.0,
                1 => 0.25,
                2 => 1.0,
                3 => 5.0,
                4 => 60.0,
                _ => 1800.0,
            };
            now += SimDuration::from_secs(gap);
            let query = &pool[pick];

            let quote_memo = memo.quote_query(&ctx, query, now);
            let quote_fresh = fresh.quote_query(&ctx, query, now);
            prop_assert_eq!(quote_memo, quote_fresh, "quotes diverged at {}", now);

            let out_memo = memo.process_query(&ctx, query, now);
            let out_fresh = fresh.process_query(&ctx, query, now);
            prop_assert_eq!(&out_memo, &out_fresh, "outcomes diverged at {}", now);

            let epoch = memo.cache().epoch(now);
            prop_assert!(epoch >= last_epoch, "epoch regressed: {} < {}", epoch, last_epoch);
            last_epoch = epoch;

            prop_assert_eq!(memo.account().balance(), fresh.account().balance());
            prop_assert_eq!(memo.regret().total(), fresh.regret().total());
            prop_assert_eq!(memo.cache().len(), fresh.cache().len());
            prop_assert_eq!(memo.cache().disk_used(), fresh.cache().disk_used());
        }
        prop_assert!(memo.account().balances_exactly());
        prop_assert!(fresh.account().balances_exactly());
        // The run must actually have exercised the memo.
        let stats = memo.plan_cache_stats();
        prop_assert!(stats.hits + stats.misses > 0);
    }

    /// Template-thrash regime: the pool carries at least `k ≥ 3` live
    /// instances of one template — more than the sets' ways — so lookups
    /// constantly displace slots into the victim cache and promote them
    /// back. The victim cache must stay observably absent: memoized and
    /// fresh managers agree on every quote, outcome and balance bit for
    /// bit throughout, and the run must have rescued at least one lookup
    /// through the victim cache.
    #[test]
    fn thrashing_templates_agree_through_the_victim_cache(
        seed in 0u64..500,
        k in 3usize..6,
        picks in prop::collection::vec((0usize..1_000, 0u8..4), 60..140),
    ) {
        let harness = Harness::new();
        let ctx = harness.ctx();
        let mut gen = WorkloadGenerator::new(
            Arc::clone(&harness.schema),
            WorkloadConfig::default(),
            seed.wrapping_add(101),
        );
        // k distinct instances of one template, cycled round-robin with
        // randomly interleaved other-template traffic.
        let anchor = gen.next_query();
        let mut rotation = vec![anchor.clone()];
        let mut noise = Vec::new();
        for _ in 0..2_000 {
            if rotation.len() >= k && !noise.is_empty() {
                break;
            }
            let q = gen.next_query();
            if q.template == anchor.template {
                if !rotation
                    .iter()
                    .any(|p| p.accesses == q.accesses && p.result_rows == q.result_rows)
                {
                    rotation.push(q);
                }
            } else {
                noise.push(q);
            }
        }
        if rotation.len() < 3 || noise.is_empty() {
            continue; // generator starved this case; the next seed won't
        }
        let mut memo = EconomyManager::new(biting_config(true));
        let mut fresh = EconomyManager::new(biting_config(false));
        let mut now = SimTime::ZERO;
        for (i, &(pick, gap_code)) in picks.iter().enumerate() {
            let gap = match gap_code {
                0 => 0.0,
                1 => 0.5,
                2 => 5.0,
                _ => 120.0,
            };
            now += SimDuration::from_secs(gap);
            // Two of every three arrivals rotate the thrashing template.
            let query = if i % 3 < 2 {
                &rotation[(pick + i) % rotation.len()]
            } else {
                &noise[pick % noise.len()]
            };
            let quote_memo = memo.quote_query(&ctx, query, now);
            let quote_fresh = fresh.quote_query(&ctx, query, now);
            prop_assert_eq!(quote_memo, quote_fresh, "quotes diverged at {}", now);
            let out_memo = memo.process_query(&ctx, query, now);
            let out_fresh = fresh.process_query(&ctx, query, now);
            prop_assert_eq!(&out_memo, &out_fresh, "outcomes diverged at {}", now);
            prop_assert_eq!(memo.account().balance(), fresh.account().balance());
            prop_assert_eq!(memo.regret().total(), fresh.regret().total());
        }
        prop_assert!(memo.account().balances_exactly());
        let stats = memo.plan_cache_stats();
        prop_assert!(stats.conflicts > 0, "thrash regime must conflict, saw {:?}", stats);
        prop_assert!(stats.victim_hits > 0, "thrash regime must hit a victim, saw {:?}", stats);
    }

    /// The planning epoch is monotone over random install / evict /
    /// advance sequences with in-flight builds.
    #[test]
    fn cache_epoch_is_monotone(
        ops in prop::collection::vec((0u8..3, 0u32..16, 0.0f64..40.0, 0.0f64..30.0), 1..80),
    ) {
        let mut cache = CacheState::new();
        let mut now = 0.0f64;
        let mut last_epoch = 0u64;
        for &(op, col, gap, build) in &ops {
            now += gap;
            let t = SimTime::from_secs(now);
            let key = StructureKey::Column(ColumnId(col));
            match op {
                0 => {
                    if !cache.contains(key) {
                        cache.install(
                            key,
                            64 + u64::from(col),
                            t,
                            SimDuration::from_secs(build),
                            Money::from_dollars(0.01),
                            10,
                        );
                    }
                }
                1 => {
                    let _ = cache.evict(key, t);
                }
                _ => cache.advance(t),
            }
            let epoch = cache.epoch(t);
            prop_assert!(
                epoch >= last_epoch,
                "epoch regressed after op {}: {} < {}",
                op,
                epoch,
                last_epoch
            );
            last_epoch = epoch;
        }
    }
}

/// Replayed instances under a stable cache must actually hit the memo —
/// the whole point of the subsystem. One concrete instance per template
/// (the memo is direct-mapped by template), replayed with the paper-scale
/// default economics (no investments fire in 700 queries at SF 10), so
/// the cache epoch stays put and every repeat after the first cycle hits.
#[test]
fn replayed_instances_hit_the_plan_cache() {
    let harness = Harness::new();
    let ctx = harness.ctx();
    let mut gen = WorkloadGenerator::new(Arc::clone(&harness.schema), WorkloadConfig::default(), 7);
    let templates = gen.templates().len();
    let mut picked: Vec<Option<Query>> = vec![None; templates];
    while picked.iter().any(Option::is_none) {
        let q = gen.next_query();
        let slot = q.template.0;
        picked[slot].get_or_insert(q);
    }
    let pool: Vec<Query> = picked.into_iter().map(Option::unwrap).collect();
    let mut manager = EconomyManager::new(EconConfig::default());
    for i in 0..700usize {
        let now = SimTime::from_secs((i + 1) as f64);
        let _ = manager.process_query(&ctx, &pool[i % pool.len()], now);
    }
    let stats = manager.plan_cache_stats();
    assert!(
        stats.hits >= 600,
        "replay workload should mostly hit the memo, saw {stats:?}"
    );
    assert!(
        stats.misses >= pool.len() as u64,
        "each distinct instance enumerates at least once, saw {stats:?}"
    );
}

/// A bid followed by a serve must reuse the bid's plan set even though
/// processing updates the observed arrival statistics (and with them the
/// amortisation horizon and maintenance window) between the two calls —
/// the fleet quote-round regime, under deliberately irregular arrivals.
#[test]
fn quote_then_serve_reuses_the_quotes_plan_set() {
    let harness = Harness::new();
    let ctx = harness.ctx();
    let pool = query_pool(&harness, 21, 12);
    let mut manager = EconomyManager::new(EconConfig::default());
    let gaps = [0.3, 7.0, 1.0, 0.0, 42.0, 2.5, 11.0, 0.9];
    let mut now = SimTime::ZERO;
    let n = 200usize;
    for i in 0..n {
        now += SimDuration::from_secs(gaps[i % gaps.len()]);
        let query = &pool[i % pool.len()];
        let _ = manager.quote_query(&ctx, query, now);
        let _ = manager.process_query(&ctx, query, now);
    }
    let stats = manager.plan_cache_stats();
    assert!(
        stats.hits >= n as u64,
        "every serve should hit the plan set its own quote enumerated, saw {stats:?}"
    );
}

/// Two live instances of one template must coexist in the memo — the
/// direct-mapped thrash case: alternating A, B, A, B… used to evict on
/// every lookup (zero hits); the 2-way associative sets hold both, so
/// every lookup after the first cycle hits.
#[test]
fn two_instances_of_one_template_stop_evicting_each_other() {
    let harness = Harness::new();
    let ctx = harness.ctx();
    let mut gen = WorkloadGenerator::new(Arc::clone(&harness.schema), WorkloadConfig::default(), 5);
    // Two distinct instances of the same template.
    let a = gen.next_query();
    let b = loop {
        let q = gen.next_query();
        if q.template == a.template {
            break q;
        }
    };
    assert_ne!(
        (a.accesses.clone(), a.result_rows),
        (b.accesses.clone(), b.result_rows),
        "instances must differ for the thrash case to mean anything"
    );
    let mut manager = EconomyManager::new(EconConfig::default());
    let n = 200usize;
    for i in 0..n {
        let now = SimTime::from_secs((i + 1) as f64);
        let q = if i % 2 == 0 { &a } else { &b };
        let _ = manager.process_query(&ctx, q, now);
    }
    let stats = manager.plan_cache_stats();
    assert_eq!(stats.misses, 2, "each instance enumerates exactly once");
    assert_eq!(
        stats.hits,
        n as u64 - 2,
        "every later lookup must hit, saw {stats:?}"
    );
}

/// Three live instances of one template overflow the 2-way set — the
/// regime that used to thrash no matter the replacement policy. The
/// victim cache absorbs the overflow: once each instance has enumerated
/// once, every lookup is a victim hit and full re-enumerations stop.
#[test]
fn three_instances_of_one_template_ride_the_victim_cache() {
    let harness = Harness::new();
    let ctx = harness.ctx();
    let mut gen = WorkloadGenerator::new(Arc::clone(&harness.schema), WorkloadConfig::default(), 5);
    let a = gen.next_query();
    let mut others = Vec::new();
    while others.len() < 2 {
        let q = gen.next_query();
        if q.template == a.template
            && (q.accesses != a.accesses || q.result_rows != a.result_rows)
            && !others
                .iter()
                .any(|p: &Query| p.accesses == q.accesses && p.result_rows == q.result_rows)
        {
            others.push(q);
        }
    }
    let rotation = [&a, &others[0], &others[1]];
    let mut manager = EconomyManager::new(EconConfig::default());
    let n = 300usize;
    for i in 0..n {
        let now = SimTime::from_secs((i + 1) as f64);
        let _ = manager.process_query(&ctx, rotation[i % 3], now);
    }
    let stats = manager.plan_cache_stats();
    // Warmup: A, B, C miss. C's install displaces A into the victim
    // cache; from then on the set always misses the next instance in the
    // rotation (it is the one displaced two installs ago) and the victim
    // probe rescues it, displacing the set's LRU way in its place.
    assert_eq!(
        stats.misses, 3,
        "each instance must enumerate exactly once, saw {stats:?}"
    );
    assert_eq!(
        stats.victim_hits,
        n as u64 - 3,
        "steady state is one victim rescue per lookup, saw {stats:?}"
    );
    // Every rescue serves the memoized skeleton: either straight (a hit)
    // or via the cheap completion phase when the cache epoch moved under
    // it — never a fresh enumeration.
    assert_eq!(
        stats.hits + stats.completions,
        n as u64 - 3,
        "every rescue serves the memoized plan set, saw {stats:?}"
    );
}

/// When the cache epoch moves under a memoized template (investments,
/// evictions), the memo re-runs only the cheap completion phase from the
/// stored skeleton instead of a full re-enumeration.
#[test]
fn epoch_changes_recomplete_instead_of_re_enumerating() {
    let harness = Harness::new();
    let ctx = harness.ctx();
    let mut gen = WorkloadGenerator::new(Arc::clone(&harness.schema), WorkloadConfig::default(), 9);
    let templates = gen.templates().len();
    let mut picked: Vec<Option<Query>> = vec![None; templates];
    while picked.iter().any(Option::is_none) {
        let q = gen.next_query();
        let slot = q.template.0;
        picked[slot].get_or_insert(q);
    }
    let pool: Vec<Query> = picked.into_iter().map(Option::unwrap).collect();
    // Biting economics: investments fire within the run, bumping the
    // cache epoch under the memoized templates.
    let mut manager = EconomyManager::new(biting_config(true));
    let mut invested = 0usize;
    for i in 0..2_500usize {
        let now = SimTime::from_secs((i + 1) as f64);
        let o = manager.process_query(&ctx, &pool[i % pool.len()], now);
        invested += o.investments.len();
    }
    assert!(invested > 0, "economics must bite for this test to bite");
    let stats = manager.plan_cache_stats();
    assert_eq!(
        stats.misses,
        pool.len() as u64,
        "epoch changes must not cause full re-enumerations, saw {stats:?}"
    );
    assert!(
        stats.completions > 0,
        "epoch changes should re-run completions, saw {stats:?}"
    );
    assert!(stats.hits > stats.completions, "stable stretches dominate");
}

/// Cheapest-quote routing decisions must be unchanged by memoization:
/// identical per-node query counts, payments and responses whether the
/// fleet's economies memoize or plan fresh.
#[test]
fn fleet_routing_is_unchanged_by_memoization() {
    let run = |plan_cache: bool| {
        let mut config = FleetConfig::mixed(10, 3, 60);
        config.scale_factor = 10.0;
        config.cells = 5;
        config.shards = 2;
        config.router = RouterKind::CheapestQuote;
        config.seed = 17;
        config.econ.plan_cache = plan_cache;
        run_fleet(config)
    };
    let memo = run(true);
    let fresh = run(false);

    assert_eq!(memo.queries, fresh.queries);
    assert_eq!(memo.payments, fresh.payments);
    assert_eq!(memo.profit, fresh.profit);
    assert_eq!(memo.cache_hits, fresh.cache_hits);
    assert_eq!(memo.investments, fresh.investments);
    assert_eq!(memo.evictions, fresh.evictions);
    assert_eq!(
        memo.total_operating_cost(),
        fresh.total_operating_cost(),
        "operating cost must not depend on memoization"
    );
    assert_eq!(
        memo.mean_response_secs().to_bits(),
        fresh.mean_response_secs().to_bits()
    );
    for (m, f) in memo.nodes.iter().zip(&fresh.nodes) {
        assert_eq!(m.queries, f.queries, "node {} routed differently", m.node);
        assert_eq!(m.payments, f.payments);
    }
    for (m, f) in memo.tenants.iter().zip(&fresh.tenants) {
        assert_eq!(m.queries, f.queries);
        assert_eq!(m.payments, f.payments);
    }
}
