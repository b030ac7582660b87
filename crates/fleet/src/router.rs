//! Query routing across the fleet's cache nodes.
//!
//! The [`Router`] trait picks which node serves each arriving query.
//! Three strategies ship:
//!
//! * [`RoundRobin`] — oblivious rotation, the classic load-spreading
//!   baseline;
//! * [`LeastOutstanding`] — joins the node with the smallest backlog of
//!   promised-but-undelivered response time (join-the-shortest-queue);
//! * [`CheapestQuote`] — the marketplace extension of the paper's economy:
//!   every node's policy quotes its price `B_Q(t)` for the query and the
//!   cheapest bid wins. Nodes that invested well quote low and attract
//!   the traffic that amortizes their structures — the self-tuning loop
//!   of Section IV-A, played as a competition between clouds.
//!
//! A cheapest-quote round prices each distinct **cold** node state once.
//! A cold node is economic with an empty cache, so its bid reads nothing
//! but the round's shared skeleton, its enumeration options (a function
//! of its arrival rate), its economy config and `now`: cold nodes that
//! match on scheme, config and arrival rate bid the same amount, and
//! under the lowest-id tie-break only the lowest-id member of each such
//! group can win. The round quotes that representative and leaves its
//! duplicates out; every other routable node is quoted as before, so the
//! winner and its bid are those of the exhaustive scan
//! (`tests/fleet_determinism.rs` proptests this).
//!
//! The round shares one lazily-built, cache-independent
//! [`LazySkeleton`] across every quoted node: the first node whose plan
//! cache misses builds it, every other node binds it against its own
//! cache state, and a round where every node hits builds nothing. Nodes
//! are quoted one at a time in ascending index order.
//!
//! All strategies break ties toward the lowest node index, so routing is
//! a deterministic function of the (node states, query, time) tuple.

use planner::{LazySkeleton, PlannerContext};
use pricing::Money;
use serde::{Deserialize, Serialize};
use simcore::SimTime;
use workload::Query;

use crate::node::CacheNode;

/// A routing strategy.
pub trait Router {
    /// Strategy name as it appears in reports.
    fn name(&self) -> &'static str;

    /// Picks the node (index into `nodes`) that serves `query` at `now`.
    ///
    /// # Panics
    /// Implementations may panic if `nodes` is empty; fleet configs are
    /// validated to have at least one node.
    fn route(
        &mut self,
        nodes: &[CacheNode],
        ctx: &PlannerContext<'_>,
        query: &Query,
        now: SimTime,
    ) -> usize;

    /// The winning bid of the most recent [`Router::route`] call, for
    /// strategies that price queries — `None` for oblivious strategies
    /// (round-robin, least-outstanding) and before the first round. The
    /// flight recorder stamps this into its quote-round events.
    fn last_winning_quote(&self) -> Option<Money> {
        None
    }

    /// Bids the most recent [`Router::route`] call actually computed —
    /// 0 for strategies that do not price queries. Routable nodes beyond
    /// this count reused a representative's bid.
    fn last_quoted(&self) -> usize {
        0
    }

    /// Bids skipped over the router's lifetime because a representative
    /// already priced an identical cold node state (0 for strategies that
    /// do not price queries).
    fn shared_bids(&self) -> u64 {
        0
    }
}

/// Oblivious rotation over the nodes.
#[derive(Debug, Default)]
pub struct RoundRobin {
    next: usize,
}

impl Router for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn route(
        &mut self,
        nodes: &[CacheNode],
        _ctx: &PlannerContext<'_>,
        _query: &Query,
        now: SimTime,
    ) -> usize {
        // Rotate from the cursor to the next routable node (elastic
        // fleets carry draining/booting nodes in the slice).
        for off in 0..nodes.len() {
            let idx = (self.next + off) % nodes.len();
            if nodes[idx].routable(now) {
                self.next = (idx + 1) % nodes.len();
                return idx;
            }
        }
        panic!("no routable node (the control plane must keep at least one active)");
    }
}

/// Join-the-shortest-queue on outstanding backlog seconds.
#[derive(Debug, Default)]
pub struct LeastOutstanding;

impl Router for LeastOutstanding {
    fn name(&self) -> &'static str {
        "least-outstanding"
    }

    fn route(
        &mut self,
        nodes: &[CacheNode],
        _ctx: &PlannerContext<'_>,
        _query: &Query,
        now: SimTime,
    ) -> usize {
        let mut best = None;
        let mut best_load = f64::INFINITY;
        for (i, node) in nodes.iter().enumerate() {
            if !node.routable(now) {
                continue;
            }
            let load = node.outstanding(now);
            if load < best_load {
                best = Some(i);
                best_load = load;
            }
        }
        best.expect("no routable node (the control plane must keep at least one active)")
    }
}

/// Construction-time options for cheapest-quote routing.
///
/// Cheapest-quote routing has no settable options left; the type stays
/// so that [`RouterKind::make`] keeps its signature for existing callers
/// (the repo benchmark calls `make(QuoteOptions::default())`).
#[derive(Debug, Clone, Default)]
pub struct QuoteOptions {}

/// Price-based routing: the node quoting the lowest `B_Q(t)` wins the bid.
///
/// Each round first builds its eligibility mask ([`QuoteMask`]): every
/// routable node bids except cold duplicates, whose bid equals that of
/// a lower-id cold node with the same scheme, config and arrival rate,
/// so each distinct cold state is priced once. The round then plans the
/// query at most once (the shared [`LazySkeleton`], built by the first
/// node that needs it) and scans the quoted nodes in ascending index
/// order, each completing the skeleton against its own cache.
///
/// The chosen node is the first node with the minimal bid — the same
/// winner as an exhaustive scan that quotes every routable node.
#[derive(Debug, Default)]
pub struct CheapestQuote {
    /// Which nodes the current round quotes, rebuilt every round.
    mask: QuoteMask,
    /// The winning bid of the most recent round (flight-recorder data;
    /// never consulted by routing itself).
    last_quote: Option<Money>,
    /// Bids the most recent round computed.
    last_quoted: usize,
    /// Bids skipped over the router's lifetime (cold duplicates).
    shared_bids: u64,
}

/// A round's eligibility mask: which nodes it quotes.
///
/// Every routable node is quoted except **cold duplicates**. A node is
/// cold when it is economic and its cache is empty (which also rules out
/// a build in flight). Its bid then reads only the round's shared
/// skeleton, its enumeration options (a function of its arrival rate),
/// its [`econ::EconConfig`] and `now`; its plan memo never changes a bid
/// (memoization is exact). Two cold nodes with the same scheme, equal configs and
/// bit-equal arrival rates therefore bid the same amount, and under the
/// strict lowest-id tie-break the higher-id one can never win: only each
/// group's lowest-id member (its representative) is quoted.
///
/// The buffers are reused across rounds, so rounds stay allocation-free
/// after warmup.
#[derive(Debug, Default)]
struct QuoteMask {
    /// `quote[i]`: node `i` bids this round.
    quote: Vec<bool>,
    /// This round's cold representatives: node index and arrival-rate
    /// bits.
    reps: Vec<(usize, u64)>,
}

impl QuoteMask {
    /// Rebuilds the mask over `nodes` at `now`; returns how many nodes
    /// are routable and how many of them the round quotes.
    fn fill(&mut self, nodes: &[CacheNode], now: SimTime) -> (usize, usize) {
        self.quote.clear();
        self.reps.clear();
        let (mut routable, mut quoted) = (0, 0);
        for (i, node) in nodes.iter().enumerate() {
            let bids = node.routable(now) && {
                routable += 1;
                match cold_economy(node) {
                    None => true,
                    Some(m) => {
                        let rate = m.arrival_rate().to_bits();
                        let duplicate = self.reps.iter().any(|&(r, r_rate)| {
                            let rep = &nodes[r];
                            r_rate == rate
                                && rep.scheme_name() == node.scheme_name()
                                && rep.economy().is_some_and(|rm| rm.config() == m.config())
                        });
                        if !duplicate {
                            self.reps.push((i, rate));
                        }
                        !duplicate
                    }
                }
            };
            quoted += usize::from(bids);
            self.quote.push(bids);
        }
        (routable, quoted)
    }
}

/// The node's economy when the node is cold: economic, empty cache.
fn cold_economy(node: &CacheNode) -> Option<&econ::EconomyManager> {
    node.economy().filter(|m| m.cache().is_empty())
}

impl Router for CheapestQuote {
    fn name(&self) -> &'static str {
        "cheapest-quote"
    }

    fn route(
        &mut self,
        nodes: &[CacheNode],
        ctx: &PlannerContext<'_>,
        query: &Query,
        now: SimTime,
    ) -> usize {
        // The cache-independent half of every node's planning: built at
        // most once per round, by the first node whose memo misses.
        let skeleton = LazySkeleton::new(ctx, query);
        let (routable, quoted) = self.mask.fill(nodes, now);
        self.last_quoted = quoted;
        self.shared_bids += (routable - quoted) as u64;
        let mut best: Option<(usize, Money)> = None;
        for (i, node) in nodes.iter().enumerate() {
            if !self.mask.quote[i] {
                continue;
            }
            let bid = node.quote_with_skeleton(ctx, query, &skeleton, now);
            if best.is_none_or(|(_, b)| bid < b) {
                best = Some((i, bid));
            }
        }
        let (winner, bid) =
            best.expect("no routable node (the control plane must keep at least one active)");
        self.last_quote = Some(bid);
        winner
    }

    fn last_winning_quote(&self) -> Option<Money> {
        self.last_quote
    }

    fn last_quoted(&self) -> usize {
        self.last_quoted
    }

    fn shared_bids(&self) -> u64 {
        self.shared_bids
    }
}

/// Serializable selector for the shipped routing strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RouterKind {
    /// [`RoundRobin`].
    RoundRobin,
    /// [`LeastOutstanding`].
    LeastOutstanding,
    /// [`CheapestQuote`].
    CheapestQuote,
}

impl RouterKind {
    /// All shipped strategies, in comparison order.
    #[must_use]
    pub fn all() -> [RouterKind; 3] {
        [
            RouterKind::RoundRobin,
            RouterKind::LeastOutstanding,
            RouterKind::CheapestQuote,
        ]
    }

    /// Display name (matches the instantiated router's
    /// [`Router::name`]).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            RouterKind::RoundRobin => "round-robin",
            RouterKind::LeastOutstanding => "least-outstanding",
            RouterKind::CheapestQuote => "cheapest-quote",
        }
    }

    /// Instantiates a fresh router of this kind. [`QuoteOptions`] has no
    /// fields; the parameter is kept for existing callers.
    #[must_use]
    pub fn make(&self, _quote: QuoteOptions) -> Box<dyn Router> {
        match self {
            RouterKind::RoundRobin => Box::<RoundRobin>::default(),
            RouterKind::LeastOutstanding => Box::new(LeastOutstanding),
            RouterKind::CheapestQuote => Box::<CheapestQuote>::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catalog::tpch::{tpch_schema, ScaleFactor};
    use planner::{generate_candidates, CandidateIndex, CostParams, Estimator};
    use pricing::PriceCatalog;
    use simulator::Scheme;
    use std::sync::Arc;
    use workload::{paper_templates, WorkloadConfig, WorkloadGenerator};

    /// The SF 1 schema, candidate set and estimator the routing tests
    /// plan against, plus econ-cheap nodes and query streams over them.
    struct Fixture {
        schema: Arc<catalog::Schema>,
        candidates: Vec<cache::IndexDef>,
        cand_index: CandidateIndex,
        estimator: Estimator,
    }

    impl Fixture {
        fn new() -> Self {
            let schema = Arc::new(tpch_schema(ScaleFactor(1.0)));
            let templates = paper_templates(&schema);
            let candidates = generate_candidates(&schema, &templates, 65);
            let cand_index = CandidateIndex::build(&schema, &candidates);
            let estimator = Estimator::new(
                CostParams::default(),
                PriceCatalog::ec2_2009(),
                simcore::NetworkModel::paper_sdss(),
            );
            Fixture {
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

        /// `n` default-config econ-cheap nodes, ids `0..n`.
        fn nodes(&self, n: usize) -> Vec<CacheNode> {
            let econ = econ::EconConfig::default();
            let spec = crate::node::NodeSpec::new(Scheme::EconCheap);
            (0..n)
                .map(|i| CacheNode::new(i, &spec, &self.schema, &econ))
                .collect()
        }

        fn queries(&self, seed: u64) -> WorkloadGenerator {
            WorkloadGenerator::new(Arc::clone(&self.schema), WorkloadConfig::default(), seed)
        }
    }

    #[test]
    fn kinds_and_names_line_up() {
        for kind in RouterKind::all() {
            assert_eq!(kind.make(QuoteOptions::default()).name(), kind.name());
        }
    }

    #[test]
    fn round_robin_rotates_and_skips_draining_nodes() {
        let fx = Fixture::new();
        let ctx = fx.ctx();
        let mut gen = fx.queries(4);
        let mut nodes = fx.nodes(3);
        let mut rr = RoundRobin::default();
        let mut route = |nodes: &[CacheNode], secs: f64| {
            let q = gen.next_query();
            rr.route(nodes, &ctx, &q, SimTime::from_secs(secs))
        };
        let rotation: Vec<usize> = (0..4).map(|i| route(&nodes, 1.0 + f64::from(i))).collect();
        assert_eq!(rotation, [0, 1, 2, 0]);

        // The cursor now points at node 1; once it drains, every pass
        // over the ring skips it.
        nodes[1].begin_drain(SimTime::from_secs(5.0));
        let rotation: Vec<usize> = (0..4).map(|i| route(&nodes, 6.0 + f64::from(i))).collect();
        assert_eq!(rotation, [2, 0, 2, 0]);
    }

    #[test]
    fn cold_duplicates_share_one_bid() {
        let fx = Fixture::new();
        let ctx = fx.ctx();
        let mut gen = fx.queries(6);
        let mut nodes = fx.nodes(4);
        let mut r = CheapestQuote::default();
        let q = gen.next_query();
        let now = SimTime::from_secs(1.0);
        // Four identical cold nodes: one representative bids, node 0 wins.
        assert_eq!(r.route(&nodes, &ctx, &q, now), 0);
        assert_eq!((r.last_quoted(), r.shared_bids()), (1, 3));
        assert_eq!(r.last_winning_quote(), Some(nodes[3].quote(&ctx, &q, now)));

        // A draining representative hands the role to the next cold node.
        nodes[0].begin_drain(now);
        let q = gen.next_query();
        let later = SimTime::from_secs(2.0);
        assert_eq!(r.route(&nodes, &ctx, &q, later), 1);
        assert_eq!((r.last_quoted(), r.shared_bids()), (1, 5));
    }

    #[test]
    fn quote_mask_groups_cold_nodes_by_scheme_config_and_rate() {
        let fx = Fixture::new();
        let ctx = fx.ctx();
        let mut gen = fx.queries(8);
        // No working capital: serving never funds a build, so served
        // nodes stay cold unless a structure is placed on them.
        let thrifty = econ::EconConfig {
            initial_credit: Money::ZERO,
            ..econ::EconConfig::default()
        };
        let patient = econ::EconConfig {
            patience: 3.0,
            ..thrifty.clone()
        };
        let cheap = crate::node::NodeSpec::new(Scheme::EconCheap);
        let fast = crate::node::NodeSpec::new(Scheme::EconFast);
        let node = |id, spec, econ| CacheNode::new(id, spec, &fx.schema, econ);
        let mut nodes = vec![
            node(0, &cheap, &thrifty), // representative
            node(1, &cheap, &thrifty), // duplicate of 0
            node(2, &cheap, &patient), // other config
            node(3, &cheap, &thrifty), // other arrival rate (served below)
            node(4, &cheap, &thrifty), // duplicate of 3
            node(5, &cheap, &thrifty), // warm (structure placed below)
            node(6, &fast, &thrifty),  // other scheme
            node(7, &cheap, &thrifty), // draining
        ];
        for secs in [1.0, 2.0] {
            let q = gen.next_query();
            for id in [3, 4] {
                let _ = nodes[id].serve(&ctx, &q, SimTime::from_secs(secs));
            }
        }
        let placed = nodes[5].economy_mut().expect("economic").evacuate_receive(
            cache::StructureKey::Column(catalog::ColumnId(0)),
            1 << 20,
            Money::ZERO,
            simcore::SimDuration::from_secs(1.0),
            SimTime::from_secs(2.0),
            &fx.estimator,
        );
        assert!(placed);
        let now = SimTime::from_secs(10.0);
        nodes[7].begin_drain(now);
        for id in [0, 1, 2, 3, 4, 6] {
            assert!(cold_economy(&nodes[id]).is_some(), "node {id} is cold");
        }

        let mut mask = QuoteMask::default();
        assert_eq!(mask.fill(&nodes, now), (7, 5));
        assert_eq!(
            mask.quote,
            [true, false, true, true, false, true, true, false]
        );
    }

    #[test]
    fn draining_nodes_are_never_routed() {
        let fx = Fixture::new();
        let ctx = fx.ctx();
        let mut gen = fx.queries(9);
        let mut nodes = fx.nodes(3);
        nodes[0].begin_drain(SimTime::from_secs(0.5));

        let mut rr = RoundRobin::default();
        let mut lo = LeastOutstanding;
        let mut cq = CheapestQuote::default();
        for i in 0..12 {
            let now = SimTime::from_secs(1.0 + i as f64);
            let q = gen.next_query();
            assert_ne!(rr.route(&nodes, &ctx, &q, now), 0, "round-robin");
            assert_ne!(lo.route(&nodes, &ctx, &q, now), 0, "least-outstanding");
            assert_ne!(cq.route(&nodes, &ctx, &q, now), 0, "cheapest-quote");
        }
    }
}
