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
//! cache misses builds it (through the fleet-wide [`SkeletonCache`] when
//! one is attached), every other node binds it against its own cache
//! state, and a round where every node hits builds nothing. The binding
//! itself is **batched** by default: the economic nodes of a chunk
//! complete in one structure-major sweep ([`econ::QuoteBatch`]) instead
//! of once per node. With `threads > 1` the chunks fan out over a
//! **persistent** worker pool (spawned once, parked between rounds — see
//! the private `pool` module); the merge folds per-chunk minima in
//! ascending node order, so the winner is **bit-identical** to the
//! sequential scan at any pool size and under either completion path
//! (`tests/fleet_determinism.rs` and `tests/batch_completion.rs` pin
//! this).
//!
//! All strategies break ties toward the lowest node index, so routing is
//! a deterministic function of the (node states, query, time) tuple.

use std::sync::{Arc, Mutex};

use econ::QuoteBatch;
use planner::{LazySkeleton, PlannerContext, SkeletonCache};
use pricing::Money;
use serde::{Deserialize, Serialize};
use simcore::SimTime;
use workload::Query;

use crate::node::CacheNode;
use crate::pool::{ChunkSlices, QuotePool};

/// A routing strategy.
pub trait Router {
    /// Strategy name as it appears in reports.
    fn name(&self) -> &'static str;

    /// Picks the node (index into `nodes`) that serves `query` at `now`.
    ///
    /// Nodes are borrowed mutably so quote fan-out can hand disjoint
    /// chunks to worker threads; routing itself must not serve the query.
    ///
    /// # Panics
    /// Implementations may panic if `nodes` is empty; fleet configs are
    /// validated to have at least one node.
    fn route(
        &mut self,
        nodes: &mut [CacheNode],
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

    /// Worker threads currently pinned to a core (0 for strategies
    /// without a pool, with pinning off, or where the platform refused
    /// the pins). Telemetry only — routing results never depend on
    /// placement.
    fn pinned_workers(&self) -> u64 {
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
        nodes: &mut [CacheNode],
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
        nodes: &mut [CacheNode],
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
#[derive(Debug, Clone)]
pub struct QuoteOptions {
    /// Workers a quote round fans per-node bids out over (1 =
    /// sequential; clamped to at least 1). Results are invariant in it
    /// by construction.
    pub threads: usize,
    /// Quote with batched structure-major completion
    /// ([`econ::QuoteBatch`]) instead of one completion pass per node.
    /// Bit-identical either way (the `fleet_scale` self-check and
    /// `tests/batch_completion.rs` enforce it). Batching is the default,
    /// but it is not measured faster: in the committed `fleet_scale`
    /// record per-node completion ties or beats it.
    pub batching: bool,
    /// Fleet-wide skeleton cache: rounds that must build the query's
    /// [`planner::PlanSkeleton`] first probe this cache under the
    /// query's planning fingerprint, de-duplicating builds across
    /// concurrently simulated cells.
    pub skeletons: Option<Arc<SkeletonCache>>,
    /// Pin pool workers to cores (`sched_setaffinity`): worker `w` is
    /// sticky on chunk `w + 1` every round, so pinning keeps each
    /// chunk's node states resident in one core's private cache. A
    /// placement hint only — results are bit-identical with pinning on,
    /// off, or refused by the platform ([`Router::pinned_workers`]
    /// reports how many pins took). Default on; a no-op off Linux.
    pub pinning: bool,
}

impl Default for QuoteOptions {
    fn default() -> Self {
        QuoteOptions {
            threads: 1,
            batching: true,
            skeletons: None,
            pinning: true,
        }
    }
}

/// Price-based routing: the node quoting the lowest `B_Q(t)` wins the bid.
///
/// Each round first builds its eligibility mask ([`QuoteMask`]): every
/// routable node bids except cold duplicates, whose bid equals that of
/// a lower-id cold node with the same scheme, config and arrival rate,
/// so each distinct cold state is priced once. The round then plans the
/// query at most once (the shared [`LazySkeleton`], built by the first
/// node that needs it — resolved through the fleet-wide [`SkeletonCache`]
/// when one is attached) and gathers per-node completions. With
/// `threads > 1` the nodes split into contiguous chunks fanned out over a **persistent** worker pool
/// ([`QuotePool`]): workers are spawned once and parked between rounds,
/// so the per-round parallelism cost is a wake/park pair instead of
/// thread spawns. Within each chunk the economic nodes' bids come from
/// one batched structure-major completion sweep ([`QuoteBatch`]) unless
/// per-node completion was requested.
///
/// Either way the chosen node is the lowest-indexed minimum bidder: each
/// chunk reports its first minimal bid and the merge folds chunks in
/// ascending node order keeping strict minima — bit-identical to the
/// sequential scan at any pool size, and to an exhaustive scan that
/// quotes every routable node.
pub struct CheapestQuote {
    threads: usize,
    batching: bool,
    skeletons: Option<Arc<SkeletonCache>>,
    pinning: bool,
    /// Lazily spawned persistent worker pool (`threads − 1` workers).
    pool: Option<QuotePool>,
    /// Per-chunk reusable batching workspaces; slot `c` is only ever
    /// touched by the round participant running chunk `c`.
    batches: Vec<Mutex<QuoteBatch>>,
    /// Per-chunk round results.
    results: Vec<Mutex<ChunkResult>>,
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

/// One chunk's contribution to a pooled quote round.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ChunkResult {
    /// The chunk's participant has not reported yet.
    Pending,
    /// The chunk quoted no node (all unroutable or cold duplicates).
    Empty,
    /// The chunk's first minimal bidder and its bid.
    Best(usize, Money),
}

impl std::fmt::Debug for CheapestQuote {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheapestQuote")
            .field("threads", &self.threads)
            .field("batching", &self.batching)
            .field("shared_skeletons", &self.skeletons.is_some())
            .field("pinning", &self.pinning)
            .field("pool_live", &self.pool.is_some())
            .finish()
    }
}

impl Default for CheapestQuote {
    fn default() -> Self {
        CheapestQuote::new(1)
    }
}

impl CheapestQuote {
    /// A cheapest-quote router fanning bids out over `threads` workers
    /// (1 = sequential; clamped to at least 1), with batched completion
    /// and no shared skeleton cache.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        CheapestQuote::with_options(QuoteOptions {
            threads,
            ..QuoteOptions::default()
        })
    }

    /// A cheapest-quote router with explicit [`QuoteOptions`].
    #[must_use]
    pub fn with_options(options: QuoteOptions) -> Self {
        CheapestQuote {
            threads: options.threads.max(1),
            batching: options.batching,
            skeletons: options.skeletons,
            pinning: options.pinning,
            pool: None,
            batches: Vec::new(),
            results: Vec::new(),
            mask: QuoteMask::default(),
            last_quote: None,
            last_quoted: 0,
            shared_bids: 0,
        }
    }

    /// Grows the per-chunk workspaces to cover `chunks` slots.
    fn ensure_chunk_state(&mut self, chunks: usize) {
        while self.batches.len() < chunks {
            self.batches.push(Mutex::new(QuoteBatch::new()));
        }
        while self.results.len() < chunks {
            self.results.push(Mutex::new(ChunkResult::Pending));
        }
    }

    /// One chunk's scan: the first quoted node with the minimal bid,
    /// quoting every node individually (the per-node reference path).
    /// `quote` is the chunk's slice of the round's [`QuoteMask`]. `None`
    /// when the chunk quotes no node (elastic fleets carry draining and
    /// booting nodes in the slice; they neither bid nor plan).
    fn chunk_best_per_node(
        nodes: &[CacheNode],
        quote: &[bool],
        base: usize,
        ctx: &PlannerContext<'_>,
        query: &Query,
        skeleton: &LazySkeleton<'_>,
        now: SimTime,
    ) -> Option<(usize, Money)> {
        let mut best: Option<(usize, Money)> = None;
        for (j, node) in nodes.iter().enumerate() {
            if !quote[j] {
                continue;
            }
            let bid = node.quote_with_skeleton(ctx, query, skeleton, now);
            if best.is_none_or(|(_, b)| bid < b) {
                best = Some((base + j, bid));
            }
        }
        best
    }

    /// One chunk's scan with bids drawn from a batched structure-major
    /// completion round — identical bids, hence identical winner.
    /// Nodes the mask leaves out are excluded from the batch entirely (no
    /// classification, no completion, no memo warming), exactly as the
    /// per-node path skips them.
    #[allow(clippy::too_many_arguments)] // one parameter per round input
    fn chunk_best_batched(
        batch: &mut QuoteBatch,
        nodes: &[CacheNode],
        quote: &[bool],
        base: usize,
        ctx: &PlannerContext<'_>,
        query: &Query,
        skeleton: &LazySkeleton<'_>,
        now: SimTime,
    ) -> Option<(usize, Money)> {
        let bids = batch.quote_round(
            nodes.len(),
            |j| if quote[j] { nodes[j].economy() } else { None },
            |j| {
                if quote[j] {
                    nodes[j].quote_with_skeleton(ctx, query, skeleton, now)
                } else {
                    Money::ZERO // placeholder; unquoted bids are never read
                }
            },
            ctx,
            query,
            skeleton,
            now,
        );
        let mut best: Option<(usize, Money)> = None;
        for (j, &bid) in bids.iter().enumerate() {
            if !quote[j] {
                continue;
            }
            if best.is_none_or(|(_, b)| bid < b) {
                best = Some((base + j, bid));
            }
        }
        best
    }

    /// Sequential scan (one chunk spanning every node).
    fn route_sequential(
        &mut self,
        nodes: &mut [CacheNode],
        ctx: &PlannerContext<'_>,
        query: &Query,
        skeleton: &LazySkeleton<'_>,
        now: SimTime,
    ) -> usize {
        self.ensure_chunk_state(1);
        let quote = &self.mask.quote;
        let best = if self.batching {
            let batch = self.batches[0].get_mut().expect("batch workspace poisoned");
            Self::chunk_best_batched(batch, nodes, quote, 0, ctx, query, skeleton, now)
        } else {
            Self::chunk_best_per_node(nodes, quote, 0, ctx, query, skeleton, now)
        };
        let (winner, bid) =
            best.expect("no routable node (the control plane must keep at least one active)");
        self.last_quote = Some(bid);
        winner
    }

    /// Persistent-pool scan: nodes split into contiguous chunks, every
    /// pool participant (the caller runs chunk 0) reports its chunk's
    /// first minimal bid, and the fold walks chunks in ascending node
    /// order keeping strict minima — exactly the sequential scan's
    /// lowest-indexed winner.
    fn route_pooled(
        &mut self,
        threads: usize,
        nodes: &mut [CacheNode],
        ctx: &PlannerContext<'_>,
        query: &Query,
        skeleton: &LazySkeleton<'_>,
        now: SimTime,
    ) -> usize {
        self.ensure_chunk_state(threads);
        // Re-clamp the persistent pool to the round's thread count: an
        // elastic fleet's node population changes mid-run, and `route`
        // clamps `threads` to the *current* population — so the pool must
        // grow back after the population does, and shrink when a smaller
        // population leaves workers that could never claim a chunk
        // (wake/park cost per round for nothing). Population changes are
        // review-cadence rare, so respawning on change is cheap.
        if self
            .pool
            .as_ref()
            .is_none_or(|p| p.workers() + 1 != threads)
        {
            self.pool = Some(QuotePool::with_pinning(threads - 1, self.pinning));
        }
        let chunk_len = nodes.len().div_ceil(threads);
        let slices = ChunkSlices::new(nodes, chunk_len);
        let n_chunks = slices.chunks();
        for slot in &mut self.results[..n_chunks] {
            *slot.get_mut().expect("result slot poisoned") = ChunkResult::Pending;
        }

        let batching = self.batching;
        let batches = &self.batches;
        let results = &self.results;
        let mask = &self.mask.quote;
        let job = |chunk: usize| {
            let Some(chunk_nodes) = slices.take(chunk) else {
                return; // pool larger than this round's chunk count
            };
            let base = chunk * chunk_len;
            let quote = &mask[base..base + chunk_nodes.len()];
            let best = if batching {
                let mut batch = batches[chunk].lock().expect("batch workspace poisoned");
                Self::chunk_best_batched(
                    &mut batch,
                    chunk_nodes,
                    quote,
                    base,
                    ctx,
                    query,
                    skeleton,
                    now,
                )
            } else {
                Self::chunk_best_per_node(chunk_nodes, quote, base, ctx, query, skeleton, now)
            };
            *results[chunk].lock().expect("result slot poisoned") = match best {
                Some((i, bid)) => ChunkResult::Best(i, bid),
                None => ChunkResult::Empty,
            };
        };
        self.pool.as_ref().expect("pool just ensured").run(&job);

        let mut best: Option<(usize, Money)> = None;
        for slot in &self.results[..n_chunks] {
            match *slot.lock().expect("result slot poisoned") {
                ChunkResult::Pending => unreachable!("every chunk computed"),
                ChunkResult::Empty => {}
                ChunkResult::Best(i, bid) => {
                    if best.is_none_or(|(_, b)| bid < b) {
                        best = Some((i, bid));
                    }
                }
            }
        }
        let (winner, bid) =
            best.expect("no routable node (the control plane must keep at least one active)");
        self.last_quote = Some(bid);
        winner
    }
}

impl Router for CheapestQuote {
    fn name(&self) -> &'static str {
        "cheapest-quote"
    }

    fn route(
        &mut self,
        nodes: &mut [CacheNode],
        ctx: &PlannerContext<'_>,
        query: &Query,
        now: SimTime,
    ) -> usize {
        // The cache-independent half of every node's planning: built at
        // most once per round, by the first node whose memo misses —
        // resolved through the fleet-wide cache when one is attached.
        // (The Arc clone keeps the cache borrowable for the round while
        // `self` is mutably borrowed below.)
        let shared = self.skeletons.clone();
        let skeleton = match &shared {
            Some(cache) => LazySkeleton::with_cache(ctx, query, cache),
            None => LazySkeleton::new(ctx, query),
        };
        let (routable, quoted) = self.mask.fill(nodes, now);
        self.last_quoted = quoted;
        self.shared_bids += (routable - quoted) as u64;
        let threads = self.threads.min(nodes.len());
        if threads <= 1 {
            self.route_sequential(nodes, ctx, query, &skeleton, now)
        } else {
            self.route_pooled(threads, nodes, ctx, query, &skeleton, now)
        }
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

    fn pinned_workers(&self) -> u64 {
        self.pool.as_ref().map_or(0, QuotePool::pinned_workers)
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

    /// Instantiates a fresh router of this kind. `quote` configures the
    /// cheapest-quote strategy (pool size, batching, shared skeletons)
    /// and is ignored by the other strategies; results are invariant in
    /// every quote option by construction.
    #[must_use]
    pub fn make(&self, quote: QuoteOptions) -> Box<dyn Router> {
        match self {
            RouterKind::RoundRobin => Box::<RoundRobin>::default(),
            RouterKind::LeastOutstanding => Box::new(LeastOutstanding),
            RouterKind::CheapestQuote => Box::new(CheapestQuote::with_options(quote)),
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
        let mut route = |nodes: &mut [CacheNode], secs: f64| {
            let q = gen.next_query();
            rr.route(nodes, &ctx, &q, SimTime::from_secs(secs))
        };
        let rotation: Vec<usize> = (0..4)
            .map(|i| route(&mut nodes, 1.0 + f64::from(i)))
            .collect();
        assert_eq!(rotation, [0, 1, 2, 0]);

        // The cursor now points at node 1; once it drains, every pass
        // over the ring skips it.
        nodes[1].begin_drain(SimTime::from_secs(5.0));
        let rotation: Vec<usize> = (0..4)
            .map(|i| route(&mut nodes, 6.0 + f64::from(i)))
            .collect();
        assert_eq!(rotation, [2, 0, 2, 0]);
    }

    #[test]
    fn cheapest_quote_clamps_thread_count() {
        let r = CheapestQuote::new(0);
        assert_eq!(r.threads, 1);
        assert_eq!(CheapestQuote::new(8).threads, 8);
        assert!(r.pool.is_none(), "pool is lazy");
        assert!(r.batching, "batched completion is the default");
    }

    #[test]
    fn pool_reclamps_when_the_node_population_changes() {
        let fx = Fixture::new();
        let ctx = fx.ctx();
        let mut gen = fx.queries(5);
        let mut nodes = fx.nodes(4);

        let mut r = CheapestQuote::new(8);
        let now = SimTime::from_secs(1.0);
        let q = gen.next_query();
        let _ = r.route(&mut nodes, &ctx, &q, now);
        // 8 requested threads clamp to the 4-node population: 3 workers.
        assert_eq!(r.pool.as_ref().expect("pool spawned").workers(), 3);

        // The population shrinks (elastic scale-down): the pool follows.
        let q = gen.next_query();
        let _ = r.route(&mut nodes[..2], &ctx, &q, SimTime::from_secs(2.0));
        assert_eq!(r.pool.as_ref().expect("pool live").workers(), 1);

        // …and grows back when the population does.
        let q = gen.next_query();
        let _ = r.route(&mut nodes, &ctx, &q, SimTime::from_secs(3.0));
        assert_eq!(r.pool.as_ref().expect("pool live").workers(), 3);
    }

    #[test]
    fn cold_duplicates_share_one_bid() {
        let fx = Fixture::new();
        let ctx = fx.ctx();
        let mut gen = fx.queries(6);
        let mut nodes = fx.nodes(4);
        let mut r = CheapestQuote::new(1);
        let q = gen.next_query();
        let now = SimTime::from_secs(1.0);
        // Four identical cold nodes: one representative bids, node 0 wins.
        assert_eq!(r.route(&mut nodes, &ctx, &q, now), 0);
        assert_eq!((r.last_quoted(), r.shared_bids()), (1, 3));
        assert_eq!(r.last_winning_quote(), Some(nodes[3].quote(&ctx, &q, now)));

        // A draining representative hands the role to the next cold node.
        nodes[0].begin_drain(now);
        let q = gen.next_query();
        let later = SimTime::from_secs(2.0);
        assert_eq!(r.route(&mut nodes, &ctx, &q, later), 1);
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
        let mut cq_batched = CheapestQuote::new(1);
        let mut cq_per_node = CheapestQuote::with_options(QuoteOptions {
            batching: false,
            ..QuoteOptions::default()
        });
        for i in 0..12 {
            let now = SimTime::from_secs(1.0 + i as f64);
            let q = gen.next_query();
            assert_ne!(rr.route(&mut nodes, &ctx, &q, now), 0, "round-robin");
            assert_ne!(lo.route(&mut nodes, &ctx, &q, now), 0, "least-outstanding");
            assert_ne!(cq_batched.route(&mut nodes, &ctx, &q, now), 0, "cq batched");
            assert_ne!(
                cq_per_node.route(&mut nodes, &ctx, &q, now),
                0,
                "cq per-node"
            );
        }
    }
}
