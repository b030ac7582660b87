//! Mergeable fleet accounting: per-tenant and per-node rollups.
//!
//! Every measurement a fleet run produces supports `merge()`, because the
//! sharded executor produces one partial result per cell and folds them —
//! always in ascending cell order, so the floating-point statistics are a
//! deterministic function of the cell partition alone, never of how many
//! worker threads happened to run (see `crate::exec`). Money is exact
//! fixed-point, so its sums are invariant under *any* merge order.

use metrics::{CostBreakdown, LogHistogram, StreamingStats};
use pricing::Money;
use serde::{Deserialize, Serialize};
use simulator::RunResult;
use telemetry::{HealthSeries, SloLedger};

use crate::elastic::ElasticSummary;
use crate::faults::FaultSummary;
use crate::tenant::TenantId;

/// What one tenant experienced over the run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantStats {
    /// Tenant identity.
    pub tenant: TenantId,
    /// Queries this tenant had served.
    pub queries: u64,
    /// Response times this tenant observed (seconds).
    pub response: StreamingStats,
    /// What this tenant paid the fleet.
    pub payments: Money,
    /// Of this tenant's queries, how many ran in a cache.
    pub cache_hits: u64,
}

impl TenantStats {
    /// Empty stats for a tenant.
    #[must_use]
    pub fn new(tenant: TenantId) -> Self {
        TenantStats {
            tenant,
            queries: 0,
            response: StreamingStats::new(),
            payments: Money::ZERO,
            cache_hits: 0,
        }
    }

    /// Merges another partial for the *same* tenant.
    ///
    /// # Panics
    /// Panics if the tenant identities differ.
    pub fn merge(&mut self, other: &TenantStats) {
        assert_eq!(self.tenant, other.tenant, "cannot merge different tenants");
        self.queries += other.queries;
        self.response.merge(&other.response);
        self.payments += other.payments;
        self.cache_hits += other.cache_hits;
    }
}

/// One cache node's accounting, rolled up across cells.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeStats {
    /// Node index within the fleet.
    pub node: usize,
    /// Scheme the node runs (`econ-cheap`, `bypass`, …).
    pub scheme: String,
    /// Queries routed to this node.
    pub queries: u64,
    /// Response times this node delivered (seconds).
    pub response: StreamingStats,
    /// Per-resource operating cost booked against this node.
    pub operating: CostBreakdown,
    /// Structure-build spending.
    pub build_spend: Money,
    /// User payments this node collected.
    pub payments: Money,
    /// Profit this node accumulated.
    pub profit: Money,
    /// Queries answered in this node's cache.
    pub cache_hits: u64,
    /// Structures built.
    pub investments: u64,
    /// Structures evicted / failed.
    pub evictions: u64,
    /// Cache disk occupied at the end of the run, summed over cells.
    pub final_disk_bytes: u64,
}

impl NodeStats {
    /// Seeds node stats from one cell's per-node run result.
    #[must_use]
    pub fn from_run(node: usize, run: &RunResult) -> Self {
        NodeStats {
            node,
            scheme: run.scheme.clone(),
            queries: run.queries,
            response: run.response.clone(),
            operating: run.operating,
            build_spend: run.build_spend,
            payments: run.payments,
            profit: run.profit,
            cache_hits: run.cache_hits,
            investments: run.investments,
            evictions: run.evictions,
            final_disk_bytes: run.final_disk_bytes,
        }
    }

    /// Merges the same node's partial from another cell.
    ///
    /// # Panics
    /// Panics if node index or scheme differ.
    pub fn merge(&mut self, other: &NodeStats) {
        assert_eq!(self.node, other.node, "cannot merge different nodes");
        assert_eq!(
            self.scheme, other.scheme,
            "node scheme changed between cells"
        );
        self.queries += other.queries;
        self.response.merge(&other.response);
        self.operating.merge(&other.operating);
        self.build_spend += other.build_spend;
        self.payments += other.payments;
        self.profit += other.profit;
        self.cache_hits += other.cache_hits;
        self.investments += other.investments;
        self.evictions += other.evictions;
        self.final_disk_bytes += other.final_disk_bytes;
    }

    /// Total operating cost of this node (execution + infrastructure +
    /// builds).
    #[must_use]
    pub fn total_operating_cost(&self) -> Money {
        self.operating.total() + self.build_spend
    }
}

/// Everything measured over one fleet run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetResult {
    /// Routing strategy name.
    pub router: String,
    /// Number of cells the tenant population was partitioned into.
    pub cells: usize,
    /// Queries served fleet-wide.
    pub queries: u64,
    /// Latest arrival across cells (seconds) — the run horizon.
    pub horizon_secs: f64,
    /// Fleet-wide response-time statistics (seconds).
    pub response: StreamingStats,
    /// Fleet-wide response-time histogram.
    pub response_hist: LogHistogram,
    /// Fleet-wide per-resource operating cost.
    pub operating: CostBreakdown,
    /// Fleet-wide structure-build spending.
    pub build_spend: Money,
    /// User payments collected fleet-wide.
    pub payments: Money,
    /// Cloud profit fleet-wide.
    pub profit: Money,
    /// Queries answered in a cache.
    pub cache_hits: u64,
    /// Structures built fleet-wide.
    pub investments: u64,
    /// Structures evicted fleet-wide.
    pub evictions: u64,
    /// Node-seconds of live node uptime integrated over cells — the
    /// quantity eq. 11 bills at `c` $/s. For a fixed population this is
    /// `nodes × Σ cell horizons`; an elastic run's control plane shrinks
    /// it by draining idle nodes (its summary carries the same value).
    pub node_seconds: f64,
    /// Per-tenant accounting, ascending tenant id.
    pub tenants: Vec<TenantStats>,
    /// Per-node accounting, ascending node index.
    pub nodes: Vec<NodeStats>,
    /// Elastic control-plane activity (spawns, retires, uptime integral,
    /// decision ledger); `None` for fixed-population runs.
    pub elastic: Option<ElasticSummary>,
    /// Fault-plane activity (crashes, recoveries, write-offs, re-queues);
    /// `None` for fault-free runs.
    pub faults: Option<FaultSummary>,
    /// Per-tenant SLO ledger (always computed — one histogram record
    /// plus counter bumps per query — so traced and untraced runs stay
    /// bit-identical). Defaults empty for older serialized results.
    #[serde(default)]
    pub slo: SloLedger,
    /// Cadenced vitals snapshots; `None` when the run had no health
    /// config. Set it aside and a snapshot-on run compares bit-identical
    /// to the snapshot-off run.
    #[serde(default)]
    pub health: Option<HealthSeries>,
}

impl FleetResult {
    /// An empty result for a run partitioned into `cells` cells; tenant
    /// and node rollups fill in as cell partials merge.
    #[must_use]
    pub fn empty(router: &str, cells: usize) -> Self {
        FleetResult {
            router: router.to_string(),
            cells,
            queries: 0,
            horizon_secs: 0.0,
            response: StreamingStats::new(),
            response_hist: LogHistogram::latency(),
            operating: CostBreakdown::ZERO,
            build_spend: Money::ZERO,
            payments: Money::ZERO,
            profit: Money::ZERO,
            cache_hits: 0,
            investments: 0,
            evictions: 0,
            node_seconds: 0.0,
            tenants: Vec::new(),
            nodes: Vec::new(),
            elastic: None,
            faults: None,
            slo: SloLedger::new(),
            health: None,
        }
    }

    /// Merges another fleet partial (a cell group) into this one.
    ///
    /// Tenants are disjoint across cells, so their stats concatenate and
    /// re-sort by id; node slots are shared, so they merge index-wise.
    /// Callers must merge in a fixed order (ascending cell id) for
    /// bit-reproducible floating-point aggregates.
    ///
    /// # Panics
    /// Panics if the partials disagree on router or node schemes.
    pub fn merge(&mut self, other: &FleetResult) {
        assert_eq!(self.router, other.router, "cannot merge different routers");
        self.queries += other.queries;
        self.horizon_secs = self.horizon_secs.max(other.horizon_secs);
        self.response.merge(&other.response);
        self.response_hist.merge(&other.response_hist);
        self.operating.merge(&other.operating);
        self.build_spend += other.build_spend;
        self.payments += other.payments;
        self.profit += other.profit;
        self.cache_hits += other.cache_hits;
        self.investments += other.investments;
        self.evictions += other.evictions;
        self.node_seconds += other.node_seconds;
        for t in &other.tenants {
            self.tenants.push(t.clone());
        }
        self.tenants.sort_by_key(|t| t.tenant);
        for n in &other.nodes {
            match self.nodes.iter_mut().find(|m| m.node == n.node) {
                Some(mine) => mine.merge(n),
                None => self.nodes.push(n.clone()),
            }
        }
        self.nodes.sort_by_key(|n| n.node);
        if let Some(theirs) = &other.elastic {
            self.elastic
                .get_or_insert_with(ElasticSummary::default)
                .merge(theirs);
        }
        if let Some(theirs) = &other.faults {
            self.faults
                .get_or_insert_with(FaultSummary::default)
                .merge(theirs);
        }
        self.slo.merge(&other.slo);
        if let Some(theirs) = &other.health {
            match &mut self.health {
                Some(mine) => mine.merge(theirs),
                None => self.health = Some(theirs.clone()),
            }
        }
    }

    /// Total operating cost of the fleet (execution + infrastructure +
    /// builds) — the Fig. 4 measurement at fleet scale.
    #[must_use]
    pub fn total_operating_cost(&self) -> Money {
        self.operating.total() + self.build_spend
    }

    /// Mean response time over all tenants (seconds).
    #[must_use]
    pub fn mean_response_secs(&self) -> f64 {
        self.response.mean()
    }

    /// Fleet-wide cache hit rate in `[0, 1]`.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.queries as f64
        }
    }

    /// One-line summary row for comparison tables.
    #[must_use]
    pub fn table_row(&self) -> String {
        format!(
            "{:<18} cost ${:>10.4}  mean resp {:>8.3}s  p99 {:>8.3}s  hits {:>5.1}%  builds {:>5}  payments ${:>10.4}",
            self.router,
            self.total_operating_cost().as_dollars(),
            self.mean_response_secs(),
            self.response_hist.p99().unwrap_or(0.0),
            self.hit_rate() * 100.0,
            self.investments,
            self.payments.as_dollars(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tenant_partial(id: u32, responses: &[f64], paid: f64) -> TenantStats {
        let mut t = TenantStats::new(TenantId(id));
        for &r in responses {
            t.queries += 1;
            t.response.record(r);
        }
        t.payments = Money::from_dollars(paid);
        t
    }

    #[test]
    fn tenant_merge_accumulates() {
        let mut a = tenant_partial(3, &[1.0, 2.0], 5.0);
        let b = tenant_partial(3, &[3.0], 2.5);
        a.merge(&b);
        assert_eq!(a.queries, 3);
        assert_eq!(a.response.count(), 3);
        assert_eq!(a.payments, Money::from_dollars(7.5));
    }

    #[test]
    #[should_panic(expected = "different tenants")]
    fn tenant_merge_rejects_mismatched_ids() {
        let mut a = tenant_partial(1, &[], 0.0);
        a.merge(&tenant_partial(2, &[], 0.0));
    }

    #[test]
    fn fleet_merge_is_indexwise_for_nodes_and_sorted_for_tenants() {
        let mut a = FleetResult::empty("cheapest-quote", 4);
        a.tenants.push(tenant_partial(2, &[1.0], 1.0));
        a.queries = 1;
        let mut b = FleetResult::empty("cheapest-quote", 4);
        b.tenants.push(tenant_partial(1, &[2.0], 2.0));
        b.queries = 1;
        a.merge(&b);
        assert_eq!(a.queries, 2);
        let ids: Vec<u32> = a.tenants.iter().map(|t| t.tenant.0).collect();
        assert_eq!(ids, vec![1, 2], "tenants re-sorted by id");
    }

    #[test]
    #[should_panic(expected = "different routers")]
    fn fleet_merge_rejects_mismatched_routers() {
        let mut a = FleetResult::empty("round-robin", 1);
        a.merge(&FleetResult::empty("cheapest-quote", 1));
    }
}
