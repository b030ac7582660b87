//! Telemetry invariants — the flight recorder's two contracts:
//!
//! 1. **Registry algebra** (property-based): [`MetricsRegistry::merge`]
//!    is associative, commutative and partition-invariant — folding one
//!    operation stream through 1, 2, 4 or 8 shard-local registries and
//!    merging produces bit-identical snapshots, the same contract
//!    `CostBreakdown::merge` gives the economic aggregates. This is what
//!    makes a sharded traced run's registry a pure function of the
//!    config.
//! 2. **Pure observation** (integration): a traced fleet run is
//!    bit-identical to the no-op-sink run, and its event stream and
//!    registry are themselves invariant under the executor shard count.
//!    A run with vitals snapshots on is, apart from its health series,
//!    bit-identical to the snapshots-off run at any shard count, and SLO
//!    specs change nothing but the ledger fields that read them.
//! 3. **Snapshot/merge commutation** (property-based): serializing a
//!    registry to its JSON snapshot and back is transparent to `merge`
//!    — scraping shard partials and folding the snapshots equals
//!    snapshotting the fold.
//! 4. **SLO ledger algebra** (property-based): [`SloLedger::merge`] is
//!    associative and shard-count invariant, so per-tenant SLO records
//!    folded from any cell partitioning produce the same ledger.
//! 5. **Answerable, cross-footing reference trace** (integration): on
//!    the fleet `explain record` traces ([`recording_config`]), every
//!    `explain` query has an answer, the blame rollups and the SLO ledger
//!    cross-foot with the run's own aggregates, the vitals frames land on
//!    the cadence grid and the OpenMetrics render is well-formed.

use bench::recording_config;
use cloudcache::fleet::{FleetConfig, FleetSim, RouterKind};
use cloudcache::pricing::Money;
use cloudcache::telemetry::{
    blame, explain_crash, explain_retirement, render_openmetrics, structure_payers, BlameKey,
    LifecyclePhase, MetricsRegistry, SloLedger, TenantSloRecord, TenantSloSpec, TraceEvent,
};
use proptest::prelude::*;

/// Fixed name pools, one per metric kind — a name must keep one kind for
/// life (mixing kinds under one name is a programming error the registry
/// panics on), so ops address kind-homogeneous pools.
const COUNTERS: [&str; 3] = ["fleet.queries", "elastic.reviews", "plan_cache.hits"];
const GAUGES: [&str; 3] = ["fleet.payments", "fleet.profit", "fleet.exec.cpu"];
const HISTOGRAMS: [&str; 2] = ["fleet.response_secs", "node.backlog_secs"];

/// One registry operation: `(kind, name, magnitude)` drawn from plain
/// integer strategies (kind 0 = counter add, 1 = gauge add, 2 = histogram
/// observation).
type Op = (u8, u8, u64);

fn apply(registry: &mut MetricsRegistry, ops: &[Op]) {
    for &(kind, name, value) in ops {
        match kind % 3 {
            0 => registry.counter_add(COUNTERS[name as usize % COUNTERS.len()], value),
            1 => registry.gauge_add(
                GAUGES[name as usize % GAUGES.len()],
                // Signed so gauges exercise refunds/negative deltas too.
                Money::from_nanos(i128::from(value) - i128::from(u64::MAX / 2)),
            ),
            _ => registry.observe(
                HISTOGRAMS[name as usize % HISTOGRAMS.len()],
                // Spread observations across several log-buckets,
                // including the underflow bucket at 0.
                (value % 10_000) as f64 / 100.0,
            ),
        }
    }
}

fn build(ops: &[Op]) -> MetricsRegistry {
    let mut registry = MetricsRegistry::new();
    apply(&mut registry, ops);
    registry
}

fn merged(a: &MetricsRegistry, b: &MetricsRegistry) -> MetricsRegistry {
    let mut out = a.clone();
    out.merge(b);
    out
}

proptest! {
    /// merge is commutative: a ⊕ b == b ⊕ a.
    #[test]
    fn registry_merge_is_commutative(
        a in prop::collection::vec((0u8..3, 0u8..4, 0u64..1_000_000), 0..60),
        b in prop::collection::vec((0u8..3, 0u8..4, 0u64..1_000_000), 0..60),
    ) {
        let (ra, rb) = (build(&a), build(&b));
        prop_assert_eq!(merged(&ra, &rb), merged(&rb, &ra));
    }

    /// merge is associative: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
    #[test]
    fn registry_merge_is_associative(
        a in prop::collection::vec((0u8..3, 0u8..4, 0u64..1_000_000), 0..40),
        b in prop::collection::vec((0u8..3, 0u8..4, 0u64..1_000_000), 0..40),
        c in prop::collection::vec((0u8..3, 0u8..4, 0u64..1_000_000), 0..40),
    ) {
        let (ra, rb, rc) = (build(&a), build(&b), build(&c));
        prop_assert_eq!(
            merged(&merged(&ra, &rb), &rc),
            merged(&ra, &merged(&rb, &rc))
        );
    }

    /// Shard-count invariance: striding one operation stream across k
    /// shard-local registries (the executor's worker assignment) and
    /// merging in ascending shard order reproduces the 1-shard snapshot
    /// bit-for-bit, for every k the executor runs at.
    #[test]
    fn registry_merge_is_shard_count_invariant(
        ops in prop::collection::vec((0u8..3, 0u8..4, 0u64..1_000_000), 0..120),
    ) {
        let reference = build(&ops);
        for shards in [2usize, 4, 8] {
            let mut partials = vec![MetricsRegistry::new(); shards];
            for (i, op) in ops.iter().enumerate() {
                apply(&mut partials[i % shards], &[*op]);
            }
            let mut folded = MetricsRegistry::new();
            for partial in &partials {
                folded.merge(partial);
            }
            prop_assert_eq!(&folded, &reference, "shards = {}", shards);
        }
    }

    /// Snapshot/merge commutation: the registry's JSON snapshot is a
    /// faithful image, so scraping each shard partial and merging the
    /// deserialized snapshots equals snapshotting the live fold — the
    /// exporter can run on partials or on the fold without changing a
    /// bit.
    #[test]
    fn registry_snapshot_then_merge_equals_merge_then_snapshot(
        a in prop::collection::vec((0u8..3, 0u8..4, 0u64..1_000_000), 0..60),
        b in prop::collection::vec((0u8..3, 0u8..4, 0u64..1_000_000), 0..60),
    ) {
        let roundtrip = |r: &MetricsRegistry| -> MetricsRegistry {
            serde_json::from_str(&serde_json::to_string(r).expect("serialize"))
                .expect("deserialize")
        };
        let (ra, rb) = (build(&a), build(&b));
        prop_assert_eq!(
            merged(&roundtrip(&ra), &roundtrip(&rb)),
            roundtrip(&merged(&ra, &rb))
        );
    }
}

/// Deterministic per-tenant SLO spec: even tenants carry one (with a
/// cap), odd tenants run unspecced — partials of one run can never
/// disagree on a spec, it is config.
fn spec_for(tenant: u32) -> Option<TenantSloSpec> {
    tenant.is_multiple_of(2).then(|| TenantSloSpec {
        p99_target_secs: 1.0 + f64::from(tenant),
        spend_cap: Some(Money::from_dollars(0.25)),
    })
}

/// One ledger operation: `(tenant, kind, magnitude)` — kind 0 serves a
/// query (response time, payment and hit flag derived from the
/// magnitude), kinds 1–3 bump the timeout / retry / fault-delay
/// counters.
type SloOp = (u8, u8, u64);

fn ledger(ops: &[SloOp]) -> SloLedger {
    let mut records: std::collections::BTreeMap<u32, TenantSloRecord> =
        std::collections::BTreeMap::new();
    for &(tenant, kind, value) in ops {
        let t = u32::from(tenant);
        let r = records
            .entry(t)
            .or_insert_with(|| TenantSloRecord::new(t, spec_for(t)));
        match kind % 4 {
            0 => r.record_served(
                (value % 2_000) as f64 / 100.0,
                Money::from_nanos(i128::from(value % 1_000_000)),
                value % 2 == 0,
            ),
            1 => r.timeouts += 1,
            2 => r.retries += 1,
            _ => r.fault_delays += 1,
        }
    }
    SloLedger::from_records(records.into_values().collect())
}

fn ledger_merged(a: &SloLedger, b: &SloLedger) -> SloLedger {
    let mut out = a.clone();
    out.merge(b);
    out
}

proptest! {
    /// Ledger merge is associative: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c), spend
    /// in exact money and histograms bucket-for-bucket.
    #[test]
    fn slo_ledger_merge_is_associative(
        a in prop::collection::vec((0u8..6, 0u8..4, 0u64..1_000_000), 0..40),
        b in prop::collection::vec((0u8..6, 0u8..4, 0u64..1_000_000), 0..40),
        c in prop::collection::vec((0u8..6, 0u8..4, 0u64..1_000_000), 0..40),
    ) {
        let (la, lb, lc) = (ledger(&a), ledger(&b), ledger(&c));
        prop_assert_eq!(
            ledger_merged(&ledger_merged(&la, &lb), &lc),
            ledger_merged(&la, &ledger_merged(&lb, &lc))
        );
    }

    /// Shard-count invariance: striding one serve stream across k
    /// shard-local ledgers and folding in ascending shard order
    /// reproduces the 1-shard ledger bit-for-bit — the contract that
    /// makes the fleet's SLO report independent of its cell
    /// partitioning.
    #[test]
    fn slo_ledger_merge_is_shard_count_invariant(
        ops in prop::collection::vec((0u8..6, 0u8..4, 0u64..1_000_000), 0..120),
    ) {
        let reference = ledger(&ops);
        for shards in [2usize, 4, 8] {
            let mut streams = vec![Vec::new(); shards];
            for (i, op) in ops.iter().enumerate() {
                streams[i % shards].push(*op);
            }
            let mut folded = SloLedger::new();
            for stream in &streams {
                folded.merge(&ledger(stream));
            }
            prop_assert_eq!(&folded, &reference, "shards = {}", shards);
        }
    }
}

fn traced_config(shards: usize) -> FleetConfig {
    let mut config = FleetConfig::mixed(12, 3, 80);
    config.scale_factor = 10.0;
    config.cells = 6;
    config.shards = shards;
    config.router = RouterKind::CheapestQuote;
    config
}

/// The flight recorder observes without perturbing: the traced run's
/// `FleetResult` matches the no-op-sink run field for field, on a mixed
/// fleet and on the `explain` reference fleet (elastic control, a
/// crash-and-recover, the health plane and SLO specs), and the registry
/// agrees with the result it observed.
#[test]
fn traced_run_is_bit_identical_to_untraced() {
    for config in [traced_config(1), recording_config()] {
        let untraced = FleetSim::new(config.clone()).run();
        let (traced, trace) = FleetSim::new(config).run_traced();
        assert_eq!(traced, untraced);
        assert!(!trace.events.is_empty(), "recorder captured the run");
        let registry = &trace.registry;
        assert_eq!(registry.counter("fleet.queries"), untraced.queries);
        assert_eq!(registry.gauge("fleet.payments"), untraced.payments);
        assert_eq!(registry.gauge("fleet.profit"), untraced.profit);
        assert_eq!(registry.counter("fleet.cache_hits"), untraced.cache_hits);
    }
}

/// The event stream and registry are pure functions of the config: the
/// shard count reassigns cells to workers but cannot reorder, drop or
/// change a single event (cells are folded in ascending order).
#[test]
fn trace_is_invariant_under_shard_count() {
    let (reference_result, reference) = FleetSim::new(traced_config(1)).run_traced();
    for shards in [2usize, 4, 8] {
        let (result, trace) = FleetSim::new(traced_config(shards)).run_traced();
        assert_eq!(result, reference_result, "shards = {shards}");
        assert_eq!(trace.registry, reference.registry, "shards = {shards}");
        assert_eq!(trace.events, reference.events, "shards = {shards}");
    }
}

/// The health plane observes without perturbing: with the vitals
/// scraper on, the run minus its health series equals the snapshots-off
/// run field for field, at one shard and at four. SLO specs only mark
/// targets: the reference fleet with specs and vitals on equals the run
/// with neither, once the health series and the ledger fields that read
/// a spec (the spec itself and the deadline-miss count) are set aside.
#[test]
fn health_snapshots_leave_the_run_bit_identical() {
    let off = FleetSim::new(traced_config(1)).run();
    assert!(off.health.is_none());
    let interval_secs = off.horizon_secs / 8.0;
    for shards in [1usize, 4] {
        let mut on = FleetSim::new(traced_config(shards).with_health(interval_secs)).run();
        let series = on.health.take().expect("health-enabled run has a series");
        assert!(!series.frames.is_empty(), "shards = {shards}");
        assert_eq!(on, off, "shards = {shards}");
    }

    let mut on = FleetSim::new(recording_config()).run();
    let mut off_config = recording_config();
    off_config.health = None;
    for tenant in &mut off_config.tenants {
        tenant.slo = None;
    }
    let off = FleetSim::new(off_config).run();
    assert!(on.health.take().is_some());
    assert!(on.slo.tenants.iter().any(|r| r.deadline_misses > 0));
    for record in &mut on.slo.tenants {
        record.slo = None;
        record.deadline_misses = 0;
    }
    assert_eq!(on, off);
}

/// The first event of the reference trace `pick` answers for.
fn first<T>(events: &[TraceEvent], pick: impl Fn(&TraceEvent) -> Option<T>) -> T {
    events
        .iter()
        .find_map(pick)
        .expect("reference trace has material")
}

/// Every question `explain` answers has an answer on the reference
/// trace — a retirement, a crash and a structure's payers — and the
/// blame rollups neither lose nor double-count a settlement, a dollar of
/// spend or a dollar of written-off capital.
#[test]
fn reference_trace_answers_every_explain_query() {
    let (run, trace) = FleetSim::new(recording_config()).run_traced();
    let events = &trace.events;
    let retired = first(events, |e| match e {
        TraceEvent::NodeLifecycle(l) if l.phase == LifecyclePhase::Retire => l.node,
        _ => None,
    });
    assert!(explain_retirement(events, retired).is_some());
    let crashed = first(events, |e| match e {
        TraceEvent::NodeCrash(c) => Some(c.node),
        _ => None,
    });
    assert!(explain_crash(events, crashed).is_some());
    let structure = first(events, |e| match e {
        TraceEvent::Settlement(s) => s.used_structures.first().cloned(),
        _ => None,
    });
    assert!(!structure_payers(events, &structure).is_empty());

    // One blame row per tenant, each equal to the tenant's own books.
    let by_tenant = blame(events, BlameKey::Tenant);
    assert_eq!(by_tenant.len(), run.tenants.len());
    for stats in &run.tenants {
        let name = format!("tenant#{}", stats.tenant.0);
        let (_, row) = by_tenant.iter().find(|(n, _)| *n == name).expect(&name);
        assert_eq!((row.queries, row.payments), (stats.queries, stats.payments));
    }
    let by_node = blame(events, BlameKey::Node);
    let node_queries: u64 = by_node.iter().map(|(_, r)| r.queries).sum();
    assert_eq!(node_queries, run.queries);
    let registry = &trace.registry;
    let exec: Money = blame(events, BlameKey::Resource)
        .iter()
        .map(|(_, r)| r.exec.total())
        .sum();
    let exec_gauges: Money = ["cpu", "disk", "network", "io"]
        .iter()
        .map(|r| registry.gauge(&format!("fleet.exec.{r}")))
        .sum();
    assert_eq!(exec, exec_gauges);
    let write_off: Money = by_node.iter().map(|(_, r)| r.write_off).sum();
    assert_eq!(write_off, registry.gauge("fault.write_off"));
    let faults = run.faults.as_ref().expect("faulted reference fleet");
    assert!(faults.recoveries > 0);
    assert_eq!(faults.reconciled, faults.recoveries);
}

/// The health plane's outputs cross-foot with the run they watch: the
/// SLO ledger matches each tenant's own books, the vitals frames land
/// exactly on the cadence grid, and the OpenMetrics render of the
/// reference trace is well-formed.
#[test]
fn reference_run_slo_ledger_and_vitals_crossfoot() {
    let (run, trace) = FleetSim::new(recording_config()).run_traced();
    assert_eq!(run.slo.total_admitted(), run.queries);
    assert_eq!(run.slo.tenants.len(), run.tenants.len());
    for (stats, record) in run.tenants.iter().zip(&run.slo.tenants) {
        assert_eq!(
            (
                record.tenant,
                record.admitted,
                record.spend,
                record.cache_hits
            ),
            (
                stats.tenant.0,
                stats.queries,
                stats.payments,
                stats.cache_hits
            )
        );
    }
    let spend: Money = run.slo.tenants.iter().map(|r| r.spend).sum();
    assert_eq!(spend, run.payments);

    let series = run.health.as_ref().expect("health-enabled run");
    assert!(!series.frames.is_empty());
    for (i, frame) in series.frames.iter().enumerate() {
        let tick = (i + 1) as f64 * series.interval_secs;
        assert_eq!(frame.at_secs.to_bits(), tick.to_bits(), "frame {i}");
    }
    assert!(series.frames.last().expect("frames").queries <= run.queries);

    let text = render_openmetrics(&trace.registry, Some(series));
    assert!(text.ends_with("# EOF\n"));
    assert!(text.contains("fleet_vitals_frames_total"));
}
