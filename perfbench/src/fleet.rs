//! The fleet workloads, driven through `fleet::FleetSim`.
//!
//! * `fleet-market` — 16 uniform tenants on 8 econ-cheap nodes at SF 10,
//!   4 cells on 2 shards, cheapest-quote routing: every query runs a
//!   full quote round and one serve.
//! * `fleet-ops` — 24 mixed tenants on 8 seed nodes at SF 10, 4 cells on
//!   1 shard, with elastic control, a cascading-crash and evacuation
//!   fault plan plus a flash crowd, 30 s health vitals and an SLO ledger.

use std::time::Instant;

use fleet::{
    CacheNode, ElasticConfig, FaultOutcome, FaultPlan, FleetConfig, FleetResult, FleetSim,
    MergedStream, NodeStats, QuoteOptions, TenantSloSpec, TenantStream,
};
use planner::{planning_fingerprint, PlanSkeleton};
use pricing::Money;
use simcore::SimTime;
use telemetry::{MetricValue, MetricsRegistry};

use crate::env::Env;
use crate::harness::{self, Workload};
use crate::levers;
use crate::probe::{self, median, Off, Probe, Tracer};
use crate::report::{Digest, Report};

/// TPC-H scale factor of the fleet workloads.
pub const SCALE_FACTOR: f64 = 10.0;
/// Cells the tenants are partitioned into.
const CELLS: usize = 4;
/// Every this many queries the traced run times a side skeleton build.
const SIDE_CALL_EVERY: u64 = 64;

/// Which fleet workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `fleet-market`.
    Market,
    /// `fleet-ops`.
    Ops,
}

/// A fleet workload of fixed size.
pub struct FleetWorkload {
    /// Which workload.
    pub kind: Kind,
    /// Workload seed (the fleet seed every tenant stream derives from).
    pub seed: u64,
    /// Queries each tenant submits.
    pub queries_per_tenant: u64,
}

impl FleetWorkload {
    /// The timed configuration.
    #[must_use]
    pub fn config(&self) -> FleetConfig {
        match self.kind {
            Kind::Market => self.market(2),
            Kind::Ops => self.ops(true),
        }
    }

    fn market(&self, shards: usize) -> FleetConfig {
        let mut c = FleetConfig::uniform(16, 8, self.queries_per_tenant, 1.0);
        c.scale_factor = SCALE_FACTOR;
        c.cells = CELLS;
        c.shards = shards;
        c.seed = self.seed;
        c
    }

    /// The tenants of the market's cell 0 as a one-cell fleet.
    fn market_cell0(&self) -> FleetConfig {
        let mut c = self.market(1);
        c.tenants
            .retain(|t| (t.id.0 as usize).is_multiple_of(CELLS));
        c.cells = 1;
        c
    }

    fn ops(&self, health: bool) -> FleetConfig {
        let mut c = FleetConfig::mixed(24, 8, self.queries_per_tenant);
        c.scale_factor = SCALE_FACTOR;
        c.cells = CELLS;
        c.shards = 1;
        c.seed = self.seed;
        // Fault instants are fractions of the fixed-interval tenants'
        // last arrival, so they land inside the run at any size.
        let horizon = self.queries_per_tenant as f64;
        let crash_at = 0.4 * horizon + 0.05;
        let plan = FaultPlan::new(horizon)
            .with_group(vec![0, 3], crash_at)
            .with_cascade(0.35, 0.5, 0.005 * horizon, 2)
            .with_degrade(1, 0.2 * horizon, 0.6 * horizon, 6.0)
            .with_timeout(2.0)
            .with_retry(3, 0.5, 2.0, 0.5)
            .with_evacuation(0.01 * horizon, false)
            .with_surge(0.7 * horizon, 0.1 * horizon, 6.0);
        c = c
            .with_elastic(ElasticConfig {
                review_interval_secs: 5.0,
                scale_up_backlog: 4.0,
                scale_down_backlog: 0.25,
                min_nodes: 2,
                max_nodes: 8,
                cooldown_reviews: 4,
                drain_grace_secs: 60.0,
                ..ElasticConfig::default()
            })
            .with_faults(plan)
            .with_slo(TenantSloSpec {
                p99_target_secs: 6.0,
                spend_cap: Some(Money::from_dollars(1.0)),
            });
        if health {
            c = c.with_health(30.0);
        }
        c
    }

    /// Share of all tenants' queries whose planning fingerprint was
    /// already seen earlier in the run, from the same inputs.
    fn repeat_share(&self, env: &Env) -> f64 {
        let config = self.config();
        let mut seen = std::collections::HashSet::new();
        let mut fp = Vec::new();
        let (mut total, mut repeats) = (0u64, 0u64);
        for t in &config.tenants {
            let mut stream =
                TenantStream::new(t.clone(), std::sync::Arc::clone(&env.schema), config.seed);
            while let Some((_, q)) = stream.next_arrival() {
                planning_fingerprint(&q, &mut fp);
                total += 1;
                repeats += u64::from(!seen.insert(fp.clone()));
            }
        }
        repeats as f64 / total.max(1) as f64
    }

    fn env(config: &FleetConfig) -> Env {
        Env::build(
            config.scale_factor,
            config.candidate_indexes,
            config.cost_params.clone(),
            config.prices.clone(),
        )
    }
}

/// Every economic aggregate of a fleet run (the health series is an
/// observation and stays out).
#[must_use]
pub fn digest(r: &FleetResult) -> Digest {
    let mut d = Digest::default();
    d.push("queries", r.queries);
    d.push("payments", r.payments.as_nanos());
    d.push("profit", r.profit.as_nanos());
    d.push("build_spend", r.build_spend.as_nanos());
    d.push("operating", r.operating.total().as_nanos());
    d.push("cache_hits", r.cache_hits);
    d.push("investments", r.investments);
    d.push("evictions", r.evictions);
    d.push("mean_response", r.response.mean().to_bits());
    d.push("p99_response", p99(r).to_bits());
    d.push("node_seconds", r.node_seconds.to_bits());
    if let Some(e) = &r.elastic {
        d.push(
            "elastic",
            format!("{}/{}/{}", e.spawns, e.retires, e.peak_nodes),
        );
    }
    if let Some(f) = &r.faults {
        d.push(
            "faults",
            format!(
                "{}/{}/{}/{}/{}",
                f.crashes,
                f.write_off.as_nanos(),
                f.salvaged.as_nanos(),
                f.transfer_spend.as_nanos(),
                f.retries
            ),
        );
    }
    for t in &r.tenants {
        d.push(
            format!("tenant{}", t.tenant.0),
            format!("{}/{}/{}", t.queries, t.payments.as_nanos(), t.cache_hits),
        );
    }
    d.0.extend(nodes_digest(&r.nodes).0);
    d
}

/// Per-node aggregates, in node order.
#[must_use]
pub fn nodes_digest(nodes: &[NodeStats]) -> Digest {
    let mut d = Digest::default();
    for n in nodes {
        d.push(
            format!("node{}", n.node),
            format!(
                "{}/{}/{}/{}/{}/{}/{}/{}/{}/{}",
                n.queries,
                n.payments.as_nanos(),
                n.profit.as_nanos(),
                n.build_spend.as_nanos(),
                n.total_operating_cost().as_nanos(),
                n.cache_hits,
                n.investments,
                n.evictions,
                n.response.mean().to_bits(),
                n.final_disk_bytes
            ),
        );
    }
    d
}

fn p99(r: &FleetResult) -> f64 {
    r.response_hist.quantile(0.99).unwrap_or(0.0)
}

/// Output checks of one fleet run against its config.
#[must_use]
pub fn check(config: &FleetConfig, r: &FleetResult) -> Vec<String> {
    let mut errors = Vec::new();
    let submitted = config.total_queries();
    if r.queries != submitted || r.response.count() != submitted {
        errors.push(format!(
            "{submitted} queries submitted, {} accounted, {} response samples",
            r.queries,
            r.response.count()
        ));
    }
    if r.slo.total_admitted() != r.queries {
        errors.push(format!(
            "SLO ledger admitted {} of {} queries",
            r.slo.total_admitted(),
            r.queries
        ));
    }
    let tenants = (
        r.tenants.iter().map(|t| t.queries).sum::<u64>(),
        r.tenants.iter().map(|t| t.payments).sum::<Money>(),
        r.tenants.iter().map(|t| t.cache_hits).sum::<u64>(),
    );
    let nodes = (
        r.nodes.iter().map(|n| n.queries).sum::<u64>(),
        r.nodes.iter().map(|n| n.payments).sum::<Money>(),
        r.nodes.iter().map(|n| n.cache_hits).sum::<u64>(),
    );
    let fleet = (r.queries, r.payments, r.cache_hits);
    for (rollup, sums) in [("tenant", tenants), ("node", nodes)] {
        if sums != fleet {
            errors.push(format!(
                "{rollup} rollups (queries, payments, hits) {:?} do not cross-foot to fleet {:?}",
                (sums.0, sums.1.as_nanos(), sums.2),
                (fleet.0, fleet.1.as_nanos(), fleet.2)
            ));
        }
    }
    if let Some(f) = &r.faults {
        if f.reconciled != f.recoveries {
            errors.push(format!(
                "{} of {} recoveries reconciled",
                f.reconciled, f.recoveries
            ));
        }
        for record in &f.records {
            if let FaultOutcome::Recover(rec) = &record.event {
                if !rec.drift.is_zero() {
                    errors.push(format!(
                        "recovery of node {} drifted: {:?}",
                        rec.crashed, rec.drift
                    ));
                }
            }
        }
    }
    errors
}

/// The simulated outputs and market shape of a fleet run.
fn simulated_outputs(r: &FleetResult, report: &mut Report) {
    let queries = r.queries.max(1) as f64;
    report.set(
        "econ.cost_per_kq_usd",
        r.total_operating_cost().as_dollars() / queries * 1000.0,
    );
    report.set("econ.mean_response_s", r.response.mean());
    report.set("econ.p99_response_s", p99(r));
    report.set("cache.hit_rate", r.hit_rate());
    let disk: u64 = r.nodes.iter().map(|n| n.final_disk_bytes).sum();
    report.set("cache.final_disk_gib", disk as f64 / f64::from(1u32 << 30));
    report.set("econ.investments", r.investments as f64);
    report.set("econ.evictions", r.evictions as f64);
    let shares: Vec<f64> = r.nodes.iter().map(|n| n.queries as f64 / queries).collect();
    report.set(
        "fleet.router.top_node_share",
        shares.iter().copied().fold(0.0, f64::max),
    );
    report.set("fleet.router.hhi", shares.iter().map(|s| s * s).sum());
}

/// A registry counter by name; `None` when the program has no such
/// counter.
fn counter(registry: &MetricsRegistry, name: &str) -> Option<u64> {
    match registry.get(name) {
        Some(MetricValue::Counter { value }) => Some(*value),
        _ => None,
    }
}

/// Lever and control-plane counters from a traced run's registry.
fn registry_outputs(registry: &MetricsRegistry, report: &mut Report) {
    let plan = levers::Counters(
        ["hits", "misses", "completions", "victim_hits"]
            .iter()
            .filter_map(|f| {
                Some((
                    f.to_string(),
                    counter(registry, &format!("plan_cache.{f}"))?,
                ))
            })
            .collect(),
    );
    crate::node::plan_cache_outputs(&plan, report);
    // The control-plane counters only appear once an event fired.
    for (metric, name) in [
        ("fleet.elastic.reviews", "elastic.reviews"),
        ("fleet.elastic.spawns", "elastic.spawns"),
        ("fleet.elastic.retires", "elastic.retires"),
        ("fleet.faults.crashes", "fault.crashes"),
        ("fleet.faults.retries", "fault.retries"),
        ("fleet.faults.evacuations", "fault.evacuations"),
        ("fleet.faults.structures_moved", "fault.structures_moved"),
    ] {
        report.set(metric, counter(registry, name).unwrap_or(0) as f64);
    }
}

/// What a cell-0 driver run produced.
struct DriverRep {
    nodes: Vec<NodeStats>,
    queries: u64,
    routable_offered: u64,
}

/// Serves the one-cell market config through the public node, router and
/// stream API, one span per layer call.
fn drive_cell<P: Probe>(config: &FleetConfig, env: &Env, probe: &mut P, side: bool) -> DriverRep {
    let ctx = env.ctx();
    let streams = config
        .tenants
        .iter()
        .map(|t| TenantStream::new(t.clone(), std::sync::Arc::clone(&env.schema), config.seed))
        .collect();
    let mut merged = MergedStream::new(streams);
    let mut nodes: Vec<CacheNode> = config
        .nodes
        .iter()
        .enumerate()
        .map(|(i, spec)| CacheNode::new(i, spec, &env.schema, &config.econ))
        .collect();
    let mut router = config.router.make(QuoteOptions::default());
    let mut horizon = SimTime::ZERO;
    let (mut queries, mut routable_offered) = (0u64, 0u64);
    loop {
        let qid = queries + 1;
        let root = probe.open("query", None, qid);
        let span = probe.open("fleet.tenant.next", Some(root), qid);
        let next = merged.next();
        probe.close(span);
        let Some((now, _tenant, query)) = next else {
            probe.close(root);
            break;
        };
        queries = qid;
        horizon = now;
        let span = probe.open("fleet.node.accrue", Some(root), qid);
        for node in &mut nodes {
            node.accrue(now);
        }
        probe.close(span);
        routable_offered += nodes.iter().filter(|n| n.routable(now)).count() as u64;
        let span = probe.open("fleet.router.route", Some(root), qid);
        let chosen = router.route(&mut nodes, &ctx, &query, now);
        probe.close(span);
        let span = probe.open("fleet.node.serve", Some(root), qid);
        let _ = nodes[chosen].serve(&ctx, &query, now);
        probe.close(span);
        if side && qid % SIDE_CALL_EVERY == 1 {
            let span = probe.open("planner.skeleton_build", Some(root), qid);
            std::hint::black_box(PlanSkeleton::build(&ctx, &query));
            probe.close(span);
        }
        probe.close(root);
    }
    let rates = &config.prices.rates;
    let nodes = nodes
        .into_iter()
        .map(|n| NodeStats::from_run(n.id(), &n.finish(rates, horizon)))
        .collect();
    DriverRep {
        nodes,
        queries,
        routable_offered,
    }
}

impl Workload for FleetWorkload {
    type Setup = FleetSim;
    type Output = FleetResult;

    fn queries(&self) -> u64 {
        self.config().total_queries()
    }

    fn threads(&self) -> usize {
        let c = self.config();
        c.shards.min(c.cells)
    }

    fn setup(&self) -> FleetSim {
        FleetSim::new(self.config())
    }

    fn run(&self, sim: FleetSim) -> FleetResult {
        sim.run()
    }

    fn check(&self, r: &FleetResult) -> (Digest, Vec<String>) {
        (digest(r), check(&self.config(), r))
    }

    fn describe(&self, r: &FleetResult, report: &mut Report) {
        simulated_outputs(r, report);
    }
}

/// Tallies one run's checks into the report; returns its digest.
fn tally(report: &mut Report, config: &FleetConfig, r: &FleetResult, what: &str) -> Digest {
    report.attempted += config.total_queries();
    let errors = check(config, r);
    report.fail_run(
        config.total_queries(),
        errors.into_iter().map(|e| format!("{what}: {e}")).collect(),
    );
    digest(r)
}

/// Fails the run if `digest` differs from `reference`.
fn same(report: &mut Report, reference: &Digest, digest: &Digest, what: &str, queries: u64) {
    if reference != digest {
        report.fail_run(
            queries,
            vec![format!(
                "{what} diverged: {}",
                digest.first_difference(reference)
            )],
        );
    }
}

/// Times `f` (seconds) and returns its value.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// The `fleet-market` traced run. Rounds until `seconds` pass: the full
/// config on 2 shards and on 1 shard (`fleet.exec.shard_speedup`), then
/// the cell-0 driver untraced and traced (`trace.overhead` and the
/// router/node/tenant spans).
pub fn market_traced(w: &FleetWorkload, seconds: f64, report: &mut Report) -> Option<Tracer> {
    let started = Instant::now();
    let full = w.market(2);
    let cell0 = w.market_cell0();
    let env = FleetWorkload::env(&cell0);

    let sim = FleetSim::new(full.clone());
    let (traced, trace) = sim.run_traced();
    let reference = tally(report, &full, &traced, "traced full run");
    let skeletons = levers::skeleton_cache(&sim);
    drop(sim);
    let cell_result = FleetSim::new(cell0.clone()).run();
    tally(report, &cell0, &cell_result, "one-cell reference");
    let cell_reference = nodes_digest(&cell_result.nodes);

    let (mut one, mut two) = (Vec::new(), Vec::new());
    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    let mut resolved = true;
    let mut kept: Option<(Tracer, DriverRep)> = None;
    let mut round_secs = 0.0;
    while kept.is_none() || harness::fits(started, round_secs, seconds) {
        let round_started = Instant::now();
        for (shards, walls) in [(2, &mut two), (1, &mut one)] {
            let config = w.market(shards);
            let sim = FleetSim::new(config.clone());
            let (r, wall) = timed(|| sim.run());
            walls.push(wall);
            let d = tally(report, &config, &r, &format!("{shards}-shard run"));
            same(
                report,
                &reference,
                &d,
                &format!("{shards}-shard run"),
                r.queries,
            );
        }
        let (rep, wall) = timed(|| drive_cell(&cell0, &env, &mut Off, false));
        plain.push(wall);
        resolved &= nodes_digest(&rep.nodes) == cell_reference;
        let mut tracer = Tracer::new();
        let (rep, wall) = timed(|| drive_cell(&cell0, &env, &mut tracer, true));
        spanned.push(wall - tracer.total_ns("planner.skeleton_build") as f64 * 1e-9);
        resolved &= nodes_digest(&rep.nodes) == cell_reference;
        report.attempted += 2 * rep.queries;
        kept = Some((tracer, rep));
        round_secs = round_started.elapsed().as_secs_f64();
    }
    let (tracer, rep) = kept?;
    report
        .notes
        .push(format!("result_digest {}", reference.hex()));
    report.set("fleet.exec.shard_speedup", median(&one) / median(&two));
    report.notes.push(format!(
        "fleet.exec.shard_speedup from {} rounds of 1-shard / 2-shard runs",
        one.len()
    ));
    simulated_outputs(&traced, report);
    registry_outputs(&trace.registry, report);
    report.set_or_absent(
        "planner.skeleton_cache.hit_ratio",
        skeletons.hit_ratio().or(skeletons.get("hits").map(|_| 0.0)),
    );
    report.set("workload.repeat_share", w.repeat_share(&env));
    let skel = tracer.sorted_durations("planner.skeleton_build");
    report.set(
        "planner.skeleton_build_ns.p50",
        probe::percentile(&skel, 50_000),
    );
    if !resolved {
        report.notes.push(
            "cell-0 driver digest differs from FleetSim::run on the one-cell config: \
             the router/node/tenant split is unresolved"
                .to_string(),
        );
        return Some(tracer);
    }
    report.notes.push(format!(
        "cell-0 driver digest {} equals FleetSim::run on the one-cell config",
        cell_reference.hex()
    ));
    harness::set_overhead(report, &plain, &spanned);
    harness::set_loop_self_share(report, &tracer);
    let route = tracer.sorted_durations("fleet.router.route");
    report.set(
        "fleet.router.route_ns.p50",
        probe::percentile(&route, 50_000),
    );
    harness::set_p99(report, "fleet.router.route_ns.p99", &route);
    report.set(
        "fleet.router.route_share",
        tracer.total_ns("fleet.router.route") as f64 / tracer.total_ns("query").max(1) as f64,
    );
    report.set(
        "fleet.router.bids_per_query",
        rep.routable_offered as f64 / rep.queries.max(1) as f64,
    );
    let serve = tracer.sorted_durations("fleet.node.serve");
    report.set("fleet.node.serve_ns.p50", probe::percentile(&serve, 50_000));
    harness::set_p99(report, "fleet.node.serve_ns.p99", &serve);
    let accrue = tracer.sorted_durations("fleet.node.accrue");
    report.set(
        "fleet.node.accrue_ns.p50",
        probe::percentile(&accrue, 50_000),
    );
    let next = tracer.sorted_durations("fleet.tenant.next");
    report.set("fleet.tenant.next_ns.p50", probe::percentile(&next, 50_000));
    Some(tracer)
}

/// The `fleet-ops` traced run. Rounds until `seconds` pass, each timing
/// four runs of the config: untraced, inside a benchmark span
/// (`trace.overhead`), `run_traced` (`telemetry.trace_overhead`), and
/// with health vitals off (`telemetry.health_overhead`). Every run must
/// give the same economic digest.
pub fn ops_traced(w: &FleetWorkload, seconds: f64, report: &mut Report) -> Option<Tracer> {
    let started = Instant::now();
    let config = w.ops(true);
    let quiet = w.ops(false);
    let env = FleetWorkload::env(&config);
    let mut reference: Option<Digest> = None;
    let (mut plain, mut spanned, mut recorded, mut no_health) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut tracer = Tracer::new();
    let mut kept = None;
    let mut round_secs = 0.0;
    while kept.is_none() || harness::fits(started, round_secs, seconds) {
        let round_started = Instant::now();
        // A fresh FleetSim per run: its shared skeleton cache must not
        // carry warm entries from one timed run into the next.
        let sim = FleetSim::new(config.clone());
        let (r, wall) = timed(|| sim.run());
        plain.push(wall);
        let d = tally(report, &config, &r, "untraced run");
        let reference = reference.get_or_insert(d.clone());
        same(report, reference, &d, "repeated run", r.queries);

        let sim = FleetSim::new(config.clone());
        let span = tracer.open("fleet.run", None, 0);
        let (r, wall) = timed(|| sim.run());
        tracer.close(span);
        spanned.push(wall);
        let d = tally(report, &config, &r, "spanned run");
        same(report, reference, &d, "spanned run", r.queries);

        let sim = FleetSim::new(config.clone());
        let span = tracer.open("fleet.run_traced", None, 0);
        let ((r, trace), wall) = timed(|| sim.run_traced());
        tracer.close(span);
        recorded.push(wall);
        let d = tally(report, &config, &r, "run_traced");
        same(report, reference, &d, "run_traced", r.queries);
        let skeletons = levers::skeleton_cache(&sim);

        let sim = FleetSim::new(quiet.clone());
        let (r, wall) = timed(|| sim.run());
        no_health.push(wall);
        let d = tally(report, &quiet, &r, "health-off run");
        same(report, reference, &d, "health-off run", r.queries);
        kept = Some((r, trace, skeletons));
        round_secs = round_started.elapsed().as_secs_f64();
    }
    let (result, trace, skeletons) = kept?;
    if let Some(d) = &reference {
        report.notes.push(format!("result_digest {}", d.hex()));
    }
    harness::set_overhead(report, &plain, &spanned);
    report.set(
        "telemetry.trace_overhead",
        median(&recorded) / median(&plain) - 1.0,
    );
    report.set(
        "telemetry.health_overhead",
        median(&plain) / median(&no_health) - 1.0,
    );
    report.set("telemetry.events", trace.events.len() as f64);
    report.notes.push(format!(
        "telemetry overheads from {} rounds of untraced / spanned / run_traced / health-off runs",
        plain.len()
    ));
    simulated_outputs(&result, report);
    registry_outputs(&trace.registry, report);
    report.set_or_absent(
        "planner.skeleton_cache.hit_ratio",
        skeletons.hit_ratio().or(skeletons.get("hits").map(|_| 0.0)),
    );
    report.set("workload.repeat_share", w.repeat_share(&env));

    // Side skeleton builds over the inputs of cell 0.
    let ctx = env.ctx();
    for t in config
        .tenants
        .iter()
        .filter(|t| (t.id.0 as usize).is_multiple_of(CELLS))
    {
        let mut stream =
            TenantStream::new(t.clone(), std::sync::Arc::clone(&env.schema), config.seed);
        let mut i = 0u64;
        while let Some((_, q)) = stream.next_arrival() {
            i += 1;
            if i % SIDE_CALL_EVERY == 1 {
                let span = tracer.open("planner.skeleton_build", None, q.id.0);
                std::hint::black_box(PlanSkeleton::build(&ctx, &q));
                tracer.close(span);
            }
        }
    }
    let skel = tracer.sorted_durations("planner.skeleton_build");
    report.set(
        "planner.skeleton_build_ns.p50",
        probe::percentile(&skel, 50_000),
    );
    Some(tracer)
}
