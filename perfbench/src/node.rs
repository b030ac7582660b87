//! The single-node workloads: one econ-cheap node at TPC-H SF 100 with
//! fixed 1 s arrivals, driven through `simulator::RunAccumulator`.
//!
//! * `node-adhoc` — the default drifting seven-template stream: every
//!   instance is a new planning fingerprint, so the plan memo misses.
//! * `node-prepared` — a pool of 32 generated instances replayed in
//!   Zipf-skewed order: the plan memo (and its victim cache) serves.

use std::sync::Arc;
use std::time::Instant;

use econ::EconConfig;
use planner::{enumerate_plans_into, planning_fingerprint, CostParams, PlanBuffer};
use policies::CachePolicy;
use pricing::{Money, PriceCatalog};
use simcore::sample::Zipf;
use simcore::{SimRng, SimTime};
use simulator::{make_policy, RunAccumulator, RunResult, Scheme};
use workload::{Query, WorkloadConfig, WorkloadGenerator};

use crate::env::Env;
use crate::harness::{self, Workload};
use crate::levers::{self, Counters};
use crate::probe::{self, Probe, Tracer};
use crate::report::{Digest, Report};

/// TPC-H scale factor of the node workloads.
pub const SCALE_FACTOR: f64 = 100.0;
/// Prepared-statement pool size.
pub const POOL: u64 = 32;
/// Zipf exponent of the prepared replay.
const ZIPF_EXPONENT: f64 = 1.0;
/// Every this many queries the traced run times a side enumeration.
const SIDE_CALL_EVERY: u64 = 64;

/// The economy of the `hotpath` cells: small initial capital and a low
/// regret floor, so investment fires within the run.
fn econ_config() -> EconConfig {
    EconConfig {
        initial_credit: Money::from_dollars(0.02),
        investment: econ::InvestmentRule {
            min_regret: Money::from_dollars(1e-5),
            ..econ::InvestmentRule::default()
        },
        ..EconConfig::default()
    }
}

/// A single-node workload of fixed size.
pub struct NodeWorkload {
    /// Replay a prepared pool instead of the ad-hoc stream.
    pub prepared: bool,
    /// Workload seed.
    pub seed: u64,
    /// Simulated queries per repetition.
    pub queries: u64,
}

/// Where the next query comes from.
enum Inputs {
    Adhoc(WorkloadGenerator),
    Pool {
        pool: Vec<Query>,
        zipf: Zipf,
        rng: SimRng,
    },
}

impl Inputs {
    fn next(&mut self) -> Query {
        match self {
            Inputs::Adhoc(gen) => gen.next_query(),
            Inputs::Pool { pool, zipf, rng } => pool[(zipf.sample(rng) - 1) as usize].clone(),
        }
    }
}

/// Everything built before the first query.
pub struct Setup {
    env: Env,
    policy: Box<dyn CachePolicy + Send>,
    inputs: Inputs,
}

/// One repetition's outputs.
pub struct Rep {
    /// The simulated run.
    pub result: RunResult,
    /// Plan-memo counters at the end of the run.
    pub plan_cache: Counters,
    /// Plans enumerated by the traced side calls.
    pub side_plans: u64,
    /// Traced side calls made.
    pub side_calls: u64,
}

impl NodeWorkload {
    fn inputs(&self, env: &Env) -> Inputs {
        let mut gen = WorkloadGenerator::new(
            Arc::clone(&env.schema),
            WorkloadConfig::default(),
            self.seed,
        );
        if self.prepared {
            Inputs::Pool {
                pool: (0..POOL).map(|_| gen.next_query()).collect(),
                zipf: Zipf::new(POOL, ZIPF_EXPONENT),
                rng: SimRng::new(self.seed).fork(0x5EED_21AF),
            }
        } else {
            Inputs::Adhoc(gen)
        }
    }

    /// Share of the run's queries whose planning fingerprint was already
    /// seen earlier in the run, computed from the same inputs.
    #[must_use]
    pub fn repeat_share(&self) -> f64 {
        let env = Env::build(
            SCALE_FACTOR,
            65,
            CostParams::default(),
            PriceCatalog::ec2_2009(),
        );
        let mut inputs = self.inputs(&env);
        let mut seen = std::collections::HashSet::new();
        let mut fp = Vec::new();
        let mut repeats = 0u64;
        for _ in 0..self.queries {
            planning_fingerprint(&inputs.next(), &mut fp);
            if !seen.insert(fp.clone()) {
                repeats += 1;
            }
        }
        repeats as f64 / self.queries as f64
    }

    /// Serves every query of one repetition through `probe`. Side
    /// enumerations on the live cache state run only when `side_calls`.
    pub fn drive<P: Probe>(&self, setup: Setup, probe: &mut P, side_calls: bool) -> Rep {
        let Setup {
            env,
            mut policy,
            mut inputs,
        } = setup;
        let ctx = env.ctx();
        let mut acc = RunAccumulator::new();
        let mut buf = PlanBuffer::new();
        let (mut side_plans, mut side_count) = (0u64, 0u64);
        for i in 0..self.queries {
            let qid = i + 1;
            let now = SimTime::from_secs(qid as f64);
            let root = probe.open("query", None, qid);
            let span = probe.open("workload.next_query", Some(root), qid);
            let query = inputs.next();
            probe.close(span);
            let span = probe.open("simulator.step", Some(root), qid);
            let _ = acc.step(policy.as_mut(), &ctx, &query, now);
            probe.close(span);
            if side_calls && i % SIDE_CALL_EVERY == 0 {
                if let Some(economy) = policy.economy() {
                    let opts = economy.config().enumeration(economy.arrival_rate());
                    let span = probe.open("planner.enumerate", Some(root), qid);
                    enumerate_plans_into(&ctx, &query, economy.cache(), now, opts, &mut buf);
                    probe.close(span);
                    let plans = buf.take();
                    side_plans += plans.len() as u64;
                    side_count += 1;
                    buf.recycle(plans);
                }
            }
            probe.close(root);
        }
        let span = probe.open("simulator.finish", None, 0);
        let result = acc.finish(
            policy.as_mut(),
            &PriceCatalog::ec2_2009().rates,
            SimTime::from_secs(self.queries as f64),
        );
        probe.close(span);
        let plan_cache = levers::plan_cache(policy.economy());
        Rep {
            result,
            plan_cache,
            side_plans,
            side_calls: side_count,
        }
    }
}

/// Every economic aggregate of a node run.
#[must_use]
pub fn digest(r: &RunResult) -> Digest {
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
    d.push("final_disk", r.final_disk_bytes);
    d
}

fn p99(r: &RunResult) -> f64 {
    r.response_hist.quantile(0.99).unwrap_or(0.0)
}

/// The simulated outputs (`econ.*`, `cache.*`) of a run.
pub fn simulated_outputs(r: &RunResult, report: &mut Report) {
    let queries = r.queries.max(1) as f64;
    report.set(
        "econ.cost_per_kq_usd",
        r.total_operating_cost().as_dollars() / queries * 1000.0,
    );
    report.set("econ.mean_response_s", r.response.mean());
    report.set("econ.p99_response_s", p99(r));
    report.set("cache.hit_rate", r.hit_rate());
    report.set(
        "cache.final_disk_gib",
        r.final_disk_bytes as f64 / f64::from(1u32 << 30),
    );
    report.set("econ.investments", r.investments as f64);
    report.set("econ.evictions", r.evictions as f64);
}

/// The plan-memo lever counters of a run.
pub fn plan_cache_outputs(c: &Counters, report: &mut Report) {
    report.set_or_absent("econ.plan_cache.hit_ratio", c.hit_ratio());
    for (metric, field) in [
        ("econ.plan_cache.completions", "completions"),
        ("econ.plan_cache.conflicts", "conflicts"),
        ("econ.plan_cache.victim_hits", "victim_hits"),
    ] {
        report.set_or_absent(metric, c.get(field).map(|v| v as f64));
    }
}

impl Workload for NodeWorkload {
    type Setup = Setup;
    type Output = Rep;

    fn queries(&self) -> u64 {
        self.queries
    }

    fn setup(&self) -> Setup {
        let env = Env::build(
            SCALE_FACTOR,
            65,
            CostParams::default(),
            PriceCatalog::ec2_2009(),
        );
        let policy = make_policy(&Scheme::EconCheap, &env.schema, &econ_config());
        let inputs = self.inputs(&env);
        Setup {
            env,
            policy,
            inputs,
        }
    }

    fn run(&self, setup: Setup) -> Rep {
        self.drive(setup, &mut probe::Off, false)
    }

    fn check(&self, rep: &Rep) -> (Digest, Vec<String>) {
        let r = &rep.result;
        let mut errors = Vec::new();
        if r.queries != self.queries {
            errors.push(format!(
                "{} queries submitted but {} accounted",
                self.queries, r.queries
            ));
        }
        if r.response.count() != r.queries || r.response_hist.count() != r.queries {
            errors.push(format!(
                "response samples {} / histogram {} != queries {}",
                r.response.count(),
                r.response_hist.count(),
                r.queries
            ));
        }
        if r.cache_hits > r.queries {
            errors.push(format!(
                "{} cache hits > {} queries",
                r.cache_hits, r.queries
            ));
        }
        (digest(r), errors)
    }

    fn describe(&self, rep: &Rep, report: &mut Report) {
        simulated_outputs(&rep.result, report);
    }
}

/// The traced run: untraced and traced repetitions alternate until
/// `seconds` pass; the last traced repetition's spans give the layer
/// metrics.
pub fn traced(w: &NodeWorkload, seconds: f64, report: &mut Report) -> Option<Tracer> {
    let started = Instant::now();
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut kept: Option<(Tracer, Rep)> = None;
    let mut reference: Option<Digest> = None;
    let mut round_secs = 0.0;
    while kept.is_none() || harness::fits(started, round_secs, seconds) {
        let round_started = Instant::now();
        let setup = w.setup();
        let t = Instant::now();
        let plain = w.run(setup);
        plain_walls.push(t.elapsed().as_secs_f64());

        let setup = w.setup();
        let mut tracer = Tracer::new();
        let t = Instant::now();
        let rep = w.drive(setup, &mut tracer, true);
        let wall = t.elapsed().as_secs_f64();
        traced_walls.push(wall - tracer.total_ns("planner.enumerate") as f64 * 1e-9);

        report.attempted += 2 * w.queries;
        let (plain_digest, mut errors) = w.check(&plain);
        let (traced_digest, traced_errors) = w.check(&rep);
        errors.extend(traced_errors);
        if plain_digest != traced_digest {
            errors.push(format!(
                "traced run diverged from untraced run: {}",
                traced_digest.first_difference(&plain_digest)
            ));
        }
        if let Some(first) = &reference {
            if *first != plain_digest {
                errors.push(format!(
                    "repetition diverged: {}",
                    plain_digest.first_difference(first)
                ));
            }
        }
        if errors.is_empty() {
            reference.get_or_insert(plain_digest);
        }
        report.fail_run(2 * w.queries, errors);
        kept = Some((tracer, rep));
        round_secs = round_started.elapsed().as_secs_f64();
    }
    let (tracer, rep) = kept?;
    if let Some(d) = &reference {
        report.notes.push(format!("result_digest {}", d.hex()));
    }
    harness::set_overhead(report, &plain_walls, &traced_walls);
    harness::set_loop_self_share(report, &tracer);

    let next = tracer.sorted_durations("workload.next_query");
    report.set(
        "workload.next_query_ns.p50",
        probe::percentile(&next, 50_000),
    );
    report.set("workload.repeat_share", w.repeat_share());
    let steps = tracer.sorted_durations("simulator.step");
    report.set("simulator.step_ns.p50", probe::percentile(&steps, 50_000));
    harness::set_p99(report, "simulator.step_ns.p99", &steps);
    report.set(
        "simulator.finish_ms",
        tracer.total_ns("simulator.finish") as f64 / 1e6,
    );
    let enumerate = tracer.sorted_durations("planner.enumerate");
    report.set(
        "planner.enumerate_ns.p50",
        probe::percentile(&enumerate, 50_000),
    );
    report.set(
        "planner.plans_per_query",
        rep.side_plans as f64 / rep.side_calls.max(1) as f64,
    );
    report.notes.push(format!(
        "side enumerations: {} calls, {} samples of simulator.step",
        rep.side_calls,
        steps.len()
    ));
    plan_cache_outputs(&rep.plan_cache, report);
    simulated_outputs(&rep.result, report);
    Some(tracer)
}
