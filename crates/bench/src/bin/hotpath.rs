//! **Hot-path throughput** — queries/second of the per-query control loop.
//!
//! Measures planning + economy throughput for
//! `{econ-cheap, econ-fast, bypass} × {cold, warm-template}` cells at a
//! fixed 1 s inter-arrival interval, verifies that memoized planning is
//! **bit-identical** to fresh planning (every economic aggregate equal;
//! the run exits non-zero on any drift), and writes `BENCH_hotpath.json`.
//!
//! * **cold** — the standard drifting workload from an empty cache (every
//!   query is a fresh template instance, so the plan cache never gets an
//!   exact repeat and the measured gain comes from the structural
//!   optimisations: candidate index, single-pass skyline, buffer reuse,
//!   gated failure scans);
//! * **warm-template** — one concrete instance per template, replayed
//!   round-robin (the prepared-statement regime where the plan cache
//!   serves repeat hits between cache-state changes).
//!
//! The committed `BENCH_hotpath.json` records the pre-optimisation
//! baseline queries/sec (seed planner, measured with this same harness
//! and cell configuration) next to the current numbers.
//!
//! Usage: `{bin} [scale_factor] [num_queries]` (defaults 100, 50000 — the
//! acceptance cell; CI runs a reduced `10 2000` grid).

use bench::{cli_arg, cli_max_args, cli_usage_error};
use catalog::tpch::{tpch_schema, ScaleFactor};
use econ::{EconConfig, PlanCacheStats};
use planner::{generate_candidates, CandidateIndex, CostParams, Estimator, PlannerContext};
use policies::{BypassYieldPolicy, CachePolicy, EconPolicy};
use pricing::{Money, PriceCatalog};
use simcore::{NetworkModel, SimTime};
use simulator::{RunAccumulator, RunResult};
use std::io::Write;
use std::sync::Arc;
use workload::{paper_templates, Query, WorkloadConfig, WorkloadGenerator};

const USAGE: &str =
    "{bin} [scale_factor] [num_queries]\n       defaults: scale_factor 100, num_queries 50000";

/// Pre-optimisation queries/sec per (scheme, workload) cell: the seed
/// planner (commit c9554c6) measured with this harness at the default
/// SF 100 / 50 000-query cell, median of three runs on the reference
/// machine. Only meaningful for the default cell size.
const BASELINE_QPS: [(&str, &str, f64); 6] = [
    ("econ-cheap", "cold", 102_197.0),
    ("econ-cheap", "warm-template", 94_527.0),
    ("econ-fast", "cold", 106_849.0),
    ("econ-fast", "warm-template", 101_932.0),
    ("bypass", "cold", 1_605_933.0),
    ("bypass", "warm-template", 2_123_311.0),
];

/// Economy tuned so investments and settlements happen within the run
/// (the paper-scale defaults need ~10^6 queries to bite).
fn econ_config(plan_cache: bool) -> EconConfig {
    EconConfig {
        initial_credit: Money::from_dollars(0.02),
        investment: econ::InvestmentRule {
            min_regret: Money::from_dollars(1e-5),
            ..econ::InvestmentRule::default()
        },
        plan_cache,
        ..EconConfig::default()
    }
}

struct Cell {
    scheme: &'static str,
    workload: &'static str,
    queries: u64,
    wall_secs: f64,
    qps: f64,
    fresh_wall_secs: Option<f64>,
    cache_stats: Option<PlanCacheStats>,
    result: RunResult,
}

/// One concrete instance per template, replayed round-robin.
fn template_instances(schema: &Arc<catalog::Schema>) -> Vec<Query> {
    let mut gen = WorkloadGenerator::new(Arc::clone(schema), WorkloadConfig::default(), 1234);
    let templates = gen.templates().len();
    let mut picked: Vec<Option<Query>> = vec![None; templates];
    while picked.iter().any(Option::is_none) {
        let q = gen.next_query();
        let slot = q.template.0;
        picked[slot].get_or_insert(q);
    }
    picked.into_iter().map(Option::unwrap).collect()
}

/// Drives one policy over the cell's workload, returning the run result
/// and wall-clock seconds.
fn drive(
    policy: &mut dyn CachePolicy,
    ctx: &PlannerContext<'_>,
    schema: &Arc<catalog::Schema>,
    workload: &str,
    n: u64,
) -> (RunResult, f64) {
    let mut acc = RunAccumulator::new();
    let replay = (workload == "warm-template").then(|| template_instances(schema));
    let mut gen = WorkloadGenerator::new(Arc::clone(schema), WorkloadConfig::default(), 99);
    let started = std::time::Instant::now();
    for i in 0..n {
        let now = SimTime::from_secs((i + 1) as f64);
        let query = match &replay {
            Some(instances) => instances[(i as usize) % instances.len()].clone(),
            None => gen.next_query(),
        };
        let _ = acc.step(policy, ctx, &query, now);
    }
    let wall = started.elapsed().as_secs_f64();
    let result = acc.finish(
        policy,
        &PriceCatalog::ec2_2009().rates,
        SimTime::from_secs(n as f64),
    );
    (result, wall)
}

/// Every deterministic aggregate that must be identical between memoized
/// and fresh runs.
fn aggregate_fingerprint(r: &RunResult) -> Vec<(&'static str, String)> {
    vec![
        ("queries", r.queries.to_string()),
        ("payments", r.payments.as_nanos().to_string()),
        ("profit", r.profit.as_nanos().to_string()),
        ("build_spend", r.build_spend.as_nanos().to_string()),
        ("operating", r.operating.total().as_nanos().to_string()),
        ("cache_hits", r.cache_hits.to_string()),
        ("investments", r.investments.to_string()),
        ("evictions", r.evictions.to_string()),
        ("mean_response", r.response.mean().to_bits().to_string()),
        ("final_disk", r.final_disk_bytes.to_string()),
    ]
}

fn run_cell(
    scheme: &'static str,
    workload: &'static str,
    ctx: &PlannerContext<'_>,
    schema: &Arc<catalog::Schema>,
    n: u64,
    drift: &mut bool,
) -> Cell {
    if scheme == "bypass" {
        let mut policy = BypassYieldPolicy::paper(schema);
        let (result, wall) = drive(&mut policy, ctx, schema, workload, n);
        return Cell {
            scheme,
            workload,
            queries: n,
            wall_secs: wall,
            qps: n as f64 / wall.max(1e-9),
            fresh_wall_secs: None,
            cache_stats: None,
            result,
        };
    }

    let make = |plan_cache: bool| -> EconPolicy {
        match scheme {
            "econ-cheap" => EconPolicy::econ_cheap(econ_config(plan_cache)),
            "econ-fast" => EconPolicy::econ_fast(econ_config(plan_cache)),
            other => panic!("unknown scheme {other}"),
        }
    };

    let mut memo = make(true);
    let (result, wall) = drive(&mut memo, ctx, schema, workload, n);
    let cache_stats = memo.manager().plan_cache_stats();

    let mut fresh = make(false);
    let (fresh_result, fresh_wall) = drive(&mut fresh, ctx, schema, workload, n);

    let memo_fp = aggregate_fingerprint(&result);
    let fresh_fp = aggregate_fingerprint(&fresh_result);
    if memo_fp != fresh_fp {
        *drift = true;
        eprintln!("error: {scheme}/{workload}: memoized aggregates drifted from fresh planning");
        for ((k, m), (_, f)) in memo_fp.iter().zip(&fresh_fp) {
            if m != f {
                eprintln!("  {k}: memoized {m} != fresh {f}");
            }
        }
    }

    Cell {
        scheme,
        workload,
        queries: n,
        wall_secs: wall,
        qps: n as f64 / wall.max(1e-9),
        fresh_wall_secs: Some(fresh_wall),
        cache_stats: Some(cache_stats),
        result,
    }
}

fn baseline_qps(scheme: &str, workload: &str) -> Option<f64> {
    BASELINE_QPS
        .iter()
        .find(|(s, w, _)| *s == scheme && *w == workload)
        .map(|&(_, _, q)| q)
}

fn write_json(cells: &[Cell], sf: f64, n: u64, default_cell: bool) {
    let mut rows = Vec::new();
    for c in cells {
        let baseline = if default_cell {
            baseline_qps(c.scheme, c.workload)
        } else {
            None
        };
        let stats = c.cache_stats.unwrap_or_default();
        rows.push(format!(
            "  {{\"scheme\": \"{}\", \"workload\": \"{}\", \"queries\": {}, \"wall_secs\": {:.4}, \
             \"qps\": {:.0}, \"fresh_wall_secs\": {}, \"cache_epoch_hits\": {}, \
             \"cache_epoch_misses\": {}, \"cache_refreshes\": {}, \"cache_completions\": {}, \
             \"baseline_qps\": {}, \
             \"speedup_vs_baseline\": {}, \"bit_identical_to_fresh\": {}, \
             \"payments_nanos\": {}, \"cache_hits\": {}, \"investments\": {}}}",
            c.scheme,
            c.workload,
            c.queries,
            c.wall_secs,
            c.qps,
            c.fresh_wall_secs
                .map_or("null".to_string(), |w| format!("{w:.4}")),
            stats.hits,
            stats.misses,
            stats.refreshes,
            stats.completions,
            baseline.map_or("null".to_string(), |b| format!("{b:.0}")),
            baseline.map_or("null".to_string(), |b| format!("{:.2}", c.qps / b)),
            c.fresh_wall_secs.is_some(),
            c.result.payments.as_nanos(),
            c.result.cache_hits,
            c.result.investments,
        ));
    }
    let json = format!(
        "{{\n\"bench\": \"hotpath\",\n\"config\": {{\"scale_factor\": {sf}, \"queries\": {n}, \
         \"interval_secs\": 1.0}},\n\"baseline_note\": \"baseline_qps: seed planner (commit \
         c9554c6) measured with this harness, median of 3 runs, default SF 100 / 50k cell\",\n\
         \"cells\": [\n{}\n]\n}}\n",
        rows.join(",\n")
    );
    match std::fs::File::create("BENCH_hotpath.json") {
        Ok(mut f) => {
            let _ = f.write_all(json.as_bytes());
            println!("(wrote BENCH_hotpath.json)");
        }
        Err(e) => eprintln!("warning: cannot write BENCH_hotpath.json: {e}"),
    }
}

fn main() {
    cli_max_args(2, USAGE);
    let sf: f64 = cli_arg(1, "scale factor", 100.0, USAGE);
    let n: u64 = cli_arg(2, "query count", 50_000, USAGE);
    if !sf.is_finite() || sf <= 0.0 || n == 0 {
        cli_usage_error("scale factor and query count must be positive", USAGE);
    }
    let default_cell = (sf - 100.0).abs() < f64::EPSILON && n == 50_000;

    let schema = Arc::new(tpch_schema(ScaleFactor(sf)));
    let templates = paper_templates(&schema);
    let candidates = generate_candidates(&schema, &templates, 65);
    let cand_index = CandidateIndex::build(&schema, &candidates);
    let estimator = Estimator::new(
        CostParams::default(),
        PriceCatalog::ec2_2009(),
        NetworkModel::paper_sdss(),
    );
    let ctx = PlannerContext {
        schema: &schema,
        candidates: &candidates,
        cand_index: &cand_index,
        estimator: &estimator,
    };

    println!("hotpath: SF {sf}, {n} queries, 1 s fixed interval");
    println!(
        "{:>10} {:>14} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "scheme",
        "workload",
        "wall (s)",
        "qps",
        "fresh(s)",
        "memo hit",
        "miss",
        "recompl",
        "vs base"
    );

    let mut drift = false;
    let mut cells = Vec::new();
    for scheme in ["econ-cheap", "econ-fast", "bypass"] {
        for workload in ["cold", "warm-template"] {
            let cell = run_cell(scheme, workload, &ctx, &schema, n, &mut drift);
            let stats = cell.cache_stats.unwrap_or_default();
            let base = if default_cell {
                baseline_qps(scheme, workload)
            } else {
                None
            };
            println!(
                "{:>10} {:>14} {:>9.2} {:>9.0} {:>9} {:>9} {:>9} {:>9} {:>9}",
                cell.scheme,
                cell.workload,
                cell.wall_secs,
                cell.qps,
                cell.fresh_wall_secs
                    .map_or("-".to_string(), |w| format!("{w:.2}")),
                stats.hits,
                stats.misses,
                stats.completions,
                base.map_or("-".to_string(), |b| format!("{:.2}x", cell.qps / b)),
            );
            cells.push(cell);
        }
    }

    // Only the default acceptance cell refreshes the committed record;
    // reduced-scale runs (CI) must not clobber it with null baselines.
    if default_cell {
        write_json(&cells, sf, n, default_cell);
    } else {
        println!("(non-default cell: BENCH_hotpath.json left untouched)");
    }

    if drift {
        eprintln!("error: memoized planning diverged from fresh planning");
        std::process::exit(1);
    }
    println!("memoized aggregates identical to fresh planning: OK");
}
