//! **`explain`** — replay a recorded fleet trace and attribute the money.
//!
//! The flight recorder ([`telemetry`]) turns a fleet run into a typed
//! event stream; this tool answers the attribution questions the paper's
//! economy makes answerable:
//!
//! * `record [path]` — run the reference bursty elastic fleet
//!   ([`bench::recording_config`], with a mid-run crash-and-recover fault
//!   injected, so crash questions are answerable) with the recorder
//!   attached and write the [`telemetry::Trace`] (events + registry
//!   snapshot) as JSON, default `results/fleet_trace.json`;
//! * `retire <node> [path]` — why did node *N* retire: the rule that
//!   fired, the pressure signals at the drain decision, and what the
//!   node earned while alive (exits non-zero when the trace records no
//!   retirement for that node — an unanswerable query is an error);
//! * `crash <node> [path]` — what node *N*'s crash cost: the books
//!   settled at the crash instant, the capital written off, the
//!   re-queued backlog, and whether the ledger replay reconciled;
//! * `blame <tenant|template|structure|node|resource> [path]` — "where
//!   did the $ go": payments, profit, per-resource execution spend and
//!   build spend rolled up by the chosen key;
//! * `structure <S> [path]` — which tenants and templates paid for
//!   structure *S* (settlements whose winning plans used it);
//! * `timeline <node> [path]` — every lifecycle transition recorded for
//!   node *N*;
//! * `slo [path]` — the per-tenant SLO ledger: p50/p99 against targets,
//!   error-budget burn, exact spend against caps, breach narration, and
//!   any drift alarms the e-process detector raises over the trace;
//! * `top [path]` — the cadenced vitals frames as a time series (backlog,
//!   pressure, node cash, hit rates, population counts, write-offs);
//! * `metrics [path]` — the registry plus vitals rendered as
//!   OpenMetrics-style text.
//!
//! Usage: `cargo run --release -p bench --bin explain -- <subcommand> …`
//!
//! Unknown subcommands, malformed arguments and trailing arguments all
//! exit 2 with the usage text — a misremembered query must fail loudly,
//! not silently answer something else. That the recorder never perturbs
//! the run, and that every query above is answerable and cross-foots on
//! the reference trace, is held by `tests/telemetry_invariants.rs`.

use bench::recording_config;
use fleet::{narrate_breaches, FleetSim};
use telemetry::{
    blame, detect_alarms, explain_crash, explain_retirement, node_timeline, render_openmetrics,
    Baselines, BlameKey, BlameRow, LifecyclePhase, Trace, TraceEvent,
};

const USAGE: &str = "usage: explain <subcommand>\n\
       record    [path]                                      record a traced reference run\n\
       retire    <node> [path]                               why did node N retire\n\
       crash     <node> [path]                               what did node N's crash cost\n\
       blame     <tenant|template|structure|node|resource> [path]\n\
       structure <name> [path]                               who paid for structure <name>\n\
       timeline  <node> [path]                               lifecycle transitions of node N\n\
       slo       [path]                                      per-tenant SLO ledger + drift alarms\n\
       top       [path]                                      cadenced vitals frames over time\n\
       metrics   [path]                                      OpenMetrics-style text export\n\
       (default trace path: results/fleet_trace.json)";

const DEFAULT_TRACE: &str = "results/fleet_trace.json";

fn usage_exit() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn load_trace(path: &str) -> Trace {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read trace {path}: {e}");
        eprintln!("(run `explain record` first)");
        std::process::exit(1);
    });
    serde_json::from_str(&text).unwrap_or_else(|e| {
        eprintln!("error: cannot parse trace {path}: {e}");
        std::process::exit(1);
    })
}

fn record(path: &str) {
    let (result, trace) = FleetSim::new(recording_config()).run_traced();
    let trace = Trace {
        label: "bursty elastic reference (SF 50, 16 tenants x 500 queries, 4 seed nodes, \
                node 3 crash-and-recover at t=30s)"
            .to_string(),
        events: trace.events,
        registry: trace.registry,
        slo: Some(result.slo.clone()),
        health: result.health.clone(),
    };
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(dir);
        }
    }
    let json = serde_json::to_string(&trace).expect("trace serializes");
    match std::fs::write(path, json) {
        Ok(()) => println!(
            "(wrote {path}: {} events, {} registry entries, {} queries settled)",
            trace.events.len(),
            trace.registry.len(),
            result.queries
        ),
        Err(e) => {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
    }
}

fn print_rows(rows: &[(String, BlameRow)]) {
    println!(
        "{:>16} {:>9} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "group", "queries", "payments($)", "profit($)", "exec($)", "build($)", "writeoff($)"
    );
    for (name, row) in rows {
        println!(
            "{name:>16} {:>9} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>12.6}",
            row.queries,
            row.payments.as_dollars(),
            row.profit.as_dollars(),
            row.exec.total().as_dollars(),
            row.build_spend.as_dollars(),
            row.write_off.as_dollars()
        );
    }
}

fn crash(node: usize, trace: &Trace) {
    match explain_crash(&trace.events, node) {
        Some(text) => print!("{text}"),
        None => {
            eprintln!("error: trace records no crash for node {node}");
            let crashed: Vec<usize> = trace
                .events
                .iter()
                .filter_map(|e| match e {
                    TraceEvent::NodeCrash(c) => Some(c.node),
                    _ => None,
                })
                .collect();
            eprintln!("(crashed nodes in this trace: {crashed:?})");
            std::process::exit(1);
        }
    }
}

fn retire(node: usize, trace: &Trace) {
    match explain_retirement(&trace.events, node) {
        Some(text) => print!("{text}"),
        None => {
            eprintln!("error: trace records no retirement for node {node}");
            let retired: Vec<usize> = trace
                .events
                .iter()
                .filter_map(|e| match e {
                    TraceEvent::NodeLifecycle(l) if l.phase == LifecyclePhase::Retire => l.node,
                    _ => None,
                })
                .collect();
            eprintln!("(retired nodes in this trace: {retired:?})");
            std::process::exit(1);
        }
    }
}

/// The last simulated instant the trace knows about: the later of the
/// final settlement and the final vitals frame.
fn trace_horizon(trace: &Trace) -> f64 {
    let settled = trace
        .events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Settlement(s) => Some(s.at_secs),
            _ => None,
        })
        .fold(0.0_f64, f64::max);
    let framed = trace
        .health
        .as_ref()
        .and_then(|h| h.frames.last())
        .map_or(0.0, |f| f.at_secs);
    settled.max(framed)
}

fn slo_report(trace: &Trace) {
    let Some(ledger) = &trace.slo else {
        eprintln!("error: trace carries no SLO ledger (re-record with `explain record`)");
        std::process::exit(1);
    };
    println!(
        "{:>7} {:>8} {:>6} {:>9} {:>9} {:>9} {:>7} {:>7} {:>11} {:>9} {:>6}",
        "tenant",
        "queries",
        "hit%",
        "p50(s)",
        "p99(s)",
        "target",
        "misses",
        "burn",
        "spend($)",
        "cap($)",
        "flags"
    );
    for r in &ledger.tenants {
        let hit_pct = if r.admitted == 0 {
            0.0
        } else {
            100.0 * r.cache_hits as f64 / r.admitted as f64
        };
        let target = r
            .slo
            .map_or("-".to_string(), |s| format!("{:.3}", s.p99_target_secs));
        let cap = r
            .slo
            .and_then(|s| s.spend_cap)
            .map_or("-".to_string(), |c| format!("{:.4}", c.as_dollars()));
        let burn = if r.slo.is_some() {
            format!("{:.2}", r.burn_rate())
        } else {
            "-".to_string()
        };
        let mut flags = String::new();
        if r.p99_breached() {
            flags.push('P');
        }
        if r.spend_cap_breached() {
            flags.push('$');
        }
        println!(
            "{:>7} {:>8} {:>6.1} {:>9.4} {:>9.4} {:>9} {:>7} {:>7} {:>11.6} {:>9} {:>6}",
            r.tenant,
            r.admitted,
            hit_pct,
            r.response.p50().unwrap_or(0.0),
            r.response.p99().unwrap_or(0.0),
            target,
            r.deadline_misses,
            burn,
            r.spend.as_dollars(),
            cap,
            flags
        );
    }
    println!(
        "({} queries admitted, {} tenants breaching; flags: P = p99 error budget, $ = spend cap)",
        ledger.total_admitted(),
        ledger.breaches().len()
    );
    for line in narrate_breaches(ledger) {
        println!("  {line}");
    }
    let alarms = detect_alarms(
        trace.health.as_ref(),
        ledger,
        trace_horizon(trace),
        &Baselines::default(),
    );
    if alarms.is_empty() {
        println!("drift alarms: none");
    } else {
        println!("drift alarms ({}):", alarms.len());
        for a in &alarms {
            println!(
                "  t={:>8.1}s log(e)={:.2} {}",
                a.at_secs, a.log_e_value, a.message
            );
        }
    }
}

fn top_report(trace: &Trace) {
    let Some(series) = &trace.health else {
        eprintln!(
            "error: trace carries no vitals frames (record with a health-enabled config \
             via `explain record`)"
        );
        std::process::exit(1);
    };
    println!(
        "{:>9} {:>8} {:>6} {:>10} {:>9} {:>11} {:>5} {:>5} {:>5} {:>8} {:>7} {:>7} {:>11}",
        "t(s)",
        "queries",
        "hit%",
        "backlog(s)",
        "pressure",
        "cash($)",
        "live",
        "rout",
        "drain",
        "plan-hit%",
        "spawns",
        "retires",
        "writeoff($)"
    );
    for f in &series.frames {
        let plan_total = f.plan_hits + f.plan_misses;
        let plan_pct = if plan_total == 0 {
            0.0
        } else {
            100.0 * f.plan_hits as f64 / plan_total as f64
        };
        println!(
            "{:>9.1} {:>8} {:>6.1} {:>10.3} {:>9.3} {:>11.4} {:>5} {:>5} {:>5} {:>8.1} {:>7} {:>7} {:>11.6}",
            f.at_secs,
            f.queries,
            100.0 * f.hit_rate(),
            f.backlog_secs,
            f.pressure_ewma,
            f.node_cash.as_dollars(),
            f.live_nodes,
            f.routable_nodes,
            f.draining_nodes,
            plan_pct,
            f.spawns,
            f.retires,
            f.write_off.as_dollars()
        );
    }
    println!(
        "({} frames at {:.1}s cadence)",
        series.frames.len(),
        series.interval_secs
    );
}

fn metrics_report(trace: &Trace) {
    print!(
        "{}",
        render_openmetrics(&trace.registry, trace.health.as_ref())
    );
}

/// Rejects trailing arguments a subcommand does not take: a mistyped
/// query must die with usage, not silently ignore the extra operand.
fn require_max_args(args: &[String], max: usize) {
    if args.len() > max {
        eprintln!("error: unexpected argument `{}`", args[max]);
        usage_exit();
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(sub) = args.first() else {
        usage_exit();
    };
    match sub.as_str() {
        "record" => {
            require_max_args(&args, 2);
            let path = args.get(1).map_or(DEFAULT_TRACE, String::as_str);
            record(path);
        }
        "retire" | "crash" | "timeline" => {
            require_max_args(&args, 3);
            let Some(node) = args.get(1).and_then(|s| s.parse::<usize>().ok()) else {
                usage_exit();
            };
            let path = args.get(2).map_or(DEFAULT_TRACE, String::as_str);
            let trace = load_trace(path);
            if sub == "retire" {
                retire(node, &trace);
            } else if sub == "crash" {
                crash(node, &trace);
            } else {
                let timeline = node_timeline(&trace.events, node);
                if timeline.is_empty() {
                    eprintln!("error: trace records no lifecycle transitions for node {node}");
                    std::process::exit(1);
                }
                for l in timeline {
                    println!(
                        "t={:>8.1}s cell {} {:<12} rule `{}` live={} routable={} booting={} draining={} backlog_ewma={:.3}",
                        l.at_secs,
                        l.cell,
                        l.phase.label(),
                        l.rule,
                        l.live,
                        l.routable,
                        l.booting,
                        l.draining,
                        l.backlog_ewma
                    );
                }
            }
        }
        "blame" => {
            require_max_args(&args, 3);
            let Some(key) = args.get(1).and_then(|s| BlameKey::parse(s)) else {
                usage_exit();
            };
            let path = args.get(2).map_or(DEFAULT_TRACE, String::as_str);
            let trace = load_trace(path);
            let rows = blame(&trace.events, key);
            if rows.is_empty() {
                eprintln!("error: trace contains no settlements to blame");
                std::process::exit(1);
            }
            print_rows(&rows);
        }
        "structure" => {
            require_max_args(&args, 3);
            let Some(name) = args.get(1) else {
                usage_exit();
            };
            let path = args.get(2).map_or(DEFAULT_TRACE, String::as_str);
            let trace = load_trace(path);
            let rows = telemetry::structure_payers(&trace.events, name);
            if rows.is_empty() {
                eprintln!("error: no settlement in the trace used structure `{name}`");
                let mut known: Vec<String> = trace
                    .events
                    .iter()
                    .filter_map(|e| match e {
                        TraceEvent::Settlement(s) => Some(s.used_structures.clone()),
                        _ => None,
                    })
                    .flatten()
                    .collect();
                known.sort();
                known.dedup();
                eprintln!("(structures used in this trace: {known:?})");
                std::process::exit(1);
            }
            print_rows(&rows);
        }
        "slo" | "top" | "metrics" => {
            require_max_args(&args, 2);
            let path = args.get(1).map_or(DEFAULT_TRACE, String::as_str);
            let trace = load_trace(path);
            if sub == "slo" {
                slo_report(&trace);
            } else if sub == "top" {
                top_report(&trace);
            } else {
                metrics_report(&trace);
            }
        }
        _ => usage_exit(),
    }
}
