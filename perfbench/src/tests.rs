//! Whole-benchmark tests: reduced-size runs of every workload through
//! the check path, and the metric catalog against `BENCHMARK.json` and
//! `layers.json`.

use super::*;
use serde::Value;

/// Small enough for a debug-build test, large enough that caching,
/// elastic control and the fault plan all fire.
const REDUCED: Sizes = Sizes {
    node_queries: 3_000,
    market_queries_per_tenant: 60,
    ops_queries_per_tenant: 120,
};

fn args(workload: &'static str, trace: bool) -> Args {
    Args {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
    }
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Map(entries) => entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing key {key}")),
        other => panic!("not an object: {other:?}"),
    }
}

fn keys(v: &Value) -> Vec<String> {
    match v {
        Value::Map(entries) => entries.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("not an object: {other:?}"),
    }
}

fn items(v: &Value) -> &[Value] {
    match v {
        Value::Seq(items) => items,
        other => panic!("not an array: {other:?}"),
    }
}

fn text(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("not a string: {other:?}"),
    }
}

fn number(v: &Value) -> f64 {
    match v {
        Value::Int(i) => *i as f64,
        Value::Float(f) => *f,
        other => panic!("not a number: {other:?}"),
    }
}

fn load(path: &str) -> Value {
    let full = format!("{}/{path}", env!("CARGO_MANIFEST_DIR"));
    let raw = std::fs::read_to_string(&full).unwrap_or_else(|e| panic!("{full}: {e}"));
    serde_json::from_str(&raw).unwrap_or_else(|e| panic!("{full}: {e:?}"))
}

fn digest_note(report: &Report) -> String {
    report
        .notes
        .iter()
        .find_map(|n| n.strip_prefix("result_digest "))
        .expect("a result_digest line")
        .to_string()
}

#[test]
fn every_workload_passes_its_checks_at_reduced_size() {
    for workload in WORKLOADS {
        let mut digests = Vec::new();
        for trace in [false, true] {
            let (report, _) = run(&args(workload, trace), REDUCED);
            assert!(
                report.correct(),
                "{workload} trace={trace}: {:?}",
                report.failures
            );
            digests.push(digest_note(&report));

            let catalog = if trace {
                &PER_LAYER[..]
            } else {
                &END_TO_END[..]
            };
            let rendered = report.render(catalog);
            let last: Value = serde_json::from_str(rendered.lines().last().unwrap()).unwrap();
            assert_eq!(keys(&last), ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(field(&last, "correct"), &Value::Bool(true));
            assert_eq!(field(&last, "failed"), &Value::Int(0));
            assert!(number(field(&last, "attempted")) >= 1.0);
            let metrics = field(&last, "metrics");
            let names: Vec<&str> = catalog.iter().map(|d| d.name).collect();
            assert_eq!(keys(metrics), names);
            for def in catalog {
                let m = field(metrics, def.name);
                assert_eq!(text(field(m, "unit")), def.unit);
                assert!(number(field(m, "value")).is_finite());
            }
            if !trace {
                for name in ["sim_qps", "cpu_us_per_query", "setup_s", "peak_rss_mib"] {
                    assert!(
                        report.get(name).is_some_and(|v| v > 0.0),
                        "{workload} {name}"
                    );
                }
            }
        }
        assert_eq!(
            digests[0], digests[1],
            "{workload}: traced digest differs from timed digest"
        );
    }
}

#[test]
fn traced_runs_report_their_layers() {
    let expect: [(&str, &[&str]); 4] = [
        (
            "node-adhoc",
            &[
                "simulator.step_ns.p50",
                "planner.enumerate_ns.p50",
                "workload.next_query_ns.p50",
            ],
        ),
        (
            "node-prepared",
            &["econ.plan_cache.hit_ratio", "econ.plan_cache.victim_hits"],
        ),
        (
            "fleet-market",
            &[
                "fleet.router.route_ns.p50",
                "fleet.node.serve_ns.p50",
                "fleet.exec.shard_speedup",
                "planner.skeleton_build_ns.p50",
            ],
        ),
        (
            "fleet-ops",
            &[
                "telemetry.events",
                "fleet.elastic.reviews",
                "fleet.faults.crashes",
            ],
        ),
    ];
    for (workload, names) in expect {
        let (report, tracer) = run(&args(workload, true), REDUCED);
        assert!(tracer.is_some_and(|t| !t.spans().is_empty()), "{workload}");
        // The overhead is a difference of two noisy walls: it may be
        // negative, but it is always measured.
        assert!(report.get("trace.overhead").is_some(), "{workload}");
        for name in names {
            assert!(
                report.get(name).is_some_and(|v| v > 0.0),
                "{workload}: {name} = {:?}\n{}",
                report.get(name),
                report.notes.join("\n")
            );
        }
    }
}

#[test]
fn same_seed_same_digest_other_seed_other_digest() {
    let digest = |seed| {
        let a = Args {
            seed,
            ..args("node-prepared", false)
        };
        digest_note(&run(&a, REDUCED).0)
    };
    assert_eq!(digest(3), digest(3));
    assert_ne!(digest(3), digest(4));
}

#[test]
fn benchmark_json_matches_the_catalog() {
    let bench = load("../BENCHMARK.json");
    let names = |key: &str| -> Vec<(String, String, String)> {
        items(field(&bench, key))
            .iter()
            .map(|m| {
                (
                    text(field(m, "name")).to_string(),
                    text(field(m, "unit")).to_string(),
                    text(field(m, "better")).to_string(),
                )
            })
            .collect()
    };
    for (key, catalog) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let declared: Vec<(String, String, String)> = catalog
            .iter()
            .map(|d| (d.name.into(), d.unit.into(), d.better.as_str().into()))
            .collect();
        assert_eq!(names(key), declared, "{key}");
    }
    let workloads: Vec<&str> = items(field(&bench, "workloads"))
        .iter()
        .map(|w| text(field(w, "name")))
        .collect();
    assert_eq!(workloads, WORKLOADS);
    let setup = items(field(&bench, "end_to_end"))
        .iter()
        .find(|m| text(field(m, "name")) == "setup_s")
        .expect("setup_s");
    let bound = |m: &Value| number(field(m, "bound"));
    let largest = items(field(&bench, "end_to_end"))
        .iter()
        .map(bound)
        .fold(0.0, f64::max);
    assert_eq!(bound(setup), largest, "setup_s carries the largest bound");
    assert!(largest <= 0.25);
}

#[test]
fn layers_json_maps_every_metric() {
    let layers = load("layers.json");
    let e2e: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
    let per_layer: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
    assert_eq!(keys(field(&layers, "end_to_end")), e2e);
    assert_eq!(keys(field(&layers, "per_layer")), per_layer);
    for name in per_layer {
        let row = field(field(&layers, "per_layer"), name);
        assert!(name.starts_with(text(field(row, "layer"))), "{name}");
        for m in items(field(row, "moves")) {
            assert!(e2e.contains(&text(m)), "{name} moves {m:?}");
        }
        for key in ["on", "little_or_none_on"] {
            for w in items(field(row, key)) {
                assert!(WORKLOADS.contains(&text(w)), "{name} {key} {w:?}");
            }
        }
    }
}

#[test]
fn command_line_is_validated() {
    let argv = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
    let ok = parse(&argv(
        "--workload fleet-ops --seed 9 --seconds 10 --trace 1",
    ))
    .unwrap();
    assert_eq!(
        ok,
        Args {
            workload: "fleet-ops",
            seed: 9,
            seconds: 10.0,
            trace: true
        }
    );
    for bad in [
        "",
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload node-adhoc --seed -1 --seconds 1 --trace 0",
        "--workload node-adhoc --seed 1 --seconds NaN --trace 0",
        "--workload node-adhoc --seed 1 --seconds 1 --trace 2",
        "--workload node-adhoc --seed 1 --seconds 1",
        "--workload node-adhoc --seed 1 --seconds 1 --trace 0 --extra 1",
        "--workload",
    ] {
        assert!(parse(&argv(bad)).is_err(), "{bad:?}");
    }
}
