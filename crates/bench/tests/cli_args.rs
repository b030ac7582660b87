//! Bench binaries reject arguments they do not read: a surplus
//! positional argument prints usage and exits 2 instead of running with
//! the argument ignored. `explain` answers every query on a trace it
//! recorded.

use std::process::Command;

use telemetry::{LifecyclePhase, Trace, TraceEvent};

/// Runs `bin` with `args` and returns its exit code.
fn exit_code(bin: &str, args: &[&str]) -> Option<i32> {
    Command::new(bin)
        .args(args)
        .output()
        .expect("bench binary runs")
        .status
        .code()
}

#[test]
fn fleet_bins_reject_surplus_positional_arguments() {
    for bin in [
        env!("CARGO_BIN_EXE_fleet_elastic"),
        env!("CARGO_BIN_EXE_fleet_faults"),
    ] {
        assert_eq!(
            exit_code(bin, &["10", "40", "60", "8", "extra"]),
            Some(2),
            "{bin}"
        );
    }
}

#[test]
fn scale_bins_reject_surplus_positional_arguments() {
    let bin = env!("CARGO_BIN_EXE_fig4_operating_cost");
    assert_eq!(exit_code(bin, &["10", "2000", "extra"]), Some(2), "{bin}");
}

#[test]
fn explain_answers_queries_on_a_recorded_trace() {
    let bin = env!("CARGO_BIN_EXE_explain");
    let dir = std::env::temp_dir().join(format!("explain_cli_{}", std::process::id()));
    let path = dir.join("t.json");
    let path = path.to_str().expect("utf-8 temp path");
    assert_eq!(exit_code(bin, &["record", path]), Some(0));

    let text = std::fs::read_to_string(path).expect("trace written");
    let trace: Trace = serde_json::from_str(&text).expect("trace parses");
    let retired = trace.events.iter().find_map(|e| match e {
        TraceEvent::NodeLifecycle(l) if l.phase == LifecyclePhase::Retire => l.node,
        _ => None,
    });
    let crashed = trace.events.iter().find_map(|e| match e {
        TraceEvent::NodeCrash(c) => Some(c.node),
        _ => None,
    });
    let retired = retired.expect("trace records a retirement").to_string();
    let crashed = crashed.expect("trace records a crash").to_string();
    for query in [
        &["blame", "tenant", path][..],
        &["slo", path],
        &["top", path],
        &["metrics", path],
        &["retire", &retired, path],
        &["crash", &crashed, path],
    ] {
        assert_eq!(exit_code(bin, query), Some(0), "explain {query:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
