//! **Perf trend** — diffs the committed `BENCH_*.json` records across
//! PRs so the repo's throughput trajectory is reviewable at a glance.
//!
//! For every `BENCH_*.json` in the working directory the tool walks the
//! record's git history, extracts the headline queries/second at each
//! commit, and prints one line per bench: the q/s trajectory (oldest →
//! newest, the working tree appended when dirty), the last step's
//! delta, and regression flags. `fleet_scale` records additionally get
//! the health-plane gate (the vitals-snapshots-on row must agree bitwise
//! with the snapshots-off baseline and keep its throughput — the
//! health plane is a pure observer off the hot path); `fleet_faults`
//! records get their fault-plane claims re-checked (every ledger replay
//! reconciled, elastic-with-respawn still cheaper than
//! static-with-crash, drift alarms silent on fault-free cells and
//! firing on the degraded one). The `plan_cache.victim_hits` registry
//! counter is surfaced per record when present — historical records
//! without it are simply silent.
//!
//! `--check` (CI mode) exits non-zero when any record is unreadable,
//! the last step regresses beyond the tolerance, or health-plane or
//! fault-plane regression rows are committed. Any other argument is a
//! usage error (exit 2), so a mistyped `--check` cannot pass as a report.
//!
//! Usage: `cargo run --release -p bench --bin trend [-- --check]`

use bench::cli_usage_error;
use bench::trend::{bench_trend, record_files, registry_counter, REGRESSION_TOLERANCE};

const USAGE: &str = "{bin} [--check]";

/// Registry counters worth surfacing per record. Reads the working-tree
/// record directly; keys absent from historical records simply print
/// nothing.
fn registry_notes(file: &str) -> Option<String> {
    let doc: serde::Value = serde_json::from_str(&std::fs::read_to_string(file).ok()?).ok()?;
    let notes: Vec<String> = ["plan_cache.victim_hits"]
        .iter()
        .filter_map(|key| Some(format!("{key}={:.0}", registry_counter(&doc, key)?)))
        .collect();
    (!notes.is_empty()).then(|| notes.join(", "))
}

fn main() {
    let mut check = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--check" => check = true,
            other => cli_usage_error(&format!("unknown argument `{other}`"), USAGE),
        }
    }
    let files = record_files();
    if files.is_empty() {
        println!("no BENCH_*.json records in the working directory");
        return;
    }

    println!("================================================================");
    println!(
        "bench trend: {} committed records (regression tolerance {:.0}%, widened to a record's own rep spread)",
        files.len(),
        REGRESSION_TOLERANCE * 100.0
    );
    println!("================================================================");
    println!(
        "{:<36} {:>28} {:>8}  flags",
        "record", "headline q/s trajectory", "last"
    );

    let mut failures = 0u32;
    for file in &files {
        let trend = bench_trend(file);
        let trajectory = if trend.points.is_empty() {
            "-".to_string()
        } else {
            trend
                .points
                .iter()
                .map(|qps| format!("{qps:.0}"))
                .collect::<Vec<_>>()
                .join(" → ")
        };
        let delta = if trend.points.len() >= 2 {
            format!("{:+.1}%", trend.last_delta * 100.0)
        } else {
            "-".to_string()
        };
        let mut flags = Vec::new();
        if let Some(e) = &trend.error {
            flags.push(format!("ERROR: {e}"));
        }
        if let Some(message) = trend.regression_message() {
            flags.push(format!("REGRESSED: {message}"));
        }
        if !trend.health_regressions.is_empty() {
            flags.push(format!(
                "HEALTH-PLANE: {}",
                trend.health_regressions.join("; ")
            ));
        }
        if !trend.fault_regressions.is_empty() {
            flags.push(format!(
                "FAULT-PLANE: {}",
                trend.fault_regressions.join("; ")
            ));
        }
        if !flags.is_empty() {
            failures += 1;
        }
        println!(
            "{:<36} {:>28} {:>8}  {}",
            trend.file,
            trajectory,
            delta,
            if flags.is_empty() {
                "ok".to_string()
            } else {
                flags.join(" | ")
            }
        );
        if let Some(notes) = registry_notes(file) {
            println!("{:<36} {:>28}", "", format!("({notes})"));
        }
    }

    if failures > 0 {
        eprintln!("{failures} record(s) flagged");
        if check {
            std::process::exit(1);
        }
    } else {
        println!("all records healthy");
    }
}
