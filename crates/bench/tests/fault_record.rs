//! The committed `BENCH_fleet_faults.json` keeps the fault-plane claims
//! it was written to show, re-checked from the record itself so they
//! cannot silently rot between re-measurements:
//!
//! 1. every recovery in every cell reconciled exactly (`reconciled`
//!    equals `recoveries`), because a drifting ledger replay is a
//!    correctness bug, not noise;
//! 2. in the crash scenario the elastic fleet beats the static fleet on
//!    total operating cost: surviving the crash via the population
//!    floor must not cost extra;
//! 3. in the cascade pair, capital-preserving evacuation salvages real
//!    capital, and its ledgered loss (write-off *plus* the full eq. 12
//!    transfer bill) stays below the pure write-off of the identical
//!    cascade;
//! 4. the evacuating elastic fleet also wins on loss-adjusted total
//!    cost (operating + builds + capital destroyed);
//! 5. the drift-alarm fixture discriminates: fault-free cells raise no
//!    alarm and the 6x degraded elastic cell raises at least one.
//!
//! `tests/fleet_faults.rs` holds claims 1–4 on live runs of the same
//! grid at reduced scale.

use serde::Value;

/// The committed record at the repository root.
const RECORD: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fleet_faults.json");

/// A string column of `cell`, `"?"` when absent.
fn name<'a>(cell: &'a Value, key: &str) -> &'a str {
    cell.get(key).and_then(Value::as_str).unwrap_or("?")
}

/// A numeric column of `cell`; an error names the cell and the column.
fn field(cell: &Value, key: &str) -> Result<f64, String> {
    cell.get(key).and_then(Value::as_f64).ok_or_else(|| {
        format!(
            "{}/{}: record lacks {key}",
            name(cell, "scenario"),
            name(cell, "mode")
        )
    })
}

/// The violated claims of a `fleet_faults` record, one human-readable
/// line each (empty when every claim holds).
///
/// # Errors
/// Returns an error when the document is not a `fleet_faults` record or
/// lacks a value some claim is judged on: a record that cannot be
/// judged must not pass.
fn fault_plane_regressions(doc: &Value) -> Result<Vec<String>, String> {
    if doc.get("bench").and_then(Value::as_str) != Some("fleet_faults") {
        return Err("not a fleet_faults record".to_string());
    }
    let cells = doc
        .get("cells")
        .and_then(Value::as_seq)
        .ok_or("record has no cells")?;
    let value = |scenario: &str, mode: &str, key: &str| {
        let cell = cells
            .iter()
            .find(|c| name(c, "scenario") == scenario && name(c, "mode") == mode)
            .ok_or_else(|| format!("{scenario}/{mode}: record lacks the cell"))?;
        field(cell, key)
    };

    let mut flags = Vec::new();
    for cell in cells {
        let (recoveries, reconciled) = (field(cell, "recoveries")?, field(cell, "reconciled")?);
        if reconciled < recoveries {
            flags.push(format!(
                "{}/{}: only {reconciled:.0} of {recoveries:.0} ledger replays reconciled",
                name(cell, "scenario"),
                name(cell, "mode")
            ));
        }
    }

    let st = value("crash", "static", "total_cost_usd")?;
    let el = value("crash", "elastic", "total_cost_usd")?;
    if el >= st {
        flags.push(format!(
            "crash scenario: elastic-with-respawn at ${el:.4} no longer beats \
             static-with-crash (${st:.4})"
        ));
    }

    let evac = |key: &str| value("cascade-evacuate", "elastic", key);
    let casc = |key: &str| value("cascade", "elastic", key);
    let (ewo, sal, tr) = (
        evac("write_off_usd")?,
        evac("salvaged_usd")?,
        evac("transfer_usd")?,
    );
    let cwo = casc("write_off_usd")?;
    if sal <= 0.0 {
        flags.push(format!(
            "cascade-evacuate/elastic: evacuation salvaged nothing (${sal:.4})"
        ));
    }
    if ewo + tr >= cwo {
        flags.push(format!(
            "cascade scenario: evacuation loss ${ewo:.4} + ${tr:.4} transfers no longer \
             beats the pure write-off (${cwo:.4})"
        ));
    }
    let (ecost, ccost) = (evac("total_cost_usd")?, casc("total_cost_usd")?);
    if ecost + ewo >= ccost + cwo {
        flags.push(format!(
            "cascade scenario: elastic-with-evacuation loss-adjusted cost ${:.4} no longer \
             beats elastic-with-write-off (${:.4})",
            ecost + ewo,
            ccost + cwo
        ));
    }

    // A detector that cries wolf on a healthy fleet is useless, and one
    // that misses a 6x degradation is blind.
    let none_static = value("none", "static", "drift_alarms")?;
    let none_elastic = value("none", "elastic", "drift_alarms")?;
    if none_static > 0.0 || none_elastic > 0.0 {
        flags.push(format!(
            "none scenario: fault-free run raised {:.0} drift alarm(s) — the detector \
             cries wolf",
            none_static.max(none_elastic)
        ));
    }
    if value("degraded", "elastic", "drift_alarms")? < 1.0 {
        flags.push(
            "degraded/elastic: 6x degradation raised no drift alarm — the detector is blind"
                .to_string(),
        );
    }
    Ok(flags)
}

#[test]
fn committed_fault_record_holds_its_claims() {
    let content = std::fs::read_to_string(RECORD).expect("committed fault record readable");
    let doc: Value = serde_json::from_str(&content).expect("committed fault record parses");
    assert_eq!(fault_plane_regressions(&doc), Ok(Vec::new()));
}

/// One cell per claim input, every claim holding.
const HEALTHY: [&str; 8] = [
    r#"{"scenario": "none", "mode": "static", "recoveries": 0, "reconciled": 0,
        "drift_alarms": 0}"#,
    r#"{"scenario": "none", "mode": "elastic", "recoveries": 0, "reconciled": 0,
        "drift_alarms": 0}"#,
    r#"{"scenario": "crash", "mode": "static", "recoveries": 0, "reconciled": 0,
        "total_cost_usd": 18.0}"#,
    r#"{"scenario": "crash", "mode": "elastic", "recoveries": 0, "reconciled": 0,
        "total_cost_usd": 11.8}"#,
    r#"{"scenario": "crash-recover", "mode": "elastic", "recoveries": 8, "reconciled": 8}"#,
    r#"{"scenario": "degraded", "mode": "elastic", "recoveries": 0, "reconciled": 0,
        "drift_alarms": 56}"#,
    r#"{"scenario": "cascade", "mode": "elastic", "recoveries": 0, "reconciled": 0,
        "total_cost_usd": 10.0, "write_off_usd": 0.20}"#,
    r#"{"scenario": "cascade-evacuate", "mode": "elastic", "recoveries": 0, "reconciled": 0,
        "total_cost_usd": 10.01, "write_off_usd": 0.03, "salvaged_usd": 0.02,
        "transfer_usd": 0.15}"#,
];

/// A synthetic `fleet_faults` record from `cells`.
fn record(cells: &[&str]) -> Value {
    let json = format!(
        r#"{{"bench": "fleet_faults", "cells": [{}]}}"#,
        cells.join(", ")
    );
    serde_json::from_str(&json).expect("test json")
}

/// [`HEALTHY`] with the cell of the same scenario and mode as `cell`
/// swapped for `cell`.
fn healthy_but(cell: &str) -> Value {
    let key = |c: &str| {
        let v: Value = serde_json::from_str(c).expect("test json");
        format!("{}/{}", name(&v, "scenario"), name(&v, "mode"))
    };
    assert!(HEALTHY.iter().any(|c| key(c) == key(cell)), "{cell}");
    let cells: Vec<&str> = HEALTHY
        .iter()
        .map(|&c| if key(c) == key(cell) { cell } else { c })
        .collect();
    record(&cells)
}

fn flags(doc: &Value) -> Vec<String> {
    fault_plane_regressions(doc).expect("record can be judged")
}

#[test]
fn healthy_fixture_raises_no_flag() {
    assert_eq!(flags(&record(&HEALTHY)), Vec::<String>::new());
}

#[test]
fn fault_plane_checks_the_drift_alarm_fixture() {
    let wolf = healthy_but(
        r#"{"scenario": "none", "mode": "static", "recoveries": 0, "reconciled": 0,
            "drift_alarms": 2}"#,
    );
    let flags_wolf = flags(&wolf);
    assert_eq!(flags_wolf.len(), 1, "{flags_wolf:?}");
    assert!(flags_wolf[0].contains("cries wolf"), "{flags_wolf:?}");
    let blind = healthy_but(
        r#"{"scenario": "degraded", "mode": "elastic", "recoveries": 0, "reconciled": 0,
            "drift_alarms": 0}"#,
    );
    let flags_blind = flags(&blind);
    assert_eq!(flags_blind.len(), 1, "{flags_blind:?}");
    assert!(flags_blind[0].contains("blind"), "{flags_blind:?}");
}

#[test]
fn fault_plane_flags_unreconciled_replays() {
    let doc = healthy_but(
        r#"{"scenario": "crash-recover", "mode": "elastic", "recoveries": 8, "reconciled": 5}"#,
    );
    let flags = flags(&doc);
    assert_eq!(flags.len(), 1, "{flags:?}");
    assert!(flags[0].contains("crash-recover/elastic"), "{flags:?}");
    assert!(flags[0].contains("5 of 8"), "{flags:?}");
}

#[test]
fn fault_plane_flags_cost_claim_inversion() {
    let doc = healthy_but(
        r#"{"scenario": "crash", "mode": "elastic", "recoveries": 0, "reconciled": 0,
            "total_cost_usd": 18.5}"#,
    );
    let flags = flags(&doc);
    assert_eq!(flags.len(), 1, "{flags:?}");
    assert!(flags[0].contains("no longer beats"), "{flags:?}");
}

#[test]
fn fault_plane_flags_salvage_ordering_inversion() {
    // Evacuation that salvages nothing AND whose loss line exceeds the
    // pure write-off trips all three cascade gates.
    let doc = healthy_but(
        r#"{"scenario": "cascade-evacuate", "mode": "elastic", "recoveries": 0,
            "reconciled": 0, "total_cost_usd": 10.1, "write_off_usd": 0.18,
            "salvaged_usd": 0.0, "transfer_usd": 0.05}"#,
    );
    let flags = flags(&doc);
    assert_eq!(flags.len(), 3, "{flags:?}");
    assert!(flags[0].contains("salvaged nothing"), "{flags:?}");
    assert!(
        flags[1].contains("no longer beats the pure write-off"),
        "{flags:?}"
    );
    assert!(flags[2].contains("loss-adjusted cost"), "{flags:?}");
}

#[test]
fn records_that_cannot_be_judged_do_not_pass() {
    // A missing claim cell, a missing column and another bench's record
    // are errors, never an empty flag list.
    let without_cascade: Vec<&str> = HEALTHY
        .iter()
        .copied()
        .filter(|c| !c.contains("\"cascade"))
        .collect();
    let err = fault_plane_regressions(&record(&without_cascade)).unwrap_err();
    assert!(err.contains("cascade-evacuate/elastic"), "{err}");

    let without_alarms = healthy_but(
        r#"{"scenario": "degraded", "mode": "elastic", "recoveries": 0, "reconciled": 0}"#,
    );
    let err = fault_plane_regressions(&without_alarms).unwrap_err();
    assert!(err.contains("drift_alarms"), "{err}");

    let other: Value = serde_json::from_str(
        r#"{"bench": "fleet_elastic", "cells": [
            {"scenario": "crash", "mode": "elastic", "total_cost_usd": 99.0}
        ]}"#,
    )
    .expect("test json");
    assert!(fault_plane_regressions(&other).is_err());
}
