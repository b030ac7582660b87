//! The committed `BENCH_fleet_elastic.json` keeps the claim it was
//! written to show, re-checked from the record itself so it cannot
//! silently rot between re-measurements: on the bursty and diurnal
//! workloads the elastic fleet costs strictly less than the static fleet
//! (`total_cost_usd`) at an equal-or-better mean response time
//! (`mean_response_s`).
//!
//! The response half holds today only because a query's delivered
//! latency ignores the time it waits behind a node's backlog, so static
//! and elastic fleets report the same mean (ROADMAP item 1). Once
//! latency includes the queue, this claim must be judged again on the
//! regenerated record: if elasticity then costs latency, the claim
//! changes, and the grid is not re-tuned until it holds.

use serde::Value;

/// The committed record at the repository root.
const RECORD: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../BENCH_fleet_elastic.json"
);

/// The scenarios the claim is made on.
const CLAIMED: [&str; 2] = ["bursty", "diurnal"];

/// A numeric column of the `scenario`/`mode` cell; an error names the
/// cell and the column.
fn value(cells: &[Value], scenario: &str, mode: &str, key: &str) -> Result<f64, String> {
    let is = |c: &Value, k: &str, v: &str| c.get(k).and_then(Value::as_str) == Some(v);
    cells
        .iter()
        .find(|c| is(c, "scenario", scenario) && is(c, "mode", mode))
        .ok_or_else(|| format!("{scenario}/{mode}: record lacks the cell"))?
        .get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("{scenario}/{mode}: record lacks {key}"))
}

/// The violated claims of a `fleet_elastic` record, one human-readable
/// line each (empty when the claim holds).
///
/// # Errors
/// Returns an error when the document is not a `fleet_elastic` record or
/// lacks a value the claim is judged on: a record that cannot be judged
/// must not pass.
fn elastic_regressions(doc: &Value) -> Result<Vec<String>, String> {
    if doc.get("bench").and_then(Value::as_str) != Some("fleet_elastic") {
        return Err("not a fleet_elastic record".to_string());
    }
    let cells = doc
        .get("cells")
        .and_then(Value::as_seq)
        .ok_or("record has no cells")?;
    let mut flags = Vec::new();
    for scenario in CLAIMED {
        let cost = |mode| value(cells, scenario, mode, "total_cost_usd");
        let (st, el) = (cost("static")?, cost("elastic")?);
        if el >= st {
            flags.push(format!(
                "{scenario}: elastic at ${el:.4} no longer costs less than static (${st:.4})"
            ));
        }
        let response = |mode| value(cells, scenario, mode, "mean_response_s");
        let (st, el) = (response("static")?, response("elastic")?);
        if el > st {
            flags.push(format!(
                "{scenario}: elastic mean response {el:.3}s is worse than static ({st:.3}s)"
            ));
        }
    }
    Ok(flags)
}

#[test]
fn committed_elastic_record_holds_its_claim() {
    let content = std::fs::read_to_string(RECORD).expect("committed elastic record readable");
    let doc: Value = serde_json::from_str(&content).expect("committed elastic record parses");
    assert_eq!(elastic_regressions(&doc), Ok(Vec::new()));
}

/// A synthetic record: one `(scenario, mode, cost, mean response)` cell
/// each.
fn record(cells: &[(&str, &str, f64, f64)]) -> Value {
    let cells: Vec<String> = cells
        .iter()
        .map(|(scenario, mode, cost, response)| {
            format!(
                r#"{{"scenario": "{scenario}", "mode": "{mode}", "total_cost_usd": {cost}, "mean_response_s": {response}}}"#
            )
        })
        .collect();
    let json = format!(
        r#"{{"bench": "fleet_elastic", "cells": [{}]}}"#,
        cells.join(", ")
    );
    serde_json::from_str(&json).expect("test json")
}

/// Every claimed cell, the claim holding; `edit` replaces one cell.
fn healthy_but(edit: Option<(&str, &str, f64, f64)>) -> Value {
    let mut cells = vec![
        ("bursty", "static", 18.6, 1.83),
        ("bursty", "elastic", 16.9, 1.83),
        ("diurnal", "static", 18.5, 1.83),
        ("diurnal", "elastic", 17.0, 1.80),
    ];
    if let Some(edit) = edit {
        let cell = cells
            .iter_mut()
            .find(|c| (c.0, c.1) == (edit.0, edit.1))
            .expect("edited cell exists");
        *cell = edit;
    }
    record(&cells)
}

fn flags(doc: &Value) -> Vec<String> {
    elastic_regressions(doc).expect("record can be judged")
}

#[test]
fn healthy_fixture_raises_no_flag() {
    assert_eq!(flags(&healthy_but(None)), Vec::<String>::new());
}

#[test]
fn elastic_record_flags_a_cost_or_latency_inversion() {
    let dearer = flags(&healthy_but(Some(("bursty", "elastic", 18.6, 1.83))));
    assert_eq!(dearer.len(), 1, "{dearer:?}");
    assert!(dearer[0].contains("no longer costs less"), "{dearer:?}");
    let slower = flags(&healthy_but(Some(("diurnal", "elastic", 17.0, 1.84))));
    assert_eq!(slower.len(), 1, "{slower:?}");
    assert!(slower[0].contains("worse than static"), "{slower:?}");
}

#[test]
fn elastic_records_that_cannot_be_judged_do_not_pass() {
    let without_diurnal = record(&[
        ("bursty", "static", 18.6, 1.83),
        ("bursty", "elastic", 16.9, 1.83),
    ]);
    let err = elastic_regressions(&without_diurnal).unwrap_err();
    assert!(err.contains("diurnal/static"), "{err}");
    let other: Value =
        serde_json::from_str(r#"{"bench": "fleet_faults", "cells": []}"#).expect("test json");
    assert!(elastic_regressions(&other).is_err());
}
