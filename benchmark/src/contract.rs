//! Self-checks: `BENCHMARK.json` lists exactly what the binary prints,
//! and the benchmark keeps to its API-surface discipline.
#![cfg(test)]

use std::path::Path;

use xmap_state::json::{self, Value};

use crate::ledger::PER_LAYER;
use crate::report::{END_TO_END, RUN_SECONDS};
use crate::workloads::WORKLOADS;

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn benchmark_json() -> Value {
    let path = manifest_dir().join("../BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json exceeds 64 KiB");
    json::parse(&text, "BENCHMARK.json").expect("BENCHMARK.json parses")
}

fn arr<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    doc.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no array `{key}`"))
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("entry has no string `{key}`: {v:?}"))
}

fn keys(v: &Value) -> Vec<&str> {
    match v {
        Value::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("not an object: {other:?}"),
    }
}

/// The contract's name rule: `[A-Za-z0-9][A-Za-z0-9_.-]{0,63}`.
fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.as_bytes()[0].is_ascii_alphanumeric()
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
}

#[test]
fn benchmark_json_has_exactly_the_contract_keys() {
    let doc = benchmark_json();
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        doc.get("run_seconds").and_then(Value::as_u64),
        Some(RUN_SECONDS)
    );
    let paths: Vec<&str> = arr(&doc, "paths")
        .iter()
        .map(|p| p.as_str().expect("path is a string"))
        .collect();
    assert_eq!(paths, ["benchmark"]);
    let command: Vec<&str> = arr(&doc, "command")
        .iter()
        .map(|p| p.as_str().expect("command word is a string"))
        .collect();
    assert_eq!(command, ["bash", "benchmark/run.sh"]);
    assert!(manifest_dir().join("run.sh").is_file());
}

#[test]
fn benchmark_json_lists_the_workloads_the_binary_runs() {
    let doc = benchmark_json();
    let listed = arr(&doc, "workloads");
    assert_eq!(listed.len(), 6);
    for (entry, name) in listed.iter().zip(WORKLOADS) {
        assert_eq!(keys(entry), ["name", "why"]);
        assert_eq!(text(entry, "name"), name);
        assert!(is_name(name));
        let why = text(entry, "why");
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
    }
}

#[test]
fn benchmark_json_lists_the_metrics_the_binary_prints() {
    let doc = benchmark_json();
    let e2e = arr(&doc, "end_to_end");
    assert!(e2e.len() <= 16);
    assert_eq!(e2e.len(), END_TO_END.len());
    for (entry, def) in e2e.iter().zip(END_TO_END) {
        assert_eq!(keys(entry), ["name", "unit", "better", "bound"]);
        assert_eq!(text(entry, "name"), def.name);
        assert_eq!(text(entry, "unit"), def.unit);
        assert_eq!(text(entry, "better"), def.better.label());
        let bound = match entry.get("bound") {
            Some(Value::F64(b)) => *b,
            Some(Value::U64(b)) => *b as f64,
            other => panic!("{}: bound is {other:?}", def.name),
        };
        assert_eq!(bound, def.bound, "{}", def.name);
        assert!(bound > 0.0 && bound <= 0.25, "{}", def.name);
        assert!(is_name(def.name) && is_unit(def.unit), "{}", def.name);
    }
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.better.label() == "lower"));

    let layers = arr(&doc, "per_layer");
    assert!(layers.len() <= 128);
    assert_eq!(layers.len(), PER_LAYER.len());
    for (entry, (name, unit, better)) in layers.iter().zip(PER_LAYER) {
        assert_eq!(keys(entry), ["name", "unit", "better"]);
        assert_eq!(text(entry, "name"), *name);
        assert_eq!(text(entry, "unit"), *unit);
        assert_eq!(text(entry, "better"), better.label());
        assert!(is_name(name) && is_unit(unit), "{name}");
    }
}

#[test]
fn every_name_is_used_once() {
    let mut names: Vec<&str> = WORKLOADS.to_vec();
    names.extend(END_TO_END.iter().map(|m| m.name));
    names.extend(PER_LAYER.iter().map(|(n, _, _)| *n));
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a workload or metric name repeats");
}

/// Public items slated for deletion in ROADMAP.md: the benchmark must
/// not name them, or a later simplification PR (which may not edit the
/// benchmark) could not remove them.
#[test]
fn sources_name_no_item_slated_for_deletion() {
    // Spelled in pieces so that this file passes its own check.
    let slated = [
        ["Scan", "Engine"].concat(),
        [".", "engine"].concat(),
        ["engine", ":"].concat(),
        ["run_unit_with", "_engine"].concat(),
        ["run_", "pipelined"].concat(),
        ["with_split", "_threshold"].concat(),
        ["with_force", "_split_at"].concat(),
    ];
    let src = manifest_dir().join("src");
    let mut checked = 0;
    for entry in std::fs::read_dir(&src).expect("list src") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).expect("read source");
            for item in &slated {
                assert!(
                    !text.contains(item.as_str()),
                    "{} names `{item}`",
                    path.display()
                );
            }
            checked += 1;
        }
    }
    assert!(
        checked >= 8,
        "expected the benchmark's sources, saw {checked}"
    );
}
