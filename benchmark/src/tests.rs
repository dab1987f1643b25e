//! Every workload at smoke scale, in both modes, against the contract in
//! `BENCHMARK.json`.  Run with
//! `cargo test --release --offline --manifest-path benchmark/Cargo.toml`
//! (a debug build of the product crates makes these take minutes).

use crate::workloads::{self, Opts, Outcome, WORKLOADS};
use crate::{check_against_contract, declared, json, BENCHMARK_JSON};

fn smoke(workload: &str, trace: bool, seed: u64) -> Outcome {
    let spec = workloads::spec(workload, true).expect("known workload");
    let opts = Opts {
        seed,
        seconds: 1.0,
        trace,
        smoke: true,
        trace_out: None,
    };
    let mut outcome = workloads::run(&spec, &opts).expect("the workload runs");
    check_against_contract(
        &mut outcome,
        &declared(if trace { "per_layer" } else { "end_to_end" }),
    );
    outcome
}

fn assert_sound(workload: &str, outcome: &Outcome) {
    assert!(
        outcome.correct(),
        "{workload}: {} failed operations, problems {:?}",
        outcome.failed,
        outcome.problems
    );
    assert!(outcome.attempted >= 1);
    for (name, value, _) in &outcome.metrics {
        assert!(value.is_finite(), "{workload}: {name} = {value}");
    }
}

#[test]
fn every_workload_reports_every_end_to_end_metric_once() {
    for workload in WORKLOADS {
        let outcome = smoke(workload, false, 42);
        assert_sound(workload, &outcome);
        assert_eq!(outcome.metrics.len(), declared("end_to_end").len());
        for (name, value, _) in &outcome.metrics {
            assert!(
                *value > 0.0,
                "{workload}: end-to-end metric {name} must never be 0"
            );
        }
    }
}

#[test]
fn every_workload_reports_every_per_layer_metric_once() {
    for workload in WORKLOADS {
        let outcome = smoke(workload, true, 42);
        assert_sound(workload, &outcome);
        assert_eq!(outcome.metrics.len(), declared("per_layer").len());
    }
}

#[test]
fn traced_gk_run_reproduces_the_untraced_labels() {
    let label_note = |o: &Outcome| {
        o.notes
            .iter()
            .find(|n| n.starts_with("labels fingerprint"))
            .cloned()
            .expect("the run notes its labels fingerprint")
    };
    let untraced = smoke("cluster-highk", false, 7);
    let traced = smoke("cluster-highk", true, 7);
    assert_eq!(label_note(&untraced), label_note(&traced));
}

#[test]
fn benchmark_json_meets_the_contract() {
    let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let keys: Vec<&str> = doc
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let name_ok = |s: &str| {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().unwrap().is_ascii_alphanumeric()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |s: &str| {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let mut names: Vec<String> = Vec::new();
    let workloads = doc.get("workloads").unwrap().as_arr().unwrap();
    assert_eq!(
        workloads
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect::<Vec<_>>(),
        WORKLOADS
    );
    for w in workloads {
        names.push(w.get("name").unwrap().as_str().unwrap().to_string());
        let why = w.get("why").unwrap().as_str().unwrap();
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
    }
    let e2e = declared("end_to_end");
    assert!((1..=16).contains(&e2e.len()));
    assert!(e2e
        .iter()
        .any(|d| d.name == "setup_s" && d.unit == "s" && !d.higher_is_better));
    for d in &e2e {
        let bound = d.bound.expect("every end-to-end metric has a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", d.name);
    }
    let layers = declared("per_layer");
    assert!((1..=128).contains(&layers.len()));
    assert!(layers.iter().all(|d| d.bound.is_none()));
    for d in e2e.iter().chain(&layers) {
        assert!(name_ok(&d.name), "{}", d.name);
        assert!(unit_ok(&d.unit), "{}: {}", d.name, d.unit);
        names.push(d.name.clone());
    }
    let mut unique = names.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "a name is used twice");
    let seconds = doc.get("run_seconds").unwrap().as_f64().unwrap();
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
    assert!(BENCHMARK_JSON.len() <= 64 * 1024);
}
