//! `BENCHMARK.json`, the tables in `workloads.rs`, and what a `--smoke` run
//! actually prints must name exactly the same workloads and metrics.

use std::collections::BTreeSet;
use std::process::Command;

use mlcnn_benchmark::json::{self, Value};
use mlcnn_benchmark::workloads::{DEFAULT_SECONDS, END_TO_END, PER_LAYER, WORKLOADS};

const SPEC: &str = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));

fn spec() -> Value {
    json::parse(SPEC).expect("BENCHMARK.json parses")
}

fn names(spec: &Value, section: &str) -> Vec<String> {
    spec.get(section)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no '{section}'"))
        .items()
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn benchmark_json_matches_the_tables() {
    let spec = spec();
    let workloads = names(&spec, "workloads");
    let end_to_end = names(&spec, "end_to_end");
    let per_layer = names(&spec, "per_layer");
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&end_to_end.len()));
    assert!((1..=128).contains(&per_layer.len()));

    let table = |defs: &[(&str, &str)]| defs.iter().map(|d| d.0.to_string()).collect::<Vec<_>>();
    assert_eq!(
        workloads,
        WORKLOADS
            .iter()
            .map(|w| w.name.to_string())
            .collect::<Vec<_>>()
    );
    assert_eq!(end_to_end, table(&END_TO_END));
    assert_eq!(per_layer, table(&PER_LAYER));

    let all: Vec<&String> = workloads
        .iter()
        .chain(&end_to_end)
        .chain(&per_layer)
        .collect();
    for name in &all {
        assert!(well_formed(name), "malformed name '{name}'");
    }
    assert_eq!(
        all.iter().collect::<BTreeSet<_>>().len(),
        all.len(),
        "a name is used twice"
    );

    // units agree too, and fit the driver's alphabet
    for (section, defs) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        for (m, (name, unit)) in spec.get(section).unwrap().items().iter().zip(defs) {
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(*unit), "{name}");
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric()
                            || matches!(c, '_' | '/' | '%' | '.' | '-')),
                "{name}: unit '{unit}'"
            );
        }
    }
    for m in spec.get("end_to_end").unwrap().items() {
        let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
    }
    assert!(end_to_end.iter().any(|n| n == "setup_s"));
    assert_eq!(
        spec.get("run_seconds").and_then(Value::as_f64),
        Some(DEFAULT_SECONDS)
    );
    assert_eq!(
        spec.path(&["paths"]).unwrap().items()[0].as_str(),
        Some("benchmark")
    );
}

/// Run one workload with `--smoke` and return the metric names of its
/// result line, in print order, plus `failed`.
fn smoke_run(workload: &str, trace: &str) -> (Vec<String>, f64) {
    let out = Command::new(env!("CARGO_BIN_EXE_mlcnn-benchmark"))
        .args([
            "run",
            "--workload",
            workload,
            "--seed",
            "7",
            "--smoke",
            "--trace",
            trace,
        ])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let result = json::parse(last).unwrap_or_else(|e| {
        panic!(
            "{workload} --trace {trace}: no result line ({e})\nstdout: {stdout}\nstderr: {}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    for key in ["correct", "attempted", "failed", "metrics"] {
        assert!(
            result.get(key).is_some(),
            "{workload}: result lacks '{key}'"
        );
    }
    // every metric is also printed by name with its unit
    let printed: Vec<String> = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("metric "))
        .map(|l| l.split_whitespace().next().unwrap_or_default().to_string())
        .collect();
    let Some(Value::Obj(metrics)) = result.get("metrics") else {
        panic!("{workload}: metrics is not an object");
    };
    assert_eq!(
        printed.iter().collect::<BTreeSet<_>>(),
        metrics.keys().collect::<BTreeSet<_>>(),
        "{workload}: printed metrics differ from the result line"
    );
    let failed = result
        .get("failed")
        .and_then(Value::as_f64)
        .expect("failed");
    (printed, failed)
}

#[test]
fn smoke_runs_print_exactly_the_declared_metrics() {
    let spec = spec();
    let end_to_end = names(&spec, "end_to_end");
    let per_layer = names(&spec, "per_layer");
    for workload in names(&spec, "workloads") {
        let (printed, failed) = smoke_run(&workload, "0");
        assert_eq!(printed, end_to_end, "{workload} --trace 0");
        // an open loop can shed on a stalled test machine; a closed loop cannot
        if !workload.contains("open") {
            assert_eq!(failed, 0.0, "{workload} --trace 0");
        }
        let (printed, _) = smoke_run(&workload, "1");
        assert_eq!(printed, per_layer, "{workload} --trace 1");
    }
}
