//! Runs the built benchmark at smoke size (tens of ticks) on all four workloads, both
//! passes, and holds what it prints against `BENCHMARK.json`: nothing missing,
//! nothing extra, same units, within the contract's limits.  Also proves the oracle
//! can fail: one flipped answer must turn the exit code non-zero.

use kspot_benchmark::json::Json;
use std::path::PathBuf;
use std::process::{Command, Output};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("bench/ sits in the repository root")
        .to_path_buf()
}

fn spec() -> Json {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json is readable");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// One smoke run, from the repository root like the driver's.
fn run(workload: &str, trace: &str, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_kspot-benchmark"))
        .current_dir(repo_root())
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            trace,
            "--smoke",
        ])
        .args(extra)
        .output()
        .expect("the benchmark binary starts")
}

fn result_line(output: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).unwrap_or_else(|e| panic!("the last line is not JSON ({e}): {last}"))
}

/// `(name, unit)` of every metric of a list, in order.
type Listed = Vec<(String, String)>;

fn names_and_units(list: &Json) -> Listed {
    list.as_array()
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("{k} in {m}"))
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_workload_emits_exactly_the_metrics_benchmark_json_lists() {
    let spec = spec();
    let workloads: Vec<&str> = spec
        .get("workloads")
        .unwrap()
        .as_array()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(
        workloads,
        [
            "engine_snapshot",
            "engine_historic",
            "serve_stream",
            "serve_churn"
        ]
    );
    let end_to_end = names_and_units(spec.get("end_to_end").unwrap());
    let per_layer = names_and_units(spec.get("per_layer").unwrap());
    assert!(
        (1..=16).contains(&end_to_end.len()),
        "{} end-to-end metrics",
        end_to_end.len()
    );
    assert!(
        (1..=128).contains(&per_layer.len()),
        "{} per-layer metrics",
        per_layer.len()
    );
    assert!(
        end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"),
        "the contract requires setup_s"
    );

    // All eight runs at once: the wire runs mostly wait on timers, and every server
    // binds its own ephemeral port.
    let runs: Vec<(&str, &str, &Listed)> = workloads
        .iter()
        .flat_map(|&w| [(w, "0", &end_to_end), (w, "1", &per_layer)])
        .collect();
    let outputs: Vec<Output> = std::thread::scope(|scope| {
        let handles: Vec<_> = runs
            .iter()
            .map(|&(w, trace, _)| scope.spawn(move || run(w, trace, &[])))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a smoke run panicked"))
            .collect()
    });
    for ((workload, trace, listed), output) in runs.into_iter().zip(outputs) {
        assert!(
            output.status.success(),
            "{workload} --trace {trace} failed:\n{}",
            String::from_utf8_lossy(&output.stderr)
        );
        let result = result_line(&output);
        let keys: Vec<&str> = result.as_object().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
        assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
        let emitted: Listed = result
            .get("metrics")
            .unwrap()
            .as_object()
            .iter()
            .map(|(name, m)| {
                assert!(
                    m.get("value").and_then(Json::as_f64).is_some(),
                    "{workload}: {name} has no value"
                );
                (
                    name.clone(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect();
        assert_eq!(
            &emitted, listed,
            "{workload} --trace {trace}: emitted vs BENCHMARK.json"
        );
    }
}

#[test]
fn a_flipped_answer_makes_the_command_exit_non_zero() {
    for workload in ["engine_snapshot", "serve_churn"] {
        let forged = run(workload, "0", &["--flip-one-answer"]);
        assert!(
            !forged.status.success(),
            "{workload}: a forged answer went unnoticed"
        );
        assert_eq!(
            result_line(&forged).get("correct").and_then(Json::as_bool),
            Some(false)
        );
        let stderr = String::from_utf8_lossy(&forged.stderr);
        assert!(stderr.contains("differ from the solo twin"), "{stderr}");
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result_line() {
    let output = Command::new(env!("CARGO_BIN_EXE_kspot-benchmark"))
        .args([
            "--workload",
            "no_such_workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .unwrap();
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}
