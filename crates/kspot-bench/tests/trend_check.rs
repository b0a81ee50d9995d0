//! Unit tests for `scripts/bench_trend_check.py` — in particular the *skip* paths,
//! which must announce themselves with a GitHub Actions `::warning::` annotation
//! instead of passing silently (a trajectory that quietly stops being checked looks
//! exactly like a green one).
//!
//! The tests shell out to the interpreter; when no `python3` is available in the
//! environment they skip (the script itself is exercised for real by the
//! `bench-smoke` CI job).

use std::path::PathBuf;
use std::process::{Command, Output};

fn script_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scripts/bench_trend_check.py")
}

fn python_available() -> bool {
    Command::new("python3").arg("--version").output().map(|o| o.status.success()).unwrap_or(false)
}

fn run_script(args: &[&str]) -> Output {
    Command::new("python3")
        .arg(script_path())
        .args(args)
        .output()
        .expect("python3 runs the trend-check script")
}

/// A healthy schema-6 artifact: a batch-8 throughput row, a fleet-scaling
/// experiment that clears the 1.5x floor on a 4-core host, a clean
/// serve-latency record and a clean store-timetravel record.
fn artifact(dir: &std::path::Path, name: &str, qps: f64) -> String {
    fleet_artifact(dir, name, qps, 4, 50.0, 100.0)
}

/// Schema-6 artifact with explicit fleet-scaling numbers (`cores` on the host,
/// `single` qps at 4 deployments / 1 thread, `pooled` qps at 4 deployments / 4
/// threads) and clean serve-latency and store-timetravel experiments.
fn fleet_artifact(
    dir: &std::path::Path,
    name: &str,
    qps: f64,
    cores: u32,
    single: f64,
    pooled: f64,
) -> String {
    serve_artifact(dir, name, qps, cores, single, pooled, 0)
}

/// Schema-6 fixture with the serve-latency protocol-error count pinned and a
/// clean store-timetravel record.
#[allow(clippy::too_many_arguments)]
fn serve_artifact(
    dir: &std::path::Path,
    name: &str,
    qps: f64,
    cores: u32,
    single: f64,
    pooled: f64,
    protocol_errors: u32,
) -> String {
    store_artifact(dir, name, qps, cores, single, pooled, protocol_errors, true, true)
}

/// The full schema-6 fixture, down to the E17 identity verdicts
/// (`as_of_matches_live` per row, `answers_identical` on the baseline record).
#[allow(clippy::too_many_arguments)]
fn store_artifact(
    dir: &std::path::Path,
    name: &str,
    qps: f64,
    cores: u32,
    single: f64,
    pooled: f64,
    protocol_errors: u32,
    as_of_matches_live: bool,
    answers_identical: bool,
) -> String {
    let path = dir.join(name);
    let json = format!(
        "{{\"schema\": 6, \"experiments\": [\
         {{\"experiment\": \"engine-throughput\", \
          \"rows\": [{{\"batch\": 8, \"shared_loop_qps\": {qps}}}]}}, \
         {{\"experiment\": \"fleet-scaling\", \"cores\": {cores}, \
          \"rows\": [\
           {{\"deployments\": 4, \"threads\": 1, \"qps\": {single}}}, \
           {{\"deployments\": 4, \"threads\": 4, \"qps\": {pooled}}}]}}, \
         {{\"experiment\": \"serve-latency\", \"connections\": 320, \
          \"admitted\": 256, \"rejected\": 64, \
          \"protocol_errors\": {protocol_errors}, \
          \"rows\": [\
           {{\"op\": \"register\", \"count\": 320, \"p50_ms\": 1.5, \"p99_ms\": 9.0}}, \
           {{\"op\": \"poll\", \"count\": 2560, \"p50_ms\": 2.0, \"p99_ms\": 12.0}}]}}, \
         {{\"experiment\": \"store-timetravel\", \"window_epochs\": 64, \
          \"baseline_serving\": {{\"session_uj\": 4000.0, \"replay_uj\": 9000.0, \
           \"saved_energy_pct\": 55.6, \"session_s\": 0.2, \"replay_s\": 0.5, \
           \"answers_identical\": {answers_identical}}}, \
          \"rows\": [\
           {{\"cadence\": 8, \"snapshots\": 8, \"stored_bytes\": 65536, \
            \"pages_written\": 256, \"as_of_ms\": 1.2, \
            \"as_of_matches_live\": {as_of_matches_live}}}]}}]}}"
    );
    std::fs::write(&path, json).expect("write artifact");
    path.to_string_lossy().into_owned()
}

#[test]
fn missing_previous_artifact_skips_with_an_explicit_ci_warning() {
    if !python_available() {
        eprintln!("skipping: no python3 in this environment");
        return;
    }
    let dir = std::env::temp_dir().join("kspot_trend_check_missing");
    std::fs::create_dir_all(&dir).unwrap();
    let current = artifact(&dir, "current.json", 100.0);
    let missing = dir.join("does_not_exist.json").to_string_lossy().into_owned();

    let out = run_script(&[&missing, &current]);
    assert!(out.status.success(), "the skip path must not fail CI: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("::warning"),
        "a missing prior artifact must emit a CI warning annotation, got: {stdout}"
    );
    assert!(stdout.contains("no prior batch-8"), "the reason is spelled out: {stdout}");
}

#[test]
fn smoke_sized_current_artifact_skips_with_a_warning_too() {
    if !python_available() {
        eprintln!("skipping: no python3 in this environment");
        return;
    }
    let dir = std::env::temp_dir().join("kspot_trend_check_smoke");
    std::fs::create_dir_all(&dir).unwrap();
    let previous = artifact(&dir, "previous.json", 100.0);
    // A smoke-sized current artifact: batch-8 row absent.
    let current_path = dir.join("current.json");
    std::fs::write(
        &current_path,
        "{\"schema\": 3, \"experiments\": [{\"experiment\": \"engine-throughput\", \
         \"rows\": [{\"batch\": 2, \"shared_loop_qps\": 50.0}]}]}",
    )
    .unwrap();

    let out = run_script(&[&previous, &current_path.to_string_lossy()]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("::warning"), "smoke skips must be announced: {stdout}");
}

#[test]
fn a_real_regression_still_fails_and_a_healthy_run_still_passes() {
    if !python_available() {
        eprintln!("skipping: no python3 in this environment");
        return;
    }
    let dir = std::env::temp_dir().join("kspot_trend_check_regression");
    std::fs::create_dir_all(&dir).unwrap();
    let previous = artifact(&dir, "previous.json", 100.0);
    let regressed = artifact(&dir, "regressed.json", 40.0);
    let healthy = artifact(&dir, "healthy.json", 95.0);

    let out = run_script(&[&previous, &regressed]);
    assert!(!out.status.success(), "a >2x regression must fail the job");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("::warning"), "a real comparison is not a skip: {stdout}");

    let out = run_script(&[&previous, &healthy]);
    assert!(out.status.success(), "a healthy trajectory passes: {out:?}");
}

#[test]
fn a_fleet_that_fails_to_scale_on_a_multicore_host_fails_the_gate() {
    if !python_available() {
        eprintln!("skipping: no python3 in this environment");
        return;
    }
    let dir = std::env::temp_dir().join("kspot_trend_check_fleet_fail");
    std::fs::create_dir_all(&dir).unwrap();
    let previous = artifact(&dir, "previous.json", 100.0);
    // 4 cores, but 4 threads deliver only 1.2x the single-thread qps: below the floor.
    let flat = fleet_artifact(&dir, "flat.json", 95.0, 4, 50.0, 60.0);

    let out = run_script(&[&previous, &flat]);
    assert!(!out.status.success(), "sub-1.5x scaling on 4 cores must fail the job: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("less than 1.5x"), "the failure names the floor: {stderr}");
}

#[test]
fn a_fleet_that_clears_the_scaling_floor_passes_without_warnings() {
    if !python_available() {
        eprintln!("skipping: no python3 in this environment");
        return;
    }
    let dir = std::env::temp_dir().join("kspot_trend_check_fleet_pass");
    std::fs::create_dir_all(&dir).unwrap();
    let previous = artifact(&dir, "previous.json", 100.0);
    let scaling = fleet_artifact(&dir, "scaling.json", 95.0, 4, 50.0, 90.0);

    let out = run_script(&[&previous, &scaling]);
    assert!(out.status.success(), "1.8x scaling clears the 1.5x floor: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("::warning"), "both gates really ran: {stdout}");
    assert!(stdout.contains("fleet qps"), "the scaling gate reports its numbers: {stdout}");
    assert!(
        stdout.contains("store time travel"),
        "the store check logs its trajectory numbers too: {stdout}"
    );
}

#[test]
fn a_single_core_host_skips_the_scaling_gate_with_a_warning() {
    if !python_available() {
        eprintln!("skipping: no python3 in this environment");
        return;
    }
    let dir = std::env::temp_dir().join("kspot_trend_check_fleet_1core");
    std::fs::create_dir_all(&dir).unwrap();
    let previous = artifact(&dir, "previous.json", 100.0);
    // A single-core host cannot scale however healthy the fleet is; the gate must
    // skip loudly rather than fail or silently pass.
    let single_core = fleet_artifact(&dir, "single_core.json", 95.0, 1, 50.0, 49.0);

    let out = run_script(&[&previous, &single_core]);
    assert!(out.status.success(), "single-core hosts must not fail the gate: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("::warning"), "the skip is announced: {stdout}");
    assert!(stdout.contains("cores"), "the reason names the core count: {stdout}");
}

#[test]
fn an_artifact_without_serve_latency_warns_but_does_not_fail() {
    if !python_available() {
        eprintln!("skipping: no python3 in this environment");
        return;
    }
    let dir = std::env::temp_dir().join("kspot_trend_check_serve_missing");
    std::fs::create_dir_all(&dir).unwrap();
    let previous = artifact(&dir, "previous.json", 100.0);
    // A schema-4 era artifact: fleet-scaling present, serve-latency absent.
    let old = dir.join("no_serve.json");
    std::fs::write(
        &old,
        "{\"schema\": 4, \"experiments\": [{\"experiment\": \"engine-throughput\", \
         \"rows\": [{\"batch\": 8, \"shared_loop_qps\": 95.0}]}, \
         {\"experiment\": \"fleet-scaling\", \"cores\": 4, \
         \"rows\": [{\"deployments\": 4, \"threads\": 1, \"qps\": 50.0}, \
         {\"deployments\": 4, \"threads\": 4, \"qps\": 90.0}]}]}",
    )
    .unwrap();

    let out = run_script(&[&previous, &old.to_string_lossy()]);
    assert!(out.status.success(), "a missing E16 is warn-only, never a failure: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("no serve-latency experiment"),
        "the skip names the missing experiment: {stdout}"
    );
    assert!(stdout.contains("::warning"), "the skip is announced: {stdout}");
}

#[test]
fn serve_latency_with_protocol_errors_warns_but_does_not_fail() {
    if !python_available() {
        eprintln!("skipping: no python3 in this environment");
        return;
    }
    let dir = std::env::temp_dir().join("kspot_trend_check_serve_errors");
    std::fs::create_dir_all(&dir).unwrap();
    let previous = artifact(&dir, "previous.json", 100.0);
    let dirty = serve_artifact(&dir, "dirty.json", 95.0, 4, 50.0, 90.0, 3);

    let out = run_script(&[&previous, &dirty]);
    assert!(out.status.success(), "this check is warn-only by design: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("protocol errors"),
        "recorded protocol errors are called out: {stdout}"
    );
    assert!(stdout.contains("::warning"), "as a warning annotation: {stdout}");
}

#[test]
fn a_median_wire_poll_over_budget_fails_the_serve_latency_gate() {
    if !python_available() {
        eprintln!("skipping: no python3 in this environment");
        return;
    }
    let dir = std::env::temp_dir().join("kspot_trend_check_serve_stalled");
    std::fs::create_dir_all(&dir).unwrap();
    let previous = artifact(&dir, "previous.json", 100.0);
    // The healthy fixture polls in 2.0 ms; a reply stalled on a delayed ACK takes 44.
    let stalled = dir.join("stalled.json");
    let healthy = std::fs::read_to_string(artifact(&dir, "healthy.json", 95.0)).unwrap();
    let poll = "\"op\": \"poll\", \"count\": 2560, \"p50_ms\": ";
    assert!(healthy.contains(&format!("{poll}2.0")));
    let slow = healthy.replace(&format!("{poll}2.0"), &format!("{poll}44.1"));
    std::fs::write(&stalled, slow).unwrap();

    let out = run_script(&[&previous, &stalled.to_string_lossy()]);
    assert!(!out.status.success(), "a 44 ms median poll must fail the job: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("over the 7.0 ms budget"), "the failure names the budget: {stderr}");
}

#[test]
fn an_artifact_without_store_timetravel_warns_but_does_not_fail() {
    if !python_available() {
        eprintln!("skipping: no python3 in this environment");
        return;
    }
    let dir = std::env::temp_dir().join("kspot_trend_check_store_missing");
    std::fs::create_dir_all(&dir).unwrap();
    let previous = artifact(&dir, "previous.json", 100.0);
    // A schema-5 era artifact: everything up to serve-latency, no E17 record.
    let old = dir.join("no_store.json");
    std::fs::write(
        &old,
        "{\"schema\": 5, \"experiments\": [{\"experiment\": \"engine-throughput\", \
         \"rows\": [{\"batch\": 8, \"shared_loop_qps\": 95.0}]}, \
         {\"experiment\": \"fleet-scaling\", \"cores\": 4, \
         \"rows\": [{\"deployments\": 4, \"threads\": 1, \"qps\": 50.0}, \
         {\"deployments\": 4, \"threads\": 4, \"qps\": 90.0}]}, \
         {\"experiment\": \"serve-latency\", \"connections\": 320, \
         \"admitted\": 256, \"rejected\": 64, \"protocol_errors\": 0, \"rows\": []}]}",
    )
    .unwrap();

    let out = run_script(&[&previous, &old.to_string_lossy()]);
    assert!(out.status.success(), "a missing E17 is warn-only, never a failure: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("no store-timetravel experiment"),
        "the skip names the missing experiment: {stdout}"
    );
    assert!(stdout.contains("::warning"), "the skip is announced: {stdout}");
}

#[test]
fn a_diverged_as_of_answer_warns_but_does_not_fail() {
    if !python_available() {
        eprintln!("skipping: no python3 in this environment");
        return;
    }
    let dir = std::env::temp_dir().join("kspot_trend_check_store_diverged");
    std::fs::create_dir_all(&dir).unwrap();
    let previous = artifact(&dir, "previous.json", 100.0);
    // An AS OF answer that failed to reproduce the live one, and baseline
    // sessions that diverged from the per-submit replay: loud warnings, exit 0
    // (the byte-identity test suites are the hard gates on those properties).
    let diverged = store_artifact(&dir, "diverged.json", 95.0, 4, 50.0, 90.0, 0, false, false);

    let out = run_script(&[&previous, &diverged]);
    assert!(out.status.success(), "identity divergence is warn-only here: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("AS OF answer diverged from live"),
        "the AS OF divergence is called out: {stdout}"
    );
    assert!(
        stdout.contains("baseline sessions diverged from replay"),
        "the baseline divergence is called out: {stdout}"
    );
    assert!(stdout.contains("::warning"), "as warning annotations: {stdout}");
}

#[test]
fn a_pre_schema_4_artifact_skips_the_scaling_gate_with_a_warning() {
    if !python_available() {
        eprintln!("skipping: no python3 in this environment");
        return;
    }
    let dir = std::env::temp_dir().join("kspot_trend_check_fleet_old_schema");
    std::fs::create_dir_all(&dir).unwrap();
    let previous = artifact(&dir, "previous.json", 100.0);
    let old = dir.join("old.json");
    std::fs::write(
        &old,
        "{\"schema\": 3, \"experiments\": [{\"experiment\": \"engine-throughput\", \
         \"rows\": [{\"batch\": 8, \"shared_loop_qps\": 95.0}]}]}",
    )
    .unwrap();

    let out = run_script(&[&previous, &old.to_string_lossy()]);
    assert!(out.status.success(), "schema-3 artifacts must not fail the new gate: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("no fleet-scaling experiment"),
        "the skip names the missing experiment: {stdout}"
    );
}
