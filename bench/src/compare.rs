//! Result files and their comparison against the bounds `BENCHMARK.json` fixes.
//!
//! A result file holds one *set*: every workload's result line, the seed and size it
//! ran with, and the host fingerprint.  `compare` walks workload × end-to-end metric,
//! prints the relative change against the metric's bound, and fails when the second
//! file is worse than the first by more than the bound — or, for the metrics that
//! repeat exactly under one seed, when the two differ at all.

use crate::host::Fingerprint;
use crate::json::Json;
use crate::metrics::EXACT;
use std::io::Write;

pub fn write_result_file(
    path: &str,
    host: &Fingerprint,
    seed: u64,
    seconds: u64,
    results: &[(&str, Json)],
) -> std::io::Result<()> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{{")?;
    writeln!(out, "  \"host\": {},", host.to_json())?;
    writeln!(out, "  \"seed\": {seed},")?;
    writeln!(out, "  \"seconds\": {seconds},")?;
    writeln!(out, "  \"results\": {{")?;
    for (i, (workload, result)) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        writeln!(out, "    \"{workload}\": {result}{comma}")?;
    }
    writeln!(out, "  }}")?;
    writeln!(out, "}}")?;
    out.flush()
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// One end-to-end metric of the spec.
struct Bounded {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn load_spec(path: Option<&str>) -> Result<Vec<Bounded>, String> {
    let candidates: Vec<&str> =
        path.map_or(vec!["BENCHMARK.json", "../BENCHMARK.json"], |p| vec![p]);
    let found = candidates
        .iter()
        .find(|p| std::path::Path::new(p).is_file())
        .ok_or_else(|| format!("no BENCHMARK.json at {candidates:?}; pass --spec <path>"))?;
    let spec = load(found)?;
    spec.get("end_to_end")
        .map_or(&[][..], Json::as_array)
        .iter()
        .map(|m| {
            Ok(Bounded {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("a metric without a name")?
                    .to_string(),
                lower_is_better: m.get("better").and_then(Json::as_str) != Some("higher"),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("a metric without a bound")?,
            })
        })
        .collect()
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
pub fn worse_by(a: f64, b: f64, lower_is_better: bool) -> f64 {
    if a == 0.0 {
        return if b == a { 0.0 } else { f64::INFINITY };
    }
    if lower_is_better {
        (b - a) / a.abs()
    } else {
        (a - b) / a.abs()
    }
}

/// Compares two result files; `Ok(true)` when every pairing passes.
pub fn compare_files(a_path: &str, b_path: &str, spec: Option<&str>) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let spec = load_spec(spec)?;
    if a.get("host") != b.get("host") {
        println!(
            "# WARNING: the two files were taken on different hosts: {} vs {}",
            a.get("host").unwrap_or(&Json::Null),
            b.get("host").unwrap_or(&Json::Null)
        );
    }
    let same_seed = a.get("seed") == b.get("seed") && a.get("seconds") == b.get("seconds");
    println!(
        "# compare {a_path} -> {b_path} ({})",
        if same_seed {
            "same seed and size: exact metrics must be equal"
        } else {
            "different seed or size: exact metrics are bounded like the rest"
        }
    );
    println!(
        "{:<16} {:<26} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "a", "b", "worse by", "bound"
    );
    let mut pass = true;
    for (workload, ra) in a.get("results").map_or(&[][..], Json::as_object) {
        let Some(rb) = b.get("results").and_then(|r| r.get(workload)) else {
            println!("{workload:<16} missing from {b_path}: FAIL");
            pass = false;
            continue;
        };
        for (side, r) in [("a", ra), ("b", rb)] {
            let clean = r.get("correct").and_then(Json::as_bool) == Some(true)
                && r.get("failed").and_then(Json::as_f64) == Some(0.0);
            if !clean {
                println!(
                    "{workload:<16} {:<26} side {side} is not a clean run (correct/failed): FAIL",
                    "failed_ops_share"
                );
                pass = false;
            }
        }
        let value = |r: &Json, name: &str| {
            r.get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
        };
        for metric in &spec {
            let (Some(va), Some(vb)) = (value(ra, &metric.name), value(rb, &metric.name)) else {
                println!("{workload:<16} {:<26} missing: FAIL", metric.name);
                pass = false;
                continue;
            };
            let worse = worse_by(va, vb, metric.lower_is_better);
            let exact = same_seed && EXACT.contains(&metric.name.as_str());
            let ok = if exact {
                va == vb
            } else {
                worse <= metric.bound
            };
            pass &= ok;
            println!(
                "{workload:<16} {:<26} {va:>16.6} {vb:>16.6} {:>8.2}% {:>7}  {}",
                metric.name,
                worse * 100.0,
                if exact {
                    "exact".to_string()
                } else {
                    format!("{:.0}%", metric.bound * 100.0)
                },
                if ok { "PASS" } else { "FAIL" }
            );
        }
    }
    println!(
        "# {}",
        if pass {
            "PASS: every pairing within its bound"
        } else {
            "FAIL"
        }
    );
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_follows_the_direction_of_the_metric() {
        assert!((worse_by(10.0, 11.0, true) - 0.1).abs() < 1e-12);
        assert!((worse_by(10.0, 9.0, true) + 0.1).abs() < 1e-12);
        assert!((worse_by(100.0, 90.0, false) - 0.1).abs() < 1e-12);
        assert!((worse_by(100.0, 110.0, false) + 0.1).abs() < 1e-12);
        assert_eq!(worse_by(0.0, 0.0, true), 0.0);
        assert!(worse_by(0.0, 1.0, true).is_infinite());
    }

    fn file(dir: &std::path::Path, name: &str, tick: f64, bytes: f64, failed: u64) -> String {
        let result = Json::parse(&format!(
            "{{\"correct\": true, \"attempted\": 10, \"failed\": {failed}, \"metrics\": {{\"tick_p50_ms\": {{\"value\": {tick}, \"unit\": \"ms\"}}, \"sim_bytes_per_answer\": {{\"value\": {bytes}, \"unit\": \"B\"}}}}}}"
        ))
        .unwrap();
        let path = dir.join(name).to_string_lossy().to_string();
        let host = Fingerprint {
            nproc: 2,
            rustc: "rustc".into(),
            profile: "release",
            kernel: "k".into(),
        };
        write_result_file(&path, &host, 1, 10, &[("engine_snapshot", result)]).unwrap();
        path
    }

    #[test]
    fn bounds_and_exact_metrics_decide_pass_or_fail() {
        let dir =
            std::env::temp_dir().join(format!("kspot-benchmark-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spec = dir.join("spec.json");
        std::fs::write(
            &spec,
            r#"{"end_to_end": [{"name": "tick_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
                               {"name": "sim_bytes_per_answer", "unit": "B", "better": "lower", "bound": 0.05}]}"#,
        )
        .unwrap();
        let spec = spec.to_string_lossy().to_string();
        let base = file(&dir, "a.json", 2.0, 100.0, 0);
        let same = file(&dir, "b.json", 2.1, 100.0, 0);
        let slow = file(&dir, "c.json", 2.3, 100.0, 0);
        let drifted = file(&dir, "d.json", 2.0, 100.5, 0);
        let failing = file(&dir, "e.json", 2.0, 100.0, 1);
        assert!(compare_files(&base, &same, Some(&spec)).unwrap());
        assert!(
            !compare_files(&base, &slow, Some(&spec)).unwrap(),
            "15 % slower breaks a 10 % bound"
        );
        assert!(
            !compare_files(&base, &drifted, Some(&spec)).unwrap(),
            "an exact metric moved"
        );
        assert!(
            !compare_files(&base, &failing, Some(&spec)).unwrap(),
            "a failed operation"
        );
        assert!(compare_files(&base, "/nonexistent.json", Some(&spec)).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
