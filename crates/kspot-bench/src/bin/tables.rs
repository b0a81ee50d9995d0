//! Prints the experiment tables (E1–E17) that regenerate the paper's quantitative
//! claims and the engine's perf trajectory.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p kspot-bench --bin tables -- all
//! cargo run --release -p kspot-bench --bin tables -- e1 e2 e9
//! cargo run --release -p kspot-bench --bin tables -- e12 e13 e14 e15 e16 e17  # also writes BENCH_engine.json
//! ```
//!
//! `e12` (solo engines vs the shared loop), `e13` (frame-batching savings), `e14`
//! (historic-session amortisation), `e15` (fleet scaling), `e16` (serve latency) and
//! `e17` (durable windows / AS OF time travel) additionally write their
//! machine-readable results to `BENCH_engine.json` in the
//! current directory — one merged `{"schema": 6, "experiments": [...]}` document
//! that the `bench-smoke` CI job uploads per merge
//! and `scripts/bench_trend_check.py` compares across runs.  Override the path with
//! the `BENCH_ENGINE_OUT` environment variable, and set `KSPOT_BENCH_SMOKE=1` for
//! CI-sized runs.

use kspot_bench::{
    e12_engine_throughput, e13_frame_batching, e14_historic_sessions, e15_fleet_scaling,
    e16_serve_latency, e17_store_timetravel, run, ALL_EXPERIMENTS,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let requested: Vec<String> = if args.is_empty() || args.iter().any(|a| a == "all") {
        ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect()
    } else {
        args
    };

    let mut unknown = Vec::new();
    // The perf-trajectory experiments double as machine-readable artifacts; collect
    // their JSON fragments and write one merged document at the end.
    let mut artifacts: Vec<String> = Vec::new();
    for id in &requested {
        if id.eq_ignore_ascii_case("e12") {
            let (table, json) = e12_engine_throughput();
            println!("{table}");
            artifacts.push(json.trim().to_string());
            continue;
        }
        if id.eq_ignore_ascii_case("e13") {
            let (table, json) = e13_frame_batching();
            println!("{table}");
            artifacts.push(json.trim().to_string());
            continue;
        }
        if id.eq_ignore_ascii_case("e14") {
            let (table, json) = e14_historic_sessions();
            println!("{table}");
            artifacts.push(json.trim().to_string());
            continue;
        }
        if id.eq_ignore_ascii_case("e15") {
            let (table, json) = e15_fleet_scaling();
            println!("{table}");
            artifacts.push(json.trim().to_string());
            continue;
        }
        if id.eq_ignore_ascii_case("e16") {
            let (table, json) = e16_serve_latency();
            println!("{table}");
            artifacts.push(json.trim().to_string());
            continue;
        }
        if id.eq_ignore_ascii_case("e17") {
            let (table, json) = e17_store_timetravel();
            println!("{table}");
            artifacts.push(json.trim().to_string());
            continue;
        }
        match run(id) {
            Some(table) => println!("{table}"),
            None => unknown.push(id.clone()),
        }
    }
    if !artifacts.is_empty() {
        let json = format!(
            "{{\n\"schema\": 6,\n\"experiments\": [\n{}\n]\n}}\n",
            artifacts.join(",\n")
        );
        let path = std::env::var("BENCH_ENGINE_OUT")
            .unwrap_or_else(|_| "BENCH_engine.json".to_string());
        match std::fs::write(&path, json) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    if !unknown.is_empty() {
        eprintln!(
            "unknown experiment id(s): {} (available: {})",
            unknown.join(", "),
            ALL_EXPERIMENTS.join(", ")
        );
        std::process::exit(1);
    }
}
