//! Prints the experiment tables: the paper's quantitative claims (E1–E11) and the
//! simulated cost of the engine's sharing mechanisms (E13, E14, E17).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p kspot-bench --bin tables -- all
//! cargo run --release -p kspot-bench --bin tables -- e1 e2 e9
//! ```

use kspot_bench::{run, ALL_EXPERIMENTS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let requested: Vec<String> = if args.is_empty() || args.iter().any(|a| a == "all") {
        ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect()
    } else {
        args
    };

    let mut unknown = Vec::new();
    for id in &requested {
        match run(id) {
            Some(table) => println!("{table}"),
            None => unknown.push(id.clone()),
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
