//! # kspot-bench — the experiment harness of the KSpot reproduction
//!
//! The crate regenerates every quantitative claim of the demonstration paper as a
//! printable table (experiments E1–E17, indexed by [`ALL_EXPERIMENTS`]; each
//! experiment's doc comment names what it reproduces) and hosts the criterion
//! micro-benchmarks:
//!
//! * `cargo run -p kspot-bench --bin tables -- all` prints every table;
//! * `cargo run -p kspot-bench --bin tables -- e4 e6` prints a selection;
//! * `cargo run -p kspot-bench --bin tables -- e12 e13 e14 e15 e16 e17` also writes
//!   the schema-6 `BENCH_engine.json` perf-trajectory artifact (engine throughput,
//!   frame-batching savings, historic-session amortisation, fleet scaling, serve
//!   latency, durable-window time travel) that the `bench-smoke` CI job uploads and
//!   trend-checks;
//! * `cargo bench` runs the criterion counterparts (snapshot, sweep_k, sweep_n,
//!   historic).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod table;

pub use experiments::{
    e12_engine_throughput, e13_frame_batching, e14_historic_sessions, e15_fleet_scaling,
    e16_serve_latency, e17_store_timetravel, run, run_all, ALL_EXPERIMENTS,
};
pub use table::Table;
