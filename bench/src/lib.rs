//! The KSpot benchmark — see `bench/README.md`.
//!
//! ```text
//! kspot-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, one JSON line
//! kspot-benchmark run (--all | --workload <name>) [--seed n] [--seconds s] [--trace] [--sets k] [--smoke] [--out stem]
//! kspot-benchmark compare <a.json> <b.json> [--spec BENCHMARK.json]
//! kspot-benchmark self-test
//! ```

pub mod calibrate;
pub mod cli;
pub mod common;
pub mod compare;
pub mod engine_run;
pub mod host;
pub mod json;
pub mod metrics;
pub mod oracle;
pub mod probes;
pub mod replay;
pub mod script;
pub mod stats;
pub mod trace;
pub mod twin;
pub mod wire_run;

pub use cli::{run_workload, RunOptions, RunResult};
