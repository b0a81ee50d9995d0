//! # kspot-bench — the experiment tables of the KSpot reproduction
//!
//! The crate regenerates every quantitative claim of the demonstration paper, and the
//! simulated cost of the engine's sharing mechanisms, as printable tables (indexed by
//! [`ALL_EXPERIMENTS`]; each experiment's doc comment names what it reproduces).  A
//! table prints only what the simulator decides — bytes, messages, energy, pages,
//! answers — so its text is the same on every host and `tests/golden_tables.rs` pins
//! it.  Wall-clock measurement lives in the standalone `bench/` package (ADR-012).
//!
//! * `cargo run -p kspot-bench --bin tables -- all` prints every table;
//! * `cargo run -p kspot-bench --bin tables -- e4 e6` prints a selection;
//! * `cargo bench --bench sweep_n` / `--bench sweep_w` are the two size sweeps
//!   `docs/perf/complexity.md` measures its exponents with.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod table;

pub use experiments::{run, ALL_EXPERIMENTS};
pub use table::Table;
