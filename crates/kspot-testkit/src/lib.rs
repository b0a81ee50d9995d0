//! # kspot-testkit — the scenario-matrix differential-testing harness
//!
//! The paper's central claim is that MINT and TJA answer Top-K queries *exactly* while
//! pruning most of the traffic.  This crate turns that claim into a systematically
//! enumerated test matrix instead of a couple of hand-picked seeds:
//!
//! * [`scenario`] — deterministic scenario cells: topology families (grid / uniform /
//!   clustered rooms / linear chain) × workload families (room-correlated /
//!   independent / drifting hot-spot) × fault profiles (lossless / lossy links / node
//!   death / duty cycling) × a K/N sweep, all seeded per the [`kspot_net::rng`]
//!   convention;
//! * [`oracle`] — exact reference answers scoped to the nodes the fault plan lets
//!   participate (participation is a pure function of the plan, so the oracle never
//!   has to simulate anything);
//! * [`invariants`] — the checkers: ledger conservation across [`kspot_net::metrics`],
//!   per-query attribution conservation (scope and scope×phase axes, incl. merged
//!   report frames), structural well-formedness of every answer, and rank-for-rank
//!   oracle agreement;
//! * [`runner`] — drives every snapshot algorithm (MINT, TAG, centralized, naive,
//!   FILA) and every historic algorithm (TJA, TPUT, centralized windows,
//!   local-aggregate) through a cell and collects violations.
//!
//! Run the full matrix with `cargo test -p kspot-testkit`; the `smoke` feature
//! (`--features smoke`) shrinks it to a PR-sized subset.  Lossy and death cells are
//! *checked* against documented degraded-semantics invariants (exactness scoped to
//! participating nodes and delivered data), never skipped — see
//! `docs/adr/ADR-002-testkit-and-fault-injection.md` for the fault model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod invariants;
pub mod oracle;
pub mod runner;
pub mod scenario;

pub use invariants::{check_ledger, check_scope_attribution, check_storage_attribution};
pub use runner::{run_historic_cell, run_snapshot_cell, CellOutcome};
pub use scenario::{matrix, smoke_cells, FaultProfile, ScenarioCell, TopologyKind, WorkloadProfile};
