//! # kspot-algos — the in-network Top-K query processing algorithms of KSpot
//!
//! KSpot (ICDE 2009) routes every ranked query to the algorithm best suited to its
//! semantics.  This crate implements that whole pool over the simulated substrate of
//! [`kspot_net`]:
//!
//! **Snapshot queries** (current readings, grouped by room / cluster):
//! * [`mint::MintViews`] — MINT views, the paper's snapshot engine (Creation / Pruning /
//!   Update phases with the γ upper-bound framework);
//! * [`tag::TagTopK`] — TAG in-network aggregation with a sink-side Top-K operator (the
//!   TinyDB-style baseline the System Panel compares against);
//! * [`centralized::CentralizedCollection`] — raw tuple shipping, the upper bound;
//! * [`naive::NaiveLocalPrune`] — the wrongful greedy elimination of Figure 1 (inexact);
//! * [`fila::FilaMonitor`] — FILA-style filters for non-aggregate node monitoring.
//!
//! **Historic queries** (locally buffered sliding windows):
//! * [`tja::Tja`] — the Threshold Join Algorithm, the paper's historic engine;
//! * [`tput::Tput`] — TPUT, the flat three-phase comparator;
//! * [`historic::CentralizedHistoric`] — shipping whole windows;
//! * [`historic::LocalAggregateHistoric`] — the horizontally fragmented local-filter
//!   variant of Section III-B.
//!
//! Shared machinery lives in [`agg`] (partial aggregates and bounds), [`view`]
//! (per-node group views), [`result`] (ranked answers) and [`snapshot`] / [`historic`]
//! (specs, traits, reference answers and the continuous-query driver).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod agg;
pub mod centralized;
pub mod fila;
pub mod historic;
pub mod mint;
pub mod naive;
#[cfg(test)]
mod reference;
pub mod result;
pub mod snapshot;
pub mod tag;
mod threshold;
pub mod tja;
pub mod tput;
pub mod view;

pub use agg::{exact_aggregate, AggState};
pub use centralized::CentralizedCollection;
pub use fila::{FilaMonitor, FilaStats};
pub use historic::{
    exact_over_source, BankWindows, CentralizedHistoric, HistoricAlgorithm, HistoricSpec,
    LocalAggregateHistoric,
};
pub use mint::{MintStats, MintViews};
pub use naive::NaiveLocalPrune;
pub use result::{RankedItem, TopKResult};
pub use snapshot::{exact_reference, run_continuous, AccuracyReport, SnapshotAlgorithm, SnapshotSpec};
pub use tag::TagTopK;
pub use tja::{Tja, TjaStats};
pub use tput::{Tput, TputStats};
pub use view::GroupView;
