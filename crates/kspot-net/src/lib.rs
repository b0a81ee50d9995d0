//! # kspot-net — the wireless sensor network substrate of the KSpot reproduction
//!
//! The KSpot demonstration (ICDE 2009) runs on a physical testbed of MICA2 motes
//! organised into a TAG-style aggregation tree rooted at a base station.  This crate
//! rebuilds that substrate in software so that the ranking algorithms of
//! [`kspot-algos`](https://crates.io/crates/kspot-algos) can be exercised, measured and
//! compared deterministically on a laptop:
//!
//! * [`topology`] — sensor deployments (grid, uniform random, clustered rooms) and the
//!   connectivity graph induced by a radio range;
//! * [`tree`] — the first-heard-from routing tree used by TAG/TinyDB-style convergecast;
//! * [`radio`] — the message/byte cost model of the CC1000 radio on MICA2: an algorithm
//!   describes a payload symbolically (data tuples, control entries) and the substrate
//!   costs it in bytes, airtime and energy;
//! * [`energy`] — per-node batteries and a calibrated µJ-per-byte energy model, plus the
//!   network-lifetime metric;
//! * [`fault`] — fault injection: lossy links with ARQ recovery, scheduled node deaths
//!   and duty-cycled sleeping, threaded through [`sim::NetworkConfig`];
//! * [`storage`] — the per-node sliding-window buffer used by historic queries
//!   (the paper cites MicroHash for this role);
//! * [`workload`] — synthetic sensed-value generators (room-correlated sound levels,
//!   random-walk temperature fields, uniform and skewed distributions, trace replay);
//! * [`metrics`] — message/byte/energy accounting per node, per epoch, per algorithm
//!   phase and per query scope (including a scope×phase breakdown) — exactly the
//!   numbers KSpot's System Panel projects during the demo;
//! * [`schedule`] — the per-epoch frame scheduler that piggy-backs all sessions'
//!   per-node report traffic into one merged frame per `(node, direction)` per epoch
//!   (one preamble + header instead of one per session);
//! * [`sim`] — the [`sim::Network`] façade gluing all of the above together, the type
//!   every algorithm in the workspace is written against;
//! * [`codec`] — the bounds-checked big-endian byte codec that both untrusted-input
//!   boundaries (the wire protocol and the checkpoint format) read and write through.
//!
//! The substrate is *epoch synchronous*: queries run in rounds ("epochs" in TinyDB
//! terminology) and within an epoch data flows leaf-to-root (convergecast) while control
//! traffic flows root-to-leaf (dissemination).  All randomness is seeded, so every
//! experiment in the repository is reproducible bit for bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod codec;
pub mod energy;
pub mod fault;
pub mod metrics;
pub mod radio;
#[cfg(test)]
mod reference;
pub mod rng;
pub mod schedule;
pub mod sim;
pub mod storage;
pub mod topology;
pub mod tree;
pub mod types;
pub mod workload;

pub use energy::{Battery, BatteryBank, EnergyModel};
pub use fault::{DutyCycle, FaultPlan};
pub use metrics::{
    AttemptCost, NetworkMetrics, NodeCounters, PathBooking, PhaseTag, PhaseTotals, QueryScope,
    Savings, StorageTotals, RETENTION_WINDOW,
};
pub use radio::RadioModel;
pub use schedule::{Fate, FrameScheduler};
pub use sim::{Network, NetworkConfig};
pub use storage::{
    SlidingWindow, WindowBank, FLASH_PAGE_BYTES, FLASH_PAGE_READ_UJ, FLASH_PAGE_WRITE_UJ,
};
pub use topology::{Deployment, Position};
pub use tree::RoutingTree;
pub use types::{Epoch, GroupId, NodeId, Reading, Value, ValueDomain, SINK};
pub use workload::{RoomModelParams, Workload};
