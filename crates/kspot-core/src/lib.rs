//! # kspot-core — the KSpot system
//!
//! This crate assembles the substrate ([`kspot_net`]), the query language
//! ([`kspot_query`]) and the ranking algorithms ([`kspot_algos`]) into the two-tier
//! system the ICDE 2009 demonstration describes:
//!
//! * [`config::ScenarioConfig`] — the Configuration Panel: which sensors exist, where
//!   they sit on the floor plan and which cluster (room) each belongs to, including the
//!   Figure-1 and Figure-3 scenarios and a load/store file format;
//! * [`engine::QueryEngine`] — the long-lived multi-query engine: N registered query
//!   sessions (with admission and cancellation) share one live substrate and one epoch
//!   loop, with per-session metrics attribution — see ADR-003;
//! * [`fleet::EngineFleet`] — M independent engine deployments driven concurrently by
//!   a fixed thread pool, with session routing by deployment id and a fleet-level
//!   admission cap; every shard stays byte-identical to a solo engine — see ADR-006;
//! * durable windows — an engine built [`engine::QueryEngine::with_checkpointing`]
//!   snapshots its shared window bank into a [`kspot_store::CheckpointStore`] ring on
//!   the modeled flash every `cadence` epochs, serving `AS OF epoch e` time-travel
//!   sessions and surviving restarts via [`engine::QueryEngine::with_checkpoint_store`]
//!   — see ADR-009;
//! * [`server::KSpotServer`] — the base station's configuration: scenario, workload,
//!   cost model and seed, from which the engine (or a fleet) is booted;
//!   [`engine::QueryEngine::register`] is the one submission surface — it parses the
//!   Query Panel SQL and routes it to MINT / TJA / TAG / FILA by its semantics — and
//!   [`engine::Session::bullets`] renders the Display Panel bullets;
//! * [`panel::SystemPanel`] — the System Panel: message/byte/energy savings of a
//!   session against the conventional acquisition baselines, which run as sessions of
//!   their own in the same loop ([`engine::QueryEngine::register_baselines`]).
//!
//! ```
//! use kspot_core::{KSpotServer, ScenarioConfig, WorkloadSpec};
//!
//! let server = KSpotServer::new(ScenarioConfig::figure1()).with_workload(WorkloadSpec::Figure1);
//! let mut engine = server.engine();
//! let session = engine
//!     .register("SELECT TOP 1 roomid, AVERAGE(sound) FROM sensors GROUP BY roomid EPOCH DURATION 1 min")
//!     .unwrap();
//! engine.run_epochs(5);
//! // The correct answer to the paper's running example is room C with an average of 75.
//! assert_eq!(session.bullets(&session.latest().unwrap())[0].label, "Room C");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod engine;
pub mod fleet;
pub mod panel;
mod results;
pub mod server;

pub use config::{ConfigError, ScenarioConfig};
pub use engine::{EngineRef, QueryEngine, QueryId, ResultsPage, Session, SessionStatus};
pub use fleet::{AdmissionScope, DeploymentId, EngineFleet, FleetError, ShardHealth};
pub use panel::{StrategyReport, SystemPanel};
pub use server::{KSpotBullet, KSpotServer, QueryExecution, WorkloadSpec};

// The durable-store handles an embedder needs to persist and resume an engine
// (ADR-009), re-exported so `with_checkpoint_store(CheckpointStore::from_bytes(..)?)`
// works without a direct kspot-store dependency.
pub use kspot_store::{CheckpointStore, StoreError, DEFAULT_RETENTION};
