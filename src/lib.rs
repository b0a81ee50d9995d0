//! # kspot — a reproduction of "KSpot: Effectively Monitoring the K Most Important
//! Events in a Wireless Sensor Network" (ICDE 2009)
//!
//! This façade crate re-exports the four crates of the workspace under one roof:
//!
//! * [`net`] — the simulated wireless-sensor-network substrate (deployments, routing
//!   tree, radio/energy cost models, sliding-window storage, workloads, metrics);
//! * [`query`] — the SQL-like query dialect of the Query Panel (lexer, parser,
//!   validation, execution-strategy classification);
//! * [`algos`] — the in-network Top-K algorithms: MINT views and TJA (KSpot's engines),
//!   plus the TAG, centralized, naive, FILA and TPUT comparators;
//! * [`core`] — the KSpot system itself: scenario configuration, the base-station
//!   server, the multi-query engine with its `Session` API, and the System Panel.
//!
//! ```
//! use kspot::core::{KSpotServer, ScenarioConfig, WorkloadSpec};
//!
//! let server = KSpotServer::new(ScenarioConfig::figure1()).with_workload(WorkloadSpec::Figure1);
//! let mut engine = server.engine();
//! let session = engine
//!     .register("SELECT TOP 1 roomid, AVERAGE(sound) FROM sensors GROUP BY roomid")
//!     .unwrap();
//! engine.run_epochs(3);
//! assert_eq!(session.latest().unwrap().top().unwrap().key, 2); // room C
//! ```

#![forbid(unsafe_code)]

pub use kspot_algos as algos;
pub use kspot_core as core;
pub use kspot_net as net;
pub use kspot_query as query;
