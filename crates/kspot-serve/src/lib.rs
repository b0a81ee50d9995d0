//! # kspot-serve — the wire front-end of the KSpot engine fleet
//!
//! Everything below this crate ([`kspot_core`]'s engines, fleets and sessions) is a
//! library trusted to be driven by well-behaved Rust callers.  This crate is where
//! that assumption ends: a TCP listener speaking a hand-rolled length-prefixed
//! binary protocol (ADR-007), fronting an [`kspot_core::EngineFleet`] with
//!
//! * **admission control** — per-tenant session quotas plus the fleet's own caps,
//!   surfaced as 429-style `Rejected` frames instead of errors,
//! * **backpressure** — per-connection bounded outboxes; slow readers are throttled
//!   via TCP instead of growing server memory,
//! * **panic isolation** — a poisoned deployment degrades to 503-style
//!   `Unavailable` frames for its own requests while the rest of the fleet keeps
//!   serving (never process death),
//! * **input hardening** — every frame is bounds-checked before allocation, and
//!   the SQL it carries goes through a parser that is fuzzed to never panic.
//!
//! The crate is pure `std::net` + threads — no async runtime, no dependency —
//! matching the workspace's hermetic design (ADR-001).  Idle workers wait for
//! socket readiness in `poll(2)`; that call and `listen(2)`'s backlog are the two
//! things `std` does not expose, and the private `sys` module that declares them is
//! the one place in the workspace where `unsafe_code` is allowed (ADR-011, lint R8).
//!
//! ```no_run
//! use kspot_core::{EngineFleet, ScenarioConfig, WorkloadSpec};
//! use kspot_net::{NetworkConfig, RoomModelParams};
//! use kspot_serve::{ServeConfig, WireServer, WireClient, Request, Response};
//! use std::time::Duration;
//!
//! let fleet = EngineFleet::homogeneous(
//!     ScenarioConfig::conference(),
//!     WorkloadSpec::RoomCorrelated(RoomModelParams::default()),
//!     NetworkConfig::mica2(),
//!     7, 4, 4,
//! );
//! let server = WireServer::start(fleet, ServeConfig::default()).unwrap();
//! let mut client = WireClient::connect(server.addr(), Duration::from_secs(5)).unwrap();
//! client.hello("acme").unwrap();
//! let reply = client
//!     .register(0, "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid")
//!     .unwrap();
//! if let Response::Registered { session, .. } = reply {
//!     client.advance(5).unwrap();
//!     let outcome = client.poll(session, 32).unwrap();
//!     println!("{} answers", outcome.answers.len());
//! }
//! server.shutdown();
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod client;
pub mod proto;
pub mod server;
#[allow(unsafe_code)]
mod sys;

pub use client::{ClientError, PollOutcome, WireClient};
pub use proto::{ProtoError, Request, Response, PROTOCOL_VERSION};
pub use server::{ServeConfig, WireServer, ANONYMOUS_TENANT};
