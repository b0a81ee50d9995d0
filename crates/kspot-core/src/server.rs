//! The KSpot server — the base station through which user requests are disseminated.
//!
//! [`KSpotServer`] is the one place a deployment is configured: the scenario of the
//! Configuration Panel, the workload driving the sensors, the network cost model and
//! the master seed.  It boots the long-lived [`QueryEngine`] (or a sharded
//! [`EngineFleet`]) every query is registered on; parsing, classification
//! ([`kspot_query::plan::classify`]), routing to the matching in-network algorithm
//! (MINT, TJA, TAG, FILA, …) and execution all happen behind [`QueryEngine::register`].
//! This module also holds the values the GUI panels render: the per-epoch ranked
//! answers and System Panel of a [`QueryExecution`], and the *KSpot bullets* of the
//! Display Panel.

use crate::config::ScenarioConfig;
use crate::engine::QueryEngine;
use crate::fleet::EngineFleet;
use crate::panel::SystemPanel;
use kspot_algos::TopKResult;
use kspot_net::{NetworkConfig, RoomModelParams, Workload};
use kspot_query::plan::QueryPlan;
use std::fmt;

/// Which synthetic workload drives the sensors during an execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkloadSpec {
    /// The constant readings of Figure 1 (only valid on the Figure-1 scenario).
    Figure1,
    /// Room-correlated activity with the given drift/noise parameters.
    RoomCorrelated(RoomModelParams),
    /// Independent random walk per node with the given step deviation.
    RandomWalk(f64),
    /// Fresh uniform values every epoch (no temporal correlation).
    UniformIid,
}

impl WorkloadSpec {
    /// Materialises the workload over a scenario's deployment.
    pub(crate) fn build(&self, config: &ScenarioConfig, seed: u64) -> Workload {
        match self {
            WorkloadSpec::Figure1 => Workload::figure1(&config.deployment),
            WorkloadSpec::RoomCorrelated(params) => {
                Workload::room_correlated(&config.deployment, config.domain, *params, seed)
            }
            WorkloadSpec::RandomWalk(sigma) => {
                Workload::random_walk(&config.deployment, config.domain, *sigma, seed)
            }
            WorkloadSpec::UniformIid => Workload::uniform_iid(&config.deployment, config.domain, seed),
        }
    }
}

/// One red bullet of the Display Panel: a ranked item with its current value
/// (see [`crate::Session::bullets`]).
#[derive(Debug, Clone, PartialEq)]
pub struct KSpotBullet {
    /// 1-based rank (1 = highest).
    pub rank: usize,
    /// The ranked key: a cluster, node or epoch id, whichever the query ranks.
    pub key: u64,
    /// The key's display label ("Room C", "node 6", "epoch 4").
    pub label: String,
    /// The aggregate value that earned the rank.
    pub value: f64,
}

impl fmt::Display for KSpotBullet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{} {} ({:.1})", self.rank, self.label, self.value)
    }
}

/// The outcome of executing one query ([`crate::Session::finalize`]): the routing
/// decision, the ranked answers, and the System Panel comparing KSpot against the
/// conventional baselines.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryExecution {
    /// The classified plan.
    pub plan: QueryPlan,
    /// Per-epoch ranked answers (a single entry for one-shot historic queries).
    pub results: Vec<TopKResult>,
    /// The System Panel.
    pub panel: SystemPanel,
}

impl QueryExecution {
    /// The most recent ranked answer.
    pub fn latest(&self) -> Option<&TopKResult> {
        self.results.last()
    }
}

/// The KSpot base station.
#[derive(Debug, Clone)]
pub struct KSpotServer {
    scenario: ScenarioConfig,
    workload: WorkloadSpec,
    net_config: NetworkConfig,
    seed: u64,
}

impl KSpotServer {
    /// Boots a server for a scenario with the default (room-correlated) workload and the
    /// MICA2 cost model.
    pub fn new(scenario: ScenarioConfig) -> Self {
        Self {
            scenario,
            workload: WorkloadSpec::RoomCorrelated(RoomModelParams::default()),
            net_config: NetworkConfig::mica2(),
            seed: 0,
        }
    }

    /// Selects the workload driving the sensors.
    pub fn with_workload(mut self, workload: WorkloadSpec) -> Self {
        self.workload = workload;
        self
    }

    /// Selects the network cost model.
    pub fn with_network_config(mut self, config: NetworkConfig) -> Self {
        self.net_config = config;
        self
    }

    /// Sets the random seed for reproducible executions.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Boots a long-lived multi-query engine sharing this server's scenario, workload,
    /// cost model and seed — the primary interface for serving many concurrent queries
    /// over one live substrate (see [`QueryEngine`]).
    pub fn engine(&self) -> QueryEngine {
        QueryEngine::from_config(
            self.scenario.clone(),
            self.workload,
            self.net_config.clone(),
            self.seed,
        )
    }

    /// Boots a sharded engine fleet: `deployments` independent copies of this server's
    /// scenario and workload — each with its own master seed derived from the server's
    /// via [`EngineFleet::shard_seed`] — driven by a fixed pool of `threads` workers.
    /// Sessions are routed by deployment id; see [`EngineFleet`] and ADR-006 for the
    /// per-shard byte-identity contract.
    pub fn fleet(&self, deployments: usize, threads: usize) -> EngineFleet {
        EngineFleet::homogeneous(
            self.scenario.clone(),
            self.workload,
            self.net_config.clone(),
            self.seed,
            deployments,
            threads,
        )
    }
}
