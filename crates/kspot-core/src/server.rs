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
    /// The algorithm KSpot routed the query to.
    pub algorithm: String,
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

    /// The configured scenario.
    pub fn scenario(&self) -> &ScenarioConfig {
        &self.scenario
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

#[cfg(test)]
mod tests {
    use super::*;
    use kspot_query::QueryError;

    fn figure1_server() -> KSpotServer {
        KSpotServer::new(ScenarioConfig::figure1())
            .with_workload(WorkloadSpec::Figure1)
            .with_network_config(NetworkConfig::ideal())
    }

    fn conference_server(seed: u64) -> KSpotServer {
        KSpotServer::new(ScenarioConfig::conference()).with_seed(seed)
    }

    /// The System-Panel walk-through every test here drives: the query as a session,
    /// its baselines as sessions next to it, one shared loop, one finalize.
    fn execute(server: &KSpotServer, sql: &str, epochs: usize) -> Result<QueryExecution, QueryError> {
        let mut engine = server.engine();
        let session = engine.register(sql)?;
        engine.register_baselines(&session)?;
        engine.run_epochs(epochs);
        Ok(session.finalize())
    }

    #[test]
    fn snapshot_query_on_figure1_returns_room_c_and_saves_traffic() {
        let execution = execute(
            &figure1_server(),
            "SELECT TOP 1 roomid, AVERAGE(sound) FROM sensors GROUP BY roomid EPOCH DURATION 1 min",
            10,
        )
        .expect("the paper's example query must run");
        assert_eq!(execution.algorithm, "KSpot (MINT views)");
        assert_eq!(execution.results.len(), 10);
        for result in &execution.results {
            assert_eq!(result.top().unwrap().key, 2, "room C wins every epoch");
        }
        let savings = execution.panel.savings_vs("TAG + sink Top-K").unwrap();
        assert!(savings.byte_savings_pct() > 0.0, "MINT must save bytes over TAG: {savings}");
    }

    #[test]
    fn conference_topk_runs_and_panel_reports_energy_savings() {
        let execution = execute(
            &conference_server(3),
            "SELECT TOP 3 roomid, AVG(sound) FROM sensors GROUP BY roomid EPOCH DURATION 30 s",
            50,
        )
        .expect("Figure-3 style query runs");
        assert_eq!(execution.results.len(), 50);
        assert_eq!(execution.results[0].items.len(), 3);
        let savings = execution.panel.savings_vs("centralized collection").unwrap();
        // With K = 3 of only 6 clusters the pruning threshold is permissive: MINT still
        // ships fewer upstream bytes than raw collection, but its extra control floods
        // and probe round trips are many *small* frames, each paying the radio's
        // per-frame preamble — so at this 14-node demo scale the energy comparison is a
        // wash (the E4/E5 sweeps show the real effect at scale).
        assert!(savings.byte_savings_pct() > 0.0, "MINT must ship fewer bytes: {savings}");
        // Every report is a scoped slice, so the panel carries no bottleneck node and
        // claims no lifetime factor (E3 reads whole-run energy and lifetime).
        assert!(execution.panel.lifetime_extension_factor(20.0e9).is_none());
    }

    #[test]
    fn bullets_are_labelled_by_what_the_plan_ranks() {
        let server = conference_server(4);
        let mut engine = server.engine();
        let rooms = engine.register("SELECT TOP 3 roomid, AVG(sound) FROM sensors GROUP BY roomid").unwrap();
        let nodes = engine.register("SELECT TOP 3 nodeid, sound FROM sensors").unwrap();
        let epochs = engine
            .register("SELECT TOP 3 epoch, AVG(sound) FROM sensors GROUP BY epoch WITH HISTORY 8 epochs")
            .unwrap();
        engine.run_epochs(8);
        let keys = |s: &crate::Session| s.latest().expect("answered").keys();
        let labels = |s: &crate::Session| -> Vec<String> {
            s.bullets(&s.latest().expect("answered")).into_iter().map(|b| b.label).collect()
        };
        let expect = |s: &crate::Session, label: &dyn Fn(u64) -> String| {
            assert_eq!(labels(s), keys(s).into_iter().map(label).collect::<Vec<_>>());
        };
        expect(&rooms, &|key| server.scenario().cluster_name(key as u32));
        expect(&nodes, &|key| format!("node {key}"));
        expect(&epochs, &|key| format!("epoch {key}"));
    }

    #[test]
    fn historic_vertical_query_routes_to_tja() {
        let execution = execute(
            &conference_server(5),
            "SELECT TOP 5 epoch, AVG(sound) FROM sensors GROUP BY epoch EPOCH DURATION 30 s WITH HISTORY 64 epochs",
            64,
        )
        .expect("historic query runs");
        assert!(execution.algorithm.contains("TJA"));
        assert_eq!(execution.results.len(), 1);
        assert_eq!(execution.results[0].items.len(), 5);
        let vs_central = execution.panel.savings_vs("centralized window collection").unwrap();
        assert!(vs_central.byte_savings_pct() > 0.0, "TJA must beat shipping whole windows");
    }

    #[test]
    fn historic_horizontal_query_uses_local_filtering() {
        let execution = execute(
            &conference_server(7),
            "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid EPOCH DURATION 30 s WITH HISTORY 32 epochs",
            32,
        )
        .expect("historic horizontal query runs");
        assert_eq!(execution.algorithm, "local filter + MINT update");
        assert_eq!(execution.results[0].items.len(), 2);
        let savings = execution.panel.primary_savings().unwrap();
        assert!(savings.byte_savings_pct() > 50.0, "local filtering avoids shipping windows: {savings}");
    }

    #[test]
    fn node_monitoring_query_routes_to_fila() {
        // FILA only saves traffic when the K-th and (K+1)-th ranked nodes are separated;
        // seeds whose room draws leave them statistically tied (same room) churn the
        // boundary filter every epoch.  Seed 4 produces the separated regime.
        let execution = execute(
            &conference_server(4),
            "SELECT TOP 3 nodeid, sound FROM sensors EPOCH DURATION 10 s",
            30,
        )
        .expect("monitoring query runs");
        assert!(execution.algorithm.contains("FILA"));
        assert_eq!(execution.results.len(), 30);
        let savings = execution.panel.savings_vs("centralized collection").unwrap();
        assert!(savings.message_savings_pct() > 0.0);
    }

    #[test]
    fn plain_aggregate_and_raw_queries_run_too() {
        let server = conference_server(11);
        let agg = execute(&server, "SELECT roomid, AVG(sound) FROM sensors GROUP BY roomid EPOCH DURATION 30 s", 5)
            .expect("plain aggregate runs");
        assert!(agg.algorithm.contains("TAG"));
        assert_eq!(agg.results.len(), 5);
        assert_eq!(agg.results[0].items.len(), 6, "all six clusters are reported");
        assert!(agg.panel.savings_vs("centralized collection").is_some());

        let raw = execute(&server, "SELECT * FROM sensors", 3).expect("raw query runs");
        assert!(raw.algorithm.contains("centralized"));
        assert!(raw.panel.baselines.is_empty(), "raw collection is its own baseline");
    }

    #[test]
    fn invalid_queries_are_rejected_with_parser_errors() {
        let server = figure1_server();
        assert!(execute(&server, "SELECT TOP 0 roomid, AVG(sound) FROM sensors GROUP BY roomid", 5).is_err());
        assert!(execute(&server, "SELEKT oops", 5).is_err());
    }

    #[test]
    fn a_lifetime_clause_clamps_the_whole_execution_including_baselines() {
        let server = conference_server(8);
        let execution = execute(
            &server,
            "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid LIFETIME 3 epochs",
            25,
        )
        .unwrap();
        assert_eq!(execution.results.len(), 3, "LIFETIME bounds the query");
        assert_eq!(execution.panel.kspot.epochs, 3);
        assert_eq!(execution.panel.baselines.len(), 2);
        for baseline in &execution.panel.baselines {
            assert_eq!(baseline.epochs, 3, "baselines must cover the same span: {}", baseline.name);
        }
        // Like-for-like spans keep the savings comparison meaningful.
        let short =
            execute(&server, "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid", 3).unwrap();
        assert_eq!(execution.panel.kspot.totals, short.panel.kspot.totals);
        assert_eq!(execution.panel.baselines, short.panel.baselines);
    }

    #[test]
    fn executions_are_deterministic_in_the_seed() {
        let run = |seed| {
            execute(
                &conference_server(seed),
                "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid",
                20,
            )
            .unwrap()
        };
        assert_eq!(run(4), run(4));
    }
}
