//! End-to-end integration tests: every query class of the paper, registered as SQL
//! text on the server's engine with its System-Panel baselines next to it, executed
//! over the simulated network, graded for exactness.

use kspot::algos::snapshot::run_continuous;
use kspot::algos::{CentralizedCollection, SnapshotAlgorithm, TagTopK};
use kspot::core::{KSpotServer, QueryEngine, QueryExecution, ScenarioConfig};
use kspot::net::Deployment;
use kspot::query::plan::ExecutionStrategy;
use kspot::query::{classify, parse};
use kspot_testkit::scenario::{FaultProfile, ScenarioCell, TopologyKind, WorkloadProfile};

fn server(seed: u64) -> KSpotServer {
    KSpotServer::new(ScenarioConfig::conference()).with_seed(seed)
}

/// Registers `sql` and its baselines on a fresh engine, runs `epochs` shared epochs
/// and finalizes the session into its execution + System Panel.
fn execute(server: &KSpotServer, sql: &str, epochs: usize) -> QueryExecution {
    let mut engine = server.engine();
    let session = engine.register(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    engine.register_baselines(&session).unwrap_or_else(|e| panic!("{sql}: {e}"));
    engine.run_epochs(epochs);
    session.finalize()
}

#[test]
fn every_query_class_is_routed_to_the_documented_algorithm() {
    let cases = [
        ("SELECT TOP 3 roomid, AVG(sound) FROM sensors GROUP BY roomid", ExecutionStrategy::SnapshotTopK, "MINT"),
        (
            "SELECT TOP 3 roomid, AVG(sound) FROM sensors GROUP BY roomid WITH HISTORY 16 epochs",
            ExecutionStrategy::HistoricHorizontalTopK,
            "local filter",
        ),
        (
            "SELECT TOP 3 epoch, AVG(sound) FROM sensors GROUP BY epoch WITH HISTORY 16 epochs",
            ExecutionStrategy::HistoricVerticalTopK,
            "TJA",
        ),
        ("SELECT TOP 3 nodeid, sound FROM sensors", ExecutionStrategy::NodeMonitoringTopK, "FILA"),
        ("SELECT roomid, AVG(sound) FROM sensors GROUP BY roomid", ExecutionStrategy::InNetworkAggregate, "TAG"),
        ("SELECT * FROM sensors", ExecutionStrategy::RawCollection, "centralized"),
    ];
    for (sql, strategy, algorithm_fragment) in cases {
        let plan = classify(&parse(sql).unwrap()).unwrap();
        assert_eq!(plan.strategy, strategy, "{sql}");
        let execution = execute(&server(1), sql, 16);
        assert!(
            execution.algorithm.contains(algorithm_fragment),
            "{sql} was executed by {} instead of something containing {algorithm_fragment}",
            execution.algorithm
        );
    }
}

#[test]
fn continuous_snapshot_answers_are_exact_and_streamed_per_epoch() {
    let mut engine = server(17).engine();
    let mut session = engine
        .register("SELECT TOP 2 roomid, MAX(sound) FROM sensors GROUP BY roomid EPOCH DURATION 30 s")
        .expect("query registers");
    engine.run_epochs(25);
    assert_eq!(session.poll().len(), 25, "answers stream out while the query runs");
    engine.run_epochs(15);
    assert_eq!(session.poll().len(), 15, "poll drains only what is new");
    let results = session.results();
    assert_eq!(results.len(), 40);
    for (i, result) in results.iter().enumerate() {
        assert_eq!(result.epoch, i as u64);
        assert_eq!(result.items.len(), 2);
        assert!(result.items[0].value >= result.items[1].value);
    }
}

#[test]
fn historic_answers_lie_inside_the_requested_window() {
    let execution = execute(
        &server(23),
        "SELECT TOP 4 epoch, AVG(sound) FROM sensors GROUP BY epoch EPOCH DURATION 30 s WITH HISTORY 48 epochs",
        48,
    );
    let answer = execution.latest().unwrap();
    assert_eq!(answer.items.len(), 4);
    for item in &answer.items {
        assert!(item.key < 48, "epoch {} escaped the 48-epoch window", item.key);
    }
    // The panel must show TJA beating both comparators in bytes.
    let vs_central = execution.panel.savings_vs("centralized window collection").unwrap();
    assert!(vs_central.byte_savings_pct() > 0.0);
}

#[test]
fn scenario_configuration_round_trip_survives_query_execution() {
    // Store the conference scenario to the configuration-file format, load it back and
    // run a query on the reloaded scenario — what the Configuration Panel does.
    let original = ScenarioConfig::conference();
    let reloaded = ScenarioConfig::from_config_string(&original.to_config_string()).expect("parses");
    let sql = "SELECT TOP 1 roomid, AVG(sound) FROM sensors GROUP BY roomid";
    let run = |scenario: ScenarioConfig| {
        let mut engine = KSpotServer::new(scenario).with_seed(5).engine();
        let session = engine.register(sql).expect("query runs on the scenario");
        engine.run_epochs(10);
        let bullets = session.bullets(&session.latest().expect("ten answers"));
        (session.results(), bullets)
    };
    let (results, bullets) = run(reloaded);
    assert_eq!(results.len(), 10);
    assert!(!bullets[0].label.is_empty());
    assert_eq!((results, bullets), run(original), "the round trip changes nothing");
}

#[test]
fn custom_deployments_work_through_the_full_stack() {
    let deployment = Deployment::clustered_rooms(8, 3, 15.0, kspot::net::rng::topology_seed(9));
    let scenario = ScenarioConfig::custom("office floor", "temperature", deployment);
    let server = KSpotServer::new(scenario).with_seed(9);
    let execution =
        execute(&server, "SELECT TOP 3 roomid, AVG(temperature) FROM sensors GROUP BY roomid", 25);
    assert_eq!(execution.results.len(), 25);
    let savings = execution.panel.savings_vs("centralized collection").unwrap();
    assert!(savings.byte_savings_pct() > 0.0);
}

#[test]
fn a_baseline_session_moves_exactly_the_traffic_of_a_solo_run_on_a_lossless_cell() {
    // The engine's shared == solo contract, extended to System-Panel baselines: the
    // scoped slice a baseline session reports equals, column for column, a dedicated
    // `run_continuous` of the same algorithm over the same substrate and readings.
    let cell = ScenarioCell {
        topology: TopologyKind::ClusteredRooms,
        workload: WorkloadProfile::RoomCorrelated,
        fault: FaultProfile::Lossless,
        nodes: 12,
        groups: 4,
        k: 2,
        epochs: 12,
        window: 16,
        master_seed: 0xBA5E,
    };
    let d = cell.deployment();
    let scenario = ScenarioConfig::custom(cell.label(), "sound", d.clone());
    let mut engine = QueryEngine::from_substrate(scenario, cell.network(&d), cell.workload(&d));
    let session =
        engine.register("SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid").unwrap();
    engine.register_baselines(&session).unwrap();
    engine.run_epochs(cell.epochs);
    let panel = session.finalize().panel;

    let spec = cell.snapshot_spec();
    let solo: [&mut dyn SnapshotAlgorithm; 2] =
        [&mut TagTopK::new(spec), &mut CentralizedCollection::new(spec)];
    assert_eq!(panel.baselines.len(), solo.len());
    for (algo, shared) in solo.into_iter().zip(&panel.baselines) {
        let mut net = cell.network(&d);
        run_continuous(algo, &mut net, &mut cell.workload(&d), cell.epochs);
        let alone = net.metrics().totals();
        assert_eq!(shared.name, algo.name());
        assert_eq!(shared.epochs, cell.epochs);
        assert_eq!(
            (shared.totals.messages, shared.totals.bytes, shared.totals.tuples),
            (alone.messages, alone.bytes, alone.tuples),
            "{}: shared-loop baseline vs solo run",
            shared.name
        );
    }
}
