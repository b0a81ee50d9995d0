//! Integration test for experiment E1: the Figure-1 scenario across the whole stack —
//! query text → parser → plan → engine session → MINT execution → Display-Panel
//! bullets and the System Panel's TAG comparison.

use kspot::algos::snapshot::exact_reference;
use kspot::algos::{NaiveLocalPrune, SnapshotAlgorithm, SnapshotSpec};
use kspot::core::{KSpotServer, ScenarioConfig, WorkloadSpec};
use kspot::net::types::ValueDomain;
use kspot::net::{Deployment, Network, NetworkConfig, Workload};
use kspot::query::AggFunc;

fn figure1_server() -> KSpotServer {
    KSpotServer::new(ScenarioConfig::figure1()).with_workload(WorkloadSpec::Figure1)
}

#[test]
fn the_running_example_returns_room_c_for_every_k() {
    for k in 1..=4u32 {
        let mut engine = figure1_server().engine();
        let sql = format!("SELECT TOP {k} roomid, AVERAGE(sound) FROM sensors GROUP BY roomid EPOCH DURATION 1 min");
        let session = engine.register(&sql).expect("query registers");
        engine.run_epochs(5);
        let latest = session.latest().unwrap();
        assert_eq!(latest.items.len(), k as usize);
        // The full correct order of Figure 1 is C (75) > A (74.5) > D (64) > B (41).
        let expected: Vec<u64> = vec![2, 0, 3, 1].into_iter().take(k as usize).collect();
        assert_eq!(latest.keys(), expected, "k={k}");
        // The Display Panel bullets carry the room names.
        let bullets = session.bullets(&latest);
        assert_eq!(bullets[0].label, "Room C");
        assert!((bullets[0].value - 75.0).abs() < 1e-9);
    }
}

#[test]
fn the_naive_strategy_reproduces_the_papers_wrong_answer() {
    let d = Deployment::figure1();
    let readings = Workload::figure1(&d).next_epoch();
    let spec = SnapshotSpec::new(1, AggFunc::Avg, ValueDomain::percentage());
    let mut net = Network::new(d, NetworkConfig::ideal());
    let naive = NaiveLocalPrune::new(spec).execute_epoch(&mut net, &readings);
    assert_eq!(naive.top().unwrap().key, 3, "naive pruning elects room D");
    assert!((naive.top().unwrap().value - 76.5).abs() < 1e-9, "with the biased average 76.5");

    let truth = exact_reference(&spec, &readings);
    assert_eq!(truth.top().unwrap().key, 2, "the correct answer is room C");
    assert!((truth.top().unwrap().value - 75.0).abs() < 1e-9);
}

#[test]
fn kspot_execution_spends_no_more_view_tuples_than_tag_on_figure1() {
    let mut engine = figure1_server().engine();
    let session = engine
        .register("SELECT TOP 1 roomid, AVERAGE(sound) FROM sensors GROUP BY roomid")
        .expect("query registers");
    engine.register_baselines(&session).expect("baselines register");
    engine.run_epochs(30);
    let panel = session.finalize().panel;
    let savings = panel.savings_vs("TAG + sink Top-K").expect("TAG baseline present");
    assert!(
        savings.byte_savings_pct() > 0.0,
        "on the constant Figure-1 workload the pruned views must save bytes: {savings}"
    );
    assert!(savings.message_savings_pct() > 0.0, "quiet rooms go silent: {savings}");
}
