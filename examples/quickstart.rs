//! Quickstart: the paper's Figure-1 running example, end to end, on the unified
//! `Session` API.
//!
//! A 4-room building is monitored by 9 sensors; the user asks for the single room with
//! the highest average sound level.  The example registers the query as a session on
//! the engine, streams its per-epoch answers, and shows why naive in-network pruning
//! would have answered wrongly.
//!
//! Run with: `cargo run --example quickstart`

use kspot::core::{KSpotServer, ScenarioConfig, WorkloadSpec};

fn main() {
    // The Configuration Panel: the Figure-1 scenario (rooms A-D, sensors s1-s9).
    let scenario = ScenarioConfig::figure1();
    println!(
        "scenario: {} ({} sensors in {} rooms)\n",
        scenario.name,
        scenario.deployment.num_nodes(),
        scenario.num_clusters()
    );

    // The Query Panel: the paper's running example, verbatim, registered as a Session
    // on the long-lived engine — the single submission surface for every query class.
    let sql = "SELECT TOP 1 roomid, AVERAGE(sound) FROM sensors GROUP BY roomid EPOCH DURATION 1 min";
    println!("query: {sql}\n");

    let server = KSpotServer::new(scenario).with_workload(WorkloadSpec::Figure1);
    let mut engine = server.engine();
    let mut session = engine.register(sql).expect("the running example registers");
    engine.run_epochs(10);

    // The Display Panel: poll() drains the answers produced since the last poll; the
    // KSpot bullet renders the highest-ranked room.
    println!("algorithm routed to: {}", session.algorithm());
    let answers = session.poll();
    assert_eq!(answers.len(), 10, "ten epochs produced ten answers");
    for bullet in session.bullets(answers.last().expect("ten answers")) {
        println!("KSpot bullet: {bullet}");
    }
    println!();

    // The System Panel, per session: the query's own attributed slice of the shared
    // ledger (totals and per-phase table).  For the TAG/centralized savings read-outs
    // register the baselines next to the query — see `examples/conference_rooms.rs`.
    let execution = session.finalize();
    println!("{}", execution.panel);

    // The anecdote of Figure 1: the naive strategy would have answered (D, 76.5).
    println!("\nremember: naive per-node top-1 pruning would report room D with 76.5,");
    println!("because node s4 wrongly eliminates the (D, 39) tuple of node s9 — the");
    println!("correct answer, reported above, is room C with an average of 75.");
}
