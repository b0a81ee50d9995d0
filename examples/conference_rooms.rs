//! The demo plan of Section IV: continuously identify the K conference rooms with the
//! highest sound level so that attendees can spot the liveliest discussions at a glance.
//!
//! The example runs the Figure-3 scenario (14 sensors in 6 clusters) for two hours of
//! simulated time, prints the rolling Top-3 ranking with its KSpot bullets, and finishes
//! with the System Panel that the demo projects on the wall.  The panel's comparison
//! strategies (TAG, centralized collection) are *baseline sessions*: they run next to
//! the query in the same shared epoch loop, over the same readings, each under its own
//! metrics scope — no second execution path, no replay.
//!
//! Run with: `cargo run --example conference_rooms`

use kspot::core::{KSpotServer, ScenarioConfig, WorkloadSpec};
use kspot::net::RoomModelParams;

fn main() {
    let server = KSpotServer::new(ScenarioConfig::conference())
        .with_workload(WorkloadSpec::RoomCorrelated(RoomModelParams {
            drift_sigma: 2.5,
            sensor_noise_sigma: 1.0,
        }))
        .with_seed(2009);

    let sql = "SELECT TOP 3 roomid, AVG(sound) FROM sensors GROUP BY roomid EPOCH DURATION 1 min LIFETIME 2 h";
    println!("query: {sql}\n");

    // One engine, one submission surface: the query is a session, and so is every
    // strategy the System Panel compares it against.
    let mut engine = server.engine();
    let mut session = engine.register(sql).expect("the conference query registers");
    engine.register_baselines(&session).expect("its baselines register next to it");

    println!("continuous Top-3 ranking (one line per 10 minutes):");
    for minute in (0..120).step_by(10) {
        engine.run_epochs(10);
        let answers = session.poll();
        let bullets: Vec<String> =
            session.bullets(&answers[0]).iter().map(|b| b.to_string()).collect();
        println!("  minute {minute:>3}: {}", bullets.join("  |  "));
    }

    // LIFETIME 2 h at one-minute epochs is 120 epochs: the query and its baselines
    // have all completed, over exactly the same span.
    let execution = session.finalize();
    println!("\n{}", execution.panel);
    if let Some(savings) = execution.panel.savings_vs("centralized collection") {
        println!(
            "\nversus shipping every tuple to the base station, KSpot transmitted {:.1}% fewer bytes",
            savings.byte_savings_pct()
        );
    }
}
