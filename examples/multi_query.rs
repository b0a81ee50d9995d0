//! The multi-query engine in action: several users monitor one live conference venue
//! at once, each with their own query, sharing a single epoch loop and substrate —
//! continuous and `WITH HISTORY` queries alike, through one `Session` API.
//!
//! ```console
//! cargo run --release --example multi_query
//! ```

use kspot::core::{KSpotServer, ScenarioConfig, Session, SessionStatus};

fn main() {
    let server = KSpotServer::new(ScenarioConfig::conference()).with_seed(42);
    let mut engine = server.engine();

    // Four users register their queries; each gets a typed Session handle.  The same
    // `register` call admits every query class: the historic query joins the loop
    // too, answers once from the engine-shared sliding windows when they cover its
    // WITH HISTORY span, and completes (no per-query collection replay).
    let mut loudest_rooms = engine
        .register("SELECT TOP 3 roomid, AVG(sound) FROM sensors GROUP BY roomid")
        .expect("snapshot Top-K admits");
    let mut all_rooms = engine
        .register("SELECT roomid, AVG(sound) FROM sensors GROUP BY roomid")
        .expect("plain aggregation admits");
    let hot_nodes = engine
        .register("SELECT TOP 2 nodeid, sound FROM sensors LIFETIME 10 epochs")
        .expect("node monitoring admits");
    let hottest_instants = engine
        .register("SELECT TOP 3 epoch, AVG(sound) FROM sensors GROUP BY epoch WITH HISTORY 20 epochs")
        .expect("historic queries admit too");

    // One shared loop serves all of them: readings are acquired once per epoch, the
    // fixed substrate cost is charged once, and the sliding windows every historic
    // session answers from are fed once — not once per query.
    engine.run_epochs(15);

    // poll() drains the answers produced since the handle's last poll.
    println!("after 15 epochs, the loudest rooms produced {} new answers", loudest_rooms.poll().len());

    // A user walks away mid-stream; the others are unaffected (their answers are
    // byte-identical to what they would see running alone — see ADR-003/ADR-005).
    all_rooms.cancel();
    engine.run_epochs(15);

    println!("\nafter 30 shared epochs:");
    for session in engine.sessions() {
        let totals = session.totals();
        println!("  session {} [{:?}] {}", session.id(), session.status(), session.sql());
        println!(
            "    {} answers; attributed traffic: {} msgs, {} B, {:.1} mJ",
            session.results().len(),
            totals.messages,
            totals.bytes,
            totals.energy_uj / 1000.0
        );
        if let Some(latest) = session.latest() {
            println!("    latest: {latest}");
        }
    }

    assert_eq!(hot_nodes.status(), SessionStatus::Completed, "LIFETIME elapsed");
    assert_eq!(
        hottest_instants.status(),
        SessionStatus::Completed,
        "the historic session answered from the shared windows and completed"
    );
    assert_eq!(hottest_instants.results().len(), 1, "historic sessions answer exactly once");
    assert_eq!(loudest_rooms.results().len(), 30);

    // The per-query slices plus the unscoped per-epoch substrate baseline (and the
    // shared window-maintenance cost, charged once per epoch for ALL historic
    // sessions) make up the whole ledger.
    let grand = engine.metrics().totals();
    println!(
        "shared substrate grand total: {} msgs, {} B, {:.1} mJ (window maintenance: {:.1} mJ)",
        grand.messages,
        grand.bytes,
        grand.energy_uj / 1000.0,
        engine.window_maintenance_energy_uj() / 1000.0
    );

    // --- cross-query frame batching (ADR-004) ------------------------------------
    // Re-run the same sessions with the frame scheduler off and on: with batching,
    // every node's per-epoch reports across all sessions leave as ONE merged frame
    // (one preamble + header instead of one per session).  The venue is lossless, so
    // every session's answers are byte-identical either way — only the overhead
    // disappears.
    let replay = |batched: bool| {
        let mut engine = server.engine().with_frame_batching(batched);
        let sessions: Vec<Session> = [
            "SELECT TOP 3 roomid, AVG(sound) FROM sensors GROUP BY roomid",
            "SELECT roomid, AVG(sound) FROM sensors GROUP BY roomid",
            "SELECT TOP 2 nodeid, sound FROM sensors",
        ]
        .iter()
        .map(|sql| engine.register(sql).expect("admits"))
        .collect();
        engine.run_epochs(30);
        let answers: Vec<_> = sessions.iter().map(|s| s.results()).collect();
        let per_session: Vec<u64> = sessions.iter().map(|s| s.totals().bytes).collect();
        let total = engine.metrics().totals().bytes;
        (answers, per_session, total)
    };
    let (plain_answers, plain_bytes, plain_total) = replay(false);
    let (batched_answers, batched_bytes, batched_total) = replay(true);
    assert_eq!(plain_answers, batched_answers, "lossless batching never changes answers");

    println!("\nframe batching (30 epochs, same sessions, same answers):");
    println!("  {:<12} {:>14} {:>14}", "session", "bytes (off)", "bytes (on)");
    for (i, (off, on)) in plain_bytes.iter().zip(&batched_bytes).enumerate() {
        println!("  session {i:<4} {off:>14} {on:>14}");
    }
    let saved = 100.0 * (1.0 - batched_total as f64 / plain_total as f64);
    println!("  {:<12} {plain_total:>14} {batched_total:>14}  ({saved:.1}% saved)", "total");
    assert!(batched_total < plain_total, "merged frames must shed overhead");
}
