//! Frame-batching semantics, checked against the kspot-testkit scenario matrix
//! (ADR-004): on every smoke-equivalent cell, piggy-backing all sessions' reports into
//! one merged frame per node per epoch must
//!
//! 1. never spend more total upstream bytes than the unbatched run,
//! 2. keep the per-scope attribution a exact decomposition of the shared ledger, and
//! 3. leave every session's per-epoch answers byte-identical to the unbatched run on
//!    lossless cells (on lossy cells the channel is legitimately drawn per *frame*,
//!    so only the conservation and bytes-≤ claims apply), and
//! 4. keep a session's observed channel **invariant to co-registered sessions** even
//!    under loss: merged-frame fates are drawn from a stream keyed by the frame's
//!    `(sender, receiver, epoch)` hop, never in frame-open order (the batched-mode
//!    loss-fairness guarantee, ADR-005).
//!
//! The unbatched (default) path itself is covered by `engine_cells.rs`, which pins the
//! ADR-003 byte-identity guarantee cell by cell — those tests run unchanged, which is
//! what "the legacy path is preserved verbatim" means operationally.

use kspot_core::{QueryEngine, QueryId, ScenarioConfig, Session};
use kspot_net::rng::mix_seed;
use kspot_testkit::{
    check_ledger, check_scope_attribution, smoke_cells, FaultProfile, ScenarioCell, TopologyKind,
    WorkloadProfile,
};

/// The four concurrent queries every cell registers: one per continuous strategy
/// (MINT snapshot Top-K, TAG aggregation, centralized raw collection, FILA node
/// monitoring).
const QUERIES: [&str; 4] = [
    "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid",
    "SELECT roomid, AVG(sound) FROM sensors GROUP BY roomid",
    "SELECT * FROM sensors",
    "SELECT TOP 2 nodeid, sound FROM sensors",
];

/// Boots an engine over a cell's exact substrate, with or without frame batching, and
/// registers every query.
fn engine_for(cell: &ScenarioCell, batched: bool) -> (QueryEngine, Vec<Session>) {
    let d = cell.deployment();
    let scenario = ScenarioConfig::custom(cell.label(), "sound", d.clone());
    let mut engine = QueryEngine::from_substrate(scenario, cell.network(&d), cell.workload(&d))
        .with_frame_batching(batched);
    let sessions = QUERIES
        .iter()
        .map(|sql| engine.register(sql).unwrap_or_else(|e| panic!("{}: {sql}: {e}", cell.label())))
        .collect();
    (engine, sessions)
}

fn ids(sessions: &[Session]) -> Vec<QueryId> {
    sessions.iter().map(Session::id).collect()
}

#[test]
fn batching_never_spends_more_bytes_and_conserves_attribution_on_every_smoke_cell() {
    for cell in smoke_cells(0xF4A8, 12) {
        let label = cell.label();
        let (mut plain, plain_sessions) = engine_for(&cell, false);
        plain.run_epochs(cell.epochs);
        let (mut batched, batched_sessions) = engine_for(&cell, true);
        assert_eq!(
            ids(&plain_sessions),
            ids(&batched_sessions),
            "{label}: registration order must reproduce ids"
        );
        batched.run_epochs(cell.epochs);

        // (1) One merged frame per hop can only remove per-session overhead.
        let plain_totals = plain.metrics().totals();
        let batched_totals = batched.metrics().totals();
        assert!(
            batched_totals.bytes <= plain_totals.bytes,
            "{label}: batching spent more bytes ({} > {})",
            batched_totals.bytes,
            plain_totals.bytes
        );
        assert!(
            batched_totals.messages <= plain_totals.messages,
            "{label}: batching put more frames on the air ({} > {})",
            batched_totals.messages,
            plain_totals.messages
        );

        // (2) Attribution conservation: every transmission of the engine runs under a
        // session scope, and the merged-frame shares partition the ledger exactly.
        for (who, engine) in [("unbatched", &plain), ("batched", &batched)] {
            let violations = check_scope_attribution(&engine.metrics(), true);
            assert!(violations.is_empty(), "{label} ({who}): {violations:?}");
            let ledger = check_ledger(&engine.metrics());
            assert!(ledger.is_empty(), "{label} ({who}): {ledger:?}");
        }

        // (3) On lossless cells, every session's answers are byte-identical; a lossy
        // or death channel is drawn per frame under batching, so there only the
        // invariants above are claimed.
        if cell.fault.is_lossless() {
            for (i, (p, b)) in plain_sessions.iter().zip(&batched_sessions).enumerate() {
                assert_eq!(
                    p.results(),
                    b.results(),
                    "{label}: query {i} ({}) answers diverged under lossless batching",
                    QUERIES[i]
                );
            }
            assert_eq!(
                plain_totals.tuples, batched_totals.tuples,
                "{label}: lossless batching must move the identical payload"
            );
        }
    }
}

#[test]
fn under_batching_a_sessions_channel_is_invariant_to_co_registered_sessions() {
    // The batched-mode loss-fairness regression (ROADMAP item, ADR-005): merged-frame
    // fates are keyed by (sender, receiver, epoch), so on a *lossy* cell a session's
    // answers with batching on must be byte-identical whether it shares the loop with
    // three other sessions or runs alone — the co-registered sessions change which
    // frames exist and who rides them, but never the channel any session observes.
    for cell in smoke_cells(0xF4A8, 12).into_iter().filter(|c| c.fault == FaultProfile::LossyLinks) {
        let label = cell.label();
        let (mut shared, shared_sessions) = engine_for(&cell, true);
        shared.run_epochs(cell.epochs);

        for (i, session) in shared_sessions.iter().enumerate() {
            let (mut solo, mut solo_sessions) = engine_for(&cell, true);
            assert_eq!(ids(&solo_sessions), ids(&shared_sessions), "{label}: id mismatch");
            for other in solo_sessions.iter_mut() {
                if other.id() != session.id() {
                    assert!(other.cancel());
                }
            }
            solo.run_epochs(cell.epochs);
            assert_eq!(
                session.results(),
                solo_sessions[i].results(),
                "{label}: query {i} ({}) observed a different lossy channel because \
                 other sessions shared its frames",
                QUERIES[i]
            );
        }
    }
}

#[test]
fn batched_runs_replay_bit_for_bit() {
    let cell = ScenarioCell {
        topology: TopologyKind::ClusteredRooms,
        workload: WorkloadProfile::RoomCorrelated,
        fault: FaultProfile::LossyLinks,
        nodes: 12,
        groups: 4,
        k: 2,
        epochs: 12,
        window: 16,
        master_seed: mix_seed(0xF4A8, &[77]),
    };
    let run = || {
        let (mut engine, sessions) = engine_for(&cell, true);
        engine.run_epochs(cell.epochs);
        sessions.iter().map(|s| (s.results(), s.totals())).collect::<Vec<_>>()
    };
    assert_eq!(run(), run(), "{}: the batched loop is not deterministic", cell.label());
}

#[test]
fn toggling_batching_between_runs_keeps_the_ledger_coherent() {
    // Batching is a runtime switch, not a substrate property: flip it between bursts
    // of epochs and the conservation laws must hold across the mixed ledger.
    let cell = ScenarioCell {
        topology: TopologyKind::ClusteredRooms,
        workload: WorkloadProfile::RoomCorrelated,
        fault: FaultProfile::Lossless,
        nodes: 12,
        groups: 4,
        k: 2,
        epochs: 12,
        window: 16,
        master_seed: mix_seed(0xF4A8, &[88]),
    };
    let (mut engine, sessions) = engine_for(&cell, false);
    engine.run_epochs(4);
    let mut engine = engine.with_frame_batching(true);
    engine.run_epochs(4);
    let mut engine = engine.with_frame_batching(false);
    engine.run_epochs(4);
    for session in &sessions {
        assert_eq!(session.results().len(), 12);
    }
    let violations = check_scope_attribution(&engine.metrics(), true);
    assert!(violations.is_empty(), "{violations:?}");
    assert!(check_ledger(&engine.metrics()).is_empty());
}
