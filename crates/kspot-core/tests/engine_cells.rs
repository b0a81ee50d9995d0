//! The engine's central guarantee, checked against the kspot-testkit scenario matrix:
//! a query session's per-epoch answers and attributed metrics are **byte-identical**
//! whether it shares the epoch loop with other sessions or runs the loop alone.
//!
//! The cells are [`kspot_testkit::smoke_cells`]: the testkit's `smoke` subset
//! (2 topologies × 2 workloads × 3 fault profiles × one K/N point = 12 cells), built
//! whatever feature set kspot-testkit itself was compiled with.
//! Faulted cells matter most here: per-session loss streams are what keeps a lossy
//! channel's draws independent of which other queries share the substrate.
//!
//! Historic (`WITH HISTORY`) sessions get the same treatment in `historic_cells.rs`.

use kspot_core::{QueryEngine, QueryId, ScenarioConfig, Session, SessionStatus};
use kspot_net::rng::mix_seed;
use kspot_testkit::{smoke_cells, FaultProfile, ScenarioCell, TopologyKind, WorkloadProfile};

/// The four concurrent queries every cell registers: one per continuous strategy
/// (MINT snapshot Top-K, TAG aggregation, centralized raw collection, FILA node
/// monitoring).
const QUERIES: [&str; 4] = [
    "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid",
    "SELECT roomid, AVG(sound) FROM sensors GROUP BY roomid",
    "SELECT * FROM sensors",
    "SELECT TOP 2 nodeid, sound FROM sensors",
];

/// Boots an engine over a cell's exact substrate (topology + faulted network +
/// workload) and registers every query, returning the engine and the session handles.
fn engine_for(cell: &ScenarioCell) -> (QueryEngine, Vec<Session>) {
    let d = cell.deployment();
    let scenario = ScenarioConfig::custom(cell.label(), "sound", d.clone());
    let mut engine =
        QueryEngine::from_substrate(scenario, cell.network(&d), cell.workload(&d));
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
fn shared_loop_results_equal_per_query_loop_results_on_every_smoke_cell() {
    for cell in smoke_cells(0xE16E, 12) {
        let label = cell.label();
        let (mut shared, sessions) = engine_for(&cell);
        shared.run_epochs(cell.epochs);

        for (i, session) in sessions.iter().enumerate() {
            // The per-query loop: the same engine construction and registration order
            // (ids must match — they key the per-session loss streams), with every
            // *other* session cancelled before the first epoch runs.
            let (mut solo, mut solo_sessions) = engine_for(&cell);
            assert_eq!(ids(&solo_sessions), ids(&sessions), "{label}: registration order must reproduce ids");
            for other in solo_sessions.iter_mut() {
                if other.id() != session.id() {
                    assert!(other.cancel());
                }
            }
            solo.run_epochs(cell.epochs);
            assert_eq!(solo.active_sessions(), 1);

            let survivor = &solo_sessions[i];
            assert_eq!(
                shared.session(session.id()).expect("session exists").results(),
                survivor.results(),
                "{label}: query {i} ({}) answers diverged between shared and solo loops",
                QUERIES[i]
            );
            assert_eq!(
                session.totals(),
                survivor.totals(),
                "{label}: query {i} ({}) attributed metrics diverged between shared and solo loops",
                QUERIES[i]
            );
        }
    }
}

#[test]
fn shared_loop_replays_bit_for_bit_on_every_smoke_cell() {
    for cell in smoke_cells(0xE16E, 12) {
        let label = cell.label();
        let run = || {
            let (mut engine, sessions) = engine_for(&cell);
            engine.run_epochs(cell.epochs);
            sessions.iter().map(|s| (s.results(), s.totals())).collect::<Vec<_>>()
        };
        assert_eq!(run(), run(), "{label}: the shared loop is not deterministic");
    }
}

#[test]
fn mid_run_cancellation_does_not_perturb_the_surviving_sessions() {
    // Stronger than the solo comparison: on a lossy cell, cancel half the sessions
    // midway — the survivors' remaining answers must still match the uninterrupted
    // shared run, because no session's channel depends on another's lifetime.
    let cell = ScenarioCell {
        topology: TopologyKind::ClusteredRooms,
        workload: WorkloadProfile::RoomCorrelated,
        fault: FaultProfile::LossyLinks,
        nodes: 12,
        groups: 4,
        k: 2,
        epochs: 12,
        window: 16,
        master_seed: mix_seed(0xE16E, &[99]),
    };
    let (mut uninterrupted, full_run) = engine_for(&cell);
    uninterrupted.run_epochs(12);

    let (mut interrupted, mut half_run) = engine_for(&cell);
    assert_eq!(ids(&half_run), ids(&full_run));
    interrupted.run_epochs(6);
    assert!(half_run[1].cancel());
    assert!(half_run[2].cancel());
    interrupted.run_epochs(6);

    for survivor in [0usize, 3] {
        assert_eq!(
            full_run[survivor].results(),
            half_run[survivor].results(),
            "a survivor's answers changed because other sessions were cancelled"
        );
    }
    assert_eq!(half_run[1].status(), SessionStatus::Cancelled);
    assert_eq!(half_run[1].results().len(), 6);
}
