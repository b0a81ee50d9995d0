//! The fleet's central guarantee, checked against the kspot-testkit scenario matrix
//! (ADR-006): every deployment in an [`EngineFleet`] is **byte-identical** — per-epoch
//! answers and attributed metrics ledgers alike — to a solo [`QueryEngine`] built from
//! the same substrate and driven through the same registration sequence.
//!
//! The strongest configuration is one heterogeneous fleet whose 12 deployments *are*
//! the 12 smoke cells (2 topologies × 2 workloads × 3 fault profiles): every shard
//! runs a different topology, workload stream and fault regime concurrently on the
//! pool, and each must still reproduce its solo twin exactly.  Every deployment
//! registers a mixed continuous + historic query set, so the shared [`WindowBank`]
//! path and the per-session loss streams are both under test across shard boundaries.
//!
//! [`WindowBank`]: kspot_net::WindowBank

use kspot_core::{EngineFleet, QueryEngine, QueryId, ScenarioConfig, Session, SessionStatus};
use kspot_testkit::{smoke_cells, ScenarioCell};

/// The mixed registration every deployment runs: two continuous strategies riding the
/// same loop as two historic ones, as in `historic_cells.rs`.
const QUERIES: [&str; 4] = [
    "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid",
    "SELECT TOP 2 epoch, AVG(sound) FROM sensors GROUP BY epoch WITH HISTORY 16 epochs",
    "SELECT * FROM sensors",
    "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid WITH HISTORY 16 epochs",
];

/// Indices of the historic sessions within [`QUERIES`].
const HISTORIC: [usize; 2] = [1, 3];

/// The cells' epoch count: the window, so historic sessions answer within the run.
const EPOCHS: usize = 16;

/// Boots a solo engine over a cell's exact substrate — the deployment's twin.
fn solo_engine_for(cell: &ScenarioCell) -> QueryEngine {
    let d = cell.deployment();
    let scenario = ScenarioConfig::custom(cell.label(), "sound", d.clone());
    QueryEngine::from_substrate(scenario, cell.network(&d), cell.workload(&d))
}

/// One engine per smoke cell, in matrix order — the fleet's 12 deployments.
fn fleet_over_the_matrix(threads: usize) -> (EngineFleet, Vec<ScenarioCell>) {
    let cells = smoke_cells(0xF1EE, EPOCHS);
    let engines = cells.iter().map(solo_engine_for).collect();
    (EngineFleet::from_engines(engines, threads), cells)
}

/// Registers the mixed query set on deployment `d` of a fleet.
fn register_mix(fleet: &EngineFleet, d: usize, label: &str) -> Vec<Session> {
    QUERIES
        .iter()
        .map(|sql| fleet.try_register(d, sql).unwrap_or_else(|e| panic!("{label}: {sql}: {e}")))
        .collect()
}

fn ids(sessions: &[Session]) -> Vec<QueryId> {
    sessions.iter().map(Session::id).collect()
}

#[test]
fn every_deployment_is_byte_identical_to_its_solo_twin_on_all_smoke_cells() {
    let (fleet, cells) = fleet_over_the_matrix(4);
    let fleet_sessions: Vec<Vec<Session>> = cells
        .iter()
        .enumerate()
        .map(|(d, cell)| register_mix(&fleet, d, &cell.label()))
        .collect();
    fleet.run_epochs(EPOCHS);

    for (d, cell) in cells.iter().enumerate() {
        let label = cell.label();
        let mut solo = solo_engine_for(cell);
        let solo_sessions: Vec<Session> = QUERIES
            .iter()
            .map(|sql| solo.register(sql).unwrap_or_else(|e| panic!("{label}: {sql}: {e}")))
            .collect();
        assert_eq!(
            ids(&solo_sessions),
            ids(&fleet_sessions[d]),
            "{label}: fleet routing must reproduce the solo engine's session ids"
        );
        solo.run_epochs(EPOCHS);

        for (i, (in_fleet, in_solo)) in
            fleet_sessions[d].iter().zip(&solo_sessions).enumerate()
        {
            assert_eq!(
                in_fleet.results(),
                in_solo.results(),
                "{label}: query {i} ({}) answers diverged between fleet shard {d} and solo",
                QUERIES[i]
            );
            assert_eq!(
                in_fleet.totals(),
                in_solo.totals(),
                "{label}: query {i} ({}) attributed metrics diverged between fleet shard {d} and solo",
                QUERIES[i]
            );
            if HISTORIC.contains(&i) {
                assert_eq!(in_fleet.status(), SessionStatus::Completed, "{label}: query {i}");
                assert_eq!(in_fleet.results().len(), 1, "{label}: exactly one historic answer");
            }
        }
    }
}

#[test]
fn the_pool_size_is_invisible_to_every_deployment() {
    // The same heterogeneous fleet run with 1, 3 and 8 workers must produce the same
    // bytes on every shard: the pool decides *when* a shard runs, never *what* it
    // computes.
    let run = |threads: usize| {
        let (fleet, cells) = fleet_over_the_matrix(threads);
        let sessions: Vec<Vec<Session>> = cells
            .iter()
            .enumerate()
            .map(|(d, cell)| register_mix(&fleet, d, &cell.label()))
            .collect();
        fleet.run_epochs(EPOCHS);
        sessions
            .iter()
            .map(|per_shard| per_shard.iter().map(|s| (s.results(), s.totals())).collect::<Vec<_>>())
            .collect::<Vec<_>>()
    };
    let serial = run(1);
    assert_eq!(serial, run(3), "a 3-worker pool changed some shard's bytes");
    assert_eq!(serial, run(8), "an oversubscribed pool changed some shard's bytes");
}

#[test]
fn mid_run_cancellation_on_one_shard_does_not_perturb_its_neighbors() {
    // Cancel half of shard 1's sessions halfway through the run.  Shard 1's survivors
    // must match the uninterrupted fleet (the engine_cells law, per shard), and every
    // *other* shard must stay byte-identical in full — a neighbor's lifecycle events
    // are invisible across deployment boundaries.
    let collect = |sessions: &[Vec<Session>]| {
        sessions
            .iter()
            .map(|per_shard| per_shard.iter().map(|s| (s.results(), s.totals())).collect::<Vec<_>>())
            .collect::<Vec<_>>()
    };

    let (uninterrupted, cells) = fleet_over_the_matrix(4);
    let full_sessions: Vec<Vec<Session>> = cells
        .iter()
        .enumerate()
        .map(|(d, cell)| register_mix(&uninterrupted, d, &cell.label()))
        .collect();
    uninterrupted.run_epochs(EPOCHS);
    let full = collect(&full_sessions);

    let (interrupted, cells) = fleet_over_the_matrix(4);
    let mut half_sessions: Vec<Vec<Session>> = cells
        .iter()
        .enumerate()
        .map(|(d, cell)| register_mix(&interrupted, d, &cell.label()))
        .collect();
    interrupted.run_epochs(EPOCHS / 2);
    // Cancel shard 1's continuous raw-collection session and its in-flight vertical
    // historic session; the snapshot Top-K and the other historic session survive.
    assert!(half_sessions[1][1].cancel());
    assert!(half_sessions[1][2].cancel());
    interrupted.run_epochs(EPOCHS / 2);
    let half = collect(&half_sessions);

    for d in 0..cells.len() {
        if d == 1 {
            continue;
        }
        assert_eq!(
            full[d], half[d],
            "{}: shard {d} was perturbed by cancellations on shard 1",
            cells[d].label()
        );
    }
    for survivor in [0usize, 3] {
        assert_eq!(
            full[1][survivor].0,
            half[1][survivor].0,
            "shard 1: surviving session {survivor} changed because a neighbor session was cancelled"
        );
    }
    assert_eq!(half_sessions[1][1].status(), SessionStatus::Cancelled);
    assert_eq!(half_sessions[1][2].status(), SessionStatus::Cancelled);
    assert_eq!(half_sessions[1][2].results().len(), EPOCHS / 2);
}

#[test]
fn the_fleet_replays_bit_for_bit() {
    let run = || {
        let (fleet, cells) = fleet_over_the_matrix(4);
        let sessions: Vec<Vec<Session>> = cells
            .iter()
            .enumerate()
            .map(|(d, cell)| register_mix(&fleet, d, &cell.label()))
            .collect();
        fleet.run_epochs(EPOCHS);
        sessions
            .iter()
            .map(|per_shard| per_shard.iter().map(|s| (s.results(), s.totals())).collect::<Vec<_>>())
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run(), "the heterogeneous fleet is not deterministic run-to-run");
}
