//! Historic sessions checked against the kspot-testkit scenario matrix (ADR-005),
//! mirroring `engine_cells.rs` for the `WITH HISTORY` class:
//!
//! 1. **Shared vs solo**: a historic session's answer and attributed metrics are
//!    byte-identical whether it shares the engine with other sessions (continuous
//!    *and* historic — every cell registers a mixed set) or runs with every other
//!    session cancelled, on all 12 smoke cells including lossy and death cells.
//! 2. **Engine-shared windows vs per-submission replay**: on cells whose channel is
//!    deterministic at query time (lossless and node-death), the answer a registered
//!    historic session produces from the engine-fed [`kspot_net::WindowBank`] is
//!    byte-identical to the replay path — a fresh `BankWindows::collect`
//!    pass over the same workload stream and a dedicated network.  (Lossy cells draw
//!    their channel from per-scope streams whose state differs between the two
//!    execution models, so the replay comparison is scoped out there — the shared-vs-
//!    solo law above still pins them.)
//! 3. Historic runs replay bit-for-bit.

use kspot_algos::historic::HistoricAlgorithm;
use kspot_algos::{BankWindows, HistoricSpec, LocalAggregateHistoric, Tja};
use kspot_core::{QueryEngine, QueryId, ScenarioConfig, Session, SessionStatus};
use kspot_net::rng::mix_seed;
use kspot_net::types::ValueDomain;
use kspot_net::Epoch;
use kspot_query::AggFunc;
use kspot_testkit::{FaultProfile, ScenarioCell, TopologyKind, WorkloadProfile};

/// The mixed registration every cell runs: two continuous strategies riding the same
/// loop as two historic ones (vertically fragmented → TJA, horizontally fragmented →
/// local-aggregate), all over the cell's 16-epoch window.
const QUERIES: [&str; 4] = [
    "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid",
    "SELECT TOP 2 epoch, AVG(sound) FROM sensors GROUP BY epoch WITH HISTORY 16 epochs",
    "SELECT * FROM sensors",
    "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid WITH HISTORY 16 epochs",
];

/// Indices of the historic sessions within [`QUERIES`].
const HISTORIC: [usize; 2] = [1, 3];

/// The smoke-equivalent cell set (mirrors `engine_cells.rs`; epochs = the window so
/// the node-death profile kills its victim mid-buffering, *before* query time).
fn smoke_cells() -> Vec<ScenarioCell> {
    let topologies = [TopologyKind::ClusteredRooms, TopologyKind::LinearChain];
    let workloads = [WorkloadProfile::RoomCorrelated, WorkloadProfile::DriftingHotSpot];
    let faults = [FaultProfile::Lossless, FaultProfile::LossyLinks, FaultProfile::NodeDeath];
    let mut cells = Vec::new();
    for (ti, &topology) in topologies.iter().enumerate() {
        for (wi, &workload) in workloads.iter().enumerate() {
            for (fi, &fault) in faults.iter().enumerate() {
                cells.push(ScenarioCell {
                    topology,
                    workload,
                    fault,
                    nodes: 12,
                    groups: 4,
                    k: 2,
                    epochs: 16,
                    window: 16,
                    master_seed: mix_seed(0x415C, &[ti as u64, wi as u64, fi as u64]),
                });
            }
        }
    }
    assert_eq!(cells.len(), 12);
    cells
}

/// Boots an engine over a cell's exact substrate and registers the mixed query set.
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
fn historic_sessions_are_byte_identical_shared_vs_solo_on_every_smoke_cell() {
    for cell in smoke_cells() {
        let label = cell.label();
        let (mut shared, sessions) = engine_for(&cell);
        shared.run_epochs(cell.window);
        for (i, session) in sessions.iter().enumerate() {
            if HISTORIC.contains(&i) {
                assert_eq!(
                    session.status(),
                    SessionStatus::Completed,
                    "{label}: the window filled, the historic session must have answered"
                );
                assert_eq!(session.results().len(), 1, "{label}: exactly one answer");
            }

            let (mut solo, mut solo_sessions) = engine_for(&cell);
            assert_eq!(ids(&solo_sessions), ids(&sessions), "{label}: id mismatch");
            for other in solo_sessions.iter_mut() {
                if other.id() != session.id() {
                    assert!(other.cancel());
                }
            }
            solo.run_epochs(cell.window);

            assert_eq!(
                session.results(),
                solo_sessions[i].results(),
                "{label}: query {i} ({}) answers diverged between shared and solo loops",
                QUERIES[i]
            );
            assert_eq!(
                session.totals(),
                solo_sessions[i].totals(),
                "{label}: query {i} ({}) attributed metrics diverged between shared and solo loops",
                QUERIES[i]
            );
        }
    }
}

#[test]
fn engine_shared_windows_match_the_per_submission_replay_on_deterministic_cells() {
    for cell in smoke_cells() {
        if cell.fault == FaultProfile::LossyLinks {
            continue; // per-scope loss streams legitimately differ from replay streams
        }
        let label = cell.label();
        let (mut engine, sessions) = engine_for(&cell);
        engine.run_epochs(cell.window);

        // The replay path: buffer the window from the same workload stream
        // into a fresh per-submission bank, then execute on a dedicated network at
        // the query epoch — the per-submission model the shared windows replaced.
        let d = cell.deployment();
        let data = BankWindows::collect(&mut cell.workload(&d), cell.window);
        let query_epoch: Epoch = data.snapshot_epoch().expect("non-empty window");

        let replay = |algo: &mut dyn HistoricAlgorithm| {
            let mut net = cell.network(&d);
            net.begin_epoch(query_epoch);
            let mut data = data.clone();
            let result = algo.execute(&mut net, &mut data);
            let totals = net.metrics().totals();
            (result, totals)
        };

        let tja_spec = HistoricSpec::new(2, AggFunc::Avg, ValueDomain::percentage(), cell.window);
        let (tja_replay, tja_totals) = replay(&mut Tja::new(tja_spec));
        let engine_tja = sessions[1].results();
        assert_eq!(
            engine_tja,
            vec![tja_replay],
            "{label}: the engine-fed TJA answer diverged from the collection replay"
        );
        let scoped = sessions[1].totals();
        assert_eq!(
            (scoped.messages, scoped.bytes, scoped.tuples),
            (tja_totals.messages, tja_totals.bytes, tja_totals.tuples),
            "{label}: the engine-fed TJA traffic diverged from the collection replay"
        );

        let (local_replay, _) = replay(&mut LocalAggregateHistoric::new(cell.snapshot_spec()));
        assert_eq!(
            sessions[3].results(),
            vec![local_replay],
            "{label}: the engine-fed local-aggregate answer diverged from the replay"
        );
    }
}

#[test]
fn historic_runs_replay_bit_for_bit() {
    let cell = ScenarioCell {
        topology: TopologyKind::ClusteredRooms,
        workload: WorkloadProfile::RoomCorrelated,
        fault: FaultProfile::LossyLinks,
        nodes: 12,
        groups: 4,
        k: 2,
        epochs: 16,
        window: 16,
        master_seed: mix_seed(0x415C, &[55]),
    };
    let run = || {
        let (mut engine, sessions) = engine_for(&cell);
        engine.run_epochs(cell.window);
        sessions.iter().map(|s| (s.results(), s.totals())).collect::<Vec<_>>()
    };
    assert_eq!(run(), run(), "{}: historic sessions are not deterministic", cell.label());
}
