//! `AS OF` time-travel sessions checked against the kspot-testkit scenario matrix
//! (ADR-005), mirroring `historic_cells.rs` for the checkpoint-served class:
//!
//! 1. **Shared vs solo**: an `AS OF` session's answer and attributed metrics are
//!    byte-identical whether it shares the engine with the full mixed session set
//!    (continuous, historic and a sibling `AS OF`) or runs with every other session
//!    cancelled, on all 12 smoke cells including lossy and death cells.
//! 2. **Checkpoint image vs fresh-bank replay**: on cells whose channel is
//!    deterministic at query time (lossless and node-death), the answer an `AS OF`
//!    session produces from the restored checkpoint image is byte-identical to the
//!    ground-truth oracle — a fresh [`kspot_net::WindowBank`] fed from the same
//!    workload stream up to the snapshot epoch and executed on a dedicated network.
//!    (Lossy cells draw their channel from per-scope streams whose state differs
//!    between the two execution models, so the replay comparison is scoped out there
//!    — the shared-vs-solo law above still pins them.)
//! 3. **Durability**: serializing the store, rebuilding it with
//!    [`CheckpointStore::from_bytes`] and adopting it into a brand-new engine over the
//!    same substrate reproduces byte-identical `AS OF` answers and attributed
//!    metrics on all 12 cells — the snapshots round-trip through the page images,
//!    not through any in-memory state of the first engine.
//! 4. **Restart anywhere**: an engine restarted from the store at every retained
//!    checkpoint epoch of each cell answers every historic and `AS OF` session that is
//!    live at the restart or registered after it bit for bit as the run that never
//!    stopped does — answers and attributed metrics.  Continuous sessions are left out:
//!    a continuous MINT session's answers depend on the session's past (its threshold),
//!    which a restart does not carry.

use kspot_algos::historic::HistoricAlgorithm;
use kspot_algos::{BankWindows, HistoricSpec, LocalAggregateHistoric, Tja};
use kspot_core::{QueryEngine, QueryId, ScenarioConfig, Session, SessionStatus};
use kspot_net::types::ValueDomain;
use kspot_net::{Epoch, WindowBank};
use kspot_query::AggFunc;
use kspot_store::CheckpointStore;
use kspot_testkit::{smoke_cells, FaultProfile, ScenarioCell};

/// The mixed registration every cell runs before time travel: two continuous
/// strategies riding the same loop as two historic ones, all over the cell's
/// 16-epoch window — the `AS OF` sessions register on top of this set.
const QUERIES: [&str; 4] = [
    "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid",
    "SELECT TOP 2 epoch, AVG(sound) FROM sensors GROUP BY epoch WITH HISTORY 16 epochs",
    "SELECT * FROM sensors",
    "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid WITH HISTORY 16 epochs",
];

/// The time-travel queries: one vertically fragmented (→ TJA over the image) and one
/// horizontally fragmented (→ local-aggregate over the image), both naming the
/// retained snapshot [`AS_OF_EPOCH`].
const AS_OF_QUERIES: [&str; 2] = [
    "SELECT TOP 2 epoch, AVG(sound) FROM sensors GROUP BY epoch \
     WITH HISTORY 16 epochs AS OF 11",
    "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid \
     WITH HISTORY 16 epochs AS OF 11",
];

/// The snapshot epoch both `AS OF` queries name.  With the mixed set registered
/// up front (bank fed from engine epoch 0) and [`CADENCE`] = 4, checkpoints land on
/// epochs 3, 7, 11, 15 — epoch 11 is retained well before eviction.
const AS_OF_EPOCH: Epoch = 11;

/// Checkpoint cadence every cell's engine runs with.
const CADENCE: u64 = 4;

/// The cells' epoch count: one beyond the window, so the `AS OF` tick after the
/// buffering run stays inside the cell's declared span, and the node-death profile
/// still kills its victim mid-buffering.
const EPOCHS: usize = 17;

/// Boots a checkpointing engine over a cell's exact substrate and registers the
/// mixed query set.
fn engine_for(cell: &ScenarioCell) -> (QueryEngine, Vec<Session>) {
    let d = cell.deployment();
    let scenario = ScenarioConfig::custom(cell.label(), "sound", d.clone());
    let mut engine = QueryEngine::from_substrate(scenario, cell.network(&d), cell.workload(&d))
        .with_checkpointing(CADENCE);
    let sessions = QUERIES
        .iter()
        .map(|sql| engine.register(sql).unwrap_or_else(|e| panic!("{}: {sql}: {e}", cell.label())))
        .collect();
    (engine, sessions)
}

/// Registers both `AS OF` queries (admissible only once epoch 11 is retained).
fn register_as_of(engine: &mut QueryEngine, label: &str) -> Vec<Session> {
    AS_OF_QUERIES
        .iter()
        .map(|sql| engine.register(sql).unwrap_or_else(|e| panic!("{label}: {sql}: {e}")))
        .collect()
}

fn ids(sessions: &[Session]) -> Vec<QueryId> {
    sessions.iter().map(Session::id).collect()
}

#[test]
fn as_of_sessions_are_byte_identical_shared_vs_solo_on_every_smoke_cell() {
    for cell in smoke_cells(0x570E, EPOCHS) {
        let label = cell.label();
        let (mut shared, mixed) = engine_for(&cell);
        shared.run_epochs(cell.window);
        assert_eq!(
            shared.checkpoint_epochs(),
            vec![3, 7, 11, 15],
            "{label}: the cadence-4 run must retain exactly these snapshots"
        );
        let as_of = register_as_of(&mut shared, &label);
        shared.run_epochs(1);

        // Checkpoint writes and restore reads obey the storage conservation law.
        let storage = kspot_testkit::check_storage_attribution(&shared.metrics());
        assert!(storage.is_empty(), "{label}: {storage:?}");

        for (i, session) in as_of.iter().enumerate() {
            assert_eq!(
                session.status(),
                SessionStatus::Completed,
                "{label}: an admitted AS OF session answers on the next tick"
            );
            let results = session.results();
            assert_eq!(results.len(), 1, "{label}: exactly one answer");
            assert_eq!(
                results[0].epoch, AS_OF_EPOCH,
                "{label}: the answer is stamped with the snapshot epoch"
            );

            // The solo twin: same registration order (so every scope id matches),
            // everything except this one AS OF session cancelled.
            let (mut solo, mut solo_mixed) = engine_for(&cell);
            assert_eq!(ids(&solo_mixed), ids(&mixed), "{label}: id mismatch");
            for other in solo_mixed.iter_mut() {
                assert!(other.cancel());
            }
            solo.run_epochs(cell.window);
            let mut solo_as_of = register_as_of(&mut solo, &label);
            assert_eq!(ids(&solo_as_of), ids(&as_of), "{label}: AS OF id mismatch");
            for (j, other) in solo_as_of.iter_mut().enumerate() {
                if j != i {
                    assert!(other.cancel());
                }
            }
            solo.run_epochs(1);

            assert_eq!(
                session.results(),
                solo_as_of[i].results(),
                "{label}: AS OF query {i} ({}) answers diverged between shared and \
                 solo loops",
                AS_OF_QUERIES[i]
            );
            assert_eq!(
                session.totals(),
                solo_as_of[i].totals(),
                "{label}: AS OF query {i} ({}) attributed metrics diverged between \
                 shared and solo loops",
                AS_OF_QUERIES[i]
            );
        }
    }
}

#[test]
fn as_of_answers_match_a_fresh_bank_replay_on_deterministic_cells() {
    for cell in smoke_cells(0x570E, EPOCHS) {
        if cell.fault == FaultProfile::LossyLinks {
            continue; // per-scope loss streams legitimately differ from replay streams
        }
        let label = cell.label();
        let (mut engine, _mixed) = engine_for(&cell);
        engine.run_epochs(cell.window);
        let as_of = register_as_of(&mut engine, &label);
        engine.run_epochs(1);

        // The ground-truth oracle: a fresh bank fed from the same workload stream up
        // to (and including) the snapshot epoch — exactly the image the checkpoint
        // must have captured — executed on a dedicated network at the tick epoch the
        // engine answered the session on (the window after the buffering run).
        let d = cell.deployment();
        let mut workload = cell.workload(&d);
        let mut bank = WindowBank::new(cell.window);
        while workload.upcoming_epoch() <= AS_OF_EPOCH {
            let readings = workload.next_epoch();
            bank.feed(&readings);
        }
        let tick_epoch = cell.window as Epoch;

        let replay = |algo: &mut dyn HistoricAlgorithm| {
            let mut net = cell.network(&d);
            net.begin_epoch(tick_epoch);
            let mut oracle = bank.clone();
            let mut view = BankWindows::new(&mut oracle, cell.window);
            let result = algo.execute(&mut net, &mut view);
            let totals = net.metrics().totals();
            (result, totals)
        };

        let tja_spec =
            HistoricSpec::new(2, AggFunc::Avg, ValueDomain::percentage(), cell.window);
        let (tja_replay, tja_totals) = replay(&mut Tja::new(tja_spec));
        assert_eq!(
            as_of[0].results(),
            vec![tja_replay],
            "{label}: the checkpoint-served TJA answer diverged from the fresh-bank \
             replay oracle"
        );
        let scoped = as_of[0].totals();
        assert_eq!(
            (scoped.messages, scoped.bytes, scoped.tuples),
            (tja_totals.messages, tja_totals.bytes, tja_totals.tuples),
            "{label}: the checkpoint-served TJA traffic diverged from the replay oracle"
        );

        let (local_replay, _) = replay(&mut LocalAggregateHistoric::new(cell.snapshot_spec()));
        assert_eq!(
            as_of[1].results(),
            vec![local_replay],
            "{label}: the checkpoint-served local-aggregate answer diverged from the \
             fresh-bank replay oracle"
        );
    }
}

#[test]
fn a_serialized_store_restored_into_a_new_engine_answers_as_of_identically() {
    for cell in smoke_cells(0x570E, EPOCHS) {
        let label = cell.label();

        // First life: buffer 12 epochs (snapshots 3, 7, 11), persist the store, then
        // answer both AS OF queries on the very next tick (engine epoch 12).
        let d = cell.deployment();
        let scenario = ScenarioConfig::custom(cell.label(), "sound", d.clone());
        let mut first =
            QueryEngine::from_substrate(scenario, cell.network(&d), cell.workload(&d))
                .with_checkpointing(CADENCE);
        let historic: Vec<Session> = [QUERIES[1], QUERIES[3]]
            .iter()
            .map(|sql| first.register(sql).unwrap_or_else(|e| panic!("{label}: {e}")))
            .collect();
        first.run_epochs(12);
        assert_eq!(first.checkpoint_epochs(), vec![3, 7, 11], "{label}: retained set");
        let bytes = first.checkpoint_store_bytes().expect("checkpointing engine");
        let first_as_of = register_as_of(&mut first, &label);
        first.run_epochs(1);

        // Second life: a brand-new engine over the same substrate adopts the store
        // rebuilt from the serialized pages and resumes at epoch 12 — the same tick
        // the first life answered on.  Registration order mirrors the first life so
        // every scope id (and with it every per-scope stream) lines up.
        let scenario = ScenarioConfig::custom(cell.label(), "sound", d.clone());
        let store = CheckpointStore::from_bytes(&bytes)
            .unwrap_or_else(|e| panic!("{label}: the persisted store must decode: {e}"));
        let mut second =
            QueryEngine::from_substrate(scenario, cell.network(&d), cell.workload(&d))
                .with_checkpoint_store(store);
        assert_eq!(second.checkpoint_epochs(), vec![3, 7, 11], "{label}: adopted set");
        let waiting: Vec<Session> = [QUERIES[1], QUERIES[3]]
            .iter()
            .map(|sql| second.register(sql).unwrap_or_else(|e| panic!("{label}: {e}")))
            .collect();
        assert_eq!(ids(&waiting), ids(&historic), "{label}: id mismatch");
        let second_as_of = register_as_of(&mut second, &label);
        assert_eq!(ids(&second_as_of), ids(&first_as_of), "{label}: AS OF id mismatch");
        second.run_epochs(1);

        for (i, (a, b)) in first_as_of.iter().zip(&second_as_of).enumerate() {
            assert_eq!(b.status(), SessionStatus::Completed, "{label}: restored answer");
            assert_eq!(
                a.results(),
                b.results(),
                "{label}: AS OF query {i} answers diverged after the store round-trip"
            );
            assert_eq!(
                a.totals(),
                b.totals(),
                "{label}: AS OF query {i} attributed metrics diverged after the store \
                 round-trip"
            );
        }
    }
}

/// Checkpoint cadence of the restart sweep: snapshots at epochs 2, 5, 8, 11 and 14,
/// each one a restart point.
const SWEEP_CADENCE: u64 = 3;

/// What the restart sweep registers before every tick: a live TJA and a live local
/// aggregate over the last four epochs, and both over four epochs `AS OF` every
/// retained snapshot.
fn tick_queries(retained: &[Epoch]) -> Vec<String> {
    let vertical = "SELECT TOP 2 epoch, AVG(sound) FROM sensors GROUP BY epoch WITH HISTORY 4 epochs";
    let horizontal = "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid WITH HISTORY 4 epochs";
    let mut queries = vec![vertical.to_string(), horizontal.to_string()];
    for epoch in retained {
        queries.push(format!("{vertical} AS OF {epoch}"));
        queries.push(format!("{horizontal} AS OF {epoch}"));
    }
    queries
}

#[test]
fn an_engine_restarted_at_any_retained_checkpoint_answers_as_the_one_that_never_stopped() {
    let boot = |cell: &ScenarioCell| {
        let d = cell.deployment();
        let scenario = ScenarioConfig::custom(cell.label(), "sound", d.clone());
        QueryEngine::from_substrate(scenario, cell.network(&d), cell.workload(&d))
    };
    let mut restarts = 0;
    for cell in smoke_cells(0x570E, EPOCHS) {
        let label = cell.label();
        // The run that never stops: the two 16-epoch historic queries from epoch 0, then
        // before every tick the tick's queries.  After each checkpoint its store bytes,
        // and which sessions had finished by then.
        let mut whole = boot(&cell).with_checkpointing(SWEEP_CADENCE);
        let mut sql: Vec<String> = vec![QUERIES[1].to_string(), QUERIES[3].to_string()];
        let mut sessions: Vec<Session> =
            sql.iter().map(|q| whole.register(q).unwrap_or_else(|e| panic!("{label}: {q}: {e}"))).collect();
        let mut saved: Vec<(Epoch, Vec<u8>, Vec<bool>)> = Vec::new();
        for tick in 0..EPOCHS as Epoch {
            for q in tick_queries(&whole.checkpoint_epochs()) {
                sessions.push(whole.register(&q).unwrap_or_else(|e| panic!("{label}: {q}: {e}")));
                sql.push(q);
            }
            whole.run_epochs(1);
            if whole.checkpoint_epochs().last() == Some(&tick) {
                let bytes = whole.checkpoint_store_bytes().expect("a checkpointing engine");
                let finished = sessions.iter().map(|s| s.status() != SessionStatus::Active).collect();
                saved.push((tick, bytes, finished));
            }
        }
        let retained = whole.checkpoint_epochs();
        assert_eq!(retained, vec![2, 5, 8, 11, 14], "{label}: the cadence-3 run retains these");
        assert_eq!(saved.iter().map(|(at, ..)| *at).collect::<Vec<_>>(), retained, "{label}");

        for (at, bytes, finished) in &saved {
            // A new engine adopts the store as it was after epoch `at` and resumes at
            // `at + 1`.  The sessions registered until then are registered again, in
            // order, so every scope id lines up; those that had finished are cancelled.
            let store = CheckpointStore::from_bytes(bytes).unwrap_or_else(|e| panic!("{label}: {e}"));
            let mut restarted = boot(&cell).with_checkpoint_store(store);
            let mut twins: Vec<Session> = Vec::new();
            for (q, &done) in sql.iter().zip(finished) {
                let mut twin = restarted.register(q).unwrap_or_else(|e| panic!("{label}, restart at {at}: {q}: {e}"));
                if done {
                    assert!(twin.cancel(), "{label}: a fresh session cancels");
                }
                twins.push(twin);
            }
            // Then the tick's queries, tick by tick, as the whole run registered them.
            for _ in at + 1..EPOCHS as Epoch {
                for q in tick_queries(&restarted.checkpoint_epochs()) {
                    assert_eq!(Some(&q), sql.get(twins.len()), "{label}, restart at {at}: the same queries");
                    twins.push(restarted.register(&q).unwrap_or_else(|e| panic!("{label}: {q}: {e}")));
                }
                restarted.run_epochs(1);
            }
            assert_eq!(twins.len(), sessions.len(), "{label}, restart at {at}: every query registered");
            let answered = sessions[finished.len()..].iter().filter(|s| !s.results().is_empty()).count();
            assert!(answered > 0, "{label}, restart at {at}: the sessions after the restart answer");
            for (i, (a, b)) in sessions.iter().zip(&twins).enumerate().skip(finished.len()) {
                assert_eq!(a.id(), b.id(), "{label}, restart at {at}: session {i}'s id");
                assert_eq!(a.results(), b.results(), "{label}, restart at {at}: {}", sql[i]);
                assert_eq!(a.totals(), b.totals(), "{label}, restart at {at}: attributed metrics of {}", sql[i]);
            }
            for (i, done) in finished.iter().enumerate() {
                if !done {
                    let (a, b) = (&sessions[i], &twins[i]);
                    assert_eq!(a.results(), b.results(), "{label}, restart at {at}: live {}", sql[i]);
                    assert_eq!(a.totals(), b.totals(), "{label}, restart at {at}: live {}", sql[i]);
                }
            }
            restarts += 1;
        }
    }
    assert_eq!(restarts, 60, "five restart points on each of the 12 smoke cells");
}
