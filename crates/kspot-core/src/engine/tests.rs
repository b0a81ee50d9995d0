use super::*;
use crate::server::KSpotServer;
use kspot_algos::{HistoricSpec, RankedItem, TopKResult};
use kspot_net::codec::{put_u32, Reader};
use kspot_net::types::ValueDomain;
use kspot_net::{Deployment, NodeId, PhaseTotals};
use kspot_query::plan::QueryClass;
use kspot_query::AggFunc;

fn engine(seed: u64) -> QueryEngine {
    KSpotServer::new(ScenarioConfig::conference()).with_seed(seed).engine()
}

const EIGHT_QUERIES: [&str; 8] = [
    "SELECT TOP 1 roomid, AVG(sound) FROM sensors GROUP BY roomid",
    "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid",
    "SELECT TOP 3 roomid, MAX(sound) FROM sensors GROUP BY roomid",
    "SELECT TOP 4 roomid, SUM(sound) FROM sensors GROUP BY roomid",
    "SELECT roomid, AVG(sound) FROM sensors GROUP BY roomid",
    "SELECT * FROM sensors",
    "SELECT TOP 2 nodeid, sound FROM sensors",
    "SELECT TOP 5 roomid, MIN(sound) FROM sensors GROUP BY roomid",
];

const HISTORIC_VERTICAL: &str =
    "SELECT TOP 3 epoch, AVG(sound) FROM sensors GROUP BY epoch WITH HISTORY 16 epochs";
const HISTORIC_HORIZONTAL: &str =
    "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid WITH HISTORY 16 epochs";

#[test]
fn eight_concurrent_sessions_share_one_epoch_loop_with_attribution() {
    let mut engine = engine(3);
    let sessions: Vec<Session> =
        EIGHT_QUERIES.iter().map(|sql| engine.register(sql).expect("registers")).collect();
    assert_eq!(engine.active_sessions(), 8);
    engine.run_epochs(20);
    assert_eq!(engine.epochs_run(), 20);

    let mut attributed_energy = 0.0;
    for session in &sessions {
        let results = session.results();
        assert_eq!(results.len(), 20, "every session answers every epoch");
        let totals = session.totals();
        assert!(totals.messages > 0, "session {} moved traffic", session.id());
        attributed_energy += totals.energy_uj;
    }
    // Attribution decomposes the shared ledger: scoped totals account for all
    // radio traffic; the remainder of the grand total is the unscoped per-epoch
    // substrate baseline, charged once per epoch rather than once per query.
    let grand = engine.metrics().totals();
    let attributed_messages: u64 = sessions.iter().map(|s| s.totals().messages).sum();
    assert_eq!(attributed_messages, grand.messages);
    assert!(attributed_energy < grand.energy_uj);
    let baseline = grand.energy_uj - attributed_energy;
    let per_epoch = engine.network().config().energy.epoch_baseline_cost();
    let expected = per_epoch * 20.0 * engine.network().num_nodes() as f64;
    assert!((baseline - expected).abs() < 1e-6, "baseline charged once per epoch: {baseline} vs {expected}");
}

#[test]
fn registration_routes_by_query_semantics() {
    let mut engine = engine(1);
    let mint = engine.register(EIGHT_QUERIES[0]).unwrap();
    let tag = engine.register(EIGHT_QUERIES[4]).unwrap();
    let raw = engine.register(EIGHT_QUERIES[5]).unwrap();
    let fila = engine.register(EIGHT_QUERIES[6]).unwrap();
    let tja = engine.register(HISTORIC_VERTICAL).unwrap();
    let local = engine.register(HISTORIC_HORIZONTAL).unwrap();
    assert_eq!(mint.algorithm(), "KSpot (MINT views)");
    assert_eq!(tag.algorithm(), "TAG + sink Top-K");
    assert!(raw.algorithm().contains("centralized"));
    assert!(fila.algorithm().contains("FILA"));
    assert!(tja.algorithm().contains("TJA"));
    assert_eq!(local.algorithm(), "local filter + MINT update");
    assert_eq!(mint.sql(), EIGHT_QUERIES[0]);
    assert_eq!(mint.clone().finalize().plan.k, 1);
    assert_eq!(mint.clone().finalize().plan.class(), QueryClass::Continuous);
    assert_eq!(tja.clone().finalize().plan.class(), QueryClass::Historic);
    assert!(engine.register("SELEKT nope").is_err(), "parse errors propagate");
}

#[test]
fn historic_sessions_admit_answer_once_from_shared_windows_and_complete() {
    let mut engine = engine(9);
    let mut tja = engine.register(HISTORIC_VERTICAL).expect("historic queries admit");
    let witness = engine.register(EIGHT_QUERIES[0]).unwrap();
    assert_eq!(engine.active_sessions(), 2);
    engine.run_epochs(10);
    assert_eq!(tja.status(), SessionStatus::Active, "10 epochs < the 16-epoch window");
    assert!(tja.results().is_empty(), "no answer before the window fills");
    engine.run_epochs(10);
    assert_eq!(tja.status(), SessionStatus::Completed, "answered and completed");
    let results = tja.results();
    assert_eq!(results.len(), 1, "historic sessions answer exactly once");
    assert_eq!(results[0].epoch, 15, "answered the epoch its window filled");
    assert_eq!(results[0].items.len(), 3);
    let totals = tja.totals();
    assert!(totals.messages > 0, "the historic protocol moved scoped traffic");
    assert!(
        engine.window_maintenance_energy_uj() > 0.0,
        "the shared windows were fed and charged"
    );
    assert_eq!(witness.results().len(), 20, "continuous sessions are unaffected");
    assert!(!tja.cancel(), "completed sessions cannot be cancelled");
}

#[test]
fn a_lifetime_clause_bounds_a_historic_session_that_never_fills_its_window() {
    let mut engine = engine(14).with_max_sessions(1);
    let bounded = engine
        .register(
            "SELECT TOP 3 epoch, AVG(sound) FROM sensors GROUP BY epoch \
             WITH HISTORY 100 epochs LIFETIME 5 epochs",
        )
        .unwrap();
    engine.run_epochs(5);
    assert_eq!(
        bounded.status(),
        SessionStatus::Completed,
        "the lifetime elapsed before the 100-epoch window could fill"
    );
    assert!(bounded.results().is_empty(), "the query's lifetime ended unanswered");
    engine
        .register(EIGHT_QUERIES[0])
        .expect("the expired historic session no longer holds the admission slot");
}

#[test]
fn a_late_historic_session_answers_immediately_from_prebuffered_windows() {
    let mut engine = engine(10);
    let first = engine.register(HISTORIC_VERTICAL).unwrap();
    engine.run_epochs(30);
    assert_eq!(first.status(), SessionStatus::Completed);
    // The bank now holds 16+ epochs: a second session over the same span answers
    // in its very first epoch, from the windows everyone shares.
    let late = engine.register(HISTORIC_VERTICAL).unwrap();
    engine.run_epochs(1);
    assert_eq!(late.status(), SessionStatus::Completed);
    let results = late.results();
    assert_eq!(results.len(), 1);
    assert_eq!(results[0].epoch, 30, "answered over the live window, at its own epoch");
}

#[test]
fn a_longer_window_registered_after_growth_waits_for_a_genuinely_covered_span() {
    // The bank buffered 16 epochs under capacity 16 and then grew to 24: the
    // evicted history is gone, so the 24-epoch session must NOT answer until 24
    // epochs are really buffered — epochs-ever-fed is not coverage.
    let mut engine = engine(12);
    let short = engine.register(HISTORIC_VERTICAL).unwrap(); // window 16
    engine.run_epochs(20);
    assert_eq!(short.status(), SessionStatus::Completed);
    let long = engine
        .register("SELECT TOP 2 epoch, AVG(sound) FROM sensors GROUP BY epoch WITH HISTORY 24 epochs")
        .unwrap();
    engine.run_epochs(3);
    assert_eq!(
        long.status(),
        SessionStatus::Active,
        "only 19 epochs are buffered (16 kept at growth + 3 new) — the span is not covered"
    );
    engine.run_epochs(5);
    assert_eq!(long.status(), SessionStatus::Completed, "24 buffered epochs cover the span");
    assert_eq!(long.results()[0].epoch, 27, "answered the epoch its span was first covered");
}

#[test]
fn poll_and_stream_drain_new_results_per_handle() {
    let mut engine = engine(6);
    let mut session = engine.register(EIGHT_QUERIES[0]).unwrap();
    let mut clone = session.clone();
    engine.run_epochs(3);
    assert_eq!(session.poll().len(), 3);
    assert!(session.poll().is_empty(), "a second poll sees nothing new");
    engine.run_epochs(2);
    let polled = session.poll();
    assert_eq!(polled.len(), 2, "only the answers since the last poll");
    assert_eq!(polled, session.results()[3..].to_vec());
    // The clone's cursor is independent.
    assert_eq!(clone.poll().len(), 5);
    assert!(clone.poll().is_empty());
}

/// A [`Session::deliver`] sink that accepts every answer it is lent into `lent`.
fn lend(lent: &mut Vec<TopKResult>) -> impl FnMut(Epoch, &[RankedItem]) -> bool + '_ {
    |epoch, items| {
        lent.push(TopKResult { epoch, items: items.to_vec() });
        true
    }
}

#[test]
fn a_delivery_is_the_matching_slice_of_results_with_pending_and_status() {
    let mut engine = engine(6);
    let active = engine.register(EIGHT_QUERIES[0]).unwrap();
    let bounded = format!("{} LIFETIME 4 epochs", EIGHT_QUERIES[1]);
    let completed = engine.register(&bounded).unwrap();
    let mut cancelled = engine.register(EIGHT_QUERIES[1]).unwrap();
    engine.run_epochs(3);
    assert!(cancelled.cancel());
    engine.run_epochs(4);

    for (session, status, total) in [
        (&active, SessionStatus::Active, 7),
        (&completed, SessionStatus::Completed, 4),
        (&cancelled, SessionStatus::Cancelled, 3),
    ] {
        let all = session.results();
        assert_eq!(all.len(), total);
        // Handles at every cursor up to the end; windows of none, some and all.
        for cursor in 0..=total {
            for max in [0, 1, 2, total, usize::MAX] {
                let mut handle = engine.session(session.id()).expect("resident");
                assert_eq!(handle.deliver(cursor, |_, _| true).delivered, cursor);
                let end = cursor.saturating_add(max).min(total);
                let mut lent = Vec::new();
                let delivery = handle.deliver(max, lend(&mut lent));
                assert_eq!(lent, all[cursor..end], "cursor {cursor}, max {max}");
                assert_eq!(delivery, Delivery { delivered: end - cursor, pending: total - end, status });
            }
        }
        // A refused answer is not consumed: the next delivery offers it first.
        let mut handle = engine.session(session.id()).expect("resident");
        let mut lent = Vec::new();
        let refused = handle.deliver(usize::MAX, |epoch, items| {
            if !lent.is_empty() {
                return false;
            }
            lent.push(TopKResult { epoch, items: items.to_vec() });
            true
        });
        assert_eq!(refused, Delivery { delivered: 1, pending: total - 1, status });
        assert_eq!(handle.deliver(usize::MAX, lend(&mut lent)).pending, 0);
        assert_eq!(lent, all, "every answer once, in order");
    }
}

#[test]
fn finalize_converts_a_session_into_a_query_execution() {
    let mut engine = engine(8);
    let session = engine.register(EIGHT_QUERIES[1]).unwrap();
    engine.run_epochs(6);
    let totals = session.totals();
    let execution = session.finalize();
    assert_eq!(execution.results.len(), 6);
    assert_eq!(execution.panel.kspot.name, "KSpot (MINT views)");
    assert_eq!(execution.plan.k, 2);
    assert!(execution.panel.baselines.is_empty(), "finalize attaches no comparison runs");
    assert_eq!(execution.panel.kspot.totals, totals, "the panel is the session's slice");
}

#[test]
fn admission_cap_rejects_excess_queries() {
    let mut engine = engine(1).with_max_sessions(2);
    let mut first = engine.register(EIGHT_QUERIES[0]).unwrap();
    engine.register(EIGHT_QUERIES[1]).unwrap();
    let err = engine.register(EIGHT_QUERIES[2]).unwrap_err();
    assert!(err.to_string().contains("admission"), "{err}");
    // Cancellation frees a slot.
    assert!(first.cancel());
    engine.register(EIGHT_QUERIES[2]).expect("slot freed by cancellation");
}

#[test]
fn cancelled_sessions_stop_executing_but_keep_their_results() {
    let mut engine = engine(5);
    let mut a = engine.register(EIGHT_QUERIES[0]).unwrap();
    let b = engine.register(EIGHT_QUERIES[1]).unwrap();
    engine.run_epochs(4);
    assert!(a.cancel());
    assert!(!a.cancel(), "double-cancel reports false");
    assert!(engine.session(99).is_none(), "unknown ids yield no handle");
    engine.run_epochs(4);
    assert_eq!(a.results().len(), 4, "no further epochs after cancel");
    assert_eq!(b.results().len(), 8);
    assert_eq!(a.status(), SessionStatus::Cancelled);
    assert_eq!(b.status(), SessionStatus::Active);
    let frozen = a.totals();
    engine.run_epochs(2);
    assert_eq!(a.totals(), frozen, "cancelled sessions accrue no traffic");
}

#[test]
fn sessions_join_mid_stream_and_lifetimes_expire() {
    let mut engine = engine(7);
    let early = engine.register(EIGHT_QUERIES[0]).unwrap();
    engine.run_epochs(5);
    let late = engine
        .register("SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid LIFETIME 3 epochs")
        .unwrap();
    engine.run_epochs(10);
    assert_eq!(early.results().len(), 15);
    let late_results = late.results();
    assert_eq!(late_results.len(), 3, "LIFETIME 3 epochs serves exactly 3 epochs");
    assert_eq!(late_results[0].epoch, 5, "late sessions join the live epoch stream");
    assert_eq!(late.status(), SessionStatus::Completed);
}

#[test]
fn a_fully_served_lifetime_completes_immediately_and_frees_its_admission_slot() {
    let mut engine = engine(2).with_max_sessions(1);
    let bounded = engine
        .register("SELECT TOP 1 roomid, AVG(sound) FROM sensors GROUP BY roomid LIFETIME 3 epochs")
        .unwrap();
    engine.run_epochs(3);
    assert_eq!(bounded.status(), SessionStatus::Completed, "served in full");
    assert_eq!(bounded.results().len(), 3);
    engine
        .register(EIGHT_QUERIES[1])
        .expect("the slot frees the moment the lifetime is served");
}

#[test]
fn frame_batching_keeps_answers_and_saves_bytes_on_a_lossless_field() {
    let run = |batched: bool| {
        let mut e = engine(13).with_frame_batching(batched);
        assert_eq!(e.network().frame_batching(), batched);
        let sessions: Vec<Session> =
            EIGHT_QUERIES.iter().map(|sql| e.register(sql).unwrap()).collect();
        e.run_epochs(16);
        let answers: Vec<_> = sessions.iter().map(|s| s.results()).collect();
        let scoped_bytes: u64 = sessions.iter().map(|s| s.totals().bytes).sum();
        let totals = e.metrics().totals();
        (answers, totals, scoped_bytes)
    };
    let (plain_answers, plain_totals, _) = run(false);
    let (batched_answers, batched_totals, batched_scoped) = run(true);
    assert_eq!(
        plain_answers, batched_answers,
        "on a lossless substrate batching must not change any session's answers"
    );
    assert_eq!(plain_totals.tuples, batched_totals.tuples, "the same payload moves");
    assert!(
        batched_totals.bytes < plain_totals.bytes,
        "merged frames must save overhead: {} vs {}",
        batched_totals.bytes,
        plain_totals.bytes
    );
    assert!(batched_totals.messages < plain_totals.messages);
    // The attribution conservation law: all radio traffic is scoped, and the
    // pro-rata shares partition every merged frame exactly.
    assert_eq!(batched_scoped, batched_totals.bytes);
}

#[test]
fn depleted_during_run_flags_exactly_the_sessions_that_shared_the_drained_field() {
    // A battery that survives the first two epochs of traffic and then dies
    // (relay nodes on the conference scenario draw a few thousand µJ per epoch).
    let drained_field = || {
        KSpotServer::new(ScenarioConfig::conference())
            .with_network_config(NetworkConfig::mica2().with_battery_uj(10_000.0))
            .with_seed(1)
            .engine()
    };
    let mut engine = drained_field();
    let early = engine
        .register("SELECT TOP 1 roomid, AVG(sound) FROM sensors GROUP BY roomid LIFETIME 2 epochs")
        .unwrap();
    let witness = engine.register(EIGHT_QUERIES[0]).unwrap();
    engine.run_epochs(2);
    assert_eq!(early.status(), SessionStatus::Completed);
    assert!(
        !early.depleted_during_run(),
        "the short session finished before any battery died"
    );
    // Two historic sessions join: one whose window can never fill before its
    // lifetime ends, and one that answers once its 4-epoch window fills.
    let waiting = engine
        .register(
            "SELECT TOP 3 epoch, AVG(sound) FROM sensors GROUP BY epoch \
             WITH HISTORY 100 epochs LIFETIME 6 epochs",
        )
        .unwrap();
    let answering = engine
        .register("SELECT TOP 3 epoch, AVG(sound) FROM sensors GROUP BY epoch WITH HISTORY 4 epochs")
        .unwrap();
    engine.run_epochs(3);
    assert!(!engine.network().is_alive(), "a battery died before the window filled");
    assert_eq!(answering.status(), SessionStatus::Active);
    let late = engine.register(EIGHT_QUERIES[2]).unwrap();
    assert!(!late.depleted_during_run(), "a session that has not run yet is unflagged");
    engine.run_epochs(1);
    assert!(
        late.depleted_during_run(),
        "a session registered after the battery died is flagged after its first epoch"
    );
    engine.run_epochs(6);
    assert!(
        witness.depleted_during_run(),
        "the long session ran epochs on a field with an exhausted battery"
    );
    assert!(!early.depleted_during_run(), "completed sessions stay unflagged");
    assert_eq!(waiting.status(), SessionStatus::Completed);
    assert!(waiting.results().is_empty(), "the lifetime ended before the window filled");
    assert!(
        !waiting.depleted_during_run(),
        "a historic session that never answered took part in no depleted epoch"
    );
    assert_eq!(answering.results().len(), 1);
    assert!(
        answering.depleted_during_run(),
        "a historic session that answered in a depleted epoch is flagged"
    );

    // Both edges of the flag: a session that ran and was cancelled before the death
    // stays unflagged, and one cancelled right after the epoch that drained the
    // battery is flagged.
    let mut engine = drained_field();
    let mut cancelled = engine.register(EIGHT_QUERIES[0]).unwrap();
    let mut at_death = engine.register(EIGHT_QUERIES[0]).unwrap();
    engine.run_epochs(1);
    assert!(engine.network().is_alive());
    assert!(cancelled.cancel());
    for _ in 0..8 {
        if !engine.network().is_alive() {
            break;
        }
        engine.run_epochs(1);
    }
    assert!(!engine.network().is_alive(), "a battery died after the cancel");
    assert!(at_death.cancel());
    engine.run_epochs(2);
    assert_eq!(cancelled.results().len(), 1);
    assert!(!cancelled.depleted_during_run(), "a session cancelled before the death stays unflagged");
    assert!(at_death.depleted_during_run(), "a session whose last epoch drained the battery is flagged");
}

#[test]
fn session_reports_carve_the_per_query_phase_table_out_of_the_shared_ledger() {
    let mut engine = engine(4);
    let mint = engine.register(EIGHT_QUERIES[0]).unwrap();
    let raw = engine.register(EIGHT_QUERIES[5]).unwrap();
    engine.run_epochs(8);

    let report = mint.clone().finalize().panel.kspot;
    assert!(report.name.contains("MINT"));
    assert_eq!(report.epochs, 8);
    assert_eq!(report.totals, mint.totals());
    assert!(!report.phases.is_empty(), "the scope×phase table is populated");
    let phase_bytes: u64 = report.phases.iter().map(|(_, t)| t.bytes).sum();
    assert_eq!(phase_bytes, report.totals.bytes, "phases partition the scope's bytes");

    // The raw-collection session only ever moves Update traffic.
    let raw_phases: Vec<_> = engine.metrics().scope_phases(raw.id()).collect();
    assert_eq!(raw_phases.len(), 1);
    assert_eq!(raw_phases[0].0, kspot_net::PhaseTag::Update);
}

#[test]
fn checkpoints_follow_the_cadence_only_once_windows_exist() {
    let mut engine = engine(21).with_checkpointing(4);
    // No historic session yet: no windows, so no checkpoints and no page traffic
    // — a checkpointing engine serving only continuous queries stays identical
    // to a plain one.
    engine.register(EIGHT_QUERIES[0]).unwrap();
    engine.run_epochs(8);
    assert!(engine.checkpoint_epochs().is_empty());
    assert_eq!(engine.metrics().storage_totals().pages_written, 0);
    assert_eq!(engine.checkpoint_storage_bytes(), 0);

    // A historic registration creates the windows; snapshots then land every 4
    // *fed* epochs (the bank started feeding at engine epoch 8).
    let hist = engine.register(HISTORIC_VERTICAL).unwrap();
    engine.run_epochs(16);
    assert_eq!(hist.status(), SessionStatus::Completed);
    assert_eq!(engine.checkpoint_epochs(), vec![11, 15, 19, 23]);
    assert!(engine.checkpoint_storage_bytes() > 0);
    let st = engine.metrics().storage_totals();
    assert!(st.pages_written > 0, "checkpoint writes are on the ledger");
    assert!(st.energy_uj > 0.0);
}

#[test]
fn as_of_sessions_answer_from_the_named_snapshot_under_their_own_scope() {
    let mut engine = engine(21).with_checkpointing(4);
    let live = engine.register(HISTORIC_VERTICAL).unwrap();
    engine.run_epochs(16);
    assert_eq!(engine.checkpoint_epochs(), vec![3, 7, 11, 15]);

    let sql = "SELECT TOP 3 epoch, AVG(sound) FROM sensors GROUP BY epoch \
               WITH HISTORY 8 epochs AS OF 11";
    let time_travel = engine.register(sql).expect("a retained epoch admits");
    let read_before = engine.metrics().storage_totals().pages_read;
    engine.run_epochs(1);
    assert_eq!(time_travel.status(), SessionStatus::Completed);
    let results = time_travel.results();
    assert_eq!(results.len(), 1, "AS OF answers exactly once");
    assert_eq!(results[0].epoch, 11, "the answer is stamped with the snapshot epoch");
    assert_eq!(results[0].items.len(), 3);
    assert!(
        time_travel.totals().messages > 0,
        "the historic protocol ran under the AS OF session's scope"
    );
    let read_after = engine.metrics().storage_totals().pages_read;
    assert!(read_after > read_before, "restore page reads are on the ledger");
    assert!(
        results[0] != live.results()[0],
        "the 8-epoch AS OF answer differs from the live 16-epoch one"
    );
}

#[test]
fn as_of_admission_requires_a_store_and_a_retained_epoch() {
    let sql = "SELECT TOP 3 epoch, AVG(sound) FROM sensors GROUP BY epoch \
               WITH HISTORY 8 epochs AS OF 3";
    let mut plain = engine(22);
    let err = plain.register(sql).unwrap_err();
    assert!(err.to_string().contains("no durable snapshots"), "{err}");

    let mut checkpointing = engine(22).with_checkpointing(4);
    let err = checkpointing.register(sql).unwrap_err();
    assert!(err.to_string().contains("no retained checkpoint"), "{err}");
    // Once epoch 3 is actually retained the same SQL admits — and the AS OF
    // session never touches the live windows.
    checkpointing.register(HISTORIC_VERTICAL).unwrap();
    checkpointing.run_epochs(4);
    checkpointing.register(sql).expect("epoch 3 is now a retained snapshot");
}

#[test]
fn an_as_of_session_whose_snapshot_was_evicted_completes_unanswered() {
    use kspot_store::DEFAULT_RETENTION;
    let mut engine = engine(23).with_checkpointing(1);
    engine.register(HISTORIC_VERTICAL).unwrap();
    engine.run_epochs(16 + DEFAULT_RETENTION);
    let oldest = engine.checkpoint_epochs()[0];
    let stale = engine
        .register(&format!(
            "SELECT TOP 2 epoch, AVG(sound) FROM sensors GROUP BY epoch \
             WITH HISTORY 4 epochs AS OF {oldest}"
        ))
        .expect("the oldest snapshot is retained at admission time");
    // The very next epoch checkpoints again (cadence 1), evicting the oldest
    // image before the session's tick: the restore misses, and the session
    // completes unanswered instead of panicking (the epoch is wire-reachable).
    engine.run_epochs(1);
    assert!(!engine.checkpoint_epochs().contains(&oldest), "the ring moved on");
    assert_eq!(stale.status(), SessionStatus::Completed);
    assert!(stale.results().is_empty(), "no answer, no panic");
}

#[test]
fn historic_baselines_run_as_sessions_in_the_shared_loop_beyond_the_cap() {
    let mut engine = engine(24).with_max_sessions(1);
    let session = engine.register(HISTORIC_VERTICAL).unwrap();
    let baselines = engine.register_baselines(&session).expect("baselines bypass the cap");
    let handles: Vec<Session> =
        baselines.iter().map(|&id| engine.session(id).expect("a real session")).collect();
    let names: Vec<&str> = handles.iter().map(Session::algorithm).collect();
    assert_eq!(names, ["TPUT (flat)", "centralized window collection"]);
    engine.run_epochs(16);
    assert_eq!(session.status(), SessionStatus::Completed);
    for handle in &handles {
        let name = handle.algorithm();
        assert_eq!(handle.status(), SessionStatus::Completed, "{name}");
        assert_eq!(handle.results().len(), 1, "{name} answered from the shared windows");
        assert!(handle.totals().bytes > 0, "{name} moved scoped traffic");
        assert!(handle.sql().starts_with("baseline: "), "{name}");
    }
    let (tja_bytes, central) = (session.totals().bytes, handles[1].totals().bytes);
    assert!(
        tja_bytes < central,
        "TJA must beat shipping whole windows: {tja_bytes} vs {central}"
    );
}

#[test]
fn finalize_reports_the_registered_baselines_per_query_class() {
    let names = |sql: &str, epochs: usize| -> Vec<String> {
        let mut engine = engine(4);
        let session = engine.register(sql).unwrap();
        engine.register_baselines(&session).unwrap();
        engine.run_epochs(epochs);
        session.finalize().panel.baselines.into_iter().map(|b| b.name).collect()
    };
    assert_eq!(names(EIGHT_QUERIES[0], 5), ["TAG + sink Top-K", "centralized collection"]);
    assert_eq!(names(EIGHT_QUERIES[4], 5), ["centralized collection"]);
    assert_eq!(names(EIGHT_QUERIES[6], 5), ["centralized collection"]);
    assert!(names(EIGHT_QUERIES[5], 5).is_empty(), "raw collection is its own baseline");
    assert_eq!(names(HISTORIC_VERTICAL, 16), ["TPUT (flat)", "centralized window collection"]);
    assert_eq!(names(HISTORIC_HORIZONTAL, 16), ["centralized window collection"]);
}

#[test]
fn a_negative_value_domain_refuses_window_ranking_and_keeps_the_engine_usable() {
    let config = ScenarioConfig::conference()
        .to_config_string()
        .replace("modality sound 0 100", "modality temperature -10 40");
    let scenario = ScenarioConfig::from_config_string(&config).expect("a valid scenario");
    let mut engine = KSpotServer::new(scenario).with_seed(30).engine();
    let err = engine
        .register("SELECT TOP 3 epoch, AVG(temperature) FROM sensors GROUP BY epoch WITH HISTORY 8 epochs")
        .expect_err("TJA cannot rank over a negative domain");
    assert!(err.to_string().contains("temperature domain is [-10, 40]"), "{err}");
    assert_eq!(engine.active_sessions(), 0, "the refusal left the engine usable");

    // The horizontal primary needs no threshold algebra; its window baseline does.
    let horizontal = engine
        .register("SELECT TOP 2 roomid, AVG(temperature) FROM sensors GROUP BY roomid WITH HISTORY 8 epochs")
        .expect("the local-aggregate primary admits");
    let err = engine.register_baselines(&horizontal).expect_err("no centralized windows");
    assert!(err.to_string().contains("[-10, 40]"), "{err}");
    let continuous = engine
        .register("SELECT TOP 2 roomid, AVG(temperature) FROM sensors GROUP BY roomid")
        .unwrap();
    engine.run_epochs(8);
    assert_eq!(horizontal.status(), SessionStatus::Completed);
    assert_eq!(horizontal.results().len(), 1);
    assert_eq!(continuous.results().len(), 8);
    assert_eq!(engine.active_sessions(), 1);
}

#[test]
fn a_restarted_engine_adopts_the_durable_store_and_answers_identically() {
    let seed = 25;
    let mut first = engine(seed).with_checkpointing(4);
    first.register(HISTORIC_VERTICAL).unwrap();
    first.run_epochs(16);
    let as_of_sql = "SELECT TOP 3 epoch, AVG(sound) FROM sensors GROUP BY epoch \
                     WITH HISTORY 8 epochs AS OF 15";
    let original = first.register(as_of_sql).unwrap();
    first.run_epochs(1);
    let bytes = first.checkpoint_store_bytes().expect("checkpointing is on");

    // Restart: a fresh engine over the same scenario adopts the serialised
    // store.  The round trip goes through encoded pages, not live memory, and
    // the restored AS OF answer is byte-identical.
    let store = kspot_store::CheckpointStore::from_bytes(&bytes).expect("rebuilds");
    let mut second = engine(seed).with_checkpoint_store(store);
    assert_eq!(second.checkpoint_epochs(), vec![3, 7, 11, 15]);
    let restored = second.register(as_of_sql).unwrap();
    second.run_epochs(1);
    assert_eq!(restored.results(), original.results());
}

#[test]
fn an_image_of_other_nodes_than_the_deployments_answers_over_the_nodes_they_share() {
    // A durable store need not come from this deployment: drop one node's record
    // from a valid image, append the record of a node the venue does not have, and
    // re-seal.  The image still decodes, so `AS OF` runs over it — with a node of
    // the routing tree that holds no window (TJA used to index its local list and
    // panic mid-epoch, poisoning the shard) and a window no node of the tree owns.
    let quiet = |seed| {
        KSpotServer::new(ScenarioConfig::conference())
            .with_network_config(NetworkConfig::ideal())
            .with_seed(seed)
            .engine()
    };
    let mut first = quiet(26).with_checkpointing(4);
    first.register(HISTORIC_VERTICAL).unwrap();
    first.run_epochs(16);
    let bytes = first.checkpoint_store_bytes().expect("checkpointing is on");
    let store = CheckpointStore::from_bytes(&bytes).expect("rebuilds");
    assert_eq!(store.latest_epoch(), Some(15));

    // The newest image is the tail of the log.  Header: magic, version, epoch,
    // capacity, node count (22 bytes); then per node its id, its sample count and
    // 16 bytes per sample; then the seal.
    let image_len = kspot_store::decode_manifest(&store.manifest_bytes())
        .expect("a store writes a valid manifest")
        .entries
        .last()
        .expect("four snapshots were taken")
        .len as usize;
    let mut image = bytes[bytes.len() - image_len..bytes.len() - 8].to_vec();
    let (dropped, foreign) = (6u32, 999u32);
    let mut records = Reader::at(&image, 22).expect("an image has a header");
    let (start, end) = loop {
        let start = records.pos();
        let node = records.u32().expect("a node id");
        let samples = records.u32().expect("a sample count");
        records.take(16 * samples as usize).expect("the node's samples");
        if node == dropped {
            break (start, records.pos());
        }
    };
    let record: Vec<u8> = image.drain(start..end).collect();
    put_u32(&mut image, foreign);
    image.extend_from_slice(&record[4..]);
    let image = kspot_store::checksum_seal(image);
    let mut tampered = kspot_store::encode_manifest(4, 1, &[(15, image.len())]);
    tampered.extend_from_slice(&image);
    let store = CheckpointStore::from_bytes(&tampered).expect("the tampered image is a valid one");

    // What the answer must be: exact over the windows of nodes the venue has.
    let spec = HistoricSpec::new(3, AggFunc::Avg, ValueDomain::percentage(), 8);
    let mut scratch = Network::new(Deployment::conference(), NetworkConfig::ideal());
    let mut view = store.restore(15, 8, &mut scratch).expect("epoch 15 is retained");
    let sources = view.source_nodes().to_vec();
    assert!(!sources.contains(&dropped) && sources.contains(&foreign));
    let shared: Vec<NodeId> = sources.into_iter().filter(|&node| node != foreign).collect();
    let exact = kspot_algos::historic::exact_over_source(&mut view, &spec, &shared);
    // A 16-sample record is two flash pages; node 999 has no flash to read here.
    assert_eq!(scratch.metrics().storage_totals().pages_read, 2 * shared.len() as u64);

    let mut second = quiet(26).with_checkpoint_store(store);
    let as_of = second
        .register("SELECT TOP 3 epoch, AVG(sound) FROM sensors GROUP BY epoch WITH HISTORY 8 epochs AS OF 15")
        .unwrap();
    let baselines = second.register_baselines(&as_of).unwrap();
    let horizontal = second
        .register("SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid WITH HISTORY 8 epochs AS OF 15")
        .unwrap();
    second.run_epochs(1);
    assert_eq!(as_of.status(), SessionStatus::Completed);
    assert_eq!(horizontal.status(), SessionStatus::Completed);
    assert_eq!(horizontal.results().len(), 1);
    let answer = &as_of.results()[0];
    assert!(answer.same_ranking(&exact) && answer.approx_eq(&exact, 1e-9), "TJA {answer} != {exact}");
    for (baseline, name) in baselines.iter().zip(["TPUT", "centralized"]) {
        let answer = &second.session(*baseline).expect("a baseline is a session").results()[0];
        assert!(answer.same_ranking(&exact) && answer.approx_eq(&exact, 1e-9), "{name} {answer} != {exact}");
    }
}

#[test]
fn a_polled_session_keeps_its_newest_window_and_a_fresh_handle_starts_at_its_base() {
    use kspot_net::RETENTION_WINDOW as WINDOW;
    let mut engine = engine(31);
    let mut session = engine.register(EIGHT_QUERIES[0]).unwrap();
    let unpolled = engine.register(EIGHT_QUERIES[1]).unwrap();
    let total = WINDOW + WINDOW / 2;
    let mut handed_out = Vec::new();
    for _ in 0..total {
        engine.run_epochs(1);
        handed_out.extend(session.poll());
    }
    assert_eq!(handed_out.len(), total, "every answer was handed out once");
    assert_eq!(session.results(), handed_out[total - WINDOW..], "the newest window is retained");
    assert_eq!(session.latest().as_ref(), handed_out.last());
    assert_eq!(unpolled.results().len(), total, "a session nobody polled keeps every answer");

    let mut fresh = engine.session(session.id()).expect("resident");
    let mut lent = Vec::new();
    let delivery = fresh.deliver(2, lend(&mut lent));
    assert_eq!(lent, handed_out[total - WINDOW..total - WINDOW + 2], "a fresh handle starts at the base");
    assert_eq!((delivery.delivered, delivery.pending), (2, WINDOW - 2), "…of the newest window");
    assert_eq!(fresh.poll(), handed_out[total - WINDOW + 2..], "…and goes on past what it accepted");
    drop(fresh);

    // A live handle that does not poll holds back everything it has not polled.
    let mut lagging = session.clone();
    for _ in 0..WINDOW + 10 {
        engine.run_epochs(1);
        session.poll();
    }
    assert_eq!(lagging.poll().len(), WINDOW + 10, "nothing a live handle has not polled is released");
    let execution = session.finalize();
    assert_eq!(execution.results.len(), WINDOW, "finalize reads what is retained");
    assert_eq!(execution.panel.kspot.epochs, total + WINDOW + 10, "the panel counts every answer");
}

#[test]
fn a_finished_session_is_reaped_with_its_last_handle_once_a_poll_drained_it() {
    let mut engine = engine(32);
    let mut session = engine.register(EIGHT_QUERIES[0]).unwrap();
    let clone = session.clone();
    let mut unpolled = engine.register(EIGHT_QUERIES[1]).unwrap();
    engine.run_epochs(3);
    assert_eq!(session.poll().len(), 3);
    assert!(session.cancel());
    let (id, totals) = (session.id(), session.totals());
    drop(session);
    assert!(engine.session(id).is_some(), "a live clone keeps the session");
    drop(clone);
    assert!(engine.session(id).is_none(), "reaped with its last handle");
    assert!(!engine.session_ids().contains(&id));
    {
        let metrics = engine.metrics();
        assert_eq!(metrics.scope(id), PhaseTotals::default(), "its rows left the scope axis");
        assert_eq!(metrics.retired_scopes(), totals, "…for the retired bucket");
        assert!(kspot_testkit::check_scope_attribution(&metrics, true).is_empty());
    }
    // Nobody polled this one: cancelled and let go, it stays readable.
    let unpolled_id = unpolled.id();
    assert!(unpolled.cancel());
    drop(unpolled);
    let kept = engine.session(unpolled_id).expect("a session nobody polled is never reaped");
    assert_eq!(kept.results().len(), 3);
}

#[test]
fn the_epoch_that_ends_a_drained_session_reaps_it_and_baselines_wait_for_their_primary() {
    let mut engine = engine(33);
    let mut waiting = engine
        .register(
            "SELECT TOP 3 epoch, AVG(sound) FROM sensors GROUP BY epoch \
             WITH HISTORY 100 epochs LIFETIME 3 epochs",
        )
        .unwrap();
    assert!(waiting.poll().is_empty());
    let id = waiting.id();
    drop(waiting);
    engine.run_epochs(2);
    assert!(engine.session(id).is_some(), "still waiting for its window");
    engine.run_epochs(1);
    assert!(engine.session(id).is_none(), "the epoch that ended it unanswered reaped it");

    let mut primary = engine.register(&format!("{} LIFETIME 2 epochs", EIGHT_QUERIES[0])).unwrap();
    let baselines = engine.register_baselines(&primary).unwrap();
    let mut handles: Vec<Session> =
        baselines.iter().map(|&b| engine.session(b).expect("a baseline is a session")).collect();
    engine.run_epochs(2);
    for handle in &mut handles {
        assert_eq!(handle.poll().len(), 2);
    }
    drop(handles);
    assert!(
        baselines.iter().all(|&b| engine.session(b).is_some()),
        "a resident primary's panel still reads its baselines"
    );
    let primary_id = primary.id();
    assert_eq!(primary.poll().len(), 2);
    assert_eq!(primary.finalize().panel.baselines.len(), 2);
    assert!(
        baselines.iter().chain([&primary_id]).all(|&s| engine.session(s).is_none()),
        "reaping the primary reaps its drained baselines"
    );
}

/// A polled engine whose finished sessions are reaped against a twin that polls
/// nothing and reaps nothing: the same answers and ledger totals, and the retired
/// bucket plus the resident scopes are every scope the twin booked.
#[test]
fn reaping_moves_nothing_simulated_and_retired_plus_resident_scopes_are_every_scope() {
    let run = |polled: bool| {
        let mut engine = engine(34).with_checkpointing(4);
        let mut resident = engine.register(EIGHT_QUERIES[0]).unwrap();
        let mut answers = Vec::new();
        let mut kept = Vec::new();
        for round in 0..24 {
            let sql = match (round % 3, engine.checkpoint_epochs().last()) {
                (0, _) => format!("{} LIFETIME 2 epochs", EIGHT_QUERIES[round % 8]),
                (1, Some(at)) => format!(
                    "SELECT TOP 3 epoch, AVG(sound) FROM sensors GROUP BY epoch \
                     WITH HISTORY 4 epochs AS OF {at}"
                ),
                _ => HISTORIC_HORIZONTAL.replace("16 epochs", "4 epochs"),
            };
            let mut session = engine.register(&sql).unwrap();
            engine.run_epochs(5);
            assert_ne!(session.status(), SessionStatus::Active, "{sql}");
            if polled {
                answers.push(session.poll());
                answers.push(resident.poll());
            } else {
                answers.push(session.results());
                kept.push(session);
            }
        }
        if !polled {
            answers.push(resident.results());
        }
        (engine, answers.concat())
    };
    let ((polled, handed_out), (twin, all)) = (run(true), run(false));
    assert_eq!(handed_out.len(), all.len());
    assert_eq!(handed_out.iter().map(|a| a.epoch).sum::<u64>(), all.iter().map(|a| a.epoch).sum());
    assert_eq!(polled.session_ids().len(), 1, "only the resident is left");
    let (ours, theirs) = (polled.metrics(), twin.metrics());
    assert_eq!(ours.totals(), theirs.totals());
    assert_eq!(ours.storage_totals(), theirs.storage_totals());
    assert_eq!(theirs.retired_scopes(), PhaseTotals::default(), "the twin reaped nothing");

    let mut scopes = ours.retired_scopes();
    let mut every = PhaseTotals::default();
    for (into, metrics) in [(&mut scopes, &ours), (&mut every, &theirs)] {
        for (_, t) in metrics.scopes() {
            into.messages += t.messages;
            into.bytes += t.bytes;
            into.tuples += t.tuples;
            into.retransmissions += t.retransmissions;
            into.dropped_messages += t.dropped_messages;
            into.energy_uj += t.energy_uj;
        }
    }
    assert_eq!(
        (scopes.messages, scopes.bytes, scopes.tuples),
        (every.messages, every.bytes, every.tuples)
    );
    assert!((scopes.energy_uj - every.energy_uj).abs() <= 1e-9 * every.energy_uj);
    let storage = |metrics: &NetworkMetrics, retired: StorageTotalsSum| {
        metrics.storage_scopes().fold(retired, |sum, (_, s)| (sum.0 + s.pages_read, sum.1 + s.pages_written))
    };
    let retired = ours.retired_storage();
    assert!(retired.pages_read > 0, "AS OF restores read flash under their scopes");
    assert_eq!(storage(&ours, (retired.pages_read, retired.pages_written)), storage(&theirs, (0, 0)));
}

/// Pages read and written, summed over scopes.
type StorageTotalsSum = (u64, u64);

#[test]
fn engine_is_deterministic_in_the_seed() {
    let run = |seed| {
        let mut e = engine(seed);
        let mut sessions: Vec<Session> =
            EIGHT_QUERIES.iter().map(|sql| e.register(sql).unwrap()).collect();
        sessions.push(e.register(HISTORIC_VERTICAL).unwrap());
        e.run_epochs(18);
        sessions.iter().map(|s| (s.results(), s.totals())).collect::<Vec<_>>()
    };
    assert_eq!(run(11), run(11));
}

/// The ids the epoch loop walked before the live list existed: one scan of the map.
fn active_by_scan(core: &EngineCore) -> Vec<QueryId> {
    let active = core.sessions.iter().filter(|(_, s)| s.status == SessionStatus::Active);
    active.map(|(&id, _)| id).collect()
}

/// Runs `epochs` epochs on both, the twin's live list first rebuilt by the scan.
fn run_both(engine: &mut QueryEngine, twin: &mut QueryEngine, epochs: usize) {
    let mut core = lock_core(&twin.core);
    core.live = active_by_scan(&core);
    drop(core);
    engine.run_epochs(epochs);
    twin.run_epochs(epochs);
}

/// Whether the next epoch's checkpoint evicts the ring's oldest image (`None` before
/// the shared windows exist, when no checkpoint is ever due).
fn next_epoch_evicts(engine: &QueryEngine) -> Option<bool> {
    let core = lock_core(&engine.core);
    let (bank, store) = (core.windows.as_ref()?, core.store.as_ref()?);
    let full = store.snapshot_epochs().len() == kspot_store::DEFAULT_RETENTION;
    Some(full && store.due(bank.epochs_fed() + 1))
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig {
        cases: 24,
        ..proptest::ProptestConfig::default()
    })]

    /// Register / cancel / `LIFETIME` expiry / one-shot historic / `AS OF` in any
    /// order: the live list is the scan's answer after every step, and an engine whose
    /// list is thrown away and rebuilt by the scan before every epoch (the twin) serves
    /// the same answers from the same ledgers.  An `AS OF` op names a retained epoch
    /// (or, before any checkpoint, one the engine refuses), or first drives both
    /// engines to the epoch whose checkpoint evicts the ring's oldest image and names
    /// that image.
    #[test]
    fn the_live_list_is_the_active_scan_and_serves_what_the_scan_served(
        ops in proptest::collection::vec((0u8..7, 0usize..64), 1..40),
    ) {
        let (mut engine, mut twin) = (engine(29).with_checkpointing(2), engine(29).with_checkpointing(2));
        let mut handles: Vec<(Session, Session)> = Vec::new();
        for (kind, pick) in ops {
            let sql = match kind {
                0 => Some(EIGHT_QUERIES[pick % 8].to_string()),
                1 => {
                    Some(format!("{} LIFETIME {} epochs", EIGHT_QUERIES[pick % 8], 1 + pick % 3))
                }
                2 => Some(format!(
                    "SELECT TOP 2 epoch, AVG(sound) FROM sensors GROUP BY epoch \
                     WITH HISTORY {} epochs LIFETIME 3 epochs",
                    2 + pick % 4
                )),
                5 | 6 => {
                    while kind == 6 && next_epoch_evicts(&engine) == Some(false) {
                        run_both(&mut engine, &mut twin, 1);
                    }
                    let retained = engine.checkpoint_epochs();
                    let at = if kind == 6 { retained.first() } else { retained.get(pick % retained.len().max(1)) };
                    Some(format!(
                        "SELECT TOP 2 epoch, AVG(sound) FROM sensors GROUP BY epoch \
                         WITH HISTORY {} epochs AS OF {}",
                        2 + pick % 4,
                        at.copied().unwrap_or(0)
                    ))
                }
                _ => None,
            };
            match (kind, sql) {
                (_, Some(sql)) => match (engine.register(&sql), twin.register(&sql)) {
                    (Ok(a), Ok(b)) => handles.push((a, b)),
                    (Err(a), Err(b)) => proptest::prop_assert_eq!(a.to_string(), b.to_string()),
                    _ => panic!("admission differs between the engine and its twin"),
                },
                (3, _) if !handles.is_empty() => {
                    let slot = pick % handles.len();
                    let (a, b) = &mut handles[slot];
                    proptest::prop_assert_eq!(a.cancel(), b.cancel());
                }
                _ => run_both(&mut engine, &mut twin, 1 + pick % 2),
            }
            let core = lock_core(&engine.core);
            proptest::prop_assert_eq!(&core.live, &active_by_scan(&core));
            proptest::prop_assert_eq!(core.active_sessions(), core.live.len());
        }
        for (a, b) in &handles {
            proptest::prop_assert_eq!(a.status(), b.status());
            proptest::prop_assert_eq!(a.results(), b.results());
            proptest::prop_assert_eq!(a.totals(), b.totals());
        }
        proptest::prop_assert_eq!(engine.metrics().totals(), twin.metrics().totals());
    }
}
