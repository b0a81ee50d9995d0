//! The layer replay: `EngineCore::run_epochs`, mirrored with public functions only,
//! one span per call into a layer.
//!
//! The engine's epoch loop is a single opaque call from outside, so the traced pass
//! cannot see where an epoch's time goes.  The replay executes the *same script* over
//! an *identically built* substrate, making the very calls the loop makes —
//! `Workload::next_epoch` → `Network::begin_epoch` → `WindowBank::feed` + `charge_cpu`
//! → `CheckpointStore::due/checkpoint` → per session `Network::set_query_scope` +
//! `SnapshotAlgorithm::execute_epoch` / `BankWindows` + `HistoricAlgorithm::execute` /
//! `CheckpointStore::restore` → `Network::flush_frames` — and the run fails unless
//! its answers and `NetworkMetrics::totals()` equal the engine's bit for bit.  That
//! equality is what makes the decomposition a measurement of the same work; a change
//! to the engine's loop that the replay does not mirror is caught, not mis-measured.

use crate::common::{build_substrate, Digest};
use crate::script::{End, Workload};
use crate::trace::Tracer;
use kspot_algos::{
    BankWindows, CentralizedCollection, FilaMonitor, HistoricAlgorithm, HistoricSpec,
    LocalAggregateHistoric, MintViews, SnapshotAlgorithm, SnapshotSpec, TagTopK, Tja, TopKResult,
};
use kspot_core::{CheckpointStore, ScenarioConfig};
use kspot_net::{Network, StorageTotals, WindowBank, Workload as Readings};
use kspot_query::{classify, parse, AggFunc, ExecutionStrategy, QueryPlan};
use std::collections::BTreeMap;

/// A session's executor with the span name its calls are recorded under.
enum Exec {
    Continuous {
        algorithm: Box<dyn SnapshotAlgorithm>,
        span: &'static str,
    },
    Historic {
        algorithm: Box<dyn HistoricAlgorithm>,
        window: usize,
        span: &'static str,
    },
}

#[derive(PartialEq)]
enum Status {
    Active,
    Completed,
    Cancelled,
}

struct ReplaySession {
    plan: QueryPlan,
    exec: Exec,
    results: Vec<TopKResult>,
    registered_at: u64,
    status: Status,
}

impl ReplaySession {
    fn expire_if_due(&mut self, now: u64) {
        if self.status == Status::Active
            && self
                .plan
                .lifetime_epochs
                .is_some_and(|l| now.saturating_sub(self.registered_at) >= l)
        {
            self.status = Status::Completed;
        }
    }
}

/// The replayed engine state.
pub struct Replay {
    scenario: ScenarioConfig,
    pub net: Network,
    readings: Readings,
    sessions: BTreeMap<u32, ReplaySession>,
    windows: Option<WindowBank>,
    pub store: Option<CheckpointStore>,
    next_id: u32,
    epochs_run: u64,
    pub readings_per_epoch: usize,
    /// Flash page I/O booked before the first measured tick.
    pub storage_before_measuring: StorageTotals,
}

impl Replay {
    fn new(w: &Workload, deployment: usize) -> Self {
        let (mut net, readings) = build_substrate(w, deployment);
        net.set_frame_batching(w.frame_batching);
        Self {
            scenario: w.scenario.clone(),
            net,
            readings,
            sessions: BTreeMap::new(),
            windows: None,
            store: w.checkpoint_cadence.map(CheckpointStore::new),
            next_id: 0,
            epochs_run: 0,
            readings_per_epoch: 0,
            storage_before_measuring: StorageTotals::default(),
        }
    }

    /// The plan→executor routing of `EngineCore::executor_for` / `continuous_spec`.
    fn executor_for(&self, plan: &QueryPlan) -> Exec {
        let domain = self.scenario.domain;
        let clusters = self.scenario.num_clusters().max(1);
        let window = plan.history_epochs.unwrap_or(0) as usize;
        let aggregate = || plan.aggregate.expect("the plan carries an aggregate");
        match plan.strategy {
            ExecutionStrategy::HistoricVerticalTopK => Exec::Historic {
                algorithm: Box::new(Tja::new(HistoricSpec::new(
                    plan.k.max(1) as usize,
                    aggregate(),
                    domain,
                    window,
                ))),
                window,
                span: "algos.tja_execute",
            },
            ExecutionStrategy::HistoricHorizontalTopK => Exec::Historic {
                algorithm: Box::new(LocalAggregateHistoric::new(
                    SnapshotSpec::from_plan(plan, domain).expect("a horizontal plan has a spec"),
                )),
                window,
                span: "algos.local_aggregate_execute",
            },
            ExecutionStrategy::SnapshotTopK => Exec::Continuous {
                algorithm: Box::new(MintViews::new(
                    SnapshotSpec::from_plan(plan, domain).expect("a snapshot plan has a spec"),
                )),
                span: "algos.mint_epoch",
            },
            ExecutionStrategy::InNetworkAggregate => Exec::Continuous {
                algorithm: Box::new(TagTopK::new(SnapshotSpec::new(
                    clusters,
                    aggregate(),
                    domain,
                ))),
                span: "algos.tag_epoch",
            },
            ExecutionStrategy::RawCollection => Exec::Continuous {
                algorithm: Box::new(CentralizedCollection::new(SnapshotSpec::new(
                    clusters,
                    AggFunc::Avg,
                    domain,
                ))),
                span: "algos.centralized_epoch",
            },
            ExecutionStrategy::NodeMonitoringTopK => Exec::Continuous {
                algorithm: Box::new(FilaMonitor::new(SnapshotSpec::new(
                    plan.k.max(1) as usize,
                    AggFunc::Max,
                    domain,
                ))),
                span: "algos.fila_epoch",
            },
        }
    }

    /// `EngineCore::register_plan_with_sql`, for statements the script knows are valid.
    fn register(&mut self, sql: &str, tracer: &mut Tracer) -> u32 {
        let plan = tracer.leaf("query.parse_plan", || {
            classify(&parse(sql).expect("script SQL parses")).expect("script SQL classifies")
        });
        let exec = self.executor_for(&plan);
        if let (None, Exec::Historic { window, .. }) = (plan.as_of_epoch, &exec) {
            match self.windows.as_mut() {
                Some(bank) => bank.grow_capacity(*window),
                None => self.windows = Some(WindowBank::new(*window)),
            }
        }
        let id = self.next_id;
        self.next_id += 1;
        self.sessions.insert(
            id,
            ReplaySession {
                plan,
                exec,
                results: Vec::new(),
                registered_at: self.epochs_run,
                status: Status::Active,
            },
        );
        id
    }

    fn cancel(&mut self, id: u32) {
        let session = self
            .sessions
            .get_mut(&id)
            .expect("the script cancels sessions it registered");
        if session.status == Status::Active {
            session.status = Status::Cancelled;
        }
    }

    /// One iteration of `EngineCore::run_epochs`.
    fn run_epoch(&mut self, tracer: &mut Tracer) {
        let root = tracer.begin("replay.epoch");
        let readings = tracer.leaf("net.next_epoch", || self.readings.next_epoch());
        self.readings_per_epoch = readings.len();
        let epoch = readings.first().map_or(0, |r| r.epoch);
        tracer.leaf("net.begin_epoch", || self.net.begin_epoch(epoch));
        if let Some(bank) = self.windows.as_mut() {
            tracer.leaf("net.window_feed", || bank.feed(&readings));
            tracer.leaf("net.charge_cpu", || {
                for r in &readings {
                    self.net.charge_cpu(r.node, 1);
                }
            });
            if let Some(store) = self.store.as_mut() {
                if store.due(bank.epochs_fed()) {
                    tracer.leaf("store.checkpoint", || {
                        store.checkpoint(bank, epoch, &mut self.net)
                    });
                }
            }
        }
        let now = self.epochs_run;
        for (&id, session) in self.sessions.iter_mut() {
            session.expire_if_due(now);
            if session.status != Status::Active {
                continue;
            }
            match &mut session.exec {
                Exec::Continuous { algorithm, span } => {
                    self.net.set_query_scope(Some(id));
                    let result =
                        tracer.leaf(span, || algorithm.execute_epoch(&mut self.net, &readings));
                    session.results.push(result);
                }
                Exec::Historic {
                    algorithm,
                    window,
                    span,
                } => {
                    if let Some(at) = session.plan.as_of_epoch {
                        let store = self.store.as_ref().expect("AS OF needs a store");
                        self.net.set_query_scope(Some(id));
                        let restored = tracer.leaf("store.restore", || {
                            store.restore(at, *window, &mut self.net)
                        });
                        if let Ok(mut view) = restored {
                            let result =
                                tracer.leaf(span, || algorithm.execute(&mut self.net, &mut view));
                            session.results.push(result);
                        }
                        session.status = Status::Completed;
                        continue;
                    }
                    let bank = self
                        .windows
                        .as_mut()
                        .expect("historic sessions imply a window bank");
                    if bank.buffered_epochs() >= *window {
                        self.net.set_query_scope(Some(id));
                        let result = tracer.leaf(span, || {
                            let mut view = BankWindows::new(bank, *window);
                            algorithm.execute(&mut self.net, &mut view)
                        });
                        session.results.push(result);
                        session.status = Status::Completed;
                    }
                }
            }
        }
        self.net.set_query_scope(None);
        tracer.leaf("net.flush_frames", || self.net.flush_frames());
        self.epochs_run += 1;
        for session in self.sessions.values_mut() {
            session.expire_if_due(self.epochs_run);
        }
        tracer.end(root);
    }

    /// Digest of every answer every session produced.
    pub fn digest(&self, deployment: usize) -> Digest {
        let mut digest = Digest::default();
        for (&id, session) in &self.sessions {
            for result in &session.results {
                digest.add_result(deployment, u64::from(id), result);
            }
        }
        digest
    }
}

/// Replays one deployment's whole script (set-up, warm-up and measured ticks; not
/// the restart probe), recording spans for the measured ticks only.
pub fn run(w: &Workload, deployment: usize, tracer: &mut Tracer) -> Replay {
    let mut replay = Replay::new(w, deployment);
    tracer.set_recording(false);
    for sql in &w.resident {
        replay.register(sql, tracer);
    }
    if let Some(prime) = &w.prime {
        replay.register(&prime.sql, tracer);
        for _ in 0..prime.epochs {
            replay.run_epoch(tracer);
        }
    }
    for tick in 0..w.total_ticks() {
        if tick == w.warmup_ticks {
            replay.storage_before_measuring = replay.net.metrics().storage_totals();
        }
        tracer.set_recording(tick >= w.warmup_ticks);
        tracer.set_tick(tick as u32);
        let transient = w.transient(deployment, tick);
        let registered = transient.as_ref().map(|t| replay.register(&t.sql, tracer));
        for _ in 0..w.stride {
            replay.run_epoch(tracer);
        }
        if let (Some(t), Some(id)) = (transient, registered) {
            if t.end == End::Cancel {
                replay.cancel(id);
            }
        }
    }
    tracer.set_recording(false);
    replay
}
