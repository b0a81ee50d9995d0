use super::{QueryEngine, QueryId, SessionStatus};
use crate::config::ScenarioConfig;
use crate::results::ResultLog;
use kspot_algos::historic::HistoricAlgorithm;
use kspot_algos::{
    BankWindows, CentralizedCollection, CentralizedHistoric, FilaMonitor, HistoricSpec,
    LocalAggregateHistoric, MintViews, SnapshotAlgorithm, SnapshotSpec, TagTopK, Tja, Tput,
};
use kspot_net::{Network, WindowBank, Workload};
use kspot_query::plan::{ExecutionStrategy, QueryPlan};
use kspot_query::{AggFunc, QueryError};
use kspot_store::CheckpointStore;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// The executor a session runs — the two submission classes of
/// [`kspot_query::QueryClass`] made concrete, with a historic query that names an
/// `AS OF` epoch as a third kind: it reads a checkpoint image, not the live windows.
pub(super) enum SessionExec {
    /// One in-network sweep per epoch (MINT, TAG, centralized, FILA).  The executor is
    /// `Send`: the engine's whole state cell crosses threads (fleet shards run on a
    /// thread pool), so the boxed algorithm state it drags along must too.
    Continuous(Box<dyn SnapshotAlgorithm + Send>),
    /// One answer from the engine-shared sliding windows once they cover `window`
    /// epochs (TJA, local-aggregate historic).
    Historic {
        /// The historic executor; it reads the windows through a [`BankWindows`] view.
        algorithm: Box<dyn HistoricAlgorithm + Send>,
        /// The `WITH HISTORY` span, in epochs.
        window: usize,
    },
    /// One answer from the last `window` epochs of the checkpoint image taken at
    /// epoch `at`, on the session's first epoch; it neither creates nor grows the
    /// shared windows.
    AsOf {
        /// The `AS OF` epoch, a retained snapshot at admission ([`EngineCore::route`]).
        at: u64,
        /// The `WITH HISTORY` span, in epochs.
        window: usize,
        /// The historic executor; it reads the restored span.
        algorithm: Box<dyn HistoricAlgorithm + Send>,
    },
}

impl SessionExec {
    fn continuous(algorithm: impl SnapshotAlgorithm + Send + 'static) -> Self {
        SessionExec::Continuous(Box::new(algorithm))
    }

    /// A historic executor over the live windows, or over the image of `as_of`.
    fn historic(algorithm: impl HistoricAlgorithm + Send + 'static, window: usize, as_of: Option<u64>) -> Self {
        let algorithm = Box::new(algorithm);
        match as_of {
            Some(at) => SessionExec::AsOf { at, window, algorithm },
            None => SessionExec::Historic { algorithm, window },
        }
    }

    pub(super) fn name(&self) -> &'static str {
        match self {
            SessionExec::Continuous(a) => a.name(),
            SessionExec::Historic { algorithm, .. } | SessionExec::AsOf { algorithm, .. } => algorithm.name(),
        }
    }
}

/// Which executors [`EngineCore::route`] builds for a plan.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    /// The one executor the plan's own session runs.
    Primary,
    /// The System-Panel baselines the primary is compared against, in panel order.
    Baselines,
}

/// Why [`EngineCore::register`] refused a query.
pub(crate) enum Refusal {
    /// The engine already serves `active` sessions, at or over its admission `cap`.
    Full { active: usize, cap: usize },
    /// The plan cannot run on this engine.
    Query(QueryError),
}

impl From<QueryError> for Refusal {
    fn from(e: QueryError) -> Self {
        Refusal::Query(e)
    }
}

/// One registered query session (engine-side state; the user-facing handle is
/// [`crate::Session`]).
pub(super) struct SessionState {
    pub(super) sql: String,
    pub(super) plan: QueryPlan,
    pub(super) exec: SessionExec,
    /// Every answer so far, or the newest [`kspot_net::RETENTION_WINDOW`] once every
    /// live handle has consumed older ones, and the cursors of those handles.  The only
    /// thing kept of an answer: the `Vec` an algorithm returns is copied in and dropped.
    pub(super) results: ResultLog,
    /// Engine epoch index (not workload epoch number) at which the session joined.
    registered_at: u64,
    pub(super) status: SessionStatus,
    /// The last engine epoch in which the session ran its protocol: every epoch of a
    /// continuous session, the answering epoch of a historic one.  Compared with
    /// [`EngineCore::depleted_at`] by [`crate::Session::depleted_during_run`].
    pub(super) last_ran: Option<u64>,
    /// The System-Panel comparison sessions registered for this session
    /// ([`QueryEngine::register_baselines`]), in panel order.
    pub(super) baselines: Vec<QueryId>,
    /// The session this one is a System-Panel baseline of, if it is one: it is not
    /// reaped while that session is resident, whose panel reads it.
    baseline_of: Option<QueryId>,
}

impl SessionState {
    /// Lifetime bookkeeping: a session whose `LIFETIME n epochs` clause has elapsed
    /// completes on its own.  For a continuous session that means its answers were
    /// served in full; for a historic session still waiting on its window it means
    /// the query's lifetime ended *unanswered* (zero results) — the clause bounds
    /// the session either way, and the admission slot frees.  A historic session
    /// whose window fills within the lifetime answers normally (a `LIFETIME` equal
    /// to the `WITH HISTORY` span still answers: the window covers on the last
    /// in-lifetime epoch).
    fn expire_if_due(&mut self, now: u64) {
        if self.status == SessionStatus::Active {
            if let Some(lifetime) = self.plan.lifetime_epochs {
                if now.saturating_sub(self.registered_at) >= lifetime {
                    self.status = SessionStatus::Completed;
                }
            }
        }
    }
}

/// The engine state every [`QueryEngine`] and [`crate::Session`] handle shares — and,
/// since the fleet refactor, the unit of work a [`crate::EngineFleet`] shard schedules
/// on its thread pool.  The core is `Send` (plain owned data, `Send` algorithm boxes),
/// which is what lets one deployment's whole epoch loop migrate across pool threads
/// while staying byte-identical to a single-threaded run (ADR-006).
pub(crate) struct EngineCore {
    pub(super) scenario: ScenarioConfig,
    pub(super) max_sessions: usize,
    pub(super) net: Network,
    pub(super) workload: Workload,
    pub(super) sessions: BTreeMap<QueryId, SessionState>,
    /// The ids of the `Active` sessions, ascending — what the epoch loop walks, so a
    /// tick costs the sessions that run, not every session ever admitted.  Ids are
    /// allocated ascending, so `push` keeps `sessions`' own iteration order.  (This is
    /// not reaping: a finished session leaves this list, but its state stays in
    /// `sessions` until [`Self::reap_if_drained`] finds nothing can read it any more.)
    pub(super) live: Vec<QueryId>,
    /// The sessions that finished in the epoch being run, reused across epochs — the
    /// ones the epoch's end offers to [`Self::reap_if_drained`].
    pub(super) ended: Vec<QueryId>,
    /// The first engine epoch that ended with a depleted battery.  Batteries are only
    /// ever drained, by non-negative amounts ([`kspot_net::Battery::drain`]), so once
    /// [`Network::is_alive`] reads `false` it never reads `true` again: every epoch
    /// from this one on ended depleted and none before it did.  A session therefore
    /// took part in a depleted epoch exactly when its
    /// [`last_ran`](SessionState::last_ran) is at or after this one.
    pub(super) depleted_at: Option<u64>,
    /// The engine-shared per-node sliding windows, created at the first historic
    /// registration and fed once per epoch from then on (even across historic
    /// sessions' cancellations — the feed is a deterministic substrate duty, so a
    /// session's view of the windows never depends on the other sessions' lifecycle).
    pub(super) windows: Option<WindowBank>,
    /// The durable checkpoint store (ADR-009), when checkpointing is enabled: every
    /// `cadence` fed epochs ([`CheckpointStore::new`]) the shared windows are snapshotted
    /// onto the modeled flash device, and `AS OF` sessions answer from the retained
    /// images.  `None` keeps the engine exactly as it was before kspot-store existed
    /// — no page traffic, no retained state.
    pub(super) store: Option<CheckpointStore>,
    /// Total node-local energy spent feeding the shared windows (µJ), charged
    /// unscoped once per epoch — the amortised maintenance cost ADR-005 documents.
    pub(super) maintenance_energy_uj: f64,
    pub(super) next_id: QueryId,
    pub(super) epochs_run: u64,
}

impl EngineCore {
    pub(crate) fn active_sessions(&self) -> usize {
        self.live.len()
    }

    /// Admits a user query: the one place the admission cap is compared, then the
    /// plan's primary executor from [`Self::route`].
    pub(crate) fn register(&mut self, plan: QueryPlan, sql: String) -> Result<QueryId, Refusal> {
        let active = self.active_sessions();
        if active >= self.max_sessions {
            return Err(Refusal::Full { active, cap: self.max_sessions });
        }
        let exec = self.route(&plan, Role::Primary)?.pop().expect("a plan routes to one primary");
        Ok(self.admit(sql, plan, exec, None))
    }

    /// The tail every registration shares — user queries and baselines alike: size
    /// the shared windows for a live historic executor, allocate the session id.
    fn admit(&mut self, sql: String, plan: QueryPlan, exec: SessionExec, baseline_of: Option<QueryId>) -> QueryId {
        if let SessionExec::Historic { window, .. } = &exec {
            match self.windows.as_mut() {
                Some(bank) => bank.grow_capacity(*window),
                None => self.windows = Some(WindowBank::new(*window)),
            }
        }
        let id = self.next_id;
        self.next_id += 1;
        self.sessions.insert(
            id,
            SessionState {
                sql,
                plan,
                exec,
                results: ResultLog::default(),
                registered_at: self.epochs_run,
                status: SessionStatus::Active,
                last_ran: None,
                baselines: Vec::new(),
                baseline_of,
            },
        );
        self.live.push(id);
        id
    }

    /// [`QueryEngine::register_baselines`]: each baseline is admitted with the
    /// primary's plan, so a `LIFETIME` or `AS OF` clause bounds both alike.
    ///
    /// Baselines bypass the admission cap: they are bookkeeping the *server* asked
    /// for, and letting them compete with user queries for slots would make a
    /// query's admissibility depend on whether its panel wants comparisons.
    pub(super) fn register_baselines(&mut self, primary: QueryId) -> Result<Vec<QueryId>, QueryError> {
        let plan = self.state(primary).plan;
        let execs = self.route(&plan, Role::Baselines)?;
        let ids: Vec<QueryId> = execs
            .into_iter()
            .map(|exec| self.admit(format!("baseline: {}", exec.name()), plan, exec, Some(primary)))
            .collect();
        self.state_mut(primary).baselines.extend(&ids);
        Ok(ids)
    }

    /// The routing table (Section III of the paper): one arm per strategy picks the
    /// executor a plan runs and the conventional strategies the System Panel compares
    /// it against, from one spec, so the two can never diverge.  Only the executors
    /// `role` asks for are built.  A historic plan that names an `AS OF` epoch routes to
    /// the same algorithms as [`SessionExec::AsOf`] executors, and is refused here
    /// unless the engine checkpoints and retains that epoch: the SQL may have arrived
    /// over the wire, and a stale or fabricated epoch is a typed 400-style error, not a
    /// session that silently never answers.
    ///
    /// | Strategy | Primary | Baselines |
    /// |---|---|---|
    /// | snapshot Top-K | MINT | TAG, centralized collection |
    /// | plain aggregation | TAG | centralized collection |
    /// | raw collection | centralized collection | none (it is its own baseline) |
    /// | node monitoring | FILA | centralized collection |
    /// | vertical history | TJA | TPUT, centralized window collection |
    /// | horizontal history | local filter + MINT update | centralized window collection |
    fn route(&self, plan: &QueryPlan, role: Role) -> Result<Vec<SessionExec>, QueryError> {
        let (domain, primary) = (self.scenario.domain, role == Role::Primary);
        let clusters = self.scenario.num_clusters().max(1);
        let aggregate =
            || plan.aggregate.ok_or_else(|| QueryError::semantic("an aggregate query needs an aggregate"));
        // Each node's sliding window preallocates one slot per epoch of the span, so an
        // untrusted WITH HISTORY span is bounded here, at admission.
        let window = || {
            let window = plan.history_epochs.unwrap_or(0);
            if window == 0 || window > QueryEngine::MAX_HISTORY_EPOCHS as u64 {
                return Err(QueryError::semantic(format!(
                    "WITH HISTORY spans {window} epochs; the engine retains 1 to {} epochs",
                    QueryEngine::MAX_HISTORY_EPOCHS
                )));
            }
            Ok(window as usize)
        };
        let historic_spec = |k: usize, func: AggFunc| {
            let window = window()?;
            // TJA's and TPUT's threshold algebra (which `HistoricSpec` asserts) needs
            // non-negative values: refuse here rather than panic under the core lock.
            if domain.min < 0.0 {
                return Err(QueryError::semantic(format!(
                    "ranking over windows assumes non-negative values, but this engine's {} \
                     domain is [{}, {}]",
                    self.scenario.modality, domain.min, domain.max
                )));
            }
            Ok(HistoricSpec::new(k, func, domain, window))
        };
        let as_of = plan.as_of_epoch;
        let execs = match plan.strategy {
            ExecutionStrategy::SnapshotTopK => {
                let spec = SnapshotSpec::from_plan(plan, domain)?;
                if primary {
                    vec![SessionExec::continuous(MintViews::new(spec))]
                } else {
                    vec![
                        SessionExec::continuous(TagTopK::new(spec)),
                        SessionExec::continuous(CentralizedCollection::new(spec)),
                    ]
                }
            }
            ExecutionStrategy::InNetworkAggregate => {
                let spec = SnapshotSpec::new(clusters, aggregate()?, domain);
                if primary {
                    vec![SessionExec::continuous(TagTopK::new(spec))]
                } else {
                    vec![SessionExec::continuous(CentralizedCollection::new(spec))]
                }
            }
            ExecutionStrategy::RawCollection => {
                let spec = SnapshotSpec::new(clusters, AggFunc::Avg, domain);
                if primary {
                    vec![SessionExec::continuous(CentralizedCollection::new(spec))]
                } else {
                    Vec::new()
                }
            }
            ExecutionStrategy::NodeMonitoringTopK => {
                let spec = SnapshotSpec::new(plan.k.max(1) as usize, AggFunc::Max, domain);
                if primary {
                    vec![SessionExec::continuous(FilaMonitor::new(spec))]
                } else {
                    vec![SessionExec::continuous(CentralizedCollection::new(spec))]
                }
            }
            ExecutionStrategy::HistoricVerticalTopK => {
                let spec = historic_spec(plan.k.max(1) as usize, aggregate()?)?;
                if primary {
                    vec![SessionExec::historic(Tja::new(spec), spec.window, as_of)]
                } else {
                    vec![
                        SessionExec::historic(Tput::new(spec), spec.window, as_of),
                        SessionExec::historic(CentralizedHistoric::new(spec), spec.window, as_of),
                    ]
                }
            }
            ExecutionStrategy::HistoricHorizontalTopK => {
                let spec = SnapshotSpec::from_plan(plan, domain)?;
                if primary {
                    vec![SessionExec::historic(LocalAggregateHistoric::new(spec), window()?, as_of)]
                } else {
                    let windows = historic_spec(spec.k, AggFunc::Avg)?;
                    vec![SessionExec::historic(CentralizedHistoric::new(windows), windows.window, as_of)]
                }
            }
        };
        if let Some(epoch) = as_of {
            let store = self.store.as_ref().ok_or_else(|| {
                QueryError::semantic(
                    "AS OF requires a checkpointing engine, and this engine keeps no \
                     durable snapshots (enable checkpointing when booting it)",
                )
            })?;
            if !store.snapshot_epochs().contains(&epoch) {
                return Err(QueryError::semantic(format!(
                    "AS OF {epoch} names no retained checkpoint; retained snapshot epochs \
                     are {:?}",
                    store.snapshot_epochs()
                )));
            }
        }
        Ok(execs)
    }

    pub(super) fn cancel(&mut self, id: QueryId) -> bool {
        match self.sessions.get_mut(&id) {
            Some(s) if s.status == SessionStatus::Active => {
                s.status = SessionStatus::Cancelled;
                self.live.retain(|&live| live != id);
                true
            }
            _ => false,
        }
    }

    /// The engine's epochs, each one [`Network::run_epoch`]: the window feed and the
    /// checkpoint, then every live session's sweep under its own scope, in ascending
    /// id order (which fixes the loss draws and the ledger's order).
    pub(crate) fn run_epochs(&mut self, epochs: usize) {
        for _ in 0..epochs {
            let readings = self.workload.next_epoch();
            let epoch = readings.first().map(|r| r.epoch).unwrap_or(0);
            let now = self.epochs_run;
            let Self { net, sessions, live, windows, store, maintenance_energy_uj, .. } = self;
            net.run_epoch(epoch, |net| {
                // Shared window maintenance: ONE feed pass serves every registered
                // historic session.  Buffering is deliberately fault-oblivious — it
                // models the sensing-local flash write `BankWindows::collect`
                // models, which is what keeps engine-fed windows byte-identical to the
                // replay path — so the charge is fault-oblivious too: every buffered
                // sample is paid for, by the node that buffered it, unscoped, once per
                // epoch like the sampling baseline (amortised across sessions by
                // design).
                if let Some(bank) = windows.as_mut() {
                    bank.feed(&readings);
                    let per_sample = net.config().energy.cpu_cost(1);
                    for r in &readings {
                        net.charge_cpu(r.node, 1);
                        *maintenance_energy_uj += per_sample;
                    }
                    // Durable checkpoint (ADR-009): every `cadence` fed epochs the bank
                    // is snapshotted onto the modeled flash.  Like the feed itself this
                    // is unscoped substrate duty — each window-owning node pays the page
                    // writes for persisting its own column, whoever later time-travels.
                    if let Some(store) = store.as_mut() {
                        if store.due(bank.epochs_fed()) {
                            store.checkpoint(bank, epoch, net);
                        }
                    }
                }
                // Every live session is `Active` and within its lifetime here: the last
                // epoch's end expired every session `now` ends, and one admitted since
                // has a `LIFETIME` of at least one epoch.
                for &id in live.iter() {
                    let Some(session) = sessions.get_mut(&id) else { continue };
                    match &mut session.exec {
                        SessionExec::Continuous(algo) => {
                            net.set_query_scope(Some(id));
                            session.results.push(algo.execute_epoch(net, &readings));
                        }
                        SessionExec::Historic { algorithm, window } => {
                            // Readiness is on the *buffered span*, not on how many epochs
                            // were ever fed: history evicted before a capacity growth is
                            // gone, so a longer-window session registered late must wait
                            // until the bank genuinely covers its span.
                            let covered = windows.as_mut().filter(|bank| bank.buffered_epochs() >= *window);
                            let Some(bank) = covered else { continue };
                            net.set_query_scope(Some(id));
                            let mut view = BankWindows::new(bank, *window);
                            session.results.push(algorithm.execute(net, &mut view));
                            session.status = SessionStatus::Completed;
                        }
                        SessionExec::AsOf { at, window, algorithm } => {
                            // Time travel: restore the named snapshot from its encoded
                            // image — page reads and all protocol traffic under this
                            // session's scope — answer once, complete.  Without a view
                            // the ring evicted the snapshot since admission: the session
                            // completes unanswered, like a lifetime-expired historic one.
                            net.set_query_scope(Some(id));
                            let restored = store.as_ref().and_then(|s| s.restore(*at, *window, net).ok());
                            if let Some(mut view) = restored {
                                session.results.push(algorithm.execute(net, &mut view));
                            }
                            session.status = SessionStatus::Completed;
                        }
                    }
                    session.last_ran = Some(now);
                }
            });
            // Shared drain is intended physics (module docs): the first epoch that ends
            // on a depleted battery is what `Session::depleted_during_run` compares with.
            if self.depleted_at.is_none() && !self.net.is_alive() {
                self.depleted_at = Some(now);
            }
            self.epochs_run += 1;
            // A session whose LIFETIME was fully served this epoch completes now, so
            // it neither holds an admission slot nor reports Active between runs.
            let (sessions, now, ended) = (&mut self.sessions, self.epochs_run, &mut self.ended);
            self.live.retain(|id| {
                let active = sessions.get_mut(id).is_some_and(|session| {
                    session.expire_if_due(now);
                    session.status == SessionStatus::Active
                });
                if !active {
                    ended.push(*id);
                }
                active
            });
            while let Some(id) = self.ended.pop() {
                self.reap_if_drained(id);
            }
        }
    }

    /// Reaps session `id` once nothing can read it any more: it is terminal, no live
    /// handle is left, a poll consumed every answer it produced, and it is no resident
    /// session's baseline.  Its state, its executor and its loss stream go; its ledger
    /// rows fold into the retired bucket ([`Network::retire_scope`]), so the ledger
    /// still balances.  Called on the events that can make a session reapable — the
    /// last handle's drop and the epoch that ends it — never as a scan.  (A poll cannot:
    /// the polling handle is live.)  A session nobody polled is never reaped, however
    /// it ended, even one that never answered: a handle minted later
    /// ([`QueryEngine::sessions`]) may still read it (ADR-014, "Retention").
    fn reap_if_drained(&mut self, id: QueryId) {
        let Some(state) = self.sessions.get(&id) else { return };
        let read_by_primary = state.baseline_of.is_some_and(|primary| self.sessions.contains_key(&primary));
        if state.status == SessionStatus::Active || !state.results.drained() || read_by_primary {
            return;
        }
        let Some(state) = self.sessions.remove(&id) else { return };
        self.net.retire_scope(id);
        for baseline in state.baselines {
            self.reap_if_drained(baseline);
        }
    }

    /// Registers a new handle of session `id` at `cursor` (at the first retained
    /// answer, for a fresh handle) and returns the cursor it starts at.
    pub(super) fn attach(&mut self, id: QueryId, cursor: usize) -> usize {
        self.sessions.get_mut(&id).expect("a handle is minted for a resident session").results.attach(cursor)
    }

    /// Unregisters a dropped handle of session `id` that stood at `cursor`, and reaps
    /// the session if that was what kept it.
    pub(super) fn detach(&mut self, id: QueryId, cursor: usize) {
        if let Some(state) = self.sessions.get_mut(&id) {
            state.results.detach(cursor);
            self.reap_if_drained(id);
        }
    }

    pub(super) fn state(&self, id: QueryId) -> &SessionState {
        self.sessions.get(&id).expect("a Session handle outlives its engine-side state")
    }

    pub(super) fn state_mut(&mut self, id: QueryId) -> &mut SessionState {
        self.sessions.get_mut(&id).expect("a Session handle outlives its engine-side state")
    }
}

/// Locks an engine core, surfacing poisoning as a first-class failure: a panic inside
/// a prior engine operation (mid-epoch) leaves the shard's state torn, and silently
/// recovering it would void every byte-identity guarantee the engine makes.  Healthy
/// concurrent use never poisons — the fleet's concurrency spike test pins that down.
pub(crate) fn lock_core(core: &Arc<Mutex<EngineCore>>) -> MutexGuard<'_, EngineCore> {
    core.lock().expect(
        "EngineCore lock poisoned: a prior engine operation panicked mid-epoch, \
         leaving this deployment's state torn (ADR-006)",
    )
}

/// Non-panicking variant of [`lock_core`]: `None` when the cell is poisoned.
///
/// `lock_core`'s panic-on-poison is the right in-process contract (ADR-006), but it is
/// fatal behind a listener — one torn deployment would take the whole serving process
/// down.  The fleet's health-aware paths (ADR-007) use this to map poisoning to a
/// per-deployment unhealthy state returned to clients instead.
pub(crate) fn try_lock_core(core: &Arc<Mutex<EngineCore>>) -> Option<MutexGuard<'_, EngineCore>> {
    core.lock().ok()
}
