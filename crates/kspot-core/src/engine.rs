//! The shared-epoch multi-query engine — the long-lived heart of the KSpot server.
//!
//! The demonstration system is a *server*: many users type queries into the Query
//! Panel against **one** live sensor field, concurrently.  [`QueryEngine`] models that
//! directly.  It owns a single [`Network`] + [`Workload`] substrate and a set of
//! registered query *sessions*; one shared epoch loop acquires each epoch's readings
//! once, charges the fixed per-epoch substrate cost (sampling, idle listening) once,
//! and then drives every active session's in-network protocol over the shared sweep.
//! An engine is booted from a [`crate::KSpotServer`] (scenario, workload, cost model,
//! seed) or, for substrates that vocabulary cannot express, injected through
//! [`QueryEngine::from_substrate`].
//!
//! ## The `Session` API — one submission surface for both query classes
//!
//! [`QueryEngine::register`] is the single entry point for **every** query the
//! dialect can express, and it returns a typed [`Session`] handle with one uniform
//! lifecycle regardless of the query's class ([`kspot_query::QueryClass`]):
//!
//! * a **continuous** session (snapshot Top-K, plain aggregation, raw collection,
//!   node monitoring) produces one ranked answer per shared epoch until it is
//!   cancelled or its `LIFETIME` elapses;
//! * a **historic** session (`WITH HISTORY`, vertically or horizontally fragmented)
//!   waits until the engine's shared sliding windows cover its span, answers exactly
//!   once from those windows, and completes.
//!
//! The handle exposes the whole lifecycle: [`Session::poll`] for per-epoch results,
//! [`Session::cancel`], and [`Session::finalize`] to convert the session into a
//! [`QueryExecution`] carrying its System Panel.
//!
//! ## System-Panel baselines are sessions too
//!
//! The panel "continuously projects the savings in energy and messages" next to the
//! running query, so the conventional strategies it compares against run next to it:
//! [`QueryEngine::register_baselines`] admits them — for every query class — as
//! sessions of the same shared loop, over the same readings and windows, each under
//! its own metrics scope, and [`Session::finalize`] reports their scoped slices as
//! the panel's baselines.  A scoped slice is a strategy's *own* radio, CPU and
//! storage work; the per-epoch idle/sampling baseline and the window maintenance
//! are shared infrastructure attributable to no single strategy and stay out of it
//! (ADR-010).
//!
//! ## Shared window maintenance (historic sessions)
//!
//! The engine maintains **one** [`WindowBank`] — one sliding window per node, with
//! capacity following the largest registered `WITH HISTORY` span — fed once per epoch
//! from the very readings the continuous sessions consume.  TJA and the
//! local-aggregate historic strategy answer from that bank through the
//! [`kspot_algos::WindowSource`] abstraction ([`kspot_algos::BankWindows`]), so N
//! registered historic sessions share a single per-epoch maintenance pass instead of
//! each replaying a full `BankWindows::collect` pass against a fresh network.
//! The maintenance cost is charged **unscoped**, once per epoch, exactly like the
//! sampling baseline: it is genuinely shared infrastructure, and amortising it across
//! sessions is the point (ADR-005).  Each historic session's *query-time* traffic and
//! storage reads run under its own metrics scope, so its System-Panel slice stays as
//! attributable as any continuous session's.
//!
//! Holding the same samples, the borrowed view of the engine-fed bank is
//! byte-identical to an owned view of a per-submission bank — on lossless substrates
//! a registered historic session returns exactly the answer a dedicated
//! `BankWindows::collect` replay produces (asserted cell-by-cell by
//! `tests/historic_cells.rs`).
//!
//! ## Session isolation
//!
//! Per-session accounting rides on the attribution scopes of
//! [`kspot_net::NetworkMetrics`]: the engine installs the session id as the metrics
//! scope right before a session's traffic starts, so every session gets its own
//! message/byte/energy totals even though all of them share the substrate ledgers.
//! Loss randomness is also scoped — each session id keys its own loss stream (see
//! [`Network::set_query_scope`]) — which yields the engine's central guarantee,
//! *session isolation*:
//!
//! > a session's per-epoch answers and attributed totals are a function of the
//! > substrate and its own session id alone: **byte-identical** no matter which
//! > other sessions run, register or cancel alongside it, as long as no battery
//! > depletes during the run.
//!
//! (The isolated comparison baseline is the same session id with every other session
//! cancelled — the loss stream is keyed by the id, so the same query re-registered
//! under a different id draws a different, equally deterministic channel.)  The
//! battery proviso is intended physics, not nondeterminism: batteries are a genuinely
//! shared resource, so on a nearly drained field the extra load of other sessions can
//! kill a relay earlier than it would die solo, changing participation for everyone
//! (see ADR-003).  Session isolation is what makes the engine safely composable —
//! admitting one more query can never perturb the answers an already-running query
//! observes — and it is asserted cell-by-cell by `tests/engine_cells.rs` (continuous)
//! and `tests/historic_cells.rs` (historic and mixed) against the kspot-testkit
//! scenario matrix.
//!
//! ## Frame batching (cross-query traffic sharing)
//!
//! By default every session's per-node reports still leave as their own radio frames —
//! the byte-identical-to-solo guarantee above holds verbatim.  Opting in with
//! [`QueryEngine::with_frame_batching`] routes all sessions' report traffic through
//! the substrate's frame scheduler (`kspot_net::schedule`, ADR-004): each epoch, every
//! node's reports across **all** active sessions are piggy-backed into one merged
//! frame per hop — one preamble and header instead of one per session.  The guarantee
//! is then restated: per-session *answers* are identical to the unbatched run on a
//! lossless substrate, and total upstream bytes never exceed the unbatched run's.
//! On lossy substrates the channel is drawn per *frame* from a stream keyed by the
//! frame's `(sender, receiver, epoch)` hop — all riders share each frame's fate, and
//! because the stream never depends on frame-open order, the channel a session
//! observes under batching is still invariant to which other sessions are
//! co-registered (the batched-mode loss-fairness guarantee, ADR-005).
//!
//! ## Battery coupling and [`Session::depleted_during_run`]
//!
//! Batteries are a genuinely shared resource and the engine deliberately keeps them
//! coupled: every session's traffic drains the same cells, so on a nearly drained
//! field admitting one more query can kill a relay earlier than it would die solo,
//! changing participation — and therefore answers — for *everyone*.  This is intended
//! physics, not nondeterminism (runs still replay bit-for-bit); it merely voids the
//! cross-composition byte-identity guarantees, which are scoped to non-depleting runs.
//! The engine surfaces the boundary instead of hiding it: the per-session
//! [`Session::depleted_during_run`] flag reports whether any node's battery was
//! exhausted during an epoch the session took part in.  A `false` flag certifies the
//! session ran entirely in the guarantee regime; a `true` flag marks its answers as
//! battery-coupled to the concurrent session mix (see ADR-004).
//!
//! ## Going multi-core: the engine fleet
//!
//! The engine's state cell is `Send` (`Arc<Mutex<EngineCore>>`, `Send` algorithm
//! boxes), so whole engines can migrate across threads.  [`crate::EngineFleet`]
//! builds on that: M independent *deployments* — each its own engine with its own
//! Network, Workload and epoch loop — driven concurrently by a fixed thread pool,
//! with session routing by deployment id and a fleet-level admission cap on top of
//! each engine's own.  Because deployments share no mutable state (not even RNG
//! streams — every substrate derives its own from its own master seed), every
//! deployment in a fleet is **byte-identical** to a solo engine built from the same
//! seeds, whatever the pool's scheduling — the `engine_cells` guarantee applied per
//! shard, asserted by `tests/fleet_cells.rs` and ADR-006.

use crate::config::ScenarioConfig;
use crate::panel::{StrategyReport, SystemPanel};
use crate::results::ResultLog;
use crate::server::{KSpotBullet, QueryExecution, WorkloadSpec};
use kspot_algos::historic::HistoricAlgorithm;
use kspot_algos::{
    BankWindows, CentralizedCollection, CentralizedHistoric, FilaMonitor, HistoricSpec,
    LocalAggregateHistoric, MintViews, SnapshotAlgorithm, SnapshotSpec, TagTopK, Tja, TopKResult,
    Tput,
};
use kspot_net::{
    Epoch, GroupId, Network, NetworkConfig, NetworkMetrics, PhaseTotals, WindowBank, Workload,
};
use kspot_query::plan::{classify, ExecutionStrategy, QueryClass, QueryPlan};
use kspot_query::{parse, AggFunc, QueryError};
use kspot_store::CheckpointStore;
use std::collections::BTreeMap;
use std::ops::Deref;
use std::sync::{Arc, Mutex, MutexGuard};

/// Identifier of a registered query session.  Session ids double as the metrics
/// attribution scope (see [`kspot_net::QueryScope`]), so they are stable for the
/// lifetime of the engine and never reused.
pub type QueryId = kspot_net::QueryScope;

/// Lifecycle state of a query session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionStatus {
    /// The session takes part in every shared epoch sweep.  (A historic session is
    /// `Active` while the shared windows are still filling towards its span.)
    Active,
    /// The query finished on its own: a continuous query's `LIFETIME` elapsed, or a
    /// historic query answered from the windows.  Its results remain readable.
    Completed,
    /// The user cancelled the session; its results remain readable.
    Cancelled,
}

/// The executor a session runs — the two submission classes of
/// [`kspot_query::QueryClass`] made concrete.
enum SessionExec {
    /// One in-network sweep per epoch (MINT, TAG, centralized, FILA).  The executor is
    /// `Send`: the engine's whole state cell crosses threads (fleet shards run on a
    /// thread pool), so the boxed algorithm state it drags along must too.
    Continuous(Box<dyn SnapshotAlgorithm + Send>),
    /// One answer from the engine-shared sliding windows once they cover `window`
    /// epochs (TJA, local-aggregate historic).
    Historic {
        /// The historic executor, generalised over [`kspot_algos::WindowSource`].
        algorithm: Box<dyn HistoricAlgorithm + Send>,
        /// The `WITH HISTORY` span, in epochs.
        window: usize,
    },
}

impl SessionExec {
    fn name(&self) -> &'static str {
        match self {
            SessionExec::Continuous(a) => a.name(),
            SessionExec::Historic { algorithm, .. } => algorithm.name(),
        }
    }

    fn class(&self) -> QueryClass {
        match self {
            SessionExec::Continuous(_) => QueryClass::Continuous,
            SessionExec::Historic { .. } => QueryClass::Historic,
        }
    }
}

/// One registered query session (engine-side state; the user-facing handle is
/// [`Session`]).
struct SessionState {
    sql: String,
    plan: QueryPlan,
    exec: SessionExec,
    /// Every answer so far.  The only thing kept of an answer: the `Vec` an algorithm
    /// returns is copied in and dropped.
    results: ResultLog,
    /// Engine epoch index (not workload epoch number) at which the session joined.
    registered_at: u64,
    status: SessionStatus,
    /// True once some node's battery was exhausted during an epoch this session took
    /// part in — the boundary marker of the byte-identity guarantees (module docs).
    depleted_during_run: bool,
    /// The System-Panel comparison sessions registered for this session
    /// ([`QueryEngine::register_baselines`]), in panel order.
    baselines: Vec<QueryId>,
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

/// The snapshot spec a continuous plan executes with.  This is the **single** source
/// of the plan→spec policy, shared between the query router and the System-Panel
/// baseline builder, so the executed algorithm and the baselines it is compared
/// against can never be derived from diverging specs.
fn continuous_spec(
    scenario: &ScenarioConfig,
    plan: &QueryPlan,
) -> Result<SnapshotSpec, QueryError> {
    let domain = scenario.domain;
    match plan.strategy {
        ExecutionStrategy::SnapshotTopK => SnapshotSpec::from_plan(plan, domain),
        ExecutionStrategy::InNetworkAggregate => {
            let func = plan
                .aggregate
                .ok_or_else(|| QueryError::semantic("an aggregate query needs an aggregate"))?;
            Ok(SnapshotSpec::new(scenario.num_clusters().max(1), func, domain))
        }
        ExecutionStrategy::RawCollection => Ok(SnapshotSpec::new(
            scenario.num_clusters().max(1),
            kspot_query::AggFunc::Avg,
            domain,
        )),
        ExecutionStrategy::NodeMonitoringTopK => Ok(SnapshotSpec::new(
            plan.k.max(1) as usize,
            kspot_query::AggFunc::Max,
            domain,
        )),
        ExecutionStrategy::HistoricVerticalTopK | ExecutionStrategy::HistoricHorizontalTopK => {
            unreachable!("historic plans are routed to historic executors, never to snapshot specs")
        }
    }
}

/// The engine state every [`QueryEngine`] and [`Session`] handle shares — and, since
/// the fleet refactor, the unit of work a [`crate::EngineFleet`] shard schedules on
/// its thread pool.  The core is `Send` (plain owned data, `Send` algorithm boxes),
/// which is what lets one deployment's whole epoch loop migrate across pool threads
/// while staying byte-identical to a single-threaded run (ADR-006).
pub(crate) struct EngineCore {
    scenario: ScenarioConfig,
    max_sessions: usize,
    net: Network,
    workload: Workload,
    sessions: BTreeMap<QueryId, SessionState>,
    /// The ids of the `Active` sessions, ascending — what the epoch loop walks, so a
    /// tick costs the sessions that run, not every session ever admitted.  Ids are
    /// allocated ascending, so `push` keeps `sessions`' own iteration order.  (The
    /// finished sessions' state stays in `sessions`: this is not reaping.)
    live: Vec<QueryId>,
    /// The engine-shared per-node sliding windows, created at the first historic
    /// registration and fed once per epoch from then on (even across historic
    /// sessions' cancellations — the feed is a deterministic substrate duty, so a
    /// session's view of the windows never depends on the other sessions' lifecycle).
    windows: Option<WindowBank>,
    /// The durable checkpoint store (ADR-009), when checkpointing is enabled: every
    /// [`CheckpointStore::cadence`] fed epochs the shared windows are snapshotted
    /// onto the modeled flash device, and `AS OF` sessions answer from the retained
    /// images.  `None` keeps the engine exactly as it was before kspot-store existed
    /// — no page traffic, no retained state.
    store: Option<CheckpointStore>,
    /// Total node-local energy spent feeding the shared windows (µJ), charged
    /// unscoped once per epoch — the amortised maintenance cost ADR-005 documents.
    maintenance_energy_uj: f64,
    next_id: QueryId,
    epochs_run: u64,
}

impl EngineCore {
    pub(crate) fn active_sessions(&self) -> usize {
        self.live.len()
    }

    pub(crate) fn max_sessions(&self) -> usize {
        self.max_sessions
    }

    pub(crate) fn register_plan_with_sql(
        &mut self,
        plan: QueryPlan,
        sql: String,
    ) -> Result<QueryId, QueryError> {
        if self.active_sessions() >= self.max_sessions {
            return Err(QueryError::semantic(format!(
                "admission rejected: the engine already serves {} concurrent queries (cap {})",
                self.active_sessions(),
                self.max_sessions
            )));
        }
        let exec = self.executor_for(&plan)?;
        self.admit(sql, plan, exec)
    }

    /// The tail every registration shares — user queries and baselines alike:
    /// validate an `AS OF` clause, size the shared windows, allocate the session id.
    fn admit(
        &mut self,
        sql: String,
        plan: QueryPlan,
        exec: SessionExec,
    ) -> Result<QueryId, QueryError> {
        self.validate_as_of(&plan)?;
        // An `AS OF` session answers from a retained checkpoint image, not from the
        // live windows, so it neither creates nor grows the shared bank.
        if plan.as_of_epoch.is_none() {
            if let SessionExec::Historic { window, .. } = &exec {
                match self.windows.as_mut() {
                    Some(bank) => bank.grow_capacity(*window),
                    None => self.windows = Some(WindowBank::new(*window)),
                }
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
                depleted_during_run: false,
                baselines: Vec::new(),
            },
        );
        self.live.push(id);
        Ok(id)
    }

    /// Admission-time validation of an `AS OF` clause: the engine must checkpoint at
    /// all, and the named epoch must be a *retained* snapshot.  Rejecting here (the
    /// SQL may have arrived over the wire) turns a stale or fabricated epoch into a
    /// typed 400-style error instead of a session that silently never answers.
    fn validate_as_of(&self, plan: &QueryPlan) -> Result<(), QueryError> {
        let Some(epoch) = plan.as_of_epoch else { return Ok(()) };
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
        Ok(())
    }

    /// [`QueryEngine::register_baselines`]: each baseline is admitted with the
    /// primary's plan, so a `LIFETIME` or `AS OF` clause bounds both alike.
    ///
    /// Baselines bypass the admission cap: they are bookkeeping the *server* asked
    /// for, and letting them compete with user queries for slots would make a
    /// query's admissibility depend on whether its panel wants comparisons.
    fn register_baselines(&mut self, primary: QueryId) -> Result<Vec<QueryId>, QueryError> {
        let plan = self.state(primary).plan.clone();
        let mut ids = Vec::new();
        for exec in self.baseline_executors(&plan)? {
            let sql = format!("baseline: {}", exec.name());
            ids.push(self.admit(sql, plan.clone(), exec)?);
        }
        self.sessions
            .get_mut(&primary)
            .expect("the primary session was read above")
            .baselines
            .extend(&ids);
        Ok(ids)
    }

    /// The conventional acquisition strategies the System Panel compares a plan
    /// against, per the paper: TAG and centralized collection for snapshot Top-K,
    /// centralized collection for plain aggregation and node monitoring, TPUT and
    /// centralized window collection for vertically fragmented history, centralized
    /// window collection for horizontal history, none for raw collection (it is its
    /// own baseline).
    fn baseline_executors(&self, plan: &QueryPlan) -> Result<Vec<SessionExec>, QueryError> {
        let domain = self.scenario.domain;
        let historic = |algorithm: Box<dyn HistoricAlgorithm + Send>, spec: HistoricSpec| {
            SessionExec::Historic { algorithm, window: spec.window }
        };
        Ok(match plan.strategy {
            ExecutionStrategy::SnapshotTopK => {
                let spec = continuous_spec(&self.scenario, plan)?;
                vec![
                    SessionExec::Continuous(Box::new(TagTopK::new(spec))),
                    SessionExec::Continuous(Box::new(CentralizedCollection::new(spec))),
                ]
            }
            ExecutionStrategy::InNetworkAggregate | ExecutionStrategy::NodeMonitoringTopK => {
                let spec = continuous_spec(&self.scenario, plan)?;
                vec![SessionExec::Continuous(Box::new(CentralizedCollection::new(spec)))]
            }
            ExecutionStrategy::RawCollection => Vec::new(),
            ExecutionStrategy::HistoricVerticalTopK => {
                let spec = self.vertical_spec(plan)?;
                vec![
                    historic(Box::new(Tput::new(spec)), spec),
                    historic(Box::new(CentralizedHistoric::new(spec)), spec),
                ]
            }
            ExecutionStrategy::HistoricHorizontalTopK => {
                let k = SnapshotSpec::from_plan(plan, domain)?.k;
                let spec = HistoricSpec::new(k, AggFunc::Avg, domain, Self::history_window(plan)?);
                vec![historic(Box::new(CentralizedHistoric::new(spec)), spec)]
            }
        })
    }

    /// The validated `WITH HISTORY` span of a historic plan.
    fn history_window(plan: &QueryPlan) -> Result<usize, QueryError> {
        let window = plan.history_epochs.unwrap_or(0) as usize;
        if window == 0 {
            return Err(QueryError::semantic(
                "a historic query needs a positive WITH HISTORY window",
            ));
        }
        // Admission-time resource bound: each node's sliding window preallocates
        // `window` sample slots, so an untrusted WITH HISTORY span is a direct
        // memory-exhaustion vector once SQL arrives over the wire.
        if window > QueryEngine::MAX_HISTORY_EPOCHS {
            return Err(QueryError::semantic(format!(
                "WITH HISTORY spans {window} epochs, beyond the engine's retention \
                 cap of {} epochs",
                QueryEngine::MAX_HISTORY_EPOCHS
            )));
        }
        Ok(window)
    }

    /// The spec a vertically fragmented historic plan executes with — like
    /// [`continuous_spec`], one policy for the routed algorithm and its baselines.
    fn vertical_spec(&self, plan: &QueryPlan) -> Result<HistoricSpec, QueryError> {
        let window = Self::history_window(plan)?;
        let func = plan
            .aggregate
            .ok_or_else(|| QueryError::semantic("a historic ranked query needs an aggregate"))?;
        if !matches!(func, AggFunc::Avg | AggFunc::Sum) {
            return Err(QueryError::semantic(format!(
                "historic ranking requires a sum-decomposable aggregate (AVG or SUM), got {func}"
            )));
        }
        Ok(HistoricSpec::new(plan.k.max(1) as usize, func, self.scenario.domain, window))
    }

    /// Routes a plan to its executor (Section III of the paper) — continuous
    /// strategies to per-epoch in-network sweeps, historic strategies to
    /// window-source executors.
    fn executor_for(&self, plan: &QueryPlan) -> Result<SessionExec, QueryError> {
        if plan.class() == QueryClass::Historic {
            let window = Self::history_window(plan)?;
            let algorithm: Box<dyn HistoricAlgorithm + Send> = match plan.strategy {
                ExecutionStrategy::HistoricVerticalTopK => {
                    Box::new(Tja::new(self.vertical_spec(plan)?))
                }
                ExecutionStrategy::HistoricHorizontalTopK => {
                    let spec = SnapshotSpec::from_plan(plan, self.scenario.domain)?;
                    Box::new(LocalAggregateHistoric::new(spec))
                }
                _ => unreachable!("historic class implies a historic strategy"),
            };
            return Ok(SessionExec::Historic { algorithm, window });
        }
        let spec = continuous_spec(&self.scenario, plan)?;
        Ok(SessionExec::Continuous(match plan.strategy {
            ExecutionStrategy::SnapshotTopK => Box::new(MintViews::new(spec)),
            ExecutionStrategy::InNetworkAggregate => Box::new(TagTopK::new(spec)),
            ExecutionStrategy::RawCollection => Box::new(CentralizedCollection::new(spec)),
            ExecutionStrategy::NodeMonitoringTopK => Box::new(FilaMonitor::new(spec)),
            ExecutionStrategy::HistoricVerticalTopK | ExecutionStrategy::HistoricHorizontalTopK => {
                unreachable!("handled by the historic branch above")
            }
        }))
    }

    fn cancel(&mut self, id: QueryId) -> bool {
        match self.sessions.get_mut(&id) {
            Some(s) if s.status == SessionStatus::Active => {
                s.status = SessionStatus::Cancelled;
                let at = self.live.binary_search(&id).expect("an active session is live");
                self.live.remove(at);
                true
            }
            _ => false,
        }
    }

    pub(crate) fn run_epochs(&mut self, epochs: usize) {
        for _ in 0..epochs {
            let readings = self.workload.next_epoch();
            let epoch = readings.first().map(|r| r.epoch).unwrap_or(0);
            self.net.begin_epoch(epoch);
            // Shared window maintenance: ONE feed pass serves every registered
            // historic session.  Buffering is deliberately fault-oblivious — it
            // models the sensing-local flash write `BankWindows::collect`
            // models, which is what keeps engine-fed windows byte-identical to the
            // replay path — so the charge is fault-oblivious too: every buffered
            // sample is paid for, by the node that buffered it, unscoped, once per
            // epoch like the sampling baseline (amortised across sessions by
            // design).
            if let Some(bank) = self.windows.as_mut() {
                bank.feed(&readings);
                let per_sample = self.net.config().energy.cpu_cost(1);
                for r in &readings {
                    self.net.charge_cpu(r.node, 1);
                    self.maintenance_energy_uj += per_sample;
                }
                // Durable checkpoint (ADR-009): every `cadence` fed epochs the bank
                // is snapshotted onto the modeled flash.  Like the feed itself this
                // is unscoped substrate duty — each window-owning node pays the page
                // writes for persisting its own column, whoever later time-travels.
                if let Some(store) = self.store.as_mut() {
                    if store.due(bank.epochs_fed()) {
                        store.checkpoint(bank, epoch, &mut self.net);
                    }
                }
            }
            let now = self.epochs_run;
            let mut executed: Vec<QueryId> = Vec::new();
            for &id in &self.live {
                let session = self.sessions.get_mut(&id).expect("a live session has state");
                session.expire_if_due(now);
                if session.status != SessionStatus::Active {
                    continue;
                }
                match &mut session.exec {
                    SessionExec::Continuous(algo) => {
                        self.net.set_query_scope(Some(id));
                        session.results.push(algo.execute_epoch(&mut self.net, &readings));
                        executed.push(id);
                    }
                    SessionExec::Historic { algorithm, window } => {
                        if let Some(at) = session.plan.as_of_epoch {
                            // Time travel: restore the named snapshot from its
                            // encoded image — page reads and all protocol traffic
                            // under this session's scope — answer once, complete.
                            let store = self
                                .store
                                .as_ref()
                                .expect("AS OF sessions are admitted only with a store");
                            self.net.set_query_scope(Some(id));
                            // On Err the ring evicted the snapshot between admission
                            // and this tick.  The session completes unanswered (zero
                            // results), like a lifetime-expired historic session: the
                            // epoch is wire-reachable, so a stale AS OF must never
                            // panic the engine.
                            if let Ok(mut view) = store.restore(at, *window, &mut self.net) {
                                session.results.push(algorithm.execute(&mut self.net, &mut view));
                            }
                            session.status = SessionStatus::Completed;
                            executed.push(id);
                            continue;
                        }
                        let bank =
                            self.windows.as_mut().expect("historic sessions imply a window bank");
                        // Readiness is on the *buffered span*, not on how many epochs
                        // were ever fed: history evicted before a capacity growth is
                        // gone, so a longer-window session registered late must wait
                        // until the bank genuinely covers its span.
                        if bank.buffered_epochs() >= *window {
                            // The windows cover the session's span: answer once from
                            // the last `window` epochs, under the session's scope,
                            // and complete.
                            self.net.set_query_scope(Some(id));
                            let mut view = BankWindows::new(bank, *window);
                            session.results.push(algorithm.execute(&mut self.net, &mut view));
                            session.status = SessionStatus::Completed;
                            executed.push(id);
                        }
                    }
                }
            }
            self.net.set_query_scope(None);
            self.net.flush_frames();
            // Shared drain is intended physics (module docs): if the epoch exhausted —
            // or ran on — a depleted battery, every session that took part leaves the
            // byte-identity guarantee regime and is flagged.
            if !self.net.is_alive() {
                for id in &executed {
                    self.sessions.get_mut(id).expect("session exists").depleted_during_run = true;
                }
            }
            self.epochs_run += 1;
            // A session whose LIFETIME was fully served this epoch completes now, so
            // it neither holds an admission slot nor reports Active between runs.
            let (sessions, now) = (&mut self.sessions, self.epochs_run);
            self.live.retain(|id| {
                let session = sessions.get_mut(id).expect("a live session has state");
                session.expire_if_due(now);
                session.status == SessionStatus::Active
            });
        }
    }

    fn state(&self, id: QueryId) -> &SessionState {
        self.sessions.get(&id).expect("a Session handle outlives its engine-side state")
    }

    /// Session `id`'s scoped slice of the shared ledger, reported under `name`.
    fn scope_report(&self, id: QueryId, name: String) -> StrategyReport {
        StrategyReport::from_scope(name, self.net.metrics(), id, self.state(id).results.len())
    }

    fn session_report(&self, id: QueryId) -> StrategyReport {
        self.scope_report(id, format!("session {id}: {}", self.state(id).exec.name()))
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

/// A read guard over a slice of the shared engine state, handed out by
/// [`QueryEngine::metrics`], [`QueryEngine::network`] and [`QueryEngine::scenario`].
///
/// The guard holds the engine's lock for its lifetime.  Read what you need and drop
/// it before driving the engine on: calling a mutating method (`run_epochs`,
/// `register`, [`Session::cancel`], …) from the **same thread** while the guard is
/// alive deadlocks (the lock is not reentrant); other threads simply block until the
/// guard drops.
pub struct EngineRef<'a, T: ?Sized> {
    guard: MutexGuard<'a, EngineCore>,
    project: fn(&EngineCore) -> &T,
}

impl<T: ?Sized> Deref for EngineRef<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        (self.project)(&self.guard)
    }
}

/// The long-lived multi-query execution engine (see the module docs).
///
/// The engine and the [`Session`] handles it hands out share one state cell
/// (`Arc<Mutex<EngineCore>>`), so a handle stays usable however the engine is driven
/// in between.  The engine is `Send + Sync`: handles can be cloned ([`Clone`] shares
/// the same cell) and moved across threads, and a [`crate::EngineFleet`] schedules
/// whole engine cores on a thread pool.  All methods serialise on the core's lock, so
/// concurrent use is safe but not parallel *within* one engine — parallelism comes
/// from running many deployments (ADR-006).
pub struct QueryEngine {
    core: Arc<Mutex<EngineCore>>,
}

impl Clone for QueryEngine {
    /// Clones the *handle*, not the engine: both handles drive the same sessions,
    /// substrate and epoch loop.
    fn clone(&self) -> Self {
        Self { core: Arc::clone(&self.core) }
    }
}

impl QueryEngine {
    /// Default cap on concurrently active sessions (admission control).
    pub const DEFAULT_MAX_SESSIONS: usize = 64;

    /// Cap on the `WITH HISTORY` span (in epochs) a historic session may demand.
    /// Each node's sliding window preallocates one slot per retained epoch, so the
    /// span bounds per-node memory; queries beyond the cap are rejected at admission
    /// rather than allowed to exhaust the process (the wire surface feeds untrusted
    /// SQL here).
    pub const MAX_HISTORY_EPOCHS: usize = 1 << 20;

    /// Boots an engine from explicit configuration, deriving the substrate's and the
    /// workload's streams from the master `seed` per the [`kspot_net::rng`] convention
    /// (the path [`crate::KSpotServer::engine`] and [`crate::EngineFleet::homogeneous`]
    /// use).
    pub(crate) fn from_config(
        scenario: ScenarioConfig,
        workload_spec: WorkloadSpec,
        net_config: NetworkConfig,
        seed: u64,
    ) -> Self {
        let config = net_config.with_seed(kspot_net::rng::substrate_seed(seed));
        let net = Network::new(scenario.deployment.clone(), config);
        let workload = workload_spec.build(&scenario, kspot_net::rng::workload_seed(seed));
        Self::from_substrate(scenario, net, workload)
    }

    /// Boots an engine over an explicitly constructed substrate — the entry point for
    /// test harnesses (e.g. kspot-testkit cells) that build faulted networks and
    /// exotic workloads the [`WorkloadSpec`] vocabulary cannot express.  Everything
    /// [`WorkloadSpec`] *can* express is configured on [`crate::KSpotServer`] instead.
    pub fn from_substrate(scenario: ScenarioConfig, net: Network, workload: Workload) -> Self {
        Self {
            core: Arc::new(Mutex::new(EngineCore {
                scenario,
                max_sessions: Self::DEFAULT_MAX_SESSIONS,
                net,
                workload,
                sessions: BTreeMap::new(),
                live: Vec::new(),
                windows: None,
                store: None,
                maintenance_energy_uj: 0.0,
                next_id: 0,
                epochs_run: 0,
            })),
        }
    }

    /// Wraps an existing shared core in a fresh handle (the path [`crate::EngineFleet`]
    /// uses to hand out per-deployment engine handles).
    pub(crate) fn from_core(core: Arc<Mutex<EngineCore>>) -> Self {
        Self { core }
    }

    /// The shared state cell itself (fleet internals).
    pub(crate) fn core_handle(&self) -> Arc<Mutex<EngineCore>> {
        Arc::clone(&self.core)
    }

    /// Overrides the admission cap on concurrently active sessions.
    pub fn with_max_sessions(self, max: usize) -> Self {
        lock_core(&self.core).max_sessions = max.max(1);
        self
    }

    /// Switches cross-query traffic sharing on or off (default **off**).
    ///
    /// Off, the engine preserves ADR-003's guarantee verbatim: each session's answers
    /// and attributed metrics are byte-identical shared vs solo.  On, all sessions'
    /// per-epoch reports are piggy-backed into one merged frame per node per epoch via
    /// the substrate's frame scheduler — the guarantee becomes *answer*-identical to
    /// the unbatched run on lossless substrates plus total-bytes-≤ (see the module
    /// docs and ADR-004).  May be toggled between runs.
    pub fn with_frame_batching(self, on: bool) -> Self {
        lock_core(&self.core).net.set_frame_batching(on);
        self
    }

    /// True while cross-query frame batching is enabled.
    pub fn frame_batching(&self) -> bool {
        lock_core(&self.core).net.frame_batching()
    }

    /// Enables durable window checkpointing (ADR-009): every `cadence` epochs fed
    /// into the shared windows, the bank is snapshotted onto the modeled flash
    /// device, each window-owning node paying the page writes for its own record.
    /// Retained snapshots are what `WITH HISTORY … AS OF epoch` queries answer from.
    ///
    /// Checkpoints only happen while the shared windows exist (i.e. once a historic
    /// session has registered): an engine serving only continuous queries stays
    /// byte-identical to a non-checkpointing one.
    pub fn with_checkpointing(self, cadence: u64) -> Self {
        lock_core(&self.core).store = Some(CheckpointStore::new(cadence));
        self
    }

    /// Adopts a previously serialised checkpoint store ([`Self::checkpoint_store_bytes`]
    /// → [`CheckpointStore::from_bytes`]) — the restore-on-construct path.  The
    /// engine re-creates its shared windows from the newest retained snapshot
    /// (uncharged: crash recovery is not billed to any query) and **resumes** the
    /// epoch stream right after that snapshot — the workload is deterministic in the
    /// seed, so fast-forwarding past the epochs the previous life already served is
    /// exact.  Those epochs' substrate costs were charged in the previous life; the
    /// restarted ledger covers only its own epochs.  Call before registering
    /// queries, on an engine built from the same scenario and seed.
    pub fn with_checkpoint_store(self, store: CheckpointStore) -> Self {
        {
            let mut core = lock_core(&self.core);
            assert!(
                core.sessions.is_empty() && core.epochs_run == 0,
                "a checkpoint store must be adopted before any query registers or runs"
            );
            if let Some(bank) = store
                .restore_latest_bank()
                .expect("a store rebuilt via from_bytes is fully validated")
            {
                let resume_at = store.latest_epoch().expect("a non-empty store has a newest epoch") + 1;
                while core.workload.upcoming_epoch() < resume_at {
                    let _ = core.workload.next_epoch();
                }
                core.epochs_run = resume_at;
                core.windows = Some(bank);
            }
            core.store = Some(store);
        }
        self
    }

    /// Snapshot epochs currently retained by the checkpoint store, oldest first
    /// (empty when checkpointing is disabled) — the epochs `AS OF` may name.
    pub fn checkpoint_epochs(&self) -> Vec<Epoch> {
        lock_core(&self.core).store.as_ref().map(CheckpointStore::snapshot_epochs).unwrap_or_default()
    }

    /// Total encoded snapshot bytes currently on the modeled flash device.
    pub fn checkpoint_storage_bytes(&self) -> u64 {
        lock_core(&self.core).store.as_ref().map(CheckpointStore::stored_bytes).unwrap_or(0)
    }

    /// Serialises the whole checkpoint store (manifest + image log) for persistence
    /// across engine restarts, or `None` when checkpointing is disabled.  Feed the
    /// bytes back through [`CheckpointStore::from_bytes`] and
    /// [`Self::with_checkpoint_store`] to restart durably.
    pub fn checkpoint_store_bytes(&self) -> Option<Vec<u8>> {
        lock_core(&self.core).store.as_ref().map(CheckpointStore::to_bytes)
    }

    /// Registers the System-Panel comparison strategies of `primary` as baseline
    /// *sessions*, for **every** query class: TAG and centralized collection for
    /// snapshot Top-K, centralized collection for plain aggregation and node
    /// monitoring, TPUT and centralized window collection for vertically fragmented
    /// history, centralized window collection for horizontal history, none for raw
    /// collection.  Returns the baselines' session ids, in panel order.
    ///
    /// Each baseline runs inside the shared epoch loop under its own metrics scope,
    /// over the same readings, windows or (for `AS OF` plans) checkpoint image as
    /// `primary`, and shares its plan, so a `LIFETIME` clause bounds both alike.
    /// [`Session::finalize`] reports them on the primary's System Panel under their
    /// algorithm names.  Baselines bypass the admission cap.  Call it once, in the
    /// epoch `primary` registered in — a baseline that joins later is compared over
    /// a shorter span (its report's `epochs` says so).
    pub fn register_baselines(&mut self, primary: &Session) -> Result<Vec<QueryId>, QueryError> {
        assert!(
            Arc::ptr_eq(&self.core, &primary.core),
            "the primary session was registered on another engine"
        );
        lock_core(&self.core).register_baselines(primary.id)
    }

    /// The configured scenario.  (A lock guard — see [`Self::metrics`] for the
    /// aliasing rule.)
    pub fn scenario(&self) -> EngineRef<'_, ScenarioConfig> {
        EngineRef { guard: lock_core(&self.core), project: |c| &c.scenario }
    }

    /// Number of shared epochs the engine has executed so far.
    pub fn epochs_run(&self) -> u64 {
        lock_core(&self.core).epochs_run
    }

    /// Number of sessions currently taking part in the shared loop (including
    /// historic sessions still waiting for their window to fill).
    pub fn active_sessions(&self) -> usize {
        lock_core(&self.core).active_sessions()
    }

    /// Every session ever registered, in registration order.
    pub fn session_ids(&self) -> Vec<QueryId> {
        lock_core(&self.core).sessions.keys().copied().collect()
    }

    /// Fresh [`Session`] handles for every session ever registered, in registration
    /// order.
    pub fn sessions(&self) -> Vec<Session> {
        self.session_ids().into_iter().map(|id| self.handle(id)).collect()
    }

    /// A fresh [`Session`] handle for a known session id, or `None` for unknown ids.
    pub fn session(&self, id: QueryId) -> Option<Session> {
        lock_core(&self.core).sessions.contains_key(&id).then(|| self.handle(id))
    }

    fn handle(&self, id: QueryId) -> Session {
        Session { id, core: Arc::clone(&self.core), cursor: 0 }
    }

    /// Parses, classifies and admits a query into the shared epoch loop, returning
    /// its [`Session`] handle.  This is the **single** submission surface: continuous
    /// queries answer every epoch; `WITH HISTORY` queries join the loop too, answer
    /// once from the engine-shared sliding windows, and complete (module docs).
    pub fn register(&mut self, sql: &str) -> Result<Session, QueryError> {
        let plan = classify(&parse(sql)?)?;
        let id = lock_core(&self.core).register_plan_with_sql(plan, sql.to_string())?;
        Ok(self.handle(id))
    }

    /// Runs `epochs` shared epochs: per epoch, the workload is acquired once, the
    /// substrate's fixed cost is charged once, the shared windows (if any historic
    /// session ever registered) are fed once, and every active session executes its
    /// own protocol sweep with its metrics scope installed.  The substrate advances
    /// even when no session is active (the field keeps living between queries).
    pub fn run_epochs(&mut self, epochs: usize) {
        lock_core(&self.core).run_epochs(epochs);
    }

    /// Total node-local energy spent feeding the shared sliding windows so far (µJ).
    /// Charged once per epoch regardless of how many historic sessions are registered
    /// — the amortisation the shared-window design exists for (module docs).
    pub fn window_maintenance_energy_uj(&self) -> f64 {
        lock_core(&self.core).maintenance_energy_uj
    }

    /// The shared substrate's full metrics ledger (all sessions plus the unscoped
    /// per-epoch baseline and window-maintenance cost).
    ///
    /// Returns a lock guard over the state shared with every [`Session`] handle:
    /// calling a mutating method (`run_epochs`, `register`, `Session::cancel`, …)
    /// from the same thread while the guard is alive deadlocks.  Read what you need
    /// and drop the guard (e.g. `let totals = engine.metrics().totals();`) before
    /// driving the engine on.
    pub fn metrics(&self) -> EngineRef<'_, NetworkMetrics> {
        EngineRef { guard: lock_core(&self.core), project: |c| c.net.metrics() }
    }

    /// The shared network substrate.  (A lock guard — see [`Self::metrics`] for
    /// the aliasing rule.)
    pub fn network(&self) -> EngineRef<'_, Network> {
        EngineRef { guard: lock_core(&self.core), project: |c| &c.net }
    }

    /// The workload epoch number the next [`Self::run_epochs`] sweep will acquire.
    pub fn upcoming_epoch(&self) -> Epoch {
        lock_core(&self.core).workload.upcoming_epoch()
    }
}

/// What one [`Session::results_page`] read saw.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultsPage {
    /// The requested slice of the session's answers, oldest first.
    pub results: Vec<TopKResult>,
    /// How many answers the session held in total at the time of the read.
    pub total: usize,
    /// The session's lifecycle state at the time of the read.
    pub status: SessionStatus,
}

/// A typed handle to one registered query session — the uniform lifecycle surface of
/// the engine (module docs): inspect ([`Self::status`], [`Self::results`],
/// [`Self::results_page`], [`Self::totals`]), consume per-epoch answers
/// ([`Self::poll`]), render ([`Self::bullets`]), stop
/// ([`Self::cancel`]) and convert into a [`QueryExecution`] with its System Panel
/// ([`Self::finalize`]).
///
/// Handles are cheap to clone; each clone keeps its own [`Self::poll`] cursor.  A
/// handle shares state with its engine, so results produced by later
/// [`QueryEngine::run_epochs`] calls are visible through it immediately.  Sessions
/// are `Send + Sync`: a handle can be polled, cancelled and finalized from any
/// thread while the engine (or the fleet's thread pool) drives the epoch loop —
/// every access serialises on the engine's lock.
pub struct Session {
    id: QueryId,
    core: Arc<Mutex<EngineCore>>,
    /// Index of the first result the next [`Self::poll`] returns.
    cursor: usize,
}

impl Clone for Session {
    fn clone(&self) -> Self {
        Self { id: self.id, core: Arc::clone(&self.core), cursor: self.cursor }
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("id", &self.id)
            .field("status", &self.status())
            .field("cursor", &self.cursor)
            .finish()
    }
}

impl Session {
    /// Wraps a shared core and a known session id in a fresh handle (the path
    /// [`crate::EngineFleet::register`] uses).
    pub(crate) fn from_core(core: Arc<Mutex<EngineCore>>, id: QueryId) -> Self {
        Self { id, core, cursor: 0 }
    }

    /// The session id — also the metrics attribution scope the session's traffic is
    /// booked under.
    pub fn id(&self) -> QueryId {
        self.id
    }

    /// The SQL text the session was registered with.
    pub fn sql(&self) -> String {
        lock_core(&self.core).state(self.id).sql.clone()
    }

    /// The classified plan of the session.
    pub fn plan(&self) -> QueryPlan {
        lock_core(&self.core).state(self.id).plan.clone()
    }

    /// The session's submission class: continuous (one answer per epoch) or historic
    /// (one answer from the shared windows).
    pub fn class(&self) -> QueryClass {
        lock_core(&self.core).state(self.id).exec.class()
    }

    /// The name of the in-network algorithm the session was routed to.
    pub fn algorithm(&self) -> &'static str {
        lock_core(&self.core).state(self.id).exec.name()
    }

    /// The session's lifecycle state.
    pub fn status(&self) -> SessionStatus {
        lock_core(&self.core).state(self.id).status
    }

    /// The session's ranked answers so far: one entry per epoch a continuous session
    /// was active in; exactly one entry once a historic session has answered.
    pub fn results(&self) -> Vec<TopKResult> {
        lock_core(&self.core).state(self.id).results.page(0, usize::MAX)
    }

    /// The session's most recent ranked answer.
    pub fn latest(&self) -> Option<TopKResult> {
        lock_core(&self.core).state(self.id).results.latest()
    }

    /// The answers produced since this handle's last [`Self::poll`] call (all answers
    /// so far on the first call).  Each handle keeps its own
    /// cursor, so clones poll independently.
    pub fn poll(&mut self) -> Vec<TopKResult> {
        let page = self.results_page(self.cursor, usize::MAX);
        self.cursor = page.total;
        page.results
    }

    /// A bounded read for callers that keep their own cursor (the wire front-end):
    /// at most `max` answers starting at index `cursor`, plus the session's answer
    /// count and status, all under one lock acquisition.  Costs O(answers returned),
    /// not O(history) like [`Self::results`].
    pub fn results_page(&self, cursor: usize, max: usize) -> ResultsPage {
        let core = lock_core(&self.core);
        let state = core.state(self.id);
        ResultsPage {
            results: state.results.page(cursor, max),
            total: state.results.len(),
            status: state.status,
        }
    }

    /// Cancels the session.  Returns `false` when it already completed or was
    /// cancelled.  Cancelled sessions keep their id, results and attributed metrics
    /// readable.
    pub fn cancel(&mut self) -> bool {
        lock_core(&self.core).cancel(self.id)
    }

    /// The message/byte/energy totals attributed to the session — its slice of the
    /// shared substrate's ledger.
    pub fn totals(&self) -> PhaseTotals {
        let core = lock_core(&self.core);
        core.net.query_totals(self.id)
    }

    /// Whether some node's battery was exhausted during an epoch this session took
    /// part in.  `false` certifies the session ran entirely inside the byte-identity
    /// guarantee regime; `true` marks its answers as battery-coupled to the
    /// concurrent session mix (see the module docs and ADR-004).
    pub fn depleted_during_run(&self) -> bool {
        lock_core(&self.core).state(self.id).depleted_during_run
    }

    /// A System-Panel [`StrategyReport`] for the session, built from its attribution
    /// scope alone — per-query totals and a per-phase table without a dedicated solo
    /// run.  The per-node breakdown is not scoped, so the report carries no
    /// bottleneck-energy estimate (see [`StrategyReport::from_scope`]).
    pub fn report(&self) -> StrategyReport {
        lock_core(&self.core).session_report(self.id)
    }

    /// Turns one of the session's ranked answers into the Display Panel's bullets,
    /// labelled by what the session's plan ranks: the cluster name for room-grouped
    /// strategies, `node <id>` for node monitoring, `epoch <e>` for vertically
    /// fragmented history.
    pub fn bullets(&self, result: &TopKResult) -> Vec<KSpotBullet> {
        let core = lock_core(&self.core);
        let strategy = core.state(self.id).plan.strategy;
        result
            .items
            .iter()
            .enumerate()
            .map(|(i, item)| KSpotBullet {
                rank: i + 1,
                key: item.key,
                label: match strategy {
                    ExecutionStrategy::NodeMonitoringTopK => format!("node {}", item.key),
                    ExecutionStrategy::HistoricVerticalTopK => format!("epoch {}", item.key),
                    _ => match GroupId::try_from(item.key) {
                        Ok(group) => core.scenario.cluster_name(group),
                        Err(_) => format!("Cluster {}", item.key),
                    },
                },
                value: item.value,
            })
            .collect()
    }

    /// Converts the session into a [`QueryExecution`]: the classified plan, the
    /// routed algorithm, every answer produced so far, and a System Panel whose KSpot
    /// report is the session's attributed slice of the shared ledger.  The panel's
    /// baselines are the scoped slices of the comparison sessions registered through
    /// [`QueryEngine::register_baselines`] (none if it was never called), each under
    /// its algorithm name.
    pub fn finalize(self) -> QueryExecution {
        let core = lock_core(&self.core);
        let state = core.state(self.id);
        let by_algorithm = |id| core.scope_report(id, core.state(id).exec.name().to_string());
        let baselines = state.baselines.iter().copied().map(by_algorithm).collect();
        QueryExecution {
            plan: state.plan.clone(),
            algorithm: state.exec.name().to_string(),
            results: state.results.page(0, usize::MAX),
            panel: SystemPanel::new(by_algorithm(self.id), baselines)
                .with_sessions(vec![core.session_report(self.id)]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::KSpotServer;
    use kspot_algos::WindowSource;
    use kspot_net::codec::{put_u32, Reader};
    use kspot_net::types::ValueDomain;
    use kspot_net::{Deployment, NodeId};

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
        assert_eq!(mint.plan().k, 1);
        assert_eq!(mint.class(), QueryClass::Continuous);
        assert_eq!(tja.class(), QueryClass::Historic);
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

    #[test]
    fn a_results_page_is_the_matching_slice_of_results_with_total_and_status() {
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
            // Cursors at, before and past the end; windows of none, some and all.
            for cursor in 0..total + 2 {
                for max in [0, 1, 2, total, usize::MAX] {
                    let page = session.results_page(cursor, max);
                    let start = cursor.min(total);
                    let end = start.saturating_add(max).min(total);
                    assert_eq!(page.results, all[start..end], "cursor {cursor}, max {max}");
                    assert_eq!((page.total, page.status), (total, status));
                }
            }
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
        assert_eq!(execution.algorithm, "KSpot (MINT views)");
        assert_eq!(execution.plan.k, 2);
        assert!(execution.panel.baselines.is_empty(), "finalize attaches no comparison runs");
        assert_eq!(execution.panel.kspot.totals, totals, "the panel is the session's slice");
        assert_eq!(execution.panel.sessions.len(), 1);
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
            assert_eq!(e.frame_batching(), batched);
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
        let mut engine = KSpotServer::new(ScenarioConfig::conference())
            .with_network_config(NetworkConfig::mica2().with_battery_uj(10_000.0))
            .with_seed(1)
            .engine();
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
        engine.run_epochs(10);
        assert!(
            witness.depleted_during_run(),
            "the long session ran epochs on a field with an exhausted battery"
        );
        assert!(!early.depleted_during_run(), "completed sessions stay unflagged");
    }

    #[test]
    fn session_reports_carve_the_per_query_phase_table_out_of_the_shared_ledger() {
        let mut engine = engine(4);
        let mint = engine.register(EIGHT_QUERIES[0]).unwrap();
        let raw = engine.register(EIGHT_QUERIES[5]).unwrap();
        engine.run_epochs(8);

        let report = mint.report();
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

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig {
            cases: 24,
            ..proptest::ProptestConfig::default()
        })]

        /// Register / cancel / `LIFETIME` expiry / one-shot historic in any order: the
        /// live list is the scan's answer after every step, and an engine whose list
        /// is thrown away and rebuilt by the scan before every epoch (the twin) serves
        /// the same answers from the same ledgers.
        #[test]
        fn the_live_list_is_the_active_scan_and_serves_what_the_scan_served(
            ops in proptest::collection::vec((0u8..5, 0usize..64), 1..40),
        ) {
            let (mut engine, mut twin) = (engine(29), engine(29));
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
                    _ => {
                        let mut core = lock_core(&twin.core);
                        core.live = active_by_scan(&core);
                        drop(core);
                        engine.run_epochs(1 + pick % 2);
                        twin.run_epochs(1 + pick % 2);
                    }
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
}
