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
//! [`crate::QueryExecution`] carrying its System Panel.
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
//! The engine maintains **one** [`kspot_net::WindowBank`] — one sliding window per
//! node, with capacity following the largest registered `WITH HISTORY` span — fed once
//! per epoch from the very readings the continuous sessions consume.  TJA and the
//! local-aggregate historic strategy answer from that bank through a borrowed
//! [`kspot_algos::BankWindows`] view, so N registered historic sessions share a single
//! per-epoch maintenance pass instead of each replaying a full `BankWindows::collect`
//! pass against a fresh network.
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
//! The flag is derived, not recorded: each session keeps the last engine epoch it ran
//! its protocol in (every epoch of a continuous session, the answering epoch of a
//! historic one), the engine keeps the first epoch that ended on a depleted battery,
//! and the flag reads "the first is at or after the second".  That is exact because a
//! battery is only ever drained, so a field that ended one epoch depleted ends every
//! later epoch depleted too: the depleted epochs are exactly those from the first one
//! on, and a session took part in one of them exactly when its last epoch is among
//! them.
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

mod core;
mod handle;

use crate::config::ScenarioConfig;
use crate::server::WorkloadSpec;
use kspot_net::{Epoch, Network, NetworkConfig, NetworkMetrics, Workload};
use kspot_query::plan::classify;
use kspot_query::{parse, QueryError};
use kspot_store::CheckpointStore;
use std::collections::BTreeMap;
use std::ops::Deref;
use std::sync::{Arc, Mutex, MutexGuard};

pub(crate) use self::core::{lock_core, try_lock_core, EngineCore, Refusal};
pub use self::handle::{Delivery, Session};

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

/// A read guard over a slice of the shared engine state, handed out by
/// [`QueryEngine::metrics`] and [`QueryEngine::network`].
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
                ended: Vec::new(),
                depleted_at: None,
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
    /// queries, on an engine built from the same scenario and seed.  A store whose
    /// newest snapshot is at `u64::MAX` leaves no epoch to resume at;
    /// [`CheckpointStore::from_bytes`] refuses one.
    pub fn with_checkpoint_store(self, store: CheckpointStore) -> Self {
        {
            let mut core = lock_core(&self.core);
            assert!(
                core.next_id == 0 && core.epochs_run == 0,
                "a checkpoint store must be adopted before any query registers or runs"
            );
            if let Some(bank) = store.restore_latest_bank() {
                let resume_at = store
                    .latest_epoch()
                    .and_then(|newest| newest.checked_add(1))
                    .expect("a non-empty store has a newest epoch, and from_bytes refuses u64::MAX");
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

    /// Number of shared epochs the engine has executed so far.
    pub fn epochs_run(&self) -> u64 {
        lock_core(&self.core).epochs_run
    }

    /// Number of sessions currently taking part in the shared loop (including
    /// historic sessions still waiting for their window to fill).
    pub fn active_sessions(&self) -> usize {
        lock_core(&self.core).active_sessions()
    }

    /// Every resident session, in registration order: every session registered and
    /// not reaped yet.  A session is reaped once it finished, a poll consumed all its
    /// answers and its last handle dropped (ADR-014, "Retention"); a session nobody
    /// polled stays resident.
    pub fn session_ids(&self) -> Vec<QueryId> {
        lock_core(&self.core).sessions.keys().copied().collect()
    }

    /// Fresh [`Session`] handles for every resident session ([`Self::session_ids`]), in
    /// registration order.  Each starts at its session's first retained answer.
    pub fn sessions(&self) -> Vec<Session> {
        let mut core = lock_core(&self.core);
        let ids: Vec<QueryId> = core.sessions.keys().copied().collect();
        ids.into_iter().map(|id| Session::attach(&self.core, &mut core, id)).collect()
    }

    /// A fresh [`Session`] handle for a resident session id, starting at the session's
    /// first retained answer, or `None` for unknown and reaped ids.
    pub fn session(&self, id: QueryId) -> Option<Session> {
        let mut core = lock_core(&self.core);
        core.sessions.contains_key(&id).then(|| Session::attach(&self.core, &mut core, id))
    }

    /// Parses, classifies and admits a query into the shared epoch loop, returning
    /// its [`Session`] handle.  This is the **single** submission surface: continuous
    /// queries answer every epoch; `WITH HISTORY` queries join the loop too, answer
    /// once from the engine-shared sliding windows, and complete (module docs).
    pub fn register(&mut self, sql: &str) -> Result<Session, QueryError> {
        let plan = classify(&parse(sql)?)?;
        let mut core = lock_core(&self.core);
        let id = core.register(plan, sql.to_string()).map_err(|refusal| match refusal {
            Refusal::Full { active, cap } => QueryError::semantic(format!(
                "admission rejected: the engine already serves {active} concurrent queries (cap {cap})"
            )),
            Refusal::Query(e) => e,
        })?;
        Ok(Session::attach(&self.core, &mut core, id))
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

#[cfg(test)]
mod tests;
