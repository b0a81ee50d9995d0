use super::{lock_core, EngineCore, QueryId, SessionStatus};
use crate::panel::{StrategyReport, SystemPanel};
use crate::server::{KSpotBullet, QueryExecution};
use kspot_algos::{RankedItem, TopKResult};
use kspot_net::{Epoch, GroupId, PhaseTotals};
use kspot_query::plan::ExecutionStrategy;
use std::sync::{Arc, Mutex};

/// What one [`Session::deliver`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// How many answers the sink accepted — the handle consumed exactly these.
    pub delivered: usize,
    /// How many answers the session produced that this handle has not consumed yet.
    pub pending: usize,
    /// The session's lifecycle state at the time of the delivery.
    pub status: SessionStatus,
}

/// A typed handle to one registered query session — the uniform lifecycle surface of
/// the engine (module docs): inspect ([`Self::status`], [`Self::results`],
/// [`Self::totals`]), consume per-epoch answers ([`Self::poll`], or lent to a sink by
/// [`Self::deliver`]), render ([`Self::bullets`]), stop
/// ([`Self::cancel`]) and convert into a [`QueryExecution`] with its System Panel
/// ([`Self::finalize`]).
///
/// Handles are cheap to clone; each clone keeps its own [`Self::poll`] cursor.  A
/// handle shares state with its engine, so results produced by later
/// [`crate::QueryEngine::run_epochs`] calls are visible through it immediately.
/// Sessions are `Send + Sync`: a handle can be polled, cancelled and finalized from any
/// thread while the engine (or the fleet's thread pool) drives the epoch loop —
/// every access serialises on the engine's lock.
///
/// The engine knows every live handle's cursor: a session releases the answers all its
/// live handles have polled past, except for its newest
/// [`kspot_net::RETENTION_WINDOW`], and a finished session whose answers were all
/// polled is reaped when its last handle drops (ADR-014, "Retention").  Minting,
/// cloning and dropping a handle therefore take the engine's lock, like any other
/// call: do not drop a handle while holding an [`crate::EngineRef`] on the same
/// thread.  On a poisoned engine they do nothing, and never panic.
pub struct Session {
    pub(super) id: QueryId,
    pub(super) core: Arc<Mutex<EngineCore>>,
    /// Absolute index of the first result the next [`Self::poll`] returns.
    cursor: usize,
}

impl Clone for Session {
    fn clone(&self) -> Self {
        // A torn engine registers nothing; its handles stay usable as far as the
        // engine is (every read panics, ADR-006).
        if let Ok(mut core) = self.core.lock() {
            core.attach(self.id, self.cursor);
        }
        Self { id: self.id, core: Arc::clone(&self.core), cursor: self.cursor }
    }
}

impl Drop for Session {
    /// Unregisters the handle's cursor, releasing what only it held back, and reaps the
    /// session if it was the last thing that could read it.  Drop runs during
    /// unwinding too, so a poisoned engine is skipped, never unwrapped.
    fn drop(&mut self) {
        if let Ok(mut core) = self.core.lock() {
            core.detach(self.id, self.cursor);
        }
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
    /// A fresh handle of resident session `id` of the engine `cell`, whose lock the
    /// caller holds as `core`: registered at the session's first retained answer (the
    /// path every handle but a clone is minted on, [`crate::EngineFleet::try_register`]'s
    /// included).
    pub(crate) fn attach(cell: &Arc<Mutex<EngineCore>>, core: &mut EngineCore, id: QueryId) -> Self {
        let cursor = core.attach(id, 0);
        Self { id, core: Arc::clone(cell), cursor }
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

    /// The name of the in-network algorithm the session was routed to.
    pub fn algorithm(&self) -> &'static str {
        lock_core(&self.core).state(self.id).exec.name()
    }

    /// The session's lifecycle state.
    pub fn status(&self) -> SessionStatus {
        lock_core(&self.core).state(self.id).status
    }

    /// The session's ranked answers so far — one entry per epoch a continuous session
    /// was active in; exactly one entry once a historic session has answered — or the
    /// newest [`kspot_net::RETENTION_WINDOW`] once every live handle has consumed older
    /// ones.
    pub fn results(&self) -> Vec<TopKResult> {
        lock_core(&self.core).state(self.id).results.retained()
    }

    /// The session's most recent ranked answer (never released).
    pub fn latest(&self) -> Option<TopKResult> {
        lock_core(&self.core).state(self.id).results.latest()
    }

    /// The answers produced since this handle's last [`Self::poll`] call (on the first
    /// call, every answer since the handle's first, which is the session's first
    /// retained answer when the handle was minted).  Each handle keeps its own cursor,
    /// so clones poll independently, and nothing a live handle has not polled is ever
    /// released: a poll never misses an answer.  Polling is what *consumes* answers —
    /// what lets the session release them and, once it finished and its handles
    /// dropped, be reaped.
    pub fn poll(&mut self) -> Vec<TopKResult> {
        let mut core = lock_core(&self.core);
        core.state_mut(self.id).results.poll(&mut self.cursor)
    }

    /// A bounded, consuming read for callers that copy answers somewhere of their own
    /// (the wire front-end encodes them into frames): lends `accept` the answers from
    /// this handle's cursor on, oldest first, each as its epoch and its items borrowed
    /// from the session's log, until it has taken `max` or returns `false` for one.
    /// The handle moves past the accepted answers and never past the refused one,
    /// which the next call offers first; what it passed is consumed, as by
    /// [`Self::poll`].  The count, what is still pending for this handle and the status
    /// are read under the same lock acquisition.  No [`TopKResult`] is built: a sink
    /// with room for what it is lent makes the call allocate nothing.
    ///
    /// `accept` runs under the engine's lock.  It may only copy what it is lent into a
    /// buffer it owns: it must not call into the engine or take another lock (the
    /// engine's lock is not reentrant, so that deadlocks or panics), and it must not
    /// panic — a panic there poisons the engine (ADR-006).
    pub fn deliver(&mut self, max: usize, accept: impl FnMut(Epoch, &[RankedItem]) -> bool) -> Delivery {
        let mut core = lock_core(&self.core);
        let state = core.state_mut(self.id);
        let delivered = state.results.poll_with(&mut self.cursor, max, accept);
        Delivery { delivered, pending: state.results.len() - self.cursor, status: state.status }
    }

    /// Cancels the session.  Returns `false` when it already completed or was
    /// cancelled.  Cancelled sessions keep their id, retained results and attributed
    /// metrics readable while they are resident — until a poll consumed every answer
    /// and the last handle dropped.
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
        let core = lock_core(&self.core);
        let last_ran = core.state(self.id).last_ran;
        core.depleted_at.is_some_and(|at| last_ran >= Some(at))
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

    /// Converts the session into a [`QueryExecution`]: the classified plan, every
    /// answer produced so far (or the newest [`kspot_net::RETENTION_WINDOW`] once every
    /// live handle has consumed older ones), and a System Panel whose KSpot report is
    /// the session's attributed slice of the shared ledger, under the name of the
    /// algorithm it was routed to.  Dropping the handle may reap the session (see
    /// [`Self::poll`]).  The panel's
    /// baselines are the scoped slices of the comparison sessions registered through
    /// [`crate::QueryEngine::register_baselines`] (none if it was never called),
    /// each under its algorithm name.
    pub fn finalize(self) -> QueryExecution {
        let core = lock_core(&self.core);
        let state = core.state(self.id);
        let by_algorithm = |id| {
            let session = core.state(id);
            let name = session.exec.name().to_string();
            StrategyReport::from_scope(name, core.net.metrics(), id, session.results.len())
        };
        let baselines = state.baselines.iter().copied().map(by_algorithm).collect();
        QueryExecution {
            plan: state.plan,
            results: state.results.retained(),
            panel: SystemPanel::new(by_algorithm(self.id), baselines),
        }
    }
}
