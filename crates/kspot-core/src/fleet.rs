//! The sharded engine fleet — M independent deployments on a fixed thread pool.
//!
//! One [`crate::QueryEngine`] is one venue: a single Network + Workload substrate
//! whose epoch loop is inherently serial (every session's protocol sweep mutates the
//! same field).  The "millions of users" story is therefore not one giant loop but
//! many tenants × many deployments: a hotel chain monitors every property, a facility
//! operator every floor, each with its own sensor field and its own query mix.
//! [`EngineFleet`] models exactly that — M engines ("deployments", addressed by
//! [`DeploymentId`]) driven concurrently by a fixed pool of `std::thread` workers,
//! with session routing by deployment id and a fleet-level admission cap layered over
//! each engine's own.  Each worker drains a job channel of its own, and shard `d`
//! always runs on worker `d % T` (ADR-006 "The pool: one channel per worker").
//!
//! ## The determinism contract (ADR-006)
//!
//! Deployments share **no** mutable state: each engine owns its substrate, its
//! workload stream, its loss-RNG streams and its window bank outright, and every one
//! of those derives its randomness from the deployment's own master seed.  The pool
//! only decides *when* a shard's epoch loop runs, never *what* it computes, so:
//!
//! > every deployment in a fleet is **byte-identical** — per-session answers and
//! > attributed metrics ledgers alike — to a solo [`crate::QueryEngine`] built from
//! > the same substrate and seeds and driven through the same registration sequence,
//! > regardless of the pool size or how the scheduler interleaves the shards.
//!
//! That is the `engine_cells` guarantee applied per shard, asserted cell-by-cell by
//! `tests/fleet_cells.rs` and under concurrent register/poll/cancel churn by
//! `tests/fleet_spike_concurrency.rs`.
//!
//! ## Locking discipline
//!
//! Each shard is one `Arc<Mutex<EngineCore>>` — the same cell a solo engine uses, so
//! [`crate::Session`] handles work identically whether their engine runs solo or in a
//! fleet.  Fleet methods that need a cross-shard view ([`EngineFleet::try_register`]'s
//! admission check, [`EngineFleet::active_sessions`]) take the shard locks in
//! ascending deployment order, which rules out lock-order inversions; per-shard epoch
//! jobs take exactly one lock each.  A panic inside a shard's epoch loop poisons that
//! shard alone — its job catches the panic, so the worker and the other deployments
//! keep serving — and the panic is re-raised on the thread that called
//! [`EngineFleet::run_epochs`] once every other shard has finished, never swallowed.

use crate::config::ScenarioConfig;
use crate::engine::{lock_core, try_lock_core, EngineCore, QueryEngine, Refusal, Session};
use crate::server::WorkloadSpec;
use kspot_net::NetworkConfig;
use kspot_query::plan::classify;
use kspot_query::{parse, QueryError};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// Index of a deployment (shard) within a fleet.  Assigned densely from 0 in the
/// order the engines were handed to [`EngineFleet::from_engines`].
pub type DeploymentId = usize;

/// Health of one deployment's state cell, as reported by
/// [`EngineFleet::shard_health`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardHealth {
    /// The shard serves normally.
    Healthy,
    /// The shard's state cell is poisoned: a prior operation panicked mid-epoch and
    /// its sessions/metrics are unrecoverable (ADR-006).  The rest of the fleet keeps
    /// serving; requests routed here fail with [`FleetError::Unhealthy`].
    Poisoned,
}

/// Which admission cap refused a registration (see [`FleetError::Rejected`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionScope {
    /// The fleet-wide cap ([`EngineFleet::with_max_total_sessions`]).
    Fleet,
    /// The target deployment's own per-engine cap.
    Deployment(DeploymentId),
}

/// The typed error surface of [`EngineFleet::try_register`] — what a front-end needs
/// to map failures onto distinct wire responses (ADR-007): admission overflow is a
/// 429-style rejection, a poisoned shard a 503-style outage, and everything else a
/// plain bad request.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetError {
    /// The deployment id is out of range for this fleet (a routing error).
    UnknownDeployment {
        /// The id the caller asked for.
        deployment: DeploymentId,
        /// How many deployments this fleet serves (ids are `0..deployments`).
        deployments: usize,
    },
    /// Admission control refused the session: a cap is full.  Retry after other
    /// sessions complete or are cancelled (429-style).
    Rejected {
        /// Which cap refused.
        scope: AdmissionScope,
        /// Active sessions counted against that cap.
        active: usize,
        /// The cap itself.
        cap: usize,
    },
    /// The target deployment's state cell is poisoned; only this shard is affected
    /// (503-style).
    Unhealthy {
        /// The poisoned deployment.
        deployment: DeploymentId,
    },
    /// The SQL failed to parse, validate or classify, or the engine refused the plan.
    Query(QueryError),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::UnknownDeployment { deployment, deployments } => write!(
                f,
                "unknown deployment id {deployment}: this fleet serves deployments \
                 0..{deployments}"
            ),
            FleetError::Rejected { scope: AdmissionScope::Fleet, active, cap } => write!(
                f,
                "fleet admission rejected: {active} concurrent sessions (fleet cap {cap})"
            ),
            FleetError::Rejected { scope: AdmissionScope::Deployment(d), active, cap } => write!(
                f,
                "admission rejected: deployment {d} already serves {active} concurrent \
                 queries (cap {cap})"
            ),
            FleetError::Unhealthy { deployment } => write!(
                f,
                "deployment {deployment} is unavailable: its state cell is poisoned \
                 (a prior operation panicked mid-epoch, ADR-006)"
            ),
            FleetError::Query(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Query(e) => Some(e),
            _ => None,
        }
    }
}

impl From<QueryError> for FleetError {
    fn from(e: QueryError) -> Self {
        FleetError::Query(e)
    }
}

// ---------------------------------------------------------------------------------
// the worker pool
// ---------------------------------------------------------------------------------

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed pool of named worker threads, one job channel each (the workspace is
/// hermetic — no rayon/tokio).  Key `k` always runs on worker `k % T`, so a shard keeps
/// its thread for the fleet's lifetime.  `Drop` closes every channel and joins each
/// worker once it has run what it was sent.
struct ThreadPool {
    workers: Vec<(Sender<Job>, JoinHandle<()>)>,
}

impl ThreadPool {
    fn new(threads: usize) -> Self {
        let workers = (0..threads.max(1))
            .map(|i| {
                let (queue, jobs) = mpsc::channel::<Job>();
                let worker = std::thread::Builder::new()
                    .name(format!("kspot-fleet-{i}"))
                    .spawn(move || {
                        for job in jobs {
                            job();
                        }
                    })
                    .expect("spawn a fleet worker thread");
                (queue, worker)
            })
            .collect();
        Self { workers }
    }

    /// Queues `job` on worker `key % T`.  A job must catch its own panic: one that
    /// unwinds ends its worker.
    fn execute(&self, key: usize, job: Job) {
        let (queue, _) = &self.workers[key % self.workers.len()];
        queue.send(job).expect("fleet worker thread alive");
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        for (queue, worker) in self.workers.drain(..) {
            drop(queue);
            let _ = worker.join();
        }
    }
}

/// The payload of a panic a shard's epoch loop raised.
type Panic = Box<dyn std::any::Any + Send>;

// ---------------------------------------------------------------------------------
// the fleet
// ---------------------------------------------------------------------------------

/// M independent engine deployments driven by a fixed thread pool (module docs).
///
/// The fleet is `Send + Sync`: registration, polling and cancellation can hit it from
/// many client threads while the pool advances the shards — the concurrency regime
/// `tests/fleet_spike_concurrency.rs` exercises.
pub struct EngineFleet {
    shards: Vec<Arc<Mutex<EngineCore>>>,
    pool: ThreadPool,
    max_total_sessions: usize,
}

impl EngineFleet {
    /// Default fleet-level cap on concurrently active sessions across all
    /// deployments (each engine's own [`QueryEngine::DEFAULT_MAX_SESSIONS`] still
    /// applies per shard underneath).
    pub const DEFAULT_MAX_TOTAL_SESSIONS: usize = 256;

    /// Assembles a fleet from explicitly built engines — the entry point for test
    /// harnesses that construct faulted substrates per deployment.  Deployment ids
    /// are assigned densely in vector order; `threads` is clamped to at least 1 (the
    /// pool is fixed for the fleet's lifetime).
    ///
    /// The engines are consumed: the fleet owns their state cells from here on.
    /// [`Self::deployment`] hands back per-shard [`QueryEngine`] handles sharing
    /// those same cells.
    pub fn from_engines(engines: Vec<QueryEngine>, threads: usize) -> Self {
        assert!(!engines.is_empty(), "a fleet needs at least one deployment");
        Self {
            shards: engines.into_iter().map(|e| e.core_handle()).collect(),
            pool: ThreadPool::new(threads),
            max_total_sessions: Self::DEFAULT_MAX_TOTAL_SESSIONS,
        }
    }

    /// Boots a homogeneous fleet: `deployments` copies of the same scenario, workload
    /// and cost model, each with its **own** master seed derived via
    /// [`Self::shard_seed`] so no two deployments share a single random draw.  The
    /// solo twin of deployment `d` is [`crate::KSpotServer::engine`] over the same
    /// config with seed `shard_seed(master_seed, d)`.
    pub fn homogeneous(
        scenario: ScenarioConfig,
        workload: WorkloadSpec,
        net_config: NetworkConfig,
        master_seed: u64,
        deployments: usize,
        threads: usize,
    ) -> Self {
        let engines = (0..deployments.max(1))
            .map(|d| {
                QueryEngine::from_config(
                    scenario.clone(),
                    workload,
                    net_config.clone(),
                    Self::shard_seed(master_seed, d),
                )
            })
            .collect();
        Self::from_engines(engines, threads)
    }

    /// The per-deployment master seed of a homogeneous fleet: an independent stream
    /// per deployment id, per the [`kspot_net::rng`] convention.  Public so byte-
    /// identity twins (solo engines) can be built outside the fleet.
    pub fn shard_seed(master_seed: u64, deployment: DeploymentId) -> u64 {
        const STREAM_FLEET_SHARD: u64 = 0x7359_000F;
        kspot_net::rng::mix_seed(master_seed, &[STREAM_FLEET_SHARD, deployment as u64])
    }

    /// Overrides the fleet-level admission cap (clamped to at least 1).
    pub fn with_max_total_sessions(mut self, max: usize) -> Self {
        self.max_total_sessions = max.max(1);
        self
    }

    /// Enables durable window checkpointing on every deployment (ADR-009): each
    /// shard gets its own independent checkpoint store with the given cadence, so
    /// `WITH HISTORY … AS OF epoch` sessions can be served on whichever deployment
    /// they are routed to (the wire front-end exposes this over TCP).
    pub fn with_checkpointing(self, cadence: u64) -> Self {
        for core in &self.shards {
            let _ = QueryEngine::from_core(Arc::clone(core)).with_checkpointing(cadence);
        }
        self
    }

    /// Number of deployments (shards).
    pub fn deployments(&self) -> usize {
        self.shards.len()
    }

    /// A [`QueryEngine`] handle onto one deployment (sharing the shard's state cell),
    /// or `None` for out-of-range ids.  Everything a solo engine exposes — metrics,
    /// sessions, even `run_epochs` — works through the handle; driving a single shard
    /// by hand between fleet sweeps is allowed and stays deterministic (it is simply
    /// part of that shard's epoch history).
    pub fn deployment(&self, id: DeploymentId) -> Option<QueryEngine> {
        self.shards.get(id).map(|core| QueryEngine::from_core(Arc::clone(core)))
    }

    /// Locks every shard in ascending deployment order (the fleet's global lock
    /// order — see the module docs) and returns the guards.
    fn lock_all(&self) -> Vec<MutexGuard<'_, EngineCore>> {
        self.shards.iter().map(lock_core).collect()
    }

    /// Total sessions currently active across all deployments.
    pub fn active_sessions(&self) -> usize {
        self.lock_all().iter().map(|core| core.active_sessions()).sum()
    }

    /// Parses, classifies and admits a query onto deployment `deployment`, returning
    /// its [`Session`] handle — the same handle type a solo engine hands out, so the
    /// whole lifecycle surface (poll/stream/cancel/finalize) carries over.  Failures
    /// come back typed: admission overflow, routing errors and poisoned shards are
    /// distinct variants a wire front-end maps onto distinct responses (ADR-007).
    ///
    /// A query whose plan no strategy executes is refused before any shard lock is
    /// taken.  Admission is then checked at **both** levels while all healthy shard
    /// locks are held (in ascending order, so concurrent registrations cannot
    /// deadlock or race the cap): the fleet-wide active-session total must be under
    /// the fleet cap ([`Self::with_max_total_sessions`]), and the target engine
    /// applies its own per-shard cap, which comes back as [`AdmissionScope::Deployment`].
    ///
    /// Unlike the panic-on-poison contract of in-process handles (ADR-006), this path
    /// treats a poisoned shard as *that shard's* outage: poisoned cells are skipped
    /// when locking (their sessions can never complete, so they no longer count
    /// against the fleet cap), and targeting one yields [`FleetError::Unhealthy`]
    /// rather than tearing down the caller.
    pub fn try_register(&self, deployment: DeploymentId, sql: &str) -> Result<Session, FleetError> {
        let plan = classify(&parse(sql)?)?;
        if deployment >= self.shards.len() {
            return Err(FleetError::UnknownDeployment {
                deployment,
                deployments: self.shards.len(),
            });
        }
        // Lock every *healthy* shard in ascending order (the fleet's global lock
        // order), skipping poisoned cells so one torn deployment cannot wedge
        // admission for the rest of the fleet.
        let mut guards: Vec<(DeploymentId, MutexGuard<'_, EngineCore>)> =
            Vec::with_capacity(self.shards.len());
        for (d, core) in self.shards.iter().enumerate() {
            match try_lock_core(core) {
                Some(guard) => guards.push((d, guard)),
                None if d == deployment => return Err(FleetError::Unhealthy { deployment }),
                None => {}
            }
        }
        let active: usize = guards.iter().map(|(_, core)| core.active_sessions()).sum();
        if active >= self.max_total_sessions {
            return Err(FleetError::Rejected {
                scope: AdmissionScope::Fleet,
                active,
                cap: self.max_total_sessions,
            });
        }
        let (_, target) = guards
            .iter_mut()
            .find(|(d, _)| *d == deployment)
            .expect("the target shard was locked above or reported unhealthy");
        let id = target.register(plan, sql.to_string()).map_err(|refusal| match refusal {
            Refusal::Full { active, cap } => {
                FleetError::Rejected { scope: AdmissionScope::Deployment(deployment), active, cap }
            }
            Refusal::Query(e) => FleetError::Query(e),
        })?;
        let session = Session::attach(&self.shards[deployment], target, id);
        drop(guards);
        Ok(session)
    }

    /// Reports one deployment's health without blocking on its lock, or `None` for
    /// out-of-range ids.  A [`ShardHealth::Poisoned`] shard stays poisoned for the
    /// fleet's lifetime; front-ends should route around it (ADR-007).
    pub fn shard_health(&self, deployment: DeploymentId) -> Option<ShardHealth> {
        self.shards.get(deployment).map(|core| {
            if core.is_poisoned() {
                ShardHealth::Poisoned
            } else {
                ShardHealth::Healthy
            }
        })
    }

    /// Fans `epochs` epochs of each listed shard across the pool (shard `d` on worker
    /// `d % T`), blocks until all of them finish and returns the panics their loops
    /// raised, first raised first.  What a panic means is the caller's policy:
    /// [`Self::run_epochs`] re-raises it, [`Self::run_epochs_surviving`] reports the
    /// shard.
    fn dispatch(
        &self,
        shards: impl IntoIterator<Item = DeploymentId>,
        epochs: usize,
    ) -> Vec<(DeploymentId, Panic)> {
        let (done, finished) = mpsc::channel();
        let mut sent = 0;
        for d in shards {
            let core = Arc::clone(&self.shards[d]);
            let done = done.clone();
            self.pool.execute(d, Box::new(move || {
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    lock_core(&core).run_epochs(epochs);
                }));
                let _ = done.send((d, outcome.err()));
            }));
            sent += 1;
        }
        // One report per job; waiting for the senders to drop would cost a second
        // wake-up after the last report.
        finished.iter().take(sent).filter_map(|(d, panic)| Some((d, panic?))).collect()
    }

    /// Runs `epochs` shared epochs on **every** deployment, fanning the per-shard
    /// epoch loops across the pool and blocking until all of them finish.  Each
    /// shard's loop is exactly [`QueryEngine::run_epochs`] — acquired workload,
    /// charged substrate baseline, per-session sweeps — under its own lock, so the
    /// pool's interleaving is invisible to the results (module docs).
    ///
    /// If a shard's loop panics, the panic is re-raised here after the other shards
    /// finished; the panicking shard's state cell stays poisoned (its sessions and
    /// metrics are unrecoverable) while the rest of the fleet keeps serving.
    pub fn run_epochs(&self, epochs: usize) {
        if let Some((_, payload)) = self.dispatch(0..self.shards.len(), epochs).into_iter().next() {
            std::panic::resume_unwind(payload);
        }
    }

    /// [`Self::run_epochs`] for a fleet behind a listener: instead of re-raising a
    /// shard's panic (fatal for a serving process), poisoned shards are skipped and
    /// newly-panicking ones recorded, and the sorted list of **all** currently
    /// poisoned deployment ids is returned.  Healthy shards advance exactly as they
    /// would under [`Self::run_epochs`] — same per-shard loop, same determinism.
    pub fn run_epochs_surviving(&self, epochs: usize) -> Vec<DeploymentId> {
        let (mut poisoned, live): (Vec<DeploymentId>, Vec<DeploymentId>) =
            (0..self.shards.len()).partition(|&d| self.shards[d].is_poisoned());
        poisoned.extend(self.dispatch(live, epochs).into_iter().map(|(d, _)| d));
        poisoned.sort_unstable();
        poisoned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::KSpotServer;
    use kspot_net::RoomModelParams;

    fn fleet(deployments: usize, threads: usize) -> EngineFleet {
        EngineFleet::homogeneous(
            ScenarioConfig::conference(),
            WorkloadSpec::RoomCorrelated(RoomModelParams::default()),
            NetworkConfig::mica2(),
            7,
            deployments,
            threads,
        )
    }

    #[test]
    fn fleet_engine_and_session_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EngineFleet>();
        assert_send_sync::<QueryEngine>();
        assert_send_sync::<Session>();
    }

    #[test]
    fn every_deployment_matches_its_solo_twin() {
        let fleet = fleet(3, 2);
        let queries = [
            "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid",
            "SELECT TOP 1 roomid, MAX(sound) FROM sensors GROUP BY roomid",
        ];
        let mut fleet_sessions = Vec::new();
        for d in 0..fleet.deployments() {
            for sql in &queries {
                fleet_sessions.push((d, fleet.try_register(d, sql).expect("registers")));
            }
        }
        fleet.run_epochs(10);

        for d in 0..fleet.deployments() {
            let mut solo = KSpotServer::new(ScenarioConfig::conference())
                .with_seed(EngineFleet::shard_seed(7, d))
                .engine();
            let solo_sessions: Vec<Session> =
                queries.iter().map(|sql| solo.register(sql).expect("registers")).collect();
            solo.run_epochs(10);
            for (fleet_session, solo_session) in fleet_sessions
                .iter()
                .filter(|(fd, _)| *fd == d)
                .map(|(_, s)| s)
                .zip(&solo_sessions)
            {
                assert_eq!(fleet_session.results(), solo_session.results(), "deployment {d}");
                assert_eq!(fleet_session.totals(), solo_session.totals(), "deployment {d}");
            }
        }
    }

    #[test]
    fn shards_draw_independent_seeds_so_deployments_differ() {
        let fleet = fleet(2, 2);
        let a = fleet.try_register(0, "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid").unwrap();
        let b = fleet.try_register(1, "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid").unwrap();
        fleet.run_epochs(8);
        assert_ne!(
            a.results(),
            b.results(),
            "two deployments of a homogeneous fleet run distinct workload streams"
        );
        assert_ne!(EngineFleet::shard_seed(7, 0), EngineFleet::shard_seed(7, 1));
        assert_ne!(EngineFleet::shard_seed(7, 0), 7, "shard seeds never collide with the master");
    }

    #[test]
    fn fleet_cap_rejects_across_deployments_and_frees_on_cancel() {
        let fleet = fleet(2, 1).with_max_total_sessions(2);
        let mut a = fleet.try_register(0, "SELECT * FROM sensors").unwrap();
        let _b = fleet.try_register(1, "SELECT * FROM sensors").unwrap();
        let err = fleet.try_register(0, "SELECT * FROM sensors").unwrap_err();
        assert!(err.to_string().contains("fleet admission"), "{err}");
        assert_eq!(fleet.active_sessions(), 2);
        assert!(a.cancel());
        fleet.try_register(1, "SELECT * FROM sensors").expect("cancellation freed a fleet slot");
    }

    #[test]
    fn routing_rejects_unknown_deployments_before_admission() {
        let fleet = fleet(2, 1);
        let err = fleet.try_register(5, "SELECT * FROM sensors").unwrap_err();
        assert!(err.to_string().contains("unknown deployment id 5"), "{err}");
        assert!(fleet.deployment(5).is_none());
        assert!(fleet.try_register(1, "SELEKT nope").is_err(), "parse errors still propagate");
    }

    #[test]
    fn per_deployment_handles_share_the_shard_state() {
        let fleet = fleet(2, 2);
        let session = fleet.try_register(1, "SELECT TOP 1 roomid, AVG(sound) FROM sensors GROUP BY roomid").unwrap();
        fleet.run_epochs(4);
        let handle = fleet.deployment(1).expect("in range");
        assert_eq!(handle.epochs_run(), 4);
        assert_eq!(handle.active_sessions(), 1);
        assert_eq!(handle.session(session.id()).expect("routed here").results().len(), 4);
        // The other shard advanced too (run_epochs sweeps every deployment) but holds
        // no sessions — routing never leaked the registration across shards.
        let other = fleet.deployment(0).expect("in range");
        assert_eq!(other.epochs_run(), 4);
        assert_eq!(other.session_ids().len(), 0);
    }

    #[test]
    fn driving_one_deployment_by_hand_advances_that_shard_only() {
        let fleet = fleet(3, 2);
        fleet.deployment(1).expect("in range").run_epochs(5);
        fleet.run_epochs(2);
        assert_eq!(fleet.deployment(0).unwrap().epochs_run(), 2);
        assert_eq!(fleet.deployment(1).unwrap().epochs_run(), 7);
        assert_eq!(fleet.deployment(2).unwrap().epochs_run(), 2);
    }

    #[test]
    fn a_pool_job_runs_on_the_worker_its_key_names() {
        for threads in 1..=3 {
            let pool = ThreadPool::new(threads);
            let (seen, ran) = mpsc::channel();
            for key in 0..7 {
                let seen = seen.clone();
                pool.execute(key, Box::new(move || {
                    let name = std::thread::current().name().map(str::to_string);
                    seen.send((key, name)).expect("the test collects every job");
                }));
            }
            drop(seen);
            let mut ran: Vec<(usize, Option<String>)> = ran.into_iter().collect();
            ran.sort();
            let expected: Vec<(usize, Option<String>)> =
                (0..7).map(|key| (key, Some(format!("kspot-fleet-{}", key % threads)))).collect();
            assert_eq!(ran, expected, "{threads} workers");
        }
    }

    #[test]
    fn dropping_the_pool_runs_every_job_already_sent() {
        let ran = Arc::new(Mutex::new(Vec::new()));
        let pool = ThreadPool::new(2);
        for key in 0..6 {
            let ran = Arc::clone(&ran);
            pool.execute(key, Box::new(move || {
                std::thread::sleep(std::time::Duration::from_millis(5));
                ran.lock().expect("no job panics").push(key);
            }));
        }
        drop(pool);
        let mut ran = ran.lock().expect("no job panics").clone();
        ran.sort_unstable();
        assert_eq!(ran, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn pool_size_never_changes_results() {
        let run = |threads: usize| {
            let fleet = fleet(4, threads);
            let sessions: Vec<Session> = (0..4)
                .map(|d| {
                    fleet
                        .try_register(d, "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid")
                        .expect("registers")
                })
                .collect();
            fleet.run_epochs(12);
            sessions.iter().map(|s| (s.results(), s.totals())).collect::<Vec<_>>()
        };
        let single = run(1);
        assert_eq!(single, run(2), "1-thread vs 2-thread fleets must agree");
        assert_eq!(single, run(8), "oversubscribed pools must agree too");
    }
}
