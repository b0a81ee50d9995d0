//! The in-process harness: one `QueryEngine`, driven tick by tick through its public
//! `register` / `run_epochs` / `Session::poll` / `cancel` / `finalize` surface.

use crate::calibrate::{speed_now, time_kernel};
use crate::common::{build_engine, Checks, Digest, Measured, SimTotals};
use crate::host;
use crate::script::{End, Transient, Workload};
use crate::trace::{traced_tick, Tracer};
use crate::RunOptions;
use kspot_core::{CheckpointStore, QueryEngine, Session};
use std::time::Instant;

/// An engine with its resident sessions, ready to tick.
struct EngineRig {
    engine: QueryEngine,
    resident: Vec<Session>,
    digest: Digest,
    attempted: u64,
    failed: u64,
    /// Flip one bit of the next answer before digesting it (the self-test).
    flip_next: bool,
}

/// What one tick delivered.
struct TickSample {
    answers: u64,
    first_answer_ns: Option<u64>,
}

impl EngineRig {
    /// Builds the substrate and engine, registers the resident sessions and primes
    /// the shared windows.  Warm-up ticks are the caller's (they are ordinary ticks).
    fn set_up(w: &Workload, checks: &mut Checks) -> Self {
        let mut engine = build_engine(w, 0);
        let mut rig_attempted = 0;
        let resident: Vec<Session> = w
            .resident
            .iter()
            .map(|sql| {
                rig_attempted += 1;
                engine
                    .register(sql)
                    .unwrap_or_else(|e| panic!("resident `{sql}` registers: {e}"))
            })
            .collect();
        let mut rig = Self {
            engine,
            resident,
            digest: Digest::default(),
            attempted: rig_attempted,
            failed: 0,
            flip_next: false,
        };
        if let Some(prime) = &w.prime {
            let mut session = rig
                .engine
                .register(&prime.sql)
                .expect("the priming query registers");
            rig.engine.run_epochs(prime.epochs);
            let answers = session.poll();
            rig.attempted += 2;
            checks.require(answers.len() == 1, || {
                format!(
                    "priming session answered {} times, expected once",
                    answers.len()
                )
            });
            rig.digest_answers(session.id(), &answers);
            drop(session.finalize());
        }
        rig
    }

    fn digest_answers(&mut self, session: u32, answers: &[kspot_algos::TopKResult]) {
        for result in answers {
            if std::mem::take(&mut self.flip_next) {
                let mut forged = result.clone();
                match forged.items.first_mut() {
                    Some(item) => item.value = f64::from_bits(item.value.to_bits() ^ 1),
                    None => forged.epoch ^= 1,
                }
                self.digest.add_result(0, u64::from(session), &forged);
            } else {
                self.digest.add_result(0, u64::from(session), result);
            }
        }
    }

    /// One lock-step round: admit the tick's transient, advance the clock by the
    /// stride, put every due answer into its consumer's hands, end the transient.
    fn tick(&mut self, w: &Workload, tick: usize, tracer: &mut Tracer) -> TickSample {
        tracer.set_tick(tick as u32);
        let root = tracer.begin("tick");
        let transient = w.transient(0, tick);
        let mut registered: Option<(Session, Instant, Transient)> = None;
        if let Some(t) = transient {
            assert!(
                !t.malformed_first,
                "only wire scripts probe with malformed SQL"
            );
            let start = Instant::now();
            self.attempted += 1;
            match tracer.leaf("core.register", || self.engine.register(&t.sql)) {
                Ok(session) => registered = Some((session, start, t)),
                Err(_) => self.failed += 1,
            }
        }

        tracer.leaf("core.run_epoch", || self.engine.run_epochs(w.stride));

        let mut sample = TickSample {
            answers: 0,
            first_answer_ns: None,
        };
        for i in 0..self.resident.len() {
            let answers = tracer.leaf("core.poll", || self.resident[i].poll());
            self.attempted += 1;
            if answers.len() != w.stride {
                self.failed += 1;
            }
            sample.answers += answers.len() as u64;
            let id = self.resident[i].id();
            self.digest_answers(id, &answers);
        }
        if let Some((mut session, start, t)) = registered {
            let answers = tracer.leaf("core.poll", || session.poll());
            if !answers.is_empty() {
                sample.first_answer_ns = Some(start.elapsed().as_nanos() as u64);
            }
            self.attempted += 1;
            if answers.len() != t.answers {
                self.failed += 1;
            }
            sample.answers += answers.len() as u64;
            self.digest_answers(session.id(), &answers);
            self.attempted += 1;
            match t.end {
                End::Cancel => {
                    if !tracer.leaf("core.cancel", || session.cancel()) {
                        self.failed += 1;
                    }
                }
                End::Finalize | End::Bye => {
                    let execution = tracer.leaf("core.finalize", || session.finalize());
                    if execution.results.len() != t.answers {
                        self.failed += 1;
                    }
                }
            }
        }
        tracer.end(root);
        sample
    }
}

/// What an engine run hands back: the samples, the spans and the engine itself (the
/// traced pass probes its end-of-run state).
pub struct EngineOutcome {
    pub measured: Measured,
    pub tracer: Tracer,
    pub engine: QueryEngine,
    pub restart: Option<RestartTimes>,
}

/// Runs set-up ([`RunOptions::setup_count`] times, the last one kept), the warm-up
/// and the measured ticks of an in-process workload.
pub fn run(w: &Workload, opts: &RunOptions, checks: &mut Checks) -> EngineOutcome {
    let origin = Instant::now();
    let mut tracer = Tracer::new(false, origin, 0);
    let mut setup_s = Vec::new();
    let mut setup_speed = Vec::new();
    let mut rig = None;
    while setup_s.len() < opts.setup_count(setup_s.first().copied()) {
        drop(rig.take());
        let start = Instant::now();
        let mut fresh = EngineRig::set_up(w, checks);
        for tick in 0..w.warmup_ticks {
            fresh.tick(w, tick, &mut tracer);
        }
        setup_s.push(start.elapsed().as_secs_f64());
        setup_speed.push(speed_now());
        rig = Some(fresh);
    }
    let mut rig = rig.expect("at least one set-up ran");
    rig.flip_next = opts.flip_one_answer;

    let engines = [rig.engine.clone()];
    let sim_before = SimTotals::of(&engines);
    let cpu_before = host::process_cpu_ms();
    let mut m = Measured {
        setup_s,
        setup_speed,
        ..Measured::default()
    };
    for tick in w.warmup_ticks..w.total_ticks() {
        let traced = opts.trace && traced_tick(tick);
        tracer.set_recording(traced);
        m.kernel_ns.push(time_kernel(tick as u64));
        let start = Instant::now();
        let sample = rig.tick(w, tick, &mut tracer);
        m.tick_ns.push(start.elapsed().as_nanos() as u64);
        m.tick_traced.push(traced);
        m.tick_answers.push(sample.answers);
        m.first_answer_ns
            .extend(sample.first_answer_ns.map(|ns| (tick - w.warmup_ticks, ns)));
    }
    tracer.set_recording(false);
    m.cpu_ms = host::process_cpu_ms() - cpu_before - m.kernel_ns.iter().sum::<u64>() as f64 / 1e6;
    m.sim = SimTotals::of(&engines).since(&sim_before);
    m.ticks_digest = rig.digest;
    m.ticks_totals = vec![rig.engine.metrics().totals()];

    let restart = w
        .checkpoint_cadence
        .map(|_| restart_check(w, &mut rig, checks));
    m.peak_rss_mb = host::peak_rss_mb();

    checks.require(rig.engine.network().is_alive(), || {
        "a battery depleted during the run".into()
    });
    checks.require(
        rig.resident.iter().all(|s| !s.depleted_during_run()),
        || "a resident session reports depleted_during_run".into(),
    );
    m.attempted = rig.attempted;
    m.failed = rig.failed;
    m.digest = rig.digest;
    EngineOutcome {
        measured: m,
        tracer,
        engine: rig.engine,
        restart,
    }
}

/// Timings of the durable-restart step.
#[derive(Debug, Clone, Copy, Default)]
pub struct RestartTimes {
    pub to_bytes_us: f64,
    pub from_bytes_us: f64,
    pub restart_ms: f64,
}

/// After the last tick: serialise the checkpoint store, rebuild it from the bytes,
/// boot a second engine from it, bring both to the same epoch and require the same
/// historic answer from the restored windows as from the live ones.
fn restart_check(w: &Workload, rig: &mut EngineRig, checks: &mut Checks) -> RestartTimes {
    let t0 = Instant::now();
    let bytes = rig
        .engine
        .checkpoint_store_bytes()
        .expect("the workload checkpoints");
    let to_bytes = t0.elapsed();
    let t1 = Instant::now();
    let store = match CheckpointStore::from_bytes(&bytes) {
        Ok(store) => store,
        Err(e) => {
            checks.require(false, || format!("the serialised store does not load: {e}"));
            return RestartTimes::default();
        }
    };
    let from_bytes = t1.elapsed();
    let mut restarted = build_engine(w, 0).with_checkpoint_store(store);
    let restart = t1.elapsed();
    rig.attempted += 3;

    // The restarted engine resumes right after the newest snapshot; the live one may
    // be up to `cadence - 1` epochs ahead.
    let behind = rig
        .engine
        .upcoming_epoch()
        .saturating_sub(restarted.upcoming_epoch());
    restarted.run_epochs(behind as usize);
    let sql = &w
        .prime
        .as_ref()
        .expect("checkpointing workloads prime their windows")
        .sql;
    let answer = |engine: &mut QueryEngine| {
        let session = engine.register(sql).expect("the restart probe registers");
        engine.run_epochs(1);
        session.finalize().results
    };
    let (live, again) = (answer(&mut rig.engine), answer(&mut restarted));
    rig.attempted += 1;
    checks.require(live.len() == 1 && live == again, || {
        format!("restart diverged: live {live:?} vs restarted {again:?}")
    });
    if let Some(result) = live.first() {
        // The probe is part of the live engine's history, so it is part of the digest
        // the solo twin must reproduce.
        let probe_id = *rig
            .engine
            .session_ids()
            .last()
            .expect("the probe registered");
        rig.digest.add_result(0, u64::from(probe_id), result);
    }
    RestartTimes {
        to_bytes_us: to_bytes.as_secs_f64() * 1e6,
        from_bytes_us: from_bytes.as_secs_f64() * 1e6,
        restart_ms: restart.as_secs_f64() * 1e3,
    }
}
