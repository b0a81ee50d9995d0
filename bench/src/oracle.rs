//! The oracle: a harness-free solo twin per deployment.
//!
//! The determinism contract (shared == solo == fleet shard == restored-from-store,
//! byte for byte) is reused as the correctness check: the twin registers the same
//! SQL at the same epochs, advances with as few `run_epochs` calls as the script
//! allows, never polls, and reads every session's answers once at `finalize`.  Its
//! digest must equal the digest of what the harness's consumers were handed.  This
//! holds for any `--seed` and needs no golden file a behaviour-changing PR could not
//! regenerate.

use crate::common::{build_engine, Digest};
use crate::script::{End, Workload};
use kspot_core::QueryEngine;
use std::time::Instant;

/// What the twins produced.
pub struct OracleOutcome {
    pub digest: Digest,
    /// Per deployment: seconds the twin spent inside `run_epochs` for the measured
    /// ticks, and the epochs those calls ran.
    pub epoch_time: Vec<(f64, u64)>,
}

pub fn solo_twins(w: &Workload) -> OracleOutcome {
    let mut out = OracleOutcome {
        digest: Digest::default(),
        epoch_time: Vec::new(),
    };
    for deployment in 0..w.deployments {
        let mut engine = build_engine(w, deployment);
        let (mut busy, mut timed_epochs) = (0.0, 0u64);
        let mut measuring = false;
        let mut advance = |engine: &mut QueryEngine, epochs: usize, measuring: bool| {
            let start = Instant::now();
            engine.run_epochs(epochs);
            if measuring {
                busy += start.elapsed().as_secs_f64();
                timed_epochs += epochs as u64;
            }
        };
        for sql in &w.resident {
            engine
                .register(sql)
                .expect("resident queries register on the twin");
        }
        if let Some(prime) = &w.prime {
            engine
                .register(&prime.sql)
                .expect("the priming query registers on the twin");
            advance(&mut engine, prime.epochs, false);
        }
        // Ticks without a transient are advanced in one call; the only other split is
        // where measuring starts, so the twin's epoch time covers the measured ticks.
        let mut quiet = 0;
        for tick in 0..w.total_ticks() {
            let transient = w.transient(deployment, tick);
            if transient.is_some() || tick == w.warmup_ticks {
                advance(&mut engine, quiet * w.stride, measuring);
                quiet = 0;
                measuring = tick >= w.warmup_ticks;
            }
            let Some(transient) = transient else {
                quiet += 1;
                continue;
            };
            let mut session = engine
                .register(&transient.sql)
                .expect("transients register on the twin");
            advance(&mut engine, w.stride, measuring);
            if transient.end == End::Cancel {
                session.cancel();
            }
        }
        advance(&mut engine, quiet * w.stride, measuring);
        if let Some(probe) = w.restart_probe() {
            engine
                .register(probe)
                .expect("the restart probe registers on the twin");
            advance(&mut engine, 1, false);
        }
        for session in engine.sessions() {
            let id = u64::from(session.id());
            for result in session.finalize().results {
                out.digest.add_result(deployment, id, &result);
            }
        }
        out.epoch_time.push((busy, timed_epochs));
    }
    out
}
