//! What every executor of a script shares: substrate construction, the answer
//! digest, and the samples a measured phase collects.

use crate::script::{Path, Workload, BATTERY_UJ};
use kspot_algos::TopKResult;
use kspot_core::{EngineFleet, QueryEngine};
use kspot_net::{Network, NetworkConfig, PhaseTotals, RoomModelParams, Workload as Readings};

/// Room-activity model of every run.  The rooms drift fast enough to wander the whole
/// value domain many times within a run (a walk of σ = 8 per epoch crosses 0..100 in
/// ≈ 150 epochs; the library default of 1.5 needs ≈ 4 400, longer than a run), so a
/// run's cost does not hinge on where its seed happened to start the rooms: across
/// ten seeds `sim_bytes_per_answer` spreads by 1–3 % instead of 8–13 %.
pub const ROOM_MODEL: RoomModelParams = RoomModelParams {
    drift_sigma: 8.0,
    sensor_noise_sigma: 1.0,
};

/// The cost model every run uses: MICA2 with batteries no run can drain.
pub fn net_config() -> NetworkConfig {
    NetworkConfig::mica2().with_battery_uj(BATTERY_UJ)
}

/// Builds one deployment's network and reading generator exactly as
/// `QueryEngine::from_config` does (room-correlated readings, substrate and workload
/// streams derived from the master seed), so engines assembled from it via
/// `QueryEngine::from_substrate` are twins of fleet shards and of each other.
pub fn build_substrate(w: &Workload, deployment: usize) -> (Network, Readings) {
    // The fleet derives one master seed per shard; an in-process engine uses the
    // workload's seed as is.
    let seed = match w.path {
        Path::Engine => w.seed,
        Path::Wire { .. } => EngineFleet::shard_seed(w.seed, deployment),
    };
    let config = net_config().with_seed(kspot_net::rng::substrate_seed(seed));
    let net = Network::new(w.scenario.deployment.clone(), config);
    let readings = Readings::room_correlated(
        &w.scenario.deployment,
        w.scenario.domain,
        ROOM_MODEL,
        kspot_net::rng::workload_seed(seed),
    );
    (net, readings)
}

/// A solo engine over [`build_substrate`] with the workload's batching and
/// checkpointing switched on — the harness engine and every twin start here.
pub fn build_engine(w: &Workload, deployment: usize) -> QueryEngine {
    let (net, readings) = build_substrate(w, deployment);
    let engine = QueryEngine::from_substrate(w.scenario.clone(), net, readings)
        .with_frame_batching(w.frame_batching);
    match w.checkpoint_cadence {
        Some(cadence) => engine.with_checkpointing(cadence),
        None => engine,
    }
}

/// An order-independent digest of `(deployment, session, epoch, items)` answers:
/// the wrapping sum of one FNV-1a hash per answer, plus the answer count.  Order
/// independence lets the harness hash answers as polls deliver them while the solo
/// twin hashes them session by session at `finalize`; nothing is retained, so the
/// oracle does not show up in `peak_rss_mb`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest {
    pub sum: u64,
    pub answers: u64,
}

impl Digest {
    pub fn add(
        &mut self,
        deployment: usize,
        session: u64,
        epoch: u64,
        items: impl Iterator<Item = (u64, f64)>,
    ) {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        let mut eat = |word: u64| {
            for b in word.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        eat(deployment as u64);
        eat(session);
        eat(epoch);
        for (key, value) in items {
            eat(key);
            eat(value.to_bits());
        }
        self.sum = self.sum.wrapping_add(h);
        self.answers += 1;
    }

    pub fn add_result(&mut self, deployment: usize, session: u64, result: &TopKResult) {
        self.add(
            deployment,
            session,
            result.epoch,
            result.items.iter().map(|i| (i.key, i.value)),
        );
    }

    pub fn merge(&mut self, other: Digest) {
        self.sum = self.sum.wrapping_add(other.sum);
        self.answers += other.answers;
    }
}

/// The simulated cost ledger of a set of deployments at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimTotals {
    pub messages: u64,
    pub bytes: u64,
    pub tuples: u64,
    pub energy_uj: f64,
}

impl SimTotals {
    pub fn of(engines: &[QueryEngine]) -> Self {
        let mut sum = Self::default();
        for engine in engines {
            let t = engine.metrics().totals();
            sum.messages += t.messages;
            sum.bytes += t.bytes;
            sum.tuples += t.tuples;
            sum.energy_uj += t.energy_uj;
        }
        sum
    }

    pub fn since(&self, earlier: &SimTotals) -> SimTotals {
        SimTotals {
            messages: self.messages - earlier.messages,
            bytes: self.bytes - earlier.bytes,
            tuples: self.tuples - earlier.tuples,
            energy_uj: self.energy_uj - earlier.energy_uj,
        }
    }
}

/// Everything the measured phase of one run collected.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// Wall time of each measured tick.
    pub tick_ns: Vec<u64>,
    /// Whether the tracer was recording during that tick (always false untraced).
    pub tick_traced: Vec<bool>,
    /// Answers delivered to consumers in each measured tick.
    pub tick_answers: Vec<u64>,
    /// The reference kernel timed just before each measured tick (`calibrate`).
    pub kernel_ns: Vec<u64>,
    /// Per transient session: the measured tick it lived in (0-based) and the time from
    /// the start of `register` to the first answer in the caller's hands.
    pub first_answer_ns: Vec<(usize, u64)>,
    /// Operations attempted / failed over the whole run (set-up included).
    pub attempted: u64,
    pub failed: u64,
    /// Process CPU over the measured phase, the reference kernel's own time taken out.
    pub cpu_ms: f64,
    /// Simulated traffic of the measured phase, summed over deployments.
    pub sim: SimTotals,
    /// Set-up time of each repetition, the measured one last, and the host's speed
    /// factor right after each.
    pub setup_s: Vec<f64>,
    pub setup_speed: Vec<f64>,
    /// Digest of every answer a consumer received, set-up included.
    pub digest: Digest,
    /// The same digest and each deployment's ledger totals when the last tick ended
    /// (before any post-run step) — what the layer replay must reproduce.
    pub ticks_digest: Digest,
    pub ticks_totals: Vec<PhaseTotals>,
    pub peak_rss_mb: f64,
}

/// A failed output check, collected instead of panicking so a run reports them all.
#[derive(Debug, Clone, Default)]
pub struct Checks {
    pub failures: Vec<String>,
}

impl Checks {
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}
