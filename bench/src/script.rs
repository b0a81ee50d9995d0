//! The four workloads as *scripts*: pure functions of `(seed, deployment, tick)` that
//! say which SQL arrives when.  The harness, the solo-twin oracle, the layer replay
//! and the in-process twin fleet all execute the same script, which is what lets
//! their answers be compared byte for byte.
//!
//! The program under test only ever sees what a script generates — SQL text, frames
//! and epoch counts.  `AS OF` epochs are computed from the epoch count alone (the
//! store snapshots every `cadence` fed epochs, so the newest snapshot is a function
//! of how many epochs the generator has asked for), never read back from the engine.

use kspot_core::ScenarioConfig;
use kspot_net::Deployment;

/// Names of the workloads, in the order `run --all` executes them.
pub const WORKLOADS: [&str; 4] = [
    "engine_snapshot",
    "engine_historic",
    "serve_stream",
    "serve_churn",
];

/// Per-node battery (µJ) — far beyond what any run drains, so no node dies and the
/// work stays the same from the first tick to the last.  Every run still asserts
/// `Network::is_alive()` afterwards.
pub const BATTERY_UJ: f64 = 1.0e15;

/// Deployments — and client connections, and fleet pool threads — of a wire workload:
/// the reference host's `nproc`.
pub const WIRE_DEPLOYMENTS: usize = 2;

/// Most `Answer` frames one wire `Poll` asks for.
pub const POLL_MAX: u32 = 32;

/// How a transient session ends once its tick's answers were delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum End {
    /// `Session::cancel` / a `Cancel` frame: a continuous session the user stops.
    Cancel,
    /// `Session::finalize`: a one-shot session converted into its execution record.
    Finalize,
    /// The connection says `Bye`; the session completed on its own.
    Bye,
}

/// A session that lives for exactly one tick: registered before the tick's clock
/// advance, drained after it, then ended.
#[derive(Debug, Clone, PartialEq)]
pub struct Transient {
    pub sql: String,
    /// Answers the tick's poll must deliver — no more, no fewer.
    pub answers: usize,
    /// Send a malformed statement first; it must be refused with a 400 and leave
    /// the connection (or engine) usable for `sql`.
    pub malformed_first: bool,
    pub end: End,
}

/// The statement every malformed-SQL probe sends.
pub const MALFORMED_SQL: &str = "SELEKT TOP 1 roomid, AVG(sound) FROM sensors GROUP BY roomid";

/// A one-shot historic session registered during set-up so the shared windows cover
/// every later `WITH HISTORY` span: it answers once after `epochs` epochs.
#[derive(Debug, Clone, PartialEq)]
pub struct Prime {
    pub sql: String,
    pub epochs: usize,
}

/// Whether a workload drives the engine in-process or through the wire front-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    Engine,
    /// `connection_per_tick`: open, use and close a connection every tick
    /// (`serve_churn`) instead of keeping one per client (`serve_stream`).
    Wire {
        connection_per_tick: bool,
    },
}

/// Which one-tick sessions a workload's script generates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transients {
    /// Every 10th tick one more MINT query joins for a tick and is cancelled.
    MintEveryTenthTick,
    /// Every tick a one-shot: vertical TJA over 128 epochs, horizontal local
    /// aggregate over 64, TJA over 64 `AS OF` the newest checkpoint.
    HistoricRotation,
    /// Every tick a short query: vertical historic over 32 epochs, horizontal over
    /// 16, `AS OF` the newest checkpoint, continuous `LIFETIME 1 epochs`; one tick
    /// in 16 sends a malformed statement first.
    ChurnRotation,
}

/// One fully sized workload.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub path: Path,
    pub seed: u64,
    pub scenario: ScenarioConfig,
    /// Independent deployments; client connection `c` owns deployment `c`.
    pub deployments: usize,
    /// Epochs the simulated clock advances per tick.
    pub stride: usize,
    pub frame_batching: bool,
    pub checkpoint_cadence: Option<u64>,
    /// Continuous sessions registered in set-up on every deployment, polled every tick.
    pub resident: Vec<String>,
    pub prime: Option<Prime>,
    pub transients: Transients,
    pub warmup_ticks: usize,
    pub measured_ticks: usize,
}

/// How much of a workload to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Size {
    /// The reference size scaled by `seconds / 10`: `--seconds` buys *work*, not
    /// time, so two commits given the same `--seconds` do the same work.
    Seconds(u64),
    /// Twenty ticks — for `cargo test` and the self-test.
    Smoke,
}

impl Workload {
    /// Builds the named workload for a seed and size, or `None` for an unknown name.
    pub fn named(name: &str, seed: u64, size: Size) -> Option<Workload> {
        // (warm-up ticks, measured ticks at the 10 s reference size); see the sizing
        // rules in bench/README.md.  Measured ticks never drop below 200, so p95
        // always has at least ten samples beyond it.
        let ticks = |warmup: usize, reference: usize| match size {
            Size::Smoke => (2, 20),
            Size::Seconds(s) => {
                let scaled = reference as u64 * s.max(1) / 10;
                (warmup, (scaled as usize / 20 * 20).max(200))
            }
        };
        let order = shuffled(seed, 16);
        Some(match name {
            "engine_snapshot" => {
                let (warmup_ticks, measured_ticks) = ticks(200, 3000);
                let all = snapshot_mix();
                Workload {
                    name: "engine_snapshot",
                    path: Path::Engine,
                    seed,
                    scenario: grid_scenario(14, 16),
                    deployments: 1,
                    stride: 1,
                    frame_batching: true,
                    checkpoint_cadence: None,
                    resident: order.iter().map(|&i| all[i].clone()).collect(),
                    prime: None,
                    transients: Transients::MintEveryTenthTick,
                    warmup_ticks,
                    measured_ticks,
                }
            }
            "engine_historic" => {
                let (warmup_ticks, measured_ticks) = ticks(8, 2000);
                Workload {
                    name: "engine_historic",
                    path: Path::Engine,
                    seed,
                    scenario: grid_scenario(10, 10),
                    deployments: 1,
                    stride: 1,
                    frame_batching: false,
                    checkpoint_cadence: Some(2),
                    resident: Vec::new(),
                    prime: Some(Prime {
                        sql: vertical(3, 128, None),
                        epochs: 128,
                    }),
                    transients: Transients::HistoricRotation,
                    warmup_ticks,
                    measured_ticks,
                }
            }
            "serve_stream" => {
                let (warmup_ticks, measured_ticks) = ticks(10, 200);
                Workload {
                    name: "serve_stream",
                    path: Path::Wire {
                        connection_per_tick: false,
                    },
                    seed,
                    scenario: grid_scenario(10, 10),
                    deployments: WIRE_DEPLOYMENTS,
                    stride: 8,
                    frame_batching: false,
                    checkpoint_cadence: None,
                    resident: stream_mix(),
                    prime: None,
                    transients: Transients::MintEveryTenthTick,
                    warmup_ticks,
                    measured_ticks,
                }
            }
            "serve_churn" => {
                let (warmup_ticks, measured_ticks) = ticks(20, 400);
                Workload {
                    name: "serve_churn",
                    path: Path::Wire {
                        connection_per_tick: true,
                    },
                    seed,
                    scenario: ScenarioConfig::conference(),
                    deployments: WIRE_DEPLOYMENTS,
                    stride: 1,
                    frame_batching: false,
                    checkpoint_cadence: Some(4),
                    resident: Vec::new(),
                    prime: Some(Prime {
                        sql: vertical(3, 32, None),
                        epochs: 40,
                    }),
                    transients: Transients::ChurnRotation,
                    warmup_ticks,
                    measured_ticks,
                }
            }
            _ => return None,
        })
    }

    /// Whether clients open, use and close a connection every tick.
    pub fn connection_per_tick(&self) -> bool {
        matches!(
            self.path,
            Path::Wire {
                connection_per_tick: true
            }
        )
    }

    pub fn total_ticks(&self) -> usize {
        self.warmup_ticks + self.measured_ticks
    }

    /// Epochs every deployment has run when tick `tick` starts.
    pub fn epochs_before(&self, tick: usize) -> u64 {
        (self.prime.as_ref().map_or(0, |p| p.epochs) + tick * self.stride) as u64
    }

    /// The newest checkpoint a store with this workload's cadence retains when
    /// `tick` starts.  The shared windows exist from the priming registration
    /// (before epoch 0), so the store snapshots at epochs `cadence-1`,
    /// `2*cadence-1`, … — a function of the epoch count alone.
    pub fn newest_checkpoint_before(&self, tick: usize) -> u64 {
        let cadence = self
            .checkpoint_cadence
            .expect("only checkpointing workloads time-travel");
        let run = self.epochs_before(tick);
        assert!(run >= cadence, "priming outlasts the first checkpoint");
        run / cadence * cadence - 1
    }

    /// The transient session deployment `deployment` sees at tick `tick`, if any.
    pub fn transient(&self, deployment: usize, tick: usize) -> Option<Transient> {
        let roll = mix(self.seed, &[deployment as u64, tick as u64]);
        let k = 1 + roll % 4;
        match self.transients {
            Transients::MintEveryTenthTick => tick.is_multiple_of(10).then(|| Transient {
                sql: ranked_rooms(k, if roll & 4 == 0 { "AVG" } else { "MAX" }),
                answers: self.stride,
                malformed_first: false,
                end: End::Cancel,
            }),
            Transients::HistoricRotation => Some(Transient {
                sql: match (tick + self.seed as usize) % 3 {
                    0 => vertical(k, 128, None),
                    1 => horizontal(k, 64, None),
                    _ => vertical(k, 64, Some(self.newest_checkpoint_before(tick))),
                },
                answers: 1,
                malformed_first: false,
                end: End::Finalize,
            }),
            Transients::ChurnRotation => Some(Transient {
                sql: match (tick + deployment + self.seed as usize) % 4 {
                    0 => vertical(k, 32, None),
                    1 => horizontal(k, 16, None),
                    2 => vertical(k, 16, Some(self.newest_checkpoint_before(tick))),
                    _ => format!("{} LIFETIME 1 epochs", ranked_rooms(k, "AVG")),
                },
                answers: 1,
                malformed_first: roll >> 8 & 15 == 0,
                end: End::Bye,
            }),
        }
    }

    /// The statement the durable-restart step asks of both the live and the restarted
    /// engine after the last tick (in-process checkpointing workloads only).
    pub fn restart_probe(&self) -> Option<&str> {
        match (self.path, self.checkpoint_cadence) {
            (Path::Engine, Some(_)) => self.prime.as_ref().map(|p| p.sql.as_str()),
            _ => None,
        }
    }

    /// Every distinct statement shape the workload sends, for the parse/plan probe.
    pub fn sql_mix(&self) -> Vec<String> {
        let mut mix = self.resident.clone();
        mix.extend(self.prime.iter().map(|p| p.sql.clone()));
        let first = self.warmup_ticks;
        mix.extend(
            (first..first + 40)
                .filter_map(|t| self.transient(0, t))
                .map(|t| t.sql),
        );
        mix
    }
}

/// A `side × side` grid whose nodes are spread round-robin over `rooms` rooms.
fn grid_scenario(side: usize, rooms: usize) -> ScenarioConfig {
    ScenarioConfig::custom(
        format!("{side}x{side} grid, {rooms} rooms"),
        "sound",
        Deployment::grid(side, 10.0, Some(rooms)),
    )
}

fn ranked_rooms(k: u64, func: &str) -> String {
    format!("SELECT TOP {k} roomid, {func}(sound) FROM sensors GROUP BY roomid")
}

fn as_of(epoch: Option<u64>) -> String {
    epoch.map_or(String::new(), |e| format!(" AS OF {e}"))
}

/// Vertically fragmented historic Top-K (TJA): the K epochs with the highest network
/// average over the last `window` epochs.
fn vertical(k: u64, window: u64, at: Option<u64>) -> String {
    format!(
        "SELECT TOP {k} epoch, AVG(sound) FROM sensors GROUP BY epoch WITH HISTORY {window} epochs{}",
        as_of(at)
    )
}

/// Horizontally fragmented historic Top-K (local aggregate + MINT update).
fn horizontal(k: u64, window: u64, at: Option<u64>) -> String {
    format!(
        "{} WITH HISTORY {window} epochs{}",
        ranked_rooms(k, "AVG"),
        as_of(at)
    )
}

/// The 16 resident sessions of `engine_snapshot`: 8 MINT, 4 TAG, 3 FILA, 1 centralized.
fn snapshot_mix() -> Vec<String> {
    let mut mix: Vec<String> = (0..8u64)
        .map(|i| ranked_rooms(1 + i % 4, if i < 4 { "AVG" } else { "MAX" }))
        .collect();
    for func in ["AVG", "MAX", "MIN", "SUM"] {
        mix.push(format!(
            "SELECT roomid, {func}(sound) FROM sensors GROUP BY roomid"
        ));
    }
    for k in [2, 3, 5] {
        mix.push(format!("SELECT TOP {k} nodeid, sound FROM sensors"));
    }
    mix.push("SELECT * FROM sensors".to_string());
    mix
}

/// The resident sessions each `serve_stream` connection keeps: one MINT, one TAG.
/// (Sized down from four: while a multi-frame `Poll` stalls ≈ 44 ms, every resident
/// session adds 44 ms to each of the 200 ticks — see the sizing rules in the README.)
fn stream_mix() -> Vec<String> {
    vec![
        ranked_rooms(2, "AVG"),
        "SELECT roomid, MAX(sound) FROM sensors GROUP BY roomid".to_string(),
    ]
}

/// SplitMix64 over the seed and a few stream words — the generator's own hash, so
/// the inputs do not change when the program's RNG conventions do.
pub fn mix(seed: u64, words: &[u64]) -> u64 {
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    let mut next = |x: u64| {
        state = state.wrapping_add(x).wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut out = next(0);
    for &w in words {
        out = next(w ^ out);
    }
    out
}

/// A seeded permutation of `0..n` (Fisher–Yates over [`mix`]).
fn shuffled(seed: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(
            i,
            (mix(seed, &[0x5_0FF1E, i as u64]) % (i as u64 + 1)) as usize,
        );
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use kspot_query::{classify, parse};

    #[test]
    fn the_same_seed_gives_the_same_inputs_and_another_seed_gives_others() {
        for name in WORKLOADS {
            let a = Workload::named(name, 7, Size::Smoke).unwrap();
            let b = Workload::named(name, 7, Size::Smoke).unwrap();
            let c = Workload::named(name, 8, Size::Smoke).unwrap();
            let script = |w: &Workload| -> Vec<_> {
                (0..w.total_ticks())
                    .map(|t| w.transient(0, t))
                    .chain([None])
                    .collect()
            };
            assert_eq!(a.resident, b.resident);
            assert_eq!(script(&a), script(&b));
            assert!(
                a.resident != c.resident || script(&a) != script(&c),
                "{name}"
            );
        }
        assert!(Workload::named("nope", 1, Size::Smoke).is_none());
    }

    #[test]
    fn every_generated_statement_parses_and_the_probe_does_not() {
        for name in WORKLOADS {
            let w = Workload::named(name, 3, Size::Seconds(10)).unwrap();
            for sql in w.sql_mix() {
                let plan = parse(&sql).and_then(|q| classify(&q));
                assert!(plan.is_ok(), "{name}: `{sql}` -> {plan:?}");
            }
        }
        assert!(parse(MALFORMED_SQL).is_err());
    }

    #[test]
    fn sizes_scale_with_seconds_but_never_below_two_hundred_ticks() {
        let at = |s| {
            Workload::named("engine_snapshot", 1, Size::Seconds(s))
                .unwrap()
                .measured_ticks
        };
        assert_eq!(at(10), 3000);
        assert_eq!(at(20), 6000);
        assert_eq!(at(1), 300);
        let small = Workload::named("serve_stream", 1, Size::Seconds(1)).unwrap();
        assert_eq!(small.measured_ticks, 200);
    }

    #[test]
    fn newest_checkpoint_follows_the_epoch_count() {
        let w = Workload::named("serve_churn", 1, Size::Smoke).unwrap();
        // cadence 4, 40 priming epochs: epochs 0..=39 ran, snapshots at 3, 7, …, 39.
        assert_eq!(w.newest_checkpoint_before(0), 39);
        assert_eq!(w.newest_checkpoint_before(1), 39);
        assert_eq!(w.newest_checkpoint_before(4), 43);
    }

    #[test]
    fn the_resident_mix_is_a_permutation_of_the_sixteen() {
        let w = Workload::named("engine_snapshot", 11, Size::Smoke).unwrap();
        let mut got = w.resident.clone();
        let mut want = snapshot_mix();
        got.sort();
        want.sort();
        assert_eq!(got, want);
    }
}
