//! Criterion counterpart of `docs/perf/complexity.md` §3's $S$ axis: what one engine
//! epoch costs as the number of resident snapshot sessions grows.  The sessions cycle
//! through the sixteen statements of the benchmark's `engine_snapshot` mix (8 MINT,
//! 4 TAG, 3 FILA, 1 centralized) on a 14×14 grid of 16 rooms with frame batching on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kspot_core::{KSpotServer, QueryEngine, ScenarioConfig, WorkloadSpec};
use kspot_net::{Deployment, NetworkConfig, RoomModelParams};

/// Epochs one sample runs.
const EPOCHS: usize = 10;

/// The `engine_snapshot` mix, in registration order.
fn mix() -> Vec<String> {
    let ranked = |k: u64, func: &str| format!("SELECT TOP {k} roomid, {func}(sound) FROM sensors GROUP BY roomid");
    let mut mix: Vec<String> = (0..8u64).map(|i| ranked(1 + i % 4, if i < 4 { "AVG" } else { "MAX" })).collect();
    mix.extend(["AVG", "MAX", "MIN", "SUM"].map(|f| format!("SELECT roomid, {f}(sound) FROM sensors GROUP BY roomid")));
    mix.extend([2, 3, 5].map(|k| format!("SELECT TOP {k} nodeid, sound FROM sensors")));
    mix.push("SELECT * FROM sensors".to_string());
    mix
}

/// A warm engine with `sessions` resident sessions.
fn engine(sessions: usize) -> QueryEngine {
    let scenario = ScenarioConfig::custom("14x14 grid, 16 rooms", "sound", Deployment::grid(14, 10.0, Some(16)));
    let rooms = RoomModelParams { drift_sigma: 8.0, sensor_noise_sigma: 1.0 };
    let mut engine = KSpotServer::new(scenario)
        .with_workload(WorkloadSpec::RoomCorrelated(rooms))
        .with_network_config(NetworkConfig::mica2().with_battery_uj(1.0e18))
        .with_seed(5)
        .engine()
        .with_frame_batching(true)
        .with_max_sessions(sessions);
    for sql in mix().iter().cycle().take(sessions) {
        engine.register(sql).expect("the mix registers");
    }
    engine.run_epochs(20);
    engine
}

fn bench_sweep_s(c: &mut Criterion) {
    let mut group = c.benchmark_group("sessions_n196_10_epochs");
    group.sample_size(30);
    for &sessions in &[1usize, 4, 16, 64, 256] {
        let mut engine = engine(sessions);
        group.bench_with_input(BenchmarkId::new("engine", sessions), &sessions, |b, _| {
            b.iter(|| engine.run_epochs(EPOCHS));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sweep_s);
criterion_main!(benches);
