//! Criterion counterpart of `docs/perf/complexity.md` §3's $G$ axis: what a snapshot
//! epoch of MINT and of TAG costs as the number of groups grows at a fixed node count.
//! A 14×14 grid (196 nodes) of 4, 16, 64 and 196 rooms, room-correlated readings
//! drifting as in the benchmark's `engine_snapshot`, frame batching on; one sample is
//! 10 epochs of a warm executor.  From 64 to 196 groups a view's presence mask goes
//! from one word to four.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kspot_algos::snapshot::run_continuous;
use kspot_algos::{MintViews, SnapshotAlgorithm, SnapshotSpec, TagTopK};
use kspot_net::types::ValueDomain;
use kspot_net::{Deployment, Network, NetworkConfig, RoomModelParams, Workload};
use kspot_query::AggFunc;
use std::hint::black_box;

/// Epochs one sample runs.
const EPOCHS: usize = 10;

/// A warm `TOP 3 AVG` executor on a 14×14 grid of `rooms` rooms, with its network and
/// workload.
fn warm(rooms: usize, mint: bool) -> (Box<dyn SnapshotAlgorithm>, Network, Workload) {
    let d = Deployment::grid(14, 10.0, Some(rooms));
    let spec = SnapshotSpec::new(3, AggFunc::Avg, ValueDomain::percentage());
    let mut algo: Box<dyn SnapshotAlgorithm> =
        if mint { Box::new(MintViews::new(spec)) } else { Box::new(TagTopK::new(spec)) };
    let mut net = Network::new(d.clone(), NetworkConfig::mica2().with_battery_uj(1.0e18));
    net.set_frame_batching(true);
    let drift = RoomModelParams { drift_sigma: 8.0, sensor_noise_sigma: 1.0 };
    let mut workload = Workload::room_correlated(&d, ValueDomain::percentage(), drift, kspot_net::rng::workload_seed(5));
    run_continuous(&mut *algo, &mut net, &mut workload, 20);
    (algo, net, workload)
}

fn bench_sweep_g(c: &mut Criterion) {
    let mut group = c.benchmark_group("groups_n196_10_epochs");
    group.sample_size(30);
    for &rooms in &[4usize, 16, 64, 196] {
        for (name, mint) in [("mint", true), ("tag", false)] {
            let (mut algo, mut net, mut workload) = warm(rooms, mint);
            group.bench_with_input(BenchmarkId::new(name, rooms), &rooms, |b, _| {
                b.iter(|| black_box(run_continuous(&mut *algo, &mut net, &mut workload, EPOCHS)));
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_sweep_g);
criterion_main!(benches);
