//! Criterion counterpart of `docs/perf/complexity.md` §5: what the host pays for one
//! historic query as the span `W` and `K` grow — TJA over the engine's live view of
//! warm windows, and the checkpoint and restore of the bank behind it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kspot_algos::historic::HistoricAlgorithm;
use kspot_algos::{BankWindows, HistoricSpec, Tja};
use kspot_core::CheckpointStore;
use kspot_net::types::ValueDomain;
use kspot_net::{Deployment, Epoch, Network, NetworkConfig, RoomModelParams, WindowBank, Workload};
use kspot_query::AggFunc;
use std::hint::black_box;

/// A 10×10 grid whose windows hold `window` epochs (and have wrapped), a network that
/// outlasts any number of runs, and the newest buffered epoch.
fn warm(window: usize) -> (Network, WindowBank, Epoch) {
    let d = Deployment::grid(10, 10.0, Some(16));
    let mut w = Workload::room_correlated(&d, ValueDomain::percentage(), RoomModelParams::default(), 66);
    let mut bank = WindowBank::new(window);
    let mut newest = 0;
    for _ in 0..window + 7 {
        let readings = w.next_epoch();
        newest = readings[0].epoch;
        bank.feed(&readings);
    }
    let mut net = Network::new(d, NetworkConfig::mica2().with_battery_uj(1.0e18));
    net.begin_epoch(newest);
    (net, bank, newest)
}

fn tja(net: &mut Network, bank: &mut WindowBank, k: usize, window: usize) -> usize {
    let spec = HistoricSpec::new(k, AggFunc::Avg, ValueDomain::percentage(), window);
    Tja::new(spec).execute(net, &mut BankWindows::new(bank, window)).items.len()
}

fn bench_span(c: &mut Criterion) {
    let mut group = c.benchmark_group("historic_span_n100_k5");
    group.sample_size(300);
    for &window in &[32usize, 64, 128, 256] {
        let (mut net, mut bank, newest) = warm(window);
        group.bench_with_input(BenchmarkId::new("tja", window), &window, |b, &w| {
            b.iter(|| black_box(tja(&mut net, &mut bank, 5, w)));
        });
        let mut store = CheckpointStore::new(1);
        group.bench_with_input(BenchmarkId::new("checkpoint", window), &window, |b, _| {
            b.iter(|| store.checkpoint(&mut bank, newest, &mut net));
        });
        group.bench_with_input(BenchmarkId::new("restore", window), &window, |b, &w| {
            b.iter(|| black_box(store.restore(newest, w, &mut net).expect("just checkpointed").snapshot_epoch()));
        });
    }
    group.finish();
}

fn bench_k(c: &mut Criterion) {
    let mut group = c.benchmark_group("historic_k_n100_w128");
    group.sample_size(300);
    let (mut net, mut bank, _) = warm(128);
    for &k in &[1usize, 2, 4, 8, 16, 32, 64] {
        group.bench_with_input(BenchmarkId::new("tja", k), &k, |b, &k| {
            b.iter(|| black_box(tja(&mut net, &mut bank, k, 128)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_span, bench_k);
criterion_main!(benches);
