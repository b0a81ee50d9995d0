//! Criterion counterpart of `docs/perf/complexity.md` §5: what the host pays for one
//! historic query as the span `W` and `K` grow — TJA over the engine's live view of
//! warm windows, and the checkpoint and restore of the bank behind it — and for the two
//! shapes `engine_historic` runs besides: an `AS OF` query (the restore of a span of `W`
//! out of a bank of `2W` and TJA over it) and a live TJA whose span is half its bank's.
//! TJA's Hierarchical Join works a window a run at a time (a stretch of samples on
//! consecutive slots), so one group times it over windows cut into 1, 4 and 16 runs.
//! Every other group reads banks that are not fed between calls; the last one feeds an
//! epoch before each query, as the engine does every tick, so the first read after a
//! feed is what it times.  It also times the steady-state checkpoint — a cadence's worth
//! of feeds, then a checkpoint into a warm ring of eight — and the `to_bytes` of that
//! ring, where the images are encoded and sealed.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kspot_algos::historic::HistoricAlgorithm;
use kspot_algos::{BankWindows, HistoricSpec, LocalAggregateHistoric, SnapshotSpec, Tja};
use kspot_core::{CheckpointStore, DEFAULT_RETENTION};
use kspot_net::types::ValueDomain;
use kspot_net::{Deployment, Epoch, Network, NetworkConfig, RoomModelParams, WindowBank, Workload};
use kspot_query::AggFunc;
use std::hint::black_box;

/// A 10×10 grid whose windows hold `window` epochs (and have wrapped), a network that
/// outlasts any number of runs, and the newest buffered epoch.
fn warm(window: usize) -> (Network, WindowBank, Epoch) {
    warm_in_runs(window, 1)
}

/// [`warm`], with every node but node 1 missing `runs - 1` feeds of the last `window`,
/// evenly spaced, so that each of their windows' spans is cut into `runs` runs.
fn warm_in_runs(window: usize, runs: usize) -> (Network, WindowBank, Epoch) {
    let (net, bank, newest, _) = warm_fed(window, runs);
    (net, bank, newest)
}

/// [`warm_in_runs`], and the workload that fed it, to feed it on.
fn warm_fed(window: usize, runs: usize) -> (Network, WindowBank, Epoch, Workload) {
    let d = Deployment::grid(10, 10.0, Some(16));
    let mut w = Workload::room_correlated(&d, ValueDomain::percentage(), RoomModelParams::default(), 66);
    let mut bank = WindowBank::new(window);
    let mut newest = 0;
    for feed in 0..window + 7 {
        let mut readings = w.next_epoch();
        newest = readings[0].epoch;
        let at = feed.saturating_sub(7);
        if at > 0 && at % (window / runs) == 0 {
            readings.retain(|r| r.node == 1);
        }
        bank.feed(&readings);
    }
    let mut net = Network::new(d, NetworkConfig::mica2().with_battery_uj(1.0e18));
    net.begin_epoch(newest);
    (net, bank, newest, w)
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

fn bench_as_of(c: &mut Criterion) {
    let mut group = c.benchmark_group("historic_as_of_n100_k5");
    group.sample_size(300);
    for &window in &[32usize, 64, 128] {
        let (mut net, mut bank, newest) = warm(2 * window);
        let mut store = CheckpointStore::new(1);
        store.checkpoint(&mut bank, newest, &mut net);
        let spec = HistoricSpec::new(5, AggFunc::Avg, ValueDomain::percentage(), window);
        group.bench_with_input(BenchmarkId::new("as_of", window), &window, |b, &w| {
            b.iter(|| {
                let mut view = store.restore(newest, w, &mut net).expect("just checkpointed");
                black_box(Tja::new(spec).execute(&mut net, &mut view).items.len())
            });
        });
    }
    group.finish();
}

fn bench_short_span(c: &mut Criterion) {
    let mut group = c.benchmark_group("historic_short_span_n100_k5");
    group.sample_size(300);
    let (mut net, mut bank, _) = warm(128);
    for &window in &[64usize, 128] {
        group.bench_with_input(BenchmarkId::new("tja_short_span", window), &window, |b, &w| {
            b.iter(|| black_box(tja(&mut net, &mut bank, 5, w)));
        });
    }
    group.finish();
}

fn bench_runs(c: &mut Criterion) {
    let mut group = c.benchmark_group("historic_runs_n100_k5");
    group.sample_size(300);
    for &runs in &[1usize, 4, 16] {
        let (mut net, mut bank, _) = warm_in_runs(128, runs);
        group.bench_with_input(BenchmarkId::new("tja", runs), &runs, |b, _| {
            b.iter(|| black_box(tja(&mut net, &mut bank, 5, 128)));
        });
    }
    group.finish();
}

fn bench_fed(c: &mut Criterion) {
    let mut group = c.benchmark_group("historic_fed_n100_k5");
    group.sample_size(300);
    let (mut net, mut bank, _, mut w) = warm_fed(128, 1);
    let mut feed = |net: &mut Network, bank: &mut WindowBank| {
        let readings = w.next_epoch();
        net.begin_epoch(readings[0].epoch);
        bank.feed(&readings);
        readings[0].epoch
    };
    group.bench_with_input(BenchmarkId::new("feed", 0), &0, |b, _| {
        b.iter(|| feed(&mut net, &mut bank));
    });
    for &window in &[128usize, 64] {
        group.bench_with_input(BenchmarkId::new("feed_tja", window), &window, |b, &w| {
            b.iter(|| {
                feed(&mut net, &mut bank);
                black_box(tja(&mut net, &mut bank, 5, w))
            });
        });
    }
    let mut horizontal = LocalAggregateHistoric::new(SnapshotSpec::new(5, AggFunc::Avg, ValueDomain::percentage()));
    group.bench_with_input(BenchmarkId::new("feed_local_aggregate", 64), &64, |b, &w| {
        b.iter(|| {
            feed(&mut net, &mut bank);
            black_box(horizontal.execute(&mut net, &mut BankWindows::new(&mut bank, w)).items.len())
        });
    });
    // A cadence's worth of feeds, then a checkpoint into a ring of eight that is full.
    let mut ring = CheckpointStore::new(1);
    for &cadence in &[2usize, 4] {
        let mut tick = |net: &mut Network, bank: &mut WindowBank, store: &mut CheckpointStore| {
            let newest = (0..cadence).map(|_| feed(net, bank)).last().expect("a cadence of at least one");
            store.checkpoint(bank, newest, net);
        };
        let mut store = CheckpointStore::new(cadence as u64);
        for _ in 0..DEFAULT_RETENTION {
            tick(&mut net, &mut bank, &mut store);
        }
        group.bench_with_input(BenchmarkId::new("feed_checkpoint", cadence), &cadence, |b, _| {
            b.iter(|| tick(&mut net, &mut bank, &mut store));
        });
        ring = store;
    }
    group.bench_with_input(BenchmarkId::new("to_bytes", "8x128"), &0, |b, _| {
        b.iter(|| black_box(ring.to_bytes().len()));
    });
    group.finish();
}

criterion_group!(benches, bench_span, bench_k, bench_as_of, bench_short_span, bench_runs, bench_fed);
criterion_main!(benches);
