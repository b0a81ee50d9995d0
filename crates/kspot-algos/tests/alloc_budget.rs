//! Pins the allocation-free epoch with a count, not a clock: once the kernel's scratch
//! and the substrate's scheduler buffers are warm, one shared epoch of MINT + TAG +
//! centralized collection + FILA over a frame-batching network allocates a small,
//! *network-size-independent* number of times — the answers it returns and little else
//! — and what it leaves allocated is those answers, byte for byte: `16·K` per answer,
//! whatever buffer a strategy ranked in.  A MINT epoch that has to probe is held to the
//! same independence.
//!
//! The historic path is pinned the same way: a `WITH HISTORY 128` TJA over the engine's
//! warm windows allocates its answer and the view's epoch list, whatever the node count
//! and the span.
//!
//! Timing claims live in the benchmark (`bench/`); this test is the regression fence
//! that does not depend on the host: a `BTreeMap` or a per-node `Vec` creeping back
//! into the sweep makes the count grow with the node count and fails it.
//!
//! The counting allocator is the workspace's one `unsafe impl` and lives in this
//! test crate only — every library crate stays `#![forbid(unsafe_code)]` (kspot-serve
//! `deny`s it, for its one audited `sys` module: ADR-011; lint R8 names both exemptions).

use kspot_algos::{
    run_shared_epoch, BankWindows, CentralizedCollection, FilaMonitor, HistoricAlgorithm,
    HistoricSpec, MintViews, RankedItem, SnapshotAlgorithm, SnapshotSpec, TagTopK, Tja, TopKResult,
};
use kspot_net::types::ValueDomain;
use kspot_net::{Deployment, Network, NetworkConfig, WindowBank, Workload};
use kspot_query::AggFunc;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread has allocated and not freed.
    static HELD_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// The system allocator, counting per thread so the harness's own threads do not
/// disturb a measurement.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is two thread-local counter bumps, and the
// counters are `const`-initialised `Cell`s of integers without a destructor, so touching
// them neither allocates nor runs code after thread-local teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        HELD_BYTES.with(|b| b.set(b.get() + layout.size() as i64));
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        HELD_BYTES.with(|b| b.set(b.get() - layout.size() as i64));
        // SAFETY: `ptr` was returned by `System` (via `alloc`/`realloc` above) for
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        HELD_BYTES.with(|b| b.set(b.get() + new_size as i64 - layout.size() as i64));
        // SAFETY: arguments are passed through as received from the caller.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What a steady-state epoch may allocate: the vector of answers, each answer's items
/// (TAG's and the centralized sink's are cut from a ranking of every group, MINT's and
/// FILA's are copied out of buffers the executors keep), the sink view a sweep returns.
/// Nothing per node, per tuple or per frame.  Measured: 11.
const BUDGET: u64 = 11;

/// What an epoch did to this thread's heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Measured {
    /// Allocations and reallocations made.
    allocations: u64,
    /// Bytes allocated during the epoch and still held when it returned its answers.
    retained: i64,
    /// What the answers weigh: their items, and the `Vec` the answers come in.
    answers: i64,
}

/// The bytes `answers` should hold on the heap if nothing but the reported items is kept.
fn weight(answers: &Vec<TopKResult>) -> i64 {
    let items: usize = answers.iter().map(|a| a.items.len()).sum();
    (items * size_of::<RankedItem>() + answers.capacity() * size_of::<TopKResult>()) as i64
}

/// The fourth shared epoch (after Creation and two warm-up epochs) on a `side × side`
/// grid of 16 rooms.
fn steady_epoch(side: usize) -> Measured {
    let d = Deployment::grid(side, 10.0, Some(16));
    // Readings are distinct per node and never change: no MINT probe, no FILA filter
    // violation — the epoch measured is the common, quiet one.
    let values: Vec<f64> = (0..d.num_nodes()).map(|i| 10.0 + (i * 37 % 197) as f64 * 0.4).collect();
    let mut workload = Workload::trace(&d, ValueDomain::percentage(), vec![values]);
    let mut net = Network::new(d, NetworkConfig::mica2());
    net.set_frame_batching(true);

    let spec = |k, func| SnapshotSpec::new(k, func, ValueDomain::percentage());
    let mut mint = MintViews::new(spec(3, AggFunc::Avg));
    let mut tag = TagTopK::new(spec(16, AggFunc::Max));
    let mut central = CentralizedCollection::new(spec(16, AggFunc::Avg));
    let mut fila = FilaMonitor::new(spec(3, AggFunc::Max));
    let mut algos: [&mut dyn SnapshotAlgorithm; 4] = [&mut mint, &mut tag, &mut central, &mut fila];

    let mut measured = None;
    for epoch in 0..4 {
        let readings = workload.next_epoch();
        let before = (ALLOCATIONS.with(Cell::get), HELD_BYTES.with(Cell::get));
        let answers = run_shared_epoch(&mut algos, &mut net, &readings, |net, i| {
            net.set_query_scope(Some(i as u32));
        });
        measured = Some(Measured {
            allocations: ALLOCATIONS.with(Cell::get) - before.0,
            retained: HELD_BYTES.with(Cell::get) - before.1,
            answers: weight(&answers),
        });
        assert_eq!(answers.iter().map(|a| a.items.len()).collect::<Vec<_>>(), [3, 16, 16, 3]);
        assert!(answers.iter().all(|a| a.epoch == epoch));
    }
    assert!(net.metrics().totals().messages > 0, "the sweeps did move traffic");
    measured.expect("four epochs ran")
}

#[test]
fn a_steady_epoch_allocates_a_small_constant_whatever_the_network_size() {
    let small = steady_epoch(8);
    let large = steady_epoch(14);
    assert_eq!(
        small.allocations, large.allocations,
        "allocations per epoch must not depend on the node count (64 vs 196 nodes)"
    );
    assert!(large.allocations <= BUDGET, "a steady epoch allocated {} times, budget {BUDGET}", large.allocations);
    assert_eq!(steady_epoch(14), large, "the counts repeat exactly run to run");
}

/// An answer is kept for as long as its session lives, so what an epoch leaves on the
/// heap must be the K items each answer reports — not the buffer they were ranked in
/// (FILA ranks every node it knows of, MINT every group the sink knows exactly).
#[test]
fn a_steady_epoch_retains_its_answers_items_and_nothing_else() {
    for side in [8, 14] {
        let epoch = steady_epoch(side);
        // 3 + 16 + 16 + 3 items of 16 bytes, four answers of 32.
        assert_eq!(epoch.answers, 38 * 16 + 4 * 32);
        assert_eq!(
            epoch.retained, epoch.answers,
            "a steady epoch on {side} × {side} nodes keeps {} bytes for answers weighing {}",
            epoch.retained, epoch.answers
        );
    }
}

/// What a warm probing MINT epoch may allocate: the vector of answers, the sink view,
/// the answer that failed certification and the one ranked after the probes.  Nothing
/// per probed room or per probed member.  Measured: 4.
const PROBING_BUDGET: u64 = 5;

/// Allocations of a warm MINT epoch that cannot certify its answer and probes: rooms 15,
/// 14 and 13 lead by far, and the trace's second row (and its last) drops room 13 — the
/// K-th — to the floor, below the installed τ.  The eight leading rows in between let
/// the adaptive slack forget the first drop, so the threshold is back up when the
/// second one comes, and the scratch the first probe sized is reused by the second.
fn probing_epoch_allocations(side: usize) -> u64 {
    let d = Deployment::grid(side, 10.0, Some(16));
    let level = |room: usize| if room >= 13 { 60.0 + 10.0 * (room - 12) as f64 } else { room as f64 };
    let leading: Vec<f64> = (0..d.num_nodes()).map(|i| level(i % 16)).collect();
    let dropped: Vec<f64> = (0..d.num_nodes()).map(|i| if i % 16 == 13 { 0.5 } else { level(i % 16) }).collect();
    let mut rows = vec![leading; 11];
    rows[1] = dropped.clone();
    rows[10] = dropped;
    let mut workload = Workload::trace(&d, ValueDomain::percentage(), rows);
    let mut net = Network::new(d, NetworkConfig::mica2());
    net.set_frame_batching(true);
    let mut mint = MintViews::new(SnapshotSpec::new(3, AggFunc::Avg, ValueDomain::percentage()));

    let mut measured = 0;
    for epoch in 0..11 {
        let readings = workload.next_epoch();
        let probed_before = mint.stats().probe_epochs;
        let before = ALLOCATIONS.with(Cell::get);
        let answers = run_shared_epoch(&mut [&mut mint], &mut net, &readings, |_, _| {});
        measured = ALLOCATIONS.with(Cell::get) - before;
        let probed = mint.stats().probe_epochs - probed_before;
        assert_eq!(probed, u64::from(epoch == 1 || epoch == 10), "epoch {epoch}");
        assert_eq!(answers[0].keys(), if probed == 1 { [15, 14, 12] } else { [15, 14, 13] });
    }
    assert_eq!(mint.stats().probed_groups, 28, "both probing epochs asked every room they could not rank");
    measured
}

#[test]
fn a_probing_epoch_allocates_a_small_constant_whatever_the_network_size() {
    let small = probing_epoch_allocations(8);
    let large = probing_epoch_allocations(14);
    assert_eq!(small, large, "allocations of a probing epoch must not depend on the node count (64 vs 196 nodes)");
    assert!(large <= PROBING_BUDGET, "a probing MINT epoch allocated {large} times, budget {PROBING_BUDGET}");
}

/// What a steady-state TJA may allocate: the view's list of covered epochs and the
/// ranked items of the answer.  Nothing per node, per epoch of the span or per tuple.
/// Measured: 2 (the map-based executor this replaced: 17 861 at 8×8 and 30 140 at 10×10
/// for `WITH HISTORY 128`, 9 778 at 8×8 for `WITH HISTORY 64`).
const HISTORIC_BUDGET: u64 = 4;

/// Allocations of the fourth `SELECT TOP 8 epoch … WITH HISTORY window` over the
/// engine's live view of a `side × side` grid's windows, one epoch fed between runs.
fn steady_tja_allocations(side: usize, window: usize) -> u64 {
    let d = Deployment::grid(side, 10.0, Some(16));
    let mut workload = Workload::uniform_iid(&d, ValueDomain::percentage(), 42);
    let mut bank = WindowBank::new(window);
    for _ in 0..window + 5 {
        bank.feed(&workload.next_epoch());
    }
    let mut net = Network::new(d, NetworkConfig::mica2());
    let spec = HistoricSpec::new(8, AggFunc::Avg, ValueDomain::percentage(), window);

    let mut measured = 0;
    for _ in 0..4 {
        let readings = workload.next_epoch();
        net.begin_epoch(readings[0].epoch);
        bank.feed(&readings);
        let before = ALLOCATIONS.with(Cell::get);
        let answer = Tja::new(spec).execute(&mut net, &mut BankWindows::new(&mut bank, window));
        measured = ALLOCATIONS.with(Cell::get) - before;
        assert_eq!((answer.epoch, answer.items.len()), (readings[0].epoch, 8));
    }
    measured
}

#[test]
fn a_steady_tja_allocates_a_small_constant_whatever_the_network_and_the_window() {
    let small = steady_tja_allocations(8, 128);
    let large = steady_tja_allocations(10, 128);
    assert_eq!(small, large, "allocations per execution must not depend on the node count (64 vs 100 nodes)");
    assert_eq!(steady_tja_allocations(8, 64), small, "nor on the span (64 vs 128 epochs)");
    assert!(large <= HISTORIC_BUDGET, "a steady TJA allocated {large} times, budget {HISTORIC_BUDGET}");
    assert_eq!(steady_tja_allocations(10, 128), large, "the count repeats exactly run to run");
}
