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
//! and the span — and when the span changes between executions, the working memory
//! grows once and is reused from then on.  Once the windows keep lists of their best
//! samples, the feed between two executions allocates nothing, and catching the lists
//! up with it is part of the execution's count.  An `AS OF` query's restore allocates a
//! window per node — of the span's samples only — and a small constant, and TJA over
//! the restored view its answer.
//!
//! The kernel's scratch is fenced the same way: the steady shared epoch allocates the
//! same count when every node is its own group (G = N) as with 16 or 64 groups, and the
//! first sweep on a fresh thread keeps the group table the kernel documents,
//! `(N + 1) · (8⌈G / 64⌉ + 24 G + 44)` bytes, and little besides — once per thread, not
//! per session.
//!
//! Timing claims live in the benchmark (`bench/`); this test is the regression fence
//! that does not depend on the host: a `BTreeMap` or a per-node `Vec` creeping back
//! into the sweep makes the count grow with the node count and fails it.
//!
//! The counting allocator is the workspace's one `unsafe impl` and lives in this
//! test crate only — every library crate stays `#![forbid(unsafe_code)]` (kspot-serve
//! `deny`s it, for its one audited `sys` module: ADR-011; lint R8 names both exemptions).

use kspot_algos::{
    AggState, BankWindows, CentralizedCollection, FilaMonitor, HistoricAlgorithm,
    HistoricSpec, MintViews, RankedItem, SnapshotAlgorithm, SnapshotSpec, TagTopK, Tja, TopKResult,
};
use kspot_net::types::ValueDomain;
use kspot_net::{Deployment, Network, NetworkConfig, WindowBank, Workload};
use kspot_query::AggFunc;
use kspot_store::CheckpointStore;
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
/// (copied out of buffers the executors or the sweeping thread keep, in which every
/// group was ranked), the sink view a sweep returns.  Nothing per node, per group, per
/// tuple or per frame.  Measured: 7 — 1 + 4 answers + MINT's and TAG's sink views.
const BUDGET: u64 = 7;

/// What an epoch did to this thread's heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Measured {
    /// Allocations and reallocations made.
    allocations: u64,
    /// Bytes allocated during the epoch and still held when it returned its answers.
    retained: i64,
    /// What the answers weigh: their items, and the `Vec` the answers come in.
    answers: i64,
    /// Nodes FILA probed.
    fila_probes: u64,
}

/// The bytes `answers` should hold on the heap if nothing but the reported items is kept.
fn weight(answers: &Vec<TopKResult>) -> i64 {
    let items: usize = answers.iter().map(|a| a.items.len()).sum();
    (items * size_of::<RankedItem>() + answers.capacity() * size_of::<TopKResult>()) as i64
}

/// Each of `epochs` shared epochs of MINT + TAG + centralized collection + FILA on a
/// `side × side` grid of `rooms` rooms (every node its own when `None`), with frame
/// batching on or off.  Readings are distinct
/// per node.  Without `leader_drops` they never change: no MINT probe, no FILA filter
/// violation — the common, quiet epoch.  With it the trace alternates two rows: in the
/// second the node with the highest reading drops to the floor, so FILA's top member
/// crosses its filter every epoch — down in one, back up in the next — and FILA probes,
/// walking unicast paths down to nodes and back up; in the epochs the leader drops it
/// refreshes every node.
fn shared_epochs(
    side: usize,
    rooms: Option<usize>,
    batching: bool,
    leader_drops: bool,
    epochs: usize,
) -> Vec<Measured> {
    let d = Deployment::grid(side, 10.0, rooms);
    let level: Vec<f64> = (0..d.num_nodes()).map(|i| 10.0 + (i * 37 % 197) as f64 * 0.4).collect();
    let mut rows = vec![level.clone()];
    if leader_drops {
        let leader = (0..level.len()).max_by(|&a, &b| level[a].total_cmp(&level[b])).expect("nodes");
        rows.push(level);
        rows[1][leader] = 0.0;
    }
    let mut workload = Workload::trace(&d, ValueDomain::percentage(), rows);
    let mut net = Network::new(d, NetworkConfig::mica2());
    net.set_frame_batching(batching);

    let spec = |k, func| SnapshotSpec::new(k, func, ValueDomain::percentage());
    let mut mint = MintViews::new(spec(3, AggFunc::Avg));
    let mut tag = TagTopK::new(spec(16, AggFunc::Max));
    let mut central = CentralizedCollection::new(spec(16, AggFunc::Avg));
    let mut fila = FilaMonitor::new(spec(3, AggFunc::Max));

    let measured: Vec<Measured> = (0..epochs as u64)
        .map(|epoch| {
            let readings = workload.next_epoch();
            let probes_before = fila.stats().probes;
            let before = (ALLOCATIONS.with(Cell::get), HELD_BYTES.with(Cell::get));
            let mut algos: [&mut dyn SnapshotAlgorithm; 4] = [&mut mint, &mut tag, &mut central, &mut fila];
            let answers: Vec<TopKResult> = net.run_epoch(readings[0].epoch, |net| {
                algos
                    .iter_mut()
                    .enumerate()
                    .map(|(i, algo)| {
                        net.set_query_scope(Some(i as u32));
                        algo.execute_epoch(net, &readings)
                    })
                    .collect()
            });
            let measured = Measured {
                allocations: ALLOCATIONS.with(Cell::get) - before.0,
                retained: HELD_BYTES.with(Cell::get) - before.1,
                answers: weight(&answers),
                fila_probes: fila.stats().probes - probes_before,
            };
            assert_eq!(answers.iter().map(|a| a.items.len()).collect::<Vec<_>>(), [3, 16, 16, 3]);
            assert!(answers.iter().all(|a| a.epoch == epoch));
            measured
        })
        .collect();
    assert_eq!(net.frame_batching(), batching);
    assert!(net.metrics().totals().messages > 0, "the sweeps did move traffic");
    if !leader_drops {
        assert_eq!(mint.stats().probe_epochs, 0, "a quiet trace never probes");
    }
    measured
}

/// The fourth quiet shared epoch (after Creation and two warm-up epochs) over a
/// frame-batching network of `rooms` rooms (every node its own when `None`).
fn steady_epoch(side: usize, rooms: Option<usize>) -> Measured {
    shared_epochs(side, rooms, true, false, 4)[3]
}

#[test]
fn a_steady_epoch_allocates_a_small_constant_whatever_the_network_size() {
    let small = steady_epoch(8, Some(16));
    let large = steady_epoch(14, Some(16));
    assert_eq!(
        small.allocations, large.allocations,
        "allocations per epoch must not depend on the node count (64 vs 196 nodes)"
    );
    assert!(large.allocations <= BUDGET, "a steady epoch allocated {} times, budget {BUDGET}", large.allocations);
    assert_eq!(steady_epoch(14, Some(16)), large, "the counts repeat exactly run to run");
}

/// An answer is kept for as long as its session lives, so what an epoch leaves on the
/// heap must be the K items each answer reports — not the buffer they were ranked in
/// (FILA ranks every node it knows of, MINT every group the sink knows exactly).
#[test]
fn a_steady_epoch_retains_its_answers_items_and_nothing_else() {
    for side in [8, 14] {
        let epoch = steady_epoch(side, Some(16));
        // 3 + 16 + 16 + 3 items of 16 bytes, four answers of 32.
        assert_eq!(epoch.answers, 38 * 16 + 4 * 32);
        assert_eq!(
            epoch.retained, epoch.answers,
            "a steady epoch on {side} × {side} nodes keeps {} bytes for answers weighing {}",
            epoch.retained, epoch.answers
        );
    }
}

/// The kernel's table is as wide as the deployment has groups, so the widest one there
/// is — every node its own group, G = N, four mask words a row at 196 — is where a
/// table that grew per sweep, or per group, would show; so would a sink that ranked its
/// groups in a buffer grown per group.  The whole shared mix allocates the same at
/// G = 16, 64 and N.
#[test]
fn a_steady_epoch_allocates_the_same_constant_when_every_node_is_its_own_group() {
    let rooms = steady_epoch(8, Some(16)).allocations;
    for side in [8, 14] {
        assert_eq!(steady_epoch(side, Some(16)).allocations, rooms, "{side} × {side} nodes, G = 16");
        assert_eq!(steady_epoch(side, Some(64)).allocations, rooms, "{side} × {side} nodes, G = 64, against G = 16");
        assert_eq!(steady_epoch(side, None).allocations, rooms, "{side} × {side} nodes, G = N, against G = 16");
    }
}

/// What a row keeps besides its mask and its states: its length, a `u32`, and its
/// summary of MINT's bounds, two `f64`s and a flag; and beside it, its index into the
/// rows' storage, a `u32`, and its node's own reading, a `u32` slot and an `f64` value.
const ROW_EXTRAS: usize = 4 + 24 + 4 + (4 + 8);

/// The bytes of a convergecast's group table for `nodes` nodes and `groups` groups: a
/// row per node and one for the sink, each a presence mask of ⌈groups / 64⌉ words, a
/// state per group, a length, a summary, an index and an own reading.
fn table_bytes(nodes: usize, groups: usize) -> i64 {
    ((nodes + 1) * (8 * groups.div_ceil(64) + size_of::<AggState>() * groups + ROW_EXTRAS)) as i64
}

/// What three TAG sweeps over one `side × side` grid of `rooms` rooms (every node its
/// own when `None`) allocate and keep on a fresh thread: an `AVG` session's, a `MAX`
/// session's, the `AVG` one's again.  Per sweep, the allocations and the bytes kept
/// beyond the answer.  The network has run the same sweeps on another thread first, so
/// its ledger rows exist and only the kernel's scratch is new.
fn fresh_thread_sweeps(side: usize, rooms: Option<usize>) -> Vec<(u64, i64)> {
    let d = Deployment::grid(side, 10.0, rooms);
    let readings = Workload::uniform_iid(&d, ValueDomain::percentage(), 7).next_epoch();
    let mut net = Network::new(d, NetworkConfig::mica2());
    let sessions = || {
        [AggFunc::Avg, AggFunc::Max, AggFunc::Avg]
            .map(|func| TagTopK::new(SnapshotSpec::new(3, func, ValueDomain::percentage())))
    };
    for tag in &mut sessions() {
        tag.execute_epoch(&mut net, &readings);
    }
    std::thread::scope(|scope| {
        scope
            .spawn(|| {
                sessions()
                    .iter_mut()
                    .map(|tag| {
                        let before = (ALLOCATIONS.with(Cell::get), HELD_BYTES.with(Cell::get));
                        let answer = tag.execute_epoch(&mut net, &readings);
                        let kept = HELD_BYTES.with(Cell::get) - before.1;
                        let answer_bytes = (answer.items.capacity() * size_of::<RankedItem>()) as i64;
                        (ALLOCATIONS.with(Cell::get) - before.0, kept - answer_bytes)
                    })
                    .collect()
            })
            .join()
            .expect("the measuring thread")
    })
}

/// The first sweep on a thread lays the table out: it keeps the table's bytes, and
/// besides them only the tree's post-order and the buffer the sink view is ranked in —
/// the node → slot map is the deployment's, and the deployment's groups are not
/// copied.  A session of another aggregate then sweeps in the same memory, as the first
/// session does from its second sweep on.
#[test]
fn the_first_sweep_on_a_thread_keeps_its_table_and_a_second_session_allocates_no_scratch() {
    for (side, rooms) in [(8, Some(16)), (8, None), (14, Some(16)), (14, None)] {
        let nodes = side * side;
        let groups = rooms.unwrap_or(nodes);
        let sweeps = fresh_thread_sweeps(side, rooms);
        let (first, other, again) = (sweeps[0], sweeps[1], sweeps[2]);
        let table = table_bytes(nodes, groups);
        let order_and_ranking = (size_of::<u32>() * (nodes + 1) + size_of::<RankedItem>() * groups) as i64;
        assert!(
            (table..=table + order_and_ranking).contains(&first.1),
            "{side} × {side}, G = {groups}: the first sweep kept {} bytes, its table is {table}",
            first.1
        );
        assert_eq!(other, again, "{side} × {side}, G = {groups}: a MAX session after an AVG one");
        assert_eq!(again.1, 0, "{side} × {side}, G = {groups}: a warm sweep keeps nothing but its answer");
    }
}

/// Allocations of the last two of six shared epochs in which FILA probes, over a
/// network with frame batching off, so every report is a one-hop unicast.
fn unbatched_epoch_allocations(side: usize) -> [u64; 2] {
    let epochs = shared_epochs(side, Some(16), false, true, 6);
    for (epoch, measured) in epochs.iter().enumerate().skip(1) {
        assert!(measured.fila_probes >= 3, "epoch {epoch}: FILA probed {} nodes", measured.fila_probes);
    }
    [epochs[4].allocations, epochs[5].allocations]
}

/// What one of those epochs may allocate: the steady epoch's [`BUDGET`] and the answers
/// FILA ranks while it probes.  Nothing per report, per unicast path or per hop.
/// Measured: 9 in both kinds of epoch, as with frame batching on.
const UNBATCHED_BUDGET: u64 = 9;

#[test]
fn an_unbatched_epoch_allocates_a_small_constant_whatever_the_network_size() {
    let small = unbatched_epoch_allocations(8);
    let large = unbatched_epoch_allocations(14);
    assert_eq!(small, large, "allocations per unbatched epoch must not depend on the node count (64 vs 196 nodes)");
    assert!(
        large.iter().all(|&n| n <= UNBATCHED_BUDGET),
        "unbatched epochs allocated {large:?} times, budget {UNBATCHED_BUDGET}"
    );
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
        let answers = net.run_epoch(readings[0].epoch, |net| vec![mint.execute_epoch(net, &readings)]);
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

/// What a steady `AS OF` query may allocate besides one window per node that holds
/// one: restoring a span copies each record's samples of it out of the store's logs
/// into a buffer of their own, which becomes the window's, and allocates the list of
/// windows, the span's epochs, the bank's node and window lists and the view's epoch
/// list; TJA over the restored view then allocates its answer.  Measured: 5, and 1
/// (6 while the store kept encoded images: decoding one allocated its record list).
const AS_OF_RESTORE_BUDGET: u64 = 5;

/// Allocations of the fourth `SELECT TOP 8 epoch … WITH HISTORY 64 AS OF` a checkpoint
/// of a `side × side` grid's bank of 128 epochs: `(restore, execution)` — the restore
/// of the snapshot into a view of its last 64 epochs, and TJA over the view.
fn steady_as_of_allocations(side: usize) -> (u64, u64) {
    let d = Deployment::grid(side, 10.0, Some(16));
    let mut workload = Workload::uniform_iid(&d, ValueDomain::percentage(), 42);
    let mut bank = WindowBank::new(128);
    for _ in 0..133 {
        bank.feed(&workload.next_epoch());
    }
    let mut net = Network::new(d, NetworkConfig::mica2());
    let at = bank.epochs().next_back().expect("a fed bank");
    let mut store = CheckpointStore::new(1);
    store.checkpoint(&mut bank, at, &mut net);
    let spec = HistoricSpec::new(8, AggFunc::Avg, ValueDomain::percentage(), 64);

    let mut measured = (0, 0);
    for _ in 0..4 {
        net.set_query_scope(Some(9));
        let before = ALLOCATIONS.with(Cell::get);
        let mut view = store.restore(at, 64, &mut net).expect("the snapshot is retained");
        let restored = ALLOCATIONS.with(Cell::get);
        let answer = Tja::new(spec).execute(&mut net, &mut view);
        measured = (restored - before, ALLOCATIONS.with(Cell::get) - restored);
        assert_eq!((answer.epoch, answer.items.len()), (at, 8));
    }
    measured
}

#[test]
fn a_steady_as_of_allocates_a_window_per_node_and_a_small_constant() {
    for side in [8, 10] {
        let nodes = (side * side) as u64;
        let (restore, execution) = steady_as_of_allocations(side);
        assert_eq!(
            restore,
            nodes + AS_OF_RESTORE_BUDGET,
            "restoring {side}×{side} windows allocated {restore} times, budget one per window and {AS_OF_RESTORE_BUDGET}"
        );
        assert!(execution <= HISTORIC_BUDGET, "TJA over the restored view allocated {execution} times, budget {HISTORIC_BUDGET}");
        assert_eq!(execution, 1, "TJA over a restored view allocates its answer: the restore made the epoch list");
        assert_eq!(steady_as_of_allocations(side), (restore, execution), "the counts repeat exactly run to run");
    }
}

/// Allocations of the fourth `SELECT TOP 8 epoch … WITH HISTORY window` over the
/// engine's live view of a `side × side` grid's windows, one epoch fed between runs,
/// and of the feed before it: `(feed, execution)`.
fn steady_tja_allocations(side: usize, window: usize) -> (u64, u64) {
    let d = Deployment::grid(side, 10.0, Some(16));
    let mut workload = Workload::uniform_iid(&d, ValueDomain::percentage(), 42);
    let mut bank = WindowBank::new(window);
    for _ in 0..window + 5 {
        bank.feed(&workload.next_epoch());
    }
    let mut net = Network::new(d, NetworkConfig::mica2());
    let spec = HistoricSpec::new(8, AggFunc::Avg, ValueDomain::percentage(), window);

    let mut measured = (0, 0);
    for _ in 0..4 {
        let readings = workload.next_epoch();
        net.begin_epoch(readings[0].epoch);
        let before = ALLOCATIONS.with(Cell::get);
        bank.feed(&readings);
        let fed = ALLOCATIONS.with(Cell::get);
        let answer = Tja::new(spec).execute(&mut net, &mut BankWindows::new(&mut bank, window));
        measured = (fed - before, ALLOCATIONS.with(Cell::get) - fed);
        assert_eq!((answer.epoch, answer.items.len()), (readings[0].epoch, 8));
    }
    measured
}

#[test]
fn a_steady_tja_allocates_a_small_constant_whatever_the_network_and_the_window() {
    let (_, small) = steady_tja_allocations(8, 128);
    let (_, large) = steady_tja_allocations(10, 128);
    assert_eq!(small, large, "allocations per execution must not depend on the node count (64 vs 100 nodes)");
    assert_eq!(steady_tja_allocations(8, 64).1, small, "nor on the span (64 vs 128 epochs)");
    assert!(large <= HISTORIC_BUDGET, "a steady TJA allocated {large} times, budget {HISTORIC_BUDGET}");
    assert_eq!(steady_tja_allocations(10, 128).1, large, "the count repeats exactly run to run");
}

#[test]
fn a_steady_feed_of_windows_that_keep_lists_allocates_nothing() {
    for (side, window) in [(8, 64), (8, 128), (10, 128)] {
        let (fed, _) = steady_tja_allocations(side, window);
        assert_eq!(fed, 0, "feeding {side}×{side} windows of {window} that keep lists allocated {fed} times");
    }
}

/// Allocations of the fourth `SELECT TOP 8 epoch … WITH HISTORY 128` over the live view
/// of a `side × side` grid's bank of 128 epochs whose windows are cut into `runs` runs:
/// every node but node 1 misses `runs - 1` feeds of the span, evenly spaced.  The view is
/// opened before the count, so what is counted is the execution alone.
fn steady_multi_run_tja_allocations(side: usize, runs: usize) -> u64 {
    let d = Deployment::grid(side, 10.0, Some(16));
    let mut workload = Workload::uniform_iid(&d, ValueDomain::percentage(), 42);
    let mut bank = WindowBank::new(128);
    for feed in 0..133usize {
        let mut readings = workload.next_epoch();
        let at = feed.saturating_sub(5);
        if at > 0 && at % (128 / runs) == 0 {
            readings.retain(|r| r.node == 1);
        }
        bank.feed(&readings);
    }
    assert_eq!(BankWindows::new(&mut bank, 128).samples(2).len(), 129 - runs, "node 2 missed {} feeds", runs - 1);
    let mut net = Network::new(d, NetworkConfig::mica2());
    let spec = HistoricSpec::new(8, AggFunc::Avg, ValueDomain::percentage(), 128);
    let mut measured = 0;
    for _ in 0..4 {
        let mut view = BankWindows::new(&mut bank, 128);
        let before = ALLOCATIONS.with(Cell::get);
        let answer = Tja::new(spec).execute(&mut net, &mut view);
        measured = ALLOCATIONS.with(Cell::get) - before;
        assert_eq!(answer.items.len(), 8);
    }
    measured
}

/// The Hierarchical Join works a window a run at a time; a window cut into many runs
/// keeps its runs in the thread's working memory like any other, so a steady TJA over
/// such windows allocates its answer and nothing else, at one run a window or sixteen.
#[test]
fn a_steady_tja_over_windows_cut_into_runs_allocates_its_answer_only() {
    for side in [8, 10] {
        for runs in [1, 4, 16] {
            let execution = steady_multi_run_tja_allocations(side, runs);
            assert_eq!(execution, 1, "TJA over {side}×{side} windows of {runs} runs allocated {execution} times");
        }
    }
}

/// Allocations of six TJAs on a fresh thread over one `side × side` bank of 128 epochs,
/// the span changing from one to the next: 64, 64, 128, 64, 128, 64.  The third grows
/// the thread's working memory — slots, sums, contributor sets and presence masks — to
/// 128 epochs; from then on both spans run in it.
fn span_changing_tja_allocations(side: usize) -> Vec<u64> {
    std::thread::spawn(move || {
        let d = Deployment::grid(side, 10.0, Some(16));
        let mut workload = Workload::uniform_iid(&d, ValueDomain::percentage(), 42);
        let mut bank = WindowBank::new(128);
        for _ in 0..133 {
            bank.feed(&workload.next_epoch());
        }
        let mut net = Network::new(d, NetworkConfig::mica2());
        [64, 64, 128, 64, 128, 64]
            .into_iter()
            .map(|window| {
                let readings = workload.next_epoch();
                net.begin_epoch(readings[0].epoch);
                bank.feed(&readings);
                let spec = HistoricSpec::new(8, AggFunc::Avg, ValueDomain::percentage(), window);
                let before = ALLOCATIONS.with(Cell::get);
                let answer = Tja::new(spec).execute(&mut net, &mut BankWindows::new(&mut bank, window));
                let measured = ALLOCATIONS.with(Cell::get) - before;
                assert_eq!(answer.items.len(), 8);
                measured
            })
            .collect()
    })
    .join()
    .expect("the measuring thread")
}

#[test]
fn a_tja_whose_span_changes_grows_its_working_memory_once_and_then_reuses_it() {
    let small = span_changing_tja_allocations(8);
    // Only the cold first execution depends on the node count (the view pool fills).
    assert_eq!(span_changing_tja_allocations(10)[1..], small[1..], "64 vs 100 nodes");
    let steady = small[1];
    assert!(small[2] > steady, "the first span of 128 grows the working memory: {small:?}");
    assert!(small[3..].iter().all(|&n| n == steady), "after that, neither span allocates more: {small:?}");
    assert!(steady <= HISTORIC_BUDGET, "a steady TJA allocated {steady} times, budget {HISTORIC_BUDGET}");
}

