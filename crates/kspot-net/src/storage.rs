//! Per-node sliding-window storage for historic queries.
//!
//! Historic Top-K queries ("the K time instances with the highest average temperature
//! during the last 3 months") require every node to buffer its past readings locally, in
//! a sliding window, either in SRAM or on flash — the paper cites MicroHash as the flash
//! index that plays this role on real motes.  [`SlidingWindow`] reproduces the two access
//! paths the algorithms need:
//!
//! * a *local top-k scan* (TJA's Lower-Bound phase asks each node for its k best epochs:
//!   [`SlidingWindow::as_slice`] ranked by [`top_k_into`]);
//! * *point lookups by epoch* (TJA's Hierarchical-Join and Clean-Up phases ask for the
//!   node's value at specific candidate epochs).
//!
//! The window keeps no read counter: the flash reads a query pays for are the page
//! reads of restoring a checkpoint (`kspot_store::CheckpointStore::restore`, charged
//! through [`crate::Network::charge_page_reads`]).
//!
//! [`WindowBank`] is the *engine-side* counterpart: one shared sliding window per node,
//! fed once per epoch from the live readings, serving **every** registered historic
//! query at once (ADR-005).  Capacity follows the largest registered `WITH HISTORY`
//! span, so a single maintenance pass per epoch amortises the buffering work across all
//! historic sessions instead of replaying a collection pass per submission.

use crate::types::{cmp_best_first, Epoch, NodeId, Reading, Value};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Bytes per flash page of the modeled storage device (AT45DB-class serial flash,
/// rounded to a power of two).  Checkpoint images are charged in whole pages of this
/// size.
pub const FLASH_PAGE_BYTES: usize = 256;

/// Energy to program one [`FLASH_PAGE_BYTES`]-byte flash page, µJ — the MicroHash
/// measurements the paper leans on put a page write at roughly 76 µJ on the MICA2's
/// AT45DB041B.
pub const FLASH_PAGE_WRITE_UJ: f64 = 76.0;

/// Energy to read one flash page back, µJ (reads are ~3× cheaper than writes and both
/// are orders of magnitude cheaper than shipping the same bytes over the radio).
pub const FLASH_PAGE_READ_UJ: f64 = 24.0;

/// A bounded, epoch-ordered buffer of `(epoch, value)` samples.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SlidingWindow {
    capacity: usize,
    samples: VecDeque<(Epoch, Value)>,
}

impl SlidingWindow {
    /// Creates a window holding at most `capacity` samples.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "sliding window capacity must be positive");
        Self {
            capacity,
            samples: VecDeque::with_capacity(capacity),
        }
    }

    /// Maximum number of samples retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Grows the retention capacity to at least `capacity`, keeping every buffered
    /// sample.  Shrinking is not supported — a window that already
    /// promised `capacity` epochs of history to one query must not silently forget
    /// them when another query registers.
    pub fn grow_capacity(&mut self, capacity: usize) {
        if capacity > self.capacity {
            self.capacity = capacity;
            self.samples.reserve(capacity.saturating_sub(self.samples.len()));
        }
    }

    /// Number of samples currently buffered.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples are buffered.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Appends a sample for `epoch`.  Epochs must be appended in non-decreasing order —
    /// sensors sample time monotonically.
    pub fn push(&mut self, epoch: Epoch, value: Value) {
        if let Some(&(last, _)) = self.samples.back() {
            assert!(epoch >= last, "samples must be appended in epoch order");
        }
        if self.samples.len() == self.capacity {
            self.samples.pop_front();
        }
        self.samples.push_back((epoch, value));
    }

    /// The value recorded at `epoch`, if it is still inside the window.
    pub fn get(&self, epoch: Epoch) -> Option<Value> {
        // Binary search: the deque is epoch-ordered.
        let at = self.samples.binary_search_by_key(&epoch, |&(e, _)| e).ok()?;
        Some(self.samples[at].1)
    }

    /// Iterates over the buffered `(epoch, value)` samples, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = (Epoch, Value)> + '_ {
        self.samples.iter().copied()
    }

    /// The buffered samples as one slice, oldest first — [`Self::iter`] for callers
    /// that want to borrow rather than copy.
    pub fn as_slice(&mut self) -> &[(Epoch, Value)] {
        self.samples.make_contiguous()
    }
}

/// Replaces the contents of `best` with the `k` highest-valued of `samples`, best
/// first, ties towards the older epoch: what sorting all of them under that order and
/// keeping the head would give, found by selection so that only the head is sorted.
pub fn top_k_into(samples: &[(Epoch, Value)], k: usize, best: &mut Vec<(Epoch, Value)>) {
    let by_rank = |a: &(Epoch, Value), b: &(Epoch, Value)| cmp_best_first((a.1, a.0), (b.1, b.0));
    best.clear();
    best.extend_from_slice(samples);
    if k < best.len() {
        if k > 0 {
            best.select_nth_unstable_by(k - 1, by_rank);
        }
        best.truncate(k);
    }
    best.sort_by(by_rank);
}

/// One engine-shared sliding window per node, fed once per epoch from the live
/// readings all registered queries consume (see the module docs and ADR-005).
///
/// The bank is deliberately *fault-oblivious*: sensing and buffering are node-local
/// (no radio involved), so a node keeps writing its own flash even while its parent is
/// dead or the link is lossy.  Whether a node's window is
/// *reachable* at query time is decided by the network when the historic algorithm
/// runs, not here.
#[derive(Debug, Clone, Default)]
pub struct WindowBank {
    capacity: usize,
    /// The nodes holding a window, ascending; `windows[i]` is `nodes[i]`'s.
    nodes: Vec<NodeId>,
    windows: Vec<SlidingWindow>,
    /// The epochs currently covered, oldest first (bounded by `capacity`).
    epochs: VecDeque<Epoch>,
    /// Total number of epochs ever fed (readiness counter for waiting sessions).
    fed: u64,
}

impl WindowBank {
    /// Creates an empty bank retaining up to `capacity` epochs per node.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window bank capacity must be positive");
        Self { capacity, ..Self::default() }
    }

    /// Adopts ready-made windows as a bank — what restoring a checkpoint image builds
    /// without replaying it epoch by epoch.  `windows` holds each node's samples,
    /// ascending by node, each ascending in epoch and at most `capacity` long; every
    /// buffer becomes its window's as it is, so a window reserves what it holds.
    /// `covered` is the covered span, ascending, and `fed` the epochs ever fed.
    pub fn from_windows(
        capacity: usize,
        windows: Vec<(NodeId, Vec<(Epoch, Value)>)>,
        covered: Vec<Epoch>,
        fed: u64,
    ) -> Self {
        assert!(capacity > 0, "window bank capacity must be positive");
        assert!(covered.len() <= capacity && covered.len() as u64 <= fed, "a span the bank cannot cover");
        assert!(windows.windows(2).all(|pair| pair[0].0 < pair[1].0), "windows ascend by node");
        let (nodes, windows) = windows
            .into_iter()
            .map(|(node, samples)| {
                assert!(samples.len() <= capacity, "node {node} holds more than the capacity");
                (node, SlidingWindow { capacity, samples: samples.into() })
            })
            .unzip();
        Self { capacity, nodes, windows, epochs: covered.into(), fed }
    }

    /// The per-node retention capacity, in epochs.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Grows the retention capacity to at least `capacity` epochs (never shrinks),
    /// growing every node's window with it.  Called when a historic query with a
    /// longer `WITH HISTORY` span registers.
    pub fn grow_capacity(&mut self, capacity: usize) {
        if capacity > self.capacity {
            self.capacity = capacity;
            for w in &mut self.windows {
                w.grow_capacity(capacity);
            }
        }
    }

    /// Total number of epochs ever fed into the bank (not capped by the capacity).
    pub fn epochs_fed(&self) -> u64 {
        self.fed
    }

    /// Number of epochs the bank **currently buffers** — the covered span.  This is
    /// what readiness gates must check: after a [`Self::grow_capacity`] call the
    /// buffered span can be far shorter than [`Self::epochs_fed`] suggests, because
    /// history evicted under the old capacity is gone for good.
    pub fn buffered_epochs(&self) -> usize {
        self.epochs.len()
    }

    /// The epochs currently buffered, oldest first.
    pub fn epochs(&self) -> impl DoubleEndedIterator<Item = Epoch> + ExactSizeIterator + '_ {
        self.epochs.iter().copied()
    }

    /// Node identifiers holding a window, ascending.
    pub fn node_ids(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Every node's window, ascending by node.
    pub fn windows(&self) -> impl Iterator<Item = (NodeId, &SlidingWindow)> + '_ {
        self.nodes.iter().copied().zip(&self.windows)
    }

    /// Mutable access to one node's shared window, if the node ever reported.
    pub fn window_mut(&mut self, node: NodeId) -> Option<&mut SlidingWindow> {
        // Deployments number their nodes 1..=n, so a window usually sits at `node - 1`.
        let guess = (node as usize).wrapping_sub(1);
        let at = if self.nodes.get(guess) == Some(&node) {
            guess
        } else {
            self.nodes.binary_search(&node).ok()?
        };
        Some(&mut self.windows[at])
    }

    /// Feeds one epoch of readings: every node's value is appended to its window and
    /// the epoch joins the covered span.  This is the **single** maintenance pass that
    /// serves every registered historic session — the amortisation the engine's
    /// shared-window design exists for.
    pub fn feed(&mut self, readings: &[Reading]) {
        let Some(first) = readings.first() else { return };
        for (i, r) in readings.iter().enumerate() {
            // Epoch after epoch the same nodes report in the same ascending order, so
            // the i-th reading is usually the i-th window's.
            let at = if self.nodes.get(i) == Some(&r.node) {
                i
            } else {
                self.nodes.binary_search(&r.node).unwrap_or_else(|at| {
                    self.nodes.insert(at, r.node);
                    self.windows.insert(at, SlidingWindow::new(self.capacity));
                    at
                })
            };
            self.windows[at].push(r.epoch, r.value);
        }
        if self.epochs.len() == self.capacity {
            self.epochs.pop_front();
        }
        self.epochs.push_back(first.epoch);
        self.fed += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window_with(values: &[(Epoch, Value)], cap: usize) -> SlidingWindow {
        let mut w = SlidingWindow::new(cap);
        for &(e, v) in values {
            w.push(e, v);
        }
        w
    }

    #[test]
    fn push_and_get_round_trip() {
        let w = window_with(&[(0, 10.0), (1, 20.0), (2, 15.0)], 8);
        assert_eq!(w.len(), 3);
        assert_eq!(w.get(1), Some(20.0));
        assert_eq!(w.get(5), None);
    }

    #[test]
    fn eviction_keeps_the_most_recent_samples() {
        let mut w = SlidingWindow::new(3);
        for e in 0..10u64 {
            w.push(e, e as f64);
        }
        assert_eq!(Vec::from_iter(w.iter()), [(7, 7.0), (8, 8.0), (9, 9.0)]);
        assert_eq!(w.get(6), None, "evicted epochs are gone");
        assert_eq!(w.get(9), Some(9.0));
    }

    #[test]
    fn local_top_k_returns_best_values_with_deterministic_ties() {
        let mut w = window_with(&[(0, 5.0), (1, 9.0), (2, 9.0), (3, 1.0), (4, 7.0)], 16);
        let mut top = Vec::new();
        top_k_into(w.as_slice(), 3, &mut top);
        assert_eq!(top, vec![(1, 9.0), (2, 9.0), (4, 7.0)]);
        // Asking for more than we have returns everything, sorted.
        top_k_into(w.as_slice(), 10, &mut top);
        assert_eq!(top.len(), 5);
        assert_eq!(top[0], (1, 9.0));
        assert_eq!(top[4], (3, 1.0));
    }

    #[test]
    #[should_panic(expected = "epoch order")]
    fn out_of_order_pushes_are_rejected() {
        let mut w = SlidingWindow::new(4);
        w.push(5, 1.0);
        w.push(4, 1.0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_is_rejected() {
        let _ = SlidingWindow::new(0);
    }

    #[test]
    fn grow_capacity_keeps_samples_and_never_shrinks() {
        let mut w = SlidingWindow::new(2);
        w.push(0, 1.0);
        w.push(1, 2.0);
        w.push(2, 3.0); // evicts epoch 0
        assert_eq!(Vec::from_iter(w.iter()), [(1, 2.0), (2, 3.0)]);
        w.grow_capacity(4);
        assert_eq!(w.capacity(), 4);
        assert_eq!(w.len(), 2, "growth keeps the buffered samples");
        w.push(3, 4.0);
        w.push(4, 5.0);
        assert_eq!(
            Vec::from_iter(w.iter()),
            [(1, 2.0), (2, 3.0), (3, 4.0), (4, 5.0)],
            "no eviction until the new capacity fills"
        );
        w.grow_capacity(1);
        assert_eq!(w.capacity(), 4, "shrinking is ignored");
    }

    fn reading(node: NodeId, epoch: Epoch, value: Value) -> Reading {
        Reading::new(node, 0, epoch, value)
    }

    #[test]
    fn window_bank_feeds_one_window_per_node_and_tracks_the_covered_span() {
        let mut bank = WindowBank::new(3);
        for e in 0..5u64 {
            bank.feed(&[reading(1, e, e as f64), reading(2, e, 10.0 + e as f64)]);
        }
        assert_eq!(bank.epochs_fed(), 5);
        assert_eq!(Vec::from_iter(bank.epochs()), [2, 3, 4], "the span is the last `capacity` epochs");
        assert_eq!(bank.node_ids(), vec![1, 2]);
        let w1 = bank.window_mut(1).expect("node 1 reported");
        assert_eq!(w1.len(), 3);
        assert_eq!(w1.get(4), Some(4.0));
        assert_eq!(w1.get(1), None, "evicted with the span");
        assert!(bank.window_mut(9).is_none());
        bank.feed(&[]);
        assert_eq!(bank.epochs_fed(), 5, "an empty epoch feeds nothing");
    }

    #[test]
    fn window_bank_grows_with_the_largest_registered_span() {
        let mut bank = WindowBank::new(2);
        bank.feed(&[reading(1, 0, 1.0)]);
        bank.feed(&[reading(1, 1, 2.0)]);
        bank.grow_capacity(4);
        assert_eq!(bank.capacity(), 4);
        bank.feed(&[reading(1, 2, 3.0)]);
        bank.feed(&[reading(1, 3, 4.0)]);
        assert_eq!(Vec::from_iter(bank.epochs()), [0, 1, 2, 3], "growth keeps pre-growth history");
        assert_eq!(bank.window_mut(1).unwrap().len(), 4);
        bank.grow_capacity(1);
        assert_eq!(bank.capacity(), 4, "shrinking is ignored");
    }

    #[test]
    fn adopted_windows_are_the_fed_bank_and_reserve_what_they_hold() {
        let mut fed = WindowBank::new(1 << 20);
        fed.feed(&[reading(2, 7, 1.0)]);
        fed.feed(&[reading(2, 8, 2.0), reading(5, 8, 3.0)]);
        let adopted =
            WindowBank::from_windows(1 << 20, vec![(2, vec![(7, 1.0), (8, 2.0)]), (5, vec![(8, 3.0)])], vec![7, 8], 2);
        assert_eq!(format!("{adopted:?}"), format!("{fed:?}"));
        let reserved: Vec<usize> = adopted.windows.iter().map(|w| w.samples.capacity()).collect();
        assert_eq!(reserved, [2, 1], "not the logical capacity");
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn window_bank_rejects_zero_capacity() {
        let _ = WindowBank::new(0);
    }
}
