//! Per-node sliding-window storage for historic queries.
//!
//! Historic Top-K queries ("the K time instances with the highest average temperature
//! during the last 3 months") require every node to buffer its past readings locally, in
//! a sliding window, either in SRAM or on flash — the paper cites MicroHash as the flash
//! index that plays this role on real motes.  [`SlidingWindow`] reproduces the two access
//! paths the algorithms need:
//!
//! * a *local top-k scan* (TJA's Lower-Bound phase asks each node for its k best epochs:
//!   [`SlidingWindow::top_k_since`] on the engine's live windows, [`top_k_into`] over
//!   [`SlidingWindow::as_slice`] on a bank read once);
//! * *point lookups by epoch* (TJA's Hierarchical-Join and Clean-Up phases ask for the
//!   node's value at specific candidate epochs).
//!
//! A live window is asked for its best samples every query while it moves by one sample
//! an epoch, so once asked it *keeps* its best `max(KEPT_AT_LEAST, largest k asked)`
//! samples, best first, and the best-ranked sample it left out.  The list catches up
//! with the window when it is next read, not at every [`SlidingWindow::push`] (a feed
//! does not touch it): the samples evicted since are taken off it, each arrival that
//! beats the left-out sample is inserted.  Which samples were evicted is decided by
//! identity — which push brought a sample in — never by epoch or rank: two samples may
//! share both.  A query reads the list's samples of its span; only when fewer than k
//! of them are listed does it select over the window again, rebuilding the list (ADR-005
//! "Historic kernel v4") — unless the list is full and knows its left-out sample, when
//! the rebuild would list the same samples and the span is selected from instead.  A bank
//! read once — restored or collected for one query — selects instead: [`top_k_into`],
//! one pass over the span for a head as short as a query's K (ADR-005 "Historic kernel
//! v5").
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
use std::cmp::Reverse;
use std::collections::VecDeque;
use std::fmt;

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

/// The shortest list a window keeps once asked for its best samples: a list a little
/// longer than the k a query asks for survives the evictions of several epochs before a
/// query finds it short.
const KEPT_AT_LEAST: usize = 16;

/// A sample on (or just off) a window's kept list.
#[derive(Clone, Copy)]
struct Listed {
    epoch: Epoch,
    value: Value,
    /// Which push brought the sample in: its identity, since two samples may share
    /// epoch and value.
    seq: u64,
}

impl Listed {
    /// Whether `self` ranks strictly ahead of `other` under [`cmp_best_first`].
    fn ahead_of(&self, other: &Listed) -> bool {
        cmp_best_first((self.value, self.epoch), (other.value, other.epoch)).is_lt()
    }
}

/// What a window knows of the best-ranked sample its kept list leaves out.
#[derive(Clone, Copy)]
enum LeftOut {
    /// None is left out: the list holds every sample.
    Nothing,
    /// This one.
    Known(Listed),
    /// It was evicted; the next one is known again once an arrival pushes a sample off
    /// the list.
    Unknown,
}

/// A window's kept list: its best samples, best first, and what it knows of the best
/// one it leaves out.
#[derive(Clone)]
struct Kept {
    /// The pushes the list has caught up with, counted as `SlidingWindow::pushed` is.
    seen: u64,
    /// How long the list may grow, `max(KEPT_AT_LEAST, largest k asked)` but no longer
    /// than the window.
    room: usize,
    /// The window's best `list.len() ≤ room` samples, best first: every sample off the
    /// list ranks behind every sample on it.
    list: Vec<Listed>,
    /// The best-ranked sample off the list.
    left_out: LeftOut,
    /// How often the list was built afresh.
    #[cfg(test)]
    rebuilds: usize,
}

impl Kept {
    /// A list no query asked for yet, in `list`'s buffer.
    fn unasked(list: Vec<Listed>) -> Box<Self> {
        Box::new(Self {
            seen: 0,
            room: 0,
            list,
            left_out: LeftOut::Nothing,
            #[cfg(test)]
            rebuilds: 0,
        })
    }

    /// Brings the list up to date with `samples`, the window's, whose first came in
    /// with push `oldest` and whose last with push `pushed - 1`: what left the window
    /// since the list was last read is taken off it, what was pushed is admitted.
    fn catch_up(&mut self, samples: &[(Epoch, Value)], oldest: u64, pushed: u64) {
        self.list.retain(|s| s.seq >= oldest);
        if matches!(self.left_out, LeftOut::Known(s) if s.seq < oldest) {
            self.left_out = LeftOut::Unknown;
        }
        for seq in self.seen.max(oldest)..pushed {
            let (epoch, value) = samples[(seq - oldest) as usize];
            self.admit(Listed { epoch, value, seq });
        }
        self.seen = pushed;
    }

    /// Lists the best `room` of `samples`, the window's, afresh: [`top_k_into`] selects
    /// the best `room + 1` into `scratch` — the list and the best left out — and each is
    /// found in the window again for its push number, an identical sample already
    /// listed passed over.
    fn rebuild(&mut self, samples: &[(Epoch, Value)], oldest: u64, pushed: u64, scratch: &mut Vec<(Epoch, Value)>) {
        #[cfg(test)]
        {
            self.rebuilds += 1;
        }
        top_k_into(samples, self.room + 1, scratch);
        self.list.clear();
        for &(epoch, value) in scratch.iter() {
            let from = samples.partition_point(|&(e, _)| e < epoch);
            let seq = (from..)
                .zip(&samples[from..])
                .map(|(at, &sample)| (oldest + at as u64, sample))
                .find(|&(seq, (e, v))| {
                    (e, v.to_bits()) == (epoch, value.to_bits()) && !self.list.iter().any(|s| s.seq == seq)
                })
                .expect("a selected sample is in the window")
                .0;
            self.list.push(Listed { epoch, value, seq });
        }
        self.left_out = if self.list.len() > self.room {
            LeftOut::Known(self.list.pop().expect("a sample past the room"))
        } else {
            LeftOut::Nothing
        };
        self.seen = pushed;
    }

    /// Lists a new sample if it ranks ahead of every sample off the list, pushing the
    /// last one off when the list is over its room.
    fn admit(&mut self, sample: Listed) {
        let listed = match self.left_out {
            LeftOut::Nothing => true,
            LeftOut::Known(best_off) => sample.ahead_of(&best_off),
            // Only a sample ahead of the list's last is known to beat every one off it.
            LeftOut::Unknown => self.list.last().is_some_and(|last| sample.ahead_of(last)),
        };
        if listed {
            let at = self.list.partition_point(|s| !sample.ahead_of(s));
            self.list.insert(at, sample);
            if self.list.len() > self.room {
                self.left_out = LeftOut::Known(self.list.pop().expect("a list over its room"));
            }
        }
    }

    /// Fills `best` with the list's first `k` samples of epoch `first` or later; true
    /// when that is the answer — `k` of them, or every sample of the span.
    fn answer(&self, first: Epoch, k: usize, best: &mut Vec<(Epoch, Value)>) -> bool {
        best.clear();
        best.extend(self.list.iter().filter(|s| s.epoch >= first).take(k).map(|s| (s.epoch, s.value)));
        best.len() == k || matches!(self.left_out, LeftOut::Nothing)
    }
}

/// A bounded, epoch-ordered buffer of `(epoch, value)` samples.
///
/// The samples are always one slice, `buf[start..]`: an eviction moves `start` on, and
/// when a push finds the buffer full the samples move back to its front in one copy.
/// The buffer keeps slots past the window's samples (`slack`), so that copy is paid once
/// per so many pushes — a few samples moved per push — and a read never rotates.
#[derive(Clone, Serialize, Deserialize)]
pub struct SlidingWindow {
    capacity: usize,
    /// The samples from `start` on, oldest first; what lies before was evicted.
    buf: Vec<(Epoch, Value)>,
    start: usize,
    /// Samples pushed, plus those the window was built with: `as_slice()[i]` came in with
    /// push `pushed - len + i`.
    pushed: u64,
    /// The kept list, asked for from the first [`Self::top_k_since`] on (`room` 0
    /// before).  A window fed sample by sample makes room for it as it is created, next
    /// to its samples; an adopted one, which is usually read once, only when asked.
    kept: Option<Box<Kept>>,
}

/// A window is its capacity and its samples: the push count and the kept list are
/// bookkeeping, so an adopted window reads as the fed one it copies.
impl fmt::Debug for SlidingWindow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SlidingWindow").field("capacity", &self.capacity).field("samples", &self.as_slice()).finish()
    }
}

impl SlidingWindow {
    /// Creates a window holding at most `capacity` samples.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "sliding window capacity must be positive");
        let kept = Kept::unasked(Vec::with_capacity(KEPT_AT_LEAST + 1));
        Self { kept: Some(kept), ..Self::adopt(capacity, Vec::with_capacity(capacity + slack(capacity))) }
    }

    /// A window of `samples`, oldest first, at most `capacity` of them, in their buffer
    /// as it is: an adopted window, usually read once, makes room to be fed only when it
    /// is.
    fn adopt(capacity: usize, samples: Vec<(Epoch, Value)>) -> Self {
        Self { capacity, pushed: samples.len() as u64, buf: samples, start: 0, kept: None }
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
            self.compact();
            self.buf.reserve_exact(capacity + slack(capacity) - self.buf.len());
        }
    }

    /// Number of samples currently buffered.
    pub fn len(&self) -> usize {
        self.buf.len() - self.start
    }

    /// True when no samples are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Samples pushed, plus those the window was built with: the newest sample came in
    /// with push `pushed() - 1`, so two reads of one window tell how many samples it
    /// took in between.
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Appends a sample for `epoch`.  Epochs must be appended in non-decreasing order —
    /// sensors sample time monotonically.
    pub fn push(&mut self, epoch: Epoch, value: Value) {
        if let Some(&(last, _)) = self.buf.last() {
            assert!(epoch >= last, "samples must be appended in epoch order");
        }
        if self.len() == self.capacity {
            self.start += 1;
        }
        if self.buf.len() == self.buf.capacity() {
            self.compact();
            // An adopted buffer has no slots past its samples: it gets them once.
            self.buf.reserve_exact(slack(self.len()));
        }
        self.buf.push((epoch, value));
        self.pushed += 1;
    }

    /// Moves the samples to the front of the buffer.
    fn compact(&mut self) {
        self.buf.drain(..self.start);
        self.start = 0;
    }

    /// Replaces `best` with the `k` highest-valued samples of epoch `first` or later,
    /// best first — what [`top_k_into`] over them gives — read off the kept list (see the
    /// module docs).  The first call starts the list and a `k` longer than the list may
    /// grow lengthens it; a list holding fewer than `k` samples of the span is built
    /// again by selection, and a span the rebuilt list still cannot answer for (one
    /// that starts late in the window) is selected from.  A full list that knows the
    /// best sample it leaves out is not rebuilt — it would list the same samples — so
    /// such a span is selected from straight away.
    pub fn top_k_since(&mut self, first: Epoch, k: usize, best: &mut Vec<(Epoch, Value)>) {
        let Self { capacity, buf, start, pushed, kept } = self;
        let all = &buf[*start..];
        let oldest = *pushed - all.len() as u64;
        let kept = kept.get_or_insert_with(|| Kept::unasked(Vec::new()));
        let started = kept.room > 0;
        // A list longer than the window can hold would never be full.
        kept.room = kept.room.max(k.max(KEPT_AT_LEAST).min(*capacity));
        // Room for one more, for the moment between an insert and the pop it calls for.
        kept.list.reserve(kept.room + 1 - kept.list.len());
        if started {
            kept.catch_up(all, oldest, *pushed);
            if kept.answer(first, k, best) {
                return;
            }
        }
        // A full list that knows the best sample it leaves out holds the window's best
        // `room`: rebuilt, it would list them again.
        let full = kept.list.len() == kept.room && matches!(kept.left_out, LeftOut::Known(_));
        if !full {
            kept.rebuild(all, oldest, *pushed, best);
            if kept.answer(first, k, best) {
                return;
            }
        }
        top_k_into(&all[all.partition_point(|&(e, _)| e < first)..], k, best);
    }

    /// The value recorded at `epoch`, if it is still inside the window.
    pub fn get(&self, epoch: Epoch) -> Option<Value> {
        // Binary search: the samples are epoch-ordered.
        let samples = self.as_slice();
        let at = samples.binary_search_by_key(&epoch, |&(e, _)| e).ok()?;
        Some(samples[at].1)
    }

    /// Iterates over the buffered `(epoch, value)` samples, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = (Epoch, Value)> + '_ {
        self.as_slice().iter().copied()
    }

    /// The buffered samples as one slice, oldest first — [`Self::iter`] for callers
    /// that want to borrow rather than copy.
    pub fn as_slice(&self) -> &[(Epoch, Value)] {
        &self.buf[self.start..]
    }
}

/// Slots a window's buffer keeps past `len` samples: one compaction moves `len`
/// samples and frees this many pushes, so a push moves about eight samples.  An eighth
/// more buffer per window (ADR-005 "Historic kernel v7").
fn slack(len: usize) -> usize {
    len / 8 + 1
}

/// The longest head [`top_k_into`] finds in one pass over the samples; a longer one is
/// selected.  One pass compares each sample with the head's last and moves the few that
/// beat it up through the head: over 100 sensor windows of 64 samples it beat the
/// selection 3.5× at K = 2 and 1.4× at K = 8, and from K = 10 on the two are level or the
/// selection leads.  A window whose values rise moves every sample through the whole
/// head, which at K = 8 costs up to 2.5× the selection (ADR-005, "Historic kernel v5").
const SCANNED_AT_MOST: usize = 8;

/// Replaces the contents of `best` with the `k` highest-valued of `samples`, best
/// first, ties towards the older epoch: what sorting all of them under that order and
/// keeping the head would give.  A head as short as a query's K usually is (at most
/// eight samples) is found in one pass, a longer one by selection, so that only the head
/// is sorted.
pub fn top_k_into(samples: &[(Epoch, Value)], k: usize, best: &mut Vec<(Epoch, Value)>) {
    if k <= SCANNED_AT_MOST {
        scan_top_k(samples, k, best);
    } else {
        select_top_k(samples, k, best);
    }
}

/// A sample's rank as a pair of integers that orders samples as [`cmp_best_first`] does,
/// reversed — the larger pair ranks ahead: the value's bits as `f64::total_cmp` reads
/// them, every NaN first made the one NaN [`crate::types::cmp_value`] ranks last, then
/// the older epoch.
fn rank(&(epoch, value): &(Epoch, Value)) -> (i64, Reverse<Epoch>) {
    let bits = if value.is_nan() { -Value::NAN } else { value }.to_bits() as i64;
    (bits ^ (((bits >> 63) as u64) >> 1) as i64, Reverse(epoch))
}

/// [`top_k_into`] in one pass, for `k` up to [`SCANNED_AT_MOST`]: `best` holds the best
/// of the samples seen so far, best first, and their ranks are kept beside it; a sample
/// joins it behind every sample it does not beat, and once `best` is `k` long only a
/// sample ahead of its last gets in, pushing the last out.  Samples that rank equal are
/// identical (or NaNs of one epoch), so which of them is kept is not visible.
fn scan_top_k(samples: &[(Epoch, Value)], k: usize, best: &mut Vec<(Epoch, Value)>) {
    best.clear();
    if k == 0 {
        return;
    }
    let mut ranks = [(0, Reverse(0)); SCANNED_AT_MOST];
    // The value of a full head's last sample: a value below it ranks behind it.  NaN
    // is below nothing and -0.0 not below +0.0, so those are ranked.
    let mut floor = Value::NEG_INFINITY;
    for sample in samples {
        if sample.1 < floor {
            continue;
        }
        let ranked = rank(sample);
        // The slot the sample moves up from: past the end, or the full head's last,
        // which it pushes out.
        let mut at = best.len();
        if at == k {
            if ranked <= ranks[k - 1] {
                continue;
            }
            at -= 1;
        } else {
            best.push(*sample);
        }
        while at > 0 && ranks[at - 1] < ranked {
            ranks[at] = ranks[at - 1];
            best[at] = best[at - 1];
            at -= 1;
        }
        ranks[at] = ranked;
        best[at] = *sample;
        if best.len() == k {
            floor = best[k - 1].1;
        }
    }
}

/// [`top_k_into`] by selection: every sample copied, the `k`-th selected, the head sorted.
fn select_top_k(samples: &[(Epoch, Value)], k: usize, best: &mut Vec<(Epoch, Value)>) {
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
                (node, SlidingWindow::adopt(capacity, samples))
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

    /// One node's shared window, if the node ever reported.
    pub fn window(&self, node: NodeId) -> Option<&SlidingWindow> {
        Some(&self.windows[self.slot_of(node)?])
    }

    /// Mutable access to one node's shared window, if the node ever reported.
    pub fn window_mut(&mut self, node: NodeId) -> Option<&mut SlidingWindow> {
        let at = self.slot_of(node)?;
        Some(&mut self.windows[at])
    }

    /// Where `node`'s window sits in `windows`.
    fn slot_of(&self, node: NodeId) -> Option<usize> {
        // Deployments number their nodes 1..=n, so a window usually sits at `node - 1`.
        let guess = (node as usize).wrapping_sub(1);
        if self.nodes.get(guess) == Some(&node) {
            Some(guess)
        } else {
            self.nodes.binary_search(&node).ok()
        }
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
    use proptest::prelude::*;

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
        let w = window_with(&[(0, 5.0), (1, 9.0), (2, 9.0), (3, 1.0), (4, 7.0)], 16);
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

    /// One step of a window's life in the kept-list tests.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        Push(Epoch, Value),
        Grow(usize),
        /// `top_k_since(first, k)`.
        Ask(Epoch, usize),
    }

    /// Drives a window of `capacity` through `steps` and demands every answer be
    /// [`top_k_into`] over the span, bit for bit.
    fn assert_kept_answers(capacity: usize, steps: &[Step]) {
        let mut w = SlidingWindow::new(capacity);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let bits = |list: &[(Epoch, Value)]| Vec::from_iter(list.iter().map(|&(e, v)| (e, v.to_bits())));
        for (at, &step) in steps.iter().enumerate() {
            match step {
                Step::Push(epoch, value) => w.push(epoch, value),
                Step::Grow(capacity) => w.grow_capacity(capacity),
                Step::Ask(first, k) => {
                    w.top_k_since(first, k, &mut got);
                    let all = w.as_slice();
                    top_k_into(&all[all.partition_point(|&(e, _)| e < first)..], k, &mut want);
                    assert_eq!(bits(&got), bits(&want), "step {at}, top {k} since {first} of {all:?}: {got:?}");
                }
            }
        }
    }

    /// `pushes`, each followed by an ask for every `k` of `ks` over the whole window and
    /// over its last four epochs.
    fn pushed_and_asked(pushes: impl IntoIterator<Item = (Epoch, Value)>, ks: &[usize]) -> Vec<Step> {
        let mut steps = Vec::new();
        for (epoch, value) in pushes {
            steps.push(Step::Push(epoch, value));
            for &k in ks {
                steps.extend([Step::Ask(0, k), Step::Ask(epoch.saturating_sub(3), k)]);
            }
        }
        steps
    }

    #[test]
    fn a_kept_list_tells_two_identical_samples_at_its_end_apart() {
        // Fifteen high samples, then epoch 15 three times: (15, 50.0) twice and
        // (15, 1.0).  Asked for k = 1 the list holds one of the identical pair as its
        // last and leaves the other out; asked for k = 17 it holds both.  Both leave the
        // window, first the older; what follows ranks lower.  A list that tells what was
        // evicted by epoch, or by a sample of the same rank still in the window, keeps one
        // (15, 50.0) too many: it answers (15, 50.0) once (15, 1.0) is all that is left
        // of epoch 15, or (15, 50.0) twice.
        let mut pushes: Vec<(Epoch, Value)> = (0..15).map(|e| (e, 60.0 + e as f64)).collect();
        pushes.extend([(15, 50.0), (15, 50.0), (15, 1.0)]);
        pushes.extend((16..40).map(|e| (e, 1.0)));
        pushes.extend((40..44).map(|e| (e, 10.0)));
        for (opening, k) in [(1, 1), (17, 2)] {
            let mut steps = vec![Step::Ask(0, opening)];
            for &(epoch, value) in &pushes {
                steps.extend([Step::Push(epoch, value), Step::Ask(0, k)]);
            }
            assert_kept_answers(20, &steps);
        }
    }

    #[test]
    fn a_rebuilt_list_finds_identical_samples_at_two_places() {
        // Two identical (0, 50.0) open the window and a falling run follows; a list
        // rebuilt over them holds both.  When the older leaves the window the younger
        // must stay listed: a rebuild that gave both the older's push number would
        // answer (1, 39.0) first.
        let mut steps: Vec<Step> = [(0, 50.0), (0, 50.0)].map(|(e, v)| Step::Push(e, v)).into();
        steps.extend((1..18).map(|e| Step::Push(e, 40.0 - e as f64)));
        steps.push(Step::Ask(0, 17));
        for e in 18..24 {
            steps.extend([Step::Push(e, 0.0), Step::Ask(0, 2)]);
        }
        assert_kept_answers(20, &steps);
    }

    #[test]
    fn a_kept_list_ranks_nan_last() {
        // A falling trend with a NaN every fifth epoch: arrivals rank low, the list
        // empties by evictions, and NaN is listed only when the list holds everything.
        let pushes = (0..80u64).map(|e| (e, if e % 5 == 2 { Value::NAN } else { 100.0 - e as f64 }));
        assert_kept_answers(20, &pushed_and_asked(pushes, &[1, 3, 20]));
        assert_kept_answers(12, &pushed_and_asked((0..40u64).map(|e| (e / 2, Value::NAN)), &[2, 5]));
    }

    #[test]
    fn a_kept_list_ranks_positive_zero_ahead_of_negative_zero() {
        // Two readings an epoch, +0.0 and -0.0 in either order, among a few positives.
        let pushes = (0..60u64).flat_map(|i| {
            let zeros = if i % 3 == 0 { [-0.0, 0.0] } else { [0.0, -0.0] };
            let first = if i % 7 == 0 { 5.0 } else { zeros[0] };
            [(i, first), (i, zeros[1])]
        });
        assert_kept_answers(24, &pushed_and_asked(pushes, &[1, 2, 17]));
    }

    #[test]
    fn a_kept_list_follows_a_growing_window_and_a_growing_k() {
        let mut steps = pushed_and_asked((0..30u64).map(|e| (e, (e * 37 % 11) as f64)), &[2]);
        steps.push(Step::Grow(40));
        steps.extend(pushed_and_asked((30..90u64).map(|e| (e, (e * 37 % 11) as f64)), &[3, 25]));
        assert_kept_answers(20, &steps);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// A window driven through random pushes (values on a grid of fives, so that
        /// ranks tie, with repeated epochs, NaN and both zeros), capacity growth and asks
        /// of any k from 1 to one past its length and any span start answers as
        /// `top_k_into` over the span does.
        #[test]
        fn a_kept_list_answers_as_a_selection_over_the_span(
            capacity in 1usize..48,
            ops in prop::collection::vec((0u32..100, 0u64..3, 0u32..24, 0usize..1_000), 1..300),
        ) {
            let mut steps = Vec::new();
            let (mut epoch, mut len, mut cap) = (0, 0, capacity);
            for (kind, step, value, draw) in ops {
                if kind < 70 {
                    epoch += step;
                    let value = match value {
                        21 => Value::NAN,
                        22 => -0.0,
                        23 => 0.0,
                        v => f64::from(v) * 5.0,
                    };
                    steps.push(Step::Push(epoch, value));
                    len = cap.min(len + 1);
                } else if kind < 73 {
                    cap += draw % 16;
                    steps.push(Step::Grow(cap));
                } else {
                    // Mostly a small k, so that the list stays shorter than the window.
                    let k = 1 + if kind < 90 { draw % 4 } else { draw % (len + 1) };
                    let first = (epoch + 1).saturating_sub(draw as u64 % (len as u64 + 3));
                    steps.push(Step::Ask(first, k));
                }
            }
            assert_kept_answers(capacity, &steps);
        }
    }

    #[test]
    fn a_full_list_is_not_rebuilt_for_a_late_span_it_cannot_answer() {
        // Falling values: the list keeps the oldest sixteen samples and knows the
        // seventeenth, none of them in the span of the last 32 epochs.  The first ask
        // builds the list; rebuilt, it would list the same samples, so no later ask of
        // the unfed window rebuilds it — each selects from the span.
        let mut w = window_with(&Vec::from_iter((0..128u64).map(|e| (e, 1_000.0 - e as f64))), 128);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for _ in 0..5 {
            w.top_k_since(96, 3, &mut got);
            let all = w.as_slice();
            top_k_into(&all[96..], 3, &mut want);
            assert_eq!(got, want);
        }
        assert_eq!(got, [(96, 904.0), (97, 903.0), (98, 902.0)]);
        assert_eq!(w.kept.as_ref().map(|kept| kept.rebuilds), Some(1));
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// The one-pass head and the selection agree bit for bit, for every `k` the one
        /// pass is used for, over up to 200 samples: values on the grid of fives, so
        /// that ranks tie, with repeated epochs, NaN and both zeros.
        #[test]
        fn one_pass_finds_the_head_a_selection_finds(
            draws in prop::collection::vec((0u64..3, 0u32..24), 0..200),
        ) {
            let mut epoch = 0;
            let samples: Vec<(Epoch, Value)> = draws
                .into_iter()
                .map(|(step, value)| {
                    epoch += step;
                    let value = match value {
                        21 => Value::NAN,
                        22 => -0.0,
                        23 => 0.0,
                        v => f64::from(v) * 5.0,
                    };
                    (epoch, value)
                })
                .collect();
            let bits = |list: &[(Epoch, Value)]| Vec::from_iter(list.iter().map(|&(e, v)| (e, v.to_bits())));
            let (mut scanned, mut selected) = (Vec::new(), Vec::new());
            for k in 0..=SCANNED_AT_MOST {
                scan_top_k(&samples, k, &mut scanned);
                select_top_k(&samples, k, &mut selected);
                prop_assert_eq!(bits(&scanned), bits(&selected), "top {} of {:?}", k, samples);
            }
        }
    }

    /// One step of a window's life in the storage model tests.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Push(Epoch, Value),
        Grow(usize),
        /// The window is replaced by the one `WindowBank::from_windows` adopts of its
        /// samples, in a buffer exactly as long as they are.
        Adopt,
        Get(Epoch),
        /// `top_k_since(first, k)`.
        Ask(Epoch, usize),
    }

    /// Drives a window of `capacity` through `ops` against a `VecDeque` that keeps the
    /// newest `capacity` samples, and demands after every step that the window's slice,
    /// iterator, length and capacity are the deque's, bit for bit; that `get` finds a
    /// sample of the epoch exactly when the deque holds one; that `top_k_since` answers
    /// as `top_k_into` over the deque's span; and that a window never adopted never
    /// reallocates its buffer on a push.
    fn assert_window_matches_the_deque(capacity: usize, ops: &[Op]) {
        let mut w = SlidingWindow::new(capacity);
        let mut model: VecDeque<(Epoch, Value)> = VecDeque::new();
        let (mut cap, mut adopted) = (capacity, false);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let bits = |list: &mut dyn Iterator<Item = (Epoch, Value)>| Vec::from_iter(list.map(|(e, v)| (e, v.to_bits())));
        for (at, &op) in ops.iter().enumerate() {
            match op {
                Op::Push(epoch, value) => {
                    let reserved = w.buf.capacity();
                    w.push(epoch, value);
                    if model.len() == cap {
                        model.pop_front();
                    }
                    model.push_back((epoch, value));
                    assert!(adopted || w.buf.capacity() == reserved, "step {at}: a fed window's push reallocated");
                }
                Op::Grow(more) => {
                    w.grow_capacity(more);
                    cap = cap.max(more);
                }
                Op::Adopt => {
                    let samples = Vec::from_iter(model.iter().copied());
                    let mut covered = Vec::from_iter(model.iter().map(|&(e, _)| e));
                    covered.dedup();
                    let fed = covered.len() as u64;
                    w = WindowBank::from_windows(cap, vec![(1, samples)], covered, fed).windows.remove(0);
                    adopted = true;
                }
                Op::Get(epoch) => {
                    // Epochs repeat, so `get` may find any sample of the epoch.
                    let found = w.get(epoch).map(f64::to_bits);
                    let mut held = model.iter().filter(|s| s.0 == epoch).map(|s| s.1.to_bits());
                    match found {
                        Some(v) => assert!(held.any(|h| h == v), "step {at}: get({epoch}) gave a value it does not hold"),
                        None => assert!(held.next().is_none(), "step {at}: get({epoch}) missed a sample"),
                    }
                }
                Op::Ask(first, k) => {
                    w.top_k_since(first, k, &mut got);
                    let span = Vec::from_iter(model.iter().copied().filter(|&(e, _)| e >= first));
                    top_k_into(&span, k, &mut want);
                    assert_eq!(bits(&mut got.iter().copied()), bits(&mut want.iter().copied()), "step {at}: top {k} since {first}");
                }
            }
            let held = bits(&mut model.iter().copied());
            assert_eq!(bits(&mut w.as_slice().iter().copied()), held, "step {at}: {op:?}");
            assert_eq!(bits(&mut w.iter()), held, "step {at}: {op:?}");
            assert_eq!((w.len(), w.is_empty(), w.capacity()), (model.len(), model.is_empty(), cap), "step {at}");
        }
    }

    /// The capacities the model tests drive: the smallest, and either side of the
    /// benchmark's 64 and 128.
    const MODEL_CAPACITIES: [usize; 7] = [1, 2, 3, 64, 127, 128, 129];

    #[test]
    fn a_window_reads_as_a_deque_across_compactions() {
        // Each window filled, then fed four times round with a read after every push: a
        // compaction falls every few pushes, at every offset of the buffer.
        for capacity in MODEL_CAPACITIES {
            let mut ops = Vec::new();
            for epoch in 0..5 * capacity as Epoch + 40 {
                ops.extend([Op::Push(epoch, (epoch * 37 % 11) as f64), Op::Get(epoch.saturating_sub(capacity as Epoch))]);
                if epoch % 7 == 0 {
                    ops.push(Op::Ask(epoch.saturating_sub(capacity as Epoch / 2), 3));
                }
            }
            assert_window_matches_the_deque(capacity, &ops);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

        /// Random pushes (values on a grid of fives, so that ranks tie, with repeated
        /// epochs, NaN and both zeros), capacity growth, adoption by a bank and reads of
        /// every kind, long enough to pass several compactions at every capacity.
        #[test]
        fn a_window_reads_as_a_deque_under_random_steps(
            capacity in prop_oneof![
                Just(MODEL_CAPACITIES[0]), Just(MODEL_CAPACITIES[1]), Just(MODEL_CAPACITIES[2]),
                Just(MODEL_CAPACITIES[3]), Just(MODEL_CAPACITIES[4]), Just(MODEL_CAPACITIES[5]),
                Just(MODEL_CAPACITIES[6])
            ],
            draws in prop::collection::vec((0u32..100, 0u64..3, 0u32..24, 0usize..1_000), 1..700),
        ) {
            let mut ops = Vec::new();
            let mut epoch = 0;
            for (kind, step, value, draw) in draws {
                ops.push(if kind < 75 {
                    epoch += step;
                    let value = match value {
                        21 => Value::NAN,
                        22 => -0.0,
                        23 => 0.0,
                        v => f64::from(v) * 5.0,
                    };
                    Op::Push(epoch, value)
                } else if kind < 77 {
                    Op::Grow(capacity + draw % 40)
                } else if kind < 80 {
                    Op::Adopt
                } else if kind < 90 {
                    Op::Get(epoch.saturating_sub(draw as Epoch % 140))
                } else {
                    Op::Ask(epoch.saturating_sub(draw as Epoch % 140), 1 + draw % 9)
                });
            }
            assert_window_matches_the_deque(capacity, &ops);
        }
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
        let reserved: Vec<usize> = adopted.windows.iter().map(|w| w.buf.capacity()).collect();
        assert_eq!(reserved, [2, 1], "not the logical capacity");
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn window_bank_rejects_zero_capacity() {
        let _ = WindowBank::new(0);
    }
}
