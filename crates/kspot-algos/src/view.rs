//! Per-node group views — the `V_i` of the MINT description.
//!
//! During an epoch's convergecast every node maintains a view mapping each group (room)
//! present in its subtree to a partial aggregate state.  TAG ships the full view to the
//! parent, the naive strategy truncates it to the local top-k, and MINT prunes it with
//! the upper-bound framework.
//!
//! Inside a sweep the views are the rows of one dense `GroupTable`: a group's *slot*
//! is its index in the deployment's sorted group list (`Deployment::groups`), a row is a
//! presence mask of ⌈slots / 64⌉ words plus one state per slot, its length and a
//! conservative summary of its γ bounds.  A group that only a reading names — one the
//! deployment lacks — gets a slot after the deployment's, so group ids may be sparse and
//! are never used as an index.
//!
//! Views are built bottom-up, as the paper's ancestors hold a superset view of their
//! descendants.  The lay-out pass writes no row: it records each node's own reading.
//! Rows are reached through an index, and a row is born at the first of two events: the
//! first delivery into it, which adopts the sender's row by swapping their indices and
//! folds the own reading into it, or its node's turn, which starts it as the own
//! reading alone.  Most rows are born by adoption, so a report moves up the tree without
//! its states being copied; a later delivery merges the sender's set bits in.  The
//! table is laid out afresh every sweep in memory it keeps, which is what lets the
//! convergecast kernel ([`crate::tag`]) run without allocating.
//!
//! The sink's row leaves the sweep as a [`GroupView`]: the `(group, state)` pairs it
//! holds, sorted by group, which is what MINT and TAG rank.

use crate::agg::AggState;
use kspot_net::{GroupId, NodeId, Reading, Value};
use kspot_query::AggFunc;
use serde::{Deserialize, Serialize};

/// A partial aggregate per group, as one node holds it for its subtree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupView {
    func: AggFunc,
    /// Sorted by group, one entry per group.
    entries: Vec<(GroupId, AggState)>,
}

impl GroupView {
    /// An empty view for the given aggregate function.
    pub fn new(func: AggFunc) -> Self {
        Self { func, entries: Vec::new() }
    }

    /// The aggregate function the view is built for.
    pub fn func(&self) -> AggFunc {
        self.func
    }

    /// Number of groups (tuples) in the view — the number of data tuples a node would
    /// transmit if it shipped the view verbatim.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the view holds no groups.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn position(&self, group: GroupId) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&group, |(g, _)| *g)
    }

    /// The partial state for a group, if present.
    pub fn get(&self, group: GroupId) -> Option<&AggState> {
        self.position(group).ok().map(|at| &self.entries[at].1)
    }

    /// Iterates over `(group, partial state)` pairs in ascending group order.
    pub fn iter(&self) -> impl Iterator<Item = (GroupId, &AggState)> {
        self.entries.iter().map(|(g, s)| (*g, s))
    }
}

/// Bits per mask word.
const WORD: usize = 64;

/// A conservative summary of the γ bounds of the states one row holds, which MINT's
/// prune reads before it looks at a single state: never above the smallest upper bound
/// of any state the row holds, never below the largest lower bound that is not NaN, and
/// `nan` set when any upper bound folded in was NaN.  A row born at its node's turn has
/// its exact summary; a delivery joins the sender's (an adopting row joins it to its own
/// reading's) and folds in each state it merges in place, so it may only get looser,
/// never wrong; MINT's prune makes it exact again whenever it has to look at the states
/// ([`Row::set_summary`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Summary {
    pub(crate) min_ub: f64,
    pub(crate) max_lb: f64,
    pub(crate) nan: bool,
}

impl Summary {
    /// The summary of no state at all.
    pub(crate) const EMPTY: Summary = Summary { min_ub: f64::INFINITY, max_lb: f64::NEG_INFINITY, nan: false };

    /// Folds in one state's `(upper, lower)` bounds.  A NaN lower bound carries no
    /// evidence: `f64::max` passes over it.
    #[inline]
    pub(crate) fn fold(&mut self, (ub, lb): (f64, f64)) {
        self.min_ub = self.min_ub.min(ub);
        self.nan |= ub.is_nan();
        self.max_lb = self.max_lb.max(lb);
    }

    /// Folds in every state another summary covers.
    #[inline]
    fn join(&mut self, other: &Summary) {
        self.min_ub = self.min_ub.min(other.min_ub);
        self.nan |= other.nan;
        self.max_lb = self.max_lb.max(other.max_lb);
    }
}

/// The bounds a sweep's rows summarise.  The kernel is monomorphised on it: a sweep
/// whose bounds are not [`Self::KEPT`] ([`Unbounded`]) writes no summary and asks no
/// bound.
pub(crate) trait Bounds {
    /// Whether the rows keep a [`Summary`] of these bounds.
    const KEPT: bool;

    /// The upper and the lower bound of `state`, the state of the group in `slot`.
    fn of(&self, slot: usize, state: &AggState) -> (f64, f64);
}

/// The bounds of a sweep that keeps no summary: TAG's, the naive strategy's, MINT's
/// Creation phase's and the local-aggregate historic sweep's.
pub(crate) struct Unbounded;

impl Bounds for Unbounded {
    const KEPT: bool = false;

    fn of(&self, _: usize, _: &AggState) -> (f64, f64) {
        (f64::INFINITY, f64::NEG_INFINITY)
    }
}

/// What a row's entry in [`GroupTable::own_slots`] says once the row is born: its
/// node's own reading, if it had one, is folded in.
const BORN: u32 = u32::MAX;

/// What an unborn row's entry says when its node has no reading this sweep.
const NO_READING: u32 = u32::MAX - 1;

/// The views of one convergecast, one row per node (row `id` is node `id`'s, row 0 the
/// sink's).  A row is held in the storage position `index[row]`: a presence mask, one
/// [`AggState`] per slot, valid where the slot's bit is set, the row's length — the
/// popcount of its mask — and its [`Summary`], written only by a sweep whose bounds are
/// kept.  Beside each row the table keeps its node's own reading: its slot and its
/// value.  So a sweep over `rows` rows and `slots` groups holds `rows · (8⌈slots / 64⌉
/// + 24 · slots + 44)` bytes, grown and never shrunk.
///
/// A row is *born* at the first of two events, and holds nothing before: the first
/// delivery into it, which adopts the sender's row by swapping the two rows' storage
/// and folds the node's own reading in, or its node's turn ([`Self::start`]), which
/// starts it as the own reading alone.  Either way a group's state sees the own
/// reading first, then the children's rows in the order they arrive.
///
/// Slots `0..known` are the deployment's groups, which the table does not copy: a
/// caller that needs a slot's group id hands them in again.
#[derive(Debug, Default)]
pub(crate) struct GroupTable {
    /// The groups only readings name, in the order they were first read: slot
    /// `known + at` is `read[at]`.
    read: Vec<GroupId>,
    /// How many slots are the deployment's groups.
    known: usize,
    /// Mask words per row.
    words: usize,
    /// Row `row` is held in storage position `index[row]`; a permutation of the rows.
    index: Vec<u32>,
    /// Per row: [`BORN`], or while it is unborn its node's own reading's slot or
    /// [`NO_READING`].
    own_slots: Vec<u32>,
    /// Per row: its node's own reading's value, meaningful while the row is unborn
    /// and has one.
    own_values: Vec<Value>,
    /// By storage position, the rows' masks, states, lengths and summaries.
    masks: Vec<u64>,
    states: Vec<AggState>,
    lens: Vec<u32>,
    summaries: Vec<Summary>,
}

impl GroupTable {
    /// Lays the table out for one sweep: a slot per group of `groups` (a deployment's,
    /// ascending), then one per group only `readings` name; `rows` unborn rows; and each
    /// reading recorded as its node's own — of several readings for one node the last
    /// wins.  No row is written.  `group_slots[id]` is the slot of node `id`'s configured
    /// group (`Deployment::group_slots`), so a reading of that group needs no search.
    /// Every reading's node must be below `rows` and `group_slots.len()`.
    pub(crate) fn lay_out<'r>(
        &mut self,
        groups: &[(GroupId, Vec<NodeId>)],
        group_slots: &[u32],
        rows: usize,
        readings: impl Iterator<Item = &'r Reading>,
    ) {
        self.known = groups.len();
        self.read.clear();
        self.own_slots.clear();
        self.own_slots.resize(rows, NO_READING);
        grow(&mut self.own_values, rows, 0.0);
        for r in readings {
            let slot = slot_of(groups, group_slots, &self.read, r).unwrap_or_else(|| {
                self.read.push(r.group);
                self.slots() - 1
            });
            self.own_slots[r.node as usize] = slot as u32;
            self.own_values[r.node as usize] = r.value;
        }
        let slots = self.slots();
        assert!(slots < NO_READING as usize, "{slots} slots leave no room for the row marks");
        self.words = slots.div_ceil(WORD);
        if self.index.len() != rows {
            self.index.clear();
            self.index.extend(0..u32::try_from(rows).expect("node ids are u32s"));
        }
        grow(&mut self.masks, rows * self.words, 0);
        // Any state fills: a slot's state is written before its bit is set.
        grow(&mut self.states, rows * slots, AggState::Count { count: 0 });
        grow(&mut self.lens, rows, 0);
        grow(&mut self.summaries, rows, Summary::EMPTY);
    }

    /// Slots laid out this sweep: the deployment's groups, then the groups only
    /// readings name.
    fn slots(&self) -> usize {
        self.known + self.read.len()
    }

    /// Number of groups in row `row`, which is born.
    pub(crate) fn len(&self, row: usize) -> usize {
        self.lens[self.index[row] as usize] as usize
    }

    /// Row `row`, which is born, to read or shrink; `groups` are the deployment's the
    /// table was laid out with.
    pub(crate) fn row<'t>(&'t mut self, row: usize, groups: &'t [(GroupId, Vec<NodeId>)]) -> Row<'t> {
        debug_assert_eq!(groups.len(), self.known, "the groups the table was laid out with");
        debug_assert_eq!(self.own_slots[row], BORN, "a row is read once it is born");
        let (slots, words, at) = (self.slots(), self.words, self.index[row] as usize);
        Row {
            known: groups,
            read: &self.read,
            mask: &mut self.masks[at * words..(at + 1) * words],
            states: &self.states[at * slots..(at + 1) * slots],
            len: &mut self.lens[at],
            summary: &mut self.summaries[at],
        }
    }

    /// Row `row`'s node takes its turn: an unborn row is born as the node's own reading
    /// alone — with its exact summary when the `bounds` are kept — or empty when the node
    /// has none.  A row that is born already is left as it is.
    pub(crate) fn start<B: Bounds>(&mut self, row: usize, func: AggFunc, bounds: &B) {
        let own = std::mem::replace(&mut self.own_slots[row], BORN);
        if own == BORN {
            return;
        }
        let (slots, words, at) = (self.slots(), self.words, self.index[row] as usize);
        let mask = &mut self.masks[at * words..(at + 1) * words];
        mask.fill(0);
        let mut summary = Summary::EMPTY;
        self.lens[at] = 0;
        if own != NO_READING {
            let slot = own as usize;
            mask[slot / WORD] |= 1 << (slot % WORD);
            let state = AggState::single(func, self.own_values[row]);
            self.states[at * slots + slot] = state;
            self.lens[at] = 1;
            if B::KEPT {
                summary.fold(bounds.of(slot, &state));
            }
        }
        if B::KEPT {
            self.summaries[at] = summary;
        }
    }

    /// Delivers row `from`, which is born, into row `into` (another row).  An unborn
    /// `into` adopts `from`'s row — the two swap storage, and `from` is not read again —
    /// and folds its node's own reading in: a group both hold merges as
    /// `own.merge(sent)`, and the summary is the own reading's joined with the sender's,
    /// then the merged state's folded in.  A born `into` merges `from` in
    /// ([`Self::merge_rows`]).  Either way `into` ends born, holding what a row started
    /// as the own reading would hold after merging `from` in.
    pub(crate) fn deliver<B: Bounds>(&mut self, into: usize, from: usize, func: AggFunc, bounds: &B) {
        assert_ne!(into, from, "a row cannot be delivered into itself");
        let own = std::mem::replace(&mut self.own_slots[into], BORN);
        if own == BORN {
            self.merge_rows(into, from, bounds);
            return;
        }
        self.index.swap(into, from);
        if own == NO_READING {
            return;
        }
        let (slots, words, at) = (self.slots(), self.words, self.index[into] as usize);
        let slot = own as usize;
        let mine = AggState::single(func, self.own_values[into]);
        let mut summary = Summary::EMPTY;
        if B::KEPT {
            summary.fold(bounds.of(slot, &mine));
            summary.join(&self.summaries[at]);
        }
        let word = &mut self.masks[at * words + slot / WORD];
        let bit = 1 << (slot % WORD);
        let state = &mut self.states[at * slots + slot];
        if *word & bit != 0 {
            let sent = *state;
            *state = mine;
            state.merge(&sent);
            if B::KEPT {
                summary.fold(bounds.of(slot, state));
            }
        } else {
            *word |= bit;
            *state = mine;
            self.lens[at] += 1;
        }
        if B::KEPT {
            self.summaries[at] = summary;
        }
    }

    /// Merges row `from` into row `into`, both born and held apart: each group `from`
    /// holds merges into the state `into` holds for it, as `into.merge(from)`, or is
    /// copied where `into` holds none.  Then `into` holds the groups of both, and — when
    /// the `bounds` are kept — its summary joins `from`'s, which covers every state
    /// copied, and folds in each state merged in place.
    fn merge_rows<B: Bounds>(&mut self, into: usize, from: usize, bounds: &B) {
        let (slots, words) = (self.slots(), self.words);
        let (into, from) = (self.index[into] as usize, self.index[from] as usize);
        let (held_mask, sent_mask) = two_rows(&mut self.masks, words, into, from);
        let (held_states, sent_states) = two_rows(&mut self.states, slots, into, from);
        let mut summary = Summary::EMPTY;
        if B::KEPT {
            summary = self.summaries[into];
            summary.join(&self.summaries[from]);
        }
        let mut added = 0;
        for (word, (held, &sent)) in held_mask.iter_mut().zip(sent_mask).enumerate() {
            let base = word * WORD;
            let mut both = sent & *held;
            while both != 0 {
                let slot = base + both.trailing_zeros() as usize;
                both &= both - 1;
                held_states[slot].merge(&sent_states[slot]);
                if B::KEPT {
                    summary.fold(bounds.of(slot, &held_states[slot]));
                }
            }
            let mut new = sent & !*held;
            while new != 0 {
                let slot = base + new.trailing_zeros() as usize;
                new &= new - 1;
                held_states[slot] = sent_states[slot];
                added += 1;
            }
            *held |= sent;
        }
        self.lens[into] += added;
        if B::KEPT {
            self.summaries[into] = summary;
        }
    }

    /// Row `row` as a view of `func`, sorted by group — empty while the row is unborn;
    /// `groups` are the deployment's the table was laid out with.
    pub(crate) fn to_view(&self, row: usize, func: AggFunc, groups: &[(GroupId, Vec<NodeId>)]) -> GroupView {
        debug_assert_eq!(groups.len(), self.known, "the groups the table was laid out with");
        if self.own_slots[row] != BORN {
            return GroupView::new(func);
        }
        let (slots, words, at) = (self.slots(), self.words, self.index[row] as usize);
        let mask = &self.masks[at * words..(at + 1) * words];
        let states = &self.states[at * slots..(at + 1) * slots];
        let mut entries = Vec::with_capacity(self.lens[at] as usize);
        for slot in set_bits(mask) {
            let group = group_of(groups, &self.read, slot);
            // The deployment's slots come out ascending; a group only readings name
            // goes where its id sorts.
            let at = if slot < self.known { entries.len() } else { entries.partition_point(|&(g, _)| g < group) };
            entries.insert(at, (group, states[slot]));
        }
        GroupView { func, entries }
    }
}

/// Grows `buffer` to at least `len` items of `fill`; never shrinks it.
fn grow<T: Clone>(buffer: &mut Vec<T>, len: usize, fill: T) {
    if buffer.len() < len {
        buffer.resize(len, fill);
    }
}

/// The slot of a reading's group among the deployment's `groups` and the groups only
/// readings name, `read`, if it has one yet.
fn slot_of(groups: &[(GroupId, Vec<NodeId>)], group_slots: &[u32], read: &[GroupId], r: &Reading) -> Option<usize> {
    let configured = group_slots[r.node as usize] as usize;
    if groups.get(configured).is_some_and(|(g, _)| *g == r.group) {
        return Some(configured);
    }
    match groups.binary_search_by_key(&r.group, |(g, _)| *g) {
        Ok(slot) => Some(slot),
        Err(_) => read.iter().position(|&g| g == r.group).map(|at| groups.len() + at),
    }
}

/// The group in `slot` of a table over the deployment's `groups` and `read`.
fn group_of(groups: &[(GroupId, Vec<NodeId>)], read: &[GroupId], slot: usize) -> GroupId {
    match groups.get(slot) {
        Some((g, _)) => *g,
        None => read[slot - groups.len()],
    }
}

/// Rows `into` (to write) and `from` (to read) of a table `width` wide; they must differ.
fn two_rows<T>(all: &mut [T], width: usize, into: usize, from: usize) -> (&mut [T], &[T]) {
    assert_ne!(into, from, "a row cannot merge into itself");
    if into < from {
        let (low, high) = all.split_at_mut(from * width);
        (&mut low[into * width..(into + 1) * width], &high[..width])
    } else {
        let (low, high) = all.split_at_mut(into * width);
        (&mut high[..width], &low[from * width..(from + 1) * width])
    }
}

/// One row of a [`GroupTable`], as a sweep's `shrink` step sees it: the groups present
/// and their states, which it may only remove, and the row's summary.
pub(crate) struct Row<'t> {
    known: &'t [(GroupId, Vec<NodeId>)],
    read: &'t [GroupId],
    mask: &'t mut [u64],
    states: &'t [AggState],
    len: &'t mut u32,
    summary: &'t mut Summary,
}

impl Row<'_> {
    /// Number of groups in the row — the tuples the node would transmit.
    pub(crate) fn len(&self) -> usize {
        *self.len as usize
    }

    /// The row's summary of the bounds it keeps; meaningful only in a sweep whose
    /// bounds are kept.
    pub(crate) fn summary(&self) -> Summary {
        *self.summary
    }

    /// The `(slot, state)` pairs of the groups present, by ascending slot.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, &AggState)> + '_ {
        set_bits(self.mask).map(|slot| (slot, &self.states[slot]))
    }

    /// Replaces the row's summary — with one that still bounds every state it holds.
    pub(crate) fn set_summary(&mut self, summary: Summary) {
        *self.summary = summary;
    }

    /// Keeps only the groups for which `keep(slot, state)` returns true, asking them
    /// by ascending slot, as [`Self::iter`] yields them.  The summary is left as it is,
    /// which still bounds what is left.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(usize, &AggState) -> bool) {
        for (word, mask) in self.mask.iter_mut().enumerate() {
            let mut bits = *mask;
            while bits != 0 {
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if !keep(word * WORD + bit, &self.states[word * WORD + bit]) {
                    *mask &= !(1 << bit);
                    *self.len -= 1;
                }
            }
        }
    }

    /// Truncates the row to the `k` groups with the highest *partial* values of `func`,
    /// ties towards the smaller group — the wrongful greedy elimination the paper warns
    /// about, kept because the naive baseline needs it.  A group whose state has no
    /// value goes too.  `ranked` is scratch the caller keeps.  The naive sweep keeps no
    /// summary, and one that was kept would only get looser.
    pub(crate) fn truncate_to_local_top_k(
        &mut self,
        k: usize,
        func: AggFunc,
        ranked: &mut Vec<(Value, GroupId, usize)>,
    ) {
        ranked.clear();
        let (known, read) = (self.known, self.read);
        ranked.extend(
            self.iter().filter_map(|(slot, s)| s.partial_value(func).map(|v| (v, group_of(known, read, slot), slot))),
        );
        let by_rank = |a: &(Value, GroupId, usize), b: &(Value, GroupId, usize)| {
            kspot_net::types::cmp_best_first((a.0, a.1), (b.0, b.1))
        };
        if k < ranked.len() {
            ranked.select_nth_unstable_by(k, by_rank);
        }
        self.mask.fill(0);
        let kept = &ranked[..k.min(ranked.len())];
        for &(_, _, slot) in kept {
            self.mask[slot / WORD] |= 1 << (slot % WORD);
        }
        *self.len = kept.len() as u32;
    }
}

/// The indices of the set bits of `mask`, ascending.
fn set_bits(mask: &[u64]) -> SetBits<'_> {
    SetBits { mask, word: 0, bits: mask.first().copied().unwrap_or(0) }
}

/// Iterator of [`set_bits`]: `bits` is what is left of word `word`.
struct SetBits<'m> {
    mask: &'m [u64],
    word: usize,
    bits: u64,
}

impl Iterator for SetBits<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            self.word += 1;
            self.bits = *self.mask.get(self.word)?;
        }
        let bit = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(self.word * WORD + bit)
    }
}

/// The view operations the sweep ran before it kept its views in a [`GroupTable`], and
/// the partial values the sink's ranking read before it ranked in a kept buffer; the
/// map-based kernel in `reference.rs` and the tests still run on them.
#[cfg(test)]
impl GroupView {
    /// The partial aggregate value of every group, `(group, value)`, skipping groups
    /// whose state is still empty.
    pub(crate) fn partial_values(&self) -> Vec<(GroupId, Value)> {
        self.entries
            .iter()
            .filter_map(|(g, s)| s.partial_value(self.func).map(|v| (*g, v)))
            .collect()
    }

    /// Folds one raw reading into the view.
    pub(crate) fn add_reading(&mut self, group: GroupId, value: Value) {
        let at = self.position(group).unwrap_or_else(|at| {
            self.entries.insert(at, (group, AggState::empty(self.func)));
            at
        });
        self.entries[at].1.add(value);
    }

    /// Merges another view into this one: one forward pass over both sorted runs into
    /// `buf`, then copied back.  A group both hold merges exactly once, as
    /// `this.merge(other)`.
    pub(crate) fn merge(&mut self, other: &GroupView, buf: &mut Vec<(GroupId, AggState)>) {
        use std::cmp::Ordering;
        assert_eq!(self.func, other.func, "views of different aggregates cannot merge");
        let (mine, theirs) = (&self.entries, &other.entries);
        let (mut i, mut j) = (0, 0);
        buf.clear();
        while i < mine.len() && j < theirs.len() {
            let (group, state) = mine[i];
            match group.cmp(&theirs[j].0) {
                Ordering::Less => {
                    buf.push((group, state));
                    i += 1;
                }
                Ordering::Greater => {
                    buf.push(theirs[j]);
                    j += 1;
                }
                Ordering::Equal => {
                    let mut merged = state;
                    merged.merge(&theirs[j].1);
                    buf.push((group, merged));
                    i += 1;
                    j += 1;
                }
            }
        }
        buf.extend_from_slice(&mine[i..]);
        buf.extend_from_slice(&theirs[j..]);
        self.entries.clear();
        self.entries.extend_from_slice(buf);
    }

    /// Keeps only the groups for which `keep` returns true; returns how many were
    /// removed (the pruned tuples).
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(GroupId, &AggState) -> bool) -> usize {
        let before = self.entries.len();
        self.entries.retain(|(g, s)| keep(*g, s));
        before - self.entries.len()
    }

    /// Truncates the view to the `k` groups with the highest *partial* values.
    pub(crate) fn truncate_to_local_top_k(&mut self, k: usize) -> usize {
        let mut scored = self.partial_values();
        scored.sort_by(|a, b| kspot_net::types::cmp_value(b.1, a.1).then(a.0.cmp(&b.0)));
        let keep: std::collections::BTreeSet<GroupId> =
            scored.into_iter().take(k).map(|(g, _)| g).collect();
        self.retain(|g, _| keep.contains(&g))
    }
}

/// A table of one row holding `view`'s states, by the slots of the deployment whose
/// groups are `groups`, with the exact summary of `bounds` when they are kept — how the
/// map-based kernel in `reference.rs` hands its views to a shrink step written for rows.
#[cfg(test)]
impl GroupTable {
    pub(crate) fn from_view<B: Bounds>(groups: &[(GroupId, Vec<NodeId>)], view: &GroupView, bounds: &B) -> Self {
        let is_known = |g: &GroupId| groups.binary_search_by_key(g, |(known, _)| *known).is_ok();
        let mut table = GroupTable { known: groups.len(), ..GroupTable::default() };
        table.read.extend(view.iter().map(|(g, _)| g).filter(|g| !is_known(g)));
        let slots = table.slots();
        table.words = slots.div_ceil(WORD);
        table.index = vec![0];
        table.own_slots = vec![BORN];
        table.own_values = vec![0.0];
        table.masks = vec![0; table.words];
        table.states = vec![AggState::empty(view.func()); slots];
        table.lens = vec![view.len() as u32];
        table.summaries = vec![Summary::EMPTY];
        for (g, state) in view.iter() {
            let slot =
                (0..slots).find(|&slot| group_of(groups, &table.read, slot) == g).expect("every group has a slot");
            table.masks[slot / WORD] |= 1 << (slot % WORD);
            table.states[slot] = *state;
            if B::KEPT {
                table.summaries[0].fold(bounds.of(slot, state));
            }
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::group_of as group_of_slot;
    use super::*;
    use crate::mint::Gamma;

    fn view(pairs: &[(GroupId, f64)]) -> GroupView {
        let mut v = GroupView::new(AggFunc::Avg);
        for &(g, val) in pairs {
            v.add_reading(g, val);
        }
        v
    }

    #[test]
    fn add_and_partial_values() {
        let v = view(&[(0, 74.0), (0, 75.0), (1, 40.0)]);
        assert_eq!(v.len(), 2);
        let vals = v.partial_values();
        assert_eq!(vals, vec![(0, 74.5), (1, 40.0)]);
        assert_eq!(v.get(0).unwrap().count(), 2);
        assert!(v.get(9).is_none());
    }

    #[test]
    fn merge_combines_group_states() {
        let mut a = view(&[(0, 74.0), (1, 40.0)]);
        let b = view(&[(0, 75.0), (2, 75.0)]);
        a.merge(&b, &mut Vec::new());
        assert_eq!(a.len(), 3);
        assert_eq!(a.partial_values(), vec![(0, 74.5), (1, 40.0), (2, 75.0)]);
    }

    #[test]
    fn retain_reports_pruned_count() {
        let mut v = view(&[(0, 74.0), (1, 40.0), (2, 75.0)]);
        let pruned = v.retain(|_, s| s.partial_value(AggFunc::Avg).unwrap_or(0.0) > 50.0);
        assert_eq!(pruned, 1);
        assert_eq!(v.len(), 2);
        assert!(v.get(1).is_none());
    }

    /// A table over the groups `pairs` name, each row started as its reading and
    /// delivered into row 0 — so row 0 holds every group — and those groups, the
    /// deployment's.
    fn table(pairs: &[(GroupId, f64)]) -> (GroupTable, Vec<(GroupId, Vec<NodeId>)>) {
        let mut groups: Vec<(GroupId, Vec<NodeId>)> = pairs.iter().map(|&(g, _)| (g, Vec::new())).collect();
        groups.sort_unstable_by_key(|(g, _)| *g);
        groups.dedup_by_key(|(g, _)| *g);
        let readings: Vec<Reading> =
            pairs.iter().enumerate().map(|(i, &(g, v))| Reading::new(i as NodeId + 1, g, 0, v)).collect();
        let mut t = GroupTable::default();
        let unconfigured = vec![u32::MAX; pairs.len() + 1];
        t.lay_out(&groups, &unconfigured, pairs.len() + 1, readings.iter());
        for row in 1..=pairs.len() {
            t.start(row, AggFunc::Avg, &Unbounded);
            t.deliver(0, row, AggFunc::Avg, &Unbounded);
        }
        (t, groups)
    }

    #[test]
    fn truncate_to_local_top_k_keeps_highest_partials() {
        // This is exactly the wrongful elimination of Figure 1's node s4: its local view
        // holds (B, 42) and (D, 39); local top-1 keeps B and drops D.
        let (mut t, groups) = table(&[(1, 42.0), (3, 39.0)]);
        t.row(0, &groups).truncate_to_local_top_k(1, AggFunc::Avg, &mut Vec::new());
        assert_eq!(t.len(0), 1);
        let v = t.to_view(0, AggFunc::Avg, &groups);
        assert!(v.get(1).is_some());
        assert!(v.get(3).is_none());
    }

    #[test]
    fn truncate_with_large_k_keeps_everything() {
        let (mut t, groups) = table(&[(0, 1.0), (1, 2.0)]);
        t.row(0, &groups).truncate_to_local_top_k(10, AggFunc::Avg, &mut Vec::new());
        assert_eq!(t.row(0, &groups).len(), 2);
    }

    #[test]
    #[should_panic(expected = "different aggregates")]
    fn merging_views_of_different_aggregates_panics() {
        let mut a = GroupView::new(AggFunc::Avg);
        let b = GroupView::new(AggFunc::Max);
        a.merge(&b, &mut Vec::new());
    }

    #[test]
    fn empty_view_reports_empty() {
        let v = GroupView::new(AggFunc::Max);
        assert!(v.is_empty());
        assert_eq!(v.partial_values(), vec![]);
    }

    const FUNCS: [AggFunc; 5] = [AggFunc::Avg, AggFunc::Sum, AggFunc::Min, AggFunc::Max, AggFunc::Count];

    /// The groups a drawn table's deployment configures: 70 sparse ids, so that rows
    /// take two mask words and nothing can be indexed by an id.
    fn configured(at: usize) -> GroupId {
        (at as GroupId).wrapping_mul(2_654_435_761) | 1
    }

    /// A drawn reading's value: some are NaN or a signed zero, most lie outside the
    /// percentage domain.
    fn drawn_value(raw: u32) -> f64 {
        match raw % 40 {
            0 => f64::NAN,
            1 => -0.0,
            2 => 0.0,
            _ => f64::from(raw) * 0.37 - 100.0,
        }
    }

    /// Number of bits set in `mask`.
    fn popcount(mask: &[u64]) -> usize {
        mask.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Row `at`, which is born, holds as many groups as its mask has bits, and — when the
    /// sweep keeps MINT's bounds — its summary bounds each state it holds: no upper bound
    /// below its `min_ub` — a NaN one sets `nan` — and no lower bound above its `max_lb`.
    fn assert_row_holds(
        table: &mut GroupTable,
        at: usize,
        groups: &[(GroupId, Vec<NodeId>)],
        gamma: Option<&Gamma<'_>>,
    ) {
        let row = table.row(at, groups);
        assert_eq!(row.len(), popcount(row.mask), "row {at}: stored length against its popcount");
        let (Some(gamma), summary) = (gamma, row.summary()) else { return };
        for (slot, state) in row.iter() {
            let (ub, lb) = gamma.of(slot, state);
            assert!(
                if ub.is_nan() { summary.nan } else { summary.min_ub <= ub },
                "row {at}, slot {slot}: upper bound {ub} under the summary {summary:?}"
            );
            assert!(summary.max_lb >= lb, "row {at}, slot {slot}: lower bound {lb} over the summary {summary:?}");
        }
    }

    /// One case of [`merge_matches_a_map_fold`], over the `bounds` the sweep keeps —
    /// MINT's `gamma`, or none.
    #[allow(clippy::too_many_arguments)]
    fn merge_case<B: Bounds>(
        func: AggFunc,
        groups: &[(GroupId, Vec<NodeId>)],
        group_slots: &[u32],
        readings: &[Reading],
        receiver: usize,
        dropped: u32,
        bounds: &B,
        gamma: Option<&Gamma<'_>>,
    ) {
        let rows = group_slots.len();
        let senders: Vec<usize> = (1..rows).filter(|&row| row != receiver).collect();
        let drop_at = senders.len() / 2;
        let drops = |g: GroupId| g % 4 == dropped;
        let mut table = GroupTable::default();
        let mut cold = None;
        for pass in 0..2 {
            let laid_out = |r: &&Reading| pass == 0 || r.node % 2 == 1;
            table.lay_out(groups, group_slots, rows, readings.iter().filter(laid_out));
            // The last reading laid out for each node is its own.
            let own = |row: usize| readings.iter().filter(laid_out).rfind(|r| r.node as usize == row);
            let single = |r: &Reading| (r.group, AggState::single(func, r.value));
            let mut model: std::collections::BTreeMap<GroupId, AggState> =
                own(receiver).map(single).into_iter().collect();
            for (at, &sender) in senders.iter().enumerate() {
                table.start(sender, func, bounds);
                assert_row_holds(&mut table, sender, groups, gamma);
                let sent = table.to_view(sender, func, groups);
                let expected_sent: Vec<_> = own(sender).map(single).into_iter().collect();
                proptest::prop_assert_eq!(
                    sent.iter().map(|(g, s)| (g, s.to_bits())).collect::<Vec<_>>(),
                    expected_sent.iter().map(|(g, s)| (*g, s.to_bits())).collect::<Vec<_>>(),
                    "pass {}: row {} started as its own reading", pass, sender
                );
                table.deliver(receiver, sender, func, bounds);
                for (g, s) in expected_sent {
                    model.entry(g).and_modify(|mine| mine.merge(&s)).or_insert(s);
                }
                assert_row_holds(&mut table, receiver, groups, gamma);
                if at == drop_at {
                    let mut row = table.row(receiver, groups);
                    let (known, read) = (row.known, row.read);
                    row.retain(|slot, _| !drops(group_of_slot(known, read, slot)));
                    model.retain(|&g, _| !drops(g));
                    assert_row_holds(&mut table, receiver, groups, gamma);
                }
                let ours: Vec<_> =
                    table.to_view(receiver, func, groups).iter().map(|(g, s)| (g, s.to_bits())).collect();
                let expected: Vec<_> = model.iter().map(|(g, s)| (*g, s.to_bits())).collect();
                proptest::prop_assert_eq!(table.len(receiver), expected.len());
                proptest::prop_assert_eq!(&ours, &expected, "pass {}, after row {}", pass, sender);
            }
            if senders.is_empty() {
                // Nothing was delivered: the receiver is born at its own turn, or stays
                // unborn and reads as an empty view.
                let unborn = table.to_view(receiver, func, groups);
                proptest::prop_assert!(unborn.is_empty(), "an unborn row reads empty");
            }
            let buffers = [
                (table.index.as_ptr() as usize, table.index.capacity()),
                (table.own_slots.as_ptr() as usize, table.own_slots.capacity()),
                (table.own_values.as_ptr() as usize, table.own_values.capacity()),
                (table.masks.as_ptr() as usize, table.masks.capacity()),
                (table.states.as_ptr() as usize, table.states.capacity()),
                (table.lens.as_ptr() as usize, table.lens.capacity()),
                (table.summaries.as_ptr() as usize, table.summaries.capacity()),
                (table.read.as_ptr() as usize, table.read.capacity()),
            ];
            match cold {
                None => cold = Some(buffers),
                Some(cold) => proptest::prop_assert_eq!(buffers, cold, "the warm table reallocated"),
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 256, ..proptest::ProptestConfig::default() })]

        /// Row deliveries against a fold into a `BTreeMap<GroupId, AggState>`: each
        /// sender's row is started as its node's own reading and delivered into the
        /// receiver's, which the first delivery bears by adoption — folding in the
        /// receiver's own reading first — and every later one merges into.  After every
        /// delivery the receiver, read as a view, holds the groups the map holds,
        /// ascending, with bit-equal states; the map starts from the own reading and
        /// merges each sender's into it.  The receiver is the sink, which has no reading,
        /// or node 1, with or without one.  Over every aggregate, with MINT's bounds (over
        /// drawn live sizes) or none, sparse ids, 70 configured groups (two mask words),
        /// readings of a group the deployment lacks (a slot after the 70), of the group
        /// their node is configured into and of another, a second reading for some nodes
        /// (the last one is the node's), and NaN, ±0.0 and out-of-domain values, so that
        /// a merge can raise an upper bound.  Halfway the receiver drops the groups
        /// `dropped` picks, and the map with it.  After every start, delivery and drop
        /// the row's stored length is its popcount and, when the bounds are kept, its
        /// summary bounds its states.  The warm table is laid out a second time without
        /// the even nodes' readings: their rows start empty and merge nothing, and
        /// nothing may be reallocated.
        #[test]
        fn merge_matches_a_map_fold(
            func in 0usize..5,
            receiver_draw in 0usize..3,
            operands in proptest::collection::vec((0usize..100, 0u32..2_000), 0..40),
            seconds in proptest::collection::vec((0usize..40, 0usize..100, 0u32..2_000), 0..6),
            sizes in 0u32..1_000,
            dropped in 0u32..4,
            kept in 0u32..2,
        ) {
            let func = FUNCS[func];
            // Node `n` is configured into group `configured(n % 70)`.
            let mut groups: Vec<(GroupId, Vec<NodeId>)> =
                (0..70).map(|at| (configured(at), (1..=41).filter(|n| n % 70 == at as NodeId).collect())).collect();
            groups.sort_unstable_by_key(|(id, _)| *id);
            let mut group_slots = [u32::MAX; 42];
            for (slot, (_, members)) in groups.iter().enumerate() {
                for &m in members {
                    group_slots[m as usize] = slot as u32;
                }
            }
            let live: Vec<u32> = (0..70).map(|slot| (slot * 31 + sizes) % 6).collect();
            let spec = crate::snapshot::SnapshotSpec::new(2, func, kspot_net::types::ValueDomain::percentage());
            let gamma = Gamma::new(&spec, &live);
            // Draws below 70 name a configured group, 70..80 one the deployment lacks
            // (even ids, never configured), from 80 on the node's own.
            let group_of = |node: NodeId, draw: usize| match draw {
                0..70 => configured(draw),
                70..80 => (draw as GroupId) * 2,
                _ => configured(node as usize % 70),
            };
            // Node 1 has a reading unless it is the receiver drawn without one; the
            // senders are nodes 2 on, and row 0, the sink's, never has one.
            let (receiver, own) = match receiver_draw {
                0 => (0, true),
                1 => (1, true),
                _ => (1, false),
            };
            let mut readings: Vec<Reading> = own
                .then_some((99, 1_000))
                .into_iter()
                .map(|(g, raw)| Reading::new(1, group_of(1, g), 0, drawn_value(raw)))
                .chain(operands.iter().enumerate().map(|(at, &(g, raw))| {
                    let node = at as NodeId + 2;
                    Reading::new(node, group_of(node, g), 0, drawn_value(raw))
                }))
                .collect();
            for &(at, g, raw) in &seconds {
                let node = (at % (operands.len() + 1)) as NodeId + 1;
                readings.push(Reading::new(node, group_of(node, g), 0, drawn_value(raw)));
            }
            let rows = operands.len() + 2;
            let group_slots = &group_slots[..rows];
            if kept == 1 {
                merge_case(func, &groups, group_slots, &readings, receiver, dropped, &gamma, Some(&gamma));
            } else {
                merge_case(func, &groups, group_slots, &readings, receiver, dropped, &Unbounded, None);
            }
        }
    }
}
