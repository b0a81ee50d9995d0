//! The flat epoch table TJA and TPUT assemble their partial sums in, and the threshold
//! algebra the two share.
//!
//! Both algorithms rank the epochs of a span by a sum over the nodes that hold a window,
//! and both get there by collecting, per epoch, a partial sum and the set of nodes it
//! came from: TPUT at the sink only, TJA in every node of the routing tree on the way
//! up.  An execution fixes the span and the population first — the epochs any window
//! holds become dense *slots* in ascending epoch order, the participating nodes that
//! hold a window become dense *sources* in ascending id order — and from then on a
//! partial is a row of an [`EpochTable`]: one `f64` and one bitset per slot, no map and
//! no set.  What the two phases of pruning have in common — `τ₁`/`θ`, the lower and
//! upper bounds, which epochs to resolve, whom to ask, the final ranking — is written
//! here once.
//!
//! Sums are added in the order the map-based code added them (ADR-005, "Host
//! representation (historic)"): a node's view receives its children's views as they
//! arrive and the node's own values last, each slot starting from `+0.0`; the contributor
//! bitset counts a node once however often it is inserted, like the `BTreeSet` it
//! replaces.  The working memory is one per thread and reused from execution to
//! execution: views come from a pool that is as large as the most views ever alive at
//! once (a view lives from its node's first delivery to the node's own turn), not one
//! per node and never one per session.

use crate::historic::{can_answer, HistoricSpec, WindowSource};
use crate::result::{RankedItem, TopKResult};
use kspot_net::{Epoch, Network, NodeId, PhaseTag, SINK};
use kspot_query::AggFunc;
use std::cell::RefCell;

/// A partial aggregate per epoch slot: the sum of the values received for the epoch and
/// the set of sources they came from.  An epoch is *present* when its set is not empty.
#[derive(Debug, Default)]
pub(crate) struct EpochTable {
    sums: Vec<f64>,
    /// `words` words per slot; bit `i` of a slot's words is source `i`.
    contributors: Vec<u64>,
    words: usize,
}

impl EpochTable {
    /// Empties the table and sizes it for `slots` epochs over `sources` nodes.
    fn reset(&mut self, slots: usize, sources: usize) {
        self.words = sources.div_ceil(64);
        self.sums.clear();
        self.sums.resize(slots, 0.0);
        self.contributors.clear();
        self.contributors.resize(slots * self.words, 0);
    }

    fn set_of(&self, slot: usize) -> &[u64] {
        &self.contributors[slot * self.words..][..self.words]
    }

    fn is_present(&self, slot: usize) -> bool {
        self.set_of(slot).iter().any(|&word| word != 0)
    }

    /// The present slots, ascending — the epochs a map would hold, in its order.
    fn present(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.sums.len()).filter(|&slot| self.is_present(slot))
    }

    /// Number of present epochs.
    pub(crate) fn len(&self) -> usize {
        self.present().count()
    }

    /// Number of sources that contributed to `slot`.
    fn count(&self, slot: usize) -> usize {
        self.set_of(slot).iter().map(|word| word.count_ones() as usize).sum()
    }

    fn contains(&self, slot: usize, source: usize) -> bool {
        self.set_of(slot)[source / 64] & (1 << (source % 64)) != 0
    }

    /// Adds `source` to the slot's set; true if it was not in it (`BTreeSet::insert`).
    fn insert(&mut self, slot: usize, source: usize) -> bool {
        let word = &mut self.contributors[slot * self.words + source / 64];
        let fresh = *word & (1 << (source % 64)) == 0;
        *word |= 1 << (source % 64);
        fresh
    }

    /// Adds a value unconditionally (TJA: a node reports an epoch once per phase, and a
    /// window holding an epoch twice reports both values).
    fn add(&mut self, slot: usize, source: usize, value: f64) {
        self.sums[slot] += value;
        self.insert(slot, source);
    }

    /// Adds a value unless the source already contributed to the slot (TPUT).
    fn absorb(&mut self, slot: usize, source: usize, value: f64) {
        if self.insert(slot, source) {
            self.sums[slot] += value;
        }
    }

    /// Adds every partial of `other`, a table of the same shape.  An absent slot of
    /// `other` adds `+0.0`, which leaves any sum as it is: a sum starts at `+0.0` and
    /// can therefore never be `-0.0`, the one value `+0.0` would change.
    fn merge(&mut self, other: &EpochTable) {
        for (sum, partial) in self.sums.iter_mut().zip(&other.sums) {
            *sum += partial;
        }
        for (set, partial) in self.contributors.iter_mut().zip(&other.contributors) {
            *set |= partial;
        }
    }
}

/// Per source a list of `(slot, value)` entries, stored end to end.
#[derive(Debug, Default)]
struct Lists {
    entries: Vec<(u32, f64)>,
    /// `ends[i]` is where source `i`'s list ends (and source `i + 1`'s begins).
    ends: Vec<u32>,
}

impl Lists {
    fn clear(&mut self) {
        self.entries.clear();
        self.ends.clear();
    }

    /// Closes the list of the next source: everything pushed since the last call.
    fn close(&mut self) -> usize {
        let start = self.ends.last().map_or(0, |&end| end as usize);
        self.ends.push(self.entries.len() as u32);
        self.entries.len() - start
    }

    fn of(&self, source: usize) -> &[(u32, f64)] {
        let start = if source == 0 { 0 } else { self.ends[source - 1] as usize };
        &self.entries[start..self.ends[source] as usize]
    }
}

const NONE: u32 = u32::MAX;

/// The views of a TJA sweep: a node holds one from the first report delivered to it
/// until its own turn, so the pool is as large as the most views ever held at once.
#[derive(Debug, Default)]
struct ViewPool {
    views: Vec<EpochTable>,
    /// `view_of[node]` indexes `views` while the node holds a view.
    view_of: Vec<u32>,
    idle: Vec<u32>,
}

impl ViewPool {
    /// Takes every view back: a receiver whose battery gave out before its turn never
    /// released its own.
    fn reset(&mut self, nodes: usize) {
        self.view_of.clear();
        self.view_of.resize(nodes + 1, NONE);
        self.idle.clear();
        self.idle.extend(0..self.views.len() as u32);
    }

    /// The view `holder` holds, a freshly emptied one if it held none.
    fn view_for(&mut self, holder: NodeId, slots: usize, sources: usize) -> usize {
        if self.view_of[holder as usize] == NONE {
            let at = self.idle.pop().unwrap_or_else(|| {
                self.views.push(EpochTable::default());
                self.views.len() as u32 - 1
            });
            self.views[at as usize].reset(slots, sources);
            self.view_of[holder as usize] = at;
        }
        self.view_of[holder as usize] as usize
    }

    fn release(&mut self, holder: NodeId) {
        self.idle.push(std::mem::replace(&mut self.view_of[holder as usize], NONE));
    }
}

/// The working memory of one TJA or TPUT execution.
#[derive(Debug, Default)]
pub(crate) struct Threshold {
    /// Slot → epoch, ascending, each once.
    epochs: Vec<Epoch>,
    /// Source → node: the nodes of the deployment that hold a window and participate as
    /// the execution begins, ascending.  `n`, in the algebra.
    pub(crate) sources: Vec<NodeId>,
    /// Node → source, [`NONE`] for a node that relays only.
    source_of: Vec<u32>,
    /// What the sink has assembled so far.
    pub(crate) assembled: EpochTable,
    /// Every source's local top-k list (phase one of both algorithms).
    local: Lists,
    /// Every source's Hierarchical-Join contribution.
    joined: Lists,
    /// Slot flags for the source at hand: in its local list.
    in_local: Vec<bool>,
    /// The caller's buffer for `local_top_k` / `values_at_least`.
    pub(crate) found: Vec<(Epoch, f64)>,
    bounds: Vec<f64>,
    to_resolve: Vec<usize>,
    ranked: Vec<RankedItem>,
    pool: ViewPool,
    /// The routing tree's post-order, copied so that a sweep can hold the network
    /// mutably while walking it.
    order: Vec<NodeId>,
}

thread_local! {
    /// One per thread, never per executor: an engine keeps every session it ever
    /// admitted, and executions on a thread run one after the other.
    static SCRATCH: RefCell<Threshold> = RefCell::default();
}

/// Runs `body` with this thread's working memory.  `body` must not execute TJA or TPUT
/// itself.
pub(crate) fn with_scratch<R>(body: impl FnOnce(&mut Threshold) -> R) -> R {
    SCRATCH.with_borrow_mut(body)
}

impl Threshold {
    /// Fixes the population and the span of an execution and empties the sink's table.
    /// Returns `n`, the number of sources.  Liveness is read here for the population
    /// only (the threshold algebra needs one `n`); every later step asks the network
    /// again.
    pub(crate) fn begin(&mut self, net: &Network, data: &mut dyn WindowSource) -> usize {
        self.sources.clear();
        self.sources.extend(data.source_nodes().iter().copied().filter(|&node| can_answer(net, node)));
        self.source_of.clear();
        self.source_of.resize(net.num_nodes() + 1, NONE);
        for (source, &node) in self.sources.iter().enumerate() {
            self.source_of[node as usize] = source as u32;
        }

        // The slots: the covered epochs, plus whatever epoch a window holds beside them
        // (readings of one feed need not share an epoch) — found now, so that no later
        // lookup can miss and no table ever has to grow.
        self.epochs.clear();
        self.epochs.extend_from_slice(data.covered_epochs());
        if !self.epochs.windows(2).all(|pair| pair[0] < pair[1]) {
            self.epochs.sort_unstable();
            self.epochs.dedup();
        }
        let covered = self.epochs.len();
        for &node in &self.sources {
            for &(epoch, _) in data.samples(node) {
                if slot_in(&self.epochs[..covered], epoch).is_none() {
                    self.epochs.push(epoch);
                }
            }
        }
        if self.epochs.len() > covered {
            self.epochs.sort_unstable();
            self.epochs.dedup();
        }

        let (slots, n) = (self.epochs.len(), self.sources.len());
        self.assembled.reset(slots, n);
        self.local.clear();
        self.joined.clear();
        self.in_local.clear();
        self.in_local.resize(slots, false);
        n
    }

    /// Files `self.found` as the next source's local top-k list.
    pub(crate) fn keep_local_list(&mut self) {
        let Self { found, epochs, local, .. } = self;
        let slotted = |&(epoch, value): &(Epoch, f64)| Some((slot_in(epochs, epoch)? as u32, value));
        local.entries.extend(found.iter().filter_map(slotted));
        local.close();
    }

    /// Flags the slots of `source`'s local list (`on`) or clears the flags again.
    fn flag_local(&mut self, source: usize, on: bool) {
        for &(slot, _) in self.local.of(source) {
            self.in_local[slot as usize] = on;
        }
    }

    /// Drops from `self.found` every sample of an epoch `source` already reported in
    /// its local list.
    pub(crate) fn drop_locally_listed(&mut self, source: usize) {
        self.flag_local(source, true);
        let Self { found, epochs, in_local, .. } = self;
        found.retain(|&(epoch, _)| slot_in(epochs, epoch).is_some_and(|slot| !in_local[slot]));
        self.flag_local(source, false);
    }

    /// Absorbs `self.found` at the sink as `source`'s (TPUT sends its lists there
    /// directly).
    pub(crate) fn absorb_found(&mut self, source: usize) {
        for &(epoch, value) in &self.found {
            if let Some(slot) = slot_in(&self.epochs, epoch) {
                self.assembled.absorb(slot, source, value);
            }
        }
    }

    /// TJA's Lower-Bound preparation: every source's local top-k list, CPU charged.
    pub(crate) fn local_lists(&mut self, net: &mut Network, data: &mut dyn WindowSource, k: usize) {
        for at in 0..self.sources.len() {
            let node = self.sources[at];
            data.local_top_k(node, k, &mut self.found);
            net.charge_cpu(node, self.found.len() as u32);
            self.keep_local_list();
        }
    }

    /// TJA's Hierarchical-Join preparation: every source's buffered tuples that survive
    /// `theta` or complete an epoch of `L_sink`, except those of its local list, CPU
    /// charged.
    pub(crate) fn joined_lists(&mut self, net: &mut Network, data: &mut dyn WindowSource, theta: f64) {
        for at in 0..self.sources.len() {
            let node = self.sources[at];
            self.flag_local(at, true);
            for &(epoch, value) in data.samples(node) {
                let Some(slot) = slot_in(&self.epochs, epoch) else { continue };
                // `L_sink` is what the sink assembled in the Lower-Bound phase.
                if !self.in_local[slot] && (value >= theta || self.assembled.is_present(slot)) {
                    self.joined.entries.push((slot as u32, value));
                }
            }
            self.flag_local(at, false);
            let sent = self.joined.close();
            net.charge_cpu(node, sent as u32);
        }
    }

    /// One TJA sweep up the routing tree under `phase`: every participating node adds
    /// its own list — in the Hierarchical Join its joined tuples, else its local top-k —
    /// to the view its children's reports built and reports the view to its nearest
    /// participating ancestor, where it is merged on arrival.  What reaches the sink is
    /// added to the assembled table.  A Lower-Bound report is made even when empty; an
    /// empty join is not.
    pub(crate) fn sweep(&mut self, net: &mut Network, query_epoch: Epoch, phase: PhaseTag) {
        let Self { epochs, sources, source_of, assembled, local, joined, pool, order, .. } = self;
        let (lists, report_empty) =
            if phase == PhaseTag::HierarchicalJoin { (&*joined, false) } else { (&*local, true) };
        let (slots, n) = (epochs.len(), sources.len());
        order.clear();
        order.extend_from_slice(net.tree().post_order_slice());
        pool.reset(net.num_nodes());
        for &node in order.iter() {
            if !net.node_participating(node) {
                continue;
            }
            let at = pool.view_for(node, slots, n);
            // Lifted out so that the receiver's view can be borrowed beside it.
            let mut view = std::mem::take(&mut pool.views[at]);
            let source = source_of[node as usize];
            if source != NONE {
                for &(slot, value) in lists.of(source as usize) {
                    view.add(slot as usize, source as usize, value);
                }
            }
            let tuples = view.len();
            if tuples > 0 || report_empty {
                if let Some(receiver) = net.send_report_up(node, query_epoch, tuples as u32, 0, phase) {
                    let to = pool.view_for(receiver, slots, n);
                    pool.views[to].merge(&view);
                }
            }
            pool.views[at] = view;
            pool.release(node);
        }
        let at_sink = pool.view_of[SINK as usize];
        if at_sink != NONE {
            assembled.merge(&pool.views[at_sink as usize]);
        }
    }

    /// The `k`-th highest of `bound(sum, contributors)` over the assembled epochs.  A
    /// bound poisoned by a corrupted NaN reading carries no evidence for the threshold
    /// algebra, so it is demoted to -inf first: left in place, a descending `total_cmp`
    /// would rank it above every real value and inflate the `k`-th one — an unsafely
    /// high threshold that could eliminate a true answer.  With NaN out of the way
    /// `total_cmp` is a total order on what is left, so the `k`-th value is the same
    /// however it is found.
    fn kth_highest(&mut self, k: usize, bound: impl Fn(f64, usize) -> f64) -> Option<f64> {
        self.bounds.clear();
        for slot in self.assembled.present() {
            let b = bound(self.assembled.sums[slot], self.assembled.count(slot));
            self.bounds.push(if b.is_nan() { f64::NEG_INFINITY } else { b });
        }
        if self.bounds.len() < k {
            return None;
        }
        Some(*self.bounds.select_nth_unstable_by(k - 1, |a, b| b.total_cmp(a)).1)
    }

    /// `θ = τ₁ / n`, where `τ₁` is the K-th highest partial sum assembled so far: any
    /// epoch whose true sum reaches the true K-th must have one node's value at or
    /// above it.  Without K partial sums (or with a poisoned K-th) `θ` degrades to the
    /// domain minimum: no elimination.
    pub(crate) fn theta(&mut self, spec: &HistoricSpec) -> f64 {
        let tau1 = self.kth_highest(spec.k, |sum, _| sum).unwrap_or(0.0);
        (tau1 / self.sources.len() as f64).max(spec.domain.min)
    }

    /// The last phase of both algorithms: the sink pulls, one `(node, epoch)` value at
    /// a time under `phase`, what it still misses of every epoch that can reach the
    /// answer.  A value still missing for an assembled epoch must be below `theta` (its
    /// owner would have reported it otherwise), so the epoch's sum is at most `sum +
    /// missing·θ` and at least `sum + missing·domain.min`; an incomplete epoch whose
    /// upper bound reaches the K-th highest lower bound is resolved.  Returns the
    /// number of pulls made; a dropped pull leaves its epoch incomplete.
    pub(crate) fn resolve(
        &mut self,
        net: &mut Network,
        data: &mut dyn WindowSource,
        spec: &HistoricSpec,
        theta: f64,
        query_epoch: Epoch,
        phase: PhaseTag,
    ) -> usize {
        let n = self.sources.len();
        let floor = spec.domain.min;
        let kth_lower = self
            .kth_highest(spec.k, |sum, count| sum + (n - count) as f64 * floor)
            .unwrap_or(f64::NEG_INFINITY);
        let assembled = &self.assembled;
        self.to_resolve.clear();
        self.to_resolve.extend(assembled.present().filter(|&slot| {
            let count = assembled.count(slot);
            count < n && assembled.sums[slot] + (n - count) as f64 * theta >= kth_lower
        }));
        let mut pulls = 0;
        for &slot in &self.to_resolve {
            // A pull completes its own (node, epoch) pair only, so asking the table as
            // the pulls go finds the nodes that were missing when they began.
            for source in 0..n {
                if self.assembled.contains(slot, source) {
                    continue;
                }
                let node = self.sources[source];
                let down = net.unicast_down(node, query_epoch, 1, phase);
                let up = net.unicast_up(node, query_epoch, 1, phase);
                pulls += 1;
                if down.is_none() || up.is_none() {
                    continue;
                }
                if let Some(value) = data.value_at(node, self.epochs[slot]) {
                    self.assembled.add(slot, source, value);
                }
            }
        }
        pulls
    }

    /// The final ranking, over the epochs every source contributed to.
    pub(crate) fn ranking(&mut self, spec: &HistoricSpec, query_epoch: Epoch) -> TopKResult {
        let Self { assembled, epochs, ranked, sources, .. } = self;
        let n = sources.len();
        ranked.clear();
        ranked.extend(assembled.present().filter(|&slot| assembled.count(slot) == n).map(|slot| {
            let sum = assembled.sums[slot];
            let score = if matches!(spec.func, AggFunc::Avg) { sum / n as f64 } else { sum };
            RankedItem::new(epochs[slot], score)
        }));
        TopKResult::best_of(query_epoch, ranked, spec.k)
    }
}

/// The slot of `epoch` among ascending `epochs`: where a gapless span puts it, or by
/// search.
fn slot_in(epochs: &[Epoch], epoch: Epoch) -> Option<usize> {
    let guess = epoch.wrapping_sub(*epochs.first()?) as usize;
    if epochs.get(guess) == Some(&epoch) {
        Some(guess)
    } else {
        epochs.binary_search(&epoch).ok()
    }
}
