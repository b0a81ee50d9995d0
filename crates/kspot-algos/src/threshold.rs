//! The flat epoch table TJA and TPUT assemble their partial sums in, and the threshold
//! algebra the two share.
//!
//! Both algorithms rank the epochs of a span by a sum over the nodes that hold a window,
//! and both get there by collecting, per epoch, a partial sum and the set of nodes it
//! came from: TPUT at the sink only, TJA in every node of the routing tree on the way
//! up.  An execution fixes the span and the population first — the epochs any window
//! holds become dense *slots* in ascending epoch order, the participating nodes that
//! hold a window become dense *sources* in ascending id order — and from then on a
//! partial is a row of an [`EpochTable`]: one `f64`, one bitset and one presence bit per
//! slot, no map and no set.  What the two phases of pruning have in common — `τ₁`/`θ`,
//! the lower and upper bounds, which epochs to resolve, whom to ask, the final ranking —
//! is written here once.
//!
//! Sums are added in the order the map-based code added them (ADR-005, "Host
//! representation (historic)"): a node's view receives its children's views as they
//! arrive and the node's own values last, each slot starting from `+0.0` — the first view
//! to arrive is adopted whole, which is that sum bit for bit (ADR-005, "Historic kernel
//! v5"); the contributor bitset counts a node once however often it is inserted, like
//! the `BTreeSet` it replaces.  In the Hierarchical Join a node's own samples are added
//! straight from its window, a run of consecutive slots at a time, 64 samples to a word
//! (ADR-005, "Historic kernel v6").  The working memory is one per thread and reused from
//! execution to execution: views come from a pool that is as large as the most views
//! ever alive at once (a view lives from its node's first delivery, or its own turn, to
//! the node's report), not one per node and never one per session.

use crate::historic::{can_answer, BankWindows, HistoricSpec};
use crate::result::{RankedItem, TopKResult};
use kspot_net::{Epoch, Network, NodeId, PhaseTag, SINK};
use kspot_query::AggFunc;
use std::cell::RefCell;

/// A partial aggregate per epoch slot: the sum of the values received for the epoch and
/// the set of sources they came from.  An epoch is *present* when its set is not empty,
/// which the presence mask records as the set fills, so that asking costs one bit and
/// counting one popcount per 64 slots.
#[derive(Debug, Default)]
pub(crate) struct EpochTable {
    sums: Vec<f64>,
    /// `words` words per slot; bit `i` of a slot's words is source `i`.
    contributors: Vec<u64>,
    words: usize,
    /// Bit `s` is set once slot `s`'s contributor set is not empty.
    mask: Vec<u64>,
}

impl EpochTable {
    /// Empties the table and sizes it for `slots` epochs over `sources` nodes.
    fn reset(&mut self, slots: usize, sources: usize) {
        self.words = sources.div_ceil(64);
        self.sums.clear();
        self.sums.resize(slots, 0.0);
        self.contributors.clear();
        self.contributors.resize(slots * self.words, 0);
        self.mask.clear();
        self.mask.resize(slots.div_ceil(64), 0);
    }

    fn set_of(&self, slot: usize) -> &[u64] {
        &self.contributors[slot * self.words..][..self.words]
    }

    /// The present slots, ascending — the epochs a map would hold, in its order.
    fn present(&self) -> impl Iterator<Item = usize> + '_ {
        self.mask.iter().enumerate().flat_map(|(at, &word)| {
            let mut left = word;
            std::iter::from_fn(move || {
                (left != 0).then(|| {
                    let bit = left.trailing_zeros() as usize;
                    left &= left - 1;
                    at * 64 + bit
                })
            })
        })
    }

    /// Number of present epochs.
    pub(crate) fn len(&self) -> usize {
        self.mask.iter().map(|word| word.count_ones() as usize).sum()
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
        self.mask[slot / 64] |= 1 << (slot % 64);
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

    /// Adds the samples `joined` selects of `samples` as `source`'s, sample `i` to slot
    /// `slot + i` — what [`Self::add`] for each of them in turn would give, with the
    /// presence bits ORed in as one shifted word.  The add is dense: an unselected sample
    /// adds `+0.0` (its bits masked away, so a NaN or `-0.0` there is never read), which
    /// leaves every sum as it is — a sum starts at `+0.0` and is an addition's result
    /// from then on, so it is never `-0.0` and never a signalling NaN (ADR-005, "Historic
    /// kernel v6").
    fn join(&mut self, slot: usize, samples: &[(Epoch, f64)], joined: u64, source: usize) {
        or_bits_at(&mut self.mask, slot, joined);
        let (words, bit) = (self.words, 1 << (source % 64));
        let sets = &mut self.contributors[slot * words + source / 64..];
        for (i, (sum, &(_, value))) in self.sums[slot..][..samples.len()].iter_mut().zip(samples).enumerate() {
            let keep = (joined >> i & 1).wrapping_neg();
            *sum += f64::from_bits(value.to_bits() & keep);
            sets[i * words] |= bit & keep;
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
        for (word, partial) in self.mask.iter_mut().zip(&other.mask) {
            *word |= partial;
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
    fn close(&mut self) {
        self.ends.push(self.entries.len() as u32);
    }

    fn of(&self, source: usize) -> &[(u32, f64)] {
        let start = if source == 0 { 0 } else { self.ends[source - 1] as usize };
        &self.entries[start..self.ends[source] as usize]
    }
}

/// A stretch of one window's samples on consecutive slots: sample `sample + i` of the
/// span is of slot `slot + i`'s epoch for every `i < len`.  Epochs rise strictly along a
/// run, and a calendar gap does not end one — the slot table has the same gap.
#[derive(Debug, Clone, Copy)]
struct Run {
    sample: u32,
    slot: u32,
    len: u32,
}

/// Every source's Hierarchical-Join contribution: a bitset over its span's samples,
/// bit `i` set when sample `i` is sent, and the runs its span is cut into.
#[derive(Debug, Default)]
struct Joined {
    /// The sources' bitsets end to end, each `⌈samples / 64⌉` words.
    bits: Vec<u64>,
    runs: Vec<Run>,
    /// `ends[i]` is where source `i`'s words and runs end (and source `i + 1`'s begin).
    ends: Vec<(u32, u32)>,
}

impl Joined {
    fn clear(&mut self) {
        self.bits.clear();
        self.runs.clear();
        self.ends.clear();
    }

    /// Source `source`'s bitset and runs.
    fn of(&self, source: usize) -> (&[u64], &[Run]) {
        let (words, runs) = if source == 0 { (0, 0) } else { self.ends[source - 1] };
        let (word_end, run_end) = self.ends[source];
        (&self.bits[words as usize..word_end as usize], &self.runs[runs as usize..run_end as usize])
    }
}

const NONE: u32 = u32::MAX;

/// The views of a TJA sweep: a node holds one from the first report delivered to it (or
/// from its own turn, if none was) until it reports, when the view is handed up whole
/// or merged, so the pool is as large as the most views ever held at once.
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

    /// Hands `from`'s view up to `to`.  A receiver that holds no view yet adopts it as
    /// it is — what merging it into a freshly emptied view would give, bit for bit:
    /// every slot of a fresh view is `+0.0` and `+0.0 + x` is `x` for every sum `x`
    /// (each is an addition's result from `+0.0`, so never `-0.0` and never a
    /// signalling NaN), and sets and mask are ORed into zeros.  Otherwise the view is
    /// merged into the receiver's and goes back to the pool.
    fn deliver(&mut self, from: NodeId, to: NodeId) {
        let at = std::mem::replace(&mut self.view_of[from as usize], NONE);
        let held = self.view_of[to as usize];
        if held == NONE {
            self.view_of[to as usize] = at;
            return;
        }
        // Lifted out so that the receiver's view can be borrowed beside it.
        let view = std::mem::take(&mut self.views[at as usize]);
        self.views[held as usize].merge(&view);
        self.views[at as usize] = view;
        self.idle.push(at);
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
    joined: Joined,
    /// A bit per slot for the source at hand: in its local list.
    in_local: Vec<u64>,
    /// A bit per sample of the source at hand: its value reaches `θ`.
    above: Vec<u64>,
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
    /// One per thread, never per executor: executions on a thread run one after the
    /// other, and working memory kept by every resident session would raise peak RSS.
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
    pub(crate) fn begin(&mut self, net: &Network, data: &mut BankWindows<'_>) -> usize {
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
        // A window's epochs do not decrease, so over a gapless span a window whose
        // first and last samples are covered is covered whole.
        let covered = self.epochs.len();
        let gapless = match (self.epochs.first(), self.epochs.last()) {
            (Some(&first), Some(&last)) if last - first == covered as Epoch - 1 => Some(first..=last),
            _ => None,
        };
        for &node in &self.sources {
            let samples = data.samples(node);
            if let (Some(span), Some(&(first, _)), Some(&(last, _))) = (&gapless, samples.first(), samples.last()) {
                if span.contains(&first) && span.contains(&last) {
                    continue;
                }
            }
            for &(epoch, _) in samples {
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
        self.in_local.resize(slots.div_ceil(64), 0);
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
            let (word, bit) = (slot as usize / 64, 1 << (slot % 64));
            self.in_local[word] = if on { self.in_local[word] | bit } else { self.in_local[word] & !bit };
        }
    }

    /// Drops from `self.found` every sample of an epoch `source` already reported in
    /// its local list.
    pub(crate) fn drop_locally_listed(&mut self, source: usize) {
        self.flag_local(source, true);
        let Self { found, epochs, in_local, .. } = self;
        found.retain(|&(epoch, _)| slot_in(epochs, epoch).is_some_and(|slot| bits_at(in_local, slot) & 1 == 0));
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
    pub(crate) fn local_lists(&mut self, net: &mut Network, data: &mut BankWindows<'_>, k: usize) {
        for at in 0..self.sources.len() {
            let node = self.sources[at];
            data.local_top_k(node, k, &mut self.found);
            net.charge_cpu(node, self.found.len() as u32);
            self.keep_local_list();
        }
    }

    /// TJA's Hierarchical-Join preparation: which of every source's buffered samples
    /// survive `theta` or complete an epoch of `L_sink`, except those of its local list,
    /// CPU charged.  A source's span is read 64 samples at a time: one pass packs
    /// `value >= theta` into a word and one compares the samples' epochs with the slot
    /// table's next ones.  A chunk that is not all on the run before it is walked sample
    /// by sample for where its runs ([`Run`]) start, each start's slot found by
    /// [`slot_in`]; the walk selects nothing.  The one filter is applied a run at a time,
    /// 64 slots to a word: `L_sink` — the presence mask the sink assembled in the
    /// Lower-Bound phase — and the local list, shifted from the run's slots onto its
    /// samples.
    pub(crate) fn joined_lists(&mut self, net: &mut Network, data: &mut BankWindows<'_>, theta: f64) {
        for source in 0..self.sources.len() {
            let node = self.sources[source];
            self.flag_local(source, true);
            let Self { epochs, assembled, joined, in_local, above, .. } = self;
            let samples = data.samples(node);
            let runs = joined.runs.len();
            above.clear();
            // The first sample starts a run; `slot` is the slot of the sample before the
            // chunk at hand.
            let mut slot = usize::MAX;
            if let Some(&(epoch, _)) = samples.first() {
                let first = slot_in(epochs, epoch).expect("`begin` slots every sample of the span");
                joined.runs.push(Run { sample: 0, slot: first as u32, len: 0 });
                slot = first.wrapping_sub(1);
            }
            for (word, chunk) in samples.chunks(64).enumerate() {
                above.push(chunk.iter().rev().fold(0, |bits, &(_, value)| bits << 1 | u64::from(value >= theta)));
                let next = slot.wrapping_add(1);
                let goes_on = epochs.get(next..next + chunk.len()).is_some_and(|slotted| {
                    chunk.iter().zip(slotted).fold(0, |off, (&(epoch, _), &expected)| off | (epoch ^ expected)) == 0
                });
                if goes_on {
                    slot = next + chunk.len() - 1;
                    continue;
                }
                for (at, &(epoch, _)) in chunk.iter().enumerate() {
                    slot = slot.wrapping_add(1);
                    if epochs.get(slot) != Some(&epoch) {
                        slot = slot_in(epochs, epoch).expect("`begin` slots every sample of the span");
                        joined.runs.push(Run { sample: (word * 64 + at) as u32, slot: slot as u32, len: 0 });
                    }
                }
            }
            let first_word = joined.bits.len();
            joined.bits.resize(first_word + above.len(), 0);
            let bits = &mut joined.bits[first_word..];
            let mut end = samples.len() as u32;
            for run in joined.runs[runs..].iter_mut().rev() {
                run.len = end - run.sample;
                end = run.sample;
                let (sample, slot, len) = (run.sample as usize, run.slot as usize, run.len as usize);
                for done in (0..len).step_by(64) {
                    let (from, to) = (sample + done, slot + done);
                    let sent = (bits_at(above, from) | bits_at(&assembled.mask, to)) & !bits_at(in_local, to);
                    or_bits_at(bits, from, sent & low_bits((len - done).min(64)));
                }
            }
            let sent: u32 = bits.iter().map(|word| word.count_ones()).sum();
            joined.ends.push((joined.bits.len() as u32, joined.runs.len() as u32));
            self.flag_local(source, false);
            net.charge_cpu(node, sent);
        }
    }

    /// One TJA sweep up the routing tree under `phase`: every participating node adds
    /// its own contribution — in the Hierarchical Join the samples [`Self::joined_lists`]
    /// selected, read straight from its window a run at a time, else its local top-k — to
    /// the view its children's reports built and reports the view to its nearest
    /// participating ancestor, which adopts the first view to arrive and merges the
    /// others into it ([`ViewPool::deliver`]).  What reaches the sink is added to the
    /// assembled table.  A Lower-Bound report is made even when empty; an
    /// empty join is not.
    pub(crate) fn sweep(&mut self, net: &mut Network, data: &mut BankWindows<'_>, query_epoch: Epoch, phase: PhaseTag) {
        let Self { epochs, sources, source_of, assembled, local, joined, pool, order, .. } = self;
        let join = phase == PhaseTag::HierarchicalJoin;
        let (slots, n) = (epochs.len(), sources.len());
        order.clear();
        order.extend_from_slice(net.tree().post_order_slice());
        pool.reset(net.num_nodes());
        for &node in order.iter() {
            if !net.node_participating(node) {
                continue;
            }
            let at = pool.view_for(node, slots, n);
            let view = &mut pool.views[at];
            let source = source_of[node as usize];
            if source != NONE && join {
                let (samples, source) = (data.samples(node), source as usize);
                let (bits, runs) = joined.of(source);
                for run in runs {
                    let (sample, slot, len) = (run.sample as usize, run.slot as usize, run.len as usize);
                    for done in (0..len).step_by(64) {
                        let count = (len - done).min(64);
                        let sent = bits_at(bits, sample + done) & low_bits(count);
                        if sent != 0 {
                            view.join(slot + done, &samples[sample + done..][..count], sent, source);
                        }
                    }
                }
            } else if source != NONE {
                for &(slot, value) in local.of(source as usize) {
                    view.add(slot as usize, source as usize, value);
                }
            }
            let tuples = view.len();
            let receiver = if tuples > 0 || !join {
                net.send_report_up(node, query_epoch, tuples as u32, 0, phase)
            } else {
                None
            };
            match receiver {
                Some(receiver) => pool.deliver(node, receiver),
                None => pool.release(node),
            }
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
        data: &mut BankWindows<'_>,
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

/// The 64 bits of `words` from bit `at` on, zeros past the end.
fn bits_at(words: &[u64], at: usize) -> u64 {
    let (word, shift) = (at / 64, at % 64);
    let low = words.get(word).map_or(0, |&bits| bits >> shift);
    let high = if shift == 0 { 0 } else { words.get(word + 1).map_or(0, |&bits| bits << (64 - shift)) };
    low | high
}

/// ORs `bits` into `words` from bit `at` on; the bits must end inside `words`.
fn or_bits_at(words: &mut [u64], at: usize, bits: u64) {
    let (word, shift) = (at / 64, at % 64);
    words[word] |= bits << shift;
    if shift != 0 && bits >> (64 - shift) != 0 {
        words[word + 1] |= bits >> (64 - shift);
    }
}

/// The lowest `count` bits, `count` in `1..=64`.
fn low_bits(count: usize) -> u64 {
    u64::MAX >> (64 - count)
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

#[cfg(test)]
mod tests {
    use super::{low_bits, EpochTable};
    use kspot_net::Epoch;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    /// The table as the map-based executors kept it: per present slot, the sum and the
    /// set of sources it came from.
    type Model = BTreeMap<usize, (f64, BTreeSet<usize>)>;

    /// Every read of `table` against `model`, sums as bit patterns.
    fn assert_agrees(table: &EpochTable, model: &Model, slots: usize, sources: usize) {
        assert_eq!(table.len(), model.len());
        assert_eq!(table.present().collect::<Vec<_>>(), model.keys().copied().collect::<Vec<_>>());
        for slot in 0..slots {
            let entry = model.get(&slot);
            assert_eq!(table.mask[slot / 64] >> (slot % 64) & 1 == 1, entry.is_some(), "slot {slot}");
            assert_eq!(table.count(slot), entry.map_or(0, |(_, set)| set.len()), "slot {slot}");
            assert_eq!(table.sums[slot].to_bits(), entry.map_or(0.0, |&(sum, _)| sum).to_bits(), "slot {slot}");
        }
        for (&slot, (_, set)) in model {
            let held: BTreeSet<usize> = (0..sources).filter(|&source| table.contains(slot, source)).collect();
            assert_eq!(&held, set, "slot {slot}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Two tables driven through `reset` (same and changed shape), `add`, `absorb`
        /// and `merge` read like two maps of sums and source sets after every step.
        /// Shapes reach 300 slots and 130 sources, so the presence mask and the
        /// contributor sets both cross word boundaries; a slot or source is drawn from
        /// the first three often, so that sources repeat.
        #[test]
        fn the_table_matches_a_map_of_sums_and_sets(
            shape in (1usize..301, 1usize..131),
            ops in prop::collection::vec(
                (0u32..16, prop_oneof![0usize..3, 0usize..300], prop_oneof![0usize..3, 0usize..130], 0u32..2_000),
                1..48,
            ),
        ) {
            let (mut slots, mut sources) = shape;
            let mut tables = [EpochTable::default(), EpochTable::default()];
            let mut models = [Model::new(), Model::new()];
            for table in &mut tables {
                table.reset(slots, sources);
            }
            for (kind, slot_draw, source_draw, draw) in ops {
                let (at, slot, source) = (draw as usize % 2, slot_draw % slots, source_draw % sources);
                let value = f64::from(draw / 2) / 8.0 - 60.0;
                let [first, second] = &mut models;
                let (model, other) = if at == 0 { (first, second) } else { (second, first) };
                match kind {
                    0..=4 => {
                        tables[at].add(slot, source, value);
                        let entry = model.entry(slot).or_insert((0.0, BTreeSet::new()));
                        entry.0 += value;
                        entry.1.insert(source);
                    }
                    5..=9 => {
                        tables[at].absorb(slot, source, value);
                        let entry = model.entry(slot).or_insert((0.0, BTreeSet::new()));
                        if entry.1.insert(source) {
                            entry.0 += value;
                        }
                    }
                    10..=12 => {
                        let [ours, theirs] = &mut tables;
                        if at == 0 { ours.merge(theirs) } else { theirs.merge(ours) }
                        for (&slot, (sum, set)) in other.iter() {
                            let entry = model.entry(slot).or_insert((0.0, BTreeSet::new()));
                            entry.0 += sum;
                            entry.1.extend(set);
                        }
                    }
                    13 | 14 => {
                        tables[at].reset(slots, sources);
                        model.clear();
                    }
                    _ => {
                        (slots, sources) = (1 + slot_draw % 300, 1 + source_draw % 130);
                        for (table, model) in tables.iter_mut().zip(&mut models) {
                            table.reset(slots, sources);
                            model.clear();
                        }
                    }
                }
                for (table, model) in tables.iter().zip(&models) {
                    assert_agrees(table, model, slots, sources);
                }
            }
        }

        /// `join` against `add` for each selected sample in turn, into a table that
        /// already holds partials: sums bit for bit, sets and mask alike.  The samples
        /// start at any slot of up to 300, so their presence word straddles two mask
        /// words, and a source of up to 130 sits in any contributor word; a sample that
        /// is not selected holds NaN, -0.0 or +0.0 as often as an ordinary value.
        #[test]
        fn a_join_adds_what_adding_each_selected_sample_adds(
            shape in (1usize..301, 1usize..131),
            at in (0usize..300, 0usize..130),
            joined in 0u64..u64::MAX,
            draws in prop::collection::vec(0u32..8, 64..65),
            before in prop::collection::vec((0usize..300, 0usize..130, 0u32..2_000), 0..32),
        ) {
            let (slots, sources) = shape;
            let (start, source) = (at.0 % slots, at.1 % sources);
            let count = (slots - start).min(64);
            let value = |draw: u32| match draw {
                0 => f64::NAN,
                1 => -0.0,
                2 => 0.0,
                _ => f64::from(draw) * 7.25,
            };
            let samples: Vec<(Epoch, f64)> = (0..count).map(|i| (i as Epoch, value(draws[i]))).collect();
            let joined = joined & low_bits(count);
            let mut tables = [EpochTable::default(), EpochTable::default()];
            for table in &mut tables {
                table.reset(slots, sources);
                for &(slot, source, draw) in &before {
                    table.add(slot % slots, source % sources, f64::from(draw) / 8.0 - 60.0);
                }
            }
            let [joining, adding] = &mut tables;
            joining.join(start, &samples, joined, source);
            for (i, &(_, value)) in samples.iter().enumerate().filter(|&(i, _)| joined >> i & 1 == 1) {
                adding.add(start + i, source, value);
            }
            let bits = |table: &EpochTable| table.sums.iter().map(|sum| sum.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(joining), bits(adding));
            prop_assert_eq!(&joining.contributors, &adding.contributors);
            prop_assert_eq!(&joining.mask, &adding.mask);
        }
    }
}
