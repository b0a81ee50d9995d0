//! Historic Top-K queries over locally buffered sliding windows.
//!
//! A historic query addresses readings the sensors buffered locally ("the K time
//! instances with the highest average temperature during the last 3 months").  The data
//! is *vertically fragmented*: every node holds one column (its own readings) of every
//! object (epoch), so no node can prune on its own — the pruning only becomes possible
//! once information from all nodes is combined, which is exactly what TJA's phased
//! protocol does.
//!
//! This module provides the shared scaffolding: the query spec, the view every historic
//! algorithm reads its windows through ([`BankWindows`], a span-limited view over a
//! [`kspot_net::WindowBank`] — the engine's shared bank borrowed, or a restored or
//! freshly collected one owned), the omniscient reference answer, the
//! [`HistoricAlgorithm`] trait and the two straightforward strategies — shipping the
//! complete windows to the sink ([`CentralizedHistoric`]) and the horizontally
//! fragmented local-filter variant of Section III-B ([`LocalAggregateHistoric`]).

use crate::agg::exact_aggregate;
use crate::result::{RankedItem, TopKResult};
use crate::snapshot::SnapshotSpec;
use crate::tag::{convergecast_full, rank_view};
use crate::view::Unbounded;
use kspot_net::types::ValueDomain;
use kspot_net::storage::top_k_into;
use kspot_net::{Epoch, Network, NodeId, PhaseTag, Reading, SlidingWindow, WindowBank, Workload};
use kspot_query::AggFunc;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Parameters of a historic (vertically fragmented) Top-K query.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HistoricSpec {
    /// Number of ranked epochs to return.
    pub k: usize,
    /// The aggregate that scores an epoch across nodes.  The threshold algebra of
    /// TJA/TPUT requires a sum-decomposable aggregate, so only [`AggFunc::Avg`] and
    /// [`AggFunc::Sum`] are accepted.
    pub func: AggFunc,
    /// The value domain of the buffered modality.
    pub domain: ValueDomain,
    /// The length of the sliding window, in epochs.
    pub window: usize,
}

impl HistoricSpec {
    /// Creates a spec, rejecting parameters the historic algorithms cannot honour.
    pub fn new(k: usize, func: AggFunc, domain: ValueDomain, window: usize) -> Self {
        assert!(k > 0, "historic Top-K requires k > 0");
        assert!(window > 0, "the history window must be non-empty");
        assert!(
            matches!(func, AggFunc::Avg | AggFunc::Sum),
            "historic ranking requires a sum-decomposable aggregate (AVG or SUM), got {func}"
        );
        assert!(
            domain.min >= 0.0,
            "the threshold algebra of TJA/TPUT assumes non-negative sensed values"
        );
        Self { k, func, domain, window }
    }
}

/// True when `node` is a sensor node of `net` that can answer right now.  A source may
/// hold windows of nodes the deployment does not have (a checkpoint image from another
/// deployment restores fine); every historic strategy leaves those out, like dead ones.
pub(crate) fn can_answer(net: &Network, node: NodeId) -> bool {
    net.deployment().node(node).is_some() && net.node_participating(node)
}

/// Omniscient ranked answer over the windows of `nodes`, computed from whatever
/// source the query ran against — the sink-side final ranking of
/// [`CentralizedHistoric`], and the oracle for participation-scoped exactness claims.
pub fn exact_over_source(
    source: &mut BankWindows<'_>,
    spec: &HistoricSpec,
    nodes: &[NodeId],
) -> TopKResult {
    let mut per_epoch: BTreeMap<Epoch, Vec<f64>> = BTreeMap::new();
    for &node in nodes {
        for &(e, v) in source.samples(node) {
            per_epoch.entry(e).or_default().push(v);
        }
    }
    ranked_epochs(per_epoch, spec, source.covered_epochs().last().copied().unwrap_or(0))
}

/// Scores every epoch by the spec's aggregate over its values and keeps the best `k`.
fn ranked_epochs(per_epoch: BTreeMap<Epoch, Vec<f64>>, spec: &HistoricSpec, at: Epoch) -> TopKResult {
    let mut items: Vec<RankedItem> = per_epoch
        .into_iter()
        .filter_map(|(e, vals)| exact_aggregate(spec.func, &vals).map(|v| RankedItem::new(e, v)))
        .collect();
    TopKResult::best_of(at, &mut items, spec.k)
}

/// The samples of `window` from epoch `first` on, oldest first.
fn span_of(window: Option<&SlidingWindow>, first: Epoch) -> &[(Epoch, f64)] {
    let Some(window) = window else { return &[] };
    let all = window.as_slice();
    // A window the span covers whole, as every window of a bank as long as the span is,
    // needs no search.
    if all.first().is_some_and(|&(e, _)| e >= first) {
        return all;
    }
    &all[all.partition_point(|&(e, _)| e < first)..]
}

/// A span-limited view over a [`WindowBank`]: exposes only the **last `window` epochs**
/// of the bank, so a session whose `WITH HISTORY` span is shorter than the bank's
/// capacity (which follows the largest registered span) sees exactly the window it
/// asked for.  Every historic algorithm reads its windows through it.
///
/// The bank is the engine's shared one, borrowed ([`BankWindows::new`]), or an owned
/// one ([`BankWindows::owned`]): restored from a checkpoint image — there is no live
/// bank to borrow for an epoch the engine has long evicted — or fed for one submission
/// by [`BankWindows::collect`].  Holding the same samples, the two are byte-identical to
/// every algorithm.
///
/// The methods mirror the two access paths real motes expose (local top-k scan and
/// point lookups, see [`SlidingWindow`]) plus the bulk scans the centralized
/// comparators need.  A view lends what it holds and fills what the caller brings:
/// nothing here allocates per call.  All sample lists are oldest-epoch-first, with ties
/// in `local_top_k` broken towards the older epoch — the deterministic order
/// [`SlidingWindow`] guarantees.
#[derive(Debug)]
pub struct BankWindows<'a> {
    bank: Bank<'a>,
    /// The covered epochs, oldest first (the last `window` epochs of the bank).
    epochs: Vec<Epoch>,
    /// The first covered epoch — samples older than this are invisible to the view.
    first: Epoch,
}

/// The bank behind a [`BankWindows`] view.
#[derive(Debug)]
enum Bank<'a> {
    Borrowed(&'a mut WindowBank),
    Owned(WindowBank),
}

impl Bank<'_> {
    fn get(&self) -> &WindowBank {
        match self {
            Bank::Borrowed(bank) => bank,
            Bank::Owned(bank) => bank,
        }
    }

}

impl<'a> BankWindows<'a> {
    /// Opens a view over the last `window` epochs of a borrowed bank.
    pub fn new(bank: &'a mut WindowBank, window: usize) -> Self {
        Self::open(Bank::Borrowed(bank), window)
    }

    /// Opens a view over the last `window` epochs of a bank it keeps.
    pub fn owned(bank: WindowBank, window: usize) -> Self {
        Self::open(Bank::Owned(bank), window)
    }

    fn open(bank: Bank<'a>, window: usize) -> Self {
        let whole = bank.get();
        let epochs: Vec<Epoch> =
            whole.epochs().skip(whole.buffered_epochs().saturating_sub(window)).collect();
        let first = epochs.first().copied().unwrap_or(0);
        Self { bank, epochs, first }
    }

    /// The newest covered epoch — for a restored bank, the epoch its snapshot was
    /// taken at.
    pub fn snapshot_epoch(&self) -> Option<Epoch> {
        self.epochs.last().copied()
    }

    /// The whole bank behind the view, span or not.
    pub fn bank(&self) -> &WindowBank {
        self.bank.get()
    }

    /// Node identifiers holding a window, ascending.
    pub fn source_nodes(&self) -> &[NodeId] {
        self.bank().node_ids()
    }

    /// The epochs covered by the windows, oldest first (the last one is the epoch the
    /// query is answered at).
    pub fn covered_epochs(&self) -> &[Epoch] {
        &self.epochs
    }

    /// Every buffered `(epoch, value)` sample of one node, oldest first.
    pub fn samples(&self, node: NodeId) -> &[(Epoch, f64)] {
        span_of(self.bank().window(node), self.first)
    }

    /// Replaces `best` with the node's `k` highest-valued samples, best first (ties
    /// toward older epochs).  A borrowed bank's window reads them off the list it keeps
    /// across feeds ([`SlidingWindow::top_k_since`]); an owned bank is read once, so its
    /// windows are scanned once ([`top_k_into`]: one pass over the span for a `k` of at
    /// most eight, a selection beyond).
    pub(crate) fn local_top_k(&mut self, node: NodeId, k: usize, best: &mut Vec<(Epoch, f64)>) {
        match &mut self.bank {
            Bank::Borrowed(bank) => match bank.window_mut(node) {
                Some(window) => window.top_k_since(self.first, k, best),
                None => best.clear(),
            },
            Bank::Owned(bank) => top_k_into(span_of(bank.window(node), self.first), k, best),
        }
    }

    /// Replaces `found` with the node's samples of value at least `threshold`, oldest
    /// first.
    pub(crate) fn values_at_least(&self, node: NodeId, threshold: f64, found: &mut Vec<(Epoch, f64)>) {
        let scanned = self.samples(node);
        found.clear();
        found.extend(scanned.iter().filter(|&&(_, v)| v >= threshold));
    }

    /// The node's value at `epoch`, if buffered.
    pub fn value_at(&self, node: NodeId, epoch: Epoch) -> Option<f64> {
        if epoch < self.first {
            return None;
        }
        self.bank().window(node).and_then(|w| w.get(epoch))
    }

    /// Number of samples the node's window currently buffers.
    pub(crate) fn window_len(&self, node: NodeId) -> usize {
        self.samples(node).len()
    }
}

impl BankWindows<'static> {
    /// Fills every node's window by running `workload` for `window` epochs — the
    /// buffering each KSpot client performs during normal operation before the historic
    /// query arrives — and opens the view over all of it.
    pub fn collect(workload: &mut Workload, window: usize) -> Self {
        let mut bank = WindowBank::new(window);
        for _ in 0..window {
            bank.feed(&workload.next_epoch());
        }
        Self::owned(bank, window)
    }
}

/// An owned view clones with its bank (`&mut WindowBank` is not `Clone`); a clone always
/// owns its copy.
impl Clone for BankWindows<'static> {
    fn clone(&self) -> Self {
        Self { bank: Bank::Owned(self.bank().clone()), epochs: self.epochs.clone(), first: self.first }
    }
}

/// A one-shot historic Top-K execution strategy.
pub trait HistoricAlgorithm {
    /// Short human-readable name.
    fn name(&self) -> &'static str;

    /// Executes the query over the windows of `data`, moving traffic through `net`,
    /// and returns the ranked answer available at the sink.
    fn execute(&mut self, net: &mut Network, data: &mut BankWindows<'_>) -> TopKResult;
}

/// Ships every node's entire window to the sink — the no-pruning upper bound.
#[derive(Debug, Clone)]
pub struct CentralizedHistoric {
    spec: HistoricSpec,
}

impl CentralizedHistoric {
    /// Creates the executor.
    pub fn new(spec: HistoricSpec) -> Self {
        Self { spec }
    }
}

impl HistoricAlgorithm for CentralizedHistoric {
    fn name(&self) -> &'static str {
        "centralized window collection"
    }

    fn execute(&mut self, net: &mut Network, data: &mut BankWindows<'_>) -> TopKResult {
        let epoch = data.covered_epochs().last().copied().unwrap_or(0);
        // Each node transmits its own window plus every descendant window it relays; the
        // window owners are threaded through the relays so that under fault injection
        // the sink answers from the windows that were actually delivered.
        let mut inbox: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
        for node in net.tree().post_order() {
            if !net.node_participating(node) {
                continue;
            }
            let mut owners: Vec<NodeId> = inbox.remove(&node).unwrap_or_default();
            owners.push(node);
            let tuples: usize = owners.iter().map(|&o| data.window_len(o)).sum();
            net.charge_cpu(node, tuples as u32);
            if let Some(parent) = net.send_report_up(node, epoch, tuples as u32, 0, PhaseTag::Update)
            {
                inbox.entry(parent).or_default().extend(owners);
            }
        }
        let delivered = inbox.remove(&kspot_net::SINK).unwrap_or_default();
        exact_over_source(data, &self.spec, &delivered)
    }
}

/// The horizontally fragmented historic strategy of Section III-B: each node first
/// aggregates its *own* window locally (a cheap flash scan instead of radio traffic) and
/// only the per-node aggregate enters a single in-network round.
///
/// The returned ranking is over groups (rooms), scored by the aggregate of their
/// members' window aggregates, which for AVG over equal-length windows equals the
/// group's exact window average.
#[derive(Debug, Clone)]
pub struct LocalAggregateHistoric {
    spec: SnapshotSpec,
}

impl LocalAggregateHistoric {
    /// Creates the executor; the spec describes the group ranking (like a snapshot).
    pub fn new(spec: SnapshotSpec) -> Self {
        Self { spec }
    }
}

impl HistoricAlgorithm for LocalAggregateHistoric {
    fn name(&self) -> &'static str {
        "local filter + MINT update"
    }

    /// Executes the query: local window aggregation followed by one TAG-style round over
    /// the per-node aggregates.  Nodes that are dead or asleep at query time contribute
    /// nothing (their flash is unreachable).
    fn execute(&mut self, net: &mut Network, data: &mut BankWindows<'_>) -> TopKResult {
        let epoch = data.covered_epochs().last().copied().unwrap_or(0);
        let mut readings = Vec::new();
        let mut values = Vec::new();
        for node in data.source_nodes().to_vec() {
            if !can_answer(net, node) {
                continue;
            }
            values.clear();
            values.extend(data.samples(node).iter().map(|&(_, v)| v));
            net.charge_cpu(node, values.len() as u32);
            if let Some(v) = exact_aggregate(self.spec.func, &values) {
                readings.push(Reading::new(node, net.deployment().group_of(node), epoch, v));
            }
        }
        let sink_view = convergecast_full(net, &readings, &self.spec, PhaseTag::Update, &Unbounded, |_, _| {});
        rank_view(&sink_view, self.spec.k, epoch)
    }
}

/// The omniscient answer over every window `data` holds, for this crate's unit tests.
#[cfg(test)]
pub(crate) fn exact_reference(data: &mut BankWindows<'_>, spec: &HistoricSpec) -> TopKResult {
    let nodes = data.source_nodes().to_vec();
    exact_over_source(data, spec, &nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kspot_net::{Deployment, NetworkConfig, RoomModelParams};

    fn dataset(window: usize, master_seed: u64) -> (Deployment, BankWindows<'static>) {
        // One master seed, split into per-component streams (see `kspot_net::rng`).
        let d = Deployment::clustered_rooms(4, 4, 20.0, kspot_net::rng::topology_seed(master_seed));
        let mut w = Workload::room_correlated(
            &d,
            ValueDomain::percentage(),
            RoomModelParams::default(),
            kspot_net::rng::workload_seed(master_seed),
        );
        let data = BankWindows::collect(&mut w, window);
        (d, data)
    }

    #[test]
    fn dataset_collects_one_window_per_node() {
        let (d, data) = dataset(32, 3);
        assert_eq!(data.source_nodes(), d.node_ids());
        assert_eq!(data.covered_epochs().len(), 32);
        for node in d.node_ids() {
            assert_eq!(data.window_len(node), 32);
        }
        assert!(data.value_at(1, 5).is_some());
        assert!(data.value_at(1, 999).is_none());
    }

    #[test]
    fn exact_reference_ranks_epochs_by_network_average() {
        let (_, mut data) = dataset(16, 7);
        let spec = HistoricSpec::new(3, AggFunc::Avg, ValueDomain::percentage(), 16);
        let reference = exact_reference(&mut data, &spec);
        assert_eq!(reference.items.len(), 3);
        // Best-first ordering.
        assert!(reference.items[0].value >= reference.items[1].value);
        assert!(reference.items[1].value >= reference.items[2].value);
        // Keys are epochs inside the window.
        for item in &reference.items {
            assert!(data.covered_epochs().contains(&item.key));
        }
    }

    #[test]
    fn centralized_historic_is_exact_and_ships_whole_windows() {
        let (d, mut data) = dataset(16, 9);
        let spec = HistoricSpec::new(2, AggFunc::Avg, ValueDomain::percentage(), 16);
        let mut net = Network::new(d, NetworkConfig::ideal());
        let result = CentralizedHistoric::new(spec).execute(&mut net, &mut data);
        assert!(result.same_ranking(&exact_reference(&mut data, &spec)));
        // Every node sends at least its own 16 samples.
        for id in net.deployment().node_ids() {
            assert!(net.metrics().node(id).tuples_sent >= 16);
        }
    }

    #[test]
    fn local_aggregate_historic_matches_group_window_averages() {
        let (d, mut data) = dataset(24, 11);
        let spec = SnapshotSpec::new(2, AggFunc::Avg, ValueDomain::percentage());
        let mut net = Network::new(d.clone(), NetworkConfig::ideal());
        let result = LocalAggregateHistoric::new(spec).execute(&mut net, &mut data);

        // Omniscient group averages over the whole window.
        let mut per_group: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        for node in d.node_ids() {
            let vals = data.samples(node).iter().map(|&(_, v)| v);
            per_group.entry(u64::from(d.group_of(node))).or_default().extend(vals);
        }
        let mut expected: Vec<RankedItem> = per_group
            .into_iter()
            .map(|(g, vals)| RankedItem::new(g, vals.iter().sum::<f64>() / vals.len() as f64))
            .collect();
        expected.sort_by(|a, b| kspot_net::types::cmp_value(b.value, a.value).then(a.key.cmp(&b.key)));
        expected.truncate(2);

        assert_eq!(result.keys(), expected.iter().map(|i| i.key).collect::<Vec<_>>());
        for (got, want) in result.items.iter().zip(expected.iter()) {
            assert!((got.value - want.value).abs() < 1e-9);
        }
        // Only one tuple per node entered the network, far below the 24-sample windows.
        assert!(net.metrics().totals().tuples < (24 * d.num_nodes()) as u64);
    }

    #[test]
    fn bank_view_is_byte_identical_to_a_dataset_holding_the_same_samples() {
        // The engine's shared bank, borrowed, and the dataset a submission collects for
        // itself from the same workload stream (an owned bank) must drive every historic
        // algorithm to the same answer and the same traffic — whether the span is the
        // whole bank, the tail of a bank that remembers more, or nothing at all.
        use crate::tja::Tja;
        use crate::tput::Tput;
        let d = Deployment::clustered_rooms(4, 4, 20.0, kspot_net::rng::topology_seed(31));
        let workload = || {
            Workload::room_correlated(
                &d,
                ValueDomain::percentage(),
                RoomModelParams::default(),
                kspot_net::rng::workload_seed(31),
            )
        };
        for (fed, capacity, span) in [(24, 24, 24), (24, 24, 8), (0, 4, 4)] {
            let mut bank = WindowBank::new(capacity);
            let mut w = workload();
            for _ in 0..fed {
                bank.feed(&w.next_epoch());
            }
            // The owned bank holds the span's epochs and no others.
            let mut replay = workload();
            let owned = if fed == 0 {
                BankWindows::owned(WindowBank::new(span), span)
            } else {
                for _ in span..fed {
                    replay.next_epoch();
                }
                BankWindows::collect(&mut replay, span)
            };
            assert_eq!(BankWindows::new(&mut bank, span).covered_epochs(), owned.covered_epochs());

            let spec = HistoricSpec::new(3, AggFunc::Avg, ValueDomain::percentage(), span);
            let algos: [&mut dyn HistoricAlgorithm; 3] =
                [&mut Tja::new(spec), &mut Tput::new(spec), &mut CentralizedHistoric::new(spec)];
            for algo in algos {
                let case = format!("{} over {span} of {fed} epochs", algo.name());
                let mut borrowed_net = Network::new(d.clone(), NetworkConfig::ideal());
                let from_borrowed = algo.execute(&mut borrowed_net, &mut BankWindows::new(&mut bank, span));
                let mut owned_net = Network::new(d.clone(), NetworkConfig::ideal());
                let from_owned = algo.execute(&mut owned_net, &mut owned.clone());
                assert_eq!(from_borrowed, from_owned, "{case}: diverged between views");
                assert_eq!(
                    borrowed_net.metrics().totals(),
                    owned_net.metrics().totals(),
                    "{case}: moved different traffic between views"
                );
                assert_eq!(from_borrowed.items.is_empty(), fed == 0, "{case}");
            }
        }
    }

    #[test]
    fn a_node_without_a_window_relays_and_a_window_without_a_node_is_ignored() {
        // Node 6 of the grid never fed the bank; node 99, which the grid does not
        // have, did.  Every strategy answers over the fourteen windows both know of.
        use crate::tja::Tja;
        use crate::tput::Tput;
        let d = Deployment::grid(4, 10.0, Some(4));
        let mut w = Workload::room_correlated(&d, ValueDomain::percentage(), RoomModelParams::default(), 5);
        let (mut bank, mut native) = (WindowBank::new(16), WindowBank::new(16));
        for _ in 0..16 {
            let mut readings = w.next_epoch();
            readings.retain(|r| r.node != 6);
            native.feed(&readings);
            readings.push(Reading::new(99, 0, readings[0].epoch, 100.0));
            bank.feed(&readings);
        }
        let owners: Vec<NodeId> = d.node_ids().into_iter().filter(|&node| node != 6).collect();
        let spec = HistoricSpec::new(3, AggFunc::Avg, ValueDomain::percentage(), 16);
        let exact = exact_over_source(&mut BankWindows::new(&mut bank, 16), &spec, &owners);

        let vertical: [&mut dyn HistoricAlgorithm; 3] =
            [&mut Tja::new(spec), &mut Tput::new(spec), &mut CentralizedHistoric::new(spec)];
        for algo in vertical {
            let mut net = Network::new(d.clone(), NetworkConfig::ideal());
            let result = algo.execute(&mut net, &mut BankWindows::new(&mut bank, 16));
            assert!(result.same_ranking(&exact) && result.approx_eq(&exact, 1e-9), "{}: {result}", algo.name());
        }

        // TJA's Lower-Bound report is made even when empty: one per node, 6 included.
        let mut net = Network::new(d.clone(), NetworkConfig::ideal());
        Tja::new(spec).execute(&mut net, &mut BankWindows::new(&mut bank, 16));
        assert_eq!(net.metrics().phase(PhaseTag::LowerBound).messages, 16);

        // The horizontal strategy: as if window 99 were not there.
        let spec = SnapshotSpec::new(2, AggFunc::Avg, ValueDomain::percentage());
        let run = |bank: &mut WindowBank| {
            let mut net = Network::new(d.clone(), NetworkConfig::ideal());
            let result = LocalAggregateHistoric::new(spec).execute(&mut net, &mut BankWindows::new(bank, 16));
            (result, net.metrics().totals())
        };
        assert_eq!(run(&mut bank), run(&mut native));
    }

    #[test]
    fn bank_view_limits_the_span_to_the_last_window_epochs() {
        // A session with a shorter WITH HISTORY span than the bank's capacity must see
        // only its own window — never the extra history the bank keeps for others.
        let mut bank = WindowBank::new(8);
        for e in 0..8u64 {
            // Node 1's hottest sample (99.0) sits in the *old* half of the bank.
            let v = if e == 1 { 99.0 } else { e as f64 };
            bank.feed(&[Reading::new(1, 0, e, v), Reading::new(2, 0, e, 10.0 + e as f64)]);
        }
        // Borrowed like the engine's live bank, owned like a restored one: one view.
        fn check(mut view: BankWindows<'_>) {
            assert_eq!(view.covered_epochs(), [4, 5, 6, 7]);
            assert_eq!(view.source_nodes(), [1, 2]);
            assert_eq!(view.window_len(1), 4);
            assert_eq!(view.value_at(1, 1), None, "out-of-span lookups miss");
            assert_eq!(view.value_at(1, 5), Some(5.0));
            assert_eq!(view.value_at(9, 5), None, "unknown nodes hold no window");
            let mut found = Vec::new();
            view.local_top_k(1, 2, &mut found);
            assert_eq!(found, [(7, 7.0), (6, 6.0)]);
            view.values_at_least(1, 6.0, &mut found);
            assert_eq!(found, [(6, 6.0), (7, 7.0)]);
            assert_eq!(view.samples(2).first(), Some(&(4, 14.0)));
            assert!(view.samples(9).is_empty(), "unknown nodes hold nothing");
        }
        let owned = BankWindows::owned(bank.clone(), 4);
        assert_eq!(owned.snapshot_epoch(), Some(7));
        check(owned.clone());
        check(owned);
        check(BankWindows::new(&mut bank, 4));

        let mut empty = BankWindows::owned(WindowBank::new(4), 4);
        assert!(empty.covered_epochs().is_empty());
        assert_eq!(empty.snapshot_epoch(), None);
        assert_eq!(empty.window_len(1), 0);
        let mut found = vec![(0, 0.0)];
        empty.local_top_k(1, 3, &mut found);
        assert!(found.is_empty());
    }

    #[test]
    #[should_panic(expected = "sum-decomposable")]
    fn historic_spec_rejects_max() {
        let _ = HistoricSpec::new(3, AggFunc::Max, ValueDomain::percentage(), 8);
    }

    #[test]
    #[should_panic(expected = "k > 0")]
    fn historic_spec_rejects_zero_k() {
        let _ = HistoricSpec::new(0, AggFunc::Avg, ValueDomain::percentage(), 8);
    }
}
