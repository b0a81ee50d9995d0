//! TAG in-network aggregation with a sink-side Top-K operator.
//!
//! This is the strategy the paper describes as the natural extension of TinyDB: every
//! node forwards `(group, partial aggregate)` tuples for *all* groups present in its
//! subtree, partial states merge on the way up, and a new Top-K operator at the sink
//! prunes the answer space centrally.  It is exact, and it is the baseline KSpot's
//! System Panel measures its savings against.
//!
//! This module also holds `convergecast_full`, the one convergecast loop of the crate:
//! TAG runs it as is, the naive strategy and MINT plug their pruning in as its
//! `shrink` step, and the local-aggregate historic strategy feeds it per-node window
//! aggregates.  The views it builds are the rows of one dense table, a row per node
//! and a slot per group of the deployment ([`crate::view`]); the loop keeps the table
//! and a copy of the tree's post-order from sweep to sweep, so a steady-state sweep
//! allocates only the sink view it returns and looks nothing up in a map.  The sweep
//! writes no row before it needs one: a node's row is born at the first delivery into
//! it, by adopting the sender's row, or else at the node's own turn, and a report moves
//! its row up the tree through the table's index instead of copying its states.  A row
//! carries its length, and in MINT's pruned sweep a summary of its γ bounds that every
//! delivery keeps up to date.

use crate::result::{RankedItem, TopKResult};
use crate::snapshot::{SnapshotAlgorithm, SnapshotSpec};
use crate::view::{Bounds, GroupTable, GroupView, Row, Unbounded};
use kspot_net::{Network, NodeId, PhaseTag, Reading, SINK};
use std::cell::RefCell;

/// TAG with a centralized Top-K operator at the sink.
#[derive(Debug, Clone)]
pub struct TagTopK {
    spec: SnapshotSpec,
}

impl TagTopK {
    /// Creates the executor.
    pub fn new(spec: SnapshotSpec) -> Self {
        Self { spec }
    }
}

/// The working memory of [`convergecast_full`].
#[derive(Default)]
struct SweepScratch {
    /// Row `id` is the view node `id` is building this sweep, row 0 the sink's; laid
    /// out afresh by every sweep, each row born at its first delivery or its node's turn.
    table: GroupTable,
    /// The routing tree's post-order, copied so that the sweep can hold the network
    /// mutably while walking it.
    order: Vec<NodeId>,
    /// The buffer [`rank_view`] ranks a sink view in; the answer is its head, copied out.
    ranked: Vec<RankedItem>,
}

thread_local! {
    /// One scratch per thread, not per session: sweeps on a thread run one after the
    /// other and every sweep lays the table out afresh, while a table per resident
    /// session, O(nodes × groups) at `(N + 1) · (8⌈G / 64⌉ + 24 G + 44)` bytes each —
    /// a mask word per 64 groups, a state per group, and per row its length, summary,
    /// storage index and own reading — would raise peak RSS (ADR-004, "Host
    /// representation").
    static SCRATCH: RefCell<SweepScratch> = RefCell::default();
}

/// Runs one TAG convergecast: every node merges its reading with its children's views
/// and forwards the complete merged view to its parent.  Returns the sink's merged view.
///
/// `phase` lets callers label the traffic (MINT's Creation phase is this sweep under
/// another label).  `shrink` is applied to each node's merged view — its row of the
/// sweep's table — right before transmission, which is how the naive strategy plugs in
/// its local truncation and MINT its bound-based pruning; TAG passes a no-op.  It must
/// not sweep itself.  Every row keeps a summary of `bounds` that its `shrink` step may
/// read, when they are kept: MINT's pruned sweep passes its γ bounds, every other sweep
/// [`Unbounded`], and pays nothing for it.
///
/// Under fault injection the convergecast degrades to partial data: dead or sleeping
/// nodes contribute nothing and are routed around (reports go to the nearest
/// participating ancestor), and a report that is dropped after its ARQ retries simply
/// never reaches the parent — the sink's view then covers exactly the data that was
/// delivered.  Liveness is asked of the network at every step and never remembered: a
/// battery can give out in the middle of a sweep.
///
/// Reports go through [`Network::send_report_up`], so on a frame-batching substrate
/// each per-node report is an *intent* that the scheduler merges with every other
/// session's report for the same hop; the returned delivery outcome is the merged
/// frame's fate, shared by all riders.
///
/// A node's row is born at the first delivery into it — it adopts the sender's row and
/// folds its own reading in, as `own.merge(sent)` — or, when nothing reached it, at its
/// own turn as its own reading alone; every later delivery merges into it on arrival.
/// Children precede parents in post-order, so each group's state sees its
/// contributions in the order own reading, then children as they arrive (ADR-004,
/// "Host representation" and "Snapshot kernel v5").  A reading whose node is the sink or
/// not a node of this network is ignored; of several readings for one node the last
/// wins.  A reading of a group the deployment lacks is kept like any other.
pub(crate) fn convergecast_full<B: Bounds>(
    net: &mut Network,
    readings: &[Reading],
    spec: &SnapshotSpec,
    phase: PhaseTag,
    bounds: &B,
    mut shrink: impl FnMut(NodeId, &mut Row<'_>),
) -> GroupView {
    #[cfg(test)]
    if crate::reference::in_use() {
        return crate::reference::convergecast_rows(net, readings, spec, phase, bounds, shrink);
    }
    let epoch = readings.first().map(|r| r.epoch).unwrap_or(0);
    let n = net.num_nodes();
    SCRATCH.with_borrow_mut(|SweepScratch { table, order, .. }| {
        order.clear();
        order.extend_from_slice(net.tree().post_order_slice());
        let own = readings.iter().filter(|r| r.node != SINK && r.node as usize <= n);
        let d = net.deployment();
        table.lay_out(d.groups(), d.group_slots(), n + 1, own);
        for &node in order.iter() {
            if !net.node_participating(node) {
                continue;
            }
            table.start(node as usize, spec.func, bounds);
            net.charge_cpu(node, table.len(node as usize) as u32);
            let mut row = table.row(node as usize, net.deployment().groups());
            shrink(node, &mut row);
            let tuples = row.len() as u32;
            if tuples == 0 {
                continue;
            }
            if let Some(receiver) = net.send_report_up(node, epoch, tuples, 0, phase) {
                table.deliver(receiver as usize, node as usize, spec.func, bounds);
            }
        }
        table.to_view(SINK as usize, spec.func, net.deployment().groups())
    })
}

/// Ranks a sink view by partial value and truncates to `k` (for TAG the sink view is
/// complete, so partial values are exact).  The view is ranked in a buffer the thread
/// keeps beside its sweep's table, so only the answer is allocated.
pub(crate) fn rank_view(view: &GroupView, k: usize, epoch: kspot_net::Epoch) -> TopKResult {
    SCRATCH.with_borrow_mut(|SweepScratch { ranked, .. }| {
        ranked.clear();
        ranked.reserve(view.len());
        ranked.extend(
            view.iter().filter_map(|(g, s)| s.partial_value(view.func()).map(|v| RankedItem::new(u64::from(g), v))),
        );
        TopKResult::best_of(epoch, ranked, k)
    })
}

impl SnapshotAlgorithm for TagTopK {
    fn name(&self) -> &'static str {
        "TAG + sink Top-K"
    }

    fn execute_epoch(&mut self, net: &mut Network, readings: &[Reading]) -> TopKResult {
        let epoch = readings.first().map(|r| r.epoch).unwrap_or(0);
        let sink_view = convergecast_full(net, readings, &self.spec, PhaseTag::Update, &Unbounded, |_, _| {});
        rank_view(&sink_view, self.spec.k, epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{exact_reference, run_continuous};
    use kspot_net::types::ValueDomain;
    use kspot_net::{Deployment, NetworkConfig, RoomModelParams, Workload};
    use kspot_query::AggFunc;

    fn figure1_net() -> (Network, Vec<Reading>) {
        let d = Deployment::figure1();
        let readings = Workload::figure1(&d).next_epoch();
        (Network::new(d, NetworkConfig::ideal()), readings)
    }

    #[test]
    fn tag_answers_figure1_correctly() {
        let (mut net, readings) = figure1_net();
        let spec = SnapshotSpec::new(1, AggFunc::Avg, ValueDomain::percentage());
        let mut tag = TagTopK::new(spec);
        let result = tag.execute_epoch(&mut net, &readings);
        assert_eq!(result.top().unwrap().key, 2, "room C is the correct Top-1 answer");
        assert!((result.top().unwrap().value - 75.0).abs() < 1e-9);
    }

    #[test]
    fn tag_sends_one_message_per_node_per_epoch() {
        let (mut net, readings) = figure1_net();
        let spec = SnapshotSpec::new(1, AggFunc::Avg, ValueDomain::percentage());
        TagTopK::new(spec).execute_epoch(&mut net, &readings);
        assert_eq!(net.metrics().totals().messages, 9);
        // Tuple counts follow subtree group diversity: leaves send 1 tuple, node 4 sends
        // 2 (rooms B and D), node 7 sends 2 (it merges its D children with B from s4),
        // node 2 sends 2 (rooms A and B).
        assert_eq!(net.metrics().node(9).tuples_sent, 1);
        assert_eq!(net.metrics().node(4).tuples_sent, 2);
        assert_eq!(net.metrics().node(7).tuples_sent, 2);
        assert_eq!(net.metrics().node(2).tuples_sent, 2);
    }

    #[test]
    fn tag_matches_the_exact_reference_on_random_workloads() {
        let d = Deployment::clustered_rooms(6, 4, 20.0, kspot_net::rng::topology_seed(42));
        let mut net = Network::new(d.clone(), NetworkConfig::ideal());
        let spec = SnapshotSpec::new(3, AggFunc::Avg, ValueDomain::percentage());
        let workload_seed = kspot_net::rng::workload_seed(42);
        let mut workload =
            Workload::room_correlated(&d, ValueDomain::percentage(), RoomModelParams::default(), workload_seed);
        let mut reference_workload =
            Workload::room_correlated(&d, ValueDomain::percentage(), RoomModelParams::default(), workload_seed);
        let mut tag = TagTopK::new(spec);
        let produced = run_continuous(&mut tag, &mut net, &mut workload, 20);
        for result in &produced {
            let readings = reference_workload.next_epoch();
            let reference = exact_reference(&spec, &readings);
            assert!(result.same_ranking(&reference), "TAG must be exact every epoch");
            assert!(result.approx_eq(&reference, 1e-9));
        }
    }

    /// A 3-node fan-in whose sums depend on their order in `f64`: node 1 reads 1.0, its
    /// children 1e16 and −1e16, in the order they report.  The group sums "own reading,
    /// then children as they arrive" — `(1 + 1e16) − 1e16 = 0` — however node 1's row is
    /// born: folding its own reading in at its own turn instead would sum
    /// `(1e16 − 1e16) + 1 = 1`.
    #[test]
    fn a_group_sums_its_own_reading_first_then_its_children_as_they_arrive() {
        use kspot_net::topology::{NodeSpec, Position};
        let nodes = (1..=3).map(|id| NodeSpec { id, position: Position::new(f64::from(id), 0.0), group: 7 }).collect();
        let parents = [(1, SINK), (2, 1), (3, 1)].into_iter().collect();
        let d = Deployment::from_parts(Position::new(0.0, 0.0), nodes, 5.0).with_explicit_parents(parents);
        let mut net = Network::new(d, NetworkConfig::ideal());
        let children: Vec<NodeId> = net.tree().post_order().into_iter().filter(|&n| n != 1).collect();
        let (own, first, second) = (1.0, 1e16, -1e16);
        let readings =
            [(1, own), (children[0], first), (children[1], second)].map(|(node, v)| Reading::new(node, 7, 0, v));
        let spec = SnapshotSpec::new(1, AggFunc::Sum, ValueDomain::percentage());
        net.begin_epoch(0);
        let view = convergecast_full(&mut net, &readings, &spec, PhaseTag::Update, &Unbounded, |_, _| {});
        let arrival_order = (own + first) + second;
        let children_first = (first + second) + own;
        assert_ne!(arrival_order.to_bits(), children_first.to_bits(), "the values must tell the two orders apart");
        let sum = view.get(7).expect("the group reaches the sink").partial_value(AggFunc::Sum).expect("a sum");
        assert_eq!(
            sum.to_bits(),
            arrival_order.to_bits(),
            "the group summed to {sum}: own reading, then children as they arrive, sums to {arrival_order}; \
             children first, then the own reading, to {children_first}"
        );
    }

    #[test]
    fn tag_works_for_every_aggregate_function() {
        for func in [AggFunc::Avg, AggFunc::Sum, AggFunc::Min, AggFunc::Max, AggFunc::Count] {
            let (mut net, readings) = figure1_net();
            let spec = SnapshotSpec::new(2, func, ValueDomain::percentage());
            let result = TagTopK::new(spec).execute_epoch(&mut net, &readings);
            let reference = exact_reference(&spec, &readings);
            assert!(result.same_ranking(&reference), "{func} ranking mismatch");
        }
    }
}
