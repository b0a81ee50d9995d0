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
//! aggregates.  The loop works in memory it keeps from sweep to sweep (one view per
//! node, a copy of the tree's post-order and one merge buffer), so a steady-state sweep
//! allocates only the sink view it returns and looks nothing up in a map.

use crate::agg::AggState;
use crate::result::{RankedItem, TopKResult};
use crate::snapshot::{SnapshotAlgorithm, SnapshotSpec};
use crate::view::GroupView;
use kspot_net::{GroupId, Network, NodeId, PhaseTag, Reading, SINK};
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

    /// The spec the executor runs.
    pub fn spec(&self) -> &SnapshotSpec {
        &self.spec
    }
}

/// The working memory of [`convergecast_full`].
#[derive(Default)]
struct SweepScratch {
    /// `views[id]` is the view node `id` is building this sweep; `views[0]` is the
    /// sink's.  Emptied, not dropped, between sweeps.
    views: Vec<GroupView>,
    /// The routing tree's post-order, copied so that the sweep can hold the network
    /// mutably while walking it.
    order: Vec<NodeId>,
    /// The buffer every [`GroupView::merge`] of the sweep merges into.
    merged: Vec<(GroupId, AggState)>,
}

thread_local! {
    /// One scratch per thread, not per session: sweeps on a thread run one after the
    /// other, every sweep starts by emptying the views, and an engine keeps hundreds of
    /// sessions (finished ones included) whose buffers would otherwise each stay
    /// allocated at O(nodes × groups).
    static SCRATCH: RefCell<SweepScratch> = RefCell::default();
}

/// Runs one TAG convergecast: every node merges its reading with its children's views
/// and forwards the complete merged view to its parent.  Returns the sink's merged view.
///
/// `phase` lets callers label the traffic (MINT's Creation phase is this sweep under
/// another label).  `shrink` is applied to each node's merged view right before
/// transmission, which is how the naive strategy plugs in its local truncation and MINT
/// its bound-based pruning; TAG passes a no-op.  It must not sweep itself.
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
/// Every view starts from the node's own reading and a delivered child view is merged
/// into its receiver's on arrival: children precede parents in post-order, so each
/// group's state sees `add`/`merge` in the order own reading, then children as they
/// arrive (ADR-004, "Host representation").  A reading whose node is the sink or not a
/// node of this network is ignored; of several readings for one node the last wins.
pub(crate) fn convergecast_full(
    net: &mut Network,
    readings: &[Reading],
    spec: &SnapshotSpec,
    phase: PhaseTag,
    mut shrink: impl FnMut(NodeId, &mut GroupView),
) -> GroupView {
    #[cfg(test)]
    if crate::reference::in_use() {
        return crate::reference::convergecast_full(net, readings, spec, phase, shrink);
    }
    let epoch = readings.first().map(|r| r.epoch).unwrap_or(0);
    let n = net.num_nodes();
    SCRATCH.with_borrow_mut(|SweepScratch { views, order, merged }| {
        order.clear();
        order.extend_from_slice(net.tree().post_order_slice());
        // Only ever grown: a thread may alternate between networks of different sizes.
        if views.len() <= n {
            views.resize_with(n + 1, || GroupView::new(spec.func));
        }
        let views = &mut views[..=n];
        for view in views.iter_mut() {
            view.reset(spec.func);
        }
        for r in readings {
            if r.node != SINK && r.node as usize <= n {
                let view = &mut views[r.node as usize];
                view.reset(spec.func);
                view.add_reading(r.group, r.value);
            }
        }
        for &node in order.iter() {
            if !net.node_participating(node) {
                continue;
            }
            let view = &mut views[node as usize];
            net.charge_cpu(node, view.len() as u32);
            shrink(node, view);
            if view.is_empty() {
                continue;
            }
            if let Some(receiver) = net.send_report_up(node, epoch, view.len() as u32, 0, phase) {
                // Lift the sent view out so its receiver's can be borrowed beside it.
                let sent = std::mem::replace(view, GroupView::new(spec.func));
                views[receiver as usize].merge(&sent, merged);
                views[node as usize] = sent;
            }
        }
        views[SINK as usize].clone()
    })
}

/// Ranks a sink view by partial value and truncates to `k` (for TAG the sink view is
/// complete, so partial values are exact).
pub(crate) fn rank_view(view: &GroupView, k: usize, epoch: kspot_net::Epoch) -> TopKResult {
    let items = view
        .partial_values()
        .into_iter()
        .map(|(g, v)| RankedItem::new(u64::from(g), v))
        .collect();
    TopKResult::top_k(epoch, items, k)
}

impl SnapshotAlgorithm for TagTopK {
    fn name(&self) -> &'static str {
        "TAG + sink Top-K"
    }

    fn execute_epoch(&mut self, net: &mut Network, readings: &[Reading]) -> TopKResult {
        let epoch = readings.first().map(|r| r.epoch).unwrap_or(0);
        let sink_view = convergecast_full(net, readings, &self.spec, PhaseTag::Update, |_, _| {});
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
