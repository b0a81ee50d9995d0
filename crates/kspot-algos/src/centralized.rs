//! Centralized collection — every raw tuple is shipped to the base station.
//!
//! This is the "transfer all tuples to the querying node" strawman of the paper's
//! introduction: no in-network aggregation at all, every node relays every raw reading
//! of its subtree towards the sink, and the sink computes the grouping, aggregation and
//! ranking locally.  It is exact and maximally expensive, bounding the other strategies
//! from above.

use crate::result::TopKResult;
use crate::snapshot::{index_readings, ReferenceScratch, SnapshotAlgorithm, SnapshotSpec};
use kspot_net::{Network, NodeId, PhaseTag, Reading, SINK};

/// Raw tuple collection with sink-side processing.
#[derive(Debug, Clone)]
pub struct CentralizedCollection {
    spec: SnapshotSpec,
    /// `batches[id]` holds the raw tuples node `id` has to forward this epoch
    /// (`batches[0]`: what reached the sink).  Emptied, not dropped, between epochs.
    batches: Vec<Vec<Reading>>,
    /// The routing tree's post-order, copied so the sweep can hold the network mutably.
    order: Vec<NodeId>,
    /// `reading_at[id]` is the position of node `id`'s reading in the epoch's readings.
    reading_at: Vec<Option<u32>>,
    sink: ReferenceScratch,
}

impl CentralizedCollection {
    /// Creates the executor.
    pub fn new(spec: SnapshotSpec) -> Self {
        Self {
            spec,
            batches: Vec::new(),
            order: Vec::new(),
            reading_at: Vec::new(),
            sink: ReferenceScratch::default(),
        }
    }
}

impl SnapshotAlgorithm for CentralizedCollection {
    fn name(&self) -> &'static str {
        "centralized collection"
    }

    fn execute_epoch(&mut self, net: &mut Network, readings: &[Reading]) -> TopKResult {
        let epoch = readings.first().map(|r| r.epoch).unwrap_or(0);
        // Every node transmits its own raw tuple plus every tuple it relays for its
        // descendants; on a healthy network the per-node tuple count is exactly the
        // subtree size.  The raw readings are threaded through the relays so that under
        // fault injection the sink honestly answers from what was *delivered*: a
        // dropped report loses the whole batch it carried.  Reports enter through the
        // scheduler-aware send_report_up, so under frame batching the raw batch rides
        // the hop's shared frame.
        //
        // A delivered batch is appended to its receiver's on arrival and a node adds
        // its own tuple at its turn — children's tuples first, in arrival order, own
        // tuple last.  Readings of the sink or of no node of this network are ignored;
        // of several readings for one node the last wins.
        let n = net.num_nodes();
        self.order.clear();
        self.order.extend_from_slice(net.tree().post_order_slice());
        self.batches.resize_with(n + 1, Vec::new);
        self.batches.iter_mut().for_each(Vec::clear);
        index_readings(&mut self.reading_at, n, readings.iter().enumerate());
        for &node in &self.order {
            if !net.node_participating(node) {
                continue;
            }
            let batch = &mut self.batches[node as usize];
            batch.extend(self.reading_at[node as usize].map(|at| readings[at as usize]));
            net.charge_cpu(node, batch.len() as u32);
            if batch.is_empty() {
                continue;
            }
            if let Some(receiver) =
                net.send_report_up(node, epoch, batch.len() as u32, 0, PhaseTag::Update)
            {
                let sent = std::mem::take(batch);
                self.batches[receiver as usize].extend_from_slice(&sent);
                self.batches[node as usize] = sent;
            }
        }
        self.sink.rank(&self.spec, &self.batches[SINK as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::exact_reference;
    use crate::tag::TagTopK;
    use kspot_net::types::ValueDomain;
    use kspot_net::{Deployment, NetworkConfig, Workload};
    use kspot_query::AggFunc;

    #[test]
    fn centralized_is_exact_and_counts_relayed_tuples() {
        let d = Deployment::figure1();
        let readings = Workload::figure1(&d).next_epoch();
        let mut net = Network::new(d, NetworkConfig::ideal());
        let spec = SnapshotSpec::new(2, AggFunc::Avg, ValueDomain::percentage());
        let result = CentralizedCollection::new(spec).execute_epoch(&mut net, &readings);
        let reference = exact_reference(&spec, &readings);
        assert!(result.same_ranking(&reference));
        // Node 7 relays itself + nodes 4, 8, 9 = 4 raw tuples.
        assert_eq!(net.metrics().node(7).tuples_sent, 4);
        assert_eq!(net.metrics().node(9).tuples_sent, 1);
        // Total raw tuples on the air = sum of subtree sizes = sum of node depths:
        // three nodes at depth 1, five at depth 2 and one (s9) at depth 3.
        let total: u64 = net.metrics().totals().tuples;
        assert_eq!(total, 3 + 5 * 2 + 3);
    }

    #[test]
    fn centralized_is_never_cheaper_than_tag() {
        let d = Deployment::clustered_rooms(5, 4, 20.0, kspot_net::rng::topology_seed(3));
        let spec = SnapshotSpec::new(3, AggFunc::Avg, ValueDomain::percentage());
        let readings = Workload::room_correlated(
            &d,
            ValueDomain::percentage(),
            kspot_net::RoomModelParams::default(),
            kspot_net::rng::workload_seed(3),
        )
        .next_epoch();

        let mut central_net = Network::new(d.clone(), NetworkConfig::ideal());
        CentralizedCollection::new(spec).execute_epoch(&mut central_net, &readings);
        let mut tag_net = Network::new(d, NetworkConfig::ideal());
        TagTopK::new(spec).execute_epoch(&mut tag_net, &readings);

        assert!(
            central_net.metrics().totals().tuples >= tag_net.metrics().totals().tuples,
            "raw collection must ship at least as many tuples as aggregation"
        );
        assert_eq!(central_net.metrics().totals().messages, tag_net.metrics().totals().messages);
    }
}
