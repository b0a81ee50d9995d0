//! Naive greedy local pruning — the *wrongful* elimination of Figure 1.
//!
//! Each node keeps only the local top-k of its merged view before forwarding it.  This
//! saves tuples, but, as the paper illustrates, a tuple that looks hopeless locally
//! (such as `(D, 39)` at node `s4`) may be exactly the evidence the sink needs to rank
//! the groups correctly.  The strategy is implemented because (a) the paper uses it to
//! motivate MINT and (b) the accuracy study E8 quantifies how often it goes wrong.

use crate::result::TopKResult;
use crate::snapshot::{SnapshotAlgorithm, SnapshotSpec};
use crate::tag::{convergecast_full, rank_view};
use crate::view::Unbounded;
use kspot_net::{GroupId, Network, PhaseTag, Reading, Value};

/// Greedy local top-k truncation at every node (inexact).
#[derive(Debug, Clone)]
pub struct NaiveLocalPrune {
    spec: SnapshotSpec,
    /// The buffer a node's view is ranked in: `(partial value, group, slot)`.
    ranked: Vec<(Value, GroupId, usize)>,
}

impl NaiveLocalPrune {
    /// Creates the executor.
    pub fn new(spec: SnapshotSpec) -> Self {
        Self { spec, ranked: Vec::new() }
    }
}

impl SnapshotAlgorithm for NaiveLocalPrune {
    fn name(&self) -> &'static str {
        "naive local pruning"
    }

    fn execute_epoch(&mut self, net: &mut Network, readings: &[Reading]) -> TopKResult {
        let epoch = readings.first().map(|r| r.epoch).unwrap_or(0);
        let SnapshotSpec { k, func, .. } = self.spec;
        let ranked = &mut self.ranked;
        let sink_view = convergecast_full(net, readings, &self.spec, PhaseTag::Update, &Unbounded, |_, row| {
            row.truncate_to_local_top_k(k, func, ranked);
        });
        // The sink only sees what survived the greedy truncation and has no way to tell
        // how many contributors are missing — it reports the biased partial values.
        rank_view(&sink_view, k, epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::exact_reference;
    use crate::tag::TagTopK;
    use kspot_net::types::ValueDomain;
    use kspot_net::{Deployment, Network, NetworkConfig, Workload};
    use kspot_query::AggFunc;

    #[test]
    fn naive_reproduces_the_figure1_mistake() {
        let d = Deployment::figure1();
        let readings = Workload::figure1(&d).next_epoch();
        let mut net = Network::new(d, NetworkConfig::ideal());
        let spec = SnapshotSpec::new(1, AggFunc::Avg, ValueDomain::percentage());
        let result = NaiveLocalPrune::new(spec).execute_epoch(&mut net, &readings);
        // The paper: "such a strategy will lead to the erroneous answer (D, 76.5),
        // while the correct answer is (C, 75)".
        assert_eq!(result.top().unwrap().key, 3, "naive pruning elects room D");
        assert!((result.top().unwrap().value - 76.5).abs() < 1e-9);
        let reference = exact_reference(&spec, &readings);
        assert_eq!(reference.top().unwrap().key, 2, "the truth is room C");
        assert!(!result.same_ranking(&reference));
    }

    #[test]
    fn naive_never_sends_more_tuples_than_tag() {
        let d = Deployment::clustered_rooms(8, 3, 20.0, kspot_net::rng::topology_seed(9));
        let spec = SnapshotSpec::new(2, AggFunc::Avg, ValueDomain::percentage());
        let readings = Workload::room_correlated(
            &d,
            ValueDomain::percentage(),
            kspot_net::RoomModelParams::default(),
            kspot_net::rng::workload_seed(9),
        )
        .next_epoch();

        let mut naive_net = Network::new(d.clone(), NetworkConfig::ideal());
        NaiveLocalPrune::new(spec).execute_epoch(&mut naive_net, &readings);
        let mut tag_net = Network::new(d, NetworkConfig::ideal());
        TagTopK::new(spec).execute_epoch(&mut tag_net, &readings);

        assert!(naive_net.metrics().totals().tuples <= tag_net.metrics().totals().tuples);
        assert!(naive_net.metrics().totals().bytes <= tag_net.metrics().totals().bytes);
    }

    #[test]
    fn naive_is_named_for_the_panel() {
        let spec = SnapshotSpec::new(1, AggFunc::Avg, ValueDomain::percentage());
        assert_eq!(NaiveLocalPrune::new(spec).name(), "naive local pruning");
    }
}
