//! TJA — the Threshold Join Algorithm for historic Top-K queries.
//!
//! TJA (Zeinalipour-Yazti et al., DMSN 2005) answers vertically fragmented historic
//! Top-K queries in three phases, exploiting the routing tree so that partial results
//! are *unioned and joined hierarchically* instead of being shipped node-by-node to the
//! sink (which is what TPUT, its flat competitor, does):
//!
//! 1. **Lower Bound (LB)** — every node contributes its local top-k epochs; the lists
//!    are unioned on the way up, giving the sink `L_sink = {l_1, …, l_o}`, `o ≥ K`.
//! 2. **Hierarchical Join (HJ)** — the sink disseminates `L_sink` together with the
//!    elimination threshold derived from it; every node then forwards only the buffered
//!    tuples that survive the threshold (or that complete the candidate epochs), and the
//!    surviving tuples are joined (merged per epoch) hierarchically on the way up.
//! 3. **Clean-Up** — the sink fetches the few missing values it still needs to turn the
//!    candidate bounds into exact answers and reports the final Top-K.
//!
//! The elimination threshold is `θ = τ₁ / n`, where `τ₁` is the K-th highest partial
//! sum after the LB phase: any epoch whose true network average reaches the true K-th
//! value must have at least one node reading at or above `θ`, so no true answer can be
//! eliminated, and every epoch never reported anywhere is provably below the K-th —
//! which is what makes the final answer exact.

use crate::historic::{HistoricAlgorithm, HistoricSpec, WindowSource};
use crate::result::TopKResult;
use crate::threshold;
use kspot_net::{Network, PhaseTag};
use serde::{Deserialize, Serialize};

/// Per-phase statistics of one TJA execution (used by the E6/E7 tables).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TjaStats {
    /// Size of `L_sink` after the LB phase.
    pub lsink_size: usize,
    /// Candidate epochs examined after the HJ phase.
    pub candidates: usize,
    /// Individual `(node, epoch)` values pulled during Clean-Up.
    pub cleanup_pulls: usize,
}

/// The TJA executor.
#[derive(Debug, Clone)]
pub struct Tja {
    spec: HistoricSpec,
    stats: TjaStats,
}

impl Tja {
    /// Creates the executor.
    pub fn new(spec: HistoricSpec) -> Self {
        Self { spec, stats: TjaStats::default() }
    }

    /// Statistics of the most recent execution.
    pub fn stats(&self) -> TjaStats {
        self.stats
    }
}

impl HistoricAlgorithm for Tja {
    fn name(&self) -> &'static str {
        "TJA (hierarchical)"
    }

    /// Runs the three phases over the windows of `data`.  Only nodes that are alive
    /// and awake at query time can answer; the threshold algebra runs over that
    /// population, scoping exactness to reachable data.  A participating node that
    /// holds no window relays its children's reports and contributes nothing.
    fn execute(&mut self, net: &mut Network, data: &mut dyn WindowSource) -> TopKResult {
        let spec = self.spec;
        let query_epoch = data.covered_epochs().last().copied().unwrap_or(0);
        threshold::with_scratch(|run| {
            if run.begin(net, data) == 0 {
                return TopKResult::new(query_epoch, Vec::new());
            }

            // ------------------------------------------------------------------ LB phase
            // Each node's local top-k list; lists are unioned (merged per epoch) on the
            // way up, so a node transmits one tuple per distinct epoch in its subtree's
            // union.
            run.local_lists(net, data, spec.k);
            run.sweep(net, query_epoch, PhaseTag::LowerBound);
            self.stats.lsink_size = run.assembled.len();
            let theta = run.theta(&spec);

            // ------------------------------------------------------------------ HJ phase
            // Disseminate L_sink and θ, then join the surviving tuples hierarchically.
            net.flood_down(query_epoch, self.stats.lsink_size as u32 + 1, PhaseTag::HierarchicalJoin);
            run.joined_lists(net, data, theta);
            run.sweep(net, query_epoch, PhaseTag::HierarchicalJoin);
            self.stats.candidates = run.assembled.len();

            // --------------------------------------------------------------- Clean-Up phase
            self.stats.cleanup_pulls += run.resolve(net, data, &spec, theta, query_epoch, PhaseTag::CleanUp);
            run.ranking(&spec, query_epoch)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::historic::{exact_reference, BankWindows, CentralizedHistoric};
    use kspot_net::types::ValueDomain;
    use kspot_query::AggFunc;
    use kspot_net::{Deployment, NetworkConfig, RoomModelParams, WindowBank, Workload};

    fn setup(nodes_side: usize, window: usize, seed: u64) -> (Deployment, BankWindows<WindowBank>) {
        let d = Deployment::grid(nodes_side, 10.0, Some(nodes_side));
        let mut w = Workload::room_correlated(&d, ValueDomain::percentage(), RoomModelParams::default(), seed);
        let data = BankWindows::collect(&mut w, window);
        (d, data)
    }

    #[test]
    fn tja_matches_the_exact_reference() {
        for seed in [1u64, 2, 3, 4, 5] {
            let (d, mut data) = setup(4, 64, seed);
            let spec = HistoricSpec::new(5, AggFunc::Avg, ValueDomain::percentage(), 64);
            let mut net = Network::new(d, NetworkConfig::ideal());
            let result = Tja::new(spec).execute(&mut net, &mut data);
            let reference = exact_reference(&mut data, &spec);
            assert!(
                result.same_ranking(&reference),
                "seed {seed}: TJA {result} must equal the reference {reference}"
            );
            assert!(result.approx_eq(&reference, 1e-9));
        }
    }

    #[test]
    fn tja_matches_reference_with_uniform_noise_too() {
        let d = Deployment::grid(5, 10.0, Some(5));
        let mut w = Workload::uniform_iid(&d, ValueDomain::percentage(), 99);
        let mut data = BankWindows::collect(&mut w, 128);
        let spec = HistoricSpec::new(10, AggFunc::Avg, ValueDomain::percentage(), 128);
        let mut net = Network::new(d, NetworkConfig::ideal());
        let mut tja = Tja::new(spec);
        let result = tja.execute(&mut net, &mut data);
        assert!(result.same_ranking(&exact_reference(&mut data, &spec)));
        assert!(tja.stats().lsink_size >= 10);
    }

    #[test]
    fn tja_ships_far_fewer_tuples_than_centralized_collection() {
        let (d, data) = setup(6, 256, 7);
        let spec = HistoricSpec::new(5, AggFunc::Avg, ValueDomain::percentage(), 256);

        let mut tja_net = Network::new(d.clone(), NetworkConfig::mica2());
        let mut tja_data = data.clone();
        Tja::new(spec).execute(&mut tja_net, &mut tja_data);

        let mut central_net = Network::new(d, NetworkConfig::mica2());
        let mut central_data = data;
        CentralizedHistoric::new(spec).execute(&mut central_net, &mut central_data);

        let tja_bytes = tja_net.metrics().totals().bytes;
        let central_bytes = central_net.metrics().totals().bytes;
        assert!(
            tja_bytes * 2 < central_bytes,
            "TJA ({tja_bytes} B) should use well under half the bytes of centralized collection ({central_bytes} B)"
        );
        assert!(tja_net.metrics().totals().energy_uj < central_net.metrics().totals().energy_uj);
    }

    #[test]
    fn tja_works_for_sum_ranking() {
        let (d, mut data) = setup(4, 32, 21);
        let spec = HistoricSpec::new(3, AggFunc::Sum, ValueDomain::percentage(), 32);
        let mut net = Network::new(d, NetworkConfig::ideal());
        let result = Tja::new(spec).execute(&mut net, &mut data);
        assert!(result.same_ranking(&exact_reference(&mut data, &spec)));
    }

    #[test]
    fn phase_traffic_is_labelled() {
        let (d, mut data) = setup(4, 64, 2);
        let spec = HistoricSpec::new(5, AggFunc::Avg, ValueDomain::percentage(), 64);
        let mut net = Network::new(d, NetworkConfig::ideal());
        Tja::new(spec).execute(&mut net, &mut data);
        assert!(net.metrics().phase(PhaseTag::LowerBound).messages > 0);
        assert!(net.metrics().phase(PhaseTag::HierarchicalJoin).messages > 0);
    }
}
