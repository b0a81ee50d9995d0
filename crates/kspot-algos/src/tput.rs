//! TPUT — the three-phase uniform-threshold algorithm, the flat competitor of TJA.
//!
//! TPUT (Cao & Wang, PODC 2004) answers the same vertically fragmented Top-K queries as
//! TJA, but it was designed for flat distributed networks: every node exchanges data
//! *directly* with the querying node, with no in-network unioning or joining.  Inside a
//! multi-hop sensor network that means every tuple is relayed hop by hop to the sink
//! without merging, which is exactly why the KSpot paperline (TJA) beats it — the same
//! three logical phases cost far more radio bytes.
//!
//! Phases:
//! 1. every node sends its local top-k; the sink computes `τ₁`, the K-th highest partial
//!    sum;
//! 2. the sink broadcasts the uniform threshold `θ = τ₁ / n`; every node sends all of
//!    its remaining values at or above `θ`;
//! 3. the sink fetches the exact values it still misses for the surviving candidates and
//!    reports the exact Top-K.

use crate::historic::{BankWindows, HistoricAlgorithm, HistoricSpec};
use crate::result::TopKResult;
use crate::threshold;
use kspot_net::{Network, PhaseTag};
use serde::{Deserialize, Serialize};

/// Statistics of one TPUT execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TputStats {
    /// Distinct epochs seen after phase 1.
    pub phase1_objects: usize,
    /// Distinct epochs seen after phase 2.
    pub phase2_objects: usize,
    /// Individual `(node, epoch)` values fetched in phase 3.
    pub phase3_fetches: usize,
}

/// The TPUT executor.
#[derive(Debug, Clone)]
pub struct Tput {
    spec: HistoricSpec,
    stats: TputStats,
}

impl Tput {
    /// Creates the executor.
    pub fn new(spec: HistoricSpec) -> Self {
        Self { spec, stats: TputStats::default() }
    }

    /// Statistics of the most recent execution.
    pub fn stats(&self) -> TputStats {
        self.stats
    }
}

impl HistoricAlgorithm for Tput {
    fn name(&self) -> &'static str {
        "TPUT (flat)"
    }

    /// Runs the three phases over the windows of `data`.  Only nodes alive and awake at
    /// query time can answer (see `kspot_net::fault`).
    fn execute(&mut self, net: &mut Network, data: &mut BankWindows<'_>) -> TopKResult {
        let spec = self.spec;
        let query_epoch = data.covered_epochs().last().copied().unwrap_or(0);
        self.stats = TputStats::default();
        threshold::with_scratch(|run| {
            let n = run.begin(net, data);
            if n == 0 {
                return TopKResult::new(query_epoch, Vec::new());
            }

            // --------------------------------------------------------------- phase 1
            for source in 0..n {
                let node = run.sources[source];
                data.local_top_k(node, spec.k, &mut run.found);
                let tuples = run.found.len() as u32;
                net.charge_cpu(node, tuples);
                // Flat protocol: the list travels to the sink without merging, paying
                // every hop of the routing path.  A dropped list never reaches the sink.
                if net.unicast_up(node, query_epoch, tuples, PhaseTag::LowerBound).is_some() {
                    run.absorb_found(source);
                }
                run.keep_local_list();
            }
            self.stats.phase1_objects = run.assembled.len();
            let theta = run.theta(&spec);

            // --------------------------------------------------------------- phase 2
            net.flood_down(query_epoch, 1, PhaseTag::Control);
            for source in 0..n {
                let node = run.sources[source];
                data.values_at_least(node, theta, &mut run.found);
                run.drop_locally_listed(source);
                let tuples = run.found.len() as u32;
                net.charge_cpu(node, tuples);
                if tuples > 0 && net.unicast_up(node, query_epoch, tuples, PhaseTag::Update).is_some() {
                    run.absorb_found(source);
                }
            }
            self.stats.phase2_objects = run.assembled.len();

            // --------------------------------------------------------------- phase 3
            self.stats.phase3_fetches = run.resolve(net, data, &spec, theta, query_epoch, PhaseTag::Probe);
            run.ranking(&spec, query_epoch)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::historic::{exact_reference, BankWindows, CentralizedHistoric};
    use crate::tja::Tja;
    use kspot_net::types::ValueDomain;
    use kspot_query::AggFunc;
    use kspot_net::{Deployment, NetworkConfig, RoomModelParams, Workload};

    fn setup(side: usize, window: usize, seed: u64) -> (Deployment, BankWindows<'static>) {
        let d = Deployment::grid(side, 10.0, Some(side));
        let mut w = Workload::room_correlated(&d, ValueDomain::percentage(), RoomModelParams::default(), seed);
        let data = BankWindows::collect(&mut w, window);
        (d, data)
    }

    #[test]
    fn tput_matches_the_exact_reference() {
        for seed in [11u64, 12, 13] {
            let (d, mut data) = setup(4, 64, seed);
            let spec = HistoricSpec::new(5, AggFunc::Avg, ValueDomain::percentage(), 64);
            let mut net = Network::new(d, NetworkConfig::ideal());
            let result = Tput::new(spec).execute(&mut net, &mut data);
            assert!(result.same_ranking(&exact_reference(&mut data, &spec)), "seed {seed}");
        }
    }

    #[test]
    fn tput_agrees_with_tja_and_costs_more_bytes() {
        let (d, data) = setup(6, 128, 5);
        let spec = HistoricSpec::new(5, AggFunc::Avg, ValueDomain::percentage(), 128);

        let mut tja_net = Network::new(d.clone(), NetworkConfig::mica2());
        let mut tja_data = data.clone();
        let tja_result = Tja::new(spec).execute(&mut tja_net, &mut tja_data);

        let mut tput_net = Network::new(d, NetworkConfig::mica2());
        let mut tput_data = data;
        let tput_result = Tput::new(spec).execute(&mut tput_net, &mut tput_data);

        assert!(tja_result.same_ranking(&tput_result), "both algorithms are exact");
        assert!(
            tput_net.metrics().totals().bytes > tja_net.metrics().totals().bytes,
            "flat TPUT ({} B) must cost more than hierarchical TJA ({} B)",
            tput_net.metrics().totals().bytes,
            tja_net.metrics().totals().bytes
        );
    }

    #[test]
    fn tput_is_still_cheaper_than_shipping_whole_windows() {
        // A network-wide correlated signal (all nodes share one room's drift) is the
        // regime distributed threshold algorithms are designed for: the local top-k
        // lists overlap, the uniform threshold is selective and phase 2 stays small.
        let d = Deployment::grid(5, 10.0, Some(1));
        let mut w = Workload::room_correlated(
            &d,
            ValueDomain::percentage(),
            RoomModelParams { drift_sigma: 4.0, sensor_noise_sigma: 1.0 },
            17,
        );
        let data = BankWindows::collect(&mut w, 256);
        let spec = HistoricSpec::new(5, AggFunc::Avg, ValueDomain::percentage(), 256);

        let mut tput_net = Network::new(d.clone(), NetworkConfig::mica2());
        let mut tput_data = data.clone();
        Tput::new(spec).execute(&mut tput_net, &mut tput_data);

        let mut central_net = Network::new(d, NetworkConfig::mica2());
        let mut central_data = data;
        CentralizedHistoric::new(spec).execute(&mut central_net, &mut central_data);

        assert!(tput_net.metrics().totals().bytes < central_net.metrics().totals().bytes);
    }

    #[test]
    fn phase_statistics_grow_monotonically() {
        let (d, mut data) = setup(4, 64, 23);
        let spec = HistoricSpec::new(3, AggFunc::Avg, ValueDomain::percentage(), 64);
        let mut net = Network::new(d, NetworkConfig::ideal());
        let mut tput = Tput::new(spec);
        let _ = tput.execute(&mut net, &mut data);
        let stats = tput.stats();
        assert!(stats.phase1_objects >= 3);
        assert!(stats.phase2_objects >= stats.phase1_objects);
    }
}
