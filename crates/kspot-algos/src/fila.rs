//! FILA-style filter-based monitoring of the Top-K *node readings*.
//!
//! KSpot's related-work pool for snapshot queries also contains FILA (Wu et al.,
//! ICDE 2006): instead of ranking groups of sensors, FILA continuously maintains the K
//! individual nodes with the highest readings by installing a *filter* at every node;
//! a node stays silent while its reading remains on its side of the filter boundary and
//! reports only when it crosses it.  KSpot routes non-aggregate `SELECT TOP K nodeid,
//! attr` queries to this strategy.
//!
//! The reproduction uses a single boundary `τ` placed between the K-th and (K+1)-th
//! readings: the Top-K nodes' filters are `[τ, +∞)`, everyone else's are `(−∞, τ)`.
//! Silent nodes are therefore guaranteed to still be on their side of `τ`, which keeps
//! the reported *membership* of the Top-K set exact; when violations make the membership
//! ambiguous the sink probes the ambiguous nodes and re-floods a fresh boundary.  The
//! reported values of silent members may be slightly stale (they are the last reported
//! ones) — the same trade-off the original FILA makes.

use crate::result::{RankedItem, TopKResult};
use crate::snapshot::{index_readings, SnapshotAlgorithm, SnapshotSpec};
use kspot_net::{Epoch, Network, NodeId, PhaseTag, Reading};
use serde::{Deserialize, Serialize};

/// Counters describing FILA's corrective work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FilaStats {
    /// Filter-violation reports received.
    pub violations: u64,
    /// Nodes probed because the membership became ambiguous.
    pub probes: u64,
    /// Boundary re-broadcasts after the initial installation.
    pub reassignments: u64,
}

/// The FILA-style monitoring executor (ranks individual nodes, not groups).
#[derive(Debug, Clone)]
pub struct FilaMonitor {
    spec: SnapshotSpec,
    /// `last_known[id]`: the last value node `id` reported to the sink, if it ever did
    /// (only a node of the network gets a report through).  One slot per node, so
    /// walking it visits the known nodes in ascending id.
    last_known: Vec<Option<f64>>,
    /// The buffer the known nodes are ranked in — by [`Self::rank_known`], whole and
    /// best first, which is how [`Self::install_boundary`] finds it.
    ranked: Vec<RankedItem>,
    /// The installed boundary, `None` before the first epoch.
    boundary: Option<f64>,
    /// Current Top-K membership as known by the sink.
    top_set: Vec<NodeId>,
    stats: FilaStats,
    /// `in_top[id]`: is node `id` in `top_set` (as of the start of the epoch).
    in_top: Vec<bool>,
    /// `reading_at[id]` is the position of node `id`'s reading in the epoch's readings;
    /// filled in epochs that probe.
    reading_at: Vec<Option<u32>>,
}

impl FilaMonitor {
    /// Creates the executor.  The aggregate function of the spec is ignored — FILA ranks
    /// raw readings.
    pub fn new(spec: SnapshotSpec) -> Self {
        Self {
            spec,
            last_known: Vec::new(),
            ranked: Vec::new(),
            boundary: None,
            top_set: Vec::new(),
            stats: FilaStats::default(),
            in_top: Vec::new(),
            reading_at: Vec::new(),
        }
    }

    /// Corrective-work counters.
    pub fn stats(&self) -> FilaStats {
        self.stats
    }

    /// Ranks every node the sink knows of, best first, and answers with the K best.
    /// Node ids are unique, so rank is a strict order.
    fn rank_known(&mut self, epoch: Epoch) -> TopKResult {
        self.ranked.clear();
        self.ranked.extend(
            self.last_known
                .iter()
                .enumerate()
                .filter_map(|(n, v)| v.map(|v| RankedItem::new(n as u64, v))),
        );
        TopKResult::best_of(epoch, &mut self.ranked, self.spec.k)
    }

    /// Places the boundary between the K-th and the (K+1)-th of the last ranking and
    /// floods it.
    fn install_boundary(&mut self, net: &mut Network, epoch: Epoch) {
        let ranked = &self.ranked;
        let k = self.spec.k.min(ranked.len());
        let boundary = if ranked.len() > k && k > 0 {
            (ranked[k - 1].value + ranked[k].value) / 2.0
        } else if k > 0 {
            ranked[k - 1].value
        } else {
            self.spec.domain.min
        };
        self.top_set.clear();
        self.top_set.extend(ranked[..k].iter().map(|i| i.key as NodeId));
        let first_time = self.boundary.is_none();
        self.boundary = Some(boundary);
        net.flood_down(epoch, 1, PhaseTag::Control);
        if !first_time {
            self.stats.reassignments += 1;
        }
    }
}

impl SnapshotAlgorithm for FilaMonitor {
    fn name(&self) -> &'static str {
        "FILA-style filters"
    }

    /// The Top-K *membership* is exact; reported values of silent members may be stale.
    fn is_exact(&self) -> bool {
        false
    }

    fn execute_epoch(&mut self, net: &mut Network, readings: &[Reading]) -> TopKResult {
        let epoch = readings.first().map(|r| r.epoch).unwrap_or(0);
        if self.last_known.len() <= net.num_nodes() {
            self.last_known.resize(net.num_nodes() + 1, None);
        }
        let Some(boundary) = self.boundary else {
            // Initial acquisition: every node reports its reading up the tree (one tuple
            // per node, relayed hop by hop like any convergecast of raw values).  Under
            // fault injection only delivered reports enter the sink's model.
            for r in readings {
                if net.unicast_up(r.node, epoch, 1, PhaseTag::Creation).is_some() {
                    self.last_known[r.node as usize] = Some(r.value);
                }
            }
            let answer = self.rank_known(epoch);
            self.install_boundary(net, epoch);
            return answer;
        };

        // Nodes report only when their reading crosses the installed boundary.
        self.in_top.clear();
        self.in_top.resize(net.num_nodes() + 1, false);
        for &node in &self.top_set {
            self.in_top[node as usize] = true;
        }
        let mut violated = false;
        for r in readings {
            if !net.node_participating(r.node) {
                continue;
            }
            let was_top = self.in_top[r.node as usize];
            let crosses = if was_top { r.value < boundary } else { r.value >= boundary };
            if crosses {
                self.stats.violations += 1;
                if net.unicast_up(r.node, epoch, 1, PhaseTag::Update).is_some() {
                    self.last_known[r.node as usize] = Some(r.value);
                    violated = true;
                }
            }
        }

        if !violated {
            return self.rank_known(epoch);
        }
        // Membership may have changed.  Refresh the current Top-K members so their
        // values are no longer stale; silent non-members are still below τ, so after
        // the refresh the ranking around the boundary is exact as long as the k-th
        // best known value is still at or above τ.
        // A probed member answers with its reading — the first, were there several.
        index_readings(&mut self.reading_at, net.num_nodes(), readings.iter().enumerate().rev());
        for &node in &self.top_set {
            let down = net.unicast_down(node, epoch, 1, PhaseTag::Probe);
            let up = net.unicast_up(node, epoch, 1, PhaseTag::Probe);
            if down.is_some() && up.is_some() {
                if let Some(at) = self.reading_at[node as usize] {
                    self.last_known[node as usize] = Some(readings[at as usize].value);
                }
            }
            self.stats.probes += 1;
        }
        // If the k-th best exact value dropped below the boundary, a silent
        // non-member could have crept above it: fall back to a full refresh.
        let mut answer = self.rank_known(epoch);
        let kth = answer.items.get(self.spec.k.saturating_sub(1)).map(|i| i.value);
        if kth.is_none_or(|v| v < boundary) {
            for r in readings {
                // The members of the Top-K set were all probed just above.
                if !net.node_participating(r.node) || self.in_top[r.node as usize] {
                    continue;
                }
                let down = net.unicast_down(r.node, epoch, 1, PhaseTag::Probe);
                let up = net.unicast_up(r.node, epoch, 1, PhaseTag::Probe);
                if down.is_some() && up.is_some() {
                    self.last_known[r.node as usize] = Some(r.value);
                }
                self.stats.probes += 1;
            }
            answer = self.rank_known(epoch);
        }
        self.install_boundary(net, epoch);
        answer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::run_continuous;
    use kspot_net::types::ValueDomain;
    use kspot_net::{Deployment, NetworkConfig, Workload};
    use kspot_query::AggFunc;

    fn spec(k: usize) -> SnapshotSpec {
        SnapshotSpec::new(k, AggFunc::Max, ValueDomain::percentage())
    }

    /// Reference Top-K node membership computed omnisciently.
    fn reference_set(readings: &[Reading], k: usize) -> Vec<u64> {
        let mut items: Vec<RankedItem> =
            readings.iter().map(|r| RankedItem::new(u64::from(r.node), r.value)).collect();
        items.sort_by(|a, b| kspot_net::types::cmp_value(b.value, a.value).then(a.key.cmp(&b.key)));
        let mut keys: Vec<u64> = items.into_iter().take(k).map(|i| i.key).collect();
        keys.sort_unstable();
        keys
    }

    #[test]
    fn first_epoch_reports_everyone_and_ranks_exactly() {
        let d = Deployment::figure1();
        let readings = Workload::figure1(&d).next_epoch();
        let mut net = Network::new(d, NetworkConfig::ideal());
        let mut fila = FilaMonitor::new(spec(3));
        let result = fila.execute_epoch(&mut net, &readings);
        // Highest readings: s7 = 78, then the 75s (s3, s5, s6, s8 tie — smallest id wins).
        assert_eq!(result.keys(), vec![7, 3, 5]);
        assert!(net.metrics().totals().messages > 0);
    }

    #[test]
    fn membership_stays_exact_under_slow_drift() {
        let d = Deployment::grid(4, 10.0, None);
        let make_workload = || Workload::random_walk(&d, ValueDomain::percentage(), 1.0, 4);
        let mut net = Network::new(d.clone(), NetworkConfig::ideal());
        let mut fila = FilaMonitor::new(spec(3));
        let results = run_continuous(&mut fila, &mut net, &mut make_workload(), 50);
        let mut reference_workload = make_workload();
        for result in &results {
            let readings = reference_workload.next_epoch();
            let mut ours = result.keys();
            ours.sort_unstable();
            assert_eq!(ours, reference_set(&readings, 3), "FILA membership must stay exact");
        }
    }

    #[test]
    fn stable_readings_keep_the_network_silent_after_installation() {
        // k = 1 keeps the boundary strictly between s7 (78) and the 75-valued nodes, so
        // constant readings never touch it.
        let d = Deployment::figure1();
        let mut workload = Workload::figure1(&d);
        let mut net = Network::new(d, NetworkConfig::ideal());
        let mut fila = FilaMonitor::new(spec(1));
        // Epoch 0 installs filters.
        let _ = fila.execute_epoch(&mut net, &workload.next_epoch());
        let installed = net.metrics().totals().messages;
        // Ten more constant epochs: not a single message.
        for _ in 0..10 {
            let _ = fila.execute_epoch(&mut net, &workload.next_epoch());
        }
        assert_eq!(net.metrics().totals().messages, installed, "constant readings cause no traffic");
        assert_eq!(fila.stats().violations, 0);
    }

    #[test]
    fn fila_uses_less_traffic_than_per_epoch_collection_under_drift() {
        let d = Deployment::grid(5, 10.0, None);
        let make_workload = || Workload::random_walk(&d, ValueDomain::percentage(), 0.5, 8);
        let epochs = 40;

        let mut fila_net = Network::new(d.clone(), NetworkConfig::ideal());
        let mut fila = FilaMonitor::new(spec(3));
        run_continuous(&mut fila, &mut fila_net, &mut make_workload(), epochs);

        // The baseline ships every node's reading to the sink every epoch.
        let mut base_net = Network::new(d.clone(), NetworkConfig::ideal());
        let mut workload = make_workload();
        for e in 0..epochs as u64 {
            base_net.begin_epoch(e);
            for r in workload.next_epoch() {
                base_net.unicast_up(r.node, e, 1, PhaseTag::Update);
            }
        }

        assert!(
            fila_net.metrics().totals().messages < base_net.metrics().totals().messages,
            "FILA ({}) should send fewer messages than always-report ({})",
            fila_net.metrics().totals().messages,
            base_net.metrics().totals().messages
        );
    }

    #[test]
    fn violations_and_reassignments_are_counted() {
        let d = Deployment::grid(3, 10.0, None);
        // A trace engineered to swap the leader after 3 epochs.
        let mut rows = Vec::new();
        for e in 0..6 {
            let mut row = vec![10.0; 9];
            row[0] = 90.0;
            row[1] = if e < 3 { 20.0 } else { 95.0 };
            rows.push(row);
        }
        let mut workload = Workload::trace(&d, ValueDomain::percentage(), rows);
        let mut net = Network::new(d, NetworkConfig::ideal());
        let mut fila = FilaMonitor::new(spec(1));
        let mut last = None;
        for _ in 0..6 {
            last = Some(fila.execute_epoch(&mut net, &workload.next_epoch()));
        }
        assert_eq!(last.unwrap().keys(), vec![2], "node 2 takes over the Top-1 slot");
        assert!(fila.stats().violations > 0);
        assert!(fila.stats().reassignments > 0);
    }
}
