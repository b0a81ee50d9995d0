//! MINT views — the in-network snapshot Top-K algorithm of KSpot.
//!
//! The paper (Section III-A) describes MINT as three phases over an in-network hierarchy
//! of materialized views, where ancestor nodes maintain a superset view of their
//! descendants:
//!
//! 1. **Creation** — the first acquisition round builds the distributed views `V_i`
//!    bottom-up, giving the sink the complete view `V_0`;
//! 2. **Pruning** — each node derives `V'_i ⊆ V_i`, keeping only tuples that can still
//!    be among the final top-k; the pruning is powered by a set of descriptors `γ` that
//!    bound the attributes in `V_0` from above;
//! 3. **Update** — once per epoch each node sends `V'_i` to its parent.
//!
//! ### How this reproduction realises the bounding framework
//!
//! The γ framework is realised with per-group *upper-bound descriptors*: because the
//! cluster configuration fixes how many members every group has (the Configuration
//! Panel), a node holding a partial aggregate over `m` of a group's `M` members can
//! bound the group's final value from above by letting the `M − m` unseen members take
//! the maximum of the value domain.  After the Creation phase the sink broadcasts a
//! ranking threshold `τ` (the current k-th value minus a slack); in every
//! later epoch a node prunes a group from its view exactly when that upper bound falls
//! below `τ` — the tuple provably cannot matter.  Nodes whose pruned view is empty stay
//! silent, which is where the message-count savings come from.
//!
//! Answers stay **exact** regardless of how values drift: the sink only certifies an
//! epoch when the k-th exact value among completely-reported groups is at least `τ`
//! (every tuple pruned anywhere is provably below `τ`, so nothing pruned can belong to
//! the answer).  If certification fails — which only happens when readings drifted past
//! the slack — the sink probes the affected groups directly and re-broadcasts a fresh
//! threshold.  The probe and re-broadcast counts are exposed so the E9 ablation can show
//! the trade-off.
//!
//! ### How an epoch runs on the host
//!
//! The Pruning and Update phases are the crate's one convergecast loop
//! ([`crate::tag`]) with MINT's pruning plugged in as its `shrink` step: the loop
//! charges the node's CPU, the closure prunes the view, the loop sends what is left.
//! A view is a row of the sweep's group table, so the prune reads a group's live
//! member count by its slot — the group's index in `Deployment::groups`, never a raw,
//! possibly sparse group id — from the one size table the epoch recounts, which the
//! sink's certification reads too.  The sweep keeps, per row, a summary of the γ
//! bounds its states can reach, up to date through every merge, so a view that cannot
//! lose a tuple is settled without a look at its states.  Everything an epoch needs
//! beyond the sweep — those sizes, the bounds of a view that can lose a tuple, the
//! sink's exactly-known groups — lives in scratch the executor owns and reuses, so a
//! certified epoch allocates its answer and nothing else.

use crate::agg::AggState;
use crate::result::{RankedItem, TopKResult};
use crate::snapshot::{index_readings, SnapshotAlgorithm, SnapshotSpec};
use crate::tag::{convergecast_full, rank_view};
use crate::view::{Bounds, GroupView, Row, Summary, Unbounded};
use kspot_net::types::ValueDomain;
use kspot_net::{Epoch, GroupId, Network, NodeId, PhaseTag, Reading};
use kspot_query::AggFunc;
use serde::{Deserialize, Serialize};

/// Slack δ subtracted from the current k-th value before broadcasting it as the
/// pruning threshold.  A larger slack tolerates more per-epoch drift before probes are
/// needed, at the cost of weaker pruning.
const THRESHOLD_SLACK: f64 = 2.0;

/// The threshold is re-broadcast only when the desired value differs from the currently
/// installed one by more than this tolerance, so stable workloads do not pay a flood
/// every epoch.
const REBROADCAST_TOLERANCE: f64 = 1.0;

/// Counters describing how much corrective work MINT had to do — the numbers behind the
/// E9 temporal-correlation ablation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MintStats {
    /// Number of Creation phases executed (1 unless the executor is reset).
    pub creations: u64,
    /// Number of epochs in which the sink could not certify the answer from the pruned
    /// views alone and had to probe.
    pub probe_epochs: u64,
    /// Number of groups probed in total.
    pub probed_groups: u64,
    /// Number of threshold re-broadcasts after the initial one.
    pub rebroadcasts: u64,
}

/// The MINT views executor.
#[derive(Debug, Clone)]
pub struct MintViews {
    spec: SnapshotSpec,
    /// The threshold currently installed in the network (`None` before Creation).
    tau: Option<f64>,
    /// The k-th exact value of the previous epoch (for volatility tracking).
    last_kth: Option<f64>,
    /// Recent per-epoch downward movements of the k-th value; the adaptive slack covers
    /// twice the recent maximum so that ordinary drift never invalidates the installed
    /// threshold (which is what would force probes).
    recent_drops: std::collections::VecDeque<f64>,
    stats: MintStats,
    scratch: MintScratch,
}

/// Per-epoch working memory of the executor, reused from epoch to epoch.
#[derive(Debug, Clone, Default)]
struct MintScratch {
    /// `group_sizes[slot]`: how many members of the deployment's group in `slot` (its
    /// index in `Deployment::groups`) can contribute this epoch.  On a healthy network
    /// this is the configured cluster size; under fault injection dead or sleeping
    /// members are excluded, which scopes the exactness claim to the nodes that can
    /// actually report — a group with no live member counts 0, and so disappears from
    /// the answer space.  Recounted every epoch: liveness is never remembered.
    group_sizes: Vec<u32>,
    /// The `(upper, lower)` bounds of one node's tuples in row order, and its lower
    /// bounds again, to select the local k-th bound in; filled only by a view its
    /// summary does not settle.
    bounds: Vec<(f64, f64)>,
    local_lbs: Vec<f64>,
    /// The groups known exactly at the sink this epoch with their values, by group.
    exact: Vec<(GroupId, f64)>,
    /// The buffer `exact` is ranked in: the answer is its head, copied out.
    ranked: Vec<RankedItem>,
    /// `reading_at[id]` is the position in the epoch's readings of node `id`'s
    /// reading; filled in epochs that probe.
    reading_at: Vec<Option<u32>>,
    /// The groups the sink does not know exactly, with their live sizes, and the
    /// participating members of the group being probed; filled in epochs that probe.
    candidates: Vec<(GroupId, u32)>,
    members: Vec<NodeId>,
}

impl MintViews {
    /// Creates a MINT executor.
    pub fn new(spec: SnapshotSpec) -> Self {
        Self {
            spec,
            tau: None,
            last_kth: None,
            recent_drops: std::collections::VecDeque::new(),
            stats: MintStats::default(),
            scratch: MintScratch::default(),
        }
    }

    /// The slack currently applied below the k-th value when choosing the broadcast
    /// threshold: the fixed base plus an adaptive term covering twice the largest
    /// recent per-epoch drop of the k-th value.
    fn effective_slack(&self) -> f64 {
        let recent = self.recent_drops.iter().copied().fold(0.0, f64::max);
        THRESHOLD_SLACK + 2.0 * recent
    }

    /// Records the k-th value observed this epoch and updates the volatility window.
    fn observe_kth(&mut self, kth: f64) {
        if let Some(prev) = self.last_kth {
            self.recent_drops.push_back((prev - kth).max(0.0));
            if self.recent_drops.len() > 8 {
                self.recent_drops.pop_front();
            }
        }
        self.last_kth = Some(kth);
    }

    /// The corrective-work counters accumulated so far.
    pub fn stats(&self) -> MintStats {
        self.stats
    }

    /// The k-th best exact value of a ranking (its first k items are enough), or the
    /// domain minimum when fewer than k groups are known exactly.
    fn kth_value(&self, ranked: &[RankedItem]) -> f64 {
        if ranked.len() >= self.spec.k {
            ranked[self.spec.k - 1].value
        } else {
            self.spec.domain.min
        }
    }

    /// Creation phase: a full TAG-style convergecast followed by the first threshold
    /// broadcast.
    fn creation_phase(&mut self, net: &mut Network, readings: &[Reading]) -> TopKResult {
        let epoch = readings.first().map(|r| r.epoch).unwrap_or(0);
        let sink_view = convergecast_full(net, readings, &self.spec, PhaseTag::Creation, &Unbounded, |_, _| {});
        let result = rank_view(&sink_view, self.spec.k, epoch);
        let kth = self.kth_value(&result.items);
        self.observe_kth(kth);
        let tau = (kth - THRESHOLD_SLACK).max(self.spec.domain.min);
        net.flood_down(epoch, 1, PhaseTag::Control);
        self.tau = Some(tau);
        self.stats.creations += 1;
        result
    }

    /// Pruning + Update phases of one epoch — the convergecast kernel with MINT's
    /// pruning as its `shrink` step — returning the merged (possibly incomplete) sink
    /// view.
    fn pruned_sweep(&mut self, net: &mut Network, readings: &[Reading], tau: f64) -> GroupView {
        let MintScratch { group_sizes, bounds, local_lbs, .. } = &mut self.scratch;
        let gamma = Gamma::new(&self.spec, group_sizes);
        // Update phase: silent when nothing survived the pruning.  A report that is
        // dropped after its ARQ retries degrades to partial data — the sink then fails
        // certification for the affected groups and probes them instead.
        convergecast_full(net, readings, &self.spec, PhaseTag::Update, &gamma, |_, row| {
            prune(row, self.spec.k, tau, &gamma, bounds, local_lbs);
        })
    }

    /// Probes every participating member of `group`, charging the probe traffic and
    /// returning the group's exact aggregate recomputed from the members' raw readings.
    /// Returns `None` when any probe round trip was dropped: a partially probed group
    /// must not masquerade as exactly known.
    fn probe_group(
        &mut self,
        net: &mut Network,
        readings: &[Reading],
        group: GroupId,
        epoch: Epoch,
    ) -> Option<f64> {
        let MintScratch { members, reading_at, .. } = &mut self.scratch;
        members.clear();
        members.extend(
            net.deployment().members_of(group).iter().copied().filter(|&m| net.node_participating(m)),
        );
        let mut state = AggState::empty(self.spec.func);
        let mut complete = true;
        for &member in members.iter() {
            let down = net.unicast_down(member, epoch, 1, PhaseTag::Probe);
            let up = net.unicast_up(member, epoch, 1, PhaseTag::Probe);
            let reading = reading_at[member as usize].map(|at| &readings[at as usize]);
            match reading {
                Some(r) if down.is_some() && up.is_some() => state.add(r.value),
                _ => complete = false,
            }
        }
        self.stats.probed_groups += 1;
        if complete {
            state.partial_value(self.spec.func)
        } else {
            None
        }
    }
}

/// MINT's γ bounds for one epoch: the largest and the smallest final value a group's
/// partial state can still reach, with its unseen members at the top or the bottom of
/// the value domain.  A group's unseen members are its live size (`sizes[slot]`) minus
/// what its state holds; a group the deployment lacks has no size, and so none unseen.
/// A NaN lower bound (corrupted reading) carries no evidence and is demoted to −∞.
pub(crate) struct Gamma<'s> {
    func: AggFunc,
    domain: ValueDomain,
    sizes: &'s [u32],
}

impl<'s> Gamma<'s> {
    /// The bounds of `spec`'s aggregate over groups of the live sizes `sizes`, by slot.
    pub(crate) fn new(spec: &SnapshotSpec, sizes: &'s [u32]) -> Self {
        Self { func: spec.func, domain: spec.domain, sizes }
    }
}

impl Bounds for Gamma<'_> {
    const KEPT: bool = true;

    #[inline]
    fn of(&self, slot: usize, state: &AggState) -> (f64, f64) {
        let missing = self.sizes.get(slot).map_or(0, |&live| live.saturating_sub(state.count()));
        let lb = state.lower_bound(self.func, missing, self.domain.min);
        (state.upper_bound(self.func, missing, self.domain.max), if lb.is_nan() { f64::NEG_INFINITY } else { lb })
    }
}

/// The Pruning phase on one node's view: a group stays in V'_i only if, even with every
/// unseen member at the top of the domain, it could still reach the *effective*
/// threshold.  The effective threshold is the broadcast τ or, when the node's own view
/// already contains k groups whose lower bounds beat τ, the k-th of those local lower
/// bounds — the purely local part of the γ framework, which lets interior nodes prune
/// even while the broadcast threshold is stale.  With fewer than k groups in the view
/// there is no k-th bound to find.
///
/// The bounds are `gamma`'s.  A NaN lower bound is demoted to −∞ *before* the
/// selection: were it left in place, a descending `total_cmp` would rank it above every
/// real value and inflate the k-th bound to the (k-1)-th — an unsafely high threshold
/// that could prune a true answer.  With NaN-free input `total_cmp` is a total order, so
/// the k-th largest is one well-defined value.
///
/// Most views lose nothing, and the row's summary settles most of those without a look
/// at a single state: the k-th lower bound never exceeds the largest, so when the
/// smallest upper bound clears both τ and that largest one, every tuple clears the
/// effective threshold and the view is left as it is.  A NaN upper bound clears
/// nothing.  The summary only ever bounds the row's states from outside, so it settles
/// a view only where the states' own extremes would.  Otherwise one pass collects both
/// bounds of every tuple for the selection, which does not depend on the order the row
/// is walked in, and the row leaves with the exact summary of what it keeps.
fn prune(
    row: &mut Row<'_>,
    k: usize,
    tau: f64,
    gamma: &Gamma<'_>,
    bounds: &mut Vec<(f64, f64)>,
    local_lbs: &mut Vec<f64>,
) {
    let wants_local_tau = row.len() >= k;
    let summary = row.summary();
    if !summary.nan && summary.min_ub >= tau && (!wants_local_tau || summary.min_ub >= summary.max_lb) {
        return;
    }
    bounds.clear();
    bounds.extend(row.iter().map(|(slot, state)| gamma.of(slot, state)));
    let local_tau = if wants_local_tau {
        local_lbs.clear();
        local_lbs.extend(bounds.iter().map(|&(_, lb)| lb));
        *local_lbs.select_nth_unstable_by(k - 1, |a, b| b.total_cmp(a)).1
    } else {
        f64::NEG_INFINITY
    };
    let effective_tau = tau.max(local_tau);
    let mut survivors = Summary::EMPTY;
    let mut bound = bounds.iter();
    row.retain(|_, _| {
        let &(ub, lb) = bound.next().expect("one bound pair per tuple");
        let keep = ub >= effective_tau;
        if keep {
            survivors.fold((ub, lb));
        }
        keep
    });
    row.set_summary(survivors);
}

/// The `k` best exactly-known groups, best first, ties towards the smaller group —
/// ranked in `ranked`, which the caller keeps.
fn rank_exact(epoch: Epoch, exact: &[(GroupId, f64)], ranked: &mut Vec<RankedItem>, k: usize) -> TopKResult {
    ranked.clear();
    ranked.extend(exact.iter().map(|&(g, v)| RankedItem::new(u64::from(g), v)));
    TopKResult::best_of(epoch, ranked, k)
}

impl SnapshotAlgorithm for MintViews {
    fn name(&self) -> &'static str {
        "KSpot (MINT views)"
    }

    fn execute_epoch(&mut self, net: &mut Network, readings: &[Reading]) -> TopKResult {
        let epoch = readings.first().map(|r| r.epoch).unwrap_or(0);
        let Some(tau) = self.tau else {
            return self.creation_phase(net, readings);
        };

        let group_sizes = &mut self.scratch.group_sizes;
        group_sizes.clear();
        group_sizes.extend(
            net.deployment()
                .groups()
                .iter()
                .map(|(_, members)| members.iter().filter(|&&m| net.node_participating(m)).count() as u32),
        );
        let sink_view = self.pruned_sweep(net, readings, tau);

        // --- sink-side verification -------------------------------------------------
        // Exact values are available for every group whose contributions all arrived.
        let groups = net.deployment().groups();
        let live_size = |g: GroupId| {
            groups.binary_search_by_key(&g, |(known, _)| *known).map_or(0, |slot| self.scratch.group_sizes[slot])
        };
        let mut exact = std::mem::take(&mut self.scratch.exact);
        exact.clear();
        for (g, state) in sink_view.iter() {
            if let Some(v) = state.exact_value(self.spec.func, live_size(g)) {
                exact.push((g, v));
            }
        }

        let k = self.spec.k;
        let mut result = rank_exact(epoch, &exact, &mut self.scratch.ranked, k);
        let kappa = self.kth_value(&result.items);
        let certified = result.items.len() >= k && kappa >= tau;

        if !certified {
            // Every group that is not exactly known might still matter; probe the ones
            // whose upper bound reaches the best k-th value we currently have.
            self.stats.probe_epochs += 1;
            // A probed member answers with its reading — the first, were there several.
            index_readings(
                &mut self.scratch.reading_at,
                net.num_nodes(),
                readings.iter().enumerate().rev(),
            );
            let mut candidates = std::mem::take(&mut self.scratch.candidates);
            candidates.clear();
            candidates.extend(
                net.deployment()
                    .groups()
                    .iter()
                    .zip(&self.scratch.group_sizes)
                    .filter(|&((g, _), &live)| live > 0 && exact.binary_search_by_key(g, |&(known, _)| known).is_err())
                    .map(|((g, _), &live)| (*g, live)),
            );
            for &(g, total) in &candidates {
                let ub = match sink_view.get(g) {
                    Some(state) => state.upper_bound(
                        self.spec.func,
                        total.saturating_sub(state.count()),
                        self.spec.domain.max,
                    ),
                    None => AggState::empty(self.spec.func).upper_bound(self.spec.func, total, self.spec.domain.max),
                };
                if result.items.len() < k || ub >= kappa {
                    if let Some(v) = self.probe_group(net, readings, g, epoch) {
                        let at = exact.partition_point(|&(known, _)| known < g);
                        exact.insert(at, (g, v));
                    }
                }
            }
            self.scratch.candidates = candidates;
            result = rank_exact(epoch, &exact, &mut self.scratch.ranked, k);
        }
        self.scratch.exact = exact;

        // --- threshold maintenance ---------------------------------------------------
        // The threshold is only re-flooded when it has to be: after a probe epoch (the
        // installed threshold was too high) or when the k-th value has risen enough that
        // the installed threshold forfeits substantial pruning.  Ordinary downward drift
        // is absorbed by the adaptive slack instead of per-epoch floods.
        let new_kth = self.kth_value(&result.items);
        self.observe_kth(new_kth);
        let target = (new_kth - self.effective_slack()).max(self.spec.domain.min);
        if !certified || target > tau + REBROADCAST_TOLERANCE {
            net.flood_down(epoch, 1, PhaseTag::Control);
            self.tau = Some(target);
            self.stats.rebroadcasts += 1;
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{exact_reference, run_continuous};
    use crate::tag::TagTopK;
    use kspot_net::types::ValueDomain;
    use kspot_net::{Deployment, NetworkConfig, RoomModelParams, Workload};
    use kspot_query::AggFunc;

    fn spec(k: usize) -> SnapshotSpec {
        SnapshotSpec::new(k, AggFunc::Avg, ValueDomain::percentage())
    }

    #[test]
    fn mint_answers_figure1_correctly_for_every_k() {
        for k in 1..=4 {
            let d = Deployment::figure1();
            let mut workload = Workload::figure1(&d);
            let mut net = Network::new(d, NetworkConfig::ideal());
            let mut mint = MintViews::new(spec(k));
            let mut reference_workload = Workload::figure1(&Deployment::figure1());
            // Run three epochs: creation plus two pruned epochs.
            let results = run_continuous(&mut mint, &mut net, &mut workload, 3);
            for result in &results {
                let reference = exact_reference(&spec(k), &reference_workload.next_epoch());
                assert!(
                    result.same_ranking(&reference),
                    "k={k}: MINT ranking {result} differs from reference {reference}"
                );
                assert!(result.approx_eq(&reference, 1e-9), "k={k}: values must be exact");
            }
        }
    }

    #[test]
    fn mint_matches_tag_on_drifting_workloads() {
        let d = Deployment::clustered_rooms(6, 4, 20.0, kspot_net::rng::topology_seed(21));
        let make_workload = || {
            Workload::room_correlated(
                &d,
                ValueDomain::percentage(),
                RoomModelParams::default(),
                kspot_net::rng::workload_seed(21),
            )
        };
        let spec = spec(3);

        let mut mint_net = Network::new(d.clone(), NetworkConfig::ideal());
        let mut mint = MintViews::new(spec);
        let mint_results = run_continuous(&mut mint, &mut mint_net, &mut make_workload(), 60);

        let mut tag_net = Network::new(d.clone(), NetworkConfig::ideal());
        let mut tag = TagTopK::new(spec);
        let tag_results = run_continuous(&mut tag, &mut tag_net, &mut make_workload(), 60);

        for (m, t) in mint_results.iter().zip(tag_results.iter()) {
            assert!(m.same_ranking(t), "MINT must agree with TAG: {m} vs {t}");
            assert!(m.approx_eq(t, 1e-9));
        }
    }

    #[test]
    fn mint_transmits_fewer_tuples_and_bytes_than_tag() {
        let d = Deployment::clustered_rooms(9, 4, 20.0, kspot_net::rng::topology_seed(5));
        let spec = spec(2);
        let make_workload = || {
            Workload::room_correlated(
                &d,
                ValueDomain::percentage(),
                RoomModelParams::default(),
                kspot_net::rng::workload_seed(5),
            )
        };

        let mut mint_net = Network::new(d.clone(), NetworkConfig::mica2());
        let mut mint = MintViews::new(spec);
        run_continuous(&mut mint, &mut mint_net, &mut make_workload(), 80);

        let mut tag_net = Network::new(d.clone(), NetworkConfig::mica2());
        run_continuous(&mut TagTopK::new(spec), &mut tag_net, &mut make_workload(), 80);

        let mint_totals = mint_net.metrics().totals();
        let tag_totals = tag_net.metrics().totals();
        assert!(
            mint_totals.tuples < tag_totals.tuples,
            "MINT ({}) should ship fewer tuples than TAG ({})",
            mint_totals.tuples,
            tag_totals.tuples
        );
        assert!(mint_totals.bytes < tag_totals.bytes);
        assert!(mint_totals.energy_uj < tag_totals.energy_uj);
    }

    #[test]
    fn mint_saves_messages_through_silent_subtrees() {
        // Clustered rooms with strongly separated activity levels: the quiet rooms'
        // subtrees have nothing to report after the creation phase.
        let d = Deployment::clustered_rooms(4, 4, 20.0, 7);
        let trace: Vec<Vec<f64>> = (0..40)
            .map(|_| {
                (1..=16)
                    .map(|node: u32| {
                        let group = (node - 1) / 4;
                        match group {
                            0 => 90.0,
                            1 => 85.0,
                            _ => 15.0,
                        }
                    })
                    .collect()
            })
            .collect();
        let spec = spec(1);
        let make_workload = || Workload::trace(&d, ValueDomain::percentage(), trace.clone());

        let mut mint_net = Network::new(d.clone(), NetworkConfig::ideal());
        run_continuous(&mut MintViews::new(spec), &mut mint_net, &mut make_workload(), 40);

        let mut tag_net = Network::new(d.clone(), NetworkConfig::ideal());
        run_continuous(&mut TagTopK::new(spec), &mut tag_net, &mut make_workload(), 40);

        assert!(
            mint_net.metrics().totals().messages < tag_net.metrics().totals().messages,
            "quiet rooms should go silent under MINT ({} vs {} messages)",
            mint_net.metrics().totals().messages,
            tag_net.metrics().totals().messages
        );
    }

    #[test]
    fn mint_stays_exact_even_when_drift_exceeds_the_slack() {
        // A hostile workload: values are redrawn uniformly every epoch, so the threshold
        // is stale almost immediately.  MINT must fall back to probing and stay exact.
        let d = Deployment::clustered_rooms(5, 3, 20.0, kspot_net::rng::topology_seed(13));
        let spec = spec(2);
        let make_workload =
            || Workload::uniform_iid(&d, ValueDomain::percentage(), kspot_net::rng::workload_seed(13));

        let mut net = Network::new(d.clone(), NetworkConfig::ideal());
        let mut mint = MintViews::new(spec);
        let results = run_continuous(&mut mint, &mut net, &mut make_workload(), 30);

        let mut reference_workload = make_workload();
        for result in &results {
            let reference = exact_reference(&spec, &reference_workload.next_epoch());
            assert!(result.same_ranking(&reference), "exactness must survive hostile drift");
        }
        assert!(mint.stats().probe_epochs > 0, "the hostile workload should force probes");
    }

    #[test]
    fn stable_workloads_need_no_probes_and_few_rebroadcasts() {
        let d = Deployment::figure1();
        let mut workload = Workload::figure1(&d);
        let mut net = Network::new(d, NetworkConfig::ideal());
        let mut mint = MintViews::new(spec(1));
        run_continuous(&mut mint, &mut net, &mut workload, 20);
        let stats = mint.stats();
        assert_eq!(stats.creations, 1);
        assert_eq!(stats.probe_epochs, 0, "constant readings never need probes");
        assert_eq!(stats.rebroadcasts, 0, "constant readings never need new thresholds");
        assert_eq!(net.metrics().phase(PhaseTag::Probe).messages, 0);
    }

    #[test]
    fn creation_phase_floods_the_initial_threshold() {
        let d = Deployment::figure1();
        let readings = Workload::figure1(&d).next_epoch();
        let mut net = Network::new(d, NetworkConfig::ideal());
        let mut mint = MintViews::new(spec(1));
        let result = mint.execute_epoch(&mut net, &readings);
        assert_eq!(result.top().unwrap().key, 2);
        assert!(mint.tau.is_some());
        let tau = mint.tau.unwrap();
        assert!((tau - (75.0 - THRESHOLD_SLACK)).abs() < 1e-9);
        assert!(net.metrics().phase(PhaseTag::Control).messages > 0, "threshold flood is accounted");
        assert!(net.metrics().phase(PhaseTag::Creation).messages > 0);
    }

    /// A drawn reading value: on a grid of fives in the percentage domain, so that
    /// bounds tie with each other and with τ, or NaN.
    fn grid_value(raw: u32) -> f64 {
        if raw.is_multiple_of(23) {
            f64::NAN
        } else {
            f64::from(raw % 21) * 5.0
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 512, ..proptest::ProptestConfig::default() })]

        /// The prune on rows against the shrink it replaced, on the same drawn view:
        /// the same groups survive with bit-equal states.  The views hold 1–20 groups
        /// with sparse ids and NaN sums; a group is one the deployment lacks (no size:
        /// the count fallback), or the deployment's with a live size of 0, equal to what
        /// the view holds, above it or below it; every aggregate; k in `1..=len+1`; τ on
        /// the value grid, ±∞ or NaN.  The old shrink reads its sizes the old way, a
        /// list sorted by group without the groups of no live member.  The row arrives
        /// with its exact summary and must leave with the exact summary of what it
        /// keeps.
        /// (The kernel differential in `reference.rs` hands one closure to both
        /// kernels, so it cannot see a shrink bug; this can.)
        #[test]
        fn bound_first_prune_matches_the_previous_shrink(
            func in 0usize..5,
            groups in proptest::collection::vec((0u32..40, 1u32..5, 0u32..5, 0u32..100_000), 1..21),
            k_draw in 0usize..1_000,
            tau_draw in 0u32..28,
        ) {
            let func = [AggFunc::Avg, AggFunc::Sum, AggFunc::Min, AggFunc::Max, AggFunc::Count][func];
            let spec = |k| SnapshotSpec::new(k, func, ValueDomain::percentage());
            let mut view = GroupView::new(func);
            let mut live_sizes = std::collections::BTreeMap::new();
            for &(id, readings, live, seed) in &groups {
                let group = id.wrapping_mul(2_654_435_761);
                for r in 0..readings {
                    view.add_reading(group, grid_value(seed / (r + 1) + r));
                }
                let seen = view.get(group).expect("just added").count();
                let size = match live {
                    0 => None,
                    1 => Some(0),
                    2 => Some(seen),
                    3 => Some(seen + 1 + seed % 3),
                    _ => Some((seen - 1).max(1)),
                };
                // A group drawn twice keeps its first size.
                live_sizes.entry(group).or_insert(size);
            }
            let deployment: Vec<(GroupId, Vec<NodeId>)> =
                live_sizes.iter().filter(|(_, size)| size.is_some()).map(|(&g, _)| (g, Vec::new())).collect();
            let sizes: Vec<u32> = live_sizes.values().filter_map(|&size| size).collect();
            let old_sizes: Vec<(GroupId, u32)> =
                live_sizes.iter().filter_map(|(&g, &size)| size.filter(|&live| live > 0).map(|live| (g, live))).collect();
            let k = 1 + k_draw % (view.len() + 1);
            let tau = match tau_draw {
                0 => f64::NEG_INFINITY,
                1 => f64::INFINITY,
                2 => f64::NAN,
                d => f64::from(d - 3) * 5.0,
            };

            let gamma = Gamma::new(&spec(k), &sizes);
            let mut table = crate::view::GroupTable::from_view(&deployment, &view, &gamma);
            let (mut bounds, mut lbs, mut ubs) = (Vec::new(), Vec::new(), Vec::new());
            let mut row = table.row(0, &deployment);
            let before = row.len();
            prune(&mut row, k, tau, &gamma, &mut bounds, &mut lbs);
            // The row arrived with its exact summary, and leaves with the exact summary
            // of what it keeps.
            let mut exact = Summary::EMPTY;
            row.iter().for_each(|(slot, state)| exact.fold(gamma.of(slot, state)));
            let bits = |s: Summary| (s.min_ub.to_bits(), s.max_lb.to_bits(), s.nan);
            let kept = row.len();
            proptest::prop_assert_eq!(bits(row.summary()), bits(exact), "the summary after {} of {} kept", kept, before);
            let mut theirs = view;
            crate::reference::mint_shrink(&mut theirs, &spec(k), tau, &old_sizes, &mut lbs, &mut ubs);
            let bits = |v: &GroupView| v.iter().map(|(g, s)| (g, s.to_bits())).collect::<Vec<_>>();
            let ours = table.to_view(0, func, &deployment);
            proptest::prop_assert_eq!(bits(&ours), bits(&theirs), "k = {}, tau = {}", k, tau);
        }
    }

    #[test]
    fn mint_works_for_max_and_min_aggregates() {
        for func in [AggFunc::Max, AggFunc::Min, AggFunc::Sum] {
            let d = Deployment::clustered_rooms(5, 3, 20.0, kspot_net::rng::topology_seed(3));
            let spec = SnapshotSpec::new(2, func, ValueDomain::percentage());
            let make_workload = || {
                Workload::room_correlated(
                    &d,
                    ValueDomain::percentage(),
                    RoomModelParams::default(),
                    kspot_net::rng::workload_seed(3),
                )
            };
            let mut net = Network::new(d.clone(), NetworkConfig::ideal());
            let mut mint = MintViews::new(spec);
            let results = run_continuous(&mut mint, &mut net, &mut make_workload(), 25);
            let mut reference_workload = make_workload();
            for result in &results {
                let reference = exact_reference(&spec, &reference_workload.next_epoch());
                assert!(result.same_ranking(&reference), "{func}: MINT must stay exact");
            }
        }
    }
}
