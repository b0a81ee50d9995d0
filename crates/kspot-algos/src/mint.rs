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
//! Everything an epoch needs beyond that — the per-group live-member counts (sorted by
//! group and searched, never indexed by a raw, possibly sparse group id), the bound
//! buffers, the sink's exactly-known groups — lives in scratch the executor owns and
//! reuses, so a certified epoch allocates its answer and nothing else.

use crate::agg::AggState;
use crate::result::{RankedItem, TopKResult};
use crate::snapshot::{index_readings, SnapshotAlgorithm, SnapshotSpec};
use crate::tag::{convergecast_full, rank_view};
use crate::view::GroupView;
use kspot_net::{Epoch, GroupId, Network, NodeId, PhaseTag, Reading};
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
    /// How many members of each group can contribute this epoch, sorted by group (ids
    /// may be sparse: searched, never indexed).  On a healthy network this is the
    /// configured cluster size; under fault injection dead or sleeping members are
    /// excluded, which scopes the exactness claim to the nodes that can actually
    /// report — a group with no live member is absent, and so disappears from the
    /// answer space.  Recounted every epoch: liveness is never remembered.
    group_sizes: Vec<(GroupId, u32)>,
    /// The lower bounds of one node's view, for its local k-th bound, and the upper
    /// bounds its tuples are pruned by.
    local_lbs: Vec<f64>,
    upper_bounds: Vec<f64>,
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

/// The live members of `group` according to `sizes` (sorted by group), if it has any.
fn group_size(sizes: &[(GroupId, u32)], group: GroupId) -> Option<u32> {
    sizes.binary_search_by_key(&group, |&(g, _)| g).ok().map(|at| sizes[at].1)
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

    /// The threshold currently installed in the network, if the Creation phase has run.
    pub fn installed_threshold(&self) -> Option<f64> {
        self.tau
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
        let sink_view = convergecast_full(net, readings, &self.spec, PhaseTag::Creation, |_, _| {});
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
        let MintScratch { group_sizes, local_lbs, upper_bounds, .. } = &mut self.scratch;
        // Update phase: silent when nothing survived the pruning.  A report that is
        // dropped after its ARQ retries degrades to partial data — the sink then fails
        // certification for the affected groups and probes them instead.
        convergecast_full(net, readings, &self.spec, PhaseTag::Update, |_, view| {
            prune(view, &self.spec, tau, group_sizes, local_lbs, upper_bounds);
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

/// The Pruning phase on one node's view: a group stays in V'_i only if, even with every
/// unseen member at the top of the domain, it could still reach the *effective*
/// threshold.  The effective threshold is the broadcast τ or, when the node's own view
/// already contains k groups whose lower bounds beat τ, the k-th of those local lower
/// bounds — the purely local part of the γ framework, which lets interior nodes prune
/// even while the broadcast threshold is stale.  With fewer than k groups in the view
/// there is no k-th bound to find.
///
/// A NaN lower bound (corrupted reading) carries no evidence, so it is demoted to -inf
/// *before* the selection: were it left in place, a descending `total_cmp` would rank it
/// above every real value and inflate the k-th bound to the (k-1)-th — an unsafely high
/// threshold that could prune a true answer.  With NaN-free input `total_cmp` is a total
/// order, so the k-th largest is one well-defined value.
///
/// Most views lose nothing, so the bounds come first: the k-th lower bound never
/// exceeds the largest, and when the smallest upper bound clears both τ and that largest
/// one, every tuple clears the effective threshold and the view is left as it is.  A NaN
/// upper bound clears nothing, so it always takes the selection.
fn prune(
    view: &mut GroupView,
    spec: &SnapshotSpec,
    tau: f64,
    group_sizes: &[(GroupId, u32)],
    local_lbs: &mut Vec<f64>,
    upper_bounds: &mut Vec<f64>,
) {
    let SnapshotSpec { k, func, domain } = *spec;
    let wants_local_tau = view.len() >= k;
    local_lbs.clear();
    upper_bounds.clear();
    let (mut lowest_ub, mut highest_lb, mut nan_ub) = (f64::INFINITY, f64::NEG_INFINITY, false);
    for (g, state) in view.iter() {
        let total = group_size(group_sizes, g).unwrap_or_else(|| state.count());
        let missing = total.saturating_sub(state.count());
        let ub = state.upper_bound(func, missing, domain.max);
        nan_ub |= ub.is_nan();
        lowest_ub = lowest_ub.min(ub);
        upper_bounds.push(ub);
        if wants_local_tau {
            let lb = state.lower_bound(func, missing, domain.min);
            let lb = if lb.is_nan() { f64::NEG_INFINITY } else { lb };
            highest_lb = highest_lb.max(lb);
            local_lbs.push(lb);
        }
    }
    if !nan_ub && lowest_ub >= tau && lowest_ub >= highest_lb {
        return;
    }
    let local_tau = if wants_local_tau {
        *local_lbs.select_nth_unstable_by(k - 1, |a, b| b.total_cmp(a)).1
    } else {
        f64::NEG_INFINITY
    };
    let effective_tau = tau.max(local_tau);
    let mut upper_bound = upper_bounds.iter();
    view.retain(|_, _| *upper_bound.next().expect("one bound per tuple") >= effective_tau);
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
        group_sizes.extend(net.deployment().groups().iter().filter_map(|(group, members)| {
            let live = members.iter().filter(|&&m| net.node_participating(m)).count() as u32;
            (live > 0).then_some((*group, live))
        }));
        let sink_view = self.pruned_sweep(net, readings, tau);

        // --- sink-side verification -------------------------------------------------
        // Exact values are available for every group whose contributions all arrived.
        let mut exact = std::mem::take(&mut self.scratch.exact);
        exact.clear();
        for (g, state) in sink_view.iter() {
            let total = group_size(&self.scratch.group_sizes, g).unwrap_or(0);
            if let Some(v) = state.exact_value(self.spec.func, total) {
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
                self.scratch
                    .group_sizes
                    .iter()
                    .filter(|(g, _)| exact.binary_search_by_key(g, |&(known, _)| known).is_err()),
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
        assert!(mint.installed_threshold().is_some());
        let tau = mint.installed_threshold().unwrap();
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

        /// The bound-first prune against the shrink it replaced, on random sorted views:
        /// the same groups survive with bit-equal states.  The views hold 1–20 groups
        /// with sparse ids and NaN sums; each group's live size is absent from the
        /// sizes, equal to what the view holds, above it or below it; every aggregate;
        /// k in `1..=len+1`; τ on the value grid, ±∞ or NaN.  (The kernel differential
        /// in `reference.rs` hands one closure to both kernels, so it cannot see a shrink
        /// bug; this can.)
        #[test]
        fn bound_first_prune_matches_the_previous_shrink(
            func in 0usize..5,
            groups in proptest::collection::vec((0u32..40, 1u32..5, 0u32..4, 0u32..100_000), 1..21),
            k_draw in 0usize..1_000,
            tau_draw in 0u32..28,
        ) {
            let func = [AggFunc::Avg, AggFunc::Sum, AggFunc::Min, AggFunc::Max, AggFunc::Count][func];
            let spec = |k| SnapshotSpec::new(k, func, ValueDomain::percentage());
            let mut view = GroupView::new(func);
            let mut group_sizes = Vec::new();
            for &(id, readings, live, seed) in &groups {
                let group = id.wrapping_mul(2_654_435_761);
                for r in 0..readings {
                    view.add_reading(group, grid_value(seed / (r + 1) + r));
                }
                let seen = view.get(group).expect("just added").count();
                match live {
                    0 => {}
                    1 => group_sizes.push((group, seen)),
                    2 => group_sizes.push((group, seen + 1 + seed % 3)),
                    _ => group_sizes.push((group, (seen - 1).max(1))),
                }
            }
            group_sizes.sort_unstable();
            group_sizes.dedup_by_key(|(g, _)| *g);
            let k = 1 + k_draw % (view.len() + 1);
            let tau = match tau_draw {
                0 => f64::NEG_INFINITY,
                1 => f64::INFINITY,
                2 => f64::NAN,
                d => f64::from(d - 3) * 5.0,
            };

            let (mut ours, mut theirs) = (view.clone(), view);
            let (mut lbs, mut ubs) = (Vec::new(), Vec::new());
            prune(&mut ours, &spec(k), tau, &group_sizes, &mut lbs, &mut ubs);
            crate::reference::mint_shrink(&mut theirs, &spec(k), tau, &group_sizes, &mut lbs, &mut ubs);
            let bits = |v: &GroupView| v.iter().map(|(g, s)| (g, s.to_bits())).collect::<Vec<_>>();
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
