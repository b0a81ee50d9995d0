//! The map-based convergecast loops the crate shipped before the allocation-free
//! kernel ([`crate::tag::convergecast_full`]), kept verbatim as the
//! oracle: a property test drives both over random trees, aggregates, fault plans and
//! co-registered scopes and demands the same answers and — compared bit for bit — the
//! same ledgers and batteries.

use crate::centralized::CentralizedCollection;
use crate::mint::MintViews;
use crate::naive::NaiveLocalPrune;
use crate::result::TopKResult;
use crate::snapshot::{exact_reference, run_shared_epoch, SnapshotAlgorithm, SnapshotSpec};
use crate::tag::TagTopK;
use crate::view::GroupView;
use kspot_net::{Network, NodeId, PhaseTag, Reading, SINK};
use std::collections::BTreeMap;

thread_local! {
    /// While set, `tag::convergecast_full` on this thread runs the reference below.
    static IN_USE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Whether sweeps on this thread are to run the reference kernel.
pub(crate) fn in_use() -> bool {
    IN_USE.get()
}

/// Runs `body` with this thread's sweeps on the reference kernel.
fn on_reference<R>(body: impl FnOnce() -> R) -> R {
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            IN_USE.set(false);
        }
    }
    let _restore = Restore;
    IN_USE.set(true);
    body()
}

/// The previous `tag::convergecast_full`: readings and delivered views are looked up
/// in per-call maps, and a node merges its children's views at its own turn.
pub(crate) fn convergecast_full(
    net: &mut Network,
    readings: &[Reading],
    spec: &SnapshotSpec,
    phase: PhaseTag,
    mut shrink: impl FnMut(NodeId, &mut GroupView),
) -> GroupView {
    let epoch = readings.first().map(|r| r.epoch).unwrap_or(0);
    let reading_of: BTreeMap<NodeId, &Reading> = readings.iter().map(|r| (r.node, r)).collect();
    let mut inbox: BTreeMap<NodeId, Vec<GroupView>> = BTreeMap::new();
    let order = net.tree().post_order();
    for node in order {
        if !net.node_participating(node) {
            continue;
        }
        let mut view = GroupView::new(spec.func);
        if let Some(r) = reading_of.get(&node) {
            view.add_reading(r.group, r.value);
        }
        if let Some(children_views) = inbox.remove(&node) {
            for cv in &children_views {
                view.merge(cv);
            }
        }
        net.charge_cpu(node, view.len() as u32);
        shrink(node, &mut view);
        if !view.is_empty() {
            if let Some(parent) = net.send_report_up(node, epoch, view.len() as u32, 0, phase) {
                inbox.entry(parent).or_default().push(view);
            }
        }
    }
    let mut sink_view = GroupView::new(spec.func);
    if let Some(views) = inbox.remove(&SINK) {
        for v in &views {
            sink_view.merge(v);
        }
    }
    sink_view
}

/// The previous `CentralizedCollection::execute_epoch`, as an algorithm of its own.
struct ReferenceCentralized {
    spec: SnapshotSpec,
}

impl SnapshotAlgorithm for ReferenceCentralized {
    fn name(&self) -> &'static str {
        "centralized collection (reference)"
    }

    fn execute_epoch(&mut self, net: &mut Network, readings: &[Reading]) -> TopKResult {
        let epoch = readings.first().map(|r| r.epoch).unwrap_or(0);
        let reading_of: BTreeMap<NodeId, &Reading> = readings.iter().map(|r| (r.node, r)).collect();
        let mut inbox: BTreeMap<NodeId, Vec<Reading>> = BTreeMap::new();
        for node in net.tree().post_order() {
            if !net.node_participating(node) {
                continue;
            }
            let mut batch: Vec<Reading> = inbox.remove(&node).unwrap_or_default();
            if let Some(r) = reading_of.get(&node) {
                batch.push(**r);
            }
            net.charge_cpu(node, batch.len() as u32);
            if !batch.is_empty() {
                if let Some(parent) =
                    net.send_report_up(node, epoch, batch.len() as u32, 0, PhaseTag::Update)
                {
                    inbox.entry(parent).or_default().extend(batch);
                }
            }
        }
        let delivered = inbox.remove(&SINK).unwrap_or_default();
        exact_reference(&self.spec, &delivered)
    }
}

/// The four sweeping strategies; the centralized one on its new loop or the reference.
fn algorithm(kind: usize, spec: SnapshotSpec, reference: bool) -> Box<dyn SnapshotAlgorithm> {
    match (kind % 4, reference) {
        (0, _) => Box::new(TagTopK::new(spec)),
        (1, _) => Box::new(MintViews::new(spec)),
        (2, _) => Box::new(NaiveLocalPrune::new(spec)),
        (_, false) => Box::new(CentralizedCollection::new(spec)),
        (_, true) => Box::new(ReferenceCentralized { spec }),
    }
}

mod properties {
    use super::*;
    use kspot_net::fault::{DutyCycle, FaultPlan};
    use kspot_net::topology::{DeploymentKind, NodeSpec, Position};
    use kspot_net::types::ValueDomain;
    use kspot_net::{Deployment, NetworkConfig, NetworkMetrics, PhaseTotals, RadioModel, Workload};
    use kspot_query::AggFunc;
    use proptest::prelude::*;
    use rand::Rng;

    const FUNCS: [AggFunc; 5] = [AggFunc::Avg, AggFunc::Sum, AggFunc::Min, AggFunc::Max, AggFunc::Count];

    /// A deployment over an explicit random tree: `raw[i]` picks node `i + 1`'s parent
    /// among the sink and the nodes before it, then the ids are shuffled so parents
    /// are not always smaller than their children.  Group ids are sparse on purpose.
    fn random_tree(raw: &[u32], groups: u32, seed: u64) -> Deployment {
        let n = raw.len();
        let mut relabel: Vec<NodeId> = (1..=n as NodeId).collect();
        let mut rng = kspot_net::rng::stream_rng(seed, &[0x7EE]);
        for i in (1..n).rev() {
            relabel.swap(i, rng.gen_range(0..=i));
        }
        let id_of = |structural: u32| if structural == 0 { SINK } else { relabel[structural as usize - 1] };
        let mut parents = BTreeMap::new();
        let mut nodes = Vec::new();
        for (i, &r) in raw.iter().enumerate() {
            let id = id_of(i as u32 + 1);
            parents.insert(id, id_of(r % (i as u32 + 1)));
            nodes.push(NodeSpec {
                id,
                position: Position::new(f64::from(id), 1.0),
                group: (id % groups) * 1_000_003 + 5,
            });
        }
        Deployment::from_parts(DeploymentKind::Custom, Position::new(0.0, 0.0), nodes, 5.0)
            .with_explicit_parents(parents)
    }

    fn totals_bits(t: PhaseTotals) -> [u64; 6] {
        [t.messages, t.bytes, t.tuples, t.retransmissions, t.dropped_messages, t.energy_uj.to_bits()]
    }

    /// Every public read of a ledger, floats as bit patterns.
    fn ledger_bits(m: &NetworkMetrics) -> Vec<Vec<u64>> {
        let mut out = vec![totals_bits(m.totals()).to_vec()];
        for id in 1..=m.num_nodes() as NodeId {
            let c = m.node(id);
            out.push(vec![
                c.tx_messages,
                c.rx_messages,
                c.tx_bytes,
                c.rx_bytes,
                c.tuples_sent,
                c.dropped_messages,
                c.energy_uj.to_bits(),
            ]);
        }
        let row = |key: u64, t: PhaseTotals| [&[key][..], &totals_bits(t)[..]].concat();
        out.extend(m.epochs().map(|(e, t)| row(e, t)));
        out.extend(m.phases().map(|(p, t)| row(p as u64, t)));
        for (scope, t) in m.scopes() {
            out.push(row(u64::from(scope), t));
            out.extend(m.scope_phases(scope).map(|(p, t)| row(p as u64, t)));
        }
        out.extend(m.storage_scopes().map(|(s, t)| {
            vec![u64::from(s), t.pages_written, t.pages_read, t.bytes_written, t.energy_uj.to_bits()]
        }));
        out
    }

    fn result_bits(r: &TopKResult) -> (u64, Vec<(u64, u64)>) {
        (r.epoch, r.items.iter().map(|i| (i.key, i.value.to_bits())).collect())
    }

    fn view_bits(v: &GroupView) -> Vec<(u32, String)> {
        v.iter().map(|(g, s)| (g, format!("{s:?}"))).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        /// The new kernel and the map-based reference are indistinguishable from the
        /// outside: answers, every ledger axis and every battery, bit for bit.
        #[test]
        fn kernel_matches_the_map_based_reference(
            raw in prop::collection::vec(0u32..100_000, 1..120),
            groups in 1u32..9,
            func in 0usize..5,
            k in 1usize..5,
            loss_pct in 0u32..50,
            retransmits in 0u32..3,
            death in prop_oneof![Just(false), Just(true)],
            duty in prop_oneof![Just(false), Just(true)],
            battery_uj in prop_oneof![Just(1.0e12), 400.0f64..40_000.0],
            batching in prop_oneof![Just(false), Just(true)],
            scopes in 1usize..5,
            seed in 0u64..1_000_000,
        ) {
            let d = random_tree(&raw, groups, seed);
            let n = d.num_nodes() as u64;
            let mut faults = FaultPlan::none()
                .with_link_loss(f64::from(loss_pct) / 100.0)
                .with_retransmits(retransmits);
            if death {
                faults = faults.with_node_death(1 + (seed % n) as NodeId, seed % 12);
            }
            if duty {
                faults = faults.with_duty_cycle(DutyCycle::new(4, 3));
            }
            let config = NetworkConfig::mica2()
                .with_radio(RadioModel::mica2().with_loss(0.02))
                .with_seed(seed)
                .with_battery_uj(battery_uj)
                .with_faults(faults);
            let spec = SnapshotSpec::new(k, FUNCS[func], ValueDomain::percentage());

            let mut nets = [Network::new(d.clone(), config.clone()), Network::new(d.clone(), config)];
            let mut sessions: [Vec<Box<dyn SnapshotAlgorithm>>; 2] = [false, true]
                .map(|reference| (0..scopes).map(|s| algorithm(s + seed as usize, spec, reference)).collect());
            let mut workload = Workload::uniform_iid(&d, ValueDomain::percentage(), seed);
            for net in &mut nets {
                net.set_frame_batching(batching);
            }
            for _ in 0..12 {
                let readings = workload.next_epoch();
                let mut answers = Vec::new();
                for (side, (net, sessions)) in nets.iter_mut().zip(&mut sessions).enumerate() {
                    let mut algos: Vec<&mut dyn SnapshotAlgorithm> =
                        sessions.iter_mut().map(|a| &mut **a as &mut dyn SnapshotAlgorithm).collect();
                    // Sparse scope ids: a scope must cost a ledger row, not an index.
                    let mut epoch = || run_shared_epoch(&mut algos, net, &readings, |net, i| {
                        net.set_query_scope(Some(i as u32 * 1_000_000 + 9));
                    });
                    let results = if side == 1 { on_reference(epoch) } else { epoch() };
                    answers.push(results.iter().map(result_bits).collect::<Vec<_>>());
                }
                prop_assert_eq!(&answers[0], &answers[1]);
            }

            // One more sweep, kernel against reference directly: the same sink view.
            let readings = workload.next_epoch();
            let [new, old] = &mut nets;
            new.begin_epoch(12);
            old.begin_epoch(12);
            let ours = view_bits(&crate::tag::convergecast_full(new, &readings, &spec, PhaseTag::Update, |_, v| {
                v.truncate_to_local_top_k(3);
            }));
            let theirs = view_bits(&convergecast_full(old, &readings, &spec, PhaseTag::Update, |_, v| {
                v.truncate_to_local_top_k(3);
            }));
            prop_assert_eq!(ours, theirs);
            new.flush_frames();
            old.flush_frames();

            prop_assert_eq!(ledger_bits(new.metrics()), ledger_bits(old.metrics()));
            for id in 1..=n as NodeId {
                prop_assert_eq!(
                    new.batteries().get(id).remaining_uj().to_bits(),
                    old.batteries().get(id).remaining_uj().to_bits()
                );
            }
        }
    }

    fn figure1() -> (Network, Vec<Reading>, SnapshotSpec) {
        let d = Deployment::figure1();
        let readings = Workload::figure1(&d).next_epoch();
        let spec = SnapshotSpec::new(2, AggFunc::Avg, ValueDomain::percentage());
        (Network::new(d, NetworkConfig::ideal()), readings, spec)
    }

    /// Runs TAG and centralized collection on the kernel and on the reference over
    /// `readings` and demands the same answers and ledgers.
    fn assert_same_as_reference(readings: &[Reading]) {
        let (net, _, spec) = figure1();
        for kind in [0, 3] {
            let (mut new, mut old) = (net.clone(), net.clone());
            let ours = algorithm(kind, spec, false).execute_epoch(&mut new, readings);
            let theirs = on_reference(|| algorithm(kind, spec, true).execute_epoch(&mut old, readings));
            assert_eq!(result_bits(&ours), result_bits(&theirs));
            assert_eq!(ledger_bits(new.metrics()), ledger_bits(old.metrics()));
        }
    }

    #[test]
    fn a_reading_of_the_sink_is_ignored() {
        let (_, mut readings, _) = figure1();
        readings.push(Reading::new(SINK, 2, 0, 99.0));
        assert_same_as_reference(&readings);
    }

    #[test]
    fn a_reading_of_no_node_of_the_network_is_ignored() {
        let (_, mut readings, _) = figure1();
        readings.push(Reading::new(10, 2, 0, 99.0));
        readings.push(Reading::new(NodeId::MAX, 2, 0, 99.0));
        assert_same_as_reference(&readings);
    }

    #[test]
    fn of_two_readings_for_one_node_the_last_wins() {
        let (_, mut readings, _) = figure1();
        readings.push(Reading::new(5, 2, 0, 1.0));
        readings.insert(0, Reading::new(9, 3, 0, 100.0));
        assert_same_as_reference(&readings);
    }

    #[test]
    fn a_huge_group_id_costs_one_view_entry() {
        let (mut net, mut readings, spec) = figure1();
        for r in &mut readings {
            r.group = u32::MAX - r.group * 1_000_000;
        }
        assert_same_as_reference(&readings);
        let view = crate::tag::convergecast_full(&mut net, &readings, &spec, PhaseTag::Update, |_, _| {});
        assert_eq!(view.len(), 4);
        // MINT sizes groups by their position in the deployment's group list; groups it
        // has never heard of fall back to what the view itself holds.
        let mut mint = MintViews::new(spec);
        for _ in 0..3 {
            assert_eq!(mint.execute_epoch(&mut net, &readings).items.len(), 2);
        }
    }
}
