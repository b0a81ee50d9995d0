//! The map-based loops the crate shipped before its flat kernels, kept verbatim as the
//! oracles: the convergecast of the snapshot algorithms (now
//! [`crate::tag::convergecast_full`]) and MINT's shrink before it pruned bound-first
//! (now `crate::mint::prune`), in [`historic`], TJA and TPUT as they ran
//! before the flat epoch table (`crate::threshold`), and in [`fila`] the FILA monitor
//! whose sink kept what it knows in a map.  Property tests drive old and new
//! over random trees, aggregates, windows, fault plans and co-registered scopes and
//! demand the same answers and — compared bit for bit — the same ledgers and batteries.

use crate::centralized::CentralizedCollection;
use crate::mint::MintViews;
use crate::naive::NaiveLocalPrune;
use crate::result::TopKResult;
use crate::snapshot::{exact_reference, run_shared_epoch, SnapshotAlgorithm, SnapshotSpec};
use crate::tag::TagTopK;
use crate::view::GroupView;
use kspot_net::{GroupId, Network, NodeId, PhaseTag, Reading, SINK};
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
    let mut buf = Vec::new();
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
                view.merge(cv, &mut buf);
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
            sink_view.merge(v, &mut buf);
        }
    }
    sink_view
}

/// The previous MINT shrink — the closure `MintViews::pruned_sweep` handed the kernel —
/// kept verbatim but for the group-size search, spelled out here: every view computes
/// both bounds of every tuple, selects its k-th lower bound and retains.  The oracle of
/// `bound_first_prune_matches_the_previous_shrink`.
pub(crate) fn mint_shrink(
    view: &mut GroupView,
    spec: &SnapshotSpec,
    tau: f64,
    group_sizes: &[(GroupId, u32)],
    local_lbs: &mut Vec<f64>,
    upper_bounds: &mut Vec<f64>,
) {
    let SnapshotSpec { k, func, domain } = *spec;
    let group_size = |group: GroupId| {
        group_sizes.binary_search_by_key(&group, |&(g, _)| g).ok().map(|at| group_sizes[at].1)
    };
    let wants_local_tau = view.len() >= k;
    local_lbs.clear();
    upper_bounds.clear();
    for (g, state) in view.iter() {
        let total = group_size(g).unwrap_or_else(|| state.count());
        let missing = total.saturating_sub(state.count());
        upper_bounds.push(state.upper_bound(func, missing, domain.max));
        if wants_local_tau {
            let lb = state.lower_bound(func, missing, domain.min);
            local_lbs.push(if lb.is_nan() { f64::NEG_INFINITY } else { lb });
        }
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
    use crate::historic::{BankWindows, HistoricAlgorithm, HistoricSpec, WindowSource};
    use crate::tja::Tja;
    use crate::tput::Tput;
    use kspot_net::{
        Deployment, NetworkConfig, NetworkMetrics, PhaseTotals, RadioModel, WindowBank, Workload,
    };
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

    /// A lossy MICA2 network over `d` with the drawn faults: link loss and ARQ, one node
    /// (picked by `seed`) dying at epoch `death`, a 3-in-4 duty cycle.
    fn faulted_config(
        d: &Deployment,
        loss_pct: u32,
        retransmits: u32,
        death: Option<u64>,
        duty: bool,
        battery_uj: f64,
        seed: u64,
    ) -> NetworkConfig {
        let mut faults = FaultPlan::none()
            .with_link_loss(f64::from(loss_pct) / 100.0)
            .with_retransmits(retransmits);
        if let Some(epoch) = death {
            faults = faults.with_node_death(1 + (seed % d.num_nodes() as u64) as NodeId, epoch);
        }
        if duty {
            faults = faults.with_duty_cycle(DutyCycle::new(4, 3));
        }
        NetworkConfig::mica2()
            .with_radio(RadioModel::mica2().with_loss(0.02))
            .with_seed(seed)
            .with_battery_uj(battery_uj)
            .with_faults(faults)
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
            let config =
                faulted_config(&d, loss_pct, retransmits, death.then_some(seed % 12), duty, battery_uj, seed);
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

    // ------------------------------------------------------------ the historic kernel

    /// One differential case of the threshold kernel: what the windows hold, who asks
    /// over which source, and what the network does to the answer.
    #[derive(Debug, Clone, Copy)]
    struct HistoricCase {
        window: usize,
        k: usize,
        func: AggFunc,
        /// 0: the view owning a bank that holds exactly the span, as `collect` opens it;
        /// 1: the live view, borrowed from a bank that remembers three epochs more than
        /// the span; 2: the same view owning its bank, as a restore opens it.
        source: usize,
        /// 0: one epoch per feed; 1: gaps between them; 2: some feeds repeat the epoch
        /// before; 3: the odd nodes' clocks run one epoch ahead of the feed's.
        calendar: usize,
        loss_pct: u32,
        retransmits: u32,
        death: bool,
        duty: bool,
        battery_uj: f64,
        nan: bool,
        seed: u64,
    }

    /// What a case exercised, for the tests that demand a case exercises it.
    #[derive(Debug, Default, PartialEq)]
    struct Exercised {
        cleanup_pulls: usize,
        phase3_fetches: usize,
        depleted_mid_run: usize,
    }

    enum Source<'a> {
        Live(BankWindows<&'a mut WindowBank>),
        Owned(BankWindows<WindowBank>),
    }

    impl<'a> Source<'a> {
        fn open(bank: &'a mut WindowBank, case: &HistoricCase) -> Self {
            match case.source {
                1 => Source::Live(BankWindows::new(bank, case.window)),
                _ => Source::Owned(BankWindows::new(bank.clone(), case.window)),
            }
        }

        fn windows(&mut self) -> &mut dyn WindowSource {
            match self {
                Source::Live(view) => view,
                Source::Owned(view) => view,
            }
        }

        /// Every window's page reads, ascending by node.
        fn page_reads(&mut self) -> Vec<u64> {
            let bank = match self {
                Source::Live(view) => view.bank(),
                Source::Owned(view) => view.bank(),
            };
            bank.windows().map(|(_, w)| w.page_reads()).collect()
        }
    }

    /// The windows of a case: one feed per covered epoch (and three older ones where the
    /// source is a view), values on a grid of fives in every third case so that ranks tie.
    fn fed_bank(d: &Deployment, case: &HistoricCase) -> WindowBank {
        let feeds = case.window + if case.source == 0 { 0 } else { 3 };
        let mut bank = WindowBank::new(feeds);
        let mut rng = kspot_net::rng::stream_rng(case.seed, &[0xDA7A]);
        let nodes = d.node_ids();
        let poisoned = (feeds - 1 - case.window / 2, nodes[case.seed as usize % nodes.len()]);
        let mut epoch = 10 + case.seed % 5;
        for feed in 0..feeds {
            epoch += match case.calendar {
                1 => rng.gen_range(1..4u64),
                2 => u64::from(rng.gen_range(0..3u32) > 0),
                _ => 1,
            };
            let readings: Vec<Reading> = nodes
                .iter()
                .map(|&node| {
                    let ahead = if case.calendar == 3 { u64::from(node % 2) } else { 0 };
                    let value = if case.nan && (feed, node) == poisoned {
                        f64::NAN
                    } else if case.seed.is_multiple_of(3) {
                        f64::from(rng.gen_range(0..=20u32)) * 5.0
                    } else {
                        rng.gen_range(0.0..=100.0)
                    };
                    Reading::new(node, d.group_of(node), epoch + ahead, value)
                })
                .collect();
            bank.feed(&readings);
        }
        bank
    }

    /// Runs TJA and TPUT on the kernel and on the map-based reference over equal
    /// windows and equal networks and demands that nothing observable tells them apart.
    fn assert_historic_case(d: &Deployment, case: &HistoricCase) -> Exercised {
        let bank = fed_bank(d, case);
        let n = d.num_nodes() as u64;
        let config = faulted_config(
            d,
            case.loss_pct,
            case.retransmits,
            case.death.then_some(5),
            case.duty,
            case.battery_uj,
            case.seed,
        );
        let spec = HistoricSpec::new(case.k, case.func, ValueDomain::percentage(), case.window);
        let query_epoch = bank.epochs().next_back().expect("a case feeds at least one epoch");

        let mut exercised = Exercised::default();
        for tput in [false, true] {
            let mut sides = Vec::new();
            for reference in [false, true] {
                let mut net = Network::new(d.clone(), config.clone());
                net.begin_epoch(query_epoch);
                net.set_query_scope(Some(7));
                let depleted_before = net.batteries().depleted_count();
                let mut bank = bank.clone();
                let mut source = Source::open(&mut bank, case);
                let (result, stats) = match (tput, reference) {
                    (false, false) => {
                        let mut tja = Tja::new(spec);
                        let result = tja.execute(&mut net, source.windows());
                        exercised.cleanup_pulls += tja.stats().cleanup_pulls;
                        (result, format!("{:?}", tja.stats()))
                    }
                    (false, true) => {
                        let mut tja = super::historic::Tja { spec, stats: Default::default() };
                        (tja.execute(&mut net, source.windows()), format!("{:?}", tja.stats))
                    }
                    (true, false) => {
                        let mut tput = Tput::new(spec);
                        let result = tput.execute(&mut net, source.windows());
                        exercised.phase3_fetches += tput.stats().phase3_fetches;
                        (result, format!("{:?}", tput.stats()))
                    }
                    (true, true) => {
                        let mut tput = super::historic::Tput { spec, stats: Default::default() };
                        (tput.execute(&mut net, source.windows()), format!("{:?}", tput.stats))
                    }
                };
                if !reference {
                    exercised.depleted_mid_run += net.batteries().depleted_count() - depleted_before;
                }
                let batteries: Vec<u64> =
                    (1..=n as NodeId).map(|id| net.batteries().get(id).remaining_uj().to_bits()).collect();
                sides.push((result_bits(&result), stats, ledger_bits(net.metrics()), batteries, source.page_reads()));
            }
            prop_assert_eq!(&sides[0], &sides[1], "{} diverged", if tput { "TPUT" } else { "TJA" });
        }
        exercised
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        /// TJA and TPUT on the flat epoch table and on the map-based reference are
        /// indistinguishable from the outside: answers and scores, statistics, every
        /// ledger axis, every battery and every window's page reads, bit for bit.
        #[test]
        fn threshold_kernel_matches_the_map_based_reference(
            raw in prop::collection::vec(0u32..100_000, 1..120),
            window in 1usize..129,
            k_draw in 0usize..1_000,
            sum in prop_oneof![Just(false), Just(true)],
            source in 0usize..3,
            calendar in 0usize..4,
            loss_pct in prop_oneof![Just(0u32), 0u32..50],
            retransmits in 0u32..3,
            death in prop_oneof![Just(false), Just(true)],
            duty in prop_oneof![Just(false), Just(true)],
            battery_uj in prop_oneof![Just(1.0e12), 2_000.0f64..200_000.0],
            nan in prop_oneof![Just(false), Just(false), Just(false), Just(true)],
            seed in 0u64..1_000_000,
        ) {
            let case = HistoricCase {
                window,
                k: 1 + k_draw % (window + 1),
                func: if sum { AggFunc::Sum } else { AggFunc::Avg },
                source,
                calendar,
                loss_pct,
                retransmits,
                death,
                duty,
                battery_uj,
                nan,
                seed,
            };
            assert_historic_case(&random_tree(&raw, 3, seed), &case);
        }
    }

    /// The corners the random cases need not reach, reached: a battery that gives out
    /// while the sweep is under way, a Clean-Up (and a TPUT phase 3) that has to pull,
    /// and a window holding a NaN — each still indistinguishable from the reference.
    #[test]
    fn the_kernel_matches_the_reference_through_depletion_clean_up_and_nan() {
        let raw: Vec<u32> = (0..40).map(|i| i * 7 + 3).collect();
        let d = random_tree(&raw, 3, 11);
        let calm = HistoricCase {
            window: 64,
            k: 5,
            func: AggFunc::Avg,
            source: 1,
            calendar: 0,
            loss_pct: 0,
            retransmits: 0,
            death: false,
            duty: false,
            battery_uj: 1.0e12,
            nan: false,
            seed: 11,
        };
        let pulled = assert_historic_case(&d, &HistoricCase { loss_pct: 30, retransmits: 1, ..calm });
        assert!(pulled.cleanup_pulls > 0 && pulled.phase3_fetches > 0, "{pulled:?}");
        let drained = assert_historic_case(&d, &HistoricCase { battery_uj: 30_000.0, ..calm });
        assert!(drained.depleted_mid_run > 0, "{drained:?}");
        for source in 0..3 {
            assert_historic_case(&d, &HistoricCase { nan: true, source, calendar: source + 1, ..calm });
        }
    }

    // ---------------------------------------------------------------- the FILA monitor

    /// How many epochs of a differential run were of each kind.
    #[derive(Debug, Default)]
    struct FilaExercised {
        /// No filter was crossed: the sink ranks what it knew.
        quiet: usize,
        /// A crossing was reported and probing the Top-K members settled it.
        violating: usize,
        /// The k-th probed value fell below the boundary: everyone was probed.
        refreshing: usize,
    }

    /// Runs the dense FILA monitor and the map-based one over equal networks and equal
    /// readings (a random walk of step `sigma`) and demands the same answers, counters,
    /// ledgers and batteries, bit for bit.
    fn assert_fila_case(d: &Deployment, config: &NetworkConfig, k: usize, sigma: f64, seed: u64) -> FilaExercised {
        let spec = SnapshotSpec::new(k, AggFunc::Max, ValueDomain::percentage());
        let (mut new, mut old) = (Network::new(d.clone(), config.clone()), Network::new(d.clone(), config.clone()));
        let (mut dense, mut mapped) = (crate::fila::FilaMonitor::new(spec), super::fila::FilaMonitor::new(spec));
        let mut workload = Workload::random_walk(d, ValueDomain::percentage(), sigma, seed);
        let mut exercised = FilaExercised::default();
        for epoch in 0..30 {
            let readings = workload.next_epoch();
            let before = dense.stats();
            let ours = run_shared_epoch(&mut [&mut dense], &mut new, &readings, |_, _| {});
            let theirs = run_shared_epoch(&mut [&mut mapped], &mut old, &readings, |_, _| {});
            assert_eq!(result_bits(&ours[0]), result_bits(&theirs[0]), "epoch {epoch}");
            assert_eq!(dense.stats(), mapped.stats(), "epoch {epoch}");
            assert_eq!(totals_bits(new.metrics().totals()), totals_bits(old.metrics().totals()), "epoch {epoch}");
            assert_eq!(ours[0].items.capacity(), ours[0].items.len(), "an answer holds its items and no more");
            let probed = (dense.stats().probes - before.probes) as usize;
            if epoch > 0 {
                match probed {
                    0 => exercised.quiet += 1,
                    p if p <= k => exercised.violating += 1,
                    _ => exercised.refreshing += 1,
                }
            }
        }
        assert_eq!(ledger_bits(new.metrics()), ledger_bits(old.metrics()));
        for id in 1..=d.num_nodes() as NodeId {
            assert_eq!(
                new.batteries().get(id).remaining_uj().to_bits(),
                old.batteries().get(id).remaining_uj().to_bits()
            );
        }
        exercised
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// The dense monitor and the map-based reference are indistinguishable from the
        /// outside, whatever the tree, the drift and the faults.
        #[test]
        fn dense_fila_matches_the_map_based_reference(
            raw in prop::collection::vec(0u32..100_000, 1..120),
            k in 1usize..7,
            sigma in prop_oneof![Just(0.05), 0.1f64..3.0, 3.0f64..25.0],
            loss_pct in prop_oneof![Just(0u32), 0u32..50],
            retransmits in 0u32..3,
            death in prop_oneof![Just(false), Just(true)],
            duty in prop_oneof![Just(false), Just(true)],
            battery_uj in prop_oneof![Just(1.0e12), 2_000.0f64..200_000.0],
            seed in 0u64..1_000_000,
        ) {
            let d = random_tree(&raw, 3, seed);
            let config =
                faulted_config(&d, loss_pct, retransmits, death.then_some(seed % 12), duty, battery_uj, seed);
            assert_fila_case(&d, &config, k, sigma, seed);
        }
    }

    /// The three kinds of epoch, each reached on a healthy 8 × 8 grid: slow drift leaves
    /// most epochs quiet, faster drift crosses filters that the members' probes settle,
    /// and a walk of large steps drops the k-th member below the boundary.
    #[test]
    fn the_dense_fila_matches_the_reference_over_quiet_violating_and_refreshing_epochs() {
        let d = Deployment::grid(8, 10.0, Some(16));
        let config = NetworkConfig::mica2();
        let mut seen = FilaExercised::default();
        for (sigma, seed) in [(0.02, 5), (0.5, 6), (8.0, 7)] {
            let run = assert_fila_case(&d, &config, 3, sigma, seed);
            seen.quiet += run.quiet;
            seen.violating += run.violating;
            seen.refreshing += run.refreshing;
        }
        assert!(seen.quiet > 0 && seen.violating > 0 && seen.refreshing > 0, "{seen:?}");
    }
}

/// `Tja::execute` and `Tput::execute` as the crate shipped them before the flat epoch
/// table ([`crate::threshold`]), kept verbatim but for how they call the source: per-node
/// `BTreeMap<Epoch, EpochPartial>` inboxes, `BTreeSet<NodeId>` contributor sets, every
/// list a fresh `Vec`.  The oracle of `threshold_kernel_matches_the_map_based_reference`.
mod historic {
    use crate::historic::{HistoricAlgorithm, HistoricSpec, WindowSource};
    use crate::result::{RankedItem, TopKResult};
    use crate::tja::TjaStats;
    use crate::tput::TputStats;
    use kspot_net::types::cmp_value;
    use kspot_net::{Epoch, Network, NodeId, PhaseTag, SINK};
    use kspot_query::AggFunc;
    use std::collections::{BTreeMap, BTreeSet};

    /// The previous `WindowSource::local_top_k`: one charged scan, then a full sort of
    /// a fresh copy under the comparator spelled out here, not shared with the source.
    fn local_top_k(data: &mut dyn WindowSource, node: NodeId, k: usize) -> Vec<(Epoch, f64)> {
        data.local_top_k(node, 0, &mut Vec::new());
        let mut all = data.samples(node).to_vec();
        all.sort_by(|a, b| cmp_value(b.1, a.1).then(a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }

    fn values_at_least(data: &mut dyn WindowSource, node: NodeId, threshold: f64) -> Vec<(Epoch, f64)> {
        let mut found = Vec::new();
        data.values_at_least(node, threshold, &mut found);
        found
    }

    #[derive(Debug, Clone, Default)]
    struct EpochPartial {
        sum: f64,
        contributors: BTreeSet<NodeId>,
    }

    fn score(spec: &HistoricSpec, sum: f64, n: usize) -> f64 {
        match spec.func {
            AggFunc::Avg => sum / n as f64,
            _ => sum,
        }
    }

    /// The previous TJA executor.
    pub(super) struct Tja {
        pub(super) spec: HistoricSpec,
        pub(super) stats: TjaStats,
    }

    impl Tja {
        fn score(&self, sum: f64, n: usize) -> f64 {
            score(&self.spec, sum, n)
        }
    }

    impl HistoricAlgorithm for Tja {
        fn name(&self) -> &'static str {
            "TJA (reference)"
        }

        fn execute(&mut self, net: &mut Network, data: &mut dyn WindowSource) -> TopKResult {
            let k = self.spec.k;
            let query_epoch = data.covered_epochs().last().copied().unwrap_or(0);
            // Only nodes that are alive and awake at query time can answer; the threshold
            // algebra runs over that population, scoping exactness to reachable data.
            let node_ids: Vec<NodeId> =
                data.source_nodes().iter().copied().filter(|&id| net.node_participating(id)).collect();
            let n = node_ids.len();
            if n == 0 {
                return TopKResult::new(query_epoch, Vec::new());
            }

            // ------------------------------------------------------------------ LB phase
            // Each node's local top-k list; lists are unioned (merged per epoch) on the way
            // up, so a node transmits one tuple per distinct epoch in its subtree's union.
            let mut local_topk: BTreeMap<NodeId, Vec<(Epoch, f64)>> = BTreeMap::new();
            for &node in &node_ids {
                let list = local_top_k(data, node, k);
                net.charge_cpu(node, list.len() as u32);
                local_topk.insert(node, list);
            }
            let mut inbox: BTreeMap<NodeId, BTreeMap<Epoch, EpochPartial>> = BTreeMap::new();
            for node in net.tree().post_order() {
                if !net.node_participating(node) {
                    continue;
                }
                let mut union: BTreeMap<Epoch, EpochPartial> = inbox.remove(&node).unwrap_or_default();
                for &(e, v) in &local_topk[&node] {
                    let entry = union.entry(e).or_default();
                    entry.sum += v;
                    entry.contributors.insert(node);
                }
                if let Some(parent) =
                    net.send_report_up(node, query_epoch, union.len() as u32, 0, PhaseTag::LowerBound)
                {
                    let parent_box = inbox.entry(parent).or_default();
                    for (e, partial) in union {
                        let slot = parent_box.entry(e).or_default();
                        slot.sum += partial.sum;
                        slot.contributors.extend(partial.contributors);
                    }
                }
            }
            let mut assembled: BTreeMap<Epoch, EpochPartial> = inbox.remove(&SINK).unwrap_or_default();
            self.stats.lsink_size = assembled.len();

            // τ₁ = K-th highest partial sum over L_sink; θ = τ₁ / n.
            // A partial sum poisoned by a corrupted NaN reading carries no evidence for
            // the threshold algebra, so it is demoted to -inf before the sort: left in
            // place, a descending `total_cmp` would rank it above every real sum and
            // inflate τ₁ to the (k-1)-th real value — an unsafely high θ that could
            // eliminate a true answer.  A -inf τ₁ instead degrades θ to the domain
            // minimum (no elimination).  With NaN-free input `total_cmp` keeps the sort
            // a total order (an inconsistent comparator could silently misorder reals).
            let mut partial_sums: Vec<f64> =
                assembled.values().map(|p| if p.sum.is_nan() { f64::NEG_INFINITY } else { p.sum }).collect();
            partial_sums.sort_by(|a, b| b.total_cmp(a));
            let tau1 = partial_sums.get(k - 1).copied().unwrap_or(0.0);
            let theta = (tau1 / n as f64).max(self.spec.domain.min);
            let lsink: BTreeSet<Epoch> = assembled.keys().copied().collect();

            // ------------------------------------------------------------------ HJ phase
            // Disseminate L_sink and θ, then join the surviving tuples hierarchically.
            net.flood_down(query_epoch, lsink.len() as u32 + 1, PhaseTag::HierarchicalJoin);
            let mut hj_contrib: BTreeMap<NodeId, Vec<(Epoch, f64)>> = BTreeMap::new();
            for &node in &node_ids {
                let already: BTreeSet<Epoch> = local_topk[&node].iter().map(|&(e, _)| e).collect();
                let mut send: Vec<(Epoch, f64)> = Vec::new();
                for (e, v) in data.samples(node).to_vec() {
                    if already.contains(&e) {
                        continue;
                    }
                    if v >= theta || lsink.contains(&e) {
                        send.push((e, v));
                    }
                }
                net.charge_cpu(node, send.len() as u32);
                hj_contrib.insert(node, send);
            }
            let mut inbox: BTreeMap<NodeId, BTreeMap<Epoch, EpochPartial>> = BTreeMap::new();
            for node in net.tree().post_order() {
                if !net.node_participating(node) {
                    continue;
                }
                let mut joined: BTreeMap<Epoch, EpochPartial> = inbox.remove(&node).unwrap_or_default();
                for &(e, v) in &hj_contrib[&node] {
                    let entry = joined.entry(e).or_default();
                    entry.sum += v;
                    entry.contributors.insert(node);
                }
                if joined.is_empty() {
                    continue;
                }
                if let Some(parent) = net.send_report_up(
                    node,
                    query_epoch,
                    joined.len() as u32,
                    0,
                    PhaseTag::HierarchicalJoin,
                ) {
                    let parent_box = inbox.entry(parent).or_default();
                    for (e, partial) in joined {
                        let slot = parent_box.entry(e).or_default();
                        slot.sum += partial.sum;
                        slot.contributors.extend(partial.contributors);
                    }
                }
            }
            if let Some(hj_at_sink) = inbox.remove(&SINK) {
                for (e, partial) in hj_at_sink {
                    let slot = assembled.entry(e).or_default();
                    slot.sum += partial.sum;
                    slot.contributors.extend(partial.contributors);
                }
            }
            self.stats.candidates = assembled.len();

            // --------------------------------------------------------------- Clean-Up phase
            // Bounds: a value still missing for a candidate epoch must be below θ (its owner
            // would have reported it otherwise), so UB = sum + missing·θ, LB = sum +
            // missing·domain.min.
            let lower_of = |p: &EpochPartial| p.sum + (n - p.contributors.len()) as f64 * self.spec.domain.min;
            let upper_of = |p: &EpochPartial| p.sum + (n - p.contributors.len()) as f64 * theta;
            // NaN lower bounds are demoted to -inf for the same reason as in the LB
            // phase: a poisoned bound must weaken the clean-up threshold, not inflate it.
            let mut lower_bounds: Vec<f64> = assembled
                .values()
                .map(|p| {
                    let lb = lower_of(p);
                    if lb.is_nan() { f64::NEG_INFINITY } else { lb }
                })
                .collect();
            lower_bounds.sort_by(|a, b| b.total_cmp(a));
            let kth_lower = lower_bounds.get(k - 1).copied().unwrap_or(f64::NEG_INFINITY);

            let to_resolve: Vec<Epoch> = assembled
                .iter()
                .filter(|(_, p)| p.contributors.len() < n && upper_of(p) >= kth_lower)
                .map(|(e, _)| *e)
                .collect();
            for e in to_resolve {
                let missing: Vec<NodeId> = node_ids
                    .iter()
                    .copied()
                    .filter(|node| !assembled[&e].contributors.contains(node))
                    .collect();
                for node in missing {
                    let down = net.unicast_down(node, query_epoch, 1, PhaseTag::CleanUp);
                    let up = net.unicast_up(node, query_epoch, 1, PhaseTag::CleanUp);
                    self.stats.cleanup_pulls += 1;
                    if down.is_none() || up.is_none() {
                        continue; // the pull was dropped; the epoch stays incomplete
                    }
                    if let Some(v) = data.value_at(node, e) {
                        let slot = assembled.get_mut(&e).expect("candidate exists");
                        slot.sum += v;
                        slot.contributors.insert(node);
                    }
                }
            }

            // Final ranking over the epochs now known exactly.
            let items: Vec<RankedItem> = assembled
                .iter()
                .filter(|(_, p)| p.contributors.len() == n)
                .map(|(e, p)| RankedItem::new(*e, self.score(p.sum, n)))
                .collect();
            let mut result = TopKResult::new(query_epoch, items);
            result.items.truncate(k);
            result
        }
    }

    /// The previous TPUT executor.
    pub(super) struct Tput {
        pub(super) spec: HistoricSpec,
        pub(super) stats: TputStats,
    }

    impl Tput {
        fn score(&self, sum: f64, n: usize) -> f64 {
            score(&self.spec, sum, n)
        }
    }

    impl HistoricAlgorithm for Tput {
        fn name(&self) -> &'static str {
            "TPUT (reference)"
        }

        fn execute(&mut self, net: &mut Network, data: &mut dyn WindowSource) -> TopKResult {
            let k = self.spec.k;
            let query_epoch = data.covered_epochs().last().copied().unwrap_or(0);
            // Only nodes alive and awake at query time can answer (see `kspot_net::fault`).
            let node_ids: Vec<NodeId> =
                data.source_nodes().iter().copied().filter(|&id| net.node_participating(id)).collect();
            let n = node_ids.len();
            if n == 0 {
                return TopKResult::new(query_epoch, Vec::new());
            }
            let mut assembled: BTreeMap<Epoch, EpochPartial> = BTreeMap::new();
            let absorb = |assembled: &mut BTreeMap<Epoch, EpochPartial>, node: NodeId, e: Epoch, v: f64| {
                let slot = assembled.entry(e).or_default();
                if slot.contributors.insert(node) {
                    slot.sum += v;
                }
            };

            // --------------------------------------------------------------- phase 1
            let mut local_topk: BTreeMap<NodeId, Vec<(Epoch, f64)>> = BTreeMap::new();
            for &node in &node_ids {
                let list = local_top_k(data, node, k);
                net.charge_cpu(node, list.len() as u32);
                // Flat protocol: the list travels to the sink without merging, paying every
                // hop of the routing path.  A dropped list never reaches the sink.
                if net.unicast_up(node, query_epoch, list.len() as u32, PhaseTag::LowerBound).is_some() {
                    for &(e, v) in &list {
                        absorb(&mut assembled, node, e, v);
                    }
                }
                local_topk.insert(node, list);
            }
            self.stats.phase1_objects = assembled.len();
            // NaN partial sums are demoted to -inf before the NaN-free `total_cmp` sort;
            // see the matching comment in `tja.rs` — a poisoned sum must weaken θ (down
            // to the domain minimum), never inflate it above the true k-th value.
            let mut partial_sums: Vec<f64> =
                assembled.values().map(|p| if p.sum.is_nan() { f64::NEG_INFINITY } else { p.sum }).collect();
            partial_sums.sort_by(|a, b| b.total_cmp(a));
            let tau1 = partial_sums.get(k - 1).copied().unwrap_or(0.0);
            let theta = (tau1 / n as f64).max(self.spec.domain.min);

            // --------------------------------------------------------------- phase 2
            net.flood_down(query_epoch, 1, PhaseTag::Control);
            for &node in &node_ids {
                let already: BTreeSet<Epoch> = local_topk[&node].iter().map(|&(e, _)| e).collect();
                let extra: Vec<(Epoch, f64)> = values_at_least(data, node, theta)
                    .into_iter()
                    .filter(|(e, _)| !already.contains(e))
                    .collect();
                net.charge_cpu(node, extra.len() as u32);
                if extra.is_empty() {
                    continue;
                }
                if net.unicast_up(node, query_epoch, extra.len() as u32, PhaseTag::Update).is_some() {
                    for (e, v) in extra {
                        absorb(&mut assembled, node, e, v);
                    }
                }
            }
            self.stats.phase2_objects = assembled.len();

            // --------------------------------------------------------------- phase 3
            let lower_of = |p: &EpochPartial| p.sum + (n - p.contributors.len()) as f64 * self.spec.domain.min;
            let upper_of = |p: &EpochPartial| p.sum + (n - p.contributors.len()) as f64 * theta;
            // As in phase 1: poisoned bounds weaken the fetch threshold, never raise it.
            let mut lower_bounds: Vec<f64> = assembled
                .values()
                .map(|p| {
                    let lb = lower_of(p);
                    if lb.is_nan() { f64::NEG_INFINITY } else { lb }
                })
                .collect();
            lower_bounds.sort_by(|a, b| b.total_cmp(a));
            let kth_lower = lower_bounds.get(k - 1).copied().unwrap_or(f64::NEG_INFINITY);
            let to_resolve: Vec<Epoch> = assembled
                .iter()
                .filter(|(_, p)| p.contributors.len() < n && upper_of(p) >= kth_lower)
                .map(|(e, _)| *e)
                .collect();
            for e in to_resolve {
                let missing: Vec<NodeId> = node_ids
                    .iter()
                    .copied()
                    .filter(|node| !assembled[&e].contributors.contains(node))
                    .collect();
                for node in missing {
                    let down = net.unicast_down(node, query_epoch, 1, PhaseTag::Probe);
                    let up = net.unicast_up(node, query_epoch, 1, PhaseTag::Probe);
                    self.stats.phase3_fetches += 1;
                    if down.is_none() || up.is_none() {
                        continue; // the fetch was dropped; the epoch stays incomplete
                    }
                    if let Some(v) = data.value_at(node, e) {
                        absorb(&mut assembled, node, e, v);
                    }
                }
            }

            let items: Vec<RankedItem> = assembled
                .iter()
                .filter(|(_, p)| p.contributors.len() == n)
                .map(|(e, p)| RankedItem::new(*e, self.score(p.sum, n)))
                .collect();
            let mut result = TopKResult::new(query_epoch, items);
            result.items.truncate(k);
            result
        }
    }
}

/// `FilaMonitor` as the crate shipped it before the sink's model became one slot per
/// node ([`crate::fila`]), kept verbatim: what the sink knows is a `BTreeMap`, every
/// ranking collects the whole map into a fresh `Vec`, selects the head and sorts it, and
/// the answer is sorted once more.  The oracle of
/// `dense_fila_matches_the_map_based_reference`.
mod fila {
    use crate::fila::FilaStats;
    use crate::result::{RankedItem, TopKResult};
    use crate::snapshot::{index_readings, SnapshotAlgorithm, SnapshotSpec};
    use kspot_net::{Network, NodeId, PhaseTag, Reading};
    use std::collections::BTreeMap;

    /// The previous FILA executor.
    pub(super) struct FilaMonitor {
        spec: SnapshotSpec,
        last_known: BTreeMap<NodeId, f64>,
        boundary: Option<f64>,
        top_set: Vec<NodeId>,
        stats: FilaStats,
        in_top: Vec<bool>,
        reading_at: Vec<Option<u32>>,
    }

    impl FilaMonitor {
        pub(super) fn new(spec: SnapshotSpec) -> Self {
            Self {
                spec,
                last_known: BTreeMap::new(),
                boundary: None,
                top_set: Vec::new(),
                stats: FilaStats::default(),
                in_top: Vec::new(),
                reading_at: Vec::new(),
            }
        }

        pub(super) fn stats(&self) -> FilaStats {
            self.stats
        }

        fn rank_known(&self, count: usize) -> Vec<RankedItem> {
            let by_rank = |a: &RankedItem, b: &RankedItem| {
                kspot_net::types::cmp_value(b.value, a.value).then(a.key.cmp(&b.key))
            };
            let mut items: Vec<RankedItem> = self
                .last_known
                .iter()
                .map(|(n, v)| RankedItem::new(u64::from(*n), *v))
                .collect();
            if count < items.len() {
                items.select_nth_unstable_by(count, by_rank);
                items.truncate(count);
            }
            items.sort_by(by_rank);
            items
        }

        fn install_boundary(&mut self, net: &mut Network, epoch: kspot_net::Epoch) {
            let known = self.last_known.len();
            let ranked = self.rank_known(self.spec.k + 1);
            let k = self.spec.k.min(known);
            let boundary = if known > k && k > 0 {
                (ranked[k - 1].value + ranked[k].value) / 2.0
            } else if k > 0 {
                ranked.get(k - 1).map(|i| i.value).unwrap_or(self.spec.domain.min)
            } else {
                self.spec.domain.min
            };
            self.top_set = ranked.iter().take(k).map(|i| i.key as NodeId).collect();
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
            "FILA-style filters (reference)"
        }

        fn execute_epoch(&mut self, net: &mut Network, readings: &[Reading]) -> TopKResult {
            let epoch = readings.first().map(|r| r.epoch).unwrap_or(0);
            let Some(boundary) = self.boundary else {
                for r in readings {
                    if net.unicast_up(r.node, epoch, 1, PhaseTag::Creation).is_some() {
                        self.last_known.insert(r.node, r.value);
                    }
                }
                self.install_boundary(net, epoch);
                return TopKResult::new(epoch, self.rank_known(self.spec.k));
            };

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
                        self.last_known.insert(r.node, r.value);
                        violated = true;
                    }
                }
            }

            if violated {
                index_readings(&mut self.reading_at, net.num_nodes(), readings.iter().enumerate().rev());
                for &node in &self.top_set {
                    let down = net.unicast_down(node, epoch, 1, PhaseTag::Probe);
                    let up = net.unicast_up(node, epoch, 1, PhaseTag::Probe);
                    if down.is_some() && up.is_some() {
                        if let Some(at) = self.reading_at[node as usize] {
                            self.last_known.insert(node, readings[at as usize].value);
                        }
                    }
                    self.stats.probes += 1;
                }
                let ranked = self.rank_known(self.spec.k);
                let kth = ranked.get(self.spec.k.saturating_sub(1)).map(|i| i.value);
                if kth.is_none_or(|v| v < boundary) {
                    for r in readings {
                        if !net.node_participating(r.node) || self.in_top[r.node as usize] {
                            continue;
                        }
                        let down = net.unicast_down(r.node, epoch, 1, PhaseTag::Probe);
                        let up = net.unicast_up(r.node, epoch, 1, PhaseTag::Probe);
                        if down.is_some() && up.is_some() {
                            self.last_known.insert(r.node, r.value);
                        }
                        self.stats.probes += 1;
                    }
                }
                self.install_boundary(net, epoch);
            }

            TopKResult::new(epoch, self.rank_known(self.spec.k))
        }
    }
}
