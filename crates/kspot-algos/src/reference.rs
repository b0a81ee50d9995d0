//! The map-based loops the crate shipped before its flat kernels, kept verbatim as the
//! oracles: the convergecast of the snapshot algorithms (now
//! [`crate::tag::convergecast_full`], whose views are rows of a group table) and MINT's
//! shrink before it pruned bound-first on rows (now `crate::mint::prune`), in
//! [`historic`], TJA and TPUT as they ran
//! before the flat epoch table (`crate::threshold`), and in [`fila`] the FILA monitor
//! whose sink kept what it knows in a map.  Property tests drive old and new
//! over random trees, aggregates, windows, fault plans and co-registered scopes and
//! demand the same answers and — compared bit for bit — the same ledgers and batteries.

use crate::centralized::CentralizedCollection;
use crate::mint::MintViews;
use crate::naive::NaiveLocalPrune;
use crate::result::TopKResult;
use crate::snapshot::{exact_reference, SnapshotAlgorithm, SnapshotSpec};
use crate::tag::TagTopK;
use crate::view::{Bounds, GroupTable, GroupView, Row};
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

/// [`convergecast_full`] with a shrink step written for rows, as
/// `tag::convergecast_full` runs it while the reference is in use: each view the
/// reference hands its shrink step is laid out as a one-row table by the deployment's
/// slots, with the exact summary of `bounds`, shrunk as a row, and read back.
pub(crate) fn convergecast_rows<B: Bounds>(
    net: &mut Network,
    readings: &[Reading],
    spec: &SnapshotSpec,
    phase: PhaseTag,
    bounds: &B,
    mut shrink: impl FnMut(NodeId, &mut Row<'_>),
) -> GroupView {
    let groups = net.deployment().groups().to_vec();
    convergecast_full(net, readings, spec, phase, |node, view| {
        let mut table = GroupTable::from_view(&groups, view, bounds);
        shrink(node, &mut table.row(0, &groups));
        *view = table.to_view(0, spec.func, &groups);
    })
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
    use kspot_net::topology::{NodeSpec, Position};
    use kspot_net::types::ValueDomain;
    use crate::historic::{BankWindows, HistoricAlgorithm, HistoricSpec};
    use crate::tja::Tja;
    use crate::tput::Tput;
    use crate::view::Unbounded;
    use kspot_net::{
        Deployment, Epoch, NetworkConfig, NetworkMetrics, PhaseTotals, WindowBank, Workload,
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
        Deployment::from_parts(Position::new(0.0, 0.0), nodes, 5.0)
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
            .with_link_loss(0.02 + 0.98 * f64::from(loss_pct) / 100.0)
            .with_retransmits(retransmits);
        if let Some(epoch) = death {
            faults = faults.with_node_death(1 + (seed % d.num_nodes() as u64) as NodeId, epoch);
        }
        if duty {
            faults = faults.with_duty_cycle(DutyCycle::new(4, 3));
        }
        NetworkConfig::mica2()
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
        /// outside: answers, every ledger axis and every battery, bit for bit.  With
        /// `wild`, a reading in every `wild + 1` is NaN, a signed zero, above the
        /// domain's top or below its bottom, so that a merge can raise a group's upper
        /// bound or lower its lower one: the kernel's MINT rows then carry summaries
        /// looser than their states, which the reference computes afresh for every view.
        /// `shape` edits each epoch's readings for the rows the kernel bears by
        /// adoption: every third node has none (a first delivery into a node with no
        /// reading), every seventh reads a group the deployment lacks, and every fifth
        /// reports twice (the last reading is its own).  The sink bears its row by
        /// adoption in every sweep; small batteries empty receivers mid-sweep.
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
            wild in 0usize..4,
            shape in 0u32..8,
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
            let domain = ValueDomain::percentage();
            let mut next_epoch = || {
                let mut readings = workload.next_epoch();
                for (at, r) in readings.iter_mut().enumerate().filter(|(at, _)| wild > 0 && at % (wild + 1) == 0) {
                    r.value = match (at / (wild + 1)) % 7 {
                        0 => f64::NAN,
                        1 | 2 => domain.max + r.value,
                        3 => -0.0,
                        4 => 0.0,
                        _ => domain.min - r.value,
                    };
                }
                if shape & 1 != 0 {
                    readings.retain(|r| r.node % 3 != 0);
                }
                if shape & 2 != 0 {
                    // Configured ids are `(id % groups) * 1_000_003 + 5`: an even id never is.
                    readings.iter_mut().filter(|r| r.node % 7 == 2).for_each(|r| r.group = 2);
                }
                if shape & 4 != 0 {
                    let seconds: Vec<Reading> = readings
                        .iter()
                        .filter(|r| r.node % 5 == 1)
                        .map(|r| Reading::new(r.node, r.group, r.epoch, 0.5 * r.value + 1.0))
                        .collect();
                    readings.extend(seconds);
                }
                readings
            };
            for _ in 0..12 {
                let readings = next_epoch();
                let mut answers = Vec::new();
                for (side, (net, sessions)) in nets.iter_mut().zip(&mut sessions).enumerate() {
                    let mut epoch = || {
                        net.run_epoch(readings[0].epoch, |net| {
                            sessions
                                .iter_mut()
                                .enumerate()
                                .map(|(i, algo)| {
                                    // Sparse scope ids: a scope must cost a ledger row, not an index.
                                    net.set_query_scope(Some(i as u32 * 1_000_000 + 9));
                                    algo.execute_epoch(net, &readings)
                                })
                                .collect::<Vec<_>>()
                        })
                    };
                    let results = if side == 1 { on_reference(epoch) } else { epoch() };
                    answers.push(results.iter().map(result_bits).collect::<Vec<_>>());
                }
                prop_assert_eq!(&answers[0], &answers[1]);
            }

            // One more sweep, kernel against reference directly: the same sink view.
            let readings = next_epoch();
            let [new, old] = &mut nets;
            new.begin_epoch(12);
            old.begin_epoch(12);
            let mut ranked = Vec::new();
            let ours = crate::tag::convergecast_full(new, &readings, &spec, PhaseTag::Update, &Unbounded, |_, row| {
                row.truncate_to_local_top_k(3, spec.func, &mut ranked);
            });
            let ours = view_bits(&ours);
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

    /// Node 1 gathers six leaves' reports.  On a battery that pays for only some of
    /// their receptions it is dead at its own turn: its row, born by adopting the first
    /// report, never leaves, and the sink hears only what routed around it.  TAG, MINT
    /// and the naive strategy answer and book as the reference does over three epochs
    /// on every battery of the scan, and the scan does reach such a receiver.
    #[test]
    fn the_kernel_matches_the_reference_where_a_receiver_empties_its_battery_mid_sweep() {
        let mut parents = BTreeMap::new();
        let nodes: Vec<NodeSpec> = (1..=7)
            .map(|id| {
                parents.insert(id, if id == 1 { SINK } else { 1 });
                NodeSpec { id, position: Position::new(f64::from(id), 1.0), group: id % 3 }
            })
            .collect();
        let d = Deployment::from_parts(Position::new(0.0, 0.0), nodes, 5.0).with_explicit_parents(parents);
        let spec = SnapshotSpec::new(2, AggFunc::Sum, ValueDomain::percentage());
        let epoch_readings =
            |epoch: u64| (1..=7).map(|id| Reading::new(id, id % 3, epoch, f64::from(id * 10 + epoch as u32))).collect();
        let mut emptied = 0;
        for step in 1..300 {
            let config = NetworkConfig::mica2().with_battery_uj(f64::from(step) * 4.0);
            for kind in 0..3 {
                let mut new = Network::new(d.clone(), config.clone());
                let mut old = Network::new(d.clone(), config.clone());
                let (mut ours, mut theirs) = (algorithm(kind, spec, false), algorithm(kind, spec, true));
                for epoch in 0..3 {
                    let readings: Vec<Reading> = epoch_readings(epoch);
                    let received = new.metrics().node(1).rx_messages;
                    let sent = new.metrics().node(1).tx_messages;
                    let participating = new.node_participating(1);
                    let a = new.run_epoch(epoch, |net| ours.execute_epoch(net, &readings));
                    let b = on_reference(|| old.run_epoch(epoch, |net| theirs.execute_epoch(net, &readings)));
                    assert_eq!(result_bits(&a), result_bits(&b), "battery {}, kind {kind}, epoch {epoch}", step * 4);
                    assert_eq!(ledger_bits(new.metrics()), ledger_bits(old.metrics()));
                    let node = new.metrics().node(1);
                    let silent = node.rx_messages > received && node.tx_messages == sent;
                    if participating && silent && !new.node_participating(1) {
                        emptied += 1;
                    }
                }
            }
        }
        assert!(emptied > 0, "no battery on the scan emptied the receiver mid-sweep");
    }

    #[test]
    fn a_huge_group_id_costs_one_view_entry() {
        let (mut net, mut readings, spec) = figure1();
        for r in &mut readings {
            r.group = u32::MAX - r.group * 1_000_000;
        }
        assert_same_as_reference(&readings);
        let view = crate::tag::convergecast_full(&mut net, &readings, &spec, PhaseTag::Update, &Unbounded, |_, _| {});
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
        /// before; 3: the odd nodes' clocks run one epoch ahead of the feed's (node 1's
        /// reading opens every feed, so the span follows the ahead clock); 4: the even
        /// nodes' clocks run one epoch ahead, so their last sample lies past the span.
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

    /// How many epochs the bank of a case holds: the span, and three older ones where
    /// the source is a view.
    fn bank_capacity(case: &HistoricCase) -> usize {
        case.window + if case.source == 0 { 0 } else { 3 }
    }

    /// The windows of a case: one feed per epoch the bank holds, values on a grid of
    /// fives in every third case so that ranks tie.
    fn fed_bank(d: &Deployment, case: &HistoricCase) -> WindowBank {
        bank_of(case, &case_feeds(d, case, 0))
    }

    /// The feeds of [`fed_bank`] and `after` more; a NaN reading, where the case has one,
    /// comes `window / 2` feeds before the last.
    fn case_feeds(d: &Deployment, case: &HistoricCase, after: usize) -> Vec<Vec<Reading>> {
        let feeds = bank_capacity(case) + after;
        let mut rng = kspot_net::rng::stream_rng(case.seed, &[0xDA7A]);
        let nodes = d.node_ids();
        let poisoned = (feeds - 1 - case.window / 2, nodes[case.seed as usize % nodes.len()]);
        let mut epoch = 10 + case.seed % 5;
        let mut all = Vec::with_capacity(feeds);
        for feed in 0..feeds {
            epoch += match case.calendar {
                1 => rng.gen_range(1..4u64),
                2 => u64::from(rng.gen_range(0..3u32) > 0),
                _ => 1,
            };
            let readings: Vec<Reading> = nodes
                .iter()
                .map(|&node| {
                    let ahead = match case.calendar {
                        3 => u64::from(node % 2),
                        4 => u64::from(node % 2 == 0),
                        _ => 0,
                    };
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
            all.push(readings);
        }
        all
    }

    /// Runs TJA and TPUT on the kernel and on the map-based reference over equal
    /// windows and equal networks and demands that nothing observable tells them apart.
    fn assert_historic_case(d: &Deployment, case: &HistoricCase) -> Exercised {
        assert_historic_bank(d, case, &fed_bank(d, case))
    }

    /// [`assert_historic_case`] over the windows of `bank`, opened as `case.source` says.
    fn assert_historic_bank(d: &Deployment, case: &HistoricCase, bank: &WindowBank) -> Exercised {
        assert_historic_banks(d, case, &mut [bank.clone(), bank.clone()])
    }

    /// [`assert_historic_case`] over the live view (`case.source` 1) across feeds: TJA
    /// and TPUT, then `after` more feeds, then TJA and TPUT again, the kernel's bank and
    /// the reference's each kept — and each kernel bank's windows keeping their lists —
    /// from the first execution to the last.
    fn assert_historic_across_feeds(d: &Deployment, case: &HistoricCase, after: usize) {
        assert_eq!(case.source, 1, "only the live view is fed between executions");
        let feeds = case_feeds(d, case, after);
        let (first, later) = feeds.split_at(feeds.len() - after);
        let mut banks = [WindowBank::new(bank_capacity(case)), WindowBank::new(bank_capacity(case))];
        for readings in [first, later] {
            for bank in &mut banks {
                for feed in readings {
                    bank.feed(feed);
                }
            }
            assert_historic_banks(d, case, &mut banks);
        }
    }

    /// [`assert_historic_case`] with the kernel reading `banks[0]` and the reference
    /// `banks[1]`, borrowed by the live view (TJA and TPUT on one bank, one after the
    /// other) or cloned into an owned one, as `case.source` says.
    fn assert_historic_banks(d: &Deployment, case: &HistoricCase, banks: &mut [WindowBank; 2]) -> Exercised {
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
        let query_epoch = banks[0].epochs().next_back().expect("a case feeds at least one epoch");

        let mut exercised = Exercised::default();
        for tput in [false, true] {
            let mut sides = Vec::new();
            for reference in [false, true] {
                let mut net = Network::new(d.clone(), config.clone());
                net.begin_epoch(query_epoch);
                net.set_query_scope(Some(7));
                let depleted_before = net.batteries().depleted_count();
                let bank = &mut banks[usize::from(reference)];
                let mut view = match case.source {
                    1 => BankWindows::new(bank, case.window),
                    _ => BankWindows::owned(bank.clone(), case.window),
                };
                let (result, stats) = match (tput, reference) {
                    (false, false) => {
                        let mut tja = Tja::new(spec);
                        let result = tja.execute(&mut net, &mut view);
                        exercised.cleanup_pulls += tja.stats().cleanup_pulls;
                        (result, format!("{:?}", tja.stats()))
                    }
                    (false, true) => {
                        let mut tja = super::historic::Tja { spec, stats: Default::default() };
                        (tja.execute(&mut net, &mut view), format!("{:?}", tja.stats))
                    }
                    (true, false) => {
                        let mut tput = Tput::new(spec);
                        let result = tput.execute(&mut net, &mut view);
                        exercised.phase3_fetches += tput.stats().phase3_fetches;
                        (result, format!("{:?}", tput.stats()))
                    }
                    (true, true) => {
                        let mut tput = super::historic::Tput { spec, stats: Default::default() };
                        (tput.execute(&mut net, &mut view), format!("{:?}", tput.stats))
                    }
                };
                if !reference {
                    exercised.depleted_mid_run += net.batteries().depleted_count() - depleted_before;
                }
                let batteries: Vec<u64> =
                    (1..=n as NodeId).map(|id| net.batteries().get(id).remaining_uj().to_bits()).collect();
                sides.push((result_bits(&result), stats, ledger_bits(net.metrics()), batteries));
            }
            prop_assert_eq!(&sides[0], &sides[1], "{} diverged", if tput { "TPUT" } else { "TJA" });
        }
        exercised
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        /// TJA and TPUT on the flat epoch table and on the map-based reference are
        /// indistinguishable from the outside: answers and scores, statistics, every
        /// ledger axis, every battery and every window's page reads, bit for bit.  Over
        /// the live view they run, `after` more epochs are fed, and they run again.
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
            after in 0usize..100,
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
            let d = random_tree(&raw, 3, seed);
            if source == 1 {
                assert_historic_across_feeds(&d, &case, after);
            } else {
                assert_historic_case(&d, &case);
            }
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

    // `begin` trusts a gapless span: a window whose first and last samples it covers is
    // covered whole.  The cases below are the windows that must take the per-sample loop.

    /// The 40-node tree and the healthy `WITH HISTORY 64` case the edges below start from.
    fn edge_tree() -> Deployment {
        random_tree(&(0..40).map(|i| i * 7 + 3).collect::<Vec<u32>>(), 3, 11)
    }

    const EDGE: HistoricCase = HistoricCase {
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

    /// The span a view of `bank` covers, and whether some window of it holds an epoch
    /// past the span's end.
    fn span_and_overhang(bank: &WindowBank, window: usize) -> (Vec<Epoch>, bool) {
        let view = BankWindows::owned(bank.clone(), window);
        let span = view.covered_epochs().to_vec();
        let last = *span.last().expect("a case covers at least one epoch");
        let nodes = view.source_nodes().to_vec();
        let overhang = nodes.into_iter().any(|node| view.samples(node).last().is_some_and(|&(e, _)| e > last));
        (span, overhang)
    }

    #[test]
    fn the_kernel_matches_the_reference_over_a_span_with_gaps() {
        let d = edge_tree();
        for source in 0..3 {
            let case = HistoricCase { calendar: 1, source, ..EDGE };
            let bank = fed_bank(&d, &case);
            let (span, _) = span_and_overhang(&bank, case.window);
            assert!(span[span.len() - 1] - span[0] >= span.len() as Epoch, "the span has a gap: {span:?}");
            assert_historic_bank(&d, &case, &bank);
        }
    }

    #[test]
    fn the_kernel_matches_the_reference_where_clocks_run_ahead_of_the_feed() {
        let d = edge_tree();
        for source in 0..3 {
            for calendar in [3, 4] {
                let case = HistoricCase { calendar, source, loss_pct: 30, retransmits: 1, ..EDGE };
                let bank = fed_bank(&d, &case);
                let (_, overhang) = span_and_overhang(&bank, case.window);
                assert_eq!(overhang, calendar == 4, "calendar {calendar}: a window ends past the span");
                assert_historic_bank(&d, &case, &bank);
            }
        }
    }

    /// An `AS OF` restore (a bank adopted from an image, owned by its view) of a ragged
    /// image: by node, windows that hold the span, start before it, end after it, hold
    /// every third epoch of it, or nothing.  Over a gapless span and over one with gaps
    /// that some windows hold.
    #[test]
    fn the_kernel_matches_the_reference_over_an_as_of_restore_of_a_ragged_image() {
        let d = edge_tree();
        let mut rng = kspot_net::rng::stream_rng(EDGE.seed, &[0x7A6]);
        for gaps in [false, true] {
            let covered: Vec<Epoch> = (20..=83).filter(|&e| !gaps || e % 10 != 5).collect();
            let windows: Vec<(NodeId, Vec<(Epoch, f64)>)> = (1..=d.num_nodes() as NodeId)
                .map(|node| {
                    let epochs: Vec<Epoch> = match node % 5 {
                        0 => (20..=83).collect(),
                        1 => (0..=83).collect(),
                        2 => (40..=95).collect(),
                        3 => (20..=83).step_by(3).collect(),
                        _ => Vec::new(),
                    };
                    // What lies past the span ranks high, so a lost slot shows in a report.
                    let mut value =
                        |e: Epoch| if e > 83 { 95.0 + f64::from(rng.gen_range(0..5u32)) } else { rng.gen_range(0.0..=90.0) };
                    (node, epochs.into_iter().map(|e| (e, value(e))).collect())
                })
                .collect();
            let bank = WindowBank::from_windows(128, windows, covered.clone(), 200);
            let case = HistoricCase { window: covered.len(), source: 2, ..EDGE };
            assert!(span_and_overhang(&bank, case.window).1);
            for (loss_pct, retransmits) in [(0, 0), (30, 1)] {
                assert_historic_bank(&d, &HistoricCase { loss_pct, retransmits, ..case }, &bank);
            }
        }
    }

    /// Three and more reports reaching one receiver: the sink hears three, node 1 five,
    /// node 4 three and node 9 four, each child a relay or a leaf, and readings drawn
    /// off the grid of fives, so that the sums are not integers and their order of
    /// addition shows.  A receiver adopts the first view to arrive and merges the
    /// others into it; the reference merges every one into a fresh view.
    #[test]
    fn the_kernel_matches_the_reference_where_three_reports_reach_one_receiver() {
        let raw = [0, 0, 0, 1, 1, 1, 1, 1, 4, 4, 4, 9, 9, 9, 9];
        let d = random_tree(&raw, 3, 13);
        let parents = d.explicit_parents().expect("an explicit tree");
        let mut fan_in = BTreeMap::<NodeId, usize>::new();
        for &parent in parents.values() {
            *fan_in.entry(parent).or_default() += 1;
        }
        let mut wide: Vec<usize> = fan_in.into_values().filter(|&children| children >= 3).collect();
        wide.sort_unstable();
        assert_eq!(wide, [3, 3, 4, 5], "four receivers hear three reports or more");
        for source in 0..3 {
            for (loss_pct, retransmits) in [(0, 0), (30, 1)] {
                let case = HistoricCase { window: 24, source, loss_pct, retransmits, seed: 13, ..EDGE };
                assert_ne!(case.seed % 3, 0, "values off the grid of fives");
                assert_historic_case(&d, &case);
            }
        }
    }

    /// The live bank queried, fed and queried again, its windows keeping their lists
    /// across the feeds: a few feeds and a whole bank's turnover (every listed sample
    /// evicted, the NaN arriving with the later feeds), one epoch a feed and repeated
    /// epochs, values on the grid of fives, a k inside the kept list's floor and one past it.
    #[test]
    fn the_kernel_matches_the_reference_across_feeds_of_the_live_bank() {
        let d = edge_tree();
        for calendar in [0, 2] {
            for k in [5, 20] {
                let case = HistoricCase { calendar, k, nan: true, seed: 12, ..EDGE };
                assert_eq!(case.seed % 3, 0, "values on the grid of fives");
                let turnover = bank_capacity(&case);
                for after in [4, turnover] {
                    let feeds = case_feeds(&d, &case, after);
                    let later_nan = feeds[feeds.len() - after..].iter().flatten().any(|r| r.value.is_nan());
                    assert_eq!(later_nan, after == turnover, "the NaN arrives with a turnover's feeds");
                    let repeated = feeds.windows(2).any(|pair| pair[0][0].epoch == pair[1][0].epoch);
                    assert_eq!(repeated, calendar == 2, "calendar {calendar} repeats epochs");
                    assert_historic_across_feeds(&d, &case, after);
                }
            }
        }
    }

    // The Hierarchical Join works a run of a window at a time, 64 samples to a word
    // (ADR-005, "Historic kernel v6").  The cases below put a run's edges where a word
    // operation could slip: a run that starts at another bit of the sample bitset than
    // of the slot masks, across a word boundary; an epoch repeated across and inside a
    // word; local-list samples at a run's first and last sample; values exactly at θ;
    // and NaN and ±0.0 in samples that are not sent.  Each runs over every source,
    // lossless and lossy.

    /// A bank of `case`'s capacity fed `feeds`.
    fn bank_of(case: &HistoricCase, feeds: &[Vec<Reading>]) -> WindowBank {
        let mut bank = WindowBank::new(bank_capacity(case));
        for readings in feeds {
            bank.feed(readings);
        }
        bank
    }

    /// [`assert_historic_bank`] for `case` over each source, lossless and lossy, each over
    /// a bank fed `case`'s feeds as `edit` leaves them; `edit` is handed the feeds and
    /// the index of the feed of the span's first epoch.
    fn assert_edited_feeds(d: &Deployment, case: &HistoricCase, edit: impl Fn(&mut [Vec<Reading>], usize)) {
        for source in 0..3 {
            let case = HistoricCase { source, ..*case };
            let mut feeds = case_feeds(d, &case, 0);
            edit(&mut feeds, bank_capacity(&case) - case.window);
            let bank = bank_of(&case, &feeds);
            for (loss_pct, retransmits) in [(0, 0), (30, 1)] {
                assert_historic_bank(d, &HistoricCase { loss_pct, retransmits, ..case }, &bank);
            }
        }
    }

    /// The span of `node`'s window in a view of `bank`, and the span's slots: the
    /// covered epochs, ascending, each once.
    fn span_of(bank: &WindowBank, window: usize, node: NodeId) -> (Vec<(Epoch, f64)>, Vec<Epoch>) {
        let view = BankWindows::owned(bank.clone(), window);
        let mut slots = view.covered_epochs().to_vec();
        slots.dedup();
        (view.samples(node).to_vec(), slots)
    }

    /// The odd nodes miss the feed of the span's sample 37: their second run starts at
    /// bit 37 of their sample bitsets and at bit 38 of the slot masks, and its words
    /// straddle a word boundary on both sides.
    #[test]
    fn the_kernel_matches_the_reference_where_a_missed_feed_starts_a_run_off_its_slot() {
        let d = edge_tree();
        let case = HistoricCase { window: 128, ..EDGE };
        let miss = |feeds: &mut [Vec<Reading>], span: usize| feeds[span + 37].retain(|r| r.node % 2 == 0);
        let mut feeds = case_feeds(&d, &case, 0);
        miss(&mut feeds, bank_capacity(&case) - case.window);
        let (samples, slots) = span_of(&bank_of(&case, &feeds), case.window, 1);
        assert_eq!((samples[36].0, samples[37].0), (slots[36], slots[38]), "node 1's sample 37 is on slot 38");
        assert_edited_feeds(&d, &case, miss);
    }

    /// The even nodes read the epoch of the span's sample 63 (in one bank) or 84 (in
    /// another) again at the next sample, and the feed's epochs from the one after on:
    /// the repeat is followed by a skip, so that samples 65 and 86 are on slots 65 and
    /// 86 again.  The first pair straddles two words; the second lies inside the second
    /// word, whose first and last samples are on their slots — only a comparison of
    /// every sample's epoch sees sample 85 off its run.
    #[test]
    fn the_kernel_matches_the_reference_where_an_epoch_repeats_across_and_inside_a_word() {
        let d = edge_tree();
        let case = HistoricCase { window: 128, ..EDGE };
        for at in [63, 84] {
            let repeat = |feeds: &mut [Vec<Reading>], span: usize| {
                let again = feeds[span + at][0].epoch;
                for reading in feeds[span + at + 1].iter_mut().filter(|r| r.node % 2 == 0) {
                    reading.epoch = again;
                }
            };
            let mut feeds = case_feeds(&d, &case, 0);
            repeat(&mut feeds, bank_capacity(&case) - case.window);
            let (samples, slots) = span_of(&bank_of(&case, &feeds), case.window, 2);
            let epochs: Vec<Epoch> = (at..at + 3).map(|sample| samples[sample].0).collect();
            assert_eq!(epochs, [slots[at], slots[at], slots[at + 2]], "node 2's samples {at} to {}", at + 2);
            assert_edited_feeds(&d, &case, repeat);
        }
    }

    /// Every node reads one value per feed, on the grid of fives: the local lists are
    /// alike, `L_sink` is the K oldest epochs of the highest value and `θ` is that value
    /// exactly, which later epochs of the same value reach without exceeding.
    #[test]
    fn the_kernel_matches_the_reference_where_values_are_exactly_theta() {
        let d = edge_tree();
        let case = HistoricCase { window: 128, ..EDGE };
        let level = |feeds: &mut [Vec<Reading>], _: usize| {
            for (feed, readings) in feeds.iter_mut().enumerate() {
                for reading in readings {
                    reading.value = ((feed * 8) % 21) as f64 * 5.0;
                }
            }
        };
        let mut feeds = case_feeds(&d, &case, 0);
        level(&mut feeds, 0);
        let (samples, _) = span_of(&bank_of(&case, &feeds), case.window, 1);
        let top = samples.iter().filter(|&&(_, value)| value == 100.0).count();
        assert!(top > case.k, "{top} samples of the highest value, K = {}: θ = 100 is reached again", case.k);
        assert_edited_feeds(&d, &case, level);
    }

    /// The odd nodes miss the feed of sample 37 and hold their four highest values at
    /// the first and the last sample of each run — every other value of theirs stays
    /// below 90 — so their local lists, which the Join must leave out, sit at the runs'
    /// edges.
    #[test]
    fn the_kernel_matches_the_reference_where_local_lists_sit_at_a_runs_edges() {
        let d = edge_tree();
        let case = HistoricCase { window: 128, k: 4, ..EDGE };
        let edges = |feeds: &mut [Vec<Reading>], span: usize| {
            feeds[span + 37].retain(|r| r.node % 2 == 0);
            for reading in feeds.iter_mut().flatten().filter(|r| r.node % 2 == 1) {
                reading.value = reading.value.min(90.0);
            }
            for (at, value) in [(0, 99.0), (36, 98.5), (38, 98.0), (127, 97.5)] {
                for reading in feeds[span + at].iter_mut().filter(|r| r.node % 2 == 1) {
                    reading.value = value;
                }
            }
        };
        let mut feeds = case_feeds(&d, &case, 0);
        edges(&mut feeds, bank_capacity(&case) - case.window);
        let (samples, _) = span_of(&bank_of(&case, &feeds), case.window, 1);
        let mut best = Vec::new();
        kspot_net::storage::top_k_into(&samples, case.k, &mut best);
        let at = |epoch| samples.iter().position(|&(e, _)| e == epoch).expect("a sample of the span");
        let mut listed: Vec<usize> = best.iter().map(|&(epoch, _)| at(epoch)).collect();
        listed.sort_unstable();
        assert_eq!(listed, [0, 36, 37, 126], "node 1 lists the first and last sample of both runs");
        assert_edited_feeds(&d, &case, edges);
    }

    /// At three epochs node 1 reads 100 and every other node NaN, -0.0 or +0.0: the
    /// epochs are sent, by node 1 only, and every other node's sample of them is left out
    /// of a word whose other samples are sent — the dense add adds `+0.0` in its place.
    #[test]
    fn the_kernel_matches_the_reference_with_nan_and_signed_zeros_in_unsent_samples() {
        let d = edge_tree();
        let case = HistoricCase { window: 128, ..EDGE };
        let unsent = |feeds: &mut [Vec<Reading>], span: usize| {
            for (at, value) in [(10, f64::NAN), (70, -0.0), (100, 0.0)] {
                for reading in &mut feeds[span + at] {
                    reading.value = if reading.node == 1 { 100.0 } else { value };
                }
            }
        };
        assert_edited_feeds(&d, &case, unsent);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        /// The named cases above, drawn: nodes that miss feeds (never the last feed's,
        /// so that every node keeps a window, and never the reading that opens a feed),
        /// nodes whose clock repeats the epoch they read in the feed before, and NaN and
        /// -0.0 readings, anywhere in windows of up to 199 epochs, so that windows are cut
        /// into runs at every offset of a word.
        #[test]
        fn the_kernel_matches_the_reference_over_windows_cut_into_random_runs(
            raw in prop::collection::vec(0u32..100_000, 1..60),
            window in 1usize..200,
            k_draw in 0usize..1_000,
            source in 0usize..3,
            loss_pct in prop_oneof![Just(0u32), 0u32..50],
            seed in 0u64..1_000_000,
            edits in prop::collection::vec((0usize..400, 0u32..200, 0u32..4), 0..40),
        ) {
            let case = HistoricCase {
                window,
                k: 1 + k_draw % (window + 1),
                source,
                loss_pct,
                retransmits: 1,
                seed,
                ..EDGE
            };
            let d = random_tree(&raw, 3, seed);
            let mut feeds = case_feeds(&d, &case, 0);
            let last = feeds.len() - 1;
            for &(at, node, kind) in &edits {
                let (at, node) = (at % feeds.len(), 1 + node % d.num_nodes() as NodeId);
                let opener = feeds[at][0].node;
                let before = at.checked_sub(1).and_then(|prev| feeds[prev].iter().find(|r| r.node == node)).map(|r| r.epoch);
                let readings = feeds[at].iter_mut().filter(|r| r.node == node);
                match kind {
                    0 if at < last && node != opener => feeds[at].retain(|r| r.node != node),
                    1 => readings.for_each(|r| r.epoch = before.unwrap_or(r.epoch).min(r.epoch)),
                    2 => readings.for_each(|r| r.value = f64::NAN),
                    3 => readings.for_each(|r| r.value = -0.0),
                    _ => {}
                }
            }
            assert_historic_bank(&d, &case, &bank_of(&case, &feeds));
        }
    }

    /// Statistics are the most recent execution's: a second execution over the same bank
    /// reports what the first did, Clean-Up pulls and phase-3 fetches included, and one
    /// without a source reports zeros — on the kernel and on the reference alike.
    #[test]
    fn statistics_are_those_of_the_most_recent_execution() {
        let d = edge_tree();
        let case = HistoricCase { loss_pct: 30, retransmits: 1, ..EDGE };
        let config = faulted_config(&d, case.loss_pct, case.retransmits, None, false, case.battery_uj, case.seed);
        let spec = HistoricSpec::new(case.k, case.func, ValueDomain::percentage(), case.window);
        let bank = fed_bank(&d, &case);
        let mut tja = Tja::new(spec);
        let mut tput = Tput::new(spec);
        let mut old_tja = super::historic::Tja { spec, stats: Default::default() };
        let mut old_tput = super::historic::Tput { spec, stats: Default::default() };
        let mut stats_over = |bank: &WindowBank| {
            let mut stats = Vec::new();
            let algos: [&mut dyn HistoricAlgorithm; 4] = [&mut tja, &mut tput, &mut old_tja, &mut old_tput];
            for algo in algos {
                let mut net = Network::new(d.clone(), config.clone());
                algo.execute(&mut net, &mut BankWindows::owned(bank.clone(), case.window));
            }
            stats.push((tja.stats(), tput.stats()));
            stats.push((old_tja.stats, old_tput.stats));
            stats
        };
        let first = stats_over(&bank);
        assert!(first[0].0.cleanup_pulls > 0 && first[0].1.phase3_fetches > 0, "{first:?}");
        assert_eq!(first[0], first[1], "kernel and reference");
        assert_eq!(stats_over(&bank), first, "a second execution over the same bank");
        let nothing = stats_over(&WindowBank::new(case.window));
        assert_eq!(nothing, [Default::default(), Default::default()], "an execution without a source");
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
            let ours = new.run_epoch(readings[0].epoch, |net| dense.execute_epoch(net, &readings));
            let theirs = old.run_epoch(readings[0].epoch, |net| mapped.execute_epoch(net, &readings));
            assert_eq!(result_bits(&ours), result_bits(&theirs), "epoch {epoch}");
            assert_eq!(dense.stats(), mapped.stats(), "epoch {epoch}");
            assert_eq!(totals_bits(new.metrics().totals()), totals_bits(old.metrics().totals()), "epoch {epoch}");
            assert_eq!(ours.items.capacity(), ours.items.len(), "an answer holds its items and no more");
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
    use crate::historic::{BankWindows, HistoricAlgorithm, HistoricSpec};
    use crate::result::{RankedItem, TopKResult};
    use crate::tja::TjaStats;
    use crate::tput::TputStats;
    use kspot_net::types::cmp_value;
    use kspot_net::{Epoch, Network, NodeId, PhaseTag, SINK};
    use kspot_query::AggFunc;
    use std::collections::{BTreeMap, BTreeSet};

    /// The previous `BankWindows::local_top_k`: a full sort of a fresh copy under the
    /// comparator spelled out here, not shared with the source.
    fn local_top_k(data: &mut BankWindows<'_>, node: NodeId, k: usize) -> Vec<(Epoch, f64)> {
        let mut all = data.samples(node).to_vec();
        all.sort_by(|a, b| cmp_value(b.1, a.1).then(a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }

    fn values_at_least(data: &mut BankWindows<'_>, node: NodeId, threshold: f64) -> Vec<(Epoch, f64)> {
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

        fn execute(&mut self, net: &mut Network, data: &mut BankWindows<'_>) -> TopKResult {
            let k = self.spec.k;
            let query_epoch = data.covered_epochs().last().copied().unwrap_or(0);
            self.stats = Default::default();
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

        fn execute(&mut self, net: &mut Network, data: &mut BankWindows<'_>) -> TopKResult {
            let k = self.spec.k;
            let query_epoch = data.covered_epochs().last().copied().unwrap_or(0);
            self.stats = Default::default();
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
