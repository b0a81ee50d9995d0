//! Ledger conservation of [`NetworkMetrics`] under random traffic, including the
//! fault-injection paths (loss, ARQ retransmissions, node death, duty cycling).
//!
//! The invariant: whatever mix of reports, floods, unicasts, CPU charges and baseline
//! epochs a run performs, the run's totals equal (a) the sum of per-node charges,
//! (b) the sum of the per-phase totals, and (c) the sum of the per-epoch totals —
//! traffic and energy may be lost *on the air*, but never in the books.  Battery
//! drain must also agree with the metrics ledger as long as no battery saturates.

use kspot_net::fault::{DutyCycle, FaultPlan};
use kspot_net::types::SINK;
use kspot_net::{Deployment, Network, NetworkConfig, PhaseTag};
use kspot_testkit::invariants::check_ledger;
use proptest::prelude::*;

const PHASES: &[PhaseTag] = &[
    PhaseTag::Dissemination,
    PhaseTag::Creation,
    PhaseTag::Update,
    PhaseTag::Control,
    PhaseTag::Probe,
    PhaseTag::LowerBound,
    PhaseTag::HierarchicalJoin,
    PhaseTag::CleanUp,
];

// The three-axis conservation checker itself is `kspot_testkit::invariants::check_ledger`
// (a dev-only dependency cycle: the testkit depends on this crate's library); keeping a
// single implementation means a new `PhaseTotals` field cannot silently weaken one copy.

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Random traffic over a random faulted network conserves every ledger axis, and
    /// the battery bank agrees with the metrics ledger.
    #[test]
    fn ledgers_conserve_under_random_faulted_traffic(
        rooms in 2usize..5,
        per_room in 1usize..4,
        loss_pct in 0u32..60,
        retransmits in 0u32..4,
        kill in prop_oneof![Just(false), Just(true)],
        duty in prop_oneof![Just(false), Just(true)],
        batching in prop_oneof![Just(false), Just(true)],
        epochs in 1usize..6,
        ops in prop::collection::vec((0u64..4, 1u64..1000), 5..60),
        seed in 0u64..10_000,
    ) {
        let d = Deployment::clustered_rooms(rooms, per_room, 20.0, kspot_net::rng::topology_seed(seed));
        let n = d.num_nodes() as u32;
        let mut faults = FaultPlan::none()
            .with_link_loss(0.05 + 0.95 * f64::from(loss_pct) / 100.0)
            .with_retransmits(retransmits);
        if kill {
            faults = faults.with_node_death(1 + (seed % u64::from(n)) as u32, (epochs / 2) as u64);
        }
        if duty {
            faults = faults.with_duty_cycle(DutyCycle::new(3, 2));
        }
        let config = NetworkConfig::mica2()
            .with_seed(kspot_net::rng::substrate_seed(seed))
            .with_faults(faults);
        let mut net = Network::new(d, config);
        net.set_frame_batching(batching);

        let mut op_rng = kspot_net::rng::stream_rng(seed, &[0x0_FF]);
        use rand::Rng;
        for e in 0..epochs as u64 {
            net.begin_epoch(e);
            for &(op, payload) in &ops {
                let phase = PHASES[(payload % PHASES.len() as u64) as usize];
                let from = 1 + op_rng.gen_range(0..n);
                match op {
                    0 => {
                        let _ = net.send_report_up(from, e, (payload % 7) as u32, 0, phase);
                    }
                    1 => {
                        let _ = net.unicast_down(from, e, (payload % 3) as u32 + 1, phase);
                        let _ = net.unicast_up(from, e, (payload % 3) as u32 + 1, phase);
                    }
                    2 => {
                        net.flood_down(e, (payload % 4) as u32 + 1, phase);
                    }
                    _ => net.charge_cpu(from, (payload % 9) as u32),
                }
            }
        }
        net.flush_frames();

        let violations = check_ledger(net.metrics());
        prop_assert!(violations.is_empty(), "{violations:#?}");

        // Battery drain equals the metrics energy ledger (huge batteries never
        // saturate, and dead/sleeping nodes were never charged).
        let consumed = net.total_energy_uj();
        let booked = net.metrics().totals().energy_uj;
        prop_assert!(
            (consumed - booked).abs() <= 1e-6 * booked.abs().max(1.0),
            "batteries drained {consumed} µJ but the ledger booked {booked} µJ"
        );
    }
}

// ---------------------------------------------------------------------------------
// The flat ledger against a map-per-axis model.
// ---------------------------------------------------------------------------------

use kspot_net::{
    AttemptCost, Fate, FrameScheduler, NetworkMetrics, NodeCounters, PhaseTotals, QueryScope, RadioModel,
    StorageTotals,
};
use std::collections::BTreeMap;

/// One scope's attributed share of a merged frame, as the model books it.
#[derive(Debug, Clone, Copy)]
struct FrameSlice {
    scope: Option<QueryScope>,
    phase: PhaseTag,
    share_bytes: u32,
    tuples: u32,
}

/// One report enqueued onto a frame: its scope, phase, payload bytes and tuples.
#[derive(Debug, Clone, Copy)]
struct Intent {
    scope: Option<QueryScope>,
    phase: PhaseTag,
    payload: u32,
    tuples: u32,
}

/// The attribution split as it was written before the flush costed frames in place:
/// each slice its payload plus `overhead × payload_i / payload` rounded down, the bytes
/// left one at a time to the earliest slices, the opener any still left.  Returns the
/// frame's on-air bytes.
fn split_shares(intents: &[Intent], radio: &RadioModel) -> (u32, Vec<FrameSlice>) {
    let payload_total: u32 = intents.iter().map(|i| i.payload).sum();
    let frame_bytes = radio.on_air_bytes(payload_total);
    let overhead = frame_bytes - payload_total;
    let mut slices: Vec<FrameSlice> = intents
        .iter()
        .map(|intent| {
            let share = if payload_total == 0 {
                0
            } else {
                (u64::from(overhead) * u64::from(intent.payload) / u64::from(payload_total)) as u32
            };
            FrameSlice { scope: intent.scope, phase: intent.phase, share_bytes: intent.payload + share, tuples: intent.tuples }
        })
        .collect();
    let mut remainder = frame_bytes - slices.iter().map(|s| s.share_bytes).sum::<u32>();
    for slice in slices.iter_mut() {
        if remainder == 0 {
            break;
        }
        slice.share_bytes += 1;
        remainder -= 1;
    }
    if let Some(first) = slices.first_mut() {
        first.share_bytes += remainder;
    }
    (frame_bytes, slices)
}

/// The radios frames are costed with: MICA2, the overhead-free ideal radio (where an
/// empty frame is 0 bytes) and one that fragments every 17 bytes.
fn radio(x: u64) -> RadioModel {
    match x % 3 {
        0 => RadioModel::mica2(),
        1 => RadioModel::ideal(),
        _ => RadioModel { frame_overhead_bytes: 3, header_bytes: 5, tuple_bytes: 1, control_bytes: 1, max_payload_bytes: 17 },
    }
}

/// The aggregate half of the ledger as it was kept before it went flat: one `BTreeMap`
/// per axis, every row created by `entry().or_default()`.  Deliberately a transcript
/// of that code — it defines when rows exist and in which order each accumulator
/// receives its operands.
#[derive(Default)]
struct MapLedger {
    per_phase: BTreeMap<PhaseTag, PhaseTotals>,
    per_epoch: BTreeMap<u64, PhaseTotals>,
    per_scope: BTreeMap<QueryScope, PhaseTotals>,
    per_scope_phase: BTreeMap<(QueryScope, PhaseTag), PhaseTotals>,
    storage_per_scope: BTreeMap<QueryScope, StorageTotals>,
    current_scope: Option<QueryScope>,
    totals: PhaseTotals,
}

impl MapLedger {
    fn book(&mut self, epoch: u64, phase: PhaseTag, mut apply: impl FnMut(&mut PhaseTotals)) {
        apply(self.per_phase.entry(phase).or_default());
        apply(self.per_epoch.entry(epoch).or_default());
        apply(&mut self.totals);
        if let Some(scope) = self.current_scope {
            apply(self.per_scope.entry(scope).or_default());
            apply(self.per_scope_phase.entry((scope, phase)).or_default());
        }
    }

    fn transmission(&mut self, epoch: u64, phase: PhaseTag, bytes: u32, tuples: u32, energy: f64) {
        self.book(epoch, phase, |t| {
            t.messages += 1;
            t.bytes += u64::from(bytes);
            t.tuples += u64::from(tuples);
            t.energy_uj += energy;
        });
    }

    fn frame_attempt(&mut self, epoch: u64, label: PhaseTag, frame_bytes: u32, slices: &[FrameSlice], energy: f64) {
        let total_tuples: u32 = slices.iter().map(|s| s.tuples).sum();
        for totals in [&mut self.totals, self.per_epoch.entry(epoch).or_default()] {
            totals.messages += 1;
            totals.bytes += u64::from(frame_bytes);
            totals.tuples += u64::from(total_tuples);
            totals.energy_uj += energy;
        }
        self.per_phase.entry(label).or_default().messages += 1;
        for slice in slices {
            let share =
                if frame_bytes > 0 { f64::from(slice.share_bytes) / f64::from(frame_bytes) } else { 0.0 };
            let slice_energy = energy * share;
            let phase = self.per_phase.entry(slice.phase).or_default();
            phase.bytes += u64::from(slice.share_bytes);
            phase.tuples += u64::from(slice.tuples);
            phase.energy_uj += slice_energy;
            if let Some(scope) = slice.scope {
                for ledger in [
                    self.per_scope.entry(scope).or_default(),
                    self.per_scope_phase.entry((scope, slice.phase)).or_default(),
                ] {
                    ledger.messages += 1;
                    ledger.bytes += u64::from(slice.share_bytes);
                    ledger.tuples += u64::from(slice.tuples);
                    ledger.energy_uj += slice_energy;
                }
            }
        }
    }

    fn frame_event(
        &mut self,
        epoch: u64,
        label: PhaseTag,
        slices: &[FrameSlice],
        mut apply: impl FnMut(&mut PhaseTotals),
    ) {
        apply(self.per_phase.entry(label).or_default());
        apply(self.per_epoch.entry(epoch).or_default());
        apply(&mut self.totals);
        let mut seen: Vec<QueryScope> = Vec::new();
        for slice in slices {
            if let Some(scope) = slice.scope {
                if !seen.contains(&scope) {
                    seen.push(scope);
                    apply(self.per_scope.entry(scope).or_default());
                    apply(self.per_scope_phase.entry((scope, slice.phase)).or_default());
                }
            }
        }
    }

    fn local_energy(&mut self, epoch: u64, uj: f64) {
        self.totals.energy_uj += uj;
        self.per_epoch.entry(epoch).or_default().energy_uj += uj;
        if let Some(scope) = self.current_scope {
            self.per_scope.entry(scope).or_default().energy_uj += uj;
        }
    }
}

fn totals_bits(t: PhaseTotals) -> [u64; 6] {
    [t.messages, t.bytes, t.tuples, t.retransmissions, t.dropped_messages, t.energy_uj.to_bits()]
}

fn storage_bits(t: StorageTotals) -> [u64; 4] {
    [t.pages_written, t.pages_read, t.bytes_written, t.energy_uj.to_bits()]
}

/// SplitMix64: one op word becomes as many independent fields as the op needs.
fn fields(word: u64) -> impl FnMut() -> u64 {
    let mut state = word;
    move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Scopes and epochs are drawn from small pools of *sparse* values, so rows are
/// revisited, arrive out of order, and an id-indexed table would be enormous.
fn sparse_scope(x: u64) -> QueryScope {
    [0, 1, 7, 4_000_000_000, u32::MAX, 65_536][(x % 6) as usize]
}

fn sparse_epoch(x: u64) -> u64 {
    [0, 1, 2, 3, 500, 499, u64::MAX, 1 << 40][(x % 8) as usize]
}

const NODES: u32 = 6;

/// One event of a path booking.
enum PathEvent {
    /// An attempt sent by the node and heard by the listed ones.
    Attempt(u32, Vec<u32>),
    Retransmission,
    /// A drop attributed to the node.
    Drop(u32),
}

/// The node counters as each event moves them, indexed by node id (the sink is 0).
struct NodeModel(Vec<NodeCounters>);

impl NodeModel {
    fn attempt(&mut self, from: u32, heard_by: &[u32], bytes: u32, tuples: u32, tx: f64, rx: f64) {
        let sender = &mut self.0[from as usize];
        sender.tx_messages += 1;
        sender.tx_bytes += u64::from(bytes);
        sender.tuples_sent += u64::from(tuples);
        sender.energy_uj += tx;
        for &to in heard_by {
            let receiver = &mut self.0[to as usize];
            receiver.rx_messages += 1;
            receiver.rx_bytes += u64::from(bytes);
            receiver.energy_uj += rx;
        }
    }
}

fn counters_bits(c: &NodeCounters) -> [u64; 7] {
    [c.tx_messages, c.rx_messages, c.tx_bytes, c.rx_bytes, c.tuples_sent, c.dropped_messages, c.energy_uj.to_bits()]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Every booking entry point, interleaved scopes, non-monotonic epochs: the flat
    /// ledger reads exactly like the map-per-axis model fed one event at a time — same
    /// rows (zero-valued ones included, and only those the maps would hold), same
    /// order, same bits — and every node's counters like a per-event count.
    #[test]
    fn flat_ledger_matches_the_map_model(
        ops in prop::collection::vec((0u64..9, 0u64..u64::MAX), 1..80),
    ) {
        let mut ledger = NetworkMetrics::new(NODES as usize);
        let mut model = MapLedger::default();
        let mut nodes = NodeModel(vec![NodeCounters::default(); NODES as usize + 1]);
        for &(kind, word) in &ops {
            let mut next = fields(word);
            let epoch = sparse_epoch(next());
            let phase = PHASES[(next() % PHASES.len() as u64) as usize];
            let from = (next() % u64::from(NODES + 1)) as u32;
            let to = (next() % u64::from(NODES + 1)) as u32;
            let bytes = (next() % 200) as u32;
            let tuples = (next() % 9) as u32;
            let tx = (next() % 1000) as f64 * 0.37;
            let rx = (next() % 1000) as f64 * 0.21;
            let sensor = |from: u32, heard_by: &[u32]| {
                let mut e = 0.0;
                if from != SINK { e += tx; }
                for &to in heard_by {
                    if to != SINK { e += rx; }
                }
                e
            };
            match kind {
                0 => {
                    ledger.record_transmission(from, to, epoch, phase, bytes, tuples, tx, rx);
                    model.transmission(epoch, phase, bytes, tuples, sensor(from, &[to]));
                    nodes.attempt(from, &[to], bytes, tuples, tx, rx);
                }
                1 | 2 => {
                    // A path booking of up to twelve events in any order: attempts heard
                    // by none to three nodes (a unicast hop, an unheard attempt, a
                    // flood's broadcasts), retransmissions, drops.  None books nothing.
                    // The model books every event on its own.
                    let events: Vec<PathEvent> = (0..next() % 13)
                        .map(|_| {
                            let node = (next() % u64::from(NODES + 1)) as u32;
                            match next() % 4 {
                                0 => PathEvent::Retransmission,
                                1 => PathEvent::Drop(node),
                                _ => PathEvent::Attempt(
                                    node,
                                    (0..next() % 4).map(|_| (next() % u64::from(NODES + 1)) as u32).collect(),
                                ),
                            }
                        })
                        .collect();
                    let mut path = ledger.open_path(epoch, phase, AttemptCost { bytes, tuples, tx_energy: tx, rx_energy: rx });
                    for event in &events {
                        match event {
                            PathEvent::Attempt(from, heard_by) => path.record_attempt(*from, heard_by),
                            PathEvent::Retransmission => path.note_retransmission(),
                            PathEvent::Drop(from) => path.note_drop(*from),
                        }
                    }
                    path.close();
                    for event in &events {
                        match event {
                            PathEvent::Attempt(from, heard_by) => {
                                model.transmission(epoch, phase, bytes, tuples, sensor(*from, heard_by));
                                nodes.attempt(*from, heard_by, bytes, tuples, tx, rx);
                            }
                            PathEvent::Retransmission => model.book(epoch, phase, |t| t.retransmissions += 1),
                            PathEvent::Drop(from) => {
                                model.book(epoch, phase, |t| t.dropped_messages += 1);
                                nodes.0[*from as usize].dropped_messages += 1;
                            }
                        }
                    }
                }
                3 | 4 => {
                    // A flush of one to three merged frames, each of one to four attempts,
                    // delivered or dropped, opened by the first of its one to four reports
                    // (an empty payload included), in one call.  Two reports of one hop
                    // ride one frame, the first's fate.  The model splits each frame by
                    // the transcript above and books, hop by hop, every attempt,
                    // retransmission and the drop.
                    let radio = radio(next());
                    let mut frames = FrameScheduler::new(NODES as usize);
                    let mut hops: BTreeMap<(u32, u32), (Fate, Vec<Intent>)> = BTreeMap::new();
                    for _ in 0..1 + next() % 3 {
                        let (from, to) = if next().is_multiple_of(3) {
                            (from, to)
                        } else {
                            ((next() % u64::from(NODES + 1)) as u32, (next() % u64::from(NODES + 1)) as u32)
                        };
                        let fate = Fate {
                            epoch: sparse_epoch(next()),
                            delivered: next().is_multiple_of(2),
                            attempts: 1 + (next() % 4) as u32,
                        };
                        for _ in 0..1 + next() % 4 {
                            let intent = Intent {
                                scope: (!next().is_multiple_of(5)).then(|| sparse_scope(next())),
                                phase: PHASES[(next() % PHASES.len() as u64) as usize],
                                payload: [0, 0, 1, 7, 12, 29, 30, 59][(next() % 8) as usize],
                                tuples: (next() % 5) as u32,
                            };
                            frames.enqueue(from, to, intent.scope, intent.phase, intent.payload, intent.tuples, || fate);
                            hops.entry((from, to)).or_insert((fate, Vec::new())).1.push(intent);
                        }
                    }
                    let mut charged = Vec::new();
                    ledger.book_frames(&mut frames, &radio, |from, to, frame_bytes, attempts| {
                        charged.push((from, to, frame_bytes, attempts));
                        (tx, rx)
                    });
                    let mut expected = Vec::new();
                    for (&(from, to), (fate, intents)) in &hops {
                        let (frame_bytes, slices) = split_shares(intents, &radio);
                        expected.push((from, to, frame_bytes, fate.attempts));
                        let (epoch, label) = (fate.epoch, intents[0].phase);
                        let frame_tuples: u32 = slices.iter().map(|s| s.tuples).sum();
                        for attempt in 0..fate.attempts {
                            if attempt > 0 {
                                model.frame_event(epoch, label, &slices, |t| t.retransmissions += 1);
                            }
                            model.frame_attempt(epoch, label, frame_bytes, &slices, sensor(from, &[to]));
                            nodes.attempt(from, &[to], frame_bytes, frame_tuples, tx, rx);
                        }
                        if !fate.delivered {
                            model.frame_event(epoch, label, &slices, |t| t.dropped_messages += 1);
                            nodes.0[from as usize].dropped_messages += 1;
                        }
                    }
                    prop_assert_eq!(charged, expected, "frames are costed and drained in (from, to) order");
                }
                5 => {
                    // Zero charges too: they create rows without changing a sum.
                    let uj = if tuples == 0 { 0.0 } else { tx };
                    ledger.record_local_energy(from, epoch, uj);
                    if from != SINK {
                        model.local_energy(epoch, uj);
                        nodes.0[from as usize].energy_uj += uj;
                    }
                }
                6 | 7 => {
                    let pages = u64::from(tuples);
                    let uj = pages as f64 * 76.2;
                    if kind == 6 {
                        ledger.record_page_writes(from, epoch, pages, u64::from(bytes), uj);
                    } else {
                        ledger.record_page_reads(from, epoch, pages, uj);
                    }
                    if from != SINK {
                        model.local_energy(epoch, uj);
                        nodes.0[from as usize].energy_uj += uj;
                        if let Some(scope) = model.current_scope {
                            let row = model.storage_per_scope.entry(scope).or_default();
                            if kind == 6 {
                                row.pages_written += pages;
                                row.bytes_written += u64::from(bytes);
                            } else {
                                row.pages_read += pages;
                            }
                            row.energy_uj += uj;
                        }
                    }
                }
                _ => {
                    let scope = (!word.is_multiple_of(4)).then(|| sparse_scope(word >> 8));
                    ledger.set_scope(scope);
                    model.current_scope = scope;
                }
            }
        }

        let counters: Vec<_> = std::iter::once(ledger.sink()).chain((1..=NODES).map(|id| ledger.node(id))).map(counters_bits).collect();
        prop_assert_eq!(counters, nodes.0.iter().map(counters_bits).collect::<Vec<_>>());
        prop_assert_eq!(totals_bits(ledger.totals()), totals_bits(model.totals));
        let rows = |it: &mut dyn Iterator<Item = (u64, PhaseTotals)>| -> Vec<(u64, [u64; 6])> {
            it.map(|(k, t)| (k, totals_bits(t))).collect()
        };
        prop_assert_eq!(
            rows(&mut ledger.epochs()),
            rows(&mut model.per_epoch.iter().map(|(k, t)| (*k, *t)))
        );
        prop_assert_eq!(
            rows(&mut ledger.phases().map(|(p, t)| (p as u64, t))),
            rows(&mut model.per_phase.iter().map(|(p, t)| (*p as u64, *t)))
        );
        prop_assert_eq!(
            rows(&mut ledger.scopes().map(|(s, t)| (u64::from(s), t))),
            rows(&mut model.per_scope.iter().map(|(s, t)| (u64::from(*s), *t)))
        );
        let storage: Vec<_> = ledger.storage_scopes().map(|(s, t)| (s, storage_bits(t))).collect();
        let model_storage: Vec<_> = model.storage_per_scope.iter().map(|(s, t)| (*s, storage_bits(*t))).collect();
        prop_assert_eq!(storage, model_storage);
        // Keyed reads, for rows that exist and rows that do not.
        for x in 0..6 {
            let scope = sparse_scope(x);
            prop_assert_eq!(
                rows(&mut ledger.scope_phases(scope).map(|(p, t)| (p as u64, t))),
                rows(&mut model.per_scope_phase.iter().filter(|((s, _), _)| *s == scope).map(|((_, p), t)| (*p as u64, *t)))
            );
            prop_assert_eq!(totals_bits(ledger.scope(scope)), totals_bits(model.per_scope.get(&scope).copied().unwrap_or_default()));
            let storage = ledger.storage_scopes().find(|&(s, _)| s == scope).map(|(_, t)| t);
            prop_assert_eq!(storage_bits(storage.unwrap_or_default()), storage_bits(model.storage_per_scope.get(&scope).copied().unwrap_or_default()));
            for &phase in PHASES {
                let cell = ledger.scope_phases(scope).find(|&(p, _)| p == phase).map(|(_, t)| t);
                prop_assert_eq!(
                    totals_bits(cell.unwrap_or_default()),
                    totals_bits(model.per_scope_phase.get(&(scope, phase)).copied().unwrap_or_default())
                );
            }
        }
        for x in 0..8 {
            let epoch = sparse_epoch(x);
            prop_assert_eq!(totals_bits(ledger.epoch(epoch)), totals_bits(model.per_epoch.get(&epoch).copied().unwrap_or_default()));
        }
        for &phase in PHASES {
            prop_assert_eq!(totals_bits(ledger.phase(phase)), totals_bits(model.per_phase.get(&phase).copied().unwrap_or_default()));
        }
    }
}
