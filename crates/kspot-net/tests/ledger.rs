//! Ledger conservation of [`NetworkMetrics`] under random traffic, including the
//! fault-injection paths (loss, ARQ retransmissions, node death, duty cycling).
//!
//! The invariant: whatever mix of sends, floods, unicasts, CPU charges and baseline
//! epochs a run performs, the run's totals equal (a) the sum of per-node charges,
//! (b) the sum of the per-phase totals, and (c) the sum of the per-epoch totals —
//! traffic and energy may be lost *on the air*, but never in the books.  Battery
//! drain must also agree with the metrics ledger as long as no battery saturates.

use kspot_net::fault::{DutyCycle, FaultPlan};
use kspot_net::types::SINK;
use kspot_net::{Deployment, Message, Network, NetworkConfig, PhaseTag, RadioModel};
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
        epochs in 1usize..6,
        ops in prop::collection::vec((0u64..4, 1u64..1000), 5..60),
        seed in 0u64..10_000,
    ) {
        let d = Deployment::clustered_rooms(rooms, per_room, 20.0, kspot_net::rng::topology_seed(seed));
        let n = d.num_nodes() as u32;
        let mut faults = FaultPlan::none()
            .with_link_loss(f64::from(loss_pct) / 100.0)
            .with_retransmits(retransmits);
        if kill {
            faults = faults.with_node_death(1 + (seed % u64::from(n)) as u32, (epochs / 2) as u64);
        }
        if duty {
            faults = faults.with_duty_cycle(DutyCycle::new(3, 2));
        }
        let config = NetworkConfig::mica2()
            .with_radio(RadioModel::mica2().with_loss(0.05))
            .with_seed(kspot_net::rng::substrate_seed(seed))
            .with_faults(faults);
        let mut net = Network::new(d, config);

        let mut op_rng = kspot_net::rng::stream_rng(seed, &[0x0_FF]);
        use rand::Rng;
        for e in 0..epochs as u64 {
            net.begin_epoch(e);
            for &(op, payload) in &ops {
                let phase = PHASES[(payload % PHASES.len() as u64) as usize];
                let from = 1 + op_rng.gen_range(0..n);
                let to_raw = op_rng.gen_range(0..=n);
                let to = if to_raw == from { SINK } else { to_raw };
                match op {
                    0 => {
                        let _ = net.send(
                            Message::data(from, to, e, (payload % 7) as u32),
                            phase,
                        );
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

use kspot_net::{FrameSlice, NetworkMetrics, PhaseTotals, QueryScope, StorageTotals};
use std::collections::BTreeMap;

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

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Every booking entry point, interleaved scopes, non-monotonic epochs: the flat
    /// ledger reads exactly like the map-per-axis model — same rows (zero-valued ones
    /// included, and only those the maps would hold), same order, same bits.
    #[test]
    fn flat_ledger_matches_the_map_model(
        ops in prop::collection::vec((0u64..12, 0u64..u64::MAX), 1..80),
    ) {
        let mut ledger = NetworkMetrics::new(NODES as usize);
        let mut model = MapLedger::default();
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
            let sensor = |from: u32, to: Option<u32>| {
                let mut e = 0.0;
                if from != SINK { e += tx; }
                if to.is_some_and(|to| to != SINK) { e += rx; }
                e
            };
            let slices: Vec<FrameSlice> = (0..1 + next() % 4)
                .map(|_| FrameSlice {
                    scope: (!next().is_multiple_of(5)).then(|| sparse_scope(next())),
                    phase: PHASES[(next() % PHASES.len() as u64) as usize],
                    share_bytes: (next() % 60) as u32,
                    tuples: (next() % 5) as u32,
                })
                .collect();
            let frame_bytes: u32 = if next().is_multiple_of(7) { 0 } else { slices.iter().map(|s| s.share_bytes).sum() };
            match kind {
                0 => {
                    ledger.record_transmission(from, to, epoch, phase, bytes, tuples, tx, rx);
                    model.transmission(epoch, phase, bytes, tuples, sensor(from, Some(to)));
                }
                1 => {
                    let receivers: Vec<u32> = (0..=NODES).filter(|r| (word >> r) & 1 == 1).collect();
                    ledger.record_broadcast(from, &receivers, epoch, phase, bytes, tuples, tx, rx);
                    let mut energy = if from != SINK { tx } else { 0.0 };
                    for &r in &receivers {
                        if r != SINK { energy += rx; }
                    }
                    model.transmission(epoch, phase, bytes, tuples, energy);
                }
                2 => {
                    ledger.record_unheard_transmission(from, epoch, phase, bytes, tuples, tx);
                    model.transmission(epoch, phase, bytes, tuples, sensor(from, None));
                }
                3 => {
                    ledger.record_frame_transmission(from, to, epoch, phase, frame_bytes, &slices, tx, rx);
                    model.frame_attempt(epoch, phase, frame_bytes, &slices, sensor(from, Some(to)));
                }
                4 => {
                    ledger.note_frame_retransmission(epoch, phase, &slices);
                    model.frame_event(epoch, phase, &slices, |t| t.retransmissions += 1);
                }
                5 => {
                    ledger.note_frame_drop(from, epoch, phase, &slices);
                    model.frame_event(epoch, phase, &slices, |t| t.dropped_messages += 1);
                }
                6 => {
                    ledger.note_retransmission(epoch, phase);
                    model.book(epoch, phase, |t| t.retransmissions += 1);
                }
                7 => {
                    ledger.note_drop(from, epoch, phase);
                    model.book(epoch, phase, |t| t.dropped_messages += 1);
                }
                8 => {
                    // Zero charges too: they create rows without changing a sum.
                    let uj = if tuples == 0 { 0.0 } else { tx };
                    ledger.record_local_energy(from, epoch, uj);
                    if from != SINK {
                        model.local_energy(epoch, uj);
                    }
                }
                9 | 10 => {
                    let pages = u64::from(tuples);
                    let uj = pages as f64 * 76.2;
                    if kind == 9 {
                        ledger.record_page_writes(from, epoch, pages, u64::from(bytes), uj);
                    } else {
                        ledger.record_page_reads(from, epoch, pages, uj);
                    }
                    if from != SINK {
                        model.local_energy(epoch, uj);
                        if let Some(scope) = model.current_scope {
                            let row = model.storage_per_scope.entry(scope).or_default();
                            if kind == 9 {
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
            prop_assert_eq!(storage_bits(ledger.storage_scope(scope)), storage_bits(model.storage_per_scope.get(&scope).copied().unwrap_or_default()));
            for &phase in PHASES {
                prop_assert_eq!(
                    totals_bits(ledger.scope_phase(scope, phase)),
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
