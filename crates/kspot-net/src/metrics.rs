//! Message, byte and energy accounting — the numbers behind KSpot's System Panel.
//!
//! Every transmission performed through [`crate::sim::Network`] is recorded here, broken
//! down per node, per epoch and per algorithm *phase* so that experiments can answer the
//! questions the paper's System Panel answers live at the demo booth: how many messages
//! and how much energy did the in-network Top-K execution save compared to shipping
//! everything to the base station?
//!
//! The ledger is booked to once per simulated transmission, so its axes are flat:
//! sorted rows behind a last-hit cursor.  What must survive any change of
//! representation — the order each accumulator receives its operands in, and when a
//! row starts to exist — is written down in ADR-004, "Host representation".

use crate::schedule::FrameSlice;
use crate::types::{Epoch, NodeId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which algorithm phase a transmission belongs to.
///
/// The phases mirror the published descriptions: MINT's Creation / Pruning / Update and
/// TJA's Lower-Bound / Hierarchical-Join / Clean-Up, plus the generic dissemination,
/// control and probe traffic every algorithm shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum PhaseTag {
    /// Query flooding down the tree.
    Dissemination,
    /// MINT Creation phase (initial full view construction).
    Creation,
    /// Per-epoch data reports (MINT Update phase, TAG partial aggregates, raw tuples).
    Update,
    /// Threshold / filter / candidate-list broadcasts.
    Control,
    /// Probe requests and replies (MINT verification, TPUT phase 3, TJA Clean-Up pulls).
    Probe,
    /// TJA Lower-Bound phase.
    LowerBound,
    /// TJA Hierarchical-Join phase.
    HierarchicalJoin,
    /// TJA Clean-Up phase.
    CleanUp,
}

impl fmt::Display for PhaseTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PhaseTag::Dissemination => "dissemination",
            PhaseTag::Creation => "creation",
            PhaseTag::Update => "update",
            PhaseTag::Control => "control",
            PhaseTag::Probe => "probe",
            PhaseTag::LowerBound => "lower-bound",
            PhaseTag::HierarchicalJoin => "hierarchical-join",
            PhaseTag::CleanUp => "clean-up",
        };
        f.write_str(s)
    }
}

/// Per-node traffic and energy counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct NodeCounters {
    /// Messages transmitted by the node.
    pub tx_messages: u64,
    /// Messages received by the node.
    pub rx_messages: u64,
    /// On-air bytes transmitted.
    pub tx_bytes: u64,
    /// On-air bytes received.
    pub rx_bytes: u64,
    /// Result tuples the node placed on the air.
    pub tuples_sent: u64,
    /// Payloads this node failed to deliver even after its ARQ retries (or because the
    /// receiver was dead or asleep for the whole epoch).
    pub dropped_messages: u64,
    /// Total energy drawn, µJ (radio + sensing + CPU).
    pub energy_uj: f64,
}

impl NodeCounters {
    fn add_tx(&mut self, bytes: u32, tuples: u32, energy: f64) {
        self.tx_messages += 1;
        self.tx_bytes += u64::from(bytes);
        self.tuples_sent += u64::from(tuples);
        self.energy_uj += energy;
    }

    fn add_rx(&mut self, bytes: u32, energy: f64) {
        self.rx_messages += 1;
        self.rx_bytes += u64::from(bytes);
        self.energy_uj += energy;
    }
}

/// Aggregate counters for one phase (or for the whole run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseTotals {
    /// Messages transmitted network-wide.
    pub messages: u64,
    /// On-air bytes transmitted network-wide.
    pub bytes: u64,
    /// Result tuples transmitted network-wide.
    pub tuples: u64,
    /// ARQ retransmission attempts (already included in `messages`/`bytes`; this
    /// counter isolates the overhead the recovery policy paid).
    pub retransmissions: u64,
    /// Payloads that were never delivered: lost after exhausting their ARQ retries, or
    /// addressed to a node that was dead or asleep.
    pub dropped_messages: u64,
    /// Energy drawn network-wide (sensor nodes only, the sink is mains-powered), µJ.
    pub energy_uj: f64,
}

/// Identifier of a metrics attribution scope — one registered query of the multi-query
/// engine.  Traffic recorded while a scope is installed is additionally booked to that
/// scope, so N queries sharing one substrate still get individual System-Panel numbers.
pub type QueryScope = u32;

/// Flash page-I/O counters for one node, one scope, or the whole network.
///
/// The checkpoint store persists window snapshots to each node's local flash
/// (ADR-009); every page written or read there is booked here so the ledger
/// conservation law extends to storage: per-node storage counters sum exactly to
/// [`NetworkMetrics::storage_totals`], and scoped storage reads are a subset of them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StorageTotals {
    /// Flash pages written.
    pub pages_written: u64,
    /// Flash pages read.
    pub pages_read: u64,
    /// Payload bytes written to flash (page-aligned images may pad beyond this).
    pub bytes_written: u64,
    /// Energy drawn by the flash chip, µJ (also included in the energy ledgers).
    pub energy_uj: f64,
}

impl StorageTotals {
    fn add_write(&mut self, pages: u64, bytes: u64, uj: f64) {
        self.pages_written += pages;
        self.bytes_written += bytes;
        self.energy_uj += uj;
    }

    fn add_read(&mut self, pages: u64, uj: f64) {
        self.pages_read += pages;
        self.energy_uj += uj;
    }
}

/// One ledger axis: rows sorted by key, found by binary search over the compact key
/// column, behind a last-hit cursor.  Bookings arrive in long runs of one key (a
/// session's sweep books one scope and mostly one phase, an epoch books one epoch), so
/// the cursor answers almost every look-up; new epochs and scopes almost always sort
/// last, so insertion is almost always a push.  A row *exists* once something was
/// booked to it (even a zero), and a key costs one row however large it is.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SortedRows<K, V> {
    keys: Vec<K>,
    rows: Vec<V>,
    cursor: usize,
}

impl<K: Ord + Copy, V: Default> SortedRows<K, V> {
    fn new() -> Self {
        Self { keys: Vec::new(), rows: Vec::new(), cursor: 0 }
    }

    /// The key's row, created (zeroed) if it does not exist yet.
    fn entry(&mut self, key: K) -> &mut V {
        let mut at = self.cursor;
        self.entry_near(key, &mut at);
        self.cursor = at;
        &mut self.rows[at]
    }

    /// [`Self::entry`] with the caller's own cursor: `hint` is where the caller last
    /// found the key (any value is safe, it is checked) and is updated.
    fn entry_near(&mut self, key: K, hint: &mut usize) -> &mut V {
        if self.keys.get(*hint) != Some(&key) {
            *hint = match self.keys.binary_search(&key) {
                Ok(at) => at,
                Err(at) => {
                    self.keys.insert(at, key);
                    self.rows.insert(at, V::default());
                    at
                }
            };
        }
        &mut self.rows[*hint]
    }

    fn get(&self, key: K) -> Option<&V> {
        self.keys.binary_search(&key).ok().map(|at| &self.rows[at])
    }

    fn iter(&self) -> impl Iterator<Item = (K, &V)> + '_ {
        self.keys.iter().copied().zip(&self.rows)
    }
}

/// What is booked to a query scope as a whole (its phase breakdown is kept per
/// `(scope, phase)` cell).  The row exists once anything was booked to the scope; its
/// storage half exists only once the scope touched flash.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct ScopeRow {
    totals: PhaseTotals,
    storage: Option<StorageTotals>,
}

/// Full accounting of a simulated run.
///
/// Host representation (ADR-004, "Host representation"): every axis is sorted rows
/// behind a cursor, so a booking in a run of bookings finds its rows without a
/// search.  Every accumulator still receives exactly the `+=` operands, in exactly the
/// order, that the `BTreeMap`-per-axis ledger gave it, and rows come into existence
/// exactly when that ledger's `entry().or_default()` created them.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NetworkMetrics {
    per_node: Vec<NodeCounters>,
    sink: NodeCounters,
    per_phase: SortedRows<PhaseTag, PhaseTotals>,
    per_epoch: SortedRows<Epoch, PhaseTotals>,
    per_scope: SortedRows<QueryScope, ScopeRow>,
    per_scope_phase: SortedRows<(QueryScope, PhaseTag), PhaseTotals>,
    /// Per slice position of a merged frame, where that position's scope row and
    /// scope×phase cell were last found (cursors, checked before use).
    frame_hints: Vec<[usize; 2]>,
    current_scope: Option<QueryScope>,
    totals: PhaseTotals,
    storage_per_node: Vec<StorageTotals>,
    storage_totals: StorageTotals,
}

impl NetworkMetrics {
    /// Creates metrics for a network of `n` sensor nodes.
    pub fn new(n: usize) -> Self {
        Self {
            per_node: vec![NodeCounters::default(); n],
            sink: NodeCounters::default(),
            per_phase: SortedRows::new(),
            per_epoch: SortedRows::new(),
            per_scope: SortedRows::new(),
            per_scope_phase: SortedRows::new(),
            frame_hints: Vec::new(),
            current_scope: None,
            totals: PhaseTotals::default(),
            storage_per_node: vec![StorageTotals::default(); n],
            storage_totals: StorageTotals::default(),
        }
    }

    /// Number of sensor nodes tracked.
    pub fn num_nodes(&self) -> usize {
        self.per_node.len()
    }

    fn counters_mut(&mut self, id: NodeId) -> &mut NodeCounters {
        if id == crate::types::SINK {
            &mut self.sink
        } else {
            &mut self.per_node[(id - 1) as usize]
        }
    }

    /// Installs (or clears) the attribution scope.  While a scope is installed, every
    /// recorded transmission, retransmission, drop and local-energy charge is
    /// additionally booked to that scope's [`PhaseTotals`], on top of the usual
    /// per-node / per-phase / per-epoch / grand-total ledgers.
    pub fn set_scope(&mut self, scope: Option<QueryScope>) {
        self.current_scope = scope;
    }

    /// The currently installed attribution scope, if any.
    pub fn current_scope(&self) -> Option<QueryScope> {
        self.current_scope
    }

    /// Totals attributed to a scope (zero if the scope never saw traffic).
    pub fn scope(&self, scope: QueryScope) -> PhaseTotals {
        self.per_scope.get(scope).map(|row| row.totals).unwrap_or_default()
    }

    /// All scopes that actually saw traffic, with their totals, in scope order.
    pub fn scopes(&self) -> impl Iterator<Item = (QueryScope, PhaseTotals)> + '_ {
        self.per_scope.iter().map(|(scope, row)| (scope, row.totals))
    }

    /// Totals attributed to one scope in one phase (zero if the pair never saw
    /// traffic) — the scope×phase breakdown behind the System Panel's per-query phase
    /// table.
    pub fn scope_phase(&self, scope: QueryScope, tag: PhaseTag) -> PhaseTotals {
        self.per_scope_phase.get((scope, tag)).copied().unwrap_or_default()
    }

    /// A scope's per-phase breakdown, in phase order.  The breakdown partitions the
    /// scope's radio totals exactly; node-local energy (sensing, CPU) is booked to the
    /// scope without a phase, so summed phase energy only bounds the scope's energy
    /// from below.
    pub fn scope_phases(
        &self,
        scope: QueryScope,
    ) -> impl Iterator<Item = (PhaseTag, PhaseTotals)> + '_ {
        // The cells of one scope are contiguous; where they start and end is found by
        // scope alone, so no assumption about which phases sort first or last.
        let keys = &self.per_scope_phase.keys;
        let cells = keys.partition_point(|k| k.0 < scope)..keys.partition_point(|k| k.0 <= scope);
        cells.map(|at| (keys[at].1, self.per_scope_phase.rows[at]))
    }

    /// Applies one booking to every aggregate ledger an event belongs to: per-phase,
    /// per-epoch, grand total, and — when an attribution scope is installed — that
    /// scope's totals and its scope×phase cell.  Runs once per simulated transmission,
    /// so it must not allocate.
    fn book(&mut self, epoch: Epoch, phase: PhaseTag, mut apply: impl FnMut(&mut PhaseTotals)) {
        apply(self.per_phase.entry(phase));
        apply(self.per_epoch.entry(epoch));
        apply(&mut self.totals);
        if let Some(scope) = self.current_scope {
            apply(&mut self.per_scope.entry(scope).totals);
            apply(self.per_scope_phase.entry((scope, phase)));
        }
    }

    /// Records one single-hop transmission.
    ///
    /// `tx_energy` / `rx_energy` are the radio energies already computed by the caller
    /// (the [`crate::sim::Network`] façade); the sink's energy is tracked but never
    /// counted towards network totals because the base station is mains-powered.
    #[allow(clippy::too_many_arguments)]
    pub fn record_transmission(
        &mut self,
        from: NodeId,
        to: NodeId,
        epoch: Epoch,
        phase: PhaseTag,
        bytes: u32,
        tuples: u32,
        tx_energy: f64,
        rx_energy: f64,
    ) {
        self.counters_mut(from).add_tx(bytes, tuples, tx_energy);
        self.counters_mut(to).add_rx(bytes, rx_energy);

        let sensor_energy = {
            let mut e = 0.0;
            if from != crate::types::SINK {
                e += tx_energy;
            }
            if to != crate::types::SINK {
                e += rx_energy;
            }
            e
        };
        self.book(epoch, phase, |totals| {
            totals.messages += 1;
            totals.bytes += u64::from(bytes);
            totals.tuples += u64::from(tuples);
            totals.energy_uj += sensor_energy;
        });
    }

    /// Records one local broadcast transmission heard by several children at once —
    /// how dissemination traffic actually behaves on a shared radio medium: the sender
    /// pays one transmission, every listed receiver pays a reception.
    #[allow(clippy::too_many_arguments)]
    pub fn record_broadcast(
        &mut self,
        from: NodeId,
        receivers: &[NodeId],
        epoch: Epoch,
        phase: PhaseTag,
        bytes: u32,
        tuples: u32,
        tx_energy: f64,
        rx_energy_each: f64,
    ) {
        self.counters_mut(from).add_tx(bytes, tuples, tx_energy);
        let mut sensor_energy = if from != crate::types::SINK { tx_energy } else { 0.0 };
        for &r in receivers {
            self.counters_mut(r).add_rx(bytes, rx_energy_each);
            if r != crate::types::SINK {
                sensor_energy += rx_energy_each;
            }
        }
        self.book(epoch, phase, |totals| {
            totals.messages += 1;
            totals.bytes += u64::from(bytes);
            totals.tuples += u64::from(tuples);
            totals.energy_uj += sensor_energy;
        });
    }

    /// Records one transmission whose receiver never listened (dead or asleep): the
    /// sender pays and the attempt counts as a message on the air, but no reception is
    /// booked anywhere.
    pub fn record_unheard_transmission(
        &mut self,
        from: NodeId,
        epoch: Epoch,
        phase: PhaseTag,
        bytes: u32,
        tuples: u32,
        tx_energy: f64,
    ) {
        self.counters_mut(from).add_tx(bytes, tuples, tx_energy);
        let sensor_energy = if from != crate::types::SINK { tx_energy } else { 0.0 };
        self.book(epoch, phase, |totals| {
            totals.messages += 1;
            totals.bytes += u64::from(bytes);
            totals.tuples += u64::from(tuples);
            totals.energy_uj += sensor_energy;
        });
    }

    /// Records one on-air attempt of a **merged frame** (see [`crate::schedule`]): a
    /// frame carrying several sessions' payload slices as one transmission.
    ///
    /// Booking policy (ADR-004): the per-node, per-epoch and grand-total ledgers see
    /// one message of `frame_bytes` bytes — a merged frame really is one transmission
    /// on the air.  On the per-phase axis the frame's *message* is booked under
    /// `label_phase` (the phase of the intent that opened the frame) while bytes,
    /// tuples and energy are partitioned per slice under each slice's own phase, so
    /// the per-phase axis still sums to the totals exactly.  Each slice's scope is
    /// booked the slice's attributed share (payload + pro-rata overhead) plus one
    /// message — under batching a scope's message count therefore means "frames my
    /// payload rode on" and scoped message sums may exceed the global count, while
    /// scoped *bytes* always partition the ledger.
    #[allow(clippy::too_many_arguments)]
    pub fn record_frame_transmission(
        &mut self,
        from: NodeId,
        to: NodeId,
        epoch: Epoch,
        label_phase: PhaseTag,
        frame_bytes: u32,
        slices: &[FrameSlice],
        tx_energy: f64,
        rx_energy: f64,
    ) {
        let total_tuples: u32 = slices.iter().map(|s| s.tuples).sum();
        self.counters_mut(from).add_tx(frame_bytes, total_tuples, tx_energy);
        self.counters_mut(to).add_rx(frame_bytes, rx_energy);
        let sensor_energy = {
            let mut e = 0.0;
            if from != crate::types::SINK {
                e += tx_energy;
            }
            if to != crate::types::SINK {
                e += rx_energy;
            }
            e
        };
        for totals in [&mut self.totals, self.per_epoch.entry(epoch)] {
            totals.messages += 1;
            totals.bytes += u64::from(frame_bytes);
            totals.tuples += u64::from(total_tuples);
            totals.energy_uj += sensor_energy;
        }
        self.per_phase.entry(label_phase).messages += 1;
        // Frame after frame carries the same sessions in the same slice positions, so
        // each position remembers where its scope's rows were.
        if self.frame_hints.len() < slices.len() {
            self.frame_hints.resize(slices.len(), [0; 2]);
        }
        for (slice, hint) in slices.iter().zip(&mut self.frame_hints) {
            let share = if frame_bytes > 0 {
                f64::from(slice.share_bytes) / f64::from(frame_bytes)
            } else {
                0.0
            };
            let slice_energy = sensor_energy * share;
            let phase = self.per_phase.entry(slice.phase);
            phase.bytes += u64::from(slice.share_bytes);
            phase.tuples += u64::from(slice.tuples);
            phase.energy_uj += slice_energy;
            if let Some(scope) = slice.scope {
                for ledger in [
                    &mut self.per_scope.entry_near(scope, &mut hint[0]).totals,
                    self.per_scope_phase.entry_near((scope, slice.phase), &mut hint[1]),
                ] {
                    ledger.messages += 1;
                    ledger.bytes += u64::from(slice.share_bytes);
                    ledger.tuples += u64::from(slice.tuples);
                    ledger.energy_uj += slice_energy;
                }
            }
        }
    }

    /// Visits the ledgers — scope totals and scope×phase cell — of every distinct
    /// scope riding a frame, under the phase of that scope's first slice (frame-level
    /// events are booked once per riding scope).
    fn for_distinct_frame_scopes(
        &mut self,
        slices: &[FrameSlice],
        mut visit: impl FnMut(&mut PhaseTotals),
    ) {
        for (at, slice) in slices.iter().enumerate() {
            let Some(scope) = slice.scope else { continue };
            if slices[..at].iter().all(|earlier| earlier.scope != slice.scope) {
                visit(&mut self.per_scope.entry(scope).totals);
                visit(self.per_scope_phase.entry((scope, slice.phase)));
            }
        }
    }

    /// Books one ARQ retransmission of a merged frame: once globally under the frame's
    /// label phase, and once per riding scope (every scope's payload was on the retry).
    pub fn note_frame_retransmission(
        &mut self,
        epoch: Epoch,
        label_phase: PhaseTag,
        slices: &[FrameSlice],
    ) {
        self.per_phase.entry(label_phase).retransmissions += 1;
        self.per_epoch.entry(epoch).retransmissions += 1;
        self.totals.retransmissions += 1;
        self.for_distinct_frame_scopes(slices, |ledger| ledger.retransmissions += 1);
    }

    /// Books one merged frame that was never delivered — a dropped frame drops every
    /// riding scope's payload, so each scope records the loss.
    pub fn note_frame_drop(
        &mut self,
        from: NodeId,
        epoch: Epoch,
        label_phase: PhaseTag,
        slices: &[FrameSlice],
    ) {
        self.counters_mut(from).dropped_messages += 1;
        self.per_phase.entry(label_phase).dropped_messages += 1;
        self.per_epoch.entry(epoch).dropped_messages += 1;
        self.totals.dropped_messages += 1;
        self.for_distinct_frame_scopes(slices, |ledger| ledger.dropped_messages += 1);
    }

    /// Books one ARQ retransmission attempt (the attempt itself is recorded separately
    /// through [`Self::record_transmission`]).
    pub fn note_retransmission(&mut self, epoch: Epoch, phase: PhaseTag) {
        self.book(epoch, phase, |totals| totals.retransmissions += 1);
    }

    /// Books one payload that was never delivered, attributed to its sender.
    pub fn note_drop(&mut self, from: NodeId, epoch: Epoch, phase: PhaseTag) {
        self.counters_mut(from).dropped_messages += 1;
        self.book(epoch, phase, |totals| totals.dropped_messages += 1);
    }

    /// Records node-local (non-radio) energy consumption: sensing, CPU, idle listening.
    pub fn record_local_energy(&mut self, node: NodeId, epoch: Epoch, uj: f64) {
        if node != crate::types::SINK {
            self.per_node[(node - 1) as usize].energy_uj += uj;
            self.totals.energy_uj += uj;
            self.per_epoch.entry(epoch).energy_uj += uj;
            if let Some(scope) = self.current_scope {
                self.per_scope.entry(scope).totals.energy_uj += uj;
            }
        }
    }

    /// Records `pages` flash pages (`bytes` of payload) written on `node`'s local
    /// storage.  The flash energy is booked to the same ledgers as
    /// [`Self::record_local_energy`] — per-node, per-epoch, grand total and the
    /// installed scope — so storage work participates in the energy conservation law;
    /// the page and byte counts additionally land in the storage ledgers.  The sink is
    /// mains-powered and keeps no modeled flash, so it is never charged.
    pub fn record_page_writes(
        &mut self,
        node: NodeId,
        epoch: Epoch,
        pages: u64,
        bytes: u64,
        uj: f64,
    ) {
        if node == crate::types::SINK {
            return;
        }
        self.record_local_energy(node, epoch, uj);
        self.storage_per_node[(node - 1) as usize].add_write(pages, bytes, uj);
        self.storage_totals.add_write(pages, bytes, uj);
        if let Some(scope) = self.current_scope {
            self.scope_storage_mut(scope).add_write(pages, bytes, uj);
        }
    }

    /// Records `pages` flash pages read back from `node`'s local storage (snapshot
    /// restore).  Booked like [`Self::record_page_writes`].
    pub fn record_page_reads(&mut self, node: NodeId, epoch: Epoch, pages: u64, uj: f64) {
        if node == crate::types::SINK {
            return;
        }
        self.record_local_energy(node, epoch, uj);
        self.storage_per_node[(node - 1) as usize].add_read(pages, uj);
        self.storage_totals.add_read(pages, uj);
        if let Some(scope) = self.current_scope {
            self.scope_storage_mut(scope).add_read(pages, uj);
        }
    }

    fn scope_storage_mut(&mut self, scope: QueryScope) -> &mut StorageTotals {
        self.per_scope.entry(scope).storage.get_or_insert_with(StorageTotals::default)
    }

    /// Storage counters of a specific sensor node.
    pub fn node_storage(&self, id: NodeId) -> StorageTotals {
        self.storage_per_node[(id - 1) as usize]
    }

    /// Storage counters attributed to a scope (zero if it never touched flash).
    pub fn storage_scope(&self, scope: QueryScope) -> StorageTotals {
        self.per_scope.get(scope).and_then(|row| row.storage).unwrap_or_default()
    }

    /// All scopes that actually touched flash, with their storage totals, in order.
    pub fn storage_scopes(&self) -> impl Iterator<Item = (QueryScope, StorageTotals)> + '_ {
        self.per_scope.iter().filter_map(|(scope, row)| Some((scope, row.storage?)))
    }

    /// Storage counters over the whole run.
    pub fn storage_totals(&self) -> StorageTotals {
        self.storage_totals
    }

    /// Counters of a specific sensor node.
    pub fn node(&self, id: NodeId) -> &NodeCounters {
        &self.per_node[(id - 1) as usize]
    }

    /// Counters of the sink.
    pub fn sink(&self) -> &NodeCounters {
        &self.sink
    }

    /// Totals for a specific phase (zero if the phase never occurred).
    pub fn phase(&self, tag: PhaseTag) -> PhaseTotals {
        self.per_phase.get(tag).copied().unwrap_or_default()
    }

    /// Totals for a specific epoch (zero if nothing was sent in that epoch).
    pub fn epoch(&self, epoch: Epoch) -> PhaseTotals {
        self.per_epoch.get(epoch).copied().unwrap_or_default()
    }

    /// Totals over the whole run.
    pub fn totals(&self) -> PhaseTotals {
        self.totals
    }

    /// All phases that actually saw traffic, with their totals, in enum order.
    pub fn phases(&self) -> impl Iterator<Item = (PhaseTag, PhaseTotals)> + '_ {
        self.per_phase.iter().map(|(tag, totals)| (tag, *totals))
    }

    /// All epochs that actually saw traffic, with their totals, in epoch order.
    pub fn epochs(&self) -> impl Iterator<Item = (Epoch, PhaseTotals)> + '_ {
        self.per_epoch.iter().map(|(epoch, totals)| (epoch, *totals))
    }

    /// The highest per-node energy draw, i.e. the bottleneck node's consumption (µJ).
    pub fn max_node_energy_uj(&self) -> f64 {
        self.per_node.iter().map(|c| c.energy_uj).fold(0.0, f64::max)
    }

    /// Savings of `self` relative to `baseline` (positive = `self` used less).
    pub fn savings_vs(&self, baseline: &NetworkMetrics) -> Savings {
        Savings::between(baseline.totals(), self.totals())
    }
}

/// Relative savings of one execution strategy against a baseline, as reported by the
/// System Panel ("KSpot saved X % of the messages and Y % of the energy").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Savings {
    /// Messages used by the baseline.
    pub baseline_messages: u64,
    /// Messages used by the evaluated strategy.
    pub ours_messages: u64,
    /// Bytes used by the baseline.
    pub baseline_bytes: u64,
    /// Bytes used by the evaluated strategy.
    pub ours_bytes: u64,
    /// Energy used by the baseline (µJ).
    pub baseline_energy_uj: f64,
    /// Energy used by the evaluated strategy (µJ).
    pub ours_energy_uj: f64,
}

impl Savings {
    /// Computes savings of `ours` relative to `baseline`.
    pub fn between(baseline: PhaseTotals, ours: PhaseTotals) -> Self {
        Self {
            baseline_messages: baseline.messages,
            ours_messages: ours.messages,
            baseline_bytes: baseline.bytes,
            ours_bytes: ours.bytes,
            baseline_energy_uj: baseline.energy_uj,
            ours_energy_uj: ours.energy_uj,
        }
    }

    fn pct(baseline: f64, ours: f64) -> f64 {
        if baseline <= 0.0 {
            0.0
        } else {
            (1.0 - ours / baseline) * 100.0
        }
    }

    /// Percentage of messages saved (negative if we used more than the baseline).
    pub fn message_savings_pct(&self) -> f64 {
        Self::pct(self.baseline_messages as f64, self.ours_messages as f64)
    }

    /// Percentage of bytes saved.
    pub fn byte_savings_pct(&self) -> f64 {
        Self::pct(self.baseline_bytes as f64, self.ours_bytes as f64)
    }

    /// Percentage of energy saved.
    pub fn energy_savings_pct(&self) -> f64 {
        Self::pct(self.baseline_energy_uj, self.ours_energy_uj)
    }
}

impl fmt::Display for Savings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "messages {} -> {} ({:+.1}%), bytes {} -> {} ({:+.1}%), energy {:.0} -> {:.0} µJ ({:+.1}%)",
            self.baseline_messages,
            self.ours_messages,
            self.message_savings_pct(),
            self.baseline_bytes,
            self.ours_bytes,
            self.byte_savings_pct(),
            self.baseline_energy_uj,
            self.ours_energy_uj,
            self.energy_savings_pct(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::SINK;

    #[test]
    fn transmissions_update_node_phase_epoch_and_totals() {
        let mut m = NetworkMetrics::new(3);
        m.record_transmission(2, 1, 0, PhaseTag::Update, 19, 1, 380.0, 285.0);
        m.record_transmission(1, SINK, 0, PhaseTag::Update, 31, 2, 620.0, 465.0);
        m.record_transmission(SINK, 1, 1, PhaseTag::Control, 13, 0, 260.0, 195.0);

        assert_eq!(m.node(2).tx_messages, 1);
        assert_eq!(m.node(2).tx_bytes, 19);
        assert_eq!(m.node(1).rx_messages, 2);
        assert_eq!(m.node(1).tx_messages, 1);
        assert_eq!(m.sink().rx_messages, 1);
        assert_eq!(m.sink().tx_messages, 1);

        let up = m.phase(PhaseTag::Update);
        assert_eq!(up.messages, 2);
        assert_eq!(up.bytes, 50);
        assert_eq!(up.tuples, 3);
        // Sink RX energy is excluded from network totals.
        assert!((up.energy_uj - (380.0 + 285.0 + 620.0)).abs() < 1e-9);

        let e1 = m.epoch(1);
        assert_eq!(e1.messages, 1);
        // Sink TX energy excluded; node-1 RX energy counted.
        assert!((e1.energy_uj - 195.0).abs() < 1e-9);

        assert_eq!(m.totals().messages, 3);
        assert_eq!(m.epoch(99).messages, 0, "unknown epochs report zero");
        assert_eq!(m.phase(PhaseTag::Probe).messages, 0);
    }

    #[test]
    fn broadcast_counts_one_message_and_many_receptions() {
        let mut m = NetworkMetrics::new(4);
        m.record_broadcast(1, &[2, 3, 4], 0, PhaseTag::Dissemination, 13, 0, 260.0, 195.0);
        assert_eq!(m.node(1).tx_messages, 1);
        assert_eq!(m.node(2).rx_messages, 1);
        assert_eq!(m.node(4).rx_messages, 1);
        let t = m.totals();
        assert_eq!(t.messages, 1, "a broadcast is one message on the air");
        assert_eq!(t.bytes, 13);
        assert!((t.energy_uj - (260.0 + 3.0 * 195.0)).abs() < 1e-9);

        // Broadcast from the sink: its TX energy is not counted in network totals.
        let mut m2 = NetworkMetrics::new(2);
        m2.record_broadcast(SINK, &[1, 2], 0, PhaseTag::Dissemination, 13, 0, 260.0, 195.0);
        assert!((m2.totals().energy_uj - 2.0 * 195.0).abs() < 1e-9);
    }

    #[test]
    fn local_energy_is_attributed_to_nodes_not_sink() {
        let mut m = NetworkMetrics::new(2);
        m.record_local_energy(1, 0, 140.0);
        m.record_local_energy(SINK, 0, 999.0);
        assert!((m.node(1).energy_uj - 140.0).abs() < 1e-12);
        assert!((m.totals().energy_uj - 140.0).abs() < 1e-12);
    }

    #[test]
    fn savings_percentages_and_factor() {
        let baseline =
            PhaseTotals { messages: 100, bytes: 1000, tuples: 500, energy_uj: 2000.0, ..PhaseTotals::default() };
        let ours =
            PhaseTotals { messages: 40, bytes: 250, tuples: 100, energy_uj: 500.0, ..PhaseTotals::default() };
        let s = Savings::between(baseline, ours);
        assert!((s.message_savings_pct() - 60.0).abs() < 1e-9);
        assert!((s.byte_savings_pct() - 75.0).abs() < 1e-9);
        assert!((s.energy_savings_pct() - 75.0).abs() < 1e-9);
        let disp = s.to_string();
        assert!(disp.contains("messages 100 -> 40"));
    }

    #[test]
    fn savings_handle_zero_baseline_and_zero_ours() {
        let zero = PhaseTotals::default();
        let some = PhaseTotals { messages: 5, bytes: 50, tuples: 5, energy_uj: 10.0, ..PhaseTotals::default() };
        let s = Savings::between(zero, some);
        assert_eq!(s.message_savings_pct(), 0.0);
        let s2 = Savings::between(some, zero);
        assert!((s2.byte_savings_pct() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn max_node_energy_finds_bottleneck() {
        let mut m = NetworkMetrics::new(3);
        m.record_local_energy(1, 0, 10.0);
        m.record_local_energy(2, 0, 30.0);
        m.record_local_energy(3, 0, 20.0);
        assert!((m.max_node_energy_uj() - 30.0).abs() < 1e-12);
    }

    #[test]
    fn retransmissions_and_drops_are_booked() {
        let mut m = NetworkMetrics::new(2);
        m.record_transmission(1, 2, 0, PhaseTag::Update, 10, 1, 100.0, 50.0);
        m.note_retransmission(0, PhaseTag::Update);
        m.record_transmission(1, 2, 0, PhaseTag::Update, 10, 1, 100.0, 50.0);
        m.note_drop(1, 0, PhaseTag::Update);
        assert_eq!(m.totals().retransmissions, 1);
        assert_eq!(m.totals().dropped_messages, 1);
        assert_eq!(m.node(1).dropped_messages, 1);
        assert_eq!(m.phase(PhaseTag::Update).retransmissions, 1);
        assert_eq!(m.epoch(0).dropped_messages, 1);
        assert_eq!(m.totals().messages, 2, "both attempts stay counted as messages");
    }

    #[test]
    fn unheard_transmissions_charge_only_the_sender() {
        let mut m = NetworkMetrics::new(2);
        m.record_unheard_transmission(1, 0, PhaseTag::Update, 10, 1, 100.0);
        assert_eq!(m.totals().messages, 1);
        assert_eq!(m.node(1).tx_messages, 1);
        assert_eq!(m.node(2).rx_messages, 0, "nobody heard it");
        assert!((m.totals().energy_uj - 100.0).abs() < 1e-12);
    }

    #[test]
    fn scoped_traffic_is_attributed_without_disturbing_the_global_ledgers() {
        let mut m = NetworkMetrics::new(3);
        assert_eq!(m.current_scope(), None);
        m.record_transmission(1, 2, 0, PhaseTag::Update, 10, 1, 100.0, 50.0);

        m.set_scope(Some(7));
        assert_eq!(m.current_scope(), Some(7));
        m.record_transmission(2, 1, 0, PhaseTag::Update, 20, 2, 200.0, 100.0);
        m.note_retransmission(0, PhaseTag::Update);
        m.note_drop(2, 0, PhaseTag::Update);
        m.record_local_energy(2, 0, 40.0);

        m.set_scope(Some(9));
        m.record_transmission(3, 1, 1, PhaseTag::Probe, 5, 0, 50.0, 25.0);
        m.set_scope(None);
        m.record_local_energy(1, 1, 11.0);

        let s7 = m.scope(7);
        assert_eq!(s7.messages, 1);
        assert_eq!(s7.bytes, 20);
        assert_eq!(s7.tuples, 2);
        assert_eq!(s7.retransmissions, 1);
        assert_eq!(s7.dropped_messages, 1);
        assert!((s7.energy_uj - (200.0 + 100.0 + 40.0)).abs() < 1e-9);

        let s9 = m.scope(9);
        assert_eq!(s9.messages, 1);
        assert_eq!(s9.bytes, 5);

        // Unscoped traffic and the global ledgers are untouched by attribution.
        assert_eq!(m.scope(42).messages, 0, "unknown scopes report zero");
        assert_eq!(m.totals().messages, 3);
        assert_eq!(m.totals().bytes, 35);
        assert_eq!(m.scopes().count(), 2);
        let scoped_msgs: u64 = m.scopes().map(|(_, t)| t.messages).sum();
        assert!(scoped_msgs <= m.totals().messages);
    }

    #[test]
    fn scope_phase_breakdown_partitions_the_scope_ledger() {
        let mut m = NetworkMetrics::new(3);
        m.set_scope(Some(4));
        m.record_transmission(1, 2, 0, PhaseTag::Update, 10, 1, 100.0, 50.0);
        m.record_transmission(2, 1, 1, PhaseTag::Probe, 5, 0, 50.0, 25.0);
        m.note_retransmission(1, PhaseTag::Probe);
        m.set_scope(None);

        assert_eq!(m.scope_phase(4, PhaseTag::Update).bytes, 10);
        assert_eq!(m.scope_phase(4, PhaseTag::Probe).bytes, 5);
        assert_eq!(m.scope_phase(4, PhaseTag::Probe).retransmissions, 1);
        assert_eq!(m.scope_phase(4, PhaseTag::Control).messages, 0, "untouched cells are zero");
        let phases: Vec<_> = m.scope_phases(4).collect();
        assert_eq!(phases.len(), 2);
        let summed: u64 = phases.iter().map(|(_, t)| t.bytes).sum();
        assert_eq!(summed, m.scope(4).bytes, "scope phases partition the scope's bytes");
        assert_eq!(m.scope_phases(9).count(), 0);
    }

    #[test]
    fn frame_bookings_conserve_bytes_and_attribute_riders() {
        use crate::schedule::FrameSlice;
        let slices = [
            FrameSlice { scope: Some(0), phase: PhaseTag::Update, share_bytes: 20, tuples: 1 },
            FrameSlice { scope: Some(1), phase: PhaseTag::Creation, share_bytes: 14, tuples: 2 },
        ];
        let mut m = NetworkMetrics::new(3);
        m.record_frame_transmission(2, 1, 0, PhaseTag::Update, 34, &slices, 340.0, 170.0);
        m.note_frame_retransmission(0, PhaseTag::Update, &slices);
        m.record_frame_transmission(2, 1, 0, PhaseTag::Update, 34, &slices, 340.0, 170.0);
        m.note_frame_drop(2, 0, PhaseTag::Update, &slices);

        // Global ledgers: one message per attempt, whole-frame bytes.
        assert_eq!(m.totals().messages, 2);
        assert_eq!(m.totals().bytes, 68);
        assert_eq!(m.totals().tuples, 6);
        assert_eq!(m.totals().retransmissions, 1);
        assert_eq!(m.totals().dropped_messages, 1);
        assert_eq!(m.node(2).tx_messages, 2);
        assert_eq!(m.node(2).dropped_messages, 1);
        assert_eq!(m.node(1).rx_bytes, 68);

        // The per-phase axis still partitions: messages under the label phase, bytes
        // per slice phase.
        assert_eq!(m.phase(PhaseTag::Update).messages, 2);
        assert_eq!(m.phase(PhaseTag::Update).bytes, 40);
        assert_eq!(m.phase(PhaseTag::Creation).bytes, 28);
        assert_eq!(m.phase(PhaseTag::Creation).messages, 0);
        let phase_bytes: u64 = m.phases().map(|(_, t)| t.bytes).sum();
        assert_eq!(phase_bytes, m.totals().bytes);

        // Scope attribution: shares partition the bytes, every rider sees the events.
        assert_eq!(m.scope(0).bytes + m.scope(1).bytes, m.totals().bytes);
        assert_eq!(m.scope(0).messages, 2, "rider semantics: frames the payload rode on");
        assert_eq!(m.scope(1).messages, 2);
        assert_eq!(m.scope(0).retransmissions, 1);
        assert_eq!(m.scope(1).dropped_messages, 1);
        assert_eq!(m.scope_phase(1, PhaseTag::Creation).bytes, 28);
        let scoped_energy: f64 = m.scopes().map(|(_, t)| t.energy_uj).sum();
        assert!((scoped_energy - m.totals().energy_uj).abs() < 1e-9, "energy splits pro-rata");
    }

    #[test]
    fn page_io_lands_in_storage_and_energy_ledgers() {
        let mut m = NetworkMetrics::new(3);
        m.record_page_writes(1, 4, 2, 480, 152.4);
        m.set_scope(Some(7));
        m.record_page_reads(1, 9, 2, 48.0);
        m.set_scope(None);
        m.record_page_writes(SINK, 4, 99, 9999, 9999.0);

        let s1 = m.node_storage(1);
        assert_eq!(s1.pages_written, 2);
        assert_eq!(s1.pages_read, 2);
        assert_eq!(s1.bytes_written, 480);
        assert!((s1.energy_uj - 200.4).abs() < 1e-9);

        let t = m.storage_totals();
        assert_eq!(t.pages_written, 2, "sink flash is not modeled");
        assert_eq!(t.pages_read, 2);
        assert_eq!(t.bytes_written, 480);

        // Scoped reads are attributed; unscoped writes are not.
        assert_eq!(m.storage_scope(7).pages_read, 2);
        assert_eq!(m.storage_scope(7).pages_written, 0);
        assert_eq!(m.storage_scopes().count(), 1);

        // Flash energy participates in the ordinary energy conservation law.
        assert!((m.node(1).energy_uj - 200.4).abs() < 1e-9);
        assert!((m.totals().energy_uj - 200.4).abs() < 1e-9);
        assert!((m.epoch(4).energy_uj - 152.4).abs() < 1e-9);
        assert!((m.epoch(9).energy_uj - 48.0).abs() < 1e-9);
        assert!((m.scope(7).energy_uj - 48.0).abs() < 1e-9);
    }

    #[test]
    fn a_huge_scope_or_epoch_costs_one_row_not_an_id_sized_table() {
        let mut m = NetworkMetrics::new(2);
        m.set_scope(Some(QueryScope::MAX));
        m.record_transmission(1, 2, Epoch::MAX, PhaseTag::CleanUp, 10, 1, 1.0, 1.0);
        m.set_scope(Some(0));
        m.record_local_energy(1, 0, 0.0);
        m.set_scope(None);
        assert_eq!(m.per_scope.rows.len(), 2);
        assert_eq!(m.per_epoch.rows.len(), 2);
        // Rows list in key order whatever order they were created in, and a zero
        // charge creates its row (without a phase: local energy has none).
        assert_eq!(m.scopes().map(|(s, _)| s).collect::<Vec<_>>(), vec![0, QueryScope::MAX]);
        assert_eq!(m.epochs().map(|(e, _)| e).collect::<Vec<_>>(), vec![0, Epoch::MAX]);
        assert_eq!(m.scope_phases(0).count(), 0);
        assert_eq!(m.scope_phases(QueryScope::MAX).map(|(p, _)| p).collect::<Vec<_>>(), vec![PhaseTag::CleanUp]);
        assert_eq!(m.storage_scopes().count(), 0, "no scope touched flash");
    }

    #[test]
    fn phase_display_names_are_stable() {
        assert_eq!(PhaseTag::LowerBound.to_string(), "lower-bound");
        assert_eq!(PhaseTag::Update.to_string(), "update");
        assert_eq!(PhaseTag::CleanUp.to_string(), "clean-up");
    }
}
