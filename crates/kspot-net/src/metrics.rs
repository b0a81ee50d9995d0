//! Message, byte and energy accounting — the numbers behind KSpot's System Panel.
//!
//! Every transmission performed through [`crate::sim::Network`] is recorded here, broken
//! down per node, per epoch and per algorithm *phase* so that experiments can answer the
//! questions the paper's System Panel answers live at the demo booth: how many messages
//! and how much energy did the in-network Top-K execution save compared to shipping
//! everything to the base station?
//!
//! Every payload on the air is booked once: a unicast path or a flood through one
//! [`PathBooking`], the epoch's merged frames through one
//! [`NetworkMetrics::book_frames`].  The phase axis is a row per [`PhaseTag`]; the other
//! axes are sorted rows behind a last-hit cursor.  A path of two or more attempts keeps
//! its rows' running energy sums in the booking; a flush finds each riding scope's rows
//! once and keeps their totals beside the frames until it closes.  What must survive any
//! change of representation — the order each accumulator receives its operands in, and
//! when a row starts to exist — is written down in ADR-004, "Host representation".
//!
//! What the ledger keeps is bounded however long a run lasts (ADR-014, "Retention"):
//! the newest [`RETENTION_WINDOW`] per-epoch rows, with every older row rolled up into
//! one remainder, and the rows of the scopes still in use, with a retired scope's rows
//! folded into one retired bucket.  Every total still balances.

use crate::radio::RadioModel;
use crate::schedule::{phase_bit, Fate, Frame, FrameScheduler, Rider};
use crate::types::{Epoch, NodeId, SINK};
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

/// Every phase, in enum order: the per-phase axis's row order.
const PHASES: [PhaseTag; 8] = [
    PhaseTag::Dissemination,
    PhaseTag::Creation,
    PhaseTag::Update,
    PhaseTag::Control,
    PhaseTag::Probe,
    PhaseTag::LowerBound,
    PhaseTag::HierarchicalJoin,
    PhaseTag::CleanUp,
];

/// The phases whose bits are set in `mask`, in enum order.
fn phases_in(mask: u8) -> impl Iterator<Item = PhaseTag> {
    PHASES.into_iter().filter(move |&phase| mask & phase_bit(phase) != 0)
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
    /// Payloads this node failed to deliver even after its ARQ retries.
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
    /// Payloads that were never delivered: lost after exhausting their ARQ retries.
    pub dropped_messages: u64,
    /// Energy drawn network-wide (sensor nodes only, the sink is mains-powered), µJ.
    pub energy_uj: f64,
}

impl PhaseTotals {
    /// Adds `other`'s counters to these.
    fn absorb(&mut self, other: PhaseTotals) {
        self.messages += other.messages;
        self.bytes += other.bytes;
        self.tuples += other.tuples;
        self.retransmissions += other.retransmissions;
        self.dropped_messages += other.dropped_messages;
        self.energy_uj += other.energy_uj;
    }
}

/// How many of the newest rows the per-epoch axis of a [`NetworkMetrics`] keeps — and,
/// in kspot-core, how many of its newest answers a session keeps once every live handle
/// has consumed them.  One window for everything a long-running engine keeps per epoch
/// (ADR-014, "Retention").
pub const RETENTION_WINDOW: usize = 1024;

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

    fn absorb(&mut self, other: StorageTotals) {
        self.add_write(other.pages_written, other.bytes_written, other.energy_uj);
        self.pages_read += other.pages_read;
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
        let at = self.locate(key);
        &mut self.rows[at]
    }

    /// Where [`Self::entry`] finds the key's row.  The position stays valid until a
    /// row is inserted into this axis.
    fn locate(&mut self, key: K) -> usize {
        let mut at = self.cursor;
        self.entry_near(key, &mut at);
        self.cursor = at;
        at
    }

    /// [`Self::entry`] with the caller's own cursor: `hint` is where the caller last
    /// found the key (any value is safe, it is checked) and is updated.
    #[inline]
    fn entry_near(&mut self, key: K, hint: &mut usize) -> &mut V {
        if self.keys.get(*hint) != Some(&key) {
            *hint = self.search(key);
        }
        &mut self.rows[*hint]
    }

    /// The key's position, found by binary search, its row created if need be.
    #[cold]
    fn search(&mut self, key: K) -> usize {
        match self.keys.binary_search(&key) {
            Ok(at) => at,
            Err(at) => {
                self.keys.insert(at, key);
                self.rows.insert(at, V::default());
                at
            }
        }
    }

    fn get(&self, key: K) -> Option<&V> {
        self.keys.binary_search(&key).ok().map(|at| &self.rows[at])
    }

    fn iter(&self) -> impl Iterator<Item = (K, &V)> + '_ {
        self.keys.iter().copied().zip(&self.rows)
    }

    /// Removes the rows at `at`, in key order.  Cursors stay safe: they are checked.
    fn remove(&mut self, at: std::ops::Range<usize>) -> std::vec::Drain<'_, V> {
        self.keys.drain(at.clone());
        self.rows.drain(at)
    }
}

/// The per-phase axis: one row per [`PhaseTag`], indexed by the tag, and a mask of the
/// rows that exist — a row exists once something was booked to it.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct PhaseRows {
    rows: [PhaseTotals; PHASES.len()],
    booked: u8,
}

impl PhaseRows {
    fn get(&self, phase: PhaseTag) -> Option<&PhaseTotals> {
        (self.booked & phase_bit(phase) != 0).then(|| &self.rows[phase as usize])
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

/// Positions of the aggregate rows one booking lands in: its phase row, its epoch row
/// and, under a scope, the scope row and the scope×phase cell.
#[derive(Debug, Clone, Copy)]
struct BookedRows {
    phase: PhaseTag,
    epoch: usize,
    scope: Option<(usize, usize)>,
}

/// One rider's rows for the length of a flush ([`NetworkMetrics::book_frames`]): where
/// its scope row and its scope×phase cells are, and their totals, which the flush's
/// frames book here and the close writes back.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct RiderRows {
    /// The scope row's position; `None` for unscoped callers, whose totals here are
    /// dropped at the close.
    scope_row: Option<usize>,
    totals: PhaseTotals,
    /// The rider's cells by phase; only those of the phases in `phases` are booked.
    cells: [PhaseTotals; PHASES.len()],
    cell_rows: [usize; PHASES.len()],
    phases: u8,
    /// The flush's number of the last frame whose retransmissions and drop the rider
    /// took: they are booked once per riding scope.
    events_of: u32,
}

/// What one on-air attempt of a payload costs.  A payload costs the same on every hop
/// and every attempt of its path, so it is costed once per path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttemptCost {
    /// On-air bytes of one attempt.
    pub bytes: u32,
    /// Result tuples the payload carries.
    pub tuples: u32,
    /// Sender's radio energy per attempt, µJ.
    pub tx_energy: f64,
    /// Each receiver's radio energy per attempt, µJ.
    pub rx_energy: f64,
}

/// The open booking of one payload, from [`NetworkMetrics::open_path`] to
/// [`Self::close`]: a unicast carried hop by hop along its path, or a flood broadcast
/// by broadcast.  It holds the ledger, so nothing else is booked while it is open.
///
/// Closing gives what booking each event on its own would — every attempt one
/// message heard by its receivers, every retransmission and drop one count — bit for
/// bit.  The aggregate rows are found once per booking.  Node counters and every
/// energy accumulator take each attempt as it happens, in attempt order — from a
/// path's second attempt on, the five rows' energy sums are kept in the booking and
/// written back at the close; the message, byte, tuple, retransmission and drop counts
/// land once, at the close.  A booking of nothing creates no row.
#[must_use = "a path's counts land when it is closed"]
pub struct PathBooking<'a> {
    metrics: &'a mut NetworkMetrics,
    epoch: Epoch,
    phase: PhaseTag,
    cost: AttemptCost,
    /// Found at the path's second attempt: its rows and their energy sums so far
    /// ([`NetworkMetrics::energies`]), held until the close.
    held: Option<(BookedRows, [f64; 5])>,
    /// Once an attempt was booked: the sensor energy of the latest one, not yet added
    /// to the aggregate rows.  It is added with the path's counts at the close, so a
    /// path of one attempt updates its rows in one pass.
    pending_energy: f64,
    attempts: u64,
    retransmissions: u64,
    drops: u64,
}

impl PathBooking<'_> {
    /// Books one on-air attempt sent by `from` and heard by every node of `heard_by`:
    /// one receiver for a unicast hop, a sender's flood children for a broadcast.
    #[inline(always)]
    pub fn record_attempt(&mut self, from: NodeId, heard_by: &[NodeId]) {
        let sensor_energy = self.metrics.attempt(from, heard_by, &self.cost);
        if self.attempts > 0 {
            let earlier = self.pending_energy;
            let (_, sums) = self.held.get_or_insert_with(|| {
                let rows = self.metrics.rows(self.epoch, self.phase);
                (rows, self.metrics.energies(rows))
            });
            for sum in sums {
                *sum += earlier;
            }
        }
        self.pending_energy = sensor_energy;
        self.attempts += 1;
    }

    /// Books one ARQ retransmission (the attempt itself goes through
    /// [`Self::record_attempt`]).
    pub fn note_retransmission(&mut self) {
        self.retransmissions += 1;
    }

    /// Books the payload as never delivered, attributed to the hop's sender.
    pub fn note_drop(&mut self, from: NodeId) {
        self.metrics.counters_mut(from).dropped_messages += 1;
        self.drops += 1;
    }

    /// Lands the path's counts, and the energy of its last attempt, in its rows.
    /// Always inlined, as is the ledger's `apply`: left to the optimiser, neither is
    /// inlined into the hop loop once floods book through them too, and a booking
    /// handed over in memory costs a one-hop report ≈ 10 ns (ADR-004, "One booking per
    /// payload").
    #[inline(always)]
    pub fn close(self) {
        let Self { metrics, epoch, phase, cost, held, pending_energy, attempts, retransmissions, drops } =
            self;
        if attempts == 0 && retransmissions == 0 && drops == 0 {
            return;
        }
        let (rows, energy) = match held {
            Some((rows, mut sums)) => {
                for sum in &mut sums {
                    *sum += pending_energy;
                }
                metrics.set_energies(rows, sums);
                (rows, None)
            }
            None => (metrics.rows(epoch, phase), (attempts > 0).then_some(pending_energy)),
        };
        metrics.apply(rows, |totals| {
            if let Some(energy) = energy {
                totals.energy_uj += energy;
            }
            totals.messages += attempts;
            totals.bytes += attempts * u64::from(cost.bytes);
            totals.tuples += attempts * u64::from(cost.tuples);
        });
        if retransmissions > 0 || drops > 0 {
            metrics.apply(rows, |totals| {
                totals.retransmissions += retransmissions;
                totals.dropped_messages += drops;
            });
        }
    }
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
    per_phase: PhaseRows,
    /// One row per epoch.  Only the newest [`RETENTION_WINDOW`] rows are the window;
    /// older ones are part of the rolled-up remainder until the next compaction folds
    /// them into `epochs_rolled_up` (see [`Self::epoch_row`]).
    per_epoch: SortedRows<Epoch, PhaseTotals>,
    /// What the per-epoch rows compacted out of the window held, summed.
    epochs_rolled_up: PhaseTotals,
    per_scope: SortedRows<QueryScope, ScopeRow>,
    per_scope_phase: SortedRows<(QueryScope, PhaseTag), PhaseTotals>,
    /// What the scopes [`Self::retire_scope`] dropped held, summed.
    retired: ScopeRow,
    /// The riders' rows of the flush being booked (kept for its capacity).
    flush: Vec<RiderRows>,
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
            per_phase: PhaseRows::default(),
            per_epoch: SortedRows::new(),
            epochs_rolled_up: PhaseTotals::default(),
            per_scope: SortedRows::new(),
            per_scope_phase: SortedRows::new(),
            retired: ScopeRow::default(),
            flush: Vec::new(),
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
        if id == SINK {
            &mut self.sink
        } else {
            &mut self.per_node[(id - 1) as usize]
        }
    }

    /// Books one on-air attempt into the node counters: `from` sends it, every node of
    /// `heard_by` receives it.  Returns the energy it cost the sensor nodes, the
    /// amount the aggregate rows take — the sink is mains-powered, so its radio energy
    /// shows on its own counters only.
    #[inline(always)]
    fn attempt(&mut self, from: NodeId, heard_by: &[NodeId], cost: &AttemptCost) -> f64 {
        let AttemptCost { bytes, tuples, tx_energy, rx_energy } = *cost;
        self.counters_mut(from).add_tx(bytes, tuples, tx_energy);
        let mut sensor_energy = 0.0;
        if from != SINK {
            sensor_energy += tx_energy;
        }
        for &to in heard_by {
            self.counters_mut(to).add_rx(bytes, rx_energy);
            if to != SINK {
                sensor_energy += rx_energy;
            }
        }
        sensor_energy
    }

    /// Installs (or clears) the attribution scope.  While a scope is installed, every
    /// recorded transmission, retransmission, drop and local-energy charge is
    /// additionally booked to that scope's [`PhaseTotals`], on top of the usual
    /// per-node / per-phase / per-epoch / grand-total ledgers.
    pub fn set_scope(&mut self, scope: Option<QueryScope>) {
        self.current_scope = scope;
    }

    /// Totals attributed to a scope (zero if the scope never saw traffic).
    pub fn scope(&self, scope: QueryScope) -> PhaseTotals {
        self.per_scope.get(scope).map(|row| row.totals).unwrap_or_default()
    }

    /// All scopes that actually saw traffic, with their totals, in scope order.
    pub fn scopes(&self) -> impl Iterator<Item = (QueryScope, PhaseTotals)> + '_ {
        self.per_scope.iter().map(|(scope, row)| (scope, row.totals))
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

    /// The rows a booking of `(epoch, phase)` under the installed scope lands in —
    /// per-phase, per-epoch and, under a scope, the scope's totals and its scope×phase
    /// cell — created if they do not exist yet.
    #[inline]
    fn rows(&mut self, epoch: Epoch, phase: PhaseTag) -> BookedRows {
        self.per_phase.booked |= phase_bit(phase);
        BookedRows {
            phase,
            epoch: self.epoch_row(epoch),
            scope: self.current_scope.map(|scope| {
                (self.per_scope.locate(scope), self.per_scope_phase.locate((scope, phase)))
            }),
        }
    }

    /// Where a booking for `epoch` lands on the per-epoch axis, its row created if need
    /// be — [`SortedRows::locate`] for the one axis that is a window.  The window is the
    /// newest [`RETENTION_WINDOW`] rows; a row older than that, or created for an epoch
    /// older than that, belongs to the rolled-up remainder already.  Once a quarter
    /// window of such rows has piled up they are folded into `epochs_rolled_up` in key
    /// order and removed, so the axis costs amortised O(1) per epoch and never holds
    /// more than 1¼ windows.
    #[inline]
    fn epoch_row(&mut self, epoch: Epoch) -> usize {
        let rows = &self.per_epoch;
        if rows.keys.get(rows.cursor) == Some(&epoch) {
            return rows.cursor;
        }
        self.epoch_row_cold(epoch)
    }

    #[cold]
    fn epoch_row_cold(&mut self, epoch: Epoch) -> usize {
        let excess = self.per_epoch.keys.len().saturating_sub(RETENTION_WINDOW);
        if excess >= RETENTION_WINDOW / 4 {
            for row in self.per_epoch.remove(0..excess) {
                self.epochs_rolled_up.absorb(row);
            }
        }
        self.per_epoch.locate(epoch)
    }

    /// Applies one booking to the grand total and to rows found by [`Self::rows`] since
    /// the last row insertion.  Every booking runs it, so it must not allocate.
    #[inline(always)]
    fn apply(&mut self, rows: BookedRows, mut apply: impl FnMut(&mut PhaseTotals)) {
        apply(&mut self.per_phase.rows[rows.phase as usize]);
        apply(&mut self.per_epoch.rows[rows.epoch]);
        apply(&mut self.totals);
        if let Some((scope, cell)) = rows.scope {
            apply(&mut self.per_scope.rows[scope].totals);
            apply(&mut self.per_scope_phase.rows[cell]);
        }
    }

    /// The energy sums of the rows found by [`Self::rows`]: phase, epoch, grand total and,
    /// under a scope, scope and scope×phase (zero without one).
    fn energies(&self, rows: BookedRows) -> [f64; 5] {
        let (scope, cell) = match rows.scope {
            Some((scope, cell)) => {
                (self.per_scope.rows[scope].totals.energy_uj, self.per_scope_phase.rows[cell].energy_uj)
            }
            None => (0.0, 0.0),
        };
        [
            self.per_phase.rows[rows.phase as usize].energy_uj,
            self.per_epoch.rows[rows.epoch].energy_uj,
            self.totals.energy_uj,
            scope,
            cell,
        ]
    }

    /// Writes back what [`Self::energies`] read.
    fn set_energies(&mut self, rows: BookedRows, sums: [f64; 5]) {
        self.per_phase.rows[rows.phase as usize].energy_uj = sums[0];
        self.per_epoch.rows[rows.epoch].energy_uj = sums[1];
        self.totals.energy_uj = sums[2];
        if let Some((scope, cell)) = rows.scope {
            self.per_scope.rows[scope].totals.energy_uj = sums[3];
            self.per_scope_phase.rows[cell].energy_uj = sums[4];
        }
    }

    /// Opens the booking of one payload that costs `cost` per on-air attempt — a
    /// unicast path or a flood — under the installed scope.
    pub fn open_path(&mut self, epoch: Epoch, phase: PhaseTag, cost: AttemptCost) -> PathBooking<'_> {
        PathBooking {
            metrics: self,
            epoch,
            phase,
            cost,
            held: None,
            pending_energy: 0.0,
            attempts: 0,
            retransmissions: 0,
            drops: 0,
        }
    }

    /// Records one single-hop transmission heard by `to`: a path booking of one
    /// attempt.
    ///
    /// `tx_energy` / `rx_energy` are the radio energies already computed by the caller;
    /// the sink's energy is tracked but never counted towards network totals because
    /// the base station is mains-powered.
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
        let mut path = self.open_path(epoch, phase, AttemptCost { bytes, tuples, tx_energy, rx_energy });
        path.record_attempt(from, &[to]);
        path.close();
    }

    /// Books and empties every frame pending in `frames` — the epoch's merged report
    /// frames (see [`crate::schedule`]) — in `(sender, receiver)` order.  Each frame is
    /// costed by `radio`, its shares split per the attribution policy, and `charge`
    /// gives, from its sender, receiver, on-air bytes and attempts, the radio energy of
    /// one attempt to its sender and to its receiver (the simulator drains the
    /// batteries there).  A frame is on the air as many times as its fate says (at
    /// least once) and dropped after the last attempt unless delivered.
    ///
    /// Booking policy (ADR-004): the per-node, per-epoch and grand-total ledgers see
    /// one message of the frame's bytes per attempt — a merged frame really is one
    /// transmission on the air.  On the per-phase axis the frame's *message* is booked
    /// under its label phase (the phase of the intent that opened the frame) while
    /// bytes, tuples and energy are partitioned per slice under each slice's own phase,
    /// so the per-phase axis still sums to the totals exactly.  Each slice's scope is
    /// booked the slice's attributed share (payload + pro-rata overhead) plus one
    /// message — under batching a scope's message count therefore means "frames my
    /// payload rode on" and scoped message sums may exceed the global count, while
    /// scoped *bytes* always partition the ledger.  A retransmission or the drop is
    /// booked once under the label phase and once per riding scope, under the phase of
    /// its first slice on the frame: every scope's payload was on the retry, and a
    /// dropped frame drops them all.
    ///
    /// Each attempt is booked in turn, node counters and every accumulator, frames in
    /// drain order and slices in enqueue order; the retransmission and drop counts land
    /// once per frame.  The riders' scope rows and scope×phase cells are created and
    /// found once, when the flush opens — each would be created by its rider's first
    /// slice, and nothing reads the ledger before the flush closes.
    pub fn book_frames(
        &mut self,
        frames: &mut FrameScheduler,
        radio: &RadioModel,
        mut charge: impl FnMut(NodeId, NodeId, u32, u32) -> (f64, f64),
    ) {
        if frames.is_empty() {
            return;
        }
        self.open_flush(frames.riders());
        let mut number = 0;
        frames.drain(|from, to, frame| {
            let frame_bytes = frame.cost(radio);
            let (tx_energy, rx_energy) = charge(from, to, frame_bytes, frame.fate.attempts);
            let cost = AttemptCost { bytes: frame_bytes, tuples: frame.tuples, tx_energy, rx_energy };
            self.book_frame(from, to, frame, cost, number);
            number += 1;
        });
        self.close_flush();
    }

    /// Creates the rows the riders will book — their scope rows, and a scope×phase
    /// cell for every phase a rider carries — marks their phases' rows as existing, and
    /// loads the scope rows and cells into the flush's rider rows.
    fn open_flush(&mut self, riders: &[Rider]) {
        let Self { per_phase, per_scope, per_scope_phase, flush, .. } = self;
        for rider in riders {
            per_phase.booked |= rider.phases;
        }
        // Creating a row moves the rows after it, so the positions are found again
        // until a pass creates nothing: twice at most.
        loop {
            let rows_before = per_scope.keys.len() + per_scope_phase.keys.len();
            flush.clear();
            flush.extend(riders.iter().map(|rider| {
                let mut rows = RiderRows {
                    scope_row: None,
                    totals: PhaseTotals::default(),
                    cells: [PhaseTotals::default(); PHASES.len()],
                    cell_rows: [0; PHASES.len()],
                    phases: rider.phases,
                    events_of: u32::MAX,
                };
                if let Some(scope) = rider.scope {
                    let at = per_scope.locate(scope);
                    rows.scope_row = Some(at);
                    rows.totals = per_scope.rows[at].totals;
                    for phase in phases_in(rider.phases) {
                        let at = per_scope_phase.locate((scope, phase));
                        rows.cell_rows[phase as usize] = at;
                        rows.cells[phase as usize] = per_scope_phase.rows[at];
                    }
                }
                rows
            }));
            if per_scope.keys.len() + per_scope_phase.keys.len() == rows_before {
                break;
            }
        }
    }

    /// Writes the riders' rows back into the scope axes.
    fn close_flush(&mut self) {
        let Self { per_scope, per_scope_phase, flush, .. } = self;
        for rider in flush.iter() {
            let Some(at) = rider.scope_row else { continue };
            per_scope.rows[at].totals = rider.totals;
            for phase in phases_in(rider.phases) {
                per_scope_phase.rows[rider.cell_rows[phase as usize]] = rider.cells[phase as usize];
            }
        }
    }

    /// Books one costed frame of the open flush, the flush's frame number `number`.
    fn book_frame(&mut self, from: NodeId, to: NodeId, frame: &Frame, cost: AttemptCost, number: u32) {
        let Fate { epoch, delivered, attempts } = frame.fate;
        let frame_bytes = cost.bytes;
        let label = frame.slices.first().map_or(PhaseTag::Update, |s| s.phase);
        let epoch_row = self.epoch_row(epoch);
        for _ in 0..attempts {
            let sensor_energy = self.attempt(from, &[to], &cost);
            let Self { per_phase, per_epoch, totals, flush, .. } = self;
            for totals in [totals, &mut per_epoch.rows[epoch_row]] {
                totals.messages += 1;
                totals.bytes += u64::from(frame_bytes);
                totals.tuples += u64::from(cost.tuples);
                totals.energy_uj += sensor_energy;
            }
            per_phase.rows[label as usize].messages += 1;
            for slice in &frame.slices {
                let share = if frame_bytes > 0 { f64::from(slice.bytes) / f64::from(frame_bytes) } else { 0.0 };
                let slice_energy = sensor_energy * share;
                let phase = &mut per_phase.rows[slice.phase as usize];
                phase.bytes += u64::from(slice.bytes);
                phase.tuples += u64::from(slice.tuples);
                phase.energy_uj += slice_energy;
                let rider = &mut flush[slice.rider as usize];
                for ledger in [&mut rider.totals, &mut rider.cells[slice.phase as usize]] {
                    ledger.messages += 1;
                    ledger.bytes += u64::from(slice.bytes);
                    ledger.tuples += u64::from(slice.tuples);
                    ledger.energy_uj += slice_energy;
                }
            }
        }
        let retransmissions = u64::from(attempts.saturating_sub(1));
        let drops = u64::from(!delivered);
        if retransmissions == 0 && drops == 0 {
            return;
        }
        self.counters_mut(from).dropped_messages += drops;
        let Self { per_phase, per_epoch, totals, flush, .. } = self;
        for totals in [&mut per_phase.rows[label as usize], &mut per_epoch.rows[epoch_row], totals] {
            totals.retransmissions += retransmissions;
            totals.dropped_messages += drops;
        }
        for slice in &frame.slices {
            let rider = &mut flush[slice.rider as usize];
            if rider.events_of == number {
                continue;
            }
            rider.events_of = number;
            for ledger in [&mut rider.totals, &mut rider.cells[slice.phase as usize]] {
                ledger.retransmissions += retransmissions;
                ledger.dropped_messages += drops;
            }
        }
    }

    /// Records node-local (non-radio) energy consumption: sensing, CPU, idle listening.
    pub fn record_local_energy(&mut self, node: NodeId, epoch: Epoch, uj: f64) {
        if node != SINK {
            self.per_node[(node - 1) as usize].energy_uj += uj;
            self.totals.energy_uj += uj;
            let epoch_row = self.epoch_row(epoch);
            self.per_epoch.rows[epoch_row].energy_uj += uj;
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
        if node == SINK {
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
        if node == SINK {
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

    /// All scopes that actually touched flash, with their storage totals, in order.
    pub fn storage_scopes(&self) -> impl Iterator<Item = (QueryScope, StorageTotals)> + '_ {
        self.per_scope.iter().filter_map(|(scope, row)| Some((scope, row.storage?)))
    }

    /// Retires a scope that will never book again: its totals, its scope×phase cells
    /// and its storage counters leave the scope axes and are added to the retired
    /// bucket ([`Self::retired_scopes`], [`Self::retired_storage`]), so the scopes that
    /// remain plus the bucket still add up to what all scopes were booked.  Retiring a
    /// scope that booked nothing changes nothing.
    pub fn retire_scope(&mut self, scope: QueryScope) {
        if let Ok(at) = self.per_scope.keys.binary_search(&scope) {
            for row in self.per_scope.remove(at..at + 1) {
                self.retired.totals.absorb(row.totals);
                if let Some(storage) = row.storage {
                    self.retired.storage.get_or_insert_with(StorageTotals::default).absorb(storage);
                }
            }
        }
        let keys = &self.per_scope_phase.keys;
        let cells = keys.partition_point(|k| k.0 < scope)..keys.partition_point(|k| k.0 <= scope);
        self.per_scope_phase.remove(cells);
    }

    /// What the scopes retired so far were booked, summed.
    pub fn retired_scopes(&self) -> PhaseTotals {
        self.retired.totals
    }

    /// The storage counters of the scopes retired so far, summed.
    pub fn retired_storage(&self) -> StorageTotals {
        self.retired.storage.unwrap_or_default()
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

    /// Totals for a specific epoch: zero if nothing was sent in that epoch, or if it
    /// is older than the newest [`RETENTION_WINDOW`] epoch rows and rolled up
    /// ([`Self::epochs_rolled_up`]).
    pub fn epoch(&self, epoch: Epoch) -> PhaseTotals {
        let window = self.per_epoch.keys.len().saturating_sub(RETENTION_WINDOW);
        match self.per_epoch.keys[window..].binary_search(&epoch) {
            Ok(at) => self.per_epoch.rows[window + at],
            Err(_) => PhaseTotals::default(),
        }
    }

    /// Totals over the whole run.
    pub fn totals(&self) -> PhaseTotals {
        self.totals
    }

    /// All phases that actually saw traffic, with their totals, in enum order.
    pub fn phases(&self) -> impl Iterator<Item = (PhaseTag, PhaseTotals)> + '_ {
        phases_in(self.per_phase.booked).map(|tag| (tag, self.per_phase.rows[tag as usize]))
    }

    /// The newest [`RETENTION_WINDOW`] epochs that saw traffic, with their totals, in
    /// epoch order.  With [`Self::epochs_rolled_up`] they add up to [`Self::totals`].
    pub fn epochs(&self) -> impl Iterator<Item = (Epoch, PhaseTotals)> + '_ {
        let window = self.per_epoch.keys.len().saturating_sub(RETENTION_WINDOW);
        self.per_epoch.iter().skip(window).map(|(epoch, totals)| (epoch, *totals))
    }

    /// What every epoch older than the window of [`Self::epochs`] was booked, summed.
    pub fn epochs_rolled_up(&self) -> PhaseTotals {
        let window = self.per_epoch.keys.len().saturating_sub(RETENTION_WINDOW);
        let mut rolled_up = self.epochs_rolled_up;
        for &row in &self.per_epoch.rows[..window] {
            rolled_up.absorb(row);
        }
        rolled_up
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

/// The ledger's rows one at a time, each created on first use as a booking creates it:
/// what the parent's frame booking, kept in `reference.rs` as the oracle of
/// [`NetworkMetrics::book_frames`], books through.
#[cfg(test)]
impl NetworkMetrics {
    pub(crate) fn node_row(&mut self, id: NodeId) -> &mut NodeCounters {
        self.counters_mut(id)
    }

    pub(crate) fn totals_row(&mut self) -> &mut PhaseTotals {
        &mut self.totals
    }

    pub(crate) fn phase_row(&mut self, phase: PhaseTag) -> &mut PhaseTotals {
        self.per_phase.booked |= phase_bit(phase);
        &mut self.per_phase.rows[phase as usize]
    }

    pub(crate) fn epoch_row_of(&mut self, epoch: Epoch) -> &mut PhaseTotals {
        let at = self.epoch_row(epoch);
        &mut self.per_epoch.rows[at]
    }

    pub(crate) fn scope_row(&mut self, scope: QueryScope) -> &mut PhaseTotals {
        &mut self.per_scope.entry(scope).totals
    }

    pub(crate) fn scope_phase_row(&mut self, scope: QueryScope, phase: PhaseTag) -> &mut PhaseTotals {
        self.per_scope_phase.entry((scope, phase))
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

    /// One scope×phase cell as a reader of [`NetworkMetrics::scope_phases`] finds it,
    /// zero if the pair never saw traffic.
    fn scope_phase(m: &NetworkMetrics, scope: QueryScope, tag: PhaseTag) -> PhaseTotals {
        m.scope_phases(scope).find(|&(p, _)| p == tag).map(|(_, t)| t).unwrap_or_default()
    }

    /// A scope's storage counters as a reader of [`NetworkMetrics::storage_scopes`]
    /// finds them, zero if it never touched flash.
    fn storage_scope(m: &NetworkMetrics, scope: QueryScope) -> StorageTotals {
        m.storage_scopes().find(|&(s, _)| s == scope).map(|(_, t)| t).unwrap_or_default()
    }

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

    /// One path booking of `attempt`s, `note_retransmission`s and `note_drop`s at the
    /// given cost.
    fn book_path(
        m: &mut NetworkMetrics,
        epoch: Epoch,
        phase: PhaseTag,
        cost: (u32, u32, f64, f64),
        events: impl FnOnce(&mut PathBooking<'_>),
    ) {
        let (bytes, tuples, tx_energy, rx_energy) = cost;
        let mut path = m.open_path(epoch, phase, AttemptCost { bytes, tuples, tx_energy, rx_energy });
        events(&mut path);
        path.close();
    }

    #[test]
    fn broadcast_counts_one_message_and_many_receptions() {
        let mut m = NetworkMetrics::new(4);
        let cost = (13, 0, 260.0, 195.0);
        book_path(&mut m, 0, PhaseTag::Dissemination, cost, |b| b.record_attempt(1, &[2, 3, 4]));
        assert_eq!(m.node(1).tx_messages, 1);
        assert_eq!(m.node(2).rx_messages, 1);
        assert_eq!(m.node(4).rx_messages, 1);
        let t = m.totals();
        assert_eq!(t.messages, 1, "a broadcast is one message on the air");
        assert_eq!(t.bytes, 13);
        assert!((t.energy_uj - (260.0 + 3.0 * 195.0)).abs() < 1e-9);

        // Broadcast from the sink: its TX energy is not counted in network totals.
        let mut m2 = NetworkMetrics::new(2);
        book_path(&mut m2, 0, PhaseTag::Dissemination, cost, |b| b.record_attempt(SINK, &[1, 2]));
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
        book_path(&mut m, 0, PhaseTag::Update, (10, 1, 100.0, 50.0), |b| {
            b.record_attempt(1, &[2]);
            b.note_retransmission();
            b.record_attempt(1, &[2]);
            b.note_drop(1);
        });
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
        book_path(&mut m, 0, PhaseTag::Update, (10, 1, 100.0, 50.0), |b| b.record_attempt(1, &[]));
        assert_eq!(m.totals().messages, 1);
        assert_eq!(m.node(1).tx_messages, 1);
        assert_eq!(m.node(2).rx_messages, 0, "nobody heard it");
        assert!((m.totals().energy_uj - 100.0).abs() < 1e-12);
    }

    #[test]
    fn scoped_traffic_is_attributed_without_disturbing_the_global_ledgers() {
        let mut m = NetworkMetrics::new(3);
        assert_eq!(m.current_scope, None);
        m.record_transmission(1, 2, 0, PhaseTag::Update, 10, 1, 100.0, 50.0);

        m.set_scope(Some(7));
        assert_eq!(m.current_scope, Some(7));
        book_path(&mut m, 0, PhaseTag::Update, (20, 2, 200.0, 100.0), |b| {
            b.record_attempt(2, &[1]);
            b.note_retransmission();
            b.note_drop(2);
        });
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
        book_path(&mut m, 1, PhaseTag::Probe, (5, 0, 50.0, 25.0), |b| {
            b.record_attempt(2, &[1]);
            b.note_retransmission();
        });
        m.set_scope(None);

        assert_eq!(scope_phase(&m, 4, PhaseTag::Update).bytes, 10);
        assert_eq!(scope_phase(&m, 4, PhaseTag::Probe).bytes, 5);
        assert_eq!(scope_phase(&m, 4, PhaseTag::Probe).retransmissions, 1);
        assert_eq!(scope_phase(&m, 4, PhaseTag::Control).messages, 0, "untouched cells are zero");
        let phases: Vec<_> = m.scope_phases(4).collect();
        assert_eq!(phases.len(), 2);
        let summed: u64 = phases.iter().map(|(_, t)| t.bytes).sum();
        assert_eq!(summed, m.scope(4).bytes, "scope phases partition the scope's bytes");
        assert_eq!(m.scope_phases(9).count(), 0);
    }

    #[test]
    fn frame_bookings_conserve_bytes_and_attribute_riders() {
        // Two attempts, the second a retransmission, then dropped.
        let fate = || Fate { epoch: 0, delivered: false, attempts: 2 };
        let mut frames = FrameScheduler::new(3);
        // The ideal radio has no overhead: the slices' shares are their payloads.
        frames.enqueue(2, 1, Some(0), PhaseTag::Update, 20, 1, fate);
        frames.enqueue(2, 1, Some(1), PhaseTag::Creation, 14, 2, fate);
        let mut m = NetworkMetrics::new(3);
        m.book_frames(&mut frames, &RadioModel::ideal(), |from, to, frame_bytes, attempts| {
            assert_eq!((from, to, frame_bytes, attempts), (2, 1, 34, 2));
            (340.0, 170.0)
        });

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
        assert_eq!(scope_phase(&m, 1, PhaseTag::Creation).bytes, 28);
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
        assert_eq!(storage_scope(&m, 7).pages_read, 2);
        assert_eq!(storage_scope(&m, 7).pages_written, 0);
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
    fn the_epoch_axis_keeps_the_newest_window_and_rolls_up_the_rest() {
        const WINDOW: u64 = RETENTION_WINDOW as u64;
        let mut m = NetworkMetrics::new(2);
        let epochs = 3 * WINDOW + 100;
        for epoch in 0..epochs {
            m.record_transmission(1, 2, epoch, PhaseTag::Update, 10, 1, 1.0, 0.5);
            m.record_local_energy(1, epoch, 0.25);
            assert!(m.per_epoch.rows.len() <= RETENTION_WINDOW + RETENTION_WINDOW / 4);
        }
        // A booking for an epoch older than the window lands in the remainder.
        m.record_local_energy(2, 5, 2.0);
        let mut frames = FrameScheduler::new(2);
        frames.enqueue(1, 2, Some(3), PhaseTag::Update, 20, 0, || Fate { epoch: 7, delivered: false, attempts: 2 });
        m.book_frames(&mut frames, &RadioModel::ideal(), |_, _, _, _| (4.0, 2.0));

        let window: Vec<Epoch> = m.epochs().map(|(epoch, _)| epoch).collect();
        assert_eq!(window, (epochs - WINDOW..epochs).collect::<Vec<_>>(), "the newest window, in order");
        let rolled_up = m.epochs_rolled_up();
        let older = epochs - WINDOW;
        assert_eq!(rolled_up.messages, older + 2, "one message per older epoch, two frame attempts");
        assert_eq!((rolled_up.retransmissions, rolled_up.dropped_messages), (1, 1));
        // Every energy term is a multiple of ¼ µJ, so these sums are exact.
        assert_eq!(rolled_up.energy_uj, older as f64 * 1.75 + 2.0 + 2.0 * 6.0);
        assert_eq!(m.epoch(5), PhaseTotals::default(), "a rolled-up epoch reads zero");
        assert_eq!(m.epoch(epochs - 1).messages, 1);
        let mut sum = rolled_up;
        m.epochs().for_each(|(_, t)| sum.absorb(t));
        assert_eq!(sum, m.totals(), "the window and the remainder are the whole ledger");
    }

    #[test]
    fn a_retired_scope_leaves_the_scope_axes_for_the_retired_bucket() {
        let mut m = NetworkMetrics::new(3);
        m.set_scope(Some(1));
        m.record_transmission(1, 2, 0, PhaseTag::Update, 10, 1, 100.0, 50.0);
        m.record_transmission(2, 1, 0, PhaseTag::Probe, 5, 0, 50.0, 25.0);
        m.record_page_reads(1, 0, 2, 4.0);
        m.set_scope(Some(2));
        m.record_transmission(3, 1, 1, PhaseTag::Probe, 5, 0, 50.0, 25.0);
        m.set_scope(None);
        let (scope, storage) = (m.scope(1), storage_scope(&m, 1));

        m.retire_scope(1);
        m.retire_scope(7);
        assert_eq!(m.scopes().map(|(s, _)| s).collect::<Vec<_>>(), vec![2]);
        assert_eq!(m.scope_phases(1).count(), 0);
        assert_eq!(m.scope_phases(2).count(), 1);
        assert_eq!(m.storage_scopes().count(), 0);
        assert_eq!((m.retired_scopes(), m.retired_storage()), (scope, storage));
        // The scopes that remain still book where they did.
        m.set_scope(Some(2));
        m.record_transmission(3, 1, 2, PhaseTag::Probe, 5, 0, 50.0, 25.0);
        assert_eq!(m.scope(2).messages, 2);
        assert_eq!(scope_phase(&m, 2, PhaseTag::Probe).messages, 2);
    }

    #[test]
    fn phase_display_names_are_stable() {
        assert_eq!(PhaseTag::LowerBound.to_string(), "lower-bound");
        assert_eq!(PhaseTag::Update.to_string(), "update");
        assert_eq!(PhaseTag::CleanUp.to_string(), "clean-up");
    }
}
