//! The substrate as it ran before its participation view, kept as the oracle of
//! [`crate::sim::Network`]: liveness asked of the batteries and the fault plan at every
//! step, the effective parent walked up the tree on every call, the flood tree rebuilt
//! by every flood, and every unicast hop a full `send` that costs the payload, runs its
//! own ARQ loop and books each event on its own.  Property tests drive old and new
//! over random trees, fault plans and traffic and demand the same return values,
//! participation, effective parents, ledgers and batteries, bit for bit.
//!
//! Routing, ARQ and liveness are verbatim.  The ledger calls are not: the per-event
//! booking methods they made are gone, so each event is a path booking of its own
//! ([`book_event`]).  That the ledger books a path exactly as event-by-event booking
//! would is held by `tests/ledger.rs`, against its map-per-axis model.
//!
//! The frame path is the one substrate kernel v4 replaced (ADR-004, "Substrate kernel
//! v4"): the scheduler that kept frames in open order and sorted them to drain, the
//! split into a buffer of slices, and a `book_frame` that books every slice of every
//! attempt row by row, finding each slice's scope rows as it goes — here through the
//! ledger's test-only row accessors, so the oracle shares no booking code with
//! [`NetworkMetrics::book_frames`].

use crate::energy::BatteryBank;
use crate::metrics::{AttemptCost, NetworkMetrics, PathBooking, PhaseTag, PhaseTotals, QueryScope};
use crate::radio::RadioModel;
use crate::rng::stream_rng;
use crate::sim::{NetworkConfig, FRAME_FATE_STREAM};
use crate::topology::Deployment;
use crate::tree::RoutingTree;
use crate::types::{Epoch, NodeId, SINK};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeMap;

/// A single-hop logical message, as the substrate's public `Message` was.
#[derive(Debug, Clone, Copy)]
struct Message {
    from: NodeId,
    to: NodeId,
    epoch: Epoch,
    data_tuples: u32,
    control_tuples: u32,
}

impl Message {
    fn data(from: NodeId, to: NodeId, epoch: Epoch, tuples: u32) -> Self {
        Self { from, to, epoch, data_tuples: tuples, control_tuples: 0 }
    }
}

/// Books one event — an attempt, a retransmission or a drop — on its own: a path
/// booking that holds nothing else.
fn book_event(
    metrics: &mut NetworkMetrics,
    epoch: Epoch,
    phase: PhaseTag,
    cost: AttemptCost,
    event: impl FnOnce(&mut PathBooking<'_>),
) {
    let mut booking = metrics.open_path(epoch, phase, cost);
    event(&mut booking);
    booking.close();
}

/// One symbolic report enqueued by a session.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ReportIntent {
    scope: Option<QueryScope>,
    phase: PhaseTag,
    data_tuples: u32,
    control_tuples: u32,
}

/// A frame being assembled for one `(sender, receiver)` hop of the current epoch.
#[derive(Debug, Clone)]
struct PendingFrame {
    epoch: Epoch,
    delivered: bool,
    attempts: u32,
    slices: Vec<ReportIntent>,
}

impl PendingFrame {
    fn open(epoch: Epoch, loss: f64, max_attempts: u32, rng: &mut StdRng) -> Self {
        let mut attempts = 1;
        let delivered = loop {
            let lost = loss > 0.0 && rng.gen_bool(loss.min(1.0));
            if !lost {
                break true;
            }
            if attempts >= max_attempts {
                break false;
            }
            attempts += 1;
        };
        Self { epoch, delivered, attempts, slices: Vec::new() }
    }
}

/// One scope's fully attributed share of a flushed frame.
#[derive(Debug, Clone, Copy, PartialEq)]
struct FrameSlice {
    scope: Option<QueryScope>,
    phase: PhaseTag,
    share_bytes: u32,
    tuples: u32,
}

/// Splits a frame's on-air bytes across its slices: each slice gets its own payload
/// bytes plus `overhead × payload_i / payload` rounded down, and the remaining bytes
/// are assigned one-by-one in enqueue order.
fn split_frame_shares(intents: &[ReportIntent], radio: &RadioModel, slices: &mut Vec<FrameSlice>) -> u32 {
    let payload_of = |i: &ReportIntent| radio.payload_bytes(i.data_tuples, i.control_tuples);
    let payload_total: u32 = intents.iter().map(payload_of).sum();
    let frame_bytes = radio.on_air_bytes(payload_total);
    let overhead = frame_bytes - payload_total;

    slices.clear();
    slices.extend(intents.iter().map(|intent| {
        let payload = payload_of(intent);
        let share = if payload_total == 0 {
            0
        } else {
            (u64::from(overhead) * u64::from(payload) / u64::from(payload_total)) as u32
        };
        FrameSlice {
            scope: intent.scope,
            phase: intent.phase,
            share_bytes: payload + share,
            tuples: intent.data_tuples,
        }
    }));
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
    frame_bytes
}

/// Frames under assembly in open order, one slot per sender pointing at the frame it
/// opened first, recycled slice buffers, and a drain that sorts.
#[derive(Debug, Clone)]
struct FrameScheduler {
    frames: Vec<((NodeId, NodeId), PendingFrame)>,
    first_open: Vec<u32>,
    spare_slices: Vec<Vec<ReportIntent>>,
    shares: Vec<FrameSlice>,
    order: Vec<u64>,
}

impl FrameScheduler {
    fn new(num_nodes: usize) -> Self {
        Self {
            frames: Vec::new(),
            first_open: vec![0; num_nodes + 1],
            spare_slices: Vec::new(),
            shares: Vec::new(),
            order: Vec::new(),
        }
    }

    fn frame_entry(&mut self, from: NodeId, to: NodeId, open: impl FnOnce() -> PendingFrame) -> &mut PendingFrame {
        let found = match self.first_open.get(from as usize) {
            Some(0) => None,
            Some(&slot) if self.frames[slot as usize - 1].0 .1 == to => Some(slot as usize - 1),
            _ => self.frames.iter().position(|(hop, _)| *hop == (from, to)),
        };
        let at = found.unwrap_or_else(|| {
            let mut frame = open();
            frame.slices = self.spare_slices.pop().unwrap_or_default();
            self.frames.push(((from, to), frame));
            if let Some(slot @ 0) = self.first_open.get_mut(from as usize) {
                *slot = self.frames.len() as u32;
            }
            self.frames.len() - 1
        });
        &mut self.frames[at].1
    }

    fn drain_frames(&mut self, mut visit: impl FnMut(NodeId, NodeId, &PendingFrame, &mut Vec<FrameSlice>)) {
        let Self { frames, first_open, spare_slices, shares, order } = self;
        order.clear();
        order.extend(frames.iter().enumerate().map(|(at, ((from, _), _))| u64::from(*from) << 32 | at as u64));
        order.sort_unstable();
        for run in order.chunk_by_mut(|a, b| a >> 32 == b >> 32).filter(|run| run.len() > 1) {
            run.sort_unstable_by_key(|&key| frames[key as u32 as usize].0 .1);
        }
        for &key in order.iter() {
            let ((from, to), frame) = &mut frames[key as u32 as usize];
            visit(*from, *to, frame, shares);
            if let Some(slot) = first_open.get_mut(*from as usize) {
                *slot = 0;
            }
            let mut slices = std::mem::take(&mut frame.slices);
            slices.clear();
            spare_slices.push(slices);
        }
        frames.clear();
    }
}

/// Books a merged frame sent by `from` to `to`, on the air `attempts` times and
/// dropped after the last unless `delivered`: for each attempt the node counters, one
/// message of `frame_bytes` in the grand total and the epoch row, the message under
/// `label_phase` and each slice's share, tuples and energy under its own phase and
/// scope; then the retransmissions and the drop under the label phase and once per
/// distinct riding scope.
#[allow(clippy::too_many_arguments)]
fn book_frame(
    m: &mut NetworkMetrics,
    from: NodeId,
    to: NodeId,
    epoch: Epoch,
    label_phase: PhaseTag,
    frame_bytes: u32,
    slices: &[FrameSlice],
    tx_energy: f64,
    rx_energy: f64,
    attempts: u32,
    delivered: bool,
) {
    let tuples: u32 = slices.iter().map(|s| s.tuples).sum();
    for _ in 0..attempts {
        let sender = m.node_row(from);
        sender.tx_messages += 1;
        sender.tx_bytes += u64::from(frame_bytes);
        sender.tuples_sent += u64::from(tuples);
        sender.energy_uj += tx_energy;
        let receiver = m.node_row(to);
        receiver.rx_messages += 1;
        receiver.rx_bytes += u64::from(frame_bytes);
        receiver.energy_uj += rx_energy;
        let mut sensor_energy = 0.0;
        if from != SINK {
            sensor_energy += tx_energy;
        }
        if to != SINK {
            sensor_energy += rx_energy;
        }
        let attempt = |totals: &mut PhaseTotals| {
            totals.messages += 1;
            totals.bytes += u64::from(frame_bytes);
            totals.tuples += u64::from(tuples);
            totals.energy_uj += sensor_energy;
        };
        attempt(m.totals_row());
        attempt(m.epoch_row_of(epoch));
        m.phase_row(label_phase).messages += 1;
        for slice in slices {
            let share = if frame_bytes > 0 { f64::from(slice.share_bytes) / f64::from(frame_bytes) } else { 0.0 };
            let slice_energy = sensor_energy * share;
            let phase = m.phase_row(slice.phase);
            phase.bytes += u64::from(slice.share_bytes);
            phase.tuples += u64::from(slice.tuples);
            phase.energy_uj += slice_energy;
            if let Some(scope) = slice.scope {
                let ride = |ledger: &mut PhaseTotals| {
                    ledger.messages += 1;
                    ledger.bytes += u64::from(slice.share_bytes);
                    ledger.tuples += u64::from(slice.tuples);
                    ledger.energy_uj += slice_energy;
                };
                ride(m.scope_row(scope));
                ride(m.scope_phase_row(scope, slice.phase));
            }
        }
    }
    let retransmissions = u64::from(attempts.saturating_sub(1));
    let drops = u64::from(!delivered);
    if retransmissions == 0 && drops == 0 {
        return;
    }
    m.node_row(from).dropped_messages += drops;
    let events = |totals: &mut PhaseTotals| {
        totals.retransmissions += retransmissions;
        totals.dropped_messages += drops;
    };
    events(m.phase_row(label_phase));
    events(m.epoch_row_of(epoch));
    events(m.totals_row());
    for (at, slice) in slices.iter().enumerate() {
        let Some(scope) = slice.scope else { continue };
        if slices[..at].iter().all(|earlier| earlier.scope != slice.scope) {
            events(m.scope_row(scope));
            events(m.scope_phase_row(scope, slice.phase));
        }
    }
}

/// The fields `Network` had, under the same names, so the methods below read as they
/// did.
pub(crate) struct ReferenceNetwork {
    deployment: Deployment,
    tree: RoutingTree,
    config: NetworkConfig,
    metrics: NetworkMetrics,
    batteries: BatteryBank,
    loss_rng: StdRng,
    scope_loss_rngs: BTreeMap<QueryScope, StdRng>,
    current_scope: Option<QueryScope>,
    current_epoch: Epoch,
    frame_scheduler: Option<FrameScheduler>,
    scratch: Scratch,
}

#[derive(Debug, Clone, Default)]
struct Scratch {
    flood_parent: Vec<NodeId>,
    flood_offsets: Vec<u32>,
    flood_children: Vec<NodeId>,
    path: Vec<NodeId>,
}

impl ReferenceNetwork {
    pub(crate) fn new(deployment: Deployment, config: NetworkConfig) -> Self {
        let tree = RoutingTree::build(&deployment);
        let n = deployment.num_nodes();
        let batteries = BatteryBank::uniform(n, config.battery_capacity_uj);
        let loss_rng = stream_rng(config.seed, &[0x10_55]);
        Self {
            deployment,
            tree,
            config,
            metrics: NetworkMetrics::new(n),
            batteries,
            loss_rng,
            scope_loss_rngs: BTreeMap::new(),
            current_scope: None,
            current_epoch: 0,
            frame_scheduler: None,
            scratch: Scratch::default(),
        }
    }

    pub(crate) fn metrics(&self) -> &NetworkMetrics {
        &self.metrics
    }

    pub(crate) fn batteries(&self) -> &BatteryBank {
        &self.batteries
    }

    fn num_nodes(&self) -> usize {
        self.deployment.num_nodes()
    }

    pub(crate) fn node_alive(&self, node: NodeId) -> bool {
        node == SINK
            || (!self.batteries.get(node).is_depleted()
                && !self.config.faults.is_scheduled_dead(node, self.current_epoch))
    }

    pub(crate) fn node_participating(&self, node: NodeId) -> bool {
        node == SINK
            || (self.node_alive(node) && self.config.faults.is_awake(node, self.current_epoch))
    }

    pub(crate) fn effective_parent(&self, node: NodeId) -> NodeId {
        let mut parent = self.tree.parent(node);
        while parent != SINK && !self.node_participating(parent) {
            parent = self.tree.parent(parent);
        }
        parent
    }

    pub(crate) fn set_query_scope(&mut self, scope: Option<QueryScope>) {
        self.current_scope = scope;
        self.metrics.set_scope(scope);
    }

    pub(crate) fn set_frame_batching(&mut self, on: bool) {
        if on {
            if self.frame_scheduler.is_none() {
                self.frame_scheduler = Some(FrameScheduler::new(self.num_nodes()));
            }
        } else {
            self.flush_frames();
            self.frame_scheduler = None;
        }
    }

    fn frame_batching(&self) -> bool {
        self.frame_scheduler.is_some()
    }

    pub(crate) fn begin_epoch(&mut self, epoch: Epoch) {
        self.flush_frames();
        self.current_epoch = epoch;
        if !self.config.charge_epoch_baseline {
            return;
        }
        let cost = self.config.energy.epoch_baseline_cost();
        for id in 1..=self.num_nodes() as NodeId {
            if self.node_participating(id) {
                self.metrics.record_local_energy(id, epoch, cost);
                self.batteries.drain(id, cost);
            }
        }
    }

    pub(crate) fn charge_cpu(&mut self, node: NodeId, tuples: u32) {
        if node == SINK {
            return;
        }
        let cost = self.config.energy.cpu_cost(tuples);
        self.metrics.record_local_energy(node, self.current_epoch, cost);
        self.batteries.drain(node, cost);
    }

    fn send(&mut self, msg: Message, phase: PhaseTag) -> bool {
        if msg.from != SINK && !self.node_participating(msg.from) {
            return false;
        }
        let payload = self.config.radio.payload_bytes(msg.data_tuples, msg.control_tuples);
        let bytes = self.config.radio.on_air_bytes(payload);
        let tx = self.config.energy.tx_cost(bytes);
        let rx = self.config.energy.rx_cost(bytes);
        let cost = AttemptCost { bytes, tuples: msg.data_tuples, tx_energy: tx, rx_energy: rx };

        if msg.to != SINK && !self.node_participating(msg.to) {
            book_event(&mut self.metrics, msg.epoch, phase, cost, |b| b.record_attempt(msg.from, &[]));
            if msg.from != SINK {
                self.batteries.drain(msg.from, tx);
            }
            book_event(&mut self.metrics, msg.epoch, phase, cost, |b| b.note_drop(msg.from));
            return false;
        }

        let loss = self.config.faults.link_loss;
        let max_attempts = 1 + self.config.faults.max_retransmits;
        let mut attempt = 0;
        loop {
            attempt += 1;
            if attempt > 1 {
                book_event(&mut self.metrics, msg.epoch, phase, cost, |b| b.note_retransmission());
            }
            let lost = loss > 0.0 && {
                let seed = self.config.seed;
                let rng = match self.current_scope {
                    Some(scope) => self
                        .scope_loss_rngs
                        .entry(scope)
                        .or_insert_with(|| stream_rng(seed, &[0x10_55, 1 + u64::from(scope)])),
                    None => &mut self.loss_rng,
                };
                rng.gen_bool(loss.min(1.0))
            };
            book_event(&mut self.metrics, msg.epoch, phase, cost, |b| b.record_attempt(msg.from, &[msg.to]));
            if msg.from != SINK {
                self.batteries.drain(msg.from, tx);
            }
            if msg.to != SINK {
                self.batteries.drain(msg.to, rx);
            }
            if !lost {
                return true;
            }
            if attempt >= max_attempts {
                book_event(&mut self.metrics, msg.epoch, phase, cost, |b| b.note_drop(msg.from));
                return false;
            }
        }
    }

    pub(crate) fn send_report_up(
        &mut self,
        from: NodeId,
        epoch: Epoch,
        data_tuples: u32,
        control_tuples: u32,
        phase: PhaseTag,
    ) -> Option<NodeId> {
        if !self.node_participating(from) {
            return None;
        }
        let parent = self.effective_parent(from);
        if self.frame_batching() {
            let loss = self.config.faults.link_loss;
            let max_attempts = 1 + self.config.faults.max_retransmits;
            let scope = self.current_scope;
            let seed = self.config.seed;
            if let Some(scheduler) = self.frame_scheduler.as_mut() {
                let frame = scheduler.frame_entry(from, parent, || {
                    let mut fate_rng = stream_rng(
                        seed,
                        &[FRAME_FATE_STREAM, u64::from(from), u64::from(parent), epoch],
                    );
                    PendingFrame::open(epoch, loss, max_attempts, &mut fate_rng)
                });
                frame.slices.push(ReportIntent { scope, phase, data_tuples, control_tuples });
                return frame.delivered.then_some(parent);
            }
        }
        let msg = Message { from, to: parent, epoch, data_tuples, control_tuples };
        self.send(msg, phase).then_some(parent)
    }

    pub(crate) fn flush_frames(&mut self) {
        let Self { frame_scheduler, metrics, batteries, config, .. } = self;
        let Some(scheduler) = frame_scheduler else { return };
        scheduler.drain_frames(|from, to, frame, slices| {
            let frame_bytes = split_frame_shares(&frame.slices, &config.radio, slices);
            let tx = config.energy.tx_cost(frame_bytes);
            let rx = config.energy.rx_cost(frame_bytes);
            let label_phase = frame.slices.first().map_or(PhaseTag::Update, |s| s.phase);
            book_frame(
                metrics,
                from,
                to,
                frame.epoch,
                label_phase,
                frame_bytes,
                slices,
                tx,
                rx,
                frame.attempts,
                frame.delivered,
            );
            for _ in 0..frame.attempts {
                if from != SINK {
                    batteries.drain(from, tx);
                }
                if to != SINK {
                    batteries.drain(to, rx);
                }
            }
        });
    }

    pub(crate) fn flood_down(&mut self, epoch: Epoch, control_entries: u32, phase: PhaseTag) -> u32 {
        let payload = self.config.radio.payload_bytes(0, control_entries);
        let bytes = self.config.radio.on_air_bytes(payload);
        let tx = self.config.energy.tx_cost(bytes);
        let rx = self.config.energy.rx_cost(bytes);
        let cost = AttemptCost { bytes, tuples: 0, tx_energy: tx, rx_energy: rx };
        let n = self.num_nodes();
        let mut scratch = std::mem::take(&mut self.scratch);
        let Scratch { flood_parent, flood_offsets: offsets, flood_children, .. } = &mut scratch;
        flood_parent.clear();
        flood_parent.push(NodeId::MAX);
        offsets.clear();
        offsets.resize(n + 2, 0);
        for id in 1..=n as NodeId {
            let parent =
                if self.node_participating(id) { self.effective_parent(id) } else { NodeId::MAX };
            flood_parent.push(parent);
            if parent != NodeId::MAX {
                offsets[parent as usize] += 1;
            }
        }
        for sender in 1..=n + 1 {
            offsets[sender] += offsets[sender - 1];
        }
        flood_children.clear();
        flood_children.resize(offsets[n + 1] as usize, 0);
        for id in (1..=n as NodeId).rev() {
            let parent = flood_parent[id as usize];
            if parent != NodeId::MAX {
                offsets[parent as usize] -= 1;
                flood_children[offsets[parent as usize] as usize] = id;
            }
        }
        let mut transmissions = 0;
        for position in 0..=n {
            let sender = if position == 0 { SINK } else { self.tree.pre_order_slice()[position - 1] };
            if sender != SINK && !self.node_participating(sender) {
                continue;
            }
            let bucket = offsets[sender as usize] as usize..offsets[sender as usize + 1] as usize;
            let children = &flood_children[bucket];
            if children.is_empty() {
                continue;
            }
            book_event(&mut self.metrics, epoch, phase, cost, |b| b.record_attempt(sender, children));
            if sender != SINK {
                self.batteries.drain(sender, tx);
            }
            for c in children {
                self.batteries.drain(*c, rx);
            }
            transmissions += 1;
        }
        self.scratch = scratch;
        transmissions
    }

    pub(crate) fn unicast_down(
        &mut self,
        to: NodeId,
        epoch: Epoch,
        control_entries: u32,
        phase: PhaseTag,
    ) -> Option<u32> {
        if !self.node_participating(to) {
            return None;
        }
        let mut path = std::mem::take(&mut self.scratch.path);
        path.clear();
        let mut relay = to;
        while relay != SINK {
            path.push(relay);
            relay = self.effective_parent(relay);
        }
        let mut hops = Some(0);
        let mut from = SINK;
        for &next in path.iter().rev() {
            let msg = Message { from, to: next, epoch, data_tuples: 0, control_tuples: control_entries };
            if !self.send(msg, phase) {
                hops = None;
                break;
            }
            hops = hops.map(|h| h + 1);
            from = next;
        }
        self.scratch.path = path;
        hops
    }

    pub(crate) fn unicast_up(
        &mut self,
        from: NodeId,
        epoch: Epoch,
        data_tuples: u32,
        phase: PhaseTag,
    ) -> Option<u32> {
        if !self.node_participating(from) {
            return None;
        }
        let mut hops = 0;
        let mut relay = from;
        while relay != SINK {
            let next = self.effective_parent(relay);
            let msg = Message::data(relay, next, epoch, data_tuples);
            if !self.send(msg, phase) {
                return None;
            }
            hops += 1;
            relay = next;
        }
        Some(hops)
    }
}

mod properties {
    use super::*;
    use crate::fault::{DutyCycle, FaultPlan};
    use crate::metrics::PhaseTotals;
    use crate::sim::Network;
    use crate::topology::{NodeSpec, Position};
    use proptest::prelude::*;

    const PHASES: [PhaseTag; 4] = [PhaseTag::Update, PhaseTag::Probe, PhaseTag::Control, PhaseTag::CleanUp];

    /// Every phase, for the keyed reads of the per-phase axis.
    const ALL_PHASES: [PhaseTag; 8] = [
        PhaseTag::Dissemination,
        PhaseTag::Creation,
        PhaseTag::Update,
        PhaseTag::Control,
        PhaseTag::Probe,
        PhaseTag::LowerBound,
        PhaseTag::HierarchicalJoin,
        PhaseTag::CleanUp,
    ];

    /// One call into the substrate.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Begin(Epoch),
        Report(NodeId, u32, u32, PhaseTag),
        Flood(u32, PhaseTag),
        Down(NodeId, u32, PhaseTag),
        Up(NodeId, u32, PhaseTag),
        Cpu(NodeId, u32),
        Scope(Option<QueryScope>),
        Flush,
        Batching(bool),
    }

    /// Runs one op on either network; what it returned, as a number.
    macro_rules! run {
        ($net:expr, $epoch:expr, $op:expr) => {
            match $op {
                Op::Begin(epoch) => {
                    $net.begin_epoch(epoch);
                    0
                }
                Op::Report(from, data, control, phase) => {
                    $net.send_report_up(from, $epoch, data, control, phase).map_or(u64::MAX, u64::from)
                }
                Op::Flood(entries, phase) => u64::from($net.flood_down($epoch, entries, phase)),
                Op::Down(to, entries, phase) => $net.unicast_down(to, $epoch, entries, phase).map_or(u64::MAX, u64::from),
                Op::Up(from, tuples, phase) => $net.unicast_up(from, $epoch, tuples, phase).map_or(u64::MAX, u64::from),
                Op::Cpu(node, tuples) => {
                    $net.charge_cpu(node, tuples);
                    0
                }
                Op::Scope(scope) => {
                    $net.set_query_scope(scope);
                    0
                }
                Op::Flush => {
                    $net.flush_frames();
                    0
                }
                Op::Batching(on) => {
                    $net.set_frame_batching(on);
                    0
                }
            }
        };
    }

    /// Who participates and where each node's reports go, as both networks see it.
    macro_rules! view {
        ($net:expr, $n:expr) => {
            (1..=$n as NodeId)
                .map(|id| ($net.node_participating(id), $net.node_alive(id), $net.effective_parent(id)))
                .collect::<Vec<_>>()
        };
    }

    fn totals_bits(t: PhaseTotals) -> [u64; 6] {
        [t.messages, t.bytes, t.tuples, t.retransmissions, t.dropped_messages, t.energy_uj.to_bits()]
    }

    /// Every public read of a ledger and of the batteries, floats as bit patterns.
    fn state_bits(m: &NetworkMetrics, batteries: &BatteryBank) -> Vec<Vec<u64>> {
        let mut out = ledger_bits(m);
        out.push((1..=batteries.len() as NodeId).map(|id| batteries.get(id).remaining_uj().to_bits()).collect());
        out
    }

    /// Every public read of a ledger, floats as bit patterns.
    fn ledger_bits(m: &NetworkMetrics) -> Vec<Vec<u64>> {
        let mut out = vec![totals_bits(m.totals()).to_vec()];
        let counters = std::iter::once(*m.sink()).chain((1..=m.num_nodes() as NodeId).map(|id| *m.node(id)));
        out.extend(counters.map(|c| {
            vec![c.tx_messages, c.rx_messages, c.tx_bytes, c.rx_bytes, c.tuples_sent, c.dropped_messages, c.energy_uj.to_bits()]
        }));
        let row = |key: u64, t: PhaseTotals| [&[key][..], &totals_bits(t)[..]].concat();
        out.extend(m.epochs().map(|(e, t)| row(e, t)));
        out.push(totals_bits(m.epochs_rolled_up()).to_vec());
        out.extend(m.phases().map(|(p, t)| row(p as u64, t)));
        out.extend(ALL_PHASES.map(|p| row(p as u64, m.phase(p))));
        for (scope, t) in m.scopes() {
            out.push(row(u64::from(scope), t));
            out.extend(m.scope_phases(scope).map(|(p, t)| row(p as u64, t)));
        }
        out.push(totals_bits(m.retired_scopes()).to_vec());
        out
    }

    /// The old and the new substrate side by side: every op runs on both, and after
    /// every op the return values, the view and the whole state must agree.
    struct Twin {
        new: Network,
        old: ReferenceNetwork,
        epoch: Epoch,
    }

    impl Twin {
        fn new(d: Deployment, config: NetworkConfig) -> Self {
            Self { new: Network::new(d.clone(), config.clone()), old: ReferenceNetwork::new(d, config), epoch: 0 }
        }

        fn nodes(&self) -> usize {
            self.new.num_nodes()
        }

        /// Runs `op` on both sides and returns what the new side returned.
        fn run(&mut self, op: Op) -> u64 {
            if let Op::Begin(epoch) = op {
                self.epoch = epoch;
            }
            let ours = run!(self.new, self.epoch, op);
            let theirs = run!(self.old, self.epoch, op);
            assert_eq!(ours, theirs, "{op:?} returned differently");
            let n = self.nodes();
            assert_eq!(view!(self.new, n), view!(self.old, n), "the views differ after {op:?}");
            assert_eq!(
                state_bits(self.new.metrics(), self.new.batteries()),
                state_bits(self.old.metrics(), self.old.batteries()),
                "ledgers or batteries differ after {op:?}"
            );
            ours
        }
    }

    /// A deployment over an explicit random tree: `raw[i]` picks node `i + 1`'s parent
    /// among the sink and the nodes before it, then the ids are shuffled so parents are
    /// not always smaller than their children.
    fn random_tree(raw: &[u32], seed: u64) -> Deployment {
        let n = raw.len();
        let mut relabel: Vec<NodeId> = (1..=n as NodeId).collect();
        let mut rng = stream_rng(seed, &[0x7EE]);
        for i in (1..n).rev() {
            relabel.swap(i, rng.gen_range(0..=i));
        }
        let id_of = |structural: u32| if structural == 0 { SINK } else { relabel[structural as usize - 1] };
        let mut parents = BTreeMap::new();
        let mut nodes = Vec::new();
        for (i, &r) in raw.iter().enumerate() {
            let id = id_of(i as u32 + 1);
            parents.insert(id, id_of(r % (i as u32 + 1)));
            nodes.push(NodeSpec { id, position: Position::new(f64::from(id), 1.0), group: id % 3 });
        }
        Deployment::from_parts(Position::new(0.0, 0.0), nodes, 5.0)
            .with_explicit_parents(parents)
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

    /// Decodes one op over `n` nodes; `epoch` is the epoch begun last.
    fn op(kind: u64, word: u64, n: u64, epoch: Epoch) -> Op {
        let mut next = fields(word);
        let phase = PHASES[(next() % PHASES.len() as u64) as usize];
        let any_node = (next() % (n + 1)) as NodeId;
        let sensor = 1 + (next() % n) as NodeId;
        let count = (next() % 5) as u32;
        match kind {
            0 => Op::Begin(epoch + next() % 3),
            // A zero count with no control entry is an empty payload.
            1..=5 => Op::Report(sensor, count, (next() % 2) as u32, phase),
            6 => Op::Flood(count + 1, phase),
            7 | 8 => Op::Down(any_node, count + 1, phase),
            9 | 10 => Op::Up(any_node, count + 1, phase),
            11 => Op::Cpu(any_node, (next() % 200) as u32),
            12 => Op::Scope((!next().is_multiple_of(3)).then(|| (next() % 4) as QueryScope * 1_000 + 7)),
            13 => Op::Flush,
            _ => Op::Batching(next().is_multiple_of(2)),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

        /// The participation view, the routes cached per view and the one hop loop are
        /// indistinguishable from the substrate that asked at every step.
        #[test]
        fn the_substrate_matches_the_reference(
            raw in prop::collection::vec(0u32..100_000, 1..40),
            loss_pct in prop_oneof![Just(0u32), 1u32..90],
            retransmits in 0u32..4,
            death in 0u64..9,
            duty in 0u64..5,
            battery_uj in prop_oneof![Just(1.0e12), 300.0f64..6_000.0],
            batching in prop_oneof![Just(false), Just(true)],
            ops in prop::collection::vec((0u64..15, 0u64..u64::MAX), 1..120),
            seed in 0u64..1_000_000,
        ) {
            let d = random_tree(&raw, seed);
            let n = d.num_nodes() as u64;
            let mut faults = FaultPlan::none()
                .with_link_loss(f64::from(loss_pct) / 100.0)
                .with_retransmits(retransmits);
            // A death in one case of three, a duty cycle (period 2–4) in three of five.
            if death < 6 {
                faults = faults.with_node_death(1 + (seed % n) as NodeId, death);
            }
            if duty >= 2 {
                faults = faults.with_duty_cycle(DutyCycle::new(duty, duty - 1));
            }
            let config = NetworkConfig::mica2().with_seed(seed).with_battery_uj(battery_uj).with_faults(faults);
            let mut twin = Twin::new(d, config);
            twin.run(Op::Batching(batching));
            for &(kind, word) in &ops {
                let op = op(kind, word, n, twin.epoch);
                twin.run(op);
            }
            twin.run(Op::Flush);
        }
    }

    /// A chain: the sink ← 1 ← 2 ← 3 ← 4 ← 5, on MICA2 constants.
    fn chain(config: NetworkConfig) -> Twin {
        let nodes = (1..=5).map(|id| NodeSpec { id, position: Position::new(f64::from(id), 0.0), group: 0 }).collect();
        let parents = (1..=5).map(|id| (id, id - 1)).collect();
        let d = Deployment::from_parts(Position::new(0.0, 0.0), nodes, 1.5)
            .with_explicit_parents(parents);
        Twin::new(d, config)
    }

    /// `NetworkMetrics::record_transmission` books what an unbatched one-hop report
    /// books, node counters and every ledger axis, bit for bit — so a probe that times
    /// the one times a path the simulator takes.
    #[test]
    fn a_one_hop_report_books_like_record_transmission() {
        let config = NetworkConfig::mica2();
        let mut net = chain(config.clone()).new;
        let mut ledger = NetworkMetrics::new(net.num_nodes());
        let bytes = config.radio.on_air_bytes(config.radio.payload_bytes(2, 1));
        let (tx, rx) = (config.energy.tx_cost(bytes), config.energy.rx_cost(bytes));
        for (scope, from, epoch) in [(Some(3), 5, 0), (Some(3), 1, 0), (None, 4, 1), (Some(9), 1, 2)] {
            net.set_query_scope(scope);
            ledger.set_scope(scope);
            let to = net.send_report_up(from, epoch, 2, 1, PhaseTag::Update);
            assert_eq!(to, Some(from - 1), "a lossless hop to the parent delivers");
            ledger.record_transmission(from, from - 1, epoch, PhaseTag::Update, bytes, 2, tx, rx);
        }
        assert_eq!(ledger_bits(net.metrics()), ledger_bits(&ledger));
    }

    /// Receiver energy of one hop of a one-tuple payload.
    fn rx_per_hop(config: &NetworkConfig, data: u32, control: u32) -> f64 {
        config.energy.rx_cost(config.radio.on_air_bytes(config.radio.payload_bytes(data, control)))
    }

    /// Drains `node` with CPU work until less than `left` µJ remain; with `left` at most
    /// one tuple's cost, until nothing does.
    fn drain_below(twin: &mut Twin, node: NodeId, left: f64) {
        let per_tuple = twin.new.config().energy.cpu_uj_per_tuple;
        let remaining = twin.new.batteries().get(node).remaining_uj();
        let tuples = ((remaining - left) / per_tuple).floor() as u32 + 1;
        twin.run(Op::Cpu(node, tuples));
        let remaining = twin.new.batteries().get(node).remaining_uj();
        assert!(remaining < left && (remaining > 0.0) == (left > per_tuple), "node {node} holds {remaining} µJ");
    }

    #[test]
    fn a_relay_emptied_mid_unicast_up_ends_the_path() {
        let config = NetworkConfig::mica2().with_battery_uj(1.0e6);
        let rx = rx_per_hop(&config, 1, 0);
        let mut twin = chain(config);
        twin.run(Op::Begin(0));
        drain_below(&mut twin, 3, rx);
        // 5 → 4 → 3 delivers, and the hop that reached node 3 emptied it.
        assert_eq!(twin.run(Op::Up(5, 1, PhaseTag::Probe)), u64::MAX);
        assert!(!twin.new.node_participating(3));
        assert_eq!(twin.new.metrics().totals().messages, 2, "node 3 never relayed");
        // The next path routes around it: 5 → 4 → 2 → 1 → sink.
        assert_eq!(twin.new.effective_parent(4), 2);
        assert_eq!(twin.run(Op::Up(5, 1, PhaseTag::Probe)), 4);
    }

    #[test]
    fn a_receiver_emptied_mid_unicast_down_ends_the_path() {
        let config = NetworkConfig::mica2().with_battery_uj(1.0e6);
        let rx = rx_per_hop(&config, 0, 1);
        let mut twin = chain(config);
        twin.run(Op::Begin(0));
        drain_below(&mut twin, 2, rx);
        // sink → 1 → 2 delivers and empties node 2, which cannot pass it on.
        assert_eq!(twin.run(Op::Down(5, 1, PhaseTag::Probe)), u64::MAX);
        assert!(!twin.new.node_participating(2));
        assert_eq!(twin.new.metrics().totals().messages, 2);
        assert_eq!(twin.run(Op::Down(5, 1, PhaseTag::Probe)), 4);
    }

    #[test]
    fn a_depletion_between_two_floods_of_one_epoch_reroutes_the_second() {
        let config = NetworkConfig::mica2().with_battery_uj(1.0e6);
        let mut twin = chain(config);
        twin.run(Op::Begin(0));
        assert_eq!(twin.run(Op::Flood(1, PhaseTag::Control)), 5, "the sink and nodes 1–4 broadcast");
        drain_below(&mut twin, 3, 1.0);
        assert!(!twin.new.node_participating(3));
        assert_eq!(twin.run(Op::Flood(1, PhaseTag::Control)), 4, "node 4 hears node 2 now");
        assert_eq!(twin.new.metrics().node(3).rx_messages, 1);
        assert_eq!(twin.new.metrics().node(4).rx_messages, 2);
    }

    #[test]
    fn a_duty_cycle_flip_between_two_flooding_epochs_reroutes_the_second() {
        // Node n sleeps in the epochs where (epoch + n) % 3 == 2: node 2 in epoch 0,
        // node 1 in epoch 1.
        let faults = FaultPlan::none().with_duty_cycle(DutyCycle::new(3, 2));
        let mut twin = chain(NetworkConfig::mica2().with_faults(faults));
        twin.run(Op::Begin(0));
        assert!(!twin.new.node_participating(2) && twin.new.node_participating(1));
        let first = twin.run(Op::Flood(1, PhaseTag::Control));
        twin.run(Op::Begin(1));
        assert!(twin.new.node_participating(2) && !twin.new.node_participating(1));
        let second = twin.run(Op::Flood(1, PhaseTag::Control));
        assert_eq!(twin.new.effective_parent(2), SINK);
        assert_eq!((first, second), (3, 3));
        twin.run(Op::Up(5, 1, PhaseTag::Update));
    }

    // -- The flush: substrate kernel v4 against the parent's frame path, in batched
    // epochs (ADR-004, "Substrate kernel v4").  `Twin::run` compares every axis —
    // `phases()`, `scopes()` and `scope_phases()` row lists included — node counters
    // and batteries after every op, so after every flush.

    /// A chain on MICA2 constants with frame batching on and epoch 0 begun.
    fn batched(config: NetworkConfig) -> Twin {
        let mut twin = chain(config);
        twin.run(Op::Batching(true));
        twin.run(Op::Begin(0));
        twin
    }

    fn report(twin: &mut Twin, scope: Option<QueryScope>, from: NodeId, data: u32, phase: PhaseTag) -> u64 {
        twin.run(Op::Scope(scope));
        twin.run(Op::Report(from, data, 0, phase))
    }

    #[test]
    fn a_scope_carrying_two_phases_on_one_frame_books_both_cells() {
        let mut twin = batched(NetworkConfig::mica2());
        report(&mut twin, Some(7), 5, 1, PhaseTag::Update);
        report(&mut twin, Some(7), 5, 2, PhaseTag::Probe);
        report(&mut twin, Some(9), 5, 1, PhaseTag::Update);
        report(&mut twin, Some(7), 4, 1, PhaseTag::Probe);
        twin.run(Op::Flush);
        let m = twin.new.metrics();
        assert_eq!(m.node(5).tx_messages, 1, "three slices, one frame");
        assert_eq!(m.scope_phases(7).map(|(p, _)| p).collect::<Vec<_>>(), [PhaseTag::Update, PhaseTag::Probe]);
        assert_eq!(m.scope(7).messages, 3, "two frames, one of them with two slices of the scope");
    }

    #[test]
    fn an_unscoped_rider_between_scoped_ones_books_nothing_scope_side() {
        let mut twin = batched(NetworkConfig::mica2());
        for from in [5, 3] {
            report(&mut twin, Some(7), from, 1, PhaseTag::Update);
            report(&mut twin, None, from, 2, PhaseTag::Control);
            report(&mut twin, Some(9), from, 1, PhaseTag::Update);
        }
        twin.run(Op::Flush);
        let m = twin.new.metrics();
        assert_eq!(m.scopes().map(|(s, _)| s).collect::<Vec<_>>(), [7, 9]);
        assert!(m.scope(7).bytes + m.scope(9).bytes < m.totals().bytes, "the unscoped slices keep their share");
        assert_eq!(m.phase(PhaseTag::Control).messages, 0, "a frame's message goes to its label phase");
    }

    #[test]
    fn a_scope_whose_first_booking_is_a_flush_gets_its_rows_at_the_flush() {
        let mut twin = batched(NetworkConfig::mica2());
        report(&mut twin, Some(11), 5, 1, PhaseTag::CleanUp);
        report(&mut twin, Some(11), 2, 3, PhaseTag::Update);
        assert_eq!(twin.new.metrics().scopes().count(), 0, "intents are symbolic until the flush");
        assert_eq!(twin.new.metrics().phases().count(), 0);
        twin.run(Op::Flush);
        let m = twin.new.metrics();
        assert_eq!(m.scopes().map(|(s, _)| s).collect::<Vec<_>>(), [11]);
        assert_eq!(m.scope_phases(11).map(|(p, _)| p).collect::<Vec<_>>(), [PhaseTag::Update, PhaseTag::CleanUp]);
        assert_eq!(m.phases().map(|(p, _)| p).collect::<Vec<_>>(), [PhaseTag::Update, PhaseTag::CleanUp]);
    }

    #[test]
    fn a_sender_whose_parent_empties_mid_sweep_opens_a_second_frame() {
        let config = NetworkConfig::mica2().with_battery_uj(1.0e6);
        let per_tuple = config.energy.cpu_uj_per_tuple;
        let mut twin = batched(config);
        assert_eq!(report(&mut twin, Some(7), 5, 1, PhaseTag::Update), 4);
        drain_below(&mut twin, 4, per_tuple);
        assert_eq!(report(&mut twin, Some(7), 5, 1, PhaseTag::Update), 3, "node 5 now reports past node 4");
        assert_eq!(report(&mut twin, Some(9), 5, 2, PhaseTag::Update), 3);
        assert_eq!(report(&mut twin, Some(9), 4, 2, PhaseTag::Update), u64::MAX, "node 4 is out");
        twin.run(Op::Flush);
        let m = twin.new.metrics();
        assert_eq!(m.node(5).tx_messages, 2, "one frame to each receiver");
        assert_eq!((m.node(4).rx_messages, m.node(3).rx_messages), (1, 1));
    }

    #[test]
    fn lossy_frames_book_retransmissions_and_drops_once_per_rider() {
        let faults = FaultPlan::none().with_link_loss(0.5).with_retransmits(2);
        let mut twin = batched(NetworkConfig::mica2().with_seed(41).with_faults(faults));
        for epoch in 0..6 {
            twin.run(Op::Begin(epoch));
            for (scope, phase) in [(Some(1), PhaseTag::Update), (None, PhaseTag::Probe), (Some(2), PhaseTag::Control)] {
                for from in 1..=5 {
                    report(&mut twin, scope, from, from % 3, phase);
                    report(&mut twin, scope, from, 1, PhaseTag::Update);
                }
            }
            twin.run(Op::Flush);
        }
        let m = twin.new.metrics();
        assert!(m.totals().retransmissions > 0 && m.totals().dropped_messages > 0, "{:?}", m.totals());
        for scope in [1, 2] {
            let t = m.scope(scope);
            assert_eq!((t.retransmissions, t.dropped_messages), (m.totals().retransmissions, m.totals().dropped_messages));
        }
    }

    #[test]
    fn zero_payload_riders_get_a_byte_each_and_the_opener_the_rest() {
        let config = NetworkConfig::mica2();
        let frame_bytes = config.radio.on_air_bytes(0);
        let mut twin = batched(config);
        for scope in [1, 2, 3] {
            report(&mut twin, Some(scope), 5, 0, PhaseTag::Update);
        }
        twin.run(Op::Flush);
        let bytes: Vec<u64> = twin.new.metrics().scopes().map(|(_, t)| t.bytes).collect();
        assert_eq!(bytes, [u64::from(frame_bytes) - 2, 1, 1]);
    }

    #[test]
    fn disabling_batching_mid_epoch_flushes_what_is_pending() {
        let mut twin = batched(NetworkConfig::mica2());
        report(&mut twin, Some(1), 5, 1, PhaseTag::Update);
        report(&mut twin, Some(2), 4, 2, PhaseTag::Update);
        twin.run(Op::Batching(false));
        assert_eq!(twin.new.metrics().totals().messages, 2, "both frames left when batching stopped");
        report(&mut twin, Some(1), 5, 1, PhaseTag::Update);
        twin.run(Op::Batching(true));
        report(&mut twin, Some(2), 5, 1, PhaseTag::Update);
        report(&mut twin, Some(1), 3, 1, PhaseTag::Probe);
        twin.run(Op::Begin(1));
        assert_eq!(twin.new.metrics().totals().messages, 5);
        report(&mut twin, Some(1), 5, 1, PhaseTag::Update);
        twin.run(Op::Flush);
    }

    proptest! {
        /// The flush's split, costed in place from the frame's running payload, gives
        /// every slice the share the parent's `split_frame_shares` gave it, and the same
        /// frame bytes — empty payloads, fragmenting and overhead-free radios included.
        #[test]
        fn the_split_matches_the_parents(
            radio in (0u32..20, 0u32..12, 1u32..64),
            intents in prop::collection::vec((0u32..6, 0u32..3), 1..20),
        ) {
            let (frame_overhead_bytes, header_bytes, max_payload_bytes) = radio;
            let radio = RadioModel { frame_overhead_bytes, header_bytes, tuple_bytes: 12, control_bytes: 6, max_payload_bytes };
            let intents: Vec<ReportIntent> = intents
                .iter()
                .enumerate()
                .map(|(at, &(data_tuples, control_tuples))| ReportIntent {
                    scope: Some(at as QueryScope % 3),
                    phase: PhaseTag::Update,
                    data_tuples,
                    control_tuples,
                })
                .collect();
            let mut slices = Vec::new();
            let parent_bytes = split_frame_shares(&intents, &radio, &mut slices);
            let mut frames = crate::schedule::FrameScheduler::new(2);
            let fate = crate::schedule::Fate { epoch: 0, delivered: true, attempts: 1 };
            for intent in &intents {
                let payload = radio.payload_bytes(intent.data_tuples, intent.control_tuples);
                frames.enqueue(1, 0, intent.scope, intent.phase, payload, intent.data_tuples, || fate);
            }
            let mut costed = Vec::new();
            frames.drain(|_, _, frame| {
                let frame_bytes = frame.cost(&radio);
                costed.push((frame_bytes, frame.slices.iter().map(|s| (s.bytes, s.tuples)).collect::<Vec<_>>()));
            });
            let parent: Vec<(u32, u32)> = slices.iter().map(|s| (s.share_bytes, s.tuples)).collect();
            prop_assert_eq!(costed, vec![(parent_bytes, parent)]);
        }
    }
}
