//! The [`Network`] façade: one object every ranking algorithm is written against.
//!
//! The façade bundles a [`Deployment`], the [`RoutingTree`] built over it, the radio and
//! energy cost models, per-node batteries and the [`NetworkMetrics`] ledger.  Algorithms
//! describe traffic at the level of "node 7 sends 3 tuples to its parent in epoch 12,
//! this is Update-phase traffic" and the façade converts that into packets, bytes,
//! airtime, energy and battery drain — the same accounting KSpot's System Panel performs
//! on the live testbed.
//!
//! The simulation is epoch-synchronous rather than event-driven at the MAC level: TAG
//! and its descendants schedule children to transmit strictly before their parents
//! within an epoch, so a post-order sweep is an exact model of the communication
//! schedule while staying fast enough for the large parameter sweeps of E4–E7.
//!
//! Who takes part in a step is kept as a **participation view**, one flag per node,
//! exact at every step: [`Network::begin_epoch`] recomputes it from the fault plan and
//! the batteries, and the one helper every battery drain goes through clears a node's
//! flag the moment its battery empties — the only way participation changes inside an
//! epoch.  [`Network::node_participating`] reads the flag, and
//! [`Network::effective_parent`] walks up the routing tree reading flags until one is
//! set.  The flood tree of [`Network::flood_down`] is built from that same walk and
//! rebuilt only when the view has changed since it was built.  A unicast — an
//! unbatched report of [`Network::send_report_up`], or the relay path of
//! [`Network::unicast_up`] and [`Network::unicast_down`], fixed before its first hop —
//! runs one hop loop that costs the payload once and books the whole path once
//! ([`NetworkMetrics::open_path`]).  A flood books all its broadcasts through one such
//! booking too, and the epoch's merged frames all their attempts through one
//! [`NetworkMetrics::book_frames`].  The sink is mains-powered: the one drain helper
//! leaves it alone, so no hop loop asks.
//!
//! Per-epoch **report traffic** enters the façade through [`Network::send_report_up`],
//! where the frame scheduler ([`crate::schedule`]) hooks in.  With frame batching
//! enabled
//! ([`Network::set_frame_batching`]) those calls enqueue symbolic report intents and
//! the substrate flushes **one merged frame per (node, direction) per epoch** — one
//! preamble and header per hop instead of one per session — through the same
//! radio/energy/fault accounting as immediate sends.  With batching off (the default)
//! they transmit immediately, byte-identically to the pre-scheduler behaviour.

use crate::energy::{BatteryBank, EnergyModel};
use crate::fault::FaultPlan;
use crate::metrics::{AttemptCost, NetworkMetrics, PhaseTag, QueryScope};
use crate::radio::RadioModel;
use crate::rng::stream_rng;
use crate::schedule::{Fate, FrameScheduler};
use crate::topology::Deployment;
use crate::tree::RoutingTree;
use crate::types::{Epoch, NodeId, SINK};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Static configuration of a simulated network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkConfig {
    /// Radio byte/packet model.
    pub radio: RadioModel,
    /// Energy cost constants.
    pub energy: EnergyModel,
    /// Battery capacity per sensor node, in µJ.
    pub battery_capacity_uj: f64,
    /// Whether the fixed per-epoch node duties (sampling, idle listening) are charged.
    /// Experiments that only compare radio traffic switch this off.
    pub charge_epoch_baseline: bool,
    /// Seed for the substrate's own randomness (message loss).
    pub seed: u64,
    /// Injected faults (lossy links, node deaths, duty cycling) and the ARQ recovery
    /// policy.  Defaults to no faults.
    pub faults: FaultPlan,
}

impl NetworkConfig {
    /// The MICA2-calibrated configuration used by the paper-facing experiments.
    pub fn mica2() -> Self {
        Self {
            radio: RadioModel::mica2(),
            energy: EnergyModel::mica2(),
            battery_capacity_uj: 20.0e9,
            charge_epoch_baseline: true,
            seed: 0,
            faults: FaultPlan::default(),
        }
    }

    /// A configuration where only radio bytes cost anything — used by unit tests that
    /// want to reason about counts without constants getting in the way.
    pub fn ideal() -> Self {
        Self {
            radio: RadioModel::ideal(),
            energy: EnergyModel::radio_only(),
            battery_capacity_uj: 1.0e12,
            charge_epoch_baseline: false,
            seed: 0,
            faults: FaultPlan::default(),
        }
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the per-node battery capacity.
    pub fn with_battery_uj(mut self, uj: f64) -> Self {
        self.battery_capacity_uj = uj;
        self
    }

    /// Installs a fault-injection plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }
}

impl Default for NetworkConfig {
    fn default() -> Self {
        Self::mica2()
    }
}

/// A deployed, powered-up sensor network ready to execute queries.
#[derive(Debug, Clone)]
pub struct Network {
    deployment: Deployment,
    tree: RoutingTree,
    config: NetworkConfig,
    metrics: NetworkMetrics,
    liveness: Liveness,
    flood_tree: FloodTree,
    loss_rng: StdRng,
    /// One independent loss stream per installed query scope, created lazily.  Keyed
    /// streams make a query's loss draws a function of *its own* traffic order only,
    /// so a query registered in a shared epoch loop observes byte-identical channel
    /// behaviour to the same query running the loop alone.
    scope_loss_rngs: BTreeMap<QueryScope, StdRng>,
    current_scope: Option<QueryScope>,
    current_epoch: Epoch,
    /// The per-epoch report scheduler, present while frame batching is enabled (see
    /// [`Self::set_frame_batching`] and [`crate::schedule`]).
    frame_scheduler: Option<FrameScheduler>,
    /// The nodes a unicast payload visits, kept between calls so that probes allocate
    /// nothing in steady state.  Never read across calls.
    path: Vec<NodeId>,
}

/// The batteries and the participation view kept from them.  The view is exact at
/// every step: [`Network::begin_epoch`] recomputes it, and a battery that empties in
/// the middle of an epoch clears its node's flag in [`Self::drain`], the one place a
/// battery is drained.
#[derive(Debug, Clone)]
struct Liveness {
    batteries: BatteryBank,
    /// `participating[id]`: node `id` is awake, not scheduled dead and has energy left.
    /// Index 0 is the sink, which always participates.
    participating: Vec<bool>,
    /// Bumped whenever a flag changes; the [`FloodTree`] derived from the view is keyed
    /// on it.
    generation: u64,
}

impl Liveness {
    /// Full batteries, and the view of epoch 0, where a new network starts.
    fn new(n: usize, capacity_uj: f64, faults: &FaultPlan) -> Self {
        let mut liveness = Self {
            batteries: BatteryBank::uniform(n, capacity_uj),
            participating: vec![true; n + 1],
            generation: 0,
        };
        liveness.recompute(faults, 0);
        liveness
    }

    /// Recomputes every sensor node's flag for `epoch` from the fault plan and the
    /// batteries.
    fn recompute(&mut self, faults: &FaultPlan, epoch: Epoch) {
        let mut changed = false;
        for (id, flag) in self.participating.iter_mut().enumerate().skip(1) {
            let id = id as NodeId;
            let on = !self.batteries.get(id).is_depleted() && faults.participates(id, epoch);
            changed |= *flag != on;
            *flag = on;
        }
        self.generation += u64::from(changed);
    }

    fn participates(&self, node: NodeId) -> bool {
        self.participating[node as usize]
    }

    /// The nearest participating ancestor of `node` in `tree` (possibly the sink).
    fn effective_parent(&self, tree: &RoutingTree, node: NodeId) -> NodeId {
        let mut parent = tree.parent(node);
        while !self.participates(parent) {
            parent = tree.parent(parent);
        }
        parent
    }

    /// Drains `uj` from `node`'s battery; a node whose battery empties stops
    /// participating at once.  The sink is mains-powered and has no battery: draining
    /// it does nothing.
    fn drain(&mut self, node: NodeId, uj: f64) {
        if node == SINK {
            return;
        }
        self.batteries.drain(node, uj);
        if self.batteries.get(node).is_depleted() && self.participating[node as usize] {
            self.participating[node as usize] = false;
            self.generation += 1;
        }
    }
}

/// Who hears whom in [`Network::flood_down`], derived from the participation view and
/// rebuilt only when the view has changed since it was built.
#[derive(Debug, Clone, Default)]
struct FloodTree {
    /// The view generation the tree was built for.
    built_at: Option<u64>,
    /// `children[offsets[s]..offsets[s + 1]]` are the participating nodes whose
    /// effective parent is `s` (the sink included), ascending.
    offsets: Vec<u32>,
    children: Vec<NodeId>,
    /// The nodes with a non-empty bucket: the sink first, then in tree pre-order.
    senders: Vec<NodeId>,
}

impl FloodTree {
    /// Rebuilds the tree if the view changed since it was built: the participating
    /// nodes bucketed by effective parent with a counting sort (ascending ids within a
    /// bucket).
    fn refresh(&mut self, tree: &RoutingTree, view: &Liveness) {
        if self.built_at == Some(view.generation) {
            return;
        }
        let n = tree.num_nodes();
        let Self { offsets, children, senders, .. } = self;
        let parent = |id: usize| view.effective_parent(tree, id as NodeId) as usize;
        offsets.clear();
        offsets.resize(n + 2, 0);
        for id in 1..=n {
            if view.participating[id] {
                offsets[parent(id)] += 1;
            }
        }
        for sender in 1..=n + 1 {
            offsets[sender] += offsets[sender - 1];
        }
        // `offsets[s]` is now the end of sender `s`'s bucket; filling the buckets back
        // to front turns it into the start, and `offsets[s + 1]` is then the end.
        children.clear();
        children.resize(offsets[n + 1] as usize, 0);
        for id in (1..=n).rev() {
            if view.participating[id] {
                let bucket = &mut offsets[parent(id)];
                *bucket -= 1;
                children[*bucket as usize] = id as NodeId;
            }
        }
        senders.clear();
        let nodes = std::iter::once(SINK).chain(tree.pre_order_slice().iter().copied());
        senders.extend(nodes.filter(|&s| offsets[s as usize] < offsets[s as usize + 1]));
        self.built_at = Some(view.generation);
    }

    /// The flood tree's bucket of `sender`.
    fn children(&self, sender: NodeId) -> &[NodeId] {
        let s = sender as usize;
        &self.children[self.offsets[s] as usize..self.offsets[s + 1] as usize]
    }
}

/// Stream identifier of the per-`(sender, receiver, epoch)` merged-frame fate streams
/// (see [`Network::send_report_up`]).
pub(crate) const FRAME_FATE_STREAM: u64 = 0xF7_A3;

impl Network {
    /// Deploys a network: builds the routing tree and initialises batteries and metrics.
    pub fn new(deployment: Deployment, config: NetworkConfig) -> Self {
        let tree = RoutingTree::build(&deployment);
        let n = deployment.num_nodes();
        let liveness = Liveness::new(n, config.battery_capacity_uj, &config.faults);
        let loss_rng = stream_rng(config.seed, &[0x10_55]);
        Self {
            deployment,
            tree,
            config,
            metrics: NetworkMetrics::new(n),
            liveness,
            flood_tree: FloodTree::default(),
            loss_rng,
            scope_loss_rngs: BTreeMap::new(),
            current_scope: None,
            current_epoch: 0,
            frame_scheduler: None,
            path: Vec::new(),
        }
    }

    /// The static deployment.
    pub fn deployment(&self) -> &Deployment {
        &self.deployment
    }

    /// The routing tree.
    pub fn tree(&self) -> &RoutingTree {
        &self.tree
    }

    /// The network configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// The metrics ledger accumulated so far.
    pub fn metrics(&self) -> &NetworkMetrics {
        &self.metrics
    }

    /// The per-node batteries.
    pub fn batteries(&self) -> &BatteryBank {
        &self.liveness.batteries
    }

    /// Number of sensor nodes.
    pub fn num_nodes(&self) -> usize {
        self.deployment.num_nodes()
    }

    /// True while no node has exhausted its battery (the usual lifetime definition).
    pub fn is_alive(&self) -> bool {
        !self.liveness.batteries.any_depleted()
    }

    /// True when `node` can take part in the current epoch's protocol round: alive
    /// (battery and fault schedule) and awake (duty cycle).  The sink always
    /// participates.
    pub fn node_participating(&self, node: NodeId) -> bool {
        self.liveness.participates(node)
    }

    /// The nearest participating ancestor of `node` in the routing tree (possibly the
    /// sink).  This is where a node's reports go when its parent is dead or asleep —
    /// the degrade-to-partial tree repair documented in [`crate::fault`].
    pub fn effective_parent(&self, node: NodeId) -> NodeId {
        assert_ne!(node, SINK, "the sink has no parent");
        self.liveness.effective_parent(&self.tree, node)
    }

    /// Installs (or clears, with `None`) the query-attribution scope.  While a scope is
    /// installed every transmission is additionally booked to that scope's totals in
    /// the metrics ledger (see [`NetworkMetrics::set_scope`]), and message-loss draws
    /// come from a per-scope random stream derived from the substrate seed — so the
    /// channel a query observes depends only on its own traffic order, never on which
    /// other queries happen to share the epoch loop.
    pub fn set_query_scope(&mut self, scope: Option<QueryScope>) {
        self.current_scope = scope;
        self.metrics.set_scope(scope);
    }

    /// Lets go of everything kept for a query scope that will never be installed
    /// again: its loss stream, and its ledger rows, which fold into the retired bucket
    /// ([`NetworkMetrics::retire_scope`]).  Installing the scope afterwards would
    /// restart its loss stream from the beginning, so only a finished query's scope may
    /// be retired.
    pub fn retire_scope(&mut self, scope: QueryScope) {
        self.scope_loss_rngs.remove(&scope);
        self.metrics.retire_scope(scope);
    }

    /// Totals attributed to a query scope (zero if it never saw traffic).
    pub fn query_totals(&self, scope: QueryScope) -> crate::metrics::PhaseTotals {
        self.metrics.scope(scope)
    }

    /// Switches per-epoch report traffic between immediate per-session sends (off, the
    /// default — byte-identical to the pre-scheduler substrate) and the frame
    /// scheduler (on — [`Self::send_report_up`] enqueues report intents that
    /// [`Self::flush_frames`] merges into one frame per `(node, parent)` hop per
    /// epoch).  Disabling flushes anything still pending so no traffic is lost.
    pub fn set_frame_batching(&mut self, on: bool) {
        if on {
            if self.frame_scheduler.is_none() {
                self.frame_scheduler = Some(FrameScheduler::new(self.num_nodes()));
            }
        } else {
            self.flush_frames();
            self.frame_scheduler = None;
        }
    }

    /// True while report traffic is routed through the frame scheduler.
    pub fn frame_batching(&self) -> bool {
        self.frame_scheduler.is_some()
    }

    /// Marks the beginning of an epoch: recomputes which nodes participate in it, then
    /// charges every participating node its fixed sampling and idle-listening cost (if
    /// the configuration says so).  Nodes that are dead or duty-cycled asleep neither
    /// sample nor listen, so they are not charged.  Report frames still pending from
    /// the previous epoch are flushed first — a frame never outlives the epoch it was
    /// scheduled in.
    pub fn begin_epoch(&mut self, epoch: Epoch) {
        self.flush_frames();
        self.current_epoch = epoch;
        self.liveness.recompute(&self.config.faults, epoch);
        if !self.config.charge_epoch_baseline {
            return;
        }
        let cost = self.config.energy.epoch_baseline_cost();
        for id in 1..=self.num_nodes() as NodeId {
            if self.liveness.participates(id) {
                self.metrics.record_local_energy(id, epoch, cost);
                self.liveness.drain(id, cost);
            }
        }
    }

    /// The epoch driver, the one place the epoch contract is written: begins `epoch`,
    /// runs `sweep` (each query installs its own scope with [`Self::set_query_scope`]
    /// right before its traffic), clears the scope so nothing leaks into the next
    /// epoch's unscoped baseline, and flushes the epoch's merged report frames
    /// ([`Self::flush_frames`], a no-op unless frame batching is on), so every
    /// session's per-node reports leave as one frame per hop.  Returns what `sweep`
    /// returned.
    pub fn run_epoch<R>(&mut self, epoch: Epoch, sweep: impl FnOnce(&mut Self) -> R) -> R {
        self.begin_epoch(epoch);
        let out = sweep(self);
        self.set_query_scope(None);
        self.flush_frames();
        out
    }

    /// Charges node-local CPU work of processing `tuples` tuples (sorting, pruning,
    /// view maintenance).  The mains-powered sink pays nothing.
    pub fn charge_cpu(&mut self, node: NodeId, tuples: u32) {
        let cost = self.config.energy.cpu_cost(tuples);
        self.metrics.record_local_energy(node, self.current_epoch, cost);
        self.liveness.drain(node, cost);
    }

    /// Charges `pages` flash-page writes of `bytes` checkpoint payload on `node`'s
    /// local storage: the flash energy drains the node's battery and the page I/O is
    /// booked to the metrics storage ledger (see
    /// [`NetworkMetrics::record_page_writes`]).  The sink is mains-powered and keeps
    /// no modeled flash, and a node this deployment does not have (a checkpoint image
    /// may come from another one) has neither battery nor ledger row here.
    pub fn charge_page_writes(&mut self, node: NodeId, pages: u64, bytes: u64) {
        if self.deployment.node(node).is_none() {
            return;
        }
        let cost = crate::storage::FLASH_PAGE_WRITE_UJ * pages as f64;
        self.metrics.record_page_writes(node, self.current_epoch, pages, bytes, cost);
        self.liveness.drain(node, cost);
    }

    /// Charges `pages` flash-page reads on `node`'s local storage (snapshot restore).
    /// Counterpart of [`Self::charge_page_writes`].
    pub fn charge_page_reads(&mut self, node: NodeId, pages: u64) {
        if self.deployment.node(node).is_none() {
            return;
        }
        let cost = crate::storage::FLASH_PAGE_READ_UJ * pages as f64;
        self.metrics.record_page_reads(node, self.current_epoch, pages, cost);
        self.liveness.drain(node, cost);
    }

    /// The one hop loop of every unicast: carries one payload along `path` —
    /// `path[0]` sends to `path[1]`, which relays to `path[2]`, and so on — under the
    /// configured recovery policy, charging both ends of every attempt and recording
    /// each under `phase`.  Returns `true` when every hop delivered; the first hop that
    /// does not ends the path.
    ///
    /// * A sender that no longer participates stays silent: nothing is sent or
    ///   charged.  A relay can empty its battery on the hop that reaches it, so this
    ///   is checked per hop.
    /// * A lost attempt is one whose CRC check fails at the receiver: the receiver's
    ///   radio still spent the energy listening, so both ends pay; the sender then
    ///   retries up to [`FaultPlan::max_retransmits`] times before dropping the
    ///   payload.
    ///
    /// Every receiver listens: each caller fixes its path from participating nodes
    /// before the first hop, and a hop drains only its own two ends, so nothing drains
    /// a receiver before the hop that reaches it.  The payload is costed once for the
    /// whole path and booked through one [`NetworkMetrics::open_path`].
    fn carry(
        &mut self,
        path: &[NodeId],
        epoch: Epoch,
        data_tuples: u32,
        control_tuples: u32,
        phase: PhaseTag,
    ) -> bool {
        let Self { config, metrics, liveness, loss_rng, scope_loss_rngs, current_scope, .. } = self;
        let payload = config.radio.payload_bytes(data_tuples, control_tuples);
        let bytes = config.radio.on_air_bytes(payload);
        let cost = AttemptCost {
            bytes,
            tuples: data_tuples,
            tx_energy: config.energy.tx_cost(bytes),
            rx_energy: config.energy.rx_cost(bytes),
        };
        let loss = config.faults.link_loss;
        let max_attempts = 1 + config.faults.max_retransmits;
        let mut lost = || {
            loss > 0.0 && {
                let rng = match *current_scope {
                    Some(scope) => scope_loss_rngs
                        .entry(scope)
                        .or_insert_with(|| stream_rng(config.seed, &[0x10_55, 1 + u64::from(scope)])),
                    None => &mut *loss_rng,
                };
                rng.gen_bool(loss.min(1.0))
            }
        };
        let mut booking = metrics.open_path(epoch, phase, cost);
        let delivered = 'path: {
            for hop in path.windows(2) {
                let (from, to) = (hop[0], hop[1]);
                if !liveness.participates(from) {
                    break 'path false;
                }
                let mut attempt = 1;
                loop {
                    let lost = lost();
                    booking.record_attempt(from, &[to]);
                    liveness.drain(from, cost.tx_energy);
                    liveness.drain(to, cost.rx_energy);
                    if !lost {
                        break;
                    }
                    if attempt >= max_attempts {
                        booking.note_drop(from);
                        break 'path false;
                    }
                    attempt += 1;
                    booking.note_retransmission();
                }
            }
            true
        };
        booking.close();
        delivered
    }

    /// Sends a per-epoch data report from `from` towards the sink, routing around dead
    /// or sleeping ancestors.  Returns the node that received the report (its nearest
    /// participating ancestor, possibly the sink), or `None` when the sender is not
    /// participating or the payload was dropped.
    ///
    /// This is the preferred entry point for per-epoch report traffic: with frame
    /// batching enabled ([`Self::set_frame_batching`]) the call enqueues a symbolic
    /// report ([`FrameScheduler::enqueue`]) instead of transmitting, and the epoch's
    /// reports for this hop — across **all** sessions — leave as one merged frame at
    /// [`Self::flush_frames`].  The delivery outcome is still decided (and returned)
    /// immediately: a frame's fate is fixed when its first intent opens it, and every
    /// later rider shares it, because ARQ retransmits the whole frame and a dropped
    /// frame loses every scope's payload on the hop.
    pub fn send_report_up(
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
            // `effective_parent` only returns the sink or a participating node, so the
            // receiver always listens: a frame's fate is its channel's alone.
            let loss = self.config.faults.link_loss;
            let max_attempts = 1 + self.config.faults.max_retransmits;
            let scope = self.current_scope;
            let seed = self.config.seed;
            let payload = self.config.radio.payload_bytes(data_tuples, control_tuples);
            if let Some(scheduler) = self.frame_scheduler.as_mut() {
                // A merged frame carries several scopes at once, so its channel draws
                // come from a dedicated substrate stream keyed by `(sender, receiver,
                // epoch)` — a pure function of the hop and the epoch.  Keying per hop
                // (instead of drawing frames in open order from one stream) is what
                // makes the channel a session observes under batching invariant to
                // which other sessions happen to share its frames (ADR-005 fairness
                // note).  The stream is only seeded when a frame actually opens;
                // later riders on the same hop reuse the decided fate.
                let delivered = scheduler.enqueue(from, parent, scope, phase, payload, data_tuples, || {
                    let mut fate_rng = stream_rng(
                        seed,
                        &[FRAME_FATE_STREAM, u64::from(from), u64::from(parent), epoch],
                    );
                    Fate::draw(epoch, loss, max_attempts, &mut fate_rng)
                });
                return delivered.then_some(parent);
            }
        }
        self.carry(&[from, parent], epoch, data_tuples, control_tuples, phase).then_some(parent)
    }

    /// Flushes every pending merged frame through the radio/energy/fault accounting:
    /// per frame, the concatenated payload is costed as **one** transmission (one
    /// preamble, one header per physical fragment), replayed for as many ARQ attempts
    /// as the frame's fate used, with each riding scope charged its payload plus a
    /// pro-rata share of the shared overhead (see [`crate::schedule`]); one
    /// [`NetworkMetrics::book_frames`] books every frame's attempts.  A no-op unless
    /// frame batching is enabled and intents are pending.  [`Self::run_epoch`] calls
    /// this once per epoch, after every session's sweep.
    pub fn flush_frames(&mut self) {
        let Self { frame_scheduler, metrics, liveness, config, .. } = self;
        let Some(scheduler) = frame_scheduler else { return };
        metrics.book_frames(scheduler, &config.radio, |from, to, frame_bytes, attempts| {
            let tx = config.energy.tx_cost(frame_bytes);
            let rx = config.energy.rx_cost(frame_bytes);
            for _ in 0..attempts {
                liveness.drain(from, tx);
                liveness.drain(to, rx);
            }
            (tx, rx)
        });
    }

    /// Floods a control payload of `control_entries` entries from the sink to every
    /// participating node using local broadcasts: the sink and every participating
    /// internal node transmit once, every participating node receives once.  Returns
    /// the number of broadcast transmissions made.
    ///
    /// Dissemination is modelled as reliable (redundant flooding masks individual
    /// losses), but dead or sleeping nodes still miss the update — their subtrees hear
    /// it from the nearest participating ancestor instead.
    pub fn flood_down(&mut self, epoch: Epoch, control_entries: u32, phase: PhaseTag) -> u32 {
        let payload = self.config.radio.payload_bytes(0, control_entries);
        let bytes = self.config.radio.on_air_bytes(payload);
        let cost = AttemptCost {
            bytes,
            tuples: 0,
            tx_energy: self.config.energy.tx_cost(bytes),
            rx_energy: self.config.energy.rx_cost(bytes),
        };
        // Children re-attached past dead/sleeping ancestors, mirroring the upstream
        // effective-parent routing: who hears whom is fixed before the first broadcast.
        self.flood_tree.refresh(&self.tree, &self.liveness);
        let Self { flood_tree, liveness, metrics, .. } = self;
        let mut booking = metrics.open_path(epoch, phase, cost);
        let mut transmissions = 0;
        for &sender in &flood_tree.senders {
            // A sender emptied by an earlier broadcast of this flood stays silent.
            if !liveness.participates(sender) {
                continue;
            }
            let children = flood_tree.children(sender);
            booking.record_attempt(sender, children);
            liveness.drain(sender, cost.tx_energy);
            for &c in children {
                liveness.drain(c, cost.rx_energy);
            }
            transmissions += 1;
        }
        booking.close();
        transmissions
    }

    /// Sends `control_entries` control entries from the sink to a specific node, hop by
    /// hop down the routing path (through participating relays only).  Returns the
    /// number of hops taken when every hop delivered, or `None` when the target is
    /// unreachable (dead/asleep) or a hop dropped the payload after its retries.
    pub fn unicast_down(
        &mut self,
        to: NodeId,
        epoch: Epoch,
        control_entries: u32,
        phase: PhaseTag,
    ) -> Option<u32> {
        if !self.node_participating(to) {
            return None;
        }
        // The relays are found walking up from the target; the hops run downwards.
        let mut path = self.route_to_sink(to);
        path.reverse();
        let delivered = self.carry(&path, epoch, 0, control_entries, phase);
        let hops = path.len() as u32 - 1;
        self.path = path;
        delivered.then_some(hops)
    }

    /// The nodes from `node` up to the sink, both included, through participating
    /// relays only, in the buffer the `path` field lends; the caller puts it back.
    fn route_to_sink(&mut self, node: NodeId) -> Vec<NodeId> {
        let mut path = std::mem::take(&mut self.path);
        path.clear();
        let mut relay = node;
        path.push(relay);
        while relay != SINK {
            relay = self.effective_parent(relay);
            path.push(relay);
        }
        path
    }

    /// Sends `data_tuples` data tuples from a node to the sink, hop by hop up the
    /// routing path (used for probe replies, which bypass epoch-synchronous merging).
    /// Returns the number of hops taken when every hop delivered, or `None` when the
    /// sender is not participating or a hop dropped the payload after its retries.
    pub fn unicast_up(
        &mut self,
        from: NodeId,
        epoch: Epoch,
        data_tuples: u32,
        phase: PhaseTag,
    ) -> Option<u32> {
        if !self.node_participating(from) {
            return None;
        }
        // Fixed before the first hop: a hop drains only its own two ends, and a node's
        // effective parent depends only on the nodes above it.
        let path = self.route_to_sink(from);
        let delivered = self.carry(&path, epoch, data_tuples, 0, phase);
        let hops = path.len() as u32 - 1;
        self.path = path;
        delivered.then_some(hops)
    }

    /// Convenience for experiments: total energy (µJ) the sensor nodes have consumed.
    pub fn total_energy_uj(&self) -> f64 {
        self.liveness.batteries.total_consumed_uj()
    }
}

#[cfg(test)]
impl Network {
    /// True if the given node still has energy and is not scheduled dead by the fault
    /// plan as of the current epoch.
    pub(crate) fn node_alive(&self, node: NodeId) -> bool {
        node == SINK
            || (!self.liveness.batteries.get(node).is_depleted()
                && !self.config.faults.is_scheduled_dead(node, self.current_epoch))
    }

    /// Number of merged frames currently awaiting [`Self::flush_frames`].
    fn pending_report_frames(&self) -> usize {
        self.frame_scheduler.as_ref().map_or(0, FrameScheduler::pending_frames)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Deployment;

    fn net(config: NetworkConfig) -> Network {
        Network::new(Deployment::figure1(), config)
    }

    /// An unbatched one-tuple Update report from `from` to its effective parent: one
    /// hop.  True when it was delivered.
    fn report(n: &mut Network, from: NodeId, epoch: Epoch) -> bool {
        n.send_report_up(from, epoch, 1, 0, PhaseTag::Update).is_some()
    }

    #[test]
    fn send_charges_both_endpoints_and_counts_bytes() {
        let mut n = net(NetworkConfig::ideal());
        assert_eq!(n.send_report_up(9, 0, 3, 0, PhaseTag::Update), Some(4));
        assert_eq!(n.metrics().node(9).tx_messages, 1);
        assert_eq!(n.metrics().node(9).tx_bytes, 3, "ideal radio: one byte per tuple");
        assert_eq!(n.metrics().node(4).rx_bytes, 3);
        assert!((n.batteries().get(9).capacity_uj() - n.batteries().get(9).remaining_uj() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn send_report_to_parent_uses_the_routing_tree() {
        let mut n = net(NetworkConfig::ideal());
        assert_eq!(n.send_report_up(9, 0, 1, 0, PhaseTag::Update), Some(4));
        assert_eq!(n.metrics().node(4).rx_messages, 1, "node 9's parent is node 4 in Figure 1");
    }

    #[test]
    fn begin_epoch_charges_baseline_when_enabled() {
        let mut n = net(NetworkConfig::mica2());
        n.begin_epoch(0);
        let per_node = n.config().energy.epoch_baseline_cost();
        assert!((n.metrics().node(1).energy_uj - per_node).abs() < 1e-9);
        assert!((n.metrics().totals().energy_uj - per_node * 9.0).abs() < 1e-9);

        let mut ideal = net(NetworkConfig::ideal());
        ideal.begin_epoch(0);
        assert_eq!(ideal.metrics().totals().energy_uj, 0.0);
    }

    #[test]
    fn flood_down_transmits_once_per_internal_node() {
        let mut n = net(NetworkConfig::ideal());
        let tx = n.flood_down(0, 2, PhaseTag::Dissemination);
        // Internal nodes of the Figure-1 tree: sink, 2, 5, 7, 4 → 5 broadcasts.
        assert_eq!(tx, 5);
        assert_eq!(n.metrics().totals().messages, 5);
        // Every sensor node received the flood exactly once.
        for id in n.deployment().node_ids() {
            assert_eq!(n.metrics().node(id).rx_messages, 1, "node {id} should hear the flood once");
        }
    }

    #[test]
    fn unicast_down_and_up_walk_the_tree_path() {
        let mut n = net(NetworkConfig::ideal());
        let down = n.unicast_down(9, 3, 1, PhaseTag::Probe);
        assert_eq!(down, Some(3), "sink → 7 → 4 → 9 is three hops");
        let up = n.unicast_up(9, 3, 2, PhaseTag::Probe);
        assert_eq!(up, Some(3));
        assert_eq!(n.metrics().phase(PhaseTag::Probe).messages, 6);
    }

    #[test]
    fn lossy_radio_sometimes_drops_messages_but_sender_still_pays() {
        let config = NetworkConfig {
            faults: FaultPlan::none().with_link_loss(0.5),
            ..NetworkConfig::mica2()
        };
        let mut n = net(config);
        let mut delivered = 0;
        for i in 0..200 {
            if report(&mut n, 9, i) {
                delivered += 1;
            }
        }
        assert!(delivered > 50 && delivered < 150, "roughly half should get through, got {delivered}");
        assert_eq!(n.metrics().node(9).tx_messages, 200, "sender pays for every attempt");
        assert_eq!(n.metrics().node(4).rx_messages, 200);
        assert!(n.metrics().node(4).energy_uj < n.metrics().node(9).energy_uj);
    }

    #[test]
    fn node_death_is_detected() {
        let config = NetworkConfig::mica2().with_battery_uj(100.0);
        let mut n = net(config);
        assert!(n.is_alive());
        n.begin_epoch(0); // baseline cost of 140 µJ exceeds the 100 µJ battery
        assert!(!n.is_alive());
        assert!(!n.node_alive(1));
        assert!(n.node_alive(SINK), "the sink is mains powered");
    }

    #[test]
    fn retransmits_recover_most_losses_and_are_accounted() {
        let config = NetworkConfig {
            faults: FaultPlan::none().with_link_loss(0.5).with_retransmits(8),
            ..NetworkConfig::mica2()
        };
        let mut n = net(config);
        let mut delivered = 0;
        for i in 0..100 {
            if report(&mut n, 9, i) {
                delivered += 1;
            }
        }
        // Residual drop probability is 0.5^9 ≈ 0.2 %, so effectively everything lands.
        assert!(delivered >= 99, "ARQ should recover almost every payload, got {delivered}");
        let totals = n.metrics().totals();
        assert!(totals.retransmissions > 0, "half the first attempts are lost");
        assert_eq!(
            totals.messages,
            100 + totals.retransmissions,
            "every attempt is a message on the air"
        );
        assert_eq!(totals.dropped_messages as usize, 100 - delivered);
    }

    #[test]
    fn scheduled_node_death_silences_the_node_and_reroutes_children() {
        let config =
            NetworkConfig::ideal().with_faults(FaultPlan::none().with_node_death(4, 5));
        let mut n = net(config);
        n.begin_epoch(4);
        assert!(n.node_participating(4));
        assert_eq!(n.effective_parent(9), 4);

        n.begin_epoch(5);
        assert!(!n.node_participating(4));
        assert!(!n.node_alive(4));
        assert_eq!(n.effective_parent(9), 7, "node 9 routes around its dead parent to node 7");
        // The dead node cannot send: nothing leaves its radio.
        assert!(!report(&mut n, 4, 5));
        assert_eq!(n.metrics().node(4).tx_messages, 0);
        assert_eq!(n.metrics().totals().messages, 0);
        // …and its child's report goes past it.
        assert_eq!(n.send_report_up(9, 5, 1, 0, PhaseTag::Update), Some(7));
        assert_eq!(n.metrics().node(4).rx_messages, 0);
    }

    #[test]
    fn duty_cycled_nodes_sleep_and_wake_on_schedule() {
        use crate::fault::DutyCycle;
        let config = NetworkConfig::ideal()
            .with_faults(FaultPlan::none().with_duty_cycle(DutyCycle::new(4, 3)));
        let mut n = net(config);
        // Node 1 sleeps when (epoch + 1) % 4 == 3, i.e. epochs 2, 6, 10, …
        n.begin_epoch(2);
        assert!(!n.node_participating(1));
        assert!(n.node_alive(1), "sleeping is not death");
        n.begin_epoch(3);
        assert!(n.node_participating(1));
        // A 9-node deployment has some nodes asleep each epoch under this schedule.
        n.begin_epoch(0);
        let awake = n.deployment().node_ids().into_iter().filter(|&id| n.node_participating(id)).count();
        assert!((6..9).contains(&awake), "roughly 3/4 of the nodes are awake, got {awake}");
    }

    #[test]
    fn flood_down_skips_sleeping_subtree_roots_but_reaches_their_children() {
        let config =
            NetworkConfig::ideal().with_faults(FaultPlan::none().with_node_death(4, 0));
        let mut n = net(config);
        n.begin_epoch(0);
        let tx = n.flood_down(0, 1, PhaseTag::Dissemination);
        assert!(tx >= 1);
        // Node 9 (child of the dead node 4) still hears the flood, from node 7.
        assert_eq!(n.metrics().node(9).rx_messages, 1);
        assert_eq!(n.metrics().node(4).rx_messages, 0, "the dead node hears nothing");
    }

    #[test]
    fn unicast_to_dead_node_fails_without_traffic() {
        let config =
            NetworkConfig::ideal().with_faults(FaultPlan::none().with_node_death(9, 0));
        let mut n = net(config);
        n.begin_epoch(0);
        assert_eq!(n.unicast_down(9, 0, 1, PhaseTag::Probe), None);
        assert_eq!(n.unicast_up(9, 0, 1, PhaseTag::Probe), None);
        assert_eq!(n.metrics().totals().messages, 0);
    }

    #[test]
    fn scoped_loss_streams_are_independent_of_interleaving() {
        let config = || NetworkConfig {
            faults: FaultPlan::none().with_link_loss(0.4),
            ..NetworkConfig::mica2().with_seed(11)
        };
        // Run A: scope-3 sends interleaved with scope-5 sends sharing the substrate.
        let mut a = net(config());
        let mut a3 = Vec::new();
        for i in 0..60 {
            a.set_query_scope(Some(3));
            a3.push(report(&mut a, 9, i));
            a.set_query_scope(Some(5));
            report(&mut a, 8, i);
        }
        // Run B: scope 3 runs alone.
        let mut b = net(config());
        b.set_query_scope(Some(3));
        let b3: Vec<bool> = (0..60).map(|i| report(&mut b, 9, i)).collect();
        assert_eq!(a3, b3, "a scope's channel must not depend on other scopes' traffic");
        // And the attribution ledger sees only the scope's own traffic.
        assert_eq!(a.query_totals(3).messages, b.query_totals(3).messages);
        assert_eq!(a.query_totals(5).messages, 60);
        assert_eq!(b.query_totals(5).messages, 0);
    }

    #[test]
    fn frame_batching_merges_reports_into_one_frame_per_hop() {
        let mut n = net(NetworkConfig::ideal());
        n.set_frame_batching(true);
        assert!(n.frame_batching());
        n.begin_epoch(0);
        // Two sessions report from node 9 (parent 4), one from node 8 (parent 7).
        n.set_query_scope(Some(0));
        assert_eq!(n.send_report_up(9, 0, 2, 0, PhaseTag::Update), Some(4));
        assert_eq!(n.send_report_up(8, 0, 1, 0, PhaseTag::Update), Some(7));
        n.set_query_scope(Some(1));
        assert_eq!(n.send_report_up(9, 0, 3, 0, PhaseTag::Update), Some(4));
        n.set_query_scope(None);
        assert_eq!(n.pending_report_frames(), 2);
        assert_eq!(n.metrics().totals().messages, 0, "intents are symbolic until the flush");
        n.flush_frames();
        assert_eq!(n.pending_report_frames(), 0);
        // One frame per (node, parent) hop: 9→4 merged across both scopes, 8→7 solo.
        assert_eq!(n.metrics().totals().messages, 2);
        assert_eq!(n.metrics().node(9).tx_messages, 1, "both scopes ride one frame");
        assert_eq!(n.metrics().node(9).tx_bytes, 5, "ideal radio: a byte per tuple, no overhead");
        assert_eq!(n.metrics().node(4).rx_messages, 1);
        // Attribution partitions the bytes; both riders count the shared frame.
        assert_eq!(n.query_totals(0).bytes, 3, "2 tuples from s9 + 1 from s8");
        assert_eq!(n.query_totals(1).bytes, 3);
        assert_eq!(n.query_totals(0).messages, 2);
        assert_eq!(n.query_totals(1).messages, 1);
    }

    #[test]
    fn merged_frames_save_the_per_session_overhead_on_the_real_radio() {
        let run = |batched: bool| {
            let mut n = net(NetworkConfig::mica2());
            n.set_frame_batching(batched);
            n.begin_epoch(0);
            for scope in 0..4 {
                n.set_query_scope(Some(scope));
                for node in [9, 8, 4] {
                    n.send_report_up(node, 0, 1, 0, PhaseTag::Update);
                }
            }
            n.set_query_scope(None);
            n.flush_frames();
            n.metrics().totals()
        };
        let unbatched = run(false);
        let batched = run(true);
        assert_eq!(unbatched.tuples, batched.tuples, "the same payload moves either way");
        assert_eq!(unbatched.messages, 12);
        assert_eq!(batched.messages, 3, "one merged frame per hop instead of four");
        assert!(
            batched.bytes < unbatched.bytes,
            "merging must save preamble/header overhead: {} vs {}",
            batched.bytes,
            unbatched.bytes
        );
        assert!(batched.energy_uj < unbatched.energy_uj);
    }

    #[test]
    fn a_dropped_frame_loses_every_riders_payload() {
        let faults = FaultPlan::none().with_link_loss(1.0);
        let mut n = net(NetworkConfig::ideal().with_faults(faults));
        n.set_frame_batching(true);
        n.begin_epoch(0);
        n.set_query_scope(Some(0));
        assert_eq!(n.send_report_up(9, 0, 1, 0, PhaseTag::Update), None, "the frame's fate is shared");
        n.set_query_scope(Some(1));
        assert_eq!(n.send_report_up(9, 0, 1, 0, PhaseTag::Update), None);
        n.set_query_scope(None);
        n.flush_frames();
        assert_eq!(n.metrics().totals().dropped_messages, 1, "one frame dropped on the air");
        assert_eq!(n.query_totals(0).dropped_messages, 1, "…but every rider lost its payload");
        assert_eq!(n.query_totals(1).dropped_messages, 1);
        assert_eq!(n.metrics().node(4).rx_messages, 1, "the receiver still listened to the attempt");
    }

    #[test]
    fn frame_fate_is_keyed_by_hop_and_epoch_not_by_open_order() {
        // Two runs over a half-broken link: in run A another node's frame opens first
        // every epoch, in run B the observed hop's frame opens alone.  The hop's
        // delivery outcomes must be identical — the fate stream is keyed by
        // (sender, receiver, epoch), not drawn in frame-open order.
        let config = || NetworkConfig {
            faults: FaultPlan::none().with_link_loss(0.5),
            ..NetworkConfig::mica2().with_seed(23)
        };
        let run = |with_decoy: bool| {
            let mut n = net(config());
            n.set_frame_batching(true);
            (0..40u64)
                .map(|e| {
                    n.begin_epoch(e);
                    if with_decoy {
                        n.send_report_up(8, e, 1, 0, PhaseTag::Update);
                    }
                    let delivered = n.send_report_up(9, e, 1, 0, PhaseTag::Update).is_some();
                    n.flush_frames();
                    delivered
                })
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(true), run(false), "the 9->4 channel must not depend on 8->7 traffic");
    }

    #[test]
    fn disabling_batching_or_a_new_epoch_flushes_pending_intents() {
        let mut n = net(NetworkConfig::ideal());
        n.set_frame_batching(true);
        n.begin_epoch(0);
        n.send_report_up(9, 0, 1, 0, PhaseTag::Update);
        assert_eq!(n.pending_report_frames(), 1);
        n.begin_epoch(1);
        assert_eq!(n.pending_report_frames(), 0, "a frame never outlives its epoch");
        assert_eq!(n.metrics().epoch(0).messages, 1, "…and is booked under the epoch it served");

        n.send_report_up(9, 1, 1, 0, PhaseTag::Update);
        n.set_frame_batching(false);
        assert!(!n.frame_batching());
        assert_eq!(n.metrics().totals().messages, 2, "disabling flushes, losing nothing");
    }

    #[test]
    fn deterministic_given_the_same_seed() {
        let run = |seed: u64| {
            let config = NetworkConfig {
                faults: FaultPlan::none().with_link_loss(0.3),
                ..NetworkConfig::mica2().with_seed(seed)
            };
            let mut n = net(config);
            (0..50).filter(|&i| report(&mut n, 9, i)).count()
        };
        assert_eq!(run(7), run(7));
    }
}
