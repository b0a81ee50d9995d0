//! The per-epoch frame scheduler: cross-session traffic sharing for data reports.
//!
//! Since the multi-query engine (ADR-003) every session sharing the epoch loop still
//! paid its own radio frame per node per epoch — N sessions, N headers, N preambles.
//! The per-transmission overhead, not the payload, dominates the radio budget of
//! spot-sensing deployments, so this module lets the substrate *piggy-back* all
//! sessions' per-node report traffic into **one merged frame per (node, direction) per
//! epoch**: one preamble, one header per physical fragment, concatenated payloads.
//!
//! The scheduler is intent-based.  Algorithms no longer cause an immediate
//! transmission when they report towards the sink; instead
//! [`crate::sim::Network::send_report_up`] (the preferred entry point for report
//! traffic) enqueues a symbolic report — *(scope, node, phase, payload bytes, data
//! tuples)* — into the epoch's [`FrameScheduler`].  At the end of the epoch sweep
//! ([`crate::sim::Network::run_epoch`] does this) the ledger books every pending frame
//! ([`crate::metrics::NetworkMetrics::book_frames`]) and the batteries are charged.
//!
//! ## Loss semantics
//!
//! A frame is one link-layer unit: ARQ retransmits the **whole frame**, and a frame
//! dropped after its retries drops **every** scope's payload on that hop.  The fate of
//! a frame (delivered or not, and after how many attempts) is decided once, when its
//! first intent arrives, from a dedicated substrate loss stream keyed by the frame's
//! `(sender, receiver, epoch)` hop — so an algorithm learns the delivery outcome at
//! enqueue time (its in-network protocol needs it to route views), while the
//! bytes/energy are charged at flush time when the final merged payload is known.  All
//! sessions riding a frame observe the *same* channel event, which is exactly what a
//! shared physical frame implies; and because the stream is a pure function of the hop
//! and the epoch (never of frame-open order), the channel a session observes under
//! batching is **invariant to which other sessions are co-registered** — loss
//! reproducibility per session survives batching.  The per-scope loss streams of the
//! legacy (unbatched) path remain byte-identical to ADR-003 when batching is off.
//!
//! ## Attribution policy
//!
//! Each scope riding a frame is charged its own payload bytes plus a pro-rata share of
//! the shared frame overhead (preamble + fragment headers), proportional to its payload
//! size, rounded down.  The bytes the rounding leaves are handed out one at a time in
//! enqueue order (under the engine this is ascending session-id order), one to each
//! slice while they last; only if more bytes are left than there are slices — a frame
//! whose payload is empty — does the opener take the rest.  So two empty riders of a
//! 15-byte frame are charged 14 and 1 bytes.  The shares partition the frame exactly,
//! which gives the conservation law `Σ per-scope bytes = ledger total bytes` whenever
//! all traffic is scoped.  Frame-level *events* (messages, retransmissions, drops)
//! cannot be split: they are booked once in the global ledgers under the frame's label
//! phase (the phase of the intent that opened it) and once per riding scope — so under
//! batching a scope's `messages` counts the frames its payload rode on, and the scoped
//! sums may exceed the global message count.  See ADR-004 for the full policy.
//!
//! ## Host representation
//!
//! Each sender has one slot: its receiver, its frame's fate, running payload and tuple
//! totals, and a slice buffer the slot keeps across epochs.  A sender whose receiver
//! changed within the epoch (its parent's battery gave out) or that has no slot opens
//! its frame on a short side list.  Every slice records its *rider* — the scope it was
//! enqueued under, one entry per scope in the epoch's rider table, which also lists the
//! phases each rider carries — so the ledger finds each rider's rows once per flush
//! (ADR-004, "Substrate kernel v4").  How frames are stored is host detail; that they
//! *drain* in `(sender, receiver)` order, and a frame's slices in enqueue order, is
//! not — ledgers and batteries depend on it (ADR-004, "Host representation").

use crate::metrics::{PhaseTag, QueryScope};
use crate::radio::RadioModel;
use crate::types::{Epoch, NodeId};
use rand::rngs::StdRng;
use rand::Rng;

/// What happens to a frame on the air, decided when its first intent opens it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fate {
    /// The epoch the frame belongs to.
    pub epoch: Epoch,
    /// Whether the frame's payload is delivered (after `attempts` attempts).
    pub delivered: bool,
    /// Number of on-air attempts the frame takes (1 + retransmissions, so at least 1).
    pub attempts: u32,
}

impl Fate {
    /// Draws a frame's fate from the frame loss stream: attempts are drawn exactly
    /// like an unbatched [`crate::sim::Network::send_report_up`] draws them for its one
    /// hop, but once per *frame* rather than once per session report.  The receiver is
    /// a participating node or the sink: a report goes to its sender's effective
    /// parent, which always listens.
    pub(crate) fn draw(epoch: Epoch, loss: f64, max_attempts: u32, rng: &mut StdRng) -> Self {
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
        Self { epoch, delivered, attempts }
    }
}

/// The bit of `phase` in a rider's phase mask.
pub(crate) fn phase_bit(phase: PhaseTag) -> u8 {
    1 << phase as u8
}

/// A scope with a slice pending this epoch (`None`: unscoped callers), and the phases
/// its slices carry, one bit per [`PhaseTag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Rider {
    pub(crate) scope: Option<QueryScope>,
    pub(crate) phases: u8,
}

/// One scope's payload on a frame, as enqueued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Slice {
    /// Index of the slice's scope in the rider table.
    pub(crate) rider: u32,
    pub(crate) phase: PhaseTag,
    /// The slice's payload bytes while it is enqueued; once the frame is costed
    /// ([`Frame::cost`]), the on-air bytes attributed to it: its payload plus its share
    /// of the frame overhead.
    pub(crate) bytes: u32,
    /// Result tuples the slice carries.
    pub(crate) tuples: u32,
}

/// A frame being assembled for one hop of the current epoch: its fate is fixed when it
/// opens, its payload grows as further sessions piggy-back onto it.
#[derive(Debug, Clone, Default)]
pub(crate) struct Frame {
    pub(crate) fate: Fate,
    /// The slices' payload bytes, summed as they are enqueued.
    pub(crate) payload: u32,
    /// The slices' result tuples, summed as they are enqueued.
    pub(crate) tuples: u32,
    /// The piggy-backed slices, in enqueue order.
    pub(crate) slices: Vec<Slice>,
}

impl Frame {
    /// Empties the frame for a new hop, keeping its slice buffer.
    fn open(&mut self, fate: Fate) {
        self.fate = fate;
        self.payload = 0;
        self.tuples = 0;
        self.slices.clear();
    }

    fn push(&mut self, slice: Slice) {
        self.payload += slice.bytes;
        self.tuples += slice.tuples;
        self.slices.push(slice);
    }

    /// Splits the frame's on-air bytes across its slices per the attribution policy
    /// (module docs) and returns them: each slice's bytes become its payload plus
    /// `overhead × payload_i / payload` rounded down, and then one more byte for each
    /// of the first slices while bytes are left, the opener taking any still left.
    pub(crate) fn cost(&mut self, radio: &RadioModel) -> u32 {
        let payload = self.payload;
        let frame_bytes = radio.on_air_bytes(payload);
        let overhead = frame_bytes - payload;
        let mut handed_out = 0;
        for slice in &mut self.slices {
            let share = if payload == 0 {
                0
            } else {
                (u64::from(overhead) * u64::from(slice.bytes) / u64::from(payload)) as u32
            };
            slice.bytes += share;
            handed_out += slice.bytes;
        }
        let mut remainder = frame_bytes - handed_out;
        for slice in &mut self.slices {
            if remainder == 0 {
                break;
            }
            slice.bytes += 1;
            remainder -= 1;
        }
        if let Some(opener) = self.slices.first_mut() {
            opener.bytes += remainder;
        }
        frame_bytes
    }
}

/// One sender's frame of the epoch.
#[derive(Debug, Clone, Default)]
struct Slot {
    open: bool,
    to: NodeId,
    frame: Frame,
}

/// The per-epoch report scheduler: frames under assembly, one per `(sender,
/// receiver)` hop, and the rider table.  Owned by [`crate::sim::Network`] while frame
/// batching is enabled; filled by [`Self::enqueue`] and emptied by
/// [`crate::metrics::NetworkMetrics::book_frames`].  A steady-state epoch allocates
/// nothing here: slots keep their slice buffers and the rider table its capacity.
#[derive(Debug, Clone)]
pub struct FrameScheduler {
    /// `slots[sender]`: the frame the sender opened first this epoch.
    slots: Vec<Slot>,
    /// How many slots are open.
    open_slots: usize,
    /// Frames of senders whose receiver changed within the epoch or that have no slot.
    side: Vec<((NodeId, NodeId), Frame)>,
    /// Every scope with a slice pending, in order of first enqueue.
    riders: Vec<Rider>,
    /// The scope and phase of the latest enqueue, and its rider: sessions enqueue in
    /// runs of one scope and mostly one phase.
    last: Option<(Option<QueryScope>, PhaseTag)>,
    last_rider: u32,
}

impl FrameScheduler {
    /// Creates an empty scheduler for a network of `num_nodes` sensor nodes.
    pub fn new(num_nodes: usize) -> Self {
        Self {
            slots: vec![Slot::default(); num_nodes + 1],
            open_slots: 0,
            side: Vec::new(),
            riders: Vec::new(),
            last: None,
            last_rider: 0,
        }
    }

    /// Enqueues a report of `payload` bytes carrying `tuples` result tuples from `from`
    /// to `to`, under `scope` and `phase`, onto the hop's frame, opening the frame with
    /// the fate `open` draws on first use.  Returns whether the frame is delivered.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn enqueue(
        &mut self,
        from: NodeId,
        to: NodeId,
        scope: Option<QueryScope>,
        phase: PhaseTag,
        payload: u32,
        tuples: u32,
        open: impl FnOnce() -> Fate,
    ) -> bool {
        let rider = if self.last == Some((scope, phase)) { self.last_rider } else { self.rider(scope, phase) };
        let frame = self.frame(from, to, open);
        frame.push(Slice { rider, phase, bytes: payload, tuples });
        frame.fate.delivered
    }

    /// The rider of `scope`, entered in the table on its first slice, with `phase`
    /// added to the phases it carries; remembered for the enqueues that follow.
    #[inline(never)]
    fn rider(&mut self, scope: Option<QueryScope>, phase: PhaseTag) -> u32 {
        let at = self.riders.iter().position(|rider| rider.scope == scope).unwrap_or_else(|| {
            self.riders.push(Rider { scope, phases: 0 });
            self.riders.len() - 1
        });
        self.riders[at].phases |= phase_bit(phase);
        self.last = Some((scope, phase));
        self.last_rider = u32::try_from(at).expect("fewer than 2³² scopes report in one epoch");
        self.last_rider
    }

    /// The frame for `(from, to)`, opened with `open` on first use.
    #[inline]
    fn frame(&mut self, from: NodeId, to: NodeId, open: impl FnOnce() -> Fate) -> &mut Frame {
        let Self { slots, open_slots, side, .. } = self;
        match slots.get_mut(from as usize) {
            Some(slot) if !slot.open => {
                slot.open = true;
                slot.to = to;
                slot.frame.open(open());
                *open_slots += 1;
                return &mut slot.frame;
            }
            Some(slot) if slot.to == to => return &mut slot.frame,
            // The sender's receiver changed within the epoch, or the sender is not a
            // node of this network and has no slot: rare, so a scan.
            _ => {}
        }
        let at = side.iter().position(|(hop, _)| *hop == (from, to)).unwrap_or_else(|| {
            let mut frame = Frame::default();
            frame.open(open());
            side.push(((from, to), frame));
            side.len() - 1
        });
        &mut side[at].1
    }

    /// Every scope with a slice pending, in order of first enqueue; a slice's `rider`
    /// indexes it.
    pub(crate) fn riders(&self) -> &[Rider] {
        &self.riders
    }

    /// True while no frame is pending.
    pub(crate) fn is_empty(&self) -> bool {
        self.open_slots == 0 && self.side.is_empty()
    }

    /// Hands every pending frame to `visit` in `(from, to)` order and leaves the
    /// scheduler empty: the open slots in ascending sender order, with the side list,
    /// sorted, merged in.
    pub(crate) fn drain(&mut self, mut visit: impl FnMut(NodeId, NodeId, &mut Frame)) {
        let Self { slots, open_slots, side, riders, .. } = self;
        side.sort_unstable_by_key(|(hop, _)| *hop);
        let mut side_frames = side.iter_mut().peekable();
        if *open_slots > 0 {
            for (from, slot) in slots.iter_mut().enumerate().filter(|(_, slot)| slot.open) {
                let hop = (from as NodeId, slot.to);
                while let Some(((from, to), frame)) = side_frames.next_if(|(earlier, _)| *earlier < hop) {
                    visit(*from, *to, frame);
                }
                visit(hop.0, hop.1, &mut slot.frame);
                slot.open = false;
            }
        }
        for ((from, to), frame) in side_frames {
            visit(*from, *to, frame);
        }
        *open_slots = 0;
        side.clear();
        riders.clear();
        self.last = None;
    }
}

#[cfg(test)]
impl FrameScheduler {
    /// Number of frames currently under assembly.
    pub(crate) fn pending_frames(&self) -> usize {
        self.open_slots + self.side.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::stream_rng;

    /// A frame carrying one scope's slice per payload, in order.
    fn frame(payloads: &[u32]) -> Frame {
        let mut frame = Frame::default();
        frame.open(Fate { epoch: 0, delivered: true, attempts: 1 });
        for (rider, &payload) in payloads.iter().enumerate() {
            frame.push(Slice { rider: rider as u32, phase: PhaseTag::Update, bytes: payload, tuples: 1 });
        }
        frame
    }

    fn shares(frame: &Frame) -> Vec<u32> {
        frame.slices.iter().map(|s| s.bytes).collect()
    }

    #[test]
    fn shares_partition_the_frame_exactly() {
        let radio = RadioModel::mica2();
        for tuples in [vec![1], vec![1, 1], vec![1, 2, 3, 5], vec![7, 1]] {
            let payloads: Vec<u32> = tuples.iter().map(|&t| radio.payload_bytes(t, 0)).collect();
            let mut frame = frame(&payloads);
            let frame_bytes = frame.cost(&radio);
            assert_eq!(shares(&frame).iter().sum::<u32>(), frame_bytes, "shares must partition the frame: {tuples:?}");
            assert_eq!(frame_bytes, radio.on_air_bytes(payloads.iter().sum()));
            // Every slice is charged at least its own payload.
            for (share, payload) in shares(&frame).into_iter().zip(&payloads) {
                assert!(share >= *payload);
            }
        }
    }

    #[test]
    fn remainder_bytes_go_to_the_earliest_slices() {
        let radio = RadioModel::mica2();
        let mut frame = frame(&[radio.payload_bytes(1, 0); 2]);
        frame.cost(&radio);
        // Equal payloads: any odd remainder lands on the first (lower-scope) slice.
        let [first, second] = shares(&frame)[..] else { panic!("two slices") };
        assert!(first >= second);
        assert!(first - second <= 1);
    }

    #[test]
    fn empty_payload_frame_charges_the_opener() {
        let radio = RadioModel::mica2();
        let mut frame = frame(&[0]);
        let frame_bytes = frame.cost(&radio);
        assert_eq!(frame_bytes, radio.on_air_bytes(0));
        assert_eq!(shares(&frame), [frame_bytes]);
    }

    #[test]
    fn empty_riders_get_a_byte_each_in_enqueue_order_and_the_opener_the_rest() {
        let radio = RadioModel::mica2();
        let frame_bytes = radio.on_air_bytes(0);
        for (riders, expected) in [(2, vec![frame_bytes - 1, 1]), (3, vec![frame_bytes - 2, 1, 1])] {
            let mut frame = frame(&vec![0; riders]);
            assert_eq!(frame.cost(&radio), frame_bytes);
            assert_eq!(shares(&frame), expected, "{riders} empty riders");
        }
    }

    #[test]
    fn frame_fate_is_deterministic_and_respects_the_retry_budget() {
        let mut rng = stream_rng(7, &[1]);
        let sure = Fate::draw(0, 0.0, 4, &mut rng);
        assert!(sure.delivered);
        assert_eq!(sure.attempts, 1);

        let doomed = Fate::draw(0, 1.0, 4, &mut rng);
        assert!(!doomed.delivered);
        assert_eq!(doomed.attempts, 4, "a certain-loss link exhausts the retry budget");

        let mut a = stream_rng(9, &[2]);
        let mut b = stream_rng(9, &[2]);
        for _ in 0..50 {
            assert_eq!(Fate::draw(1, 0.4, 7, &mut a), Fate::draw(1, 0.4, 7, &mut b));
        }
    }

    fn fate(epoch: Epoch) -> Fate {
        Fate { epoch, delivered: true, attempts: 1 }
    }

    /// Every pending frame as `(from, to, its slices' payloads)`, drained.
    fn drain(sched: &mut FrameScheduler) -> Vec<(NodeId, NodeId, Vec<u32>)> {
        let mut drained = Vec::new();
        sched.drain(|from, to, frame| drained.push((from, to, frame.slices.iter().map(|s| s.bytes).collect())));
        drained
    }

    #[test]
    fn scheduler_opens_each_hop_once_and_drains_in_order() {
        let mut sched = FrameScheduler::new(9);
        let mut opened = 0;
        for &(from, to) in &[(9u32, 4u32), (8, 7), (9, 4)] {
            sched.enqueue(from, to, Some(0), PhaseTag::Update, 1, 1, || {
                opened += 1;
                fate(3)
            });
        }
        assert_eq!(opened, 2, "the (9,4) hop reuses its open frame");
        assert_eq!(sched.pending_frames(), 2);
        assert_eq!(drain(&mut sched), vec![(8, 7, vec![1]), (9, 4, vec![1, 1])], "frames drain in (from, to) order");
        assert_eq!(sched.pending_frames(), 0);
        assert!(sched.is_empty() && sched.riders().is_empty());
    }

    #[test]
    fn a_sender_whose_receiver_changes_gets_a_second_frame() {
        // Node 9's parent (4) gives out mid-epoch: later reports go to 7.  Both frames
        // stay open, each keeps its own riders, and a sender outside the slot table
        // (not a node of this network) is still served, by the side list.
        let mut sched = FrameScheduler::new(9);
        let mut opened = Vec::new();
        for (payload, &(from, to)) in [(9u32, 4u32), (9, 7), (9, 4), (9, 7), (9, 0), (40, 2), (40, 2)].iter().enumerate() {
            sched.enqueue(from, to, Some(0), PhaseTag::Update, payload as u32, 1, || {
                opened.push((from, to));
                fate(3)
            });
        }
        assert_eq!(opened, vec![(9, 4), (9, 7), (9, 0), (40, 2)]);
        assert_eq!(
            drain(&mut sched),
            vec![(9, 0, vec![4]), (9, 4, vec![0, 2]), (9, 7, vec![1, 3]), (40, 2, vec![5, 6])]
        );
        // Drained slots are free again and a reopened frame starts empty.
        sched.enqueue(9, 7, None, PhaseTag::Update, 8, 1, || fate(4));
        assert_eq!(sched.pending_frames(), 1);
        assert_eq!(drain(&mut sched), vec![(9, 7, vec![8])]);
    }

    #[test]
    fn a_rider_is_one_scope_with_every_phase_it_carries() {
        let mut sched = FrameScheduler::new(9);
        let reports = [
            (Some(3), PhaseTag::Update, 9),
            (Some(3), PhaseTag::Creation, 8),
            (None, PhaseTag::Update, 9),
            (Some(1), PhaseTag::Probe, 9),
            (Some(3), PhaseTag::Update, 7),
            (None, PhaseTag::Control, 8),
        ];
        for (scope, phase, from) in reports {
            sched.enqueue(from, 1, scope, phase, 12, 1, || fate(0));
        }
        let both = phase_bit(PhaseTag::Update) | phase_bit(PhaseTag::Creation);
        assert_eq!(
            sched.riders(),
            [
                Rider { scope: Some(3), phases: both },
                Rider { scope: None, phases: phase_bit(PhaseTag::Update) | phase_bit(PhaseTag::Control) },
                Rider { scope: Some(1), phases: phase_bit(PhaseTag::Probe) },
            ]
        );
        let mut riders = Vec::new();
        sched.drain(|from, _, frame| {
            riders.push((from, frame.slices.iter().map(|s| s.rider).collect::<Vec<_>>(), frame.payload, frame.tuples))
        });
        assert_eq!(riders, vec![(7, vec![0], 12, 1), (8, vec![0, 1], 24, 2), (9, vec![0, 1, 2], 36, 3)]);
    }

    proptest::proptest! {
        /// Against the `BTreeMap<(from, to), frame>` the scheduler used to be: the same
        /// hops open (once each, in the same order), every intent lands in its hop's
        /// frame, `pending_frames` agrees after every step, and a drain yields the
        /// map's `(from, to)` order — over several epochs, with receivers that change
        /// mid-epoch and senders outside the slot table.  Each frame's running totals
        /// are its slices' sums, and each slice's rider is its scope's.
        #[test]
        fn sender_indexed_scheduler_matches_the_map_model(
            epochs in proptest::collection::vec(
                proptest::collection::vec((0u32..12, 0u32..4, 0u32..50, 0u32..4), 0..40),
                1..5,
            ),
        ) {
            use std::collections::BTreeMap;
            let mut sched = FrameScheduler::new(8);
            for (epoch, intents) in epochs.iter().enumerate() {
                let mut model: BTreeMap<(NodeId, NodeId), Vec<u32>> = BTreeMap::new();
                let mut opened = Vec::new();
                let mut model_opened = Vec::new();
                // Scope 3 stands for an unscoped caller.
                let scope_of = |scope: u32| (scope < 3).then_some(scope);
                for &(from, to, data, scope) in intents {
                    let scope = scope_of(scope);
                    sched.enqueue(from, to, scope, PhaseTag::Update, data, data % 3, || {
                        opened.push((from, to));
                        fate(epoch as Epoch)
                    });
                    model
                        .entry((from, to))
                        .or_insert_with(|| {
                            model_opened.push((from, to));
                            Vec::new()
                        })
                        .push(data);
                    proptest::prop_assert_eq!(sched.pending_frames(), model.len());
                }
                proptest::prop_assert_eq!(&opened, &model_opened);
                let scopes: Vec<Option<QueryScope>> = sched.riders().iter().map(|r| r.scope).collect();
                let mut first_seen: Vec<Option<QueryScope>> = Vec::new();
                for &(.., scope) in intents {
                    let scope = scope_of(scope);
                    if !first_seen.contains(&scope) {
                        first_seen.push(scope);
                    }
                }
                proptest::prop_assert_eq!(scopes.clone(), first_seen);
                let mut drained = Vec::new();
                sched.drain(|from, to, frame| {
                    assert_eq!(frame.fate.epoch, epoch as Epoch, "a recycled buffer is not a recycled frame");
                    assert_eq!(frame.payload, frame.slices.iter().map(|s| s.bytes).sum::<u32>());
                    assert_eq!(frame.tuples, frame.slices.iter().map(|s| s.tuples).sum::<u32>());
                    drained.push(((from, to), frame.slices.iter().map(|s| s.bytes).collect::<Vec<_>>()));
                });
                proptest::prop_assert_eq!(drained, model.into_iter().collect::<Vec<_>>());
                proptest::prop_assert_eq!(sched.pending_frames(), 0);
            }
        }
    }
}
