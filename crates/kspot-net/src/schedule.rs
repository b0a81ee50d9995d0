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
//! traffic) enqueues a symbolic [`ReportIntent`] — *(scope, node, phase, data tuples,
//! control tuples)* — into the epoch's [`FrameScheduler`].  At the end of the epoch
//! sweep (`kspot_algos::run_shared_epoch` does this) the scheduler flushes every
//! pending frame through the ordinary radio / energy / fault accounting path.
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
//! size; integer remainders are assigned one byte at a time in enqueue order (under the
//! engine this is ascending session-id order).  The shares partition the frame exactly,
//! which gives the conservation law `Σ per-scope bytes = ledger total bytes` whenever
//! all traffic is scoped.  Frame-level *events* (messages, retransmissions, drops)
//! cannot be split: they are booked once in the global ledgers under the frame's label
//! phase (the phase of the intent that opened it) and once per riding scope — so under
//! batching a scope's `messages` counts the frames its payload rode on, and the scoped
//! sums may exceed the global message count.  See ADR-004 for the full policy.
//!
//! How [`FrameScheduler`] stores frames is host detail; that it *drains* them in
//! `(sender, receiver)` order is not — ledgers and batteries depend on it (ADR-004,
//! "Host representation").

use crate::metrics::{PhaseTag, QueryScope};
use crate::radio::RadioModel;
use crate::types::{Epoch, NodeId};
use rand::rngs::StdRng;
use rand::Rng;

/// One symbolic report enqueued by a session: "this node wants these tuples carried
/// towards the sink this epoch, on behalf of this attribution scope".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReportIntent {
    /// The metrics scope installed when the intent was enqueued (`None` for unscoped
    /// callers, e.g. a single-query harness that never installs scopes).
    pub scope: Option<QueryScope>,
    /// The algorithm phase the payload belongs to.
    pub phase: PhaseTag,
    /// Data (result) tuples carried for this scope.
    pub data_tuples: u32,
    /// Control entries carried for this scope.
    pub control_tuples: u32,
}

/// A frame being assembled for one `(sender, receiver)` hop of the current epoch.
///
/// Its fate is fixed at creation (see the module docs); only the payload keeps growing
/// as further sessions piggy-back onto it.
#[derive(Debug, Clone)]
pub struct PendingFrame {
    /// The epoch the frame belongs to.
    pub epoch: Epoch,
    /// Whether the frame's payload is delivered (after `attempts` attempts).
    pub delivered: bool,
    /// Number of on-air attempts the frame takes (1 + retransmissions).
    pub attempts: u32,
    /// The piggy-backed payload slices, in enqueue order.
    pub slices: Vec<ReportIntent>,
}

impl PendingFrame {
    /// Opens a frame and decides its fate from the frame loss stream: attempts are
    /// drawn exactly like [`crate::sim::Network::send`] draws them for a single
    /// message, but once per *frame* rather than once per session report.  The receiver
    /// is a participating node or the sink: a report goes to its sender's effective
    /// parent, which always listens.
    pub(crate) fn open(epoch: Epoch, loss: f64, max_attempts: u32, rng: &mut StdRng) -> Self {
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

/// One scope's fully attributed share of a flushed frame, handed to the metrics ledger.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameSlice {
    /// The attribution scope of the slice (`None` books nothing scope-side).
    pub scope: Option<QueryScope>,
    /// The phase of the slice's payload.
    pub phase: PhaseTag,
    /// On-air bytes attributed to the slice: its payload plus its pro-rata share of
    /// the frame overhead.  Slice shares partition the frame's on-air bytes exactly.
    pub share_bytes: u32,
    /// Result tuples the slice carried.
    pub tuples: u32,
}

/// Splits a frame's on-air bytes across its slices per the attribution policy (module
/// docs): each slice gets its own payload bytes plus `overhead × payload_i / payload`
/// rounded down, and the remaining bytes are assigned one-by-one in enqueue order.
/// Writes the partitioning slices into `slices` (cleared first, so a caller can reuse
/// one buffer for every frame) and returns the frame's total on-air bytes.
pub fn split_frame_shares(
    intents: &[ReportIntent],
    radio: &RadioModel,
    slices: &mut Vec<FrameSlice>,
) -> u32 {
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
    // Hand the integer remainder out byte-by-byte in enqueue order so the shares
    // partition the frame exactly (the conservation law the testkit asserts).
    let mut remainder = frame_bytes - slices.iter().map(|s| s.share_bytes).sum::<u32>();
    for slice in slices.iter_mut() {
        if remainder == 0 {
            break;
        }
        slice.share_bytes += 1;
        remainder -= 1;
    }
    if let Some(first) = slices.first_mut() {
        // Degenerate all-empty frame: the whole overhead goes to the opener.
        first.share_bytes += remainder;
    }
    frame_bytes
}

/// The per-epoch report scheduler: frames under assembly, one per `(sender,
/// receiver)` hop.  Owned by [`crate::sim::Network`] while frame batching is enabled;
/// populated by `send_report_up` intents and emptied by `flush_frames`.
///
/// A sender reports to one receiver — its effective parent — for a whole epoch unless
/// that parent's battery gives out mid-epoch, so frames are indexed by sender: one
/// slot per node points at the frame the sender opened first, and only a sender whose
/// receiver changed falls back to scanning the open frames.  Frames are kept in open
/// order and sorted when drained; their slice buffers are recycled, so a steady-state
/// epoch allocates nothing here.
#[derive(Debug, Clone)]
pub struct FrameScheduler {
    /// Frames under assembly with their `(sender, receiver)` hop, in open order.
    frames: Vec<((NodeId, NodeId), PendingFrame)>,
    /// `first_open[sender]` is 1 + the index in `frames` of the frame the sender
    /// opened first this epoch, 0 while it has opened none.
    first_open: Vec<u32>,
    /// Emptied slice buffers of drained frames, reused by the frames opened next.
    spare_slices: Vec<Vec<ReportIntent>>,
    /// The attributed shares of the frame being drained (one buffer for all frames).
    shares: Vec<FrameSlice>,
}

impl FrameScheduler {
    /// Creates an empty scheduler for a network of `num_nodes` sensor nodes.
    pub fn new(num_nodes: usize) -> Self {
        Self {
            frames: Vec::new(),
            first_open: vec![0; num_nodes + 1],
            spare_slices: Vec::new(),
            shares: Vec::new(),
        }
    }

    /// Number of frames currently under assembly.
    pub fn pending_frames(&self) -> usize {
        self.frames.len()
    }

    /// The frame for `(from, to)`, opening it with `open` on first use.
    pub(crate) fn frame_entry(
        &mut self,
        from: NodeId,
        to: NodeId,
        open: impl FnOnce() -> PendingFrame,
    ) -> &mut PendingFrame {
        let found = match self.first_open.get(from as usize) {
            Some(0) => None,
            Some(&slot) if self.frames[slot as usize - 1].0 .1 == to => Some(slot as usize - 1),
            // The sender's receiver changed within the epoch (or the sender is not a
            // node of this network and has no slot): rare, so a scan.
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

    /// Hands every pending frame to `visit` in deterministic `(from, to)` order,
    /// together with the shares buffer to cost it in, and leaves the scheduler empty.
    pub(crate) fn drain_frames(
        &mut self,
        mut visit: impl FnMut(NodeId, NodeId, &PendingFrame, &mut Vec<FrameSlice>),
    ) {
        self.frames.sort_unstable_by_key(|(hop, _)| *hop);
        for ((from, to), mut frame) in self.frames.drain(..) {
            visit(from, to, &frame, &mut self.shares);
            if let Some(slot) = self.first_open.get_mut(from as usize) {
                *slot = 0;
            }
            frame.slices.clear();
            self.spare_slices.push(frame.slices);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::stream_rng;

    fn intent(scope: u32, data: u32) -> ReportIntent {
        ReportIntent { scope: Some(scope), phase: PhaseTag::Update, data_tuples: data, control_tuples: 0 }
    }

    #[test]
    fn shares_partition_the_frame_exactly() {
        let radio = RadioModel::mica2();
        for intents in [
            vec![intent(0, 1)],
            vec![intent(0, 1), intent(1, 1)],
            vec![intent(0, 1), intent(1, 2), intent(2, 3), intent(3, 5)],
            vec![intent(0, 7), intent(1, 1)],
        ] {
            let mut slices = Vec::new();
            let frame_bytes = split_frame_shares(&intents, &radio, &mut slices);
            let total: u32 = slices.iter().map(|s| s.share_bytes).sum();
            assert_eq!(total, frame_bytes, "shares must partition the frame: {intents:?}");
            let payload: u32 = intents.iter().map(|i| radio.payload_bytes(i.data_tuples, i.control_tuples)).sum();
            assert_eq!(frame_bytes, radio.on_air_bytes(payload));
            // Every slice is charged at least its own payload.
            for (s, i) in slices.iter().zip(&intents) {
                assert!(s.share_bytes >= radio.payload_bytes(i.data_tuples, i.control_tuples));
            }
        }
    }

    #[test]
    fn remainder_bytes_go_to_the_earliest_slices() {
        let radio = RadioModel::mica2();
        let mut slices = Vec::new();
        split_frame_shares(&[intent(3, 1), intent(7, 1)], &radio, &mut slices);
        // Equal payloads: any odd remainder lands on the first (lower-scope) slice.
        assert!(slices[0].share_bytes >= slices[1].share_bytes);
        assert!(slices[0].share_bytes - slices[1].share_bytes <= 1);
    }

    #[test]
    fn empty_payload_frame_charges_the_opener() {
        let radio = RadioModel::mica2();
        let empty = ReportIntent { scope: Some(0), phase: PhaseTag::Update, data_tuples: 0, control_tuples: 0 };
        let mut slices = Vec::new();
        let frame_bytes = split_frame_shares(&[empty], &radio, &mut slices);
        assert_eq!(frame_bytes, radio.on_air_bytes(0));
        assert_eq!(slices[0].share_bytes, frame_bytes);
    }

    #[test]
    fn frame_fate_is_deterministic_and_respects_the_retry_budget() {
        let mut rng = stream_rng(7, &[1]);
        let sure = PendingFrame::open(0, 0.0, 4, &mut rng);
        assert!(sure.delivered);
        assert_eq!(sure.attempts, 1);

        let doomed = PendingFrame::open(0, 1.0, 4, &mut rng);
        assert!(!doomed.delivered);
        assert_eq!(doomed.attempts, 4, "a certain-loss link exhausts the retry budget");

        let mut a = stream_rng(9, &[2]);
        let mut b = stream_rng(9, &[2]);
        for _ in 0..50 {
            let fa = PendingFrame::open(1, 0.4, 7, &mut a);
            let fb = PendingFrame::open(1, 0.4, 7, &mut b);
            assert_eq!((fa.delivered, fa.attempts), (fb.delivered, fb.attempts));
        }
    }

    fn blank_frame() -> PendingFrame {
        PendingFrame { epoch: 3, delivered: true, attempts: 1, slices: Vec::new() }
    }

    #[test]
    fn scheduler_opens_each_hop_once_and_drains_in_order() {
        let mut sched = FrameScheduler::new(9);
        let mut opened = 0;
        for &(from, to) in &[(9u32, 4u32), (8, 7), (9, 4)] {
            let frame = sched.frame_entry(from, to, || {
                opened += 1;
                blank_frame()
            });
            frame.slices.push(intent(0, 1));
        }
        assert_eq!(opened, 2, "the (9,4) hop reuses its open frame");
        assert_eq!(sched.pending_frames(), 2);
        let mut drained = Vec::new();
        sched.drain_frames(|from, to, frame, _| {
            drained.push((from, to, frame.slices.len(), frame.slices.iter().map(|s| s.data_tuples).sum::<u32>()))
        });
        assert_eq!(sched.pending_frames(), 0);
        assert_eq!(drained, vec![(8, 7, 1, 1), (9, 4, 2, 2)], "frames drain in (from, to) order");
    }

    #[test]
    fn a_sender_whose_receiver_changes_gets_a_second_frame() {
        // Node 9's parent (4) gives out mid-epoch: later reports go to 7.  Both frames
        // stay open, each keeps its own riders, and a sender outside the slot table
        // (not a node of this network) is still served, by the scan.
        let mut sched = FrameScheduler::new(9);
        let mut opened = Vec::new();
        for &(from, to) in &[(9u32, 4u32), (9, 7), (9, 4), (9, 7), (9, 0), (40, 2), (40, 2)] {
            sched
                .frame_entry(from, to, || {
                    opened.push((from, to));
                    blank_frame()
                })
                .slices
                .push(intent(0, 1));
        }
        assert_eq!(opened, vec![(9, 4), (9, 7), (9, 0), (40, 2)]);
        let mut drained = Vec::new();
        sched.drain_frames(|from, to, frame, _| drained.push((from, to, frame.slices.len())));
        assert_eq!(drained, vec![(9, 0, 1), (9, 4, 2), (9, 7, 2), (40, 2, 2)]);
        // Drained slots are free again and the recycled buffers come back empty.
        let frame = sched.frame_entry(9, 7, blank_frame);
        assert!(frame.slices.is_empty());
        assert_eq!(sched.pending_frames(), 1);
    }

    proptest::proptest! {
        /// Against the `BTreeMap<(from, to), frame>` the scheduler used to be: the same
        /// hops open (once each, in the same order), every intent lands in its hop's
        /// frame, `pending_frames` agrees after every step, and a drain yields the
        /// map's `(from, to)` order — over several epochs, with receivers that change
        /// mid-epoch and senders outside the slot table.
        #[test]
        fn sender_indexed_scheduler_matches_the_map_model(
            epochs in proptest::collection::vec(proptest::collection::vec((0u32..12, 0u32..4, 0u32..50), 0..40), 1..5),
        ) {
            use std::collections::BTreeMap;
            let mut sched = FrameScheduler::new(8);
            for (epoch, intents) in epochs.iter().enumerate() {
                let mut model: BTreeMap<(NodeId, NodeId), Vec<u32>> = BTreeMap::new();
                let mut opened = Vec::new();
                let mut model_opened = Vec::new();
                for &(from, to, data) in intents {
                    let frame = sched.frame_entry(from, to, || {
                        opened.push((from, to));
                        PendingFrame { epoch: epoch as Epoch, ..blank_frame() }
                    });
                    frame.slices.push(intent(0, data));
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
                let mut drained = Vec::new();
                sched.drain_frames(|from, to, frame, _| {
                    assert_eq!(frame.epoch, epoch as Epoch, "a recycled buffer is not a recycled frame");
                    drained.push(((from, to), frame.slices.iter().map(|s| s.data_tuples).collect::<Vec<_>>()));
                });
                proptest::prop_assert_eq!(drained, model.into_iter().collect::<Vec<_>>());
                proptest::prop_assert_eq!(sched.pending_frames(), 0);
            }
        }
    }
}
