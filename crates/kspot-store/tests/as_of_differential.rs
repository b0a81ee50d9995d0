//! The `AS OF` differential: TJA and TPUT over the view [`CheckpointStore::restore`]
//! opens — an image validated whole, only the samples of the session's span
//! materialised — against the same algorithms over the whole bank [`decode_image`]
//! rebuilds from the same bytes, owned as a restore once opened it and borrowed as the
//! engine's live bank is (whose windows answer the local top-k from the lists they
//! keep).  Answers, statistics, every ledger axis and every battery must agree bit for
//! bit, for every span from one epoch to the bank's capacity.
//!
//! The images are a live bank's — one epoch a feed, values on the grid of fives so that
//! ranks tie, or non-integer — and ragged hand-built ones: windows that start before
//! the span, end past it, hold every third epoch, one sample or none, and windows of
//! nodes the deployment does not have.

use kspot_algos::historic::HistoricAlgorithm;
use kspot_algos::{BankWindows, HistoricSpec, Tja, TopKResult, Tput};
use kspot_net::types::ValueDomain;
use kspot_net::{Deployment, Epoch, FaultPlan, Network, NetworkConfig, NodeId, Reading, WindowBank};
use kspot_query::AggFunc;
use kspot_store::format::{pages_for, record_bytes};
use kspot_store::{decode_image, encode_image, CheckpointStore};
use proptest::prelude::*;
use rand::Rng;

/// What one execution left observable: the answer with its scores as bits, the
/// algorithm's statistics, the whole ledger and every battery.
type Observed = ((Epoch, Vec<(u64, u64)>), String, String, Vec<u64>);

/// How the windows of one side are opened.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Side {
    /// `CheckpointStore::restore`: the span materialised, the bank owned by its view.
    Restored,
    /// `decode_image`'s whole bank, owned by its view.
    WholeOwned,
    /// `decode_image`'s whole bank, borrowed like the engine's live bank.
    WholeBorrowed,
}

fn result_bits(result: &TopKResult) -> (Epoch, Vec<(u64, u64)>) {
    (result.epoch, result.items.iter().map(|item| (item.key, item.value.to_bits())).collect())
}

/// A lossy network over `d` in which a pull can be dropped, so that Clean-Up and TPUT's
/// third phase pull; seeded alike on every side.
fn network(d: &Deployment, seed: u64) -> Network {
    let faults = FaultPlan::none().with_link_loss(0.2).with_retransmits(1);
    Network::new(d.clone(), NetworkConfig::mica2().with_seed(seed).with_faults(faults))
}

/// Runs TJA or TPUT over `image`'s snapshot at `epoch` with a span of `span` epochs,
/// opened as `side` says, and reports what it left observable.
fn run(d: &Deployment, image: &[u8], epoch: Epoch, span: usize, k: usize, tput: bool, side: Side) -> Observed {
    let mut net = network(d, 7);
    net.begin_epoch(epoch);
    net.set_query_scope(Some(3));
    let store;
    let mut whole = decode_image(image).expect("the image decodes");
    let mut view = match side {
        Side::Restored => {
            store = CheckpointStore::from_bytes(&stored(epoch, image)).expect("the store loads");
            store.restore(epoch, span, &mut net).expect("the snapshot is retained")
        }
        Side::WholeOwned | Side::WholeBorrowed => {
            // The page reads the restore charges, charged alike.
            for &(node, samples) in &whole.records {
                net.charge_page_reads(node, pages_for(record_bytes(samples)));
            }
            if side == Side::WholeOwned {
                BankWindows::owned(whole.bank.clone(), span)
            } else {
                BankWindows::new(&mut whole.bank, span)
            }
        }
    };
    let spec = HistoricSpec::new(k, AggFunc::Avg, ValueDomain::percentage(), span);
    let (result, stats) = if tput {
        let mut algorithm = Tput::new(spec);
        (algorithm.execute(&mut net, &mut view), format!("{:?}", algorithm.stats()))
    } else {
        let mut algorithm = Tja::new(spec);
        (algorithm.execute(&mut net, &mut view), format!("{:?}", algorithm.stats()))
    };
    let batteries = d.node_ids().into_iter().map(|node| net.batteries().get(node).remaining_uj().to_bits()).collect();
    (result_bits(&result), stats, format!("{:?}", net.metrics()), batteries)
}

/// A store holding `image` alone, as serialised bytes.
fn stored(epoch: Epoch, image: &[u8]) -> Vec<u8> {
    let mut bytes = kspot_store::encode_manifest(1, 1, &[(epoch, image.len())]);
    bytes.extend_from_slice(image);
    bytes
}

/// Demands that every span of `image`, from one epoch to `capacity`, answers alike on
/// every side, for TJA and TPUT and a K inside and one past the windows' kept lists.
fn assert_every_span_agrees(d: &Deployment, image: &[u8], epoch: Epoch, capacity: usize) {
    for span in 1..=capacity {
        for k in [3, 17] {
            for tput in [false, true] {
                let restored = run(d, image, epoch, span, k, tput, Side::Restored);
                for side in [Side::WholeOwned, Side::WholeBorrowed] {
                    let whole = run(d, image, epoch, span, k, tput, side);
                    assert_eq!(
                        restored,
                        whole,
                        "{} top {k} over {span} of {capacity} epochs: restored vs {side:?}",
                        if tput { "TPUT" } else { "TJA" }
                    );
                }
            }
        }
    }
}

/// The image of a live bank of `capacity` epochs over `d`, fed `feeds` epochs of
/// values on the grid of fives (`fives`) or drawn from the reals.
fn live_image(d: &Deployment, capacity: usize, feeds: u64, fives: bool, seed: u64) -> (Vec<u8>, Epoch) {
    let mut rng = kspot_net::rng::stream_rng(seed, &[0xA5_0F]);
    let mut bank = WindowBank::new(capacity);
    for epoch in 0..feeds {
        let readings: Vec<Reading> = d
            .node_ids()
            .into_iter()
            .map(|node| {
                let value = if fives { f64::from(rng.gen_range(0..=20u32)) * 5.0 } else { rng.gen_range(0.0..=100.0) };
                Reading::new(node, d.group_of(node), epoch, value)
            })
            .collect();
        bank.feed(&readings);
    }
    (encode_image(&bank, feeds - 1), feeds - 1)
}

/// A hand-built ragged image over `d`'s nodes and node 99, which `d` lacks: by node
/// (shifted by `rotation`, so that each shape opens the image once) windows of epochs
/// 20..=83, windows that start before them, end past them, hold every third epoch, one
/// sample or none.
fn ragged_image(d: &Deployment, rotation: u32, seed: u64) -> (Vec<u8>, Epoch, usize) {
    let mut rng = kspot_net::rng::stream_rng(seed, &[0xA5_0F]);
    let capacity = 80;
    let mut nodes = d.node_ids();
    nodes.push(99);
    let windows: Vec<(NodeId, Vec<(Epoch, f64)>)> = nodes
        .into_iter()
        .map(|node| {
            let epochs: Vec<Epoch> = match (node + rotation) % 6 {
                0 => (20..=83).collect(),
                1 => (4..=83).collect(),
                2 => (40..=95).collect(),
                3 => (20..=83).step_by(3).collect(),
                4 => vec![60],
                _ => Vec::new(),
            };
            let samples = epochs
                .into_iter()
                .map(|e| (e, if e % 4 == 0 { f64::from(rng.gen_range(0..=20u32)) * 5.0 } else { rng.gen_range(0.0..=100.0) }))
                .collect();
            (node, samples)
        })
        .collect();
    let bank = WindowBank::from_windows(capacity, windows, (20..=83).collect(), 200);
    (encode_image(&bank, 95), 95, capacity)
}

#[test]
fn restoring_a_span_answers_as_the_whole_bank_over_every_span() {
    let d = Deployment::grid(5, 10.0, Some(4));
    for (fives, seed) in [(true, 3), (false, 4)] {
        // A bank that wrapped (40 feeds into 24 epochs) and one that did not.
        for (capacity, feeds) in [(24, 40), (24, 17)] {
            let (image, epoch) = live_image(&d, capacity, feeds, fives, seed);
            assert_every_span_agrees(&d, &image, epoch, capacity);
        }
    }
}

#[test]
fn restoring_a_span_of_a_ragged_image_answers_as_the_whole_bank() {
    let d = Deployment::grid(5, 10.0, Some(4));
    for rotation in 0..6 {
        let (image, epoch, capacity) = ragged_image(&d, rotation, 5 + u64::from(rotation));
        assert_every_span_agrees(&d, &image, epoch, capacity);
    }
}

#[test]
fn a_restored_span_holds_only_the_samples_its_view_reads() {
    // The view reads the same either way; the restored bank holds a window per record
    // with a sample, but only the samples from the span's first epoch on.
    let d = Deployment::grid(5, 10.0, Some(4));
    let (image, epoch) = live_image(&d, 24, 40, false, 8);
    let mut net = network(&d, 1);
    let store = CheckpointStore::from_bytes(&stored(epoch, &image)).expect("the store loads");
    let whole = decode_image(&image).expect("the image decodes").bank;
    for span in [1, 5, 24] {
        let view = store.restore(epoch, span, &mut net).expect("retained");
        assert_eq!(view.covered_epochs(), BankWindows::owned(whole.clone(), span).covered_epochs());
        assert_eq!(view.bank().node_ids(), whole.node_ids());
        assert_eq!(view.bank().epochs_fed(), whole.epochs_fed());
        for (_, window) in view.bank().windows() {
            assert_eq!(window.len(), span, "span {span}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Random live images — capacity, feeds, values on the grid of fives or not — and
    /// a random span each: the restored view and the whole bank answer alike.
    #[test]
    fn a_restored_span_answers_as_the_whole_bank(
        capacity in 1usize..48,
        feeds in 1u64..80,
        span_draw in 0usize..1_000,
        fives in prop_oneof![Just(false), Just(true)],
        seed in 0u64..1_000_000,
    ) {
        let d = Deployment::grid(4, 10.0, Some(3));
        let (image, epoch) = live_image(&d, capacity, feeds, fives, seed);
        let span = 1 + span_draw % capacity;
        for tput in [false, true] {
            let restored = run(&d, &image, epoch, span, 3, tput, Side::Restored);
            for side in [Side::WholeOwned, Side::WholeBorrowed] {
                prop_assert_eq!(&restored, &run(&d, &image, epoch, span, 3, tput, side), "{:?}", side);
            }
        }
    }
}
