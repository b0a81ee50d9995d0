//! The store's ring against a model ring of encoded images.
//!
//! [`CheckpointStore`] keeps its snapshots as one sample log per node and encodes an
//! image only in `to_bytes` (ADR-015).  The model keeps what the device holds: a ring of
//! `encode_image` bytes, the newest replacing one of its own epoch and the oldest
//! evicted past the retention, its page writes charged per window and its page reads
//! per record.  A restore of the model decodes the image and cuts the span by the
//! format's rules, written out again here: the newest `span` epochs of the first
//! non-empty record say where every record's samples start — every record is cut whole
//! where that one repeats an epoch — and the covered epochs are the union of every
//! record's, distinct, also where a window took two samples in one epoch, whose record
//! has the count and the ends of a gapless one.
//!
//! After every checkpoint the two must agree on the device bytes, the stored bytes, both
//! page ledgers, and every restore of every retained snapshot at spans 1, W/2, W and
//! `usize::MAX`, and on the newest bank.  The feeds miss nodes, repeat epochs, bring a
//! node in late and grow the capacity; the ring is restarted from its own bytes on the
//! way, and fed on from the bank it was fed from or from the bank it restores.

use kspot_algos::BankWindows;
use kspot_net::codec::Reader;
use kspot_net::{Deployment, Epoch, Network, NetworkConfig, NodeId, Reading, Value, WindowBank};
use kspot_store::format::{pages_for, record_bytes};
use kspot_store::{encode_image, encode_manifest, CheckpointStore};
use proptest::prelude::*;

/// Nodes of the model deployment; the last reports only from its join step on.
const NODES: u32 = 6;

fn net() -> Network {
    Network::new(Deployment::grid(3, 10.0, None), NetworkConfig::ideal())
}

/// One node record: the node and its samples.
type Column = (NodeId, Vec<(Epoch, Value)>);

/// An image's snapshot epoch, capacity and records, read by hand.
fn columns_of(image: &[u8]) -> (Epoch, usize, Vec<Column>) {
    let field = "a field the encoder wrote";
    let mut r = Reader::at(image, 4 + 2).expect("past magic and version");
    let epoch = r.u64().expect(field);
    let capacity = r.u32().expect(field) as usize;
    let mut columns = Vec::new();
    for _ in 0..r.u32().expect(field) {
        let node = r.u32().expect(field);
        let samples = (0..r.u32().expect(field))
            .map(|_| (r.u64().expect(field), f64::from_bits(r.u64().expect(field))))
            .collect();
        columns.push((node, samples));
    }
    (epoch, capacity, columns)
}

/// The bank a restore of `image`'s newest `span` epochs opens, by the format's rules.
fn cut(image: &[u8], span: usize) -> WindowBank {
    let (_, capacity, columns) = columns_of(image);
    let held: Vec<&Column> = columns.iter().filter(|(_, samples)| !samples.is_empty()).collect();
    let epochs = |samples: &[(Epoch, Value)]| samples.iter().map(|&(e, _)| e).collect::<Vec<_>>();
    let first = held.first().map(|(_, samples)| epochs(samples)).unwrap_or_default();
    let mut covered: Vec<Epoch> = held.iter().flat_map(|(_, samples)| epochs(samples)).collect();
    covered.sort_unstable();
    covered.dedup();
    let fed = covered.len() as u64;
    covered.drain(..covered.len().saturating_sub(capacity.min(span)));
    // A first record that repeats an epoch is cut whole, like every record after it.
    let ascending = first.windows(2).all(|pair| pair[0] < pair[1]);
    let from = if ascending { first.len().checked_sub(span).map_or(0, |at| first[at]) } else { 0 };
    let windows = if span == 0 {
        Vec::new()
    } else {
        held.iter().map(|(node, samples)| (*node, samples.iter().copied().filter(|&(e, _)| e >= from).collect())).collect()
    };
    WindowBank::from_windows(capacity, windows, covered, fed)
}

/// The device a store holds, as the ring of images it held before it kept logs.
struct Model {
    cadence: u64,
    retention: usize,
    images: Vec<(Epoch, Vec<u8>)>,
}

impl Model {
    fn checkpoint(&mut self, bank: &WindowBank, epoch: Epoch, net: &mut Network) {
        for (node, window) in bank.windows() {
            let bytes = record_bytes(window.len());
            net.charge_page_writes(node, pages_for(bytes), bytes as u64);
        }
        let image = encode_image(bank, epoch);
        match self.images.last_mut() {
            Some(newest) if newest.0 == epoch => newest.1 = image,
            _ => self.images.push((epoch, image)),
        }
        let evicted = self.images.len().saturating_sub(self.retention);
        self.images.drain(..evicted);
    }

    fn to_bytes(&self) -> Vec<u8> {
        let entries: Vec<(Epoch, usize)> = self.images.iter().map(|(e, image)| (*e, image.len())).collect();
        let mut out = encode_manifest(self.cadence, self.retention, &entries);
        for (_, image) in &self.images {
            out.extend_from_slice(image);
        }
        out
    }

    fn restore(&self, epoch: Epoch, span: usize, net: &mut Network) -> BankWindows<'static> {
        let (_, image) = self.images.iter().find(|(e, _)| *e == epoch).expect("a retained epoch");
        for (node, samples) in columns_of(image).2 {
            net.charge_page_reads(node, pages_for(record_bytes(samples.len())));
        }
        BankWindows::owned(cut(image, span), span)
    }
}

/// A store and its model, each with its own network.
struct Rig {
    store: CheckpointStore,
    model: Model,
    net: Network,
    model_net: Network,
}

impl Rig {
    fn new(cadence: u64, retention: usize) -> Self {
        Self {
            store: CheckpointStore::new(cadence).with_retention(retention),
            model: Model { cadence, retention, images: Vec::new() },
            net: net(),
            model_net: net(),
        }
    }

    fn checkpoint(&mut self, bank: &mut WindowBank, epoch: Epoch) {
        self.store.checkpoint(bank, epoch, &mut self.net);
        self.model.checkpoint(bank, epoch, &mut self.model_net);
        self.assert_agree(bank.capacity(), &format!("checkpoint at {epoch}"));
    }

    /// Restarts the store from its own bytes; the model's ring is the device, so it
    /// stays.  False when the bytes are not a store `from_bytes` accepts (an image with
    /// a repeated sample epoch), which the model's bytes then are not either.
    fn restart(&mut self, capacity: usize) -> bool {
        let bytes = self.store.to_bytes();
        match CheckpointStore::from_bytes(&bytes) {
            Ok(store) => {
                assert_eq!(store, self.store, "a restarted store holds what its bytes hold");
                self.store = store;
                self.assert_agree(capacity, "restart");
                true
            }
            Err(e) => {
                assert_eq!(CheckpointStore::from_bytes(&self.model.to_bytes()).err(), Some(e));
                false
            }
        }
    }

    /// The store and the model agree on everything a caller can see of the device.
    fn assert_agree(&mut self, capacity: usize, what: &str) {
        let stored: u64 = self.model.images.iter().map(|(_, image)| image.len() as u64).sum();
        assert_eq!(self.store.stored_bytes(), stored, "{what}: stored bytes");
        assert_eq!(self.store.to_bytes(), self.model.to_bytes(), "{what}: the device bytes");
        let newest = self.model.images.last().map(|(_, image)| format!("{:?}", cut(image, usize::MAX)));
        assert_eq!(self.store.restore_latest_bank().map(|bank| format!("{bank:?}")), newest, "{what}: newest bank");
        let epochs: Vec<Epoch> = self.model.images.iter().map(|(e, _)| *e).collect();
        assert_eq!(self.store.snapshot_epochs(), epochs, "{what}: retained epochs");
        for &epoch in &epochs {
            for span in [1, (capacity / 2).max(1), capacity.max(1), usize::MAX] {
                let got = self.store.restore(epoch, span, &mut self.net).expect("a retained epoch");
                let want = self.model.restore(epoch, span, &mut self.model_net);
                assert_eq!(format!("{got:?}"), format!("{want:?}"), "{what}: AS OF {epoch} over {span}");
            }
        }
        let (got, want) = (self.net.metrics(), self.model_net.metrics());
        assert_eq!(got.storage_totals(), want.storage_totals(), "{what}: storage ledger");
        for node in 1..=NODES {
            assert_eq!(got.node_storage(node), want.node_storage(node), "{what}: node {node}'s pages");
        }
    }
}

/// One feed: which nodes report (bit `n - 1` for node `n`), and how far the epoch
/// moves on — 0 repeats it, and a node that reported it before takes a second sample.
type Feed = (u32, u64);

/// A run of the rig over `feeds`: node [`NODES`] joins at feed `late`, the capacity
/// doubles at feed `grow`, and the store restarts at its first checkpoint from feed
/// `restart` on — fed on from the bank it restores when `adopt`.  True when the store
/// restarted.
#[allow(clippy::too_many_arguments)]
fn run(feeds: &[Feed], capacity: usize, cadence: u64, retention: usize, late: usize, grow: usize, restart: usize, adopt: bool) -> bool {
    let mut rig = Rig::new(cadence, retention);
    let mut bank = WindowBank::new(capacity);
    let (mut epoch, mut restarted, mut reloaded) = (0, false, false);
    for (at, &(reporting, step)) in feeds.iter().enumerate() {
        if at == grow {
            bank.grow_capacity(2 * bank.capacity());
        }
        epoch += step;
        let readings: Vec<Reading> = (1..=NODES)
            .filter(|&node| reporting >> (node - 1) & 1 == 1 && (node < NODES || at >= late))
            .map(|node| Reading::new(node, 0, epoch, f64::from(node) * 1.25 - (epoch % 7) as f64 + at as f64 / 8.0))
            .collect();
        bank.feed(&readings);
        if !rig.store.due(bank.epochs_fed()) {
            continue;
        }
        rig.checkpoint(&mut bank, epoch);
        if at >= restart && !restarted {
            restarted = true;
            reloaded = rig.restart(bank.capacity());
            if reloaded && adopt {
                bank = rig.store.restore_latest_bank().expect("a restarted store holds a snapshot");
            }
        }
    }
    reloaded
}

/// Every feed reports every node, the epoch moving on by one.
fn steady(n: usize) -> Vec<Feed> {
    vec![(u32::MAX, 1); n]
}

#[test]
fn a_full_log_drops_only_what_no_retained_record_covers() {
    // Capacity 4, a checkpoint every epoch, nine retained: the oldest record starts
    // eight samples before the newest, and the logs fill and drop their prefixes many
    // times over 60 epochs.
    run(&steady(60), 4, 1, 9, 0, usize::MAX, usize::MAX, false);
    // A ring of one: a log's every sample but the newest record's is dead.
    run(&steady(40), 3, 2, 1, 0, usize::MAX, usize::MAX, false);
}

#[test]
fn a_restarted_store_takes_whole_ranges_until_it_has_seen_a_window() {
    // The store restarts at the checkpoint of feed 10, and feed 11 takes a second
    // sample of its epoch: a window the restarted logs were not appended from must not
    // be taken to continue them by epoch, or that sample is lost.  Fed on from the bank
    // it was fed from, and from the bank the restarted store restores.
    let mut feeds = steady(30);
    for at in [11, 14, 21] {
        feeds[at].1 = 0;
    }
    for adopt in [false, true] {
        assert!(run(&feeds, 5, 1, 3, 0, usize::MAX, 10, adopt), "the store restarts");
    }
    // Missed feeds and a late node after the restart.
    let mut feeds = steady(30);
    feeds[12].0 = 0b0_0101;
    feeds[16].0 = 0b1_1010;
    assert!(run(&feeds, 4, 2, 4, 18, usize::MAX, 9, false), "the store restarts");
}

#[test]
fn a_grown_window_and_a_late_node_take_new_ranges() {
    let mut feeds = steady(40);
    feeds[7].0 = 0b01_1110;
    run(&feeds, 3, 1, 5, 11, 20, usize::MAX, false);
    assert!(run(&feeds, 3, 3, 2, 11, 20, 25, true), "the store restarts");
}

#[test]
fn a_same_epoch_checkpoint_replaces_the_newest() {
    // Cadence 1 and a feed that does not move the epoch on: the second checkpoint at
    // that epoch replaces the first, with one more sample per window.
    let mut feeds = steady(20);
    feeds[6].1 = 0;
    feeds[9].1 = 0;
    run(&feeds, 4, 1, 3, 0, usize::MAX, usize::MAX, false);
}

/// Capacity 3, and the newest checkpoint holds node 1's window `[5, 7, 7]` (it missed
/// epoch 6 and took two samples of epoch 7), node 2's `[5, 6, 7]` and node 3's
/// `[3, 4, 5]`.  The span is the union of the records' epochs, `[3, 4, 5, 6, 7]`: fed 5,
/// covering `[5, 6, 7]`.  Node 2's record has the count and the ends of node 1's, and a
/// comparison by count and ends alone took it for node 1's and read `[4, 5, 7]`, fed 4.
/// A view of the newest two epochs covers `[6, 7]` and holds node 2's samples of both:
/// a cut that starts at node 1's second-newest sample, of epoch 7, dropped epoch 6.
#[test]
fn a_record_that_repeats_an_epoch_is_not_taken_for_a_gapless_one() {
    let feeds: Vec<Feed> = vec![(0b100, 3), (0b100, 1), (0b111, 1), (0b010, 1), (0b011, 1), (0b001, 0)];
    run(&feeds, 3, 1, 3, usize::MAX, usize::MAX, usize::MAX, false);
    let mut store = CheckpointStore::new(1);
    let (mut bank, mut net) = (WindowBank::new(3), net());
    let mut epoch = 0;
    for &(reporting, step) in &feeds {
        epoch += step;
        let readings: Vec<Reading> = (1..=3)
            .filter(|node| reporting >> (node - 1) & 1 == 1)
            .map(|node| Reading::new(node, 0, epoch, 1.0))
            .collect();
        bank.feed(&readings);
    }
    store.checkpoint(&mut bank, epoch, &mut net);
    let node = |bank: &mut WindowBank, id| {
        bank.window_mut(id).expect("a window").iter().map(|(e, _)| e).collect::<Vec<_>>()
    };
    assert_eq!([node(&mut bank, 1), node(&mut bank, 2), node(&mut bank, 3)], [[5, 7, 7], [5, 6, 7], [3, 4, 5]]);
    let restored = store.restore_latest_bank().expect("a snapshot");
    assert_eq!((restored.epochs().collect::<Vec<_>>(), restored.epochs_fed()), (vec![5, 6, 7], 5));
    let view = store.restore(epoch, 3, &mut net).expect("a retained epoch");
    assert_eq!((view.covered_epochs(), view.bank().epochs_fed()), (&[5, 6, 7][..], 5));
    // Node 1's second-newest sample is of epoch 7, but the span's first epoch is 6.
    let view = store.restore(epoch, 2, &mut net).expect("a retained epoch");
    assert_eq!(view.covered_epochs(), [6, 7]);
    assert_eq!(view.samples(2).iter().map(|&(e, _)| e).collect::<Vec<_>>(), [6, 7], "node 2's samples of the span");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn the_store_is_the_ring_of_encoded_images(
        feeds in prop::collection::vec((0u32..64, prop_oneof![Just(1u64), Just(1u64), Just(1u64), Just(2u64)]), 1usize..70),
        repeat in 0usize..140,
        capacity in 1usize..10,
        cadence in 1u64..5,
        retention in 1usize..10,
        late in 0usize..70,
        grow in 0usize..100,
        restart in 0usize..100,
        adopt in prop_oneof![Just(true), Just(false)],
    ) {
        // In about half the runs feed `repeat` repeats its epoch: the images from then
        // on are ones `from_bytes` refuses, so a restart after it is a refused one.
        let mut feeds = feeds;
        if let Some(feed) = feeds.get_mut(repeat) {
            feed.1 = 0;
        }
        run(&feeds, capacity, cadence, retention, late, grow, restart, adopt);
    }
}
