//! [`CheckpointStore`]: the ring of encoded snapshots on the modeled flash device.

use crate::format::{encode_manifest, pages_for, record_bytes, split_manifest, Image, StoreError};
use kspot_algos::BankWindows;
use kspot_net::{Epoch, Network, WindowBank};
use std::collections::VecDeque;

/// Default number of snapshots the ring retains before the oldest is overwritten.
pub const DEFAULT_RETENTION: usize = 8;

/// A log-structured ring of checkpoint images over the modeled flash device.
///
/// Every `cadence` epochs the engine snapshots its shared [`WindowBank`] into an
/// encoded image; the ring keeps the most recent `retention` images
/// ([`DEFAULT_RETENTION`] unless [`CheckpointStore::with_retention`] says otherwise),
/// indexed by a small manifest.  Page writes (at checkpoint time, charged to every
/// node that owns a window — each mote persists its *own* column) and page reads
/// (at restore time, charged under the restoring query's scope) go through
/// [`Network::charge_page_writes`] / [`Network::charge_page_reads`], so the ledger
/// conservation law extends to storage.
///
/// The store never hands out live memory at restore time: `AS OF` answers always
/// decode the **encoded bytes** back into a fresh bank, which is what makes the
/// durability claim testable — a store deserialised from [`CheckpointStore::to_bytes`]
/// restores byte-identical answers.  Bytes from outside are validated once, by
/// [`CheckpointStore::from_bytes`]; the ring holds only images that were, or that
/// this store encoded, so a restore reads them without checking them again.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointStore {
    cadence: u64,
    retention: usize,
    /// Retained images, oldest first.
    images: VecDeque<Image>,
}

impl CheckpointStore {
    /// Creates an empty store that checkpoints every `cadence` epochs.
    pub fn new(cadence: u64) -> Self {
        assert!(cadence > 0, "checkpoint cadence must be at least one epoch");
        Self { cadence, retention: DEFAULT_RETENTION, images: VecDeque::new() }
    }

    /// Overrides how many snapshots the ring retains.
    pub fn with_retention(mut self, retention: usize) -> Self {
        assert!(retention > 0, "the ring must retain at least one snapshot");
        assert!(u32::try_from(retention).is_ok(), "the manifest records the retention as a u32");
        self.retention = retention;
        self
    }

    /// True when no snapshot has been taken yet.
    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }

    /// Snapshot epochs currently retained, oldest first.
    pub fn snapshot_epochs(&self) -> Vec<Epoch> {
        self.images.iter().map(Image::epoch).collect()
    }

    /// The newest retained snapshot epoch.
    pub fn latest_epoch(&self) -> Option<Epoch> {
        self.images.back().map(Image::epoch)
    }

    /// Total encoded bytes currently on the device (images only; the manifest rides
    /// in the sink's mains-powered storage).
    pub fn stored_bytes(&self) -> u64 {
        self.images.iter().map(|img| img.bytes().len() as u64).sum()
    }

    /// True when the engine, having fed `epochs_fed` epochs into the bank, owes the
    /// device a checkpoint.
    pub fn due(&self, epochs_fed: u64) -> bool {
        epochs_fed > 0 && epochs_fed.is_multiple_of(self.cadence)
    }

    /// Snapshots `bank` as of `epoch`: encodes an image, charges each window-owning
    /// node the flash page writes for its own record, and appends the image to the
    /// ring (evicting the oldest beyond the retention bound).  Checkpoint writes are
    /// substrate duty — like epoch baselines they run outside any query scope.
    pub fn checkpoint(&mut self, bank: &mut WindowBank, epoch: Epoch, net: &mut Network) {
        let image = Image::encode(bank, epoch);
        for (node, window) in bank.windows() {
            let bytes = record_bytes(window.len());
            net.charge_page_writes(node, pages_for(bytes), bytes as u64);
        }
        if let Some(back) = self.images.back_mut() {
            if back.epoch() == epoch {
                // Same-epoch re-checkpoint (e.g. a forced snapshot): replace in place.
                *back = image;
                return;
            }
        }
        self.images.push_back(image);
        while self.images.len() > self.retention {
            self.images.pop_front();
        }
    }

    /// Restores the snapshot taken at exactly `epoch` and opens a [`BankWindows`] view
    /// (owning the restored bank) over its last `window` epochs, charging each node the
    /// flash page reads for its own record.  Reads are charged to whatever query scope
    /// is installed on `net` — restore cost belongs to the `AS OF` session that asked
    /// for it.  Only the samples of the view's span are materialised: the view reads
    /// what it would read of the whole image's bank, and the pages charged are every
    /// record's.  The image is not checked again — the store encoded it, or
    /// [`Self::from_bytes`] validated it — so the only error is an epoch not retained.
    pub fn restore(
        &self,
        epoch: Epoch,
        window: usize,
        net: &mut Network,
    ) -> Result<BankWindows<'static>, StoreError> {
        let image = self
            .images
            .iter()
            .find(|img| img.epoch() == epoch)
            .ok_or(StoreError::NoSnapshot(epoch))?
            .open(window);
        for &(node, samples) in &image.records {
            net.charge_page_reads(node, pages_for(record_bytes(samples)));
        }
        Ok(BankWindows::owned(image.into_bank(), window))
    }

    /// Restores the newest snapshot into a bare [`WindowBank`] without charging —
    /// the restore-on-construct path, where the engine re-adopts its own durable
    /// state before any query runs (crash recovery is not billed to a query).  Like
    /// [`Self::restore`], it reads an image that was validated on its way in.
    pub fn restore_latest_bank(&self) -> Option<WindowBank> {
        Some(self.images.back()?.open(usize::MAX).into_bank())
    }

    /// The manifest describing the current ring, as sealed bytes.
    pub fn manifest_bytes(&self) -> Vec<u8> {
        let entries: Vec<(Epoch, usize)> =
            self.images.iter().map(|img| (img.epoch(), img.bytes().len())).collect();
        encode_manifest(self.cadence, self.retention, &entries)
    }

    /// Serialises the whole store — manifest followed by the image log — for
    /// persistence across engine restarts.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = self.manifest_bytes();
        for img in &self.images {
            out.extend_from_slice(img.bytes());
        }
        out
    }

    /// Rebuilds a store from [`Self::to_bytes`] output.  The manifest is validated
    /// eagerly; each image extent is sliced out and run through the decoder's
    /// validating pass with an empty span — seal, counts, order and values, no bank
    /// built — so a torn or tampered log fails here with a typed error rather than at
    /// first query.  This is the one door for bytes from outside the store: each image
    /// is validated here once, and never again.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, StoreError> {
        let (manifest, log) = split_manifest(bytes)?;
        // Both validated by the manifest decoder; no assertion stands behind these bytes.
        let mut store =
            Self { cadence: manifest.cadence, retention: manifest.retention, images: VecDeque::new() };
        // The extents are contiguous from 0, so the log ends where the last one does.
        let mut logged = 0;
        for entry in &manifest.entries {
            let start = usize::try_from(entry.offset).map_err(|_| StoreError::Truncated)?;
            let len = usize::try_from(entry.len).map_err(|_| StoreError::Truncated)?;
            let end = start.checked_add(len).ok_or(StoreError::Truncated)?;
            if end > log.len() {
                return Err(StoreError::Truncated);
            }
            let image = Image::validated(&log[start..end])?;
            if image.epoch() != entry.epoch {
                return Err(StoreError::Corrupt("manifest epoch disagrees with its image"));
            }
            // An engine adopting the store resumes the epoch after its newest snapshot.
            if entry.epoch == Epoch::MAX {
                let max = Epoch::MAX - 1;
                return Err(StoreError::Oversize { what: "snapshot epoch", declared: entry.epoch, max });
            }
            store.images.push_back(image);
            logged = end;
        }
        if log.len() != logged {
            return Err(StoreError::TrailingBytes);
        }
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kspot_net::{Deployment, NetworkConfig, Reading};

    fn test_net(side: usize) -> Network {
        Network::new(Deployment::grid(side, 10.0, None), NetworkConfig::ideal())
    }

    fn fed_bank(epochs: u64) -> WindowBank {
        let mut bank = WindowBank::new(4);
        for epoch in 0..epochs {
            let readings: Vec<Reading> =
                (1..=3).map(|n| Reading::new(n, 0, epoch, f64::from(n) + epoch as f64)).collect();
            bank.feed(&readings);
        }
        bank
    }

    #[test]
    fn checkpoints_rotate_and_charge_page_writes() {
        let mut net = test_net(4);
        let mut store = CheckpointStore::new(2).with_retention(2);
        let mut bank = WindowBank::new(4);
        for epoch in 0..6u64 {
            let readings: Vec<Reading> =
                (1..=3).map(|n| Reading::new(n, 0, epoch, f64::from(n) + epoch as f64)).collect();
            bank.feed(&readings);
            if epoch % 2 == 1 {
                store.checkpoint(&mut bank, epoch, &mut net);
            }
        }
        assert_eq!(store.snapshot_epochs(), vec![3, 5], "the ring evicts the oldest");
        assert_eq!(store.latest_epoch(), Some(5));
        assert!(store.stored_bytes() > 0);

        let st = net.metrics().storage_totals();
        // 3 nodes × 3 checkpoints, one page each; records hold 2, 4 and 4 samples.
        assert_eq!(st.pages_written, 9);
        assert_eq!(st.bytes_written, 3 * (40 + 72 + 72));
        assert_eq!(st.pages_read, 0);
        assert!(st.energy_uj > 0.0);
        assert_eq!(net.metrics().node_storage(1).pages_written, 3);
    }

    #[test]
    fn due_follows_the_cadence() {
        let store = CheckpointStore::new(4);
        assert!(!store.due(0));
        assert!(!store.due(3));
        assert!(store.due(4));
        assert!(store.due(8));
    }

    #[test]
    fn restore_answers_from_bytes_and_charges_reads() {
        let mut net = test_net(4);
        let mut store = CheckpointStore::new(2);
        let mut bank = fed_bank(6);
        store.checkpoint(&mut bank, 5, &mut net);

        let view = store.restore(5, 4, &mut net).expect("snapshot exists");
        assert_eq!(view.snapshot_epoch(), Some(5));
        assert_eq!(view.covered_epochs(), [2, 3, 4, 5]);
        assert_eq!(view.value_at(2, 4), Some(6.0));

        let st = net.metrics().storage_totals();
        assert_eq!(st.pages_read, 3, "one page per node record");

        assert_eq!(
            store.restore(4, 4, &mut net).unwrap_err(),
            StoreError::NoSnapshot(4),
            "AS OF must name a checkpointed epoch"
        );
    }

    #[test]
    fn an_empty_record_holds_no_window_but_its_page_is_read() {
        // A live bank writes no empty record, so the image is built by hand: node 1
        // holds 16 samples (264 bytes, two pages), node 2 none (one page: its id and
        // count), node 3 one sample (one page).
        use crate::format::{checksum_seal, FORMAT_VERSION, IMAGE_MAGIC};
        use kspot_net::codec::{put_u16, put_u32, put_u64};
        use kspot_net::{StorageTotals, FLASH_PAGE_READ_UJ};
        let mut image = IMAGE_MAGIC.to_vec();
        put_u16(&mut image, FORMAT_VERSION);
        put_u64(&mut image, 20); // snapshot epoch
        put_u32(&mut image, 16); // capacity
        put_u32(&mut image, 3);
        for (node, epochs) in [(1u32, 5..21u64), (2, 0..0), (3, 20..21)] {
            put_u32(&mut image, node);
            put_u32(&mut image, epochs.clone().count() as u32);
            for e in epochs {
                put_u64(&mut image, e);
                put_u64(&mut image, (e as f64 + f64::from(node)).to_bits());
            }
        }
        let image = checksum_seal(image);
        let mut bytes = encode_manifest(1, 1, &[(20, image.len())]);
        bytes.extend_from_slice(&image);
        let store = CheckpointStore::from_bytes(&bytes).expect("a valid store");

        let mut net = test_net(4);
        net.set_query_scope(Some(7));
        let view = store.restore(20, 16, &mut net).expect("epoch 20 is retained");
        net.set_query_scope(None);
        assert_eq!(view.bank().node_ids(), [1, 3], "no window for the empty record");
        assert_eq!(view.bank().epochs_fed(), 16);

        // What restoring this image charged before the decoder built the bank itself.
        let read = |pages: u64| StorageTotals {
            pages_read: pages,
            energy_uj: pages as f64 * FLASH_PAGE_READ_UJ,
            ..StorageTotals::default()
        };
        let metrics = net.metrics();
        assert_eq!(metrics.storage_totals(), read(4));
        let scoped = metrics.storage_scopes().find(|&(scope, _)| scope == 7).map(|(_, t)| t);
        assert_eq!(scoped, Some(read(4)), "the restoring session pays every page");
        for (node, pages) in [(1, 2), (2, 1), (3, 1), (4, 0)] {
            assert_eq!(metrics.node_storage(node), read(pages), "node {node}");
            let battery = net.batteries().get(node);
            assert_eq!(battery.capacity_uj() - battery.remaining_uj(), read(pages).energy_uj, "node {node}");
        }
    }

    #[test]
    fn store_roundtrips_through_bytes() {
        let mut net = test_net(4);
        let mut store = CheckpointStore::new(3).with_retention(4);
        let mut bank = WindowBank::new(4);
        for epoch in 0..6u64 {
            let readings: Vec<Reading> =
                (1..=3).map(|n| Reading::new(n, 0, epoch, f64::from(n) + epoch as f64)).collect();
            bank.feed(&readings);
            if epoch == 2 || epoch == 5 {
                store.checkpoint(&mut bank, epoch, &mut net);
            }
        }

        let bytes = store.to_bytes();
        let back = CheckpointStore::from_bytes(&bytes).expect("rebuilds");
        assert_eq!(back.cadence, 3);
        assert_eq!(back.snapshot_epochs(), vec![2, 5]);
        assert_eq!(back.stored_bytes(), store.stored_bytes());

        // A torn log fails typed, anywhere it is cut.
        for cut in 0..bytes.len() {
            assert!(CheckpointStore::from_bytes(&bytes[..cut]).is_err());
        }
        // And a flipped bit in any image or manifest byte is detected.
        for i in (0..bytes.len()).step_by(7) {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            assert!(CheckpointStore::from_bytes(&bad).is_err(), "flip at byte {i}");
        }
    }

    #[test]
    fn retention_survives_the_roundtrip() {
        // A ring smaller and one larger than the default: the restarted store is the
        // store, and goes on evicting where the one that never stopped does.
        for retention in [2, 16] {
            let mut net = test_net(4);
            let mut live = CheckpointStore::new(1).with_retention(retention);
            let mut bank = WindowBank::new(4);
            let mut tick = |epoch: u64, stores: &mut [&mut CheckpointStore]| {
                bank.feed(&[Reading::new(1, 0, epoch, epoch as f64)]);
                for store in stores {
                    store.checkpoint(&mut bank, epoch, &mut net);
                }
            };
            for epoch in 0..retention as u64 + 1 {
                tick(epoch, &mut [&mut live]);
            }
            let mut restarted = CheckpointStore::from_bytes(&live.to_bytes()).expect("rebuilds");
            assert_eq!(restarted, live);
            assert_eq!(restarted.retention, retention);
            for epoch in retention as u64 + 1..retention as u64 + 4 {
                tick(epoch, &mut [&mut live, &mut restarted]);
            }
            assert_eq!(restarted.snapshot_epochs(), live.snapshot_epochs());
            assert_eq!(live.snapshot_epochs().len(), retention);
        }
    }

    #[test]
    fn restore_latest_bank_reconstructs_the_window_state() {
        let mut net = test_net(4);
        let mut store = CheckpointStore::new(1);
        let mut bank = fed_bank(6);
        store.checkpoint(&mut bank, 5, &mut net);

        let mut restored = store.restore_latest_bank().expect("non-empty");
        assert!(restored.epochs().eq(bank.epochs()));
        for node in bank.node_ids().to_vec() {
            let a: Vec<_> = bank.window_mut(node).unwrap().iter().collect();
            let b: Vec<_> = restored.window_mut(node).unwrap().iter().collect();
            assert_eq!(a, b);
        }
        assert!(CheckpointStore::new(9).restore_latest_bank().is_none());
    }

    #[test]
    fn from_bytes_validates_each_image_once_and_nothing_after_validates_again() {
        use crate::format::validating_passes;
        let mut net = test_net(4);
        let mut store = CheckpointStore::new(1).with_retention(3);
        let mut bank = WindowBank::new(4);
        let before = validating_passes();
        for epoch in 0..5u64 {
            let readings: Vec<Reading> =
                (1..=3).map(|n| Reading::new(n, 0, epoch, f64::from(n) + epoch as f64)).collect();
            bank.feed(&readings);
            store.checkpoint(&mut bank, epoch, &mut net);
        }
        let restore_all = |store: &CheckpointStore, net: &mut Network| {
            for epoch in store.snapshot_epochs() {
                for span in [1, 4, usize::MAX] {
                    store.restore(epoch, span, net).expect("a retained epoch restores");
                }
            }
        };
        restore_all(&store, &mut net);
        assert_eq!(validating_passes(), before, "checkpoints and restores of encoded images validate nothing");

        let back = CheckpointStore::from_bytes(&store.to_bytes()).expect("rebuilds");
        assert_eq!(validating_passes(), before + 3, "one validating pass per image of the three");
        restore_all(&back, &mut net);
        let restarted = back.restore_latest_bank().expect("the newest image");
        assert!(restarted.epochs().eq(bank.epochs()));
        assert_eq!(validating_passes(), before + 3, "restores and a restart of a rebuilt store validate nothing");
    }

    #[test]
    fn same_epoch_recheckpoint_replaces_in_place() {
        let mut net = test_net(4);
        let mut store = CheckpointStore::new(1);
        let mut bank = fed_bank(4);
        store.checkpoint(&mut bank, 3, &mut net);
        bank.feed(&[Reading::new(1, 0, 9, 42.0)]);
        store.checkpoint(&mut bank, 3, &mut net);
        assert_eq!(store.snapshot_epochs(), vec![3], "no duplicate manifest entry");
    }

    #[test]
    #[should_panic(expected = "cadence must be at least one epoch")]
    fn zero_cadence_is_rejected() {
        let _ = CheckpointStore::new(0);
    }
}
