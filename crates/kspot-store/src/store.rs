//! [`CheckpointStore`]: the ring of snapshots on the modeled flash device.

use crate::format::{
    decode, encode_manifest, image_bytes, pages_for, record_bytes, split_manifest, write_image, Sample, SpanCut,
    StoreError,
};
use kspot_algos::BankWindows;
use kspot_net::{Epoch, Network, NodeId, SlidingWindow, Value, WindowBank};
use std::collections::VecDeque;

/// Default number of snapshots the ring retains before the oldest is overwritten.
pub const DEFAULT_RETENTION: usize = 8;

/// A log-structured ring of checkpoint images over the modeled flash device.
///
/// Every `cadence` epochs the engine snapshots its shared [`WindowBank`]; the ring keeps
/// the most recent `retention` snapshots ([`DEFAULT_RETENTION`] unless
/// [`CheckpointStore::with_retention`] says otherwise), indexed by a small manifest.
/// Page writes (at checkpoint time, charged to every node that owns a window — each
/// mote persists its *own* column) and page reads (at restore time, charged under the
/// restoring query's scope) go through [`Network::charge_page_writes`] /
/// [`Network::charge_page_reads`], so the ledger conservation law extends to storage.
///
/// The device holds one sealed image per snapshot, and that is what
/// [`CheckpointStore::to_bytes`] writes — the only place an image is encoded and
/// sealed.  The host holds the ring as one append-only sample log per node (ADR-015):
/// a snapshot is its epoch, its capacity and, per record, where the record's samples
/// lie in its node's log, and consecutive snapshots of one window share the samples
/// they have in common.  A checkpoint appends only what each window took in since the
/// previous one — counted by [`SlidingWindow::pushed`], and only where the window is
/// seen to continue its log — and a restore cuts its span from the logs with the span
/// function the decoder cuts an image's bytes with, so an `AS OF` answer is the one the
/// encoded bytes give: a store deserialised from [`CheckpointStore::to_bytes`] restores
/// byte-identical answers.  Bytes from outside are validated once, by
/// [`CheckpointStore::from_bytes`], whose validated images are loaded into the logs;
/// nothing after that checks them again.  Two stores are equal when their devices hold
/// the same content — epochs, capacities and every record's samples — however their
/// logs are laid out.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    cadence: u64,
    retention: usize,
    /// Retained snapshots, oldest first.
    snapshots: VecDeque<Snapshot>,
    /// One log per node any retained snapshot holds a record of, ascending by node.
    logs: Vec<Log>,
}

/// One retained snapshot: what its image holds, with the samples left in the logs.
#[derive(Debug, Clone)]
struct Snapshot {
    epoch: Epoch,
    capacity: usize,
    /// One record per window of the bank, ascending by node.
    records: Vec<Record>,
    /// The encoded image's length in bytes.
    bytes: usize,
}

/// One node record of a snapshot: `len` samples of the node's log from position `start`,
/// and whether they are known to be strictly ascending in epoch — a hand-fed window may
/// repeat an epoch, and a restore compares such a record's epochs one by one.
#[derive(Debug, Clone, Copy)]
struct Record {
    node: NodeId,
    start: u64,
    len: usize,
    ascending: bool,
}

/// One node's append-only log of samples.  Positions count from the log's first sample
/// ever, so a record keeps its position when the log drops a prefix.
#[derive(Debug, Clone)]
struct Log {
    node: NodeId,
    /// The samples from position `base` on.
    samples: Vec<(Epoch, Value)>,
    base: u64,
    /// The window the last checkpoint appended from, if one did since the log was
    /// loaded: it ends the log.
    mark: Option<Mark>,
    /// The first position from which the log's samples are strictly ascending in epoch
    /// to its end, within the range the last checkpoint or load started: a record from
    /// there on is.
    ascending_from: u64,
}

/// What a checkpoint knew of the window it appended from.
#[derive(Debug, Clone, Copy)]
struct Mark {
    /// The window's [`SlidingWindow::pushed`] then: its newest sample ends the log.
    pushed: u64,
    /// Its capacity then.
    capacity: usize,
}

/// Whether two samples are the same sample, bit for bit.
fn same(a: (Epoch, Value), b: (Epoch, Value)) -> bool {
    a.0 == b.0 && a.1.to_bits() == b.1.to_bits()
}

impl Log {
    fn new(node: NodeId) -> Self {
        Self { node, samples: Vec::new(), base: 0, mark: None, ascending_from: 0 }
    }

    /// The position past the log's last sample.
    fn end(&self) -> u64 {
        self.base + self.samples.len() as u64
    }

    /// The samples of `record`.
    fn samples_of(&self, record: &Record) -> &[(Epoch, Value)] {
        let at = (record.start - self.base) as usize;
        &self.samples[at..at + record.len]
    }

    /// How many of `window`'s oldest samples end the log already: those it held when the
    /// mark was set, if the window is seen to continue the log — its capacity is the
    /// mark's, it has pushed no fewer samples since, and the first and the last of the
    /// samples it still holds from then are the log's.  Otherwise none: a window the log
    /// does not continue (a restarted engine's adopted one, a grown one, another bank's)
    /// gets a whole new range.
    fn continued_by(&self, window: &SlidingWindow) -> usize {
        let Some(mark) = self.mark else { return 0 };
        let held = window.as_slice();
        if window.capacity() != mark.capacity || window.pushed() < mark.pushed {
            return 0;
        }
        let fresh = window.pushed() - mark.pushed;
        let overlap = held.len().saturating_sub(usize::try_from(fresh).unwrap_or(usize::MAX));
        if overlap == 0 || overlap > self.samples.len() {
            return 0;
        }
        let tail = &self.samples[self.samples.len() - overlap..];
        if same(tail[0], held[0]) && same(tail[overlap - 1], held[overlap - 1]) {
            overlap
        } else {
            0
        }
    }

    /// Records `window` in the log: appends what the log does not already end with and
    /// returns where the window's samples start, and whether they are strictly
    /// ascending in epoch — learnt from the samples appended, each against the one
    /// before it.  When the buffer is full, the prefix no retained record covers is
    /// dropped first — `live` gives the first position a retained record other than
    /// this one covers.
    fn append(&mut self, window: &SlidingWindow, live: impl FnOnce() -> Option<u64>) -> (u64, bool) {
        let overlap = self.continued_by(window);
        let start = self.end() - overlap as u64;
        let fresh = &window.as_slice()[overlap..];
        let mut before = if overlap == 0 {
            self.ascending_from = start;
            None
        } else {
            self.samples.last().map(|&(epoch, _)| epoch)
        };
        for (at, &(epoch, _)) in fresh.iter().enumerate() {
            if before.is_some_and(|before| epoch <= before) {
                self.ascending_from = self.end() + at as u64;
            }
            before = Some(epoch);
        }
        if self.samples.capacity() - self.samples.len() < fresh.len() {
            let keep = live().map_or(start, |live| live.min(start));
            self.samples.drain(..(keep - self.base) as usize);
            self.base = keep;
            // Room past the live samples, so that dropping is paid once per so many appends.
            let room = fresh.len() + self.samples.len() / 8 + 1;
            self.samples.reserve_exact(room);
        }
        self.samples.extend_from_slice(fresh);
        self.mark = Some(Mark { pushed: window.pushed(), capacity: window.capacity() });
        (start, self.ascending_from <= start)
    }

    /// Appends a whole record's samples straight from an image's validated run —
    /// strictly ascending in epoch — as a new range.  A loaded log remembers no window,
    /// so no window is taken to continue it.
    fn load(&mut self, run: &[[u8; 16]]) -> u64 {
        let start = self.end();
        self.samples.extend(run.iter().map(|sample| (sample.epoch(), sample.value())));
        self.ascending_from = start;
        start
    }
}

/// Where `node`'s log is in `logs`, ascending by node, from `at` on; a new one is
/// inserted where it belongs if there is none.
fn log_at(logs: &mut Vec<Log>, at: &mut usize, node: NodeId) -> usize {
    while logs.get(*at).is_some_and(|log| log.node < node) {
        *at += 1;
    }
    if logs.get(*at).is_none_or(|log| log.node != node) {
        logs.insert(*at, Log::new(node));
    }
    *at
}

impl CheckpointStore {
    /// Creates an empty store that checkpoints every `cadence` epochs.
    pub fn new(cadence: u64) -> Self {
        assert!(cadence > 0, "checkpoint cadence must be at least one epoch");
        Self { cadence, retention: DEFAULT_RETENTION, snapshots: VecDeque::new(), logs: Vec::new() }
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
        self.snapshots.is_empty()
    }

    /// Snapshot epochs currently retained, oldest first.
    pub fn snapshot_epochs(&self) -> Vec<Epoch> {
        self.snapshots.iter().map(|s| s.epoch).collect()
    }

    /// The newest retained snapshot epoch.
    pub fn latest_epoch(&self) -> Option<Epoch> {
        self.snapshots.back().map(|s| s.epoch)
    }

    /// Total encoded bytes currently on the device (images only; the manifest rides
    /// in the sink's mains-powered storage).
    pub fn stored_bytes(&self) -> u64 {
        self.snapshots.iter().map(|s| s.bytes as u64).sum()
    }

    /// True when the engine, having fed `epochs_fed` epochs into the bank, owes the
    /// device a checkpoint.
    pub fn due(&self, epochs_fed: u64) -> bool {
        epochs_fed > 0 && epochs_fed.is_multiple_of(self.cadence)
    }

    /// Snapshots `bank` as of `epoch`: charges each window-owning node the flash page
    /// writes for its own record, appends to each node's log what its window took in
    /// since the last checkpoint, and adds the snapshot to the ring (evicting the oldest
    /// beyond the retention bound).  Checkpoint writes are substrate duty — like epoch
    /// baselines they run outside any query scope.
    pub fn checkpoint(&mut self, bank: &mut WindowBank, epoch: Epoch, net: &mut Network) {
        for (node, window) in bank.windows() {
            let bytes = record_bytes(window.len());
            net.charge_page_writes(node, pages_for(bytes), bytes as u64);
        }
        // A same-epoch re-checkpoint (e.g. a forced snapshot) replaces the newest one in
        // place; otherwise a full ring evicts its oldest.  Either way its record list is
        // reused, and its samples are left to the next drop of a log's prefix.
        let replaced = if self.snapshots.back().is_some_and(|s| s.epoch == epoch) {
            self.snapshots.pop_back()
        } else if self.snapshots.len() == self.retention {
            self.snapshots.pop_front()
        } else {
            None
        };
        let mut records = replaced.map_or_else(|| Vec::with_capacity(bank.node_ids().len()), |s| s.records);
        records.clear();
        let Self { snapshots, logs, .. } = self;
        let (mut at, mut samples) = (0, 0);
        for (node, window) in bank.windows() {
            let log = log_at(logs, &mut at, node);
            let live = || snapshots.iter().filter_map(|s| Some(s.records[s.position(node)?].start)).min();
            let (start, ascending) = logs[log].append(window, live);
            records.push(Record { node, start, len: window.len(), ascending });
            samples += window.len();
        }
        let bytes = image_bytes(records.len(), samples);
        snapshots.push_back(Snapshot { epoch, capacity: bank.capacity(), records, bytes });
    }

    /// Restores the snapshot taken at exactly `epoch` and opens a [`BankWindows`] view
    /// (owning the restored bank) over its last `window` epochs, charging each node the
    /// flash page reads for its own record.  Reads are charged to whatever query scope
    /// is installed on `net` — restore cost belongs to the `AS OF` session that asked
    /// for it.  Only the samples of the view's span are materialised: the view reads
    /// what it would read of the whole image's bank, and the pages charged are every
    /// record's.  Nothing is checked again — the samples were taken from a live bank or
    /// validated by [`Self::from_bytes`] — so the only error is an epoch not retained.
    pub fn restore(
        &self,
        epoch: Epoch,
        window: usize,
        net: &mut Network,
    ) -> Result<BankWindows<'static>, StoreError> {
        let snapshot = self.snapshots.iter().find(|s| s.epoch == epoch).ok_or(StoreError::NoSnapshot(epoch))?;
        for record in &snapshot.records {
            net.charge_page_reads(record.node, pages_for(record_bytes(record.len)));
        }
        Ok(BankWindows::owned(self.bank_of(snapshot, window), window))
    }

    /// Restores the newest snapshot into a bare [`WindowBank`] without charging —
    /// the restore-on-construct path, where the engine re-adopts its own durable
    /// state before any query runs (crash recovery is not billed to a query).  Like
    /// [`Self::restore`], it checks nothing again.
    pub fn restore_latest_bank(&self) -> Option<WindowBank> {
        Some(self.bank_of(self.snapshots.back()?, usize::MAX))
    }

    /// The bank of `snapshot`'s newest `span` covered epochs, cut from the logs as
    /// [`crate::format::decode`] cuts it from the snapshot's image.
    fn bank_of(&self, snapshot: &Snapshot, span: usize) -> WindowBank {
        let mut cut = SpanCut::new(span, snapshot.records.len());
        for (record, samples) in self.records_of(snapshot) {
            cut.take(record.node, samples, record.ascending);
        }
        cut.into_bank(snapshot.capacity)
    }

    /// `snapshot`'s records, ascending by node: each record and its samples.
    fn records_of<'a>(&'a self, snapshot: &'a Snapshot) -> impl Iterator<Item = (&'a Record, &'a [(Epoch, Value)])> {
        let mut logs = self.logs.iter();
        snapshot.records.iter().map(move |record| {
            let log = logs.find(|log| log.node == record.node).expect("every record's node keeps a log");
            (record, log.samples_of(record))
        })
    }

    /// The manifest describing the current ring, as sealed bytes.
    pub fn manifest_bytes(&self) -> Vec<u8> {
        let entries: Vec<(Epoch, usize)> = self.snapshots.iter().map(|s| (s.epoch, s.bytes)).collect();
        encode_manifest(self.cadence, self.retention, &entries)
    }

    /// Serialises the whole store — manifest followed by the image log — for
    /// persistence across engine restarts.  This is where each snapshot's image is
    /// encoded and sealed.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = self.manifest_bytes();
        out.reserve_exact(self.snapshots.iter().map(|s| s.bytes).sum());
        for snapshot in &self.snapshots {
            let records = self.records_of(snapshot).map(|(record, samples)| (record.node, samples));
            write_image(&mut out, snapshot.epoch, snapshot.capacity, snapshot.records.len(), records);
        }
        out
    }

    /// Rebuilds a store from [`Self::to_bytes`] output.  The manifest is validated
    /// eagerly; each image extent is sliced out and run through the decoder's
    /// validating pass — seal, counts, order and values — so a torn or tampered log
    /// fails here with a typed error rather than at first query.  This is the one door
    /// for bytes from outside the store: each image is validated here once, each record's
    /// run is appended straight from the bytes into its node's log as a new range as soon
    /// as it is validated, and nothing checks them again.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, StoreError> {
        let (manifest, log) = split_manifest(bytes)?;
        // Both validated by the manifest decoder; no assertion stands behind these bytes.
        let mut store = Self {
            cadence: manifest.cadence,
            retention: manifest.retention,
            snapshots: VecDeque::new(),
            logs: Vec::new(),
        };
        // The extents are contiguous from 0, so the log ends where the last one does.
        let mut logged = 0;
        for entry in &manifest.entries {
            let start = usize::try_from(entry.offset).map_err(|_| StoreError::Truncated)?;
            let len = usize::try_from(entry.len).map_err(|_| StoreError::Truncated)?;
            let end = start.checked_add(len).ok_or(StoreError::Truncated)?;
            if end > log.len() {
                return Err(StoreError::Truncated);
            }
            let (mut records, mut at) = (Vec::new(), 0);
            let logs = &mut store.logs;
            let image = decode(&log[start..end], |node, run| {
                let log = log_at(logs, &mut at, node);
                let start = logs[log].load(run);
                records.push(Record { node, start, len: run.len(), ascending: true });
            })?;
            if image.epoch != entry.epoch {
                return Err(StoreError::Corrupt("manifest epoch disagrees with its image"));
            }
            // An engine adopting the store resumes the epoch after its newest snapshot.
            if entry.epoch == Epoch::MAX {
                let max = Epoch::MAX - 1;
                return Err(StoreError::Oversize { what: "snapshot epoch", declared: entry.epoch, max });
            }
            store.snapshots.push_back(Snapshot { epoch: image.epoch, capacity: image.capacity, records, bytes: len });
            logged = end;
        }
        if log.len() != logged {
            return Err(StoreError::TrailingBytes);
        }
        Ok(store)
    }
}

impl Snapshot {
    /// Where `node`'s record is in `records`, if the snapshot holds one.
    fn position(&self, node: NodeId) -> Option<usize> {
        // Deployments number their nodes 1..=n, so a record usually sits at `node - 1`.
        let guess = (node as usize).wrapping_sub(1);
        if self.records.get(guess).is_some_and(|r| r.node == node) {
            Some(guess)
        } else {
            self.records.binary_search_by_key(&node, |r| r.node).ok()
        }
    }
}

/// Two stores are equal when their devices are: the same cadence and retention, and
/// snapshot by snapshot the same epoch, capacity and records, sample for sample and bit
/// for bit — not the same logs.
impl PartialEq for CheckpointStore {
    fn eq(&self, other: &Self) -> bool {
        let same_records = |a: &Snapshot, b: &Snapshot| {
            a.records.len() == b.records.len()
                && self.records_of(a).zip(other.records_of(b)).all(|((n, x), (m, y))| {
                    n.node == m.node && x.len() == y.len() && x.iter().zip(y).all(|(&p, &q)| same(p, q))
                })
        };
        self.cadence == other.cadence
            && self.retention == other.retention
            && self.snapshots.len() == other.snapshots.len()
            && self.snapshots.iter().zip(&other.snapshots).all(|(a, b)| {
                a.epoch == b.epoch && a.capacity == b.capacity && same_records(a, b)
            })
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
