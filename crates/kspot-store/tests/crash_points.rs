//! Crash-point matrix for one checkpoint (ADR-013, "Write order").
//!
//! [`CheckpointStore::to_bytes`] is the device: the manifest, then the image log.  A
//! checkpoint rewrites it in the order the ADR commits to — **image pages first, the
//! manifest last** — one [`FLASH_PAGE_BYTES`] page at a time, and power may fail between
//! any two pages.  For a ring that is filling, one that is evicting and one whose
//! manifest is itself two pages, every such torn device (the new pages written so far
//! over the old bytes) and every page-boundary truncation of the new bytes must rebuild
//! as exactly the ring before the checkpoint, exactly the ring after it, or a typed
//! [`StoreError`] — never a panic, never a ring that is neither.

use kspot_net::{Deployment, Network, NetworkConfig, Reading, WindowBank, FLASH_PAGE_BYTES};
use kspot_store::CheckpointStore;
use std::ops::Range;

const NODES: u32 = 5;
const SPAN: usize = 8;

fn scratch_net() -> Network {
    Network::new(Deployment::grid(4, 10.0, None), NetworkConfig::ideal())
}

/// A cadence-1 store of `retention` images and the bank behind it, after `epochs`
/// checkpoints; early images hold fewer samples, so extents differ in length.
fn ring(retention: usize, epochs: u64) -> (CheckpointStore, WindowBank) {
    let (mut store, mut bank) = (CheckpointStore::new(1).with_retention(retention), WindowBank::new(SPAN));
    for epoch in 0..epochs {
        checkpoint(&mut store, &mut bank, epoch);
    }
    (store, bank)
}

fn checkpoint(store: &mut CheckpointStore, bank: &mut WindowBank, epoch: u64) {
    let readings: Vec<Reading> =
        (1..=NODES).map(|n| Reading::new(n, 0, epoch, f64::from(n) * 3.25 - epoch as f64)).collect();
    bank.feed(&readings);
    store.checkpoint(bank, epoch, &mut scratch_net());
}

/// The page writes of a device whose manifest is `manifest_len` of its `len` bytes, in
/// write order: the log front to back, then the manifest.
fn write_order(manifest_len: usize, len: usize) -> Vec<Range<usize>> {
    let pages = |span: Range<usize>| {
        let end = span.end;
        span.step_by(FLASH_PAGE_BYTES).map(move |at| at..(at + FLASH_PAGE_BYTES).min(end))
    };
    pages(manifest_len..len).chain(pages(0..manifest_len)).collect()
}

/// What rebuilding `device` gave: `Some(false)` the ring before, `Some(true)` the ring
/// after, `None` a typed error.  Anything else fails the test.
fn rebuilt(device: &[u8], before: &CheckpointStore, after: &CheckpointStore, what: &str) -> Option<bool> {
    let store = match CheckpointStore::from_bytes(device) {
        Ok(store) => store,
        Err(e) => {
            let _ = e.to_string();
            return None;
        }
    };
    let is_after = store == *after;
    let twin = if is_after { after } else { before };
    assert_eq!(store, *twin, "{what}: a ring that is neither the old nor the new one");
    // And it restores what that ring restores, image by image.
    assert_eq!(format!("{:?}", store.restore_latest_bank()), format!("{:?}", twin.restore_latest_bank()));
    for epoch in twin.snapshot_epochs() {
        let (mut a, mut b) = (scratch_net(), scratch_net());
        let restored = store.restore(epoch, SPAN, &mut a).expect("a retained epoch restores");
        let expected = twin.restore(epoch, SPAN, &mut b).expect("a retained epoch restores");
        assert_eq!(format!("{restored:?}"), format!("{expected:?}"), "{what}: AS OF {epoch}");
        assert_eq!(a.metrics().storage_totals(), b.metrics().storage_totals());
    }
    Some(is_after)
}

#[test]
fn a_crash_between_any_two_pages_leaves_the_old_ring_the_new_ring_or_an_error() {
    // (retention, checkpoints taken before the torn one)
    for (name, retention, taken) in [("filling", 4, 2), ("evicting", 2, 5), ("two-page manifest", 12, 14)] {
        let (before, mut bank) = ring(retention, taken);
        let mut after = before.clone();
        checkpoint(&mut after, &mut bank, taken);
        assert_eq!(after.snapshot_epochs().len(), (taken as usize + 1).min(retention), "{name}");
        let (old, new) = (before.to_bytes(), after.to_bytes());
        let order = write_order(after.manifest_bytes().len(), new.len());
        assert!(order.len() > 3, "{name}: the write is several pages ({})", order.len());

        let mut device = old.clone();
        let mut outcomes = vec![rebuilt(&device, &before, &after, name)];
        for (written, page) in order.iter().enumerate() {
            if device.len() < page.end {
                device.resize(page.end, 0xFF); // erased flash
            }
            device[page.clone()].copy_from_slice(&new[page.clone()]);
            if written + 1 == order.len() {
                device.truncate(new.len());
            }
            let what = format!("{name}, crash after page {} of {}", written + 1, order.len());
            outcomes.push(rebuilt(&device, &before, &after, &what));
        }
        assert_eq!(outcomes.first(), Some(&Some(false)), "{name}: nothing written is the old ring");
        assert_eq!(outcomes.last(), Some(&Some(true)), "{name}: everything written is the new ring");
        // The manifest goes last: until its first page lands no torn device may claim to
        // be the new ring.
        let manifest_pages = after.manifest_bytes().len().div_ceil(FLASH_PAGE_BYTES);
        let early = &outcomes[..outcomes.len() - manifest_pages];
        assert!(!early.contains(&Some(true)), "{name}: the new ring before its manifest: {outcomes:?}");

        for cut in (0..new.len()).step_by(FLASH_PAGE_BYTES) {
            let what = format!("{name}, device cut at byte {cut}");
            assert_eq!(rebuilt(&new[..cut], &before, &after, &what), None, "{what}");
        }
    }
}
