//! A small hostile image must not make a restore reserve what none of its bytes back.
//!
//! An image declares its bank's capacity, up to [`MAX_IMAGE_CAPACITY`] (2²⁰) epochs per
//! window, and the seal is no MAC (ADR-009): anyone can write one.  A restore that sized
//! every window by the declared capacity reserved capacity × records — 4 000 one-sample
//! records in a 96 030-byte image asked for 64 GiB of address space.  A window reserves
//! what its record holds.
//!
//! The check reads this process's `VmPeak` from `/proc/self/status`, which counts
//! address space reserved whether or not it is touched: Linux only.  The binary's one
//! other test builds a one-sample store, far below the bound.
//!
//! A store is hostile in its epochs too: one whose newest snapshot is at `u64::MAX`
//! leaves an adopting engine no epoch to resume at, and is refused typed.

#![cfg(target_os = "linux")]

use kspot_net::codec::{put_u16, put_u32, put_u64};
use kspot_net::{Deployment, Network, NetworkConfig, Reading, WindowBank};
use kspot_store::{
    checksum_seal, encode_manifest, CheckpointStore, StoreError, FORMAT_VERSION, IMAGE_MAGIC,
    MAX_IMAGE_CAPACITY,
};

/// This process's peak virtual memory size, KiB.
fn vm_peak_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let line = status.lines().find_map(|l| l.strip_prefix("VmPeak:")).expect("a VmPeak line");
    line.trim().trim_end_matches("kB").trim().parse().expect("VmPeak in kB")
}

#[test]
fn a_restore_reserves_what_the_records_hold_not_the_declared_capacity() {
    const RECORDS: u32 = 4_000;
    // Node `n` sampled epoch `n` once, in a bank that declares the largest capacity.
    let mut image = IMAGE_MAGIC.to_vec();
    put_u16(&mut image, FORMAT_VERSION);
    put_u64(&mut image, u64::from(RECORDS)); // snapshot epoch
    put_u32(&mut image, MAX_IMAGE_CAPACITY as u32);
    put_u32(&mut image, RECORDS);
    for node in 1..=RECORDS {
        put_u32(&mut image, node);
        put_u32(&mut image, 1);
        put_u64(&mut image, u64::from(node));
        put_u64(&mut image, f64::from(node).to_bits());
    }
    let image = checksum_seal(image);
    assert_eq!(image.len(), 96_030);
    let mut device = encode_manifest(1, 1, &[(u64::from(RECORDS), image.len())]);
    device.extend_from_slice(&image);

    let before = vm_peak_kib();
    let store = CheckpointStore::from_bytes(&device).expect("a sealed, well-formed store");
    let bank = store.restore_latest_bank().expect("one image");
    let grown = vm_peak_kib().saturating_sub(before);

    assert_eq!(bank.node_ids().len(), RECORDS as usize);
    assert_eq!(bank.capacity(), MAX_IMAGE_CAPACITY);
    assert!(grown < 256 * 1024, "restoring a 96 030-byte image grew VmPeak by {grown} KiB");
}

#[test]
fn a_store_whose_newest_snapshot_is_at_the_last_epoch_is_refused_typed() {
    let mut net = Network::new(Deployment::grid(2, 10.0, None), NetworkConfig::ideal());
    let mut bank = WindowBank::new(4);
    bank.feed(&[Reading::new(1, 0, 0, 1.0)]);
    let mut store = CheckpointStore::new(1);
    store.checkpoint(&mut bank, u64::MAX, &mut net);
    let refused = StoreError::Oversize { what: "snapshot epoch", declared: u64::MAX, max: u64::MAX - 1 };
    assert_eq!(CheckpointStore::from_bytes(&store.to_bytes()), Err(refused));
}
