//! Panic-hardening properties for the checkpoint decoder over **untrusted bytes**.
//!
//! A restored engine may be fed pages that survived a crash, came off another
//! machine, or were tampered with, so `decode_image`/`decode_manifest` and the
//! whole-store `CheckpointStore::from_bytes` path must return `Ok`/`Err` for *any*
//! input — never panic, never overflow-abort, and never allocate for a declared
//! count the bytes cannot back (the mirror of `kspot-query`'s `fuzz_untrusted.rs`
//! for the second untrusted-input boundary, ADR-009).  Three generators probe
//! different failure surfaces:
//!
//! 1. raw byte soup (framing and bounds checks),
//! 2. bit-flipped valid images (checksum and structural invariants behind a valid
//!    prefix),
//! 3. mutated valid images: truncated, duplicated-tail and spliced (deep per-node
//!    record paths behind a re-sealed checksum).
//!
//! Every error must also `Display` without panicking — the serve layer stringifies
//! decode failures into wire error frames.
//!
//! Whatever *does* decode must restore to the bank the snapshot was taken of:
//! `SnapshotImage::into_bank` transposes the image's columns with one cursor per node,
//! and its predecessor — regroup by epoch in a map, then feed — lives on here as the
//! oracle, over the same corpus and over random ragged images.

use kspot_net::codec::{put_u16, put_u32, put_u64};
use kspot_net::{Epoch, Reading, WindowBank};
use kspot_store::{
    checksum_seal, decode_image, decode_manifest, CheckpointStore, SnapshotImage, StoreError,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// `SnapshotImage::into_bank` as it was before it transposed: the samples regrouped by
/// epoch in a map, each epoch's readings then fed in one go.
fn bank_by_map(image: SnapshotImage) -> WindowBank {
    let mut by_epoch: BTreeMap<Epoch, Vec<Reading>> = BTreeMap::new();
    for (node, samples) in image.nodes {
        for (epoch, value) in samples {
            by_epoch.entry(epoch).or_default().push(Reading::new(node, 0, epoch, value));
        }
    }
    let mut bank = WindowBank::new(image.capacity);
    for readings in by_epoch.values() {
        bank.feed(readings);
    }
    bank
}

/// Demands that `image` restores to the bank the map-based replay arrives at, field by
/// field: `Debug` prints every field of the bank and of each window (capacity, nodes,
/// samples in order, `epochs`, `fed`, `evicted`, `page_reads`), finite values uniquely.
fn assert_restores_like_the_replay(image: SnapshotImage) {
    let (restored, replayed) = (image.clone().into_bank(), bank_by_map(image));
    assert_eq!(format!("{restored:?}"), format!("{replayed:?}"));
}

/// Drives every untrusted decode entry point; the property is "this returns", and an
/// image that decodes restores like the replay.
fn exercise_decoders(bytes: &[u8]) {
    match decode_image(bytes) {
        Ok(image) => assert_restores_like_the_replay(image),
        Err(e) => {
            let _ = e.to_string();
        }
    }
    if let Err(e) = decode_manifest(bytes) {
        let _ = e.to_string();
    }
    if let Err(e) = CheckpointStore::from_bytes(bytes) {
        let _ = e.to_string();
    }
}

/// The image of `nodes` nodes that each sampled `epochs` epochs into a bank of `capacity`.
fn image_of(nodes: u32, epochs: u64, capacity: usize) -> Vec<u8> {
    let mut bank = WindowBank::new(capacity);
    for epoch in 0..epochs {
        let readings: Vec<Reading> = (1..=nodes)
            .map(|node| Reading::new(node, 0, epoch, f64::from(node) * 7.5 + epoch as f64))
            .collect();
        bank.feed(&readings);
    }
    kspot_store::encode_image(&bank, epochs - 1)
}

/// A well-formed image to mutate: 4 nodes, 6 epochs in a capacity-8 bank.
fn valid_image() -> Vec<u8> {
    image_of(4, 6, 8)
}

#[test]
fn no_single_bit_flip_of_a_full_size_image_decodes() {
    // What the benchmark's historic workload checkpoints: 100 nodes × 128 epochs, 205 630
    // bytes — 3 212 blocks of the seal, then six words and six bytes.
    let mut image = image_of(100, 128, 128);
    assert_eq!(image.len(), 22 + 100 * (8 + 128 * 16) + 8);
    assert!(decode_image(&image).is_ok());
    // Every bit of the first block, of the last two and of what follows them (the
    // seal's tail, then the trailer); in between one byte in 211 — a stride odd and not a
    // multiple of 8, so it visits every lane and every byte of a word — its bit moving on.
    let payload = image.len() - 8;
    let dense = payload - payload % 64 - 2 * 64;
    let sweep = (0..64).chain((64..dense).step_by(211)).chain(dense..image.len());
    for (n, at) in sweep.enumerate() {
        let bits = if (64..dense).contains(&at) { n % 8..n % 8 + 1 } else { 0..8 };
        for bit in bits {
            image[at] ^= 1 << bit;
            let got = decode_image(&image).expect_err("a flipped bit must not decode");
            // Magic and version are read ahead of the seal; everything else is the seal's.
            if at >= 6 {
                assert_eq!(got, StoreError::ChecksumMismatch, "byte {at}, bit {bit}");
            }
            image[at] ^= 1 << bit;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn raw_byte_soup_never_panics(bytes in prop::collection::vec(0u32..256, 0usize..160)) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        exercise_decoders(&bytes);
    }

    #[test]
    fn bit_flipped_images_never_decode_silently(
        flips in prop::collection::vec((0usize..4096, 0u32..8), 1usize..6),
    ) {
        let good = valid_image();
        let mut bad = good.clone();
        for &(pos, bit) in &flips {
            let i = pos % bad.len();
            bad[i] ^= 1 << bit;
        }
        match decode_image(&bad) {
            // A flip set that cancels out reproduces the original image.
            Ok(image) => {
                prop_assert_eq!(bad, good, "epoch {}", image.epoch);
                assert_restores_like_the_replay(image);
            }
            Err(e) => { let _ = e.to_string(); }
        }
    }

    #[test]
    fn mutated_valid_images_never_panic(
        cut in 0usize..4096,
        splice_at in 0usize..4096,
        dup_tail in 0usize..64,
        reseal in prop_oneof![Just(true), Just(false)],
    ) {
        let good = valid_image();
        // Truncate, splice a shifted copy of the body in, and duplicate a tail run —
        // then optionally re-seal the checksum so the *structural* validators (not
        // just the checksum) face the mutated bytes.
        let mut bytes = good.clone();
        bytes.truncate(cut % (good.len() + 1));
        let at = splice_at % (bytes.len() + 1);
        let shifted: Vec<u8> = good.iter().skip(dup_tail % good.len()).copied().collect();
        bytes.splice(at..at, shifted.into_iter().take(dup_tail));
        if reseal && bytes.len() >= 8 {
            let len = bytes.len();
            bytes = checksum_seal(bytes[..len - 8].to_vec());
        }
        exercise_decoders(&bytes);
    }

    #[test]
    fn ragged_images_restore_like_the_replay(
        // Per node: an id gap, the first of 40 epochs it was up for, and which of the
        // following ones it sampled — columns of any length, start and density.
        columns in prop::collection::vec((1u32..5, 0u64..40, 0u64..u64::MAX), 1usize..12),
        capacity in 1usize..48,
        stride in 1u64..4,
    ) {
        let mut node = 0;
        let nodes = columns
            .iter()
            .map(|&(gap, first, sampled)| {
                node += gap;
                let mut column: Vec<(Epoch, f64)> = (first..40)
                    .filter(|e| e == &first || sampled >> e & 1 == 1)
                    .map(|e| (e * stride, f64::from(node) * 0.5 - e as f64))
                    .collect();
                // A window keeps its newest samples.
                column.drain(..column.len().saturating_sub(capacity));
                (node, column)
            })
            .collect();
        let image = SnapshotImage { epoch: 39 * stride, capacity, nodes };
        // What the encoder writes of the restored bank is the image again: the
        // hand-built columns are ones the decoder accepts.
        let bytes = kspot_store::encode_image(&image.clone().into_bank(), image.epoch);
        prop_assert_eq!(decode_image(&bytes).as_ref(), Ok(&image));
        assert_restores_like_the_replay(image);
    }
}

/// A `u64` field of a hostile manifest: the extremes and their neighbours as often as
/// small and arbitrary values.
fn extreme_u64() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0), Just(1), Just(u64::MAX - 1), Just(u64::MAX), 0u64..64, 0u64..u64::MAX]
}

/// A sealed version-2 manifest with a valid header (cadence ≥ 1, retention ≥ the
/// entry count) and whatever `(epoch, offset, len)` triples it is given.
fn manifest_of(cadence: u64, retention: u32, entries: &[(u64, u64, u64)]) -> Vec<u8> {
    let mut out = kspot_store::MANIFEST_MAGIC.to_vec();
    put_u16(&mut out, kspot_store::FORMAT_VERSION);
    put_u64(&mut out, cadence);
    put_u32(&mut out, retention);
    put_u32(&mut out, entries.len() as u32);
    for &(epoch, offset, len) in entries {
        put_u64(&mut out, epoch);
        put_u64(&mut out, offset);
        put_u64(&mut out, len);
    }
    checksum_seal(out)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// The corpora above mutate images; this one forges manifests, past the seal and
    /// the header into the extent checks.  With `chained`, each entry's epoch and offset
    /// continue the previous entry's (wrapping) — so the checks after the first entry
    /// see extreme extents — and the store's log is a valid image.
    #[test]
    fn resealed_manifests_never_panic(
        cadence in 1u64..u64::MAX,
        spare_retention in 0u32..4,
        triples in prop::collection::vec((extreme_u64(), extreme_u64(), extreme_u64()), 0usize..6),
        chained in prop_oneof![Just(true), Just(false)],
    ) {
        let entries: Vec<(u64, u64, u64)> = if chained {
            let (mut epoch, mut offset) = (0u64, 0u64);
            let chain = |&(gap, _, len): &(u64, u64, u64)| {
                let entry = (epoch, offset, len);
                epoch = epoch.wrapping_add(gap.max(1));
                offset = offset.wrapping_add(len);
                entry
            };
            triples.iter().map(chain).collect()
        } else {
            triples
        };
        let retention = (entries.len() as u32).max(1) + spare_retention;
        let mut bytes = manifest_of(cadence, retention, &entries);
        exercise_decoders(&bytes);
        if chained {
            bytes.extend_from_slice(&valid_image());
            exercise_decoders(&bytes);
        }
    }
}
