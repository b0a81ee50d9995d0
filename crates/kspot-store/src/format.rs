//! The on-disk checkpoint format and its untrusted-input decoder (ADR-009).
//!
//! A checkpoint **image** serialises one [`WindowBank`] snapshot; the **manifest**
//! indexes the images currently retained in the store's ring.  Both are flat binary
//! layouts of fixed-width big-endian integers and `f64::to_bits` floats, closed by an
//! FNV-1a checksum so a torn or bit-flipped page is detected rather than ranked.
//!
//! Decoding is written for **untrusted bytes**, exactly like the wire parser in
//! `kspot-serve` (ADR-008): every read is bounds-checked, element counts are validated
//! against the bytes actually remaining before any allocation, and a malformed image
//! is a typed [`StoreError`], never a panic.  A restored engine may be fed pages that
//! survived a crash, came off another machine, or were tampered with — the decoder is
//! a trust boundary, and the `kspot-lint` R6 rule sweeps this crate for
//! alloc-before-validate mistakes just as it sweeps the wire parser.
//!
//! ## Image layout
//!
//! ```text
//! "KSPC"  magic (4 bytes)
//! u16     format version (1)
//! u64     snapshot epoch (the newest epoch the snapshot covers)
//! u32     bank capacity in epochs
//! u32     node count
//! per node (ascending node id):
//!   u32   node id
//!   u32   sample count (≤ capacity)
//!   per sample (ascending epoch): u64 epoch, u64 value bits
//! u64     FNV-1a 64 checksum of every preceding byte
//! ```
//!
//! The manifest replaces the node records with `(epoch, offset, length)` entries, one
//! per retained image, ascending in both epoch and offset ("KSPM" magic).

use kspot_net::{Epoch, NodeId, Reading, Value, WindowBank, FLASH_PAGE_BYTES, SINK};
use std::fmt;

/// Checkpoint format revision; bumped on any incompatible layout change.
pub const FORMAT_VERSION: u16 = 1;

/// Magic opening a checkpoint image.
pub const IMAGE_MAGIC: [u8; 4] = *b"KSPC";

/// Magic opening a store manifest.
pub const MANIFEST_MAGIC: [u8; 4] = *b"KSPM";

/// Bytes of an image before its first node record: magic, version, epoch, capacity,
/// node count.
const IMAGE_HEADER_BYTES: usize = 4 + 2 + 8 + 4 + 4;

/// Ceiling on the bank capacity a decoded image may declare — matches the engine's
/// `MAX_HISTORY_EPOCHS` admission bound, so no hostile image can make a restore
/// allocate more window than any admitted query could have buffered.
pub const MAX_IMAGE_CAPACITY: usize = 1 << 20;

/// A malformed, truncated or corrupted checkpoint byte sequence.  Restoring from one
/// fails with this typed error; the live engine keeps running on its in-memory state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The bytes ended before the structure they declared was complete.
    Truncated,
    /// The image does not open with the expected magic.
    BadMagic,
    /// The image declares a format revision this decoder does not speak.
    BadVersion(u16),
    /// A declared size exceeds its structural bound.
    Oversize {
        /// What was oversized (e.g. `"capacity"`, `"sample count"`).
        what: &'static str,
        /// The declared value.
        declared: u64,
        /// The bound it violated.
        max: u64,
    },
    /// A structural invariant does not hold (ordering, domain, unknown node...).
    Corrupt(&'static str),
    /// The trailing checksum does not match the decoded bytes — a torn write or a
    /// bit flip on the flash.
    ChecksumMismatch,
    /// The structure ended but bytes remain.
    TrailingBytes,
    /// The store holds no snapshot for the requested epoch.
    NoSnapshot(Epoch),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Truncated => write!(f, "checkpoint bytes truncated mid-structure"),
            StoreError::BadMagic => write!(f, "not a checkpoint image (bad magic)"),
            StoreError::BadVersion(v) => write!(f, "unsupported checkpoint format version {v}"),
            StoreError::Oversize { what, declared, max } => {
                write!(f, "declared {what} {declared} exceeds the bound {max}")
            }
            StoreError::Corrupt(why) => write!(f, "corrupt checkpoint: {why}"),
            StoreError::ChecksumMismatch => {
                write!(f, "checkpoint checksum mismatch (torn write or bit flip)")
            }
            StoreError::TrailingBytes => write!(f, "checkpoint has trailing bytes"),
            StoreError::NoSnapshot(e) => write!(f, "no checkpoint covers epoch {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// FNV-1a 64 over `bytes` — cheap, deterministic corruption detection (not a MAC; the
/// threat model is crash tearing and media decay, see ADR-009).
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Appends the FNV-1a seal to `payload`, producing the sealed byte sequence the
/// decoders accept.  Fuzzers use this to re-seal structurally mutated images so the
/// validators behind the checksum face the hostile bytes too.
pub fn checksum_seal(mut payload: Vec<u8>) -> Vec<u8> {
    let sum = checksum(&payload);
    payload.extend_from_slice(&sum.to_be_bytes());
    payload
}

/// Number of whole flash pages a byte run occupies.
pub fn pages_for(bytes: usize) -> u64 {
    (bytes.div_ceil(FLASH_PAGE_BYTES)) as u64
}

// --- encoding ---------------------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Encodes one snapshot of `bank` as a checkpoint image.  Encoding iterates the live
/// windows without storage accounting — it is the page *writes* of the resulting
/// image that the store charges, not the SRAM reads that produce it.
pub fn encode_image(bank: &WindowBank, epoch: Epoch) -> Vec<u8> {
    // Header, one record per window, checksum: the image's exact size.
    let image_bytes =
        IMAGE_HEADER_BYTES + bank.windows().map(|(_, w)| 8 + 16 * w.len()).sum::<usize>() + 8;
    let mut out = Vec::with_capacity(image_bytes);
    out.extend_from_slice(&IMAGE_MAGIC);
    put_u16(&mut out, FORMAT_VERSION);
    put_u64(&mut out, epoch);
    put_u32(&mut out, bank.capacity() as u32);
    put_u32(&mut out, bank.node_ids().len() as u32);
    for (node, window) in bank.windows() {
        put_u32(&mut out, node);
        put_u32(&mut out, window.len() as u32);
        for (e, v) in window.iter() {
            put_u64(&mut out, e);
            put_u64(&mut out, v.to_bits());
        }
    }
    let sum = checksum(&out);
    put_u64(&mut out, sum);
    out
}

/// Encodes the manifest for the retained `(epoch, image byte length)` ring, oldest
/// first.  Offsets are assigned contiguously in ring order — the log-structured layout
/// a sequential flash write produces.
pub fn encode_manifest(cadence: u64, entries: &[(Epoch, usize)]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&MANIFEST_MAGIC);
    put_u16(&mut out, FORMAT_VERSION);
    put_u64(&mut out, cadence);
    put_u32(&mut out, entries.len() as u32);
    let mut offset = 0u64;
    for &(epoch, len) in entries {
        put_u64(&mut out, epoch);
        put_u64(&mut out, offset);
        put_u64(&mut out, len as u64);
        offset += len as u64;
    }
    let sum = checksum(&out);
    put_u64(&mut out, sum);
    out
}

// --- decoding ---------------------------------------------------------------------

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(StoreError::Truncated);
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u16(&mut self) -> Result<u16, StoreError> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn finish(self) -> Result<(), StoreError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(StoreError::TrailingBytes)
        }
    }

    /// Validates a declared element count against the bytes actually left, so a
    /// hostile count field can never drive a huge allocation.
    fn count(&self, declared: u32, elem_bytes: usize) -> Result<usize, StoreError> {
        let declared = declared as usize;
        if declared.checked_mul(elem_bytes).is_none_or(|need| need > self.remaining()) {
            return Err(StoreError::Truncated);
        }
        Ok(declared)
    }
}

/// Splits off and verifies the trailing checksum, returning the covered payload.
fn checked_payload(bytes: &[u8]) -> Result<&[u8], StoreError> {
    if bytes.len() < 8 {
        return Err(StoreError::Truncated);
    }
    let (payload, tail) = bytes.split_at(bytes.len() - 8);
    let declared = u64::from_be_bytes(tail.try_into().expect("8 bytes"));
    if checksum(payload) != declared {
        return Err(StoreError::ChecksumMismatch);
    }
    Ok(payload)
}

/// One decoded, validated checkpoint snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotImage {
    /// The newest epoch the snapshot covers.
    pub epoch: Epoch,
    /// Bank capacity (epochs) at checkpoint time.
    pub capacity: usize,
    /// Per-node buffered samples, ascending node id, each ascending epoch.
    pub nodes: Vec<(NodeId, Vec<(Epoch, Value)>)>,
}

impl SnapshotImage {
    /// Rebuilds a live [`WindowBank`] holding exactly the snapshot's samples, by
    /// replaying the snapshot epoch by epoch through the bank's only mutation path —
    /// so a restored bank is indistinguishable from one that buffered the readings
    /// live.  The image is a column per node and a feed is a row per epoch: the
    /// columns are strictly ascending in epoch (the decoder checked, and an image built
    /// by hand must keep to it), so one cursor per column transposes them, the oldest
    /// epoch any cursor points at being the next row.
    pub fn into_bank(self) -> WindowBank {
        let mut bank = WindowBank::new(self.capacity);
        let mut cursors = vec![0usize; self.nodes.len()];
        let mut row: Vec<Reading> = Vec::with_capacity(self.nodes.len());
        let mut oldest = self.nodes.iter().filter_map(|(_, column)| column.first()).map(|&(e, _)| e).min();
        while let Some(epoch) = oldest.take() {
            row.clear();
            for ((node, column), at) in self.nodes.iter().zip(&mut cursors) {
                if let Some(&(e, value)) = column.get(*at).filter(|&&(e, _)| e == epoch) {
                    row.push(Reading::new(*node, 0, e, value));
                    *at += 1;
                }
                if let Some(&(next, _)) = column.get(*at) {
                    oldest = Some(oldest.map_or(next, |o: Epoch| o.min(next)));
                }
            }
            bank.feed(&row);
        }
        bank
    }
}

/// Decodes and validates one checkpoint image.  Every structural invariant the
/// encoder guarantees is re-checked here, because the bytes may not have come from
/// the encoder at all.
pub fn decode_image(bytes: &[u8]) -> Result<SnapshotImage, StoreError> {
    let payload = checked_payload(bytes)?;
    let mut c = Cursor::new(payload);
    if c.take(4)? != IMAGE_MAGIC {
        return Err(StoreError::BadMagic);
    }
    let version = c.u16()?;
    if version != FORMAT_VERSION {
        return Err(StoreError::BadVersion(version));
    }
    let epoch = c.u64()?;
    let capacity = c.u32()? as usize;
    if capacity == 0 || capacity > MAX_IMAGE_CAPACITY {
        return Err(StoreError::Oversize {
            what: "capacity",
            declared: capacity as u64,
            max: MAX_IMAGE_CAPACITY as u64,
        });
    }
    let declared_nodes = c.u32()?;
    // Each node record is at least 8 bytes (id + sample count).
    let node_count = c.count(declared_nodes, 8)?;
    let mut nodes: Vec<(NodeId, Vec<(Epoch, Value)>)> = Vec::with_capacity(node_count);
    let mut prev_node: Option<NodeId> = None;
    for _ in 0..node_count {
        let node = c.u32()?;
        if node == SINK {
            return Err(StoreError::Corrupt("the sink keeps no window"));
        }
        if prev_node.is_some_and(|p| node <= p) {
            return Err(StoreError::Corrupt("node ids not strictly ascending"));
        }
        prev_node = Some(node);
        let declared_samples = c.u32()?;
        let sample_count = c.count(declared_samples, 16)?;
        if sample_count > capacity {
            return Err(StoreError::Oversize {
                what: "sample count",
                declared: sample_count as u64,
                max: capacity as u64,
            });
        }
        let mut samples: Vec<(Epoch, Value)> = Vec::with_capacity(sample_count);
        for _ in 0..sample_count {
            let e = c.u64()?;
            if e > epoch {
                return Err(StoreError::Corrupt("sample epoch past the snapshot epoch"));
            }
            if samples.last().is_some_and(|&(prev, _)| e <= prev) {
                return Err(StoreError::Corrupt("sample epochs not strictly ascending"));
            }
            let v = Value::from_bits(c.u64()?);
            if !v.is_finite() {
                return Err(StoreError::Corrupt("non-finite sample value"));
            }
            samples.push((e, v));
        }
        nodes.push((node, samples));
    }
    c.finish()?;
    Ok(SnapshotImage { epoch, capacity, nodes })
}

/// One manifest entry: a retained image's snapshot epoch and its byte extent on the
/// log-structured device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ManifestEntry {
    /// The snapshot epoch.
    pub epoch: Epoch,
    /// Byte offset of the image in the log.
    pub offset: u64,
    /// Byte length of the image.
    pub len: u64,
}

/// A decoded, validated store manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Checkpoint cadence recorded at write time, in epochs.
    pub cadence: u64,
    /// Retained images, oldest first.
    pub entries: Vec<ManifestEntry>,
}

/// Decodes and validates a store manifest.
pub fn decode_manifest(bytes: &[u8]) -> Result<Manifest, StoreError> {
    let payload = checked_payload(bytes)?;
    let mut c = Cursor::new(payload);
    if c.take(4)? != MANIFEST_MAGIC {
        return Err(StoreError::BadMagic);
    }
    let version = c.u16()?;
    if version != FORMAT_VERSION {
        return Err(StoreError::BadVersion(version));
    }
    let cadence = c.u64()?;
    if cadence == 0 {
        return Err(StoreError::Corrupt("checkpoint cadence of zero epochs"));
    }
    let declared = c.u32()?;
    let entry_count = c.count(declared, 24)?;
    let mut entries: Vec<ManifestEntry> = Vec::with_capacity(entry_count);
    for _ in 0..entry_count {
        let entry = ManifestEntry { epoch: c.u64()?, offset: c.u64()?, len: c.u64()? };
        if entry.len == 0 {
            return Err(StoreError::Corrupt("zero-length image extent"));
        }
        if let Some(prev) = entries.last() {
            if entry.epoch <= prev.epoch {
                return Err(StoreError::Corrupt("manifest epochs not strictly ascending"));
            }
            if entry.offset != prev.offset + prev.len {
                return Err(StoreError::Corrupt("image extents are not contiguous"));
            }
        } else if entry.offset != 0 {
            return Err(StoreError::Corrupt("first image extent does not start the log"));
        }
        entries.push(entry);
    }
    c.finish()?;
    Ok(Manifest { cadence, entries })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bank() -> WindowBank {
        let mut bank = WindowBank::new(4);
        for epoch in 0..6u64 {
            let readings: Vec<Reading> = (1..=3)
                .map(|node| Reading::new(node, 0, epoch, (node as f64) * 10.0 + epoch as f64))
                .collect();
            bank.feed(&readings);
        }
        bank
    }

    #[test]
    fn image_roundtrips_through_bytes() {
        let mut bank = sample_bank();
        let bytes = encode_image(&bank, 5);
        let image = decode_image(&bytes).expect("decodes");
        assert_eq!(image.epoch, 5);
        assert_eq!(image.capacity, 4);
        assert_eq!(image.nodes.len(), 3);
        // The ring evicted epochs 0..2, the snapshot holds the last 4.
        assert_eq!(image.nodes[0].1.first().unwrap().0, 2);
        let mut restored = image.into_bank();
        assert!(restored.epochs().eq(bank.epochs()));
        assert_eq!(restored.node_ids(), bank.node_ids());
        for node in bank.node_ids().to_vec() {
            let orig: Vec<_> = bank.window_mut(node).unwrap().iter().collect();
            let back: Vec<_> = restored.window_mut(node).unwrap().iter().collect();
            assert_eq!(orig, back, "node {node} samples survive the roundtrip bit for bit");
        }
    }

    #[test]
    fn manifest_roundtrips_through_bytes() {
        let bytes = encode_manifest(8, &[(7, 100), (15, 120), (23, 96)]);
        let manifest = decode_manifest(&bytes).expect("decodes");
        assert_eq!(manifest.cadence, 8);
        assert_eq!(manifest.entries.len(), 3);
        assert_eq!(manifest.entries[1], ManifestEntry { epoch: 15, offset: 100, len: 120 });
        assert_eq!(manifest.entries[2].offset, 220);
    }

    #[test]
    fn corruption_is_detected_not_ranked() {
        let good = encode_image(&sample_bank(), 5);

        // Any single bit flip trips the checksum (or a bounds check) — never a panic.
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x40;
            assert!(decode_image(&bad).is_err(), "flip at byte {i} must not decode");
        }

        // Truncations at every length fail typed.
        for cut in 0..good.len() {
            assert!(decode_image(&good[..cut]).is_err());
        }

        assert_eq!(decode_image(&[]), Err(StoreError::Truncated));
        assert_eq!(decode_manifest(&good), Err(StoreError::BadMagic));
    }

    #[test]
    fn hostile_counts_fail_before_allocating() {
        // An image declaring u32::MAX nodes with almost no bytes behind it must be
        // rejected by the count/remaining check, not by the allocator.
        let mut out = Vec::new();
        out.extend_from_slice(&IMAGE_MAGIC);
        put_u16(&mut out, FORMAT_VERSION);
        put_u64(&mut out, 5);
        put_u32(&mut out, 16);
        put_u32(&mut out, u32::MAX);
        let sum = checksum(&out);
        put_u64(&mut out, sum);
        assert_eq!(decode_image(&out), Err(StoreError::Truncated));

        // A per-node sample count beyond the declared capacity is oversize even when
        // enough bytes exist.
        let mut bank = WindowBank::new(2);
        for epoch in 0..2u64 {
            bank.feed(&[Reading::new(1, 0, epoch, 1.0)]);
        }
        let mut img = encode_image(&bank, 1);
        // Rewrite capacity (offset 14) down to 1 and re-seal the checksum.
        img.truncate(img.len() - 8);
        img[14..18].copy_from_slice(&1u32.to_be_bytes());
        let sum = checksum(&img);
        put_u64(&mut img, sum);
        assert_eq!(
            decode_image(&img),
            Err(StoreError::Oversize { what: "sample count", declared: 2, max: 1 })
        );
    }

    #[test]
    fn structural_invariants_are_enforced() {
        // Build an image with a descending node pair by hand.
        let mut out = Vec::new();
        out.extend_from_slice(&IMAGE_MAGIC);
        put_u16(&mut out, FORMAT_VERSION);
        put_u64(&mut out, 3);
        put_u32(&mut out, 8);
        put_u32(&mut out, 2);
        for node in [2u32, 1u32] {
            put_u32(&mut out, node);
            put_u32(&mut out, 1);
            put_u64(&mut out, 3);
            put_u64(&mut out, 1.0f64.to_bits());
        }
        let sum = checksum(&out);
        put_u64(&mut out, sum);
        assert_eq!(
            decode_image(&out),
            Err(StoreError::Corrupt("node ids not strictly ascending"))
        );

        let zero_cadence = encode_manifest(1, &[(0, 10)]);
        assert!(decode_manifest(&zero_cadence).is_ok());
        // Patch cadence to zero and re-seal.
        let mut bad = zero_cadence.clone();
        bad.truncate(bad.len() - 8);
        bad[6..14].copy_from_slice(&0u64.to_be_bytes());
        let sum = checksum(&bad);
        put_u64(&mut bad, sum);
        assert_eq!(
            decode_manifest(&bad),
            Err(StoreError::Corrupt("checkpoint cadence of zero epochs"))
        );
    }

    #[test]
    fn pages_round_up_to_whole_flash_pages() {
        assert_eq!(pages_for(0), 0);
        assert_eq!(pages_for(1), 1);
        assert_eq!(pages_for(FLASH_PAGE_BYTES), 1);
        assert_eq!(pages_for(FLASH_PAGE_BYTES + 1), 2);
    }

    #[test]
    fn error_display_is_informative() {
        assert!(StoreError::ChecksumMismatch.to_string().contains("checksum"));
        assert!(StoreError::NoSnapshot(9).to_string().contains('9'));
        assert!(StoreError::BadVersion(3).to_string().contains('3'));
    }
}
