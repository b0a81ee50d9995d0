//! The on-disk checkpoint format, version 2, and its untrusted-input decoder (ADR-009;
//! the seal, the version and the manifest's retention field are ADR-013's).
//!
//! A checkpoint **image** serialises one [`WindowBank`] snapshot; the **manifest**
//! indexes the images currently retained in the store's ring.  Both are flat binary
//! layouts of fixed-width big-endian integers and `f64::to_bits` floats, closed by an
//! eight-byte [`seal`] so a torn or bit-flipped page is detected rather than ranked.
//!
//! Decoding is written for **untrusted bytes**, exactly like the wire parser in
//! `kspot-serve` (ADR-008) and through the same codec, [`kspot_net::codec`]: every
//! read is bounds-checked, element counts are validated against the bytes actually
//! remaining before any allocation, and a malformed image is a typed [`StoreError`],
//! never a panic.  A restored engine may be fed pages that survived a crash, came off
//! another machine, or were tampered with — the decoder is a trust boundary, and the
//! `kspot-lint` R6 rule sweeps this crate and the codec for alloc-before-validate
//! mistakes just as it sweeps the wire parser.
//!
//! ## Image layout
//!
//! ```text
//! "KSPC"  magic (4 bytes)
//! u16     format version (2)
//! u64     snapshot epoch (the newest epoch the snapshot covers)
//! u32     bank capacity in epochs
//! u32     node count
//! per node (ascending node id):
//!   u32   node id
//!   u32   sample count (≤ capacity)
//!   per sample (ascending epoch): u64 epoch, u64 value bits
//! u64     seal of every preceding byte
//! ```
//!
//! ## Manifest layout
//!
//! ```text
//! "KSPM"  magic (4 bytes)
//! u16     format version (2)
//! u64     checkpoint cadence in epochs (≥ 1)
//! u32     ring retention in images (≥ 1, ≥ the entry count)
//! u32     entry count
//! per retained image (ascending epoch, contiguous offsets from 0):
//!   u64 snapshot epoch, u64 byte offset in the log, u64 byte length
//! u64     seal of every preceding byte
//! ```
//!
//! ## The seal
//!
//! [`seal`] reads the payload as little-endian 64-bit words — explicitly, so the stored
//! bytes are the same on every host — and deals them round-robin onto [`SEAL_LANES`]
//! independent lanes, so the lanes' multiplies overlap instead of waiting for one
//! another the way a byte-at-a-time FNV's do.  A lane takes a word in with `mix`: xor,
//! multiply by an odd constant, xor the high half onto the low half.  Each of the three
//! is a bijection of the lane for a fixed word and of the word for a fixed lane, and
//! the last one carries high input bits down, where a multiply alone only carries
//! upward.  The final sub-word tail is zero-padded into one more word; the payload
//! length, then the eight lanes, are folded through the same `mix`.  Hence a change
//! confined to one aligned word — any single-bit flip — always changes the seal.  The
//! trailer itself is big-endian like every other integer of the format.
//!
//! Decoders read the magic and the version *before* they verify the seal: bytes of
//! another format revision answer [`StoreError::BadVersion`], not
//! [`StoreError::ChecksumMismatch`] — a version-1 seal (byte-wise FNV-1a) cannot verify
//! under version 2, and no version-1 reader is kept.

use kspot_net::codec::{put_u16, put_u32, put_u64, CodecError, Reader};
use kspot_net::{Epoch, NodeId, Reading, Value, WindowBank, FLASH_PAGE_BYTES, SINK};
use std::fmt;

/// Checkpoint format revision; bumped on any incompatible layout change.
pub const FORMAT_VERSION: u16 = 2;

/// Magic opening a checkpoint image.
pub const IMAGE_MAGIC: [u8; 4] = *b"KSPC";

/// Magic opening a store manifest.
pub const MANIFEST_MAGIC: [u8; 4] = *b"KSPM";

/// Bytes of an image before its first node record: magic, version, epoch, capacity,
/// node count.
const IMAGE_HEADER_BYTES: usize = 4 + 2 + 8 + 4 + 4;

/// Bytes of one manifest entry: epoch, offset, length.
const MANIFEST_ENTRY_BYTES: usize = 8 + 8 + 8;

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

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Truncated => StoreError::Truncated,
            CodecError::TrailingBytes => StoreError::TrailingBytes,
        }
    }
}

/// Lanes the seal deals the payload's words onto.  A property of the format, not a
/// tuning knob: another lane count seals the same bytes differently.
pub const SEAL_LANES: usize = 8;

/// Where the lanes start from (lane `i` starts at `mix(SEAL_SEED, i)`).
const SEAL_SEED: u64 = 0xCBF2_9CE4_8422_2325;

/// The odd multiplier of [`mix`].
const SEAL_PRIME: u64 = 0x9E37_79B1_85EB_CA87;

/// Takes `word` into `state`.  A bijection of either argument for a fixed other one;
/// the shift brings the product's high half down to its low half, so a flipped high
/// input bit cannot be undone by flipping the same bit of a later word.
#[inline]
fn mix(state: u64, word: u64) -> u64 {
    let x = (state ^ word).wrapping_mul(SEAL_PRIME);
    x ^ (x >> 32)
}

/// The seal of `bytes` — cheap, deterministic corruption detection (not a MAC; the
/// threat model is crash tearing and media decay, see ADR-009 and ADR-013).  The module
/// documentation describes the construction.
pub fn seal(bytes: &[u8]) -> u64 {
    let mut lanes: [u64; SEAL_LANES] = std::array::from_fn(|i| mix(SEAL_SEED, i as u64));
    let mut blocks = bytes.chunks_exact(8 * SEAL_LANES);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = mix(*lane, u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
    }
    // What is left is shorter than a block: whole words, then a zero-padded one.
    for (lane, chunk) in lanes.iter_mut().zip(blocks.remainder().chunks(8)) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        *lane = mix(*lane, u64::from_le_bytes(word));
    }
    lanes.into_iter().fold(bytes.len() as u64, mix)
}

/// Appends the seal to `payload`, producing the sealed byte sequence the decoders
/// accept.  Fuzzers use this to re-seal structurally mutated images so the validators
/// behind the seal face the hostile bytes too.
pub fn checksum_seal(mut payload: Vec<u8>) -> Vec<u8> {
    let sum = seal(&payload);
    payload.extend_from_slice(&sum.to_be_bytes());
    payload
}

/// Number of whole flash pages a byte run occupies.
pub fn pages_for(bytes: usize) -> u64 {
    (bytes.div_ceil(FLASH_PAGE_BYTES)) as u64
}

// --- encoding ---------------------------------------------------------------------

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
    checksum_seal(out)
}

/// Encodes the manifest of a ring that keeps `retention` images, for the retained
/// `(epoch, image byte length)` entries, oldest first.  Offsets are assigned
/// contiguously in ring order — the log-structured layout a sequential flash write
/// produces.
pub fn encode_manifest(cadence: u64, retention: usize, entries: &[(Epoch, usize)]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&MANIFEST_MAGIC);
    put_u16(&mut out, FORMAT_VERSION);
    put_u64(&mut out, cadence);
    put_u32(&mut out, retention as u32);
    put_u32(&mut out, entries.len() as u32);
    let mut offset = 0u64;
    for &(epoch, len) in entries {
        put_u64(&mut out, epoch);
        put_u64(&mut out, offset);
        put_u64(&mut out, len as u64);
        offset += len as u64;
    }
    checksum_seal(out)
}

// --- decoding ---------------------------------------------------------------------

/// Reads the magic and the format version opening `bytes` and returns the reader behind
/// them.  Nothing here is sealed yet: bytes of another revision must answer with their
/// version, and their seal is not ours to verify.
fn opened(bytes: &[u8], magic: [u8; 4]) -> Result<Reader<'_>, StoreError> {
    let mut c = Reader::at(bytes, 0)?;
    if c.take(4)? != magic {
        return Err(StoreError::BadMagic);
    }
    let version = c.u16()?;
    if version != FORMAT_VERSION {
        return Err(StoreError::BadVersion(version));
    }
    Ok(c)
}

/// Opens a sealed artifact: magic, version, then the trailing seal over everything
/// before it.  Returns the reader over the sealed payload, behind the version.
fn unsealed(bytes: &[u8], magic: [u8; 4]) -> Result<Reader<'_>, StoreError> {
    let pos = opened(bytes, magic)?.pos();
    let (payload, trailer) = bytes.split_last_chunk::<8>().ok_or(StoreError::Truncated)?;
    if seal(payload) != u64::from_be_bytes(*trailer) {
        return Err(StoreError::ChecksumMismatch);
    }
    // An artifact shorter than header + trailer had its version read out of the trailer.
    Ok(Reader::at(payload, pos)?)
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
    let mut c = unsealed(bytes, IMAGE_MAGIC)?;
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
    /// How many images the ring keeps before it overwrites the oldest; at least one and
    /// at least the number of entries.
    pub retention: usize,
    /// Retained images, oldest first.
    pub entries: Vec<ManifestEntry>,
}

/// Decodes and validates a store manifest.
pub fn decode_manifest(bytes: &[u8]) -> Result<Manifest, StoreError> {
    let mut c = unsealed(bytes, MANIFEST_MAGIC)?;
    let cadence = c.u64()?;
    if cadence == 0 {
        return Err(StoreError::Corrupt("checkpoint cadence of zero epochs"));
    }
    let retention = c.u32()? as usize;
    if retention == 0 {
        return Err(StoreError::Corrupt("a ring that retains no image"));
    }
    let declared = c.u32()?;
    let entry_count = c.count(declared, MANIFEST_ENTRY_BYTES)?;
    if entry_count > retention {
        return Err(StoreError::Oversize {
            what: "entry count",
            declared: entry_count as u64,
            max: retention as u64,
        });
    }
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
            // Decoded fields: their sum may not fit a u64.
            if prev.offset.checked_add(prev.len) != Some(entry.offset) {
                return Err(StoreError::Corrupt("image extents are not contiguous"));
            }
        } else if entry.offset != 0 {
            return Err(StoreError::Corrupt("first image extent does not start the log"));
        }
        entries.push(entry);
    }
    c.finish()?;
    Ok(Manifest { cadence, retention, entries })
}

/// Splits serialised store bytes — a manifest followed by the image log it indexes —
/// into the decoded manifest and the log.  The manifest delimits itself only through
/// its entry count, which is read (bounds-checked) ahead of the seal to find where the
/// manifest ends; nothing is allocated before [`decode_manifest`] has verified it.
pub fn split_manifest(bytes: &[u8]) -> Result<(Manifest, &[u8]), StoreError> {
    let mut c = opened(bytes, MANIFEST_MAGIC)?;
    c.take(8 + 4)?; // cadence and retention
    let declared = c.u32()?;
    let entry_bytes = c.count(declared, MANIFEST_ENTRY_BYTES)? * MANIFEST_ENTRY_BYTES;
    let (manifest, log) =
        bytes.split_at_checked(c.pos() + entry_bytes + 8).ok_or(StoreError::Truncated)?;
    Ok((decode_manifest(manifest)?, log))
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
        let bytes = encode_manifest(8, 5, &[(7, 100), (15, 120), (23, 96)]);
        let manifest = decode_manifest(&bytes).expect("decodes");
        assert_eq!(manifest.cadence, 8);
        assert_eq!(manifest.retention, 5);
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
        assert_eq!(decode_image(&checksum_seal(out)), Err(StoreError::Truncated));

        // A per-node sample count beyond the declared capacity is oversize even when
        // enough bytes exist.
        let mut bank = WindowBank::new(2);
        for epoch in 0..2u64 {
            bank.feed(&[Reading::new(1, 0, epoch, 1.0)]);
        }
        let mut img = encode_image(&bank, 1);
        // Rewrite capacity (offset 14) down to 1 and re-seal.
        img.truncate(img.len() - 8);
        img[14..18].copy_from_slice(&1u32.to_be_bytes());
        assert_eq!(
            decode_image(&checksum_seal(img)),
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
        assert_eq!(
            decode_image(&checksum_seal(out)),
            Err(StoreError::Corrupt("node ids not strictly ascending"))
        );

        let good = encode_manifest(1, 2, &[(0, 10), (1, 10)]);
        assert!(decode_manifest(&good).is_ok());
        // Patch one header field and re-seal.
        let patched = |at: usize, field: &[u8]| {
            let mut bad = good[..good.len() - 8].to_vec();
            bad[at..at + field.len()].copy_from_slice(field);
            decode_manifest(&checksum_seal(bad))
        };
        assert_eq!(
            patched(6, &0u64.to_be_bytes()),
            Err(StoreError::Corrupt("checkpoint cadence of zero epochs"))
        );
        assert_eq!(
            patched(14, &0u32.to_be_bytes()),
            Err(StoreError::Corrupt("a ring that retains no image"))
        );
        assert_eq!(
            patched(14, &1u32.to_be_bytes()),
            Err(StoreError::Oversize { what: "entry count", declared: 2, max: 1 })
        );
    }

    #[test]
    fn extents_past_u64_max_are_not_contiguous() {
        // The seal is not a MAC: re-sealed extents whose ends pass `u64::MAX` are a
        // typed error — not an overflow panic, nor three extents accepted in release.
        let mut out = Vec::new();
        out.extend_from_slice(&MANIFEST_MAGIC);
        put_u16(&mut out, FORMAT_VERSION);
        put_u64(&mut out, 1); // cadence
        put_u32(&mut out, 8); // retention
        put_u32(&mut out, 3);
        for (epoch, offset, len) in [(1, 0, u64::MAX), (2, u64::MAX, 1), (3, 0, 5)] {
            put_u64(&mut out, epoch);
            put_u64(&mut out, offset);
            put_u64(&mut out, len);
        }
        let store = checksum_seal(out);
        let not_contiguous = StoreError::Corrupt("image extents are not contiguous");
        assert_eq!(decode_manifest(&store), Err(not_contiguous.clone()));
        assert_eq!(crate::CheckpointStore::from_bytes(&store).err(), Some(not_contiguous));
    }

    /// The fixed pattern of the known-answer vectors: byte `i` is `37 i + 11 (mod 256)`.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 37 + 11) as u8).collect()
    }

    #[test]
    fn seal_known_answers() {
        // Computed by an independent implementation of the module documentation's
        // construction; a seal that drifts, or reads words in host order on a
        // big-endian host, stops producing them.
        assert_eq!(seal(b""), 0xA3A8_0E96_7ED7_BFD5);
        assert_eq!(seal(&pattern(200)), 0x7693_8E08_9E7B_1CCE, "three blocks and one word");
        assert_eq!(seal(&pattern(197)), 0x54D1_8109_1FC0_CA5C, "three blocks and five bytes");
        // The trailer is the seal, big-endian, and nothing else.
        assert_eq!(checksum_seal(pattern(200))[200..], 0x7693_8E08_9E7B_1CCEu64.to_be_bytes());
    }

    #[test]
    fn two_flips_of_one_bit_never_cancel() {
        // The same bit flipped in two bytes a word, a block or two blocks apart: the
        // neighbouring lane, and the same lane one and two steps later.  A multiply only
        // carries upward, so without the shift in `mix` the top bits cancel.
        let good = pattern(1024);
        let sealed = seal(&good);
        let mut bad = good.clone();
        for stride in [8, 64, 128] {
            for at in 0..good.len() - stride {
                for bit in 0..8 {
                    bad[at] ^= 1 << bit;
                    bad[at + stride] ^= 1 << bit;
                    assert_ne!(seal(&bad), sealed, "bytes {at} and {}, bit {bit}", at + stride);
                    bad[at] = good[at];
                    bad[at + stride] = good[at + stride];
                }
            }
        }
    }

    #[test]
    fn the_tail_and_the_length_are_sealed() {
        // Every length around one and two blocks: the last byte counts wherever it
        // falls in its word, and a zero byte more is not the zero it is padded with.
        for len in 0..=130usize {
            let payload = pattern(len);
            let mut longer = payload.clone();
            longer.push(0);
            assert_ne!(seal(&longer), seal(&payload), "{len} bytes and one zero byte more");
            if let Some(last) = longer[..len].last_mut() {
                *last ^= 0x01;
                assert_ne!(seal(&longer[..len]), seal(&payload), "last of {len} bytes changed");
            }
        }
    }

    /// Version 1's seal: FNV-1a 64, byte by byte.
    fn fnv1a_sealed(mut payload: Vec<u8>) -> Vec<u8> {
        let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
        for &b in &payload {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        payload.extend_from_slice(&hash.to_be_bytes());
        payload
    }

    #[test]
    fn version_one_bytes_answer_with_their_version() {
        // A version-1 image and manifest as version 1 wrote them: the version is read
        // ahead of the seal, which is not ours to verify.
        let mut image = encode_image(&sample_bank(), 5);
        image.truncate(image.len() - 8);
        image[4..6].copy_from_slice(&1u16.to_be_bytes());
        let image = fnv1a_sealed(image);
        assert_eq!(decode_image(&image), Err(StoreError::BadVersion(1)));

        let mut manifest = Vec::new();
        manifest.extend_from_slice(&MANIFEST_MAGIC);
        put_u16(&mut manifest, 1);
        put_u64(&mut manifest, 8); // cadence
        put_u32(&mut manifest, 1); // entry count: version 1 kept no retention
        for field in [5, 0, image.len() as u64] {
            put_u64(&mut manifest, field);
        }
        let mut store = fnv1a_sealed(manifest);
        assert_eq!(decode_manifest(&store), Err(StoreError::BadVersion(1)));
        store.extend_from_slice(&image);
        assert_eq!(split_manifest(&store).unwrap_err(), StoreError::BadVersion(1));
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
