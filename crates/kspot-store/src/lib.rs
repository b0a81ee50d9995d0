//! # kspot-store — the durable checkpointed window store of the KSpot reproduction
//!
//! The paper grounds historic Top-K queries in durable per-node buffering (it cites
//! MicroHash as the flash index playing that role on real motes), but the engine's
//! shared [`kspot_net::WindowBank`] is live-only: a `WITH HISTORY` session can answer
//! over the *current* trailing span and nothing else.  This crate adds the durable
//! layer (ROADMAP item 5, ADR-009):
//!
//! * [`mod@format`] — the page-granular on-disk layout: checkpoint **images** (one
//!   [`kspot_net::WindowBank`] snapshot each) and the **manifest** indexing the ring,
//!   plus the untrusted-input decoder whose every allocation is validated first — the
//!   checkpoint path is the workspace's second untrusted-byte boundary after the
//!   `kspot-serve` wire parser, and is linted by the same R6 rule;
//! * [`store`] — [`CheckpointStore`], the log-structured ring of snapshots on the
//!   modeled flash device (held as one sample log per node, encoded into images by
//!   [`CheckpointStore::to_bytes`]), charging every page write and read through the
//!   [`kspot_net::Network`] storage cost model so the ledger conservation law extends
//!   to storage.  [`CheckpointStore::restore`] opens the same
//!   [`kspot_algos::BankWindows`] view the engine answers live queries from, owning
//!   the restored bank, so TJA/TPUT/centralized/local-aggregate answer an `AS OF`
//!   query from flash byte-identically to a live run at the snapshot epoch.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod format;
pub mod store;

pub use format::{
    checksum_seal, decode_image, decode_manifest, encode_image, encode_manifest, Manifest,
    ManifestEntry, SnapshotImage, StoreError, FORMAT_VERSION, IMAGE_MAGIC, MANIFEST_MAGIC,
    MAX_IMAGE_CAPACITY,
};
pub use store::{CheckpointStore, DEFAULT_RETENTION};
