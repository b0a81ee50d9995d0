//! Fixture: the audited module's parent — `deny` at the root, one `allow`, on `mod sys;`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod server;
#[allow(unsafe_code)]
mod sys;
