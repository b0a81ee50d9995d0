//! Fixture: a library crate root that stopped forbidding `unsafe_code` — `deny`
//! can be overridden further down, so only the module's parent may use it.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
