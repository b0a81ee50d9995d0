//! Fixture: the parent may open exactly one door, and only `mod sys;` is behind it.
#![deny(unsafe_code)]

#[allow(unsafe_code)]
pub mod server;
#[allow(unsafe_code)]
mod sys;
#[allow(unsafe_code)]
mod sys;
