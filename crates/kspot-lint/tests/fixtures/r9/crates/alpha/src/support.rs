//! Test-only: declared `#[cfg(test)] mod support;`, so nothing here is checked and
//! nothing here is a caller.

/// Not checked: the whole file is test code.
pub fn helper() -> u32 {
    crate::only_support_calls()
}
