// Fixture: R7 fires on both attribute forms, in library and test code alike.
#![allow(deprecated)]

#[allow(dead_code, deprecated)]
pub fn caller() {
    old_api();
}
