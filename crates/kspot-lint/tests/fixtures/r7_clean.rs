// Fixture: other allows, and the word outside an allow attribute, pass.
#![allow(dead_code)]

#[allow(clippy::too_many_arguments)]
pub fn deprecated(allow: bool) -> bool {
    allow // was deprecated once; comments and identifiers are not attributes
}
