// Fixture: the word in comments, strings, longer identifiers and the lint's own
// name is not the keyword — "unsafe" here, unsafe there.
#![forbid(unsafe_code)]

pub fn unsafely_high_threshold(unsafe_code: bool) -> &'static str {
    if unsafe_code {
        "unsafe { }"
    } else {
        "safe"
    }
}
