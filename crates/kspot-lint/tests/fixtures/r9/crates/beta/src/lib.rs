//! R9 corpus, crate `beta`: fields and locals named like `alpha`'s methods.
#![forbid(unsafe_code)]

use alpha::{Ranking, Reexported, Shape};

/// A query whose field shares a name with `Ranking::top_k`.
pub struct Query {
    /// Declared here, initialised and read below: never a call.
    pub top_k: usize,
    scenario: u32,
}

/// Clean: the integration test calls it.
pub fn parse(text: &str) -> Query {
    let top_k = text.len();
    let scenario = 7;
    let _ranking = Ranking::new();
    Query { top_k, scenario }
}

/// Clean: the integration test calls it.
pub fn describe(q: &Query) -> usize {
    let copy = Query { top_k: q.top_k, scenario: q.scenario };
    copy.top_k + copy.scenario as usize
}

/// Clean: the integration test builds one.  Its trait method is never checked.
pub struct Square;

impl Shape for Square {
    fn area(&self) -> f64 {
        1.0
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn other_crates_unit_tests_are_callers() {
        assert_eq!(alpha::called_from_other_unit_tests(), 5);
    }
}
