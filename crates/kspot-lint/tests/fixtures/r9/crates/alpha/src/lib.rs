//! R9 corpus, crate `alpha`: what its items' names meet elsewhere decides which fire.
#![forbid(unsafe_code)]

mod inner;
#[cfg(test)]
mod support;

pub use inner::Reexported;

/// Fires: only this crate's unit tests call it.
pub fn only_unit_tested() -> u32 {
    1
}

/// Fires: only a `#[cfg(test)] mod` file calls it.
pub fn only_support_calls() -> u32 {
    2
}

/// Clean: another crate's integration test calls it.
pub fn called_from_other_tests() -> u32 {
    3
}

/// Clean: only the benchmark package calls it.
pub fn called_from_bench() -> u32 {
    4
}

/// Clean: another crate's unit test calls it.
pub fn called_from_other_unit_tests() -> u32 {
    5
}

/// An answer: `Ranking::new` is called from `beta`, `Ranking::top_k` is not.
pub struct Ranking {
    scenario: u32,
}

impl Ranking {
    /// Clean: `beta` builds one.
    pub fn new() -> Self {
        Self { scenario: 0 }
    }

    /// Fires: every other `top_k` in the corpus is a field or a local.
    pub fn top_k(&self, k: usize) -> usize {
        k
    }

    /// Fires: `self.scenario` is the field, not this method.
    pub fn scenario(&self) -> u32 {
        self.scenario
    }
}

/// A trait `beta` implements.
pub trait Shape {
    /// A trait method: never checked, called or not.
    fn area(&self) -> f64;
}

impl std::fmt::Display for Ranking {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ranking")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_tests_are_not_callers() {
        assert_eq!(only_unit_tested(), 1);
        assert_eq!(Ranking::new().top_k(3), 3);
        assert_eq!(Ranking::new().scenario(), 0);
    }
}
