//! Partial-aggregate machinery.
//!
//! TAG-style in-network aggregation works because AVG, SUM, MIN, MAX and COUNT can all
//! be computed from *partial states* that merge associatively as they travel up the
//! routing tree.  The in-network Top-K algorithms additionally need *bounds*: given a
//! partial state covering only some of a group's members, what is the best and worst
//! final value the group could still reach once the missing members contribute?  Those
//! bounds (together with the value-domain knowledge of
//! [`kspot_net::types::ValueDomain`]) are exactly the
//! `γ` upper-bound framework MINT uses to prune safely, and the threshold reasoning TJA
//! and TPUT use for historic queries.

use kspot_net::Value;
use kspot_query::AggFunc;
use serde::{Deserialize, Serialize};

/// A mergeable partial aggregate state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AggState {
    /// Sum and count of contributions (serves AVG and SUM).
    SumCount {
        /// Sum of contributed values.
        sum: f64,
        /// Number of contributions.
        count: u32,
    },
    /// Minimum seen so far.
    Min {
        /// The minimum value, `None` before any contribution.
        min: Option<f64>,
        /// Number of contributions.
        count: u32,
    },
    /// Maximum seen so far.
    Max {
        /// The maximum value, `None` before any contribution.
        max: Option<f64>,
        /// Number of contributions.
        count: u32,
    },
    /// Plain contribution count (COUNT).
    Count {
        /// Number of contributions.
        count: u32,
    },
}

impl AggState {
    /// An empty partial state for the given aggregate function.
    pub fn empty(func: AggFunc) -> Self {
        match func {
            AggFunc::Avg | AggFunc::Sum => AggState::SumCount { sum: 0.0, count: 0 },
            AggFunc::Min => AggState::Min { min: None, count: 0 },
            AggFunc::Max => AggState::Max { max: None, count: 0 },
            AggFunc::Count => AggState::Count { count: 0 },
        }
    }

    /// A partial state containing a single contribution.
    pub fn single(func: AggFunc, value: Value) -> Self {
        let mut s = Self::empty(func);
        s.add(value);
        s
    }

    /// Adds one raw contribution.
    pub fn add(&mut self, value: Value) {
        match self {
            AggState::SumCount { sum, count } => {
                *sum += value;
                *count += 1;
            }
            AggState::Min { min, count } => {
                *min = Some(min.map_or(value, |m| m.min(value)));
                *count += 1;
            }
            AggState::Max { max, count } => {
                *max = Some(max.map_or(value, |m| m.max(value)));
                *count += 1;
            }
            AggState::Count { count } => *count += 1,
        }
    }

    /// Merges another partial state of the same shape into this one.
    ///
    /// Panics if the shapes differ — states of different aggregate functions never
    /// legally meet inside one query.
    pub fn merge(&mut self, other: &AggState) {
        match (self, other) {
            (AggState::SumCount { sum, count }, AggState::SumCount { sum: s2, count: c2 }) => {
                *sum += s2;
                *count += c2;
            }
            (AggState::Min { min, count }, AggState::Min { min: m2, count: c2 }) => {
                *min = match (*min, *m2) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
                *count += c2;
            }
            (AggState::Max { max, count }, AggState::Max { max: m2, count: c2 }) => {
                *max = match (*max, *m2) {
                    (Some(a), Some(b)) => Some(a.max(b)),
                    (a, b) => a.or(b),
                };
                *count += c2;
            }
            (AggState::Count { count }, AggState::Count { count: c2 }) => *count += c2,
            (a, b) => panic!("cannot merge partial aggregates of different shapes: {a:?} vs {b:?}"),
        }
    }

    /// Number of raw contributions folded into the state.
    pub fn count(&self) -> u32 {
        match self {
            AggState::SumCount { count, .. }
            | AggState::Min { count, .. }
            | AggState::Max { count, .. }
            | AggState::Count { count } => *count,
        }
    }

    /// The aggregate value over the contributions received so far (the value the
    /// *incorrect* naive strategy would report).  `None` while the state is empty.
    pub fn partial_value(&self, func: AggFunc) -> Option<Value> {
        match (func, self) {
            (AggFunc::Avg, AggState::SumCount { sum, count }) => {
                (*count > 0).then(|| sum / f64::from(*count))
            }
            (AggFunc::Sum, AggState::SumCount { sum, count }) => (*count > 0).then_some(*sum),
            (AggFunc::Min, AggState::Min { min, .. }) => *min,
            (AggFunc::Max, AggState::Max { max, .. }) => *max,
            (AggFunc::Count, AggState::Count { count }) => Some(f64::from(*count)),
            _ => panic!("partial state {self:?} does not belong to aggregate {func}"),
        }
    }

    /// The exact final value, valid only once all `total_members` contributions are in.
    pub fn exact_value(&self, func: AggFunc, total_members: u32) -> Option<Value> {
        (self.count() == total_members).then(|| self.partial_value(func)).flatten()
    }

    /// The largest final value the group could still reach if the `missing` outstanding
    /// members each contribute at most `missing_ub`.
    pub fn upper_bound(&self, func: AggFunc, missing: u32, missing_ub: Value) -> Value {
        match (func, self) {
            (AggFunc::Avg, AggState::SumCount { sum, count }) => {
                let total = count + missing;
                if total == 0 {
                    missing_ub
                } else {
                    (sum + f64::from(missing) * missing_ub) / f64::from(total)
                }
            }
            (AggFunc::Sum, AggState::SumCount { sum, .. }) => sum + f64::from(missing) * missing_ub.max(0.0),
            (AggFunc::Min, AggState::Min { min, .. }) => min.unwrap_or(missing_ub),
            (AggFunc::Max, AggState::Max { max, .. }) => {
                if missing > 0 {
                    max.unwrap_or(missing_ub).max(missing_ub)
                } else {
                    max.unwrap_or(missing_ub)
                }
            }
            (AggFunc::Count, AggState::Count { count }) => f64::from(count + missing),
            _ => panic!("partial state {self:?} does not belong to aggregate {func}"),
        }
    }

    /// The smallest final value the group could still reach if the `missing` outstanding
    /// members each contribute at least `missing_lb`.
    pub fn lower_bound(&self, func: AggFunc, missing: u32, missing_lb: Value) -> Value {
        match (func, self) {
            (AggFunc::Avg, AggState::SumCount { sum, count }) => {
                let total = count + missing;
                if total == 0 {
                    missing_lb
                } else {
                    (sum + f64::from(missing) * missing_lb) / f64::from(total)
                }
            }
            (AggFunc::Sum, AggState::SumCount { sum, .. }) => sum + f64::from(missing) * missing_lb.min(0.0),
            (AggFunc::Min, AggState::Min { min, .. }) => {
                if missing > 0 {
                    min.unwrap_or(missing_lb).min(missing_lb)
                } else {
                    min.unwrap_or(missing_lb)
                }
            }
            (AggFunc::Max, AggState::Max { max, .. }) => max.unwrap_or(missing_lb),
            (AggFunc::Count, AggState::Count { count }) => f64::from(*count),
            _ => panic!("partial state {self:?} does not belong to aggregate {func}"),
        }
    }
}

/// Computes the exact aggregate of a slice of raw values (reference implementation used
/// by tests and by the sink once it holds complete information).
pub fn exact_aggregate(func: AggFunc, values: &[Value]) -> Option<Value> {
    if values.is_empty() {
        return if func == AggFunc::Count { Some(0.0) } else { None };
    }
    Some(match func {
        AggFunc::Avg => values.iter().sum::<f64>() / values.len() as f64,
        AggFunc::Sum => values.iter().sum(),
        AggFunc::Min => values.iter().cloned().fold(f64::INFINITY, f64::min),
        AggFunc::Max => values.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        AggFunc::Count => values.len() as f64,
    })
}

#[cfg(test)]
impl AggState {
    /// The state as bits, for differential tests: its count and its value, NaN
    /// payloads and signed zeros included.
    pub(crate) fn to_bits(self) -> (u32, Option<u64>) {
        let value = match self {
            AggState::SumCount { sum, .. } => Some(sum.to_bits()),
            AggState::Min { min, .. } => min.map(f64::to_bits),
            AggState::Max { max, .. } => max.map(f64::to_bits),
            AggState::Count { .. } => None,
        };
        (self.count(), value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kspot_net::types::ValueDomain;

    const ALL_FUNCS: [AggFunc; 5] =
        [AggFunc::Avg, AggFunc::Sum, AggFunc::Min, AggFunc::Max, AggFunc::Count];

    #[test]
    fn single_and_add_agree_with_exact_aggregate() {
        let values = [3.0, 7.5, 1.0, 9.0];
        for func in ALL_FUNCS {
            let mut state = AggState::empty(func);
            for v in values {
                state.add(v);
            }
            assert_eq!(
                state.partial_value(func),
                exact_aggregate(func, &values),
                "{func} partial over all values must equal the exact aggregate"
            );
            assert_eq!(state.count(), 4);
        }
    }

    #[test]
    fn merge_is_equivalent_to_adding_everything_to_one_state() {
        let left = [3.0, 7.5];
        let right = [1.0, 9.0, 2.0];
        for func in ALL_FUNCS {
            let mut a = AggState::empty(func);
            left.iter().for_each(|&v| a.add(v));
            let mut b = AggState::empty(func);
            right.iter().for_each(|&v| b.add(v));
            a.merge(&b);
            let mut whole = AggState::empty(func);
            left.iter().chain(right.iter()).for_each(|&v| whole.add(v));
            assert_eq!(a, whole, "{func} merge must be associative with add");
        }
    }

    #[test]
    fn exact_value_requires_all_members() {
        let mut s = AggState::single(AggFunc::Avg, 10.0);
        assert_eq!(s.exact_value(AggFunc::Avg, 2), None);
        s.add(20.0);
        assert_eq!(s.exact_value(AggFunc::Avg, 2), Some(15.0));
    }

    #[test]
    fn avg_bounds_enclose_the_true_value() {
        // Group of 3; we have seen 39 from one member (Figure 1's room D seen by s4).
        let s = AggState::single(AggFunc::Avg, 39.0);
        let domain = ValueDomain::percentage();
        let lb = s.lower_bound(AggFunc::Avg, 2, domain.min);
        let ub = s.upper_bound(AggFunc::Avg, 2, domain.max);
        assert!((lb - 13.0).abs() < 1e-9); // (39 + 0 + 0) / 3
        assert!((ub - (39.0 + 200.0) / 3.0).abs() < 1e-9);
        // The figure's true average for room D is 64, inside the bounds.
        assert!(lb <= 64.0 && 64.0 <= ub);
    }

    #[test]
    fn sum_bounds_use_domain_extremes() {
        let mut s = AggState::empty(AggFunc::Sum);
        s.add(10.0);
        s.add(5.0);
        assert_eq!(s.upper_bound(AggFunc::Sum, 2, 100.0), 215.0);
        assert_eq!(s.lower_bound(AggFunc::Sum, 2, 0.0), 15.0);
        // Negative domains shrink the lower bound, not the upper one.
        assert_eq!(s.upper_bound(AggFunc::Sum, 2, -5.0), 15.0);
        assert_eq!(s.lower_bound(AggFunc::Sum, 2, -5.0), 5.0);
    }

    #[test]
    fn min_and_max_bounds_are_one_sided() {
        let min_state = AggState::single(AggFunc::Min, 40.0);
        assert_eq!(min_state.upper_bound(AggFunc::Min, 3, 100.0), 40.0, "a min can only drop");
        assert_eq!(min_state.lower_bound(AggFunc::Min, 3, 0.0), 0.0);
        assert_eq!(min_state.lower_bound(AggFunc::Min, 0, 0.0), 40.0);

        let max_state = AggState::single(AggFunc::Max, 40.0);
        assert_eq!(max_state.lower_bound(AggFunc::Max, 3, 0.0), 40.0, "a max can only rise");
        assert_eq!(max_state.upper_bound(AggFunc::Max, 3, 100.0), 100.0);
        assert_eq!(max_state.upper_bound(AggFunc::Max, 0, 100.0), 40.0);
    }

    #[test]
    fn count_bounds_track_membership() {
        let mut s = AggState::empty(AggFunc::Count);
        s.add(1.0);
        s.add(2.0);
        assert_eq!(s.upper_bound(AggFunc::Count, 3, 0.0), 5.0);
        assert_eq!(s.lower_bound(AggFunc::Count, 3, 0.0), 2.0);
    }

    #[test]
    fn empty_state_bounds_fall_back_to_domain() {
        let s = AggState::empty(AggFunc::Avg);
        assert_eq!(s.upper_bound(AggFunc::Avg, 0, 100.0), 100.0);
        let s = AggState::empty(AggFunc::Max);
        assert_eq!(s.upper_bound(AggFunc::Max, 2, 80.0), 80.0);
        assert_eq!(s.partial_value(AggFunc::Max), None);
    }

    #[test]
    fn bounds_converge_to_the_exact_value_when_nothing_is_missing() {
        let values = [12.0, 48.0, 33.0];
        for func in ALL_FUNCS {
            let mut s = AggState::empty(func);
            values.iter().for_each(|&v| s.add(v));
            let domain = ValueDomain::percentage();
            let (lb, ub) = (s.lower_bound(func, 0, domain.min), s.upper_bound(func, 0, domain.max));
            let exact = exact_aggregate(func, &values).unwrap();
            assert!((lb - exact).abs() < 1e-9, "{func} lower bound with 0 missing");
            assert!((ub - exact).abs() < 1e-9, "{func} upper bound with 0 missing");
        }
    }

    #[test]
    #[should_panic(expected = "different shapes")]
    fn merging_mismatched_states_panics() {
        let mut a = AggState::empty(AggFunc::Avg);
        let b = AggState::empty(AggFunc::Max);
        a.merge(&b);
    }

    #[test]
    fn exact_aggregate_of_empty_slice() {
        assert_eq!(exact_aggregate(AggFunc::Avg, &[]), None);
        assert_eq!(exact_aggregate(AggFunc::Count, &[]), Some(0.0));
    }
}
