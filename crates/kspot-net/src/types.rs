//! Fundamental identifiers and value types shared by the whole workspace.
//!
//! The KSpot data model is intentionally small: every sensor node produces, once per
//! epoch, a [`Reading`] — a `(group, value)` pair where the group is the logical cluster
//! the node belongs to (a *room* in the conference demo) and the value is the sensed
//! modality requested by the query (sound level, temperature, light, ...).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a sensor node.  The sink (base station) is always node `0`.
pub type NodeId = u32;

/// The reserved identifier of the sink / base station.
pub const SINK: NodeId = 0;

/// Identifier of a logical group (a *room* or *cluster* in the paper's terminology).
///
/// Group membership is part of the scenario configuration (the KSpot Configuration
/// Panel), not something nodes discover at runtime.
pub type GroupId = u32;

/// An epoch number.  Epoch 0 is the first acquisition round of a query.
pub type Epoch = u64;

/// A sensed value.  KSpot treats all modalities as real numbers within a known domain
/// (e.g. sound level as a percentage in `[0, 100]`).
pub type Value = f64;

/// A single sensed reading produced by one node in one epoch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Reading {
    /// The node that produced the reading.
    pub node: NodeId,
    /// The group (room / cluster) the node belongs to.
    pub group: GroupId,
    /// The epoch in which the reading was acquired.
    pub epoch: Epoch,
    /// The sensed value.
    pub value: Value,
}

impl Reading {
    /// Creates a new reading.
    pub fn new(node: NodeId, group: GroupId, epoch: Epoch, value: Value) -> Self {
        Self { node, group, epoch, value }
    }
}

impl fmt::Display for Reading {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "s{}@e{} (group {}) = {:.2}",
            self.node, self.epoch, self.group, self.value
        )
    }
}

/// The closed interval of values a sensed modality can take.
///
/// The upper-bound descriptors of MINT and the thresholds of TJA/TPUT all rely on the
/// domain being known in advance (it is: sensor data sheets specify ADC ranges).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ValueDomain {
    /// Smallest value the modality can report.
    pub min: Value,
    /// Largest value the modality can report.
    pub max: Value,
}

impl ValueDomain {
    /// Creates a new domain, panicking if `min > max` or either bound is not finite.
    pub fn new(min: Value, max: Value) -> Self {
        assert!(min.is_finite() && max.is_finite(), "domain bounds must be finite");
        assert!(min <= max, "domain min must not exceed max");
        Self { min, max }
    }

    /// The sound-level percentage domain used throughout the paper's examples.
    pub fn percentage() -> Self {
        Self::new(0.0, 100.0)
    }

    /// Clamps `v` into the domain.
    pub fn clamp(&self, v: Value) -> Value {
        v.clamp(self.min, self.max)
    }

    /// Width of the domain.
    pub fn width(&self) -> Value {
        self.max - self.min
    }

    /// Returns true if `v` lies inside the domain (inclusive).
    pub fn contains(&self, v: Value) -> bool {
        v >= self.min && v <= self.max
    }
}

impl Default for ValueDomain {
    fn default() -> Self {
        Self::percentage()
    }
}

/// Orders two floating point values as a total order, treating NaN as smallest.
///
/// Sensor values never legitimately become NaN, but ranking code should not panic if a
/// corrupted value sneaks in; it is simply ranked last, and all NaN payloads compare
/// equal to each other. Built on `f64::total_cmp` (R1, ADR-008) by canonicalising
/// every NaN to one negative bit pattern, which `total_cmp` orders below every real
/// value. Inherits `total_cmp`'s one visible quirk: `-0.0` sorts before `+0.0`.
pub fn cmp_value(a: Value, b: Value) -> std::cmp::Ordering {
    let canon = |v: Value| if v.is_nan() { -Value::NAN } else { v };
    canon(a).total_cmp(&canon(b))
}

/// The best-first order every ranking uses, on `(value, key)` pairs: value descending
/// by [`cmp_value`] (so NaN ranks last), ties toward the smaller key.
#[inline]
pub fn cmp_best_first<K: Ord>(a: (Value, K), b: (Value, K)) -> std::cmp::Ordering {
    cmp_value(b.0, a.0).then(a.1.cmp(&b.1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reading_display_mentions_node_group_and_value() {
        let r = Reading::new(4, 2, 7, 41.5);
        let s = r.to_string();
        assert!(s.contains("s4"));
        assert!(s.contains("group 2"));
        assert!(s.contains("41.50"));
    }

    #[test]
    fn domain_clamp_and_contains() {
        let d = ValueDomain::percentage();
        assert_eq!(d.clamp(120.0), 100.0);
        assert_eq!(d.clamp(-3.0), 0.0);
        assert_eq!(d.clamp(55.0), 55.0);
        assert!(d.contains(0.0));
        assert!(d.contains(100.0));
        assert!(!d.contains(100.1));
        assert_eq!(d.width(), 100.0);
    }

    #[test]
    #[should_panic(expected = "domain min must not exceed max")]
    fn domain_rejects_inverted_bounds() {
        let _ = ValueDomain::new(10.0, 5.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn domain_rejects_nan_bounds() {
        let _ = ValueDomain::new(Value::NAN, 5.0);
    }

    #[test]
    fn cmp_value_orders_normally_and_ranks_nan_last() {
        use std::cmp::Ordering::*;
        assert_eq!(cmp_value(1.0, 2.0), Less);
        assert_eq!(cmp_value(2.0, 1.0), Greater);
        assert_eq!(cmp_value(2.0, 2.0), Equal);
        assert_eq!(cmp_value(Value::NAN, 2.0), Less);
        assert_eq!(cmp_value(2.0, Value::NAN), Greater);
        assert_eq!(cmp_value(Value::NAN, Value::NAN), Equal);
    }

    #[test]
    fn best_first_ranks_high_values_first_nan_last_and_ties_by_smaller_key() {
        use std::cmp::Ordering::*;
        assert_eq!(cmp_best_first((2.0, 9u64), (1.0, 1)), Less);
        assert_eq!(cmp_best_first((1.0, 1u64), (2.0, 9)), Greater);
        assert_eq!(cmp_best_first((2.0, 1u64), (2.0, 9)), Less);
        assert_eq!(cmp_best_first((2.0, 9u64), (2.0, 1)), Greater);
        assert_eq!(cmp_best_first((2.0, 4u64), (2.0, 4)), Equal);
        assert_eq!(cmp_best_first((Value::NAN, 1u64), (-1e300, 9)), Greater);
        assert_eq!(cmp_best_first((Value::NAN, 1u64), (Value::NAN, 9)), Less);
        let mut ranked = [(Value::NAN, 0u32), (3.0, 7), (Value::NEG_INFINITY, 1), (3.0, 2), (Value::NAN, 5)];
        ranked.sort_by(|&a, &b| cmp_best_first(a, b));
        let keys: Vec<u32> = ranked.iter().map(|&(_, k)| k).collect();
        assert_eq!(keys, [2, 7, 1, 0, 5]);
    }

    #[test]
    fn sink_is_node_zero() {
        assert_eq!(SINK, 0);
    }
}
