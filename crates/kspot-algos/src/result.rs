//! Ranked result types shared by every Top-K algorithm.

use kspot_net::{Epoch, Value};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One ranked answer: a key (group id, node id or epoch, depending on the query) and its
/// aggregate value.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RankedItem {
    /// The ranked entity (room/cluster id for snapshot queries, node id for monitoring
    /// queries, epoch number for historic vertically-fragmented queries).
    pub key: u64,
    /// The aggregate value that produced the rank.
    pub value: Value,
}

impl RankedItem {
    /// Creates a ranked item.
    pub fn new(key: u64, value: Value) -> Self {
        Self { key, value }
    }
}

impl fmt::Display for RankedItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {:.2})", self.key, self.value)
    }
}

/// The ranked answer produced at the sink for one epoch (or one historic query).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopKResult {
    /// The epoch the answer refers to (for one-shot historic queries this is the epoch
    /// at which the query was answered).
    pub epoch: Epoch,
    /// The ranked answers, best first, at most K items.
    pub items: Vec<RankedItem>,
}

/// Best first, ties towards the smaller key.
fn by_rank(a: &RankedItem, b: &RankedItem) -> std::cmp::Ordering {
    kspot_net::types::cmp_value(b.value, a.value).then(a.key.cmp(&b.key))
}

impl TopKResult {
    /// Creates a result, sorting the items best-first and breaking ties towards the
    /// smaller key so results are deterministic.
    pub fn new(epoch: Epoch, mut items: Vec<RankedItem>) -> Self {
        items.sort_by(by_rank);
        Self { epoch, items }
    }

    /// The `k` best of `items`, ranked like [`Self::new`] ranks them, holding exactly
    /// what it reports: whatever capacity `items` arrived with (a whole ranking the
    /// answer is cut from, a buffer grown by pushes) is given back, so an answer kept
    /// for the length of a session costs its K items and nothing else.
    pub fn top_k(epoch: Epoch, mut items: Vec<RankedItem>, k: usize) -> Self {
        items.sort_by(by_rank);
        items.truncate(k);
        items.shrink_to_fit();
        Self { epoch, items }
    }

    /// The `k` best of `candidates`, ranked like [`Self::new`] ranks them.  The
    /// candidates are sorted where they are — a buffer the caller keeps — and only the
    /// answer is allocated.  Their keys must be distinct, so that the order is total.
    pub fn best_of(epoch: Epoch, candidates: &mut [RankedItem], k: usize) -> Self {
        candidates.sort_unstable_by(by_rank);
        Self { epoch, items: candidates[..k.min(candidates.len())].to_vec() }
    }

    /// The ranked keys, best first.
    pub fn keys(&self) -> Vec<u64> {
        self.items.iter().map(|i| i.key).collect()
    }

    /// The best-ranked item, if any.
    pub fn top(&self) -> Option<&RankedItem> {
        self.items.first()
    }

    /// True if both results rank the same keys in the same order.
    pub fn same_ranking(&self, other: &TopKResult) -> bool {
        self.keys() == other.keys()
    }

    /// True if both results contain the same set of keys, ignoring order — the *recall*
    /// notion used when grading approximate strategies.
    pub fn same_key_set(&self, other: &TopKResult) -> bool {
        let mut a = self.keys();
        let mut b = other.keys();
        a.sort_unstable();
        b.sort_unstable();
        a == b
    }

    /// Fraction of `reference`'s keys that also appear in `self` (recall in [0, 1]).
    pub fn recall_against(&self, reference: &TopKResult) -> f64 {
        if reference.items.is_empty() {
            return 1.0;
        }
        let ours = self.keys();
        let hits = reference.keys().iter().filter(|k| ours.contains(k)).count();
        hits as f64 / reference.items.len() as f64
    }

    /// True when the values of matching ranks agree within `tol` and the rankings match.
    pub fn approx_eq(&self, other: &TopKResult, tol: f64) -> bool {
        self.same_ranking(other)
            && self
                .items
                .iter()
                .zip(other.items.iter())
                .all(|(a, b)| (a.value - b.value).abs() <= tol)
    }
}

impl fmt::Display for TopKResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let items: Vec<String> = self.items.iter().map(|i| i.to_string()).collect();
        write!(f, "epoch {}: [{}]", self.epoch, items.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(epoch: Epoch, pairs: &[(u64, f64)]) -> TopKResult {
        TopKResult::new(epoch, pairs.iter().map(|&(k, v)| RankedItem::new(k, v)).collect())
    }

    #[test]
    fn construction_sorts_best_first_with_deterministic_ties() {
        let r = result(3, &[(2, 75.0), (0, 74.5), (3, 75.0), (1, 41.0)]);
        assert_eq!(r.keys(), vec![2, 3, 0, 1]);
        assert_eq!(r.top().unwrap().key, 2);
        assert_eq!(r.epoch, 3);
    }

    #[test]
    fn the_best_of_a_buffer_is_the_head_of_the_sorted_construction() {
        let pairs = [(2, 75.0), (0, 74.5), (3, 75.0), (1, f64::NAN), (4, 41.0)];
        let mut candidates: Vec<RankedItem> = pairs.iter().map(|&(k, v)| RankedItem::new(k, v)).collect();
        let full = result(3, &pairs);
        for k in [0, 1, 3, 5, 9] {
            let best = TopKResult::best_of(3, &mut candidates, k);
            assert_eq!(best.keys(), full.keys()[..k.min(5)], "k = {k}");
            assert_eq!(best.epoch, 3);
            assert_eq!(best.items.capacity(), best.items.len());
        }
    }

    #[test]
    fn the_top_k_of_a_vec_is_that_head_too_and_gives_the_spare_capacity_back() {
        let pairs = [(2, 75.0), (0, 74.5), (3, 75.0), (1, f64::NAN), (4, 41.0)];
        let full = result(3, &pairs);
        for k in [0, 1, 3, 5, 9] {
            let mut items = Vec::with_capacity(196);
            items.extend(pairs.iter().map(|&(k, v)| RankedItem::new(k, v)));
            let best = TopKResult::top_k(3, items, k);
            assert_eq!(best.keys(), full.keys()[..k.min(5)], "k = {k}");
            assert_eq!(best.epoch, 3);
            assert_eq!(best.items.capacity(), best.items.len(), "k = {k}");
        }
    }

    #[test]
    fn ranking_and_set_comparisons() {
        let a = result(0, &[(2, 75.0), (0, 74.5)]);
        let b = result(0, &[(0, 76.0), (2, 74.0)]);
        assert!(!a.same_ranking(&b));
        assert!(a.same_key_set(&b));
        let c = result(0, &[(2, 75.0), (5, 60.0)]);
        assert!(!a.same_key_set(&c));
    }

    #[test]
    fn recall_counts_overlapping_keys() {
        let truth = result(0, &[(1, 9.0), (2, 8.0), (3, 7.0), (4, 6.0)]);
        let ours = result(0, &[(1, 9.0), (3, 7.5), (9, 5.0), (8, 4.0)]);
        assert!((ours.recall_against(&truth) - 0.5).abs() < 1e-12);
        assert_eq!(truth.recall_against(&truth), 1.0);
        let empty = result(0, &[]);
        assert_eq!(ours.recall_against(&empty), 1.0);
    }

    #[test]
    fn approx_eq_tolerates_small_value_differences_only() {
        let a = result(0, &[(2, 75.0), (0, 74.5)]);
        let b = result(0, &[(2, 75.004), (0, 74.498)]);
        assert!(a.approx_eq(&b, 0.01));
        assert!(!a.approx_eq(&b, 0.001));
    }

    #[test]
    fn display_is_readable() {
        let r = result(7, &[(2, 75.0)]);
        assert_eq!(r.to_string(), "epoch 7: [(2, 75.00)]");
    }
}
