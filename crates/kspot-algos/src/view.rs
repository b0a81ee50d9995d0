//! Per-node group views — the `V_i` of the MINT description.
//!
//! During an epoch's convergecast every node maintains a view mapping each group (room)
//! present in its subtree to a partial aggregate state.  TAG ships the full view to the
//! parent, the naive strategy truncates it to the local top-k, and MINT prunes it with
//! the upper-bound framework.  [`GroupView`] is that map plus the merge operations all
//! of them share.
//!
//! The map is a `Vec` of `(group, state)` pairs sorted by group: a view holds a
//! handful of groups, is rebuilt every epoch and is merged far more often than it is
//! searched, and [`GroupView::reset`] keeps the buffer, which is what lets the
//! convergecast kernel ([`crate::tag`]) run without allocating.  Group ids may be
//! sparse; a view costs one pair per group *present*, never anything sized by an id.

use crate::agg::AggState;
use kspot_net::{GroupId, Value};
use kspot_query::AggFunc;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// A partial aggregate per group, as maintained by one node for its subtree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupView {
    func: AggFunc,
    /// Sorted by group, one entry per group.
    entries: Vec<(GroupId, AggState)>,
}

impl GroupView {
    /// An empty view for the given aggregate function.
    pub fn new(func: AggFunc) -> Self {
        Self { func, entries: Vec::new() }
    }

    /// Empties the view, keeping its buffer, and (re)binds it to `func`.
    pub fn reset(&mut self, func: AggFunc) {
        self.func = func;
        self.entries.clear();
    }

    /// The aggregate function the view is built for.
    pub fn func(&self) -> AggFunc {
        self.func
    }

    /// Number of groups (tuples) in the view — the number of data tuples a node would
    /// transmit if it shipped the view verbatim.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the view holds no groups.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn position(&self, group: GroupId) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&group, |(g, _)| *g)
    }

    /// Folds one raw reading into the view.
    pub fn add_reading(&mut self, group: GroupId, value: Value) {
        let at = self.position(group).unwrap_or_else(|at| {
            self.entries.insert(at, (group, AggState::empty(self.func)));
            at
        });
        self.entries[at].1.add(value);
    }

    /// Merges another view (typically a child's transmitted view) into this one: one
    /// forward pass over both sorted runs into `buf`, then copied back.  A group both
    /// hold merges exactly once, as `this.merge(other)`.  `buf` is scratch whose
    /// contents mean nothing before or after; a caller that keeps it (the convergecast
    /// kernel does) merges without allocating once it and this view are warm.
    pub fn merge(&mut self, other: &GroupView, buf: &mut Vec<(GroupId, AggState)>) {
        assert_eq!(self.func, other.func, "views of different aggregates cannot merge");
        let (mine, theirs) = (&self.entries, &other.entries);
        let (mut i, mut j) = (0, 0);
        buf.clear();
        while i < mine.len() && j < theirs.len() {
            let (group, state) = mine[i];
            match group.cmp(&theirs[j].0) {
                Ordering::Less => {
                    buf.push((group, state));
                    i += 1;
                }
                Ordering::Greater => {
                    buf.push(theirs[j]);
                    j += 1;
                }
                Ordering::Equal => {
                    let mut merged = state;
                    merged.merge(&theirs[j].1);
                    buf.push((group, merged));
                    i += 1;
                    j += 1;
                }
            }
        }
        buf.extend_from_slice(&mine[i..]);
        buf.extend_from_slice(&theirs[j..]);
        self.entries.clear();
        self.entries.extend_from_slice(buf);
    }

    /// The partial state for a group, if present.
    pub fn get(&self, group: GroupId) -> Option<&AggState> {
        self.position(group).ok().map(|at| &self.entries[at].1)
    }

    /// Iterates over `(group, partial state)` pairs in ascending group order.
    pub fn iter(&self) -> impl Iterator<Item = (GroupId, &AggState)> {
        self.entries.iter().map(|(g, s)| (*g, s))
    }

    /// Keeps only the groups for which `keep` returns true; returns how many were
    /// removed (the pruned tuples).
    pub fn retain(&mut self, mut keep: impl FnMut(GroupId, &AggState) -> bool) -> usize {
        let before = self.entries.len();
        self.entries.retain(|(g, s)| keep(*g, s));
        before - self.entries.len()
    }

    /// The partial aggregate value of every group, `(group, value)`, skipping groups
    /// whose state is still empty.
    pub fn partial_values(&self) -> Vec<(GroupId, Value)> {
        self.entries
            .iter()
            .filter_map(|(g, s)| s.partial_value(self.func).map(|v| (*g, v)))
            .collect()
    }

    /// Truncates the view to the `k` groups with the highest *partial* values — the
    /// wrongful greedy elimination the paper warns about, kept here because the naive
    /// baseline needs it.
    pub fn truncate_to_local_top_k(&mut self, k: usize) -> usize {
        let mut scored = self.partial_values();
        scored.sort_by(|a, b| kspot_net::types::cmp_value(b.1, a.1).then(a.0.cmp(&b.0)));
        let keep: std::collections::BTreeSet<GroupId> =
            scored.into_iter().take(k).map(|(g, _)| g).collect();
        self.retain(|g, _| keep.contains(&g))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(pairs: &[(GroupId, f64)]) -> GroupView {
        let mut v = GroupView::new(AggFunc::Avg);
        for &(g, val) in pairs {
            v.add_reading(g, val);
        }
        v
    }

    #[test]
    fn add_and_partial_values() {
        let v = view(&[(0, 74.0), (0, 75.0), (1, 40.0)]);
        assert_eq!(v.len(), 2);
        let vals = v.partial_values();
        assert_eq!(vals, vec![(0, 74.5), (1, 40.0)]);
        assert_eq!(v.get(0).unwrap().count(), 2);
        assert!(v.get(9).is_none());
    }

    #[test]
    fn merge_combines_group_states() {
        let mut a = view(&[(0, 74.0), (1, 40.0)]);
        let b = view(&[(0, 75.0), (2, 75.0)]);
        a.merge(&b, &mut Vec::new());
        assert_eq!(a.len(), 3);
        assert_eq!(a.partial_values(), vec![(0, 74.5), (1, 40.0), (2, 75.0)]);
    }

    #[test]
    fn retain_reports_pruned_count() {
        let mut v = view(&[(0, 74.0), (1, 40.0), (2, 75.0)]);
        let pruned = v.retain(|_, s| s.partial_value(AggFunc::Avg).unwrap_or(0.0) > 50.0);
        assert_eq!(pruned, 1);
        assert_eq!(v.len(), 2);
        assert!(v.get(1).is_none());
    }

    #[test]
    fn truncate_to_local_top_k_keeps_highest_partials() {
        // This is exactly the wrongful elimination of Figure 1's node s4: its local view
        // holds (B, 42) and (D, 39); local top-1 keeps B and drops D.
        let mut v = view(&[(1, 42.0), (3, 39.0)]);
        let pruned = v.truncate_to_local_top_k(1);
        assert_eq!(pruned, 1);
        assert!(v.get(1).is_some());
        assert!(v.get(3).is_none());
    }

    #[test]
    fn truncate_with_large_k_keeps_everything() {
        let mut v = view(&[(0, 1.0), (1, 2.0)]);
        assert_eq!(v.truncate_to_local_top_k(10), 0);
        assert_eq!(v.len(), 2);
    }

    #[test]
    #[should_panic(expected = "different aggregates")]
    fn merging_views_of_different_aggregates_panics() {
        let mut a = GroupView::new(AggFunc::Avg);
        let b = GroupView::new(AggFunc::Max);
        a.merge(&b, &mut Vec::new());
    }

    #[test]
    fn empty_view_reports_empty() {
        let v = GroupView::new(AggFunc::Max);
        assert!(v.is_empty());
        assert_eq!(v.partial_values(), vec![]);
    }

    const FUNCS: [AggFunc; 5] = [AggFunc::Avg, AggFunc::Sum, AggFunc::Min, AggFunc::Max, AggFunc::Count];

    /// Sparse group ids, so that nothing can be indexed by one.
    const GROUPS: [GroupId; 10] = [0, 1, 2, 7, 64, 1_000, 65_535, 1 << 20, 4_000_000_000, u32::MAX];

    /// A view of `func` over `readings` drawn as (group index, raw value); some values
    /// are NaN or a negative zero.
    fn drawn_view(func: AggFunc, readings: &[(usize, u32)]) -> GroupView {
        let mut v = GroupView::new(func);
        for &(g, raw) in readings {
            let value = match raw % 40 {
                0 => f64::NAN,
                1 => -0.0,
                _ => f64::from(raw) * 0.37 - 100.0,
            };
            v.add_reading(GROUPS[g % GROUPS.len()], value);
        }
        v
    }

    fn view_bits(v: &GroupView) -> Vec<(GroupId, (u32, Option<u64>))> {
        v.iter().map(|(g, s)| (g, s.to_bits())).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 256, ..proptest::ProptestConfig::default() })]

        /// `merge` against a fold into a `BTreeMap<GroupId, AggState>`: every merge into
        /// one receiver leaves the groups the map holds, ascending, with bit-equal
        /// states — over sparse ids, empty and one-entry operands (leaf views) and every
        /// aggregate.  Run a second time over the same operands, the warm receiver and
        /// its buffer do not reallocate.
        #[test]
        fn merge_matches_a_map_fold(
            func in 0usize..5,
            own in proptest::collection::vec((0usize..10, 0u32..2_000), 0..5),
            operands in proptest::collection::vec(proptest::collection::vec((0usize..10, 0u32..2_000), 0..6), 1..9),
        ) {
            let func = FUNCS[func];
            let operands: Vec<GroupView> = operands.iter().map(|r| drawn_view(func, r)).collect();
            let mut receiver = drawn_view(func, &own);
            let mut model: std::collections::BTreeMap<GroupId, AggState> =
                receiver.iter().map(|(g, s)| (g, *s)).collect();
            let mut buf = Vec::new();
            let mut folds = Vec::new();
            for operand in &operands {
                receiver.merge(operand, &mut buf);
                for (g, s) in operand.iter() {
                    model.entry(g).and_modify(|mine| mine.merge(s)).or_insert(*s);
                }
                let expected: Vec<_> = model.iter().map(|(g, s)| (*g, s.to_bits())).collect();
                proptest::prop_assert_eq!(&view_bits(&receiver), &expected);
                folds.push(expected);
            }

            receiver.reset(func);
            for (g, s) in drawn_view(func, &own).iter() {
                receiver.entries.push((g, *s));
            }
            let warm = (receiver.entries.as_ptr(), receiver.entries.capacity(), buf.as_ptr(), buf.capacity());
            for (operand, expected) in operands.iter().zip(&folds) {
                receiver.merge(operand, &mut buf);
                proptest::prop_assert_eq!(&view_bits(&receiver), expected);
                let now = (receiver.entries.as_ptr(), receiver.entries.capacity(), buf.as_ptr(), buf.capacity());
                proptest::prop_assert_eq!(now, warm, "a warm merge reallocated");
            }
        }
    }
}
