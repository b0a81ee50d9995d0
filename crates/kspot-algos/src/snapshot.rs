//! Shared scaffolding for snapshot Top-K algorithms.
//!
//! All snapshot strategies (TAG + sink-side Top-K, centralized collection, naive local
//! pruning, MINT views) implement the [`SnapshotAlgorithm`] trait: once per epoch they
//! are handed the epoch's readings, they move whatever traffic their strategy requires
//! through the [`Network`] (which does the message/energy accounting) and they return
//! the ranked answer their sink would report.  [`run_continuous`] drives a continuous
//! query for a number of epochs, and [`exact_reference`] computes the ground-truth
//! answer the exact strategies must match.

use crate::agg::exact_aggregate;
use crate::result::{RankedItem, TopKResult};
use kspot_net::types::ValueDomain;
use kspot_net::{GroupId, Network, Reading, Workload, SINK};
use kspot_query::plan::{ExecutionStrategy, QueryPlan};
use kspot_query::{AggFunc, QueryError};
use serde::{Deserialize, Serialize};

/// The parameters a snapshot Top-K execution needs, distilled from a [`QueryPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SnapshotSpec {
    /// How many ranked groups to report.
    pub k: usize,
    /// The aggregate that scores a group.
    pub func: AggFunc,
    /// The domain sensed values live in (needed for the bounding framework).
    pub domain: ValueDomain,
}

impl SnapshotSpec {
    /// Creates a spec directly.
    pub fn new(k: usize, func: AggFunc, domain: ValueDomain) -> Self {
        assert!(k > 0, "snapshot Top-K requires k > 0");
        Self { k, func, domain }
    }

    /// Derives the spec from a classified query plan.  The plan must be a snapshot
    /// (or historic-horizontal) grouped Top-K query.
    pub fn from_plan(plan: &QueryPlan, domain: ValueDomain) -> Result<Self, QueryError> {
        match plan.strategy {
            ExecutionStrategy::SnapshotTopK | ExecutionStrategy::HistoricHorizontalTopK => {}
            other => {
                return Err(QueryError::semantic(format!(
                    "a snapshot executor cannot run a {other:?} plan"
                )))
            }
        }
        let func = plan.aggregate.ok_or_else(|| QueryError::semantic("snapshot Top-K requires an aggregate"))?;
        if plan.k == 0 {
            return Err(QueryError::semantic("snapshot Top-K requires K > 0"));
        }
        Ok(Self { k: plan.k as usize, func, domain })
    }
}

/// A snapshot Top-K execution strategy.
pub trait SnapshotAlgorithm {
    /// Short human-readable name (shown by the System Panel and the bench tables).
    fn name(&self) -> &'static str;

    /// Executes one epoch: moves this strategy's traffic through `net` and returns the
    /// ranked answer available at the sink afterwards.
    ///
    /// `readings` contains exactly one reading per sensor node for the epoch.
    fn execute_epoch(&mut self, net: &mut Network, readings: &[Reading]) -> TopKResult;
}

/// Ground-truth ranked answer computed omnisciently from the epoch's readings.
pub fn exact_reference(spec: &SnapshotSpec, readings: &[Reading]) -> TopKResult {
    ReferenceScratch::default().rank(spec, readings)
}

/// The buffers [`exact_reference`] groups readings in; a sink that ranks raw tuples
/// every epoch ([`crate::centralized`]) keeps one and reuses it.
#[derive(Debug, Clone, Default)]
pub(crate) struct ReferenceScratch {
    /// `(group, position in the readings, value)`, sorted.
    keyed: Vec<(GroupId, u32, f64)>,
    /// The values alone in that order: each group's run is one contiguous slice.
    values: Vec<f64>,
    /// Each group's aggregate, ranked in place: the answer is its head, copied out.
    ranked: Vec<RankedItem>,
}

impl ReferenceScratch {
    /// [`exact_reference`] in reused buffers.  A group's values are aggregated in the
    /// order its readings were given — the order the floating-point sums depend on.
    pub(crate) fn rank(&mut self, spec: &SnapshotSpec, readings: &[Reading]) -> TopKResult {
        let epoch = readings.first().map(|r| r.epoch).unwrap_or(0);
        self.keyed.clear();
        self.keyed.extend(readings.iter().enumerate().map(|(at, r)| (r.group, at as u32, r.value)));
        self.keyed.sort_unstable_by_key(|&(group, at, _)| (group, at));
        self.values.clear();
        self.values.extend(self.keyed.iter().map(|&(_, _, value)| value));
        self.ranked.clear();
        let mut start = 0;
        for run in self.keyed.chunk_by(|a, b| a.0 == b.0) {
            let values = &self.values[start..start + run.len()];
            start += run.len();
            if let Some(v) = exact_aggregate(spec.func, values) {
                self.ranked.push(RankedItem::new(u64::from(run[0].0), v));
            }
        }
        TopKResult::best_of(epoch, &mut self.ranked, spec.k)
    }
}

/// Notes in `reading_at[id]` where in an epoch's readings node `id`'s reading sits,
/// visiting `(position, reading)` pairs in the order given — a later visit overwrites
/// an earlier one, so the caller's direction decides which of several readings of one
/// node wins.  Readings of the sink or of no node of the network are skipped.
pub(crate) fn index_readings<'r>(
    reading_at: &mut Vec<Option<u32>>,
    num_nodes: usize,
    readings: impl Iterator<Item = (usize, &'r Reading)>,
) {
    reading_at.clear();
    reading_at.resize(num_nodes + 1, None);
    for (at, r) in readings {
        if r.node != SINK && r.node as usize <= num_nodes {
            reading_at[r.node as usize] = Some(at as u32);
        }
    }
}

/// Runs a continuous snapshot query for `epochs` epochs, driving the workload, charging
/// the per-epoch baseline energy and collecting the per-epoch answers — one
/// [`Network::run_epoch`] each.
pub fn run_continuous(
    algo: &mut dyn SnapshotAlgorithm,
    net: &mut Network,
    workload: &mut Workload,
    epochs: usize,
) -> Vec<TopKResult> {
    (0..epochs)
        .map(|_| {
            let readings = workload.next_epoch();
            let epoch = readings.first().map(|r| r.epoch).unwrap_or(0);
            net.run_epoch(epoch, |net| algo.execute_epoch(net, &readings))
        })
        .collect()
}

/// Runs `algo` and an omniscient reference side by side and reports how many epochs the
/// algorithm ranked correctly (used by the accuracy study E8).
pub struct AccuracyReport {
    /// Number of epochs evaluated.
    pub epochs: usize,
    /// Epochs in which the algorithm returned exactly the reference ranking.
    pub exact_rankings: usize,
    /// Epochs in which the algorithm returned the correct key set (any order).
    pub correct_sets: usize,
    /// Mean recall against the reference across epochs.
    pub mean_recall: f64,
}

impl AccuracyReport {
    /// Grades a sequence of produced answers against the matching reference answers.
    pub fn grade(produced: &[TopKResult], reference: &[TopKResult]) -> Self {
        assert_eq!(produced.len(), reference.len(), "answer streams must align");
        let epochs = produced.len();
        let mut exact_rankings = 0;
        let mut correct_sets = 0;
        let mut recall_sum = 0.0;
        for (p, r) in produced.iter().zip(reference.iter()) {
            if p.same_ranking(r) {
                exact_rankings += 1;
            }
            if p.same_key_set(r) {
                correct_sets += 1;
            }
            recall_sum += p.recall_against(r);
        }
        Self {
            epochs,
            exact_rankings,
            correct_sets,
            mean_recall: if epochs == 0 { 1.0 } else { recall_sum / epochs as f64 },
        }
    }

    /// Fraction of epochs with a fully correct ranking.
    pub fn ranking_accuracy(&self) -> f64 {
        if self.epochs == 0 {
            1.0
        } else {
            self.exact_rankings as f64 / self.epochs as f64
        }
    }

    /// Fraction of epochs with the correct answer set.
    pub fn set_accuracy(&self) -> f64 {
        if self.epochs == 0 {
            1.0
        } else {
            self.correct_sets as f64 / self.epochs as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kspot_net::{Deployment, Workload};
    use kspot_query::{classify, parse};

    fn figure1_readings() -> Vec<Reading> {
        let d = Deployment::figure1();
        Workload::figure1(&d).next_epoch()
    }

    #[test]
    fn spec_from_plan_accepts_snapshot_plans_only() {
        let plan = classify(&parse("SELECT TOP 3 roomid, AVG(sound) FROM sensors GROUP BY roomid").unwrap()).unwrap();
        let spec = SnapshotSpec::from_plan(&plan, ValueDomain::percentage()).unwrap();
        assert_eq!(spec.k, 3);
        assert_eq!(spec.func, AggFunc::Avg);

        let tja_plan = classify(
            &parse("SELECT TOP 3 epoch, AVG(temperature) FROM sensors GROUP BY epoch WITH HISTORY 10 epochs").unwrap(),
        )
        .unwrap();
        assert!(SnapshotSpec::from_plan(&tja_plan, ValueDomain::percentage()).is_err());
    }

    #[test]
    fn exact_reference_reproduces_figure1_room_ranking() {
        let spec = SnapshotSpec::new(4, AggFunc::Avg, ValueDomain::percentage());
        let reference = exact_reference(&spec, &figure1_readings());
        // C (75) > A (74.5) > D (64) > B (41), matching the in-network view of Figure 1.
        assert_eq!(reference.keys(), vec![2, 0, 3, 1]);
        assert!((reference.items[0].value - 75.0).abs() < 1e-9);
        assert!((reference.items[1].value - 74.5).abs() < 1e-9);
        assert!((reference.items[2].value - 64.0).abs() < 1e-9);
        assert!((reference.items[3].value - 41.0).abs() < 1e-9);
    }

    #[test]
    fn exact_reference_truncates_to_k() {
        let spec = SnapshotSpec::new(1, AggFunc::Avg, ValueDomain::percentage());
        let reference = exact_reference(&spec, &figure1_readings());
        assert_eq!(reference.items.len(), 1);
        assert_eq!(reference.top().unwrap().key, 2, "the correct Top-1 answer is room C");
    }

    #[test]
    fn accuracy_report_grades_streams() {
        let truth = vec![
            TopKResult::new(0, vec![RankedItem::new(1, 9.0), RankedItem::new(2, 8.0)]),
            TopKResult::new(1, vec![RankedItem::new(1, 9.0), RankedItem::new(2, 8.0)]),
        ];
        let produced = vec![
            TopKResult::new(0, vec![RankedItem::new(1, 9.0), RankedItem::new(2, 8.0)]),
            TopKResult::new(1, vec![RankedItem::new(2, 9.0), RankedItem::new(3, 8.0)]),
        ];
        let report = AccuracyReport::grade(&produced, &truth);
        assert_eq!(report.epochs, 2);
        assert_eq!(report.exact_rankings, 1);
        assert_eq!(report.correct_sets, 1);
        assert!((report.mean_recall - 0.75).abs() < 1e-12);
        assert!((report.ranking_accuracy() - 0.5).abs() < 1e-12);
        assert!((report.set_accuracy() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "k > 0")]
    fn spec_rejects_zero_k() {
        let _ = SnapshotSpec::new(0, AggFunc::Avg, ValueDomain::percentage());
    }
}
