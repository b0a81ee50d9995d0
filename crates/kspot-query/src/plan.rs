//! Query classification — the routing decision of the KSpot server.
//!
//! Section III of the paper: *"there exists no universal algorithm that is optimized for
//! both classes of queries, rather there is a pool of data processing algorithms for
//! each class.  KSpot intelligently exploits this by executing a different query
//! processing algorithm based on the query semantics."*
//!
//! [`classify`] turns a validated [`Query`] into a [`QueryPlan`]: which in-network
//! execution strategy to run and with which parameters.  The mapping follows the paper:
//!
//! | Query shape | Strategy |
//! |---|---|
//! | `TOP K <group>, AGG(attr) … GROUP BY <group>` (no history) | [`ExecutionStrategy::SnapshotTopK`] → MINT |
//! | same, `WITH HISTORY w` (horizontally fragmented) | [`ExecutionStrategy::HistoricHorizontalTopK`] → local filter + MINT-style update |
//! | `TOP K epoch, AVG/SUM(attr) … GROUP BY epoch WITH HISTORY w` (vertically fragmented; other aggregates are refused) | [`ExecutionStrategy::HistoricVerticalTopK`] → TJA |
//! | `TOP K nodeid, attr` (no aggregate) | [`ExecutionStrategy::NodeMonitoringTopK`] → FILA-style filters |
//! | non-ranked aggregate with GROUP BY | [`ExecutionStrategy::InNetworkAggregate`] → TAG |
//! | anything else (plain SELECT) | [`ExecutionStrategy::RawCollection`] → centralized collection |

use crate::ast::{AggFunc, Query};
use crate::error::{QueryError, QueryResult};
use crate::validate::validate;
use serde::{Deserialize, Serialize};

/// The two *submission classes* a query can belong to, from the engine's point of
/// view: how a registered session behaves inside the shared epoch loop.
///
/// Every [`ExecutionStrategy`] maps to exactly one class ([`ExecutionStrategy::class`]).
/// A [`QueryClass::Continuous`] session produces one ranked answer per epoch until it
/// is cancelled or its `LIFETIME` elapses; a [`QueryClass::Historic`] session buffers
/// (or reuses) an engine-maintained sliding window and produces exactly one answer the
/// moment the window covers its `WITH HISTORY` span, then completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QueryClass {
    /// Answers every epoch from the live readings (MINT, TAG, FILA, raw collection).
    Continuous,
    /// Answers once from in-network sliding windows (TJA, local-aggregate historic).
    Historic,
}

impl QueryClass {
    /// True for the one-shot historic class.
    pub fn is_historic(self) -> bool {
        self == QueryClass::Historic
    }
}

/// The execution strategy the KSpot server routes a query to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ExecutionStrategy {
    /// Snapshot Top-K over grouped aggregates — executed by the MINT views algorithm.
    SnapshotTopK,
    /// Historic Top-K over horizontally fragmented data (each group's history lives on
    /// its own sensors) — executed by local search + filtering before the MINT-style
    /// update, as described in Section III-B.
    HistoricHorizontalTopK,
    /// Historic Top-K over vertically fragmented data (every node holds one fragment of
    /// every group, e.g. GROUP BY epoch) — executed by the TJA algorithm.
    HistoricVerticalTopK,
    /// Non-aggregate Top-K monitoring of individual node readings — executed by
    /// FILA-style per-node filters.
    NodeMonitoringTopK,
    /// Non-ranked grouped aggregation — executed by plain TAG in-network aggregation.
    InNetworkAggregate,
    /// Everything else — raw tuples are collected centrally at the sink.
    RawCollection,
}

impl ExecutionStrategy {
    /// The submission class of the strategy: one answer per epoch versus one answer
    /// from sliding windows (see [`QueryClass`]).
    pub fn class(self) -> QueryClass {
        match self {
            ExecutionStrategy::HistoricHorizontalTopK | ExecutionStrategy::HistoricVerticalTopK => {
                QueryClass::Historic
            }
            _ => QueryClass::Continuous,
        }
    }
}

/// The routing decision for a validated query and its normalised execution parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QueryPlan {
    /// The strategy the query is routed to.
    pub strategy: ExecutionStrategy,
    /// K for ranked strategies (0 for unranked ones).
    pub k: u32,
    /// The aggregate used for ranking/aggregation, if any.
    pub aggregate: Option<AggFunc>,
    /// History window in epochs, if the query is historic.
    pub history_epochs: Option<u64>,
    /// The checkpoint epoch to answer `AS OF`, if the query time-travels.
    pub as_of_epoch: Option<u64>,
    /// Lifetime of the continuous query in epochs, if bounded.
    pub lifetime_epochs: Option<u64>,
}

impl QueryPlan {
    /// The plan's submission class (shorthand for `self.strategy.class()`).
    pub fn class(&self) -> QueryClass {
        self.strategy.class()
    }
}

/// Classifies a query into its execution strategy.  The query is (re)validated first so
/// a plan can never be produced for a nonsensical query, and every refusal that depends
/// on the query alone happens here, before an engine (or a fleet's shard locks) is
/// involved.
pub fn classify(query: &Query) -> QueryResult<QueryPlan> {
    validate(query)?;

    let aggregate = query.aggregate();
    let strategy = match (query.top_k, &query.group_by, query.is_historic(), aggregate) {
        (Some(_), Some(g), true, Some(_)) if g == "epoch" => ExecutionStrategy::HistoricVerticalTopK,
        (Some(_), Some(_), true, Some(_)) => ExecutionStrategy::HistoricHorizontalTopK,
        (Some(_), Some(_), false, Some(_)) => ExecutionStrategy::SnapshotTopK,
        (Some(_), _, _, None) => ExecutionStrategy::NodeMonitoringTopK,
        (None, Some(_), _, Some(_)) => ExecutionStrategy::InNetworkAggregate,
        _ => ExecutionStrategy::RawCollection,
    };

    // TJA's and TPUT's thresholds bound a score by summing per-node partial scores.
    if let (ExecutionStrategy::HistoricVerticalTopK, Some((func, _))) = (strategy, aggregate) {
        if !matches!(func, AggFunc::Avg | AggFunc::Sum) {
            return Err(QueryError::semantic(format!(
                "historic ranking requires a sum-decomposable aggregate (AVG or SUM), got {func}"
            )));
        }
    }

    // A node-monitoring query ranks raw readings, so besides the grouping entities it
    // must select the measurement column it ranks by.
    let entity = |c: &str| matches!(c, "nodeid" | "roomid" | "cluster" | "epoch" | "*");
    if strategy == ExecutionStrategy::NodeMonitoringTopK && query.select.iter().all(|s| entity(s.column())) {
        return Err(QueryError::semantic(
            "a ranked node-monitoring query must select the measurement to rank by (e.g. `nodeid, sound`)",
        ));
    }

    Ok(QueryPlan {
        strategy,
        k: query.top_k.unwrap_or(0),
        aggregate: aggregate.map(|(f, _)| f),
        history_epochs: query.history_epochs(),
        as_of_epoch: query.as_of,
        lifetime_epochs: query.lifetime.map(|l| l.to_epochs(query.epoch_seconds())),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn plan(sql: &str) -> QueryPlan {
        classify(&parse(sql).expect("parse")).expect("classify")
    }

    #[test]
    fn snapshot_topk_routes_to_mint() {
        let p = plan("SELECT TOP 1 roomid, AVERAGE(sound) FROM sensors GROUP BY roomid EPOCH DURATION 1 min");
        assert_eq!(p.strategy, ExecutionStrategy::SnapshotTopK);
        assert_eq!(p.k, 1);
        assert_eq!(p.aggregate, Some(AggFunc::Avg));
    }

    #[test]
    fn historic_horizontal_topk_routes_to_local_filtering() {
        let p = plan("SELECT TOP 3 roomid, AVG(sound) FROM sensors GROUP BY roomid WITH HISTORY 30 epochs");
        assert_eq!(p.strategy, ExecutionStrategy::HistoricHorizontalTopK);
        assert_eq!(p.history_epochs, Some(30));
    }

    #[test]
    fn every_strategy_maps_to_exactly_one_query_class() {
        let historic = [
            ExecutionStrategy::HistoricHorizontalTopK,
            ExecutionStrategy::HistoricVerticalTopK,
        ];
        let continuous = [
            ExecutionStrategy::SnapshotTopK,
            ExecutionStrategy::NodeMonitoringTopK,
            ExecutionStrategy::InNetworkAggregate,
            ExecutionStrategy::RawCollection,
        ];
        for s in historic {
            assert_eq!(s.class(), QueryClass::Historic);
            assert!(s.class().is_historic());
        }
        for s in continuous {
            assert_eq!(s.class(), QueryClass::Continuous);
            assert!(!s.class().is_historic());
        }
        let p = plan("SELECT TOP 5 epoch, AVG(sound) FROM sensors GROUP BY epoch WITH HISTORY 16 epochs");
        assert_eq!(p.class(), QueryClass::Historic);
        assert_eq!(plan("SELECT * FROM sensors").class(), QueryClass::Continuous);
    }

    #[test]
    fn as_of_rides_the_historic_strategies_into_the_plan() {
        let p = plan("SELECT TOP 3 roomid, AVG(sound) FROM sensors GROUP BY roomid WITH HISTORY 8 epochs AS OF 24");
        assert_eq!(p.strategy, ExecutionStrategy::HistoricHorizontalTopK);
        assert_eq!(p.as_of_epoch, Some(24));
        let p = plan("SELECT TOP 5 epoch, AVG(sound) FROM sensors GROUP BY epoch WITH HISTORY 8 epochs AS OF 16");
        assert_eq!(p.strategy, ExecutionStrategy::HistoricVerticalTopK);
        assert_eq!(p.as_of_epoch, Some(16));
        assert_eq!(p.class(), QueryClass::Historic, "AS OF never changes the class");
        assert_eq!(plan("SELECT * FROM sensors").as_of_epoch, None);
    }

    #[test]
    fn historic_vertical_topk_routes_to_tja() {
        let p = plan("SELECT TOP 5 epoch, AVG(temperature) FROM sensors GROUP BY epoch EPOCH DURATION 1 h WITH HISTORY 3 days");
        assert_eq!(p.strategy, ExecutionStrategy::HistoricVerticalTopK);
        assert_eq!(p.history_epochs, Some(72));
    }

    #[test]
    fn node_monitoring_topk_routes_to_fila() {
        let p = plan("SELECT TOP 3 nodeid, sound FROM sensors EPOCH DURATION 10 s");
        assert_eq!(p.strategy, ExecutionStrategy::NodeMonitoringTopK);
        assert_eq!(p.aggregate, None);
    }

    #[test]
    fn unranked_aggregate_routes_to_tag() {
        let p = plan("SELECT roomid, AVG(sound) FROM sensors GROUP BY roomid EPOCH DURATION 30 s");
        assert_eq!(p.strategy, ExecutionStrategy::InNetworkAggregate);
        assert_eq!(p.k, 0);
    }

    #[test]
    fn plain_select_routes_to_raw_collection() {
        let p = plan("SELECT * FROM sensors");
        assert_eq!(p.strategy, ExecutionStrategy::RawCollection);
    }

    #[test]
    fn lifetime_is_converted_to_epochs() {
        let p = plan("SELECT TOP 1 roomid, AVG(sound) FROM sensors GROUP BY roomid EPOCH DURATION 1 min LIFETIME 1 h");
        assert_eq!(p.lifetime_epochs, Some(60));
    }

    #[test]
    fn ranked_node_monitoring_needs_a_measurement() {
        let q = parse("SELECT TOP 3 nodeid FROM sensors").expect("parses");
        let err = classify(&q).unwrap_err();
        assert!(err.to_string().contains("measurement"));
    }

    #[test]
    fn ranking_epochs_needs_a_sum_decomposable_aggregate() {
        // TJA's threshold algebra sums per-node partial scores; MAX, MIN and COUNT
        // are refused before any engine sees the plan.
        for func in ["MAX", "MIN", "COUNT"] {
            let sql = format!(
                "SELECT TOP 3 epoch, {func}(sound) FROM sensors GROUP BY epoch WITH HISTORY 8 epochs"
            );
            let err = classify(&parse(&sql).expect("parses and validates")).unwrap_err();
            let expected = format!("sum-decomposable aggregate (AVG or SUM), got {func}");
            assert!(err.to_string().contains(&expected), "{sql}: {err}");
        }
        for func in ["AVG", "SUM"] {
            plan(&format!(
                "SELECT TOP 3 epoch, {func}(sound) FROM sensors GROUP BY epoch WITH HISTORY 8 epochs"
            ));
        }
    }

    #[test]
    fn classification_revalidates() {
        let mut q = parse("SELECT TOP 3 roomid, AVG(sound) FROM sensors GROUP BY roomid").unwrap();
        q.top_k = Some(0); // corrupt it after parsing
        assert!(classify(&q).is_err());
    }

    #[test]
    fn default_epoch_duration_is_thirty_seconds() {
        let p = plan("SELECT TOP 2 roomid, MAX(sound) FROM sensors GROUP BY roomid LIFETIME 1 h");
        assert_eq!(p.lifetime_epochs, Some(120));
    }
}
