//! Abstract syntax tree of the KSpot query dialect.

use serde::{Deserialize, Serialize};
use std::fmt;

/// An aggregate function usable in the select list.
///
/// The Query Panel of the paper exposes AVG, MIN and MAX; SUM and COUNT complete the
/// set TAG-style partial aggregation supports without any extra machinery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AggFunc {
    /// Arithmetic mean (the paper also accepts the spelling `AVERAGE`).
    Avg,
    /// Sum of values.
    Sum,
    /// Minimum value.
    Min,
    /// Maximum value.
    Max,
    /// Number of contributing readings.
    Count,
}

impl AggFunc {
    /// Parses an aggregate-function name (case-insensitive).
    pub fn from_name(name: &str) -> Option<Self> {
        match name.to_ascii_uppercase().as_str() {
            "AVG" | "AVERAGE" | "MEAN" => Some(AggFunc::Avg),
            "SUM" => Some(AggFunc::Sum),
            "MIN" | "MINIMUM" => Some(AggFunc::Min),
            "MAX" | "MAXIMUM" => Some(AggFunc::Max),
            "COUNT" => Some(AggFunc::Count),
            _ => None,
        }
    }

    /// Canonical SQL spelling.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Avg => "AVG",
            AggFunc::Sum => "SUM",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::Count => "COUNT",
        }
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One item of the select list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SelectItem {
    /// A plain column reference, e.g. `roomid` or `nodeid`.
    Column(String),
    /// An aggregate over a column, e.g. `AVG(sound)`.
    Aggregate {
        /// The aggregate function.
        func: AggFunc,
        /// The aggregated sensor attribute.
        column: String,
    },
}

impl SelectItem {
    /// The aggregate function, if this item is an aggregate.
    pub fn aggregate(&self) -> Option<(AggFunc, &str)> {
        match self {
            SelectItem::Aggregate { func, column } => Some((*func, column.as_str())),
            SelectItem::Column(_) => None,
        }
    }

    /// The referenced column name.
    pub fn column(&self) -> &str {
        match self {
            SelectItem::Column(c) => c,
            SelectItem::Aggregate { column, .. } => column,
        }
    }
}

impl fmt::Display for SelectItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectItem::Column(c) => f.write_str(c),
            SelectItem::Aggregate { func, column } => write!(f, "{func}({column})"),
        }
    }
}

/// A comparison operator of the WHERE clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CompareOp {
    /// `=`
    Eq,
    /// `!=` / `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CompareOp {
    /// Evaluates `lhs OP rhs`.
    pub fn eval(self, lhs: f64, rhs: f64) -> bool {
        match self {
            CompareOp::Eq => lhs == rhs,
            CompareOp::Ne => lhs != rhs,
            CompareOp::Lt => lhs < rhs,
            CompareOp::Le => lhs <= rhs,
            CompareOp::Gt => lhs > rhs,
            CompareOp::Ge => lhs >= rhs,
        }
    }

    /// SQL spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            CompareOp::Eq => "=",
            CompareOp::Ne => "!=",
            CompareOp::Lt => "<",
            CompareOp::Le => "<=",
            CompareOp::Gt => ">",
            CompareOp::Ge => ">=",
        }
    }
}

impl fmt::Display for CompareOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// One conjunct of the WHERE clause: `column OP literal`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Predicate {
    /// The sensor attribute being filtered.
    pub column: String,
    /// The comparison operator.
    pub op: CompareOp,
    /// The literal value compared against.
    pub value: f64,
}

impl Predicate {
    /// Evaluates the predicate against a reading of `column`.
    pub fn matches(&self, value: f64) -> bool {
        self.op.eval(value, self.value)
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.column, self.op, self.value)
    }
}

/// Time units accepted by EPOCH DURATION, WITH HISTORY and LIFETIME clauses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TimeUnit {
    /// Seconds.
    Seconds,
    /// Minutes.
    Minutes,
    /// Hours.
    Hours,
    /// Days.
    Days,
    /// Whole epochs (query rounds) — the unit the simulator natively works in.
    Epochs,
}

impl TimeUnit {
    /// Parses a unit name (case-insensitive, singular or plural, common abbreviations).
    pub fn from_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "s" | "sec" | "secs" | "second" | "seconds" => Some(TimeUnit::Seconds),
            "min" | "mins" | "minute" | "minutes" => Some(TimeUnit::Minutes),
            "h" | "hr" | "hrs" | "hour" | "hours" => Some(TimeUnit::Hours),
            "d" | "day" | "days" => Some(TimeUnit::Days),
            "epoch" | "epochs" | "round" | "rounds" | "sample" | "samples" => Some(TimeUnit::Epochs),
            _ => None,
        }
    }

    /// How many seconds one unit lasts; `None` for [`TimeUnit::Epochs`], whose length is
    /// defined by the query's own EPOCH DURATION.
    pub fn seconds(self) -> Option<u64> {
        match self {
            TimeUnit::Seconds => Some(1),
            TimeUnit::Minutes => Some(60),
            TimeUnit::Hours => Some(3_600),
            TimeUnit::Days => Some(86_400),
            TimeUnit::Epochs => None,
        }
    }
}

impl fmt::Display for TimeUnit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TimeUnit::Seconds => "s",
            TimeUnit::Minutes => "min",
            TimeUnit::Hours => "h",
            TimeUnit::Days => "days",
            TimeUnit::Epochs => "epochs",
        };
        f.write_str(s)
    }
}

/// A duration such as `1 min` or `90 epochs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Duration {
    /// The number of units.
    pub amount: u64,
    /// The unit.
    pub unit: TimeUnit,
}

impl Duration {
    /// Creates a new duration.
    pub fn new(amount: u64, unit: TimeUnit) -> Self {
        Self { amount, unit }
    }

    /// Converts the duration to a whole number of epochs, given the epoch length in
    /// seconds.  Durations already expressed in epochs ignore the epoch length.
    /// The result is at least 1 (a zero-length window would be meaningless).
    ///
    /// The seconds conversion saturates on overflow; `validate()` rejects any
    /// duration for which [`Self::overflows`] is true before a plan is built, so a
    /// validated query never reaches the saturating path.
    pub fn to_epochs(&self, epoch_seconds: u64) -> u64 {
        match self.unit.seconds() {
            None => self.amount.max(1),
            Some(unit_secs) => {
                let total = self.amount.saturating_mul(unit_secs);
                (total / epoch_seconds.max(1)).max(1)
            }
        }
    }

    /// The duration in seconds, if the unit has an absolute length.  Saturates on
    /// overflow (see [`Self::overflows`] and the `to_epochs` note).
    pub fn to_seconds(&self) -> Option<u64> {
        self.unit.seconds().map(|s| s.saturating_mul(self.amount))
    }

    /// True when converting this duration to seconds overflows 64-bit arithmetic —
    /// the case `validate()` rejects with `QueryError::DurationOverflow` so the
    /// saturating conversions above can never silently clamp a validated query.
    pub fn overflows(&self) -> bool {
        match self.unit.seconds() {
            None => false,
            Some(unit_secs) => self.amount.checked_mul(unit_secs).is_none(),
        }
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.amount, self.unit)
    }
}

/// A parsed KSpot query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Query {
    /// The select list, in source order.
    pub select: Vec<SelectItem>,
    /// `Some(k)` when the query is a TOP-K query.
    pub top_k: Option<u32>,
    /// The FROM source; the only virtual table is `sensors`.
    pub source: String,
    /// Conjunctive WHERE predicates (empty when absent).
    pub predicates: Vec<Predicate>,
    /// The GROUP BY key, if any.
    pub group_by: Option<String>,
    /// EPOCH DURATION clause, if any.
    pub epoch_duration: Option<Duration>,
    /// WITH HISTORY clause, if any (makes the query historic).
    pub history: Option<Duration>,
    /// `AS OF` epoch, if any (answers the historic window as it stood at that epoch,
    /// served from a durable checkpoint rather than the live window).
    pub as_of: Option<u64>,
    /// LIFETIME clause, if any (how long the continuous query should run).
    pub lifetime: Option<Duration>,
}

impl Query {
    /// True when the query requests ranked (TOP-K) answers.
    pub fn is_top_k(&self) -> bool {
        self.top_k.is_some()
    }

    /// True when the query addresses locally buffered history.
    pub fn is_historic(&self) -> bool {
        self.history.is_some()
    }

    /// The single aggregate of the select list, if there is exactly one.
    pub fn aggregate(&self) -> Option<(AggFunc, &str)> {
        let mut aggs = self.select.iter().filter_map(SelectItem::aggregate);
        let first = aggs.next();
        if aggs.next().is_some() {
            None
        } else {
            first
        }
    }

    /// The epoch length in seconds (defaults to 30 s, TinyDB's default sample period).
    pub fn epoch_seconds(&self) -> u64 {
        self.epoch_duration.and_then(|d| d.to_seconds()).unwrap_or(30).max(1)
    }

    /// The history window expressed in epochs, if the query is historic.
    pub fn history_epochs(&self) -> Option<u64> {
        self.history.map(|h| h.to_epochs(self.epoch_seconds()))
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SELECT ")?;
        if let Some(k) = self.top_k {
            write!(f, "TOP {k} ")?;
        }
        let items: Vec<String> = self.select.iter().map(|s| s.to_string()).collect();
        write!(f, "{} FROM {}", items.join(", "), self.source)?;
        if !self.predicates.is_empty() {
            let preds: Vec<String> = self.predicates.iter().map(|p| p.to_string()).collect();
            write!(f, " WHERE {}", preds.join(" AND "))?;
        }
        if let Some(g) = &self.group_by {
            write!(f, " GROUP BY {g}")?;
        }
        if let Some(d) = self.epoch_duration {
            write!(f, " EPOCH DURATION {d}")?;
        }
        if let Some(h) = self.history {
            write!(f, " WITH HISTORY {h}")?;
        }
        if let Some(e) = self.as_of {
            write!(f, " AS OF {e}")?;
        }
        if let Some(l) = self.lifetime {
            write!(f, " LIFETIME {l}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agg_func_parsing_accepts_paper_spellings() {
        assert_eq!(AggFunc::from_name("AVERAGE"), Some(AggFunc::Avg));
        assert_eq!(AggFunc::from_name("avg"), Some(AggFunc::Avg));
        assert_eq!(AggFunc::from_name("Max"), Some(AggFunc::Max));
        assert_eq!(AggFunc::from_name("count"), Some(AggFunc::Count));
        assert_eq!(AggFunc::from_name("median"), None);
    }

    #[test]
    fn compare_ops_evaluate_correctly() {
        assert!(CompareOp::Gt.eval(3.0, 2.0));
        assert!(!CompareOp::Gt.eval(2.0, 2.0));
        assert!(CompareOp::Ge.eval(2.0, 2.0));
        assert!(CompareOp::Ne.eval(1.0, 2.0));
        assert!(CompareOp::Eq.eval(2.0, 2.0));
        assert!(CompareOp::Le.eval(1.0, 2.0));
        assert!(CompareOp::Lt.eval(1.0, 2.0));
    }

    #[test]
    fn time_unit_parsing_and_seconds() {
        assert_eq!(TimeUnit::from_name("min"), Some(TimeUnit::Minutes));
        assert_eq!(TimeUnit::from_name("EPOCHS"), Some(TimeUnit::Epochs));
        assert_eq!(TimeUnit::from_name("fortnight"), None);
        assert_eq!(TimeUnit::Minutes.seconds(), Some(60));
        assert_eq!(TimeUnit::Epochs.seconds(), None);
    }

    #[test]
    fn duration_to_epochs_converts_and_clamps() {
        assert_eq!(Duration::new(3, TimeUnit::Minutes).to_epochs(60), 3);
        assert_eq!(Duration::new(90, TimeUnit::Seconds).to_epochs(30), 3);
        assert_eq!(Duration::new(10, TimeUnit::Epochs).to_epochs(999), 10);
        assert_eq!(Duration::new(1, TimeUnit::Seconds).to_epochs(60), 1, "never below one epoch");
    }

    #[test]
    fn duration_overflow_is_detected_not_clamped() {
        assert!(Duration::new(u64::MAX, TimeUnit::Hours).overflows());
        assert!(Duration::new(u64::MAX / 3_600 + 1, TimeUnit::Hours).overflows());
        assert!(!Duration::new(u64::MAX / 3_600, TimeUnit::Hours).overflows());
        assert!(!Duration::new(u64::MAX, TimeUnit::Seconds).overflows());
        // Epoch-denominated durations never multiply, so they can never overflow.
        assert!(!Duration::new(u64::MAX, TimeUnit::Epochs).overflows());
    }

    #[test]
    fn query_helpers_and_display_round_trip_keywords() {
        let q = Query {
            select: vec![
                SelectItem::Column("roomid".into()),
                SelectItem::Aggregate { func: AggFunc::Avg, column: "sound".into() },
            ],
            top_k: Some(3),
            source: "sensors".into(),
            predicates: vec![Predicate { column: "sound".into(), op: CompareOp::Gt, value: 10.0 }],
            group_by: Some("roomid".into()),
            epoch_duration: Some(Duration::new(1, TimeUnit::Minutes)),
            history: None,
            as_of: None,
            lifetime: Some(Duration::new(1, TimeUnit::Hours)),
        };
        assert!(q.is_top_k());
        assert!(!q.is_historic());
        assert_eq!(q.aggregate(), Some((AggFunc::Avg, "sound")));
        assert_eq!(q.epoch_seconds(), 60);
        let s = q.to_string();
        for needle in ["SELECT TOP 3", "AVG(sound)", "FROM sensors", "WHERE sound > 10", "GROUP BY roomid", "EPOCH DURATION 1 min", "LIFETIME 1 h"] {
            assert!(s.contains(needle), "display {s:?} should contain {needle:?}");
        }
    }

    #[test]
    fn aggregate_helper_returns_none_when_ambiguous() {
        let q = Query {
            select: vec![
                SelectItem::Aggregate { func: AggFunc::Avg, column: "a".into() },
                SelectItem::Aggregate { func: AggFunc::Max, column: "b".into() },
            ],
            top_k: None,
            source: "sensors".into(),
            predicates: vec![],
            group_by: None,
            epoch_duration: None,
            history: None,
            as_of: None,
            lifetime: None,
        };
        assert_eq!(q.aggregate(), None);
    }

    #[test]
    fn history_epochs_uses_epoch_duration() {
        let q = Query {
            select: vec![SelectItem::Aggregate { func: AggFunc::Avg, column: "temp".into() }],
            top_k: Some(5),
            source: "sensors".into(),
            predicates: vec![],
            group_by: Some("epoch".into()),
            epoch_duration: Some(Duration::new(30, TimeUnit::Seconds)),
            history: Some(Duration::new(10, TimeUnit::Minutes)),
            as_of: None,
            lifetime: None,
        };
        assert!(q.is_historic());
        assert_eq!(q.history_epochs(), Some(20));
    }
}
