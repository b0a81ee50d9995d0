//! # kspot-query — the declarative query language of KSpot
//!
//! KSpot's Query Panel lets a user pose SQL-like queries over the sensor network, e.g.
//! the running example of the paper:
//!
//! ```sql
//! SELECT TOP 1 roomid, AVERAGE(sound)
//! FROM sensors
//! GROUP BY roomid
//! EPOCH DURATION 1 min
//! ```
//!
//! or a historic query over locally buffered readings:
//!
//! ```sql
//! SELECT TOP 5 epoch, AVG(temperature)
//! FROM sensors
//! GROUP BY epoch
//! WITH HISTORY 90 epochs
//! ```
//!
//! This crate provides the full front end for that dialect:
//!
//! * [`lexer`] — tokenisation with precise source positions;
//! * [`ast`] — the abstract syntax tree ([`ast::Query`]);
//! * [`parser`] — a hand-written recursive-descent parser;
//! * [`mod@validate`] — semantic checks (aggregate arity, K > 0, sensible clauses);
//! * [`plan`] — classification of a validated query into the execution strategy the
//!   KSpot server routes it to (MINT for snapshot Top-K, TJA for historic vertically
//!   fragmented Top-K, plain TAG for non-ranked aggregates, …), mirroring Section III of
//!   the paper: "KSpot intelligently exploits this by executing a different query
//!   processing algorithm based on the query semantics".  A `WHERE` clause parses and
//!   validates but is rejected here: no strategy executes predicates.
//!
//! ## Quick example
//!
//! ```
//! use kspot_query::{parse, plan::{classify, ExecutionStrategy}};
//!
//! let q = parse("SELECT TOP 3 roomid, AVG(sound) FROM sensors GROUP BY roomid EPOCH DURATION 30 s").unwrap();
//! assert_eq!(q.top_k, Some(3));
//! assert_eq!(classify(&q).unwrap().strategy, ExecutionStrategy::SnapshotTopK);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ast;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod plan;
pub mod validate;

pub use ast::{AggFunc, Duration, Predicate, Query, SelectItem, TimeUnit};
pub use error::{QueryError, QueryResult};
pub use parser::parse;
pub use plan::{classify, ExecutionStrategy, QueryClass, QueryPlan};
pub use validate::validate;
