//! Recursive-descent parser for the KSpot query dialect.
//!
//! Grammar (keywords case-insensitive):
//!
//! ```text
//! query          := SELECT [TOP number] select_list FROM identifier
//!                   [WHERE predicate (AND predicate)*]
//!                   [GROUP BY identifier]
//!                   [EPOCH DURATION duration]
//!                   [WITH HISTORY duration [AS OF number]]
//!                   [LIFETIME duration]
//! select_list    := select_item (',' select_item)* | '*'
//! select_item    := identifier | identifier '(' identifier ')'
//! predicate      := identifier compare_op number
//! duration       := number identifier          -- e.g. `1 min`, `90 epochs`
//! ```

use crate::ast::{AggFunc, CompareOp, Duration, Predicate, Query, SelectItem, TimeUnit};
use crate::error::{QueryError, QueryResult};
use crate::lexer::{tokenize, Keyword, SpannedToken, Token};
use crate::validate::validate;

/// Parses and validates a query string.
///
/// This is the entry point the KSpot server uses for text arriving from the Query Panel:
/// the result is both syntactically and semantically checked.
pub fn parse(input: &str) -> QueryResult<Query> {
    let query = parse_unvalidated(input)?;
    validate(&query)?;
    Ok(query)
}

/// Parses a query string without running semantic validation — useful in tests and in
/// tools that want to inspect partially sensible queries.
pub fn parse_unvalidated(input: &str) -> QueryResult<Query> {
    let tokens = tokenize(input)?;
    let mut p = Parser { tokens, pos: 0 };
    let q = p.query()?;
    p.expect_end()?;
    Ok(q)
}

struct Parser {
    tokens: Vec<SpannedToken>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|t| &t.token)
    }

    fn peek_position(&self) -> usize {
        self.tokens.get(self.pos).map(|t| t.position).unwrap_or(usize::MAX)
    }

    fn advance(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|t| t.token.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn describe(token: &Token) -> String {
        match token {
            Token::Keyword(k) => format!("keyword {}", k.as_str()),
            Token::Identifier(s) => format!("identifier `{s}`"),
            Token::Number(n) => format!("number {n}"),
            Token::Comma => "`,`".into(),
            Token::LeftParen => "`(`".into(),
            Token::RightParen => "`)`".into(),
            Token::Star => "`*`".into(),
            Token::Eq => "`=`".into(),
            Token::Ne => "`!=`".into(),
            Token::Lt => "`<`".into(),
            Token::Le => "`<=`".into(),
            Token::Gt => "`>`".into(),
            Token::Ge => "`>=`".into(),
        }
    }

    fn error_here(&self, expected: &str) -> QueryError {
        match self.peek() {
            Some(tok) => QueryError::UnexpectedToken {
                expected: expected.to_string(),
                found: Self::describe(tok),
                position: self.peek_position(),
            },
            None => QueryError::UnexpectedEndOfInput { expected: expected.to_string() },
        }
    }

    fn expect_keyword(&mut self, kw: Keyword) -> QueryResult<()> {
        match self.peek() {
            Some(Token::Keyword(k)) if *k == kw => {
                self.advance();
                Ok(())
            }
            _ => Err(self.error_here(&format!("keyword {}", kw.as_str()))),
        }
    }

    fn take_keyword(&mut self, kw: Keyword) -> bool {
        if matches!(self.peek(), Some(Token::Keyword(k)) if *k == kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_identifier(&mut self, what: &str) -> QueryResult<String> {
        match self.peek() {
            Some(Token::Identifier(_)) => match self.advance() {
                Some(Token::Identifier(s)) => Ok(s),
                _ => unreachable!("peeked an identifier"),
            },
            _ => Err(self.error_here(what)),
        }
    }

    fn expect_number(&mut self, what: &str) -> QueryResult<f64> {
        match self.peek() {
            Some(Token::Number(_)) => match self.advance() {
                Some(Token::Number(n)) => Ok(n),
                _ => unreachable!("peeked a number"),
            },
            _ => Err(self.error_here(what)),
        }
    }

    fn expect_end(&mut self) -> QueryResult<()> {
        if self.pos == self.tokens.len() {
            Ok(())
        } else {
            Err(self.error_here("end of query"))
        }
    }

    fn query(&mut self) -> QueryResult<Query> {
        self.expect_keyword(Keyword::Select)?;

        let top_k = if self.take_keyword(Keyword::Top) {
            let n = self.expect_number("the K of TOP K")?;
            if n < 0.0 || n.fract() != 0.0 || n > u32::MAX as f64 {
                return Err(QueryError::semantic(format!("TOP K requires a non-negative integer K, got {n}")));
            }
            Some(n as u32)
        } else {
            None
        };

        let select = self.select_list()?;
        self.expect_keyword(Keyword::From)?;
        let source = self.expect_identifier("a source table name after FROM")?;

        let mut predicates = Vec::new();
        if self.take_keyword(Keyword::Where) {
            loop {
                predicates.push(self.predicate()?);
                if !self.take_keyword(Keyword::And) {
                    break;
                }
            }
        }

        let mut group_by = None;
        if self.take_keyword(Keyword::Group) {
            self.expect_keyword(Keyword::By)?;
            // `GROUP BY epoch` is how vertically fragmented historic queries are phrased,
            // and `epoch` happens to be a keyword of the EPOCH DURATION clause.
            group_by = Some(if self.take_keyword(Keyword::Epoch) {
                "epoch".to_string()
            } else {
                self.expect_identifier("a grouping column after GROUP BY")?
            });
        }

        let mut epoch_duration = None;
        if self.take_keyword(Keyword::Epoch) {
            self.expect_keyword(Keyword::Duration)?;
            epoch_duration = Some(self.duration("an epoch duration such as `1 min`")?);
        }

        let mut history = None;
        let mut as_of = None;
        if self.take_keyword(Keyword::With) {
            self.expect_keyword(Keyword::History)?;
            history = Some(self.duration("a history window such as `90 epochs`")?);
            // AS OF pins the historic answer to a checkpointed epoch; it only makes
            // sense directly after the window it time-travels (validate() also rejects
            // AS OF without WITH HISTORY on hand-built ASTs).
            if self.take_keyword(Keyword::As) {
                self.expect_keyword(Keyword::Of)?;
                let n = self.expect_number("the epoch of AS OF")?;
                if n < 0.0 || n.fract() != 0.0 {
                    return Err(QueryError::semantic(format!(
                        "AS OF requires a non-negative integer epoch, got {n}"
                    )));
                }
                // `n as u64` saturates at or beyond 2^64 (see `duration` below).
                if n >= u64::MAX as f64 {
                    return Err(QueryError::DurationOverflow {
                        clause: "AS OF".to_string(),
                        duration: format!("{n}"),
                    });
                }
                as_of = Some(n as u64);
            }
        }

        let mut lifetime = None;
        if self.take_keyword(Keyword::Lifetime) {
            lifetime = Some(self.duration("a lifetime such as `1 h`")?);
        }

        Ok(Query {
            select,
            top_k,
            source,
            predicates,
            group_by,
            epoch_duration,
            history,
            as_of,
            lifetime,
        })
    }

    fn select_list(&mut self) -> QueryResult<Vec<SelectItem>> {
        if matches!(self.peek(), Some(Token::Star)) {
            self.advance();
            return Ok(vec![SelectItem::Column("*".into())]);
        }
        let mut items = vec![self.select_item()?];
        while matches!(self.peek(), Some(Token::Comma)) {
            self.advance();
            items.push(self.select_item()?);
        }
        Ok(items)
    }

    fn select_item(&mut self) -> QueryResult<SelectItem> {
        // `epoch` is a keyword but is also a legal column name (GROUP BY epoch is how
        // historic vertically-fragmented queries are phrased), so accept it here.
        let name = if self.take_keyword(Keyword::Epoch) {
            "epoch".to_string()
        } else {
            self.expect_identifier("a column or aggregate in the select list")?
        };
        if matches!(self.peek(), Some(Token::LeftParen)) {
            self.advance();
            let func = AggFunc::from_name(&name).ok_or_else(|| {
                QueryError::semantic(format!("`{name}` is not a supported aggregate function"))
            })?;
            let column = if matches!(self.peek(), Some(Token::Star)) {
                self.advance();
                "*".to_string()
            } else {
                self.expect_identifier("the aggregated column")?
            };
            match self.peek() {
                Some(Token::RightParen) => {
                    self.advance();
                }
                _ => return Err(self.error_here("`)` to close the aggregate")),
            }
            Ok(SelectItem::Aggregate { func, column })
        } else {
            Ok(SelectItem::Column(name))
        }
    }

    fn predicate(&mut self) -> QueryResult<Predicate> {
        let column = self.expect_identifier("a column name in the WHERE clause")?;
        let op = match self.peek() {
            Some(Token::Eq) => CompareOp::Eq,
            Some(Token::Ne) => CompareOp::Ne,
            Some(Token::Lt) => CompareOp::Lt,
            Some(Token::Le) => CompareOp::Le,
            Some(Token::Gt) => CompareOp::Gt,
            Some(Token::Ge) => CompareOp::Ge,
            _ => return Err(self.error_here("a comparison operator")),
        };
        self.advance();
        let value = self.expect_number("a numeric literal to compare against")?;
        Ok(Predicate { column, op, value })
    }

    fn duration(&mut self, what: &str) -> QueryResult<Duration> {
        let amount = self.expect_number(what)?;
        if amount < 0.0 || amount.fract() != 0.0 {
            return Err(QueryError::semantic(format!("durations must be non-negative integers, got {amount}")));
        }
        // `amount as u64` saturates for values at or beyond 2^64 (and `fract()` of
        // such huge floats is 0, so they pass the integer check above); reject them
        // instead of silently clamping the span.
        if amount >= u64::MAX as f64 {
            return Err(QueryError::DurationOverflow {
                clause: "duration literal".to_string(),
                duration: format!("{amount}"),
            });
        }
        // The unit may collide with the EPOCH keyword (`WITH HISTORY 90 epochs`).
        let unit_name = if self.take_keyword(Keyword::Epoch) {
            "epochs".to_string()
        } else {
            self.expect_identifier("a time unit such as `min` or `epochs`")?
        };
        let unit = TimeUnit::from_name(&unit_name)
            .ok_or_else(|| QueryError::semantic(format!("`{unit_name}` is not a recognised time unit")))?;
        Ok(Duration::new(amount as u64, unit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::TimeUnit;

    #[test]
    fn parses_the_papers_snapshot_example() {
        let q = parse("SELECT TOP 1 roomid, AVERAGE(sound) FROM sensors GROUP BY roomid EPOCH DURATION 1 min").unwrap();
        assert_eq!(q.top_k, Some(1));
        assert_eq!(q.group_by.as_deref(), Some("roomid"));
        assert_eq!(q.aggregate(), Some((AggFunc::Avg, "sound")));
        assert_eq!(q.epoch_duration, Some(Duration::new(1, TimeUnit::Minutes)));
        assert!(!q.is_historic());
    }

    #[test]
    fn parses_the_papers_historic_example() {
        let q = parse("SELECT TOP K roomid, AVERAGE(sound) FROM sensors GROUP BY roomid WITH HISTORY 30 epochs".replace('K', "4").as_str()).unwrap();
        assert_eq!(q.top_k, Some(4));
        assert!(q.is_historic());
        assert_eq!(q.history, Some(Duration::new(30, TimeUnit::Epochs)));
    }

    #[test]
    fn parses_as_of_after_the_history_window() {
        let q = parse("SELECT TOP 3 roomid, AVG(sound) FROM sensors GROUP BY roomid WITH HISTORY 8 epochs AS OF 24 LIFETIME 1 h").unwrap();
        assert_eq!(q.as_of, Some(24));
        let spelled = q.to_string();
        assert!(spelled.contains("WITH HISTORY 8 epochs AS OF 24 LIFETIME"), "{spelled}");
        assert_eq!(parse(&spelled).unwrap(), q, "AS OF must round-trip through Display");
    }

    #[test]
    fn as_of_requires_a_history_window_to_travel() {
        // Without WITH HISTORY the AS OF tokens are trailing garbage.
        let err = parse("SELECT TOP 3 roomid, AVG(sound) FROM sensors GROUP BY roomid AS OF 24").unwrap_err();
        assert!(err.to_string().contains("end of query"), "{err}");
    }

    #[test]
    fn rejects_bad_as_of_epochs() {
        let base = "SELECT TOP 3 roomid, AVG(sound) FROM sensors GROUP BY roomid WITH HISTORY 8 epochs AS OF";
        assert!(parse(&format!("{base} -3")).is_err());
        assert!(parse(&format!("{base} 2.5")).is_err());
        assert!(parse(base).is_err());
        assert!(parse(&format!("{base} 24 epochs")).is_err(), "no unit after an AS OF epoch");
        let err = parse(&format!("{base} 20000000000000000000")).unwrap_err();
        assert!(matches!(err, QueryError::DurationOverflow { ref clause, .. } if clause == "AS OF"), "{err:?}");
    }

    #[test]
    fn clause_order_is_fixed_epoch_duration_before_with_history() {
        // The dialect fixes the clause order; WITH HISTORY before EPOCH DURATION is a
        // syntax error (the stray EPOCH DURATION is trailing garbage).
        let err = parse("SELECT TOP 5 epoch, AVG(temperature) FROM sensors GROUP BY epoch WITH HISTORY 3 days EPOCH DURATION 1 h")
            .unwrap_err();
        assert!(err.to_string().contains("end of query"));
    }

    #[test]
    fn parses_group_by_epoch_with_canonical_clause_order() {
        let q = parse("SELECT TOP 5 epoch, AVG(temperature) FROM sensors GROUP BY epoch EPOCH DURATION 1 h WITH HISTORY 3 days").unwrap();
        assert_eq!(q.group_by.as_deref(), Some("epoch"));
        assert_eq!(q.history_epochs(), Some(72));
        assert_eq!(q.select[0], SelectItem::Column("epoch".into()));
    }

    #[test]
    fn parses_where_clause_with_conjunctions() {
        let q = parse("SELECT TOP 2 roomid, MAX(sound) FROM sensors WHERE sound > 10 AND sound <= 95 GROUP BY roomid").unwrap();
        assert_eq!(q.predicates.len(), 2);
        assert!(q.predicates[0].matches(11.0));
        assert!(!q.predicates[0].matches(10.0));
        assert!(q.predicates[1].matches(95.0));
    }

    #[test]
    fn parses_non_top_k_aggregate_query() {
        let q = parse("SELECT roomid, AVG(sound) FROM sensors GROUP BY roomid EPOCH DURATION 30 s").unwrap();
        assert!(!q.is_top_k());
    }

    #[test]
    fn parses_non_aggregate_top_k_query() {
        let q = parse("SELECT TOP 3 nodeid, sound FROM sensors EPOCH DURATION 10 s").unwrap();
        assert!(q.is_top_k());
        assert_eq!(q.aggregate(), None);
        assert_eq!(q.select.len(), 2);
    }

    #[test]
    fn parses_select_star() {
        let q = parse("SELECT * FROM sensors").unwrap();
        assert_eq!(q.select, vec![SelectItem::Column("*".into())]);
    }

    #[test]
    fn parses_count_star() {
        let q = parse("SELECT roomid, COUNT(*) FROM sensors GROUP BY roomid").unwrap();
        assert_eq!(q.aggregate(), Some((AggFunc::Count, "*")));
    }

    #[test]
    fn parses_lifetime_clause() {
        let q = parse("SELECT TOP 1 roomid, AVG(sound) FROM sensors GROUP BY roomid LIFETIME 2 h").unwrap();
        assert_eq!(q.lifetime, Some(Duration::new(2, TimeUnit::Hours)));
    }

    #[test]
    fn rejects_unknown_aggregate() {
        let err = parse("SELECT TOP 1 roomid, MEDIAN(sound) FROM sensors GROUP BY roomid").unwrap_err();
        assert!(err.to_string().contains("median"));
    }

    #[test]
    fn rejects_fractional_or_negative_k() {
        assert!(parse("SELECT TOP 1.5 roomid, AVG(sound) FROM sensors GROUP BY roomid").is_err());
        assert!(parse("SELECT TOP -2 roomid, AVG(sound) FROM sensors GROUP BY roomid").is_err());
    }

    #[test]
    fn rejects_missing_from() {
        let err = parse("SELECT TOP 1 roomid, AVG(sound) GROUP BY roomid").unwrap_err();
        assert!(err.to_string().contains("FROM"));
    }

    #[test]
    fn rejects_trailing_garbage() {
        let err = parse("SELECT * FROM sensors banana").unwrap_err();
        assert!(err.to_string().contains("end of query"));
    }

    #[test]
    fn rejects_duration_literals_beyond_u64() {
        // 2e19 > u64::MAX: the f64 -> u64 cast used to saturate silently.
        let err = parse(
            "SELECT TOP 1 roomid, AVG(sound) FROM sensors GROUP BY roomid \
             WITH HISTORY 20000000000000000000 epochs",
        )
        .unwrap_err();
        assert!(matches!(err, QueryError::DurationOverflow { .. }), "{err:?}");
        // A 400-digit literal parses to f64 infinity; it must be rejected, not cast.
        let huge = format!(
            "SELECT TOP 1 roomid, AVG(sound) FROM sensors GROUP BY roomid LIFETIME 1{} h",
            "0".repeat(400)
        );
        assert!(parse(&huge).is_err());
    }

    #[test]
    fn rejects_unknown_time_unit() {
        let err = parse("SELECT TOP 1 roomid, AVG(sound) FROM sensors GROUP BY roomid EPOCH DURATION 1 fortnight").unwrap_err();
        assert!(err.to_string().contains("fortnight"));
    }

    #[test]
    fn rejects_bad_where_operator() {
        let err = parse("SELECT * FROM sensors WHERE sound LIKE 5").unwrap_err();
        assert!(matches!(err, QueryError::UnexpectedToken { .. }));
    }

    #[test]
    fn error_positions_point_into_the_source() {
        let err = parse_unvalidated("SELECT TOP 1 roomid FROM").unwrap_err();
        assert!(matches!(err, QueryError::UnexpectedEndOfInput { .. }));
    }

    #[test]
    fn unvalidated_parse_accepts_semantically_dubious_queries() {
        // TOP 0 parses but would be rejected by validation.
        let q = parse_unvalidated("SELECT TOP 0 roomid, AVG(sound) FROM sensors GROUP BY roomid").unwrap();
        assert_eq!(q.top_k, Some(0));
        assert!(parse("SELECT TOP 0 roomid, AVG(sound) FROM sensors GROUP BY roomid").is_err());
    }
}
