//! # kspot-lint — the workspace invariant checker
//!
//! KSpot's value as a reproduction rests on a byte-identity determinism
//! contract (ADR-003/006/007): every session's answers and attributed ledgers
//! must be bit-exact shared-vs-solo, across fleet shards, pool sizes and the
//! wire. That contract has been broken twice by recurring *bug classes* —
//! NaN-inconsistent comparators (PR 3) and panics/allocations on untrusted
//! input (PR 7). Tests catch instances; this crate catches the classes, as
//! named deny-by-default rules over a hand-rolled token stream:
//!
//! | id | name | scope |
//! |----|------|-------|
//! | R1 | `nan-ordering` | everywhere |
//! | R2 | `bare-unwrap` | non-test library code |
//! | R3 | `order-leak` | deterministic paths (net/core/algos/bench/store `src/`); host byte order at the byte boundaries (`kspot-store/src/`, `kspot-serve/src/`, the codec both read through, `kspot-net/src/codec.rs`) |
//! | R4 | `raw-rng` | everywhere except `kspot-net/src/rng.rs` |
//! | R5 | `lock-discipline` | non-test library code |
//! | R6 | `alloc-before-validate` | untrusted decoders (`kspot-serve/src/`, `kspot-store/src/`) and their codec (`kspot-net/src/codec.rs`) |
//! | R7 | `allow-deprecated` | everywhere |
//! | R8 | `unsafe-confinement` | everywhere except `kspot-serve/src/sys.rs` (and the counting allocator of `kspot-algos/tests/alloc_budget.rs`) |
//!
//! Suppression is explicit and audited: `// lint: allow(<rule>, <reason>)`
//! silences a finding on the marker's line or the line below;
//! `// lint: lock-order(<why>)` does the same for R5 specifically. A marker
//! without a reason, naming an unknown rule, or suppressing nothing is itself
//! a finding (R0 `suppression`), so the audit trail can never silently rot.
//!
//! The crate is fully hermetic — no dependencies, not even the workspace
//! shims — so the checker can never be broken by the code it polices. The
//! binary (`cargo run -p kspot-lint`) walks every workspace `src/`, `tests/`,
//! `examples/` and `benches/` tree (shims excluded, `fixtures/` corpora
//! excluded) and exits non-zero on any unsuppressed finding.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod lex;
mod rules;

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The rule catalogue. `R0` is the meta-rule: defects in suppression markers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// R0 — a `// lint:` marker that is malformed, reason-less or stale.
    Suppression,
    /// R1 — `partial_cmp`-based float ordering (NaN-inconsistent comparators).
    NanOrdering,
    /// R2 — bare `.unwrap()` / empty `.expect("")` in library code.
    BareUnwrap,
    /// R3 — wall-clock or hash-ordered collections in deterministic paths, host byte
    /// order at a byte boundary.
    OrderLeak,
    /// R4 — RNG construction outside the approved seed-derivation module.
    RawRng,
    /// R5 — second lock taken while a guard is live (ADR-006 order rule).
    LockDiscipline,
    /// R6 — allocation sized by an unvalidated decoded length.
    AllocBeforeValidate,
    /// R7 — an `allow(deprecated)` attribute keeping a retired API callable.
    AllowDeprecated,
    /// R8 — `unsafe` outside the one audited module, or a crate root that stopped
    /// forbidding it (ADR-011).
    UnsafeConfinement,
}

impl Rule {
    /// Short id, `R0`–`R8`, as printed in findings and accepted by `allow()`.
    pub fn id(self) -> &'static str {
        match self {
            Rule::Suppression => "R0",
            Rule::NanOrdering => "R1",
            Rule::BareUnwrap => "R2",
            Rule::OrderLeak => "R3",
            Rule::RawRng => "R4",
            Rule::LockDiscipline => "R5",
            Rule::AllocBeforeValidate => "R6",
            Rule::AllowDeprecated => "R7",
            Rule::UnsafeConfinement => "R8",
        }
    }

    /// Kebab-case name, as printed in findings and accepted by `allow()`.
    pub fn name(self) -> &'static str {
        match self {
            Rule::Suppression => "suppression",
            Rule::NanOrdering => "nan-ordering",
            Rule::BareUnwrap => "bare-unwrap",
            Rule::OrderLeak => "order-leak",
            Rule::RawRng => "raw-rng",
            Rule::LockDiscipline => "lock-discipline",
            Rule::AllocBeforeValidate => "alloc-before-validate",
            Rule::AllowDeprecated => "allow-deprecated",
            Rule::UnsafeConfinement => "unsafe-confinement",
        }
    }

    /// Parses a rule reference from an `allow()` marker: `R1`/`r1` or
    /// `nan-ordering`. R0 is deliberately not parseable — marker-hygiene
    /// findings cannot be suppressed by another marker.
    pub fn parse(s: &str) -> Option<Rule> {
        let s = s.trim().to_ascii_lowercase();
        const SUPPRESSIBLE: [Rule; 8] = [
            Rule::NanOrdering,
            Rule::BareUnwrap,
            Rule::OrderLeak,
            Rule::RawRng,
            Rule::LockDiscipline,
            Rule::AllocBeforeValidate,
            Rule::AllowDeprecated,
            Rule::UnsafeConfinement,
        ];
        SUPPRESSIBLE
            .into_iter()
            .find(|r| s == r.id().to_ascii_lowercase() || s == r.name())
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.id(), self.name())
    }
}

/// One finding: a rule violation pinned to a file and line, with a fix hint.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative path (`crates/kspot-net/src/types.rs`).
    pub file: String,
    /// 1-based line of the violating token.
    pub line: u32,
    /// Which rule fired.
    pub rule: Rule,
    /// What is wrong.
    pub message: String,
    /// How to fix it.
    pub hint: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}\n    hint: {}",
            self.file, self.line, self.rule, self.message, self.hint
        )
    }
}

/// A suppression that actually silenced at least one finding — the audit
/// trail the binary prints alongside the verdict.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// Workspace-relative path of the marker.
    pub file: String,
    /// 1-based line of the marker comment.
    pub line: u32,
    /// The rule it silenced.
    pub rule: Rule,
    /// The stated reason.
    pub reason: String,
}

/// Where a file sits in the workspace, which decides the rule scopes.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// Workspace-relative, `/`-separated path used in findings.
    pub path: String,
    /// `tests/`, `benches/`, `examples/` trees: R2/R3/R5/R6 do not apply.
    pub test_code: bool,
    /// Deterministic paths — the engine (net/core/algos `src/`), the experiment
    /// tables printed from it (kspot-bench `src/`, ADR-012) and the bytes it stores
    /// (kspot-store `src/`, ADR-013): R3 applies.
    pub deterministic: bool,
    /// Untrusted-input decoders — wire frames (kspot-serve `src/`), on-disk
    /// checkpoint images (kspot-store `src/`, ADR-008/009) and the byte codec both
    /// read through (`kspot-net/src/codec.rs`): R6 applies, and R3's host-byte-order
    /// check.
    pub untrusted_decode: bool,
    /// The one module allowed to construct RNGs (R4 exemption).
    pub rng_module: bool,
    /// Where R8 lets the `unsafe` keyword and `allow(unsafe_code)` appear.
    pub unsafe_scope: UnsafeScope,
    /// A library crate root (`src/lib.rs`): R8 demands its crate-level
    /// `unsafe_code` attribute.
    pub crate_root: bool,
}

/// What R8 permits in a file (ADR-011).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnsafeScope {
    /// Everywhere else: no `unsafe`, no `allow(unsafe_code)`.
    Forbidden,
    /// `crates/kspot-serve/src/sys.rs`: `unsafe` blocks, each behind a `// SAFETY:`
    /// comment.
    Module,
    /// `crates/kspot-serve/src/lib.rs`: `#![deny(unsafe_code)]` at the root and one
    /// `#[allow(unsafe_code)]`, on `mod sys;`.
    ModuleParent,
    /// `crates/kspot-algos/tests/alloc_budget.rs`: the counting `GlobalAlloc` of
    /// one test binary; out of R8's scope.
    CountingAllocator,
}

impl FileContext {
    /// Classifies a workspace-relative path into rule scopes.
    pub fn from_path(rel: &str) -> FileContext {
        let p = rel.replace('\\', "/");
        let test_code = p.starts_with("tests/")
            || p.contains("/tests/")
            || p.contains("/benches/")
            || p.starts_with("examples/")
            || p.contains("/examples/");
        let deterministic = [
            "crates/kspot-net/src/",
            "crates/kspot-core/src/",
            "crates/kspot-algos/src/",
            "crates/kspot-bench/src/",
            "crates/kspot-store/src/",
        ]
        .iter()
        .any(|pre| p.starts_with(pre));
        let untrusted_decode = p.starts_with("crates/kspot-serve/src/")
            || p.starts_with("crates/kspot-store/src/")
            || p == "crates/kspot-net/src/codec.rs";
        let rng_module = p == "crates/kspot-net/src/rng.rs";
        let unsafe_scope = match p.as_str() {
            "crates/kspot-serve/src/sys.rs" => UnsafeScope::Module,
            "crates/kspot-serve/src/lib.rs" => UnsafeScope::ModuleParent,
            "crates/kspot-algos/tests/alloc_budget.rs" => UnsafeScope::CountingAllocator,
            _ => UnsafeScope::Forbidden,
        };
        let crate_root = p == "src/lib.rs"
            || p.strip_prefix("crates/")
                .and_then(|rest| rest.split_once('/'))
                .is_some_and(|(_, file)| file == "src/lib.rs");
        FileContext {
            path: p,
            test_code,
            deterministic,
            untrusted_decode,
            rng_module,
            unsafe_scope,
            crate_root,
        }
    }
}

/// Per-file lint result: surviving findings plus the suppressions applied.
#[derive(Debug, Clone, Default)]
pub struct FileReport {
    /// Findings that survived suppression (including R0 marker hygiene).
    pub findings: Vec<Finding>,
    /// Markers that silenced at least one finding.
    pub suppressions: Vec<Suppression>,
}

/// One parsed `// lint:` control marker.
#[derive(Debug)]
enum Marker {
    /// `allow(<rule>, <reason>)`.
    Allow {
        line: u32,
        rule: Option<Rule>,
        raw_rule: String,
        reason: String,
    },
    /// `lock-order(<why>)` — R5-specific suppression.
    LockOrder { line: u32, reason: String },
    /// Anything else starting with `lint:`.
    Malformed { line: u32, text: String },
}

fn parse_markers(comments: &[lex::Comment]) -> Vec<Marker> {
    let mut out = Vec::new();
    for c in comments {
        let Some(rest) = c.text.strip_prefix("lint:") else {
            continue;
        };
        let d = rest.trim();
        if let Some(inner) = strip_call(d, "allow") {
            let (raw_rule, reason) = match inner.split_once(',') {
                Some((r, why)) => (r.trim().to_string(), why.trim().to_string()),
                None => (inner.trim().to_string(), String::new()),
            };
            out.push(Marker::Allow {
                line: c.line,
                rule: Rule::parse(&raw_rule),
                raw_rule,
                reason,
            });
        } else if let Some(inner) = strip_call(d, "lock-order") {
            out.push(Marker::LockOrder {
                line: c.line,
                reason: inner.trim().to_string(),
            });
        } else {
            out.push(Marker::Malformed {
                line: c.line,
                text: d.to_string(),
            });
        }
    }
    out
}

/// `allow(x, y)` with directive name `allow` → `Some("x, y")`. The marker
/// must be the entire comment — trailing prose makes it malformed on purpose.
fn strip_call<'a>(d: &'a str, name: &str) -> Option<&'a str> {
    d.strip_prefix(name)?
        .trim_start()
        .strip_prefix('(')?
        .strip_suffix(')')
}

/// Lints one file's source text: runs every rule, then applies suppression
/// markers and marker-hygiene checks. This is the pure core the binary, the
/// fixture tests and the workspace walker all share.
pub fn lint_file(ctx: &FileContext, src: &str) -> FileReport {
    let (toks, comments) = lex::lex(src);
    let in_test = rules::test_regions(&toks);
    let pass = rules::Pass {
        ctx,
        toks: &toks,
        comments: &comments,
        in_test: &in_test,
    };
    let mut findings = rules::run_all(&pass);
    let markers = parse_markers(&comments);
    let mut suppressions = Vec::new();

    // A marker on its own line covers the next line; a trailing marker covers
    // its own line.
    let covers = |marker_line: u32, f: &Finding| f.line == marker_line || f.line == marker_line + 1;

    for m in &markers {
        match m {
            Marker::Allow {
                line,
                rule: Some(rule),
                reason,
                ..
            } if !reason.is_empty() => {
                let before = findings.len();
                for f in findings.iter().filter(|f| f.rule == *rule && covers(*line, f)) {
                    suppressions.push(Suppression {
                        file: ctx.path.clone(),
                        line: *line,
                        rule: f.rule,
                        reason: reason.clone(),
                    });
                }
                findings.retain(|f| !(f.rule == *rule && covers(*line, f)));
                if before == findings.len() {
                    findings.push(hygiene(
                        ctx,
                        *line,
                        "allow marker suppresses nothing — stale markers must be removed",
                        "delete the marker, or re-point it at the violating line",
                    ));
                }
            }
            Marker::Allow {
                line,
                rule: None,
                raw_rule,
                ..
            } => {
                findings.push(hygiene(
                    ctx,
                    *line,
                    &format!("allow marker names unknown rule `{raw_rule}`"),
                    "use R1-R8 or a rule name like `nan-ordering`; R0 cannot be suppressed",
                ));
            }
            Marker::Allow { line, .. } => {
                findings.push(hygiene(
                    ctx,
                    *line,
                    "suppression without a reason — the audit trail requires one",
                    "write `// lint: allow(<rule>, <why this site is safe>)`",
                ));
            }
            Marker::LockOrder { line, reason } if !reason.is_empty() => {
                // Unlike allow(), an unused lock-order marker is not a
                // finding: the documented acquisition may be conditional.
                for f in findings
                    .iter()
                    .filter(|f| f.rule == Rule::LockDiscipline && covers(*line, f))
                {
                    suppressions.push(Suppression {
                        file: ctx.path.clone(),
                        line: *line,
                        rule: f.rule,
                        reason: reason.clone(),
                    });
                }
                findings.retain(|f| !(f.rule == Rule::LockDiscipline && covers(*line, f)));
            }
            Marker::LockOrder { line, .. } => {
                findings.push(hygiene(
                    ctx,
                    *line,
                    "lock-order marker without a reason — the audit trail requires one",
                    "write `// lint: lock-order(<why this acquisition order is safe>)`",
                ));
            }
            Marker::Malformed { line, text } => {
                findings.push(hygiene(
                    ctx,
                    *line,
                    &format!("unparseable lint control marker `lint: {text}`"),
                    "only `lint: allow(<rule>, <reason>)` and `lint: lock-order(<why>)` exist",
                ));
            }
        }
    }
    findings.sort_by_key(|f| (f.line, f.rule));
    FileReport {
        findings,
        suppressions,
    }
}

fn hygiene(ctx: &FileContext, line: u32, message: &str, hint: &str) -> Finding {
    Finding {
        file: ctx.path.clone(),
        line,
        rule: Rule::Suppression,
        message: message.to_string(),
        hint: hint.to_string(),
    }
}

/// Convenience wrapper for tests: findings only.
pub fn lint_source(ctx: &FileContext, src: &str) -> Vec<Finding> {
    lint_file(ctx, src).findings
}

/// Whole-workspace lint result.
#[derive(Debug, Default)]
pub struct WorkspaceReport {
    /// All surviving findings, ordered by (file, line, rule).
    pub findings: Vec<Finding>,
    /// The full suppression audit trail.
    pub suppressions: Vec<Suppression>,
    /// How many `.rs` files were scanned.
    pub files_scanned: usize,
}

/// Walks the workspace rooted at `root` and lints every project `.rs` file:
/// the root package's `src/`, `tests/`, `examples/` plus each
/// `crates/*/{src,tests,examples,benches}` tree. `shims/` is excluded (those
/// crates imitate third-party APIs — e.g. `rand` must define `seed_from_u64`)
/// and so is any directory named `fixtures` (lint-corpus files violate rules
/// on purpose). Directory walks are sorted so output order is deterministic —
/// the linter holds itself to R3.
pub fn lint_workspace(root: &Path) -> io::Result<WorkspaceReport> {
    let mut files: Vec<PathBuf> = Vec::new();
    for sub in ["src", "tests", "examples"] {
        collect_rs(&root.join(sub), &mut files)?;
    }
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut krates: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        krates.sort();
        for krate in krates {
            for sub in ["src", "tests", "examples", "benches"] {
                collect_rs(&krate.join(sub), &mut files)?;
            }
        }
    }
    files.sort();

    let mut report = WorkspaceReport::default();
    for file in files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let ctx = FileContext::from_path(&rel);
        let src = fs::read_to_string(&file)?;
        let mut fr = lint_file(&ctx, &src);
        report.findings.append(&mut fr.findings);
        report.suppressions.append(&mut fr.suppressions);
        report.files_scanned += 1;
    }
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            if p.file_name().is_some_and(|n| n == "fixtures") {
                continue;
            }
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
    Ok(())
}
