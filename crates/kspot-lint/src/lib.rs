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
//! | R8 | `unsafe-confinement` | everywhere except `kspot-serve/src/sys.rs` (and the counting allocators of `kspot-algos/tests/alloc_budget.rs` and `kspot-core/tests/soak.rs`) |
//! | R9 | `dead-surface` | `pub` items of non-test `crates/*/src` code, against references in every walked file and in `bench/{src,tests}` |
//!
//! R1–R8 look at one file at a time ([`lint_source`]); R9 looks at the whole walk
//! and runs only in [`lint_workspace`].
//!
//! There is one way to exempt code: a path scope in [`FileContext`] (the RNG
//! module for R4, the audited `unsafe` module, its crate root and the two counting
//! allocators for R8, the test trees). There are no in-source markers; a new
//! exemption is a reviewed edit to `FileContext::from_path`.
//!
//! The crate is fully hermetic — no dependencies, not even the workspace
//! shims — so the checker can never be broken by the code it polices. The
//! binary (`cargo run -p kspot-lint`) walks every workspace `src/`, `tests/`,
//! `examples/` and `benches/` tree (shims excluded, `fixtures/` corpora
//! excluded) and exits non-zero on any finding.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod lex;
mod rules;
mod surface;

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The rule catalogue. Ids start at `R1`; they are printed in findings, so they
/// are never renumbered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
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
    /// R9 — a `pub` item nothing but its own crate's unit tests references.
    DeadSurface,
}

impl Rule {
    /// Short id, `R1`–`R9`, as printed in findings.
    pub fn id(self) -> &'static str {
        match self {
            Rule::NanOrdering => "R1",
            Rule::BareUnwrap => "R2",
            Rule::OrderLeak => "R3",
            Rule::RawRng => "R4",
            Rule::LockDiscipline => "R5",
            Rule::AllocBeforeValidate => "R6",
            Rule::AllowDeprecated => "R7",
            Rule::UnsafeConfinement => "R8",
            Rule::DeadSurface => "R9",
        }
    }

    /// Kebab-case name, as printed in findings.
    pub fn name(self) -> &'static str {
        match self {
            Rule::NanOrdering => "nan-ordering",
            Rule::BareUnwrap => "bare-unwrap",
            Rule::OrderLeak => "order-leak",
            Rule::RawRng => "raw-rng",
            Rule::LockDiscipline => "lock-discipline",
            Rule::AllocBeforeValidate => "alloc-before-validate",
            Rule::AllowDeprecated => "allow-deprecated",
            Rule::UnsafeConfinement => "unsafe-confinement",
            Rule::DeadSurface => "dead-surface",
        }
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
    /// `crates/kspot-algos/tests/alloc_budget.rs` and `crates/kspot-core/tests/soak.rs`:
    /// the counting `GlobalAlloc` of a test binary; out of R8's scope.
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
            "crates/kspot-algos/tests/alloc_budget.rs" | "crates/kspot-core/tests/soak.rs" => {
                UnsafeScope::CountingAllocator
            }
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

/// Lints one file's source text with every per-file rule (R1–R8) in scope for
/// `ctx`. This is the pure core the binary, the fixture tests and the workspace
/// walker all share.
pub fn lint_source(ctx: &FileContext, src: &str) -> Vec<Finding> {
    let (toks, comments) = lex::lex(src);
    let in_test = rules::test_regions(&toks);
    rules::run_all(&rules::Pass {
        ctx,
        toks: &toks,
        comments: &comments,
        in_test: &in_test,
    })
}

/// Whole-workspace lint result.
#[derive(Debug, Default)]
pub struct WorkspaceReport {
    /// All findings, ordered by (file, line, rule).
    pub findings: Vec<Finding>,
    /// How many `.rs` files were linted.
    pub files_scanned: usize,
}

/// Walks the workspace rooted at `root` and lints every project `.rs` file:
/// the root package's `src/`, `tests/`, `examples/` plus each
/// `crates/*/{src,tests,examples,benches}` tree. `shims/` is excluded (those
/// crates imitate third-party APIs — e.g. `rand` must define `seed_from_u64`)
/// and so is any directory named `fixtures` (lint-corpus files violate rules
/// on purpose). `bench/src` and `bench/tests` are read for R9's references but
/// not linted. Directory walks are sorted so output order is deterministic —
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
    let linted = files.len();
    for sub in ["bench/src", "bench/tests"] {
        collect_rs(&root.join(sub), &mut files)?;
    }

    let mut report = WorkspaceReport::default();
    let mut sources = Vec::with_capacity(files.len());
    for (n, file) in files.iter().enumerate() {
        let path = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        let (toks, comments) = lex::lex(&fs::read_to_string(file)?);
        let in_test = rules::test_regions(&toks);
        if n < linted {
            let ctx = FileContext::from_path(&path);
            report.findings.append(&mut rules::run_all(&rules::Pass {
                ctx: &ctx,
                toks: &toks,
                comments: &comments,
                in_test: &in_test,
            }));
            report.files_scanned += 1;
        }
        sources.push(surface::Source {
            path,
            toks,
            in_test,
        });
    }
    report.findings.append(&mut surface::dead_surface(&sources));
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
