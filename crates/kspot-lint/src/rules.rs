//! The eight per-file invariant rules (R1–R8), each a small pass over one file's
//! token stream. R9, the workspace rule, lives in `surface.rs`.
//!
//! Every rule is deny-by-default inside its scope (see
//! [`crate::FileContext`]); the only exemptions are that type's path scopes,
//! never rule-internal special cases or in-source markers. Rationale for each
//! rule lives in `docs/adr/ADR-008-kspot-lint-invariant-checker.md`.

use crate::lex::{Comment, TokKind, Token};
use crate::{FileContext, Finding, Rule, UnsafeScope};
use std::collections::BTreeSet;
use std::ops::Range;

/// Shared per-file inputs handed to every rule.
pub(crate) struct Pass<'a> {
    pub(crate) ctx: &'a FileContext,
    pub(crate) toks: &'a [Token],
    pub(crate) comments: &'a [Comment],
    pub(crate) in_test: &'a [bool],
}

impl Pass<'_> {
    fn finding(&self, rule: Rule, line: u32, message: &str, hint: &str) -> Finding {
        Finding {
            file: self.ctx.path.clone(),
            line,
            rule,
            message: message.to_string(),
            hint: hint.to_string(),
        }
    }

    fn ident(&self, i: usize) -> Option<&str> {
        match self.toks.get(i).map(|t| &t.kind) {
            Some(TokKind::Ident(s)) => Some(s.as_str()),
            _ => None,
        }
    }

    fn punct(&self, i: usize, c: char) -> bool {
        matches!(self.toks.get(i).map(|t| &t.kind), Some(TokKind::Punct(p)) if *p == c)
    }

    fn line(&self, i: usize) -> u32 {
        self.toks.get(i).map(|t| t.line).unwrap_or(0)
    }
}

/// Runs every rule over one file; findings in rule order, unsorted.
pub(crate) fn run_all(p: &Pass<'_>) -> Vec<Finding> {
    let mut out = Vec::new();
    nan_ordering(p, &mut out);
    bare_unwrap(p, &mut out);
    order_leak(p, &mut out);
    raw_rng(p, &mut out);
    lock_discipline(p, &mut out);
    alloc_before_validate(p, &mut out);
    allow_deprecated(p, &mut out);
    unsafe_confinement(p, &mut out);
    out.sort_by_key(|f| (f.line, f.rule));
    out.dedup_by(|a, b| a.line == b.line && a.rule == b.rule && a.message == b.message);
    out
}

/// Marks the token ranges covered by `#[test]` / `#[cfg(test)]` items, so
/// library-code rules (R2/R3/R5/R6) skip inline test modules.
pub(crate) fn test_regions(toks: &[Token]) -> Vec<bool> {
    let mut in_test = vec![false; toks.len()];
    let punct = |i: usize, c: char| {
        matches!(toks.get(i).map(|t| &t.kind), Some(TokKind::Punct(p)) if *p == c)
    };
    let mut i = 0usize;
    while i < toks.len() {
        if !(punct(i, '#') && punct(i + 1, '[')) {
            i += 1;
            continue;
        }
        // Collect the attribute's identifiers up to the matching `]`.
        let mut j = i + 2;
        let mut depth = 1u32;
        let mut attr: Vec<&str> = Vec::new();
        while j < toks.len() && depth > 0 {
            match &toks[j].kind {
                TokKind::Punct('[') => depth += 1,
                TokKind::Punct(']') => depth -= 1,
                TokKind::Ident(s) => attr.push(s.as_str()),
                _ => {}
            }
            j += 1;
        }
        let is_test_attr = match attr.first() {
            Some(&"test") => true,
            // `#[cfg(test)]`, `#[cfg(all(test, ...))]` — but not `#[cfg(not(test))]`.
            Some(&"cfg") => attr.contains(&"test") && !attr.contains(&"not"),
            _ => false,
        };
        if !is_test_attr {
            i = j;
            continue;
        }
        // Skip any further attributes stacked on the same item.
        let mut k = j;
        while punct(k, '#') && punct(k + 1, '[') {
            let mut d = 1u32;
            k += 2;
            while k < toks.len() && d > 0 {
                match toks[k].kind {
                    TokKind::Punct('[') => d += 1,
                    TokKind::Punct(']') => d -= 1,
                    _ => {}
                }
                k += 1;
            }
        }
        // The item either ends at a `;` (no body) or spans its brace block.
        let mut end = k;
        while end < toks.len() {
            match toks[end].kind {
                TokKind::Punct(';') => break,
                TokKind::Punct('{') => {
                    let mut d = 1u32;
                    end += 1;
                    while end < toks.len() && d > 0 {
                        match toks[end].kind {
                            TokKind::Punct('{') => d += 1,
                            TokKind::Punct('}') => d -= 1,
                            _ => {}
                        }
                        end += 1;
                    }
                    end = end.saturating_sub(1); // index of the closing `}`
                    break;
                }
                _ => end += 1,
            }
        }
        let upto = (end + 1).min(toks.len());
        for flag in in_test.iter_mut().take(upto).skip(i) {
            *flag = true;
        }
        i = upto.max(i + 1);
    }
    in_test
}

/// R1: any `partial_cmp` identifier. Fires everywhere, tests included — a
/// NaN-inconsistent comparator in a test is a flake waiting to happen.
fn nan_ordering(p: &Pass<'_>, out: &mut Vec<Finding>) {
    for t in p.toks {
        if matches!(&t.kind, TokKind::Ident(s) if s == "partial_cmp") {
            out.push(p.finding(
                Rule::NanOrdering,
                t.line,
                "`partial_cmp`-based float ordering — the NaN-inconsistent comparator class fixed in PR 3",
                "use `f64::total_cmp` or the approved wrapper `kspot_net::types::cmp_value`",
            ));
        }
    }
}

/// R2: bare `.unwrap()` / empty `.expect("")` in non-test library code.
fn bare_unwrap(p: &Pass<'_>, out: &mut Vec<Finding>) {
    if p.ctx.test_code {
        return;
    }
    for i in 0..p.toks.len() {
        if p.in_test[i] || !p.punct(i, '.') {
            continue;
        }
        if p.ident(i + 1) == Some("unwrap") && p.punct(i + 2, '(') && p.punct(i + 3, ')') {
            out.push(p.finding(
                Rule::BareUnwrap,
                p.line(i + 1),
                "bare `.unwrap()` in library code — panics without stating the violated invariant",
                "write `.expect(\"<why this cannot fail>\")` naming the invariant, or return a typed error",
            ));
        }
        if p.ident(i + 1) == Some("expect") && p.punct(i + 2, '(') {
            if let Some(TokKind::Str(s)) = p.toks.get(i + 3).map(|t| &t.kind) {
                if s.trim().is_empty() && p.punct(i + 4, ')') {
                    out.push(p.finding(
                        Rule::BareUnwrap,
                        p.line(i + 1),
                        "`.expect(\"\")` with an empty message — as uninformative as a bare unwrap",
                        "name the invariant in the expect message, or return a typed error",
                    ));
                }
            }
        }
    }
}

/// R3: wall-clock reads and hash-ordered collections in deterministic
/// engine/net/algos/store paths and the tables printed from them (order-leak +
/// replay hazards), and host-order integer conversions at the two byte
/// boundaries — stored images and wire frames are read on other hosts.
fn order_leak(p: &Pass<'_>, out: &mut Vec<Finding>) {
    if !(p.ctx.deterministic || p.ctx.untrusted_decode) || p.ctx.test_code {
        return;
    }
    for (i, t) in p.toks.iter().enumerate() {
        if p.in_test[i] {
            continue;
        }
        match &t.kind {
            TokKind::Ident(s) if p.ctx.deterministic && (s == "Instant" || s == "SystemTime") => {
                out.push(p.finding(
                    Rule::OrderLeak,
                    t.line,
                    "wall-clock time in a deterministic path — replay and shared-vs-solo byte-identity break",
                    "deterministic code advances by epoch counters only; measure time in kspot-serve or bench/",
                ));
            }
            TokKind::Ident(s) if p.ctx.deterministic && (s == "HashMap" || s == "HashSet") => {
                out.push(p.finding(
                    Rule::OrderLeak,
                    t.line,
                    "hash-ordered collection in a deterministic path — iteration order leaks into answers/ledgers",
                    "use BTreeMap/BTreeSet, or collect and sort with a total order before draining",
                ));
            }
            TokKind::Ident(s) if p.ctx.untrusted_decode && (s == "from_ne_bytes" || s == "to_ne_bytes") => {
                out.push(p.finding(
                    Rule::OrderLeak,
                    t.line,
                    "host byte order at a byte boundary — the stored or sent bytes differ between hosts",
                    "state the order: `from_be_bytes`/`to_be_bytes` for fields, `from_le_bytes` for the seal's words (ADR-013)",
                ));
            }
            _ => {}
        }
    }
}

/// R4: RNG construction outside the approved seed-derivation module.
fn raw_rng(p: &Pass<'_>, out: &mut Vec<Finding>) {
    if p.ctx.rng_module {
        return;
    }
    const CONSTRUCTORS: [&str; 5] = [
        "seed_from_u64",
        "from_entropy",
        "thread_rng",
        "from_seed",
        "from_rng",
    ];
    for t in p.toks {
        if matches!(&t.kind, TokKind::Ident(s) if CONSTRUCTORS.contains(&s.as_str())) {
            out.push(p.finding(
                Rule::RawRng,
                t.line,
                "direct RNG construction bypasses the workspace seed convention (one master seed, split streams)",
                "derive via `kspot_net::rng::{topology_seed, workload_seed, substrate_seed, shard_seed}` or `stream_rng`",
            ));
        }
    }
}

/// A lock guard believed live at some point in the scan.
struct Guard {
    /// Brace depth the guard is pinned to; it dies when depth drops below.
    depth: u32,
    /// Binding name, if the acquiring statement was a `let`.
    name: Option<String>,
    /// `let`-bound guards survive to end of block; temporaries die at `;`.
    let_bound: bool,
}

/// R5: a second lock acquired while another guard is live (the ADR-006
/// ascending-deployment discipline). Heuristic single-function tracking:
/// `let`-bound guards live to end of enclosing block or `drop(name)`;
/// expression temporaries die at the end of their statement.
fn lock_discipline(p: &Pass<'_>, out: &mut Vec<Finding>) {
    if p.ctx.test_code {
        return;
    }
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0u32;
    // Some((depth, binding)) while scanning a `let` statement.
    let mut current_let: Option<(u32, Option<String>)> = None;
    let mut stmt_start = true;
    let mut i = 0usize;
    while i < p.toks.len() {
        if p.in_test[i] {
            i += 1;
            continue;
        }
        match &p.toks[i].kind {
            TokKind::Punct('{') => {
                depth += 1;
                stmt_start = true;
                current_let = None;
            }
            TokKind::Punct('}') => {
                depth = depth.saturating_sub(1);
                guards.retain(|g| g.depth <= depth);
                stmt_start = true;
                current_let = None;
            }
            TokKind::Punct(';') => {
                guards.retain(|g| g.let_bound || g.depth < depth);
                stmt_start = true;
                current_let = None;
            }
            TokKind::Ident(s) if s == "let" && stmt_start => {
                // First identifier after `let` that is not `mut` names the binding
                // (good enough for tuple patterns: the first element).
                let mut j = i + 1;
                let mut name = None;
                while let Some(id) = p.ident(j) {
                    if id != "mut" {
                        name = Some(id.to_string());
                        break;
                    }
                    j += 1;
                }
                current_let = Some((depth, name));
                stmt_start = false;
            }
            TokKind::Ident(s) if s == "drop" && p.punct(i + 1, '(') => {
                // Kill any named guard mentioned in the drop call's arguments.
                let mut j = i + 2;
                let mut d = 1u32;
                let mut dropped: Vec<String> = Vec::new();
                while j < p.toks.len() && d > 0 {
                    match &p.toks[j].kind {
                        TokKind::Punct('(') => d += 1,
                        TokKind::Punct(')') => d -= 1,
                        TokKind::Ident(id) => dropped.push(id.clone()),
                        _ => {}
                    }
                    j += 1;
                }
                guards.retain(|g| !matches!(&g.name, Some(n) if dropped.contains(n)));
                stmt_start = false;
                i = j;
                continue;
            }
            TokKind::Ident(_) | TokKind::Str(_) | TokKind::Num(_) | TokKind::Punct(_) => {
                if let Some((line, next)) = acquisition_at(p, i) {
                    if !guards.is_empty() {
                        out.push(p.finding(
                            Rule::LockDiscipline,
                            line,
                            "second lock acquired while another guard is live — ADR-006 requires ascending deployment order",
                            "drop the first guard before taking the second, so one guard is live at a time",
                        ));
                    }
                    let guard = match &current_let {
                        Some((ld, name)) if *ld == depth => Guard {
                            depth: *ld,
                            name: name.clone(),
                            let_bound: true,
                        },
                        _ => Guard {
                            depth,
                            name: None,
                            let_bound: false,
                        },
                    };
                    guards.push(guard);
                    i = next;
                    continue;
                }
                stmt_start = false;
            }
        }
        i += 1;
    }
}

/// Recognises a lock acquisition at token `i`: the `.lock(` / `.try_lock(`
/// method calls and the engine's `lock_core(` / `try_lock_core(` helpers
/// (call position only — `fn` definitions and fn-pointer uses don't count).
/// Returns (line, index after the method name).
fn acquisition_at(p: &Pass<'_>, i: usize) -> Option<(u32, usize)> {
    let id = p.ident(i)?;
    let called = p.punct(i + 1, '(');
    let method = p.punct(i.wrapping_sub(1), '.');
    let defined = i > 0 && p.ident(i - 1) == Some("fn");
    match id {
        "lock" | "try_lock" if method && called => Some((p.line(i), i + 1)),
        "lock_core" | "try_lock_core" if called && !method && !defined => Some((p.line(i), i + 1)),
        _ => None,
    }
}

/// R6: `with_capacity(..)` / `vec![..; n]` sized by a decoded value that was
/// never validated against the remaining input (the PR-7 trust boundary).
/// Dataflow heuristic per function: `let n = ... count( ... );` marks `n`
/// validated; allocation arguments must be literals, `.len()`-derived, or
/// validated identifiers.
fn alloc_before_validate(p: &Pass<'_>, out: &mut Vec<Finding>) {
    if !p.ctx.untrusted_decode || p.ctx.test_code {
        return;
    }
    let mut validated: BTreeSet<String> = BTreeSet::new();
    let mut i = 0usize;
    while i < p.toks.len() {
        if p.in_test[i] {
            i += 1;
            continue;
        }
        match p.ident(i) {
            Some("fn") => validated.clear(),
            Some("let") => {
                // `let [mut] name = <expr>;` — if the initialiser calls
                // `count(` or `len(`, the binding is a validated length.
                let mut j = i + 1;
                let mut name = None;
                while let Some(id) = p.ident(j) {
                    if id != "mut" {
                        name = Some(id.to_string());
                        break;
                    }
                    j += 1;
                }
                if let Some(name) = name {
                    let mut k = j + 1;
                    let mut checked = false;
                    while k < p.toks.len() && !p.punct(k, ';') && !p.punct(k, '{') {
                        if matches!(p.ident(k), Some("count") | Some("len") | Some("min"))
                            && p.punct(k + 1, '(')
                        {
                            checked = true;
                        }
                        k += 1;
                    }
                    if checked {
                        validated.insert(name);
                    }
                }
            }
            Some("with_capacity") if p.punct(i + 1, '(') => {
                let (arg, next) = balanced_args(p, i + 2, '(', ')');
                check_alloc_arg(p, p.line(i), &arg, &validated, out);
                i = next;
                continue;
            }
            Some("vec") if p.punct(i + 1, '!') => {
                let (open, close) = match p.toks.get(i + 2).map(|t| &t.kind) {
                    Some(TokKind::Punct('[')) => ('[', ']'),
                    Some(TokKind::Punct('(')) => ('(', ')'),
                    Some(TokKind::Punct('{')) => ('{', '}'),
                    _ => {
                        i += 1;
                        continue;
                    }
                };
                let (body, next) = balanced_args(p, i + 3, open, close);
                // Only the repeat form `vec![elem; n]` sizes an allocation by
                // an expression; the list form is as long as its literals.
                if let Some(semi) = body.iter().position(|t| t.kind == TokKind::Punct(';')) {
                    check_alloc_arg(p, p.line(i), &body[semi + 1..], &validated, out);
                }
                i = next;
                continue;
            }
            _ => {}
        }
        i += 1;
    }
}

/// Collects tokens from `start` up to the close matching an already-open
/// `open` delimiter; returns (argument tokens, index past the close).
fn balanced_args<'a>(p: &Pass<'a>, start: usize, open: char, close: char) -> (Vec<Token>, usize) {
    let mut d = 1u32;
    let mut j = start;
    let mut arg = Vec::new();
    while j < p.toks.len() && d > 0 {
        match &p.toks[j].kind {
            TokKind::Punct(c) if *c == open => d += 1,
            TokKind::Punct(c) if *c == close => d -= 1,
            _ => {}
        }
        if d > 0 {
            arg.push(p.toks[j].clone());
        }
        j += 1;
    }
    (arg, j)
}

/// Classifies one allocation-size expression; pushes an R6 finding if it
/// depends on an identifier that is neither validated nor benign.
fn check_alloc_arg(
    p: &Pass<'_>,
    line: u32,
    arg: &[Token],
    validated: &BTreeSet<String>,
    out: &mut Vec<Finding>,
) {
    // Casts, primitive types and saturating/bounding combinators carry no
    // taint of their own; `len`/`count`/`capacity` mean the size is derived
    // from data we actually hold or from the validating helper itself.
    const BENIGN: [&str; 16] = [
        "as", "usize", "u8", "u16", "u32", "u64", "i32", "i64", "f32", "f64", "min", "max",
        "saturating_mul", "saturating_add", "self", "capacity",
    ];
    let mut suspect = false;
    for t in arg {
        if let TokKind::Ident(s) = &t.kind {
            if s == "len" || s == "count" {
                return; // size bounded by held data / the validation helper
            }
            if !BENIGN.contains(&s.as_str()) && !validated.contains(s) {
                suspect = true;
            }
        }
    }
    if suspect {
        out.push(p.finding(
            Rule::AllocBeforeValidate,
            line,
            "allocation sized by a decoded value that was never validated against the remaining input",
            "bound the count first (e.g. `Cursor::count(declared, elem_bytes)`), then allocate",
        ));
    }
}

/// One `#[..]` or `#![..]` attribute.
struct Attribute {
    /// `#![..]`: applies to the enclosing item (the crate, at a root).
    inner: bool,
    /// Token indices between the brackets.
    body: Range<usize>,
}

impl Attribute {
    /// Whether `name` appears as an identifier inside the attribute.
    fn names(&self, p: &Pass<'_>, name: &str) -> bool {
        self.body.clone().any(|i| p.ident(i) == Some(name))
    }
}

/// Every attribute of the file, in order.
fn attributes(p: &Pass<'_>) -> Vec<Attribute> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < p.toks.len() {
        let bang = usize::from(p.punct(i + 1, '!'));
        if !(p.punct(i, '#') && p.punct(i + 1 + bang, '[')) {
            i += 1;
            continue;
        }
        let start = i + 2 + bang;
        let (mut end, mut depth) = (start, 1u32);
        while end < p.toks.len() {
            match &p.toks[end].kind {
                TokKind::Punct('[') => depth += 1,
                TokKind::Punct(']') => depth -= 1,
                _ => {}
            }
            if depth == 0 {
                break;
            }
            end += 1;
        }
        out.push(Attribute { inner: bang == 1, body: start..end });
        i = end + 1;
    }
    out
}

/// R7: `deprecated` inside an `allow(..)` attribute (`#[..]` or `#![..]`).
/// Fires everywhere, tests included: the workspace defines no `#[deprecated]`
/// item (ADR-010), so the attribute could only keep a retired API callable.
fn allow_deprecated(p: &Pass<'_>, out: &mut Vec<Finding>) {
    for attr in attributes(p) {
        let mut allow = false;
        for i in attr.body {
            match p.ident(i) {
                Some("allow") => allow = true,
                Some("deprecated") if allow => out.push(p.finding(
                    Rule::AllowDeprecated,
                    p.line(i),
                    "`allow(deprecated)` — keeps a call into a retired API compiling",
                    "port the caller to the replacement and delete the deprecated item (ADR-010)",
                )),
                _ => {}
            }
        }
    }
}

/// R8: the `unsafe` keyword lives in one audited module (ADR-011).  Outside it the
/// keyword and any attribute relaxing the `unsafe_code` lint are findings; inside
/// it every `unsafe` block needs a `// SAFETY:` comment directly above; every
/// library crate root must keep `#![forbid(unsafe_code)]` — `#![deny(..)]` for the
/// module's parent, whose single `#[allow(unsafe_code)]` must sit on `mod sys;`.
fn unsafe_confinement(p: &Pass<'_>, out: &mut Vec<Finding>) {
    let scope = p.ctx.unsafe_scope;
    if scope == UnsafeScope::CountingAllocator {
        return;
    }
    for (i, t) in p.toks.iter().enumerate() {
        if !matches!(&t.kind, TokKind::Ident(s) if s == "unsafe") {
            continue;
        }
        if scope != UnsafeScope::Module {
            out.push(p.finding(
                Rule::UnsafeConfinement,
                t.line,
                "`unsafe` outside `crates/kspot-serve/src/sys.rs` — the workspace's one audited module",
                "use a safe std API, or add the call to `sys.rs` behind a safe function and extend ADR-011's audit",
            ));
        } else if p.punct(i + 1, '{') && !safety_comment_above(p, t.line) {
            out.push(p.finding(
                Rule::UnsafeConfinement,
                t.line,
                "`unsafe` block without a `// SAFETY:` comment directly above it",
                "state why the operation's requirements hold, on the lines right before the block",
            ));
        }
    }

    let level = if scope == UnsafeScope::ModuleParent { "deny" } else { "forbid" };
    let mut root_attribute = false;
    let mut module_allowed = false;
    for attr in attributes(p) {
        if !attr.names(p, "unsafe_code") {
            continue;
        }
        if attr.inner && attr.names(p, level) {
            root_attribute = true;
        } else if ["allow", "warn", "expect"].iter().any(|relax| attr.names(p, relax)) {
            let after = attr.body.end + 1;
            let on_mod_sys = p.ident(after) == Some("mod")
                && p.ident(after + 1) == Some("sys")
                && p.punct(after + 2, ';');
            if scope == UnsafeScope::ModuleParent && !attr.inner && on_mod_sys && !module_allowed {
                module_allowed = true;
            } else {
                out.push(p.finding(
                    Rule::UnsafeConfinement,
                    p.line(attr.body.start),
                    "attribute relaxing the `unsafe_code` lint — only `mod sys;` of kspot-serve carries one",
                    "delete the attribute; code that needs it belongs in `crates/kspot-serve/src/sys.rs`",
                ));
            }
        }
    }
    if p.ctx.crate_root && !root_attribute {
        out.push(p.finding(
            Rule::UnsafeConfinement,
            1,
            &format!("crate root without `#![{level}(unsafe_code)]`"),
            "restore the crate-level attribute: the compiler enforces per crate what this rule fences per file",
        ));
    }
}

/// Whether the run of line comments ending on the line above `line` holds one
/// that starts with `SAFETY:`.
fn safety_comment_above(p: &Pass<'_>, line: u32) -> bool {
    let mut above = line;
    while above > 1 {
        above -= 1;
        match p.comments.iter().find(|c| c.line == above) {
            Some(c) if c.text.starts_with("SAFETY:") => return true,
            Some(_) => {}
            None => return false,
        }
    }
    false
}
