//! R9 `dead-surface`: the one workspace rule. It reads every file the walker lints,
//! plus `bench/src` and `bench/tests` (read, not linted), and flags a `pub` item of
//! a crate's `src/` whose only references are its definition and its own crate's
//! `#[cfg(test)]` code.
//!
//! References are counted by name, over tokens: there is no name resolution, so a
//! name two items share is live for both once either has a caller. Not a
//! reference:
//!
//! - a definition (the name after `fn`, `struct`, `enum`, `trait`, `type`,
//!   `const`, `static` or `mod`) and the self type of an `impl` header;
//! - any name inside a `use` declaration, so a re-export keeps no dead type alive;
//! - for fns and methods, a field access (`.name` followed by neither `(` nor
//!   `::`) and a field declaration or initialiser (`name:`);
//! - for a method or an associated const, a bare `name` (a local of that name):
//!   only `.name(` and `::name` reach an item of an `impl`.
//!
//! Integration tests, examples, benches and other crates' unit tests are callers
//! (ADR-008 "R9"). Trait methods and `main` are never written `pub`, so they are
//! never checked; nor is anything in a test region or in a module declared
//! `#[cfg(test)] mod name;`.

use crate::lex::{TokKind, Token};
use crate::{Finding, Rule};
use std::collections::BTreeMap;

/// One walked file, as R9 reads it.
pub(crate) struct Source {
    /// Workspace-relative, `/`-separated path.
    pub(crate) path: String,
    pub(crate) toks: Vec<Token>,
    /// `rules::test_regions` of `toks`.
    pub(crate) in_test: Vec<bool>,
}

/// A `pub` item R9 checks.
struct Item<'a> {
    name: &'a str,
    /// The self type of the inherent `impl` a method sits in.
    owner: Option<&'a str>,
    kind: &'static str,
    krate: &'a str,
    path: &'a str,
    line: u32,
    live: bool,
}

/// R9 over the whole walk: one finding per `pub` item nothing but its own crate's
/// unit tests references.
pub(crate) fn dead_surface(sources: &[Source]) -> Vec<Finding> {
    let test_file = test_only_files(sources);
    let mut items = Vec::new();
    for (s, &test) in sources.iter().zip(&test_file) {
        if let (Some(krate), false) = (src_crate(&s.path), test) {
            pub_items(s, krate, &mut items);
        }
    }
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (id, item) in items.iter().enumerate() {
        by_name.entry(item.name).or_default().push(id);
    }
    for (s, &test) in sources.iter().zip(&test_file) {
        let skip = not_references(&s.toks);
        let own_src = src_crate(&s.path);
        for (i, t) in s.toks.iter().enumerate() {
            let TokKind::Ident(name) = &t.kind else {
                continue;
            };
            let Some(ids) = by_name.get(name.as_str()) else {
                continue;
            };
            if skip[i] {
                continue;
            }
            let unit_test = test || s.in_test[i];
            let shape = shape(&s.toks, i);
            for &id in ids {
                let item = &mut items[id];
                let own_test = unit_test && own_src == Some(item.krate);
                item.live |= !own_test && item.reached_by(shape);
            }
        }
    }
    items
        .into_iter()
        .filter(|item| !item.live)
        .map(|item| {
            let label = match item.owner {
                Some(owner) => format!("{owner}::{}", item.name),
                None => item.name.to_string(),
            };
            Finding {
                file: item.path.to_string(),
                line: item.line,
                rule: Rule::DeadSurface,
                message: format!(
                    "`pub` {} `{label}` is referenced by nothing but its own crate's `#[cfg(test)]` code",
                    item.kind
                ),
                hint: "delete it, move it into the test module, or gate it with `#[cfg(test)]`; \
                       a `use` is not a caller"
                    .to_string(),
            }
        })
        .collect()
}

impl Item<'_> {
    /// Whether a use of the item's name in this shape may refer to the item.
    fn reached_by(&self, shape: Shape) -> bool {
        if self.owner.is_some() {
            shape == Shape::Path
        } else {
            self.kind != "fn" || shape != Shape::Field
        }
    }
}

/// The crate whose `src/` tree `path` is in.
fn src_crate(path: &str) -> Option<&str> {
    let (krate, rest) = path.strip_prefix("crates/")?.split_once('/')?;
    rest.starts_with("src/").then_some(krate)
}

fn ident(toks: &[Token], i: usize) -> Option<&str> {
    match toks.get(i).map(|t| &t.kind) {
        Some(TokKind::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn punct(toks: &[Token], i: usize, c: char) -> bool {
    matches!(toks.get(i).map(|t| &t.kind), Some(TokKind::Punct(p)) if *p == c)
}

/// Files whose every token is test code: the modules declared `#[cfg(test)] mod
/// name;`.
fn test_only_files(sources: &[Source]) -> Vec<bool> {
    let index: BTreeMap<&str, usize> = sources
        .iter()
        .enumerate()
        .map(|(f, s)| (s.path.as_str(), f))
        .collect();
    let mut test = vec![false; sources.len()];
    for s in sources {
        for i in 0..s.toks.len() {
            let declared =
                s.in_test[i] && ident(&s.toks, i) == Some("mod") && punct(&s.toks, i + 2, ';');
            let Some(name) = ident(&s.toks, i + 1).filter(|_| declared) else {
                continue;
            };
            if let Some(&f) = index.get(module_file(&s.path, name).as_str()) {
                test[f] = true;
            }
        }
    }
    test
}

/// The file `mod name;` in `parent` means (`name.rs` beside a crate root or a
/// `mod.rs`, under `parent`'s own directory otherwise).
fn module_file(parent: &str, name: &str) -> String {
    let (dir, file) = parent.rsplit_once('/').unwrap_or(("", parent));
    match file {
        "lib.rs" | "main.rs" | "mod.rs" => format!("{dir}/{name}.rs"),
        _ => format!("{dir}/{}/{name}.rs", file.trim_end_matches(".rs")),
    }
}

/// Whether token `i` starts an item: first in the file, or after a `}`, `;`, `{`
/// or an attribute's `]` (an `impl` in a type, `-> impl Trait`, follows none).
fn item_position(toks: &[Token], i: usize) -> bool {
    i == 0 || [';', '}', '{', ']'].iter().any(|&c| punct(toks, i - 1, c))
}

/// What an `impl` header at `i` declares.
struct ImplHeader {
    /// Token of the self type's name (`Foo` in `impl<T> a::Foo<T> where ..`).
    self_ty: usize,
    /// `impl Trait for Type`.
    trait_impl: bool,
}

fn impl_header(toks: &[Token], i: usize) -> Option<ImplHeader> {
    let mut j = i + 1;
    let mut angle = 0u32;
    let mut self_ty = None;
    let mut trait_impl = false;
    let mut in_path = true;
    while j < toks.len() && !punct(toks, j, '{') && !punct(toks, j, ';') {
        match &toks[j].kind {
            TokKind::Punct('<') => angle += 1,
            TokKind::Punct('>') if !punct(toks, j - 1, '-') => angle = angle.saturating_sub(1),
            TokKind::Ident(s) if angle == 0 => match s.as_str() {
                "for" if !punct(toks, j + 1, '<') => {
                    trait_impl = true;
                    self_ty = None;
                    in_path = true;
                }
                "where" => in_path = false,
                // The last name of the path wins (`&mut a::Foo` gives `Foo`).
                _ if in_path => self_ty = Some(j),
                _ => {}
            },
            _ => {}
        }
        // The self type's path ends at its generic arguments.
        if angle > 0 && self_ty.is_some() {
            in_path = false;
        }
        j += 1;
    }
    Some(ImplHeader {
        self_ty: self_ty?,
        trait_impl,
    })
}

/// Appends the `pub` items of one crate source file outside its test regions.
fn pub_items<'a>(s: &'a Source, krate: &'a str, out: &mut Vec<Item<'a>>) {
    let toks = &s.toks;
    let mut depth = 0u32;
    // The self type of each open inherent `impl` block and the depth inside it.
    let mut impls: Vec<(u32, &'a str)> = Vec::new();
    for i in 0..toks.len() {
        match &toks[i].kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => {
                depth = depth.saturating_sub(1);
                impls.retain(|&(d, _)| d <= depth);
            }
            TokKind::Ident(k) if k == "impl" && item_position(toks, i) => {
                if let Some(h) = impl_header(toks, i).filter(|h| !h.trait_impl) {
                    impls.push((depth + 1, ident(toks, h.self_ty).unwrap_or_default()));
                }
            }
            TokKind::Ident(k) if k == "pub" && !s.in_test[i] => {
                let Some((kind, at)) = pub_item(toks, i) else {
                    continue;
                };
                let Some(name) = ident(toks, at) else {
                    continue;
                };
                let owner = impls
                    .last()
                    .filter(|&&(d, _)| d == depth)
                    .map(|&(_, ty)| ty);
                let kind = if kind == "fn" && owner.is_some() {
                    "method"
                } else {
                    kind
                };
                out.push(Item {
                    name,
                    owner,
                    kind,
                    krate,
                    path: &s.path,
                    line: toks[at].line,
                    live: false,
                });
            }
            _ => {}
        }
    }
}

/// The kind of the item a plain `pub` at `i` declares and the index of its name;
/// `None` for `pub(crate)`, `pub mod`, `pub use` and fields.
fn pub_item(toks: &[Token], i: usize) -> Option<(&'static str, usize)> {
    let const_fn = ident(toks, i + 1) == Some("const") && ident(toks, i + 2) == Some("fn");
    let at = i + 1 + usize::from(const_fn);
    let kind = match ident(toks, at)? {
        "fn" => "fn",
        "struct" => "struct",
        "enum" => "enum",
        "trait" => "trait",
        "type" => "type alias",
        "const" => "const",
        "static" => "static",
        _ => return None,
    };
    Some((kind, at + 1))
}

/// Identifier tokens that are never references: definitions, the names in `use`
/// declarations, the self type of each `impl` header.
fn not_references(toks: &[Token]) -> Vec<bool> {
    let mut skip = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        match ident(toks, i) {
            Some("use") => {
                while i < toks.len() && !punct(toks, i, ';') {
                    skip[i] = true;
                    i += 1;
                }
            }
            Some("fn" | "struct" | "enum" | "trait" | "type" | "const" | "static" | "mod") => {
                if let Some(flag) = skip.get_mut(i + 1) {
                    *flag = true;
                }
            }
            Some("impl") if item_position(toks, i) => {
                if let Some(h) = impl_header(toks, i) {
                    skip[h.self_ty] = true;
                }
            }
            _ => {}
        }
        i += 1;
    }
    skip
}

/// How a name is used where it occurs, as far as fns and methods care.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// `.name(`, `.name::<..>(` or `::name`: a method call or a path.
    Path,
    /// `.name` otherwise (a field access), or `name:` (a field declaration or
    /// initialiser).
    Field,
    /// Anything else: a local, a fn value, a type.
    Bare,
}

fn shape(toks: &[Token], i: usize) -> Shape {
    let path = |j: usize| punct(toks, j, ':') && punct(toks, j + 1, ':');
    let dot = i > 0 && punct(toks, i - 1, '.');
    if dot && (punct(toks, i + 1, '(') || path(i + 1)) || i >= 2 && path(i - 2) {
        Shape::Path
    } else if dot || punct(toks, i + 1, ':') && !path(i + 1) {
        Shape::Field
    } else {
        Shape::Bare
    }
}
