//! The fixture corpus: at least one firing and one non-firing case per rule
//! R1–R9. Exemptions are path scopes only: a comment that reads like a
//! suppression marker silences nothing.

use kspot_lint::{lint_source, lint_workspace, FileContext, Rule};
use std::path::Path;

fn lib_ctx() -> FileContext {
    FileContext::from_path("crates/kspot-core/src/fixture.rs")
}

fn serve_ctx() -> FileContext {
    FileContext::from_path("crates/kspot-serve/src/fixture.rs")
}

fn test_ctx() -> FileContext {
    FileContext::from_path("crates/kspot-core/tests/fixture.rs")
}

/// Sorted, deduplicated list of rules that fired.
fn fired(ctx: &FileContext, src: &str) -> Vec<Rule> {
    let mut rules: Vec<Rule> = lint_source(ctx, src).into_iter().map(|f| f.rule).collect();
    rules.sort();
    rules.dedup();
    rules
}

#[test]
fn r1_fires_on_partial_cmp_and_total_cmp_passes() {
    let fire = lint_source(&lib_ctx(), include_str!("fixtures/r1_fire.rs"));
    assert_eq!(fire.len(), 1, "{fire:?}");
    assert_eq!(fire[0].rule, Rule::NanOrdering);
    assert_eq!(fire[0].line, 4, "the violating sort line");
    assert!(fire[0].hint.contains("total_cmp"));

    assert!(fired(&lib_ctx(), include_str!("fixtures/r1_clean.rs")).is_empty());

    // A marker-shaped comment above the sort silences nothing.
    let fire = lint_source(&lib_ctx(), include_str!("fixtures/r1_marker.rs"));
    assert_eq!(fire.len(), 1, "{fire:?}");
    assert_eq!(fire[0].rule, Rule::NanOrdering);
    assert_eq!(fire[0].line, 5, "the sort under the comment");
}

#[test]
fn r1_fires_even_in_test_trees() {
    // The NaN class causes flaky tests too; R1 is scoped everywhere.
    let fire = lint_source(&test_ctx(), include_str!("fixtures/r1_fire.rs"));
    assert_eq!(fire.len(), 1);
    assert_eq!(fire[0].rule, Rule::NanOrdering);
}

#[test]
fn r2_fires_on_bare_unwrap_and_empty_expect() {
    let fire = lint_source(&lib_ctx(), include_str!("fixtures/r2_fire.rs"));
    let r2: Vec<_> = fire.iter().filter(|f| f.rule == Rule::BareUnwrap).collect();
    assert_eq!(r2.len(), 2, "{fire:?}");
    assert!(r2[0].message.contains("unwrap"));
    assert!(r2[1].message.contains("expect"));
}

#[test]
fn r2_passes_reasoned_expects_and_skips_test_code() {
    assert!(fired(&lib_ctx(), include_str!("fixtures/r2_clean.rs")).is_empty());
    // The same violations in a tests/ tree are out of scope entirely.
    assert!(fired(&test_ctx(), include_str!("fixtures/r2_fire.rs")).is_empty());
}

#[test]
fn r3_fires_in_deterministic_paths_only() {
    let fire = lint_source(&lib_ctx(), include_str!("fixtures/r3_fire.rs"));
    let wall = fire.iter().filter(|f| f.message.contains("wall-clock")).count();
    let hash = fire.iter().filter(|f| f.message.contains("hash-ordered")).count();
    assert!(wall >= 1 && hash >= 1, "{fire:?}");
    assert!(fire.iter().all(|f| f.rule == Rule::OrderLeak));

    // kspot-serve is allowed to read clocks and use HashMap (ledger keys are
    // re-sorted at the wire); the rule is scoped to net/core/algos src and to
    // kspot-bench src — a table is a pure function of the simulator (ADR-012) —
    // but not to the criterion benches next to it, whose job is the clock.
    assert!(fired(&serve_ctx(), include_str!("fixtures/r3_fire.rs")).is_empty());
    let tables_ctx = FileContext::from_path("crates/kspot-bench/src/experiments.rs");
    assert!(fired(&tables_ctx, include_str!("fixtures/r3_fire.rs")).contains(&Rule::OrderLeak));
    let benches_ctx = FileContext::from_path("crates/kspot-bench/benches/sweep_n.rs");
    assert!(fired(&benches_ctx, include_str!("fixtures/r3_fire.rs")).is_empty());
    assert!(fired(&lib_ctx(), include_str!("fixtures/r3_clean.rs")).is_empty());
}

#[test]
fn r3_covers_stored_bytes_and_host_byte_order_at_the_byte_boundaries() {
    // Stored images are a deterministic path read on other hosts (ADR-013): in
    // `kspot-store/src/` R3 fires on a hash-ordered collection as anywhere
    // deterministic, and on `from_ne_bytes` / `to_ne_bytes`.
    let store_ctx = FileContext::from_path("crates/kspot-store/src/fixture.rs");
    let fire = lint_source(&store_ctx, include_str!("fixtures/r3_store_fire.rs"));
    assert!(fire.iter().all(|f| f.rule == Rule::OrderLeak), "{fire:?}");
    let host_order: Vec<u32> =
        fire.iter().filter(|f| f.message.contains("host byte order")).map(|f| f.line).collect();
    assert_eq!(host_order, [9, 12], "from_ne_bytes and to_ne_bytes: {fire:?}");
    assert!(fire.iter().any(|f| f.message.contains("hash-ordered")), "{fire:?}");
    assert!(fired(&store_ctx, include_str!("fixtures/r3_store_clean.rs")).is_empty());

    // The wire is the other byte boundary: host order fires there, its hash maps
    // (re-sorted before they are sent) still do not.
    let fire = lint_source(&serve_ctx(), include_str!("fixtures/r3_store_fire.rs"));
    assert_eq!(fire.len(), 2, "{fire:?}");
    assert!(fire.iter().all(|f| f.message.contains("host byte order")));
    // Elsewhere integers never leave the process, and tests may build what they like.
    assert!(!lint_source(&lib_ctx(), include_str!("fixtures/r3_store_fire.rs"))
        .iter()
        .any(|f| f.message.contains("host byte order")));
    let store_test_ctx = FileContext::from_path("crates/kspot-store/tests/fixture.rs");
    assert!(fired(&store_test_ctx, include_str!("fixtures/r3_store_fire.rs")).is_empty());
}

#[test]
fn r4_fires_outside_the_rng_module_only() {
    let fire = lint_source(&lib_ctx(), include_str!("fixtures/r4_fire.rs"));
    assert_eq!(fire.len(), 1, "{fire:?}");
    assert_eq!(fire[0].rule, Rule::RawRng);
    assert!(fire[0].hint.contains("kspot_net::rng"));

    assert!(fired(&lib_ctx(), include_str!("fixtures/r4_clean.rs")).is_empty());
    // The one module allowed to construct RNGs is exempt.
    let rng_ctx = FileContext::from_path("crates/kspot-net/src/rng.rs");
    assert!(fired(&rng_ctx, include_str!("fixtures/r4_fire.rs")).is_empty());
}

#[test]
fn r5_fires_on_nested_guards_and_passes_disciplined_code() {
    let fire = lint_source(&lib_ctx(), include_str!("fixtures/r5_fire.rs"));
    assert_eq!(fire.len(), 1, "{fire:?}");
    assert_eq!(fire[0].rule, Rule::LockDiscipline);
    assert_eq!(fire[0].line, 6, "the second acquisition");

    assert!(fired(&lib_ctx(), include_str!("fixtures/r5_clean.rs")).is_empty());

    // Neither does a lock-order comment above a nested acquisition.
    let fire = lint_source(&lib_ctx(), include_str!("fixtures/r5_marker.rs"));
    assert_eq!(fire.len(), 1, "{fire:?}");
    assert_eq!(fire[0].rule, Rule::LockDiscipline);
    assert_eq!(fire[0].line, 8, "the acquisition under the comment");
}

#[test]
fn r6_fires_on_unvalidated_lengths_in_wire_code_only() {
    let fire = lint_source(&serve_ctx(), include_str!("fixtures/r6_fire.rs"));
    let r6: Vec<_> = fire
        .iter()
        .filter(|f| f.rule == Rule::AllocBeforeValidate)
        .collect();
    assert_eq!(r6.len(), 2, "with_capacity and vec![..; n] both fire: {fire:?}");

    assert!(fired(&serve_ctx(), include_str!("fixtures/r6_clean.rs")).is_empty());
    // Outside the untrusted-decode crates the rule does not apply.
    assert!(fired(&lib_ctx(), include_str!("fixtures/r6_fire.rs")).is_empty());
}

#[test]
fn r6_covers_the_checkpoint_store_decoder() {
    // The on-disk checkpoint image is untrusted input exactly like a wire frame
    // (ADR-008/009): the same rule polices `kspot-store/src/`.
    let store_ctx = FileContext::from_path("crates/kspot-store/src/fixture.rs");
    let fire = lint_source(&store_ctx, include_str!("fixtures/r6_store_fire.rs"));
    let r6: Vec<_> = fire
        .iter()
        .filter(|f| f.rule == Rule::AllocBeforeValidate)
        .collect();
    assert_eq!(r6.len(), 2, "with_capacity and vec![..; n] both fire: {fire:?}");

    assert!(fired(&store_ctx, include_str!("fixtures/r6_store_clean.rs")).is_empty());
    // The store's own tests/ tree (fuzz corpus drivers) stays out of scope.
    let store_test_ctx = FileContext::from_path("crates/kspot-store/tests/fixture.rs");
    assert!(fired(&store_test_ctx, include_str!("fixtures/r6_store_fire.rs")).is_empty());
}

#[test]
fn r3_and_r6_fence_the_codec_both_byte_boundaries_read_through() {
    // `kspot_net::codec` is the reader of the wire and of the store: host byte order
    // and alloc-before-validate fire in it as they do in either boundary.
    let codec_ctx = FileContext::from_path("crates/kspot-net/src/codec.rs");
    let fire = lint_source(&codec_ctx, include_str!("fixtures/codec_fire.rs"));
    let at: Vec<(Rule, u32)> = fire.iter().map(|f| (f.rule, f.line)).collect();
    assert_eq!(at, [(Rule::OrderLeak, 13), (Rule::AllocBeforeValidate, 18)], "{fire:?}");
    assert!(fire[0].message.contains("host byte order"));
    assert!(fired(&codec_ctx, include_str!("fixtures/codec_clean.rs")).is_empty());

    // The rest of kspot-net never sees untrusted bytes.
    let net_ctx = FileContext::from_path("crates/kspot-net/src/storage.rs");
    assert!(fired(&net_ctx, include_str!("fixtures/codec_fire.rs")).is_empty());
}

#[test]
fn r7_fires_on_allow_deprecated_everywhere_tests_included() {
    for ctx in [lib_ctx(), test_ctx()] {
        let fire = lint_source(&ctx, include_str!("fixtures/r7_fire.rs"));
        assert!(fire.iter().all(|f| f.rule == Rule::AllowDeprecated), "{fire:?}");
        let lines: Vec<u32> = fire.iter().map(|f| f.line).collect();
        assert_eq!(lines, [2, 4], "the inner and the outer attribute: {fire:?}");
        assert!(fired(&ctx, include_str!("fixtures/r7_clean.rs")).is_empty());
    }
}

/// The lines R8 fired on.
fn r8_lines(path: &str, src: &str) -> Vec<u32> {
    let fire = lint_source(&FileContext::from_path(path), src);
    assert!(fire.iter().all(|f| f.rule == Rule::UnsafeConfinement), "{fire:?}");
    fire.iter().map(|f| f.line).collect()
}

#[test]
fn r8_fires_on_the_keyword_and_on_relaxing_attributes_outside_the_audited_module() {
    for path in ["crates/kspot-core/src/fixture.rs", "crates/kspot-core/tests/fixture.rs"] {
        let lines = r8_lines(path, include_str!("fixtures/r8_fire.rs"));
        assert_eq!(lines, [2, 10, 13, 16], "attribute, block, fn, impl");
        assert!(r8_lines(path, include_str!("fixtures/r8_clean.rs")).is_empty());
    }
    // The two test binaries that own a `GlobalAlloc` are out of scope.
    for allocator in ["crates/kspot-algos/tests/alloc_budget.rs", "crates/kspot-core/tests/soak.rs"] {
        assert!(r8_lines(allocator, include_str!("fixtures/r8_fire.rs")).is_empty());
    }
}

#[test]
fn r8_demands_the_crate_level_attribute_of_every_library_root() {
    let root = "crates/kspot-core/src/lib.rs";
    assert!(r8_lines(root, include_str!("fixtures/r8_clean.rs")).is_empty());
    assert_eq!(r8_lines(root, include_str!("fixtures/r8_root_fire.rs")), [1], "a removed forbid");
    assert_eq!(r8_lines("src/lib.rs", include_str!("fixtures/r8_root_fire.rs")), [1]);
    // Not a root: nothing to demand.
    let module = "crates/kspot-core/src/engine/core.rs";
    assert!(r8_lines(module, include_str!("fixtures/r8_root_fire.rs")).is_empty());
}

#[test]
fn r8_wants_a_safety_comment_directly_above_every_block_of_the_audited_module() {
    let sys = "crates/kspot-serve/src/sys.rs";
    assert!(r8_lines(sys, include_str!("fixtures/r8_sys_clean.rs")).is_empty());
    let fire = lint_source(&FileContext::from_path(sys), include_str!("fixtures/r8_sys_fire.rs"));
    assert_eq!(fire.iter().map(|f| f.line).collect::<Vec<_>>(), [9, 15]);
    assert!(fire.iter().all(|f| f.message.contains("SAFETY")), "{fire:?}");
}

#[test]
fn r8_lets_the_modules_parent_allow_it_once_and_only_on_mod_sys() {
    let parent = "crates/kspot-serve/src/lib.rs";
    assert!(r8_lines(parent, include_str!("fixtures/r8_parent_clean.rs")).is_empty());
    assert_eq!(
        r8_lines(parent, include_str!("fixtures/r8_parent_fire.rs")),
        [4, 8],
        "another module's, and a second one"
    );
    // Anywhere else the same file has no door to open and the wrong root attribute.
    let elsewhere = "crates/kspot-store/src/lib.rs";
    assert_eq!(r8_lines(elsewhere, include_str!("fixtures/r8_parent_clean.rs")), [1, 6]);
}

#[test]
fn r9_flags_pub_items_that_only_their_own_crates_unit_tests_reference() {
    // A workspace-shaped corpus: two crates, an integration test and a `bench/src`.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/r9");
    let report = lint_workspace(&root).expect("the corpus is readable");
    assert_eq!(report.files_scanned, 5, "bench/src is read, not linted");
    assert!(report.findings.iter().all(|f| f.rule == Rule::DeadSurface), "{:?}", report.findings);
    let found: Vec<(&str, u32, &str)> = report
        .findings
        .iter()
        .map(|f| {
            let item = f.message.split('`').nth(3).expect("the message names the item");
            (f.file.as_str(), f.line, item)
        })
        .collect();
    assert_eq!(
        found,
        [
            // Named by a `pub use` and a `use` only.
            ("crates/alpha/src/inner.rs", 2, "Reexported"),
            // Called by its own unit test only.
            ("crates/alpha/src/lib.rs", 11, "only_unit_tested"),
            // Called by a file declared `#[cfg(test)] mod support;` only.
            ("crates/alpha/src/lib.rs", 16, "only_support_calls"),
            // Elsewhere the names are fields (`q.top_k`, `top_k:`), shorthand
            // initialisers, locals and `self.scenario`.
            ("crates/alpha/src/lib.rs", 47, "Ranking::top_k"),
            ("crates/alpha/src/lib.rs", 52, "Ranking::scenario"),
        ]
    );
    // Clean: `called_from_other_tests` (another crate's `tests/`), `called_from_bench`
    // (`bench/src` only), `called_from_other_unit_tests` (another crate's
    // `#[cfg(test)]` code), `Ranking::new`, the trait `Shape` and its implementors'
    // methods, and `support.rs`'s own `pub fn`.
}
