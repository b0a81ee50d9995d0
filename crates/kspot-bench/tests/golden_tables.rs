//! The house rule "the tables' stdout is byte-identical across refactors", as a test.
//!
//! Every table prints simulated quantities only — messages, bytes, tuples, energy,
//! pages, answers — never a timing, so the output is a pure function of the simulator.
//! Any change that moves a simulated byte, a µJ, a loss draw or an answer shows up here
//! as a diff against a file under `golden/`, each holding what
//! `cargo run --release -p kspot-bench --bin tables -- <its ids>` printed:
//! `e1_e11.txt` at the commit before the host-side representation changes of ADR-004
//! "Host representation", `e13_e14_e17.txt` at the commit that took the wall-clock
//! columns out of those three tables (ADR-012; the columns that stayed equal their
//! parent's).  A PR that *means* to change simulated behaviour regenerates the file
//! with that command and says so.

use std::fmt::Write;

/// Prints the tables `ids` the way the `tables` binary does and demands `golden`.
fn assert_prints(ids: &[&str], file: &str, golden: &str) {
    let mut printed = String::new();
    for id in ids {
        let table = kspot_bench::run(id).expect("a listed experiment exists");
        writeln!(printed, "{table}").expect("writing to a String");
    }
    if printed == golden {
        return;
    }
    let differing = printed
        .lines()
        .zip(golden.lines())
        .enumerate()
        .find(|(_, (ours, golden))| ours != golden);
    match differing {
        Some((at, (ours, golden))) => panic!(
            "tables differ from {file} at line {}:\n  printed: {ours}\n  golden:  {golden}",
            at + 1
        ),
        None => panic!(
            "tables differ from {file} in length: printed {} lines, golden {}",
            printed.lines().count(),
            golden.lines().count()
        ),
    }
}

#[test]
fn e1_to_e11_print_exactly_the_golden_tables() {
    assert_prints(
        &["e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11"],
        "golden/e1_e11.txt",
        include_str!("golden/e1_e11.txt"),
    );
}

#[test]
fn e13_e14_e17_print_exactly_the_golden_tables() {
    assert_prints(
        &["e13", "e14", "e17"],
        "golden/e13_e14_e17.txt",
        include_str!("golden/e13_e14_e17.txt"),
    );
}
