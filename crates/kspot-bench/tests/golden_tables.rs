//! The house rule "E1–E11 stdout is byte-identical across refactors", as a test.
//!
//! E1–E11 print simulated quantities only — messages, bytes, tuples, energy, answers —
//! never a timing, so their output is a pure function of the simulator.  Any change
//! that moves a simulated byte, a µJ, a loss draw or an answer shows up here as a
//! diff against `golden/e1_e11.txt`, which holds what
//! `cargo run --release -p kspot-bench --bin tables -- e1 e2 … e11` printed at the
//! commit before the host-side representation changes of ADR-004 "Host
//! representation".  A PR that *means* to change simulated behaviour regenerates the
//! file with that command and says so.

use std::fmt::Write;

const GOLDEN: &str = include_str!("golden/e1_e11.txt");

#[test]
fn e1_to_e11_print_exactly_the_golden_tables() {
    let mut printed = String::new();
    for n in 1..=11 {
        let table = kspot_bench::run(&format!("e{n}")).expect("E1–E11 exist");
        writeln!(printed, "{table}").expect("writing to a String");
    }
    if printed == GOLDEN {
        return;
    }
    let differing = printed
        .lines()
        .zip(GOLDEN.lines())
        .enumerate()
        .find(|(_, (ours, golden))| ours != golden);
    match differing {
        Some((at, (ours, golden))) => panic!(
            "tables differ from golden/e1_e11.txt at line {}:\n  printed: {ours}\n  golden:  {golden}",
            at + 1
        ),
        None => panic!(
            "tables differ from golden/e1_e11.txt in length: printed {} lines, golden {}",
            printed.lines().count(),
            GOLDEN.lines().count()
        ),
    }
}
