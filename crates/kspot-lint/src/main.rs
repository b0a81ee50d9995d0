//! `cargo run -p kspot-lint [workspace-root]` — lint the workspace and exit
//! non-zero on any finding. See the library docs and ADR-008 for
//! the rule catalogue.

use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let root = std::env::args().nth(1).unwrap_or_else(|| ".".to_string());
    let report = match kspot_lint::lint_workspace(Path::new(&root)) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("kspot-lint: i/o error walking `{root}`: {e}");
            return ExitCode::from(2);
        }
    };
    if report.findings.is_empty() {
        println!("kspot-lint: {} files clean", report.files_scanned);
        return ExitCode::SUCCESS;
    }
    for f in &report.findings {
        println!("{f}");
    }
    eprintln!(
        "kspot-lint: {} finding{} in {} files scanned",
        report.findings.len(),
        if report.findings.len() == 1 { "" } else { "s" },
        report.files_scanned,
    );
    ExitCode::FAILURE
}
