//! Loadgen binary: drive hundreds of concurrent wire clients against an in-process
//! [`kspot_serve::WireServer`] and print per-op latency percentiles (what ADR-007 and
//! ADR-011 quote as "E16").
//!
//! ```text
//! cargo run --release -p kspot-serve --bin loadgen -- \
//!     --connections 320 --deployments 4 --polls 8
//! ```
//!
//! Exits non-zero if any protocol error occurred — the wire layer's acceptance bar.

use kspot_serve::{run_loadgen, LoadgenConfig};
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: loadgen [--connections N] [--deployments N] [--threads N] [--workers N]\n\
         \x20              [--polls N] [--poll-max N] [--tenants N] [--tenant-quota N]\n\
         \x20              [--fleet-cap N] [--pacer-ms N] [--seed N]"
    );
    std::process::exit(2);
}

fn main() {
    let mut config = LoadgenConfig::default();
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let Some(value) = argv.next() else { usage() };
        let Ok(n) = value.parse::<u64>() else { usage() };
        match flag.as_str() {
            "--connections" => config.connections = n as usize,
            "--deployments" => config.deployments = (n as usize).max(1),
            "--threads" => config.threads = (n as usize).max(1),
            "--workers" => config.workers = (n as usize).max(1),
            "--polls" => config.polls_per_connection = n as usize,
            "--poll-max" => config.poll_max = n as u32,
            "--tenants" => config.tenants = (n as usize).max(1),
            "--tenant-quota" => config.tenant_quota = (n as usize).max(1),
            "--fleet-cap" => config.fleet_cap = (n as usize).max(1),
            "--pacer-ms" => config.pacer = Duration::from_millis(n.max(1)),
            "--seed" => config.seed = n,
            _ => usage(),
        }
    }
    let report = run_loadgen(&config);
    print!("{}", report.render());
    if report.protocol_errors > 0 {
        std::process::exit(1);
    }
}
