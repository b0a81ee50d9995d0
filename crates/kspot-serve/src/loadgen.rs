//! Load generator: hundreds of concurrent wire clients hammering a
//! [`crate::WireServer`], measuring per-op latency percentiles (the numbers ADR-007
//! and ADR-011 quote as "E16"; the `loadgen` binary prints them).
//!
//! Each connection runs the same script — connect, `Hello`, one timed `Register`,
//! a barrier (so peak session concurrency is reached before anyone cancels), a
//! series of timed `Poll`s, a timed `Cancel`, `Bye` — while a server-side pacer
//! advances the fleet.  With more connections than the fleet admission cap, the
//! overflow surfaces as 429-style `Rejected` frames, which the report counts
//! separately from protocol errors (there must be none of those).

use crate::client::{ClientError, WireClient};
use crate::proto::{Response, STATUS_CANCELLED};
use crate::server::{ServeConfig, WireServer};
use kspot_core::{EngineFleet, ScenarioConfig, WorkloadSpec};
use kspot_net::{NetworkConfig, RoomModelParams};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// Shape of one loadgen run.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Concurrent client connections.
    pub connections: usize,
    /// Deployments in the fleet behind the server.
    pub deployments: usize,
    /// Fleet worker threads (epoch execution).
    pub threads: usize,
    /// Wire worker threads servicing connections.
    pub workers: usize,
    /// Timed polls each admitted connection performs.
    pub polls_per_connection: usize,
    /// `max` results requested per poll.
    pub poll_max: u32,
    /// Distinct tenants the connections are spread across.
    pub tenants: usize,
    /// Per-tenant session quota on the server.
    pub tenant_quota: usize,
    /// Fleet-wide admission cap.
    pub fleet_cap: usize,
    /// Server pacer interval driving epochs during the run.
    pub pacer: Duration,
    /// Master seed of the fleet.
    pub seed: u64,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self {
            connections: 320,
            deployments: 4,
            threads: 4,
            workers: 8,
            polls_per_connection: 8,
            poll_max: 32,
            tenants: 40,
            tenant_quota: 16,
            fleet_cap: 256,
            pacer: Duration::from_millis(2),
            seed: 16,
        }
    }
}

/// Latency summary of one operation across every connection.
#[derive(Debug, Clone)]
pub struct OpStats {
    /// Operation name (`register` / `poll` / `cancel`).
    pub name: &'static str,
    /// Samples measured.
    pub count: usize,
    /// Median latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile latency, milliseconds.
    pub p99_ms: f64,
    /// Worst sample, milliseconds.
    pub max_ms: f64,
}

/// What one loadgen run produced.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Connections driven.
    pub connections: usize,
    /// Deployments in the fleet.
    pub deployments: usize,
    /// Per-op latency summaries (register, poll, cancel).
    pub ops: Vec<OpStats>,
    /// Sessions admitted (`Registered` frames).
    pub admitted: usize,
    /// 429-style `Rejected` frames (admission overflow — expected when
    /// `connections > fleet_cap`).
    pub rejected: usize,
    /// 503-style `Unavailable` frames (should be 0 unless a shard was poisoned).
    pub unavailable: usize,
    /// Framing/decoding/unexpected-frame failures.  The acceptance bar is **zero**.
    pub protocol_errors: usize,
    /// Answer frames received across all polls.
    pub answers: usize,
}

#[derive(Default)]
struct ClientTally {
    register_ms: Vec<f64>,
    poll_ms: Vec<f64>,
    cancel_ms: Vec<f64>,
    admitted: usize,
    rejected: usize,
    unavailable: usize,
    protocol_errors: usize,
    answers: usize,
}

const SQL: &str = "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid";

/// Runs the whole experiment: builds a fleet, starts a server on loopback, drives
/// `connections` concurrent clients through the register/poll/cancel script, shuts
/// the server down and aggregates the tallies.
pub fn run_loadgen(config: &LoadgenConfig) -> LoadgenReport {
    let fleet = EngineFleet::homogeneous(
        ScenarioConfig::conference(),
        WorkloadSpec::RoomCorrelated(RoomModelParams::default()),
        NetworkConfig::mica2(),
        config.seed,
        config.deployments,
        config.threads,
    )
    .with_max_total_sessions(config.fleet_cap);
    let server = WireServer::start(
        fleet,
        ServeConfig {
            workers: config.workers,
            max_sessions_per_tenant: config.tenant_quota,
            pacer: Some(config.pacer),
            ..ServeConfig::default()
        },
    )
    .expect("bind a loopback listener");
    let addr = server.addr();

    let registered_barrier = Arc::new(Barrier::new(config.connections));
    let tallies: Arc<Mutex<Vec<ClientTally>>> = Arc::new(Mutex::new(Vec::new()));
    let handles: Vec<_> = (0..config.connections)
        .map(|i| {
            let barrier = Arc::clone(&registered_barrier);
            let tallies = Arc::clone(&tallies);
            let config = config.clone();
            std::thread::Builder::new()
                .name(format!("loadgen-{i}"))
                .spawn(move || {
                    let tally = drive_one_client(addr, i, &config, &barrier);
                    tallies.lock().expect("tally mutex poisoned").push(tally);
                })
                .expect("spawn a loadgen client thread")
        })
        .collect();
    for handle in handles {
        let _ = handle.join();
    }
    let _fleet = server.shutdown();

    let mut merged = ClientTally::default();
    for tally in tallies.lock().expect("tally mutex poisoned").drain(..) {
        merged.register_ms.extend(tally.register_ms);
        merged.poll_ms.extend(tally.poll_ms);
        merged.cancel_ms.extend(tally.cancel_ms);
        merged.admitted += tally.admitted;
        merged.rejected += tally.rejected;
        merged.unavailable += tally.unavailable;
        merged.protocol_errors += tally.protocol_errors;
        merged.answers += tally.answers;
    }
    LoadgenReport {
        connections: config.connections,
        deployments: config.deployments,
        ops: vec![
            op_stats("register", merged.register_ms),
            op_stats("poll", merged.poll_ms),
            op_stats("cancel", merged.cancel_ms),
        ],
        admitted: merged.admitted,
        rejected: merged.rejected,
        unavailable: merged.unavailable,
        protocol_errors: merged.protocol_errors,
        answers: merged.answers,
    }
}

fn drive_one_client(
    addr: std::net::SocketAddr,
    index: usize,
    config: &LoadgenConfig,
    barrier: &Barrier,
) -> ClientTally {
    let mut tally = ClientTally::default();
    let mut client = match WireClient::connect(addr, Duration::from_secs(30)) {
        Ok(client) => client,
        Err(_) => {
            tally.protocol_errors += 1;
            barrier.wait();
            return tally;
        }
    };
    let tenant = format!("tenant-{}", index % config.tenants.max(1));
    if client.hello(&tenant).is_err() {
        tally.protocol_errors += 1;
        barrier.wait();
        return tally;
    }

    let deployment = (index % config.deployments.max(1)) as u32;
    let start = Instant::now();
    let registration = client.register(deployment, SQL);
    tally.register_ms.push(ms_since(start));
    let session = match registration {
        Ok(Response::Registered { session, .. }) => {
            tally.admitted += 1;
            Some(session)
        }
        Ok(Response::Rejected { .. }) => {
            tally.rejected += 1;
            None
        }
        Ok(Response::Unavailable { .. }) => {
            tally.unavailable += 1;
            None
        }
        Ok(_) | Err(_) => {
            tally.protocol_errors += 1;
            None
        }
    };
    // Hold admissions until every connection has tried to register, so the run
    // demonstrates true peak concurrency against the admission cap.
    barrier.wait();

    if let Some(session) = session {
        for _ in 0..config.polls_per_connection {
            let start = Instant::now();
            match client.poll(session, config.poll_max) {
                Ok(outcome) => {
                    tally.poll_ms.push(ms_since(start));
                    tally.answers += outcome.answers.len();
                    if outcome.status == STATUS_CANCELLED {
                        break;
                    }
                }
                Err(ClientError::Unexpected(Response::Unavailable { .. })) => {
                    tally.poll_ms.push(ms_since(start));
                    tally.unavailable += 1;
                    break;
                }
                Err(_) => {
                    tally.protocol_errors += 1;
                    return tally;
                }
            }
        }
        let start = Instant::now();
        match client.cancel(session) {
            Ok(Response::Cancelled { .. }) => tally.cancel_ms.push(ms_since(start)),
            Ok(Response::Unavailable { .. }) => {
                tally.cancel_ms.push(ms_since(start));
                tally.unavailable += 1;
            }
            Ok(_) | Err(_) => {
                tally.protocol_errors += 1;
                return tally;
            }
        }
    }
    if client.bye().is_err() {
        tally.protocol_errors += 1;
    }
    tally
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1_000.0
}

fn op_stats(name: &'static str, mut samples_ms: Vec<f64>) -> OpStats {
    // Total order instead of "latencies are finite" + panic: a corrupted sample
    // must not kill the report mid-run (R1, ADR-008).
    samples_ms.sort_by(f64::total_cmp);
    let percentile = |q: f64| -> f64 {
        if samples_ms.is_empty() {
            return 0.0;
        }
        let rank = (q * (samples_ms.len() - 1) as f64).round() as usize;
        samples_ms[rank]
    };
    OpStats {
        name,
        count: samples_ms.len(),
        p50_ms: percentile(0.50),
        p99_ms: percentile(0.99),
        max_ms: samples_ms.last().copied().unwrap_or(0.0),
    }
}

impl LoadgenReport {
    /// Renders the report as aligned text lines (the loadgen binary's output).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "loadgen: {} connections against {} deployments\n",
            self.connections, self.deployments
        ));
        out.push_str(&format!(
            "admitted {}  rejected {}  unavailable {}  protocol_errors {}  answers {}\n",
            self.admitted, self.rejected, self.unavailable, self.protocol_errors, self.answers
        ));
        out.push_str(&format!(
            "{:<10} {:>8} {:>10} {:>10} {:>10}\n",
            "op", "count", "p50_ms", "p99_ms", "max_ms"
        ));
        for op in &self.ops {
            out.push_str(&format!(
                "{:<10} {:>8} {:>10.3} {:>10.3} {:>10.3}\n",
                op.name, op.count, op.p50_ms, op.p99_ms, op.max_ms
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_run_over_the_fleet_cap_admits_exactly_the_cap_with_zero_protocol_errors() {
        let config = LoadgenConfig {
            connections: 12,
            deployments: 2,
            threads: 2,
            workers: 2,
            polls_per_connection: 2,
            fleet_cap: 8,
            tenants: 4,
            tenant_quota: 8,
            ..LoadgenConfig::default()
        };
        let report = run_loadgen(&config);
        assert_eq!(report.protocol_errors, 0, "the wire layer must stay clean under load");
        assert_eq!(report.admitted, 8, "the fleet cap admits exactly 8 of 12");
        assert_eq!(report.rejected, 4, "overflow surfaces as 429 Rejected frames");
        assert_eq!(report.ops.len(), 3);
        assert!(report.ops.iter().all(|op| op.p50_ms <= op.p99_ms && op.p99_ms <= op.max_ms));
    }
}
