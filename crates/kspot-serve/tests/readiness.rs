//! The readiness path of the worker pool (ADR-011): idle connections cost no CPU and
//! no latency, a stalled reader is waited for in the kernel, parked connections are
//! never lost, and shutdown finds every one of them.
//!
//! The `poll(2)` wrapper's own contract and the poller's drop guard are pinned next to
//! the code (`sys::tests`, `server::tests`): both are private to the crate.
//!
//! Process CPU time and wall-clock medians are properties of the whole test process,
//! so every test here takes [`serial`] — run them `--release`.
#![cfg(target_os = "linux")]

use kspot_core::{EngineFleet, ScenarioConfig, WorkloadSpec};
use kspot_net::{NetworkConfig, RoomModelParams};
use kspot_serve::proto::{decode_response, encode_request, extract_frame, DEFAULT_MAX_FRAME_BYTES};
use kspot_serve::{Request, Response, ServeConfig, WireClient, WireServer};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

const SQL: &str = "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid";
const TIMEOUT: Duration = Duration::from_secs(10);

static SERIAL: Mutex<()> = Mutex::new(());

/// One test at a time; a failed test must not fail the others through the lock.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn server(config: ServeConfig) -> WireServer {
    let fleet = EngineFleet::homogeneous(
        ScenarioConfig::conference(),
        WorkloadSpec::RoomCorrelated(RoomModelParams::default()),
        NetworkConfig::mica2(),
        7,
        2,
        2,
    );
    WireServer::start(fleet, config).expect("bind loopback")
}

fn connect_many(server: &WireServer, n: usize) -> Vec<WireClient> {
    (0..n).map(|_| WireClient::connect(server.addr(), TIMEOUT).expect("connect")).collect()
}

/// Whether this process may hold `fds` descriptors at once (both ends of every
/// connection live here); a host with a low soft limit skips the big tests.
fn descriptors_allow(fds: usize) -> bool {
    let limits = std::fs::read_to_string("/proc/self/limits").expect("procfs");
    let soft = limits
        .lines()
        .find_map(|line| line.strip_prefix("Max open files"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|soft| soft.parse::<usize>().ok());
    let enough = soft.is_none_or(|soft| soft >= fds + 64);
    if !enough {
        eprintln!("skipped: the soft descriptor limit {soft:?} is below {fds}");
    }
    enough
}

/// User + system CPU time this process has used (`/proc/self/stat`, 100 Hz ticks).
fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs");
    // The command name may hold spaces; the numbered fields follow its `)`.
    let fields: Vec<&str> = stat[stat.rfind(')').expect("comm") + 1..].split_whitespace().collect();
    let ticks = |field: usize| fields[field - 3].parse::<u64>().expect("clock ticks");
    Duration::from_millis((ticks(14) + ticks(15)) * 10)
}

/// CPU the whole process uses over one second of doing nothing in this thread.
fn cpu_over_one_second() -> Duration {
    let before = process_cpu();
    std::thread::sleep(Duration::from_secs(1));
    process_cpu() - before
}

fn assert_unknown_session(reply: &Response) {
    let Response::Error { code: 400, reason } = reply else { panic!("expected a 400: {reply:?}") };
    assert!(reason.contains("unknown session"), "{reason}");
}

#[test]
fn quiet_connections_and_a_stalled_reader_cost_no_cpu() {
    let _serial = serial();
    let budget = 4096;
    let server = server(ServeConfig { outbox_capacity_bytes: budget, ..ServeConfig::default() });
    let quiet = connect_many(&server, 200);
    std::thread::sleep(Duration::from_millis(100)); // every connection is parked by now
    let idle = cpu_over_one_second();
    assert!(idle < Duration::from_millis(30), "200 quiet connections burnt {idle:?} in 1 s");

    // A client that sends and never reads: replies fill both kernel buffers, then the
    // outbox to its budget, then the server stops reading and the client's writes stop.
    let mut stalled = TcpStream::connect(server.addr()).expect("connect");
    stalled.set_nodelay(true).expect("nodelay");
    stalled.set_nonblocking(true).expect("nonblocking");
    let request = encode_request(&Request::Poll { session: 404, max: 1 }).expect("encodes");
    let (mut sent, mut partial) = (0usize, 0usize);
    let mut blocked_since: Option<Instant> = None;
    while blocked_since.is_none_or(|t| t.elapsed() < Duration::from_millis(300)) {
        match stalled.write(&request[partial..]) {
            Ok(n) => {
                blocked_since = None;
                partial += n;
                if partial == request.len() {
                    (sent, partial) = (sent + 1, 0);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                blocked_since.get_or_insert_with(Instant::now);
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => panic!("the stalled client's write failed: {e}"),
        }
    }
    assert!(sent * 20 > budget, "{sent} requests cannot have filled a {budget}-byte outbox");
    let stalled_cpu = cpu_over_one_second();
    assert!(
        stalled_cpu < Duration::from_millis(30),
        "a reader that stopped reading burnt {stalled_cpu:?} in 1 s"
    );

    // The reader resumes and gets every frame: the `Welcome`, then one 400 per request.
    stalled.set_nonblocking(false).expect("blocking");
    stalled.set_read_timeout(Some(TIMEOUT)).expect("timeout");
    let (mut inbuf, mut consumed, mut frames) = (Vec::new(), 0usize, Vec::new());
    let mut chunk = vec![0u8; 64 * 1024];
    let mut read_until = |frames: &mut Vec<Response>, stream: &mut TcpStream, total: usize| {
        while frames.len() < total {
            while let Some(body) =
                extract_frame(&inbuf, &mut consumed, DEFAULT_MAX_FRAME_BYTES).expect("framed")
            {
                frames.push(decode_response(body).expect("decodes"));
            }
            inbuf.drain(..consumed);
            consumed = 0;
            if frames.len() < total {
                let n = stream.read(&mut chunk).expect("the reply stream keeps coming");
                assert!(n > 0, "the server closed after {} of {total} frames", frames.len());
                inbuf.extend_from_slice(&chunk[..n]);
            }
        }
    };
    read_until(&mut frames, &mut stalled, 1 + sent);
    // The request the stall cut in two is finished and answered like the others.
    stalled.write_all(&request[partial..]).expect("the server reads again");
    read_until(&mut frames, &mut stalled, 2 + sent);
    assert!(matches!(frames[0], Response::Welcome { .. }), "{:?}", frames[0]);
    frames[1..].iter().for_each(assert_unknown_session);

    drop(quiet);
    server.shutdown();
}

#[test]
fn a_request_behind_a_thousand_idle_connections_is_answered_at_once() {
    let _serial = serial();
    if !descriptors_allow(2_000) {
        return;
    }
    let server = server(ServeConfig::default());
    let mut clients = connect_many(&server, 1_000);
    let last = clients.last_mut().expect("a thousand clients");
    let mut latencies: Vec<Duration> = (0..50)
        .map(|_| {
            std::thread::sleep(Duration::from_millis(2)); // parked again by now
            let started = Instant::now();
            assert_unknown_session(&last.cancel(404).expect("answered"));
            started.elapsed()
        })
        .collect();
    latencies.sort();
    let p50 = latencies[latencies.len() / 2];
    assert!(p50 < Duration::from_millis(20), "p50 {p50:?}, max {:?}", latencies.last());

    let idle = cpu_over_one_second();
    assert!(idle < Duration::from_millis(30), "1 000 idle connections burnt {idle:?} in 1 s");
    drop(clients);
    server.shutdown();
}

/// 500 connections, the first 64 each holding one active session, spread over eight
/// tenants.
fn five_hundred_with_sixty_four_sessions(server: &WireServer) -> Vec<WireClient> {
    let mut clients = connect_many(server, 500);
    for (i, client) in clients.iter_mut().take(64).enumerate() {
        client.hello(&format!("tenant-{}", i % 8)).expect("hello");
        let reply = client.register((i % 2) as u32, SQL).expect("register");
        assert!(matches!(reply, Response::Registered { .. }), "{reply:?}");
    }
    for tenant in 0..8 {
        assert_eq!(server.tenant_sessions(&format!("tenant-{tenant}")), 8);
    }
    clients
}

#[test]
fn shutdown_and_disconnects_reach_every_parked_connection() {
    let _serial = serial();
    let first = server(ServeConfig::default());
    let clients = five_hundred_with_sixty_four_sessions(&first);
    let started = Instant::now();
    let fleet = first.shutdown();
    assert!(started.elapsed() < Duration::from_secs(2), "shutdown took {:?}", started.elapsed());
    assert_eq!(fleet.active_sessions(), 0, "every parked connection's session was cancelled");
    drop(clients);

    // The same connections dropped without a `Bye`: each hang-up ends a poll.
    let second = server(ServeConfig::default());
    drop(five_hundred_with_sixty_four_sessions(&second));
    let deadline = Instant::now() + Duration::from_secs(1);
    let billed = || (0..8).map(|t| second.tenant_sessions(&format!("tenant-{t}"))).sum::<usize>();
    while billed() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(billed(), 0, "a dropped connection kept its tenant's quota slot");
    assert_eq!(second.shutdown().active_sessions(), 0);
}

/// One connection among bystanders: after every reply the worker parks it — while
/// another worker is inside `poll`, when there is one — and the next request must end
/// that poll.  A lost wake-up shows as the read timeout.
fn a_thousand_parks_each_followed_by_a_request(workers: usize) {
    let server = server(ServeConfig { workers, ..ServeConfig::default() });
    let _bystanders = connect_many(&server, 16);
    let mut client = WireClient::connect(server.addr(), TIMEOUT).expect("connect");
    for round in 0..1_000 {
        let reply = client.cancel(404).unwrap_or_else(|e| panic!("round {round}: {e}"));
        assert_unknown_session(&reply);
    }
    client.bye().expect("bye");
    server.shutdown();
}

#[test]
fn a_parked_connection_is_picked_up_every_time_with_one_worker() {
    let _serial = serial();
    a_thousand_parks_each_followed_by_a_request(1);
}

#[test]
fn a_parked_connection_is_picked_up_every_time_with_eight_workers() {
    let _serial = serial();
    a_thousand_parks_each_followed_by_a_request(8);
}
