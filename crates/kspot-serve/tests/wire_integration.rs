//! Loopback integration tests for the wire front-end: real sockets, real worker
//! pool, hostile inputs, slow readers, quota exhaustion, poisoned shards and clean
//! shutdown — the trust-boundary behaviours ADR-007 promises.

use kspot_core::{EngineFleet, ScenarioConfig, ShardHealth, WorkloadSpec};
use kspot_net::{NetworkConfig, RoomModelParams};
use kspot_serve::proto::{STATUS_ACTIVE, STATUS_CANCELLED, STATUS_COMPLETED};
use kspot_serve::{ClientError, Request, Response, ServeConfig, WireClient, WireServer};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Barrier};
use std::time::Duration;

const SQL: &str = "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid";
const TIMEOUT: Duration = Duration::from_secs(10);

fn fleet(deployments: usize) -> EngineFleet {
    EngineFleet::homogeneous(
        ScenarioConfig::conference(),
        WorkloadSpec::RoomCorrelated(RoomModelParams::default()),
        NetworkConfig::mica2(),
        7,
        deployments,
        2,
    )
}

fn server(deployments: usize, config: ServeConfig) -> WireServer {
    WireServer::start(fleet(deployments), config).expect("bind loopback")
}

#[test]
fn welcome_register_advance_poll_cancel_roundtrip() {
    let server = server(2, ServeConfig::default());
    let mut client = WireClient::connect(server.addr(), TIMEOUT).expect("connect");
    assert_eq!(
        client.welcome(),
        &Response::Welcome { protocol: kspot_serve::PROTOCOL_VERSION, deployments: 2 }
    );
    client.hello("acme").expect("hello");

    let session = match client.register(1, SQL).expect("register") {
        Response::Registered { session, deployment, algorithm } => {
            assert_eq!(deployment, 1);
            assert!(!algorithm.is_empty());
            session
        }
        other => panic!("expected Registered, got {other:?}"),
    };

    match client.advance(6).expect("advance") {
        Response::Advanced { epochs, poisoned } => {
            assert_eq!(epochs, 6);
            assert!(poisoned.is_empty());
        }
        other => panic!("expected Advanced, got {other:?}"),
    }

    let outcome = client.poll(session, 32).expect("poll");
    assert_eq!(outcome.status, STATUS_ACTIVE);
    assert_eq!(outcome.delivered as usize, outcome.answers.len());
    assert!(!outcome.answers.is_empty(), "6 epochs must produce answers");
    assert_eq!(outcome.pending, 0);
    for answer in &outcome.answers {
        let Response::Answer { session: s, items, .. } = answer else {
            panic!("expected Answer, got {answer:?}")
        };
        assert_eq!(*s, session);
        assert!(items.len() <= 2, "TOP 2 answers carry at most 2 items");
    }

    match client.cancel(session).expect("cancel") {
        Response::Cancelled { session: s, was_active } => {
            assert_eq!(s, session);
            assert!(was_active);
        }
        other => panic!("expected Cancelled, got {other:?}"),
    }
    // Polling a cancelled session still works and reports its status.
    let outcome = client.poll(session, 32).expect("poll after cancel");
    assert_eq!(outcome.status, STATUS_CANCELLED);

    client.bye().expect("bye");
    server.shutdown();
}

#[test]
fn bad_sql_and_bad_routing_are_400s_that_keep_the_connection_usable() {
    let server = server(1, ServeConfig::default());
    let mut client = WireClient::connect(server.addr(), TIMEOUT).expect("connect");

    match client.register(0, "SELECT gibberish FROM nowhere").expect("answered") {
        Response::Error { code: 400, reason } => assert!(!reason.is_empty()),
        other => panic!("expected a 400, got {other:?}"),
    }
    match client.register(9, SQL).expect("answered") {
        Response::Error { code: 400, reason } => {
            assert!(reason.contains("unknown deployment id 9"), "{reason}");
        }
        other => panic!("expected a 400, got {other:?}"),
    }
    // No strategy filters (a WHERE clause) or ranks epochs by MAX, and no engine
    // preallocates a window past its retention cap: a 400, never an unfiltered Top-K.
    for (refused, needle) in [
        ("SELECT TOP 2 roomid, AVG(sound) FROM sensors WHERE sound > 1000 GROUP BY roomid", "WHERE"),
        (
            "SELECT TOP 2 epoch, MAX(sound) FROM sensors GROUP BY epoch WITH HISTORY 8 epochs",
            "sum-decomposable",
        ),
        (
            "SELECT TOP 2 epoch, AVG(sound) FROM sensors GROUP BY epoch WITH HISTORY 2000000 epochs",
            "WITH HISTORY spans 2000000 epochs",
        ),
    ] {
        match client.register(0, refused).expect("answered") {
            Response::Error { code: 400, reason } => assert!(reason.contains(needle), "{reason}"),
            other => panic!("expected a 400, got {other:?}"),
        }
    }
    // Unknown sessions too.
    match client.cancel(77).expect("answered") {
        Response::Error { code: 400, reason } => assert!(reason.contains("unknown session")),
        other => panic!("expected a 400, got {other:?}"),
    }
    // The connection survived all six.
    assert!(matches!(client.register(0, SQL).expect("register"), Response::Registered { .. }));
    client.bye().expect("bye");
    server.shutdown();
}

#[test]
fn oversized_frames_are_rejected_and_the_connection_closed() {
    let server = server(1, ServeConfig { max_frame_bytes: 1024, ..ServeConfig::default() });
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_read_timeout(Some(TIMEOUT)).expect("timeout");

    // A hostile length prefix claiming a 16 MiB body.
    stream.write_all(&(16u32 * 1024 * 1024).to_be_bytes()).expect("write");
    let mut bytes = Vec::new();
    stream.read_to_end(&mut bytes).expect("server closes after the error frame");

    // Skip the Welcome frame, then expect an Error frame and EOF.
    let mut pos = 0;
    let welcome =
        kspot_serve::proto::extract_frame(&bytes, &mut pos, 4096).unwrap().expect("welcome");
    assert!(matches!(
        kspot_serve::proto::decode_response(welcome),
        Ok(Response::Welcome { .. })
    ));
    let error =
        kspot_serve::proto::extract_frame(&bytes, &mut pos, 4096).unwrap().expect("error frame");
    match kspot_serve::proto::decode_response(error) {
        Ok(Response::Error { code: 400, reason }) => assert!(reason.contains("exceeds")),
        other => panic!("expected a 400, got {other:?}"),
    }
    assert_eq!(pos, bytes.len(), "nothing after the error frame");
    server.shutdown();
}

#[test]
fn truncated_and_garbage_frames_do_not_take_the_server_down() {
    let server = server(1, ServeConfig::default());

    // A frame whose body is garbage (bad tag).
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_read_timeout(Some(TIMEOUT)).expect("timeout");
    stream.write_all(&3u32.to_be_bytes()).expect("write");
    stream.write_all(&[0x7f, 0xde, 0xad]).expect("write");
    let mut bytes = Vec::new();
    stream.read_to_end(&mut bytes).expect("server closes after the error frame");
    drop(stream);

    // A frame that never completes (header promising more than is sent), then an
    // abrupt disconnect mid-frame.
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.write_all(&100u32.to_be_bytes()).expect("write");
    stream.write_all(b"half a frame").expect("write");
    drop(stream);

    // The server is still fully functional for well-behaved clients.
    let mut client = WireClient::connect(server.addr(), TIMEOUT).expect("connect");
    assert!(matches!(client.register(0, SQL).expect("register"), Response::Registered { .. }));
    client.bye().expect("bye");
    server.shutdown();
}

#[test]
fn tenant_quota_exhaustion_is_a_429_that_frees_on_cancel() {
    let server = server(1, ServeConfig { max_sessions_per_tenant: 2, ..ServeConfig::default() });
    let mut client = WireClient::connect(server.addr(), TIMEOUT).expect("connect");
    client.hello("small-tenant").expect("hello");

    let s1 = match client.register(0, SQL).expect("register") {
        Response::Registered { session, .. } => session,
        other => panic!("expected Registered, got {other:?}"),
    };
    let _s2 = match client.register(0, SQL).expect("register") {
        Response::Registered { session, .. } => session,
        other => panic!("expected Registered, got {other:?}"),
    };
    match client.register(0, SQL).expect("answered") {
        Response::Rejected { code: 429, reason } => {
            assert!(reason.contains("small-tenant"), "{reason}");
            assert!(reason.contains("quota"), "{reason}");
        }
        other => panic!("expected a 429, got {other:?}"),
    }
    // Another tenant is unaffected — the quota is per tenant, not global.
    let mut other = WireClient::connect(server.addr(), TIMEOUT).expect("connect");
    other.hello("big-tenant").expect("hello");
    assert!(matches!(other.register(0, SQL).expect("register"), Response::Registered { .. }));

    // Cancelling frees the slot.
    assert!(matches!(client.cancel(s1).expect("cancel"), Response::Cancelled { .. }));
    assert!(matches!(client.register(0, SQL).expect("register"), Response::Registered { .. }));

    client.bye().expect("bye");
    other.bye().expect("bye");
    server.shutdown();
}

#[test]
fn fleet_admission_overflow_is_a_429() {
    let fleet = fleet(2).with_max_total_sessions(3);
    let server = WireServer::start(
        fleet,
        ServeConfig { max_sessions_per_tenant: 100, ..ServeConfig::default() },
    )
    .expect("bind loopback");
    let mut client = WireClient::connect(server.addr(), TIMEOUT).expect("connect");
    for i in 0..3 {
        assert!(
            matches!(client.register(i % 2, SQL).expect("register"), Response::Registered { .. }),
            "session {i} should be admitted"
        );
    }
    match client.register(0, SQL).expect("answered") {
        Response::Rejected { code: 429, reason } => {
            assert!(reason.contains("fleet admission rejected"), "{reason}");
        }
        other => panic!("expected a 429, got {other:?}"),
    }
    client.bye().expect("bye");
    server.shutdown();
}

/// One client of the over-cap run: `Ok(true)` when admitted and every poll and the
/// cancel were answered, `Ok(false)` when refused with a 429, `Err` on any protocol
/// error.
fn over_cap_client(addr: SocketAddr, i: usize, registered: &Barrier) -> Result<bool, ClientError> {
    let opened = (|| {
        let mut client = WireClient::connect(addr, TIMEOUT)?;
        client.hello(&format!("tenant-{}", i % 4))?;
        let reply = client.register((i % 2) as u32, SQL)?;
        Ok::<_, ClientError>((client, reply))
    })();
    // Every client registers before any cancels, so all of them meet the cap at once.
    registered.wait();
    let (mut client, reply) = opened?;
    let admitted = match reply {
        Response::Registered { session, .. } => {
            for _ in 0..2 {
                client.poll(session, 32)?;
            }
            match client.cancel(session)? {
                Response::Cancelled { .. } => true,
                other => return Err(ClientError::Unexpected(other)),
            }
        }
        Response::Rejected { code: 429, .. } => false,
        other => return Err(ClientError::Unexpected(other)),
    };
    client.bye()?;
    Ok(admitted)
}

#[test]
fn a_run_over_the_fleet_cap_admits_exactly_the_cap_with_zero_protocol_errors() {
    const CLIENTS: usize = 12;
    let server = WireServer::start(
        fleet(2).with_max_total_sessions(8),
        ServeConfig {
            workers: 2,
            max_sessions_per_tenant: 8,
            pacer: Some(Duration::from_millis(2)),
            ..ServeConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.addr();
    let registered = Arc::new(Barrier::new(CLIENTS));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let registered = Arc::clone(&registered);
            std::thread::spawn(move || over_cap_client(addr, i, &registered))
        })
        .collect();
    let outcomes: Vec<_> = handles
        .into_iter()
        .enumerate()
        .map(|(i, handle)| handle.join().unwrap_or_else(|_| panic!("client thread {i} panicked")))
        .collect();
    server.shutdown();

    let errors: Vec<String> =
        outcomes.iter().filter_map(|o| o.as_ref().err().map(ToString::to_string)).collect();
    assert!(errors.is_empty(), "the wire layer must stay clean under load: {errors:?}");
    let count =
        |admitted: bool| outcomes.iter().filter(|o| matches!(o, Ok(a) if *a == admitted)).count();
    assert_eq!(count(true), 8, "the fleet cap admits exactly 8 of 12");
    assert_eq!(count(false), 4, "overflow surfaces as 429 Rejected frames");
}

#[test]
fn slow_readers_are_throttled_not_buffered_without_bound() {
    // A tiny outbox forces the backpressure path: polls deliver at most what fits,
    // report the rest as pending, and repeated polls drain everything eventually.
    let server = server(
        1,
        ServeConfig { outbox_capacity_bytes: 256, ..ServeConfig::default() },
    );
    let mut client = WireClient::connect(server.addr(), TIMEOUT).expect("connect");
    let session = match client.register(0, SQL).expect("register") {
        Response::Registered { session, .. } => session,
        other => panic!("expected Registered, got {other:?}"),
    };
    // 40 epochs of TOP-2 answers (~30+ bytes each) cannot fit a 256-byte outbox.
    assert!(matches!(client.advance(40).expect("advance"), Response::Advanced { .. }));

    let mut delivered_total = 0usize;
    let mut throttled_polls = 0usize;
    for _ in 0..200 {
        let outcome = client.poll(session, u32::MAX).expect("poll");
        delivered_total += outcome.delivered as usize;
        if outcome.pending > 0 {
            throttled_polls += 1;
        } else if outcome.delivered == 0 {
            break;
        }
    }
    assert_eq!(delivered_total, 40, "every answer is eventually delivered exactly once");
    assert!(
        throttled_polls > 0,
        "a 256-byte outbox must throttle a 40-answer session across multiple polls"
    );
    client.bye().expect("bye");
    server.shutdown();
}

#[test]
fn a_multi_frame_poll_reply_does_not_wait_for_a_delayed_ack() {
    // `Answer`… + `Flushed` written frame by frame on a Nagle socket leaves the second
    // small segment waiting ≈ 40 ms for the client's delayed ACK; written as one
    // segment on a no-delay socket the round trip is the service time.
    let server = server(1, ServeConfig::default());
    let mut client = WireClient::connect(server.addr(), TIMEOUT).expect("connect");
    let session = match client.register(0, SQL).expect("register") {
        Response::Registered { session, .. } => session,
        other => panic!("expected Registered, got {other:?}"),
    };
    let mut round_trips = Vec::new();
    for _ in 0..20 {
        assert!(matches!(client.advance(8).expect("advance"), Response::Advanced { .. }));
        let start = std::time::Instant::now();
        let outcome = client.poll(session, 8).expect("poll");
        round_trips.push(start.elapsed());
        assert_eq!(outcome.answers.len(), 8, "nine frames per reply");
    }
    round_trips.sort();
    let median = round_trips[round_trips.len() / 2];
    assert!(median < Duration::from_millis(20), "median poll round trip {median:?}");
    client.bye().expect("bye");
    server.shutdown();
}

#[test]
fn a_poisoned_shard_degrades_to_503_while_neighbours_serve() {
    let server = server(3, ServeConfig::default());
    let mut client = WireClient::connect(server.addr(), TIMEOUT).expect("connect");
    let poisoned_session = match client.register(1, SQL).expect("register") {
        Response::Registered { session, .. } => session,
        other => panic!("expected Registered, got {other:?}"),
    };

    // Poison deployment 1 from inside the process (a torn epoch, per ADR-006).
    let handle = server.fleet().deployment(1).expect("deployment 1");
    let result = catch_unwind(AssertUnwindSafe(|| {
        let _guard = handle.metrics();
        panic!("injected: tear deployment 1");
    }));
    assert!(result.is_err());
    assert_eq!(server.fleet().shard_health(1), Some(ShardHealth::Poisoned));

    // Registering on the torn shard is a 503 naming the deployment...
    match client.register(1, SQL).expect("answered") {
        Response::Unavailable { code: 503, deployment: 1, reason } => {
            assert!(reason.contains("poisoned"), "{reason}");
        }
        other => panic!("expected a 503 for deployment 1, got {other:?}"),
    }
    // ...polling its session is a 503 too...
    match client.poll(poisoned_session, 32) {
        Err(ClientError::Unexpected(Response::Unavailable { code: 503, deployment: 1, .. })) => {}
        other => panic!("expected a 503 for deployment 1, got {other:?}"),
    }
    // ...and its neighbours keep admitting, advancing and answering.
    let healthy = match client.register(0, SQL).expect("register") {
        Response::Registered { session, .. } => session,
        other => panic!("expected Registered, got {other:?}"),
    };
    match client.advance(5).expect("advance") {
        Response::Advanced { poisoned, .. } => assert_eq!(poisoned, vec![1]),
        other => panic!("expected Advanced, got {other:?}"),
    }
    let outcome = client.poll(healthy, 32).expect("poll");
    assert!(!outcome.answers.is_empty(), "healthy shard keeps producing answers");

    // Cancelling the poisoned session is answered (not a hang, not a crash) and the
    // connection survives the whole ordeal.
    assert!(matches!(
        client.cancel(poisoned_session).expect("cancel"),
        Response::Cancelled { .. }
    ));
    client.bye().expect("bye");
    server.shutdown();
}

#[test]
fn many_concurrent_clients_register_poll_and_cancel_without_protocol_errors() {
    let server = server(
        4,
        ServeConfig { workers: 4, max_sessions_per_tenant: 64, ..ServeConfig::default() },
    );
    let addr = server.addr();
    let handles: Vec<_> = (0..32)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = WireClient::connect(addr, TIMEOUT).expect("connect");
                client.hello(&format!("tenant-{}", i % 4)).expect("hello");
                let session = match client.register((i % 4) as u32, SQL).expect("register") {
                    Response::Registered { session, .. } => session,
                    other => panic!("client {i}: expected Registered, got {other:?}"),
                };
                assert!(matches!(client.advance(2).expect("advance"), Response::Advanced { .. }));
                for _ in 0..4 {
                    let outcome = client.poll(session, 16).expect("poll");
                    assert_eq!(outcome.delivered as usize, outcome.answers.len());
                }
                assert!(matches!(
                    client.cancel(session).expect("cancel"),
                    Response::Cancelled { .. }
                ));
                client.bye().expect("bye");
            })
        })
        .collect();
    for (i, handle) in handles.into_iter().enumerate() {
        handle.join().unwrap_or_else(|_| panic!("client thread {i} panicked"));
    }
    server.shutdown();
}

#[test]
fn shutdown_with_in_flight_sessions_is_clean_and_returns_the_fleet() {
    let server = server(2, ServeConfig::default());
    let mut client = WireClient::connect(server.addr(), TIMEOUT).expect("connect");
    client.hello("acme").expect("hello");
    for d in 0..2 {
        assert!(matches!(client.register(d, SQL).expect("register"), Response::Registered { .. }));
    }
    assert_eq!(server.tenant_sessions("acme"), 2);

    // Shut down while the client still holds both sessions and never said Bye.
    let fleet = server.shutdown();
    // The server cancelled the in-flight sessions on the way out.
    assert_eq!(fleet.active_sessions(), 0, "in-flight sessions are cancelled on shutdown");
    // The client sees a closed connection, not a hang.
    match client.poll(1, 8) {
        Err(_) => {}
        Ok(outcome) => panic!("expected a closed connection, got {outcome:?}"),
    }
}

#[test]
fn a_connection_dropped_without_bye_releases_its_quota() {
    let server = server(1, ServeConfig { max_sessions_per_tenant: 1, ..ServeConfig::default() });
    {
        let mut client = WireClient::connect(server.addr(), TIMEOUT).expect("connect");
        client.hello("acme").expect("hello");
        assert!(matches!(client.register(0, SQL).expect("register"), Response::Registered { .. }));
        // Dropped here: no Cancel, no Bye.
    }
    // The server notices the disconnect and frees the quota slot; a new connection
    // of the same tenant can register again.  Allow a little time for the worker
    // pool to observe the EOF.
    let mut admitted = false;
    for _ in 0..100 {
        let mut client = WireClient::connect(server.addr(), TIMEOUT).expect("connect");
        client.hello("acme").expect("hello");
        match client.register(0, SQL).expect("answered") {
            Response::Registered { session, .. } => {
                admitted = true;
                let _ = client.cancel(session);
                let _ = client.bye();
                break;
            }
            Response::Rejected { .. } => std::thread::sleep(Duration::from_millis(10)),
            other => panic!("expected Registered or Rejected, got {other:?}"),
        }
    }
    assert!(admitted, "the dropped connection's quota slot was never released");
    server.shutdown();
}

const HISTORIC_SQL: &str =
    "SELECT TOP 2 epoch, AVG(sound) FROM sensors GROUP BY epoch WITH HISTORY 8 epochs";
const AS_OF_SQL: &str =
    "SELECT TOP 2 epoch, AVG(sound) FROM sensors GROUP BY epoch WITH HISTORY 8 epochs AS OF 7";

#[test]
fn as_of_time_travel_is_served_over_the_wire() {
    // A fleet that keeps no durable snapshots refuses AS OF with a wire-safe 400
    // (never a panic — the SQL is attacker-controlled).
    let server = WireServer::start(fleet(1), ServeConfig::default()).expect("bind loopback");
    let mut client = WireClient::connect(server.addr(), TIMEOUT).expect("connect");
    match client.register(0, AS_OF_SQL).expect("answered") {
        Response::Error { code: 400, reason } => {
            assert!(reason.contains("no durable snapshots"), "{reason}");
        }
        other => panic!("expected a 400, got {other:?}"),
    }
    client.bye().expect("bye");
    server.shutdown();

    // A checkpointing fleet serves time travel end to end.
    let server = WireServer::start(fleet(1).with_checkpointing(4), ServeConfig::default())
        .expect("bind loopback");
    let mut client = WireClient::connect(server.addr(), TIMEOUT).expect("connect");

    // Before any snapshot is retained the same SQL is still a 400...
    match client.register(0, AS_OF_SQL).expect("answered") {
        Response::Error { code: 400, reason } => {
            assert!(reason.contains("no retained checkpoint"), "{reason}");
        }
        other => panic!("expected a 400, got {other:?}"),
    }

    // ...so buffer the window first: a live historic session creates the shared
    // bank, and the cadence-4 store retains snapshots at epochs 3 and 7.
    let live = match client.register(0, HISTORIC_SQL).expect("register") {
        Response::Registered { session, .. } => session,
        other => panic!("expected Registered, got {other:?}"),
    };
    assert!(matches!(client.advance(8).expect("advance"), Response::Advanced { .. }));
    let live_outcome = client.poll(live, 8).expect("poll");
    assert_eq!(live_outcome.status, STATUS_COMPLETED);
    assert_eq!(live_outcome.answers.len(), 1, "the window filled, the session answered");

    // Now AS OF 7 admits, answers on the next tick, and the answer is stamped with
    // the snapshot epoch.  The snapshot taken at epoch 7 holds exactly the window
    // the live session answered from, so on this lossless substrate the travelled
    // answer reproduces the live one item for item.
    let travel = match client.register(0, AS_OF_SQL).expect("register") {
        Response::Registered { session, algorithm, .. } => {
            assert!(!algorithm.is_empty());
            session
        }
        other => panic!("expected Registered, got {other:?}"),
    };
    assert!(matches!(client.advance(1).expect("advance"), Response::Advanced { .. }));
    let outcome = client.poll(travel, 8).expect("poll");
    assert_eq!(outcome.status, STATUS_COMPLETED);
    assert_eq!(outcome.answers.len(), 1, "an AS OF session answers exactly once");
    let Response::Answer { epoch, ref items, .. } = outcome.answers[0] else {
        panic!("expected Answer, got {:?}", outcome.answers[0])
    };
    assert_eq!(epoch, 7, "the answer carries the snapshot epoch, not the tick epoch");
    let Response::Answer { items: ref live_items, .. } = live_outcome.answers[0] else {
        panic!("expected Answer, got {:?}", live_outcome.answers[0])
    };
    assert_eq!(items, live_items, "time travel reproduces the live answer");

    client.bye().expect("bye");
    server.shutdown();
}

#[test]
fn a_self_ticking_server_produces_byte_identical_answers_to_advance_driven_ticks() {
    const WANT: usize = 5;

    // The paced server ticks itself: no Advance request is ever sent, yet answers
    // accumulate on their own.
    let paced = WireServer::start(
        fleet(1),
        ServeConfig { pacer: Some(Duration::from_millis(20)), ..ServeConfig::default() },
    )
    .expect("bind loopback");
    let mut client = WireClient::connect(paced.addr(), TIMEOUT).expect("connect");
    let session = match client.register(0, SQL).expect("register") {
        Response::Registered { session, .. } => session,
        other => panic!("expected Registered, got {other:?}"),
    };
    let mut paced_answers = Vec::new();
    let deadline = std::time::Instant::now() + TIMEOUT;
    while paced_answers.len() < WANT && std::time::Instant::now() < deadline {
        let outcome = client.poll(session, 32).expect("poll");
        paced_answers.extend(outcome.answers);
        if paced_answers.len() < WANT {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    assert!(
        paced_answers.len() >= WANT,
        "the pacer thread must advance the fleet without any Advance request"
    );
    assert!(matches!(client.cancel(session).expect("cancel"), Response::Cancelled { .. }));
    client.bye().expect("bye");
    paced.shutdown();
    paced_answers.truncate(WANT);
    let Response::Answer { epoch: first_epoch, .. } = paced_answers[0] else {
        panic!("expected Answer, got {:?}", paced_answers[0])
    };

    // The Advance-driven twin: spin a fresh fleet to the epoch the paced session
    // registered at (the pacer had already ticked by then), register the same SQL —
    // same first session, same scope — and drive the same window by hand.
    let manual = WireServer::start(fleet(1), ServeConfig::default()).expect("bind loopback");
    let mut client = WireClient::connect(manual.addr(), TIMEOUT).expect("connect");
    let mut remaining = first_epoch;
    while remaining > 0 {
        let chunk = remaining.min(1024) as u32;
        assert!(matches!(client.advance(chunk).expect("advance"), Response::Advanced { .. }));
        remaining -= u64::from(chunk);
    }
    let manual_session = match client.register(0, SQL).expect("register") {
        Response::Registered { session, .. } => session,
        other => panic!("expected Registered, got {other:?}"),
    };
    assert_eq!(manual_session, session, "first registration on both servers");
    assert!(matches!(client.advance(WANT as u32).expect("advance"), Response::Advanced { .. }));
    let outcome = client.poll(manual_session, 32).expect("poll");
    assert_eq!(
        outcome.answers, paced_answers,
        "tick-driven and Advance-driven epochs must produce byte-identical answers"
    );
    client.bye().expect("bye");
    manual.shutdown();
}

#[test]
fn a_request_sent_in_tiny_pieces_is_still_one_frame() {
    let server = server(1, ServeConfig::default());
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_read_timeout(Some(TIMEOUT)).expect("timeout");
    stream.set_nodelay(true).expect("nodelay");

    let frame =
        kspot_serve::proto::encode_request(&Request::Register { deployment: 0, sql: SQL.into() })
            .expect("encodes");
    for byte in &frame {
        stream.write_all(std::slice::from_ref(byte)).expect("write");
        std::thread::sleep(Duration::from_micros(200));
    }
    // Welcome + Registered arrive framed as usual.
    let mut buf = Vec::new();
    let mut pos = 0;
    let mut chunk = [0u8; 1024];
    let deadline = std::time::Instant::now() + TIMEOUT;
    let mut responses = Vec::new();
    while responses.len() < 2 && std::time::Instant::now() < deadline {
        let n = stream.read(&mut chunk).expect("read");
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
        while let Some(body) =
            kspot_serve::proto::extract_frame(&buf, &mut pos, 64 * 1024).expect("well-framed")
        {
            responses.push(kspot_serve::proto::decode_response(body).expect("decodes"));
        }
    }
    assert!(matches!(responses[0], Response::Welcome { .. }));
    assert!(matches!(responses[1], Response::Registered { .. }), "{responses:?}");
    server.shutdown();
}
