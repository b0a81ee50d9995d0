//! The wire front-end: a TCP listener and a fixed worker pool fronting an
//! [`EngineFleet`] (ADR-007).
//!
//! # Architecture
//!
//! One acceptor thread turns incoming TCP connections into non-blocking,
//! `TCP_NODELAY` `Conn` records on a shared ready-queue; a **fixed** pool of worker
//! threads repeatedly pops a connection, services it and pushes it back.  A
//! connection is owned by at most one worker at a time, so per-connection state needs
//! no locking; the fleet's own shard locks serialise engine access exactly as for
//! in-process callers.
//!
//! # The service round and the reply path
//!
//! One round = write what is left of the outbox, read whatever the socket has
//! (unless over the outbox budget), handle every complete frame, write again.  Each
//! response is encoded straight onto the end of the connection's outbox — **one
//! contiguous byte queue**, exactly the bytes not yet written — so however many
//! frames a round produced (a `Poll` is `Answer`… + `Flushed`) they leave in one
//! `write`, normally one TCP segment.  Nagle is off on every accepted socket and is
//! not configurable: a request/reply protocol never wants a reply's tail held back
//! for the peer's delayed ACK (ADR-007, "Reply path").
//!
//! # The trust boundary
//!
//! Everything past `accept()` is untrusted:
//!
//! * **Framing** — length prefixes are capped ([`ServeConfig::max_frame_bytes`]);
//!   an oversized or malformed frame earns a best-effort 400 and a close, since a
//!   violated framing layer cannot be resynchronised.
//! * **Admission** — per-tenant session quotas and the fleet/per-shard caps come
//!   back as 429-style [`Response::Rejected`] frames, not errors; the connection
//!   stays usable.
//! * **Backpressure** — each connection's outbox has a byte budget
//!   ([`ServeConfig::outbox_capacity_bytes`]).  While it is over budget the worker
//!   stops *reading* from the socket (TCP pushes back on the client) and polls
//!   deliver fewer results per round ([`Response::Flushed`] reports the remainder),
//!   so a slow reader costs bounded memory, never an OOM.
//! * **Panic isolation** — every fleet/session call is wrapped in `catch_unwind`;
//!   a poisoned deployment degrades to 503-style [`Response::Unavailable`] frames
//!   for requests routed at it, while other shards keep serving (ADR-006/007).

use crate::proto::{
    self, decode_request, ProtoError, Request, Response, PROTOCOL_VERSION, STATUS_ACTIVE,
    STATUS_CANCELLED, STATUS_COMPLETED,
};
use kspot_core::{AdmissionScope, EngineFleet, FleetError, Session, SessionStatus};
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Tenant name billed for connections that never send [`Request::Hello`].
pub const ANONYMOUS_TENANT: &str = "anonymous";

/// How long an idle worker waits on the ready-queue, and how long the acceptor backs
/// off after a failed `accept()`, before looking at `shutdown` again.
const IDLE_WAIT: Duration = Duration::from_millis(10);

/// Tuning knobs of a [`WireServer`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Fixed worker threads servicing connections (clamped to at least 1).
    pub workers: usize,
    /// Ceiling on one frame's body; larger length prefixes close the connection.
    pub max_frame_bytes: usize,
    /// Byte budget of each connection's outbox; past it the server stops reading
    /// from that socket and polls deliver fewer results.
    pub outbox_capacity_bytes: usize,
    /// Most concurrently-active sessions one tenant may hold across connections.
    pub max_sessions_per_tenant: usize,
    /// When set, a pacer thread advances every healthy deployment by one epoch at
    /// this interval (for serving without a client driving [`Request::Advance`]).
    pub pacer: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            max_frame_bytes: proto::DEFAULT_MAX_FRAME_BYTES,
            outbox_capacity_bytes: 256 * 1024,
            max_sessions_per_tenant: 16,
            pacer: None,
        }
    }
}

/// One admitted session as seen by a connection.
struct WireSession {
    session: Session,
    deployment: usize,
    /// The tenant whose quota slot this session holds (pinned at registration, so a
    /// later `Hello` cannot leak or double-free another tenant's slot).
    tenant: String,
    /// Delivery cursor into the session's results (the wire cursor is per-connection
    /// state, independent of the in-process `poll()` cursor).
    cursor: usize,
    /// Whether this session's tenant-quota slot has been given back (on cancel, on
    /// drain-after-completion, or on connection cleanup).
    released: bool,
}

/// Per-connection state; owned by exactly one worker at a time.
struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet handled; between rounds at most a partial frame.
    inbuf: Vec<u8>,
    /// Encoded response frames the socket has not accepted yet, back to back; its
    /// length is what [`ServeConfig::outbox_capacity_bytes`] budgets.
    outbox: Vec<u8>,
    tenant: String,
    sessions: HashMap<u64, WireSession>,
    next_session: u64,
    /// Set when the connection should close once the outbox drains.
    closing: bool,
    /// EOF or I/O error: drop immediately, outbox or not.
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            inbuf: Vec::new(),
            outbox: Vec::new(),
            tenant: ANONYMOUS_TENANT.to_string(),
            sessions: HashMap::new(),
            next_session: 1,
            closing: false,
            dead: false,
        }
    }

    fn push_response(&mut self, resp: &Response) {
        // Unreachable with clipped reasons, but a connection is never worth a panic:
        // drop it instead.
        if proto::encode_response_into(&mut self.outbox, resp).is_err() {
            self.dead = true;
        }
    }

    fn done(&self) -> bool {
        self.dead || (self.closing && self.outbox.is_empty())
    }
}

/// Everything the acceptor, workers and pacer share.
struct Shared {
    fleet: EngineFleet,
    config: ServeConfig,
    ready: Mutex<VecDeque<Conn>>,
    ready_cv: Condvar,
    shutdown: AtomicBool,
    /// Active sessions per tenant (the quota ledger).
    tenants: Mutex<HashMap<String, usize>>,
}

impl Shared {
    fn new(fleet: EngineFleet, config: ServeConfig) -> Self {
        Self {
            fleet,
            config,
            ready: Mutex::new(VecDeque::new()),
            ready_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            tenants: Mutex::new(HashMap::new()),
        }
    }

    /// The ledger holds an entry only while a tenant has active sessions, so tenant
    /// names — which any client can make up — cannot grow it without bound.
    fn take_quota(&self, tenant: &str) -> Result<(), usize> {
        let mut ledger = self.tenants.lock().expect("tenant ledger poisoned");
        let count = ledger.get(tenant).copied().unwrap_or(0);
        if count >= self.config.max_sessions_per_tenant {
            return Err(count);
        }
        ledger.insert(tenant.to_string(), count + 1);
        Ok(())
    }

    fn release_quota(&self, tenant: &str) {
        let mut ledger = self.tenants.lock().expect("tenant ledger poisoned");
        if let Some(count) = ledger.get_mut(tenant) {
            *count -= 1;
            if *count == 0 {
                ledger.remove(tenant);
            }
        }
    }
}

/// A running wire front-end.  Bound to a loopback port on [`WireServer::start`];
/// stopped (joining every thread and cancelling in-flight sessions) by
/// [`WireServer::shutdown`] or on drop.
pub struct WireServer {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    pacer: Option<JoinHandle<()>>,
}

impl WireServer {
    /// Binds `127.0.0.1:0` and starts the acceptor, worker and (optional) pacer
    /// threads fronting `fleet`.
    pub fn start(fleet: EngineFleet, config: ServeConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared::new(fleet, config.clone()));

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("kspot-serve-accept".into())
                .spawn(move || accept_loop(listener, shared))?
        };
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("kspot-serve-{i}"))
                    .spawn(move || worker_loop(shared))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        let pacer = match config.pacer {
            None => None,
            Some(interval) => {
                let shared = Arc::clone(&shared);
                Some(
                    std::thread::Builder::new()
                        .name("kspot-serve-pacer".into())
                        .spawn(move || pacer_loop(shared, interval))?,
                )
            }
        };

        Ok(Self { shared, addr, acceptor: Some(acceptor), workers, pacer })
    }

    /// The loopback address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Health/quota introspection: active sessions currently billed to `tenant`.
    pub fn tenant_sessions(&self, tenant: &str) -> usize {
        self.shared.tenants.lock().expect("tenant ledger poisoned").get(tenant).copied().unwrap_or(0)
    }

    /// The fleet behind this server (e.g. to inspect shard health in tests).
    pub fn fleet(&self) -> &EngineFleet {
        &self.shared.fleet
    }

    /// Stops accepting, drains and closes every connection (cancelling sessions
    /// that are still in flight), joins all threads and returns the fleet.
    pub fn shutdown(mut self) -> EngineFleet {
        self.stop();
        // `stop` joined every thread, so this is the last strong reference.
        let shared = self.shared.clone();
        drop(self);
        match Arc::try_unwrap(shared) {
            Ok(shared) => shared.fleet,
            Err(_) => unreachable!("all server threads were joined"),
        }
    }

    fn stop(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the acceptor's blocking `accept()` with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        self.shared.ready_cv.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        if let Some(handle) = self.pacer.take() {
            let _ = handle.join();
        }
        // Workers exited; clean up whatever connections are still queued.
        let mut queue = self.shared.ready.lock().expect("ready queue poisoned");
        while let Some(mut conn) = queue.pop_front() {
            cleanup(&self.shared, &mut conn);
        }
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        let accepted = listener.accept();
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok((stream, _peer)) = accepted else {
            // Out of descriptors (`EMFILE`/`ENFILE`) fails again at once: back off
            // instead of spinning on `accept()`.
            std::thread::sleep(IDLE_WAIT);
            continue;
        };
        if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
            continue;
        }
        let mut conn = Conn::new(stream);
        conn.push_response(&Response::Welcome {
            protocol: PROTOCOL_VERSION,
            deployments: shared.fleet.deployments() as u32,
        });
        let mut queue = shared.ready.lock().expect("ready queue poisoned");
        queue.push_back(conn);
        drop(queue);
        shared.ready_cv.notify_one();
    }
}

fn worker_loop(shared: Arc<Shared>) {
    loop {
        let conn = {
            let mut queue = shared.ready.lock().expect("ready queue poisoned");
            loop {
                if let Some(conn) = queue.pop_front() {
                    break Some(conn);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                let (q, _) = shared
                    .ready_cv
                    .wait_timeout(queue, IDLE_WAIT)
                    .expect("ready queue poisoned");
                queue = q;
            }
        };
        let Some(mut conn) = conn else { return };

        if shared.shutdown.load(Ordering::SeqCst) {
            // Drain politely: one last flush, then close.
            let _ = flush_outbox(&mut conn);
            cleanup(&shared, &mut conn);
            continue;
        }

        let progressed = service(&shared, &mut conn);
        if conn.done() {
            cleanup(&shared, &mut conn);
            continue;
        }
        if !progressed {
            // Idle connection: brief backoff so a quiet fleet of connections does
            // not spin the worker pool at 100% CPU.
            std::thread::sleep(Duration::from_micros(200));
        }
        let mut queue = shared.ready.lock().expect("ready queue poisoned");
        queue.push_back(conn);
        drop(queue);
        shared.ready_cv.notify_one();
    }
}

fn pacer_loop(shared: Arc<Shared>, interval: Duration) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        let _poisoned = shared.fleet.run_epochs_surviving(1);
        std::thread::sleep(interval);
    }
}

/// Releases the connection's resources: unreleased sessions are cancelled and their
/// quota slots returned.
fn cleanup(shared: &Shared, conn: &mut Conn) {
    let _ = conn.stream.shutdown(std::net::Shutdown::Both);
    for (_, mut wire) in conn.sessions.drain() {
        if !wire.released {
            // A poisoned shard panics on cancel; the slot is released either way.
            let _ = catch_unwind(AssertUnwindSafe(|| wire.session.cancel()));
            shared.release_quota(&wire.tenant);
        }
    }
}

/// One service round: flush, read (unless over the outbox budget), handle complete
/// frames, flush again.  Returns whether any bytes moved or frames were handled.
fn service(shared: &Shared, conn: &mut Conn) -> bool {
    let mut progressed = flush_outbox(conn);
    if conn.dead || conn.closing {
        return progressed;
    }

    // Backpressure: while the outbox is over budget the socket is not read, so the
    // peer's TCP window fills and the slow reader is throttled at its own pace.
    if conn.outbox.len() < shared.config.outbox_capacity_bytes {
        progressed |= read_some(conn, shared.config.max_frame_bytes);
    }

    // Frames are handled in place; what they consumed is dropped once, after the loop.
    let inbuf = std::mem::take(&mut conn.inbuf);
    let mut consumed = 0;
    loop {
        match proto::extract_frame(&inbuf, &mut consumed, shared.config.max_frame_bytes) {
            Ok(None) => break,
            Ok(Some(body)) => {
                progressed = true;
                handle_frame(shared, conn, body);
                if conn.closing || conn.dead {
                    break;
                }
            }
            Err(e) => {
                progressed = true;
                conn.push_response(&Response::Error { code: 400, reason: e.to_string() });
                conn.closing = true;
                break;
            }
        }
    }
    conn.inbuf = inbuf;
    conn.inbuf.drain(..consumed);

    progressed |= flush_outbox(conn);
    progressed
}

/// Writes as much of the outbox as the socket accepts right now — the whole queue
/// in one `write` unless the socket pushes back — and drops what was written.
fn flush_outbox(conn: &mut Conn) -> bool {
    let mut written = 0;
    while written < conn.outbox.len() {
        match conn.stream.write(&conn.outbox[written..]) {
            Ok(n) if n > 0 => written += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            // `Ok(0)` or a hard error: the peer is gone.
            _ => {
                conn.dead = true;
                break;
            }
        }
    }
    conn.outbox.drain(..written);
    written > 0
}

/// Reads whatever the socket has ready into the connection buffer, stopping once
/// the buffer holds at least two maximum-size frames — a peer that streams bytes
/// faster than we handle frames still costs bounded memory.
fn read_some(conn: &mut Conn, max_frame: usize) -> bool {
    let mut progressed = false;
    let mut chunk = [0u8; 4096];
    loop {
        if conn.inbuf.len() > 2 * (4 + max_frame) {
            return progressed;
        }
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.dead = true;
                return progressed;
            }
            Ok(n) => {
                progressed = true;
                conn.inbuf.extend_from_slice(&chunk[..n]);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return progressed,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                return progressed;
            }
        }
    }
}

fn handle_frame(shared: &Shared, conn: &mut Conn, body: &[u8]) {
    let request = match decode_request(body) {
        Ok(request) => request,
        Err(e @ (ProtoError::BadTag(_) | ProtoError::Truncated | ProtoError::TrailingBytes)) => {
            // Framing is intact but the body is garbage — the stream itself cannot
            // be trusted any further.
            conn.push_response(&Response::Error { code: 400, reason: e.to_string() });
            conn.closing = true;
            return;
        }
        Err(e) => {
            conn.push_response(&Response::Error { code: 400, reason: e.to_string() });
            return;
        }
    };
    match request {
        Request::Hello { tenant } => {
            conn.tenant = if tenant.is_empty() { ANONYMOUS_TENANT.to_string() } else { tenant };
        }
        Request::Register { deployment, sql } => handle_register(shared, conn, deployment, &sql),
        Request::Poll { session, max } => handle_poll(shared, conn, session, max),
        Request::Cancel { session } => handle_cancel(shared, conn, session),
        Request::Advance { epochs } => {
            let epochs = epochs.min(1024); // a wire request cannot spin the fleet for hours
            let poisoned = shared.fleet.run_epochs_surviving(epochs as usize);
            conn.push_response(&Response::Advanced {
                epochs,
                poisoned: poisoned.into_iter().map(|d| d as u32).collect(),
            });
        }
        Request::Bye => {
            conn.push_response(&Response::Bye);
            conn.closing = true;
        }
    }
}

fn handle_register(shared: &Shared, conn: &mut Conn, deployment: u32, sql: &str) {
    if shared.take_quota(&conn.tenant).is_err() {
        conn.push_response(&Response::Rejected {
            code: 429,
            reason: format!(
                "tenant `{}` already holds {} active sessions (quota)",
                conn.tenant, shared.config.max_sessions_per_tenant
            ),
        });
        return;
    }
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        shared.fleet.try_register(deployment as usize, sql)
    }));
    let response = match outcome {
        Ok(Ok(session)) => {
            let wire_id = conn.next_session;
            conn.next_session += 1;
            let algorithm = session.algorithm().to_string();
            conn.sessions.insert(
                wire_id,
                WireSession {
                    session,
                    deployment: deployment as usize,
                    tenant: conn.tenant.clone(),
                    cursor: 0,
                    released: false,
                },
            );
            conn.push_response(&Response::Registered {
                session: wire_id,
                deployment,
                algorithm,
            });
            return;
        }
        Ok(Err(e)) => fleet_error_response(e),
        Err(_) => Response::Unavailable {
            code: 503,
            deployment,
            reason: format!("deployment {deployment} panicked during registration"),
        },
    };
    shared.release_quota(&conn.tenant);
    conn.push_response(&response);
}

/// Maps the fleet's typed error surface onto wire frames (the whole point of
/// [`EngineFleet::try_register`] — see ADR-007's error taxonomy).
fn fleet_error_response(e: FleetError) -> Response {
    match e {
        FleetError::Rejected { scope, active, cap } => Response::Rejected {
            code: 429,
            reason: match scope {
                AdmissionScope::Fleet => {
                    format!("fleet admission rejected: {active} active sessions (cap {cap})")
                }
                AdmissionScope::Deployment(d) => format!(
                    "deployment {d} admission rejected: {active} active sessions (cap {cap})"
                ),
            },
        },
        FleetError::Unhealthy { deployment } => Response::Unavailable {
            code: 503,
            deployment: deployment as u32,
            reason: format!("deployment {deployment} is poisoned"),
        },
        e @ (FleetError::UnknownDeployment { .. } | FleetError::Query(_)) => {
            Response::Error { code: 400, reason: e.to_string() }
        }
    }
}

fn handle_poll(shared: &Shared, conn: &mut Conn, wire_id: u64, max: u32) {
    let Some(wire) = conn.sessions.get_mut(&wire_id) else {
        conn.push_response(&Response::Error {
            code: 400,
            reason: format!("unknown session {wire_id}"),
        });
        return;
    };
    // Deliver from the wire cursor, bounded by the client's `max` AND the outbox
    // byte budget: a slow reader gets fewer answers per poll (plus the pending
    // count), never an unbounded outbox — and no more results than could fit are read.
    let budget = shared.config.outbox_capacity_bytes;
    let room = budget.saturating_sub(conn.outbox.len()) / proto::MIN_ANSWER_FRAME_BYTES;
    let page = catch_unwind(AssertUnwindSafe(|| {
        wire.session.results_page(wire.cursor, room.min(max as usize))
    }));
    let Ok(page) = page else {
        let deployment = wire.deployment;
        conn.push_response(&Response::Unavailable {
            code: 503,
            deployment: deployment as u32,
            reason: format!("deployment {deployment} is poisoned"),
        });
        return;
    };

    let mut delivered = 0u32;
    for result in &page.results {
        let frame_start = conn.outbox.len();
        let items = result.items.iter().map(|i| (i.key, i.value));
        proto::encode_answer_into(&mut conn.outbox, wire_id, result.epoch, items);
        if conn.outbox.len() > budget {
            conn.outbox.truncate(frame_start);
            break;
        }
        delivered += 1;
    }
    wire.cursor += delivered as usize;
    let pending = page.total.saturating_sub(wire.cursor) as u32;
    let status_byte = match page.status {
        SessionStatus::Active => STATUS_ACTIVE,
        SessionStatus::Completed => STATUS_COMPLETED,
        SessionStatus::Cancelled => STATUS_CANCELLED,
    };
    // A finished session whose results are fully delivered stops counting against
    // the tenant's quota.
    if page.status != SessionStatus::Active && pending == 0 && !wire.released {
        wire.released = true;
        shared.release_quota(&wire.tenant);
    }
    conn.push_response(&Response::Flushed {
        session: wire_id,
        delivered,
        pending,
        status: status_byte,
    });
}

fn handle_cancel(shared: &Shared, conn: &mut Conn, wire_id: u64) {
    let Some(wire) = conn.sessions.get_mut(&wire_id) else {
        conn.push_response(&Response::Error {
            code: 400,
            reason: format!("unknown session {wire_id}"),
        });
        return;
    };
    let was_active =
        catch_unwind(AssertUnwindSafe(|| wire.session.cancel())).unwrap_or(false);
    if !wire.released {
        wire.released = true;
        shared.release_quota(&wire.tenant);
    }
    // The entry stays: results produced before the cancel remain drainable via
    // `Poll` (which now reports `STATUS_CANCELLED`) until the connection closes.
    conn.push_response(&Response::Cancelled { session: wire_id, was_active });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{decode_response, extract_frame};
    use kspot_core::{ScenarioConfig, WorkloadSpec};
    use kspot_net::{NetworkConfig, RoomModelParams};
    use std::time::Instant;

    const SQL: &str = "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid";

    fn shared(config: ServeConfig) -> Shared {
        let fleet = EngineFleet::homogeneous(
            ScenarioConfig::conference(),
            WorkloadSpec::RoomCorrelated(RoomModelParams::default()),
            NetworkConfig::mica2(),
            7,
            1,
            1,
        );
        Shared::new(fleet, config)
    }

    /// A `Conn` as `accept_loop` makes them, and the client end of its socket.
    fn conn_pair() -> (Conn, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let peer = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (stream, _) = listener.accept().expect("accept");
        stream.set_nonblocking(true).expect("nonblocking");
        stream.set_nodelay(true).expect("nodelay");
        (Conn::new(stream), peer)
    }

    #[test]
    fn the_tenant_ledger_keeps_no_entry_for_a_tenant_without_active_sessions() {
        // A rejection must not create an entry...
        let closed = shared(ServeConfig { max_sessions_per_tenant: 0, ..ServeConfig::default() });
        assert_eq!(closed.take_quota("nobody"), Err(0));
        assert!(closed.tenants.lock().unwrap().is_empty());

        // ...and the last release removes it.
        let shared = shared(ServeConfig { max_sessions_per_tenant: 1, ..ServeConfig::default() });
        let (mut conn, _peer) = conn_pair();
        for i in 0..1000u64 {
            conn.tenant = format!("tenant-{i}");
            handle_register(&shared, &mut conn, 0, SQL);
            handle_register(&shared, &mut conn, 0, SQL); // over quota: a 429
            assert_eq!(shared.tenants.lock().unwrap().get(&conn.tenant), Some(&1));
            handle_cancel(&shared, &mut conn, i + 1);
            conn.outbox.clear();
        }
        assert!(shared.tenants.lock().unwrap().is_empty(), "1 000 tenants came and went");
    }

    #[test]
    fn a_reply_nobody_reads_stays_within_the_budget_plus_one_frame() {
        const EPOCHS: u32 = 100; // ≈ 5.7 KB of TOP-2 answers against a 1 KiB budget
        const FLUSHED_FRAME_BYTES: usize = 4 + 1 + 8 + 4 + 4 + 1;
        let budget = 1024;
        let shared =
            shared(ServeConfig { outbox_capacity_bytes: budget, ..ServeConfig::default() });
        let (mut conn, mut peer) = conn_pair();
        handle_register(&shared, &mut conn, 0, SQL);
        assert!(shared.fleet.run_epochs_surviving(EPOCHS as usize).is_empty());
        conn.outbox.clear(); // the Registered frame is not part of the reply under test

        // The reader stalls mid-reply: nothing is flushed, every byte stays queued.
        handle_poll(&shared, &mut conn, 1, u32::MAX);
        let first_reply = conn.outbox.len();
        assert!(first_reply <= budget + FLUSHED_FRAME_BYTES, "{first_reply} bytes retained");
        assert!(first_reply > budget / 2, "the budget is there to be used");
        // Polls pipelined behind it add their `Flushed` frame and not one answer.
        handle_poll(&shared, &mut conn, 1, u32::MAX);
        assert_eq!(conn.outbox.len(), first_reply + FLUSHED_FRAME_BYTES);

        // Once the reader is back the whole queue leaves in one flush, intact.
        assert!(flush_outbox(&mut conn));
        assert!(conn.outbox.is_empty() && !conn.dead);
        let mut reply = vec![0u8; first_reply + FLUSHED_FRAME_BYTES];
        peer.read_exact(&mut reply).expect("the reply arrives");
        let (mut pos, mut answers) = (0, 0);
        let mut next = || {
            let body = extract_frame(&reply, &mut pos, budget).expect("framed").expect("complete");
            decode_response(body).expect("decodes")
        };
        let flushed = loop {
            match next() {
                Response::Answer { session: 1, .. } => answers += 1,
                other => break other,
            }
        };
        let pending = EPOCHS - answers;
        assert!(answers > 0 && pending > 0);
        let status = STATUS_ACTIVE;
        assert_eq!(flushed, Response::Flushed { session: 1, delivered: answers, pending, status });
        assert_eq!(next(), Response::Flushed { session: 1, delivered: 0, pending, status });
    }

    #[test]
    fn a_partial_write_drops_exactly_the_written_prefix() {
        // More than the kernel buffers of a loopback socket hold while nobody reads.
        const TOTAL: usize = 16 << 20;
        let (mut conn, mut peer) = conn_pair();
        conn.outbox = (0..TOTAL).map(|i| (i % 251) as u8).collect();
        assert!(flush_outbox(&mut conn), "the socket takes what it has room for");
        assert!(!conn.outbox.is_empty() && conn.outbox.len() < TOTAL, "and no more");

        // The reader catches up; every flush releases what it wrote and nothing else.
        peer.set_nonblocking(true).expect("nonblocking peer");
        let mut received = Vec::with_capacity(TOTAL);
        let mut chunk = vec![0u8; 1 << 20];
        let deadline = Instant::now() + Duration::from_secs(30);
        while received.len() < TOTAL {
            assert!(Instant::now() < deadline, "the queue never drained");
            if let Ok(n) = peer.read(&mut chunk) {
                received.extend_from_slice(&chunk[..n]);
            }
            let before = conn.outbox.len();
            let progressed = flush_outbox(&mut conn);
            assert_eq!(progressed, conn.outbox.len() < before);
            assert!(!conn.dead);
        }
        assert!(conn.outbox.is_empty());
        assert!(received.iter().enumerate().all(|(i, &b)| b == (i % 251) as u8));
    }
}
