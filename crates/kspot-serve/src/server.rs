//! The wire front-end: a TCP listener and a fixed worker pool fronting an
//! [`EngineFleet`] (ADR-007).
//!
//! # Architecture
//!
//! One acceptor thread turns incoming TCP connections into non-blocking,
//! `TCP_NODELAY` `Conn` records; a **fixed** pool of worker threads services them.
//! A connection is owned by at most one worker at a time, so per-connection state
//! needs no locking; the fleet's own shard locks serialise engine access exactly as
//! for in-process callers.
//!
//! # Readiness
//!
//! Between service rounds a connection sits in the `Hub`: in `ready` when it has
//! work to do, in `idle` when its last round moved nothing.  A worker that finds
//! `ready` empty while nobody watches the idle sockets takes the whole idle set and
//! blocks in `poll(2)` on it plus a wake socket; every other free worker waits on a
//! condition variable, with no timeout.  When the poll returns, the connections the
//! kernel reported go to `ready`, the poller takes one, wakes one follower to take
//! over the poll, and services it — one thread wake-up on a request's critical path
//! and no thread of its own.  A connection is watched for input unless it is closing
//! or its outbox is at budget, and for room to write exactly while its outbox holds
//! bytes, so the backpressure rule below is what the kernel is asked about and a
//! stalled reader costs no CPU.  Parking a connection while a worker is inside
//! `poll` pushes it *then* writes a wake byte; the poller drains the byte *then*
//! re-reads the idle set, so no order of the two loses it.  An idle server, with
//! none or with a thousand connections, makes no wake-ups at all (ADR-011).
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
//! # Delivery and retention
//!
//! A connection holds one [`Session`] handle per session it admitted, and a `Poll`
//! delivers through it ([`Session::deliver`]): each answer is encoded from the
//! session's log straight onto the outbox, and the handle moves past exactly the
//! answers that went out, so the engine releases them.  A session left finished with
//! nothing to deliver, by a poll or a cancel, is retired: its handle drops, so the
//! engine reaps it, and a tombstone with its final status answers a later `Poll`
//! (`Flushed{0, 0, status}`) or `Cancel` (`Cancelled{was_active: false}`).  A
//! connection keeps the newest [`RETENTION_WINDOW`] tombstones; an evicted id is an
//! unknown session.  A connection that closes cancels what is still active, drains
//! every session it holds and drops the handles — it was their only consumer — so a
//! finished client leaves nothing behind (ADR-014, "Retention": "The wire").
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
use kspot_core::{AdmissionScope, Delivery, EngineFleet, FleetError, Session, SessionStatus};
use kspot_net::RETENTION_WINDOW;
use crate::sys::{self, PollFd, POLLIN, POLLOUT};
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// Tenant name billed for connections that never send [`Request::Hello`].
pub const ANONYMOUS_TENANT: &str = "anonymous";

/// How long the acceptor backs off after a failed `accept()`.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// The accept queue's length.  `std` listens with 128, which a few hundred clients
/// connecting at once overflow; a handshake lost on a full queue leaves a client of
/// this server-speaks-first protocol waiting for its `Welcome` until it times out.
const LISTEN_BACKLOG: i32 = 1024;

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
    /// The connection's handle of the session, its one wire consumer: a `Poll`
    /// delivers through it ([`Session::deliver`]), so the engine releases what it
    /// passed, and dropping it once the session is retired lets the engine reap it.
    session: Session,
    deployment: usize,
    /// The tenant whose quota slot this session holds (pinned at registration, so a
    /// later `Hello` cannot leak or double-free another tenant's slot).
    tenant: String,
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
    /// Tombstones of retired sessions — finished, fully delivered, handle dropped —
    /// with their final status, oldest first; at most [`RETENTION_WINDOW`].
    retired: VecDeque<(u64, SessionStatus)>,
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
            retired: VecDeque::new(),
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

    /// Retires session `wire_id`, finished with nothing left to deliver: its handle
    /// drops, so the engine may reap it, and a tombstone keeps its final `status` for
    /// later requests.  The oldest tombstone goes once [`RETENTION_WINDOW`] are kept.
    fn retire(&mut self, wire_id: u64, status: SessionStatus) {
        self.sessions.remove(&wire_id);
        if self.retired.len() == RETENTION_WINDOW {
            self.retired.pop_front();
        }
        self.retired.push_back((wire_id, status));
    }

    /// The final status of retired session `wire_id`, while its tombstone is kept.
    fn tombstone(&self, wire_id: u64) -> Option<SessionStatus> {
        self.retired.iter().find(|&&(id, _)| id == wire_id).map(|&(_, status)| status)
    }

    fn done(&self) -> bool {
        self.dead || (self.closing && self.outbox.is_empty())
    }

    /// What a parked connection waits for: input unless it is closing or its outbox
    /// is at `outbox_budget` (the rule `service` reads by), room to write exactly
    /// while the outbox holds bytes.  Never empty for a connection that is not
    /// `done`.
    fn interest(&self, outbox_budget: usize) -> i16 {
        let mut events = 0;
        if !self.closing && self.outbox.len() < outbox_budget {
            events |= POLLIN;
        }
        if !self.outbox.is_empty() {
            events |= POLLOUT;
        }
        events
    }
}

/// The connections no worker holds, and whether anyone is watching the idle ones.
#[derive(Default)]
struct Hub {
    /// Connections with work to do, in arrival order.
    ready: VecDeque<Conn>,
    /// Parked connections: nothing to do until their socket says otherwise.
    idle: Vec<Conn>,
    /// Whether a worker is inside `poll(2)` on the idle set it took.
    polling: bool,
}

/// Everything the acceptor, workers and pacer share.
struct Shared {
    fleet: EngineFleet,
    config: ServeConfig,
    hub: Mutex<Hub>,
    /// Where free workers wait while another one polls.
    hub_cv: Condvar,
    /// The wake socket: a byte written to `wake_tx` ends the poller's `poll(2)`.
    wake_tx: UnixStream,
    wake_rx: UnixStream,
    shutdown: AtomicBool,
    /// Active sessions per tenant (the quota ledger).
    tenants: Mutex<HashMap<String, usize>>,
}

impl Shared {
    fn new(fleet: EngineFleet, config: ServeConfig) -> std::io::Result<Self> {
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        // A full wake socket already says "wake up", and a drained one must not block.
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        Ok(Self {
            fleet,
            config,
            hub: Mutex::new(Hub::default()),
            hub_cv: Condvar::new(),
            wake_tx,
            wake_rx,
            shutdown: AtomicBool::new(false),
            tenants: Mutex::new(HashMap::new()),
        })
    }

    fn lock_hub(&self) -> MutexGuard<'_, Hub> {
        self.hub.lock().expect("connection hub poisoned")
    }

    /// Ends the current (or the next) `poll(2)` on the idle set.
    fn wake_poller(&self) {
        // `WouldBlock` means unread wake bytes are already queued.
        let _ = (&self.wake_tx).write(&[1]);
    }

    /// Gets every worker to look at `shutdown`, which the caller has set.  A worker
    /// that read the flag as unset held the hub lock doing so: once the lock has been
    /// taken here it is inside `wait` or `poll`, where the notification and the wake
    /// byte reach it.
    fn wake_all_workers(&self) {
        drop(self.lock_hub());
        self.hub_cv.notify_all();
        self.wake_poller();
    }

    /// Hands over a connection with nothing to do until its socket says otherwise.
    /// The push comes first and the wake byte second; the poller drains the byte
    /// first and re-reads `idle` second, so whichever way the two interleave the
    /// connection ends up in a polled set (ADR-011, "Lost wake-ups").
    fn park(&self, conn: Conn) {
        let mut hub = self.lock_hub();
        hub.idle.push(conn);
        let polling = hub.polling;
        drop(hub);
        if polling {
            self.wake_poller();
        }
    }

    /// Blocks until a connection has work to do and returns it; `None` once the
    /// server is shutting down and every connection has been handed out.
    fn next_conn(&self) -> Option<Conn> {
        let mut hub = self.lock_hub();
        loop {
            let shutdown = self.shutdown.load(Ordering::SeqCst);
            if shutdown {
                // Every connection gets its last flush and its cleanup.
                let Hub { ready, idle, .. } = &mut *hub;
                ready.extend(idle.drain(..));
            }
            if let Some(conn) = hub.ready.pop_front() {
                // Pass the baton: more work is queued, or nobody watches the sockets.
                if !hub.ready.is_empty() || !hub.polling {
                    self.hub_cv.notify_one();
                }
                return Some(conn);
            }
            if shutdown {
                return None;
            }
            if hub.polling {
                hub = self.hub_cv.wait(hub).expect("connection hub poisoned");
                continue;
            }
            hub.polling = true;
            let parked = std::mem::take(&mut hub.idle);
            drop(hub);
            PollTurn { shared: self, parked, fds: Vec::new() }.wait();
            hub = self.lock_hub();
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

/// One worker's turn as the poller: it holds the idle set it took while it is inside
/// `poll(2)`.  Dropping the turn — at the end of [`PollTurn::wait`] or by unwinding
/// out of it — gives every connection back and clears `polling`, so a panic in
/// here costs one worker and never the connections or the next poller's turn.
struct PollTurn<'a> {
    shared: &'a Shared,
    parked: Vec<Conn>,
    /// The wake socket, then one entry per parked connection, in order.
    fds: Vec<PollFd>,
}

impl PollTurn<'_> {
    /// Blocks until a parked socket is ready or somebody writes a wake byte, then
    /// ends the turn.
    fn wait(mut self) {
        let shared = self.shared;
        let budget = shared.config.outbox_capacity_bytes;
        self.fds.push(PollFd::new(shared.wake_rx.as_raw_fd(), POLLIN));
        self.fds.extend(
            self.parked.iter().map(|c| PollFd::new(c.stream.as_raw_fd(), c.interest(budget))),
        );
        if sys::wait(&mut self.fds, -1).is_err() {
            // Out of kernel memory: let every connection find out for itself what
            // its socket has — the non-blocking service round is always correct.
            self.fds.clear();
        }
        #[cfg(test)]
        tests::fault_after_poll();
        if self.fds.first().is_some_and(PollFd::ready) {
            // A short read has emptied the socket; a byte that lands after it ends
            // the next `poll`.
            let mut bytes = [0u8; 64];
            while matches!((&shared.wake_rx).read(&mut bytes), Ok(n) if n == bytes.len()) {}
        }
    }
}

impl Drop for PollTurn<'_> {
    fn drop(&mut self) {
        // A poisoned hub means a worker died holding it; nothing is left to hand to.
        let Ok(mut hub) = self.shared.hub.lock() else { return };
        hub.polling = false;
        // Without `poll`'s verdict (it failed, or this is an unwind before it ran)
        // every connection counts as ready.
        let mut verdicts = self.fds.iter().skip(1);
        for conn in self.parked.drain(..) {
            if verdicts.next().is_none_or(PollFd::ready) {
                hub.ready.push_back(conn);
            } else {
                hub.idle.push(conn);
            }
        }
        drop(hub);
        if std::thread::panicking() {
            // This worker will not come back to take a connection or the next turn.
            self.shared.hub_cv.notify_one();
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
        let listener = bind_loopback()?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared::new(fleet, config.clone())?);

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
        self.shared.wake_all_workers();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        if let Some(handle) = self.pacer.take() {
            let _ = handle.join();
        }
        // The workers drained the hub on their way out; what a worker that died
        // mid-shutdown left behind is cleaned up here.
        let leftovers: Vec<Conn> = {
            let mut hub = self.shared.lock_hub();
            let Hub { ready, idle, .. } = &mut *hub;
            ready.drain(..).chain(idle.drain(..)).collect()
        };
        for mut conn in leftovers {
            cleanup(&self.shared, &mut conn);
        }
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A loopback listener on an ephemeral port with [`LISTEN_BACKLOG`].
fn bind_loopback() -> std::io::Result<TcpListener> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    sys::set_backlog(&listener, LISTEN_BACKLOG)?;
    Ok(listener)
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
            std::thread::sleep(ACCEPT_BACKOFF);
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
        // The `Welcome` leaves from here — a fresh socket takes it whole — so the
        // connection is parked with nothing to write and no worker wakes for it
        // before the client's first request.
        flush_outbox(&mut conn);
        if !conn.dead {
            shared.park(conn);
        }
    }
}

fn worker_loop(shared: Arc<Shared>) {
    while let Some(mut conn) = shared.next_conn() {
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
        if progressed {
            // More may have arrived meanwhile: one more look, behind whatever else
            // is ready, before asking the kernel.
            shared.lock_hub().ready.push_back(conn);
        } else {
            shared.park(conn);
        }
    }
}

fn pacer_loop(shared: Arc<Shared>, interval: Duration) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        let _poisoned = shared.fleet.run_epochs_surviving(1);
        std::thread::sleep(interval);
    }
}

/// Releases the connection's resources: unreleased sessions are cancelled, every
/// session is drained and its handle dropped, and then the quota slots are returned.
/// The connection was each session's only consumer, so what it did not deliver nobody
/// will: the engine reaps the sessions (ADR-014, "Retention").
fn cleanup(shared: &Shared, conn: &mut Conn) {
    let _ = conn.stream.shutdown(std::net::Shutdown::Both);
    for (_, WireSession { mut session, tenant, released, .. }) in conn.sessions.drain() {
        // A poisoned shard panics on cancel and on delivery; the handle is dropped
        // (inside the closure, or by the unwind) and the slot released either way.
        let _ = catch_unwind(AssertUnwindSafe(move || {
            if !released {
                session.cancel();
            }
            session.deliver(usize::MAX, |_, _| true);
        }));
        if !released {
            shared.release_quota(&tenant);
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
        let response = match conn.tombstone(wire_id) {
            Some(status) => {
                Response::Flushed { session: wire_id, delivered: 0, pending: 0, status: status_byte(status) }
            }
            None => unknown_session(wire_id),
        };
        conn.push_response(&response);
        return;
    };
    // Deliver through the session's handle, bounded by the client's `max` AND the
    // outbox byte budget: a slow reader gets fewer answers per poll (plus the pending
    // count), never an unbounded outbox.  Each answer is encoded straight from the
    // session's log; one that would push the outbox past budget is refused, so the
    // handle stays on it and the next poll offers it first.
    let budget = shared.config.outbox_capacity_bytes;
    let room = budget.saturating_sub(conn.outbox.len()) / proto::MIN_ANSWER_FRAME_BYTES;
    let outbox = &mut conn.outbox;
    let delivery = catch_unwind(AssertUnwindSafe(|| {
        wire.session.deliver(room.min(max as usize), |epoch, items| {
            let frame_start = outbox.len();
            proto::encode_answer_into(outbox, wire_id, epoch, items.iter().map(|i| (i.key, i.value)));
            if outbox.len() > budget {
                outbox.truncate(frame_start);
                return false;
            }
            true
        })
    }));
    let Ok(Delivery { delivered, pending, status }) = delivery else {
        let deployment = wire.deployment;
        conn.push_response(&Response::Unavailable {
            code: 503,
            deployment: deployment as u32,
            reason: format!("deployment {deployment} is poisoned"),
        });
        return;
    };
    // A finished session whose results are fully delivered stops counting against
    // the tenant's quota, and is retired.
    let finished = status != SessionStatus::Active && pending == 0;
    if finished && !wire.released {
        wire.released = true;
        shared.release_quota(&wire.tenant);
    }
    conn.push_response(&Response::Flushed {
        session: wire_id,
        delivered: delivered as u32,
        pending: pending as u32,
        status: status_byte(status),
    });
    if finished {
        conn.retire(wire_id, status);
    }
}

fn handle_cancel(shared: &Shared, conn: &mut Conn, wire_id: u64) {
    let Some(wire) = conn.sessions.get_mut(&wire_id) else {
        let response = match conn.tombstone(wire_id) {
            Some(_) => Response::Cancelled { session: wire_id, was_active: false },
            None => unknown_session(wire_id),
        };
        conn.push_response(&response);
        return;
    };
    // An empty delivery consumes nothing and reports what is left to deliver.
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        (wire.session.cancel(), wire.session.deliver(0, |_, _| false))
    }));
    if !wire.released {
        wire.released = true;
        shared.release_quota(&wire.tenant);
    }
    let was_active = outcome.as_ref().is_ok_and(|&(was_active, _)| was_active);
    conn.push_response(&Response::Cancelled { session: wire_id, was_active });
    // Results produced before the cancel remain drainable via `Poll` (which now
    // reports `STATUS_CANCELLED`); a session with none left is retired at once.
    if let Ok((_, Delivery { pending: 0, status, .. })) = outcome {
        conn.retire(wire_id, status);
    }
}

fn unknown_session(wire_id: u64) -> Response {
    Response::Error { code: 400, reason: format!("unknown session {wire_id}") }
}

fn status_byte(status: SessionStatus) -> u8 {
    match status {
        SessionStatus::Active => STATUS_ACTIVE,
        SessionStatus::Completed => STATUS_COMPLETED,
        SessionStatus::Cancelled => STATUS_CANCELLED,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{decode_response, extract_frame};
    use kspot_core::{ScenarioConfig, WorkloadSpec};
    use kspot_net::{NetworkConfig, RoomModelParams};
    use std::sync::atomic::AtomicUsize;
    use std::time::Instant;

    /// How many of the next returns from `poll(2)` panic (see [`fault_after_poll`]).
    static POLL_FAULTS: AtomicUsize = AtomicUsize::new(0);

    /// The fault point between a poller's `poll(2)` and its re-lock of the hub.
    pub(super) fn fault_after_poll() {
        let armed =
            POLL_FAULTS.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1));
        assert!(armed.is_err(), "injected fault: the poller dies holding the idle set");
    }

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
        Shared::new(fleet, config).expect("wake socket pair")
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
    fn a_retired_session_answers_from_its_tombstone_until_it_is_evicted() {
        let shared = shared(ServeConfig { max_sessions_per_tenant: 1, ..ServeConfig::default() });
        let engine = shared.fleet.deployment(0).expect("deployment 0");
        let (mut conn, _peer) = conn_pair();
        // A session polled to its end is retired by that poll, and reaped.
        handle_register(&shared, &mut conn, 0, &format!("{SQL} LIFETIME 2 epochs"));
        assert!(shared.fleet.run_epochs_surviving(3).is_empty());
        handle_poll(&shared, &mut conn, 1, u32::MAX);
        assert!(conn.sessions.is_empty() && engine.session_ids().is_empty());
        // A cancel that leaves nothing to deliver retires the session too; the
        // tombstones keep the newest window of them.
        let last = RETENTION_WINDOW as u64 + 2;
        for wire_id in 2..=last {
            handle_register(&shared, &mut conn, 0, SQL);
            handle_cancel(&shared, &mut conn, wire_id);
        }
        assert!(conn.sessions.is_empty() && engine.session_ids().is_empty());
        assert_eq!(conn.retired.len(), RETENTION_WINDOW);
        conn.outbox.clear();

        handle_poll(&shared, &mut conn, last, 8);
        handle_cancel(&shared, &mut conn, last);
        handle_poll(&shared, &mut conn, 2, 8);
        handle_cancel(&shared, &mut conn, 1);
        let mut pos = 0;
        let mut next = || {
            let body = extract_frame(&conn.outbox, &mut pos, 1024).expect("framed").expect("complete");
            decode_response(body).expect("decodes")
        };
        let status = STATUS_CANCELLED;
        assert_eq!(next(), Response::Flushed { session: last, delivered: 0, pending: 0, status });
        assert_eq!(next(), Response::Cancelled { session: last, was_active: false });
        for evicted in [2, 1] {
            let reason = format!("unknown session {evicted}");
            assert_eq!(next(), Response::Error { code: 400, reason }, "evicted");
        }
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

    #[test]
    fn a_poller_that_panics_gives_back_the_idle_set_and_the_poll_turn() {
        let shared = Arc::new(shared(ServeConfig::default()));
        let (conn, peer) = conn_pair();
        shared.park(conn);
        POLL_FAULTS.store(1, Ordering::SeqCst);
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(shared))
            })
            .collect();

        // The request ends the first worker's poll and with it the worker; the
        // second one must find the connection and nobody holding the poll turn.
        let mut peer = peer;
        peer.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
        let request = Request::Register { deployment: 0, sql: SQL.to_string() };
        for _ in 0..3 {
            peer.write_all(&proto::encode_request(&request).expect("encodes")).expect("send");
            let mut len = [0u8; 4];
            peer.read_exact(&mut len).expect("the surviving worker answers");
            let mut body = vec![0u8; u32::from_be_bytes(len) as usize];
            peer.read_exact(&mut body).expect("a whole frame");
            let reply = decode_response(&body).expect("decodes");
            assert!(matches!(reply, Response::Registered { .. }), "{reply:?}");
        }
        assert_eq!(POLL_FAULTS.load(Ordering::SeqCst), 0, "the fault fired");

        shared.shutdown.store(true, Ordering::SeqCst);
        shared.wake_all_workers();
        let outcomes: Vec<bool> = workers.into_iter().map(|w| w.join().is_ok()).collect();
        assert_eq!(outcomes.iter().filter(|ok| !**ok).count(), 1, "exactly one worker died");
        assert!(!shared.lock_hub().polling);
    }

    /// Connects `n` clients to a listener nobody accepts from; `Err` is the index of
    /// the first one whose handshake the kernel did not complete.
    fn connect_unaccepted(listener: &TcpListener, n: usize) -> Result<Vec<TcpStream>, usize> {
        let addr = listener.local_addr().expect("addr");
        (0..n)
            .map(|i| TcpStream::connect_timeout(&addr, Duration::from_millis(500)).map_err(|_| i))
            .collect()
    }

    #[test]
    fn three_hundred_clients_connect_before_anyone_accepts() {
        let somaxconn = std::fs::read_to_string("/proc/sys/net/core/somaxconn")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok());
        if somaxconn.is_some_and(|cap| cap < 300) {
            eprintln!("skipped: net.core.somaxconn = {somaxconn:?} caps every backlog below 300");
            return;
        }
        let listener = bind_loopback().expect("bind");
        assert_eq!(connect_unaccepted(&listener, 300).map(|c| c.len()), Ok(300));

        // The oracle can fail: std's fixed backlog of 128 drops the handshakes past it.
        let plain = TcpListener::bind("127.0.0.1:0").expect("bind");
        let refused = connect_unaccepted(&plain, 300).expect_err("128 is not 300");
        assert!((128..300).contains(&refused), "first failure at client {refused}");
    }
}
