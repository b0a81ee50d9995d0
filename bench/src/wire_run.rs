//! The wire harness: a `WireServer` over an `EngineFleet`, loaded in lock-step by one
//! client thread per deployment over real loopback TCP.
//!
//! Closed loop: every caller waits for its reply.  Client `c` owns deployment `c`;
//! client 0 is the *lead* — it alone sends `Advance` and reads the clocks.  Three
//! barriers order a tick: transients registered → clock advanced → answers drained.

use crate::calibrate::{speed_now, time_kernel};
use crate::common::{net_config, Checks, Digest, Measured, SimTotals, ROOM_MODEL};
use crate::host;
use crate::script::{End, Workload, MALFORMED_SQL, POLL_MAX};
use crate::trace::{traced_tick, Span, Tracer};
use crate::RunOptions;
use kspot_core::{EngineFleet, QueryEngine, WorkloadSpec};
use kspot_serve::proto::{STATUS_ACTIVE, STATUS_COMPLETED};
use kspot_serve::{Request, Response, ServeConfig, WireClient, WireServer};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Wire worker threads; with the two fleet pool threads and two client threads this
/// is the whole thread budget of a wire workload (bench/README.md).
pub const WIRE_WORKERS: usize = 2;

/// A reply that takes longer than this is a failed run, not a slow one.
const READ_TIMEOUT: Duration = Duration::from_secs(20);

/// Frame counters of one run (measured phase only).
#[derive(Debug, Clone, Copy, Default)]
pub struct WireCounters {
    pub frames_in: u64,
    pub frames_out: u64,
    /// 400s the script asked for (malformed-SQL probes).
    pub errors_expected: u64,
    /// 429-style refusals — none are expected.
    pub rejected: u64,
    /// I/O, framing or unexpected-frame failures — none are expected.
    pub protocol_errors: u64,
}

/// The frames of the traced ticks, kept for the encode/decode probe and the byte count.
#[derive(Debug, Clone, Default)]
pub struct FrameLog {
    pub requests: Vec<Request>,
    pub responses: Vec<Response>,
}

pub struct WireOutcome {
    pub measured: Measured,
    pub spans: Vec<Span>,
    pub counters: WireCounters,
    pub log: FrameLog,
    /// Per-deployment engine handles of the (now stopped) fleet.
    pub engines: Vec<QueryEngine>,
}

/// Builds the fleet a wire workload serves — also used for the in-process twin.
pub fn build_fleet(w: &Workload) -> EngineFleet {
    let fleet = EngineFleet::homogeneous(
        w.scenario.clone(),
        WorkloadSpec::RoomCorrelated(ROOM_MODEL),
        net_config(),
        w.seed,
        w.deployments,
        w.deployments,
    );
    match w.checkpoint_cadence {
        Some(cadence) => fleet.with_checkpointing(cadence),
        None => fleet,
    }
}

/// Runs set-up [`RunOptions::setup_count`] times — each one a full server life with
/// its warm-up ticks — and goes on into the measured phase from the last.
pub fn run(w: &Workload, opts: &RunOptions, checks: &mut Checks) -> WireOutcome {
    let (mut setup_s, mut setup_speed): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
    // The measured life is itself a set-up, so rehearse one fewer.
    while setup_s.len() + 1 < opts.setup_count(setup_s.first().copied()) {
        let rehearsal = one_life(w, opts, false).measured;
        setup_s.extend(rehearsal.setup_s);
        setup_speed.extend(rehearsal.setup_speed);
    }
    let mut outcome = one_life(w, opts, true);
    setup_s.append(&mut outcome.measured.setup_s);
    setup_speed.append(&mut outcome.measured.setup_speed);
    outcome.measured.setup_s = setup_s;
    outcome.measured.setup_speed = setup_speed;
    for engine in &outcome.engines {
        checks.require(engine.network().is_alive(), || {
            "a battery depleted during the run".into()
        });
    }
    checks.require(outcome.counters.protocol_errors == 0, || {
        format!(
            "{} protocol errors on the wire",
            outcome.counters.protocol_errors
        )
    });
    outcome
}

/// One server life: start, set up, warm up and — when `measure` — run the measured
/// ticks; then shut down.
fn one_life(w: &Workload, opts: &RunOptions, measure: bool) -> WireOutcome {
    let origin = Instant::now();
    let fleet = build_fleet(w);
    let engines: Vec<QueryEngine> = (0..w.deployments)
        .map(|d| fleet.deployment(d).expect("deployment exists"))
        .collect();
    let config = ServeConfig {
        workers: WIRE_WORKERS,
        pacer: None,
        ..ServeConfig::default()
    };
    let server = WireServer::start(fleet, config).expect("the server binds a loopback port");
    let shared = Shared {
        w,
        addr: server.addr(),
        barrier: Barrier::new(w.deployments),
        broken: AtomicBool::new(false),
        engines: &engines,
        origin,
        trace: opts.trace,
        flip_one_answer: opts.flip_one_answer,
        last_tick: if measure {
            w.total_ticks()
        } else {
            w.warmup_ticks
        },
    };
    let reports: Vec<ClientReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..w.deployments)
            .map(|c| {
                let shared = &shared;
                std::thread::Builder::new()
                    .name(format!("bench-client-{c}"))
                    .spawn_scoped(scope, move || Client::new(shared, c).run())
                    .expect("client thread spawns")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    drop(server.shutdown());

    let mut m = Measured::default();
    let mut counters = WireCounters::default();
    let mut log = FrameLog::default();
    let mut lanes = Vec::new();
    for report in reports {
        m.attempted += report.attempted;
        m.failed += report.failed;
        m.digest.merge(report.digest);
        m.first_answer_ns.extend(report.first_answer_ns);
        if m.tick_answers.is_empty() {
            m.tick_answers = report.tick_answers;
        } else {
            for (sum, n) in m.tick_answers.iter_mut().zip(report.tick_answers) {
                *sum += n;
            }
        }
        counters.frames_in += report.counters.frames_in;
        counters.frames_out += report.counters.frames_out;
        counters.errors_expected += report.counters.errors_expected;
        counters.rejected += report.counters.rejected;
        counters.protocol_errors += report.counters.protocol_errors;
        log.requests.extend(report.log.requests);
        log.responses.extend(report.log.responses);
        lanes.push(report.spans);
        if let Some(lead) = report.lead {
            m.tick_ns = lead.tick_ns;
            m.kernel_ns = lead.kernel_ns;
            m.tick_traced = lead.tick_traced;
            m.setup_s = vec![lead.setup_s];
            m.setup_speed = vec![lead.setup_speed];
            m.cpu_ms = lead.cpu_ms;
            m.sim = lead.sim;
        }
    }
    m.peak_rss_mb = host::peak_rss_mb();
    m.ticks_digest = m.digest;
    m.ticks_totals = engines.iter().map(|e| e.metrics().totals()).collect();
    WireOutcome {
        measured: m,
        spans: crate::trace::merge(lanes),
        counters,
        log,
        engines,
    }
}

/// What the client threads of one server life share.
struct Shared<'a> {
    w: &'a Workload,
    addr: SocketAddr,
    barrier: Barrier,
    /// Set once any connection failed at the socket level: later operations are
    /// counted as failed without being attempted, so a broken run ends quickly and
    /// every thread still reaches every barrier.
    broken: AtomicBool,
    engines: &'a [QueryEngine],
    origin: Instant,
    trace: bool,
    flip_one_answer: bool,
    last_tick: usize,
}

/// What the lead client alone measures.
struct LeadReport {
    tick_ns: Vec<u64>,
    kernel_ns: Vec<u64>,
    tick_traced: Vec<bool>,
    setup_s: f64,
    setup_speed: f64,
    cpu_ms: f64,
    sim: SimTotals,
}

struct ClientReport {
    digest: Digest,
    attempted: u64,
    failed: u64,
    first_answer_ns: Vec<(usize, u64)>,
    tick_answers: Vec<u64>,
    counters: WireCounters,
    log: FrameLog,
    spans: Vec<Span>,
    lead: Option<LeadReport>,
}

/// One client thread: owns deployment `c` and (at most) one connection at a time.
struct Client<'a> {
    shared: &'a Shared<'a>,
    c: usize,
    tracer: Tracer,
    conn: Option<WireClient>,
    /// Wire ids of the resident sessions with their engine-side session ids.
    resident: Vec<(u64, u64)>,
    /// Engine-side id the deployment will give its next admitted session: this
    /// client is the deployment's only registrant, and ids are dense.
    next_engine_id: u64,
    digest: Digest,
    attempted: u64,
    failed: u64,
    counters: WireCounters,
    log: FrameLog,
    logging: bool,
    flip_next: bool,
}

impl<'a> Client<'a> {
    fn new(shared: &'a Shared<'a>, c: usize) -> Self {
        Self {
            shared,
            c,
            tracer: Tracer::new(false, shared.origin, 1 + c as u8),
            conn: None,
            resident: Vec::new(),
            next_engine_id: 0,
            digest: Digest::default(),
            attempted: 0,
            failed: 0,
            counters: WireCounters::default(),
            log: FrameLog::default(),
            logging: false,
            flip_next: false,
        }
    }

    fn is_lead(&self) -> bool {
        self.c == 0
    }

    fn wait(&mut self) {
        let shared = self.shared;
        self.tracer.leaf("barrier.wait", || shared.barrier.wait());
    }

    fn fail(&mut self, socket_level: bool) {
        self.failed += 1;
        if socket_level {
            self.counters.protocol_errors += 1;
            self.shared.broken.store(true, Ordering::SeqCst);
        }
    }

    fn connect(&mut self) {
        self.attempted += 1;
        if self.shared.broken.load(Ordering::SeqCst) {
            return self.fail(false);
        }
        let addr = self.shared.addr;
        let connected = self
            .tracer
            .leaf("serve.connect", || WireClient::connect(addr, READ_TIMEOUT));
        match connected {
            Ok(mut conn) => {
                self.counters.frames_out += 1; // Welcome
                let hello = Request::Hello {
                    tenant: format!("bench-{}", self.c),
                };
                if conn.send(&hello).is_err() {
                    return self.fail(true);
                }
                self.counters.frames_in += 1;
                self.conn = Some(conn);
            }
            Err(_) => self.fail(true),
        }
    }

    fn send(&mut self, request: &Request) -> bool {
        let Some(conn) = self.conn.as_mut() else {
            return false;
        };
        if self.shared.broken.load(Ordering::SeqCst) {
            return false;
        }
        let sent = self
            .tracer
            .leaf("client.send", || conn.send(request))
            .is_ok();
        if sent {
            self.counters.frames_in += 1;
            if self.logging {
                self.log.requests.push(request.clone());
            }
        }
        sent
    }

    fn read(&mut self) -> Option<Response> {
        let conn = self.conn.as_mut()?;
        let response = self
            .tracer
            .leaf("client.read_frame", || conn.read_response())
            .ok()?;
        self.counters.frames_out += 1;
        if self.logging {
            self.log.responses.push(response.clone());
        }
        Some(response)
    }

    /// One request, one reply, timed as span `op`.  `None` when the socket failed.
    fn call(&mut self, op: &'static str, request: &Request) -> Option<Response> {
        self.attempted += 1;
        let span = self.tracer.begin(op);
        let reply = if self.send(request) {
            self.read()
        } else {
            None
        };
        self.tracer.end(span);
        if reply.is_none() {
            self.fail(true);
        }
        reply
    }

    /// Registers `sql` on this client's deployment; returns `(wire id, engine id)`.
    fn register(&mut self, sql: &str) -> Option<(u64, u64)> {
        let request = Request::Register {
            deployment: self.c as u32,
            sql: sql.to_string(),
        };
        match self.call("serve.register", &request)? {
            Response::Registered { session, .. } => {
                let engine_id = self.next_engine_id;
                self.next_engine_id += 1;
                Some((session, engine_id))
            }
            Response::Rejected { .. } => {
                self.counters.rejected += 1;
                self.fail(false);
                None
            }
            _ => {
                self.fail(false);
                None
            }
        }
    }

    /// Sends the malformed statement: it must earn a 400 and leave the connection usable.
    fn probe_malformed(&mut self) {
        let request = Request::Register {
            deployment: self.c as u32,
            sql: MALFORMED_SQL.to_string(),
        };
        match self.call("serve.register", &request) {
            Some(Response::Error { code: 400, .. }) => self.counters.errors_expected += 1,
            Some(_) => self.fail(false),
            None => {}
        }
    }

    /// Polls one session until `Flushed`.  Returns the answers delivered and when the
    /// first one arrived; checks count, status and the empty backlog.
    fn poll(
        &mut self,
        wire: u64,
        engine_id: u64,
        expect: usize,
        completes: bool,
    ) -> (u64, Option<Instant>) {
        self.attempted += 1;
        let span = self.tracer.begin("serve.poll");
        let mut answers = 0u64;
        let mut first = None;
        let mut ok = self.send(&Request::Poll {
            session: wire,
            max: POLL_MAX,
        });
        let mut socket_level = !ok;
        while ok {
            match self.read() {
                Some(Response::Answer {
                    session,
                    epoch,
                    mut items,
                }) => {
                    first.get_or_insert_with(Instant::now);
                    answers += 1;
                    ok &= session == wire;
                    if std::mem::take(&mut self.flip_next) {
                        match items.first_mut() {
                            Some(item) => item.1 = f64::from_bits(item.1.to_bits() ^ 1),
                            None => items.push((0, 0.0)),
                        }
                    }
                    self.digest.add(self.c, engine_id, epoch, items.into_iter());
                }
                Some(Response::Flushed {
                    delivered,
                    pending,
                    status,
                    ..
                }) => {
                    let want = if completes {
                        STATUS_COMPLETED
                    } else {
                        STATUS_ACTIVE
                    };
                    ok &= u64::from(delivered) == answers && pending == 0 && status == want;
                    break;
                }
                Some(_) => ok = false,
                None => {
                    ok = false;
                    socket_level = true;
                }
            }
        }
        self.tracer.end(span);
        if !ok || answers != expect as u64 {
            self.fail(socket_level);
        }
        (answers, first)
    }

    fn bye(&mut self) {
        if self
            .call("serve.bye", &Request::Bye)
            .is_some_and(|r| r != Response::Bye)
        {
            self.fail(false);
        }
        self.conn = None;
    }

    /// Set-up as the client sees it: connect, register the resident sessions, prime
    /// the shared windows.  (Server and fleet construction happened before the
    /// threads started; the lead's set-up clock covers both.)
    fn set_up(&mut self) {
        let w = self.shared.w;
        if let Some(prime) = &w.prime {
            self.connect();
            let session = self.register(&prime.sql);
            self.wait();
            if self.is_lead() {
                self.advance(prime.epochs);
            }
            self.wait();
            if let Some((wire, engine_id)) = session {
                self.poll(wire, engine_id, 1, true);
            }
            self.bye();
        }
        if !self.shared.w.connection_per_tick() {
            self.connect();
            for sql in &w.resident {
                if let Some(ids) = self.register(sql) {
                    self.resident.push(ids);
                }
            }
        }
    }

    fn advance(&mut self, epochs: usize) {
        let request = Request::Advance {
            epochs: epochs as u32,
        };
        match self.call("serve.advance", &request) {
            Some(Response::Advanced {
                epochs: ran,
                poisoned,
            }) if ran as usize == epochs && poisoned.is_empty() => {}
            Some(_) => self.fail(false),
            None => {}
        }
    }

    /// One tick as this client sees it; returns the answers it was handed and, for a
    /// transient session, register-start → first answer.
    fn tick(&mut self, tick: usize) -> (u64, Option<u64>) {
        let w = self.shared.w;
        self.tracer.set_tick(tick as u32);
        let root = self.tracer.begin("tick");
        let transient = w.transient(self.c, tick);
        let mut registered = None;
        if let Some(t) = &transient {
            if self.shared.w.connection_per_tick() {
                self.connect();
            }
            if t.malformed_first {
                self.probe_malformed();
            }
            let start = Instant::now();
            registered = self.register(&t.sql).map(|ids| (ids, start));
        }
        self.wait();
        if self.is_lead() {
            self.advance(w.stride);
        }
        self.wait();

        let mut answers = 0;
        for i in 0..self.resident.len() {
            let (wire, engine_id) = self.resident[i];
            answers += self.poll(wire, engine_id, w.stride, false).0;
        }
        let mut first_answer_ns = None;
        if let Some(t) = transient {
            if let Some(((wire, engine_id), start)) = registered {
                let (n, first) = self.poll(wire, engine_id, t.answers, t.end != End::Cancel);
                answers += n;
                first_answer_ns = first.map(|at| at.duration_since(start).as_nanos() as u64);
                if t.end == End::Cancel {
                    match self.call("serve.cancel", &Request::Cancel { session: wire }) {
                        Some(Response::Cancelled {
                            was_active: true, ..
                        })
                        | None => {}
                        Some(_) => self.fail(false),
                    }
                }
            }
            if self.shared.w.connection_per_tick() {
                self.bye();
            }
        }
        self.tracer.end(root);
        (answers, first_answer_ns)
    }

    fn run(mut self) -> ClientReport {
        let shared = self.shared;
        let w = shared.w;
        self.set_up();
        for tick in 0..w.warmup_ticks {
            self.tick(tick);
            self.wait();
        }

        // Every client is past its last warm-up barrier: nothing is in flight, so the
        // lead's reads of the clocks and the ledgers are race-free.
        let setup_s = shared.origin.elapsed().as_secs_f64();
        let setup_speed = if self.is_lead() { speed_now() } else { 1.0 };
        let cpu_before = host::process_cpu_ms();
        let sim_before = SimTotals::of(shared.engines);
        let frames_before = self.counters;
        self.flip_next = shared.flip_one_answer && self.is_lead();

        let mut tick_ns = Vec::new();
        let mut kernel_ns = Vec::new();
        let mut tick_traced = Vec::new();
        let mut tick_answers = Vec::new();
        let mut first_answer_ns = Vec::new();
        for tick in w.warmup_ticks..shared.last_tick {
            let traced = shared.trace && traced_tick(tick);
            self.tracer.set_recording(traced);
            self.logging = traced;
            // Everyone holds still while the lead times the reference kernel, so the
            // kernel sees an idle process and the tick clock starts for all at once.
            if self.is_lead() {
                kernel_ns.push(time_kernel(tick as u64));
            }
            shared.barrier.wait();
            let start = Instant::now();
            let (answers, first) = self.tick(tick);
            self.wait();
            tick_ns.push(start.elapsed().as_nanos() as u64);
            tick_traced.push(traced);
            tick_answers.push(answers);
            first_answer_ns.extend(first.map(|ns| (tick - w.warmup_ticks, ns)));
        }
        self.tracer.set_recording(false);
        let lead = self.is_lead().then(|| LeadReport {
            cpu_ms: host::process_cpu_ms()
                - cpu_before
                - kernel_ns.iter().sum::<u64>() as f64 / 1e6,
            tick_ns,
            kernel_ns,
            tick_traced,
            setup_s,
            setup_speed,
            sim: SimTotals::of(shared.engines).since(&sim_before),
        });
        if self.conn.is_some() {
            self.bye();
        }

        let mut counters = self.counters;
        counters.frames_in -= frames_before.frames_in;
        counters.frames_out -= frames_before.frames_out;
        ClientReport {
            digest: self.digest,
            attempted: self.attempted,
            failed: self.failed,
            first_answer_ns,
            tick_answers,
            counters,
            log: self.log,
            spans: self.tracer.into_spans(),
            lead,
        }
    }
}
