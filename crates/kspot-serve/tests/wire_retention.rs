//! Wire retention soak: what a serving process keeps after delivery stays bounded
//! (ADR-014, "Retention" — "The wire").
//!
//! A `WireServer` fronts a two-deployment conference fleet with checkpointing for
//! 2 000 rounds of four client shapes:
//!
//! * **(a) churn** — `serve_churn`'s shape: connect, `Hello`, `Register` (vertical,
//!   horizontal, `AS OF` the newest checkpoint, `LIFETIME 1`), `Advance(1)`, `Poll`,
//!   `Bye`;
//! * **(b) stream** — on one long-lived connection: register a continuous transient,
//!   advance, poll everything, cancel;
//! * **(c) drop** — register, advance, then drop the socket without polling;
//! * **(d) sample** — register, advance, `Poll` with `max 1` of several answers, `Bye`.
//!
//! The long-lived connection also holds one resident continuous session per
//! deployment, polled every round.  Every 200 rounds each shard may hold no more
//! sessions, and no more ledger scopes, than it has sessions in flight — its
//! resident — and its retired bucket must have grown: a session the wire finished
//! with is reaped, whether its last `Poll` drained it, a `Cancel` left nothing to
//! deliver, or its connection closed.
//!
//! The same registrations, epochs and cancels run on an in-process twin fleet that
//! never polls, so it keeps every answer and every session.  Every answer the wire
//! handed out is, per session, the twin's answer at that position, a session the wire
//! drained got all of them, and every shard's ledger totals equal the twin's bit for
//! bit.

use kspot_core::{EngineFleet, ScenarioConfig, Session, WorkloadSpec};
use kspot_net::{NetworkConfig, PhaseTotals, RoomModelParams};
use kspot_serve::proto::STATUS_ACTIVE;
use kspot_serve::{Response, ServeConfig, WireClient, WireServer};
use std::time::{Duration, Instant};

const ROUNDS: usize = 2_000;
const CHECK_EVERY: usize = 200;
const DEPLOYMENTS: usize = 2;
const SEED: u64 = 42;
const TIMEOUT: Duration = Duration::from_secs(10);

fn fleet() -> EngineFleet {
    EngineFleet::homogeneous(
        ScenarioConfig::conference(),
        WorkloadSpec::RoomCorrelated(RoomModelParams::default()),
        NetworkConfig::mica2(),
        SEED,
        DEPLOYMENTS,
        DEPLOYMENTS,
    )
    .with_checkpointing(4)
}

fn ranked_rooms(k: u64) -> String {
    format!("SELECT TOP {k} roomid, AVG(sound) FROM sensors GROUP BY roomid")
}

/// One answer as the wire carries it: its epoch, then each item's key and value bits.
type Answer = (u64, Vec<(u64, u64)>);

/// One wire session and its twin: the twin's handle, never polled, and what the wire
/// handed out.
struct Tracked {
    twin: Session,
    handed_out: Vec<Answer>,
    /// Whether a `Poll` reported the session finished with nothing pending.
    drained: bool,
}

/// The server, the twin and every session either of them was asked for.
struct Soak {
    server: WireServer,
    twin: EngineFleet,
    tracked: Vec<Tracked>,
    /// `(wire id, index into tracked)` of the resident session of each deployment,
    /// on the long-lived connection.
    residents: Vec<(u64, usize)>,
}

impl Soak {
    fn connect(&self, tenant: &str) -> WireClient {
        let mut client = WireClient::connect(self.server.addr(), TIMEOUT).expect("connect");
        client.hello(tenant).expect("hello");
        client
    }

    /// Registers `sql` on deployment `d` over `client` and on the twin.
    fn register(&mut self, client: &mut WireClient, d: usize, sql: &str) -> (u64, usize) {
        let wire = match client.register(d as u32, sql).expect("register") {
            Response::Registered { session, .. } => session,
            other => panic!("`{sql}` on deployment {d}: expected Registered, got {other:?}"),
        };
        let twin = self.twin.try_register(d, sql).expect("the twin admits what the wire admitted");
        self.tracked.push(Tracked { twin, handed_out: Vec::new(), drained: false });
        (wire, self.tracked.len() - 1)
    }

    /// Advances both fleets by `epochs` over `client`.
    fn advance(&self, client: &mut WireClient, epochs: u32) {
        let advanced = client.advance(epochs).expect("advance");
        assert_eq!(advanced, Response::Advanced { epochs, poisoned: Vec::new() });
        self.twin.run_epochs(epochs as usize);
    }

    /// Polls wire session `wire` over `client` and records what it handed out.
    fn poll(&mut self, client: &mut WireClient, (wire, at): (u64, usize), max: u32) -> u32 {
        let outcome = client.poll(wire, max).expect("poll");
        assert_eq!(outcome.delivered as usize, outcome.answers.len());
        let tracked = &mut self.tracked[at];
        for answer in outcome.answers {
            let Response::Answer { session, epoch, items } = answer else { unreachable!("poll collects answers") };
            assert_eq!(session, wire);
            tracked.handed_out.push((epoch, items.iter().map(|&(k, v)| (k, v.to_bits())).collect()));
        }
        tracked.drained = outcome.status != STATUS_ACTIVE && outcome.pending == 0;
        outcome.pending
    }

    /// Ends a connection the way a client does and waits until the server has cleaned
    /// it up — its tenant's quota slots are back — then mirrors the cleanup's cancel on
    /// the twin (a no-op for a session that had finished).
    fn hang_up(&mut self, client: WireClient, tenant: &str, bye: bool, at: usize) {
        if bye {
            client.bye().expect("bye");
        } else {
            drop(client);
        }
        let deadline = Instant::now() + TIMEOUT;
        while self.server.tenant_sessions(tenant) != 0 {
            assert!(Instant::now() < deadline, "the server never cleaned up `{tenant}`'s connection");
            std::thread::sleep(Duration::from_micros(50));
        }
        self.tracked[at].twin.cancel();
    }

    /// One round's shape against deployment `d`, then a poll of every resident over
    /// the long-lived connection `stream`.
    fn round(&mut self, stream: &mut WireClient, round: usize, d: usize) {
        let k = 1 + (round / 4 % 3) as u64;
        match round % 4 {
            0 => {
                let newest = self.twin.deployment(d).expect("deployment").checkpoint_epochs().last().copied();
                let sql = match (round / 4 % 4, newest) {
                    (0, _) | (2, None) => format!(
                        "SELECT TOP {k} epoch, AVG(sound) FROM sensors GROUP BY epoch WITH HISTORY 32 epochs"
                    ),
                    (1, _) => format!("{} WITH HISTORY 16 epochs", ranked_rooms(k)),
                    (2, Some(at)) => format!(
                        "SELECT TOP {k} epoch, AVG(sound) FROM sensors GROUP BY epoch \
                         WITH HISTORY 16 epochs AS OF {at}"
                    ),
                    _ => format!("{} LIFETIME 1 epochs", ranked_rooms(k)),
                };
                let mut client = self.connect("churn");
                let session = self.register(&mut client, d, &sql);
                self.advance(&mut client, 1);
                self.poll(&mut client, session, u32::MAX);
                self.hang_up(client, "churn", true, session.1);
            }
            1 => {
                let session = self.register(stream, d, &ranked_rooms(k));
                self.advance(stream, 2);
                assert_eq!(self.poll(stream, session, u32::MAX), 0);
                let cancelled = stream.cancel(session.0).expect("cancel");
                assert_eq!(cancelled, Response::Cancelled { session: session.0, was_active: true });
                self.tracked[session.1].twin.cancel();
                // Retired with nothing to deliver; its tombstone answers from now on.
                assert_eq!(self.poll(stream, session, u32::MAX), 0);
                assert!(self.tracked[session.1].drained);
            }
            2 => {
                let mut client = self.connect("drop");
                let (_, at) = self.register(&mut client, d, &ranked_rooms(k));
                self.advance(&mut client, 2);
                self.hang_up(client, "drop", false, at);
            }
            _ => {
                let mut client = self.connect("sample");
                let session = self.register(&mut client, d, &ranked_rooms(k));
                self.advance(&mut client, 3);
                assert_eq!(self.poll(&mut client, session, 1), 2, "one of three answers delivered");
                self.hang_up(client, "sample", true, session.1);
            }
        }
        for resident in self.residents.clone() {
            self.poll(stream, resident, u32::MAX);
        }
    }
}

fn sum_scopes(totals: PhaseTotals) -> (u64, u64, u64) {
    (totals.messages, totals.bytes, totals.tuples)
}

#[test]
fn wire_sessions_are_reaped_once_delivered_and_the_wire_hands_out_what_a_twin_holds() {
    let server = WireServer::start(fleet(), ServeConfig::default()).expect("bind loopback");
    let mut soak = Soak { server, twin: fleet(), tracked: Vec::new(), residents: Vec::new() };
    let mut stream = soak.connect("stream");
    for d in 0..DEPLOYMENTS {
        let resident = soak.register(&mut stream, d, &ranked_rooms(2));
        soak.residents.push(resident);
    }

    let shards: Vec<_> = (0..DEPLOYMENTS).map(|d| soak.server.fleet().deployment(d).expect("deployment")).collect();
    let mut retired = [PhaseTotals::default(); DEPLOYMENTS];
    for round in 1..=ROUNDS {
        soak.round(&mut stream, round, (round * 7 / 4) % DEPLOYMENTS);
        if round % CHECK_EVERY != 0 {
            continue;
        }
        for (d, shard) in shards.iter().enumerate() {
            // In flight: the resident; every other session's connection is done with it.
            let resident = shard.session_ids().len();
            assert!(resident <= 1, "round {round}: deployment {d} holds {resident} sessions, 1 in flight");
            let metrics = shard.metrics();
            let scopes = metrics.scopes().count();
            assert!(scopes <= 1, "round {round}: deployment {d} keeps {scopes} ledger scopes, 1 in flight");
            let now = metrics.retired_scopes();
            assert!(
                now.messages > retired[d].messages,
                "round {round}: deployment {d}'s retired bucket did not grow ({} messages)",
                now.messages
            );
            retired[d] = now;
        }
    }

    // The residents' connection ends too: nothing is left on the server.
    for &(_, at) in &soak.residents {
        soak.tracked[at].twin.cancel();
    }
    stream.bye().expect("bye");
    let deadline = Instant::now() + TIMEOUT;
    while shards.iter().any(|shard| !shard.session_ids().is_empty()) {
        assert!(Instant::now() < deadline, "the residents were never reaped");
        std::thread::sleep(Duration::from_millis(1));
    }

    let mut drained = 0;
    for (i, tracked) in soak.tracked.iter().enumerate() {
        let twin: Vec<Answer> = tracked
            .twin
            .results()
            .iter()
            .map(|a| (a.epoch, a.items.iter().map(|item| (item.key, item.value.to_bits())).collect()))
            .collect();
        assert!(tracked.handed_out.len() <= twin.len(), "session {i} handed out more than it answered");
        assert_eq!(tracked.handed_out[..], twin[..tracked.handed_out.len()], "session {i}");
        if tracked.drained {
            assert_eq!(tracked.handed_out.len(), twin.len(), "session {i} was drained");
            drained += 1;
        }
    }
    assert!(drained >= ROUNDS / 4, "only {drained} sessions were drained over the wire");
    for (d, shard) in shards.iter().enumerate() {
        let twin = soak.twin.deployment(d).expect("deployment");
        let (ours, theirs) = (shard.metrics().totals(), twin.metrics().totals());
        assert_eq!(ours, theirs, "deployment {d}'s ledger");
        assert_eq!(ours.energy_uj.to_bits(), theirs.energy_uj.to_bits());
        let retired = sum_scopes(shard.metrics().retired_scopes());
        let every = twin.metrics().scopes().fold((0, 0, 0), |sum, (_, t)| {
            (sum.0 + t.messages, sum.1 + t.bytes, sum.2 + t.tuples)
        });
        assert_eq!(retired, every, "deployment {d}: every scope the twin booked was retired");
    }
    soak.server.shutdown();
}
