//! Soak: what a long-running engine keeps stays bounded (ADR-014, "Retention").
//!
//! An engine serves resident MINT, TAG and FILA sessions, polled every epoch, for
//! 10⁵ epochs with checkpointing on, and admits one transient session per epoch from a
//! rotation — a continuous session cancelled after a few epochs, a `WITH HISTORY`
//! session, an `AS OF` the newest checkpoint and a `LIFETIME` session — each polled
//! and then cancelled, finalized or dropped.  Once warm, the bytes the engine's thread
//! holds must plateau: a session keeps the newest window of answers its handles
//! consumed, a finished and drained session is reaped with its loss stream, and the
//! ledger keeps a window of per-epoch rows.  Two profiles: frame-batched on a lossless
//! field, and unbatched on a lossy one (where every session has a loss stream).
//!
//! The same ops run against a twin that never polls, so it keeps every answer and
//! every session.  Whatever the polled engine handed out must be each session's
//! answers in full, each resident's retained answers the twin's newest window, and the
//! ledgers the same: totals bit for bit, the per-epoch window, and the scopes that
//! remain plus what was retired adding up to every scope's traffic (kspot-testkit's
//! conservation checks, which fold in the rolled-up remainder and the retired bucket).
//!
//! The counting allocator is the second `unsafe impl` of the workspace's tests, fenced
//! by path like `kspot-algos/tests/alloc_budget.rs` (lint R8).

use kspot_algos::TopKResult;
use kspot_core::{KSpotServer, QueryEngine, ScenarioConfig, Session, SessionStatus};
use kspot_net::{Deployment, FaultPlan, NetworkConfig};
use kspot_testkit::{check_ledger, check_scope_attribution, check_storage_attribution};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread has allocated and not freed.
    static HELD_BYTES: Cell<i64> = const { Cell::new(0) };
    /// Allocations and reallocations this thread has made.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting per thread so that the twin, running next to the
/// engine under test, does not disturb its measurement.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a thread-local counter bump, and the
// counter is a `const`-initialised `Cell` of an integer without a destructor, so
// touching it neither allocates nor runs code after thread-local teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        HELD_BYTES.with(|b| b.set(b.get() + layout.size() as i64));
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        HELD_BYTES.with(|b| b.set(b.get() - layout.size() as i64));
        // SAFETY: `ptr` was returned by `System` (via `alloc`/`realloc` above) for
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        HELD_BYTES.with(|b| b.set(b.get() + new_size as i64 - layout.size() as i64));
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: arguments are passed through as received from the caller.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const EPOCHS: u64 = 100_000;
/// Live bytes are sampled every this many epochs once the engine is warm.
const SAMPLE_EVERY: u64 = 10_000;
/// The reference sample: every window is full and every buffer has grown by then.
const WARM: u64 = 20_000;
/// How far a later sample may lie above the reference.  What still moves once warm:
/// each resident's answer log and the per-epoch ledger rows swing between one window
/// and 1¼ windows (≈ 30 KB together here), and buffers whose capacity doubles may do
/// so late.  A session, a loss stream or an answer kept per epoch grows by that much
/// within a few hundred epochs.
const SLACK_BYTES: i64 = 64 * 1024;
/// The answers a session keeps once every live handle consumed older ones.
const WINDOW: usize = 1024;

const RESIDENT: [&str; 3] = [
    "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid",
    "SELECT roomid, AVG(sound) FROM sensors GROUP BY roomid",
    "SELECT TOP 2 nodeid, sound FROM sensors",
];
/// How many epochs the cancelled continuous transient runs.
const CANCEL_AFTER: u64 = 3;

fn history(suffix: &str) -> String {
    format!("SELECT TOP 2 epoch, AVG(sound) FROM sensors GROUP BY epoch WITH HISTORY 4 epochs{suffix}")
}

/// The transient the engine admits at `epoch`: its SQL, and after how many epochs it
/// is cancelled (continuous sessions that would otherwise run on).
fn transient(engine: &QueryEngine, epoch: u64) -> (String, Option<u64>) {
    match epoch % 4 {
        1 => (RESIDENT[(epoch / 4 % 3) as usize].to_string(), Some(CANCEL_AFTER)),
        2 => match engine.checkpoint_epochs().last() {
            Some(newest) => (history(&format!(" AS OF {newest}")), None),
            None => (history(""), None),
        },
        3 => (format!("{} LIFETIME 2 epochs", RESIDENT[0]), None),
        _ => (history(""), None),
    }
}

fn engine(lossy: bool) -> QueryEngine {
    let config = match lossy {
        true => NetworkConfig::mica2().with_faults(FaultPlan::none().with_link_loss(0.1).with_retransmits(2)),
        false => NetworkConfig::mica2(),
    };
    // Four nodes in two rooms: the smallest field every query of the rotation runs on,
    // so that 10⁵ epochs of two engines stay quick in a debug build.
    let field = ScenarioConfig::custom("soak field", "sound", Deployment::grid(2, 10.0, Some(2)));
    KSpotServer::new(field)
        .with_network_config(config.with_battery_uj(1.0e15))
        .with_seed(41)
        .engine()
        .with_frame_batching(!lossy)
        .with_checkpointing(4)
}

/// An order-sensitive digest of a run of answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn eat(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn add(&mut self, answers: &[TopKResult]) {
        for answer in answers {
            self.eat(answer.epoch);
            self.eat(answer.items.len() as u64);
            for item in &answer.items {
                self.eat(item.key);
                self.eat(item.value.to_bits());
            }
        }
    }
}

/// What one engine's run leaves to compare.
struct Outcome {
    /// The finished transients in the order they finished: each one's id and the
    /// digest of its answers in full (the twin) or of everything the polled engine
    /// handed out for it.
    finished: Digest,
    finished_count: u64,
    /// The same per resident.
    residents: Vec<Digest>,
    /// Each resident's retained answers (the twin: its newest window).
    resident_tails: Vec<Vec<TopKResult>>,
    engine: QueryEngine,
}

/// Runs the soak on one engine.  `polled` drives the engine under test — polls every
/// session every epoch, samples live bytes and checks the plateau — and otherwise the
/// twin, which applies the same ops and never polls.  The run's own bookkeeping is a
/// few digests, so what the thread holds is the engine.
fn run(lossy: bool, polled: bool) -> Outcome {
    let mut engine = engine(lossy);
    let mut residents: Vec<(Session, Digest)> =
        RESIDENT.iter().map(|sql| (engine.register(sql).unwrap(), Digest::default())).collect();
    // In flight: the handle, the epoch it was admitted at, when it is cancelled, and
    // what it handed out so far.
    let mut transients: Vec<(Session, u64, Option<u64>, Digest)> = Vec::new();
    let (mut finished, mut finished_count) = (Digest::default(), 0);
    let mut reference = None;
    for epoch in 0..EPOCHS {
        let (sql, cancel_after) = transient(&engine, epoch);
        let session = engine.register(&sql).unwrap_or_else(|e| panic!("`{sql}` registers: {e}"));
        transients.push((session, epoch, cancel_after, Digest::default()));
        engine.run_epochs(1);

        if polled {
            for (session, handed_out) in &mut residents {
                handed_out.add(&session.poll());
            }
        }
        let mut at = 0;
        while at < transients.len() {
            let (session, admitted, cancel_after, handed_out) = &mut transients[at];
            if polled {
                handed_out.add(&session.poll());
            }
            let due = cancel_after.is_some_and(|n| epoch + 1 - *admitted >= n);
            if due {
                assert!(session.cancel(), "session {} was still running", session.id());
            }
            if !due && session.status() == SessionStatus::Active {
                at += 1;
                continue;
            }
            let (mut session, _, _, mut handed_out) = transients.swap_remove(at);
            if polled {
                // Nothing arrives after a cancel; the poll finds that out.
                assert!(session.poll().is_empty());
            } else {
                handed_out.add(&session.results());
            }
            finished.eat(u64::from(session.id()));
            finished.eat(handed_out.0);
            finished_count += 1;
            // Rotate through the ways a consumer lets go of a finished session.
            match session.id() % 3 {
                0 => drop(session.finalize()),
                1 => drop(session.clone()),
                _ => {}
            }
        }

        if polled && epoch + 1 >= WARM && (epoch + 1) % SAMPLE_EVERY == 0 {
            let held = HELD_BYTES.with(Cell::get);
            let reference = *reference.get_or_insert(held);
            assert!(
                held <= reference + SLACK_BYTES,
                "live bytes grew from {reference} at epoch {WARM} to {held} at epoch {}",
                epoch + 1
            );
            let resident = engine.session_ids().len();
            assert!(
                resident <= residents.len() + transients.len(),
                "{resident} sessions resident at epoch {}: the {} residents and {} transients in flight",
                epoch + 1,
                residents.len(),
                transients.len()
            );
            let rows = engine.metrics().epochs().count();
            assert!(rows <= WINDOW, "{rows} per-epoch ledger rows kept");
        }
    }
    let mut digests = Vec::new();
    let mut resident_tails = Vec::new();
    for (session, mut handed_out) in residents {
        let all = session.results();
        if !polled {
            handed_out.add(&all);
        }
        digests.push(handed_out);
        resident_tails.push(all[all.len().saturating_sub(WINDOW)..].to_vec());
    }
    Outcome { finished, finished_count, residents: digests, resident_tails, engine }
}

fn soak(lossy: bool) {
    let (polled, twin) = std::thread::scope(|s| {
        let polled = s.spawn(|| run(lossy, true));
        let twin = s.spawn(|| run(lossy, false));
        (polled.join().expect("the polled engine ran"), twin.join().expect("the twin ran"))
    });
    // All but the last few transients, still in flight, finished.
    assert_eq!(polled.finished_count, twin.finished_count);
    assert!(polled.finished_count + 4 >= EPOCHS, "{} transients finished", polled.finished_count);
    assert!(polled.finished == twin.finished, "what the polled engine handed out is not every answer");
    assert!(polled.residents == twin.residents, "what a resident handed out is not every answer");
    assert!(polled.resident_tails == twin.resident_tails, "a resident's retained answers differ");
    assert!(polled.resident_tails.iter().all(|tail| tail.len() == WINDOW));

    let (ours, theirs) = (polled.engine.metrics(), twin.engine.metrics());
    assert_eq!(ours.totals(), theirs.totals(), "the ledger totals moved");
    assert_eq!(ours.storage_totals(), theirs.storage_totals());
    assert!(ours.epochs().eq(theirs.epochs()), "the per-epoch windows differ");
    for metrics in [&*ours, &*theirs] {
        let mut violations = check_ledger(metrics);
        violations.extend(check_scope_attribution(metrics, true));
        violations.extend(check_storage_attribution(metrics));
        assert!(violations.is_empty(), "{violations:#?}");
    }
}

#[test]
fn a_batched_lossless_engine_plateaus_and_hands_out_every_answer() {
    soak(false);
}

#[test]
fn an_unbatched_lossy_engine_plateaus_and_hands_out_every_answer() {
    soak(true);
}

/// `Session::deliver` lends each answer's items to its sink straight from the log:
/// into a buffer with room for them it allocates nothing, where a poll builds an
/// answer per answer (ADR-014, "The wire").
#[test]
fn delivering_into_a_sink_with_room_allocates_nothing() {
    let mut engine = engine(false);
    let mut session = engine.register(RESIDENT[0]).unwrap();
    let mut clone = session.clone();
    engine.run_epochs(64);
    let mut sink: Vec<u64> = Vec::with_capacity(64 * 8);
    let allocations = || ALLOCATIONS.with(Cell::get);
    let before = allocations();
    let delivery = session.deliver(usize::MAX, |epoch, items| {
        sink.push(epoch);
        sink.extend(items.iter().flat_map(|item| [item.key, item.value.to_bits()]));
        true
    });
    assert_eq!(allocations() - before, 0, "{delivery:?}");
    assert_eq!((delivery.delivered, delivery.pending), (64, 0));
    let polled = clone.poll();
    assert!(allocations() - before > 64, "a poll builds every answer it hands out");
    let copied: Vec<u64> = polled
        .iter()
        .flat_map(|a| std::iter::once(a.epoch).chain(a.items.iter().flat_map(|i| [i.key, i.value.to_bits()])))
        .collect();
    assert_eq!(sink, copied, "the sink was lent what the poll handed out");
}
