//! The in-process twin of a wire workload: the same op sequence against an
//! `EngineFleet` called directly — no sockets, no frames in flight, no worker pool.
//!
//! It supplies the *service-time* child of the wire spans: what a `Register`,
//! `Advance` or `Poll` costs once it has reached the fleet.  `serve.wire_overhead_us`
//! is a wire poll's round trip minus the twin's poll (`Session::results` +
//! `Session::status` + `encode_response` per answer, which is what `handle_poll`
//! does), and `fleet.*` are the twin's own spans.

use crate::common::Digest;
use crate::script::{End, Workload, POLL_MAX};
use crate::trace::Tracer;
use crate::wire_run::build_fleet;
use kspot_core::{Session, SessionStatus};
use kspot_serve::proto::{encode_response, STATUS_ACTIVE, STATUS_CANCELLED, STATUS_COMPLETED};
use kspot_serve::Response;

/// A session with the delivery cursor the wire server would keep for it.
struct Cursor {
    session: Session,
    delivered: usize,
}

/// What `handle_poll` does for one session, minus the socket.
fn poll(deployment: usize, cursor: &mut Cursor, digest: &mut Digest, tracer: &mut Tracer) {
    let span = tracer.begin("twin.poll");
    let (results, status) = (cursor.session.results(), cursor.session.status());
    let id = u64::from(cursor.session.id());
    let mut delivered = 0u32;
    for result in results
        .iter()
        .skip(cursor.delivered)
        .take(POLL_MAX as usize)
    {
        let frame = encode_response(&Response::Answer {
            session: id,
            epoch: result.epoch,
            items: result.items.iter().map(|i| (i.key, i.value)).collect(),
        });
        std::hint::black_box(frame.expect("answers encode"));
        delivered += 1;
    }
    let pending = (results.len() - cursor.delivered - delivered as usize) as u32;
    let status = match status {
        SessionStatus::Active => STATUS_ACTIVE,
        SessionStatus::Completed => STATUS_COMPLETED,
        SessionStatus::Cancelled => STATUS_CANCELLED,
    };
    std::hint::black_box(
        encode_response(&Response::Flushed {
            session: id,
            delivered,
            pending,
            status,
        })
        .expect("flushed encodes"),
    );
    tracer.end(span);
    for result in &results[cursor.delivered..cursor.delivered + delivered as usize] {
        digest.add_result(deployment, id, result);
    }
    cursor.delivered += delivered as usize;
}

/// Runs the whole script against a twin fleet, recording spans for the measured
/// ticks, and returns the digest of what its polls delivered.
pub fn run(w: &Workload, tracer: &mut Tracer) -> Digest {
    let fleet = build_fleet(w);
    let mut digest = Digest::default();
    tracer.set_recording(false);
    let register = |deployment: usize, sql: &str, tracer: &mut Tracer| {
        let session = tracer
            .leaf("fleet.try_register", || fleet.try_register(deployment, sql))
            .expect("script SQL registers on the twin fleet");
        Cursor {
            session,
            delivered: 0,
        }
    };
    let advance = |epochs: usize, tracer: &mut Tracer| {
        let poisoned = tracer.leaf("fleet.run_epochs", || fleet.run_epochs_surviving(epochs));
        assert!(poisoned.is_empty(), "no twin shard panics");
    };

    let mut resident: Vec<Vec<Cursor>> = (0..w.deployments)
        .map(|d| {
            w.resident
                .iter()
                .map(|sql| register(d, sql, tracer))
                .collect()
        })
        .collect();
    if let Some(prime) = &w.prime {
        let mut primed: Vec<Cursor> = (0..w.deployments)
            .map(|d| register(d, &prime.sql, tracer))
            .collect();
        advance(prime.epochs, tracer);
        for (d, cursor) in primed.iter_mut().enumerate() {
            poll(d, cursor, &mut digest, tracer);
        }
    }
    for tick in 0..w.total_ticks() {
        tracer.set_recording(tick >= w.warmup_ticks);
        tracer.set_tick(tick as u32);
        let mut transients: Vec<Option<(Cursor, End)>> = (0..w.deployments)
            .map(|d| {
                w.transient(d, tick)
                    .map(|t| (register(d, &t.sql, tracer), t.end))
            })
            .collect();
        advance(w.stride, tracer);
        for d in 0..w.deployments {
            for cursor in &mut resident[d] {
                poll(d, cursor, &mut digest, tracer);
            }
            if let Some((cursor, end)) = &mut transients[d] {
                poll(d, cursor, &mut digest, tracer);
                if *end == End::Cancel {
                    tracer.leaf("twin.cancel", || cursor.session.cancel());
                }
            }
        }
    }
    tracer.set_recording(false);
    digest
}
