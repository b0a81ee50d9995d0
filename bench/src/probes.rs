//! Unit-cost probes: single public functions timed on *end-of-run state* (a ledger as
//! large as the run left it, a result vector as long as it grew), so that
//! `unit cost × count` estimates the share a layer has inside a bigger span.

use crate::stats::median;
use crate::wire_run::FrameLog;
use kspot_core::Session;
use kspot_net::{Network, NetworkMetrics, PhaseTag};
use kspot_query::{classify, parse};
use kspot_serve::proto::{decode_request, decode_response, encode_request, encode_response};
use std::hint::black_box;
use std::time::Instant;

/// Calls in one timed batch; a batch is timed as a whole so the clock read is
/// amortised, and the median over batches is reported per call.
const BATCH: usize = 64;
const BATCHES: usize = 200;

/// Median time of one call, in nanoseconds, over [`BATCHES`] batches of [`BATCH`] calls.
fn per_call_ns(mut call: impl FnMut(usize)) -> f64 {
    let samples: Vec<f64> = (0..BATCHES)
        .map(|b| {
            let start = Instant::now();
            for i in 0..BATCH {
                call(b * BATCH + i);
            }
            start.elapsed().as_nanos() as f64 / BATCH as f64
        })
        .collect();
    median(&samples)
}

/// `parse` + `plan::classify` over the workload's statement mix, µs per statement.
pub fn parse_plan_us(mix: &[String]) -> f64 {
    if mix.is_empty() {
        return 0.0;
    }
    per_call_ns(|i| {
        let sql = &mix[i % mix.len()];
        black_box(
            parse(black_box(sql))
                .and_then(|q| classify(&q))
                .expect("script SQL plans"),
        );
    }) / 1e3
}

/// `NetworkMetrics::record_transmission` on a ledger of end-of-run size, under an
/// installed scope as during a session's sweep, ns per call.
pub fn record_transmission_ns(ledger: &NetworkMetrics, epoch: u64) -> f64 {
    let mut ledger = ledger.clone();
    let nodes = ledger.num_nodes().max(2) as u32;
    let scope = ledger.scopes().last().map(|(scope, _)| scope);
    ledger.set_scope(scope);
    per_call_ns(|i| {
        let from = 1 + i as u32 % (nodes - 1);
        ledger.record_transmission(from, from + 1, epoch, PhaseTag::Update, 36, 1, 20.0, 10.0);
    })
}

/// One `Network::send_report_up` on a copy of the end-of-run network, in the
/// workload's batching mode (enqueue when frames are batched, transmit and book when
/// not), µs per call.  Batched intents are flushed outside the timed region.
pub fn send_report_us(net: &Network, epoch: u64) -> f64 {
    let mut net = net.clone();
    let nodes = net.num_nodes().max(1) as u32;
    net.set_query_scope(net.metrics().scopes().last().map(|(scope, _)| scope));
    let samples: Vec<f64> = (0..BATCHES)
        .map(|b| {
            let start = Instant::now();
            for i in 0..BATCH {
                let from = 1 + (b * BATCH + i) as u32 % nodes;
                black_box(net.send_report_up(from, epoch, 1, 0, PhaseTag::Update));
            }
            let ns = start.elapsed().as_nanos() as f64 / BATCH as f64;
            net.flush_frames();
            ns
        })
        .collect();
    median(&samples) / 1e3
}

/// `Session::results()` — the full-vector clone `handle_poll` makes per poll — on the
/// session with the longest history, µs per call.
pub fn results_clone_us(sessions: &[Session]) -> f64 {
    let Some(longest) = sessions.iter().max_by_key(|s| s.results().len()) else {
        return 0.0;
    };
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            black_box(longest.results());
            start.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    median(&samples)
}

/// `(encode_us, decode_us, bytes_out)`: `proto::encode_*` and `proto::decode_*` per
/// frame over the logged frame mix, and the encoded size of the logged responses.
pub fn codec_us(log: &FrameLog) -> (f64, f64, u64) {
    let frames = log.requests.len() + log.responses.len();
    if frames == 0 {
        return (0.0, 0.0, 0);
    }
    let requests: Vec<Vec<u8>> = log
        .requests
        .iter()
        .map(|r| encode_request(r).expect("logged requests encode"))
        .collect();
    let responses: Vec<Vec<u8>> = log
        .responses
        .iter()
        .map(|r| encode_response(r).expect("logged responses encode"))
        .collect();
    let bytes_out = responses.iter().map(|f| f.len() as u64).sum();
    let rounds = (20_000 / frames).clamp(3, 50);
    let time = |pass: &dyn Fn()| {
        let samples: Vec<f64> = (0..rounds)
            .map(|_| {
                let start = Instant::now();
                pass();
                start.elapsed().as_nanos() as f64 / 1e3 / frames as f64
            })
            .collect();
        median(&samples)
    };
    let encode = time(&|| {
        for r in &log.requests {
            black_box(encode_request(black_box(r)).expect("encodes"));
        }
        for r in &log.responses {
            black_box(encode_response(black_box(r)).expect("encodes"));
        }
    });
    // A frame is a 4-byte length prefix followed by the body the decoders take.
    let decode = time(&|| {
        for f in &requests {
            black_box(decode_request(black_box(&f[4..])).expect("decodes"));
        }
        for f in &responses {
            black_box(decode_response(black_box(&f[4..])).expect("decodes"));
        }
    });
    (encode, decode, bytes_out)
}
