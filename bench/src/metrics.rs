//! Every metric the benchmark reports, by name and unit, and how each is computed
//! from a run's samples and spans.  `BENCHMARK.json` lists the same names; the smoke
//! test fails when the two drift apart.

use crate::calibrate::{at_nominal_speed, local_speed};
use crate::common::{Checks, Measured};
use crate::engine_run::EngineOutcome;
use crate::oracle::OracleOutcome;
use crate::script::Workload;
use crate::stats::{drift_ratio, median, median_ns, percentile, slice_median_rate, sorted};
use crate::trace::{durations_by_name, merge, self_times_ns, Span, Tracer};
use crate::wire_run::WireOutcome;
use crate::{probes, replay, twin};
use kspot_core::QueryEngine;
use std::collections::BTreeMap;
use std::time::Instant;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Slices the throughput median is taken over.
pub const RATE_SLICES: usize = 20;

/// The end-to-end metrics of `BENCHMARK.json`, in reporting order.  Two of the
/// issue's eleven are not here.  `failed_ops_share` must always be 0, which the
/// benchmark contract does not allow a listed metric to be: it travels as the
/// `failed` / `attempted` pair of every result line and is printed by `run` beside
/// these.  `tick_p95_ms` does not repeat within its bound on the reference host for
/// the CPU-bound workloads (README, "demoted"), so it is reported per layer instead.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("tick_p50_ms", "ms"),
    ("answers_per_s", "1/s"),
    ("first_answer_p50_ms", "ms"),
    ("tick_drift_ratio", "ratio"),
    ("cpu_ms_per_tick", "ms"),
    ("peak_rss_mb", "MB"),
    ("sim_bytes_per_answer", "B"),
    ("sim_energy_uj_per_answer", "uJ"),
];

/// End-to-end metrics that repeat exactly for a given seed: `compare` requires
/// equality, not a bound, when both sides ran the same seed.
pub const EXACT: [&str; 2] = ["sim_bytes_per_answer", "sim_energy_uj_per_answer"];

/// The per-layer metrics, grouped by the module they measure.  Flow counts are per
/// tick (`count/tick`), state sizes are end-of-run values; a layer the workload never
/// calls reports 0.
pub const PER_LAYER: [(&str, &str); 62] = [
    ("tick_p95_ms", "ms"),
    ("host.speed_ratio", "ratio"),
    ("host.cpu_share", "ratio"),
    ("host.tick_p50_raw_ms", "ms"),
    ("query.parse_plan_us", "us"),
    ("query.calls", "count/tick"),
    ("net.next_epoch_us", "us"),
    ("net.readings_per_tick", "count/tick"),
    ("net.send_report_us", "us"),
    ("net.record_transmission_ns", "ns"),
    ("net.flush_frames_us", "us"),
    ("net.messages_per_tick", "count/tick"),
    ("net.bytes_per_tick", "B/tick"),
    ("net.tuples_per_tick", "count/tick"),
    ("net.window_feed_us", "us"),
    ("net.ledger_epoch_entries", "count"),
    ("net.ledger_scope_entries", "count"),
    ("algos.mint_epoch_us", "us"),
    ("algos.tag_epoch_us", "us"),
    ("algos.fila_epoch_us", "us"),
    ("algos.centralized_epoch_us", "us"),
    ("algos.snapshot_calls", "count/tick"),
    ("algos.tja_execute_us", "us"),
    ("algos.local_aggregate_execute_us", "us"),
    ("algos.historic_calls", "count/tick"),
    ("store.checkpoint_us", "us"),
    ("store.restore_us", "us"),
    ("store.to_bytes_us", "us"),
    ("store.from_bytes_us", "us"),
    ("store.restart_ms", "ms"),
    ("store.checkpoints", "count/tick"),
    ("store.restores", "count/tick"),
    ("store.stored_bytes", "B"),
    ("store.pages_written", "count/tick"),
    ("store.pages_read", "count/tick"),
    ("core.run_epoch_us", "us"),
    ("core.engine_self_us", "us"),
    ("core.register_us", "us"),
    ("core.poll_us", "us"),
    ("core.results_clone_us", "us"),
    ("core.finalize_us", "us"),
    ("core.sessions_resident", "count"),
    ("fleet.run_epoch_us", "us"),
    ("fleet.parallel_efficiency", "ratio"),
    ("fleet.try_register_us", "us"),
    ("serve.encode_us", "us"),
    ("serve.decode_us", "us"),
    ("serve.frames_in", "count/tick"),
    ("serve.frames_out", "count/tick"),
    ("serve.bytes_out", "B/tick"),
    ("serve.connect_us", "us"),
    ("serve.register_rtt_us", "us"),
    ("serve.advance_rtt_us", "us"),
    ("serve.poll_rtt_us", "us"),
    ("serve.poll_rtt_p99_us", "us"),
    ("serve.cancel_rtt_us", "us"),
    ("serve.bye_rtt_us", "us"),
    ("serve.wire_overhead_us", "us"),
    ("serve.errors_expected", "count"),
    ("serve.rejected", "count"),
    ("serve.protocol_errors", "count"),
    ("trace.overhead_pct", "%"),
];

/// A run's samples as they would read at nominal CPU speed (see `calibrate`).
pub struct AtNominalSpeed {
    /// Process CPU ÷ wall over the measured phase, capped at 1.
    pub cpu_share: f64,
    /// Per measured tick, how much slower than nominal the host ran around it.
    pub speed: Vec<f64>,
    pub tick_ns: Vec<u64>,
}

impl AtNominalSpeed {
    pub fn of(m: &Measured) -> Self {
        let wall_ms = m.tick_ns.iter().sum::<u64>() as f64 / 1e6;
        let cpu_share = if wall_ms == 0.0 {
            0.0
        } else {
            (m.cpu_ms / wall_ms).clamp(0.0, 1.0)
        };
        let speed = local_speed(&m.kernel_ns);
        let tick_ns = m
            .tick_ns
            .iter()
            .zip(&speed)
            .map(|(&ns, &speed)| at_nominal_speed(ns as f64, cpu_share, speed).round() as u64)
            .collect();
        Self {
            cpu_share,
            speed,
            tick_ns,
        }
    }

    pub fn median_speed(&self) -> f64 {
        median(&self.speed)
    }
}

/// The end-to-end metrics of one untraced run.
pub fn end_to_end(m: &Measured) -> Vec<Metric> {
    let nominal = AtNominalSpeed::of(m);
    let ticks = m.tick_ns.len().max(1) as f64;
    let answers: u64 = m.tick_answers.iter().sum();
    let per_answer = |total: f64| {
        if answers == 0 {
            0.0
        } else {
            total / answers as f64
        }
    };
    let tick_ms = sorted(nominal.tick_ns.iter().map(|&ns| ns as f64 / 1e6).collect());
    let setups: Vec<f64> = m
        .setup_s
        .iter()
        .zip(&m.setup_speed)
        .map(|(&s, &speed)| at_nominal_speed(s, nominal.cpu_share, speed))
        .collect();
    let first_answers: Vec<f64> = m
        .first_answer_ns
        .iter()
        .map(|&(tick, ns)| {
            at_nominal_speed(ns as f64, nominal.cpu_share, nominal.speed[tick]) / 1e6
        })
        .collect();
    let values = [
        median(&setups),
        percentile(&tick_ms, 0.50),
        slice_median_rate(&nominal.tick_ns, &m.tick_answers, RATE_SLICES),
        median(&first_answers),
        drift_ratio(&nominal.tick_ns),
        m.cpu_ms / ticks / nominal.median_speed().max(f64::MIN_POSITIVE),
        m.peak_rss_mb,
        per_answer(m.sim.bytes as f64),
        per_answer(m.sim.energy_uj),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect()
}

/// Named per-layer values of one traced run; names outside [`PER_LAYER`] are a bug.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|&(n, _)| n == name),
            "`{name}` is not a per-layer metric"
        );
        self.0.insert(name, value);
    }

    /// Every per-layer metric in reporting order; a layer never called reports 0.
    pub fn into_metrics(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: self.0.get(name).copied().unwrap_or(0.0),
                unit,
            })
            .collect()
    }
}

/// Median duration of the spans called `span`, in µs (0 when there are none).
fn median_us(by_name: &BTreeMap<&'static str, Vec<u64>>, span: &str) -> f64 {
    by_name.get(span).map_or(0.0, |ns| median_ns(ns, 1e3))
}

fn count(by_name: &BTreeMap<&'static str, Vec<u64>>, spans: &[&str]) -> f64 {
    spans
        .iter()
        .map(|s| by_name.get(s).map_or(0, Vec::len))
        .sum::<usize>() as f64
}

const SNAPSHOT_SPANS: [&str; 4] = [
    "algos.mint_epoch",
    "algos.tag_epoch",
    "algos.fila_epoch",
    "algos.centralized_epoch",
];
const HISTORIC_SPANS: [&str; 2] = ["algos.tja_execute", "algos.local_aggregate_execute"];

/// What the layer replay contributes: per-call medians and per-tick counts for
/// `query`, `net`, `algos` and `store`, and per tick the time the replayed children
/// of `run_epochs` took.
struct Replayed {
    children_ns_by_tick: BTreeMap<u32, u64>,
    epochs: usize,
    spans: Vec<Span>,
}

/// Replays every deployment, requires byte-identity with the harness run, and fills
/// in the layers below the engine.
fn replay_layers(
    w: &Workload,
    m: &Measured,
    origin: Instant,
    layers: &mut Layers,
    checks: &mut Checks,
) -> Replayed {
    let mut tracer = Tracer::new(false, origin, 0);
    let mut digest = crate::common::Digest::default();
    let mut readings = 0;
    let (mut written, mut read, mut stored) = (0u64, 0u64, 0u64);
    for deployment in 0..w.deployments {
        let replayed = replay::run(w, deployment, &mut tracer);
        digest.merge(replayed.digest(deployment));
        let totals = replayed.net.metrics().totals();
        checks.require(m.ticks_totals.get(deployment) == Some(&totals), || {
            format!(
                "layer replay of deployment {deployment} booked {totals:?}, the engine {:?}",
                m.ticks_totals.get(deployment)
            )
        });
        readings += replayed.readings_per_epoch * w.stride;
        let storage = replayed.net.metrics().storage_totals();
        written += storage.pages_written - replayed.storage_before_measuring.pages_written;
        read += storage.pages_read - replayed.storage_before_measuring.pages_read;
        stored += replayed.store.as_ref().map_or(0, |s| s.stored_bytes());
    }
    checks.require(digest == m.ticks_digest, || {
        format!(
            "layer replay answered {digest:?}, the engine {:?}",
            m.ticks_digest
        )
    });

    let spans = tracer.into_spans();
    let by_name = durations_by_name(&spans);
    let ticks = w.measured_ticks as f64;
    for (span, metric) in [
        ("query.parse_plan", "query.parse_plan_us"),
        ("net.next_epoch", "net.next_epoch_us"),
        ("net.flush_frames", "net.flush_frames_us"),
        ("net.window_feed", "net.window_feed_us"),
        ("algos.mint_epoch", "algos.mint_epoch_us"),
        ("algos.tag_epoch", "algos.tag_epoch_us"),
        ("algos.fila_epoch", "algos.fila_epoch_us"),
        ("algos.centralized_epoch", "algos.centralized_epoch_us"),
        ("algos.tja_execute", "algos.tja_execute_us"),
        (
            "algos.local_aggregate_execute",
            "algos.local_aggregate_execute_us",
        ),
        ("store.checkpoint", "store.checkpoint_us"),
        ("store.restore", "store.restore_us"),
    ] {
        layers.set(metric, median_us(&by_name, span));
    }
    layers.set(
        "query.calls",
        count(&by_name, &["query.parse_plan"]) / ticks,
    );
    layers.set(
        "algos.snapshot_calls",
        count(&by_name, &SNAPSHOT_SPANS) / ticks,
    );
    layers.set(
        "algos.historic_calls",
        count(&by_name, &HISTORIC_SPANS) / ticks,
    );
    layers.set(
        "store.checkpoints",
        count(&by_name, &["store.checkpoint"]) / ticks,
    );
    layers.set(
        "store.restores",
        count(&by_name, &["store.restore"]) / ticks,
    );
    layers.set("store.pages_written", written as f64 / ticks);
    layers.set("store.pages_read", read as f64 / ticks);
    layers.set("store.stored_bytes", stored as f64);
    layers.set("net.readings_per_tick", readings as f64);

    // What the children of a replayed epoch cover is its duration minus its self time.
    let own = self_times_ns(&spans);
    let mut children_ns_by_tick = BTreeMap::new();
    for (span, own_ns) in spans
        .iter()
        .zip(own)
        .filter(|(s, _)| s.name == "replay.epoch")
    {
        *children_ns_by_tick.entry(span.tick).or_insert(0) += span.duration_ns() - own_ns;
    }
    Replayed {
        children_ns_by_tick,
        epochs: by_name.get("replay.epoch").map_or(0, Vec::len),
        spans,
    }
}

/// Layers every workload reports from its end-of-run engines and its samples.
fn common_layers(w: &Workload, m: &Measured, engines: &[QueryEngine], layers: &mut Layers) {
    let ticks = m.tick_ns.len().max(1) as f64;
    layers.set("net.messages_per_tick", m.sim.messages as f64 / ticks);
    layers.set("net.bytes_per_tick", m.sim.bytes as f64 / ticks);
    layers.set("net.tuples_per_tick", m.sim.tuples as f64 / ticks);
    layers.set(
        "net.ledger_epoch_entries",
        engines
            .iter()
            .map(|e| e.metrics().epochs().count())
            .sum::<usize>() as f64,
    );
    layers.set(
        "net.ledger_scope_entries",
        engines
            .iter()
            .map(|e| e.metrics().scopes().count())
            .sum::<usize>() as f64,
    );
    layers.set(
        "core.sessions_resident",
        engines.iter().map(|e| e.session_ids().len()).sum::<usize>() as f64,
    );

    let first = &engines[0];
    let epoch = first.upcoming_epoch().saturating_sub(1);
    layers.set(
        "net.record_transmission_ns",
        probes::record_transmission_ns(&first.metrics(), epoch),
    );
    layers.set(
        "net.send_report_us",
        probes::send_report_us(&first.network(), epoch),
    );
    layers.set(
        "core.results_clone_us",
        probes::results_clone_us(&first.sessions()),
    );
    // The replay times the statements the script registered while measuring; a
    // workload that registers none still reports what its statement mix costs.
    if layers.0.get("query.parse_plan_us").copied().unwrap_or(0.0) == 0.0 {
        layers.set("query.parse_plan_us", probes::parse_plan_us(&w.sql_mix()));
    }

    // Tracing overhead compares raw ticks of the same run, tracer on against off.
    let split = |ticks: &[u64], traced: bool| -> Vec<f64> {
        ticks
            .iter()
            .zip(&m.tick_traced)
            .filter(|(_, &t)| t == traced)
            .map(|(&ns, _)| ns as f64 / 1e6)
            .collect()
    };
    let (on, off) = (
        median(&split(&m.tick_ns, true)),
        median(&split(&m.tick_ns, false)),
    );
    layers.set(
        "trace.overhead_pct",
        if off == 0.0 {
            0.0
        } else {
            (on / off - 1.0) * 100.0
        },
    );

    // The demoted tail percentile (at nominal speed, over the ticks the tracer left
    // alone) and what it takes to undo the speed compensation.
    let nominal = AtNominalSpeed::of(m);
    layers.set(
        "tick_p95_ms",
        percentile(&sorted(split(&nominal.tick_ns, false)), 0.95),
    );
    layers.set("host.speed_ratio", nominal.median_speed());
    layers.set("host.cpu_share", nominal.cpu_share);
    layers.set("host.tick_p50_raw_ms", median(&split(&m.tick_ns, false)));
}

/// The per-layer metrics of a traced in-process run.
pub fn engine_layers(
    w: &Workload,
    out: EngineOutcome,
    origin: Instant,
    checks: &mut Checks,
) -> (Vec<Metric>, Vec<Span>) {
    let mut layers = Layers::default();
    let m = &out.measured;
    let replayed = replay_layers(w, m, origin, &mut layers, checks);
    common_layers(w, m, std::slice::from_ref(&out.engine), &mut layers);

    let spans = out.tracer.into_spans();
    let by_name = durations_by_name(&spans);
    let stride = w.stride as f64;
    layers.set(
        "core.run_epoch_us",
        median_us(&by_name, "core.run_epoch") / stride,
    );
    layers.set("core.register_us", median_us(&by_name, "core.register"));
    layers.set("core.poll_us", median_us(&by_name, "core.poll"));
    layers.set("core.finalize_us", median_us(&by_name, "core.finalize"));

    // Per traced tick: what `run_epochs` took minus what its replayed children took.
    // The difference is the engine's own share — session-map scan, result push,
    // locking, allocation — and may be slightly negative when the children are all
    // there is (the replay pays for its own spans).
    let own: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "core.run_epoch")
        .filter_map(|s| {
            let children = *replayed.children_ns_by_tick.get(&s.tick)?;
            Some((s.duration_ns() as f64 - children as f64) / 1e3 / stride)
        })
        .collect();
    layers.set("core.engine_self_us", median(&own));

    if let Some(restart) = out.restart {
        layers.set("store.to_bytes_us", restart.to_bytes_us);
        layers.set("store.from_bytes_us", restart.from_bytes_us);
        layers.set("store.restart_ms", restart.restart_ms);
    }
    (layers.into_metrics(), merge(vec![spans, replayed.spans]))
}

/// The per-layer metrics of a traced wire run.
pub fn wire_layers(
    w: &Workload,
    out: WireOutcome,
    oracle: &OracleOutcome,
    origin: Instant,
    checks: &mut Checks,
) -> (Vec<Metric>, Vec<Span>) {
    let mut layers = Layers::default();
    let m = &out.measured;
    let replayed = replay_layers(w, m, origin, &mut layers, checks);
    common_layers(w, m, &out.engines, &mut layers);

    // The engine is out of the harness's reach behind the server, so its epoch cost
    // comes from the solo twins (a mean: a twin advances many epochs per call).
    let (busy, epochs) = oracle
        .epoch_time
        .iter()
        .fold((0.0, 0u64), |(b, e), &(busy, n)| (b + busy, e + n));
    let solo_epoch_us = if epochs == 0 {
        0.0
    } else {
        busy * 1e6 / epochs as f64
    };
    let children_us = replayed.children_ns_by_tick.values().sum::<u64>() as f64
        / 1e3
        / replayed.epochs.max(1) as f64;
    layers.set("core.run_epoch_us", solo_epoch_us);
    layers.set("core.engine_self_us", solo_epoch_us - children_us);

    let mut tracer = Tracer::new(false, origin, 0);
    let twin_digest = twin::run(w, &mut tracer);
    checks.require(twin_digest == m.digest, || {
        format!(
            "in-process twin fleet answered {twin_digest:?}, the wire {:?}",
            m.digest
        )
    });
    let twin_lane = tracer.into_spans();
    let twin_spans = durations_by_name(&twin_lane);
    let fleet_epoch_us = median_us(&twin_spans, "fleet.run_epochs") / w.stride as f64;
    layers.set("fleet.run_epoch_us", fleet_epoch_us);
    layers.set(
        "fleet.try_register_us",
        median_us(&twin_spans, "fleet.try_register"),
    );
    let solo_sum_us: f64 = oracle
        .epoch_time
        .iter()
        .map(|&(busy, n)| if n == 0 { 0.0 } else { busy * 1e6 / n as f64 })
        .sum();
    let threads = w.deployments as f64;
    layers.set(
        "fleet.parallel_efficiency",
        if fleet_epoch_us == 0.0 {
            0.0
        } else {
            solo_sum_us / (threads * fleet_epoch_us)
        },
    );

    let by_name = durations_by_name(&out.spans);
    for (span, metric) in [
        ("serve.connect", "serve.connect_us"),
        ("serve.register", "serve.register_rtt_us"),
        ("serve.advance", "serve.advance_rtt_us"),
        ("serve.poll", "serve.poll_rtt_us"),
        ("serve.cancel", "serve.cancel_rtt_us"),
        ("serve.bye", "serve.bye_rtt_us"),
    ] {
        layers.set(metric, median_us(&by_name, span));
    }
    let polls = sorted(by_name.get("serve.poll").map_or(Vec::new(), |ns| {
        ns.iter().map(|&n| n as f64 / 1e3).collect()
    }));
    layers.set("serve.poll_rtt_p99_us", percentile(&polls, 0.99));
    layers.set(
        "serve.wire_overhead_us",
        median_us(&by_name, "serve.poll") - median_us(&twin_spans, "twin.poll"),
    );

    let ticks = m.tick_ns.len().max(1) as f64;
    let traced_ticks = m.tick_traced.iter().filter(|&&t| t).count().max(1) as f64;
    let (encode_us, decode_us, bytes_out) = probes::codec_us(&out.log);
    layers.set("serve.encode_us", encode_us);
    layers.set("serve.decode_us", decode_us);
    layers.set("serve.bytes_out", bytes_out as f64 / traced_ticks);
    layers.set("serve.frames_in", out.counters.frames_in as f64 / ticks);
    layers.set("serve.frames_out", out.counters.frames_out as f64 / ticks);
    layers.set("serve.errors_expected", out.counters.errors_expected as f64);
    layers.set("serve.rejected", out.counters.rejected as f64);
    layers.set("serve.protocol_errors", out.counters.protocol_errors as f64);
    (
        layers.into_metrics(),
        merge(vec![out.spans, replayed.spans, twin_lane]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_well_formed_and_within_the_contract_limits() {
        let ok = |s: &str, extra: &str| {
            s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|&(n, _)| n)
            .collect();
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                !name.is_empty() && name.len() <= 64 && ok(name, "_.-"),
                "{name}"
            );
            assert!(
                !unit.is_empty() && unit.len() <= 16 && ok(unit, "_/%.-"),
                "{name}: {unit}"
            );
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
        assert!(EXACT.iter().all(|e| END_TO_END.iter().any(|(n, _)| n == e)));
    }

    #[test]
    fn end_to_end_arithmetic_on_a_hand_made_run() {
        let m = Measured {
            tick_ns: vec![2_000_000; 200],
            tick_traced: vec![false; 200],
            tick_answers: vec![4; 200],
            kernel_ns: vec![crate::calibrate::NOMINAL_KERNEL_NS as u64; 200],
            first_answer_ns: vec![(0, 1_000_000), (10, 3_000_000), (20, 2_000_000)],
            cpu_ms: 300.0,
            sim: crate::common::SimTotals {
                messages: 8,
                bytes: 8_000,
                tuples: 16,
                energy_uj: 1_600.0,
            },
            setup_s: vec![0.5, 0.3, 0.4],
            setup_speed: vec![1.0; 3],
            peak_rss_mb: 12.5,
            ..Measured::default()
        };
        let got: BTreeMap<&str, f64> = end_to_end(&m)
            .into_iter()
            .map(|m| (m.name, m.value))
            .collect();
        assert_eq!(got["setup_s"], 0.4);
        assert_eq!(got["tick_p50_ms"], 2.0);
        assert!((got["answers_per_s"] - 2_000.0).abs() < 1e-9);
        assert_eq!(got["first_answer_p50_ms"], 2.0);
        assert_eq!(got["tick_drift_ratio"], 1.0);
        assert_eq!(got["cpu_ms_per_tick"], 1.5);
        assert_eq!(got["peak_rss_mb"], 12.5);
        assert_eq!(got["sim_bytes_per_answer"], 10.0);
        assert_eq!(got["sim_energy_uj_per_answer"], 2.0);
        assert_eq!(got.len(), END_TO_END.len());

        // The same run on a host 1.5 times slower than nominal: CPU is 3/4 of the wall
        // time, so 3/4 of every duration shrinks by a third, and CPU time by a third.
        let slow = Measured {
            kernel_ns: vec![(crate::calibrate::NOMINAL_KERNEL_NS * 1.5) as u64; 200],
            setup_speed: vec![1.5; 3],
            ..m
        };
        let got: BTreeMap<&str, f64> = end_to_end(&slow)
            .into_iter()
            .map(|m| (m.name, m.value))
            .collect();
        assert!(
            (got["tick_p50_ms"] - 1.5).abs() < 1e-6,
            "{}",
            got["tick_p50_ms"]
        );
        assert!((got["setup_s"] - 0.3).abs() < 1e-9);
        assert!((got["first_answer_p50_ms"] - 1.5).abs() < 1e-6);
        assert!((got["answers_per_s"] - 4.0 / 1.5e-3).abs() < 1e-3);
        assert!((got["cpu_ms_per_tick"] - 1.0).abs() < 1e-9);
        assert_eq!(got["tick_drift_ratio"], 1.0);
        assert_eq!(
            got["sim_bytes_per_answer"], 10.0,
            "simulated cost does not depend on the host"
        );
    }

    #[test]
    fn a_layer_never_called_reports_zero_and_an_unknown_name_is_a_bug() {
        let mut layers = Layers::default();
        layers.set("core.poll_us", 1.25);
        let metrics = layers.into_metrics();
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert_eq!(
            metrics
                .iter()
                .find(|m| m.name == "core.poll_us")
                .unwrap()
                .value,
            1.25
        );
        assert_eq!(
            metrics
                .iter()
                .find(|m| m.name == "serve.poll_rtt_us")
                .unwrap()
                .value,
            0.0
        );
        assert!(std::panic::catch_unwind(|| Layers::default().set("core.typo_us", 1.0)).is_err());
    }
}
