//! Invariant checkers applied to every cell of the scenario matrix.
//!
//! Each checker returns a list of human-readable violations (empty = pass) so that one
//! matrix run can report every broken cell at once instead of stopping at the first.

use kspot_algos::{SnapshotSpec, TopKResult};
use kspot_net::{NetworkMetrics, PhaseTotals, StorageTotals};
use std::collections::BTreeSet;

fn feq(a: f64, b: f64) -> bool {
    let scale = a.abs().max(b.abs()).max(1.0);
    (a - b).abs() <= 1e-6 * scale
}

/// Ledger conservation: the run's totals must equal the sum of the per-node charges,
/// the sum of the per-phase totals and the sum of the per-epoch totals (the window of
/// per-epoch rows plus the rolled-up remainder) — no traffic or energy may appear or
/// vanish, including on the loss/death/retransmission paths.
pub fn check_ledger(metrics: &NetworkMetrics) -> Vec<String> {
    let mut violations = Vec::new();
    let totals = metrics.totals();

    // Per-node sums (the sink transmits control traffic but its energy is not part of
    // the network totals).
    let mut tx_messages = metrics.sink().tx_messages;
    let mut tx_bytes = metrics.sink().tx_bytes;
    let mut tuples = metrics.sink().tuples_sent;
    let mut dropped = metrics.sink().dropped_messages;
    let mut energy = 0.0;
    for id in 1..=metrics.num_nodes() as u32 {
        let c = metrics.node(id);
        tx_messages += c.tx_messages;
        tx_bytes += c.tx_bytes;
        tuples += c.tuples_sent;
        dropped += c.dropped_messages;
        energy += c.energy_uj;
    }
    if tx_messages != totals.messages {
        violations.push(format!(
            "node-ledger messages {tx_messages} != totals {}",
            totals.messages
        ));
    }
    if tx_bytes != totals.bytes {
        violations.push(format!("node-ledger bytes {tx_bytes} != totals {}", totals.bytes));
    }
    if tuples != totals.tuples {
        violations.push(format!("node-ledger tuples {tuples} != totals {}", totals.tuples));
    }
    if dropped != totals.dropped_messages {
        violations.push(format!(
            "node-ledger drops {dropped} != totals {}",
            totals.dropped_messages
        ));
    }
    if !feq(energy, totals.energy_uj) {
        violations.push(format!(
            "node-ledger energy {energy} µJ != totals {} µJ",
            totals.energy_uj
        ));
    }

    // `check_energy`: node-local energy (sensing, CPU, idle listening) is booked per
    // epoch and in the totals but has no phase, so the per-phase axis only bounds the
    // energy from below while the per-epoch axis must match it exactly.
    let sum_axis =
        |name: &str, parts: Vec<PhaseTotals>, check_energy: bool, violations: &mut Vec<String>| {
            let mut sum = PhaseTotals::default();
            for p in parts {
                sum.messages += p.messages;
                sum.bytes += p.bytes;
                sum.tuples += p.tuples;
                sum.retransmissions += p.retransmissions;
                sum.dropped_messages += p.dropped_messages;
                sum.energy_uj += p.energy_uj;
            }
            let energy_ok = if check_energy {
                feq(sum.energy_uj, totals.energy_uj)
            } else {
                sum.energy_uj <= totals.energy_uj * (1.0 + 1e-9) + 1e-6
            };
            if sum.messages != totals.messages
                || sum.bytes != totals.bytes
                || sum.tuples != totals.tuples
                || sum.retransmissions != totals.retransmissions
                || sum.dropped_messages != totals.dropped_messages
                || !energy_ok
            {
                violations.push(format!("{name} ledger {sum:?} != totals {totals:?}"));
            }
        };
    sum_axis("per-phase", metrics.phases().map(|(_, t)| t).collect(), false, &mut violations);
    let per_epoch = metrics.epochs().map(|(_, t)| t).chain([metrics.epochs_rolled_up()]);
    sum_axis("per-epoch", per_epoch.collect(), true, &mut violations);

    violations
}

/// Attribution conservation across the query-scope axis (ADR-004):
///
/// * each scope's scope×phase breakdown must partition that scope's own ledger —
///   bytes, tuples, messages, retransmissions and drops sum exactly, while energy is
///   only bounded from below (node-local energy is booked to the scope without a
///   phase);
/// * summed scoped bytes/tuples/energy — the retired scopes' bucket included — must
///   never exceed the global ledger, and when
///   `all_traffic_scoped` is set (every transmission ran under an installed scope, as
///   in the multi-query engine) scoped bytes and tuples must decompose the global
///   ledger *exactly* — this is the law that makes per-query charging trustworthy
///   even when one merged frame carries many sessions' payloads.
///
/// Scoped *message* sums are deliberately not compared against the global count:
/// under frame batching a scope's messages count the frames its payload rode on, and
/// a shared frame is counted once per rider (see `kspot_net::schedule`).
pub fn check_scope_attribution(metrics: &NetworkMetrics, all_traffic_scoped: bool) -> Vec<String> {
    let mut violations = Vec::new();
    let totals = metrics.totals();
    let retired = metrics.retired_scopes();
    let mut scoped = PhaseTotals {
        bytes: retired.bytes,
        tuples: retired.tuples,
        energy_uj: retired.energy_uj,
        ..PhaseTotals::default()
    };
    for (scope, scope_totals) in metrics.scopes() {
        scoped.bytes += scope_totals.bytes;
        scoped.tuples += scope_totals.tuples;
        scoped.energy_uj += scope_totals.energy_uj;

        let mut phased = PhaseTotals::default();
        for (_, t) in metrics.scope_phases(scope) {
            phased.messages += t.messages;
            phased.bytes += t.bytes;
            phased.tuples += t.tuples;
            phased.retransmissions += t.retransmissions;
            phased.dropped_messages += t.dropped_messages;
            phased.energy_uj += t.energy_uj;
        }
        if phased.messages != scope_totals.messages
            || phased.bytes != scope_totals.bytes
            || phased.tuples != scope_totals.tuples
            || phased.retransmissions != scope_totals.retransmissions
            || phased.dropped_messages != scope_totals.dropped_messages
        {
            violations.push(format!(
                "scope {scope}: phase breakdown {phased:?} does not partition {scope_totals:?}"
            ));
        }
        if phased.energy_uj > scope_totals.energy_uj * (1.0 + 1e-9) + 1e-6 {
            violations.push(format!(
                "scope {scope}: phased energy {} µJ exceeds the scope's {} µJ",
                phased.energy_uj, scope_totals.energy_uj
            ));
        }
    }
    if scoped.bytes > totals.bytes || scoped.tuples > totals.tuples {
        violations.push(format!(
            "scoped bytes/tuples {}/{} exceed the ledger totals {}/{}",
            scoped.bytes, scoped.tuples, totals.bytes, totals.tuples
        ));
    }
    if scoped.energy_uj > totals.energy_uj * (1.0 + 1e-9) + 1e-6 {
        violations.push(format!(
            "scoped energy {} µJ exceeds the ledger total {} µJ",
            scoped.energy_uj, totals.energy_uj
        ));
    }
    if all_traffic_scoped && (scoped.bytes != totals.bytes || scoped.tuples != totals.tuples) {
        violations.push(format!(
            "all traffic is scoped, yet scoped bytes/tuples {}/{} != ledger totals {}/{}",
            scoped.bytes, scoped.tuples, totals.bytes, totals.tuples
        ));
    }
    violations
}

/// Attribution conservation across the **storage** axis (ADR-009), the sibling of
/// [`check_scope_attribution`] for flash page I/O:
///
/// * per-node storage counters must sum exactly to [`NetworkMetrics::storage_totals`]
///   — no page write or read may appear or vanish, including checkpoint and restore
///   traffic;
/// * summed per-scope storage, the retired scopes' included, must never exceed the
///   totals (unscoped maintenance writes are legal, phantom scoped I/O is not);
/// * flash energy is part of the run's energy ledger, so the storage energy must be
///   bounded by the global energy total.
pub fn check_storage_attribution(metrics: &NetworkMetrics) -> Vec<String> {
    let mut violations = Vec::new();
    let totals = metrics.storage_totals();

    let mut per_node = StorageTotals::default();
    for id in 1..=metrics.num_nodes() as u32 {
        let s = metrics.node_storage(id);
        per_node.pages_written += s.pages_written;
        per_node.pages_read += s.pages_read;
        per_node.bytes_written += s.bytes_written;
        per_node.energy_uj += s.energy_uj;
    }
    if per_node.pages_written != totals.pages_written
        || per_node.pages_read != totals.pages_read
        || per_node.bytes_written != totals.bytes_written
    {
        violations.push(format!(
            "per-node storage ledger {per_node:?} does not partition the totals {totals:?}"
        ));
    }
    if !feq(per_node.energy_uj, totals.energy_uj) {
        violations.push(format!(
            "per-node flash energy {} µJ != storage totals {} µJ",
            per_node.energy_uj, totals.energy_uj
        ));
    }

    let mut scoped = metrics.retired_storage();
    for (_, s) in metrics.storage_scopes() {
        scoped.pages_written += s.pages_written;
        scoped.pages_read += s.pages_read;
        scoped.bytes_written += s.bytes_written;
        scoped.energy_uj += s.energy_uj;
    }
    if scoped.pages_written > totals.pages_written
        || scoped.pages_read > totals.pages_read
        || scoped.bytes_written > totals.bytes_written
    {
        violations.push(format!(
            "scoped storage {scoped:?} exceeds the storage totals {totals:?}"
        ));
    }
    if scoped.energy_uj > totals.energy_uj * (1.0 + 1e-9) + 1e-6 {
        violations.push(format!(
            "scoped flash energy {} µJ exceeds the storage total {} µJ",
            scoped.energy_uj, totals.energy_uj
        ));
    }
    if totals.energy_uj > metrics.totals().energy_uj * (1.0 + 1e-9) + 1e-6 {
        violations.push(format!(
            "flash energy {} µJ exceeds the run's energy ledger {} µJ",
            totals.energy_uj,
            metrics.totals().energy_uj
        ));
    }
    violations
}

/// Structural sanity of a ranked answer: at most K items, distinct keys drawn from the
/// legal key space, values finite, inside the domain and sorted best-first.  This is
/// the unconditional floor every answer must meet, including degraded (lossy) ones.
pub fn check_well_formed(
    result: &TopKResult,
    spec: &SnapshotSpec,
    legal_keys: &BTreeSet<u64>,
) -> Vec<String> {
    let mut violations = Vec::new();
    if result.items.len() > spec.k {
        violations.push(format!("answer has {} items, K = {}", result.items.len(), spec.k));
    }
    let mut seen = BTreeSet::new();
    for pair in result.items.windows(2) {
        if pair[0].value < pair[1].value {
            violations.push(format!("answer not sorted best-first: {result}"));
            break;
        }
    }
    for item in &result.items {
        if !seen.insert(item.key) {
            violations.push(format!("duplicate key {} in {result}", item.key));
        }
        if !legal_keys.contains(&item.key) {
            violations.push(format!("key {} is outside the legal key space", item.key));
        }
        if !item.value.is_finite()
            || item.value < spec.domain.min - 1e-9
            || item.value > spec.domain.max + 1e-9
        {
            violations.push(format!("value {} escapes the domain in {result}", item.value));
        }
    }
    violations
}

/// Rank-for-rank agreement with the oracle, with values matching to tolerance.
pub fn check_matches_oracle(
    who: &str,
    result: &TopKResult,
    oracle: &TopKResult,
) -> Vec<String> {
    let mut violations = Vec::new();
    if !result.same_ranking(oracle) {
        violations.push(format!("{who}: ranking {result} != oracle {oracle}"));
    } else if !result.approx_eq(oracle, 1e-6) {
        violations.push(format!("{who}: values {result} drift from oracle {oracle}"));
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use kspot_algos::RankedItem;
    use kspot_net::types::ValueDomain;
    use kspot_net::{AttemptCost, PhaseTag, SINK};
    use kspot_query::AggFunc;

    #[test]
    fn ledger_checker_accepts_a_consistent_run() {
        let mut m = NetworkMetrics::new(3);
        m.record_transmission(2, 1, 0, PhaseTag::Update, 19, 1, 380.0, 285.0);
        m.record_transmission(1, SINK, 1, PhaseTag::Update, 31, 2, 620.0, 465.0);
        let cost = |bytes, tx_energy, rx_energy| AttemptCost { bytes, tuples: 0, tx_energy, rx_energy };
        // A flood from the sink, a retransmission and a drop, an unheard attempt.
        let mut flood = m.open_path(1, PhaseTag::Control, cost(13, 260.0, 195.0));
        flood.record_attempt(SINK, &[1, 2, 3]);
        flood.close();
        let mut lost = m.open_path(1, PhaseTag::Update, cost(31, 620.0, 465.0));
        lost.note_retransmission();
        lost.note_drop(1);
        lost.close();
        m.record_local_energy(3, 0, 140.0);
        let mut unheard = m.open_path(2, PhaseTag::Probe, cost(9, 180.0, 135.0));
        unheard.record_attempt(3, &[]);
        unheard.close();
        let clean = check_ledger(&m);
        assert!(clean.is_empty(), "public API keeps ledgers consistent: {clean:?}");
    }

    #[test]
    fn empty_ledger_is_trivially_balanced() {
        assert!(check_ledger(&NetworkMetrics::new(4)).is_empty());
    }

    #[test]
    fn scope_attribution_checker_accepts_scoped_and_frame_traffic() {
        use kspot_net::{Fate, FrameScheduler, RadioModel};
        let mut m = NetworkMetrics::new(3);
        m.set_scope(Some(0));
        m.record_transmission(1, 2, 0, PhaseTag::Update, 19, 1, 380.0, 285.0);
        m.set_scope(None);
        // A merged frame carrying both scopes, on the air twice (one retransmission).
        let mut frames = FrameScheduler::new(3);
        let fate = || Fate { epoch: 0, delivered: true, attempts: 2 };
        frames.enqueue(2, 1, Some(0), PhaseTag::Update, 12, 1, fate);
        frames.enqueue(2, 1, Some(1), PhaseTag::Update, 24, 2, fate);
        m.book_frames(&mut frames, &RadioModel::mica2(), |_, _, frame_bytes, _| {
            (20.0 * f64::from(frame_bytes), 10.0 * f64::from(frame_bytes))
        });
        assert_eq!(m.totals().retransmissions, 1);

        let clean = check_scope_attribution(&m, true);
        assert!(clean.is_empty(), "the public API keeps attribution conserved: {clean:?}");
        assert!(check_ledger(&m).is_empty(), "frame bookings conserve the global ledgers too");
    }

    #[test]
    fn scope_attribution_checker_flags_unscoped_leaks_when_equality_is_required() {
        let mut m = NetworkMetrics::new(3);
        m.record_transmission(1, 2, 0, PhaseTag::Update, 19, 1, 380.0, 285.0);
        assert!(check_scope_attribution(&m, false).is_empty(), "inequality mode tolerates it");
        let strict = check_scope_attribution(&m, true);
        assert_eq!(strict.len(), 1, "unscoped traffic breaks the exact decomposition: {strict:?}");
    }

    #[test]
    fn storage_attribution_checker_accepts_checkpoint_and_restore_traffic() {
        let mut m = NetworkMetrics::new(3);
        // Unscoped maintenance writes (the engine's checkpoint pass)...
        m.record_page_writes(1, 3, 2, 136, 90.0);
        m.record_page_writes(2, 3, 1, 72, 45.0);
        // ...and a scoped restore (an AS OF session reading the image back).
        m.set_scope(Some(4));
        m.record_page_reads(1, 4, 2, 40.0);
        m.record_page_reads(2, 4, 1, 20.0);
        m.set_scope(None);
        let clean = check_storage_attribution(&m);
        assert!(clean.is_empty(), "the public API keeps storage conserved: {clean:?}");
        assert!(check_ledger(&m).is_empty(), "flash energy lands in the run ledgers too");
    }

    #[test]
    fn storage_attribution_is_trivially_conserved_on_a_flashless_run() {
        let mut m = NetworkMetrics::new(3);
        m.record_transmission(2, 1, 0, PhaseTag::Update, 19, 1, 380.0, 285.0);
        assert!(check_storage_attribution(&m).is_empty());
    }

    #[test]
    fn well_formedness_catches_bad_answers() {
        let spec = SnapshotSpec::new(2, AggFunc::Avg, ValueDomain::percentage());
        let legal: BTreeSet<u64> = [0u64, 1, 2, 3].into_iter().collect();

        let good = TopKResult::new(0, vec![RankedItem::new(2, 75.0), RankedItem::new(0, 74.5)]);
        assert!(check_well_formed(&good, &spec, &legal).is_empty());

        let too_many = TopKResult::new(
            0,
            vec![RankedItem::new(2, 75.0), RankedItem::new(0, 74.5), RankedItem::new(1, 41.0)],
        );
        assert!(!check_well_formed(&too_many, &spec, &legal).is_empty());

        let alien_key = TopKResult::new(0, vec![RankedItem::new(9, 75.0)]);
        assert!(!check_well_formed(&alien_key, &spec, &legal).is_empty());

        let out_of_domain = TopKResult::new(0, vec![RankedItem::new(2, 175.0)]);
        assert!(!check_well_formed(&out_of_domain, &spec, &legal).is_empty());
    }

    #[test]
    fn oracle_matcher_flags_rank_and_value_drift() {
        let oracle = TopKResult::new(0, vec![RankedItem::new(2, 75.0), RankedItem::new(0, 74.5)]);
        let same = TopKResult::new(0, vec![RankedItem::new(2, 75.0), RankedItem::new(0, 74.5)]);
        assert!(check_matches_oracle("x", &same, &oracle).is_empty());
        let flipped = TopKResult::new(0, vec![RankedItem::new(0, 76.0), RankedItem::new(2, 75.0)]);
        assert!(!check_matches_oracle("x", &flipped, &oracle).is_empty());
        let drifted = TopKResult::new(0, vec![RankedItem::new(2, 75.1), RankedItem::new(0, 74.5)]);
        assert!(!check_matches_oracle("x", &drifted, &oracle).is_empty());
    }
}
