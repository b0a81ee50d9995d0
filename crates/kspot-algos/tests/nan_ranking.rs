//! Regression tests for NaN-safe ranking: a corrupted `NaN` reading fed through MINT,
//! TJA and TPUT must never panic, never destabilise the ordering of the *real* values,
//! and must rank deterministically (NaN sorts last in every final ranking, per
//! `kspot_net::types::cmp_value`).
//!
//! Before the `f64::total_cmp` fix the threshold-selection sorts used
//! `partial_cmp(..).unwrap_or(Ordering::Equal)` — an inconsistent comparator that can
//! silently misorder even the non-NaN values once a NaN is present.

use kspot_algos::historic::HistoricAlgorithm;
use kspot_algos::{
    BankWindows, CentralizedHistoric, HistoricSpec, MintViews, SnapshotSpec, TagTopK, Tja,
    TopKResult, Tput,
};
use kspot_algos::snapshot::run_continuous;
use kspot_net::types::ValueDomain;
use kspot_net::{Deployment, Network, NetworkConfig, Workload};
use kspot_query::AggFunc;

/// A 12-node / 4-room clustered deployment with one node (node 5, room 1) reporting
/// NaN every epoch; every other value is a distinct, well-separated real number.
fn poisoned_trace(epochs: usize) -> (Deployment, Vec<Vec<f64>>) {
    let d = Deployment::clustered_rooms(4, 3, 20.0, kspot_net::rng::topology_seed(2));
    let trace: Vec<Vec<f64>> = (0..epochs)
        .map(|e| {
            (1..=12u32)
                .map(|node| {
                    if node == 5 {
                        f64::NAN
                    } else {
                        // Distinct per-node levels with a mild per-epoch wobble.
                        f64::from(node) * 7.0 + (e % 3) as f64
                    }
                })
                .collect()
        })
        .collect();
    (d, trace)
}

fn nan_free_keys(results: &[TopKResult]) -> Vec<Vec<u64>> {
    results.iter().map(|r| r.keys()).collect()
}

/// Bitwise view of a ranked answer, so determinism can be asserted even when an item's
/// value is NaN (`PartialEq` on f64 would report NaN != NaN for identical results).
fn bits(result: &TopKResult) -> Vec<(u64, u64)> {
    result.items.iter().map(|i| (i.key, i.value.to_bits())).collect()
}

fn assert_nan_ranks_last(result: &TopKResult, context: &str) {
    if let Some(pos) = result.items.iter().position(|i| i.value.is_nan()) {
        assert!(
            result.items[pos..].iter().all(|i| i.value.is_nan()),
            "{context}: a NaN value ranked above a real value: {result}"
        );
    }
}

#[test]
fn mint_survives_a_nan_reading_deterministically() {
    let (d, trace) = poisoned_trace(10);
    let spec = SnapshotSpec::new(2, AggFunc::Avg, ValueDomain::percentage());
    let run = || {
        let mut net = Network::new(d.clone(), NetworkConfig::ideal());
        let mut workload = Workload::trace(&d, ValueDomain::percentage(), trace.clone());
        run_continuous(&mut MintViews::new(spec), &mut net, &mut workload, 10)
    };
    let first = run();
    let second = run();
    let as_bits = |rs: &[TopKResult]| rs.iter().map(bits).collect::<Vec<_>>();
    assert_eq!(as_bits(&first), as_bits(&second), "MINT must rank deterministically under NaN input");
    for result in &first {
        assert_nan_ranks_last(result, "MINT");
    }

    // The rooms untouched by the corruption must rank exactly as they would be ranked
    // by TAG over the same poisoned readings (the exact baseline shares the final
    // cmp_value ordering, so any disagreement is a threshold-sort misorder).
    let mut tag_net = Network::new(d.clone(), NetworkConfig::ideal());
    let mut tag_workload = Workload::trace(&d, ValueDomain::percentage(), trace.clone());
    let tag = run_continuous(&mut TagTopK::new(spec), &mut tag_net, &mut tag_workload, 10);
    assert_eq!(nan_free_keys(&first), nan_free_keys(&tag), "MINT and TAG must agree under NaN");
}

#[test]
fn tja_and_tput_survive_a_nan_reading_deterministically() {
    let (d, trace) = poisoned_trace(16);
    let spec = HistoricSpec::new(3, AggFunc::Avg, ValueDomain::percentage(), 16);
    let collect = || {
        let mut w = Workload::trace(&d, ValueDomain::percentage(), trace.clone());
        BankWindows::collect(&mut w, 16)
    };

    let run_historic = |algo: &mut dyn HistoricAlgorithm| {
        let mut net = Network::new(d.clone(), NetworkConfig::ideal());
        let mut data = collect();
        algo.execute(&mut net, &mut data)
    };

    let tja_a = run_historic(&mut Tja::new(spec));
    let tja_b = run_historic(&mut Tja::new(spec));
    assert_eq!(bits(&tja_a), bits(&tja_b), "TJA must rank deterministically under NaN input");
    assert_nan_ranks_last(&tja_a, "TJA");

    let tput_a = run_historic(&mut Tput::new(spec));
    let tput_b = run_historic(&mut Tput::new(spec));
    assert_eq!(bits(&tput_a), bits(&tput_b), "TPUT must rank deterministically under NaN input");
    assert_nan_ranks_last(&tput_a, "TPUT");

    // Neither threshold algorithm may misorder the epochs relative to the exhaustive
    // baseline, which ships every (poisoned) window to the sink and ranks centrally.
    let central = run_historic(&mut CentralizedHistoric::new(spec));
    assert_nan_ranks_last(&central, "centralized");
    let real_keys = |r: &TopKResult| -> Vec<u64> {
        r.items.iter().filter(|i| !i.value.is_nan()).map(|i| i.key).collect()
    };
    assert_eq!(real_keys(&tja_a), real_keys(&central), "TJA misordered real epochs");
    assert_eq!(real_keys(&tput_a), real_keys(&central), "TPUT misordered real epochs");
}

#[test]
fn a_single_poisoned_epoch_cannot_inflate_the_elimination_threshold() {
    // The sharpest regression for the total_cmp fix: exactly ONE (node, epoch) cell is
    // NaN, so exactly one partial sum is poisoned while every other sum stays real.
    // Were the poisoned sum sorted above the real ones (NaN-first descending order),
    // τ₁ would become the (k-1)-th *real* sum — a threshold θ that is NOT a valid
    // lower bound and can wrongly eliminate a true top-k epoch.  The poisoned sum must
    // instead weaken the threshold, leaving every real epoch ranked exactly.
    let d = Deployment::clustered_rooms(4, 3, 20.0, kspot_net::rng::topology_seed(8));
    let window = 24usize;
    let trace: Vec<Vec<f64>> = (0..window)
        .map(|e| {
            (1..=12u32)
                .map(|node| {
                    if node == 5 && e == 7 {
                        f64::NAN
                    } else {
                        // Distinct epoch levels so the true ranking is unambiguous.
                        10.0 + (e as f64) * 3.0 + f64::from(node) * 0.1
                    }
                })
                .collect()
        })
        .collect();
    let spec = HistoricSpec::new(4, AggFunc::Avg, ValueDomain::percentage(), window);
    let collect = || {
        let mut w = Workload::trace(&d, ValueDomain::percentage(), trace.clone());
        BankWindows::collect(&mut w, window)
    };
    let run_historic = |algo: &mut dyn HistoricAlgorithm| {
        let mut net = Network::new(d.clone(), NetworkConfig::ideal());
        let mut data = collect();
        algo.execute(&mut net, &mut data)
    };

    let central = run_historic(&mut CentralizedHistoric::new(spec));
    let real_keys = |r: &TopKResult| -> Vec<u64> {
        r.items.iter().filter(|i| !i.value.is_nan()).map(|i| i.key).collect()
    };
    assert!(!real_keys(&central).is_empty(), "the baseline ranks the clean epochs");

    let tja = run_historic(&mut Tja::new(spec));
    let tput = run_historic(&mut Tput::new(spec));
    assert_eq!(real_keys(&tja), real_keys(&central), "TJA dropped or misordered a true answer");
    assert_eq!(real_keys(&tput), real_keys(&central), "TPUT dropped or misordered a true answer");
    assert_nan_ranks_last(&tja, "TJA single-NaN");
    assert_nan_ranks_last(&tput, "TPUT single-NaN");

    // Snapshot side: the same single poisoned cell must not let MINT's local pruning
    // bound eliminate a clean group — MINT and TAG must agree on every epoch.
    let snap_spec = SnapshotSpec::new(2, AggFunc::Avg, ValueDomain::percentage());
    let run_snap = |algo: &mut dyn kspot_algos::SnapshotAlgorithm| {
        let mut net = Network::new(d.clone(), NetworkConfig::ideal());
        let mut workload = Workload::trace(&d, ValueDomain::percentage(), trace.clone());
        run_continuous(algo, &mut net, &mut workload, window)
    };
    let mint = run_snap(&mut MintViews::new(snap_spec));
    let tag = run_snap(&mut TagTopK::new(snap_spec));
    for (m, t) in mint.iter().zip(tag.iter()) {
        assert_eq!(real_keys(m), real_keys(t), "MINT diverged from TAG on epoch {}", m.epoch);
    }
}

/// Direct contract test for the shared comparator itself (`types.rs`), now built on
/// `f64::total_cmp`: every NaN payload is one equivalence class ranked below every
/// real value, and the order is total (antisymmetric + transitive), so `sort_by`
/// can never panic or misorder the clean values.
#[test]
fn cmp_value_is_a_total_order_with_every_nan_smallest_and_equal() {
    use kspot_net::types::cmp_value;
    use std::cmp::Ordering;

    // Distinct NaN bit patterns: positive quiet, negative quiet, nonzero payload.
    let nans = [f64::NAN, -f64::NAN, f64::from_bits(0x7ff8_0000_0000_0001)];
    let reals = [f64::NEG_INFINITY, -1.5e300, -0.0, 0.0, 42.0, f64::INFINITY];

    for &a in &nans {
        for &b in &nans {
            assert_eq!(cmp_value(a, b), Ordering::Equal, "NaN payloads must collapse");
        }
        for &r in &reals {
            assert_eq!(cmp_value(a, r), Ordering::Less, "NaN must rank below {r}");
            assert_eq!(cmp_value(r, a), Ordering::Greater, "{r} must rank above NaN");
        }
    }

    // Antisymmetry over every real pair (the property the old fallback comparator
    // violated once a NaN entered the mix).
    for &a in &reals {
        for &b in &reals {
            assert_eq!(cmp_value(a, b), cmp_value(b, a).reverse(), "({a}, {b})");
        }
    }
}

#[test]
fn cmp_value_sorts_poisoned_samples_without_panicking() {
    use kspot_net::types::cmp_value;

    let mut xs = [3.0, f64::NAN, f64::NEG_INFINITY, -7.0, f64::INFINITY, -f64::NAN, 0.5];
    xs.sort_by(|a, b| cmp_value(*a, *b));
    assert!(xs[0].is_nan() && xs[1].is_nan(), "both NaNs sort first (smallest)");
    assert_eq!(&xs[2..], &[f64::NEG_INFINITY, -7.0, 0.5, 3.0, f64::INFINITY]);

    // Descending ranking order — how the algorithms consume it — puts NaN last.
    xs.sort_by(|a, b| cmp_value(*b, *a));
    assert!(xs[5].is_nan() && xs[6].is_nan(), "NaN ranks last in descending order");
}
