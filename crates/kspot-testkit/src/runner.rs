//! Drives every algorithm through a scenario cell and applies the invariant checkers.
//!
//! ## What is asserted where
//!
//! * **Every cell, every algorithm**: ledger conservation over the run's
//!   [`kspot_net::NetworkMetrics`]; answers structurally well-formed; runs
//!   deterministic (same cell twice → identical answers and totals).
//! * **Clean epochs** (no payload dropped after its ARQ retries — always true on
//!   lossless cells, and the common case on lossy cells thanks to the retransmit
//!   budget): every *exact* snapshot algorithm (MINT, TAG, centralized) must agree
//!   rank-for-rank with the oracle restricted to participating nodes, and every exact
//!   historic algorithm (TJA, TPUT, centralized windows) with the participating-window
//!   oracle.  Death and duty-cycle cells are covered by this branch — participation
//!   changes, but nothing is dropped — so degraded cells are *checked*, not skipped.
//! * **Dirty epochs** (something was dropped): the answer may legitimately diverge —
//!   exactness is scoped to delivered data — so the checks fall back to the
//!   unconditional floor (well-formedness, ledgers, determinism).
//! * **Lossless cells only**: the paper's cost ordering — MINT's view tuples never
//!   exceed TAG's, TAG's bytes never exceed centralized collection's, and on clustered
//!   deployments MINT's total bytes stay below centralized collection's.

use crate::invariants::{check_ledger, check_matches_oracle, check_well_formed};
use crate::oracle::{node_membership_oracle, participating_nodes, snapshot_oracle};
use crate::scenario::{ScenarioCell, TopologyKind, WorkloadProfile};
use kspot_algos::historic::{exact_over_source, HistoricAlgorithm};
use kspot_algos::{
    BankWindows, CentralizedCollection, CentralizedHistoric, FilaMonitor, LocalAggregateHistoric,
    MintViews, NaiveLocalPrune, SnapshotAlgorithm, SnapshotSpec, TagTopK, Tja, TopKResult, Tput,
};
use kspot_net::types::ValueDomain;
use kspot_net::{Epoch, NetworkMetrics, PhaseTag, PhaseTotals};
use kspot_query::AggFunc;
use std::collections::BTreeSet;

/// The verdict of one cell: the cell's label plus every invariant violation found.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// Human-readable cell identifier.
    pub label: String,
    /// Every violation found (empty = the cell passed).
    pub violations: Vec<String>,
}

impl CellOutcome {
    /// True when no invariant was violated.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// One snapshot algorithm's full run over a cell: per-epoch answers, per-epoch
/// cleanliness, and the final metrics.
struct SnapshotRun {
    results: Vec<TopKResult>,
    clean_epochs: Vec<bool>,
    totals: PhaseTotals,
    update_tuples: u64,
    ledger_violations: Vec<String>,
}

fn drive_snapshot(cell: &ScenarioCell, algo: &mut dyn SnapshotAlgorithm) -> SnapshotRun {
    let d = cell.deployment();
    let mut net = cell.network(&d);
    let mut workload = cell.workload(&d);
    let mut results = Vec::with_capacity(cell.epochs);
    let mut clean_epochs = Vec::with_capacity(cell.epochs);
    for e in 0..cell.epochs as Epoch {
        let readings = workload.next_epoch();
        results.push(net.run_epoch(e, |net| algo.execute_epoch(net, &readings)));
        clean_epochs.push(net.metrics().epoch(e).dropped_messages == 0);
    }
    let metrics: &NetworkMetrics = net.metrics();
    SnapshotRun {
        results,
        clean_epochs,
        totals: metrics.totals(),
        update_tuples: metrics.phase(PhaseTag::Creation).tuples
            + metrics.phase(PhaseTag::Update).tuples,
        ledger_violations: check_ledger(metrics),
    }
}

/// Runs every snapshot algorithm through the cell and differentially checks them
/// against the participation-scoped oracle and each other.
pub fn run_snapshot_cell(cell: &ScenarioCell) -> CellOutcome {
    let label = cell.label();
    let mut violations = Vec::new();
    let d = cell.deployment();
    let plan = cell.fault_plan(&d);
    let spec = cell.snapshot_spec();
    let group_keys: BTreeSet<u64> = d.groups().iter().map(|&(g, _)| u64::from(g)).collect();

    // Reference readings, regenerated from the same workload stream the algorithms
    // saw, and the per-epoch oracle every exact strategy is compared against.
    let mut reference_workload = cell.workload(&d);
    let reference: Vec<Vec<kspot_net::Reading>> =
        (0..cell.epochs).map(|_| reference_workload.next_epoch()).collect();
    let oracles: Vec<TopKResult> =
        reference.iter().map(|r| snapshot_oracle(&spec, &plan, r)).collect();

    // --- exact strategies must match the oracle on every clean epoch ----------------
    let mut exact_runs: Vec<(&str, SnapshotRun)> = Vec::new();
    let mut mint = MintViews::new(spec);
    exact_runs.push(("MINT", drive_snapshot(cell, &mut mint)));
    exact_runs.push(("TAG", drive_snapshot(cell, &mut TagTopK::new(spec))));
    exact_runs.push(("centralized", drive_snapshot(cell, &mut CentralizedCollection::new(spec))));

    for (who, run) in &exact_runs {
        violations.extend(run.ledger_violations.iter().map(|v| format!("{who}: {v}")));
        for (e, result) in run.results.iter().enumerate() {
            violations.extend(
                check_well_formed(result, &spec, &group_keys)
                    .into_iter()
                    .map(|v| format!("{who} epoch {e}: {v}")),
            );
            if run.clean_epochs[e] {
                violations.extend(
                    check_matches_oracle(who, result, &oracles[e])
                        .into_iter()
                        .map(|v| format!("epoch {e}: {v}")),
                );
            }
        }
    }

    // --- determinism: the same cell must replay bit-for-bit -------------------------
    let replay = drive_snapshot(cell, &mut MintViews::new(spec));
    let first = &exact_runs[0].1;
    if replay.results != first.results || replay.totals != first.totals {
        violations.push("MINT replay diverged: the cell is not deterministic".to_string());
    }

    // --- the inexact strategies still owe structural sanity -------------------------
    let naive_run = drive_snapshot(cell, &mut NaiveLocalPrune::new(spec));
    violations.extend(naive_run.ledger_violations.iter().map(|v| format!("naive: {v}")));
    for (e, result) in naive_run.results.iter().enumerate() {
        violations.extend(
            check_well_formed(result, &spec, &group_keys)
                .into_iter()
                .map(|v| format!("naive epoch {e}: {v}")),
        );
    }

    // FILA answers a different query (Top-K *nodes*); on clean epochs of lossless cells
    // its membership must be exact, elsewhere it owes the structural floor.
    let fila_spec = SnapshotSpec::new(spec.k, AggFunc::Max, ValueDomain::percentage());
    let node_keys: BTreeSet<u64> = d.node_ids().iter().map(|&n| u64::from(n)).collect();
    let fila_run = drive_snapshot(cell, &mut FilaMonitor::new(fila_spec));
    violations.extend(fila_run.ledger_violations.iter().map(|v| format!("FILA: {v}")));
    for (e, result) in fila_run.results.iter().enumerate() {
        violations.extend(
            check_well_formed(result, &fila_spec, &node_keys)
                .into_iter()
                .map(|v| format!("FILA epoch {e}: {v}")),
        );
        if cell.fault.is_lossless() {
            let mut ours = result.keys();
            ours.sort_unstable();
            let oracle = node_membership_oracle(&plan, &reference[e], fila_spec.k);
            if ours != oracle {
                violations
                    .push(format!("FILA epoch {e}: membership {ours:?} != oracle {oracle:?}"));
            }
        }
    }

    // --- cost orderings the paper predicts, on healthy networks ---------------------
    if cell.fault.is_lossless() {
        let mint_run = &exact_runs[0].1;
        let tag_run = &exact_runs[1].1;
        let central_run = &exact_runs[2].1;
        if mint_run.update_tuples > tag_run.update_tuples {
            violations.push(format!(
                "cost: MINT view tuples {} exceed TAG's {}",
                mint_run.update_tuples, tag_run.update_tuples
            ));
        }
        if tag_run.totals.bytes > central_run.totals.bytes {
            violations.push(format!(
                "cost: TAG bytes {} exceed centralized {}",
                tag_run.totals.bytes, central_run.totals.bytes
            ));
        }
        // MINT beating raw collection outright is only predicted for the clustered,
        // temporally correlated regime the paper's demo runs in; on uncorrelated
        // workloads the per-epoch probes are the documented price of exactness.
        if cell.topology == TopologyKind::ClusteredRooms
            && cell.workload == WorkloadProfile::RoomCorrelated
            && mint_run.totals.bytes > central_run.totals.bytes
        {
            violations.push(format!(
                "cost: MINT bytes {} exceed centralized {} on a clustered correlated cell",
                mint_run.totals.bytes, central_run.totals.bytes
            ));
        }
    }

    CellOutcome { label, violations }
}

/// Runs every historic algorithm through the cell: the window is buffered fault-free
/// (sensing is local), then the one-shot query executes on the faulted network at the
/// last window epoch.
pub fn run_historic_cell(cell: &ScenarioCell) -> CellOutcome {
    let label = cell.label();
    let mut violations = Vec::new();
    let d = cell.deployment();
    let plan = cell.fault_plan(&d);
    let spec = cell.historic_spec();

    let mut data = BankWindows::collect(&mut cell.workload(&d), cell.window);
    let query_epoch = data.snapshot_epoch().expect("non-empty window");
    let participants = participating_nodes(&plan, &d, query_epoch);
    let oracle = exact_over_source(&mut data, &spec, &participants);
    let epoch_keys: BTreeSet<u64> = data.covered_epochs().iter().copied().collect();
    let historic_as_snapshot_spec =
        SnapshotSpec::new(spec.k, AggFunc::Avg, ValueDomain::percentage());

    let run = |who: &str, algo: &mut dyn HistoricAlgorithm, violations: &mut Vec<String>| -> u64 {
        let mut net = cell.network(&d);
        net.begin_epoch(query_epoch);
        let mut data = data.clone();
        let result = algo.execute(&mut net, &mut data);
        let metrics = net.metrics();
        violations.extend(check_ledger(metrics).into_iter().map(|v| format!("{who}: {v}")));
        violations.extend(
            check_well_formed(&result, &historic_as_snapshot_spec, &epoch_keys)
                .into_iter()
                .map(|v| format!("{who}: {v}")),
        );
        if metrics.totals().dropped_messages == 0 {
            violations.extend(check_matches_oracle(who, &result, &oracle));
        }
        metrics.totals().bytes
    };

    let tja_bytes = run("TJA", &mut Tja::new(spec), &mut violations);
    let tput_bytes = run("TPUT", &mut Tput::new(spec), &mut violations);
    let central_bytes = run("centralized-windows", &mut CentralizedHistoric::new(spec), &mut violations);

    // The horizontally fragmented variant answers a *group* ranking over the windows;
    // check it against the participating-node group-window averages.
    {
        let mut net = cell.network(&d);
        net.begin_epoch(query_epoch);
        let mut local_data = data.clone();
        let snap_spec = cell.snapshot_spec();
        let result = LocalAggregateHistoric::new(snap_spec).execute(&mut net, &mut local_data);
        let metrics = net.metrics();
        violations
            .extend(check_ledger(metrics).into_iter().map(|v| format!("local-aggregate: {v}")));
        let group_keys: BTreeSet<u64> = d.groups().iter().map(|&(g, _)| u64::from(g)).collect();
        violations.extend(
            check_well_formed(&result, &snap_spec, &group_keys)
                .into_iter()
                .map(|v| format!("local-aggregate: {v}")),
        );
        if metrics.totals().dropped_messages == 0 {
            let expected = group_window_oracle(&d, &mut data, &participants, snap_spec.k);
            violations.extend(check_matches_oracle("local-aggregate", &result, &expected));
        }
    }

    // Hierarchical TJA must not cost more bytes than flat TPUT on a healthy network.
    // Beating raw window collection outright is only predicted when epochs are
    // interesting network-wide (threshold joins need the local top-k lists to
    // overlap); the drifting hot-spot workload deliberately breaks that, so it makes
    // no claim there.  Linear chains make no claim either: a maximum-depth chain has
    // no sibling subtrees for the hierarchical join to exploit, yet every extra TJA
    // phase pays per-hop frame overhead (preamble + header per relayed frame), so on
    // the matrix's short windows the overhead can outweigh the pruned payload — the
    // chain regime's byte claim lives in the long-window E6/E7 sweeps.  (TPUT itself
    // only wins on long, correlated windows, so the short matrix windows assert
    // nothing about TPUT vs centralized.)
    if cell.fault.is_lossless() {
        if tja_bytes > tput_bytes {
            violations.push(format!("cost: TJA bytes {tja_bytes} exceed TPUT {tput_bytes}"));
        }
        if cell.workload != WorkloadProfile::DriftingHotSpot
            && cell.topology != TopologyKind::LinearChain
            && tja_bytes >= central_bytes
        {
            violations.push(format!(
                "cost: TJA bytes {tja_bytes} not below centralized windows {central_bytes}"
            ));
        }
    }

    CellOutcome { label, violations }
}

/// The participating-node group-window-average oracle for the horizontally fragmented
/// historic strategy.
fn group_window_oracle(
    d: &kspot_net::Deployment,
    data: &mut BankWindows<'_>,
    participants: &[kspot_net::NodeId],
    k: usize,
) -> TopKResult {
    use kspot_algos::RankedItem;
    use std::collections::BTreeMap;
    let mut per_group: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for &node in participants {
        let vals = data.samples(node).iter().map(|&(_, v)| v);
        per_group.entry(u64::from(d.group_of(node))).or_default().extend(vals);
    }
    let mut items: Vec<RankedItem> = per_group
        .into_iter()
        .map(|(g, vals)| RankedItem::new(g, vals.iter().sum::<f64>() / vals.len() as f64))
        .collect();
    TopKResult::best_of(0, &mut items, k)
}
