//! The experiment suite: every quantitative claim of the KSpot demonstration (E1–E11)
//! and the simulated cost of the engine's sharing mechanisms (E13, E14, E17),
//! regenerated as printable tables.  Every table is a pure function of the simulator
//! — bytes, messages, energy, pages, answers; never a timing (ADR-012, lint R3) — so
//! `tests/golden_tables.rs` pins their text.  Each experiment's doc comment names the
//! paper artefact or ADR it reproduces; [`ALL_EXPERIMENTS`] is the index.

use crate::table::{fmt_f, Table};
use kspot_algos::historic::HistoricAlgorithm;
use kspot_algos::snapshot::{exact_reference, run_continuous, AccuracyReport, SnapshotAlgorithm};
use kspot_algos::{
    BankWindows, CentralizedCollection, CentralizedHistoric, HistoricSpec, MintViews,
    NaiveLocalPrune, SnapshotSpec, TagTopK, Tja, Tput,
};
use kspot_core::{KSpotServer, QueryEngine, ScenarioConfig, StrategyReport};
use kspot_net::types::ValueDomain;
use kspot_net::{Deployment, Network, NetworkConfig, RoomModelParams, WindowBank, Workload};
use kspot_query::AggFunc;

/// The identifiers of every experiment in the suite.  E12, E15 and E16 printed
/// wall-clock rates and were retired with ADR-012; the surviving ids are unchanged.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e13", "e14", "e17",
];

/// Runs one experiment by id (one of [`ALL_EXPERIMENTS`]), returning its table.
pub fn run(id: &str) -> Option<Table> {
    let experiment: fn() -> Table = match id.to_ascii_lowercase().as_str() {
        "e1" => e1_figure1,
        "e2" => e2_snapshot_savings,
        "e3" => e3_energy_lifetime,
        "e4" => e4_sweep_k,
        "e5" => e5_sweep_network_size,
        "e6" => e6_historic_sweep_k,
        "e7" => e7_historic_sweep_window,
        "e8" => e8_accuracy_study,
        "e9" => e9_drift_ablation,
        "e10" => e10_aggregate_mix,
        "e11" => e11_fault_sweep,
        "e13" => e13_frame_batching,
        "e14" => e14_historic_sessions,
        "e17" => e17_store_timetravel,
        _ => return None,
    };
    Some(experiment())
}

// ---------------------------------------------------------------------------------
// helpers
// ---------------------------------------------------------------------------------

/// Room-correlated workload for a scenario's *master* seed (the workload stream is
/// derived per the `kspot_net::rng` convention, so it is independent of the topology
/// jitter even when the deployment was built from the same master seed).
fn room_workload(d: &Deployment, drift: f64, master_seed: u64) -> Workload {
    Workload::room_correlated(
        d,
        ValueDomain::percentage(),
        RoomModelParams { drift_sigma: drift, sensor_noise_sigma: 1.0 },
        kspot_net::rng::workload_seed(master_seed),
    )
}

/// Runs a snapshot strategy over `epochs` epochs on a dedicated substrate and returns
/// its whole-run report (totals, phases and the bottleneck node).
fn snapshot_report(
    algo: &mut dyn SnapshotAlgorithm,
    d: &Deployment,
    drift: f64,
    master_seed: u64,
    epochs: usize,
) -> StrategyReport {
    let config = NetworkConfig::mica2().with_seed(kspot_net::rng::substrate_seed(master_seed));
    let mut net = Network::new(d.clone(), config);
    let mut workload = room_workload(d, drift, master_seed);
    run_continuous(algo, &mut net, &mut workload, epochs);
    StrategyReport::from_metrics(algo.name(), net.metrics(), epochs)
}

fn pct_saved(baseline: f64, ours: f64) -> f64 {
    if baseline <= 0.0 {
        0.0
    } else {
        (1.0 - ours / baseline) * 100.0
    }
}

fn yes_no(holds: bool) -> String {
    if holds { "yes" } else { "NO" }.to_string()
}

// ---------------------------------------------------------------------------------
// E1 — the Figure-1 anecdote
// ---------------------------------------------------------------------------------

/// E1: the 4-room / 9-sensor example of Figure 1 — naive local pruning answers
/// (D, 76.5) while the correct Top-1 answer is (C, 75).
pub fn e1_figure1() -> Table {
    let d = Deployment::figure1();
    let readings = Workload::figure1(&d).next_epoch();
    let spec = SnapshotSpec::new(1, AggFunc::Avg, ValueDomain::percentage());

    let reference = exact_reference(&SnapshotSpec::new(4, AggFunc::Avg, ValueDomain::percentage()), &readings);

    let mut table = Table::new(
        "E1 — Figure 1: the wrongful elimination of naive local pruning",
        "Paper claim: naive per-node top-1 pruning reports (D, 76.5) although the true answer is (C, 75).",
        &["strategy", "top-1 room", "reported value", "correct?"],
    );

    let room = |key: u64| kspot_net::topology::room_name(key as u32);
    for (g, v) in reference.items.iter().map(|i| (i.key, i.value)) {
        table.push_row(vec![format!("true average of room {}", room(g)), room(g), fmt_f(v, 2), "-".into()]);
    }

    let mut run_one = |name: &str, algo: &mut dyn SnapshotAlgorithm| {
        let mut net = Network::new(d.clone(), NetworkConfig::ideal());
        let result = algo.execute_epoch(&mut net, &readings);
        let top = result.top().expect("one answer");
        table.push_row(vec![
            name.to_string(),
            room(top.key),
            fmt_f(top.value, 2),
            yes_no(top.key == 2),
        ]);
    };
    run_one("TAG + sink Top-K", &mut TagTopK::new(spec));
    run_one("naive local pruning", &mut NaiveLocalPrune::new(spec));
    run_one("KSpot (MINT views)", &mut MintViews::new(spec));
    table
}

// ---------------------------------------------------------------------------------
// E2 / E3 — the System Panel on the conference scenario
// ---------------------------------------------------------------------------------

/// The System Panel's three strategies for `SELECT TOP 3 roomid, AVG(sound) … GROUP BY
/// roomid` on the Figure-3 venue, KSpot first: one dedicated whole-run execution each,
/// so the reports carry total energy and the bottleneck node (a session's scoped
/// slice of a shared loop carries neither — ADR-010).
fn conference_reports(epochs: usize) -> [StrategyReport; 3] {
    let d = Deployment::conference();
    let spec = SnapshotSpec::new(3, AggFunc::Avg, ValueDomain::percentage());
    [
        snapshot_report(&mut MintViews::new(spec), &d, 1.5, 2009, epochs),
        snapshot_report(&mut TagTopK::new(spec), &d, 1.5, 2009, epochs),
        snapshot_report(&mut CentralizedCollection::new(spec), &d, 1.5, 2009, epochs),
    ]
}

/// E2: message and byte savings of the KSpot execution versus TAG and centralized
/// collection on the Figure-3 conference scenario (14 nodes, 6 clusters, K = 3).
pub fn e2_snapshot_savings() -> Table {
    let reports = conference_reports(200);
    let mut table = Table::new(
        "E2 — System Panel: traffic on the conference scenario (14 nodes, 6 clusters, K=3, 200 epochs)",
        "Paper claim: in-network ranking yields substantial savings in messages and bytes over conventional acquisition.",
        &["strategy", "messages", "bytes", "tuples", "bytes saved vs strategy"],
    );
    let kspot = &reports[0];
    for report in &reports {
        let saved = if report.name == kspot.name {
            "-".to_string()
        } else {
            format!("{}%", fmt_f(pct_saved(report.totals.bytes as f64, kspot.totals.bytes as f64), 1))
        };
        table.push_row(vec![
            report.name.clone(),
            report.totals.messages.to_string(),
            report.totals.bytes.to_string(),
            report.totals.tuples.to_string(),
            saved,
        ]);
    }
    table
}

/// E3: energy consumption and estimated network lifetime on the conference scenario.
pub fn e3_energy_lifetime() -> Table {
    // A small synthetic battery keeps the lifetime numbers readable.
    let battery_uj = 5.0e7;
    let mut table = Table::new(
        "E3 — System Panel: energy and lifetime on the conference scenario (K=3, 200 epochs)",
        "Paper claim: the savings prolong the lifetime of the deployed sensor network.",
        &["strategy", "energy (mJ)", "bottleneck node (mJ)", "est. lifetime (epochs)"],
    );
    for report in &conference_reports(200) {
        table.push_row(vec![
            report.name.clone(),
            fmt_f(report.totals.energy_uj / 1000.0, 1),
            fmt_f(report.bottleneck_energy_uj / 1000.0, 1),
            fmt_f(report.lifetime_epochs(battery_uj), 0),
        ]);
    }
    table
}

// ---------------------------------------------------------------------------------
// E4 / E5 — MINT sweeps
// ---------------------------------------------------------------------------------

/// E4: byte savings of MINT over TAG and centralized collection as K grows
/// (100 clustered nodes, 25 rooms, 100 epochs).
pub fn e4_sweep_k() -> Table {
    let d = Deployment::clustered_rooms(25, 4, 20.0, kspot_net::rng::topology_seed(44));
    let mut table = Table::new(
        "E4 — MINT savings versus K (100 nodes, 25 rooms, 100 epochs)",
        "Expected shape: savings are largest for small K and shrink as K approaches the number of groups.",
        &["K", "MINT bytes", "TAG bytes", "centralized bytes", "saved vs TAG", "saved vs centralized"],
    );
    for &k in &[1usize, 2, 5, 10, 20] {
        let spec = SnapshotSpec::new(k, AggFunc::Avg, ValueDomain::percentage());
        let mint = snapshot_report(&mut MintViews::new(spec), &d, 1.5, 44, 100).totals;
        let tag = snapshot_report(&mut TagTopK::new(spec), &d, 1.5, 44, 100).totals;
        let central = snapshot_report(&mut CentralizedCollection::new(spec), &d, 1.5, 44, 100).totals;
        table.push_row(vec![
            k.to_string(),
            mint.bytes.to_string(),
            tag.bytes.to_string(),
            central.bytes.to_string(),
            format!("{}%", fmt_f(pct_saved(tag.bytes as f64, mint.bytes as f64), 1)),
            format!("{}%", fmt_f(pct_saved(central.bytes as f64, mint.bytes as f64), 1)),
        ]);
    }
    table
}

/// E5: byte savings of MINT as the network grows (4 nodes per room, K = 5, 100 epochs).
pub fn e5_sweep_network_size() -> Table {
    let mut table = Table::new(
        "E5 — MINT savings versus network size (4 nodes per room, K=5, 100 epochs)",
        "Expected shape: the absolute savings grow with the network because in-network pruning removes traffic near the sink.",
        &["nodes", "rooms", "MINT bytes", "TAG bytes", "centralized bytes", "saved vs TAG"],
    );
    for &rooms in &[6usize, 12, 25, 49, 100] {
        let d = Deployment::clustered_rooms(rooms, 4, 20.0, kspot_net::rng::topology_seed(55));
        let spec = SnapshotSpec::new(5.min(rooms), AggFunc::Avg, ValueDomain::percentage());
        let mint = snapshot_report(&mut MintViews::new(spec), &d, 1.5, 55, 100).totals;
        let tag = snapshot_report(&mut TagTopK::new(spec), &d, 1.5, 55, 100).totals;
        let central = snapshot_report(&mut CentralizedCollection::new(spec), &d, 1.5, 55, 100).totals;
        table.push_row(vec![
            (rooms * 4).to_string(),
            rooms.to_string(),
            mint.bytes.to_string(),
            tag.bytes.to_string(),
            central.bytes.to_string(),
            format!("{}%", fmt_f(pct_saved(tag.bytes as f64, mint.bytes as f64), 1)),
        ]);
    }
    table
}

// ---------------------------------------------------------------------------------
// E6 / E7 — historic sweeps
// ---------------------------------------------------------------------------------

fn historic_dataset(side: usize, window: usize, seed: u64) -> (Deployment, BankWindows<WindowBank>) {
    // A network-wide correlated signal: historic Top-K queries look for globally
    // interesting time instances, so every node shares the same underlying trend.
    let d = Deployment::grid(side, 10.0, Some(1));
    let mut w = Workload::room_correlated(
        &d,
        ValueDomain::percentage(),
        RoomModelParams { drift_sigma: 4.0, sensor_noise_sigma: 2.0 },
        kspot_net::rng::workload_seed(seed),
    );
    let data = BankWindows::collect(&mut w, window);
    (d, data)
}

fn historic_bytes(
    algo: &mut dyn HistoricAlgorithm,
    d: &Deployment,
    data: &mut BankWindows<WindowBank>,
    seed: u64,
) -> u64 {
    let mut net = Network::new(d.clone(), NetworkConfig::mica2().with_seed(kspot_net::rng::substrate_seed(seed)));
    algo.execute(&mut net, data);
    net.metrics().totals().bytes
}

/// E6: historic query traffic versus K (64 nodes, 256-epoch window).
pub fn e6_historic_sweep_k() -> Table {
    let (d, mut data) = historic_dataset(8, 256, 66);
    let mut table = Table::new(
        "E6 — historic Top-K traffic versus K (64 nodes, window 256 epochs)",
        "Expected shape: TJA stays far below both comparators for every K; TPUT only beats raw collection when its uniform threshold is selective.",
        &["K", "TJA bytes", "TPUT bytes", "centralized bytes", "TJA saved vs centralized"],
    );
    for &k in &[1usize, 5, 10, 20, 50] {
        let spec = HistoricSpec::new(k, AggFunc::Avg, ValueDomain::percentage(), 256);
        let tja = historic_bytes(&mut Tja::new(spec), &d, &mut data, 66);
        let tput = historic_bytes(&mut Tput::new(spec), &d, &mut data, 66);
        let central = historic_bytes(&mut CentralizedHistoric::new(spec), &d, &mut data, 66);
        table.push_row(vec![
            k.to_string(),
            tja.to_string(),
            tput.to_string(),
            central.to_string(),
            format!("{}%", fmt_f(pct_saved(central as f64, tja as f64), 1)),
        ]);
    }
    table
}

/// E7: historic query traffic versus window length and network size (K = 5).
pub fn e7_historic_sweep_window() -> Table {
    let mut table = Table::new(
        "E7 — historic Top-K traffic versus window length and network size (K=5)",
        "Expected shape: the gap between TJA and centralized collection widens with the window and the network size.",
        &["nodes", "window", "TJA bytes", "TPUT bytes", "centralized bytes", "TJA saved vs centralized"],
    );
    for &side in &[4usize, 8, 12] {
        for &window in &[64usize, 256, 1024] {
            let (d, mut data) = historic_dataset(side, window, 77);
            let spec = HistoricSpec::new(5, AggFunc::Avg, ValueDomain::percentage(), window);
            let tja = historic_bytes(&mut Tja::new(spec), &d, &mut data, 77);
            let tput = historic_bytes(&mut Tput::new(spec), &d, &mut data, 77);
            let central = historic_bytes(&mut CentralizedHistoric::new(spec), &d, &mut data, 77);
            table.push_row(vec![
                (side * side).to_string(),
                window.to_string(),
                tja.to_string(),
                tput.to_string(),
                central.to_string(),
                format!("{}%", fmt_f(pct_saved(central as f64, tja as f64), 1)),
            ]);
        }
    }
    table
}

// ---------------------------------------------------------------------------------
// E8 — correctness study
// ---------------------------------------------------------------------------------

/// E8: correctness of naive local pruning versus MINT over randomized scenarios.
pub fn e8_accuracy_study() -> Table {
    let scenarios = 200usize;
    let epochs_each = 10usize;
    let mut naive_reports = Vec::new();
    let mut mint_reports = Vec::new();
    for seed in 0..scenarios as u64 {
        let rooms = 3 + (seed % 6) as usize;
        let nodes_per_room = 2 + (seed % 4) as usize;
        let k = 1 + (seed % 3) as usize;
        let drift = 0.5 + (seed % 5) as f64;
        let d = Deployment::clustered_rooms(rooms, nodes_per_room, 20.0, kspot_net::rng::topology_seed(seed));
        let spec = SnapshotSpec::new(k.min(rooms), AggFunc::Avg, ValueDomain::percentage());

        let reference: Vec<_> = {
            let mut w = room_workload(&d, drift, seed);
            (0..epochs_each).map(|_| exact_reference(&spec, &w.next_epoch())).collect()
        };
        let mut naive_net = Network::new(d.clone(), NetworkConfig::ideal());
        let naive_results = run_continuous(
            &mut NaiveLocalPrune::new(spec),
            &mut naive_net,
            &mut room_workload(&d, drift, seed),
            epochs_each,
        );
        naive_reports.push(AccuracyReport::grade(&naive_results, &reference));

        let mut mint_net = Network::new(d.clone(), NetworkConfig::ideal());
        let mint_results = run_continuous(
            &mut MintViews::new(spec),
            &mut mint_net,
            &mut room_workload(&d, drift, seed),
            epochs_each,
        );
        mint_reports.push(AccuracyReport::grade(&mint_results, &reference));
    }

    let summarise = |reports: &[AccuracyReport]| {
        let n = reports.len() as f64;
        (
            reports.iter().map(|r| r.ranking_accuracy()).sum::<f64>() / n,
            reports.iter().map(|r| r.set_accuracy()).sum::<f64>() / n,
            reports.iter().map(|r| r.mean_recall).sum::<f64>() / n,
        )
    };
    let (naive_rank, naive_set, naive_recall) = summarise(&naive_reports);
    let (mint_rank, mint_set, mint_recall) = summarise(&mint_reports);

    let mut table = Table::new(
        format!("E8 — correctness over {scenarios} randomized scenarios ({epochs_each} epochs each)"),
        "Paper claim: greedy local pruning wrongly eliminates tuples; KSpot's in-network pruning stays exact.",
        &["strategy", "exact-ranking rate", "correct-set rate", "mean recall"],
    );
    table.push_row(vec![
        "naive local pruning".into(),
        fmt_f(naive_rank, 3),
        fmt_f(naive_set, 3),
        fmt_f(naive_recall, 3),
    ]);
    table.push_row(vec![
        "KSpot (MINT views)".into(),
        fmt_f(mint_rank, 3),
        fmt_f(mint_set, 3),
        fmt_f(mint_recall, 3),
    ]);
    table
}

// ---------------------------------------------------------------------------------
// E9 — temporal-correlation ablation
// ---------------------------------------------------------------------------------

/// E9: how per-epoch drift affects MINT's savings and its corrective work (probes and
/// threshold re-broadcasts) — the ablation of the threshold-slack design choice.
pub fn e9_drift_ablation() -> Table {
    let d = Deployment::clustered_rooms(16, 4, 20.0, kspot_net::rng::topology_seed(99));
    let epochs = 100usize;
    let mut table = Table::new(
        "E9 — drift ablation (64 nodes, 16 rooms, K=3, 100 epochs, slack = 2.0)",
        "Expected shape: savings degrade gracefully and probe/re-broadcast work grows as drift outpaces the threshold slack; answers stay exact throughout.",
        &["drift σ", "MINT bytes", "TAG bytes", "saved", "probe epochs", "rebroadcasts"],
    );
    for &drift in &[0.0f64, 0.5, 2.0, 5.0, 10.0] {
        let spec = SnapshotSpec::new(3, AggFunc::Avg, ValueDomain::percentage());
        let mut mint = MintViews::new(spec);
        let mint_totals = snapshot_report(&mut mint, &d, drift, 99, epochs).totals;
        let tag_totals = snapshot_report(&mut TagTopK::new(spec), &d, drift, 99, epochs).totals;
        table.push_row(vec![
            fmt_f(drift, 1),
            mint_totals.bytes.to_string(),
            tag_totals.bytes.to_string(),
            format!("{}%", fmt_f(pct_saved(tag_totals.bytes as f64, mint_totals.bytes as f64), 1)),
            mint.stats().probe_epochs.to_string(),
            mint.stats().rebroadcasts.to_string(),
        ]);
    }
    table
}

// ---------------------------------------------------------------------------------
// E10 — aggregate mix
// ---------------------------------------------------------------------------------

/// E10: MINT behaviour across the aggregate functions of the Query Panel (AVG, MIN,
/// MAX, SUM, COUNT) on the conference scenario.
pub fn e10_aggregate_mix() -> Table {
    let d = Deployment::conference();
    let epochs = 100usize;
    let mut table = Table::new(
        "E10 — aggregate mix on the conference scenario (K=3, 100 epochs)",
        "Expected shape: MINT never ships more view tuples than TAG for any aggregate; one-sided aggregates (MIN/MAX) prune differently than AVG/SUM.",
        &["aggregate", "MINT bytes", "TAG bytes", "saved", "exact?"],
    );
    for func in [AggFunc::Avg, AggFunc::Max, AggFunc::Min, AggFunc::Sum, AggFunc::Count] {
        let spec = SnapshotSpec::new(3, func, ValueDomain::percentage());
        let mint_totals = snapshot_report(&mut MintViews::new(spec), &d, 1.5, 10, epochs).totals;
        let tag_totals = snapshot_report(&mut TagTopK::new(spec), &d, 1.5, 10, epochs).totals;

        // Exactness check against the omniscient reference.
        let mut net = Network::new(d.clone(), NetworkConfig::ideal());
        let results =
            run_continuous(&mut MintViews::new(spec), &mut net, &mut room_workload(&d, 1.5, 10), 20);
        let mut reference_workload = room_workload(&d, 1.5, 10);
        let exact = results
            .iter()
            .all(|r| r.same_ranking(&exact_reference(&spec, &reference_workload.next_epoch())));

        table.push_row(vec![
            func.to_string(),
            mint_totals.bytes.to_string(),
            tag_totals.bytes.to_string(),
            format!("{}%", fmt_f(pct_saved(tag_totals.bytes as f64, mint_totals.bytes as f64), 1)),
            yes_no(exact),
        ]);
    }
    table
}

// ---------------------------------------------------------------------------------
// E11 — fault injection
// ---------------------------------------------------------------------------------

/// E11: MINT versus TAG across the testkit's fault profiles on a clustered scenario —
/// the recovery overhead (ARQ retransmissions, dropped payloads) next to the savings.
/// The scenario cells are the same definitions `cargo test -p kspot-testkit` checks
/// for exactness, so every row of this table is backed by the matrix invariants.
pub fn e11_fault_sweep() -> Table {
    use kspot_testkit::scenario::{FaultProfile, ScenarioCell, TopologyKind, WorkloadProfile};

    let mut table = Table::new(
        "E11 — fault injection: MINT vs TAG per fault profile (24 nodes, 8 rooms, K=1, 40 epochs)",
        "Expected shape: ARQ recovery pays retransmissions on lossy links; node death and duty cycling shrink the answer scope; exactness over delivered data is enforced by the kspot-testkit matrix.",
        &["fault profile", "MINT bytes", "TAG bytes", "saved", "MINT retx", "MINT dropped"],
    );
    for fault in FaultProfile::ALL {
        let cell = ScenarioCell {
            topology: TopologyKind::ClusteredRooms,
            workload: WorkloadProfile::RoomCorrelated,
            fault,
            nodes: 24,
            groups: 8,
            k: 1,
            epochs: 40,
            window: 16,
            master_seed: 0xE11,
        };
        let d = cell.deployment();
        let spec = cell.snapshot_spec();
        let mut mint_net = cell.network(&d);
        run_continuous(&mut MintViews::new(spec), &mut mint_net, &mut cell.workload(&d), cell.epochs);
        let mut tag_net = cell.network(&d);
        run_continuous(&mut TagTopK::new(spec), &mut tag_net, &mut cell.workload(&d), cell.epochs);
        let mint = mint_net.metrics().totals();
        let tag = tag_net.metrics().totals();
        table.push_row(vec![
            fault.label().to_string(),
            mint.bytes.to_string(),
            tag.bytes.to_string(),
            format!("{}%", fmt_f(pct_saved(tag.bytes as f64, mint.bytes as f64), 1)),
            mint.retransmissions.to_string(),
            mint.dropped_messages.to_string(),
        ]);
    }
    table
}

// ---------------------------------------------------------------------------------
// E13 — cross-query frame batching
// ---------------------------------------------------------------------------------

/// E13: the byte savings of cross-query frame batching (ADR-004) versus session count
/// — the same engine workload run twice, with the frame scheduler off and on, on a
/// lossless substrate so the answers are guaranteed byte-identical and the whole delta
/// is per-frame overhead.
pub fn e13_frame_batching() -> Table {
    let deployment = Deployment::clustered_rooms(8, 8, 20.0, kspot_net::rng::topology_seed(13));
    let scenario = ScenarioConfig::custom("batching venue", "sound", deployment);
    frame_batching_sized(60, &[1, 2, 4, 8], scenario)
}

/// The sized core of E13 (the unit tests call it with tiny parameters).
fn frame_batching_sized(epochs: usize, session_counts: &[usize], scenario: ScenarioConfig) -> Table {
    let server = KSpotServer::new(scenario).with_seed(13);
    let sql_for = |i: usize| -> String {
        match i % 4 {
            0 => format!("SELECT TOP {} roomid, AVG(sound) FROM sensors GROUP BY roomid", 1 + i % 3),
            1 => format!("SELECT TOP {} roomid, MAX(sound) FROM sensors GROUP BY roomid", 1 + i % 4),
            2 => "SELECT roomid, AVG(sound) FROM sensors GROUP BY roomid".to_string(),
            _ => "SELECT TOP 2 nodeid, sound FROM sensors".to_string(),
        }
    };

    let mut table = Table::new(
        format!("E13 — cross-query frame batching: upstream bytes vs session count ({epochs} epochs)"),
        "One merged frame per node per epoch instead of one per session: savings grow with the session count while every session's answers stay byte-identical (lossless substrate).",
        &["sessions", "bytes off", "bytes on", "bytes/epoch off", "bytes/epoch on", "saved", "identical"],
    );
    for &n in session_counts {
        let run = |batched: bool| {
            let mut engine = server.engine().with_frame_batching(batched);
            let sessions: Vec<_> = (0..n)
                .map(|i| engine.register(&sql_for(i)).expect("the batch queries admit"))
                .collect();
            engine.run_epochs(epochs);
            let answers: Vec<_> = sessions.iter().map(|s| s.results()).collect();
            let bytes = engine.metrics().totals().bytes;
            (bytes, answers)
        };
        let (bytes_off, answers_off) = run(false);
        let (bytes_on, answers_on) = run(true);
        table.push_row(vec![
            n.to_string(),
            bytes_off.to_string(),
            bytes_on.to_string(),
            fmt_f(bytes_off as f64 / epochs as f64, 1),
            fmt_f(bytes_on as f64 / epochs as f64, 1),
            format!("{}%", fmt_f(pct_saved(bytes_off as f64, bytes_on as f64), 1)),
            yes_no(answers_off == answers_on),
        ]);
    }
    table
}

// ---------------------------------------------------------------------------------
// E14 — historic sessions: per-submit replay vs engine-shared windows
// ---------------------------------------------------------------------------------

/// E14: bytes per query of `WITH HISTORY` queries, served two ways — the per-submit
/// path (each query pays its own throwaway single-session engine: a fresh substrate
/// plus a from-scratch window-buffering pass per query, the cost model of a
/// `BankWindows::collect` replay) versus the shared `Session` path (all queries
/// registered on ONE engine whose per-node windows are fed once per epoch for
/// everyone, with frame batching merging the sessions' protocol reports; ADR-005).
/// Answers are byte-identical on the lossless venue; the whole delta is amortisation.
pub fn e14_historic_sessions() -> Table {
    historic_sessions_sized(64, &[1, 2, 4, 8])
}

/// The sized core of E14 (the unit tests call it with tiny parameters).
fn historic_sessions_sized(window: usize, session_counts: &[usize]) -> Table {
    // A network-wide correlated signal (one shared trend): historic Top-K queries
    // look for globally interesting time instances, the regime TJA is designed for.
    let deployment = Deployment::grid(6, 10.0, Some(1));
    let scenario = ScenarioConfig::custom("historic venue", "sound", deployment);
    let server = KSpotServer::new(scenario).with_seed(14);
    let sql_for = |i: usize| -> String {
        format!(
            "SELECT TOP {} epoch, AVG(sound) FROM sensors GROUP BY epoch WITH HISTORY {window} epochs",
            1 + i % 4
        )
    };

    let mut table = Table::new(
        format!("E14 — historic sessions: per-submit replay vs engine-shared windows (window {window} epochs)"),
        "Replay = one throwaway single-session engine per query (fresh substrate, windows buffered from scratch each time); shared = all queries as Sessions on ONE engine, windows fed once per epoch for everyone (frame batching on). Same answers, amortised maintenance.",
        &["sessions", "replay B/query", "shared B/query", "saved", "identical"],
    );
    for &n in session_counts {
        let mut replay_bytes = 0u64;
        let mut replay_answers: Vec<Vec<kspot_algos::TopKResult>> = Vec::new();
        for i in 0..n {
            let mut engine = server.engine();
            let session = engine.register(&sql_for(i)).expect("the historic query admits");
            engine.run_epochs(window);
            replay_bytes += session.totals().bytes;
            replay_answers.push(session.results());
        }

        let mut engine = server.engine().with_frame_batching(true);
        let sessions: Vec<_> = (0..n)
            .map(|i| engine.register(&sql_for(i)).expect("historic queries admit"))
            .collect();
        engine.run_epochs(window);
        let shared_answers: Vec<_> = sessions.iter().map(|s| s.results()).collect();
        let shared_bytes = engine.metrics().totals().bytes;

        let per_query = |bytes: u64| bytes as f64 / n as f64;
        table.push_row(vec![
            n.to_string(),
            fmt_f(per_query(replay_bytes), 1),
            fmt_f(per_query(shared_bytes), 1),
            format!("{}%", fmt_f(pct_saved(replay_bytes as f64, shared_bytes as f64), 1)),
            yes_no(replay_answers == shared_answers),
        ]);
    }
    table
}

// ---------------------------------------------------------------------------------
// E17 — durable windows: storage vs checkpoint cadence
// ---------------------------------------------------------------------------------

/// E17: what the durable checkpoint store (ADR-009) costs to *keep* as the cadence
/// grows — snapshots retained, bytes pinned on the modeled flash and pages written —
/// with an `AS OF` session restoring the newest image on every row, which must
/// reproduce the live answer bit for bit on this lossless venue.  The caption records
/// what engine-served baselines save: the panel's baseline strategies riding the
/// shared epoch loop as sessions versus the retired per-submit replay.
pub fn e17_store_timetravel() -> Table {
    store_timetravel_sized(64, &[2, 8, 32])
}

/// The venue, substrate seed and query E17 and its caption share.
struct TimeTravelVenue {
    deployment: Deployment,
    window: usize,
    sql: String,
}

impl TimeTravelVenue {
    fn new(window: usize) -> Self {
        Self {
            deployment: Deployment::grid(6, 10.0, Some(1)),
            window,
            sql: format!(
                "SELECT TOP 3 epoch, AVG(sound) FROM sensors GROUP BY epoch WITH HISTORY {window} epochs"
            ),
        }
    }

    fn network(&self) -> Network {
        Network::new(self.deployment.clone(), NetworkConfig::mica2().with_seed(1701))
    }

    fn workload(&self) -> Workload {
        room_workload(&self.deployment, 1.5, 17)
    }

    fn engine(&self) -> QueryEngine {
        let scenario = ScenarioConfig::custom("time-travel venue", "sound", self.deployment.clone());
        QueryEngine::from_substrate(scenario, self.network(), self.workload())
    }
}

/// Substrate energy of serving a historic query's panel baselines two ways: as
/// sessions riding the shared epoch loop versus the retired per-submit replay (a
/// dedicated dataset collection plus network per baseline strategy).
struct BaselineServing {
    riders: usize,
    session_uj: f64,
    replay_uj: f64,
    identical: bool,
}

impl BaselineServing {
    fn measure(venue: &TimeTravelVenue) -> Self {
        let window = venue.window;
        // The primary plus its panel baselines as sessions in ONE shared loop — the
        // window is buffered once and every strategy answers from it, so the
        // substrate's per-epoch sampling/idle baseline and the window-maintenance CPU
        // are paid exactly once for all of them.
        let mut engine = venue.engine();
        let primary = engine.register(&venue.sql).expect("the historic query admits");
        let riders = engine.register_baselines(&primary).expect("the baselines admit");
        engine.run_epochs(window);
        let session_uj = engine.metrics().totals().energy_uj;

        // ...versus the retired per-submit replay model (E14's): the primary on its
        // own engine, then one *dedicated* replay per baseline strategy — a fresh
        // substrate that buffers its own window from scratch (per-epoch sampling
        // baseline plus per-sample maintenance CPU, re-paid per strategy) before
        // executing.  The execution traffic itself is byte-identical across the two
        // modes (the ADR-005 window identity); what sharing saves is the repeated
        // substrate work.
        let mut engine = venue.engine();
        let replay_primary = engine.register(&venue.sql).expect("the historic query admits");
        engine.run_epochs(window);
        let mut replay_uj = engine.metrics().totals().energy_uj;
        let spec = HistoricSpec::new(3, AggFunc::Avg, ValueDomain::percentage(), window);
        let replay = |algo: &mut dyn HistoricAlgorithm| {
            let mut net = venue.network();
            let mut workload = venue.workload();
            for _ in 0..window {
                let epoch = workload.upcoming_epoch();
                let readings = workload.next_epoch();
                net.begin_epoch(epoch);
                for r in &readings {
                    net.charge_cpu(r.node, 1);
                }
            }
            let mut data = BankWindows::collect(&mut venue.workload(), window);
            let _ = algo.execute(&mut net, &mut data);
            net.metrics().totals().energy_uj
        };
        replay_uj += replay(&mut Tput::new(spec));
        replay_uj += replay(&mut CentralizedHistoric::new(spec));

        Self {
            riders: riders.len(),
            session_uj,
            replay_uj,
            identical: primary.results() == replay_primary.results(),
        }
    }
}

/// The sized core of E17 (the unit tests call it with tiny parameters).  Every
/// cadence must divide `window` so the newest snapshot coincides with the live
/// window's final epoch and the `AS OF` answer is comparable to the live one.
fn store_timetravel_sized(window: usize, cadences: &[u64]) -> Table {
    let venue = TimeTravelVenue::new(window);
    let baselines = BaselineServing::measure(&venue);

    let mut table = Table::new(
        format!("E17 — durable windows: AS OF cost vs checkpoint cadence (window {window} epochs)"),
        format!(
            "Checkpointed engine (ADR-009): per-epoch ring snapshots on modeled flash, \
             AS OF answering from the newest image ({} baseline strategies as shared-loop \
             sessions spent {} µJ vs {} µJ for dedicated per-submit replays, {}% substrate \
             energy saved at byte-identical execution traffic; same primary answer: {}).",
            baselines.riders,
            fmt_f(baselines.session_uj, 0),
            fmt_f(baselines.replay_uj, 0),
            fmt_f(pct_saved(baselines.replay_uj, baselines.session_uj), 1),
            yes_no(baselines.identical),
        ),
        &["cadence", "snapshots", "stored KiB", "pages written", "as-of == live"],
    );
    for &cadence in cadences {
        let mut engine = venue.engine().with_checkpointing(cadence);
        let live = engine.register(&venue.sql).expect("the historic query admits");
        engine.run_epochs(window);
        let snapshots = engine.checkpoint_epochs();
        let stored_bytes = engine.checkpoint_storage_bytes();
        let pages_written = engine.metrics().storage_totals().pages_written;
        let snapshot_epoch = *snapshots.last().expect("the cadence divides the window");

        let travel = engine
            .register(&format!("{} AS OF {snapshot_epoch}", venue.sql))
            .expect("the retained snapshot admits AS OF");
        engine.run_epochs(1);

        table.push_row(vec![
            cadence.to_string(),
            snapshots.len().to_string(),
            fmt_f(stored_bytes as f64 / 1024.0, 1),
            pages_written.to_string(),
            yes_no(travel.results() == live.results()),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_id_resolves() {
        for id in ALL_EXPERIMENTS {
            assert!(run(id).is_some(), "experiment {id} should exist");
        }
        assert!(run("e99").is_none());
    }

    #[test]
    fn e1_reports_the_paper_anecdote() {
        let table = e1_figure1();
        let text = table.to_string();
        assert!(text.contains("naive local pruning"));
        assert!(text.contains("76.50"), "the naive answer 76.5 must appear: {text}");
        assert!(text.contains("NO"), "the naive strategy must be flagged wrong");
        assert!(text.contains("KSpot (MINT views)"));
    }

    #[test]
    fn e2_shows_positive_savings_against_raw_collection() {
        let table = e2_snapshot_savings();
        assert_eq!(table.rows.len(), 3);
        // The KSpot row comes first; the centralized-collection baseline (last row) must
        // show positive byte savings even at the 14-node demo scale.  (Savings against
        // TAG at this tiny scale are modest — the E4/E5 sweeps show the real effect.)
        assert!(
            table.rows[2][4].starts_with(|c: char| c.is_ascii_digit()),
            "expected positive savings vs centralized collection: {:?}",
            table.rows[2]
        );
    }

    #[test]
    fn e11_lossy_profile_pays_retransmissions() {
        let table = e11_fault_sweep();
        assert_eq!(table.rows.len(), 4, "one row per fault profile");
        let row_of = |label: &str| {
            table.rows.iter().find(|r| r[0] == label).unwrap_or_else(|| panic!("{label} row"))
        };
        let lossless_retx: u64 = row_of("lossless")[4].parse().unwrap();
        let lossy_retx: u64 = row_of("lossy")[4].parse().unwrap();
        assert_eq!(lossless_retx, 0, "a healthy network never retransmits");
        assert!(lossy_retx > 0, "25% link loss must trigger ARQ retries");
    }

    #[test]
    fn e13_batching_saves_bytes_without_changing_answers() {
        let table = frame_batching_sized(6, &[1, 3], ScenarioConfig::conference());
        assert_eq!(table.rows.len(), 2);
        for row in &table.rows {
            assert_eq!(row.last().unwrap(), "yes", "lossless batching must keep answers: {row:?}");
            let off: u64 = row[1].parse().unwrap();
            let on: u64 = row[2].parse().unwrap();
            assert!(on <= off, "batching must not spend more bytes: {row:?}");
        }
        // More sessions → more per-frame overhead amortised → bigger relative savings.
        let saved = |row: &Vec<String>| row[5].trim_end_matches('%').parse::<f64>().unwrap();
        assert!(saved(&table.rows[1]) > saved(&table.rows[0]), "{:?}", table.rows);
    }

    #[test]
    fn e14_shared_windows_beat_per_submit_replay_on_bytes_per_query() {
        let table = historic_sessions_sized(12, &[1, 3]);
        assert_eq!(table.rows.len(), 2);
        for row in &table.rows {
            assert_eq!(row.last().unwrap(), "yes", "lossless: answers must match the replay: {row:?}");
        }
        // The acceptance criterion: at >= 2 registered historic sessions, the
        // engine-shared windows spend fewer bytes per query than per-submit replays.
        let per_query = |row: &Vec<String>, col: usize| row[col].parse::<f64>().unwrap();
        let multi = &table.rows[1];
        assert!(
            per_query(multi, 2) < per_query(multi, 1),
            "shared windows must beat replay on bytes/query at 3 sessions: {multi:?}"
        );
    }

    #[test]
    fn e17_as_of_reproduces_the_live_answer_and_baseline_sessions_save_energy() {
        let table = store_timetravel_sized(8, &[2, 4]);
        assert_eq!(table.rows.len(), 2);
        for row in &table.rows {
            assert_eq!(row.last().unwrap(), "yes", "lossless: AS OF must match live: {row:?}");
            let snapshots: usize = row[1].parse().unwrap();
            assert!(snapshots > 0, "the cadence divides the window, snapshots exist: {row:?}");
        }
        // Halving the cadence (more frequent checkpoints) can only write more pages.
        let pages = |row: &Vec<String>| row[3].parse::<u64>().unwrap();
        assert!(
            pages(&table.rows[0]) >= pages(&table.rows[1]),
            "cadence 2 must write at least as many pages as cadence 4: {:?}",
            table.rows
        );
        // Engine-served baselines must genuinely beat the dedicated replays: the
        // shared loop pays the substrate feed once for all strategies, the replay
        // model re-pays it per strategy.
        let baselines = BaselineServing::measure(&TimeTravelVenue::new(8));
        assert!(baselines.identical, "the primary answers the same either way");
        assert!(
            baselines.session_uj < baselines.replay_uj,
            "baseline sessions must save substrate energy over dedicated replays: {} vs {} µJ",
            baselines.session_uj,
            baselines.replay_uj
        );
    }

    #[test]
    fn e9_probe_work_increases_with_drift() {
        let table = e9_drift_ablation();
        let first_probes: u64 = table.rows.first().unwrap()[4].parse().unwrap();
        let last_probes: u64 = table.rows.last().unwrap()[4].parse().unwrap();
        assert!(last_probes >= first_probes, "more drift should not reduce corrective work");
    }
}
