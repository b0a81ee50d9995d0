//! One poisoned shard must never take the fleet down.
//!
//! ADR-006 makes in-process handles panic on a poisoned state cell — correct for a
//! library caller, fatal behind a listener.  These tests exercise the health-aware
//! surface ADR-007 layers on top ([`EngineFleet::try_register`],
//! [`EngineFleet::shard_health`], [`EngineFleet::run_epochs_surviving`]): poisoning
//! one deployment degrades *that* deployment to typed errors while its neighbours
//! keep serving byte-identical results.

use kspot_core::{
    AdmissionScope, EngineFleet, FleetError, KSpotServer, ScenarioConfig, Session, ShardHealth,
    WorkloadSpec,
};
use kspot_net::{NetworkConfig, RoomModelParams};
use std::panic::{catch_unwind, AssertUnwindSafe};

const SQL: &str = "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid";

fn fleet(deployments: usize) -> EngineFleet {
    EngineFleet::homogeneous(
        ScenarioConfig::conference(),
        WorkloadSpec::RoomCorrelated(RoomModelParams::default()),
        NetworkConfig::mica2(),
        7,
        deployments,
        2,
    )
}

/// Poisons deployment `d`'s state cell by panicking while holding its metrics guard.
fn poison(fleet: &EngineFleet, d: usize) {
    let handle = fleet.deployment(d).expect("deployment exists");
    let result = catch_unwind(AssertUnwindSafe(|| {
        let _guard = handle.metrics();
        panic!("injected: tear deployment {d} mid-operation");
    }));
    assert!(result.is_err(), "the injected panic must propagate to the injector");
}

#[test]
fn poisoning_one_shard_degrades_only_that_shard() {
    let fleet = fleet(3);
    let healthy_before: Vec<Session> =
        (0..3).map(|d| fleet.try_register(d, SQL).expect("all shards healthy")).collect();

    poison(&fleet, 1);

    assert_eq!(fleet.shard_health(0), Some(ShardHealth::Healthy));
    assert_eq!(fleet.shard_health(1), Some(ShardHealth::Poisoned));
    assert_eq!(fleet.shard_health(2), Some(ShardHealth::Healthy));
    assert_eq!(fleet.shard_health(3), None);

    // The torn shard yields a typed 503-style error...
    let err = fleet.try_register(1, SQL).expect_err("poisoned shard must refuse");
    assert_eq!(err, FleetError::Unhealthy { deployment: 1 });
    assert!(err.to_string().contains("deployment 1"), "{err}");
    // A plan no strategy executes is refused before any shard lock is taken.
    let by_max = "SELECT TOP 2 epoch, MAX(sound) FROM sensors GROUP BY epoch WITH HISTORY 8 epochs";
    let err = fleet.try_register(1, by_max).expect_err("TJA cannot rank by MAX");
    assert!(matches!(err, FleetError::Query(_)), "{err:?}");

    // Neighbours still admit and still advance.
    let mut survivors = vec![
        (0usize, fleet.try_register(0, SQL).expect("healthy shard admits")),
        (2usize, fleet.try_register(2, SQL).expect("healthy shard admits")),
    ];
    let newly_poisoned = fleet.run_epochs_surviving(6);
    assert_eq!(newly_poisoned, vec![1], "only the injected shard is poisoned");
    for (d, session) in &mut survivors {
        assert!(!session.poll().is_empty(), "deployment {d} must keep producing results");
    }
    drop(healthy_before);
}

#[test]
fn survivors_stay_byte_identical_to_their_solo_twins() {
    let fleet = fleet(3);
    let mut sessions: Vec<(usize, Session)> =
        (0..3).map(|d| (d, fleet.try_register(d, SQL).expect("registers"))).collect();

    poison(&fleet, 0);
    let poisoned = fleet.run_epochs_surviving(10);
    assert_eq!(poisoned, vec![0]);

    // Deployments 1 and 2 must produce exactly what a solo engine with the same
    // shard seed produces — the poisoned neighbour is invisible to them.
    for (d, session) in sessions.iter_mut().filter(|(d, _)| *d != 0) {
        let mut solo = KSpotServer::new(ScenarioConfig::conference())
            .with_seed(EngineFleet::shard_seed(7, *d))
            .engine();
        let solo_session = solo.register(SQL).expect("registers");
        solo.run_epochs(10);
        assert_eq!(session.results(), solo_session.results(), "deployment {d}");
        assert_eq!(session.totals(), solo_session.totals(), "deployment {d}");
    }
}

#[test]
fn admission_skips_poisoned_shards_instead_of_wedging() {
    // Fleet cap 4 across 2 deployments; fill the healthy shard after poisoning the
    // other — its unrecoverable sessions must not count against the fleet cap, and
    // the per-shard rejection must be typed.
    let fleet = fleet(2).with_max_total_sessions(4);
    let _doomed = fleet.try_register(0, SQL).expect("registers before poisoning");
    poison(&fleet, 0);

    let _a = fleet.try_register(1, SQL).expect("healthy shard admits");
    let _b = fleet.try_register(1, SQL).expect("healthy shard admits");
    let _c = fleet.try_register(1, SQL).expect("healthy shard admits");
    let _d = fleet.try_register(1, SQL).expect("healthy shard admits");
    let err = fleet.try_register(1, SQL).expect_err("fleet cap reached");
    assert_eq!(err, FleetError::Rejected { scope: AdmissionScope::Fleet, active: 4, cap: 4 });
    assert!(err.to_string().contains("fleet admission rejected"), "{err}");
}

#[test]
fn typed_errors_cover_routing_and_per_shard_caps() {
    let fleet = fleet(1);
    let err = fleet.try_register(9, SQL).expect_err("out of range");
    assert_eq!(err, FleetError::UnknownDeployment { deployment: 9, deployments: 1 });
    assert!(err.to_string().contains("unknown deployment id 9"), "{err}");

    let err = fleet.try_register(0, "SELECT nonsense FROM nowhere").expect_err("bad SQL");
    assert!(matches!(err, FleetError::Query(_)), "{err:?}");

    // Per-shard cap: a fleet whose total cap is generous still honours the engine cap.
    let fleet = fleet_with_tiny_shards();
    let _a = fleet.try_register(0, SQL).expect("admits");
    let _b = fleet.try_register(0, SQL).expect("admits");
    let err = fleet.try_register(0, SQL).expect_err("per-shard cap reached");
    assert_eq!(
        err,
        FleetError::Rejected { scope: AdmissionScope::Deployment(0), active: 2, cap: 2 }
    );
    assert!(err.to_string().contains("deployment 0"), "{err}");
}

fn fleet_with_tiny_shards() -> EngineFleet {
    let engines = (0..2)
        .map(|d| {
            KSpotServer::new(ScenarioConfig::conference())
                .with_seed(EngineFleet::shard_seed(7, d))
                .engine()
                .with_max_sessions(2)
        })
        .collect();
    EngineFleet::from_engines(engines, 2)
}

/// A handle's clone, poll and drop reach the engine's lock (the engine knows every live
/// handle's cursor, ADR-014 "Retention").  On a poisoned shard clone and drop do
/// nothing, a poll keeps ADR-006's contract — it panics with the poisoning message, and
/// the drops during that unwinding neither panic nor abort — and dropping the fleet is
/// quiet; the healthy shards go on releasing answers and reaping sessions.
#[test]
fn handles_of_a_poisoned_shard_clone_poll_and_drop_quietly() {
    let fleet = fleet(2);
    let mut torn = fleet.try_register(0, SQL).expect("registers before poisoning");
    let mut healthy = fleet.try_register(1, SQL).expect("registers");
    fleet.run_epochs(3);
    assert_eq!(torn.poll().len(), 3);
    poison(&fleet, 0);

    let clone = torn.clone();
    drop(torn.clone());
    let polled = catch_unwind(AssertUnwindSafe(move || {
        let mut clone = clone;
        clone.poll()
    }));
    let message = polled.expect_err("a torn shard's read fails loudly (ADR-006)");
    let message = message.downcast_ref::<String>().map(String::as_str).unwrap_or_default();
    assert!(message.contains("poisoned"), "{message}");
    drop(torn);
    assert_eq!(fleet.run_epochs_surviving(2), vec![0]);

    // The healthy shard: a drained, finished session is reaped with its last handle.
    let shard = fleet.deployment(1).expect("in range");
    assert_eq!(healthy.poll().len(), 5);
    assert!(healthy.cancel());
    let id = healthy.id();
    let copy = healthy.clone();
    drop(healthy);
    assert!(shard.session(id).is_some(), "a clone is still live");
    drop(copy);
    assert!(shard.session(id).is_none(), "reaped with its last handle");
    assert!(shard.session_ids().is_empty());
    drop(shard);
    drop(fleet);
}

/// A shard that is poisoned when `run_epochs` starts panics *inside* its pool job.
/// With 4 deployments on 2 workers shard 1 shares worker 1 with shard 3: the job
/// catches its own panic, so the worker survives, shard 3 still advances, and the
/// payload is re-raised on the caller only once every other shard has finished.
#[test]
fn run_epochs_reraises_a_poisoned_shards_panic_after_the_rest_finish() {
    let fleet = fleet(4);
    let sessions: Vec<(usize, Session)> =
        [0, 2, 3].into_iter().map(|d| (d, fleet.try_register(d, SQL).expect("registers"))).collect();
    poison(&fleet, 1);

    let raised = catch_unwind(AssertUnwindSafe(|| fleet.run_epochs(3)))
        .expect_err("the poisoned shard's panic reaches the caller");
    let message = raised.downcast_ref::<String>().map(String::as_str).unwrap_or_default();
    assert!(message.contains("EngineCore lock poisoned"), "{message}");
    for (d, _) in &sessions {
        assert_eq!(fleet.deployment(*d).expect("in range").epochs_run(), 3, "deployment {d}");
    }

    assert_eq!(fleet.run_epochs_surviving(2), vec![1]);
    assert_eq!(fleet.deployment(3).expect("in range").epochs_run(), 5, "worker 1 survived");

    for (d, session) in &sessions {
        let mut solo = KSpotServer::new(ScenarioConfig::conference())
            .with_seed(EngineFleet::shard_seed(7, *d))
            .engine();
        let solo_session = solo.register(SQL).expect("registers");
        solo.run_epochs(5);
        assert_eq!(session.results(), solo_session.results(), "deployment {d}");
        assert_eq!(session.totals(), solo_session.totals(), "deployment {d}");
    }
}
