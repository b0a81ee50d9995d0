//! Scenario definitions: the cells of the differential-testing matrix.
//!
//! A [`ScenarioCell`] is one fully specified experiment: a topology family, a workload
//! family, a fault profile, a network size, a K, and a master seed.  Everything a cell
//! builds follows the seeding convention of [`kspot_net::rng`]: the single master seed
//! is split into independent topology / workload / substrate streams, so no component's
//! randomness is correlated with another's.
//!
//! [`matrix`] enumerates the full cross product used by `cargo test -p kspot-testkit`;
//! with the `smoke` feature it shrinks to a PR-sized subset.

use kspot_algos::{HistoricSpec, SnapshotSpec};
use kspot_net::rng::{mix_seed, substrate_seed, topology_seed, workload_seed};
use kspot_net::types::ValueDomain;
use kspot_net::{
    Deployment, DutyCycle, FaultPlan, Network, NetworkConfig, RoomModelParams, RoutingTree,
    Workload,
};
use kspot_query::AggFunc;

/// The topology families the matrix covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyKind {
    /// A square grid with round-robin group assignment.
    Grid,
    /// Uniform random placement.
    UniformRandom,
    /// Sensors clustered into rooms (the conference regime MINT is designed for).
    ClusteredRooms,
    /// A single line of nodes — maximum routing depth, worst case for relaying.
    LinearChain,
}

impl TopologyKind {
    /// Every topology family.
    pub const ALL: [TopologyKind; 4] = [
        TopologyKind::Grid,
        TopologyKind::UniformRandom,
        TopologyKind::ClusteredRooms,
        TopologyKind::LinearChain,
    ];

    /// Short label for cell ids.
    pub fn label(self) -> &'static str {
        match self {
            TopologyKind::Grid => "grid",
            TopologyKind::UniformRandom => "uniform",
            TopologyKind::ClusteredRooms => "clustered",
            TopologyKind::LinearChain => "chain",
        }
    }

    /// Builds a deployment of roughly `nodes` sensors in `groups` groups.  The grid
    /// family rounds the count up to the next full square (grids only come in
    /// side × side sizes); cell labels report the actual deployed count.
    pub fn build(self, nodes: usize, groups: usize, seed: u64) -> Deployment {
        match self {
            TopologyKind::Grid => {
                let side = (nodes as f64).sqrt().ceil() as usize;
                Deployment::grid(side.max(2), 10.0, Some(groups))
            }
            TopologyKind::UniformRandom => {
                Deployment::uniform_random(nodes, 100.0, 100.0, groups, seed)
            }
            TopologyKind::ClusteredRooms => {
                Deployment::clustered_rooms(groups, (nodes / groups).max(1), 20.0, seed)
            }
            TopologyKind::LinearChain => Deployment::linear_chain(nodes, 10.0, Some(groups)),
        }
    }
}

/// The workload families the matrix covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadProfile {
    /// Room-correlated drifting sound levels (the conference demo model).
    RoomCorrelated,
    /// Independent uniform redraw every epoch — no temporal correlation at all.
    IndependentUniform,
    /// A hot group that hops on a clock — adversarial for installed thresholds.
    DriftingHotSpot,
}

impl WorkloadProfile {
    /// Every workload family.
    pub const ALL: [WorkloadProfile; 3] = [
        WorkloadProfile::RoomCorrelated,
        WorkloadProfile::IndependentUniform,
        WorkloadProfile::DriftingHotSpot,
    ];

    /// Short label for cell ids.
    pub fn label(self) -> &'static str {
        match self {
            WorkloadProfile::RoomCorrelated => "room",
            WorkloadProfile::IndependentUniform => "iid",
            WorkloadProfile::DriftingHotSpot => "hotspot",
        }
    }

    /// Builds the workload over `deployment`, seeded with a *workload* seed.
    pub fn build(self, deployment: &Deployment, seed: u64) -> Workload {
        let domain = ValueDomain::percentage();
        match self {
            WorkloadProfile::RoomCorrelated => Workload::room_correlated(
                deployment,
                domain,
                RoomModelParams { drift_sigma: 2.0, sensor_noise_sigma: 1.0 },
                seed,
            ),
            WorkloadProfile::IndependentUniform => Workload::uniform_iid(deployment, domain, seed),
            WorkloadProfile::DriftingHotSpot => {
                Workload::drifting_hotspot(deployment, domain, 3, 1.0, seed)
            }
        }
    }
}

/// The fault profiles the matrix covers (see `kspot_net::fault` for the semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultProfile {
    /// Healthy network: the regime of the paper's exactness claims.
    Lossless,
    /// 25 % per-attempt link loss recovered by up to 6 ARQ retransmissions.
    LossyLinks,
    /// An internal node dies halfway through the run; its subtree reroutes.
    NodeDeath,
    /// Staggered 3-out-of-4 duty cycling: every epoch ~a quarter of the nodes sleep.
    DutyCycled,
}

impl FaultProfile {
    /// Every fault profile.
    pub const ALL: [FaultProfile; 4] = [
        FaultProfile::Lossless,
        FaultProfile::LossyLinks,
        FaultProfile::NodeDeath,
        FaultProfile::DutyCycled,
    ];

    /// Short label for cell ids.
    pub fn label(self) -> &'static str {
        match self {
            FaultProfile::Lossless => "lossless",
            FaultProfile::LossyLinks => "lossy",
            FaultProfile::NodeDeath => "death",
            FaultProfile::DutyCycled => "dutycycle",
        }
    }

    /// True when the profile injects no faults (full-exactness invariants apply).
    pub fn is_lossless(self) -> bool {
        self == FaultProfile::Lossless
    }

    /// Builds the fault plan for a deployment and a run of `epochs` epochs.
    pub fn plan(self, deployment: &Deployment, epochs: usize) -> FaultPlan {
        match self {
            FaultProfile::Lossless => FaultPlan::none(),
            FaultProfile::LossyLinks => FaultPlan::none().with_link_loss(0.25).with_retransmits(6),
            FaultProfile::NodeDeath => {
                // Kill an internal node so the rerouting path is exercised; fall back to
                // node 1 on degenerate trees.
                let tree = RoutingTree::build(deployment);
                let victim = deployment
                    .node_ids()
                    .into_iter()
                    .find(|&id| !tree.is_leaf(id))
                    .unwrap_or(1);
                FaultPlan::none().with_node_death(victim, (epochs / 2) as u64)
            }
            FaultProfile::DutyCycled => FaultPlan::none().with_duty_cycle(DutyCycle::new(4, 3)),
        }
    }
}

/// One cell of the scenario matrix: everything needed to build the deployment, the
/// workload, the faulted network and the query specs, reproducibly.
#[derive(Debug, Clone)]
pub struct ScenarioCell {
    /// Topology family.
    pub topology: TopologyKind,
    /// Workload family.
    pub workload: WorkloadProfile,
    /// Fault profile.
    pub fault: FaultProfile,
    /// Target number of sensor nodes (the grid family rounds up to a full square;
    /// [`Self::label`] reports the deployed count).
    pub nodes: usize,
    /// Number of groups (rooms).
    pub groups: usize,
    /// The K of the Top-K query.
    pub k: usize,
    /// Epochs a continuous snapshot query runs for.
    pub epochs: usize,
    /// Sliding-window length for historic queries.
    pub window: usize,
    /// Master seed; component seeds are derived per the `kspot_net::rng` convention.
    pub master_seed: u64,
}

impl ScenarioCell {
    /// Human-readable cell identifier for failure messages.  `n` is the *deployed*
    /// node count (the grid family rounds the requested count up to a full square).
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{} n={} g={} k={} seed={}",
            self.topology.label(),
            self.workload.label(),
            self.fault.label(),
            self.deployment().num_nodes(),
            self.groups,
            self.k,
            self.master_seed,
        )
    }

    /// Builds the deployment (topology-seed stream).
    pub fn deployment(&self) -> Deployment {
        self.topology.build(self.nodes, self.groups, topology_seed(self.master_seed))
    }

    /// Builds a fresh workload (workload-seed stream).
    pub fn workload(&self, deployment: &Deployment) -> Workload {
        self.workload.build(deployment, workload_seed(self.master_seed))
    }

    /// The cell's fault plan.
    pub fn fault_plan(&self, deployment: &Deployment) -> FaultPlan {
        self.fault.plan(deployment, self.epochs)
    }

    /// Deploys a fresh faulted network (substrate-seed stream).  Batteries are huge so
    /// that the *scheduled* fault plan, not organic depletion, decides participation —
    /// which is what makes the oracle's participation prediction exact.
    pub fn network(&self, deployment: &Deployment) -> Network {
        let config = NetworkConfig::mica2()
            .with_battery_uj(1.0e15)
            .with_seed(substrate_seed(self.master_seed))
            .with_faults(self.fault_plan(deployment));
        Network::new(deployment.clone(), config)
    }

    /// The snapshot Top-K spec the cell runs (AVG over the percentage domain).
    pub fn snapshot_spec(&self) -> SnapshotSpec {
        SnapshotSpec::new(self.k, AggFunc::Avg, ValueDomain::percentage())
    }

    /// The historic Top-K spec the cell runs.
    pub fn historic_spec(&self) -> HistoricSpec {
        HistoricSpec::new(
            self.k.min(self.window),
            AggFunc::Avg,
            ValueDomain::percentage(),
            self.window,
        )
    }
}

/// `(nodes, groups, k)` combinations swept per (topology, workload, fault) triple.
#[cfg(not(feature = "smoke"))]
const SWEEP: &[(usize, usize, usize)] = &[(12, 4, 1), (24, 6, 3)];
#[cfg(feature = "smoke")]
const SWEEP: &[(usize, usize, usize)] = &[(12, 4, 2)];

/// The families of the smoke subset, which [`smoke_cells`] always uses.
const SMOKE_TOPOLOGIES: &[TopologyKind] = &[TopologyKind::ClusteredRooms, TopologyKind::LinearChain];
const SMOKE_WORKLOADS: &[WorkloadProfile] =
    &[WorkloadProfile::RoomCorrelated, WorkloadProfile::DriftingHotSpot];
const SMOKE_FAULTS: &[FaultProfile] =
    &[FaultProfile::Lossless, FaultProfile::LossyLinks, FaultProfile::NodeDeath];

#[cfg(not(feature = "smoke"))]
const TOPOLOGIES: &[TopologyKind] = &TopologyKind::ALL;
#[cfg(feature = "smoke")]
const TOPOLOGIES: &[TopologyKind] = SMOKE_TOPOLOGIES;

#[cfg(not(feature = "smoke"))]
const WORKLOADS: &[WorkloadProfile] = &WorkloadProfile::ALL;
#[cfg(feature = "smoke")]
const WORKLOADS: &[WorkloadProfile] = SMOKE_WORKLOADS;

#[cfg(not(feature = "smoke"))]
const FAULTS: &[FaultProfile] = &FaultProfile::ALL;
#[cfg(feature = "smoke")]
const FAULTS: &[FaultProfile] = SMOKE_FAULTS;

/// Enumerates the scenario matrix: topologies × workloads × fault profiles × a K/N
/// sweep.  The full matrix (default features) has 4 × 3 × 4 × 2 = 96 cells; the `smoke`
/// feature reduces it to 2 × 2 × 3 × 1 = 12 cells for fast PR gating.
pub fn matrix() -> Vec<ScenarioCell> {
    let mut cells = Vec::new();
    for (ti, &topology) in TOPOLOGIES.iter().enumerate() {
        for (wi, &workload) in WORKLOADS.iter().enumerate() {
            for (fi, &fault) in FAULTS.iter().enumerate() {
                for (ci, &(nodes, groups, k)) in SWEEP.iter().enumerate() {
                    cells.push(ScenarioCell {
                        topology,
                        workload,
                        fault,
                        nodes,
                        groups,
                        k,
                        epochs: 12,
                        window: 16,
                        master_seed: mix_seed(
                            0xC311,
                            &[ti as u64, wi as u64, fi as u64, ci as u64],
                        ),
                    });
                }
            }
        }
    }
    cells
}

/// The 12 smoke cells at 12 nodes, 4 groups, K = 2 and a 16-epoch window, whatever
/// features the testkit was built with; `seed_tag` keys every cell's master seed.
pub fn smoke_cells(seed_tag: u64, epochs: usize) -> Vec<ScenarioCell> {
    let mut cells = Vec::new();
    for (ti, &topology) in SMOKE_TOPOLOGIES.iter().enumerate() {
        for (wi, &workload) in SMOKE_WORKLOADS.iter().enumerate() {
            for (fi, &fault) in SMOKE_FAULTS.iter().enumerate() {
                let master_seed = mix_seed(seed_tag, &[ti as u64, wi as u64, fi as u64]);
                let (nodes, groups, k, window) = (12, 4, 2, 16);
                cells.push(ScenarioCell { topology, workload, fault, nodes, groups, k, epochs, window, master_seed });
            }
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_cell_builds_its_components() {
        for cell in matrix() {
            let d = cell.deployment();
            assert!(d.num_nodes() >= cell.groups, "{}", cell.label());
            assert_eq!(d.num_groups(), cell.groups.min(d.num_nodes()), "{}", cell.label());
            let mut w = cell.workload(&d);
            assert_eq!(w.next_epoch().len(), d.num_nodes());
            let net = cell.network(&d);
            assert_eq!(net.num_nodes(), d.num_nodes());
            assert!(cell.k <= cell.groups);
        }
    }

    #[test]
    fn component_seeds_follow_the_convention() {
        let cell = &matrix()[0];
        // The same master seed yields identical deployments and workload streams …
        let d1 = cell.deployment();
        let d2 = cell.deployment();
        let a: Vec<f64> = cell.workload(&d1).next_epoch().iter().map(|r| r.value).collect();
        let b: Vec<f64> = cell.workload(&d2).next_epoch().iter().map(|r| r.value).collect();
        assert_eq!(a, b);
        // … and the workload seed differs from the topology seed (the bug this PR
        // removes: examples passing the raw master seed to both components).
        assert_ne!(topology_seed(cell.master_seed), workload_seed(cell.master_seed));
    }

    #[test]
    fn node_death_profile_picks_an_internal_victim() {
        let d = Deployment::linear_chain(8, 10.0, Some(4));
        let plan = FaultProfile::NodeDeath.plan(&d, 12);
        let (&victim, &at) = plan.node_deaths.iter().next().unwrap();
        assert_eq!(at, 6);
        let tree = RoutingTree::build(&d);
        assert!(!tree.is_leaf(victim), "the victim must have a subtree to sever");
    }
}
