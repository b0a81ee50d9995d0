//! Synthetic sensed-value generation.
//!
//! The demo monitors *sound levels in conference rooms*: rooms have an activity level
//! that drifts slowly over time, and sensors inside a room observe that level plus local
//! noise.  The generators here expose exactly the knobs the algorithms' savings depend
//! on — value skew across groups and temporal correlation across epochs — while staying
//! reproducible from a single seed.
//!
//! * [`Workload::figure1`] replays the exact readings of the paper's Figure 1;
//! * [`Workload::room_correlated`] is the conference-demo model (per-room baseline +
//!   bounded random-walk drift + per-sensor noise);
//! * [`Workload::random_walk`] gives every node an independent random walk (used for
//!   non-aggregate "Top-K nodes" monitoring);
//! * [`Workload::uniform_iid`] redraws every value uniformly each epoch — the adversarial
//!   case with no temporal correlation;
//! * [`Workload::trace`] replays an explicit value matrix.

use crate::rng::stream_rng;
use crate::topology::Deployment;
use crate::types::{Epoch, GroupId, NodeId, Reading, Value};
use crate::types::ValueDomain;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Parameters of the room-correlated sound model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RoomModelParams {
    /// Standard deviation of the per-epoch drift of a room's activity level, in value
    /// units (e.g. percentage points per minute).
    pub drift_sigma: f64,
    /// Standard deviation of the per-sensor observation noise.
    pub sensor_noise_sigma: f64,
}

impl Default for RoomModelParams {
    fn default() -> Self {
        Self { drift_sigma: 1.5, sensor_noise_sigma: 1.0 }
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
enum Generator {
    Constant {
        values: BTreeMap<NodeId, Value>,
    },
    RoomCorrelated {
        params: RoomModelParams,
        room_levels: BTreeMap<GroupId, Value>,
    },
    RandomWalk {
        sigma: f64,
        node_levels: BTreeMap<NodeId, Value>,
    },
    UniformIid,
    DriftingHotSpot {
        /// Epochs the hot spot dwells on one group before hopping to the next.
        dwell: u64,
        /// Standard deviation of the per-sensor observation noise.
        noise_sigma: f64,
        /// All group ids of the deployment, ascending (the hop order).
        groups: Vec<GroupId>,
    },
    Trace {
        /// `values[epoch][node-1]`.
        values: Vec<Vec<Value>>,
    },
}

/// A deterministic per-epoch reading generator bound to a deployment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Workload {
    domain: ValueDomain,
    seed: u64,
    nodes: Vec<(NodeId, GroupId)>,
    next_epoch: Epoch,
    generator: Generator,
}

impl Workload {
    fn base(deployment: &Deployment, domain: ValueDomain, seed: u64, generator: Generator) -> Self {
        let nodes = deployment.nodes().map(|n| (n.id, n.group)).collect();
        Self { domain, seed, nodes, next_epoch: 0, generator }
    }

    /// The exact readings of Figure 1 (every epoch repeats them: it is a snapshot).
    ///
    /// `s1 = 40 (B)`, `s2 = 74 (A)`, `s3 = 75 (A)`, `s4 = 42 (B)`, `s5 = 75 (C)`,
    /// `s6 = 75 (C)`, `s7 = 78 (D)`, `s8 = 75 (D)`, `s9 = 39 (D)` — giving true room
    /// averages `A = 74.5`, `B = 41`, `C = 75`, `D = 64`.
    pub fn figure1(deployment: &Deployment) -> Self {
        let values: BTreeMap<NodeId, Value> = [
            (1, 40.0),
            (2, 74.0),
            (3, 75.0),
            (4, 42.0),
            (5, 75.0),
            (6, 75.0),
            (7, 78.0),
            (8, 75.0),
            (9, 39.0),
        ]
        .into_iter()
        .collect();
        assert_eq!(
            deployment.num_nodes(),
            values.len(),
            "the Figure-1 workload requires the Figure-1 deployment"
        );
        Self::base(deployment, ValueDomain::percentage(), 0, Generator::Constant { values })
    }

    /// Conference-demo model: each room starts at a baseline drawn uniformly from the
    /// domain, drifts as a bounded random walk, and sensors add observation noise.
    pub fn room_correlated(
        deployment: &Deployment,
        domain: ValueDomain,
        params: RoomModelParams,
        seed: u64,
    ) -> Self {
        let mut rng = stream_rng(seed, &[0x1001]);
        let room_levels = deployment
            .groups()
            .iter()
            .map(|&(g, _)| (g, rng.gen_range(domain.min..=domain.max)))
            .collect();
        Self::base(deployment, domain, seed, Generator::RoomCorrelated { params, room_levels })
    }

    /// Independent per-node random walk with step deviation `sigma`.
    pub fn random_walk(deployment: &Deployment, domain: ValueDomain, sigma: f64, seed: u64) -> Self {
        let mut rng = stream_rng(seed, &[0x1002]);
        let node_levels = deployment
            .nodes()
            .map(|n| (n.id, rng.gen_range(domain.min..=domain.max)))
            .collect();
        Self::base(deployment, domain, seed, Generator::RandomWalk { sigma, node_levels })
    }

    /// Every node redraws a fresh uniform value every epoch.
    pub fn uniform_iid(deployment: &Deployment, domain: ValueDomain, seed: u64) -> Self {
        Self::base(deployment, domain, seed, Generator::UniformIid)
    }

    /// One group at a time runs hot (near the top of the domain) while every other
    /// group idles near the bottom; the hot spot hops to the next group every `dwell`
    /// epochs.  Sensors add Gaussian observation noise of deviation `noise_sigma`.
    ///
    /// This is the adversarial regime for threshold-based pruning: the Top-K membership
    /// churns on a clock, so installed thresholds go stale in a single hop.
    pub fn drifting_hotspot(
        deployment: &Deployment,
        domain: ValueDomain,
        dwell: u64,
        noise_sigma: f64,
        seed: u64,
    ) -> Self {
        assert!(dwell >= 1, "the hot spot must dwell for at least one epoch");
        assert!(noise_sigma >= 0.0, "noise deviation must be non-negative");
        let groups: Vec<GroupId> = deployment.groups().iter().map(|&(g, _)| g).collect();
        Self::base(deployment, domain, seed, Generator::DriftingHotSpot { dwell, noise_sigma, groups })
    }

    /// Replays `values[epoch][node_index]` (node index = id − 1).  The trace is repeated
    /// cyclically if the simulation outlives it.
    pub fn trace(deployment: &Deployment, domain: ValueDomain, values: Vec<Vec<Value>>) -> Self {
        assert!(!values.is_empty(), "a trace needs at least one epoch of values");
        for (e, row) in values.iter().enumerate() {
            assert_eq!(
                row.len(),
                deployment.num_nodes(),
                "trace epoch {e} has {} values but the deployment has {} nodes",
                row.len(),
                deployment.num_nodes()
            );
        }
        Self::base(deployment, domain, 0, Generator::Trace { values })
    }

    /// The epoch the next [`Self::next_epoch`] call will produce.
    pub fn upcoming_epoch(&self) -> Epoch {
        self.next_epoch
    }

    /// Produces the readings of the next epoch, one per node, in ascending node order.
    pub fn next_epoch(&mut self) -> Vec<Reading> {
        let epoch = self.next_epoch;
        self.next_epoch += 1;
        let domain = self.domain;
        let seed = self.seed;
        match &mut self.generator {
            Generator::Constant { values } => self
                .nodes
                .iter()
                .map(|&(id, group)| Reading::new(id, group, epoch, values[&id]))
                .collect(),
            Generator::RoomCorrelated { params, room_levels } => {
                let mut drift_rng = stream_rng(seed, &[0x2001, epoch]);
                for level in room_levels.values_mut() {
                    *level = domain.clamp(*level + gaussian(&mut drift_rng) * params.drift_sigma);
                }
                self.nodes
                    .iter()
                    .map(|&(id, group)| {
                        let mut noise_rng = stream_rng(seed, &[0x2002, u64::from(id), epoch]);
                        let v = room_levels[&group] + gaussian(&mut noise_rng) * params.sensor_noise_sigma;
                        Reading::new(id, group, epoch, domain.clamp(v))
                    })
                    .collect()
            }
            Generator::RandomWalk { sigma, node_levels } => self
                .nodes
                .iter()
                .map(|&(id, group)| {
                    let mut rng = stream_rng(seed, &[0x3001, u64::from(id), epoch]);
                    let level = node_levels.get_mut(&id).expect("node level exists");
                    *level = domain.clamp(*level + gaussian(&mut rng) * *sigma);
                    Reading::new(id, group, epoch, *level)
                })
                .collect(),
            Generator::UniformIid => self
                .nodes
                .iter()
                .map(|&(id, group)| {
                    let mut rng = stream_rng(seed, &[0x4001, u64::from(id), epoch]);
                    Reading::new(id, group, epoch, rng.gen_range(domain.min..=domain.max))
                })
                .collect(),
            Generator::DriftingHotSpot { dwell, noise_sigma, groups } => {
                let hot = groups[((epoch / *dwell) as usize) % groups.len().max(1)];
                let hot_level = domain.min + 0.9 * domain.width();
                let cold_level = domain.min + 0.1 * domain.width();
                self.nodes
                    .iter()
                    .map(|&(id, group)| {
                        let mut rng = stream_rng(seed, &[0x5001, u64::from(id), epoch]);
                        let base = if group == hot { hot_level } else { cold_level };
                        let v = base + gaussian(&mut rng) * *noise_sigma;
                        Reading::new(id, group, epoch, domain.clamp(v))
                    })
                    .collect()
            }
            Generator::Trace { values } => {
                let row = &values[(epoch as usize) % values.len()];
                self.nodes
                    .iter()
                    .map(|&(id, group)| Reading::new(id, group, epoch, domain.clamp(row[(id - 1) as usize])))
                    .collect()
            }
        }
    }
}

/// A standard-normal sample via the Box–Muller transform (avoids the `rand_distr`
/// dependency; two uniforms are ample for workload noise).
fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Deployment;

    /// `epochs` epochs of readings, indexed `result[epoch][node_index]`.
    fn generate(w: &mut Workload, epochs: usize) -> Vec<Vec<Reading>> {
        (0..epochs).map(|_| w.next_epoch()).collect()
    }

    #[test]
    fn figure1_values_match_the_paper() {
        let d = Deployment::figure1();
        let mut w = Workload::figure1(&d);
        let readings = w.next_epoch();
        assert_eq!(readings.len(), 9);
        let by_node: BTreeMap<NodeId, Value> = readings.iter().map(|r| (r.node, r.value)).collect();
        assert_eq!(by_node[&1], 40.0);
        assert_eq!(by_node[&7], 78.0);
        assert_eq!(by_node[&9], 39.0);
        // Room averages implied by the figure.
        let avg = |ids: &[NodeId]| ids.iter().map(|i| by_node[i]).sum::<f64>() / ids.len() as f64;
        assert!((avg(&[2, 3]) - 74.5).abs() < 1e-9); // room A
        assert!((avg(&[1, 4]) - 41.0).abs() < 1e-9); // room B
        assert!((avg(&[5, 6]) - 75.0).abs() < 1e-9); // room C
        assert!((avg(&[7, 8, 9]) - 64.0).abs() < 1e-9); // room D
    }

    #[test]
    fn figure1_is_constant_over_epochs() {
        let d = Deployment::figure1();
        let mut w = Workload::figure1(&d);
        let e0 = w.next_epoch();
        let e1 = w.next_epoch();
        for (a, b) in e0.iter().zip(e1.iter()) {
            assert_eq!(a.value, b.value);
            assert_eq!(b.epoch, 1);
        }
    }

    #[test]
    fn room_correlated_nodes_in_same_room_read_similar_values() {
        let d = Deployment::clustered_rooms(4, 5, 20.0, crate::rng::topology_seed(11));
        let mut w = Workload::room_correlated(
            &d,
            ValueDomain::percentage(),
            RoomModelParams::default(),
            crate::rng::workload_seed(11),
        );
        let readings = w.next_epoch();
        for (_, ids) in d.groups() {
            let vals: Vec<f64> = readings.iter().filter(|r| ids.contains(&r.node)).map(|r| r.value).collect();
            let spread = vals.iter().cloned().fold(f64::MIN, f64::max)
                - vals.iter().cloned().fold(f64::MAX, f64::min);
            assert!(spread < 15.0, "sensors in the same room should read similar values, spread {spread}");
        }
    }

    #[test]
    fn room_correlated_is_temporally_correlated() {
        let d = Deployment::clustered_rooms(4, 3, 20.0, crate::rng::topology_seed(5));
        let mut w = Workload::room_correlated(
            &d,
            ValueDomain::percentage(),
            RoomModelParams::default(),
            crate::rng::workload_seed(5),
        );
        let e0 = w.next_epoch();
        let e1 = w.next_epoch();
        for (a, b) in e0.iter().zip(e1.iter()) {
            assert!((a.value - b.value).abs() < 20.0, "values should drift slowly, not jump");
        }
    }

    #[test]
    fn workloads_are_deterministic_in_seed() {
        let d = Deployment::clustered_rooms(4, 3, 20.0, 5);
        let collect = |seed: u64| {
            let mut w = Workload::room_correlated(&d, ValueDomain::percentage(), RoomModelParams::default(), seed);
            generate(&mut w, 5)
        };
        let a = collect(9);
        let b = collect(9);
        let c = collect(10);
        assert_eq!(
            a.iter().flatten().map(|r| r.value).collect::<Vec<_>>(),
            b.iter().flatten().map(|r| r.value).collect::<Vec<_>>()
        );
        assert_ne!(
            a.iter().flatten().map(|r| r.value).collect::<Vec<_>>(),
            c.iter().flatten().map(|r| r.value).collect::<Vec<_>>()
        );
    }

    #[test]
    fn uniform_iid_stays_in_domain_and_decorrelates() {
        let d = Deployment::grid(4, 10.0, Some(4));
        let domain = ValueDomain::new(10.0, 20.0);
        let mut w = Workload::uniform_iid(&d, domain, 3);
        let epochs = generate(&mut w, 10);
        for r in epochs.iter().flatten() {
            assert!(domain.contains(r.value));
        }
    }

    #[test]
    fn random_walk_respects_domain_bounds() {
        let d = Deployment::grid(3, 10.0, None);
        let domain = ValueDomain::new(0.0, 10.0);
        let mut w = Workload::random_walk(&d, domain, 5.0, 17);
        for readings in generate(&mut w, 50) {
            for r in readings {
                assert!(domain.contains(r.value), "value {} escaped the domain", r.value);
            }
        }
    }

    #[test]
    fn drifting_hotspot_moves_the_hot_group_on_schedule() {
        let d = Deployment::clustered_rooms(4, 2, 20.0, 3);
        let domain = ValueDomain::percentage();
        let mut w = Workload::drifting_hotspot(&d, domain, 3, 1.0, 7);
        let mean_of = |readings: &[Reading], g: GroupId| {
            let vals: Vec<f64> =
                readings.iter().filter(|r| r.group == g).map(|r| r.value).collect();
            vals.iter().sum::<f64>() / vals.len() as f64
        };
        // Epochs 0–2: group 0 is hot; epochs 3–5: group 1 is hot.
        for epoch in 0..6u64 {
            let readings = w.next_epoch();
            let hot = (epoch / 3) as GroupId;
            for g in 0..4 {
                let mean = mean_of(&readings, g);
                if g == hot {
                    assert!(mean > 70.0, "epoch {epoch}: hot group {g} should run high, got {mean}");
                } else {
                    assert!(mean < 30.0, "epoch {epoch}: cold group {g} should idle low, got {mean}");
                }
            }
        }
    }

    #[test]
    fn trace_replays_and_wraps_around() {
        let d = Deployment::grid(2, 10.0, Some(2));
        let trace = vec![vec![1.0, 2.0, 3.0, 4.0], vec![5.0, 6.0, 7.0, 8.0]];
        let mut w = Workload::trace(&d, ValueDomain::percentage(), trace);
        let e0 = w.next_epoch();
        let e1 = w.next_epoch();
        let e2 = w.next_epoch();
        assert_eq!(e0.iter().map(|r| r.value).collect::<Vec<_>>(), vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(e1[0].value, 5.0);
        assert_eq!(e2[0].value, 1.0, "trace wraps around");
    }

    #[test]
    #[should_panic(expected = "4 nodes")]
    fn trace_with_wrong_width_is_rejected() {
        let d = Deployment::grid(2, 10.0, Some(2));
        let _ = Workload::trace(&d, ValueDomain::percentage(), vec![vec![1.0, 2.0, 3.0, 4.0], vec![1.0]]);
    }

    #[test]
    fn readings_are_tagged_with_the_right_group_and_epoch() {
        let d = Deployment::conference();
        let mut w = Workload::room_correlated(&d, ValueDomain::percentage(), RoomModelParams::default(), 1);
        let _ = w.next_epoch();
        let readings = w.next_epoch();
        for r in &readings {
            assert_eq!(r.epoch, 1);
            assert_eq!(r.group, d.group_of(r.node));
        }
        assert_eq!(w.upcoming_epoch(), 2);
    }
}
