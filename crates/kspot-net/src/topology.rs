//! Sensor deployments and the connectivity graph induced by the radio range.
//!
//! A [`Deployment`] describes *where* sensors are and *which room (group)* each of them
//! belongs to — exactly the information the KSpot Configuration Panel captures when the
//! operator drags sensors onto the floor plan and clusters them into physical regions.
//!
//! Ready-made constructors are provided for the scenarios used throughout the paper and
//! the evaluation harness:
//!
//! * [`Deployment::figure1`] — the 4-room / 9-sensor running example of Figure 1;
//! * [`Deployment::conference`] — the 14-node / 6-cluster Top-3 scenario of Figure 3;
//! * [`Deployment::grid`], [`Deployment::uniform_random`], [`Deployment::clustered_rooms`]
//!   — parametric deployments used by the E4–E10 sweeps.

use crate::rng::stream_rng;
use crate::types::{GroupId, NodeId, SINK};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A 2-D position on the floor plan, in metres.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Position {
    /// Horizontal coordinate in metres.
    pub x: f64,
    /// Vertical coordinate in metres.
    pub y: f64,
}

impl Position {
    /// Creates a new position.
    pub fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// Euclidean distance to another position.
    pub fn distance(&self, other: &Position) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }
}

/// Static description of one deployed sensor node.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeSpec {
    /// Node identifier (the sink is always [`SINK`], i.e. `0`).
    pub id: NodeId,
    /// Physical position on the floor plan.
    pub position: Position,
    /// The group (room / cluster) the node is configured into.
    pub group: GroupId,
}

/// The family a deployment was generated from; used for labelling experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeploymentKind {
    /// The Figure-1 running example (4 rooms, 9 sensors).
    Figure1,
    /// The Figure-3 conference demo (14 nodes, 6 clusters).
    Conference,
    /// A `side × side` grid.
    Grid,
    /// Nodes placed uniformly at random.
    UniformRandom,
    /// Nodes clustered into rooms placed on a grid of rooms.
    ClusteredRooms,
    /// Nodes strung out in a single line away from the sink (a corridor or pipeline
    /// deployment); the routing tree degenerates to a chain of depth `n`.
    LinearChain,
    /// A hand-built deployment.
    Custom,
}

/// A complete sensor deployment: the sink, every sensor node, the radio range and the
/// room/cluster assignment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Deployment {
    kind: DeploymentKind,
    sink_position: Position,
    /// Sorted by id, so node `id` is `nodes[id - 1]`.
    nodes: Vec<NodeSpec>,
    radio_range: f64,
    /// Optional explicit parent assignment (used by scripted scenarios such as Figure 1
    /// where the paper fixes the routing tree).
    explicit_parents: Option<BTreeMap<NodeId, NodeId>>,
    /// The distinct groups, ascending, each with its members in ascending id order.
    /// Membership is part of the configuration, so it is fixed at construction; a
    /// group's position in this list is its *dense index* (group ids may be sparse).
    groups: Vec<(GroupId, Vec<NodeId>)>,
}

impl Deployment {
    /// Builds a deployment from explicit parts.
    ///
    /// Node identifiers must be the consecutive range `1..=n` (the sink is implicit as
    /// node `0`); this is asserted because the routing tree and metric arrays index by id.
    pub fn from_parts(
        kind: DeploymentKind,
        sink_position: Position,
        mut nodes: Vec<NodeSpec>,
        radio_range: f64,
    ) -> Self {
        assert!(radio_range > 0.0, "radio range must be positive");
        nodes.sort_by_key(|n| n.id);
        for (i, n) in nodes.iter().enumerate() {
            assert_eq!(
                n.id,
                (i + 1) as NodeId,
                "sensor ids must be the consecutive range 1..=n without gaps"
            );
        }
        let mut members: BTreeMap<GroupId, Vec<NodeId>> = BTreeMap::new();
        for n in &nodes {
            members.entry(n.group).or_default().push(n.id);
        }
        let groups = members.into_iter().collect();
        Self { kind, sink_position, nodes, radio_range, explicit_parents: None, groups }
    }

    /// Attaches an explicit routing-parent assignment to the deployment, overriding the
    /// first-heard-from tree construction.  Used by scripted scenarios (Figure 1).
    pub fn with_explicit_parents(mut self, parents: BTreeMap<NodeId, NodeId>) -> Self {
        for (&child, &parent) in &parents {
            assert!(child != SINK, "the sink has no parent");
            assert!(
                parent == SINK || parent <= self.nodes.len() as NodeId,
                "parent {parent} of node {child} is not part of the deployment"
            );
        }
        self.explicit_parents = Some(parents);
        self
    }

    /// The deployment family.
    pub fn kind(&self) -> DeploymentKind {
        self.kind
    }

    /// Number of sensor nodes (the sink is not counted).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The radio range in metres.
    pub fn radio_range(&self) -> f64 {
        self.radio_range
    }

    /// The sink's position.
    pub fn sink_position(&self) -> Position {
        self.sink_position
    }

    /// The static specification of node `id`, if it exists (`id` must be ≥ 1).
    pub fn node(&self, id: NodeId) -> Option<&NodeSpec> {
        self.nodes.get((id as usize).checked_sub(1)?)
    }

    /// Iterates over all sensor nodes in ascending id order.
    pub fn nodes(&self) -> impl Iterator<Item = &NodeSpec> {
        self.nodes.iter()
    }

    /// All sensor node identifiers, ascending.
    pub fn node_ids(&self) -> Vec<NodeId> {
        (1..=self.nodes.len() as NodeId).collect()
    }

    /// The group a node belongs to.  Panics if the node does not exist.
    pub fn group_of(&self, id: NodeId) -> GroupId {
        self.node(id)
            .unwrap_or_else(|| panic!("node {id} is not part of the deployment"))
            .group
    }

    /// Position of a node or of the sink.
    pub fn position_of(&self, id: NodeId) -> Position {
        if id == SINK {
            self.sink_position
        } else {
            self.node(id)
                .unwrap_or_else(|| panic!("node {id} is not part of the deployment"))
                .position
        }
    }

    /// Map from group id to the members of that group, ascending node order.
    pub fn group_members(&self) -> BTreeMap<GroupId, Vec<NodeId>> {
        self.groups.iter().cloned().collect()
    }

    /// The distinct groups, ascending, each with its members in ascending id order —
    /// [`Self::group_members`] without the copy.  A group's position in this slice is
    /// its dense index; group ids themselves may be sparse.
    pub fn groups(&self) -> &[(GroupId, Vec<NodeId>)] {
        &self.groups
    }

    /// The sensors configured into group `g`, ascending; empty when there are none.
    pub fn members_of(&self, g: GroupId) -> &[NodeId] {
        match self.groups.binary_search_by_key(&g, |(group, _)| *group) {
            Ok(at) => &self.groups[at].1,
            Err(_) => &[],
        }
    }

    /// Number of distinct groups in the deployment.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Number of sensors configured into group `g`.
    pub fn group_size(&self, g: GroupId) -> usize {
        self.members_of(g).len()
    }

    /// Explicit parent assignment, if the scenario fixes the routing tree.
    pub fn explicit_parents(&self) -> Option<&BTreeMap<NodeId, NodeId>> {
        self.explicit_parents.as_ref()
    }

    /// Nodes (and possibly the sink) within radio range of `id`, excluding itself.
    pub fn neighbors(&self, id: NodeId) -> Vec<NodeId> {
        let p = self.position_of(id);
        let mut out = Vec::new();
        if id != SINK && p.distance(&self.sink_position) <= self.radio_range {
            out.push(SINK);
        }
        for n in &self.nodes {
            if n.id != id && p.distance(&n.position) <= self.radio_range {
                out.push(n.id);
            }
        }
        out.sort_unstable();
        out
    }

    // ------------------------------------------------------------------
    // Named scenarios from the paper
    // ------------------------------------------------------------------

    /// The Figure-1 running example: a 4-room building monitored by 9 sensors.
    ///
    /// Room membership matches the in-network view shown in the figure:
    /// `A = {s2, s3}`, `B = {s1, s4}`, `C = {s5, s6}`, `D = {s7, s8, s9}`; the sound
    /// levels of the figure are produced by [`crate::workload::Workload::figure1`].
    /// The routing tree is fixed so that `s9`'s `(D, 39)` tuple has to traverse `s4`
    /// (a room-B node), which is what makes naive local pruning return the wrong answer.
    pub fn figure1() -> Self {
        // Rooms occupy the quadrants of a 20 m × 20 m building; the sink sits at the
        // entrance between rooms A and B.
        let a = |x: f64, y: f64| Position::new(x, y);
        let nodes = vec![
            NodeSpec { id: 1, position: a(4.0, 14.0), group: GROUP_B },
            NodeSpec { id: 2, position: a(4.0, 6.0), group: GROUP_A },
            NodeSpec { id: 3, position: a(8.0, 4.0), group: GROUP_A },
            NodeSpec { id: 4, position: a(8.0, 16.0), group: GROUP_B },
            NodeSpec { id: 5, position: a(14.0, 4.0), group: GROUP_C },
            NodeSpec { id: 6, position: a(17.0, 7.0), group: GROUP_C },
            NodeSpec { id: 7, position: a(14.0, 14.0), group: GROUP_D },
            NodeSpec { id: 8, position: a(17.0, 17.0), group: GROUP_D },
            NodeSpec { id: 9, position: a(12.0, 18.0), group: GROUP_D },
        ];
        let mut parents = BTreeMap::new();
        parents.insert(2, SINK);
        parents.insert(5, SINK);
        parents.insert(7, SINK);
        parents.insert(1, 2);
        parents.insert(3, 2);
        parents.insert(6, 5);
        parents.insert(8, 7);
        parents.insert(4, 7);
        parents.insert(9, 4);
        Self::from_parts(DeploymentKind::Figure1, Position::new(1.0, 10.0), nodes, 12.0)
            .with_explicit_parents(parents)
    }

    /// The Figure-3 conference scenario: 14 nodes organised in 6 clusters
    /// (auditorium, two conference rooms, two coffee stations, registration desk).
    pub fn conference() -> Self {
        let cluster_centres = [
            Position::new(10.0, 10.0), // 0: auditorium
            Position::new(30.0, 10.0), // 1: conference room 1
            Position::new(50.0, 10.0), // 2: conference room 2
            Position::new(10.0, 30.0), // 3: coffee station east
            Position::new(30.0, 30.0), // 4: coffee station west
            Position::new(50.0, 30.0), // 5: registration desk
        ];
        // Cluster sizes sum to 14, the node count quoted in the figure caption.
        let sizes = [3usize, 3, 2, 2, 2, 2];
        let offsets = [(-2.0, 0.0), (2.0, 1.5), (0.0, -2.5)];
        let mut nodes = Vec::new();
        let mut id: NodeId = 1;
        for (g, (&centre, &size)) in cluster_centres.iter().zip(sizes.iter()).enumerate() {
            assert!(size <= offsets.len(), "cluster of {size} nodes exceeds the offsets table");
            for &(dx, dy) in offsets.iter().take(size) {
                nodes.push(NodeSpec {
                    id,
                    position: Position::new(centre.x + dx, centre.y + dy),
                    group: g as GroupId,
                });
                id += 1;
            }
        }
        Self::from_parts(DeploymentKind::Conference, Position::new(0.0, 20.0), nodes, 25.0)
    }

    // ------------------------------------------------------------------
    // Parametric deployments for the evaluation sweeps
    // ------------------------------------------------------------------

    /// A `side × side` grid deployment with `spacing` metres between neighbours; every
    /// node forms its own group unless `groups` is given, in which case nodes are
    /// assigned round-robin to `groups` groups.
    pub fn grid(side: usize, spacing: f64, groups: Option<usize>) -> Self {
        assert!(side >= 1, "grid side must be at least 1");
        assert!(spacing > 0.0, "grid spacing must be positive");
        let mut nodes = Vec::with_capacity(side * side);
        let mut id: NodeId = 1;
        for row in 0..side {
            for col in 0..side {
                let group = match groups {
                    Some(g) => ((id - 1) as usize % g.max(1)) as GroupId,
                    None => id - 1,
                };
                nodes.push(NodeSpec {
                    id,
                    position: Position::new((col as f64 + 1.0) * spacing, (row as f64 + 1.0) * spacing),
                    group,
                });
                id += 1;
            }
        }
        // Range of 1.5 × spacing connects the 4-neighbourhood and the diagonal,
        // guaranteeing a connected grid.
        Self::from_parts(DeploymentKind::Grid, Position::new(0.0, 0.0), nodes, spacing * 1.6)
    }

    /// `n` nodes placed uniformly at random in a `width × height` area, assigned
    /// round-robin to `groups` groups.  Deterministic in `seed`.
    pub fn uniform_random(n: usize, width: f64, height: f64, groups: usize, seed: u64) -> Self {
        assert!(n >= 1, "at least one node is required");
        assert!(groups >= 1, "at least one group is required");
        let mut rng = stream_rng(seed, &[0xDEB1]);
        let mut nodes = Vec::with_capacity(n);
        for id in 1..=n as NodeId {
            nodes.push(NodeSpec {
                id,
                position: Position::new(rng.gen_range(0.0..width), rng.gen_range(0.0..height)),
                group: ((id - 1) as usize % groups) as GroupId,
            });
        }
        // A generous range keeps random deployments connected; stragglers are attached
        // to their nearest neighbour by the routing-tree builder anyway.
        let range = (width.max(height) / (n as f64).sqrt()) * 2.5;
        Self::from_parts(DeploymentKind::UniformRandom, Position::new(0.0, 0.0), nodes, range)
    }

    /// `n` nodes in a single line at `spacing`-metre intervals leading away from the
    /// sink, assigned round-robin to `groups` groups (every node its own group when
    /// `None`).  The radio range covers only the next neighbour, so the routing tree is
    /// a chain of depth `n` — the worst case for convergecast relaying and the regime
    /// where a single node death severs the deepest subtree.
    pub fn linear_chain(n: usize, spacing: f64, groups: Option<usize>) -> Self {
        assert!(n >= 1, "a chain needs at least one node");
        assert!(spacing > 0.0, "chain spacing must be positive");
        let nodes = (1..=n as NodeId)
            .map(|id| NodeSpec {
                id,
                position: Position::new(f64::from(id) * spacing, 0.0),
                group: match groups {
                    Some(g) => ((id - 1) as usize % g.max(1)) as GroupId,
                    None => id - 1,
                },
            })
            .collect();
        // 1.2 × spacing hears only the adjacent neighbours, keeping the chain a chain.
        Self::from_parts(DeploymentKind::LinearChain, Position::new(0.0, 0.0), nodes, spacing * 1.2)
    }

    /// `rooms` rooms laid out on a grid of rooms, each monitored by `nodes_per_room`
    /// sensors jittered around the room centre.  This is the deployment family used by
    /// the MINT-style sweeps (E4/E5) because it mirrors the clustered conference set-up.
    pub fn clustered_rooms(rooms: usize, nodes_per_room: usize, room_size: f64, seed: u64) -> Self {
        assert!(rooms >= 1 && nodes_per_room >= 1, "rooms and nodes_per_room must be ≥ 1");
        assert!(room_size > 0.0, "room size must be positive");
        let per_row = (rooms as f64).sqrt().ceil() as usize;
        let mut rng = stream_rng(seed, &[0xB00F]);
        let mut nodes = Vec::with_capacity(rooms * nodes_per_room);
        let mut id: NodeId = 1;
        for room in 0..rooms {
            let rx = (room % per_row) as f64 * room_size + room_size / 2.0;
            let ry = (room / per_row) as f64 * room_size + room_size / 2.0;
            for _ in 0..nodes_per_room {
                let jitter = room_size * 0.35;
                nodes.push(NodeSpec {
                    id,
                    position: Position::new(
                        rx + rng.gen_range(-jitter..jitter),
                        ry + rng.gen_range(-jitter..jitter),
                    ),
                    group: room as GroupId,
                });
                id += 1;
            }
        }
        Self::from_parts(
            DeploymentKind::ClusteredRooms,
            Position::new(0.0, 0.0),
            nodes,
            room_size * 1.8,
        )
    }
}

/// Room identifiers of the Figure-1 scenario.
pub const GROUP_A: GroupId = 0;
/// Room B of Figure 1.
pub const GROUP_B: GroupId = 1;
/// Room C of Figure 1.
pub const GROUP_C: GroupId = 2;
/// Room D of Figure 1.
pub const GROUP_D: GroupId = 3;

/// Human-readable room name for the Figure-1 groups (`A`–`D`); falls back to `G<n>`.
pub fn room_name(g: GroupId) -> String {
    match g {
        GROUP_A => "A".to_string(),
        GROUP_B => "B".to_string(),
        GROUP_C => "C".to_string(),
        GROUP_D => "D".to_string(),
        other => format!("G{other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_has_nine_sensors_in_four_rooms() {
        let d = Deployment::figure1();
        assert_eq!(d.num_nodes(), 9);
        assert_eq!(d.num_groups(), 4);
        let members = d.group_members();
        assert_eq!(members[&GROUP_A], vec![2, 3]);
        assert_eq!(members[&GROUP_B], vec![1, 4]);
        assert_eq!(members[&GROUP_C], vec![5, 6]);
        assert_eq!(members[&GROUP_D], vec![7, 8, 9]);
        // The scripted routing tree sends s9's tuple through s4.
        assert_eq!(d.explicit_parents().unwrap()[&9], 4);
    }

    #[test]
    fn conference_matches_figure3_caption() {
        let d = Deployment::conference();
        assert_eq!(d.num_nodes(), 14, "Figure 3 shows a 14-node network");
        assert_eq!(d.num_groups(), 6, "Figure 3 shows 6 clusters");
    }

    #[test]
    fn grid_places_side_squared_nodes() {
        let d = Deployment::grid(5, 10.0, None);
        assert_eq!(d.num_nodes(), 25);
        assert_eq!(d.num_groups(), 25, "without explicit groups every node is its own group");
        let d2 = Deployment::grid(5, 10.0, Some(5));
        assert_eq!(d2.num_groups(), 5);
    }

    #[test]
    fn grid_neighbors_are_adjacent_cells() {
        let d = Deployment::grid(3, 10.0, None);
        // Node 5 is the centre of a 3×3 grid; with range 16 m it hears the 4-neighbourhood
        // and the diagonals.
        let n = d.neighbors(5);
        assert_eq!(n, vec![1, 2, 3, 4, 6, 7, 8, 9]);
    }

    #[test]
    fn uniform_random_is_deterministic_in_seed() {
        let a = Deployment::uniform_random(20, 100.0, 100.0, 4, 7);
        let b = Deployment::uniform_random(20, 100.0, 100.0, 4, 7);
        let c = Deployment::uniform_random(20, 100.0, 100.0, 4, 8);
        for id in a.node_ids() {
            assert_eq!(a.position_of(id).x, b.position_of(id).x);
            assert_eq!(a.position_of(id).y, b.position_of(id).y);
        }
        let same = a
            .node_ids()
            .iter()
            .filter(|&&id| a.position_of(id).x == c.position_of(id).x)
            .count();
        assert!(same < 3, "different seeds must give different placements");
    }

    #[test]
    fn clustered_rooms_assigns_groups_per_room() {
        let d = Deployment::clustered_rooms(6, 4, 20.0, 3);
        assert_eq!(d.num_nodes(), 24);
        assert_eq!(d.num_groups(), 6);
        for g in 0..6 {
            assert_eq!(d.group_size(g), 4);
        }
    }

    #[test]
    fn linear_chain_routes_as_a_chain() {
        let d = Deployment::linear_chain(6, 10.0, Some(3));
        assert_eq!(d.num_nodes(), 6);
        assert_eq!(d.num_groups(), 3);
        assert_eq!(d.kind(), DeploymentKind::LinearChain);
        // Each node only hears its immediate neighbours (and node 1 hears the sink).
        assert_eq!(d.neighbors(1), vec![0, 2]);
        assert_eq!(d.neighbors(3), vec![2, 4]);
        let tree = crate::tree::RoutingTree::build(&d);
        assert_eq!(tree.height(), 6, "the chain degenerates to maximum depth");
        assert_eq!(tree.path_to_sink(6), vec![6, 5, 4, 3, 2, 1]);
    }

    #[test]
    fn group_of_and_position_of_work_for_every_node() {
        let d = Deployment::conference();
        for id in d.node_ids() {
            let _ = d.group_of(id);
            let _ = d.position_of(id);
        }
        // The sink has a position too.
        let _ = d.position_of(SINK);
    }

    #[test]
    #[should_panic(expected = "consecutive")]
    fn from_parts_rejects_gaps_in_ids() {
        let nodes = vec![
            NodeSpec { id: 1, position: Position::new(0.0, 0.0), group: 0 },
            NodeSpec { id: 3, position: Position::new(1.0, 0.0), group: 0 },
        ];
        let _ = Deployment::from_parts(DeploymentKind::Custom, Position::new(0.0, 0.0), nodes, 5.0);
    }

    #[test]
    fn room_names_cover_figure1_rooms() {
        assert_eq!(room_name(GROUP_A), "A");
        assert_eq!(room_name(GROUP_D), "D");
        assert_eq!(room_name(17), "G17");
    }

    #[test]
    fn distance_is_euclidean() {
        let a = Position::new(0.0, 0.0);
        let b = Position::new(3.0, 4.0);
        assert!((a.distance(&b) - 5.0).abs() < 1e-12);
    }
}
