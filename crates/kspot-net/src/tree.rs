//! The TAG-style routing (aggregation) tree.
//!
//! TinyDB — and therefore KSpot, which extends it — organises the network into a
//! spanning tree rooted at the sink using the *first-heard-from* rule: when the query is
//! flooded, every node adopts as parent the neighbour from which it first heard the
//! query, which is a BFS tree over the connectivity graph.  Data then flows leaf-to-root
//! (convergecast) and control traffic root-to-leaf (dissemination).
//!
//! [`RoutingTree`] captures the result and offers the traversal orders the algorithms
//! need: post-order for convergecast (children are processed before their parent) and
//! pre-order for dissemination.

use crate::topology::Deployment;
use crate::types::{NodeId, SINK};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// A spanning tree over the deployment, rooted at the sink.
///
/// The tree is static for the lifetime of a deployment, so everything the per-epoch
/// sweeps iterate — child lists and both traversal orders — is computed once, here,
/// iteratively (a chain deployment is as deep as it is large).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RoutingTree {
    /// `parent[i]` is the parent of node `i + 1` (sensor ids start at 1).
    parent: Vec<NodeId>,
    /// `children[id]` are the children of node `id` (index 0 is the sink), ascending.
    children: Vec<Vec<NodeId>>,
    /// Sensor nodes, every node after all of its descendants.
    post_order: Vec<NodeId>,
    /// Sensor nodes, every node before its descendants.
    pre_order: Vec<NodeId>,
}

impl RoutingTree {
    /// Builds the first-heard-from (BFS) tree over the deployment's connectivity graph.
    ///
    /// If the deployment carries an explicit parent assignment (scripted scenarios such
    /// as Figure 1), that assignment is used verbatim.  Nodes that are not reachable
    /// within radio range are attached to their geometrically nearest already-connected
    /// node — the software equivalent of the topology-control step a real deployment
    /// would perform by adding relay motes.
    pub fn build(deployment: &Deployment) -> Self {
        if let Some(parents) = deployment.explicit_parents() {
            let parent_of = |id: NodeId| -> NodeId {
                *parents
                    .get(&id)
                    .unwrap_or_else(|| panic!("explicit parents missing entry for node {id}"))
            };
            let parent: Vec<NodeId> =
                deployment.node_ids().iter().map(|&id| parent_of(id)).collect();
            return Self::from_parent_vector(parent);
        }

        let n = deployment.num_nodes();
        let mut parent: Vec<Option<NodeId>> = vec![None; n];
        let mut visited = vec![false; n + 1];
        visited[SINK as usize] = true;
        let mut queue = VecDeque::new();
        queue.push_back(SINK);
        while let Some(u) = queue.pop_front() {
            for v in deployment.neighbors(u) {
                if v == SINK || visited[v as usize] {
                    continue;
                }
                visited[v as usize] = true;
                parent[(v - 1) as usize] = Some(u);
                queue.push_back(v);
            }
        }

        // Attach any disconnected node to its nearest connected node (or the sink).
        loop {
            let orphan = (1..=n as NodeId).find(|&id| parent[(id - 1) as usize].is_none());
            let Some(orphan) = orphan else { break };
            let op = deployment.position_of(orphan);
            let mut best: (NodeId, f64) = (SINK, op.distance(&deployment.sink_position()));
            for cand in 1..=n as NodeId {
                if cand == orphan || parent[(cand - 1) as usize].is_none() {
                    continue;
                }
                let dist = op.distance(&deployment.position_of(cand));
                if dist < best.1 {
                    best = (cand, dist);
                }
            }
            parent[(orphan - 1) as usize] = Some(best.0);
        }

        Self::from_parent_vector(parent.into_iter().map(|p| p.expect("all nodes attached")).collect())
    }

    /// Builds a tree from an explicit parent vector (`parent[i]` is the parent of node
    /// `i + 1`).  Panics if the assignment contains a cycle or references unknown nodes.
    pub fn from_parent_vector(parent: Vec<NodeId>) -> Self {
        let n = parent.len();
        for (i, &p) in parent.iter().enumerate() {
            let child = (i + 1) as NodeId;
            assert!(p as usize <= n, "parent {p} of node {child} is out of range");
            assert_ne!(p, child, "node {child} cannot be its own parent");
        }
        // Ascending child ids per node: `parent` is scanned in id order.
        let mut children: Vec<Vec<NodeId>> = vec![Vec::new(); n + 1];
        for (i, &p) in parent.iter().enumerate() {
            children[p as usize].push((i + 1) as NodeId);
        }
        // One top-down pass from the sink yields the pre-order; a node the pass never
        // reaches does not lead to the sink, i.e. it is on (or hangs off) a cycle.
        let mut pre_order = Vec::with_capacity(n);
        let mut stack = vec![SINK];
        while let Some(node) = stack.pop() {
            if node != SINK {
                pre_order.push(node);
            }
            stack.extend(children[node as usize].iter().rev());
        }
        if pre_order.len() != n {
            let mut reached = vec![false; n + 1];
            for &node in &pre_order {
                reached[node as usize] = true;
            }
            let stray = (1..=n).find(|&id| !reached[id]).expect("an unreached node exists");
            panic!("parent assignment contains a cycle involving node {stray}");
        }
        // Post-order is the reverse of a node-first walk that takes children in
        // descending order.
        let mut post_order = Vec::with_capacity(n);
        stack.push(SINK);
        while let Some(node) = stack.pop() {
            if node != SINK {
                post_order.push(node);
            }
            stack.extend(children[node as usize].iter().copied());
        }
        post_order.reverse();
        Self { parent, children, post_order, pre_order }
    }

    /// Number of sensor nodes in the tree (the sink is not counted).
    pub fn num_nodes(&self) -> usize {
        self.parent.len()
    }

    /// The parent of `node`.  Panics when asked for the sink's parent.
    pub fn parent(&self, node: NodeId) -> NodeId {
        assert_ne!(node, SINK, "the sink has no parent");
        self.parent[(node - 1) as usize]
    }

    /// The children of `node` (which may be the sink), in ascending id order.
    pub fn children(&self, node: NodeId) -> &[NodeId] {
        self.children.get(node as usize).map_or(&[], Vec::as_slice)
    }

    /// True if `node` has no children.
    pub fn is_leaf(&self, node: NodeId) -> bool {
        self.children(node).is_empty()
    }

    /// Sensor nodes in *post-order*: every node appears after all of its descendants.
    /// This is the order in which an epoch's convergecast is simulated (leaves first).
    pub fn post_order(&self) -> Vec<NodeId> {
        self.post_order.clone()
    }

    /// [`Self::post_order`] without the copy, for callers that only iterate.
    pub fn post_order_slice(&self) -> &[NodeId] {
        &self.post_order
    }

    /// Sensor nodes in *pre-order*: every node appears before its descendants.  This is
    /// the order in which root-to-leaf dissemination (query flooding, threshold
    /// broadcast) is simulated.
    pub fn pre_order_slice(&self) -> &[NodeId] {
        &self.pre_order
    }
}

#[cfg(test)]
impl RoutingTree {
    /// The path from `node` up to (and excluding) the sink: `node, parent, grandparent, …`.
    pub(crate) fn path_to_sink(&self, node: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut cur = node;
        while cur != SINK {
            out.push(cur);
            cur = self.parent(cur);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Deployment;

    #[test]
    fn bfs_tree_connects_every_node_of_a_grid() {
        let d = Deployment::grid(6, 10.0, None);
        let t = RoutingTree::build(&d);
        assert_eq!(t.num_nodes(), 36);
        for id in d.node_ids() {
            // Walking up from every node terminates at the sink.
            let path = t.path_to_sink(id);
            assert_eq!(path[0], id);
            assert_eq!(t.parent(*path.last().unwrap()), SINK);
        }
    }

    #[test]
    fn explicit_parent_assignment_is_respected() {
        let d = Deployment::figure1();
        let t = RoutingTree::build(&d);
        assert_eq!(t.parent(9), 4);
        assert_eq!(t.parent(4), 7);
        assert_eq!(t.parent(7), SINK);
        assert_eq!(t.children(SINK), &[2, 5, 7]);
        assert_eq!(t.path_to_sink(9), vec![9, 4, 7]);
        let height = d.node_ids().into_iter().map(|id| t.path_to_sink(id).len()).max();
        assert_eq!(height, Some(3));
    }

    #[test]
    fn post_order_lists_children_before_parents() {
        let d = Deployment::figure1();
        let t = RoutingTree::build(&d);
        let order = t.post_order();
        assert_eq!(order.len(), 9);
        let pos = |n: NodeId| order.iter().position(|&x| x == n).unwrap();
        for id in d.node_ids() {
            if t.parent(id) != SINK {
                assert!(pos(id) < pos(t.parent(id)), "child {id} must precede its parent");
            }
        }
    }

    #[test]
    fn pre_order_lists_parents_before_children() {
        let d = Deployment::conference();
        let t = RoutingTree::build(&d);
        let order = t.pre_order_slice();
        assert_eq!(order.len(), d.num_nodes());
        let pos = |n: NodeId| order.iter().position(|&x| x == n).unwrap();
        for id in d.node_ids() {
            if t.parent(id) != SINK {
                assert!(pos(t.parent(id)) < pos(id), "parent of {id} must precede it");
            }
        }
    }

    #[test]
    fn leaves_are_detected() {
        let t = RoutingTree::build(&Deployment::figure1());
        assert!(t.is_leaf(9));
        assert!(t.is_leaf(1));
        assert!(!t.is_leaf(4));
        assert!(!t.is_leaf(7));
    }

    #[test]
    fn disconnected_nodes_are_attached_to_nearest_neighbor() {
        // A deployment whose radio range cannot reach one far-away node.
        use crate::topology::{NodeSpec, Position};
        let nodes = vec![
            NodeSpec { id: 1, position: Position::new(5.0, 0.0), group: 0 },
            NodeSpec { id: 2, position: Position::new(10.0, 0.0), group: 0 },
            NodeSpec { id: 3, position: Position::new(100.0, 0.0), group: 0 },
        ];
        let d = Deployment::from_parts(Position::new(0.0, 0.0), nodes, 8.0);
        let t = RoutingTree::build(&d);
        // Node 3 is out of range of everything; it gets attached to node 2, its nearest
        // connected peer.
        assert_eq!(t.parent(3), 2);
        assert_eq!(t.path_to_sink(3), vec![3, 2, 1]);
    }

    #[test]
    fn a_chain_as_deep_as_the_stack_is_ordered_without_recursion() {
        // Node i hangs off node i - 1: the tree's height is its size, which overflowed
        // the stack while the post-order was built recursively.
        let n = 20_000u32;
        let t = RoutingTree::from_parent_vector((0..n).collect());
        assert_eq!(t.path_to_sink(n).len(), n as usize);
        assert_eq!(t.post_order(), (1..=n).rev().collect::<Vec<_>>());
        assert_eq!(t.pre_order_slice(), (1..=n).collect::<Vec<_>>());
    }

    #[test]
    fn cached_orders_match_the_recursive_definitions() {
        fn visit(t: &RoutingTree, node: NodeId, pre: &mut Vec<NodeId>, post: &mut Vec<NodeId>) {
            for &c in t.children(node) {
                pre.push(c);
                visit(t, c, pre, post);
                post.push(c);
            }
        }
        for d in [Deployment::figure1(), Deployment::conference(), Deployment::grid(7, 10.0, None)] {
            let t = RoutingTree::build(&d);
            let (mut pre, mut post) = (Vec::new(), Vec::new());
            visit(&t, SINK, &mut pre, &mut post);
            assert_eq!(t.pre_order_slice(), pre);
            assert_eq!(t.post_order_slice(), post);
        }
    }

    #[test]
    #[should_panic(expected = "cycle involving node 2")]
    fn cycles_are_rejected() {
        // 2 -> 3 -> 2 is a cycle; node 1 reaches the sink.
        let _ = RoutingTree::from_parent_vector(vec![0, 3, 2]);
    }

    #[test]
    #[should_panic(expected = "own parent")]
    fn self_parent_is_rejected() {
        let _ = RoutingTree::from_parent_vector(vec![1]);
    }
}
