//! Fault injection: lossy links, scheduled node deaths and duty-cycled sleeping.
//!
//! The KSpot demo runs on a healthy testbed, but the exactness claims of MINT and TJA
//! are only meaningful if we can state what happens when the network misbehaves.  A
//! [`FaultPlan`] describes, deterministically, the three fault classes the testkit's
//! scenario matrix exercises:
//!
//! * **link loss** — every unicast transmission attempt is lost with one configurable
//!   probability, the same on every link.  Recovery is link-layer ARQ: the sender
//!   retransmits up to [`FaultPlan::max_retransmits`] extra times, each attempt paying
//!   full radio cost; a payload that exhausts its retries is *dropped* and the
//!   algorithm degrades to partial data (the parent simply never merges it);
//! * **node death** — a node stops participating from a configured epoch onward.  It
//!   neither transmits nor receives; its children route around it to their nearest
//!   participating ancestor ([`crate::sim::Network::effective_parent`]).  Exactness is
//!   then scoped to the readings of nodes that are still alive;
//! * **duty-cycled sleeping** — a node periodically powers its radio down for whole
//!   epochs ([`DutyCycle`]).  While asleep it behaves exactly like a dead node; it
//!   resumes in its next active slot.
//!
//! Dissemination floods are modelled as reliable: redundant local broadcasts reach
//! every *participating* node (a sleeping or dead node misses the update, which is why
//! the algorithms must tolerate stale thresholds).  Only unicast traffic — data
//! reports, probes, probe replies — is subject to link loss.
//!
//! Everything here is a pure function of `(plan, node, epoch)` so that test oracles can
//! predict participation without running the simulation.  The
//! [`crate::sim::Network`] does not ask it at every step: it keeps a participation view
//! that each `begin_epoch` recomputes from this plan and the batteries, and that a
//! battery emptying mid-epoch updates at once (see the [`crate::sim`] module docs).

use crate::types::{Epoch, NodeId, SINK};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A periodic sleep schedule: in every window of `period` epochs a node is awake for
/// the first `active` of its slots.  Slots are offset by the node id so the network
/// never sleeps all at once (staggered duty cycling, as real MAC layers do).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DutyCycle {
    /// Length of the schedule window in epochs.
    pub period: u64,
    /// Number of awake epochs per window (`1 ..= period`).
    pub active: u64,
}

impl DutyCycle {
    /// Creates a schedule, rejecting degenerate parameters.
    pub fn new(period: u64, active: u64) -> Self {
        assert!(period >= 1, "duty-cycle period must be at least one epoch");
        assert!(
            (1..=period).contains(&active),
            "duty-cycle active slots must be in 1..=period, got {active}/{period}"
        );
        Self { period, active }
    }

    /// True when `node` is awake in `epoch`.  The sink is mains powered and never
    /// sleeps.
    pub fn is_awake(&self, node: NodeId, epoch: Epoch) -> bool {
        node == SINK || (epoch.wrapping_add(u64::from(node))) % self.period < self.active
    }
}

/// The complete fault schedule of one simulated run.  The default plan injects nothing:
/// no loss, no deaths, no sleeping — exactly the pre-fault behaviour of the substrate.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Probability that a single unicast transmission attempt is lost: the simulator's
    /// only loss model.
    pub link_loss: f64,
    /// How many extra ARQ attempts a sender makes before dropping a payload.
    pub max_retransmits: u32,
    /// Nodes that die at the start of the given epoch (inclusive).
    pub node_deaths: BTreeMap<NodeId, Epoch>,
    /// Optional duty-cycled sleep schedule applied to every node.
    pub duty_cycle: Option<DutyCycle>,
}

impl FaultPlan {
    /// A plan that injects no faults (the default).
    pub fn none() -> Self {
        Self::default()
    }

    /// Sets the base per-attempt link-loss probability.
    pub fn with_link_loss(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "loss probability must be in [0, 1]");
        self.link_loss = p;
        self
    }

    /// Sets the number of ARQ retransmissions attempted per lost payload.
    pub fn with_retransmits(mut self, n: u32) -> Self {
        self.max_retransmits = n;
        self
    }

    /// Schedules `node` to die at the start of `epoch`.
    pub fn with_node_death(mut self, node: NodeId, epoch: Epoch) -> Self {
        assert_ne!(node, SINK, "the sink is mains powered and cannot die");
        self.node_deaths.insert(node, epoch);
        self
    }

    /// Applies a duty-cycle schedule to every sensor node.
    pub fn with_duty_cycle(mut self, schedule: DutyCycle) -> Self {
        self.duty_cycle = Some(schedule);
        self
    }

    /// True when `node` has died on or before `epoch` according to the schedule.
    pub fn is_scheduled_dead(&self, node: NodeId, epoch: Epoch) -> bool {
        self.node_deaths.get(&node).is_some_and(|&at| epoch >= at)
    }

    /// True when `node` is awake in `epoch` (always true without a duty cycle).
    pub fn is_awake(&self, node: NodeId, epoch: Epoch) -> bool {
        self.duty_cycle.is_none_or(|dc| dc.is_awake(node, epoch))
    }

    /// True when `node` can take part in `epoch`'s protocol round: not scheduled dead
    /// and awake.  The sink always participates.  (Battery depletion is tracked by the
    /// [`crate::sim::Network`] on top of this schedule.)
    pub fn participates(&self, node: NodeId, epoch: Epoch) -> bool {
        node == SINK || (!self.is_scheduled_dead(node, epoch) && self.is_awake(node, epoch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_injects_nothing() {
        let plan = FaultPlan::none();
        assert_eq!(plan.link_loss, 0.0);
        for epoch in 0..16 {
            for node in 0..8 {
                assert!(plan.participates(node, epoch));
            }
        }
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn with_link_loss_rejects_values_above_one() {
        let _ = FaultPlan::none().with_link_loss(1.5);
    }

    #[test]
    fn node_death_takes_effect_at_its_epoch() {
        let plan = FaultPlan::none().with_node_death(4, 10);
        assert!(plan.participates(4, 9));
        assert!(!plan.participates(4, 10));
        assert!(!plan.participates(4, 999));
        assert!(plan.participates(5, 999), "other nodes are unaffected");
        assert!(plan.participates(SINK, 999), "the sink never dies");
    }

    #[test]
    fn duty_cycle_staggers_sleep_by_node_id() {
        let dc = DutyCycle::new(4, 3);
        // Node n sleeps in epochs where (epoch + n) % 4 == 3.
        assert!(!dc.is_awake(1, 2));
        assert!(dc.is_awake(1, 3));
        assert!(!dc.is_awake(2, 1));
        assert!(dc.is_awake(SINK, 2), "the sink never sleeps");
        // Every node is awake exactly `active` epochs per period.
        for node in 1..=8 {
            let awake = (0..4).filter(|&e| dc.is_awake(node, e)).count();
            assert_eq!(awake, 3, "node {node}");
        }
    }

    #[test]
    fn plan_combines_death_and_sleep() {
        let plan = FaultPlan::none().with_duty_cycle(DutyCycle::new(2, 1)).with_node_death(3, 4);
        // Node 3 follows the duty cycle until it dies.
        assert_eq!(plan.participates(3, 1), plan.is_awake(3, 1));
        assert!(!plan.participates(3, 6), "death overrides the schedule");
    }

    #[test]
    #[should_panic(expected = "1..=period")]
    fn degenerate_duty_cycle_is_rejected() {
        let _ = DutyCycle::new(4, 0);
    }

    #[test]
    #[should_panic(expected = "mains powered")]
    fn sink_death_is_rejected() {
        let _ = FaultPlan::none().with_node_death(SINK, 1);
    }
}
