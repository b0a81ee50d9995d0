//! The per-node energy model and battery accounting.
//!
//! Energy is the resource the paper cares about ("minimizing the consumption of system
//! resources and prolonging the lifetime of the deployed sensor network").  The model
//! follows the usual first-order WSN energy accounting for the MICA2 platform: a fixed
//! cost per transmitted and received byte, a small per-epoch cost for sensing and CPU,
//! and an idle-listening cost.  Radio communication dominates by one to two orders of
//! magnitude, which is precisely why in-network pruning saves lifetime.

use crate::types::NodeId;
use serde::{Deserialize, Serialize};

/// Energy cost constants, all in microjoules (µJ).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyModel {
    /// µJ spent per byte transmitted (MICA2 at full power draws ≈ 20 µJ/byte).
    pub tx_uj_per_byte: f64,
    /// µJ spent per byte received (≈ 15 µJ/byte on the CC1000).
    pub rx_uj_per_byte: f64,
    /// µJ spent acquiring one sample from the sensing board per epoch.
    pub sense_uj: f64,
    /// µJ spent on local CPU work per processed tuple (sorting, pruning, view upkeep).
    pub cpu_uj_per_tuple: f64,
    /// µJ spent per epoch on idle listening / low-power listening overhead.
    pub idle_uj_per_epoch: f64,
}

impl EnergyModel {
    /// Constants calibrated to the MICA2 + MTS310 platform of the demo.
    pub fn mica2() -> Self {
        Self {
            tx_uj_per_byte: 20.0,
            rx_uj_per_byte: 15.0,
            sense_uj: 90.0,
            cpu_uj_per_tuple: 2.0,
            idle_uj_per_epoch: 50.0,
        }
    }

    /// An energy model where only radio bytes cost anything; handy for unit tests.
    pub fn radio_only() -> Self {
        Self {
            tx_uj_per_byte: 1.0,
            rx_uj_per_byte: 1.0,
            sense_uj: 0.0,
            cpu_uj_per_tuple: 0.0,
            idle_uj_per_epoch: 0.0,
        }
    }

    /// Energy (µJ) to transmit `bytes` on-air bytes.
    pub fn tx_cost(&self, bytes: u32) -> f64 {
        self.tx_uj_per_byte * f64::from(bytes)
    }

    /// Energy (µJ) to receive `bytes` on-air bytes.
    pub fn rx_cost(&self, bytes: u32) -> f64 {
        self.rx_uj_per_byte * f64::from(bytes)
    }

    /// Energy (µJ) of the fixed per-epoch node duties (sampling + idle listening).
    pub fn epoch_baseline_cost(&self) -> f64 {
        self.sense_uj + self.idle_uj_per_epoch
    }

    /// Energy (µJ) of locally processing `tuples` tuples.
    pub fn cpu_cost(&self, tuples: u32) -> f64 {
        self.cpu_uj_per_tuple * f64::from(tuples)
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self::mica2()
    }
}

/// The battery of one node.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Battery {
    /// Remaining charge in µJ.
    remaining_uj: f64,
    /// Initial charge in µJ.
    capacity_uj: f64,
}

impl Battery {
    /// A battery holding `capacity_uj` microjoules.
    pub fn new(capacity_uj: f64) -> Self {
        assert!(capacity_uj > 0.0, "battery capacity must be positive");
        Self { remaining_uj: capacity_uj, capacity_uj }
    }

    /// Remaining charge in µJ (never negative).
    pub fn remaining_uj(&self) -> f64 {
        self.remaining_uj.max(0.0)
    }

    /// Initial capacity in µJ.
    pub fn capacity_uj(&self) -> f64 {
        self.capacity_uj
    }

    /// True once the battery is exhausted.
    pub fn is_depleted(&self) -> bool {
        self.remaining_uj <= 0.0
    }

    /// Draws `uj` microjoules; the charge saturates at zero.
    pub fn drain(&mut self, uj: f64) {
        debug_assert!(uj >= 0.0, "cannot drain negative energy");
        self.remaining_uj -= uj;
    }
}

/// Tracks one battery per node and reports lifetime statistics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatteryBank {
    batteries: Vec<Battery>,
}

impl BatteryBank {
    /// Creates `n` identical batteries of `capacity_uj` each (node ids `1..=n`).
    pub fn uniform(n: usize, capacity_uj: f64) -> Self {
        Self { batteries: vec![Battery::new(capacity_uj); n] }
    }

    /// Number of node batteries tracked.
    pub fn len(&self) -> usize {
        self.batteries.len()
    }

    /// True when the bank tracks no batteries.
    pub fn is_empty(&self) -> bool {
        self.batteries.is_empty()
    }

    /// Immutable access to node `id`'s battery.
    pub fn get(&self, id: NodeId) -> &Battery {
        &self.batteries[(id - 1) as usize]
    }

    /// Drains `uj` from node `id`'s battery.
    pub fn drain(&mut self, id: NodeId, uj: f64) {
        self.batteries[(id - 1) as usize].drain(uj);
    }

    /// True if any node has run out of energy — the classic "network lifetime ends at
    /// first node death" definition.
    pub fn any_depleted(&self) -> bool {
        self.batteries.iter().any(Battery::is_depleted)
    }

    /// Number of depleted nodes.
    pub fn depleted_count(&self) -> usize {
        self.batteries.iter().filter(|b| b.is_depleted()).count()
    }

    /// Total energy drawn so far across the whole network, in µJ.
    pub fn total_consumed_uj(&self) -> f64 {
        self.batteries
            .iter()
            .map(|b| b.capacity_uj() - b.remaining_uj())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn radio_costs_scale_linearly_with_bytes() {
        let m = EnergyModel::mica2();
        assert_eq!(m.tx_cost(10), 200.0);
        assert_eq!(m.rx_cost(10), 150.0);
        assert!(m.tx_cost(1) > m.rx_cost(1), "transmitting is costlier than receiving");
    }

    #[test]
    fn epoch_baseline_includes_sensing_and_idle() {
        let m = EnergyModel::mica2();
        assert_eq!(m.epoch_baseline_cost(), 140.0);
        assert_eq!(EnergyModel::radio_only().epoch_baseline_cost(), 0.0);
    }

    #[test]
    fn battery_drains_and_depletes() {
        let mut b = Battery::new(100.0);
        assert!(!b.is_depleted());
        b.drain(40.0);
        assert_eq!(b.remaining_uj(), 60.0);
        b.drain(80.0);
        assert!(b.is_depleted());
        assert_eq!(b.remaining_uj(), 0.0, "remaining charge saturates at zero");
    }

    #[test]
    fn bank_reports_first_death_and_totals() {
        let mut bank = BatteryBank::uniform(3, 100.0);
        assert_eq!(bank.len(), 3);
        bank.drain(2, 150.0);
        bank.drain(1, 30.0);
        assert!(bank.any_depleted());
        assert_eq!(bank.depleted_count(), 1);
        assert_eq!(bank.total_consumed_uj(), 100.0 + 30.0);
        assert_eq!(bank.get(3).remaining_uj(), 100.0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_battery_is_rejected() {
        let _ = Battery::new(0.0);
    }
}
