//! The System Panel — the statistics display the demo projects on the wall.
//!
//! The paper: "we will also present KSpot's system panel which continuously projects the
//! savings in energy and messages that our system yields".  [`SystemPanel`] is that
//! panel as a typed value: it compares the metrics of the KSpot execution against one or
//! more baseline executions of the *same* query over the *same* readings and reports the
//! message, byte and energy savings, the per-phase traffic breakdown and a network
//! lifetime estimate.

use kspot_net::{NetworkMetrics, PhaseTotals, Savings};
use std::fmt;

/// Metrics of one named execution strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyReport {
    /// Strategy name ("KSpot (MINT views)", "TAG + sink Top-K", …).
    pub name: String,
    /// Total traffic and energy of the run.
    pub totals: PhaseTotals,
    /// Per-phase breakdown, in phase order.
    pub phases: Vec<(String, PhaseTotals)>,
    /// Highest per-node energy consumption (the bottleneck node), µJ.
    pub bottleneck_energy_uj: f64,
    /// Number of epochs the run covered.
    pub epochs: usize,
}

impl StrategyReport {
    /// Builds a report from a finished run's metrics.
    pub fn from_metrics(name: impl Into<String>, metrics: &NetworkMetrics, epochs: usize) -> Self {
        Self {
            name: name.into(),
            totals: metrics.totals(),
            phases: metrics.phases().map(|(tag, totals)| (tag.to_string(), totals)).collect(),
            bottleneck_energy_uj: metrics.max_node_energy_uj(),
            epochs,
        }
    }

    /// Builds a report from one query scope's slice of a **shared** ledger — the
    /// per-query totals and phase table of a session served by the multi-query engine,
    /// with no dedicated solo run.  Per-node counters are not scoped, so the report
    /// carries no bottleneck-energy estimate (`bottleneck_energy_uj` is zero and
    /// [`Self::lifetime_epochs`] reports infinity); use a whole-run report when the
    /// lifetime read-out matters.
    pub fn from_scope(
        name: impl Into<String>,
        metrics: &NetworkMetrics,
        scope: kspot_net::QueryScope,
        epochs: usize,
    ) -> Self {
        Self {
            name: name.into(),
            totals: metrics.scope(scope),
            phases: metrics.scope_phases(scope).map(|(tag, totals)| (tag.to_string(), totals)).collect(),
            bottleneck_energy_uj: 0.0,
            epochs,
        }
    }

    /// Estimated network lifetime in epochs for a given per-node battery capacity: the
    /// bottleneck node's average energy per epoch determines when the first node dies.
    pub fn lifetime_epochs(&self, battery_capacity_uj: f64) -> f64 {
        if self.epochs == 0 || self.bottleneck_energy_uj <= 0.0 {
            return f64::INFINITY;
        }
        battery_capacity_uj / (self.bottleneck_energy_uj / self.epochs as f64)
    }
}

/// The System Panel: the KSpot run next to its baselines.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemPanel {
    /// The KSpot execution (whatever algorithm the query was routed to).
    pub kspot: StrategyReport,
    /// Baseline executions of the same query (TAG, centralized collection, …).
    pub baselines: Vec<StrategyReport>,
}

impl SystemPanel {
    /// Creates the panel.
    pub fn new(kspot: StrategyReport, baselines: Vec<StrategyReport>) -> Self {
        Self { kspot, baselines }
    }

    /// Savings of the KSpot run against the named baseline, if that baseline exists.
    pub fn savings_vs(&self, baseline_name: &str) -> Option<Savings> {
        self.baselines
            .iter()
            .find(|b| b.name == baseline_name)
            .map(|b| Savings::between(b.totals, self.kspot.totals))
    }

    /// Savings against the first (primary) baseline.
    pub fn primary_savings(&self) -> Option<Savings> {
        self.baselines.first().map(|b| Savings::between(b.totals, self.kspot.totals))
    }
}

impl fmt::Display for SystemPanel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "┌─ KSpot System Panel ──────────────────────────────────────────")?;
        let all = std::iter::once(&self.kspot).chain(self.baselines.iter());
        writeln!(
            f,
            "│ {:<28} {:>10} {:>12} {:>14} {:>12}",
            "strategy", "messages", "bytes", "energy (mJ)", "tuples"
        )?;
        for report in all {
            writeln!(
                f,
                "│ {:<28} {:>10} {:>12} {:>14.2} {:>12}",
                report.name,
                report.totals.messages,
                report.totals.bytes,
                report.totals.energy_uj / 1000.0,
                report.totals.tuples
            )?;
        }
        if let Some(savings) = self.primary_savings() {
            writeln!(
                f,
                "│ savings vs {:<20} messages {:+.1}%  bytes {:+.1}%  energy {:+.1}%",
                self.baselines.first().map(|b| b.name.as_str()).unwrap_or("baseline"),
                savings.message_savings_pct(),
                savings.byte_savings_pct(),
                savings.energy_savings_pct()
            )?;
        }
        for (phase, totals) in &self.kspot.phases {
            writeln!(
                f,
                "│   kspot phase {:<18} {:>6} msgs {:>10} B",
                phase, totals.messages, totals.bytes
            )?;
        }
        write!(f, "└───────────────────────────────────────────────────────────────")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kspot_net::{NetworkMetrics, PhaseTag};

    fn metrics_with(messages: u64, bytes_per_msg: u32, energy_each: f64) -> NetworkMetrics {
        let mut m = NetworkMetrics::new(4);
        for i in 0..messages {
            m.record_transmission(
                1,
                0,
                i,
                PhaseTag::Update,
                bytes_per_msg,
                1,
                energy_each,
                energy_each / 2.0,
            );
        }
        m
    }

    #[test]
    fn reports_capture_totals_and_phases() {
        let metrics = metrics_with(10, 20, 100.0);
        let report = StrategyReport::from_metrics("KSpot (MINT views)", &metrics, 10);
        assert_eq!(report.totals.messages, 10);
        assert_eq!(report.totals.bytes, 200);
        assert_eq!(report.phases.len(), 1);
        assert_eq!(report.phases[0].0, "update");
        assert!(report.bottleneck_energy_uj > 0.0);
    }

    #[test]
    fn lifetime_scales_inversely_with_energy() {
        let frugal = StrategyReport::from_metrics("frugal", &metrics_with(10, 10, 10.0), 10);
        let hungry = StrategyReport::from_metrics("hungry", &metrics_with(10, 10, 100.0), 10);
        let battery = 1.0e6;
        assert!(frugal.lifetime_epochs(battery) > hungry.lifetime_epochs(battery) * 5.0);
        let idle = StrategyReport::from_metrics("idle", &NetworkMetrics::new(4), 10);
        assert!(idle.lifetime_epochs(battery).is_infinite());
    }

    #[test]
    fn panel_computes_savings_and_extension() {
        let kspot = StrategyReport::from_metrics("KSpot (MINT views)", &metrics_with(10, 10, 10.0), 10);
        let tag = StrategyReport::from_metrics("TAG + sink Top-K", &metrics_with(40, 20, 10.0), 10);
        let central = StrategyReport::from_metrics("centralized collection", &metrics_with(40, 50, 10.0), 10);
        let panel = SystemPanel::new(kspot, vec![tag, central]);

        let vs_tag = panel.savings_vs("TAG + sink Top-K").unwrap();
        assert!((vs_tag.message_savings_pct() - 75.0).abs() < 1e-9);
        assert!(panel.savings_vs("nonexistent").is_none());
        let primary = panel.primary_savings().unwrap();
        assert!(primary.byte_savings_pct() > 0.0);
        let ours = panel.kspot.lifetime_epochs(1.0e6);
        let base = panel.baselines[0].lifetime_epochs(1.0e6);
        assert!(base.is_finite() && base > 0.0, "the primary baseline has a lifetime, {base}");
        assert!(ours > base, "KSpot should extend the lifetime, {ours} against {base}");
    }

    #[test]
    fn panel_display_mentions_all_strategies() {
        let kspot = StrategyReport::from_metrics("KSpot (MINT views)", &metrics_with(5, 10, 10.0), 5);
        let tag = StrategyReport::from_metrics("TAG + sink Top-K", &metrics_with(9, 20, 10.0), 5);
        let panel = SystemPanel::new(kspot, vec![tag]);
        let text = panel.to_string();
        assert!(text.contains("KSpot System Panel"));
        assert!(text.contains("MINT views"));
        assert!(text.contains("TAG + sink Top-K"));
        assert!(text.contains("savings vs"));
    }
}
