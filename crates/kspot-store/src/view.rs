//! [`CheckpointWindows`]: the [`kspot_algos::WindowSource`] a restored snapshot is
//! answered from.

use kspot_algos::BankWindows;
use kspot_net::WindowBank;

/// The span-limited view over a [`WindowBank`] restored from a checkpoint image — the
/// time-travel counterpart of the engine's live `BankWindows<&mut WindowBank>`, and the
/// same code: the view *owns* the restored bank and exposes only the last `window`
/// epochs it covers, with the same charged/uncharged access split.  Holding the same
/// samples, an `AS OF` run over this view is therefore byte-identical to the same query
/// answered live at the snapshot epoch.
pub type CheckpointWindows = BankWindows<WindowBank>;

#[cfg(test)]
mod tests {
    use super::*;
    use kspot_algos::WindowSource;
    use kspot_net::Reading;

    fn bank() -> WindowBank {
        let mut bank = WindowBank::new(8);
        for epoch in 0..8u64 {
            let readings: Vec<Reading> = (1..=2)
                .map(|node| Reading::new(node, 0, epoch, f64::from(node) + epoch as f64))
                .collect();
            bank.feed(&readings);
        }
        bank
    }

    #[test]
    fn view_limits_the_span_and_mirrors_the_live_view() {
        let mut view = CheckpointWindows::new(bank(), 4);
        assert_eq!(view.covered_epochs(), [4, 5, 6, 7]);
        assert_eq!(view.snapshot_epoch(), Some(7));
        assert_eq!(view.source_nodes(), [1, 2]);
        assert_eq!(view.window_len(1), 4);
        assert_eq!(view.samples(2).first().unwrap().0, 4);
        let mut found = Vec::new();
        view.local_top_k(1, 2, &mut found);
        assert_eq!(found, [(7, 8.0), (6, 7.0)]);
        view.values_at_least(2, 8.0, &mut found);
        assert_eq!(found, [(6, 8.0), (7, 9.0)]);
        assert_eq!(view.value_at(1, 5), Some(6.0));
        assert_eq!(view.value_at(1, 3), None, "pre-span epochs are invisible");
        assert_eq!(view.value_at(9, 5), None, "unknown nodes hold no window");
    }

    #[test]
    fn empty_bank_yields_an_empty_view() {
        let mut view = CheckpointWindows::new(WindowBank::new(4), 4);
        assert!(view.covered_epochs().is_empty());
        assert_eq!(view.snapshot_epoch(), None);
        assert_eq!(view.window_len(1), 0);
        let mut found = vec![(0, 0.0)];
        view.local_top_k(1, 3, &mut found);
        assert!(found.is_empty());
    }
}
