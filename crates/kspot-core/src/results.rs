//! What a session keeps of its answers: one flat log.
//!
//! A session's answers are stored end to end — every answer's items in one `Vec`, its
//! epoch and the position its items end at in two more — and addressed by absolute
//! answer index, the index [`crate::Session::results_page`] cursors already are.  The
//! log copies an answer's items in and lets go of the `Vec` the algorithm built, so an
//! answer costs its items plus one epoch and one offset (`16·len + 16` bytes) whatever
//! capacity the strategy's buffer had, and a read hands out exactly-sized
//! [`TopKResult`]s (ADR-014).

use kspot_algos::{RankedItem, TopKResult};
use kspot_net::Epoch;

/// The append-only answer log of one session.
#[derive(Debug, Default)]
pub(crate) struct ResultLog {
    /// `epochs[i]` is the epoch answer `i` refers to.
    epochs: Vec<Epoch>,
    /// `ends[i]` is where answer `i`'s items end in `items`; they start where answer
    /// `i - 1`'s end (at 0 for the first).  An empty answer repeats the offset.
    ends: Vec<usize>,
    /// Every answer's items, oldest answer first, each best first.
    items: Vec<RankedItem>,
}

impl ResultLog {
    /// Appends `answer`, keeping a copy of its items and dropping its buffer.
    pub(crate) fn push(&mut self, answer: TopKResult) {
        self.items.extend_from_slice(&answer.items);
        self.epochs.push(answer.epoch);
        self.ends.push(self.items.len());
    }

    /// How many answers the log holds.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// The newest answer, if there is one.
    pub(crate) fn latest(&self) -> Option<TopKResult> {
        self.page(self.len().saturating_sub(1), 1).pop()
    }

    /// At most `max` answers from index `cursor` on, oldest first (none when `cursor` is
    /// past the end).
    pub(crate) fn page(&self, cursor: usize, max: usize) -> Vec<TopKResult> {
        let start = cursor.min(self.len());
        let end = start.saturating_add(max).min(self.len());
        let mut from = start.checked_sub(1).map_or(0, |before| self.ends[before]);
        self.epochs[start..end]
            .iter()
            .zip(&self.ends[start..end])
            .map(|(&epoch, &to)| {
                let items = self.items[from..to].to_vec();
                from = to;
                TopKResult { epoch, items }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The log is a `Vec<TopKResult>` to every reader — every page, the newest
        /// answer, the count — and holds at most twice what the answers weigh.
        #[test]
        fn the_log_reads_like_the_vec_of_answers_it_was_fed(
            answers in prop::collection::vec(
                (0u64..1_000, prop::collection::vec((0u64..50, -5.0f64..105.0), 0..7)),
                0..40,
            ),
        ) {
            let mut log = ResultLog::default();
            let mut model: Vec<TopKResult> = Vec::new();
            prop_assert_eq!(log.latest(), None);
            for (epoch, pairs) in answers {
                // An algorithm's buffer is as large as what it ranked, not as its answer.
                let mut items = Vec::with_capacity(196);
                items.extend(pairs.iter().map(|&(key, value)| RankedItem::new(key, value)));
                let answer = TopKResult { epoch, items };
                model.push(answer.clone());
                log.push(answer);

                prop_assert_eq!(log.len(), model.len());
                prop_assert_eq!(log.latest().as_ref(), model.last());
                let payload = log.items.len();
                if payload >= 4 {
                    prop_assert!(log.items.capacity() <= 2 * payload, "{} items in {}", payload, log.items.capacity());
                }
                if log.len() >= 4 {
                    prop_assert!(log.epochs.capacity() <= 2 * log.len() && log.ends.capacity() <= 2 * log.len());
                }
            }
            for cursor in 0..=model.len() + 2 {
                for max in [0, 1, 2, 5, model.len(), usize::MAX] {
                    let start = cursor.min(model.len());
                    let end = start.saturating_add(max).min(model.len());
                    let page = log.page(cursor, max);
                    prop_assert_eq!(&page[..], &model[start..end], "cursor {}, max {}", cursor, max);
                    prop_assert!(page.iter().all(|a| a.items.capacity() == a.items.len()));
                }
            }
        }
    }
}
