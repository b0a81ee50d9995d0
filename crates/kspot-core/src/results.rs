//! What a session keeps of its answers: one flat log with a bounded tail.
//!
//! A session's answers are stored end to end — every answer's items in one `Vec`, its
//! epoch and the position its items end at in two more — and addressed by absolute
//! answer index, the index a [`crate::Session`] handle's cursor is.  The log copies an
//! answer's items in and lets go of the `Vec` the algorithm built, so an answer costs
//! its items plus one epoch and one offset (`16·len + 16` bytes) whatever capacity the
//! strategy's buffer had.  A read hands out exactly-sized [`TopKResult`]s, or lends
//! each answer's items to a sink without copying them ([`ResultLog::poll_with`], what
//! [`crate::Session::deliver`] encodes wire frames from; ADR-014).
//!
//! The log also knows the cursors of the session's live [`crate::Session`] handles, and
//! releases the answers every one of them has polled past, except for the newest
//! [`RETENTION_WINDOW`] (ADR-014, "Retention").  Its length stays the absolute answer
//! count; `base` is the absolute index of the first answer it still holds.  A session
//! with no live handle releases only what some poll consumed.

use kspot_algos::{RankedItem, TopKResult};
use kspot_net::{Epoch, RETENTION_WINDOW};

/// The answer log of one session: appended to every epoch, released from the front.
#[derive(Debug, Default)]
pub(crate) struct ResultLog {
    /// Absolute index of answer 0 of `epochs` and `ends`.
    start: usize,
    /// Absolute index of the first retained answer.  Answers `start..base` are
    /// released: no reader sees them, and the next compaction removes them.
    base: usize,
    /// `epochs[i]` is the epoch answer `start + i` refers to.
    epochs: Vec<Epoch>,
    /// `ends[i]` is where answer `start + i`'s items end in `items`; they start where
    /// the answer before it ends (at 0 for the first).  An empty answer repeats the
    /// offset.
    ends: Vec<usize>,
    /// The answers' items, oldest answer first, each best first.
    items: Vec<RankedItem>,
    /// The cursors of the session's live handles: a multiset, since handles at one
    /// cursor are interchangeable.
    cursors: Vec<usize>,
    /// How far the furthest [`Self::poll_with`] got, once a handle polled: every
    /// answer below it was handed out.
    consumed: Option<usize>,
}

impl ResultLog {
    /// Appends `answer`, keeping a copy of its items and dropping its buffer.
    pub(crate) fn push(&mut self, answer: TopKResult) {
        self.items.extend_from_slice(&answer.items);
        self.epochs.push(answer.epoch);
        self.ends.push(self.items.len());
        self.release();
    }

    /// How many answers the session produced, released ones included.
    pub(crate) fn len(&self) -> usize {
        self.start + self.ends.len()
    }

    /// The newest answer, if there is one (the newest answer is never released).
    pub(crate) fn latest(&self) -> Option<TopKResult> {
        let len = self.len();
        self.answers(len.saturating_sub(1), len).next().map(owned)
    }

    /// Every answer still held, oldest first.
    pub(crate) fn retained(&self) -> Vec<TopKResult> {
        self.answers(self.base, self.len()).map(owned).collect()
    }

    /// The retained answers with absolute indices `from..to`, oldest first, each as
    /// its epoch and its items, borrowed from the log.
    fn answers(&self, from: usize, to: usize) -> impl Iterator<Item = (Epoch, &[RankedItem])> {
        let (first, end) = (from - self.start, to - self.start);
        let mut begin = first.checked_sub(1).map_or(0, |before| self.ends[before]);
        self.epochs[first..end].iter().zip(&self.ends[first..end]).map(move |(&epoch, &until)| {
            let items = &self.items[begin..until];
            begin = until;
            (epoch, items)
        })
    }

    /// Registers a live handle at `cursor` and returns it.  A fresh handle passes the
    /// log's base: it starts at the first retained answer.
    pub(crate) fn attach(&mut self, cursor: usize) -> usize {
        let cursor = cursor.max(self.base);
        self.cursors.push(cursor);
        cursor
    }

    /// Unregisters a live handle that stood at `cursor`.
    pub(crate) fn detach(&mut self, cursor: usize) {
        if let Some(at) = self.cursors.iter().position(|&c| c == cursor) {
            self.cursors.swap_remove(at);
        }
        self.release();
    }

    /// Every answer from the live handle at `cursor` on, moving it past them: the
    /// unbounded [`Self::poll_with`] into a `Vec` of exactly-sized answers.
    pub(crate) fn poll(&mut self, cursor: &mut usize) -> Vec<TopKResult> {
        let mut answers = Vec::new();
        self.poll_with(cursor, usize::MAX, |epoch, items| {
            answers.push(owned((epoch, items)));
            true
        });
        answers
    }

    /// The one consuming read: hands `accept` the answers from the live handle at
    /// `cursor` on, oldest first, borrowed from the log, until it has taken `max` or
    /// refuses one (returning `false`), and moves the handle past the answers it
    /// accepted — never past the one it refused.  Returns how many it accepted.
    /// What a poll consumed only grows, and the log then releases what every consumer
    /// is done with.
    pub(crate) fn poll_with(
        &mut self,
        cursor: &mut usize,
        max: usize,
        mut accept: impl FnMut(Epoch, &[RankedItem]) -> bool,
    ) -> usize {
        let (from, len) = (*cursor, self.len());
        let to = from.saturating_add(max).min(len);
        let accepted = self.answers(from, to).take_while(|&(epoch, items)| accept(epoch, items)).count();
        let next = from + accepted;
        if let Some(live) = self.cursors.iter_mut().find(|c| **c == from) {
            *live = next;
        }
        *cursor = next;
        self.consumed = Some(self.consumed.map_or(next, |done| done.max(next)));
        self.release();
        accepted
    }

    /// True once no live handle is left and a poll consumed every answer — a log no
    /// handle ever polled is never drained, even if it holds no answer.
    pub(crate) fn drained(&self) -> bool {
        self.cursors.is_empty() && self.consumed == Some(self.len())
    }

    /// Moves `base` up to what every consumer is done with — the lowest live cursor,
    /// or with no live handle what a poll consumed — but never into the newest
    /// [`RETENTION_WINDOW`] answers.  The released answers are removed once they make
    /// up a quarter window, so each answer is moved at most four times on average and
    /// no read or poll pays for the whole window.
    fn release(&mut self) {
        let done = self.cursors.iter().copied().min().unwrap_or(self.consumed.unwrap_or(0));
        let keep_from = done.min(self.len().saturating_sub(RETENTION_WINDOW));
        if keep_from <= self.base {
            return;
        }
        self.base = keep_from;
        let gone = self.base - self.start;
        if gone >= RETENTION_WINDOW / 4 {
            let items_gone = self.ends[gone - 1];
            self.epochs.drain(..gone);
            self.ends.drain(..gone);
            self.items.drain(..items_gone);
            for end in &mut self.ends {
                *end -= items_gone;
            }
            self.start = self.base;
        }
    }
}

/// An answer lent by [`ResultLog::answers`], as an exactly-sized [`TopKResult`].
fn owned((epoch, items): (Epoch, &[RankedItem])) -> TopKResult {
    TopKResult { epoch, items: items.to_vec() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn answer(epoch: u64, pairs: &[(u64, f64)]) -> TopKResult {
        // An algorithm's buffer is as large as what it ranked, not as its answer.
        let mut items = Vec::with_capacity(196);
        items.extend(pairs.iter().map(|&(key, value)| RankedItem::new(key, value)));
        TopKResult { epoch, items }
    }

    proptest! {
        /// Without a consumer the log is a `Vec<TopKResult>` to every reader — every
        /// page, the newest answer, the count — and holds at most twice what the
        /// answers weigh.
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
                let answer = answer(epoch, &pairs);
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
            prop_assert_eq!(log.retained(), model.clone());
            for cursor in 0..=model.len() {
                for max in [0, 1, 2, 5, model.len(), usize::MAX] {
                    let end = cursor.saturating_add(max).min(model.len());
                    let mut handle = log.attach(cursor);
                    let mut lent = Vec::new();
                    let taken = log.poll_with(&mut handle, max, |epoch, items| {
                        lent.push(owned((epoch, items)));
                        true
                    });
                    prop_assert_eq!((taken, handle), (end - cursor, end));
                    prop_assert_eq!(&lent[..], &model[cursor..end], "cursor {}, max {}", cursor, max);
                    log.detach(handle);
                }
            }
            let mut handle = log.attach(0);
            let polled = log.poll(&mut handle);
            prop_assert_eq!(&polled, &model);
            prop_assert!(polled.iter().all(|a| a.items.capacity() == a.items.len()));
        }

    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Handles attach, poll and detach in any order against a model that keeps
        /// every answer: a poll hands out exactly the model's answers past its cursor;
        /// the log keeps every answer some live handle has not polled and, with no live
        /// handle, every answer no poll consumed; it releases everything else but the
        /// newest window, and holds under a quarter window of released answers.
        #[test]
        fn the_log_releases_exactly_what_every_consumer_passed(
            ops in prop::collection::vec((0u8..6, 0usize..4, 1usize..700), 1..24),
        ) {
            let mut log = ResultLog::default();
            let mut model: Vec<TopKResult> = Vec::new();
            let (mut handles, mut consumed, mut base) = (Vec::<usize>::new(), None, 0);
            for (op, pick, count) in ops {
                match op {
                    0 | 1 => {
                        for _ in 0..count {
                            let n = model.len() as u64;
                            let answer = answer(n, &[(n % 7, n as f64)][..(n % 2) as usize]);
                            model.push(answer.clone());
                            log.push(answer);
                        }
                    }
                    2 => {
                        let fresh = log.attach(0);
                        prop_assert_eq!(fresh, base, "a fresh handle starts at the base");
                        handles.push(fresh);
                    }
                    3 if !handles.is_empty() => {
                        let at = pick % handles.len();
                        let before = handles[at];
                        let polled = log.poll(&mut handles[at]);
                        prop_assert_eq!(&polled[..], &model[before..]);
                        consumed = Some(model.len());
                    }
                    4 if !handles.is_empty() => {
                        let cursor = handles.swap_remove(pick % handles.len());
                        log.detach(cursor);
                    }
                    _ => {
                        let clone = handles.get(pick % handles.len().max(1)).copied().unwrap_or(0);
                        handles.push(log.attach(clone));
                    }
                }
                let len = model.len();
                let floor = handles.iter().copied().min().unwrap_or(consumed.unwrap_or(0));
                base = base.max(floor.min(len.saturating_sub(RETENTION_WINDOW)));
                prop_assert_eq!(log.base, base);
                prop_assert!(base <= floor, "nothing a live handle or, with none, a poll has not consumed is released");
                prop_assert_eq!(log.retained(), model[base..].to_vec());
                prop_assert_eq!(log.latest().as_ref(), model.last());
                prop_assert_eq!(log.len(), len);
                prop_assert_eq!(log.drained(), handles.is_empty() && consumed == Some(len));
                prop_assert!(log.base - log.start < RETENTION_WINDOW / 4);
            }
        }

        /// Bounded polls whose sinks refuse at drawn points, among handles attaching,
        /// polling everything and detaching: a bounded poll lends its sink the model's
        /// answers from its cursor on and moves the cursor past exactly those the sink
        /// accepted, never the one it refused; nothing a live handle has not accepted
        /// is released, nor, with no live handle, anything no poll accepted; and the
        /// log is drained exactly when no handle is left and every answer was accepted.
        #[test]
        fn a_bounded_poll_moves_its_handle_past_exactly_what_its_sink_accepted(
            ops in prop::collection::vec((0u8..6, 0usize..4, 0usize..700, 0usize..700), 1..32),
        ) {
            let mut log = ResultLog::default();
            let mut model: Vec<TopKResult> = Vec::new();
            let (mut handles, mut consumed, mut base) = (Vec::<usize>::new(), None::<usize>, 0);
            for (op, pick, max, refuse_at) in ops {
                match op {
                    0 => {
                        for _ in 0..max {
                            let n = model.len() as u64;
                            let answer = answer(n, &[(n % 5, n as f64), (n % 3, 0.5)][..(n % 3) as usize]);
                            model.push(answer.clone());
                            log.push(answer);
                        }
                    }
                    1 => handles.push(log.attach(0)),
                    2 | 3 if !handles.is_empty() => {
                        let at = pick % handles.len();
                        let before = handles[at];
                        let mut lent = Vec::new();
                        let taken = log.poll_with(&mut handles[at], max, |epoch, items| {
                            if lent.len() == refuse_at {
                                return false;
                            }
                            lent.push(owned((epoch, items)));
                            true
                        });
                        let accepted = (model.len() - before).min(max).min(refuse_at);
                        prop_assert_eq!(taken, accepted);
                        prop_assert_eq!(&lent[..], &model[before..before + accepted]);
                        prop_assert_eq!(handles[at], before + accepted, "the cursor passes what was accepted only");
                        consumed = consumed.max(Some(before + accepted));
                    }
                    4 if !handles.is_empty() => {
                        let cursor = handles.swap_remove(pick % handles.len());
                        log.detach(cursor);
                    }
                    _ if !handles.is_empty() => {
                        let at = pick % handles.len();
                        let before = handles[at];
                        prop_assert_eq!(&log.poll(&mut handles[at])[..], &model[before..]);
                        consumed = Some(model.len());
                    }
                    _ => {}
                }
                let len = model.len();
                let floor = handles.iter().copied().min().unwrap_or(consumed.unwrap_or(0));
                base = base.max(floor.min(len.saturating_sub(RETENTION_WINDOW)));
                prop_assert_eq!(log.base, base);
                prop_assert!(base <= floor, "nothing a live handle or, with none, a poll has not accepted is released");
                prop_assert_eq!(log.retained(), model[base..].to_vec());
                prop_assert_eq!(log.drained(), handles.is_empty() && consumed == Some(len));
            }
        }
    }

    #[test]
    fn a_consumed_log_keeps_its_newest_window_and_a_fresh_handle_starts_at_its_base() {
        let mut log = ResultLog::default();
        let mut cursor = log.attach(0);
        for epoch in 0..3 * RETENTION_WINDOW as u64 {
            log.push(answer(epoch, &[(epoch, 1.0)]));
            assert_eq!(log.poll(&mut cursor).len(), 1);
            assert!(log.epochs.len() < RETENTION_WINDOW + RETENTION_WINDOW / 4);
        }
        assert_eq!(log.base, 2 * RETENTION_WINDOW);
        assert_eq!(log.retained().len(), RETENTION_WINDOW);
        assert_eq!(log.attach(0), log.base, "a fresh handle starts at the base");
        log.detach(cursor);
        assert!(!log.drained(), "the fresh handle is still live");
        log.detach(log.base);
        assert!(log.drained());
        assert!(!ResultLog::default().drained(), "a log nobody polled is not drained");
        // Without a live handle, what was consumed goes past the window and what
        // nobody consumed stays.
        for epoch in 0..2 * RETENTION_WINDOW as u64 {
            log.push(answer(epoch, &[]));
        }
        assert_eq!(log.base, 3 * RETENTION_WINDOW);
        assert_eq!(log.retained().len(), 2 * RETENTION_WINDOW);
        assert!(!log.drained());
    }
}
