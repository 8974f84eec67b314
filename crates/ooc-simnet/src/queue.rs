//! The engine's event scheduler.
//!
//! The scheduler contract is a strict total order on events: pop by
//! ascending `(at, seq)`, where `seq` is the globally monotone counter
//! assigned at scheduling time. [`TimingWheel`] meets it with a bucketed
//! calendar queue keyed on tick: near-future events land in one of
//! [`WHEEL_SLOTS`] FIFO buckets (push and pop are O(1) plus a word-wise
//! occupancy-bitmap scan), far-future events wait in a sorted overflow
//! level that is migrated into the buckets as the cursor advances. The
//! tests below hold it to the reference model, a min-heap over
//! `(at, seq)`.
//!
//! ## Ordering invariants
//!
//! The wheel window is exactly `WHEEL_SLOTS` ticks wide, so a tick in
//! `[cursor, cursor + WHEEL_SLOTS)` maps *injectively* to a slot: one
//! bucket never mixes ticks. Same-tick FIFO order equals `seq` order
//! because (a) direct pushes happen in globally increasing `seq` order,
//! and (b) overflow entries for a tick are always older — scheduled
//! before that tick entered the window — so migrating them to the front
//! of the bucket *before* any later direct push keeps the bucket sorted.
//! That is why migration runs eagerly on **every** cursor advance: a
//! bucket append that happened before the overflow migration for the
//! same tick would break `seq` order.

use std::collections::{BTreeMap, VecDeque};

/// Number of buckets in the timing wheel (a power of two so the slot
/// index is a mask away from the tick).
pub(crate) const WHEEL_SLOTS: usize = 1024;

const SLOT_MASK: u64 = WHEEL_SLOTS as u64 - 1;
const BITMAP_WORDS: usize = WHEEL_SLOTS / 64;

/// A bucketed timing wheel over items ordered by `(at, seq)`.
///
/// `at` is an absolute tick; `seq` must be globally monotone across
/// pushes (the engine's scheduling counter). Pops return items in
/// strictly ascending `(at, seq)` order — byte-identical to what a
/// min-heap over `(at, seq)` would produce.
pub(crate) struct TimingWheel<T> {
    /// FIFO buckets; a bucket only ever holds events of a single tick
    /// (see the module docs for why the window makes this injective).
    slots: Vec<VecDeque<(u64, u64, T)>>,
    /// One bit per slot: set iff the slot is non-empty. Scanning 16
    /// words replaces the heap's `O(log n)` sift for finding the next
    /// event.
    occupied: [u64; BITMAP_WORDS],
    /// Far-future events (`at - cursor >= WHEEL_SLOTS`), keyed by
    /// `(at, seq)` — a flat sorted map, so a push is one node insert
    /// with no per-tick side allocation, and migration is a single
    /// `split_off` at the window boundary.
    overflow: BTreeMap<(u64, u64), T>,
    /// No unpopped event has a tick earlier than the cursor.
    cursor: u64,
    len: usize,
}

impl<T> TimingWheel<T> {
    pub(crate) fn new() -> Self {
        TimingWheel {
            slots: (0..WHEEL_SLOTS).map(|_| VecDeque::new()).collect(),
            occupied: [0; BITMAP_WORDS],
            overflow: BTreeMap::new(),
            cursor: 0,
            len: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Schedules `item` at tick `at` with scheduling sequence `seq`.
    ///
    /// `at` must not be earlier than the last popped tick (the engine
    /// never schedules into the past — the network's 1-tick causality
    /// floor guarantees it) and `seq` must exceed every previously
    /// pushed sequence.
    pub(crate) fn push(&mut self, at: u64, seq: u64, item: T) {
        debug_assert!(at >= self.cursor, "scheduled into the past: {at} < {}", self.cursor);
        // `at - cursor` (not `cursor + WHEEL_SLOTS`) so the window test
        // cannot overflow near `u64::MAX`.
        if at.wrapping_sub(self.cursor) < WHEEL_SLOTS as u64 {
            let slot = (at & SLOT_MASK) as usize;
            // Every entry of a bucket shares one tick, so the front
            // stands for all of them.
            debug_assert!(self.slots[slot].front().is_none_or(|&(t, _, _)| t == at));
            self.slots[slot].push_back((at, seq, item));
            self.occupied[slot / 64] |= 1 << (slot % 64);
        } else {
            self.overflow.insert((at, seq), item);
        }
        self.len += 1;
    }

    /// The tick of the earliest pending event, if any.
    pub(crate) fn next_time(&self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        match self.scan_window() {
            Some(at) => Some(at),
            None => self.overflow.keys().next().map(|&(at, _)| at),
        }
    }

    /// Pops the earliest event as `(at, seq, item)`.
    pub(crate) fn pop(&mut self) -> Option<(u64, u64, T)> {
        if self.len == 0 {
            return None;
        }
        let at = match self.scan_window() {
            Some(at) => at,
            None => {
                self.overflow
                    .keys()
                    .next()
                    .expect("len > 0 with empty window implies overflow entries")
                    .0
            }
        };
        if at > self.cursor {
            self.advance_to(at);
        }
        let slot = (at & SLOT_MASK) as usize;
        let (t, seq, item) = self.slots[slot]
            .pop_front()
            .expect("scanned slot must be non-empty");
        debug_assert_eq!(t, at);
        if self.slots[slot].is_empty() {
            self.occupied[slot / 64] &= !(1 << (slot % 64));
        }
        self.len -= 1;
        Some((t, seq, item))
    }

    /// Moves the cursor forward to `at` and eagerly migrates every
    /// overflow entry that just entered the window into its bucket.
    /// Eagerness is load-bearing for `seq` order — see the module docs.
    fn advance_to(&mut self, at: u64) {
        self.cursor = at;
        let in_window = match self.cursor.checked_add(WHEEL_SLOTS as u64) {
            // One cut at the window boundary: everything below it moves.
            Some(end) => {
                let rest = self.overflow.split_off(&(end, 0));
                std::mem::replace(&mut self.overflow, rest)
            }
            // The window reaches the end of time: everything moves.
            None => std::mem::take(&mut self.overflow),
        };
        // `(at, seq)` iteration order means each tick's entries arrive in
        // `seq` order, ahead of any later direct push for that tick; each
        // in-window tick maps to its own (empty — a resident tick with
        // the same residue would have to equal it) bucket.
        for ((tick, seq), item) in in_window {
            let slot = (tick & SLOT_MASK) as usize;
            debug_assert!(self.slots[slot].front().is_none_or(|&(t, _, _)| t == tick));
            self.slots[slot].push_back((tick, seq, item));
            self.occupied[slot / 64] |= 1 << (slot % 64);
        }
    }

    /// Scans the occupancy bitmap for the earliest non-empty bucket in
    /// the window, returning its tick. Walks word-wise from the cursor's
    /// slot, wrapping once around the wheel, and stops at the **first**
    /// set bit — slots in wrapped order are exactly ticks in ascending
    /// order, so no distance comparison is needed.
    fn scan_window(&self) -> Option<u64> {
        let start = (self.cursor & SLOT_MASK) as usize;
        let (start_word, start_bit) = (start / 64, start % 64);
        // One extra iteration re-visits the start word for the bits below
        // `start_bit` (ticks that wrapped past the end of the wheel).
        for i in 0..=BITMAP_WORDS {
            let w = (start_word + i) % BITMAP_WORDS;
            let mut word = self.occupied[w];
            if i == 0 {
                word &= !0u64 << start_bit;
            } else if i == BITMAP_WORDS {
                word &= (1u64 << start_bit) - 1;
            }
            if word != 0 {
                let slot = w * 64 + word.trailing_zeros() as usize;
                let dist = (slot + WHEEL_SLOTS - start) as u64 & SLOT_MASK;
                return Some(self.cursor + dist);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// Reference: a min-heap over `(at, seq)`.
    fn drain_both(pushes: &[(u64, u64)]) {
        let mut wheel = TimingWheel::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut popped: Vec<(u64, u64)> = Vec::new();
        for &(at, seq) in pushes {
            wheel.push(at, seq, ());
            heap.push(Reverse((at, seq)));
        }
        while let Some((at, seq, ())) = wheel.pop() {
            popped.push((at, seq));
        }
        let mut expected = Vec::new();
        while let Some(Reverse(p)) = heap.pop() {
            expected.push(p);
        }
        assert_eq!(popped, expected);
        assert_eq!(wheel.len(), 0);
    }

    #[test]
    fn empty_wheel_pops_nothing() {
        let mut w: TimingWheel<()> = TimingWheel::new();
        assert_eq!(w.len(), 0);
        assert_eq!(w.next_time(), None);
        assert!(w.pop().is_none());
    }

    #[test]
    fn same_tick_pops_in_seq_order() {
        drain_both(&[(5, 0), (5, 1), (5, 2), (5, 3)]);
    }

    #[test]
    fn window_and_overflow_interleave() {
        // Ticks both inside and far beyond the first window, pushed in
        // seq order but wild tick order.
        drain_both(&[
            (10, 0),
            (2_000_000, 1),
            (3, 2),
            (1_500, 3),
            (2_000_000, 4),
            (1_023, 5),
            (1_024, 6),
            (3, 7),
        ]);
    }

    #[test]
    fn overflow_migration_preserves_seq_before_later_direct_pushes() {
        // seq 0 goes to overflow (tick 5000 far from cursor 0). After
        // the wheel advances past 4000, tick 5000 is in-window; a later
        // direct push (seq 2) for the same tick must pop *after* it.
        let mut wheel = TimingWheel::new();
        wheel.push(5_000, 0, "overflow-early");
        wheel.push(4_500, 1, "advance-trigger");
        assert_eq!(wheel.pop().map(|(at, seq, _)| (at, seq)), Some((4_500, 1)));
        wheel.push(5_000, 2, "direct-late");
        assert_eq!(wheel.pop(), Some((5_000, 0, "overflow-early")));
        assert_eq!(wheel.pop(), Some((5_000, 2, "direct-late")));
        assert!(wheel.pop().is_none());
    }

    #[test]
    fn push_at_cursor_tick_is_allowed() {
        // Zero-delay self-sends can schedule at the tick being popped.
        let mut wheel = TimingWheel::new();
        wheel.push(7, 0, ());
        let (at, _, _) = wheel.pop().unwrap();
        assert_eq!(at, 7);
        wheel.push(7, 1, ());
        assert_eq!(wheel.pop().map(|(at, seq, _)| (at, seq)), Some((7, 1)));
    }

    #[test]
    fn next_time_matches_pop_and_does_not_consume() {
        let mut wheel = TimingWheel::new();
        wheel.push(90_000, 0, ());
        wheel.push(12, 1, ());
        assert_eq!(wheel.next_time(), Some(12));
        assert_eq!(wheel.next_time(), Some(12), "peek must not consume");
        assert_eq!(wheel.pop().map(|(at, _, _)| at), Some(12));
        assert_eq!(wheel.next_time(), Some(90_000));
    }

    #[test]
    fn ticks_near_u64_max_do_not_overflow_the_window_test() {
        let mut wheel = TimingWheel::new();
        wheel.push(1, 0, ());
        wheel.push(u64::MAX, 1, ());
        wheel.push(u64::MAX - 1, 2, ());
        assert_eq!(wheel.pop().map(|(at, seq, _)| (at, seq)), Some((1, 0)));
        assert_eq!(
            wheel.pop().map(|(at, seq, _)| (at, seq)),
            Some((u64::MAX - 1, 2))
        );
        assert_eq!(
            wheel.pop().map(|(at, seq, _)| (at, seq)),
            Some((u64::MAX, 1))
        );
        assert!(wheel.pop().is_none());
    }

    #[test]
    fn randomized_schedules_match_heap_order() {
        // Proptest-style: mixed near/far ticks, same-tick bursts, and
        // interleaved pop/push phases, across many seeds.
        for seed in 0..200u64 {
            let mut rng = SplitMix64::new(seed);
            let mut pushes = Vec::new();
            let mut now = 0u64;
            for seq in 0..300u64 {
                // Mostly near-future, sometimes deep overflow, often the
                // exact same tick as a previous push (burst).
                let at = match rng.below(10) {
                    0..=5 => now + rng.below(64),
                    6..=7 => now + rng.below(WHEEL_SLOTS as u64 * 3),
                    8 => now + WHEEL_SLOTS as u64 + rng.below(1 << 20),
                    _ => pushes
                        .last()
                        .map(|&(at, _)| at)
                        .unwrap_or(now)
                        .max(now),
                };
                pushes.push((at, seq));
                // Occasionally advance "now" to emulate popping progress.
                if rng.chance(0.1) {
                    now += rng.below(200);
                }
            }
            // Clamp: the engine never schedules into the past relative
            // to the pop cursor; emulate by sorting the "now" floor in.
            let mut wheel = TimingWheel::new();
            let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
            let mut floor = 0u64;
            let mut out_wheel = Vec::new();
            let mut out_heap = Vec::new();
            for (i, &(at, seq)) in pushes.iter().enumerate() {
                let at = at.max(floor);
                wheel.push(at, seq, ());
                heap.push(Reverse((at, seq)));
                // Interleave: pop a couple of events mid-stream.
                if i % 7 == 6 {
                    for _ in 0..2 {
                        let w = wheel.pop().map(|(at, seq, ())| (at, seq));
                        let h = heap.pop().map(|Reverse(p)| p);
                        assert_eq!(w, h, "seed {seed} diverged mid-stream");
                        if let Some((at, _)) = w {
                            floor = at;
                            out_wheel.push(w.unwrap());
                            out_heap.push(h.unwrap());
                        }
                    }
                }
            }
            while let Some((at, seq, ())) = wheel.pop() {
                out_wheel.push((at, seq));
            }
            while let Some(Reverse(p)) = heap.pop() {
                out_heap.push(p);
            }
            assert_eq!(out_wheel, out_heap, "seed {seed} diverged");
        }
    }
}
