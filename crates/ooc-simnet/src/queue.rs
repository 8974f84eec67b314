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
//! ## Storage
//!
//! The buckets are singly linked lists threaded through **one** node
//! buffer, with per-slot `(head, tail)` indices. A node holds its tick,
//! the index of the next node and the item; it does not hold `seq`,
//! because a bucket's list order *is* `seq` order (below), and only the
//! overflow map, which sorts by it, keys on `(at, seq)`. A popped node
//! goes on a free list and the next push rewrites it in place, so node
//! storage grows with the peak number of pending events, not with
//! slots × bucket depth. A new wheel allocates nothing; the slot table
//! arrives with the first in-window push, and dropping the wheel frees
//! two buffers plus the overflow map.
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

use std::collections::BTreeMap;

/// Number of buckets in the timing wheel (a power of two so the slot
/// index is a mask away from the tick).
pub(crate) const WHEEL_SLOTS: usize = 1024;

const SLOT_MASK: u64 = WHEEL_SLOTS as u64 - 1;
const BITMAP_WORDS: usize = WHEEL_SLOTS / 64;

/// The end of a bucket list or of the free list.
const NIL: u32 = u32::MAX;

/// One in-window event, linked into its bucket (or, once popped, into
/// the free list).
struct Node<T> {
    /// The event's tick; every node of a bucket shares it, which the
    /// debug builds check.
    at: u64,
    next: u32,
    /// `None` exactly while the node is on the free list.
    item: Option<T>,
}

/// A bucketed timing wheel over items ordered by `(at, seq)`.
///
/// `at` is an absolute tick; `seq` must be globally monotone across
/// pushes (the engine's scheduling counter). Pops return items in
/// strictly ascending `(at, seq)` order — byte-identical to what a
/// min-heap over `(at, seq)` would produce — as `(at, item)`: the
/// engine never reads `seq` back.
pub(crate) struct TimingWheel<T> {
    /// Node storage: the nodes linked into buckets hold the in-window
    /// events, the rest are on the free list.
    nodes: Vec<Node<T>>,
    /// Head of the free list threaded through `nodes`.
    free: u32,
    /// Per-slot `[head, tail]` node indices of a FIFO bucket; a bucket
    /// only ever holds events of a single tick (see the module docs for
    /// why the window makes this injective). An entry is meaningful only
    /// while the slot's occupancy bit is set. Empty until the first
    /// in-window push.
    slots: Vec<[u32; 2]>,
    /// One bit per slot: set iff the slot is non-empty. Scanning 16
    /// words replaces the heap's `O(log n)` sift for finding the next
    /// event.
    occupied: [u64; BITMAP_WORDS],
    /// Far-future events (`at - cursor >= WHEEL_SLOTS`), keyed by
    /// `(at, seq)` — a flat sorted map, so a push is one node insert
    /// with no per-tick side allocation, and migration removes entries
    /// from its front one by one, only those that enter the window.
    overflow: BTreeMap<(u64, u64), T>,
    /// No unpopped event has a tick earlier than the cursor.
    cursor: u64,
    len: usize,
}

impl<T> TimingWheel<T> {
    pub(crate) fn new() -> Self {
        TimingWheel {
            nodes: Vec::new(),
            free: NIL,
            slots: Vec::new(),
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
            self.append(at, item);
        } else {
            self.overflow.insert((at, seq), item);
        }
        self.len += 1;
    }

    /// Pops the earliest event as `(at, item)` if its tick is at most
    /// `limit`, with one scan for it. An event past `limit` stays queued
    /// and the wheel is left as it was, cursor included, so a later push
    /// at any tick from the cursor on is still in order. `None` means
    /// the wheel is empty or its earliest event lies past `limit`; `len`
    /// tells the two apart.
    pub(crate) fn pop_until(&mut self, limit: u64) -> Option<(u64, T)> {
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
        if at > limit {
            return None;
        }
        if at > self.cursor {
            self.advance_to(at);
        }
        let slot = (at & SLOT_MASK) as usize;
        let [head, tail] = self.slots[slot];
        let node = &mut self.nodes[head as usize];
        debug_assert_eq!(node.at, at);
        let next = node.next;
        let item = node.item.take().expect("a linked node holds its item");
        node.next = self.free;
        self.free = head;
        if head == tail {
            self.occupied[slot / 64] &= !(1 << (slot % 64));
        } else {
            self.slots[slot][0] = next;
        }
        self.len -= 1;
        Some((at, item))
    }

    /// Appends an in-window event to the back of its tick's bucket,
    /// rewriting a free node in place when there is one.
    fn append(&mut self, at: u64, item: T) {
        let index = if self.free == NIL {
            let index = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&i| i != NIL)
                .expect("timing wheel holds fewer than u32::MAX events");
            self.nodes.push(Node {
                at,
                next: NIL,
                item: Some(item),
            });
            index
        } else {
            let index = self.free;
            let node = &mut self.nodes[index as usize];
            self.free = node.next;
            node.at = at;
            node.next = NIL;
            node.item = Some(item);
            index
        };
        if self.slots.is_empty() {
            self.slots = vec![[NIL; 2]; WHEEL_SLOTS];
        }
        let slot = (at & SLOT_MASK) as usize;
        let bit = 1 << (slot % 64);
        if self.occupied[slot / 64] & bit == 0 {
            self.slots[slot] = [index, index];
            self.occupied[slot / 64] |= bit;
        } else {
            let [head, tail] = self.slots[slot];
            // Every entry of a bucket shares one tick, so the front
            // stands for all of them.
            debug_assert_eq!(self.nodes[head as usize].at, at);
            self.nodes[tail as usize].next = index;
            self.slots[slot][1] = index;
        }
    }

    /// Moves the cursor forward to `at` and eagerly migrates every
    /// overflow entry that just entered the window into its bucket.
    /// Eagerness is load-bearing for `seq` order — see the module docs.
    fn advance_to(&mut self, at: u64) {
        self.cursor = at;
        // Entries leave from the front in `(at, seq)` order, so each
        // tick's entries arrive in `seq` order, ahead of any later direct
        // push for that tick; each in-window tick maps to its own (empty —
        // a resident tick with the same residue would have to equal it)
        // bucket. The first entry still past the window ends the walk and
        // stays where it is, with everything behind it. No overflow entry
        // is earlier than the cursor, so `tick - cursor` cannot wrap.
        while let Some(entry) = self.overflow.first_entry() {
            let tick = entry.key().0;
            if tick - self.cursor >= WHEEL_SLOTS as u64 {
                break;
            }
            let (_, item) = entry.remove_entry();
            self.append(tick, item);
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

    /// Pops the earliest event with no time bound.
    fn pop<T>(wheel: &mut TimingWheel<T>) -> Option<(u64, T)> {
        wheel.pop_until(u64::MAX)
    }

    /// Reference: a min-heap over `(at, seq)`. Each item is its own
    /// `seq`, since nodes do not store it.
    fn drain_both(pushes: &[(u64, u64)]) {
        let mut wheel = TimingWheel::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut popped: Vec<(u64, u64)> = Vec::new();
        for &(at, seq) in pushes {
            wheel.push(at, seq, seq);
            heap.push(Reverse((at, seq)));
        }
        while let Some(p) = pop(&mut wheel) {
            popped.push(p);
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
        assert!(w.pop_until(0).is_none());
        assert!(pop(&mut w).is_none());
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
        assert_eq!(pop(&mut wheel), Some((4_500, "advance-trigger")));
        wheel.push(5_000, 2, "direct-late");
        assert_eq!(pop(&mut wheel), Some((5_000, "overflow-early")));
        assert_eq!(pop(&mut wheel), Some((5_000, "direct-late")));
        assert!(pop(&mut wheel).is_none());
    }

    #[test]
    fn a_standing_far_entry_is_left_alone_while_the_window_drains() {
        // A far-future entry (a scheduled restart, say) must not be
        // rebuilt or moved by the cursor advances of thousands of
        // in-window events: its slot in the overflow map stays where it
        // is until it enters the window.
        let far = 1_000_000u64;
        let mut wheel = TimingWheel::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        wheel.push(far, 0, 0);
        heap.push(Reverse((far, 0)));
        let standing: *const u64 = wheel.overflow.values().next().expect("far entry queued");
        let mut rng = SplitMix64::new(7);
        let (mut now, mut advances) = (0u64, 0u64);
        for seq in 1..20_000u64 {
            if rng.chance(0.5) {
                let at = now + rng.below(WHEEL_SLOTS as u64);
                wheel.push(at, seq, seq);
                heap.push(Reverse((at, seq)));
            } else if wheel.len() > 1 {
                let popped = pop(&mut wheel);
                assert_eq!(popped, heap.pop().map(|Reverse(p)| p), "seq {seq}");
                let (at, _) = popped.expect("an in-window event is queued");
                advances += u64::from(at > now);
                now = at;
            }
            assert!(now + (WHEEL_SLOTS as u64) < far, "the window must stay short of the far entry");
            assert_eq!(wheel.overflow.len(), 1, "seq {seq}");
            assert!(
                std::ptr::eq(wheel.overflow.values().next().expect("still queued"), standing),
                "seq {seq}: the standing entry was moved"
            );
        }
        assert!(advances > 1_000, "only {advances} cursor advances");
        while let Some(w) = pop(&mut wheel) {
            assert_eq!(Some(w), heap.pop().map(|Reverse(p)| p));
        }
        assert!(heap.is_empty());
    }

    #[test]
    fn the_last_window_tick_migrates_and_the_next_one_stays() {
        let mut wheel = TimingWheel::new();
        let cursor = 10;
        // Both land in overflow: from cursor 0 they are past the window.
        wheel.push(cursor + WHEEL_SLOTS as u64 - 1, 0, "last in window");
        wheel.push(cursor + WHEEL_SLOTS as u64, 1, "first past it");
        wheel.push(cursor, 2, "advance");
        assert_eq!(wheel.overflow.len(), 2);
        assert_eq!(pop(&mut wheel), Some((cursor, "advance")));
        assert_eq!(wheel.cursor, cursor);
        let left: Vec<_> = wheel.overflow.keys().copied().collect();
        assert_eq!(left, [(cursor + WHEEL_SLOTS as u64, 1)]);
        assert_eq!(
            pop(&mut wheel),
            Some((cursor + WHEEL_SLOTS as u64 - 1, "last in window"))
        );
        assert!(wheel.overflow.is_empty());
        assert_eq!(pop(&mut wheel), Some((cursor + WHEEL_SLOTS as u64, "first past it")));
        assert!(pop(&mut wheel).is_none());
    }

    #[test]
    fn overflow_shrinks_only_by_the_entries_that_enter_the_window() {
        // A model of the overflow level: an entry joins it when pushed at
        // least a window past the cursor and leaves it exactly when a
        // cursor advance brings it within the window.
        for seed in 0..20u64 {
            let mut rng = SplitMix64::new(seed);
            let mut wheel = TimingWheel::new();
            let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
            let mut model: std::collections::BTreeSet<(u64, u64)> = Default::default();
            let mut migrations = 0usize;
            let mut now = 0u64;
            for seq in 0..5_000u64 {
                if rng.chance(0.55) {
                    let at = match rng.below(4) {
                        0 => now + rng.below(64),
                        1 => now + WHEEL_SLOTS as u64 - 2 + rng.below(4),
                        _ => now + rng.below(WHEEL_SLOTS as u64 * 4),
                    };
                    wheel.push(at, seq, seq);
                    heap.push(Reverse((at, seq)));
                    if at - wheel.cursor >= WHEEL_SLOTS as u64 {
                        model.insert((at, seq));
                    }
                } else if let Some((at, item)) = pop(&mut wheel) {
                    assert_eq!(Some((at, item)), heap.pop().map(|Reverse(p)| p), "seed {seed}");
                    now = at;
                    let entered: Vec<_> = model
                        .iter()
                        .copied()
                        .take_while(|&(tick, _)| tick - at < WHEEL_SLOTS as u64)
                        .collect();
                    migrations += entered.len();
                    for key in entered {
                        model.remove(&key);
                    }
                }
                assert!(
                    wheel.overflow.keys().copied().eq(model.iter().copied()),
                    "seed {seed} seq {seq}: overflow holds {} entries, the model {}",
                    wheel.overflow.len(),
                    model.len()
                );
            }
            assert!(migrations > 100, "seed {seed}: only {migrations} migrations");
        }
    }

    #[test]
    fn push_at_cursor_tick_is_allowed() {
        // Zero-delay self-sends can schedule at the tick being popped.
        let mut wheel = TimingWheel::new();
        wheel.push(7, 0, 0);
        assert_eq!(pop(&mut wheel), Some((7, 0)));
        wheel.push(7, 1, 1);
        assert_eq!(pop(&mut wheel), Some((7, 1)));
    }

    #[test]
    fn events_past_the_limit_stay_queued_and_the_cursor_stays() {
        for (held, label) in [(600u64, "window"), (90_000, "overflow")] {
            let mut wheel = TimingWheel::new();
            wheel.push(5, 0, 0);
            assert_eq!(wheel.pop_until(5), Some((5, 0)), "{label}");
            wheel.push(held, 1, 1);
            let overflow = wheel.overflow.len();
            assert_eq!(wheel.pop_until(held - 1), None, "{label}");
            assert_eq!(
                wheel.pop_until(held - 1),
                None,
                "{label}: a refusal consumes nothing"
            );
            assert_eq!(wheel.len(), 1, "{label}");
            assert_eq!(
                wheel.cursor, 5,
                "{label}: a held event must not move the cursor"
            );
            assert_eq!(wheel.overflow.len(), overflow, "{label}: nothing migrates");
            // The cursor stayed at 5, so an earlier in-window tick is
            // still schedulable, and it pops first.
            wheel.push(40, 2, 2);
            assert_eq!(wheel.pop_until(held - 1), Some((40, 2)), "{label}");
            assert_eq!(wheel.pop_until(held - 1), None, "{label}");
            // Raising the limit releases the held event.
            assert_eq!(wheel.pop_until(held), Some((held, 1)), "{label}");
            assert_eq!(wheel.len(), 0, "{label}");
            assert!(pop(&mut wheel).is_none(), "{label}");
        }
    }

    #[test]
    fn ticks_near_u64_max_do_not_overflow_the_window_test() {
        let mut wheel = TimingWheel::new();
        wheel.push(1, 0, 0);
        wheel.push(u64::MAX, 1, 1);
        wheel.push(u64::MAX - 1, 2, 2);
        assert_eq!(pop(&mut wheel), Some((1, 0)));
        assert_eq!(wheel.pop_until(u64::MAX - 2), None);
        assert_eq!(pop(&mut wheel), Some((u64::MAX - 1, 2)));
        assert_eq!(pop(&mut wheel), Some((u64::MAX, 1)));
        assert!(pop(&mut wheel).is_none());
    }

    #[test]
    fn node_storage_stays_within_peak_pending_events() {
        let fresh: TimingWheel<u64> = TimingWheel::new();
        assert_eq!(fresh.nodes.capacity(), 0, "a new wheel holds no node storage");
        assert_eq!(fresh.slots.capacity(), 0, "the slot table arrives with the first push");
        for seed in 0..20u64 {
            let mut rng = SplitMix64::new(seed);
            let mut wheel = TimingWheel::new();
            let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
            let (mut now, mut peak, mut migrated) = (0u64, 0usize, false);
            for seq in 0..20_000u64 {
                // Alternate filling and draining phases so freed nodes
                // must be reused for the bound to hold.
                let push_chance = if (seq / 1_000) % 2 == 0 { 0.7 } else { 0.3 };
                if rng.chance(push_chance) {
                    let at = match rng.below(10) {
                        0..=6 => now + rng.below(64),
                        7..=8 => now + rng.below(WHEEL_SLOTS as u64 * 3),
                        _ => now + WHEEL_SLOTS as u64 + rng.below(1 << 16),
                    };
                    // The item is the seq, so a reused node that kept a
                    // stale item would show up as a mismatch.
                    wheel.push(at, seq, seq);
                    heap.push(Reverse((at, seq)));
                    peak = peak.max(wheel.len());
                } else {
                    let overflow_before = wheel.overflow.len();
                    let w = pop(&mut wheel);
                    assert_eq!(w, heap.pop().map(|Reverse(p)| p), "seed {seed} diverged");
                    if let Some((at, _)) = w {
                        now = at;
                    }
                    // Only a cursor advance shrinks the overflow map.
                    migrated |= wheel.overflow.len() < overflow_before;
                }
                assert!(
                    wheel.nodes.len() <= peak,
                    "seed {seed}: {} nodes for a peak of {peak} pending events",
                    wheel.nodes.len()
                );
            }
            while let Some(w) = pop(&mut wheel) {
                assert_eq!(Some(w), heap.pop().map(|Reverse(p)| p), "seed {seed}");
            }
            assert!(heap.is_empty());
            assert!(wheel.nodes.len() <= peak);
            assert!(now > 20 * WHEEL_SLOTS as u64, "seed {seed}: the run must wrap the slots");
            assert!(migrated, "seed {seed}: the run must migrate overflow");
        }
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
                wheel.push(at, seq, seq);
                heap.push(Reverse((at, seq)));
                // Interleave: pop a couple of events mid-stream.
                if i % 7 == 6 {
                    for _ in 0..2 {
                        let w = pop(&mut wheel);
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
            while let Some(w) = pop(&mut wheel) {
                out_wheel.push(w);
            }
            while let Some(Reverse(p)) = heap.pop() {
                out_heap.push(p);
            }
            assert_eq!(out_wheel, out_heap, "seed {seed} diverged");
        }
    }
}
