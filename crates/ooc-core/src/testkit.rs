//! Test utilities for driving protocol objects by hand.
//!
//! Unit tests of [`VacObject`](crate::VacObject) /
//! [`AcObject`](crate::AcObject) implementations usually want to feed an
//! object one message at a time and inspect what it sends — without
//! spinning up a whole simulator. [`LoopbackNet`] is the smallest
//! [`ObjectNet`] that supports that.
//!
//! Property tests draw their cases from a seeded [`SplitMix64`] through
//! [`cases`], so every failure names the seed and case that reproduce it.

use crate::objects::ObjectNet;
use ooc_simnet::{ProcessId, SimDuration, SimTime, SplitMix64, TimerId};
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};

/// Runs `property` on `count` accepted cases drawn from `seed`.
///
/// Case `i` gets its own stream, `SplitMix64::new(seed).derive(i)`, for
/// `i = 0, 1, …` until `count` cases have returned `true`. A case that
/// returns `false` is rejected: its precondition did not hold, and it
/// does not count. More than `count` rejections fail the property, so a
/// precondition that almost never holds cannot pass vacuously. A case
/// that panics (a failed `assert!`) fails the property with a message
/// naming its seed and index.
///
/// ```
/// ooc_core::testkit::cases(7, 32, |rng| {
///     let divisor = rng.below(1000);
///     if divisor == 0 {
///         return false; // precondition: a non-zero divisor
///     }
///     assert!(1000 % divisor < divisor);
///     true
/// });
/// ```
pub fn cases(seed: u64, count: usize, mut property: impl FnMut(&mut SplitMix64) -> bool) {
    let root = SplitMix64::new(seed);
    let (mut accepted, mut rejected) = (0, 0);
    for i in 0.. {
        if accepted == count {
            return;
        }
        let mut rng = root.derive(i);
        match panic::catch_unwind(AssertUnwindSafe(|| property(&mut rng))) {
            Ok(true) => accepted += 1,
            Ok(false) => {
                rejected += 1;
                assert!(
                    rejected <= count,
                    "property rejected {rejected} cases at seed {seed} \
                     after accepting {accepted} of {count}"
                );
            }
            Err(payload) => {
                let message = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("non-string panic payload");
                panic!("property failed at seed {seed}, case {i}: {message}");
            }
        }
    }
}

/// An in-memory [`ObjectNet`]: sends are queued in [`LoopbackNet::sent`]
/// and the test drains and redistributes them by hand.
///
/// ```
/// use ooc_core::testkit::LoopbackNet;
/// use ooc_core::objects::ObjectNet;
///
/// let mut net = LoopbackNet::<u32>::new(0, 3, 42);
/// net.broadcast(7);
/// assert_eq!(net.sent.len(), 3);
/// ```
#[derive(Debug)]
pub struct LoopbackNet<M> {
    /// The id this net reports as [`ObjectNet::me`].
    pub me: ProcessId,
    /// The network size this net reports as [`ObjectNet::n`].
    pub n: usize,
    /// The deterministic RNG handed to objects.
    pub rng: SplitMix64,
    /// Queued `(recipient, message)` pairs, in send order.
    pub sent: VecDeque<(ProcessId, M)>,
    /// Timers requested through [`ObjectNet::set_timer`], in order.
    pub timers: Vec<(TimerId, SimDuration)>,
}

impl<M> LoopbackNet<M> {
    /// Creates a net for processor `me` of `n`, with the given RNG seed.
    pub fn new(me: usize, n: usize, seed: u64) -> Self {
        LoopbackNet {
            me: ProcessId(me),
            n,
            rng: SplitMix64::new(seed),
            sent: VecDeque::new(),
            timers: Vec::new(),
        }
    }
}

impl<M: Clone> ObjectNet<M> for LoopbackNet<M> {
    fn me(&self) -> ProcessId {
        self.me
    }
    fn n(&self) -> usize {
        self.n
    }
    fn now(&self) -> SimTime {
        SimTime::ZERO
    }
    fn rng(&mut self) -> &mut SplitMix64 {
        &mut self.rng
    }
    fn send(&mut self, to: ProcessId, msg: M) {
        self.sent.push_back((to, msg));
    }
    fn broadcast(&mut self, msg: M) {
        for i in 0..self.n {
            self.sent.push_back((ProcessId(i), msg.clone()));
        }
    }
    fn set_timer(&mut self, after: SimDuration) -> TimerId {
        let id = TimerId(self.timers.len() as u64);
        self.timers.push((id, after));
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_runs_count_accepted_cases_and_skips_rejected_ones() {
        let (mut calls, mut accepted) = (0, 0);
        cases(1, 10, |_| {
            calls += 1;
            let accept = calls % 3 != 0;
            accepted += usize::from(accept);
            accept
        });
        assert_eq!(accepted, 10);
        assert_eq!(calls, 14, "every third call was rejected and skipped");
    }

    #[test]
    #[should_panic(expected = "property rejected 6 cases at seed 2")]
    fn cases_fails_after_more_than_count_rejections() {
        cases(2, 5, |_| false);
    }

    #[test]
    fn cases_draws_each_case_from_its_derived_stream() {
        let draws = |seed| {
            let mut out = Vec::new();
            cases(seed, 8, |rng| {
                out.push(rng.next_u64());
                true
            });
            out
        };
        let expected: Vec<u64> = (0..8)
            .map(|i| SplitMix64::new(3).derive(i).next_u64())
            .collect();
        assert_eq!(draws(3), expected);
        assert_ne!(draws(3), draws(4));
    }

    #[test]
    #[should_panic(expected = "property failed at seed 5, case 3: boom at 3")]
    fn cases_names_the_failing_case() {
        let mut i = 0;
        cases(5, 10, |_| {
            assert!(i != 3, "boom at {i}");
            i += 1;
            true
        });
    }

    #[test]
    fn send_and_broadcast_queue_in_order() {
        let mut net = LoopbackNet::<u8>::new(1, 2, 0);
        net.send(ProcessId(0), 1);
        net.broadcast(2);
        let all: Vec<_> = net.sent.iter().cloned().collect();
        assert_eq!(
            all,
            vec![(ProcessId(0), 1), (ProcessId(0), 2), (ProcessId(1), 2)]
        );
    }
}
