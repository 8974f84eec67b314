//! Shared-memory consensus: the paper's Algorithm 2 loop over
//! [`RegisterAc`] and [`ProbWriteConciliator`].
//!
//! ```text
//! Consensus(v):
//!   m ← 0
//!   loop:
//!     m ← m + 1
//!     (X, σ) ← AC_m(v)
//!     match X:
//!       adopt  → v ← Conciliator_m(X, σ, m)
//!       commit → decide σ
//! ```
//!
//! Round objects are created lazily and shared by all threads; each
//! invocation of round `m` uses the *same* AC/conciliator instances, as
//! the framework requires.

use crate::adopt_commit::RegisterAc;
use crate::conciliator::ProbWriteConciliator;
use ooc_simnet::SplitMix64;
use std::sync::{Arc, Mutex, PoisonError};

struct Round {
    ac: RegisterAc<u64>,
    conciliator: ProbWriteConciliator<u64>,
}

/// An n-process shared-memory consensus object over `u64` values.
///
/// Thread-safe: call [`SharedConsensus::propose`] once per process id
/// from any thread. See the [crate docs](crate) for an example.
pub struct SharedConsensus {
    n: usize,
    /// Only ever grown by whole pushes, so a guard recovered from a lock
    /// poisoned by a panicking proposer still sees a valid table.
    rounds: Mutex<Vec<Arc<Round>>>,
    max_rounds: usize,
}

impl std::fmt::Debug for SharedConsensus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let rounds = self.rounds.lock().unwrap_or_else(PoisonError::into_inner);
        f.debug_struct("SharedConsensus")
            .field("n", &self.n)
            .field("rounds_created", &rounds.len())
            .finish()
    }
}

impl SharedConsensus {
    /// A consensus object for `n` processes.
    pub fn new(n: usize) -> Self {
        SharedConsensus {
            n,
            rounds: Mutex::new(Vec::new()),
            max_rounds: 10_000,
        }
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    fn round(&self, m: usize) -> Arc<Round> {
        let mut rounds = self.rounds.lock().unwrap_or_else(PoisonError::into_inner);
        while rounds.len() <= m {
            rounds.push(Arc::new(Round {
                ac: RegisterAc::new(self.n),
                conciliator: ProbWriteConciliator::new(self.n),
            }));
        }
        Arc::clone(&rounds[m])
    }

    /// Process `i` proposes `v` with a caller-supplied RNG seed; returns
    /// the decided value.
    ///
    /// # Panics
    /// Panics if `i ≥ n`, or if the round safety valve (10 000) trips —
    /// which would indicate a broken conciliator, since each round agrees
    /// with probability bounded away from zero.
    pub fn propose(&self, i: usize, v: u64, seed: u64) -> u64 {
        assert!(i < self.n, "process id {i} out of range (n = {})", self.n);
        let mut rng = SplitMix64::new(seed);
        let mut v = v;
        for m in 0..self.max_rounds {
            let round = self.round(m);
            let outcome = round.ac.propose(i, v);
            if outcome.is_commit() {
                return outcome.value;
            }
            v = round.conciliator.propose(outcome.value, &mut rng);
        }
        panic!("shared-memory consensus failed to converge in {} rounds", self.max_rounds);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(n: usize, inputs: &[u64], seed: u64) -> Vec<u64> {
        let c = Arc::new(SharedConsensus::new(n));
        std::thread::scope(|s| {
            inputs
                .iter()
                .enumerate()
                .map(|(i, &v)| {
                    let c = Arc::clone(&c);
                    s.spawn(move || c.propose(i, v, seed * 7919 + i as u64))
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        })
    }

    #[test]
    fn agreement_and_validity_across_many_executions() {
        for seed in 0..100 {
            let inputs = [1u64, 2, 3, 4];
            let outs = run(4, &inputs, seed);
            let first = outs[0];
            assert!(outs.iter().all(|&v| v == first), "agreement: {outs:?}");
            assert!(inputs.contains(&first), "validity: {first}");
        }
    }

    #[test]
    fn unanimous_inputs_decide_that_value() {
        for seed in 0..50 {
            let outs = run(3, &[9, 9, 9], seed);
            assert_eq!(outs, vec![9, 9, 9]);
        }
    }

    #[test]
    fn two_processes_binary() {
        for seed in 0..100 {
            let outs = run(2, &[0, 1], seed);
            assert_eq!(outs[0], outs[1], "agreement");
            assert!(outs[0] <= 1, "validity");
        }
    }

    #[test]
    fn single_process_decides_immediately() {
        let outs = run(1, &[5], 3);
        assert_eq!(outs, vec![5]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn id_bounds_are_checked() {
        let c = SharedConsensus::new(2);
        let _ = c.propose(2, 0, 0);
    }
}
