//! A shared-memory vacillate-adopt-commit, built from two register-based
//! adopt-commits via the paper's §5 construction — and the shared-memory
//! reading of Algorithm 1 on top of it.
//!
//! This closes the matrix: both of the paper's templates run on both
//! substrates (message passing in `ooc-ben-or`/`ooc-phase-king`, shared
//! memory here).

use crate::adopt_commit::RegisterAc;
use ooc_core::confidence::{AcConfidence, Confidence, VacOutcome};
use ooc_simnet::SplitMix64;
use std::sync::{Arc, Mutex, PoisonError};

/// A single-use, n-process VAC in shared memory: `AC₁ ; AC₂` composed by
/// the §5 table (`commit` iff both commit, `adopt` iff AC₂ commits,
/// `vacillate` otherwise). Wait-free: four collects, four writes.
#[derive(Debug)]
pub struct RegisterVac<V> {
    first: RegisterAc<V>,
    second: RegisterAc<V>,
}

impl<V: Clone + PartialEq> RegisterVac<V> {
    /// A VAC for `n` processes.
    pub fn new(n: usize) -> Self {
        RegisterVac {
            first: RegisterAc::new(n),
            second: RegisterAc::new(n),
        }
    }

    /// Process `i` proposes `v`.
    ///
    /// # Panics
    /// Panics if `i ≥ n`.
    pub fn propose(&self, i: usize, v: V) -> VacOutcome<V> {
        let a = self.first.propose(i, v);
        let b = self.second.propose(i, a.value);
        let confidence = match (a.confidence, b.confidence) {
            (AcConfidence::Commit, AcConfidence::Commit) => Confidence::Commit,
            (_, AcConfidence::Commit) => Confidence::Adopt,
            _ => Confidence::Vacillate,
        };
        VacOutcome {
            confidence,
            value: b.value,
        }
    }
}

struct VacRound {
    vac: RegisterVac<u64>,
}

/// Shared-memory consensus via the paper's **Algorithm 1**: a VAC per
/// round, with the coin-flip reconciliator (vacillate → flip between the
/// current value and a rival seen in the announce phase is not needed —
/// binary values are assumed, exactly as in Ben-Or).
///
/// Values are restricted to `{0, 1}` so the coin-flip reconciliator is
/// valid (any flipped value is some process's possible input under
/// binary consensus).
pub struct VacConsensus {
    n: usize,
    /// Only ever grown by whole pushes, so a guard recovered from a lock
    /// poisoned by a panicking proposer still sees a valid table.
    rounds: Mutex<Vec<Arc<VacRound>>>,
    max_rounds: usize,
}

impl std::fmt::Debug for VacConsensus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let rounds = self.rounds.lock().unwrap_or_else(PoisonError::into_inner);
        f.debug_struct("VacConsensus")
            .field("n", &self.n)
            .field("rounds_created", &rounds.len())
            .finish()
    }
}

impl VacConsensus {
    /// A binary consensus object for `n` processes.
    pub fn new(n: usize) -> Self {
        VacConsensus {
            n,
            rounds: Mutex::new(Vec::new()),
            max_rounds: 10_000,
        }
    }

    fn round(&self, m: usize) -> Arc<VacRound> {
        let mut rounds = self.rounds.lock().unwrap_or_else(PoisonError::into_inner);
        while rounds.len() <= m {
            rounds.push(Arc::new(VacRound {
                vac: RegisterVac::new(self.n),
            }));
        }
        Arc::clone(&rounds[m])
    }

    /// Process `i` proposes bit `v`; returns the decided bit.
    ///
    /// # Panics
    /// Panics if `i ≥ n`, `v > 1`, or the 10 000-round safety valve
    /// trips.
    pub fn propose(&self, i: usize, v: u64, seed: u64) -> u64 {
        assert!(i < self.n, "process id {i} out of range (n = {})", self.n);
        assert!(v <= 1, "binary consensus: input must be 0 or 1");
        let mut rng = SplitMix64::new(seed);
        let mut v = v;
        for m in 0..self.max_rounds {
            let round = self.round(m);
            let outcome = round.vac.propose(i, v);
            match outcome.confidence {
                Confidence::Commit => return outcome.value,
                Confidence::Adopt => v = outcome.value,
                Confidence::Vacillate => v = rng.coin(),
            }
        }
        panic!(
            "shared-memory VAC consensus failed to converge in {} rounds",
            self.max_rounds
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ooc_core::checker::{RoundEntry, RoundOutcomes};
    use ooc_simnet::ProcessId;

    #[test]
    fn solo_propose_commits() {
        let vac = RegisterVac::new(3);
        assert_eq!(vac.propose(0, 7u64), VacOutcome::commit(7));
    }

    #[test]
    fn sequential_conflict_yields_adopt_of_first() {
        let vac = RegisterVac::new(2);
        assert_eq!(vac.propose(0, 1u64), VacOutcome::commit(1));
        let second = vac.propose(1, 2);
        assert_eq!(second.value, 1, "coherence with the earlier commit");
        assert!(second.confidence >= Confidence::Adopt);
    }

    #[test]
    fn concurrent_executions_satisfy_vac_laws() {
        for it in 0..300u64 {
            let n = 3 + (it as usize % 2);
            let inputs: Vec<u64> = (0..n as u64).map(|i| i % 2).collect();
            let vac = Arc::new(RegisterVac::new(n));
            let outs: Vec<VacOutcome<u64>> = std::thread::scope(|s| {
                inputs
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| {
                        let vac = Arc::clone(&vac);
                        s.spawn(move || vac.propose(i, v))
                    })
                    .collect::<Vec<_>>()
                    .into_iter()
                    .map(|h| h.join().unwrap())
                    .collect()
            });
            let round = RoundOutcomes {
                round: it,
                entries: outs
                    .iter()
                    .enumerate()
                    .map(|(i, o)| RoundEntry {
                        process: ProcessId(i),
                        input: inputs[i],
                        outcome: *o,
                    })
                    .collect(),
                extra_inputs: Vec::new(),
            };
            let v = round.check_vac();
            assert!(v.is_empty(), "execution {it}: {v:?} ({outs:?})");
        }
    }

    #[test]
    fn unanimous_threads_commit() {
        for _ in 0..100 {
            let vac = Arc::new(RegisterVac::new(4));
            let outs: Vec<VacOutcome<u64>> = std::thread::scope(|s| {
                (0..4)
                    .map(|i| {
                        let vac = Arc::clone(&vac);
                        s.spawn(move || vac.propose(i, 6))
                    })
                    .collect::<Vec<_>>()
                    .into_iter()
                    .map(|h| h.join().unwrap())
                    .collect()
            });
            for o in outs {
                assert_eq!(o, VacOutcome::commit(6), "convergence");
            }
        }
    }

    #[test]
    fn algorithm1_consensus_in_shared_memory() {
        for seed in 0..80 {
            let n = 2 + (seed as usize % 3);
            let inputs: Vec<u64> = (0..n as u64).map(|i| i % 2).collect();
            let c = Arc::new(VacConsensus::new(n));
            let outs: Vec<u64> = std::thread::scope(|s| {
                inputs
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| {
                        let c = Arc::clone(&c);
                        s.spawn(move || c.propose(i, v, seed * 131 + i as u64))
                    })
                    .collect::<Vec<_>>()
                    .into_iter()
                    .map(|h| h.join().unwrap())
                    .collect()
            });
            let first = outs[0];
            assert!(outs.iter().all(|&v| v == first), "agreement: {outs:?}");
            assert!(first <= 1, "validity (binary)");
            if inputs.iter().all(|&v| v == inputs[0]) {
                assert_eq!(first, inputs[0], "unanimity validity");
            }
        }
    }

    #[test]
    #[should_panic(expected = "binary consensus")]
    fn inputs_must_be_bits() {
        let c = VacConsensus::new(2);
        let _ = c.propose(0, 5, 0);
    }
}
