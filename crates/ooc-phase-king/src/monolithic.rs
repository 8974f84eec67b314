//! The classic Phase-King formulation — the decomposition-overhead
//! baseline (experiment T7's synchronous column).
//!
//! Three network rounds per phase, `t + 1` phases, decision at the end —
//! exactly Berman-Garay-Perry. Unlike the decomposed version (which can
//! commit early through the adopt-commit object), the classic algorithm
//! always runs all `t + 1` phases; the difference in decision rounds is
//! part of what T2/T7 report.

use crate::ac::tally;
use crate::conciliator::king_of_phase;
use ooc_simnet::{ProcessId, SyncContext, SyncProcess};

/// Classic Phase-King over values `{0, 1}` with `t` Byzantine processors,
/// `3t < n`. Wire format: bare values (the synchronous engine's global
/// round number already disambiguates the exchanges).
#[derive(Debug, Clone)]
pub struct MonolithicPhaseKing {
    n: usize,
    t: usize,
    v: u64,
    /// Whether this processor's value is locked against the king
    /// (the `D(v) ≥ n − t` branch of the classic algorithm).
    sticky: bool,
}

impl MonolithicPhaseKing {
    /// Creates a processor with the given input.
    ///
    /// # Panics
    /// Panics unless `3t < n`.
    pub fn new(input: u64, n: usize, t: usize) -> Self {
        assert!(3 * t < n, "Phase-King requires 3t < n (got n={n}, t={t})");
        MonolithicPhaseKing {
            n,
            t,
            v: input,
            sticky: false,
        }
    }

    /// The processor's current value.
    pub fn value(&self) -> u64 {
        self.v
    }
}

impl SyncProcess for MonolithicPhaseKing {
    type Msg = u64;
    type Output = u64;

    fn on_round(
        &mut self,
        round: u64,
        inbox: &[(ProcessId, u64)],
        ctx: &mut SyncContext<'_, u64, u64>,
    ) {
        let phase = round / 3 + 1;
        match round % 3 {
            0 => {
                // Adopt the previous phase's king (whose broadcast sits in
                // this round's inbox) unless the value is locked.
                if phase > 1 && !self.sticky {
                    let prev_king = king_of_phase(phase - 1, self.n);
                    if let Some(&(_, w)) = inbox
                        .iter()
                        .find(|&&(from, value)| from == prev_king && value <= 1)
                    {
                        self.v = w;
                    }
                }
                // The protocol runs t + 1 full phases; the decision is
                // taken only after the last king's value has been
                // incorporated, i.e. at the head of phase t + 2.
                if phase == self.t as u64 + 2 {
                    ctx.decide(self.v.min(1));
                    ctx.halt();
                    return;
                }
                self.sticky = false;
                // Exchange 1 send.
                ctx.broadcast(self.v);
            }
            1 => {
                // Exchange 1 tally; exchange 2 send.
                let c = tally::<2>(inbox, self.n);
                self.v = 2;
                for (k, &count) in c.iter().enumerate() {
                    if count >= self.n - self.t {
                        self.v = k as u64;
                    }
                }
                ctx.broadcast(self.v);
            }
            _ => {
                // Exchange 2 tally; king broadcast; end-of-protocol check.
                let d = tally::<3>(inbox, self.n);
                for k in (0..=2u64).rev() {
                    if d[k as usize] > self.t {
                        self.v = k;
                    }
                }
                if self.v != 2 && d[self.v as usize] >= self.n - self.t {
                    self.sticky = true;
                } else if self.v == 2 {
                    self.v = 0; // classic default before hearing the king
                }
                if ctx.me() == king_of_phase(phase, self.n) {
                    ctx.broadcast(self.v.min(1));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ooc_simnet::{ByzantineNode, SyncSim, SyncStrategy};

    type Node = Box<dyn SyncProcess<Msg = u64, Output = u64>>;

    fn run(honest_inputs: &[u64], t: usize, attacks: Vec<SyncStrategy<u64>>, seed: u64) -> Vec<Option<u64>> {
        let n = honest_inputs.len() + attacks.len();
        let mut procs: Vec<Node> = Vec::new();
        for strat in attacks {
            procs.push(Box::new(ByzantineNode::<u64, u64>::new(strat)));
        }
        for &v in honest_inputs {
            procs.push(Box::new(MonolithicPhaseKing::new(v, n, t)));
        }
        let byz = n - honest_inputs.len();
        let mut sim = SyncSim::new(procs, seed);
        sim.track_only((byz..n).map(ProcessId));
        let out = sim.run(3 * (t as u64 + 2) + 3);
        out.decisions
    }

    #[test]
    fn no_byzantine_unanimous() {
        let d = run(&[1, 1, 1, 1], 1, vec![SyncStrategy::Silent], 1);
        for di in &d[1..5] {
            assert_eq!(*di, Some(1));
        }
    }

    #[test]
    fn equivocator_cannot_break_agreement() {
        for seed in 0..10 {
            let d = run(
                &[0, 1, 0, 1, 0, 1],
                2,
                vec![
                    SyncStrategy::Equivocate { low: 0, high: 1 },
                    SyncStrategy::RandomOf(vec![0, 1, 2]),
                ],
                seed,
            );
            let honest: Vec<u64> = (2..8).map(|i| d[i].expect("decided")).collect();
            assert!(honest.iter().all(|&v| v == honest[0]), "seed {seed}: {honest:?}");
            assert!(honest[0] <= 1);
        }
    }

    #[test]
    fn unanimity_survives_byzantine_lies() {
        for seed in 0..10 {
            let d = run(
                &[1, 1, 1, 1, 1, 1],
                2,
                vec![SyncStrategy::Fixed(0), SyncStrategy::Equivocate { low: 0, high: 1 }],
                seed,
            );
            for di in &d[2..8] {
                assert_eq!(*di, Some(1), "seed {seed}: validity under unanimity");
            }
        }
    }
}
