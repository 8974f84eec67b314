//! Phase-**Queen** — the sister algorithm from the same Berman-Garay-
//! Perry paper the announcement cites as \[4\] — decomposed into the same
//! AC + conciliator shape.
//!
//! Phase-Queen trades resilience for speed: phases are **two** rounds
//! instead of three, at the cost of tolerating only `4t < n` (vs
//! Phase-King's optimal `3t < n`). Its decomposition:
//!
//! * **AC** ([`PhaseQueenAc`], 2 steps): broadcast `v`; let `maj` be the
//!   majority value received with count `cnt`; return
//!   `(commit, maj)` if `cnt > n/2 + t`, else `(adopt, maj)`.
//!   *Coherence*: `cnt > n/2 + t` at one processor means more than `n/2`
//!   *honest* processors sent `maj`, so every processor's majority value
//!   is `maj`. *Convergence*: honest unanimity gives counts `≥ n − t >
//!   n/2 + t` (this is where `4t < n` bites).
//! * **Conciliator** ([`QueenConciliator`], 2 steps): the phase's queen
//!   broadcasts its value; adopters take it.
//!
//! Exactly like Phase-King, the paper-style decide-at-commit rule is
//! Byzantine-unsound here, so [`phase_queen_process`] defaults to the
//! classical decide-after-`t + 1`-phases rule.

use crate::ac::tally;
use ooc_core::confidence::AcOutcome;
use ooc_core::sync_objects::{SyncObjCtx, SyncObject};
use ooc_core::{SyncAcConsensus, SyncDecisionRule};
use ooc_simnet::ProcessId;

/// The queen of phase `m` (1-based), rotating round-robin.
pub fn queen_of_phase(phase: u64, n: usize) -> ProcessId {
    ProcessId(((phase - 1) % n as u64) as usize)
}

/// One phase's adopt-commit: a single universal exchange with the
/// `n/2 + t` threshold.
#[derive(Debug, Clone)]
pub struct PhaseQueenAc {
    n: usize,
    t: usize,
}

impl PhaseQueenAc {
    /// Creates the object for `n` processors, `t` Byzantine.
    ///
    /// # Panics
    /// Panics unless `4t < n`.
    pub fn new(n: usize, t: usize) -> Self {
        assert!(4 * t < n, "Phase-Queen requires 4t < n (got n={n}, t={t})");
        PhaseQueenAc { n, t }
    }
}

impl SyncObject for PhaseQueenAc {
    type Value = u64;
    type Msg = u64;
    type Outcome = AcOutcome<u64>;

    fn steps(&self) -> u64 {
        2
    }

    fn step(
        &mut self,
        k: u64,
        input: &u64,
        inbox: &[(ProcessId, u64)],
        ctx: &mut SyncObjCtx<'_, u64>,
    ) -> Option<AcOutcome<u64>> {
        match k {
            0 => {
                ctx.broadcast((*input).min(1));
                None
            }
            1 => {
                let counts = tally::<2>(inbox, self.n);
                let maj = u64::from(counts[1] >= counts[0]);
                let cnt = counts[maj as usize];
                Some(if 2 * cnt > self.n + 2 * self.t {
                    // cnt > n/2 + t without integer-division pitfalls.
                    AcOutcome::commit(maj)
                } else {
                    AcOutcome::adopt(maj)
                })
            }
            // ooc-lint::allow(protocol/panic, "SyncObject::STEPS pins PhaseQueenAc to exactly 2 steps")
            _ => unreachable!("PhaseQueenAc has exactly 2 steps"),
        }
    }
}

/// One phase's conciliator: the queen broadcasts, adopters take her value.
#[derive(Debug, Clone)]
pub struct QueenConciliator {
    queen: ProcessId,
}

impl QueenConciliator {
    /// Creates the conciliator for phase `phase` of an `n`-processor
    /// network.
    pub fn new(n: usize, phase: u64) -> Self {
        QueenConciliator {
            queen: queen_of_phase(phase, n),
        }
    }

    /// The queen this instance listens to.
    pub fn queen(&self) -> ProcessId {
        self.queen
    }
}

impl SyncObject for QueenConciliator {
    type Value = u64;
    type Msg = u64;
    type Outcome = u64;

    fn steps(&self) -> u64 {
        2
    }

    fn step(
        &mut self,
        k: u64,
        input: &u64,
        inbox: &[(ProcessId, u64)],
        ctx: &mut SyncObjCtx<'_, u64>,
    ) -> Option<u64> {
        match k {
            0 => {
                if ctx.me() == self.queen {
                    ctx.broadcast((*input).min(1));
                }
                None
            }
            1 => Some(
                inbox
                    .iter()
                    .find(|&&(from, value)| from == self.queen && value <= 1)
                    .map(|&(_, value)| value)
                    .unwrap_or_else(|| (*input).min(1)),
            ),
            // ooc-lint::allow(protocol/panic, "SyncObject::STEPS pins QueenConciliator to exactly 2 steps")
            _ => unreachable!("QueenConciliator has exactly 2 steps"),
        }
    }
}

/// The decomposed Phase-Queen process.
pub type PhaseQueenProcess = SyncAcConsensus<PhaseQueenAc, QueenConciliator>;

/// Builds a decomposed Phase-Queen processor with the classical
/// decide-after-`t + 1`-phases rule.
///
/// # Panics
/// Panics unless `4t < n`.
pub fn phase_queen_process(input: u64, n: usize, t: usize, max_phases: u64) -> PhaseQueenProcess {
    assert!(4 * t < n, "Phase-Queen requires 4t < n (got n={n}, t={t})");
    SyncAcConsensus::new(
        input,
        move |_phase| PhaseQueenAc::new(n, t),
        move |phase| QueenConciliator::new(n, phase),
        max_phases,
    )
    .with_decision_rule(SyncDecisionRule::AtPhaseEnd(t as u64 + 1))
}


/// A node of the mixed Phase-Queen network.
#[derive(Debug)]
enum QueenNode {
    Honest(PhaseQueenProcess),
    Byzantine(crate::ByzantinePhaseKing),
}

impl ooc_simnet::SyncProcess for QueenNode {
    type Msg = crate::PhaseKingWire;
    type Output = u64;

    fn on_round(
        &mut self,
        round: u64,
        inbox: &[(ProcessId, crate::PhaseKingWire)],
        ctx: &mut ooc_simnet::SyncContext<'_, crate::PhaseKingWire, u64>,
    ) {
        match self {
            QueenNode::Honest(p) => p.on_round(round, inbox, ctx),
            QueenNode::Byzantine(b) => b.on_round(round, inbox, ctx),
        }
    }
}

/// Everything measured from one Phase-Queen execution.
#[derive(Debug)]
pub struct PhaseQueenRun {
    /// Per-process decisions (Byzantine slots `None`).
    pub decisions: Vec<Option<u64>>,
    /// Network rounds executed.
    pub rounds: u64,
    /// Messages sent (including Byzantine traffic).
    pub messages: u64,
    /// Property violations (must be empty).
    pub violations: Vec<ooc_core::checker::Violation>,
    /// The honest ids.
    pub honest: Vec<ProcessId>,
}

/// Runs decomposed Phase-Queen: Byzantine nodes (with `attack`) on ids
/// `0..t`, honest nodes with `honest_inputs` on ids `t..n`. Checks
/// agreement, termination, and unanimity validity over honest
/// processors.
///
/// # Panics
/// Panics if `honest_inputs.len() != n − t` or inputs are not binary.
pub fn run_phase_queen(
    n: usize,
    t: usize,
    attack: crate::Attack,
    honest_inputs: &[u64],
    seed: u64,
) -> PhaseQueenRun {
    use ooc_core::checker::{Violation, ViolationKind};
    assert_eq!(honest_inputs.len(), n - t, "one input per honest processor");
    assert!(honest_inputs.iter().all(|&v| v <= 1), "inputs must be binary");
    let max_phases = t as u64 + 3;
    let mut procs: Vec<QueenNode> = Vec::with_capacity(n);
    for _ in 0..t {
        procs.push(QueenNode::Byzantine(crate::ByzantinePhaseKing::for_queen(
            attack,
        )));
    }
    for &v in honest_inputs {
        procs.push(QueenNode::Honest(phase_queen_process(v, n, t, max_phases)));
    }
    let mut sim = ooc_simnet::SyncSim::new(procs, seed);
    let honest: Vec<ProcessId> = (t..n).map(ProcessId).collect();
    sim.track_only(honest.iter().copied());
    let out = sim.run(2 * max_phases + 3);

    let mut violations = Vec::new();
    let honest_decisions: Vec<(ProcessId, Option<u64>)> = honest
        .iter()
        .map(|&p| (p, out.decisions[p.index()]))
        .collect();
    let mut deciders = honest_decisions
        .iter()
        .filter_map(|(p, d)| d.map(|d| (*p, d)));
    if let Some((p0, d0)) = deciders.next() {
        for (p, d) in deciders {
            if d != d0 {
                violations.push(Violation {
                    kind: ViolationKind::Agreement,
                    round: None,
                    detail: format!("{p0} decided {d0} but {p} decided {d}"),
                });
            }
        }
    }
    for (p, d) in &honest_decisions {
        if d.is_none() {
            violations.push(Violation {
                kind: ViolationKind::Termination,
                round: None,
                detail: format!("honest {p} never decided"),
            });
        }
    }
    if let Some(&first) = honest_inputs.first() {
        if honest_inputs.iter().all(|&v| v == first) {
            for (p, d) in &honest_decisions {
                if *d != Some(first) && d.is_some() {
                    violations.push(Violation {
                        kind: ViolationKind::DecisionValidity,
                        round: None,
                        detail: format!("unanimity on {first} but {p} decided {d:?}"),
                    });
                }
            }
        }
    }
    PhaseQueenRun {
        decisions: out.decisions,
        rounds: out.rounds,
        messages: out.messages_sent,
        violations,
        honest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ooc_simnet::SplitMix64;

    fn inbox(values: &[u64]) -> Vec<(ProcessId, u64)> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| (ProcessId(i), v))
            .collect()
    }

    #[test]
    #[should_panic(expected = "4t < n")]
    fn resilience_bound_enforced() {
        let _ = PhaseQueenAc::new(8, 2);
    }

    #[test]
    fn unanimity_commits() {
        // n = 9, t = 2: threshold is cnt > 4.5 + 2 = 6.5, i.e. ≥ 7.
        let mut ac = PhaseQueenAc::new(9, 2);
        let mut rng = SplitMix64::new(1);
        let mut out = Vec::new();
        {
            let mut ctx = SyncObjCtx::new(ProcessId(0), 9, &mut rng, &mut out);
            assert!(ac.step(0, &1, &[], &mut ctx).is_none());
            let o = ac.step(1, &1, &inbox(&[1; 9]), &mut ctx);
            assert_eq!(o, Some(AcOutcome::commit(1)));
        }
        assert_eq!(out.len(), 9);
    }

    #[test]
    fn bare_majority_only_adopts() {
        let mut ac = PhaseQueenAc::new(9, 2);
        let mut rng = SplitMix64::new(1);
        let mut out = Vec::new();
        let mut ctx = SyncObjCtx::new(ProcessId(0), 9, &mut rng, &mut out);
        ac.step(0, &1, &[], &mut ctx);
        // 6 ones: majority but 2·6 = 12 ≤ 9 + 4 = 13 ⇒ adopt.
        let o = ac.step(1, &1, &inbox(&[1, 1, 1, 1, 1, 1, 0, 0, 0]), &mut ctx);
        assert_eq!(o, Some(AcOutcome::adopt(1)));
    }

    #[test]
    fn seven_of_nine_commits() {
        let mut ac = PhaseQueenAc::new(9, 2);
        let mut rng = SplitMix64::new(1);
        let mut out = Vec::new();
        let mut ctx = SyncObjCtx::new(ProcessId(0), 9, &mut rng, &mut out);
        ac.step(0, &0, &[], &mut ctx);
        // 7 zeros: 2·7 = 14 > 13 ⇒ commit.
        let o = ac.step(1, &0, &inbox(&[0, 0, 0, 0, 0, 0, 0, 1, 1]), &mut ctx);
        assert_eq!(o, Some(AcOutcome::commit(0)));
    }

    #[test]
    fn queen_rotates_and_broadcasts() {
        assert_eq!(queen_of_phase(1, 5), ProcessId(0));
        assert_eq!(queen_of_phase(6, 5), ProcessId(0));
        let mut c = QueenConciliator::new(5, 2); // queen p1
        assert_eq!(c.queen(), ProcessId(1));
        let mut rng = SplitMix64::new(1);
        let mut out = Vec::new();
        let mut ctx = SyncObjCtx::new(ProcessId(1), 5, &mut rng, &mut out);
        c.step(0, &1, &[], &mut ctx);
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn non_queen_adopts_queens_value() {
        let mut c = QueenConciliator::new(5, 1); // queen p0
        let mut rng = SplitMix64::new(1);
        let mut out = Vec::new();
        let mut ctx = SyncObjCtx::new(ProcessId(3), 5, &mut rng, &mut out);
        let inbox = vec![(ProcessId(0), 0u64), (ProcessId(2), 1)];
        assert_eq!(c.step(1, &1, &inbox, &mut ctx), Some(0));
        assert_eq!(c.step(1, &1, &[], &mut ctx), Some(1), "silent queen");
    }

    #[test]
    fn duplicate_and_junk_votes_discarded() {
        let votes = vec![
            (ProcessId(0), 1u64),
            (ProcessId(0), 1),
            (ProcessId(1), 7),
            (ProcessId(2), 0),
        ];
        assert_eq!(tally::<2>(&votes, 9), [1, 1]);
    }
}

#[cfg(test)]
mod harness_tests {
    use super::*;
    use crate::Attack;

    #[test]
    fn fault_free_unanimity() {
        let run = run_phase_queen(5, 0, Attack::Silent, &[1, 1, 1, 1, 1], 3);
        assert!(run.violations.is_empty(), "{:?}", run.violations);
        for p in &run.honest {
            assert_eq!(run.decisions[p.index()], Some(1));
        }
    }

    #[test]
    fn all_attacks_contained_at_the_boundary() {
        // n = 9, t = 2 is the tightest 4t < n corruption.
        for attack in [
            Attack::Silent,
            Attack::Fixed(0),
            Attack::Fixed(1),
            Attack::Equivocate,
            Attack::Random,
        ] {
            for seed in 0..10 {
                let run = run_phase_queen(9, 2, attack, &[0, 1, 0, 1, 0, 1, 0], seed);
                assert!(
                    run.violations.is_empty(),
                    "{attack:?} seed {seed}: {:?}",
                    run.violations
                );
            }
        }
    }

    #[test]
    fn queen_uses_fewer_rounds_than_king() {
        // Same (n, t), same attack: queen phases are 2 rounds vs king's
        // 3, so the queen run finishes in fewer network rounds.
        let seed = 5;
        let q = run_phase_queen(9, 2, Attack::Equivocate, &[0, 1, 0, 1, 0, 1, 0], seed);
        let kcfg = crate::PhaseKingConfig::new(9, 2).with_attack(Attack::Equivocate);
        let k = crate::run_phase_king(&kcfg, &[0, 1, 0, 1, 0, 1, 0], seed);
        assert!(q.violations.is_empty() && k.violations.is_empty());
        assert!(
            q.rounds < k.rounds,
            "queen {} rounds vs king {} rounds",
            q.rounds,
            k.rounds
        );
    }

    #[test]
    fn unanimity_survives_byzantine_lies() {
        for seed in 0..10 {
            let run = run_phase_queen(9, 2, Attack::Fixed(0), &[1; 7], seed);
            assert!(run.violations.is_empty(), "seed {seed}: {:?}", run.violations);
        }
    }
}
