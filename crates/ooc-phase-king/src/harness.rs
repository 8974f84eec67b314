//! Seeded experiment runners for Phase-King — shared by the integration
//! tests and the `ooc-bench` tables (T1, T2, T7).
//!
//! The Byzantine processors occupy the **first** `t` ids, which is the
//! adversarial placement for the rotating king: the faulty processors get
//! the crown first, so the `≤ t + 1` honest-king bound is actually
//! exercised.

use crate::adaptive::AdaptiveAttacker;
use crate::byzantine::{Attack, ByzantinePhaseKing};
use crate::{phase_king_process, phase_king_process_paper_rule, PhaseKingProcess, PhaseKingWire};
use ooc_core::checker::{RoundOutcomes, Violation, ViolationKind};
use ooc_core::template::RoundRecord;
use ooc_simnet::{ProcessId, SyncContext, SyncProcess, SyncSim};

/// Parameters of a Phase-King experiment.
#[derive(Debug, Clone, Copy)]
pub struct PhaseKingConfig {
    /// Network size (honest + Byzantine).
    pub n: usize,
    /// Fault tolerance the protocol is parameterized with (`3t < n`).
    /// The fault *budget*: Byzantine processors plus mid-run crashes must
    /// stay within it for the checks to be sound.
    pub t: usize,
    /// Number of actually-Byzantine processors, occupying ids
    /// `0..byzantine`. Defaults to `t`; lowered (via
    /// [`PhaseKingConfig::with_byzantine`]) when part of the fault budget
    /// is spent on crash faults instead.
    pub byzantine: usize,
    /// The Byzantine behaviour.
    pub attack: Attack,
    /// Phases before the template gives up.
    pub max_phases: u64,
    /// Use the paper's literal decide-at-commit rule instead of the
    /// classical decide-after-`t+1`-phases rule. **Unsound** against
    /// Byzantine kings — kept so the violation can be demonstrated (see
    /// the `paper_rule_is_unsound_under_byzantine_kings` test).
    pub paper_decision_rule: bool,
}

impl PhaseKingConfig {
    /// A configuration for `n` processors with `t` Byzantine equivocators.
    ///
    /// # Panics
    /// Panics unless `3t < n`.
    pub fn new(n: usize, t: usize) -> Self {
        assert!(3 * t < n, "Phase-King requires 3t < n (got n={n}, t={t})");
        PhaseKingConfig {
            n,
            t,
            byzantine: t,
            attack: Attack::Equivocate,
            max_phases: t as u64 + 4,
            paper_decision_rule: false,
        }
    }

    /// Replaces the attack.
    pub fn with_attack(mut self, attack: Attack) -> Self {
        self.attack = attack;
        self
    }

    /// Places only `byzantine ≤ t` actual Byzantine processors, leaving
    /// the rest of the fault budget for crash schedules (see
    /// [`run_phase_king_with_crashes`]).
    ///
    /// # Panics
    /// Panics if `byzantine > t`.
    pub fn with_byzantine(mut self, byzantine: usize) -> Self {
        assert!(
            byzantine <= self.t,
            "byzantine count {byzantine} exceeds fault budget t={}",
            self.t
        );
        self.byzantine = byzantine;
        self
    }

    /// Switches to the paper's decide-at-commit rule (unsound under
    /// Byzantine kings; for demonstrations).
    pub fn with_paper_decision_rule(mut self) -> Self {
        self.paper_decision_rule = true;
        self
    }

    /// API parity with the Ben-Or harness's `with_reliability`:
    /// accepted and ignored. The
    /// lock-step [`SyncSim`] engine delivers every round's messages
    /// exactly once by construction, so acks, retransmission, and
    /// duplicate suppression are all vacuous — there is nothing for a
    /// reliability layer to repair. Harness call sites can therefore be
    /// written uniformly across the two engines.
    pub fn with_reliability(self, _reliability: ooc_simnet::ReliabilityPolicy) -> Self {
        self
    }

    /// Ids of the honest processors (`byzantine..n`).
    pub fn honest_ids(&self) -> Vec<ProcessId> {
        (self.byzantine..self.n).map(ProcessId).collect()
    }
}

/// A node of the mixed network — an enum (rather than boxing) so the
/// harness can still reach the honest processors' histories after the run.
#[derive(Debug)]
pub enum Node {
    /// A correct processor running the decomposed protocol.
    Honest(PhaseKingProcess),
    /// An oblivious Byzantine processor.
    Byzantine(ByzantinePhaseKing),
    /// A coordinated, state-tracking Byzantine processor.
    Byzantine2(AdaptiveAttacker),
}

impl Node {
    /// The honest processor inside, if this node is honest.
    pub fn honest(&self) -> Option<&PhaseKingProcess> {
        match self {
            Node::Honest(p) => Some(p),
            _ => None,
        }
    }
}

impl SyncProcess for Node {
    type Msg = PhaseKingWire;
    type Output = u64;

    fn on_round(
        &mut self,
        round: u64,
        inbox: &[(ProcessId, PhaseKingWire)],
        ctx: &mut SyncContext<'_, PhaseKingWire, u64>,
    ) {
        match self {
            Node::Honest(p) => p.on_round(round, inbox, ctx),
            Node::Byzantine(b) => b.on_round(round, inbox, ctx),
            Node::Byzantine2(b) => b.on_round(round, inbox, ctx),
        }
    }
}

/// Everything measured from one decomposed Phase-King execution.
#[derive(Debug)]
pub struct PhaseKingRun {
    /// Per-process decisions (Byzantine slots always `None`).
    pub decisions: Vec<Option<u64>>,
    /// Round each processor decided in.
    pub decision_rounds: Vec<Option<u64>>,
    /// Honest processors' per-phase records.
    pub honest_histories: Vec<(ProcessId, Vec<RoundRecord<u64>>)>,
    /// Per-honest-processor decision phase (see
    /// `SyncAcConsensus::decision_phase`).
    pub decision_phases: Vec<Option<u64>>,
    /// Property violations (must be empty).
    pub violations: Vec<Violation>,
    /// Network rounds executed.
    pub rounds: u64,
    /// Messages sent (including Byzantine traffic).
    pub messages: u64,
    /// The honest ids of this run.
    pub honest: Vec<ProcessId>,
    /// Honest processors crashed by the schedule (exempt from the
    /// termination check).
    pub crashed: Vec<ProcessId>,
}

impl PhaseKingRun {
    /// Whether every honest processor that survived decided.
    pub fn all_honest_decided(&self) -> bool {
        self.honest
            .iter()
            .filter(|p| !self.crashed.contains(p))
            .all(|p| self.decisions[p.index()].is_some())
    }

    /// Latest phase that fixed any honest processor's decision.
    pub fn phases_to_decide(&self) -> Option<u64> {
        self.decision_phases.iter().copied().max().flatten()
    }

    /// Earliest phase in which an honest processor committed, if any.
    pub fn first_commit_phase(&self) -> Option<u64> {
        self.honest_histories
            .iter()
            .filter_map(|(_, h)| h.iter().find(|r| r.outcome.is_commit()).map(|r| r.round))
            .min()
    }
}

/// Runs the decomposed Phase-King: Byzantine nodes on ids `0..byzantine`,
/// honest nodes with `honest_inputs` (length `n − byzantine`, domain
/// `{0, 1}`) on ids `byzantine..n`. Checks agreement, Byzantine validity
/// (unanimity in ⇒ unanimity out), the `t + 2`-phase decision bound, and
/// the per-phase AC laws over the honest outcomes.
///
/// # Panics
/// Panics if `honest_inputs.len() != n − byzantine` or an input is
/// outside `{0, 1}`.
pub fn run_phase_king(cfg: &PhaseKingConfig, honest_inputs: &[u64], seed: u64) -> PhaseKingRun {
    run_phase_king_with_crashes(cfg, honest_inputs, seed, &[])
}

/// Like [`run_phase_king`] but with a crash schedule: each `(p, round)`
/// silences honest processor `p` from synchronous round `round` on. This
/// is the campaign engine's king-crasher hook — with kings rotating
/// through `ProcessId((phase − 1) % n)` and each phase spanning three
/// sync rounds, a schedule can decapitate each reign as it starts.
///
/// Crash faults draw from the same budget as Byzantine faults: the run
/// asserts `byzantine + |crashed| ≤ t` so every property check stays
/// sound. Crashed processors are exempt from the termination check, and
/// a phase a processor died in contributes its going-in preference as an
/// *extra input* to the convergence law (mirroring the Ben-Or harness's
/// open-round accounting).
///
/// # Panics
/// Panics on non-honest crash ids or a schedule that blows the fault
/// budget.
pub fn run_phase_king_with_crashes(
    cfg: &PhaseKingConfig,
    honest_inputs: &[u64],
    seed: u64,
    crashes: &[(ProcessId, u64)],
) -> PhaseKingRun {
    assert_eq!(
        honest_inputs.len(),
        cfg.n - cfg.byzantine,
        "one input per honest processor"
    );
    assert!(
        honest_inputs.iter().all(|&v| v <= 1),
        "inputs must be binary"
    );
    let mut crashed: Vec<ProcessId> = crashes.iter().map(|&(p, _)| p).collect();
    crashed.sort_unstable();
    crashed.dedup();
    for p in &crashed {
        assert!(
            p.index() >= cfg.byzantine && p.index() < cfg.n,
            "crash schedule names non-honest {p}"
        );
    }
    assert!(
        cfg.byzantine + crashed.len() <= cfg.t,
        "fault budget exceeded: {} Byzantine + {} crashed > t={}",
        cfg.byzantine,
        crashed.len(),
        cfg.t
    );
    let mut procs: Vec<Node> = Vec::with_capacity(cfg.n);
    for _ in 0..cfg.byzantine {
        procs.push(Node::Byzantine(ByzantinePhaseKing::new(cfg.attack)));
    }
    for &v in honest_inputs {
        let p = if cfg.paper_decision_rule {
            phase_king_process_paper_rule(v, cfg.n, cfg.t, cfg.max_phases)
        } else {
            phase_king_process(v, cfg.n, cfg.t, cfg.max_phases)
        };
        procs.push(Node::Honest(p));
    }
    let mut sim = SyncSim::new(procs, seed);
    for &(p, round) in crashes {
        sim.crash_at_round(p, round);
    }
    let honest = cfg.honest_ids();
    sim.track_only(honest.iter().copied());
    // Three rounds per phase plus slack. The bound saturates, so a huge
    // `max_phases` runs until every honest processor decides.
    let out = sim.run(cfg.max_phases.saturating_mul(3).saturating_add(3));

    let honest_histories: Vec<(ProcessId, Vec<RoundRecord<u64>>)> = honest
        .iter()
        .map(|&p| {
            let h = sim
                .process(p)
                .honest()
                // ooc-lint::allow(protocol/panic, "iterates honest ids only; honest() is Some for them")
                .expect("honest slot")
                .history()
                .to_vec();
            (p, h)
        })
        .collect();
    let decision_phases: Vec<Option<u64>> = honest
        .iter()
        // ooc-lint::allow(protocol/panic, "iterates honest ids only; honest() is Some for them")
        .map(|&p| sim.process(p).honest().expect("honest slot").decision_phase())
        .collect();

    let mut violations = Vec::new();

    // Agreement + termination among honest processors.
    let honest_decisions: Vec<(ProcessId, Option<u64>)> = honest
        .iter()
        .map(|&p| (p, out.decisions[p.index()]))
        .collect();
    let mut deciders = honest_decisions.iter().filter_map(|(p, d)| d.map(|d| (*p, d)));
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
        if d.is_none() && !crashed.contains(p) {
            violations.push(Violation {
                kind: ViolationKind::Termination,
                round: None,
                detail: format!("honest {p} never decided"),
            });
        }
    }

    // Byzantine validity: honest unanimity in ⇒ that value out.
    if let Some(&first) = honest_inputs.first() {
        if honest_inputs.iter().all(|&v| v == first) {
            for (p, d) in &honest_decisions {
                if let Some(d) = d {
                    if *d != first {
                        violations.push(Violation {
                            kind: ViolationKind::DecisionValidity,
                            round: None,
                            detail: format!(
                                "honest unanimity on {first} but {p} decided {d}"
                            ),
                        });
                    }
                }
            }
        }
    }

    // Per-phase AC laws over honest outcomes (paper Lemma 2): convergence
    // and coherence. (Round validity is *not* checked: the protocol's
    // internal "no majority" marker 2 is a legal AC value here, and the
    // Byzantine inputs are unobservable.)
    let handles: Vec<(ProcessId, &[RoundRecord<u64>])> = honest_histories
        .iter()
        .map(|(p, h)| (*p, h.as_slice()))
        .collect();
    let max_phase = honest_histories
        .iter()
        .flat_map(|(_, h)| h.iter().map(|r| r.round))
        .max()
        .unwrap_or(0);
    // A crashed processor's phase-in-flight never completes, but it still
    // *invoked* it — its going-in preference (last completed phase's
    // outcome value, or its initial input) counts as an extra input for
    // the convergence law in the first phase missing from its history.
    let open_inputs: Vec<(u64, u64)> = crashed
        .iter()
        .filter_map(|p| {
            let (_, h) = honest_histories.iter().find(|(q, _)| q == p)?;
            match h.last() {
                Some(rec) => Some((rec.round + 1, rec.outcome.value)),
                None => Some((1, honest_inputs[p.index() - cfg.byzantine])),
            }
        })
        .collect();
    for phase in 1..=max_phase {
        let ro = RoundOutcomes::from_histories(phase, &handles).with_extra_inputs(
            open_inputs
                .iter()
                .filter(|&&(ph, _)| ph == phase)
                .map(|&(_, v)| v),
        );
        violations.extend(ro.check_convergence());
        violations.extend(ro.check_coherence_adopt_commit());
        // AC interface: no vacillate outcomes can exist.
        for e in &ro.entries {
            if e.outcome.confidence == ooc_core::Confidence::Vacillate {
                violations.push(Violation {
                    kind: ViolationKind::CoherenceAdoptCommit,
                    round: Some(phase),
                    detail: format!("{} vacillated out of an adopt-commit", e.process),
                });
            }
        }
    }

    // Decision bound: some king among phases 1..=t+1 is honest and
    // aligns every honest processor; convergence commits everyone one
    // phase later, so every honest processor commits by phase t + 2.
    let bound = cfg.t as u64 + 2;
    for (p, h) in &honest_histories {
        if let Some(rec) = h.iter().find(|r| r.outcome.is_commit()) {
            if rec.round > bound {
                violations.push(Violation {
                    kind: ViolationKind::Termination,
                    round: Some(rec.round),
                    detail: format!("{p} committed after phase bound {bound}"),
                });
            }
        }
    }

    PhaseKingRun {
        decisions: out.decisions,
        decision_rounds: out.decision_rounds,
        honest_histories,
        decision_phases,
        violations,
        rounds: out.rounds,
        messages: out.messages_sent,
        honest,
        crashed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_unanimous_decides_immediately() {
        let cfg = PhaseKingConfig::new(4, 0);
        let run = run_phase_king(&cfg, &[1, 1, 1, 1], 3);
        assert!(run.violations.is_empty(), "{:?}", run.violations);
        assert_eq!(run.phases_to_decide(), Some(1));
        // Without Byzantine processors the naive bound is exact.
        for p in &run.honest {
            assert_eq!(run.decisions[p.index()], Some(1));
        }
    }

    #[test]
    fn fault_free_mixed_inputs_agree() {
        let cfg = PhaseKingConfig::new(4, 0);
        for seed in 0..10 {
            let run = run_phase_king(&cfg, &[0, 1, 0, 1], seed);
            assert!(run.violations.is_empty(), "seed {seed}: {:?}", run.violations);
        }
    }

    #[test]
    fn equivocators_cannot_break_it() {
        let cfg = PhaseKingConfig::new(7, 2).with_attack(Attack::Equivocate);
        for seed in 0..10 {
            let run = run_phase_king(&cfg, &[0, 1, 0, 1, 0], seed);
            assert!(run.violations.is_empty(), "seed {seed}: {:?}", run.violations);
            assert!(run.all_honest_decided());
        }
    }

    #[test]
    fn all_attacks_preserve_safety() {
        for attack in [
            Attack::Silent,
            Attack::Fixed(0),
            Attack::Fixed(1),
            Attack::Fixed(2),
            Attack::Equivocate,
            Attack::Random,
        ] {
            let cfg = PhaseKingConfig::new(7, 2).with_attack(attack);
            for seed in 0..5 {
                let run = run_phase_king(&cfg, &[1, 0, 1, 0, 1], seed);
                assert!(
                    run.violations.is_empty(),
                    "{attack:?} seed {seed}: {:?}",
                    run.violations
                );
            }
        }
    }

    #[test]
    fn byzantine_cannot_flip_unanimity() {
        let cfg = PhaseKingConfig::new(10, 3).with_attack(Attack::Fixed(0));
        for seed in 0..5 {
            let run = run_phase_king(&cfg, &[1; 7], seed);
            assert!(run.violations.is_empty(), "seed {seed}: {:?}", run.violations);
            for p in &run.honest {
                assert_eq!(run.decisions[p.index()], Some(1), "seed {seed}");
            }
        }
    }

    #[test]
    fn paper_rule_is_unsound_under_byzantine_kings() {
        // Reproduction finding: the paper's decide-at-commit rule
        // (Algorithm 2 read literally) lets a Byzantine king violate the
        // conciliator's validity after an early commit, after which the
        // remaining honest processors can commit — and decide — the
        // other value. At n = 4, t = 1 even the uncoordinated Random
        // attack stumbles into it.
        let cfg = PhaseKingConfig::new(4, 1)
            .with_attack(Attack::Random)
            .with_paper_decision_rule();
        let mut agreement_broken = 0;
        for seed in 0..300 {
            let run = run_phase_king(&cfg, &[0, 1, 0], seed);
            if run
                .violations
                .iter()
                .any(|v| v.kind == ViolationKind::Agreement)
            {
                agreement_broken += 1;
            }
        }
        assert!(
            agreement_broken > 0,
            "expected the decide-at-commit hazard to materialize"
        );
    }

    #[test]
    fn classical_rule_is_sound_where_paper_rule_breaks() {
        // The same sweep with the classical decide-after-t+1-phases rule
        // must be spotless.
        let cfg = PhaseKingConfig::new(4, 1).with_attack(Attack::Random);
        for seed in 0..300 {
            let run = run_phase_king(&cfg, &[0, 1, 0], seed);
            assert!(run.violations.is_empty(), "seed {seed}: {:?}", run.violations);
        }
    }

    #[test]
    fn first_commit_is_within_t_plus_two_phases() {
        // The t+2 bound applies to the FIRST commit even under attack.
        let cfg = PhaseKingConfig::new(7, 2).with_attack(Attack::Equivocate);
        for seed in 0..10 {
            let run = run_phase_king(&cfg, &[0, 1, 0, 1, 0], seed);
            let first_commit = run
                .honest_histories
                .iter()
                .filter_map(|(_, h)| h.iter().find(|r| r.outcome.is_commit()).map(|r| r.round))
                .min()
                .expect("someone commits");
            assert!(first_commit <= cfg.t as u64 + 2, "seed {seed}: {first_commit}");
        }
    }

    #[test]
    fn crash_schedule_within_budget_stays_safe() {
        // Fault budget t=2 split as 1 Byzantine + 1 crash: the crashed
        // processor is exempt from termination, everyone else must still
        // agree within the bound.
        let cfg = PhaseKingConfig::new(7, 2).with_byzantine(1);
        for seed in 0..10 {
            for crash_round in 0..9 {
                let run = run_phase_king_with_crashes(
                    &cfg,
                    &[0, 1, 0, 1, 0, 1],
                    seed,
                    &[(ProcessId(3), crash_round)],
                );
                assert!(
                    run.violations.is_empty(),
                    "seed {seed} crash@{crash_round}: {:?}",
                    run.violations
                );
                assert!(run.all_honest_decided(), "seed {seed} crash@{crash_round}");
            }
        }
    }

    #[test]
    fn crashing_each_early_king_stays_safe() {
        // The king-crasher shape: with kings rotating through
        // ProcessId((phase − 1) % n), silence an honest king one round
        // into its reign. Budget t=2, all spent on crashes.
        let cfg = PhaseKingConfig::new(7, 2).with_byzantine(0);
        for seed in 0..5 {
            for victim_phase in 1..=2u64 {
                let king = ProcessId(((victim_phase - 1) % 7) as usize);
                let crash_round = (victim_phase - 1) * 3 + 1;
                let run = run_phase_king_with_crashes(
                    &cfg,
                    &[0, 1, 0, 1, 0, 1, 0],
                    seed,
                    &[(king, crash_round)],
                );
                assert!(
                    run.violations.is_empty(),
                    "seed {seed} phase {victim_phase}: {:?}",
                    run.violations
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "fault budget exceeded")]
    fn crash_schedule_cannot_blow_the_budget() {
        let cfg = PhaseKingConfig::new(7, 2);
        let _ = run_phase_king_with_crashes(
            &cfg,
            &[0, 1, 0, 1, 0],
            0,
            &[(ProcessId(3), 1)],
        );
    }

    #[test]
    #[should_panic(expected = "non-honest")]
    fn crash_schedule_must_name_honest_ids() {
        let cfg = PhaseKingConfig::new(7, 2).with_byzantine(1);
        let _ = run_phase_king_with_crashes(
            &cfg,
            &[0, 1, 0, 1, 0, 1],
            0,
            &[(ProcessId(0), 1)],
        );
    }

    #[test]
    #[should_panic(expected = "binary")]
    fn inputs_must_be_binary() {
        let cfg = PhaseKingConfig::new(4, 0);
        let _ = run_phase_king(&cfg, &[0, 1, 2, 1], 0);
    }

    #[test]
    fn larger_networks_hold_up() {
        let cfg = PhaseKingConfig::new(13, 4).with_attack(Attack::Equivocate);
        let inputs: Vec<u64> = (0..9).map(|i| (i % 2) as u64).collect();
        for seed in 0..3 {
            let run = run_phase_king(&cfg, &inputs, seed);
            assert!(run.violations.is_empty(), "seed {seed}: {:?}", run.violations);
        }
    }
}
