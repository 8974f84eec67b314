//! The synchronous consensus template (paper Algorithm 2 in the
//! synchronous Byzantine model, as used by Phase-King §4.1).
//!
//! Each phase `m` runs an agreement-detector [`SyncObject`] returning an
//! [`AcOutcome`], then a conciliator [`SyncObject`] returning a value.
//! Per the paper's §4.1 note, processors **keep participating after
//! deciding** — a decided processor continues to execute every phase with
//! its committed value (which is essential with Byzantine peers, who would
//! otherwise starve the undecided).
//!
//! Honest processors tag every message with `(phase, component, step)` and
//! ignore anything mis-tagged, so Byzantine processors can lie about
//! values but cannot confuse the round structure (which a synchronous
//! network fixes globally anyway).

use crate::confidence::AcOutcome;
use crate::sync_objects::{SyncObjCtx, SyncObject};
use crate::template::RoundRecord;
use ooc_simnet::{ProcessId, SyncContext, SyncProcess};
use std::fmt::Debug;

/// Wire format of the synchronous template.
#[derive(Debug, Clone, PartialEq)]
pub enum SyncTemplateMsg<DM, SM> {
    /// A detector message, tagged with its phase and sending step.
    Detect {
        /// Phase `m` (1-based).
        phase: u64,
        /// The step (within the detector) that sent this message.
        step: u64,
        /// The detector's protocol message.
        inner: DM,
    },
    /// A conciliator message, tagged with its phase and sending step.
    Shake {
        /// Phase `m` (1-based).
        phase: u64,
        /// The step (within the conciliator) that sent this message.
        step: u64,
        /// The conciliator's protocol message.
        inner: SM,
    },
}

enum SyncStage<D, S> {
    Detect { obj: D, step: u64 },
    Shake { obj: S, step: u64, committed: bool },
    Halted,
}

/// Buffers one component reuses at every step: the step's inbox,
/// filtered to the component's tag, and the step's sends.
struct StepBuffers<M> {
    inbox: Vec<(ProcessId, M)>,
    outbox: Vec<(ProcessId, M)>,
}

impl<M: Clone> StepBuffers<M> {
    fn new() -> Self {
        StepBuffers {
            inbox: Vec::new(),
            outbox: Vec::new(),
        }
    }

    /// Runs one object step: `step` reads the network messages that
    /// `select` claims for the component, and its sends go to the engine
    /// wrapped by `tag`. Returns the step's result and how many messages
    /// it sent.
    fn run<W: Clone, Out, T>(
        &mut self,
        inbox: &[(ProcessId, W)],
        select: impl Fn(&W) -> Option<&M>,
        tag: impl Fn(M) -> W,
        ctx: &mut SyncContext<'_, W, Out>,
        step: impl FnOnce(&[(ProcessId, M)], &mut SyncObjCtx<'_, M>) -> T,
    ) -> (T, u64) {
        self.inbox.clear();
        // The network inbox bounds what the component claims, so the
        // buffer grows once to its size, not by doubling, and is reused
        // at every later step of the run.
        self.inbox.reserve(inbox.len());
        self.inbox.extend(
            inbox
                .iter()
                .filter_map(|(from, m)| select(m).map(|inner| (*from, inner.clone()))),
        );
        let result = {
            let (me, n) = (ctx.me(), ctx.n());
            let mut octx = SyncObjCtx::new(me, n, ctx.rng(), &mut self.outbox);
            step(&self.inbox, &mut octx)
        };
        let sent = self.outbox.len() as u64;
        for (to, inner) in self.outbox.drain(..) {
            ctx.send(to, tag(inner));
        }
        (result, sent)
    }
}

/// When the synchronous template records its decision.
///
/// The paper's template decides at the detector's first `commit`
/// ([`SyncDecisionRule::OnCommit`]). **Reproduction finding:** in the
/// Byzantine model that rule is unsound — a Byzantine king can violate
/// the conciliator's validity (Lemma 3's proof assumes the king's
/// broadcast is someone's input, which only holds for honest kings), so
/// after a processor commits `u` the adopters can be dragged to `w ≠ u`
/// and later commit `w`. We reproduce the violation in
/// `ooc-phase-king`'s tests. The classical Phase-King avoids it by
/// deciding only after `t + 1` full phases
/// ([`SyncDecisionRule::AtPhaseEnd`]), once unanimity is permanent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncDecisionRule {
    /// Decide at the first detector `commit` (paper Algorithm 2; safe
    /// when the conciliator's validity cannot be subverted).
    OnCommit,
    /// Decide on the current preference when phase `k` has fully
    /// completed (detector + conciliator), i.e. at the start of phase
    /// `k + 1` — the classical Phase-King rule with `k = t + 1`.
    AtPhaseEnd(u64),
}

/// Synchronous Algorithm 2: consensus from a synchronous AC detector and a
/// synchronous conciliator. See [`ooc_simnet::SyncSim`] for the engine it
/// runs on.
pub struct SyncAcConsensus<D, S>
where
    D: SyncObject,
    S: SyncObject<Value = D::Value, Outcome = D::Value>,
{
    detector_factory: Box<dyn FnMut(u64) -> D + Send>,
    shaker_factory: Box<dyn FnMut(u64) -> S + Send>,
    max_phases: u64,
    decision_rule: SyncDecisionRule,
    v: D::Value,
    initial: D::Value,
    phase: u64,
    stage: SyncStage<D, S>,
    history: Vec<RoundRecord<D::Value>>,
    decided: Option<D::Value>,
    decided_phase: Option<u64>,
    /// Messages sent so far in the current phase (detector + conciliator).
    phase_msgs: u64,
    /// The network round at which the current phase began.
    phase_started: u64,
    /// Boxed, so that a process stays small beside a Byzantine node in a
    /// node enum.
    buffers: Box<ComponentBuffers<D::Msg, S::Msg>>,
}

/// The detector's and the conciliator's step buffers.
struct ComponentBuffers<DM, SM> {
    detect: StepBuffers<DM>,
    shake: StepBuffers<SM>,
}

impl<D, S> SyncAcConsensus<D, S>
where
    D: SyncObject<Outcome = AcOutcome<<D as SyncObject>::Value>>,
    S: SyncObject<Value = D::Value, Outcome = D::Value>,
{
    /// Builds the process.
    ///
    /// `max_phases` bounds the run (Phase-King needs `t + 1` phases; give
    /// it a little slack in experiments).
    pub fn new(
        initial: D::Value,
        detector_factory: impl FnMut(u64) -> D + Send + 'static,
        shaker_factory: impl FnMut(u64) -> S + Send + 'static,
        max_phases: u64,
    ) -> Self {
        SyncAcConsensus {
            detector_factory: Box::new(detector_factory),
            shaker_factory: Box::new(shaker_factory),
            max_phases,
            decision_rule: SyncDecisionRule::OnCommit,
            v: initial.clone(),
            initial,
            phase: 0,
            stage: SyncStage::Halted,
            history: Vec::new(),
            decided: None,
            decided_phase: None,
            phase_msgs: 0,
            phase_started: 0,
            buffers: Box::new(ComponentBuffers {
                detect: StepBuffers::new(),
                shake: StepBuffers::new(),
            }),
        }
    }

    /// Replaces the decision rule (default:
    /// [`SyncDecisionRule::OnCommit`], the paper's).
    pub fn with_decision_rule(mut self, rule: SyncDecisionRule) -> Self {
        self.decision_rule = rule;
        self
    }

    /// The processor's initial input.
    pub fn initial(&self) -> &D::Value {
        &self.initial
    }

    /// The processor's current preference.
    pub fn preference(&self) -> &D::Value {
        &self.v
    }

    /// The decided value, if any.
    pub fn decision(&self) -> Option<&D::Value> {
        self.decided.as_ref()
    }

    /// The phase whose outcome fixed the decision: the committing phase
    /// under [`SyncDecisionRule::OnCommit`], `k` under
    /// [`SyncDecisionRule::AtPhaseEnd`]`(k)`.
    pub fn decision_phase(&self) -> Option<u64> {
        self.decided_phase
    }

    /// Per-phase records (one per completed detector invocation).
    pub fn history(&self) -> &[RoundRecord<D::Value>] {
        &self.history
    }

    fn begin_phase(&mut self) -> bool {
        self.phase += 1;
        if self.phase > self.max_phases {
            self.stage = SyncStage::Halted;
            return false;
        }
        self.stage = SyncStage::Detect {
            obj: (self.detector_factory)(self.phase),
            step: 0,
        };
        true
    }
}

impl<D, S> SyncProcess for SyncAcConsensus<D, S>
where
    D: SyncObject<Outcome = AcOutcome<<D as SyncObject>::Value>>,
    S: SyncObject<Value = D::Value, Outcome = D::Value>,
{
    type Msg = SyncTemplateMsg<D::Msg, S::Msg>;
    type Output = D::Value;

    fn on_round(
        &mut self,
        round: u64,
        inbox: &[(ProcessId, Self::Msg)],
        ctx: &mut SyncContext<'_, Self::Msg, Self::Output>,
    ) {
        if self.phase == 0 {
            if !self.begin_phase() {
                return;
            }
            self.phase_msgs = 0;
            self.phase_started = round;
        }
        // A single network round may execute several object steps: one
        // message-consuming step plus any number of immediately-following
        // step-0s of chained objects. The loop is bounded because each
        // iteration either waits (break) or advances the component chain.
        loop {
            match std::mem::replace(&mut self.stage, SyncStage::Halted) {
                SyncStage::Halted => return,
                SyncStage::Detect { mut obj, step } => {
                    let phase = self.phase;
                    // Step 0 reads nothing; step k reads its peers' step k − 1.
                    let (outcome, sent) = self.buffers.detect.run(
                        if step == 0 { &[] } else { inbox },
                        |m| match m {
                            SyncTemplateMsg::Detect {
                                phase: p,
                                step: s,
                                inner,
                            } if *p == phase && *s == step - 1 => Some(inner),
                            _ => None,
                        },
                        |inner| SyncTemplateMsg::Detect { phase, step, inner },
                        ctx,
                        |msgs, octx| obj.step(step, &self.v, msgs, octx),
                    );
                    self.phase_msgs += sent;
                    match outcome {
                        None => {
                            self.stage = SyncStage::Detect {
                                obj,
                                step: step + 1,
                            };
                            return; // wait for the next network round
                        }
                        Some(out) => {
                            self.history.push(RoundRecord {
                                round: phase,
                                input: self.v.clone(),
                                outcome: out.clone().into_vac(),
                                shaken: None,
                                messages: self.phase_msgs,
                                started_at: self.phase_started,
                                ended_at: round,
                            });
                            let committed = out.is_commit();
                            self.v = out.value;
                            if committed
                                && self.decided.is_none()
                                && self.decision_rule == SyncDecisionRule::OnCommit
                            {
                                self.decided = Some(self.v.clone());
                                self.decided_phase = Some(phase);
                                ctx.decide(self.v.clone());
                            }
                            // Everyone runs the conciliator (the king must
                            // broadcast even if it already committed).
                            self.stage = SyncStage::Shake {
                                obj: (self.shaker_factory)(phase),
                                step: 0,
                                committed,
                            };
                            // fall through: run shaker step 0 in the same
                            // network round.
                        }
                    }
                }
                SyncStage::Shake {
                    mut obj,
                    step,
                    committed,
                } => {
                    let phase = self.phase;
                    let (outcome, sent) = self.buffers.shake.run(
                        if step == 0 { &[] } else { inbox },
                        |m| match m {
                            SyncTemplateMsg::Shake {
                                phase: p,
                                step: s,
                                inner,
                            } if *p == phase && *s == step - 1 => Some(inner),
                            _ => None,
                        },
                        |inner| SyncTemplateMsg::Shake { phase, step, inner },
                        ctx,
                        |msgs, octx| obj.step(step, &self.v, msgs, octx),
                    );
                    self.phase_msgs += sent;
                    match outcome {
                        None => {
                            self.stage = SyncStage::Shake {
                                obj,
                                step: step + 1,
                                committed,
                            };
                            return;
                        }
                        Some(value) => {
                            if let Some(last) = self.history.last_mut() {
                                if last.round == phase {
                                    last.shaken = Some(value.clone());
                                    // Phase complete: stamp final message
                                    // count and end round onto the record.
                                    last.messages = self.phase_msgs;
                                    last.ended_at = round;
                                }
                            }
                            // Algorithm 2: only this phase's adopters take
                            // the conciliator's value; a processor that
                            // committed *in this phase* keeps σ. Stickiness
                            // is per-phase, as in the original Phase-King —
                            // in later phases an earlier decider behaves
                            // like everyone else (its recorded decision is
                            // unaffected), which is what keeps the whole
                            // honest population re-alignable by an honest
                            // king.
                            if !committed {
                                self.v = value;
                            }
                            if !self.begin_phase() {
                                return;
                            }
                            self.phase_msgs = 0;
                            self.phase_started = round;
                            if let SyncDecisionRule::AtPhaseEnd(k) = self.decision_rule {
                                // Entering phase k+1 means phase k fully
                                // completed, conciliator included.
                                if self.phase == k + 1 && self.decided.is_none() {
                                    self.decided = Some(self.v.clone());
                                    self.decided_phase = Some(k);
                                    ctx.decide(self.v.clone());
                                }
                            }
                            // fall through: next phase's detector step 0.
                        }
                    }
                }
            }
        }
    }
}

impl<D, S> Debug for SyncAcConsensus<D, S>
where
    D: SyncObject,
    S: SyncObject<Value = D::Value, Outcome = D::Value>,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SyncAcConsensus")
            .field("phase", &self.phase)
            .field("preference", &self.v)
            .field("decided", &self.decided)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ooc_simnet::SyncSim;

    /// Toy synchronous AC: broadcast, commit iff all n values equal, else
    /// adopt the maximum. Steps: 0 = send, 1 = receive + outcome.
    #[derive(Debug)]
    struct AllEqualAc;
    impl SyncObject for AllEqualAc {
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
            if k == 0 {
                ctx.broadcast(*input);
                return None;
            }
            let vals: Vec<u64> = inbox.iter().map(|&(_, v)| v).collect();
            let first = vals[0];
            Some(if vals.iter().all(|&v| v == first) && vals.len() == ctx.n() {
                AcOutcome::commit(first)
            } else {
                AcOutcome::adopt(vals.iter().copied().max().unwrap_or(*input))
            })
        }
    }

    /// Toy conciliator: processor 0 broadcasts its value; everyone adopts.
    #[derive(Debug)]
    struct LeaderShake;
    impl SyncObject for LeaderShake {
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
            if k == 0 {
                if ctx.me() == ProcessId(0) {
                    ctx.broadcast(*input);
                }
                return None;
            }
            Some(
                inbox
                    .iter()
                    .find(|(from, _)| *from == ProcessId(0))
                    .map(|&(_, v)| v)
                    .unwrap_or(*input),
            )
        }
    }

    type P = SyncAcConsensus<AllEqualAc, LeaderShake>;

    fn proc(v: u64) -> P {
        SyncAcConsensus::new(v, |_m| AllEqualAc, |_m| LeaderShake, 10)
    }

    #[test]
    fn unanimous_inputs_decide_in_first_phase() {
        let mut sim = SyncSim::new(vec![proc(4), proc(4), proc(4)], 1);
        let out = sim.run(50);
        assert_eq!(out.decisions, vec![Some(4); 3]);
        for i in 0..3 {
            let h = sim.process(ProcessId(i)).history();
            assert!(h[0].outcome.is_commit());
        }
    }

    #[test]
    fn leader_shake_converges_mixed_inputs() {
        let mut sim = SyncSim::new(vec![proc(2), proc(0), proc(1)], 1);
        let out = sim.run(50);
        // Phase 1: everyone adopts max = 2, leader pushes its (adopted)
        // value 2 — all equal; phase 2 commits 2.
        assert_eq!(out.decisions, vec![Some(2); 3]);
        let h = sim.process(ProcessId(1)).history();
        assert_eq!(h[0].shaken, Some(2));
        assert!(h[1].outcome.is_commit());
    }

    #[test]
    fn phases_take_three_network_rounds() {
        // detector (2 steps) + conciliator (2 steps) chain with one round
        // of overlap ⇒ 2 network rounds per phase; deciding in phase 2's
        // detector puts the decision in 0-based round 3.
        let mut sim = SyncSim::new(vec![proc(2), proc(0), proc(1)], 1);
        let out = sim.run(50);
        assert_eq!(out.decision_rounds, vec![Some(3); 3]);
    }

    #[test]
    fn max_phases_halts_undecided() {
        /// A detector that never commits.
        #[derive(Debug)]
        struct NeverCommit;
        impl SyncObject for NeverCommit {
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
                _inbox: &[(ProcessId, u64)],
                ctx: &mut SyncObjCtx<'_, u64>,
            ) -> Option<AcOutcome<u64>> {
                if k == 0 {
                    ctx.broadcast(*input);
                    None
                } else {
                    Some(AcOutcome::adopt(*input))
                }
            }
        }
        let make = |v| SyncAcConsensus::<NeverCommit, LeaderShake>::new(v, |_m| NeverCommit, |_m| LeaderShake, 3);
        let mut sim = SyncSim::new(vec![make(0), make(1)], 1);
        let out = sim.run(100);
        assert_eq!(out.decisions, vec![None, None]);
        assert_eq!(sim.process(ProcessId(0)).history().len(), 3);
    }

    #[test]
    fn decided_processor_keeps_participating() {
        let mut sim = SyncSim::new(vec![proc(4), proc(4), proc(4)], 1);
        let out = sim.run(50);
        // After deciding in phase 1, processors still ran the conciliator
        // and later phases until the engine stopped them; the engine stop
        // reason must be "all decided", not quiescence.
        assert_eq!(out.reason, ooc_simnet::sync::SyncStopReason::AllDecided);
    }
}
