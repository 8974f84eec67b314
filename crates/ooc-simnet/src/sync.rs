//! The lock-step synchronous round engine.
//!
//! In the synchronous model (used by Phase-King, paper §4.1) computation
//! proceeds in global rounds: every process sends, then every process
//! receives *all* messages sent to it in that round, then the next round
//! begins. Sends are per-recipient, which is exactly the power a Byzantine
//! process needs to equivocate.
//!
//! Delivery here is exactly-once by construction — there is no network
//! between send and receive to lose, reorder, or duplicate anything —
//! so the async engine's reliable-delivery layer
//! ([`ReliabilityPolicy`](crate::ReliabilityPolicy), `reliable.rs`) has
//! nothing to add in this model and does not apply; harness-level
//! `with_reliability` knobs on synchronous protocols are documented
//! API-parity no-ops.

use crate::process::{Outgoing, Payload};
use crate::rng::SplitMix64;
use crate::ProcessId;
use std::collections::BTreeSet;
use std::fmt::Debug;

/// A process in the lock-step synchronous model.
///
/// The engine invokes [`SyncProcess::on_round`] once per round with the
/// messages sent to this process in the *previous* round (empty in round 0).
pub trait SyncProcess {
    /// Message type exchanged on the network.
    type Msg: Clone + Debug;
    /// Decision value type.
    type Output: Clone + Debug + PartialEq;

    /// One round of computation: consume `inbox`, emit sends via `ctx`.
    fn on_round(
        &mut self,
        round: u64,
        inbox: &[(ProcessId, Self::Msg)],
        ctx: &mut SyncContext<'_, Self::Msg, Self::Output>,
    );
}

impl<M: Clone + Debug, O: Clone + Debug + PartialEq> SyncProcess
    for Box<dyn SyncProcess<Msg = M, Output = O>>
{
    type Msg = M;
    type Output = O;

    fn on_round(
        &mut self,
        round: u64,
        inbox: &[(ProcessId, M)],
        ctx: &mut SyncContext<'_, M, O>,
    ) {
        (**self).on_round(round, inbox, ctx)
    }
}

/// The per-round handle a [`SyncProcess`] uses to emit effects.
#[derive(Debug)]
pub struct SyncContext<'a, M, O> {
    me: ProcessId,
    n: usize,
    round: u64,
    rng: &'a mut SplitMix64,
    outbox: &'a mut Vec<Outgoing<M>>,
    decision: &'a mut Option<O>,
    halted: &'a mut bool,
}

impl<'a, M: Clone, O> SyncContext<'a, M, O> {
    /// This process's id.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// Network size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Current round number (starting at 0).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// This process's private deterministic RNG.
    pub fn rng(&mut self) -> &mut SplitMix64 {
        self.rng
    }

    /// Sends `msg` to a single recipient (delivered next round).
    pub fn send(&mut self, to: ProcessId, msg: M) {
        self.outbox.push(Outgoing {
            to,
            msg: Payload::Owned(msg),
        });
    }

    /// Sends `msg` to every process including this one.
    ///
    /// Like the asynchronous engine, the fan-out interns clone-expensive
    /// payloads (all `n` queued copies share one allocation until
    /// delivery) and copies small plain-old-data messages outright —
    /// the shared gate is `Payload::intern_broadcasts`, parameterized by
    /// `process::INTERN_BYTES`.
    pub fn broadcast(&mut self, msg: M) {
        if Payload::<M>::intern_broadcasts() {
            let shared = std::sync::Arc::new(msg);
            for i in 0..self.n {
                self.outbox.push(Outgoing {
                    to: ProcessId(i),
                    msg: Payload::Shared(std::sync::Arc::clone(&shared)),
                });
            }
        } else {
            for i in 0..self.n {
                self.outbox.push(Outgoing {
                    to: ProcessId(i),
                    msg: Payload::Owned(msg.clone()),
                });
            }
        }
    }

    /// Records a decision; only the first one sticks. The process keeps
    /// participating (as the original Phase-King requires) unless it also
    /// calls [`SyncContext::halt`].
    pub fn decide(&mut self, value: O) {
        if self.decision.is_none() {
            *self.decision = Some(value);
        }
    }

    /// Stops participating from the next round on.
    pub fn halt(&mut self) {
        *self.halted = true;
    }
}

/// Why a synchronous run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncStopReason {
    /// Every tracked process decided.
    AllDecided,
    /// The round bound was reached.
    RoundLimit,
    /// All processes halted or crashed.
    Quiescent,
}

/// Result of a [`SyncSim::run`] call.
#[derive(Debug, Clone)]
pub struct SyncRunOutcome<O> {
    /// Per-process decision.
    pub decisions: Vec<Option<O>>,
    /// Round in which each process decided.
    pub decision_rounds: Vec<Option<u64>>,
    /// Number of rounds executed.
    pub rounds: u64,
    /// Total messages sent (one per recipient).
    pub messages_sent: u64,
    /// Why the run stopped.
    pub reason: SyncStopReason,
}

impl<O: PartialEq + Clone> SyncRunOutcome<O> {
    /// Whether all decisions among the given ids agree and exist.
    pub fn agreement_among(&self, ids: &[ProcessId]) -> bool {
        let mut vals = ids.iter().map(|p| &self.decisions[p.index()]);
        match vals.next() {
            None => true,
            Some(first) => first.is_some() && vals.all(|v| v == first),
        }
    }

    /// The value decided by process `p`, if any.
    pub fn decision_of(&self, p: ProcessId) -> Option<&O> {
        self.decisions[p.index()].as_ref()
    }
}

/// The lock-step synchronous engine.
///
/// The engine keeps two sets of per-recipient inboxes and one outbox
/// shared by all processes, and reuses them every round: it fills the
/// next set from the outbox after each process's turn, then swaps the
/// sets. In steady state a round allocates nothing.
///
/// ```
/// use ooc_simnet::{SyncSim, SyncProcess, SyncContext, ProcessId};
///
/// /// Round 0: broadcast own id. Round 1: decide the minimum heard.
/// #[derive(Debug)]
/// struct MinId;
/// impl SyncProcess for MinId {
///     type Msg = u64;
///     type Output = u64;
///     fn on_round(&mut self, round: u64, inbox: &[(ProcessId, u64)],
///                 ctx: &mut SyncContext<'_, u64, u64>) {
///         if round == 0 {
///             ctx.broadcast(ctx.me().index() as u64);
///         } else {
///             let min = inbox.iter().map(|&(_, v)| v).min().unwrap();
///             ctx.decide(min);
///             ctx.halt();
///         }
///     }
/// }
///
/// let mut sim = SyncSim::new((0..4).map(|_| MinId), 7);
/// let out = sim.run(10);
/// assert_eq!(out.decisions, vec![Some(0); 4]);
/// ```
pub struct SyncSim<P: SyncProcess> {
    processes: Vec<P>,
    rngs: Vec<SplitMix64>,
    /// What each process reads this round: the messages sent to it in
    /// the previous round, by sender id, then in send order.
    inboxes: Vec<Vec<(ProcessId, P::Msg)>>,
    /// The set this round's sends go into; empty between rounds.
    next_inboxes: Vec<Vec<(ProcessId, P::Msg)>>,
    /// One process's sends, drained after its turn.
    outbox: Vec<Outgoing<P::Msg>>,
    crashed: Vec<bool>,
    halted: Vec<bool>,
    decisions: Vec<Option<P::Output>>,
    decision_rounds: Vec<Option<u64>>,
    crash_at_round: Vec<Option<u64>>,
    tracked: BTreeSet<ProcessId>,
    round: u64,
    messages_sent: u64,
}

impl<P: SyncProcess> SyncSim<P> {
    /// Creates an engine over the given processes and master seed.
    ///
    /// # Panics
    /// Panics if `processes` is empty.
    pub fn new(processes: impl IntoIterator<Item = P>, seed: u64) -> Self {
        let processes: Vec<P> = processes.into_iter().collect();
        assert!(!processes.is_empty(), "simulation needs processes");
        let n = processes.len();
        let master = SplitMix64::new(seed);
        SyncSim {
            rngs: (0..n).map(|i| master.derive(i as u64)).collect(),
            // One message from every process fills an inbox: sized for
            // that once, a run's inboxes never grow in a round.
            inboxes: (0..n).map(|_| Vec::with_capacity(n)).collect(),
            next_inboxes: (0..n).map(|_| Vec::with_capacity(n)).collect(),
            outbox: Vec::new(),
            crashed: vec![false; n],
            halted: vec![false; n],
            decisions: vec![None; n],
            decision_rounds: vec![None; n],
            crash_at_round: vec![None; n],
            tracked: (0..n).map(ProcessId).collect(),
            round: 0,
            messages_sent: 0,
            processes,
        }
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.processes.len()
    }

    /// Schedules `p` to crash (fall silent) from round `round` on.
    pub fn crash_at_round(&mut self, p: ProcessId, round: u64) -> &mut Self {
        self.crash_at_round[p.index()] = Some(round);
        self
    }

    /// Restricts the "all decided" stop condition to the given processes —
    /// used to exclude Byzantine processes, which never decide honestly.
    pub fn track_only(&mut self, ids: impl IntoIterator<Item = ProcessId>) -> &mut Self {
        self.tracked = ids.into_iter().collect();
        self
    }

    /// Immutable access to a process (e.g. to inspect state post-run).
    pub fn process(&self, id: ProcessId) -> &P {
        &self.processes[id.index()]
    }

    /// Runs (or resumes) for at most `max_rounds` additional rounds. The
    /// bound saturates, so `u64::MAX` runs until the run stops by itself.
    pub fn run(&mut self, max_rounds: u64) -> SyncRunOutcome<P::Output> {
        let n = self.processes.len();
        let end_round = self.round.saturating_add(max_rounds);
        let reason = loop {
            if self.all_tracked_decided() {
                break SyncStopReason::AllDecided;
            }
            if self.round >= end_round {
                break SyncStopReason::RoundLimit;
            }
            // Apply round-scheduled crashes.
            for i in 0..n {
                if let Some(r) = self.crash_at_round[i] {
                    if self.round >= r {
                        self.crashed[i] = true;
                    }
                }
            }
            if (0..n).all(|i| self.crashed[i] || self.halted[i]) {
                break SyncStopReason::Quiescent;
            }
            for i in 0..n {
                if self.crashed[i] || self.halted[i] {
                    continue;
                }
                let mut decision = None;
                let mut halted = false;
                {
                    let mut ctx = SyncContext {
                        me: ProcessId(i),
                        n,
                        round: self.round,
                        rng: &mut self.rngs[i],
                        outbox: &mut self.outbox,
                        decision: &mut decision,
                        halted: &mut halted,
                    };
                    self.processes[i].on_round(self.round, &self.inboxes[i], &mut ctx);
                }
                for out in self.outbox.drain(..) {
                    self.messages_sent += 1;
                    self.next_inboxes[out.to.index()].push((ProcessId(i), out.msg.into_msg()));
                }
                if let Some(v) = decision {
                    if self.decisions[i].is_none() {
                        self.decisions[i] = Some(v);
                        self.decision_rounds[i] = Some(self.round);
                    }
                }
                if halted {
                    self.halted[i] = true;
                }
            }
            // This round's sends become next round's inboxes. The set
            // just read is emptied now, which also drops the messages
            // sent to crashed or halted recipients.
            std::mem::swap(&mut self.inboxes, &mut self.next_inboxes);
            for inbox in &mut self.next_inboxes {
                inbox.clear();
            }
            self.round += 1;
        };
        SyncRunOutcome {
            decisions: self.decisions.clone(),
            decision_rounds: self.decision_rounds.clone(),
            rounds: self.round,
            messages_sent: self.messages_sent,
            reason,
        }
    }

    fn all_tracked_decided(&self) -> bool {
        !self.tracked.is_empty()
            && self
                .tracked
                .iter()
                .all(|p| self.decisions[p.index()].is_some() || self.crashed[p.index()])
            && self
                .tracked
                .iter()
                .any(|p| self.decisions[p.index()].is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Broadcasts id in round 0, decides min in round 1.
    #[derive(Debug)]
    struct MinId;
    impl SyncProcess for MinId {
        type Msg = u64;
        type Output = u64;
        fn on_round(
            &mut self,
            round: u64,
            inbox: &[(ProcessId, u64)],
            ctx: &mut SyncContext<'_, u64, u64>,
        ) {
            if round == 0 {
                ctx.broadcast(ctx.me().index() as u64);
            } else if ctx.round() == 1 {
                let min = inbox.iter().map(|&(_, v)| v).min().unwrap();
                ctx.decide(min);
                ctx.halt();
            }
        }
    }

    #[test]
    fn two_round_min_consensus() {
        let mut sim = SyncSim::new((0..5).map(|_| MinId), 1);
        let out = sim.run(10);
        assert_eq!(out.reason, SyncStopReason::AllDecided);
        assert_eq!(out.decisions, vec![Some(0); 5]);
        assert_eq!(out.decision_rounds, vec![Some(1); 5]);
        assert_eq!(out.messages_sent, 25);
    }

    #[test]
    fn crashed_process_is_silent() {
        let mut sim = SyncSim::new((0..4).map(|_| MinId), 1);
        sim.crash_at_round(ProcessId(0), 0);
        let out = sim.run(10);
        // p0 never sends, so the minimum heard is 1.
        for i in 1..4 {
            assert_eq!(out.decisions[i], Some(1));
        }
        assert_eq!(out.decisions[0], None);
    }

    #[test]
    fn crash_mid_protocol() {
        let mut sim = SyncSim::new((0..4).map(|_| MinId), 1);
        // Crashes after sending in round 0 (crash takes effect round 1).
        sim.crash_at_round(ProcessId(0), 1);
        let out = sim.run(10);
        for i in 1..4 {
            assert_eq!(out.decisions[i], Some(0), "p0's round-0 send arrived");
        }
        assert_eq!(out.decisions[0], None);
    }

    #[test]
    fn track_only_ignores_untracked() {
        let mut sim = SyncSim::new((0..4).map(|_| MinId), 1);
        sim.crash_at_round(ProcessId(3), 0);
        sim.track_only((0..3).map(ProcessId));
        let out = sim.run(10);
        assert_eq!(out.reason, SyncStopReason::AllDecided);
        assert!(out.agreement_among(&[ProcessId(0), ProcessId(1), ProcessId(2)]));
    }

    #[test]
    fn round_limit_stops_nonterminating_protocols() {
        #[derive(Debug)]
        struct Chatter;
        impl SyncProcess for Chatter {
            type Msg = ();
            type Output = ();
            fn on_round(&mut self, _r: u64, _i: &[(ProcessId, ())], ctx: &mut SyncContext<'_, (), ()>) {
                ctx.broadcast(());
            }
        }
        let mut sim = SyncSim::new(vec![Chatter, Chatter], 1);
        let out = sim.run(7);
        assert_eq!(out.reason, SyncStopReason::RoundLimit);
        assert_eq!(out.rounds, 7);
        assert_eq!(out.messages_sent, 7 * 4);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = |seed| {
            let mut sim = SyncSim::new((0..6).map(|_| MinId), seed);
            sim.run(10).messages_sent
        };
        assert_eq!(run(5), run(5));
    }

    /// Round `r`'s sends of process `i`, in send order: one message to
    /// each of a subset of recipients that changes every round, then a
    /// second message to one of them.
    fn logged_sends(r: u64, i: usize, n: usize) -> Vec<(usize, u64)> {
        let mut sends: Vec<(usize, u64)> = (0..n)
            .filter(|&j| !(r as usize + i + j).is_multiple_of(3))
            .map(|j| (j, r * 1000 + i as u64 * 100 + j as u64 * 10))
            .collect();
        if let Some(&(j, payload)) = sends.first() {
            sends.push((j, payload + 1));
        }
        sends
    }

    /// Logs `(round, from, payload)` for every inbox entry and sends
    /// [`logged_sends`]; halts after round `halt_at`.
    #[derive(Debug)]
    struct Logger {
        log: Vec<(u64, ProcessId, u64)>,
        halt_at: Option<u64>,
    }
    impl SyncProcess for Logger {
        type Msg = u64;
        type Output = ();
        fn on_round(
            &mut self,
            r: u64,
            inbox: &[(ProcessId, u64)],
            ctx: &mut SyncContext<'_, u64, ()>,
        ) {
            self.log.extend(inbox.iter().map(|&(from, m)| (r, from, m)));
            for (to, m) in logged_sends(r, ctx.me().index(), ctx.n()) {
                ctx.send(ProcessId(to), m);
            }
            if self.halt_at == Some(r) {
                ctx.halt();
            }
        }
    }

    #[test]
    fn inboxes_hold_exactly_the_previous_rounds_sends() {
        const N: usize = 5;
        const ROUNDS: u64 = 9;
        // p2 halts after round 3 and p4 crashes from round 2 on, so the
        // inboxes of both fill but go unread.
        let halt_at = |i: usize| (i == 2).then_some(3);
        let crash_at = |i: usize| if i == 4 { 2 } else { u64::MAX };
        let mut sim = SyncSim::new(
            (0..N).map(|i| Logger {
                log: Vec::new(),
                halt_at: halt_at(i),
            }),
            1,
        );
        sim.crash_at_round(ProcessId(4), 2);
        let out = sim.run(ROUNDS);
        assert_eq!(out.reason, SyncStopReason::RoundLimit);
        let ran = |i: usize, r: u64| r < crash_at(i) && halt_at(i).is_none_or(|h| r <= h);
        for p in 0..N {
            let mut expected = Vec::new();
            for r in (1..ROUNDS).filter(|&r| ran(p, r)) {
                for i in (0..N).filter(|&i| ran(i, r - 1)) {
                    for (to, m) in logged_sends(r - 1, i, N) {
                        if to == p {
                            expected.push((r, ProcessId(i), m));
                        }
                    }
                }
            }
            assert_eq!(sim.process(ProcessId(p)).log, expected, "p{p}'s inboxes");
        }
    }

    #[test]
    fn unbounded_resume_does_not_overflow() {
        /// Decides in round 5.
        #[derive(Debug)]
        struct DecideAtFive;
        impl SyncProcess for DecideAtFive {
            type Msg = ();
            type Output = u64;
            fn on_round(
                &mut self,
                r: u64,
                _i: &[(ProcessId, ())],
                ctx: &mut SyncContext<'_, (), u64>,
            ) {
                ctx.broadcast(());
                if r == 5 {
                    ctx.decide(r);
                }
            }
        }
        let mut sim = SyncSim::new(vec![DecideAtFive, DecideAtFive], 1);
        assert_eq!(sim.run(2).reason, SyncStopReason::RoundLimit);
        let out = sim.run(u64::MAX);
        assert_eq!(out.reason, SyncStopReason::AllDecided);
        assert_eq!(out.rounds, 6);
        assert_eq!(out.decisions, vec![Some(5); 2]);
    }

    #[test]
    fn quiescent_when_all_halt() {
        #[derive(Debug)]
        struct HaltNow;
        impl SyncProcess for HaltNow {
            type Msg = ();
            type Output = u64;
            fn on_round(&mut self, _r: u64, _i: &[(ProcessId, ())], ctx: &mut SyncContext<'_, (), u64>) {
                ctx.halt();
            }
        }
        let mut sim = SyncSim::new(vec![HaltNow, HaltNow], 1);
        let out = sim.run(10);
        assert_eq!(out.reason, SyncStopReason::Quiescent);
    }
}
