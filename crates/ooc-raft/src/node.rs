//! The Raft node — paper Algorithms 7 (consensus protocol), 8 (leader
//! responses) and 9 (across-state responses), as an event-driven process
//! on the asynchronous engine.
//!
//! Consensus reduction (§4.3): the log carries only `D&S(v)` commands.
//! A node that becomes leader of an empty log proposes its own input; the
//! state machine decides the value of the first applied entry and ignores
//! everything after it. Terms play the role of template rounds; the
//! randomized election timer is the reconciliator (Algorithm 11).

// Raft tolerates a crash-stop minority: every quorum below is a strict
// majority, so two quorums always intersect in a live node. Declared for
// ooc-lint's quorum-arithmetic check (contrast 3t < n in ooc-phase-king).
// ooc-lint::resilience(2 * t < n)

use crate::durable;
use crate::events::RaftEvent;
use crate::message::{AckAppendEntries, AckRequestVote, AppendEntries, RaftMsg, RequestVote};
use crate::state::{LeaderState, PersistentState, Role, VolatileState};
use crate::types::{DecideAndStop, LogEntry, LogIndex, Term};
use ooc_core::Confidence;
use ooc_simnet::{Context, Process, ProcessId, SimDuration, TimerId};

/// Timing knobs. All values are simulator ticks; the paper's *timing
/// property* requires `broadcast time ≪ election timeout ≪ MTBF`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaftConfig {
    /// Election timeout drawn uniformly from this inclusive range.
    pub election_timeout: (u64, u64),
    /// Leader heartbeat period.
    pub heartbeat_interval: u64,
    /// Cap on entries per AppendEntries (catch-up batching).
    pub max_batch: usize,
}

impl Default for RaftConfig {
    fn default() -> Self {
        RaftConfig {
            election_timeout: (150, 300),
            heartbeat_interval: 50,
            max_batch: 16,
        }
    }
}

impl RaftConfig {
    /// Draws a fresh randomized election timeout.
    fn sample_timeout(&self, rng: &mut ooc_simnet::SplitMix64) -> SimDuration {
        let (lo, hi) = self.election_timeout;
        SimDuration::from_ticks(rng.range_inclusive(lo.max(1), hi.max(lo.max(1))))
    }
}

type Ctx<'a, 'b> = Context<'b, RaftMsg, u64>;

/// A Raft processor proposing `input` through the `D&S` reduction.
///
/// Persistence: every mutation of [`PersistentState`] is written through
/// the [`durable`] codecs to the process's simulated stable storage, but
/// the node never issues an explicit
/// [`sync_storage`](ooc_simnet::Context::sync_storage) — it models a
/// deployment that trusts the OS to flush. Under the default
/// [`SyncAlways`](ooc_simnet::StoragePolicy::SyncAlways) policy that
/// trust is justified and restarts recover full state; under a lossy
/// policy the `VotedFor` record can vanish in a crash, re-enabling the
/// double-vote that breaks Election Safety (see
/// [`DurabilityChecker`](crate::DurabilityChecker)).
#[derive(Debug)]
pub struct RaftNode {
    config: RaftConfig,
    input: u64,
    /// Extra commands this node proposes while leading (one per
    /// heartbeat), for multi-entry replication workloads. The `D&S`
    /// state machine ignores everything after the first entry, but the
    /// log must still replicate them with full Raft guarantees.
    workload: Vec<u64>,
    persistent: PersistentState,
    volatile: VolatileState,
    leader: LeaderState,
    /// Distinct voters of the current candidacy. Cleared, never dropped,
    /// between elections, so only the first candidacy allocates it.
    votes: Vec<ProcessId>,
    election_timer: Option<TimerId>,
    heartbeat_timer: Option<TimerId>,
    decided: Option<u64>,
    /// Simulated instant this node first won an election.
    first_led_at: Option<ooc_simnet::SimTime>,
    events: Vec<RaftEvent>,
}

impl RaftNode {
    /// Creates a node proposing `input`.
    pub fn new(input: u64, config: RaftConfig) -> Self {
        RaftNode {
            config,
            input,
            workload: Vec::new(),
            persistent: PersistentState::default(),
            volatile: VolatileState::default(),
            leader: LeaderState::default(),
            votes: Vec::new(),
            election_timer: None,
            heartbeat_timer: None,
            decided: None,
            first_led_at: None,
            events: Vec::new(),
        }
    }

    /// Adds a stream of extra commands this node will append to the log
    /// while it is leader (one per heartbeat), to exercise multi-entry
    /// replication. The consensus decision is unaffected (`D&S`
    /// semantics: only the first log entry decides).
    pub fn with_workload(mut self, commands: Vec<u64>) -> Self {
        // Proposed in push order.
        self.workload = commands.into_iter().rev().collect();
        self
    }

    /// Commands not yet proposed from the workload.
    pub fn workload_remaining(&self) -> usize {
        self.workload.len()
    }

    /// The node's current term.
    pub fn current_term(&self) -> Term {
        self.persistent.current_term
    }

    /// The node's current role.
    pub fn role(&self) -> Role {
        self.volatile.role
    }

    /// The node's log.
    pub fn log(&self) -> &crate::log::RaftLog {
        &self.persistent.log
    }

    /// The node's commit index.
    pub fn commit_index(&self) -> LogIndex {
        self.volatile.commit_index
    }

    /// The decided value, if the state machine applied `D&S`.
    pub fn decision(&self) -> Option<u64> {
        self.decided
    }

    /// The instrumentation event stream.
    pub fn events(&self) -> &[RaftEvent] {
        &self.events
    }

    /// Consumes the node, keeping only its instrumentation event stream.
    pub fn into_events(self) -> Vec<RaftEvent> {
        self.events
    }

    /// When this node first became a leader, if ever.
    pub fn first_led_at(&self) -> Option<ooc_simnet::SimTime> {
        self.first_led_at
    }

    /// `log[lastLogIndex].value`, falling back to the node's input while
    /// the log is empty — the `v*` of Algorithms 7 and 10.
    fn last_value(&self) -> u64 {
        self.persistent
            .log
            .get(self.persistent.log.last_index())
            .map(|e| e.command.0)
            .unwrap_or(self.input)
    }

    fn record_vac(&mut self, confidence: Confidence) {
        self.events.push(RaftEvent::VacTransition {
            term: self.persistent.current_term,
            confidence,
            value: self.last_value(),
        });
    }

    fn reset_election_timer(&mut self, ctx: &mut Ctx<'_, '_>) {
        if let Some(t) = self.election_timer.take() {
            ctx.cancel_timer(t);
        }
        let d = self.config.sample_timeout(ctx.rng());
        self.election_timer = Some(ctx.set_timer(d));
    }

    fn freeze_election_timer(&mut self, ctx: &mut Ctx<'_, '_>) {
        // Algorithm 10: "Freeze timer T" once leadership is won.
        if let Some(t) = self.election_timer.take() {
            ctx.cancel_timer(t);
        }
    }

    /// Steps down to follower because a higher term was observed.
    fn step_down(&mut self, term: Term, ctx: &mut Ctx<'_, '_>) {
        self.persistent.current_term = term;
        self.persistent.voted_for = None;
        durable::persist_hardstate(ctx, &self.persistent);
        if self.volatile.role != Role::Follower {
            self.events.push(RaftEvent::SteppedDown { term });
        }
        self.volatile.role = Role::Follower;
        self.votes.clear();
        if let Some(t) = self.heartbeat_timer.take() {
            ctx.cancel_timer(t);
        }
        self.reset_election_timer(ctx);
    }

    /// Algorithm 11 (the reconciliator) + the tail of Algorithm 9:
    /// "if Timer T runs out: initialize T randomly, increment term and
    /// start algorithm 7".
    fn start_election(&mut self, ctx: &mut Ctx<'_, '_>) {
        self.persistent.current_term = self.persistent.current_term.next();
        self.persistent.voted_for = Some(ctx.me());
        durable::persist_hardstate(ctx, &self.persistent);
        self.volatile.role = Role::Candidate;
        self.votes.clear();
        self.votes.push(ctx.me());
        self.events.push(RaftEvent::ElectionStarted {
            term: self.persistent.current_term,
        });
        // A candidacy casts a VotedFor=self ballot; record it like any
        // other grant so the `DurabilityChecker` can compare it against
        // ballots the node cast before a crash.
        self.events.push(RaftEvent::VoteGranted {
            term: self.persistent.current_term,
            candidate: ctx.me(),
        });
        self.record_vac(Confidence::Vacillate);
        self.reset_election_timer(ctx);
        let msg = RaftMsg::RequestVote(RequestVote {
            term: self.persistent.current_term,
            candidate_id: ctx.me(),
            last_log_index: self.persistent.log.last_index(),
            last_log_term: self.persistent.log.last_term(),
        });
        ctx.broadcast_others(msg);
        if ctx.n() == 1 {
            // Degenerate single-node cluster: immediate leadership.
            self.become_leader(ctx);
        }
    }

    fn become_leader(&mut self, ctx: &mut Ctx<'_, '_>) {
        self.volatile.role = Role::Leader;
        if self.first_led_at.is_none() {
            self.first_led_at = Some(ctx.now());
        }
        self.leader.reset(ctx.n(), self.persistent.log.last_index());
        self.events.push(RaftEvent::BecameLeader {
            term: self.persistent.current_term,
        });
        self.freeze_election_timer(ctx);
        // Consensus reduction: the new leader proposes v* ← log[last]
        // (its own input while the log is empty — Algorithm 7). A leader
        // whose log ends in an *older* term must re-propose v* in its own
        // term: Raft's commit rule only fires on current-term entries, so
        // without a fresh entry a leader elected over deposed leaders'
        // stale entries would heartbeat forever and never commit (the
        // no-op entry of Raft §5.4.2, carrying v* so the VAC view's
        // committed value is stable across terms).
        if self.persistent.log.last_term() != self.persistent.current_term {
            let v_star = self.last_value();
            self.persistent.log.push(LogEntry {
                term: self.persistent.current_term,
                command: DecideAndStop(v_star),
            });
            durable::persist_log(ctx, &self.persistent);
        }
        let me = ctx.me().index();
        self.leader.match_index[me] = self.persistent.log.last_index();
        self.leader.next_index[me] = self.persistent.log.last_index().next();
        self.record_vac(Confidence::Adopt);
        self.replicate_all(ctx);
        self.arm_heartbeat(ctx);
        self.try_advance_commit(ctx);
    }

    fn arm_heartbeat(&mut self, ctx: &mut Ctx<'_, '_>) {
        let d = SimDuration::from_ticks(self.config.heartbeat_interval.max(1));
        self.heartbeat_timer = Some(ctx.set_timer(d));
    }

    fn append_for(&self, peer: ProcessId) -> AppendEntries {
        let next = self.leader.next_index[peer.index()];
        let prev = next.prev();
        AppendEntries {
            term: self.persistent.current_term,
            leader_id: ProcessId(usize::MAX), // patched by caller (needs ctx)
            prev_log_index: prev,
            prev_log_term: self.persistent.log.term_at(prev).unwrap_or(Term::ZERO),
            entries: self.persistent.log.suffix(next, self.config.max_batch),
            leader_commit: self.volatile.commit_index,
        }
    }

    fn send_append(&mut self, peer: ProcessId, ctx: &mut Ctx<'_, '_>) {
        let mut ae = self.append_for(peer);
        ae.leader_id = ctx.me();
        ctx.send(peer, RaftMsg::AppendEntries(ae));
    }

    fn replicate_all(&mut self, ctx: &mut Ctx<'_, '_>) {
        for i in 0..ctx.n() {
            if i != ctx.me().index() {
                self.send_append(ProcessId(i), ctx);
            }
        }
    }

    /// Algorithm 8's commit rule: find `N > commitIndex` replicated on a
    /// majority with `log[N].term = currentTerm`.
    fn try_advance_commit(&mut self, ctx: &mut Ctx<'_, '_>) {
        if self.volatile.role != Role::Leader {
            return;
        }
        let n = ctx.n();
        let mut advanced = false;
        let mut candidate = self.volatile.commit_index.next();
        while candidate <= self.persistent.log.last_index() {
            let replicas = self
                .leader
                .match_index
                .iter()
                .filter(|&&m| m >= candidate)
                .count();
            if replicas * 2 > n
                && self.persistent.log.term_at(candidate) == Some(self.persistent.current_term)
            {
                self.volatile.commit_index = candidate;
                advanced = true;
            }
            candidate = candidate.next();
        }
        if advanced {
            let idx = self.volatile.commit_index;
            // ooc-lint::allow(protocol/panic, "commit_index never exceeds log length")
            let entry = *self.persistent.log.get(idx).expect("committed entry");
            self.events.push(RaftEvent::Committed {
                term: self.persistent.current_term,
                index: idx,
                entry_term: entry.term,
                value: entry.command.0,
            });
            self.record_vac(Confidence::Commit);
            self.apply_committed(ctx);
            // The "second kind" broadcast: no entries, new commit index.
            self.replicate_all(ctx);
        }
    }

    /// Applies newly committed commands. `D&S` semantics: the first
    /// applied command decides; later commands are ignored by the state
    /// machine (but `lastApplied` still advances).
    fn apply_committed(&mut self, ctx: &mut Ctx<'_, '_>) {
        while self.volatile.last_applied < self.volatile.commit_index {
            self.volatile.last_applied = self.volatile.last_applied.next();
            let idx = self.volatile.last_applied;
            // ooc-lint::allow(protocol/panic, "last_applied never exceeds commit_index")
            let entry = *self.persistent.log.get(idx).expect("applied entry");
            self.events.push(RaftEvent::Applied {
                index: idx,
                value: entry.command.0,
            });
            if self.decided.is_none() {
                self.decided = Some(entry.command.0);
                ctx.decide(entry.command.0);
            }
        }
    }

    fn on_request_vote(&mut self, from: ProcessId, rv: RequestVote, ctx: &mut Ctx<'_, '_>) {
        if rv.term > self.persistent.current_term {
            self.step_down(rv.term, ctx);
        }
        let up_to_date = (rv.last_log_term, rv.last_log_index)
            >= (self.persistent.log.last_term(), self.persistent.log.last_index());
        let grant = rv.term == self.persistent.current_term
            && self
                .persistent
                .voted_for
                .is_none_or(|c| c == rv.candidate_id)
            && up_to_date;
        if grant {
            self.persistent.voted_for = Some(rv.candidate_id);
            durable::persist_hardstate(ctx, &self.persistent);
            self.events.push(RaftEvent::VoteGranted {
                term: self.persistent.current_term,
                candidate: rv.candidate_id,
            });
            self.reset_election_timer(ctx);
        }
        ctx.send(
            from,
            RaftMsg::AckRequestVote(AckRequestVote {
                term: self.persistent.current_term,
                vote_granted: grant,
            }),
        );
    }

    fn on_ack_request_vote(&mut self, from: ProcessId, ack: AckRequestVote, ctx: &mut Ctx<'_, '_>) {
        if ack.term > self.persistent.current_term {
            self.step_down(ack.term, ctx);
            return;
        }
        if self.volatile.role != Role::Candidate
            || ack.term != self.persistent.current_term
            || !ack.vote_granted
        {
            return;
        }
        if !self.votes.contains(&from) {
            self.votes.push(from);
        }
        if self.votes.len() * 2 > ctx.n() {
            self.become_leader(ctx);
        }
    }

    fn on_append_entries(&mut self, from: ProcessId, ae: AppendEntries, ctx: &mut Ctx<'_, '_>) {
        if ae.term > self.persistent.current_term {
            self.step_down(ae.term, ctx);
        }
        if ae.term < self.persistent.current_term {
            ctx.send(
                from,
                RaftMsg::AckAppendEntries(AckAppendEntries {
                    term: self.persistent.current_term,
                    success: false,
                    match_index: LogIndex::ZERO,
                }),
            );
            return;
        }
        // Same-term leader: recognize authority.
        if self.volatile.role != Role::Follower {
            self.volatile.role = Role::Follower;
            self.votes.clear();
            if let Some(t) = self.heartbeat_timer.take() {
                ctx.cancel_timer(t);
            }
        }
        self.reset_election_timer(ctx);
        if !self
            .persistent
            .log
            .matches(ae.prev_log_index, ae.prev_log_term)
        {
            ctx.send(
                from,
                RaftMsg::AckAppendEntries(AckAppendEntries {
                    term: self.persistent.current_term,
                    success: false,
                    match_index: LogIndex::ZERO,
                }),
            );
            return;
        }
        let had_entries = !ae.entries.is_empty();
        let last_new = self.persistent.log.install(ae.prev_log_index, &ae.entries);
        if had_entries {
            durable::persist_log(ctx, &self.persistent);
            // §4.3 amendment 1: accepting a first-kind AppendEntries sets
            // (X, v) ← (adopt, log[last].value).
            self.record_vac(Confidence::Adopt);
        }
        // Algorithm 9: commitIndex ← min(leaderCommit, index of last new
        // entry). Strictly `last_new` — entries beyond what this append
        // confirmed might be a stale suffix that conflicts with the
        // leader's log.
        let target = ae.leader_commit.min(last_new);
        if target > self.volatile.commit_index {
            self.volatile.commit_index = target;
            {
                let idx = self.volatile.commit_index;
                // ooc-lint::allow(protocol/panic, "commit_index never exceeds log length")
                let entry = *self.persistent.log.get(idx).expect("committed entry");
                self.events.push(RaftEvent::Committed {
                    term: self.persistent.current_term,
                    index: idx,
                    entry_term: entry.term,
                    value: entry.command.0,
                });
                // §4.3 amendment 2: accepting a second-kind AppendEntries
                // sets (X, v) ← (commit, log[last].value).
                self.record_vac(Confidence::Commit);
                self.apply_committed(ctx);
            }
        }
        ctx.send(
            from,
            RaftMsg::AckAppendEntries(AckAppendEntries {
                term: self.persistent.current_term,
                success: true,
                match_index: last_new.max(ae.prev_log_index),
            }),
        );
    }

    fn on_ack_append_entries(
        &mut self,
        from: ProcessId,
        ack: AckAppendEntries,
        ctx: &mut Ctx<'_, '_>,
    ) {
        if ack.term > self.persistent.current_term {
            // Algorithm 8: on a false ack with a higher term, revert.
            self.step_down(ack.term, ctx);
            return;
        }
        if self.volatile.role != Role::Leader || ack.term != self.persistent.current_term {
            return;
        }
        let i = from.index();
        if ack.success {
            if ack.match_index > self.leader.match_index[i] {
                self.leader.match_index[i] = ack.match_index;
            }
            self.leader.next_index[i] = self.leader.match_index[i].next();
            self.try_advance_commit(ctx);
            // Keep pushing if the follower is still behind.
            if self.leader.next_index[i] <= self.persistent.log.last_index() {
                self.send_append(from, ctx);
            }
        } else {
            // Algorithm 8: decrement NextIndex[i] and resend.
            let next = &mut self.leader.next_index[i];
            *next = LogIndex(next.0.saturating_sub(1).max(1));
            self.send_append(from, ctx);
        }
    }
}

impl Process for RaftNode {
    type Msg = RaftMsg;
    type Output = u64;

    fn on_start(&mut self, ctx: &mut Ctx<'_, '_>) {
        self.reset_election_timer(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, '_>, from: ProcessId, msg: RaftMsg) {
        match msg {
            RaftMsg::RequestVote(rv) => self.on_request_vote(from, rv, ctx),
            RaftMsg::AckRequestVote(ack) => self.on_ack_request_vote(from, ack, ctx),
            RaftMsg::AppendEntries(ae) => self.on_append_entries(from, ae, ctx),
            RaftMsg::AckAppendEntries(ack) => self.on_ack_append_entries(from, ack, ctx),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, '_>, timer: TimerId) {
        if Some(timer) == self.election_timer {
            self.election_timer = None;
            if self.volatile.role != Role::Leader {
                self.start_election(ctx);
            }
        } else if Some(timer) == self.heartbeat_timer {
            self.heartbeat_timer = None;
            if self.volatile.role == Role::Leader {
                if let Some(cmd) = self.workload.pop() {
                    let idx = self.persistent.log.push(LogEntry {
                        term: self.persistent.current_term,
                        command: DecideAndStop(cmd),
                    });
                    durable::persist_log(ctx, &self.persistent);
                    let me = ctx.me().index();
                    self.leader.match_index[me] = idx;
                    self.leader.next_index[me] = idx.next();
                }
                self.replicate_all(ctx);
                self.arm_heartbeat(ctx);
            }
        }
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_, '_>) {
        // Figure 2's split, taken literally: persistent state is whatever
        // stable storage still holds (under SyncAlways that is everything
        // ever persisted; under a lossy policy possibly much less — the
        // node may even come back with a forgotten vote). Volatile state
        // is rebuilt from defaults and pending timers died with the crash.
        self.persistent = durable::recover(ctx.storage());
        self.volatile = VolatileState::default();
        self.leader = LeaderState::default();
        self.votes.clear();
        self.election_timer = None;
        self.heartbeat_timer = None;
        self.reset_election_timer(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ooc_simnet::{FaultPlan, NetworkConfig, RunLimit, Sim, SimTime, StopReason};

    fn cluster(inputs: &[u64], seed: u64) -> Sim<RaftNode> {
        Sim::builder(NetworkConfig::reliable(5))
            .seed(seed)
            .processes(inputs.iter().map(|&v| RaftNode::new(v, RaftConfig::default())))
            .build()
    }

    #[test]
    fn three_nodes_reach_consensus() {
        for seed in 0..10 {
            let mut sim = cluster(&[10, 20, 30], seed);
            let out = sim.run(RunLimit::default());
            assert_eq!(out.reason, StopReason::AllDecided, "seed {seed}");
            assert!(out.agreement(), "seed {seed}");
            let v = out.decided_value().unwrap();
            assert!([10, 20, 30].contains(&v), "validity, seed {seed}");
        }
    }

    #[test]
    fn five_nodes_reach_consensus() {
        for seed in 0..5 {
            let mut sim = cluster(&[1, 2, 3, 4, 5], seed);
            let out = sim.run(RunLimit::default());
            assert!(out.all_decided(), "seed {seed}");
            assert!(out.agreement(), "seed {seed}");
        }
    }

    #[test]
    fn single_node_decides_own_value() {
        let mut sim = cluster(&[7], 1);
        let out = sim.run(RunLimit::default());
        assert_eq!(out.decided_value(), Some(7));
    }

    #[test]
    fn at_most_one_leader_per_term() {
        for seed in 0..10 {
            let mut sim = cluster(&[1, 2, 3, 4, 5], seed);
            let _ = sim.run(RunLimit::default());
            let mut leaders: std::collections::BTreeMap<Term, Vec<usize>> = Default::default();
            for i in 0..5 {
                for e in sim.process(ProcessId(i)).events() {
                    if let RaftEvent::BecameLeader { term } = e {
                        leaders.entry(*term).or_default().push(i);
                    }
                }
            }
            for (term, who) in leaders {
                assert_eq!(who.len(), 1, "seed {seed}: term {term} had leaders {who:?}");
            }
        }
    }

    #[test]
    fn survives_minority_crashes() {
        for seed in 0..5 {
            let mut sim = Sim::builder(NetworkConfig::reliable(5))
                .seed(seed)
                .processes((0..5).map(|i| RaftNode::new(i as u64, RaftConfig::default())))
                .faults(FaultPlan::new().crash_tail(5, 2, SimTime::from_ticks(100)))
                .build();
            let out = sim.run(RunLimit::default());
            for i in 0..3 {
                assert!(out.decisions[i].is_some(), "seed {seed}: p{i} undecided");
            }
            assert!(out.agreement(), "seed {seed}");
        }
    }

    #[test]
    fn leader_crash_triggers_reelection() {
        // Let a leader emerge, then kill it; the rest must still decide.
        for seed in 0..5 {
            let mut sim = Sim::builder(NetworkConfig::reliable(5))
                .seed(seed)
                .processes((0..3).map(|i| RaftNode::new(i as u64, RaftConfig::default())))
                .build();
            // Run until the first decision (a leader must exist by then).
            let first = sim.run(RunLimit::until_decisions(1));
            assert!(first.decided_count() >= 1, "seed {seed}");
            let leader = (0..3)
                .find(|&i| sim.process(ProcessId(i)).role() == Role::Leader)
                .expect("a leader exists");
            // The remaining two nodes must also decide (they may already
            // have); agreement must hold throughout.
            let out = sim.run(RunLimit::default());
            assert!(out.agreement(), "seed {seed}");
            let _ = leader;
        }
    }

    #[test]
    fn restart_preserves_log_and_decision_safety() {
        for seed in 0..5 {
            let mut sim = Sim::builder(NetworkConfig::reliable(5))
                .seed(seed)
                .processes((0..3).map(|i| RaftNode::new(i as u64 + 1, RaftConfig::default())))
                .faults(
                    FaultPlan::new()
                        .crash_at(ProcessId(2), SimTime::from_ticks(400))
                        .restart_at(ProcessId(2), SimTime::from_ticks(1200)),
                )
                .build();
            let out = sim.run(RunLimit::default());
            assert!(out.agreement(), "seed {seed}: {:?}", out.decisions);
            assert!(out.all_decided(), "seed {seed}: restarted node catches up");
        }
    }

    #[test]
    fn logs_converge_to_single_committed_prefix() {
        let mut sim = cluster(&[4, 5, 6], 3);
        let out = sim.run(RunLimit::default());
        let v = out.decided_value().unwrap();
        for i in 0..3 {
            let node = sim.process(ProcessId(i));
            assert_eq!(node.log().get(LogIndex(1)).unwrap().command.0, v);
        }
    }

    #[test]
    fn decision_is_first_log_entry() {
        for seed in 0..5 {
            let mut sim = cluster(&[9, 8, 7], seed);
            let out = sim.run(RunLimit::default());
            let v = out.decided_value().unwrap();
            for i in 0..3 {
                let node = sim.process(ProcessId(i));
                if node.decision().is_some() {
                    assert_eq!(node.decision(), Some(v));
                    assert_eq!(node.log().get(LogIndex(1)).unwrap().command.0, v);
                }
            }
        }
    }
}
