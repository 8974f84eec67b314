//! Reliable delivery: deterministic retransmission with ack/dedup.
//!
//! The base network model ([`NetworkConfig`](crate::NetworkConfig) plus
//! the adversary ladder) is fire-and-forget: a dropped message is gone,
//! and PR 6 measured the consequence — the quorum-starve adversary floors
//! timer-free Ben-Or at 0‰ eventual agreement, because a wiped broadcast
//! burst is never retried. The paper's reconciliator guarantee (§3,
//! Lemmas 5–6) is *eventual* agreement with probability 1, but that proof
//! assumes messages eventually arrive; consensus liveness fundamentally
//! requires eventually-reliable links (cf. the Ω failure-detector
//! derivation in "Simple CHT", which presumes quiescent reliable
//! communication).
//!
//! This module supplies the engine half of that assumption as an
//! **opt-in** layer behind [`SimBuilder::reliability`]:
//!
//! - **Per-(sender, recipient) send buffers** with monotonic sequence
//!   numbers starting at 1. Every non-self unicast is registered before
//!   it first touches the network.
//! - **Cumulative + selective acks.** Each delivered (or
//!   duplicate-suppressed) message is acknowledged with the receiver's
//!   cumulative high-water mark `cum` (all seqs `≤ cum` received) plus
//!   the individual `seq` that triggered the ack, so a single lost ack
//!   is repaired by any later ack on the pair and a re-ack on a
//!   suppressed duplicate covers the lost-ack case directly.
//! - **Duplicate suppression.** The receive side tracks `cum` plus an
//!   out-of-order set; a second copy of any seq is counted as
//!   `messages.dropped.duplicate_suppressed` and never re-invokes the
//!   process, making delivery effectively exactly-once *above* this
//!   layer while the wire stays at-least-once.
//! - **Deterministic exponential backoff with seeded jitter.** Each pair
//!   carries an RTO that doubles per retransmission up to `rto_max` and
//!   resets on ack progress; deadlines add a jitter draw from a
//!   dedicated [`SplitMix64`] stream derived from the master seed
//!   (stream `u64::MAX - 1`), so enabling reliability never perturbs the
//!   per-process or routing streams and `--jobs 1 ≡ --jobs N`
//!   byte-identity survives.
//! - **Bounded occupancy with graceful degradation.** A sender buffers at
//!   most `buffer_capacity` unacked messages across all its pairs; at
//!   capacity the *oldest registered* unacked entry is evicted (counted
//!   as `messages.evicted`, traced as [`TraceEvent::Evict`]) — never a
//!   panic, never unbounded memory.
//!
//! Both policies run through the engine's one send path. Under
//! `Retransmit` a first send is registered here and its copies are tagged
//! with their pair sequence number; a retransmission re-enters the same
//! path with its existing seq. Under `Off` nothing is registered, tagged
//! or drawn from the reliability stream: a dropped message is gone.
//!
//! [`SimBuilder::reliability`]: crate::SimBuilder::reliability
//! [`TraceEvent::Evict`]: crate::TraceEvent::Evict

use crate::process::Payload;
use crate::rng::SplitMix64;
use crate::{ProcessId, SimTime};
use std::collections::{BTreeMap, BTreeSet};

/// Whether the engine retransmits unacknowledged messages.
///
/// `Off` (the default) is fire-and-forget delivery; `Retransmit` adds
/// acks, deduplication and retransmission on top of the same send path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReliabilityPolicy {
    /// Fire-and-forget: a message the network drops is gone.
    #[default]
    Off,
    /// Ack/retransmit with deterministic backoff per [`RetransmitConfig`].
    Retransmit(RetransmitConfig),
}

impl ReliabilityPolicy {
    /// Returns true when retransmission is enabled.
    pub fn is_on(&self) -> bool {
        matches!(self, ReliabilityPolicy::Retransmit(_))
    }
}

/// Tuning knobs for [`ReliabilityPolicy::Retransmit`].
///
/// All values are in simulated ticks; all defaults are sized against the
/// gray-failure zoo's flapping windows (period 60) so that a first retry
/// plus one backoff doubling straddles a starve window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetransmitConfig {
    /// Initial retransmission timeout per pair, in ticks.
    pub rto_initial: u64,
    /// Backoff ceiling: the pair RTO doubles per retransmission but
    /// never exceeds this.
    pub rto_max: u64,
    /// Jitter added to each deadline: a seeded uniform draw from
    /// `[0, rto * jitter_permille / 1000]`.
    pub jitter_permille: u64,
    /// Retransmissions per message before it is abandoned (counted as
    /// `reliable.retry_exhausted`).
    pub max_retries: u32,
    /// Maximum unacked messages buffered per *sender process* across all
    /// its pairs; at capacity the oldest registered entry is evicted.
    pub buffer_capacity: usize,
    /// Delay in ticks between a delivery and its ack being sent.
    pub ack_delay: u64,
}

impl Default for RetransmitConfig {
    fn default() -> Self {
        RetransmitConfig {
            rto_initial: 50,
            rto_max: 800,
            jitter_permille: 250,
            max_retries: 10,
            buffer_capacity: 1024,
            ack_delay: 1,
        }
    }
}

impl RetransmitConfig {
    /// A retransmission deadline one jittered `rto` after `now`, the
    /// jitter drawn uniformly from `[0, rto * jitter_permille / 1000]`.
    /// The arithmetic saturates, so no knob value can overflow it.
    fn deadline(&self, rng: &mut SplitMix64, now: SimTime, rto: u64) -> SimTime {
        let jitter = rng.below(rto.saturating_mul(self.jitter_permille) / 1000 + 1);
        SimTime::from_ticks(now.ticks().saturating_add(rto.saturating_add(jitter)))
    }
}

/// One unacked message in a sender's buffer.
#[derive(Debug, Clone)]
struct InFlight<M> {
    msg: Payload<M>,
    /// When the next retransmission for this entry is due.
    deadline: SimTime,
    /// Retransmissions performed so far.
    retries: u32,
    /// Global registration order, for oldest-unacked eviction.
    reg: u64,
}

/// Send-side state for one directed (sender, recipient) pair.
#[derive(Debug, Clone)]
struct PairSend<M> {
    /// Next sequence number to assign (seqs start at 1).
    next_seq: u64,
    /// Current retransmission timeout; doubles per retransmit, resets to
    /// `rto_initial` on ack progress.
    rto: u64,
    /// Seqs and registration numbers are minted together and a crash
    /// empties the pair, so seq order here is registration order.
    unacked: BTreeMap<u64, InFlight<M>>,
}

impl<M> PairSend<M> {
    fn new(rto_initial: u64) -> Self {
        PairSend {
            next_seq: 1,
            rto: rto_initial,
            unacked: BTreeMap::new(),
        }
    }
}

/// Receive-side dedup state for one directed (sender, recipient) pair.
#[derive(Debug, Clone, Default)]
struct RecvState {
    /// Cumulative high-water mark: every seq `≤ cum` has been received.
    cum: u64,
    /// Received seqs above `cum` (holes below them still outstanding).
    out_of_order: BTreeSet<u64>,
}

/// Result of registering one outgoing message in the send buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Registered {
    /// Sequence number assigned to the new message.
    pub seq: u64,
    /// `(recipient, seq)` of the oldest-unacked entry evicted to make
    /// room, if the sender was at capacity.
    pub evicted: Option<(ProcessId, u64)>,
}

/// A retransmission due at a [`RetransmitCheck`](crate::EventKind) tick.
#[derive(Debug, Clone)]
pub(crate) struct DueRetransmit<M> {
    pub to: ProcessId,
    pub seq: u64,
    pub msg: Payload<M>,
    pub retries: u32,
}

/// Outcome of receiving one copy of `(from, seq)` on the dedup side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Received {
    /// False if this seq was already received (the copy must be
    /// suppressed, not delivered).
    pub fresh: bool,
    /// Cumulative high-water mark after processing, for the ack.
    pub cum: u64,
}

/// Engine-internal state for [`ReliabilityPolicy::Retransmit`].
///
/// Pair state lives in dense `n × n` tables indexed `from * n + to`.
/// Each sender keeps an ordered deadline index holding
/// `(deadline, to, seq)` for exactly its unacked entries, so the earliest
/// deadline is read rather than scanned, a check visits only the entries
/// that are due, and the index length is the sender's buffer occupancy.
/// Every container is ordered or dense, so iteration — and therefore the
/// order of RNG draws and scheduled events — is deterministic.
#[derive(Debug, Clone)]
pub(crate) struct ReliabilityState<M> {
    pub(crate) cfg: RetransmitConfig,
    /// Dedicated jitter/ack-loss stream: `master.derive(u64::MAX - 1)`.
    pub(crate) rng: SplitMix64,
    /// Ack loss probability, captured from the network's global
    /// `drop_probability` at build time (acks are engine control plane:
    /// they skip the adversary but still face ambient loss).
    pub(crate) ack_drop: f64,
    /// Number of processes: the side of the pair tables.
    n: usize,
    send: Vec<PairSend<M>>,
    recv: Vec<RecvState>,
    /// Per sender: `(deadline, to, seq)` of every unacked entry.
    deadlines: Vec<BTreeSet<(SimTime, ProcessId, u64)>>,
    /// Ticks at which a `RetransmitCheck` is already queued, per process.
    checks: Vec<BTreeSet<u64>>,
    /// Global registration counter for oldest-unacked eviction order.
    next_reg: u64,
}

impl<M: Clone> ReliabilityState<M> {
    pub(crate) fn new(mut cfg: RetransmitConfig, rng: SplitMix64, ack_drop: f64, n: usize) -> Self {
        // Sanitize once: a zero RTO would arm deadlines at the current
        // tick forever; graceful degradation means clamping, not
        // panicking, exactly like the buffer-capacity policy.
        cfg.rto_initial = cfg.rto_initial.max(1);
        cfg.rto_max = cfg.rto_max.max(cfg.rto_initial);
        ReliabilityState {
            cfg,
            rng,
            ack_drop,
            n,
            send: (0..n * n).map(|_| PairSend::new(cfg.rto_initial)).collect(),
            recv: vec![RecvState::default(); n * n],
            deadlines: vec![BTreeSet::new(); n],
            checks: vec![BTreeSet::new(); n],
            next_reg: 0,
        }
    }

    /// Index of the `from → to` pair in the dense tables.
    fn pair(&self, from: ProcessId, to: ProcessId) -> usize {
        from.index() * self.n + to.index()
    }

    /// Registers one outgoing `from → to` message, assigning its seq and
    /// arming its first retransmission deadline. Evicts the sender's
    /// oldest unacked entry first when at capacity.
    pub(crate) fn register(
        &mut self,
        now: SimTime,
        from: ProcessId,
        to: ProcessId,
        msg: &Payload<M>,
    ) -> Registered {
        let mut evicted = None;
        if self.buffered(from) >= self.cfg.buffer_capacity {
            evicted = self.evict_oldest(from);
        }
        let reg = self.next_reg;
        self.next_reg += 1;
        let i = self.pair(from, to);
        let pair = &mut self.send[i];
        let seq = pair.next_seq;
        pair.next_seq += 1;
        let deadline = self.cfg.deadline(&mut self.rng, now, pair.rto);
        pair.unacked.insert(
            seq,
            InFlight {
                msg: msg.clone(),
                deadline,
                retries: 0,
                reg,
            },
        );
        self.deadlines[from.index()].insert((deadline, to, seq));
        Registered { seq, evicted }
    }

    /// Removes the oldest-registered unacked entry across all of `from`'s
    /// pairs. Returns its `(recipient, seq)`.
    ///
    /// Seq order is registration order within a pair, so the oldest
    /// entry is the least-registered among the pairs' first entries.
    fn evict_oldest(&mut self, from: ProcessId) -> Option<(ProcessId, u64)> {
        let row = &mut self.send[from.index() * self.n..][..self.n];
        let (_, to) = row
            .iter()
            .enumerate()
            .filter_map(|(to, pair)| Some((pair.unacked.first_key_value()?.1.reg, to)))
            .min()?;
        let (seq, entry) = row[to].unacked.pop_first()?;
        let to = ProcessId(to);
        self.deadlines[from.index()].remove(&(entry.deadline, to, seq));
        Some((to, seq))
    }

    /// Applies an ack at the original sender `sender` from `acker`:
    /// drops every unacked seq `≤ cum` plus the selective `seq`. On any
    /// progress the pair RTO resets to `rto_initial`. Returns how many
    /// entries were retired.
    pub(crate) fn apply_ack(
        &mut self,
        sender: ProcessId,
        acker: ProcessId,
        cum: u64,
        seq: u64,
    ) -> u64 {
        let i = self.pair(sender, acker);
        let pair = &mut self.send[i];
        let index = &mut self.deadlines[sender.index()];
        let mut retired = 0;
        while let Some(first) = pair.unacked.first_entry() {
            if *first.key() > cum {
                break;
            }
            let (s, entry) = first.remove_entry();
            index.remove(&(entry.deadline, acker, s));
            retired += 1;
        }
        if let Some(entry) = pair.unacked.remove(&seq) {
            index.remove(&(entry.deadline, acker, seq));
            retired += 1;
        }
        if retired > 0 {
            pair.rto = self.cfg.rto_initial;
        }
        retired
    }

    /// Processes one received copy of `(from → to, seq)` on the dedup
    /// side: fresh copies advance the cumulative mark, duplicates are
    /// flagged for suppression. Either way the returned `cum` is what the
    /// ack should carry.
    pub(crate) fn receive(&mut self, from: ProcessId, to: ProcessId, seq: u64) -> Received {
        let i = self.pair(from, to);
        let st = &mut self.recv[i];
        if seq <= st.cum || st.out_of_order.contains(&seq) {
            return Received {
                fresh: false,
                cum: st.cum,
            };
        }
        st.out_of_order.insert(seq);
        while st.out_of_order.remove(&(st.cum + 1)) {
            st.cum += 1;
        }
        Received {
            fresh: true,
            cum: st.cum,
        }
    }

    /// Earliest retransmission deadline across all of `p`'s pairs, if it
    /// has anything buffered.
    pub(crate) fn earliest_deadline(&self, p: ProcessId) -> Option<SimTime> {
        self.deadlines[p.index()]
            .first()
            .map(|&(deadline, _, _)| deadline)
    }

    /// Records that a `RetransmitCheck` for `p` should fire at `tick`.
    /// Returns true when the caller must actually schedule the event —
    /// i.e. `tick` precedes every check already queued (the invariant is
    /// `min(checks[p]) ≤ min(deadlines of p)`, so a later tick is
    /// already covered).
    pub(crate) fn note_check(&mut self, p: ProcessId, tick: u64) -> bool {
        let set = &mut self.checks[p.index()];
        let needed = set.first().is_none_or(|&first| tick < first);
        if needed {
            set.insert(tick);
        }
        needed
    }

    /// Consumes the check tick when its event pops (stale ticks — e.g.
    /// cleared by a crash — are simply absent).
    pub(crate) fn pop_check(&mut self, p: ProcessId, tick: u64) {
        self.checks[p.index()].remove(&tick);
    }

    /// Collects everything due at `now` for sender `p`: entries past
    /// their deadline are either returned for retransmission (retries
    /// bumped, pair RTO doubled toward `rto_max`, new jittered deadline
    /// armed) or retired as exhausted when `max_retries` is spent.
    /// Returns `(to_retransmit, exhausted_count)`.
    pub(crate) fn due(&mut self, p: ProcessId, now: SimTime) -> (Vec<DueRetransmit<M>>, u64) {
        let index = &mut self.deadlines[p.index()];
        let mut keys = Vec::new();
        while let Some(&(deadline, to, seq)) = index.first() {
            if deadline > now {
                break;
            }
            index.pop_first();
            keys.push((to, seq));
        }
        // The index yields deadline order, but retries, backoff and
        // jitter draws go in (to, seq) order.
        keys.sort_unstable();
        let mut out = Vec::with_capacity(keys.len());
        let mut exhausted = 0u64;
        for (to, seq) in keys {
            let i = self.pair(p, to);
            let pair = &mut self.send[i];
            let entry = pair.unacked.get_mut(&seq).expect("indexed entry exists");
            if entry.retries >= self.cfg.max_retries {
                pair.unacked.remove(&seq);
                exhausted += 1;
                continue;
            }
            entry.retries += 1;
            pair.rto = pair.rto.saturating_mul(2).min(self.cfg.rto_max);
            entry.deadline = self.cfg.deadline(&mut self.rng, now, pair.rto);
            self.deadlines[p.index()].insert((entry.deadline, to, seq));
            out.push(DueRetransmit {
                to,
                seq,
                msg: entry.msg.clone(),
                retries: entry.retries,
            });
        }
        (out, exhausted)
    }

    /// Number of unacked entries buffered by sender `p`.
    pub(crate) fn buffered(&self, p: ProcessId) -> usize {
        self.deadlines[p.index()].len()
    }

    /// Clears all of `p`'s reliability state on crash: its send buffers
    /// (a crashed process retransmits nothing), its receive dedup state
    /// (a restart is a new incarnation), and its queued check ticks
    /// (already-queued events become harmless husks). A reset pair is a
    /// fresh one: seqs restart at 1 and the RTO at `rto_initial`.
    pub(crate) fn on_crash(&mut self, p: ProcessId) {
        let n = self.n;
        for pair in &mut self.send[p.index() * n..][..n] {
            *pair = PairSend::new(self.cfg.rto_initial);
        }
        for from in 0..n {
            self.recv[from * n + p.index()] = RecvState::default();
        }
        self.deadlines[p.index()].clear();
        self.checks[p.index()].clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(cfg: RetransmitConfig) -> ReliabilityState<u64> {
        ReliabilityState::new(cfg, SplitMix64::new(7).derive(u64::MAX - 1), 0.0, 4)
    }

    fn no_jitter() -> RetransmitConfig {
        RetransmitConfig {
            jitter_permille: 0,
            ..RetransmitConfig::default()
        }
    }

    #[test]
    fn seqs_are_monotonic_per_pair() {
        let mut s = state(no_jitter());
        let p0 = ProcessId(0);
        let p1 = ProcessId(1);
        let p2 = ProcessId(2);
        let m = Payload::Owned(9u64);
        assert_eq!(s.register(SimTime::ZERO, p0, p1, &m).seq, 1);
        assert_eq!(s.register(SimTime::ZERO, p0, p1, &m).seq, 2);
        // A different pair has its own sequence space.
        assert_eq!(s.register(SimTime::ZERO, p0, p2, &m).seq, 1);
        assert_eq!(s.buffered(p0), 3);
    }

    #[test]
    fn cumulative_ack_retires_prefix_and_selective_seq() {
        let mut s = state(no_jitter());
        let p0 = ProcessId(0);
        let p1 = ProcessId(1);
        let m = Payload::Owned(0u64);
        for _ in 0..5 {
            s.register(SimTime::ZERO, p0, p1, &m);
        }
        // Ack cum=2 plus selective seq=4: retires 1, 2, 4.
        assert_eq!(s.apply_ack(p0, p1, 2, 4), 3);
        assert_eq!(s.buffered(p0), 2);
        // Re-acking is idempotent.
        assert_eq!(s.apply_ack(p0, p1, 2, 4), 0);
        assert_eq!(s.apply_ack(p0, p1, 5, 5), 2);
        assert_eq!(s.buffered(p0), 0);
    }

    #[test]
    fn receive_dedups_and_advances_cumulative_mark() {
        let mut s = state(no_jitter());
        let p0 = ProcessId(0);
        let p1 = ProcessId(1);
        // Out of order: 2 before 1.
        let r = s.receive(p0, p1, 2);
        assert!(r.fresh);
        assert_eq!(r.cum, 0);
        let r = s.receive(p0, p1, 1);
        assert!(r.fresh);
        assert_eq!(r.cum, 2);
        // Duplicates of both are suppressed but still report cum.
        let r = s.receive(p0, p1, 1);
        assert!(!r.fresh);
        assert_eq!(r.cum, 2);
        let r = s.receive(p0, p1, 2);
        assert!(!r.fresh);
        // Gap: 5 arrives, cum stays at 2 until 3 and 4 fill in.
        assert_eq!(s.receive(p0, p1, 5).cum, 2);
        assert_eq!(s.receive(p0, p1, 3).cum, 3);
        assert_eq!(s.receive(p0, p1, 4).cum, 5);
    }

    #[test]
    fn due_applies_backoff_and_exhaustion() {
        let cfg = RetransmitConfig {
            rto_initial: 10,
            rto_max: 25,
            max_retries: 2,
            ..no_jitter()
        };
        let mut s = state(cfg);
        let p0 = ProcessId(0);
        let p1 = ProcessId(1);
        s.register(SimTime::ZERO, p0, p1, &Payload::Owned(42u64));
        assert_eq!(s.earliest_deadline(p0), Some(SimTime::from_ticks(10)));
        // Not due yet.
        let (r, ex) = s.due(p0, SimTime::from_ticks(9));
        assert!(r.is_empty());
        assert_eq!(ex, 0);
        // First retransmission: rto doubles 10 → 20.
        let (r, ex) = s.due(p0, SimTime::from_ticks(10));
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].retries, 1);
        assert_eq!(ex, 0);
        assert_eq!(s.earliest_deadline(p0), Some(SimTime::from_ticks(30)));
        // Second retransmission: rto capped 40 → 25.
        let (r, _) = s.due(p0, SimTime::from_ticks(30));
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].retries, 2);
        assert_eq!(s.earliest_deadline(p0), Some(SimTime::from_ticks(55)));
        // Third attempt exhausts the entry.
        let (r, ex) = s.due(p0, SimTime::from_ticks(55));
        assert!(r.is_empty());
        assert_eq!(ex, 1);
        assert_eq!(s.buffered(p0), 0);
        assert_eq!(s.earliest_deadline(p0), None);
    }

    #[test]
    fn due_draws_jitter_in_recipient_then_seq_order() {
        // The entry to p2 is registered first and falls due first, but
        // due entries are processed — and their jitter drawn — in
        // (to, seq) order, so p1's retransmission comes first and takes
        // the earlier draw.
        let cfg = RetransmitConfig {
            rto_initial: 10,
            rto_max: 1000,
            jitter_permille: 200,
            ..RetransmitConfig::default()
        };
        let mut s = state(cfg);
        let mut replica = SplitMix64::new(7).derive(u64::MAX - 1);
        let (p0, p1, p2) = (ProcessId(0), ProcessId(1), ProcessId(2));
        let m = Payload::Owned(0u64);
        s.register(SimTime::ZERO, p0, p2, &m);
        let j_p2 = replica.below(3);
        s.register(SimTime::from_ticks(5), p0, p1, &m);
        let j_p1 = replica.below(3);
        assert!(10 + j_p2 < 15 + j_p1, "the p2 entry must fall due first");
        let (r, _) = s.due(p0, SimTime::from_ticks(20));
        let order: Vec<ProcessId> = r.iter().map(|d| d.to).collect();
        assert_eq!(order, vec![p1, p2]);
        // Both pair RTOs doubled to 20; the draws follow the same order.
        let (first, second) = (replica.below(5), replica.below(5));
        assert_ne!(first, second, "the check needs two distinct draws");
        let mut rearmed = Vec::new();
        for t in 21..=60 {
            for d in s.due(p0, SimTime::from_ticks(t)).0 {
                rearmed.push((d.to, t));
            }
        }
        rearmed.sort();
        assert_eq!(rearmed, vec![(p1, 40 + first), (p2, 40 + second)]);
    }

    #[test]
    fn capacity_evicts_oldest_registered_across_pairs() {
        let cfg = RetransmitConfig {
            buffer_capacity: 2,
            ..no_jitter()
        };
        let mut s = state(cfg);
        let p0 = ProcessId(0);
        let m = Payload::Owned(0u64);
        let a = s.register(SimTime::ZERO, p0, ProcessId(1), &m);
        assert_eq!(a.evicted, None);
        let b = s.register(SimTime::ZERO, p0, ProcessId(2), &m);
        assert_eq!(b.evicted, None);
        // Third registration evicts the oldest (p1, seq 1).
        let c = s.register(SimTime::ZERO, p0, ProcessId(1), &m);
        assert_eq!(c.evicted, Some((ProcessId(1), 1)));
        assert_eq!(c.seq, 2);
        assert_eq!(s.buffered(p0), 2);
        // Another sender is unaffected by p0's capacity.
        assert_eq!(s.register(SimTime::ZERO, ProcessId(3), ProcessId(1), &m).evicted, None);

        // The oldest entry can live in a higher-numbered pair: once an
        // ack retires p1's first entry, p2's seq 1 is the oldest left.
        let mut s = state(RetransmitConfig {
            buffer_capacity: 3,
            ..no_jitter()
        });
        s.register(SimTime::ZERO, p0, ProcessId(1), &m);
        s.register(SimTime::ZERO, p0, ProcessId(2), &m);
        s.register(SimTime::ZERO, p0, ProcessId(1), &m);
        assert_eq!(s.apply_ack(p0, ProcessId(1), 1, 1), 1);
        assert_eq!(
            s.register(SimTime::ZERO, p0, ProcessId(1), &m).evicted,
            None
        );
        let d = s.register(SimTime::ZERO, p0, ProcessId(3), &m);
        assert_eq!(d.evicted, Some((ProcessId(2), 1)));
        assert_eq!(s.buffered(p0), 3);
    }

    /// Asserts the index invariant: each sender's deadline index holds
    /// exactly `(deadline, to, seq)` of its unacked entries, and seq
    /// order is registration order within every pair.
    fn assert_indexed(s: &ReliabilityState<u64>) {
        for from in 0..s.n {
            let mut expected = BTreeSet::new();
            for to in 0..s.n {
                let pair = &s.send[from * s.n + to];
                let regs: Vec<u64> = pair.unacked.values().map(|e| e.reg).collect();
                assert!(regs.windows(2).all(|w| w[0] < w[1]), "pair {from}→{to}");
                for (&seq, e) in &pair.unacked {
                    expected.insert((e.deadline, ProcessId(to), seq));
                }
            }
            assert_eq!(s.deadlines[from], expected, "sender {from}");
        }
    }

    #[test]
    fn deadline_index_tracks_every_unacked_entry() {
        // Random registrations at a capacity that evicts, acks near each
        // pair's newest seq, checks with a retry budget that exhausts,
        // and crashes: the index must match the buffers after each step.
        let cfg = RetransmitConfig {
            rto_initial: 3,
            rto_max: 20,
            jitter_permille: 1000,
            max_retries: 2,
            buffer_capacity: 5,
            ack_delay: 1,
        };
        let mut s = state(cfg);
        let mut rng = SplitMix64::new(99);
        let m = Payload::Owned(0u64);
        let (mut now, mut evicted, mut exhausted) = (0, 0, 0);
        for _ in 0..5_000 {
            now += rng.below(3);
            let t = SimTime::from_ticks(now);
            let a = ProcessId(rng.below(4) as usize);
            let b = ProcessId((a.index() + 1 + rng.below(3) as usize) % 4);
            match rng.below(10) {
                0..=4 => evicted += u64::from(s.register(t, a, b, &m).evicted.is_some()),
                5..=6 => {
                    let next = s.send[s.pair(a, b)].next_seq;
                    let cum = next.saturating_sub(1 + rng.below(4));
                    let seq = next.saturating_sub(rng.below(4));
                    s.apply_ack(a, b, cum, seq);
                }
                7..=8 => exhausted += s.due(a, t).1,
                _ => s.on_crash(a),
            }
            assert_indexed(&s);
        }
        assert!(
            evicted > 0 && exhausted > 0,
            "{evicted} evictions, {exhausted} exhaustions"
        );
    }

    #[test]
    fn check_ticks_dedup_and_pop() {
        let mut s = state(no_jitter());
        let p = ProcessId(0);
        assert!(s.note_check(p, 50));
        // A later tick is covered by the earlier one.
        assert!(!s.note_check(p, 60));
        // An earlier tick must be scheduled.
        assert!(s.note_check(p, 40));
        s.pop_check(p, 40);
        s.pop_check(p, 50);
        assert!(s.note_check(p, 55));
    }

    #[test]
    fn crash_clears_sender_receiver_and_checks() {
        let mut s = state(no_jitter());
        let p0 = ProcessId(0);
        let p1 = ProcessId(1);
        let m = Payload::Owned(0u64);
        s.register(SimTime::ZERO, p0, p1, &m);
        s.receive(p1, p0, 1);
        s.note_check(p0, 50);
        s.on_crash(p0);
        assert_eq!(s.buffered(p0), 0);
        assert_eq!(s.earliest_deadline(p0), None);
        // Receive state addressed *to* p0 was cleared: seq 1 from p1 is
        // fresh again for the new incarnation.
        assert!(s.receive(p1, p0, 1).fresh);
        // Sequence space restarts for the new incarnation's sends.
        assert_eq!(s.register(SimTime::ZERO, p0, p1, &m).seq, 1);
    }

    #[test]
    fn jitter_draws_are_deterministic_and_bounded() {
        let cfg = RetransmitConfig {
            rto_initial: 100,
            jitter_permille: 250,
            ..RetransmitConfig::default()
        };
        let mut a = state(cfg);
        let mut b = state(cfg);
        for _ in 0..64 {
            let da = a.cfg.deadline(&mut a.rng, SimTime::ZERO, 100);
            let db = b.cfg.deadline(&mut b.rng, SimTime::ZERO, 100);
            assert_eq!(da, db);
            assert!((100..=125).contains(&da.ticks()));
        }
    }
}
