//! The asynchronous process model: [`Process`] and its [`Context`].

use crate::rng::SplitMix64;
use crate::storage::StableStore;
use crate::time::{SimDuration, SimTime};
use crate::{ProcessId, TimerId};
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::fmt::Debug;

/// A reactive process running on the asynchronous engine.
///
/// Processes are state machines: the engine invokes the handlers below and
/// the process responds by mutating its own state and issuing sends, timers
/// and (at most one) decision through the [`Context`].
///
/// The trait is object-safe; heterogeneous networks are built from
/// `Box<dyn Process<Msg = M, Output = O>>`.
pub trait Process {
    /// The message type exchanged on the network.
    type Msg: Clone + Debug;
    /// The type of the value this process may decide.
    type Output: Clone + Debug + PartialEq;

    /// Invoked once at time zero, before any delivery.
    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Output>);

    /// Invoked for each delivered message.
    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Self::Msg, Self::Output>,
        from: ProcessId,
        msg: Self::Msg,
    );

    /// Invoked when a timer set through [`Context::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Output>, timer: TimerId);

    /// Invoked when the process recovers from a crash.
    ///
    /// In-memory state set before the crash is still present (the process
    /// value itself survives); implementations must treat it as *volatile*
    /// and rebuild anything durable from [`Context::storage`], which holds
    /// exactly the records that survived the crash under the process's
    /// [`StoragePolicy`](crate::StoragePolicy). Pending timers set before
    /// the crash are cancelled by the engine.
    fn on_restart(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Output>) {
        let _ = ctx;
    }

    /// Reports a read-only snapshot of this process's protocol observables
    /// for state-adaptive adversaries
    /// ([`StateAdversary`](crate::StateAdversary)).
    ///
    /// The default reports nothing, which makes every protocol opaque to
    /// state adversaries unless it opts in. Implementations must only
    /// *read* state — the engine may call this at any point between
    /// handler invocations.
    fn observe(&self) -> ProtocolObservation {
        ProtocolObservation::default()
    }
}

/// A read-only snapshot of one process's protocol state, as reported by
/// [`Process::observe`].
///
/// The fields mirror the observables failure-detector-style adversary
/// analyses assume: the round/phase a process has reached, its current
/// leaning in a binary consensus, and whether it has decided. Protocols
/// with non-binary values simply leave `preference`/`decided` as `None`
/// (the adversary then only sees round structure).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProtocolObservation {
    /// The protocol round the process is currently executing.
    pub round: u64,
    /// A protocol-specific phase tag within the round (for the paper's
    /// template: 0 = agreement detector, 1 = shaker, 2 = halted).
    pub phase: u8,
    /// The process's current binary preference, if it exposes one.
    pub preference: Option<bool>,
    /// The process's decided binary value, if it has decided one.
    pub decided: Option<bool>,
}

/// Size threshold (in bytes) above which broadcast payloads are
/// interned behind an `Arc` instead of deep-cloned per recipient.
///
/// One shared gate for every broadcast fan-out — the asynchronous
/// engine's [`Context::broadcast`]/[`Context::broadcast_others`] and the
/// synchronous engine's `SyncContext::broadcast` all route through
/// [`Payload::intern_broadcasts`], which combines this threshold with a
/// `needs_drop` check. 64 bytes is a cache line: anything that fits
/// copies faster than it refcounts.
pub(crate) const INTERN_BYTES: usize = 64;

/// A message payload as buffered by the engine: either owned outright
/// (unicast and self-sends pay zero overhead) or interned behind an
/// `Arc` so an n-recipient broadcast stores one allocation instead of
/// n deep clones.
#[derive(Debug, Clone)]
pub(crate) enum Payload<M> {
    /// A payload with a single recipient.
    Owned(M),
    /// A broadcast payload shared by several in-flight copies.
    Shared(std::sync::Arc<M>),
}

impl<M: Clone> Payload<M> {
    /// Whether broadcasts of `M` should intern behind an `Arc`.
    ///
    /// Interning trades one allocation plus refcount traffic for n−1
    /// deep clones, which only pays off when a clone is itself
    /// expensive: the message owns heap resources (`needs_drop` — a
    /// `String`, a `Vec` of log entries) or is simply larger than
    /// [`INTERN_BYTES`]. Small plain-old-data payloads copy faster than
    /// they refcount, so they stay owned. Both operands are compile-time
    /// constants, so the branch folds away per message type.
    pub(crate) fn intern_broadcasts() -> bool {
        std::mem::needs_drop::<M>() || std::mem::size_of::<M>() > INTERN_BYTES
    }

    /// Borrows the message, e.g. for adversary routing or trace capture.
    pub(crate) fn as_msg(&self) -> &M {
        match self {
            Payload::Owned(m) => m,
            Payload::Shared(a) => a,
        }
    }

    /// Extracts the message for handler delivery, cloning only while
    /// other in-flight copies still share the allocation — the last
    /// recipient unwraps the `Arc` for free.
    pub(crate) fn into_msg(self) -> M {
        match self {
            Payload::Owned(m) => m,
            Payload::Shared(a) => {
                std::sync::Arc::try_unwrap(a).unwrap_or_else(|a| (*a).clone())
            }
        }
    }
}

/// An outgoing message collected during a handler invocation.
#[derive(Debug, Clone)]
pub(crate) struct Outgoing<M> {
    pub to: ProcessId,
    pub msg: Payload<M>,
}

/// A buffered storage operation, applied by the engine after the handler
/// returns (before the invocation's sends become visible).
#[derive(Debug, Clone)]
pub(crate) enum StorageOp {
    /// Append one key/value record to the process's [`StableStore`].
    Put {
        key: Cow<'static, str>,
        value: Vec<u8>,
    },
    /// Move the store's synced watermark to the end of the log.
    Sync,
}

/// Effects collected from one handler invocation; drained by the engine.
#[derive(Debug)]
pub(crate) struct Effects<M, O> {
    pub outbox: Vec<Outgoing<M>>,
    pub timer_requests: Vec<(TimerId, SimDuration)>,
    pub cancelled: Vec<TimerId>,
    pub storage: Vec<StorageOp>,
    pub decision: Option<O>,
    pub halted: bool,
}

impl<M, O> Default for Effects<M, O> {
    fn default() -> Self {
        Effects {
            outbox: Vec::new(),
            timer_requests: Vec::new(),
            cancelled: Vec::new(),
            storage: Vec::new(),
            decision: None,
            halted: false,
        }
    }
}

/// The handle a [`Process`] uses to interact with the simulated world.
///
/// A fresh context is constructed for every handler invocation; effects are
/// applied by the engine after the handler returns, in deterministic order.
#[derive(Debug)]
pub struct Context<'a, M, O> {
    me: ProcessId,
    n: usize,
    now: SimTime,
    rng: &'a mut SplitMix64,
    next_timer: &'a mut u64,
    live_timers: &'a BTreeSet<TimerId>,
    store: &'a StableStore,
    effects: &'a mut Effects<M, O>,
}

impl<'a, M: Clone, O> Context<'a, M, O> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        me: ProcessId,
        n: usize,
        now: SimTime,
        rng: &'a mut SplitMix64,
        next_timer: &'a mut u64,
        live_timers: &'a BTreeSet<TimerId>,
        store: &'a StableStore,
        effects: &'a mut Effects<M, O>,
    ) -> Self {
        Context {
            me,
            n,
            now,
            rng,
            next_timer,
            live_timers,
            store,
            effects,
        }
    }

    /// This process's id.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// Total number of processes in the network.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This process's private deterministic random number generator.
    pub fn rng(&mut self) -> &mut SplitMix64 {
        self.rng
    }

    /// Sends `msg` to `to`. Self-sends are permitted and are always
    /// delivered (never dropped or partitioned away).
    ///
    /// Delivery semantics are the engine's, not the caller's: under
    /// [`ReliabilityPolicy::Retransmit`](crate::ReliabilityPolicy) every
    /// non-self send is additionally tracked in the sender's reliable
    /// send buffer and retransmitted until acked, exhausted, or evicted
    /// — transparently to this API, with duplicates suppressed on the
    /// receive side so handlers still see each message at most once.
    pub fn send(&mut self, to: ProcessId, msg: M) {
        self.effects.outbox.push(Outgoing {
            to,
            msg: Payload::Owned(msg),
        });
    }

    /// Sends `msg` to every process **including this one**, matching the
    /// paper's `broadcast⟨v⟩` which lets senders count their own message.
    ///
    /// Clone-expensive payloads are interned: all `n` in-flight copies
    /// share one allocation instead of deep-cloning the message per
    /// recipient. Small plain-old-data messages are copied outright —
    /// see [`Payload::intern_broadcasts`].
    pub fn broadcast(&mut self, msg: M) {
        if Payload::<M>::intern_broadcasts() {
            let shared = std::sync::Arc::new(msg);
            for i in 0..self.n {
                self.effects.outbox.push(Outgoing {
                    to: ProcessId(i),
                    msg: Payload::Shared(std::sync::Arc::clone(&shared)),
                });
            }
        } else {
            for i in 0..self.n {
                self.effects.outbox.push(Outgoing {
                    to: ProcessId(i),
                    msg: Payload::Owned(msg.clone()),
                });
            }
        }
    }

    /// Sends `msg` to every *other* process. Interned like
    /// [`broadcast`](Context::broadcast).
    pub fn broadcast_others(&mut self, msg: M) {
        if Payload::<M>::intern_broadcasts() {
            let shared = std::sync::Arc::new(msg);
            for i in 0..self.n {
                if i != self.me.index() {
                    self.effects.outbox.push(Outgoing {
                        to: ProcessId(i),
                        msg: Payload::Shared(std::sync::Arc::clone(&shared)),
                    });
                }
            }
        } else {
            for i in 0..self.n {
                if i != self.me.index() {
                    self.effects.outbox.push(Outgoing {
                        to: ProcessId(i),
                        msg: Payload::Owned(msg.clone()),
                    });
                }
            }
        }
    }

    /// Schedules a timer to fire after `after` ticks; returns its handle.
    pub fn set_timer(&mut self, after: SimDuration) -> TimerId {
        let id = TimerId(*self.next_timer);
        *self.next_timer += 1;
        self.effects.timer_requests.push((id, after));
        id
    }

    /// Cancels a pending timer. Cancelling an already-fired or unknown
    /// timer is a no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.effects.cancelled.push(id);
    }

    /// Whether the timer is still pending (set, not fired, not cancelled
    /// before this handler ran).
    pub fn timer_pending(&self, id: TimerId) -> bool {
        self.live_timers.contains(&id)
            && !self.effects.cancelled.contains(&id)
    }

    /// This process's stable storage, as it stood when this handler was
    /// invoked. Writes issued through [`persist`](Context::persist) during
    /// the current invocation are buffered as effects and are *not* yet
    /// visible here; they land after the handler returns.
    pub fn storage(&self) -> &StableStore {
        self.store
    }

    /// Appends a key/value record to this process's stable storage.
    ///
    /// The write is buffered like a send and applied by the engine after
    /// the handler returns — *before* any of the invocation's outgoing
    /// messages become visible, so a process never tells the network
    /// something its storage does not know. Whether the record survives a
    /// crash before the next [`sync_storage`](Context::sync_storage)
    /// depends on the process's [`StoragePolicy`](crate::StoragePolicy).
    pub fn persist(&mut self, key: impl Into<Cow<'static, str>>, value: Vec<u8>) {
        self.effects.storage.push(StorageOp::Put {
            key: key.into(),
            value,
        });
    }

    /// Forces all records persisted so far to stable storage. After the
    /// sync lands, those records survive any crash short of
    /// [`Amnesia`](crate::StoragePolicy::Amnesia).
    pub fn sync_storage(&mut self) {
        self.effects.storage.push(StorageOp::Sync);
    }

    /// Records this process's decision. Only the first decision of a run is
    /// kept; later calls are ignored (processes such as Phase-King keep
    /// participating after deciding).
    pub fn decide(&mut self, value: O) {
        if self.effects.decision.is_none() {
            self.effects.decision = Some(value);
        }
    }

    /// Stops this process: no further handlers will be invoked on it.
    pub fn halt(&mut self) {
        self.effects.halted = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::storage::StoragePolicy;

    fn ctx_fixture() -> (SplitMix64, u64, BTreeSet<TimerId>, StableStore, Effects<u32, u32>) {
        ctx_fixture2::<u32>()
    }

    fn ctx_fixture2<M>() -> (SplitMix64, u64, BTreeSet<TimerId>, StableStore, Effects<M, u32>) {
        (
            SplitMix64::new(1),
            0,
            BTreeSet::new(),
            StableStore::new(StoragePolicy::SyncAlways),
            Effects::default(),
        )
    }

    #[test]
    fn broadcast_includes_self() {
        let (mut rng, mut nt, live, store, mut fx) = ctx_fixture();
        let mut ctx = Context::new(ProcessId(1), 3, SimTime::ZERO, &mut rng, &mut nt, &live, &store, &mut fx);
        ctx.broadcast(7);
        let tos: Vec<_> = fx.outbox.iter().map(|o| o.to.index()).collect();
        assert_eq!(tos, vec![0, 1, 2]);
    }

    #[test]
    fn broadcast_others_excludes_self() {
        let (mut rng, mut nt, live, store, mut fx) = ctx_fixture();
        let mut ctx = Context::new(ProcessId(1), 3, SimTime::ZERO, &mut rng, &mut nt, &live, &store, &mut fx);
        ctx.broadcast_others(7);
        let tos: Vec<_> = fx.outbox.iter().map(|o| o.to.index()).collect();
        assert_eq!(tos, vec![0, 2]);
    }

    #[test]
    fn broadcast_interns_one_allocation_for_clone_expensive_payloads() {
        // String owns heap memory (needs_drop), so broadcasting it must
        // intern: all three in-flight copies share one allocation.
        let (mut rng, mut nt, live, store, mut fx) = ctx_fixture2::<String>();
        let mut ctx = Context::new(ProcessId(1), 3, SimTime::ZERO, &mut rng, &mut nt, &live, &store, &mut fx);
        ctx.broadcast("seven".to_string());
        match &fx.outbox[0].msg {
            Payload::Shared(a) => assert_eq!(std::sync::Arc::strong_count(a), 3),
            Payload::Owned(_) => panic!("broadcast must intern a heap-owning payload"),
        }
        let seen: Vec<String> = fx.outbox.iter().map(|o| o.msg.as_msg().clone()).collect();
        assert_eq!(seen, vec!["seven", "seven", "seven"]);
        // Extraction yields the same message for every recipient (the
        // last one unwraps the Arc instead of cloning).
        let msgs: Vec<String> = fx.outbox.drain(..).map(|o| o.msg.into_msg()).collect();
        assert_eq!(msgs, vec!["seven", "seven", "seven"]);
    }

    #[test]
    fn intern_gate_is_needs_drop_or_over_intern_bytes() {
        // Pin the shared threshold and the exact gate shape: payloads
        // intern iff they need drop glue OR exceed INTERN_BYTES — a
        // payload of exactly INTERN_BYTES plain bytes stays owned, one
        // byte more interns.
        assert_eq!(INTERN_BYTES, 64);
        assert!(!Payload::<[u8; INTERN_BYTES]>::intern_broadcasts());
        assert!(Payload::<[u8; INTERN_BYTES + 1]>::intern_broadcasts());
        // needs_drop interns regardless of size (a Box is 8 bytes).
        assert!(Payload::<Box<u8>>::intern_broadcasts());
        assert!(std::mem::size_of::<Box<u8>>() <= INTERN_BYTES);
    }

    #[test]
    fn broadcast_copies_small_plain_payloads() {
        // A u32 copies faster than it refcounts, so the intern gate must
        // leave it owned — no Arc allocation on the broadcast path.
        assert!(!Payload::<u32>::intern_broadcasts());
        assert!(Payload::<String>::intern_broadcasts());
        assert!(Payload::<[u64; 16]>::intern_broadcasts()); // large POD
        let (mut rng, mut nt, live, store, mut fx) = ctx_fixture();
        let mut ctx = Context::new(ProcessId(1), 3, SimTime::ZERO, &mut rng, &mut nt, &live, &store, &mut fx);
        ctx.broadcast(7);
        for o in &fx.outbox {
            assert!(matches!(o.msg, Payload::Owned(7)));
        }
        assert_eq!(fx.outbox.len(), 3);
    }

    #[test]
    fn unicast_stays_owned() {
        let (mut rng, mut nt, live, store, mut fx) = ctx_fixture();
        let mut ctx = Context::new(ProcessId(0), 2, SimTime::ZERO, &mut rng, &mut nt, &live, &store, &mut fx);
        ctx.send(ProcessId(1), 9);
        assert!(matches!(fx.outbox[0].msg, Payload::Owned(9)));
    }

    #[test]
    fn first_decision_wins() {
        let (mut rng, mut nt, live, store, mut fx) = ctx_fixture();
        let mut ctx = Context::new(ProcessId(0), 1, SimTime::ZERO, &mut rng, &mut nt, &live, &store, &mut fx);
        ctx.decide(1);
        ctx.decide(2);
        assert_eq!(fx.decision, Some(1));
    }

    #[test]
    fn timer_ids_are_unique() {
        let (mut rng, mut nt, live, store, mut fx) = ctx_fixture();
        let mut ctx = Context::new(ProcessId(0), 1, SimTime::ZERO, &mut rng, &mut nt, &live, &store, &mut fx);
        let a = ctx.set_timer(SimDuration::from_ticks(1));
        let b = ctx.set_timer(SimDuration::from_ticks(1));
        assert_ne!(a, b);
        assert_eq!(fx.timer_requests.len(), 2);
    }

    #[test]
    fn timer_pending_reflects_live_set_and_cancellations() {
        let (mut rng, mut nt, mut live, store, mut fx) = ctx_fixture();
        live.insert(TimerId(5));
        let mut ctx = Context::new(ProcessId(0), 1, SimTime::ZERO, &mut rng, &mut nt, &live, &store, &mut fx);
        assert!(ctx.timer_pending(TimerId(5)));
        assert!(!ctx.timer_pending(TimerId(6)));
        ctx.cancel_timer(TimerId(5));
        assert!(!ctx.timer_pending(TimerId(5)));
    }

    #[test]
    fn persist_and_sync_are_buffered_as_effects() {
        let (mut rng, mut nt, live, store, mut fx) = ctx_fixture();
        let mut ctx = Context::new(ProcessId(0), 1, SimTime::ZERO, &mut rng, &mut nt, &live, &store, &mut fx);
        ctx.persist("k", vec![1, 2]);
        ctx.sync_storage();
        // Reads see the pre-invocation store, not the buffered write.
        assert!(ctx.storage().is_empty());
        assert_eq!(fx.storage.len(), 2);
        assert!(matches!(&fx.storage[0], StorageOp::Put { key, value } if key == "k" && value == &[1, 2]));
        assert!(matches!(&fx.storage[1], StorageOp::Sync));
    }
}
