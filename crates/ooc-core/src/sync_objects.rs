//! Protocol-object traits for the lock-step synchronous model.
//!
//! In the synchronous model (Phase-King, §4.1) an object invocation spans a
//! fixed number of lock-step *steps*. Step `k` consumes the messages the
//! object's peers sent in their step `k − 1` and emits this step's sends;
//! the final step returns the outcome. The synchronous template
//! ([`crate::sync_template`]) lines the steps up across the network and
//! chains objects back-to-back.

use ooc_simnet::{ProcessId, SplitMix64};
use std::fmt::Debug;

/// The per-step handle a [`SyncObject`] uses to send messages.
#[derive(Debug)]
pub struct SyncObjCtx<'a, M> {
    me: ProcessId,
    n: usize,
    rng: &'a mut SplitMix64,
    outbox: &'a mut Vec<(ProcessId, M)>,
}

impl<'a, M: Clone> SyncObjCtx<'a, M> {
    /// Creates a context; used by templates and test drivers.
    pub fn new(
        me: ProcessId,
        n: usize,
        rng: &'a mut SplitMix64,
        outbox: &'a mut Vec<(ProcessId, M)>,
    ) -> Self {
        SyncObjCtx { me, n, rng, outbox }
    }

    /// The invoking processor's id.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// Network size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The processor's deterministic RNG.
    pub fn rng(&mut self) -> &mut SplitMix64 {
        self.rng
    }

    /// Sends to one processor (delivered at the peers' next step).
    pub fn send(&mut self, to: ProcessId, msg: M) {
        self.outbox.push((to, msg));
    }

    /// Sends to every processor including the caller.
    pub fn broadcast(&mut self, msg: M) {
        // Grow once to the broadcast's size, not by doubling: a template
        // reuses the outbox, so this sizes it for the rest of the run.
        self.outbox.reserve(self.n);
        for i in 0..self.n {
            self.outbox.push((ProcessId(i), msg.clone()));
        }
    }
}

/// A protocol object in the lock-step synchronous model.
///
/// Contract:
/// * the object occupies exactly [`SyncObject::steps`] steps;
/// * step `0` receives an empty inbox;
/// * step `k` (`k > 0`) receives the messages peers sent in step `k − 1`;
/// * the final step (`k == steps() − 1`) returns `Some(outcome)` and must
///   not send (so the template can chain the next object into the same
///   network round);
/// * earlier steps return `None`.
pub trait SyncObject {
    /// Proposal/decision value type.
    type Value: Clone + Debug + PartialEq;
    /// Protocol message type.
    type Msg: Clone + Debug;
    /// What the final step returns.
    type Outcome;

    /// Number of lock-step steps this object occupies (≥ 1).
    fn steps(&self) -> u64;

    /// Executes step `k`. `input` is the processor's proposal for this
    /// invocation (constant across the steps).
    fn step(
        &mut self,
        k: u64,
        input: &Self::Value,
        inbox: &[(ProcessId, Self::Msg)],
        ctx: &mut SyncObjCtx<'_, Self::Msg>,
    ) -> Option<Self::Outcome>;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two-step echo: broadcast the input, return how many copies arrived.
    #[derive(Debug)]
    struct Echo;
    impl SyncObject for Echo {
        type Value = u64;
        type Msg = u64;
        type Outcome = usize;
        fn steps(&self) -> u64 {
            2
        }
        fn step(
            &mut self,
            k: u64,
            input: &u64,
            inbox: &[(ProcessId, u64)],
            ctx: &mut SyncObjCtx<'_, u64>,
        ) -> Option<usize> {
            if k == 0 {
                ctx.broadcast(*input);
                None
            } else {
                Some(inbox.len())
            }
        }
    }

    #[test]
    fn ctx_broadcast_and_send() {
        let mut rng = SplitMix64::new(1);
        let mut outbox = Vec::new();
        let mut ctx = SyncObjCtx::new(ProcessId(0), 3, &mut rng, &mut outbox);
        ctx.broadcast(9);
        ctx.send(ProcessId(2), 1);
        assert_eq!(outbox.len(), 4);
        assert_eq!(outbox[3], (ProcessId(2), 1));
    }

    #[test]
    fn object_steps_contract() {
        let mut obj = Echo;
        let mut rng = SplitMix64::new(1);
        let mut outbox = Vec::new();
        let mut ctx = SyncObjCtx::new(ProcessId(0), 3, &mut rng, &mut outbox);
        assert_eq!(obj.steps(), 2);
        assert_eq!(obj.step(0, &7, &[], &mut ctx), None);
        assert_eq!(outbox.len(), 3);
        let inbox = vec![(ProcessId(1), 7u64), (ProcessId(2), 7)];
        let mut outbox2 = Vec::new();
        let mut ctx2 = SyncObjCtx::new(ProcessId(0), 3, &mut rng, &mut outbox2);
        assert_eq!(obj.step(1, &7, &inbox, &mut ctx2), Some(2));
        assert!(outbox2.is_empty(), "final step must not send");
    }
}
