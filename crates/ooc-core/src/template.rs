//! The generic consensus templates (paper Algorithms 1 and 2).
//!
//! Both templates repeat a two-step round: invoke an **agreement detector**
//! (VAC or AC), then — depending on the returned confidence — either keep
//! the value, consult a **shaker** (reconciliator or conciliator), or
//! decide. [`Template`] implements the round loop once; the two public
//! constructors select the paper's variants:
//!
//! * [`Template::vac`] (alias [`VacConsensus`]) — Algorithm 1:
//!   `vacillate → reconciliator`, `adopt → keep σ`, `commit → decide σ`.
//! * [`Template::ac`] (alias [`AcConsensus`]) — Algorithm 2:
//!   `adopt → conciliator`, `commit → decide σ`.
//!
//! The template is itself an [`ooc_simnet::Process`]: it tags every object
//! message with its round and component, buffers messages from rounds this
//! processor has not reached yet, and discards messages from rounds it has
//! already left (safe for full-information-per-round protocols à la
//! Ben-Or, where a processor only advances after hearing the quorum it
//! needs).

use crate::confidence::{Confidence, VacOutcome};
use crate::objects::{AcObject, ConciliatorObject, ObjectNet, ReconciliatorObject, VacObject};
use ooc_simnet::{
    Context, Process, ProcessId, ProtocolObservation, SimDuration, SimTime, SplitMix64, TimerId,
};
use std::any::Any;
use std::collections::BTreeMap;
use std::fmt::{self, Debug};

/// The environment a [`Template`] runs in.
///
/// The obvious host is the simulator's [`Context`] (every template *is*
/// an [`ooc_simnet::Process`]), but the template can equally run nested
/// inside another process — e.g. one slot of a
/// [`SequenceConsensus`](crate::sequence::SequenceConsensus) — with the
/// outer process translating sends and intercepting the decision.
pub trait TemplateHost<M, O> {
    /// This processor's id.
    fn me(&self) -> ProcessId;
    /// Network size.
    fn n(&self) -> usize;
    /// Current simulated time.
    fn now(&self) -> SimTime;
    /// The processor's deterministic RNG.
    fn rng(&mut self) -> &mut SplitMix64;
    /// Sends a template message.
    fn send(&mut self, to: ProcessId, msg: M);
    /// Sends a template message to every processor, this one included,
    /// in id order. The default sends to `0..n` one by one; an engine
    /// host fans out in one call.
    fn broadcast(&mut self, msg: M)
    where
        M: Clone,
    {
        for i in 0..self.n() {
            self.send(ProcessId(i), msg.clone());
        }
    }
    /// Schedules a timer.
    fn set_timer(&mut self, after: SimDuration) -> TimerId;
    /// Records the template's decision.
    fn decide(&mut self, value: O);
    /// Stops the template's processor (only meaningful for engine-level
    /// hosts; nested hosts may ignore it).
    fn halt(&mut self);
}

impl<M: Clone, O> TemplateHost<M, O> for Context<'_, M, O> {
    fn me(&self) -> ProcessId {
        Context::me(self)
    }
    fn n(&self) -> usize {
        Context::n(self)
    }
    fn now(&self) -> SimTime {
        Context::now(self)
    }
    fn rng(&mut self) -> &mut SplitMix64 {
        Context::rng(self)
    }
    fn send(&mut self, to: ProcessId, msg: M) {
        Context::send(self, to, msg)
    }
    fn broadcast(&mut self, msg: M) {
        Context::broadcast(self, msg)
    }
    fn set_timer(&mut self, after: SimDuration) -> TimerId {
        Context::set_timer(self, after)
    }
    fn decide(&mut self, value: O) {
        Context::decide(self, value)
    }
    fn halt(&mut self) {
        Context::halt(self)
    }
}

/// Wire format of the templates: object messages tagged with their round
/// and component so the receiving template can route them.
#[derive(Debug, Clone, PartialEq)]
pub enum TemplateMsg<DM, SM> {
    /// A message belonging to round `round`'s agreement detector.
    Detect {
        /// The template round (the paper's phase `m`).
        round: u64,
        /// The detector's protocol message.
        inner: DM,
    },
    /// A message belonging to round `round`'s shaker
    /// (reconciliator/conciliator).
    Shake {
        /// The template round.
        round: u64,
        /// The shaker's protocol message.
        inner: SM,
    },
}

impl<DM, SM> TemplateMsg<DM, SM> {
    fn round(&self) -> u64 {
        match self {
            TemplateMsg::Detect { round, .. } | TemplateMsg::Shake { round, .. } => *round,
        }
    }
}

/// Knobs for the template loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TemplateConfig {
    /// When true the processor halts right after deciding (the literal
    /// `decide σ; halt` of Algorithm 1). When false it keeps running the
    /// template with `v = σ` — the behaviour the paper requires of
    /// Phase-King (§4.1) and the safe default for quorum-based protocols,
    /// where a halted processor looks like a crash to the others.
    pub halt_after_decide: bool,
    /// Safety valve: stop (without deciding) after this many rounds.
    pub max_rounds: Option<u64>,
}

impl Default for TemplateConfig {
    fn default() -> Self {
        TemplateConfig {
            halt_after_decide: false,
            max_rounds: Some(10_000),
        }
    }
}

/// What one completed template round looked like at this processor —
/// the raw material for the paper's per-round coherence checks and for
/// the per-round metrics in [`crate::metrics`].
#[derive(Debug, Clone, PartialEq)]
pub struct RoundRecord<V> {
    /// The round (the paper's `m`, starting at 1).
    pub round: u64,
    /// The value this processor proposed to the detector.
    pub input: V,
    /// The detector's outcome `(X, σ)`.
    pub outcome: VacOutcome<V>,
    /// The value returned by the shaker, when one was consulted.
    pub shaken: Option<V>,
    /// Messages this processor sent during the round (detector and
    /// shaker combined).
    pub messages: u64,
    /// When the round began at this processor — simulated ticks under
    /// the async engine, network-round numbers under the sync engine.
    pub started_at: u64,
    /// When the round ended at this processor (same unit as
    /// [`started_at`](RoundRecord::started_at)).
    pub ended_at: u64,
}

impl<V> RoundRecord<V> {
    /// How long the round took at this processor, in the engine's time
    /// unit (ticks for async runs, network rounds for sync runs).
    pub fn duration(&self) -> u64 {
        self.ended_at.saturating_sub(self.started_at)
    }
}

enum Stage<D, S> {
    InDetector(D),
    InShaker(S),
    Halted,
}

/// Which component owns a pending timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Component {
    Detector,
    Shaker,
}

/// The generic two-step consensus loop. See the [module docs](self) and
/// the constructors [`Template::vac`] / [`Template::ac`].
pub struct Template<D, S>
where
    D: VacObject,
    S: ReconciliatorObject<Value = D::Value>,
{
    detector_factory: Box<dyn FnMut(u64) -> D + Send>,
    shaker_factory: Box<dyn FnMut(u64) -> S + Send>,
    /// The confidence level that routes to the shaker
    /// (`Vacillate` in Algorithm 1, `Adopt` in Algorithm 2).
    shake_trigger: Confidence,
    config: TemplateConfig,
    initial: D::Value,
    v: D::Value,
    round: u64,
    stage: Stage<D, S>,
    #[allow(clippy::type_complexity)]
    buffer: BTreeMap<u64, Vec<(ProcessId, TemplateMsg<D::Msg, S::Msg>)>>,
    /// Maps pending object timers to the `(round, component)` that set
    /// them, so stale timers from finished rounds are discarded.
    timer_owners: BTreeMap<TimerId, (u64, Component)>,
    history: Vec<RoundRecord<D::Value>>,
    decided: Option<D::Value>,
    /// Messages sent so far in the current round (fed by the component
    /// nets, snapshotted into the round's record when the round ends).
    round_msgs: u64,
    /// Tick at which the current round began at this processor.
    round_started: u64,
}

/// Algorithm 1: consensus from a VAC and a reconciliator.
pub type VacConsensus<D, S> = Template<D, S>;

/// Algorithm 2: consensus from an adopt-commit and a conciliator.
pub type AcConsensus<A, C> = Template<AcDetector<A>, ConciliatorShaker<C>>;

impl<D, S> Template<D, S>
where
    D: VacObject,
    S: ReconciliatorObject<Value = D::Value>,
{
    /// Builds an Algorithm 1 instance: each round runs a fresh VAC from
    /// `detector_factory`, routing `vacillate` outcomes through a fresh
    /// reconciliator from `shaker_factory`.
    pub fn vac(
        initial: D::Value,
        detector_factory: impl FnMut(u64) -> D + Send + 'static,
        shaker_factory: impl FnMut(u64) -> S + Send + 'static,
        config: TemplateConfig,
    ) -> Self {
        Template {
            detector_factory: Box::new(detector_factory),
            shaker_factory: Box::new(shaker_factory),
            shake_trigger: Confidence::Vacillate,
            config,
            v: initial.clone(),
            initial,
            round: 0,
            stage: Stage::Halted,
            buffer: BTreeMap::new(),
            timer_owners: BTreeMap::new(),
            history: Vec::new(),
            decided: None,
            round_msgs: 0,
            round_started: 0,
        }
    }

    /// The processor's initial input.
    pub fn initial(&self) -> &D::Value {
        &self.initial
    }

    /// The processor's current preference `v`.
    pub fn preference(&self) -> &D::Value {
        &self.v
    }

    /// The current round (the paper's `m`).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The decided value, if this processor has decided.
    pub fn decision(&self) -> Option<&D::Value> {
        self.decided.as_ref()
    }

    /// The per-round records accumulated so far.
    pub fn history(&self) -> &[RoundRecord<D::Value>] {
        &self.history
    }

    /// Consumes the processor, keeping only its per-round records.
    pub fn into_history(self) -> Vec<RoundRecord<D::Value>> {
        self.history
    }
}

impl<A, C> AcConsensus<A, C>
where
    A: AcObject,
    C: ConciliatorObject<Value = A::Value>,
{
    /// Builds an Algorithm 2 instance: each round runs a fresh adopt-commit
    /// from `ac_factory`, routing `adopt` outcomes through a fresh
    /// conciliator from `conciliator_factory`.
    pub fn ac(
        initial: A::Value,
        mut ac_factory: impl FnMut(u64) -> A + Send + 'static,
        mut conciliator_factory: impl FnMut(u64) -> C + Send + 'static,
        config: TemplateConfig,
    ) -> Self {
        let mut t = Template::vac(
            initial,
            move |r| AcDetector(ac_factory(r)),
            move |r| ConciliatorShaker(conciliator_factory(r)),
            config,
        );
        t.shake_trigger = Confidence::Adopt;
        t
    }
}

impl<D, S> Template<D, S>
where
    D: VacObject,
    S: ReconciliatorObject<Value = D::Value>,
{
    /// Advances into the next round. Exposed for nested hosts via
    /// [`Template::start`].
    /// Stamps message count and end time onto the current round's record
    /// (if one was pushed), called when the round is left for good.
    fn finalize_round(&mut self, now: SimTime) {
        if let Some(last) = self.history.last_mut() {
            if last.round == self.round {
                last.messages = self.round_msgs;
                last.ended_at = now.ticks();
            }
        }
    }

    fn enter_next_round(
        &mut self,
        ctx: &mut dyn TemplateHost<TemplateMsg<D::Msg, S::Msg>, D::Value>,
    ) {
        self.finalize_round(ctx.now());
        self.round += 1;
        self.round_msgs = 0;
        self.round_started = ctx.now().ticks();
        // Drop mail from rounds we have permanently left.
        let stale: Vec<u64> = self
            .buffer
            .range(..self.round)
            .map(|(&r, _)| r)
            .collect();
        for r in stale {
            self.buffer.remove(&r);
        }
        if let Some(max) = self.config.max_rounds {
            if self.round > max {
                self.stage = Stage::Halted;
                ctx.halt();
                return;
            }
        }
        let mut detector = (self.detector_factory)(self.round);
        let outcome = {
            let mut net = ComponentNet {
                ctx,
                round: self.round,
                component: Component::Detector,
                wrap: wrap_detect,
                timer_owners: &mut self.timer_owners,
                msgs: &mut self.round_msgs,
            };
            detector.begin(self.v.clone(), &mut net)
        };
        self.stage = Stage::InDetector(detector);
        if let Some(o) = outcome {
            self.detector_done(o, ctx);
        } else {
            self.drain_current_round(ctx);
        }
    }

    fn drain_current_round(
        &mut self,
        ctx: &mut dyn TemplateHost<TemplateMsg<D::Msg, S::Msg>, D::Value>,
    ) {
        if let Some(msgs) = self.buffer.remove(&self.round) {
            for (from, msg) in msgs {
                self.dispatch(from, msg, ctx);
                if matches!(self.stage, Stage::Halted) {
                    return;
                }
            }
        }
    }

    fn detector_done(
        &mut self,
        outcome: VacOutcome<D::Value>,
        ctx: &mut dyn TemplateHost<TemplateMsg<D::Msg, S::Msg>, D::Value>,
    ) {
        self.history.push(RoundRecord {
            round: self.round,
            input: self.v.clone(),
            outcome: outcome.clone(),
            shaken: None,
            messages: self.round_msgs,
            started_at: self.round_started,
            ended_at: ctx.now().ticks(),
        });
        let VacOutcome { confidence, value } = outcome;
        if confidence == Confidence::Commit {
            self.v = value.clone();
            if self.decided.is_none() {
                self.decided = Some(value.clone());
            }
            ctx.decide(value);
            if self.config.halt_after_decide {
                self.finalize_round(ctx.now());
                self.stage = Stage::Halted;
                ctx.halt();
            } else {
                self.enter_next_round(ctx);
            }
        } else if confidence == self.shake_trigger {
            let mut shaker = (self.shaker_factory)(self.round);
            let result = {
                let mut net = ComponentNet {
                    ctx,
                    round: self.round,
                    component: Component::Shaker,
                    wrap: wrap_shake,
                    timer_owners: &mut self.timer_owners,
                    msgs: &mut self.round_msgs,
                };
                shaker.begin(confidence, value, &mut net)
            };
            self.stage = Stage::InShaker(shaker);
            if let Some(v) = result {
                self.shaker_done(v, ctx);
            } else {
                self.drain_current_round(ctx);
            }
        } else {
            // Algorithm 1's `adopt` branch (or, for Algorithm 2, a level
            // the AC can never produce): keep σ and move on.
            self.v = value;
            self.enter_next_round(ctx);
        }
    }

    fn shaker_done(
        &mut self,
        value: D::Value,
        ctx: &mut dyn TemplateHost<TemplateMsg<D::Msg, S::Msg>, D::Value>,
    ) {
        if let Some(last) = self.history.last_mut() {
            if last.round == self.round {
                last.shaken = Some(value.clone());
            }
        }
        self.v = value;
        self.enter_next_round(ctx);
    }

    fn dispatch(
        &mut self,
        from: ProcessId,
        msg: TemplateMsg<D::Msg, S::Msg>,
        ctx: &mut dyn TemplateHost<TemplateMsg<D::Msg, S::Msg>, D::Value>,
    ) {
        if matches!(self.stage, Stage::Halted) {
            return;
        }
        let round = msg.round();
        if round > self.round {
            self.buffer.entry(round).or_default().push((from, msg));
            return;
        }
        if round < self.round {
            return;
        }
        match (&mut self.stage, msg) {
            (Stage::InDetector(d), TemplateMsg::Detect { inner, .. }) => {
                let mut net = ComponentNet {
                    ctx,
                    round: self.round,
                    component: Component::Detector,
                    wrap: wrap_detect,
                    timer_owners: &mut self.timer_owners,
                    msgs: &mut self.round_msgs,
                };
                if let Some(o) = d.on_message(from, inner, &mut net) {
                    self.detector_done(o, ctx);
                }
            }
            (Stage::InShaker(s), TemplateMsg::Shake { inner, .. }) => {
                let mut net = ComponentNet {
                    ctx,
                    round: self.round,
                    component: Component::Shaker,
                    wrap: wrap_shake,
                    timer_owners: &mut self.timer_owners,
                    msgs: &mut self.round_msgs,
                };
                if let Some(v) = s.on_message(from, inner, &mut net) {
                    self.shaker_done(v, ctx);
                }
            }
            (Stage::InDetector(_), msg @ TemplateMsg::Shake { .. }) => {
                // A faster processor already vacillated into this round's
                // shaker; hold its message until we get there (or drop it
                // when we skip to the next round).
                self.buffer.entry(round).or_default().push((from, msg));
            }
            _ => {
                // Detector mail while in the shaker: this processor already
                // extracted its outcome for the round; late quorum messages
                // carry no further obligation. (`Halted` returned above.)
            }
        }
    }
}

impl<D, S> Template<D, S>
where
    D: VacObject,
    S: ReconciliatorObject<Value = D::Value>,
{
    /// Starts the template loop against any host — the paper's
    /// `m ← 0; INIT(); loop { m ← m + 1; … }`.
    pub fn start(&mut self, host: &mut dyn TemplateHost<TemplateMsg<D::Msg, S::Msg>, D::Value>) {
        self.enter_next_round(host);
    }

    /// Delivers one template message from `from`.
    pub fn deliver(
        &mut self,
        from: ProcessId,
        msg: TemplateMsg<D::Msg, S::Msg>,
        host: &mut dyn TemplateHost<TemplateMsg<D::Msg, S::Msg>, D::Value>,
    ) {
        self.dispatch(from, msg, host);
    }

    /// Routes a fired timer to whichever object owns it (stale and
    /// foreign timers are ignored).
    pub fn timer(
        &mut self,
        timer: TimerId,
        ctx: &mut dyn TemplateHost<TemplateMsg<D::Msg, S::Msg>, D::Value>,
    ) {
        let Some((round, component)) = self.timer_owners.remove(&timer) else {
            return;
        };
        if round != self.round {
            return; // the owning object's round is over
        }
        match (component, &mut self.stage) {
            (Component::Detector, Stage::InDetector(d)) => {
                let mut net = ComponentNet {
                    ctx,
                    round: self.round,
                    component: Component::Detector,
                    wrap: wrap_detect,
                    timer_owners: &mut self.timer_owners,
                    msgs: &mut self.round_msgs,
                };
                if let Some(o) = d.on_timer(timer, &mut net) {
                    self.detector_done(o, ctx);
                }
            }
            (Component::Shaker, Stage::InShaker(sh)) => {
                let mut net = ComponentNet {
                    ctx,
                    round: self.round,
                    component: Component::Shaker,
                    wrap: wrap_shake,
                    timer_owners: &mut self.timer_owners,
                    msgs: &mut self.round_msgs,
                };
                if let Some(v) = sh.on_timer(timer, &mut net) {
                    self.shaker_done(v, ctx);
                }
            }
            _ => {
                // The component that set the timer already completed.
            }
        }
    }
}

impl<D, S> Process for Template<D, S>
where
    D: VacObject,
    D::Value: 'static,
    S: ReconciliatorObject<Value = D::Value>,
{
    type Msg = TemplateMsg<D::Msg, S::Msg>;
    type Output = D::Value;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Output>) {
        self.start(ctx);
    }

    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Self::Msg, Self::Output>,
        from: ProcessId,
        msg: Self::Msg,
    ) {
        self.deliver(from, msg, ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Output>, timer: TimerId) {
        self.timer(timer, ctx);
    }

    fn observe(&self) -> ProtocolObservation {
        // Values are generic, but the paper's binary instantiations are
        // bools; any other type observes as None, which state adversaries
        // treat as "preference unknown".
        ProtocolObservation {
            round: self.round,
            phase: match &self.stage {
                Stage::InDetector(_) => 0,
                Stage::InShaker(_) => 1,
                Stage::Halted => 2,
            },
            preference: as_bool(&self.v),
            decided: self.decided.as_ref().and_then(as_bool),
        }
    }
}

/// `Some(b)` iff `v` is the bool `b`.
fn as_bool<V: Any>(v: &V) -> Option<bool> {
    (v as &dyn Any).downcast_ref::<bool>().copied()
}

impl<D, S> Debug for Template<D, S>
where
    D: VacObject,
    S: ReconciliatorObject<Value = D::Value>,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Template")
            .field("round", &self.round)
            .field("preference", &self.v)
            .field("decided", &self.decided)
            .finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------------
// Component nets: wrap an object's messages into tagged template messages.
// ---------------------------------------------------------------------------

fn wrap_detect<DM, SM>(round: u64, inner: DM) -> TemplateMsg<DM, SM> {
    TemplateMsg::Detect { round, inner }
}

fn wrap_shake<DM, SM>(round: u64, inner: SM) -> TemplateMsg<DM, SM> {
    TemplateMsg::Shake { round, inner }
}

struct ComponentNet<'a, M, O, IM> {
    ctx: &'a mut dyn TemplateHost<M, O>,
    round: u64,
    component: Component,
    wrap: fn(u64, IM) -> M,
    timer_owners: &'a mut BTreeMap<TimerId, (u64, Component)>,
    /// Running count of messages sent this round (owned by the template).
    msgs: &'a mut u64,
}

impl<M: Clone, O, IM: Clone> ObjectNet<IM> for ComponentNet<'_, M, O, IM> {
    fn me(&self) -> ProcessId {
        self.ctx.me()
    }
    fn n(&self) -> usize {
        self.ctx.n()
    }
    fn now(&self) -> SimTime {
        self.ctx.now()
    }
    fn rng(&mut self) -> &mut SplitMix64 {
        self.ctx.rng()
    }
    fn send(&mut self, to: ProcessId, msg: IM) {
        *self.msgs += 1;
        self.ctx.send(to, (self.wrap)(self.round, msg));
    }
    fn broadcast(&mut self, msg: IM) {
        *self.msgs += self.ctx.n() as u64;
        self.ctx.broadcast((self.wrap)(self.round, msg));
    }
    fn set_timer(&mut self, after: SimDuration) -> TimerId {
        let id = self.ctx.set_timer(after);
        self.timer_owners.insert(id, (self.round, self.component));
        id
    }
}

// ---------------------------------------------------------------------------
// Adapters used by Algorithm 2.
// ---------------------------------------------------------------------------

/// Presents an adopt-commit object as a (never-vacillating) VAC so
/// Algorithm 2 can reuse the template loop.
#[derive(Debug)]
pub struct AcDetector<A>(pub A);

impl<A: AcObject> VacObject for AcDetector<A> {
    type Value = A::Value;
    type Msg = A::Msg;

    fn begin(
        &mut self,
        input: A::Value,
        net: &mut dyn ObjectNet<A::Msg>,
    ) -> Option<VacOutcome<A::Value>> {
        self.0.begin(input, net).map(|o| o.into_vac())
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: A::Msg,
        net: &mut dyn ObjectNet<A::Msg>,
    ) -> Option<VacOutcome<A::Value>> {
        self.0.on_message(from, msg, net).map(|o| o.into_vac())
    }
}

/// Presents a conciliator as a reconciliator (it simply ignores the
/// confidence argument) so Algorithm 2 can reuse the template loop.
#[derive(Debug)]
pub struct ConciliatorShaker<C>(pub C);

impl<C: ConciliatorObject> ReconciliatorObject for ConciliatorShaker<C> {
    type Value = C::Value;
    type Msg = C::Msg;

    fn begin(
        &mut self,
        _confidence: Confidence,
        sigma: C::Value,
        net: &mut dyn ObjectNet<C::Msg>,
    ) -> Option<C::Value> {
        self.0.begin(sigma, net)
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: C::Msg,
        net: &mut dyn ObjectNet<C::Msg>,
    ) -> Option<C::Value> {
        self.0.on_message(from, msg, net)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objects::FnReconciliator;
    use ooc_simnet::{NetworkConfig, RunLimit, Sim};

    /// A toy VAC that completes locally: commit iff the input equals a
    /// magic value, vacillate otherwise. (Violates coherence across
    /// processors — fine for exercising the template plumbing alone.)
    #[derive(Debug)]
    struct LocalVac {
        magic: u64,
    }
    impl VacObject for LocalVac {
        type Value = u64;
        type Msg = ();
        fn begin(&mut self, input: u64, _net: &mut dyn ObjectNet<()>) -> Option<VacOutcome<u64>> {
            if input == self.magic {
                Some(VacOutcome::commit(input))
            } else {
                Some(VacOutcome::vacillate(input))
            }
        }
        fn on_message(
            &mut self,
            _from: ProcessId,
            _msg: (),
            _net: &mut dyn ObjectNet<()>,
        ) -> Option<VacOutcome<u64>> {
            None
        }
    }

    type Rec = FnReconciliator<u64, fn(Confidence, u64, &mut SplitMix64) -> u64>;

    fn make_rec(_r: u64) -> Rec {
        FnReconciliator::new(|_c, s, _rng| s + 1)
    }

    #[test]
    fn local_loop_reaches_magic_value() {
        let t: Template<LocalVac, Rec> = Template::vac(
            0,
            |_r| LocalVac { magic: 3 },
            make_rec,
            TemplateConfig {
                halt_after_decide: true,
                ..TemplateConfig::default()
            },
        );
        let mut sim = Sim::builder(NetworkConfig::default())
            .seed(1)
            .processes(vec![t])
            .build();
        let out = sim.run(RunLimit::default());
        assert_eq!(out.decisions[0], Some(3));
        let p = sim.process(ProcessId(0));
        // Rounds 1..=3 vacillated then committed: inputs 0,1,2 then 3.
        assert_eq!(p.history().len(), 4);
        assert_eq!(p.history()[3].outcome, VacOutcome::commit(3));
        assert_eq!(p.history()[0].shaken, Some(1));
        assert_eq!(p.decision(), Some(&3));
    }

    /// A VAC over `bool` that commits its input at once.
    #[derive(Debug)]
    struct InstantVac;
    impl VacObject for InstantVac {
        type Value = bool;
        type Msg = ();
        fn begin(&mut self, input: bool, _net: &mut dyn ObjectNet<()>) -> Option<VacOutcome<bool>> {
            Some(VacOutcome::commit(input))
        }
        fn on_message(
            &mut self,
            _from: ProcessId,
            _msg: (),
            _net: &mut dyn ObjectNet<()>,
        ) -> Option<VacOutcome<bool>> {
            None
        }
    }

    #[test]
    fn observe_reads_bool_values_and_nothing_else() {
        type BoolRec = FnReconciliator<bool, fn(Confidence, bool, &mut SplitMix64) -> bool>;
        let make = |v: bool| -> Template<InstantVac, BoolRec> {
            Template::vac(
                v,
                |_r| InstantVac,
                |_r| {
                    FnReconciliator::new(
                        (|_c, s, _rng| s) as fn(Confidence, bool, &mut SplitMix64) -> bool,
                    )
                },
                TemplateConfig {
                    halt_after_decide: true,
                    ..TemplateConfig::default()
                },
            )
        };
        let mut sim = Sim::builder(NetworkConfig::default())
            .seed(1)
            .processes(vec![make(true), make(false)])
            .build();
        sim.run(RunLimit::default());
        for (i, v) in [(0, true), (1, false)] {
            let o = sim.process(ProcessId(i)).observe();
            assert_eq!((o.preference, o.decided), (Some(v), Some(v)), "process {i}");
        }
        // A u64 value never reads as a bool, not even 0 or 1.
        let t: Template<LocalVac, Rec> = Template::vac(
            1,
            |_r| LocalVac { magic: 1 },
            make_rec,
            TemplateConfig {
                halt_after_decide: true,
                ..TemplateConfig::default()
            },
        );
        let mut sim = Sim::builder(NetworkConfig::default())
            .seed(1)
            .processes(vec![t])
            .build();
        sim.run(RunLimit::default());
        assert_eq!(sim.decision(ProcessId(0)), Some(&1));
        let o = sim.process(ProcessId(0)).observe();
        assert_eq!((o.preference, o.decided), (None, None));
        // Only a bool reads as a bool: not a string that says so, not a
        // bool inside another type.
        assert_eq!(as_bool(&"true"), None, "a quoted string is not a bool");
        assert_eq!(as_bool(&Some(true)), None);
        assert_eq!(as_bool(&()), None);
        assert_eq!(as_bool(&true), Some(true));
        assert_eq!(as_bool(&false), Some(false));
    }

    #[test]
    fn max_rounds_halts_without_decision() {
        let t: Template<LocalVac, Rec> = Template::vac(
            0,
            |_r| LocalVac { magic: u64::MAX },
            make_rec,
            TemplateConfig {
                max_rounds: Some(5),
                ..TemplateConfig::default()
            },
        );
        let mut sim = Sim::builder(NetworkConfig::default())
            .seed(1)
            .processes(vec![t])
            .build();
        let out = sim.run(RunLimit::default());
        assert_eq!(out.decisions[0], None);
        assert_eq!(sim.process(ProcessId(0)).history().len(), 5);
    }

    /// A quorum-waiting VAC used to exercise cross-round buffering: each
    /// processor broadcasts its value and completes after hearing all `n`,
    /// committing iff unanimous.
    #[derive(Debug, Default)]
    struct UnanimousVac {
        seen: Vec<u64>,
    }
    impl VacObject for UnanimousVac {
        type Value = u64;
        type Msg = u64;
        fn begin(&mut self, input: u64, net: &mut dyn ObjectNet<u64>) -> Option<VacOutcome<u64>> {
            net.broadcast(input);
            None
        }
        fn on_message(
            &mut self,
            _from: ProcessId,
            msg: u64,
            net: &mut dyn ObjectNet<u64>,
        ) -> Option<VacOutcome<u64>> {
            self.seen.push(msg);
            (self.seen.len() == net.n()).then(|| {
                let first = self.seen[0];
                if self.seen.iter().all(|&v| v == first) {
                    VacOutcome::commit(first)
                } else {
                    VacOutcome::vacillate(*self.seen.iter().max().unwrap())
                }
            })
        }
    }

    #[test]
    fn distributed_template_converges_via_shaker() {
        // Initial values differ; the shaker forces everyone to max+1 of
        // what they saw — deterministic, so all equal after one round, and
        // round 2 commits by convergence.
        let make = |v0: u64| -> Template<UnanimousVac, Rec> {
            Template::vac(
                v0,
                |_r| UnanimousVac::default(),
                |_r| FnReconciliator::new((|_c, s, _rng| s + 1) as fn(Confidence, u64, &mut SplitMix64) -> u64),
                TemplateConfig::default(),
            )
        };
        let mut sim = Sim::builder(NetworkConfig::default())
            .seed(7)
            .processes(vec![make(0), make(1), make(2)])
            .build();
        let out = sim.run(RunLimit::default());
        assert!(out.all_decided());
        assert_eq!(out.decided_value(), Some(3), "everyone shaken to max+1=3");
        for i in 0..3 {
            let h = sim.process(ProcessId(i)).history();
            assert_eq!(h[0].outcome.confidence, Confidence::Vacillate);
            assert_eq!(h[1].outcome, VacOutcome::commit(3));
            // Round instrumentation: each round's detector broadcast n
            // messages; the local reconciliator sent none. Rounds take
            // real simulated time (deliveries have a 1-tick floor).
            assert_eq!(h[0].messages, 3, "detector broadcast to n=3");
            assert_eq!(h[1].messages, 3);
            assert!(h[0].duration() > 0, "round must span simulated time");
            assert!(h[1].started_at >= h[0].ended_at, "rounds must not overlap");
            let m = crate::metrics::RoundMetrics::of(h);
            assert_eq!(m.rounds, 2);
            assert_eq!(m.vacillated, 1);
            assert_eq!(m.committed, 1);
            assert_eq!(m.shaken, 1);
            assert_eq!(m.messages, 6);
        }
    }

    #[test]
    fn convergent_inputs_commit_in_round_one() {
        let make = |v0: u64| -> Template<UnanimousVac, Rec> {
            Template::vac(
                v0,
                |_r| UnanimousVac::default(),
                make_rec,
                TemplateConfig::default(),
            )
        };
        let mut sim = Sim::builder(NetworkConfig::default())
            .seed(3)
            .processes(vec![make(5), make(5), make(5), make(5)])
            .build();
        let out = sim.run(RunLimit::default());
        assert_eq!(out.decided_value(), Some(5));
        for i in 0..4 {
            assert_eq!(sim.process(ProcessId(i)).history()[0].outcome, VacOutcome::commit(5));
        }
    }

    /// A trivially committing AC for testing Algorithm 2 plumbing.
    #[derive(Debug, Default)]
    struct EchoAc {
        seen: Vec<u64>,
    }
    impl AcObject for EchoAc {
        type Value = u64;
        type Msg = u64;
        fn begin(
            &mut self,
            input: u64,
            net: &mut dyn ObjectNet<u64>,
        ) -> Option<crate::AcOutcome<u64>> {
            net.broadcast(input);
            None
        }
        fn on_message(
            &mut self,
            _from: ProcessId,
            msg: u64,
            net: &mut dyn ObjectNet<u64>,
        ) -> Option<crate::AcOutcome<u64>> {
            self.seen.push(msg);
            (self.seen.len() == net.n()).then(|| {
                let first = self.seen[0];
                if self.seen.iter().all(|&v| v == first) {
                    crate::AcOutcome::commit(first)
                } else {
                    crate::AcOutcome::adopt(*self.seen.iter().max().unwrap())
                }
            })
        }
    }

    /// Conciliator that pushes everyone to a constant — agreement with
    /// probability 1, the easiest correct conciliator there is.
    #[derive(Debug)]
    struct ConstConciliator;
    impl ConciliatorObject for ConstConciliator {
        type Value = u64;
        type Msg = ();
        fn begin(&mut self, _input: u64, _net: &mut dyn ObjectNet<()>) -> Option<u64> {
            Some(9)
        }
        fn on_message(
            &mut self,
            _from: ProcessId,
            _msg: (),
            _net: &mut dyn ObjectNet<()>,
        ) -> Option<u64> {
            None
        }
    }

    #[test]
    fn algorithm2_loop_decides() {
        let make = |v0: u64| {
            AcConsensus::ac(
                v0,
                |_r| EchoAc::default(),
                |_r| ConstConciliator,
                TemplateConfig::default(),
            )
        };
        let mut sim = Sim::builder(NetworkConfig::default())
            .seed(11)
            .processes(vec![make(1), make(2), make(3)])
            .build();
        let out = sim.run(RunLimit::default());
        // Round 1: adopt (mixed inputs) → conciliator 9; round 2: commit 9.
        assert_eq!(out.decided_value(), Some(9));
    }
}
