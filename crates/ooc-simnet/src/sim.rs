//! The asynchronous discrete-event engine.

use crate::adversary::{Adversary, Decision, NetworkAdversary};
use crate::fault::{CrashSpec, FaultPlan};
use crate::metrics::{CounterId, HistogramId, MetricsRegistry};
use crate::network::NetworkConfig;
use crate::process::{Effects, Payload, Process, ProtocolObservation, StorageOp};
use crate::queue::TimingWheel;
use crate::reliable::{ReliabilityPolicy, ReliabilityState};
use crate::rng::SplitMix64;
use crate::state_adversary::{StateAdversary, StateView};
use crate::stats::RunStats;
use crate::storage::{StableStore, StorageFaultPlan};
use crate::time::{ClockModel, SimDuration, SimTime};
use crate::trace::{DropReason, Trace, TraceEvent, TraceLevel, TraceRing};
use crate::{ProcessId, TimerId};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;
use std::sync::{Arc, OnceLock};

/// Blanket impl so heterogeneous networks can be built from boxed trait
/// objects while the engine stays generic over a concrete process type.
impl<M: Clone + Debug, O: Clone + Debug + PartialEq> Process for Box<dyn Process<Msg = M, Output = O>> {
    type Msg = M;
    type Output = O;

    fn on_start(&mut self, ctx: &mut crate::Context<'_, M, O>) {
        (**self).on_start(ctx)
    }

    fn on_message(&mut self, ctx: &mut crate::Context<'_, M, O>, from: ProcessId, msg: M) {
        (**self).on_message(ctx, from, msg)
    }

    fn on_timer(&mut self, ctx: &mut crate::Context<'_, M, O>, timer: TimerId) {
        (**self).on_timer(ctx, timer)
    }

    fn on_restart(&mut self, ctx: &mut crate::Context<'_, M, O>) {
        (**self).on_restart(ctx)
    }

    fn observe(&self) -> ProtocolObservation {
        (**self).observe()
    }
}

/// How the engine routes messages: through a message-level [`Adversary`]
/// or a [`StateAdversary`] that additionally sees live protocol state.
enum RoutingAdversary<M> {
    Message(Box<dyn Adversary<M>>),
    State(Box<dyn StateAdversary<M>>),
}

/// How the receive side treats one in-flight message copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tag {
    /// A fire-and-forget message.
    Plain,
    /// The extra copy of a duplicated fire-and-forget message, tallied
    /// apart from first deliveries so `delivered / sent` stays a true
    /// ratio.
    Extra,
    /// A reliability-tracked copy (only under
    /// [`ReliabilityPolicy::Retransmit`]) carrying the sender's pair
    /// sequence number, so the receive side can ack it and suppress
    /// repeats. A network duplicate is just another copy of the same seq.
    Tracked(u64),
}

#[derive(Debug)]
enum EventKind<M> {
    Deliver {
        from: ProcessId,
        to: ProcessId,
        /// Interned payload: broadcast fan-out shares one allocation
        /// across all in-flight copies (see [`Payload`]).
        msg: Payload<M>,
        tag: Tag,
    },
    Timer {
        process: ProcessId,
        id: TimerId,
    },
    Crash {
        process: ProcessId,
    },
    Restart {
        process: ProcessId,
    },
    /// A reliability ack from `from` (the acker) back to `to` (the
    /// original sender): cumulative high-water mark plus the selective
    /// seq that triggered it.
    Ack {
        from: ProcessId,
        to: ProcessId,
        cum: u64,
        seq: u64,
    },
    /// A retransmission-deadline sweep for `process`'s send buffers.
    RetransmitCheck {
        process: ProcessId,
    },
}

/// Bounds on a [`Sim::run`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunLimit {
    /// Hard stop at this simulated time.
    pub max_time: SimTime,
    /// Hard stop after this many handler invocations.
    pub max_events: u64,
    /// Stop as soon as every live (non-crashed) process has decided.
    pub stop_when_all_decide: bool,
    /// Stop as soon as this many processes have decided.
    pub stop_after_decisions: Option<usize>,
}

impl Default for RunLimit {
    fn default() -> Self {
        RunLimit {
            max_time: SimTime::from_ticks(10_000_000),
            max_events: 50_000_000,
            stop_when_all_decide: true,
            stop_after_decisions: None,
        }
    }
}

impl RunLimit {
    /// A limit that stops only on quiescence or the given time bound.
    pub fn until_time(max_time: SimTime) -> Self {
        RunLimit {
            max_time,
            stop_when_all_decide: false,
            ..RunLimit::default()
        }
    }

    /// A limit that stops once `k` processes have decided.
    pub fn until_decisions(k: usize) -> Self {
        RunLimit {
            stop_after_decisions: Some(k),
            stop_when_all_decide: false,
            ..RunLimit::default()
        }
    }
}

/// Why a run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Every live process decided.
    AllDecided,
    /// The requested number of decisions was reached.
    DecisionTarget,
    /// The simulated-time bound was hit.
    TimeLimit,
    /// The handler-invocation bound was hit.
    EventLimit,
    /// No events left to process.
    Quiescent,
}

/// The result of a [`Sim::run`] call.
///
/// `decisions` and `decision_times` are `Arc`-shared snapshots: handing
/// them out is O(1) and the engine only copies the underlying vectors
/// (copy-on-write via [`Arc::make_mut`]) if a process decides *while an
/// earlier outcome is still alive*. Each outcome therefore keeps showing
/// exactly the decisions that existed when it was taken, even across
/// later [`Sim::run`] resumes.
#[derive(Debug, Clone)]
pub struct RunOutcome<O> {
    /// Per-process decision (index = process id), `None` if undecided.
    pub decisions: Arc<Vec<Option<O>>>,
    /// Per-process decision time.
    pub decision_times: Arc<Vec<Option<SimTime>>>,
    /// Aggregate counters.
    pub stats: RunStats,
    /// Why the run stopped.
    pub reason: StopReason,
    /// The captured trace (content depends on the configured level).
    pub trace: Trace,
    /// Named counters and tick histograms fed by the engine
    /// (see [`MetricsRegistry`]); independent of the trace level.
    pub metrics: MetricsRegistry,
}

impl<O: PartialEq + Clone> RunOutcome<O> {
    /// Whether every process decided.
    pub fn all_decided(&self) -> bool {
        self.decisions.iter().all(|d| d.is_some())
    }

    /// Whether all decisions made so far agree (vacuously true if none).
    pub fn agreement(&self) -> bool {
        let mut iter = self.decisions.iter().flatten();
        match iter.next() {
            None => true,
            Some(first) => iter.all(|d| d == first),
        }
    }

    /// The common decided value, if at least one process decided and all
    /// deciders agree.
    pub fn decided_value(&self) -> Option<O> {
        let first = self.decisions.iter().flatten().next()?;
        self.agreement().then(|| first.clone())
    }

    /// Number of processes that decided.
    pub fn decided_count(&self) -> usize {
        self.decisions.iter().flatten().count()
    }

    /// Latest decision time among deciders.
    pub fn last_decision_time(&self) -> Option<SimTime> {
        self.decision_times.iter().flatten().copied().max()
    }
}

/// Default `queue_depth` sampling stride: the histogram records the
/// scheduler queue depth on every 64th pop. See
/// [`SimBuilder::queue_depth_sampling`].
pub const QUEUE_DEPTH_SAMPLE_DEFAULT: u64 = 64;

/// Builder for [`Sim`]. Obtained from [`Sim::builder`].
pub struct SimBuilder<P: Process> {
    processes: Vec<P>,
    config: NetworkConfig,
    adversary: Option<Box<dyn Adversary<P::Msg>>>,
    state_adversary: Option<Box<dyn StateAdversary<P::Msg>>>,
    faults: FaultPlan,
    storage: StorageFaultPlan,
    clocks: ClockModel,
    seed: u64,
    trace_level: TraceLevel,
    trace_capacity: Option<usize>,
    queue_depth_every: u64,
    reliability: ReliabilityPolicy,
}

impl<P: Process> SimBuilder<P> {
    /// Sets the master seed; everything random derives from it.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Adds processes in id order.
    pub fn processes(mut self, procs: impl IntoIterator<Item = P>) -> Self {
        self.processes.extend(procs);
        self
    }

    /// Installs a custom adversary (replaces the stochastic network model
    /// for routing decisions; partitions/drops in the config are then only
    /// applied if the adversary chooses to apply them).
    pub fn adversary(mut self, adversary: Box<dyn Adversary<P::Msg>>) -> Self {
        self.adversary = Some(adversary);
        self
    }

    /// Installs a state-adaptive adversary
    /// ([`StateAdversary`]): it replaces the routing model like
    /// [`adversary`](SimBuilder::adversary), but additionally receives a
    /// read-only [`StateView`] of live protocol observables on every
    /// decision. Mutually exclusive with a message adversary.
    pub fn state_adversary(mut self, adversary: Box<dyn StateAdversary<P::Msg>>) -> Self {
        self.state_adversary = Some(adversary);
        self
    }

    /// Installs per-process clock drift/skew; see [`ClockModel`]. The
    /// default is nominal clocks everywhere.
    pub fn clocks(mut self, clocks: ClockModel) -> Self {
        self.clocks = clocks;
        self
    }

    /// Installs a fault plan.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Installs a storage-fault plan (default: every process under
    /// [`StoragePolicy::SyncAlways`](crate::StoragePolicy::SyncAlways),
    /// i.e. crashes never lose persisted records).
    pub fn storage(mut self, storage: StorageFaultPlan) -> Self {
        self.storage = storage;
        self
    }

    /// Sets the trace detail level (default: [`TraceLevel::Events`]).
    pub fn trace_level(mut self, level: TraceLevel) -> Self {
        self.trace_level = level;
        self
    }

    /// Bounds trace capture to a ring of the most recent `capacity`
    /// events (default: unbounded, keep everything).
    ///
    /// A bounded ring makes trace cost independent of run length: pushes
    /// recycle ring slots and the [`RunOutcome`] materializes O(capacity)
    /// events instead of the whole history. Capacity `0` records nothing
    /// at all; campaign runs use it, since no campaign check reads a
    /// trace.
    pub fn trace_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = Some(capacity);
        self
    }

    /// Selects the reliable-delivery policy (default:
    /// [`ReliabilityPolicy::Off`]).
    ///
    /// `Off` is fire-and-forget delivery. With
    /// [`ReliabilityPolicy::Retransmit`] every non-self message is
    /// tracked in a per-(sender, recipient) send buffer and retransmitted
    /// on a deterministic exponential-backoff schedule until acked,
    /// exhausted, or evicted; the receive side suppresses duplicates so
    /// processes still observe each message at most once. All jitter and
    /// ack-loss draws come from a dedicated stream derived from the
    /// master seed, so the per-process and routing streams — and
    /// therefore `--jobs 1 ≡ --jobs N` byte-identity — are untouched.
    pub fn reliability(mut self, policy: ReliabilityPolicy) -> Self {
        self.reliability = policy;
        self
    }

    /// Sets the sampling stride of the `queue_depth` histogram: the
    /// scheduler queue depth — including the event about to be popped —
    /// is recorded on every `every`-th pop.
    ///
    /// Default is [`QUEUE_DEPTH_SAMPLE_DEFAULT`] (64) so ordinary runs
    /// don't pay a histogram insert per event; `1` restores exhaustive
    /// per-event sampling, `0` disables the histogram entirely. The
    /// stride persists across [`Sim::run`] resumes (the pop counter is
    /// engine state), so chunked runs sample the same pops as an
    /// unbounded run.
    pub fn queue_depth_sampling(mut self, every: u64) -> Self {
        self.queue_depth_every = every;
        self
    }

    /// Finalizes the simulator.
    ///
    /// # Panics
    /// Panics if no processes were added, if the fault plan fails
    /// [`FaultPlan::validate`], or if both a message adversary and a state
    /// adversary were installed.
    pub fn build(self) -> Sim<P> {
        assert!(!self.processes.is_empty(), "simulation needs processes");
        if let Err(e) = self.faults.validate() {
            // ooc-lint::allow(protocol/panic, "builder misconfiguration at construction time, not a protocol state machine")
            panic!("invalid fault plan: {e}");
        }
        assert!(
            !(self.adversary.is_some() && self.state_adversary.is_some()),
            "install either an adversary or a state_adversary, not both"
        );
        let n = self.processes.len();
        let master = SplitMix64::new(self.seed);
        let rngs = (0..n).map(|i| master.derive(i as u64)).collect();
        let route_rng = master.derive(u64::MAX);
        // `derive` is pure, so carving out the reliability stream leaves
        // the per-process and routing streams untouched — an Off run
        // draws exactly what it would without the layer.
        let reliability = match self.reliability {
            ReliabilityPolicy::Off => None,
            ReliabilityPolicy::Retransmit(cfg) => Some(ReliabilityState::new(
                cfg,
                master.derive(u64::MAX - 1),
                self.config.drop_probability.max(0.0),
                n,
            )),
        };
        let adversary = match (self.adversary, self.state_adversary) {
            (_, Some(state)) => RoutingAdversary::State(state),
            (Some(msg), None) => RoutingAdversary::Message(msg),
            (None, None) => {
                RoutingAdversary::Message(Box::new(NetworkAdversary::new(self.config.clone())))
            }
        };
        let crash_thresholds = (0..n)
            .map(|i| self.faults.event_crash_threshold(ProcessId(i)))
            .collect();
        let (metrics, metric_ids) = EngineMetrics::template();
        let mut sim = Sim {
            processes: self.processes,
            adversary,
            self_delay: self.config.self_delay,
            fifo_links: self.config.fifo_links,
            clocks: self.clocks,
            sync_latency: (0..n)
                .map(|i| self.storage.sync_latency_for(ProcessId(i)))
                .collect(),
            rngs,
            route_rng,
            queue: TimingWheel::new(),
            seq: 0,
            now: SimTime::ZERO,
            started: false,
            crashed: vec![false; n],
            halted: vec![false; n],
            decisions: Arc::new(vec![None; n]),
            decision_times: Arc::new(vec![None; n]),
            decided_flags: vec![false; n],
            decided_count: 0,
            crashed_count: 0,
            live_undecided_count: n,
            observations: vec![ProtocolObservation::default(); n],
            stale: vec![true; n],
            events_handled: vec![0; n],
            crash_thresholds,
            live_timers: vec![BTreeSet::new(); n],
            stores: (0..n)
                .map(|i| StableStore::new(self.storage.policy_for(ProcessId(i))))
                .collect(),
            next_timer: 0,
            fifo_horizon: BTreeMap::new(),
            stats: RunStats::default(),
            trace: TraceRing::new(self.trace_level, self.trace_capacity),
            metrics: metrics.clone(),
            metric_ids: *metric_ids,
            pops: 0,
            queue_depth_every: self.queue_depth_every,
            scratch: Effects::default(),
            reliability,
            pending_msgs: 0,
            pending_faults: 0,
        };
        for &(p, spec) in self.faults.crashes() {
            if let CrashSpec::AtTime(t) = spec {
                sim.schedule(t, EventKind::Crash { process: p });
            }
        }
        for &(p, t) in self.faults.restarts() {
            sim.schedule(t, EventKind::Restart { process: p });
        }
        sim
    }
}

/// Pre-resolved [`MetricsRegistry`] handles for every metric the engine
/// feeds, so the per-event paths update by slot index instead of a
/// string-keyed map lookup. The names are interned once per process
/// ([`EngineMetrics::template`]); a build clones the template registry,
/// which copies value slots and shares the name index.
#[derive(Debug, Clone, Copy)]
struct EngineMetrics {
    events: CounterId,
    messages_sent: CounterId,
    messages_delivered: CounterId,
    duplicate_deliveries: CounterId,
    messages_duplicated: CounterId,
    dropped_dead_recipient: CounterId,
    dropped_halted_recipient: CounterId,
    dropped_adversary: CounterId,
    dropped_partition: CounterId,
    dropped_loss: CounterId,
    dropped_duplicate: CounterId,
    evicted: CounterId,
    retransmissions: CounterId,
    acks_sent: CounterId,
    acks_delivered: CounterId,
    acks_dropped: CounterId,
    retry_exhausted: CounterId,
    timers_fired: CounterId,
    crashes: CounterId,
    restarts: CounterId,
    decisions: CounterId,
    storage_writes: CounterId,
    storage_syncs: CounterId,
    storage_lost: CounterId,
    queue_depth: HistogramId,
    delay_ticks: HistogramId,
    decision_ticks: HistogramId,
    sync_stall_ticks: HistogramId,
}

impl EngineMetrics {
    /// A registry with every engine metric interned (all slots
    /// untouched, so it reports nothing), and the handles into it.
    fn template() -> &'static (MetricsRegistry, EngineMetrics) {
        static TEMPLATE: OnceLock<(MetricsRegistry, EngineMetrics)> = OnceLock::new();
        TEMPLATE.get_or_init(|| {
            let mut metrics = MetricsRegistry::new();
            let ids = EngineMetrics::resolve(&mut metrics);
            (metrics, ids)
        })
    }

    fn resolve(metrics: &mut MetricsRegistry) -> Self {
        EngineMetrics {
            events: metrics.counter_id("events"),
            messages_sent: metrics.counter_id("messages.sent"),
            messages_delivered: metrics.counter_id("messages.delivered"),
            duplicate_deliveries: metrics.counter_id("messages.duplicate_deliveries"),
            messages_duplicated: metrics.counter_id("messages.duplicated"),
            dropped_dead_recipient: metrics.counter_id("messages.dropped.dead_recipient"),
            dropped_halted_recipient: metrics.counter_id("messages.dropped.halted_recipient"),
            dropped_adversary: metrics.counter_id("messages.dropped.adversary"),
            dropped_partition: metrics.counter_id("messages.dropped.partition"),
            dropped_loss: metrics.counter_id("messages.dropped.loss"),
            dropped_duplicate: metrics.counter_id("messages.dropped.duplicate_suppressed"),
            evicted: metrics.counter_id("messages.evicted"),
            retransmissions: metrics.counter_id("reliable.retransmissions"),
            acks_sent: metrics.counter_id("reliable.acks_sent"),
            acks_delivered: metrics.counter_id("reliable.acks_delivered"),
            acks_dropped: metrics.counter_id("reliable.acks_dropped"),
            retry_exhausted: metrics.counter_id("reliable.retry_exhausted"),
            timers_fired: metrics.counter_id("timers.fired"),
            crashes: metrics.counter_id("crashes"),
            restarts: metrics.counter_id("restarts"),
            decisions: metrics.counter_id("decisions"),
            storage_writes: metrics.counter_id("storage.writes"),
            storage_syncs: metrics.counter_id("storage.syncs"),
            storage_lost: metrics.counter_id("storage.lost_records"),
            queue_depth: metrics.histogram_id("queue_depth"),
            delay_ticks: metrics.histogram_id("delay_ticks"),
            decision_ticks: metrics.histogram_id("decision_ticks"),
            sync_stall_ticks: metrics.histogram_id("sync_stall_ticks"),
        }
    }

    /// The `messages.dropped.*` counter for one drop reason.
    fn dropped(&self, reason: DropReason) -> CounterId {
        match reason {
            DropReason::Loss => self.dropped_loss,
            DropReason::Partition => self.dropped_partition,
            DropReason::Adversary => self.dropped_adversary,
            DropReason::HaltedRecipient => self.dropped_halted_recipient,
            DropReason::DuplicateSuppressed => self.dropped_duplicate,
            // A crashed process sends nothing, so the engine never drops
            // for a dead sender; file it with the dead-recipient drops.
            DropReason::DeadRecipient | DropReason::DeadSender => self.dropped_dead_recipient,
        }
    }
}

/// The asynchronous discrete-event simulator.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
pub struct Sim<P: Process> {
    processes: Vec<P>,
    adversary: RoutingAdversary<P::Msg>,
    self_delay: SimDuration,
    fifo_links: bool,
    /// Per-process clock drift; scales timer durations at arming time.
    clocks: ClockModel,
    /// Per-process slow-disk injection: ticks a `sync()` stalls the
    /// issuing process's subsequent effects.
    sync_latency: Vec<u64>,
    rngs: Vec<SplitMix64>,
    route_rng: SplitMix64,
    /// Pending events, popped in ascending `(at, seq)` order.
    queue: TimingWheel<EventKind<P::Msg>>,
    seq: u64,
    now: SimTime,
    started: bool,
    crashed: Vec<bool>,
    halted: Vec<bool>,
    // Arc-shared so `run()` hands out O(1) snapshots; mutated through
    // `Arc::make_mut`, which only copies while an outcome is still held.
    decisions: Arc<Vec<Option<P::Output>>>,
    decision_times: Arc<Vec<Option<SimTime>>>,
    /// Plain per-process decided flags, kept in lockstep with `decisions`
    /// so state adversaries can borrow them without touching the `Arc`.
    decided_flags: Vec<bool>,
    /// Incremental mirrors of the decision/liveness scans, so the
    /// per-event stop check is O(1) instead of O(n). Kept in lockstep
    /// by `apply_effects`, `crash` and `restart`; cross-checked against
    /// the full scans in debug builds.
    decided_count: usize,
    crashed_count: usize,
    /// Processes that are live (neither crashed nor halted) and still
    /// undecided — the `stop_when_all_decide` condition is this hitting
    /// zero while anybody is live.
    live_undecided_count: usize,
    /// Per-process [`Process::observe`] snapshots, refreshed before each
    /// state-adversary routing batch.
    observations: Vec<ProtocolObservation>,
    /// Processes invoked since their entry in `observations` was taken;
    /// only these are re-observed at the next refresh.
    stale: Vec<bool>,
    events_handled: Vec<u64>,
    crash_thresholds: Vec<Option<u64>>,
    // Ordered containers: scheduler state must never iterate in
    // RandomState order (determinism/unordered-iter).
    live_timers: Vec<BTreeSet<TimerId>>,
    /// Per-process simulated stable storage; crash losses are governed by
    /// each store's [`StoragePolicy`](crate::StoragePolicy).
    stores: Vec<StableStore>,
    next_timer: u64,
    fifo_horizon: BTreeMap<(ProcessId, ProcessId), SimTime>,
    stats: RunStats,
    trace: TraceRing,
    metrics: MetricsRegistry,
    metric_ids: EngineMetrics,
    /// Total pops across all `run` calls; drives queue-depth sampling.
    pops: u64,
    queue_depth_every: u64,
    /// Reused per-invocation effects buffer: the engine drains it after
    /// every handler, so outbox/timer capacity is allocated once and
    /// kept for the lifetime of the run.
    scratch: Effects<P::Msg, P::Output>,
    /// Reliable-delivery state; `Some` iff the builder selected
    /// [`ReliabilityPolicy::Retransmit`].
    reliability: Option<ReliabilityState<P::Msg>>,
    /// Queued message-bearing events (Deliver / Ack), maintained at every
    /// schedule and pop so the liveness watchdog can ask "is anything
    /// still in flight?" in O(1).
    pending_msgs: u64,
    /// Queued fault events (Crash / Restart) — a pending restart can
    /// wake an otherwise-idle run, so the watchdog must see it.
    pending_faults: u64,
}

impl<P: Process> Sim<P> {
    /// Starts building a simulator over the given network configuration.
    pub fn builder(config: NetworkConfig) -> SimBuilder<P> {
        SimBuilder {
            processes: Vec::new(),
            config,
            adversary: None,
            state_adversary: None,
            faults: FaultPlan::default(),
            storage: StorageFaultPlan::default(),
            clocks: ClockModel::nominal(),
            seed: 0,
            trace_level: TraceLevel::Events,
            trace_capacity: None,
            queue_depth_every: QUEUE_DEPTH_SAMPLE_DEFAULT,
            reliability: ReliabilityPolicy::default(),
        }
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.processes.len()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The metrics accumulated so far (counters and tick histograms).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Immutable access to a process, e.g. to inspect final state after a
    /// run.
    pub fn process(&self, id: ProcessId) -> &P {
        &self.processes[id.index()]
    }

    /// Whether the process is currently crashed.
    pub fn is_crashed(&self, id: ProcessId) -> bool {
        self.crashed[id.index()]
    }

    /// A process's stable storage, e.g. to inspect surviving records
    /// after a run.
    pub fn store(&self, id: ProcessId) -> &StableStore {
        &self.stores[id.index()]
    }

    /// The decision of a process so far, if any.
    pub fn decision(&self, id: ProcessId) -> Option<&P::Output> {
        self.decisions[id.index()].as_ref()
    }

    /// Queues `kind` at `at` under the next scheduling sequence number;
    /// same-tick events pop in the order they were scheduled.
    fn schedule(&mut self, at: SimTime, kind: EventKind<P::Msg>) {
        match &kind {
            EventKind::Deliver { .. } | EventKind::Ack { .. } => self.pending_msgs += 1,
            EventKind::Crash { .. } | EventKind::Restart { .. } => self.pending_faults += 1,
            EventKind::Timer { .. } | EventKind::RetransmitCheck { .. } => {}
        }
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(at.ticks(), seq, kind);
    }

    /// Runs (or resumes) the simulation until a stop condition from
    /// `limit` is met. Can be called repeatedly; state persists between
    /// calls, so e.g. one can run until the first decision, inspect, and
    /// resume.
    pub fn run(&mut self, limit: RunLimit) -> RunOutcome<P::Output> {
        if !self.started {
            self.started = true;
            for i in 0..self.processes.len() {
                self.invoke(ProcessId(i), Invocation::Start);
            }
        }
        // Preallocate the trace for the bounded portion of this run so
        // the event loop appends without growing mid-flight. Each event
        // records a handful of trace entries; the reservation is capped
        // so the default (effectively unbounded) limits don't ask for
        // gigabytes up front.
        const TRACE_RESERVE_CAP: u64 = 1 << 16;
        self.trace
            .reserve(limit.max_events.min(TRACE_RESERVE_CAP) as usize * 2);
        let mut events_this_run: u64 = 0;
        let reason = loop {
            if let Some(r) = self.stop_reason(&limit) {
                break r;
            }
            // Check the event budget *before* popping, mirroring the
            // max_time path: the next event must stay queued and
            // `self.now` untouched, so a resumed run replays exactly
            // the schedule an unbounded run would have produced.
            if events_this_run >= limit.max_events {
                break StopReason::EventLimit;
            }
            // Peek before popping: an event beyond the time bound stays
            // queued (and `self.now` untouched) for a potential later
            // resume with a larger bound. A pop-then-re-push shape would
            // also break the timing wheel's bucket FIFO invariant, which
            // assumes seqs within a bucket only ever grow.
            let Some(next_at) = self.queue.next_time() else {
                break StopReason::Quiescent;
            };
            if next_at > limit.max_time.ticks() {
                break StopReason::TimeLimit;
            }
            self.pops += 1;
            if self.queue_depth_every != 0 && self.pops.is_multiple_of(self.queue_depth_every) {
                // Depth *including* the event about to be popped, as the
                // builder knob documents.
                self.metrics
                    .observe_by_id(self.metric_ids.queue_depth, self.queue.len() as u64);
            }
            // ooc-lint::allow(protocol/panic, "next_time() just returned Some, so the queue is non-empty and the pop cannot fail")
            let (at, _, kind) = self.queue.pop().expect("peeked event must pop");
            self.now = SimTime::from_ticks(at);
            events_this_run += 1;
            match kind {
                EventKind::Deliver { from, to, msg, tag } => {
                    self.pending_msgs -= 1;
                    self.deliver(from, to, msg, tag);
                }
                EventKind::Ack { from, to, cum, seq } => {
                    self.pending_msgs -= 1;
                    self.rel_ack(from, to, cum, seq);
                }
                EventKind::Crash { process } => {
                    self.pending_faults -= 1;
                    self.crash(process);
                }
                EventKind::Restart { process } => {
                    self.pending_faults -= 1;
                    self.restart(process);
                }
                EventKind::Timer { process, id } => self.fire_timer(process, id),
                EventKind::RetransmitCheck { process } => self.retransmit_check(process),
            }
        };
        self.stats.end_time = self.now;
        self.watchdog(reason);
        RunOutcome {
            // O(1) shared snapshots; the engine copies-on-write only if
            // a later decision lands while this outcome is still alive.
            decisions: Arc::clone(&self.decisions),
            decision_times: Arc::clone(&self.decision_times),
            stats: self.stats,
            reason,
            trace: self.trace.to_trace(),
            metrics: self.metrics.clone(),
        }
    }

    fn stop_reason(&self, limit: &RunLimit) -> Option<StopReason> {
        // The counters mirror the scans this function used to run per
        // event; keep the scans as debug cross-checks.
        debug_assert_eq!(self.decided_count, self.decisions.iter().flatten().count());
        debug_assert_eq!(self.crashed_count, self.crashed.iter().filter(|&&c| c).count());
        debug_assert_eq!(
            self.live_undecided_count,
            (0..self.processes.len())
                .filter(|&i| !self.crashed[i] && !self.halted[i] && self.decisions[i].is_none())
                .count()
        );
        if let Some(k) = limit.stop_after_decisions {
            if self.decided_count >= k {
                return Some(StopReason::DecisionTarget);
            }
        }
        if limit.stop_when_all_decide {
            let any_live = self.crashed_count < self.processes.len();
            if any_live && self.live_undecided_count == 0 && self.decided_count > 0 {
                return Some(StopReason::AllDecided);
            }
        }
        None
    }

    /// Counts, meters and traces one message the engine discards.
    fn drop_message(&mut self, from: ProcessId, to: ProcessId, reason: DropReason) {
        self.stats.messages_dropped += 1;
        self.metrics.incr_by_id(self.metric_ids.dropped(reason), 1);
        self.trace.push(TraceEvent::Drop {
            at: self.now,
            from,
            to,
            reason,
        });
    }

    /// Handles one message copy reaching `to`.
    ///
    /// Order of concerns: a crashed recipient drops the copy (a tracked
    /// copy goes unacked, so its sender keeps retrying — the recipient
    /// may restart). A tracked copy is then acked, and suppressed if its
    /// seq was already received (the re-ack covers a lost ack). A halted
    /// recipient drops what is left: it is done, not faulty, and the ack
    /// above still stops its sender retransmitting.
    fn deliver(&mut self, from: ProcessId, to: ProcessId, msg: Payload<P::Msg>, tag: Tag) {
        if self.crashed[to.index()] {
            self.drop_message(from, to, DropReason::DeadRecipient);
            return;
        }
        if let Tag::Tracked(seq) = tag {
            let rel = self
                .reliability
                .as_mut()
                // ooc-lint::allow(protocol/panic, "tracked copies are only scheduled while the reliability state is Some, and it is never torn down mid-run")
                .expect("tracked copies require the reliability state");
            let received = rel.receive(from, to, seq);
            self.send_ack(to, from, received.cum, seq);
            if !received.fresh {
                self.drop_message(from, to, DropReason::DuplicateSuppressed);
                return;
            }
        }
        if self.halted[to.index()] {
            self.drop_message(from, to, DropReason::HaltedRecipient);
            return;
        }
        if tag == Tag::Extra {
            self.stats.duplicate_deliveries += 1;
            self.metrics
                .incr_by_id(self.metric_ids.duplicate_deliveries, 1);
        } else {
            self.stats.messages_delivered += 1;
            self.metrics.incr_by_id(self.metric_ids.messages_delivered, 1);
        }
        let payload =
            (self.trace.level() == TraceLevel::Full).then(|| format!("{:?}", msg.as_msg()));
        self.trace.push(TraceEvent::Deliver {
            at: self.now,
            from,
            to,
            payload,
        });
        // The last in-flight copy of a broadcast unwraps its Arc for free.
        self.invoke(to, Invocation::Message { from, msg: msg.into_msg() });
    }

    fn fire_timer(&mut self, process: ProcessId, id: TimerId) {
        if self.crashed[process.index()] || self.halted[process.index()] {
            return;
        }
        if !self.live_timers[process.index()].remove(&id) {
            return; // cancelled
        }
        self.stats.timers_fired += 1;
        self.metrics.incr_by_id(self.metric_ids.timers_fired, 1);
        self.trace.push(TraceEvent::TimerFired {
            at: self.now,
            process,
        });
        self.invoke(process, Invocation::Timer { id });
    }

    fn crash(&mut self, process: ProcessId) {
        if self.crashed[process.index()] {
            return;
        }
        self.crashed[process.index()] = true;
        self.crashed_count += 1;
        if !self.halted[process.index()] && !self.decided_flags[process.index()] {
            self.live_undecided_count -= 1;
        }
        self.live_timers[process.index()].clear();
        self.stats.crashes += 1;
        self.metrics.incr_by_id(self.metric_ids.crashes, 1);
        self.trace.push(TraceEvent::Crash {
            at: self.now,
            process,
        });
        // A crash wipes the process's reliability state: its send
        // buffers (a dead process retransmits nothing), its receive-side
        // dedup marks (a restart is a new incarnation with a fresh
        // sequence space), and its queued check ticks (already-scheduled
        // RetransmitCheck events become harmless husks).
        if let Some(rel) = self.reliability.as_mut() {
            rel.on_crash(process);
        }
        // Storage faults bite at the moment of the crash: the store's
        // policy decides what the unsynced (or, for Amnesia, the whole)
        // suffix of the record log is worth.
        let lost = self.stores[process.index()].apply_crash();
        if lost > 0 {
            self.metrics.incr_by_id(self.metric_ids.storage_lost, lost);
            self.trace.push(TraceEvent::SyncLost {
                at: self.now,
                process,
                lost,
            });
        }
    }

    fn restart(&mut self, process: ProcessId) {
        if !self.crashed[process.index()] {
            return;
        }
        self.crashed[process.index()] = false;
        self.crashed_count -= 1;
        if !self.halted[process.index()] && !self.decided_flags[process.index()] {
            self.live_undecided_count += 1;
        }
        self.stats.restarts += 1;
        self.metrics.incr_by_id(self.metric_ids.restarts, 1);
        self.trace.push(TraceEvent::Restart {
            at: self.now,
            process,
        });
        self.trace.push(TraceEvent::Recover {
            at: self.now,
            process,
            records: self.stores[process.index()].len() as u64,
        });
        self.invoke(process, Invocation::Restart);
    }

    fn invoke(&mut self, pid: ProcessId, invocation: Invocation<P::Msg>) {
        let i = pid.index();
        if self.crashed[i] || self.halted[i] {
            return;
        }
        // Reuse the engine's scratch buffer: apply_effects drains it, so
        // its vectors keep their capacity across invocations instead of
        // allocating a fresh outbox per handler.
        let mut effects = std::mem::take(&mut self.scratch);
        {
            let mut ctx = crate::Context::new(
                pid,
                self.processes.len(),
                self.now,
                &mut self.rngs[i],
                &mut self.next_timer,
                &self.live_timers[i],
                &self.stores[i],
                &mut effects,
            );
            let p = &mut self.processes[i];
            match invocation {
                Invocation::Start => p.on_start(&mut ctx),
                Invocation::Message { from, msg } => p.on_message(&mut ctx, from, msg),
                Invocation::Timer { id } => p.on_timer(&mut ctx, id),
                Invocation::Restart => p.on_restart(&mut ctx),
            }
        }
        self.stats.events_processed += 1;
        self.metrics.incr_by_id(self.metric_ids.events, 1);
        self.events_handled[i] += 1;
        self.apply_effects(pid, &mut effects);
        effects.halted = false;
        self.scratch = effects;
        if let Some(threshold) = self.crash_thresholds[i] {
            if self.events_handled[i] >= threshold && !self.crashed[i] {
                // One-shot: a cleared threshold cannot re-kill the process
                // on its first post-restart invocation (the handled-events
                // count survives the crash and would still be over it).
                self.crash_thresholds[i] = None;
                self.crash(pid);
            }
        }
    }

    /// Asks the installed adversary how to route one outgoing message
    /// and — only when it is delivered — whether the network duplicates
    /// it. Both answers draw from the routing stream, in that order.
    fn route(&mut self, from: ProcessId, to: ProcessId, msg: &P::Msg) -> (Decision, bool) {
        let now = self.now;
        let rng = &mut self.route_rng;
        match &mut self.adversary {
            RoutingAdversary::Message(a) => {
                let decision = a.route(now, from, to, msg, rng);
                let dup = matches!(decision, Decision::DeliverAfter(_))
                    && a.duplicate(now, from, to, msg, rng);
                (decision, dup)
            }
            RoutingAdversary::State(a) => {
                let view = StateView {
                    now,
                    observations: &self.observations,
                    crashed: &self.crashed,
                    decided: &self.decided_flags,
                };
                let decision = a.route(now, from, to, msg, &view, rng);
                let dup = matches!(decision, Decision::DeliverAfter(_))
                    && a.duplicate(now, from, to, msg, &view, rng);
                (decision, dup)
            }
        }
    }

    /// Applies and *drains* the collected effects; the caller returns the
    /// emptied buffer to `self.scratch` so its capacity is reused.
    fn apply_effects(&mut self, pid: ProcessId, effects: &mut Effects<P::Msg, P::Output>) {
        let i = pid.index();
        // A state adversary sees the observables as they stand *after*
        // the invocation that produced these effects; one snapshot per
        // batch suffices since state only changes inside invocations.
        // Only processes invoked since their last snapshot can differ
        // from it, so only those are re-observed. The others keep the
        // snapshot of the last refresh, which is also what a
        // retransmission routed before the next refresh sees.
        self.stale[i] = true;
        if matches!(self.adversary, RoutingAdversary::State(_)) && !effects.outbox.is_empty() {
            for (j, p) in self.processes.iter().enumerate() {
                if std::mem::take(&mut self.stale[j]) {
                    self.observations[j] = p.observe();
                }
            }
        }
        // Slow-disk injection: every sync in this batch stalls the issuing
        // process, pushing the whole invocation's sends and timers late.
        let mut stall = SimDuration::ZERO;
        // Storage lands first: a record is persisted before any of the
        // invocation's outgoing messages become visible, so a process
        // never tells the network something its storage does not know.
        for op in effects.storage.drain(..) {
            match op {
                StorageOp::Put { key, value } => {
                    self.metrics.incr_by_id(self.metric_ids.storage_writes, 1);
                    let traced_key = (self.trace.level() == TraceLevel::Full)
                        .then(|| key.clone());
                    self.trace.push(TraceEvent::Persist {
                        at: self.now,
                        process: pid,
                        key: traced_key,
                        bytes: value.len() as u64,
                    });
                    self.stores[i].append(key, value);
                }
                StorageOp::Sync => {
                    self.metrics.incr_by_id(self.metric_ids.storage_syncs, 1);
                    let latency = self.sync_latency[i];
                    if latency > 0 {
                        stall = stall + SimDuration::from_ticks(latency);
                        self.metrics
                            .observe_by_id(self.metric_ids.sync_stall_ticks, latency);
                    }
                    let records = self.stores[i].sync() as u64;
                    self.trace.push(TraceEvent::SyncOk {
                        at: self.now,
                        process: pid,
                        records,
                    });
                }
            }
        }
        for (id, after) in effects.timer_requests.drain(..) {
            self.live_timers[i].insert(id);
            // Clock drift scales the requested duration at arming time;
            // a pending fsync stall delays the start of the countdown.
            let at = self.now + stall + self.clocks.scale(pid, after);
            self.schedule(at, EventKind::Timer { process: pid, id });
        }
        // Cancellations apply last so a timer set and cancelled within one
        // handler invocation stays cancelled.
        for id in effects.cancelled.drain(..) {
            self.live_timers[i].remove(&id);
        }
        for out in effects.outbox.drain(..) {
            self.send(pid, out.to, out.msg, stall, None);
        }
        if let Some(value) = effects.decision.take() {
            if self.decisions[i].is_none() {
                let value_debug =
                    (self.trace.level() == TraceLevel::Full).then(|| format!("{:?}", value));
                self.trace.push(TraceEvent::Decide {
                    at: self.now,
                    process: pid,
                    value: value_debug,
                });
                // Copy-on-write: this only clones the vectors if a
                // previously returned RunOutcome still shares them.
                Arc::make_mut(&mut self.decisions)[i] = Some(value);
                Arc::make_mut(&mut self.decision_times)[i] = Some(self.now);
                self.decided_flags[i] = true;
                self.decided_count += 1;
                // The process is mid-invocation, so it is neither crashed
                // nor halted: it just left the live-undecided set.
                self.live_undecided_count -= 1;
                self.metrics.incr_by_id(self.metric_ids.decisions, 1);
                self.metrics
                    .observe_by_id(self.metric_ids.decision_ticks, self.now.ticks());
            }
        }
        if effects.halted {
            self.halted[i] = true;
            // Runs after the decision branch above, so a decide-then-halt
            // batch decrements the live-undecided count exactly once.
            if !self.decided_flags[i] {
                self.live_undecided_count -= 1;
            }
            self.live_timers[i].clear();
        }
    }

    /// Hands one message to the network: an outbox entry of the handler
    /// that just ran (`retry` is `None`), or a retransmission of the
    /// tracked message with pair seq `retry`.
    ///
    /// Under [`ReliabilityPolicy::Retransmit`] a first non-self send is
    /// registered in the sender's buffer *before* it touches the network,
    /// so a copy the network wipes is retransmitted until acked,
    /// exhausted, or evicted; its first retransmission check is armed
    /// once it is routed. Self-messages bypass the adversary and the
    /// reliability layer (they cannot be lost), but not the fsync
    /// stall: the sender is the one stalled.
    fn send(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        msg: Payload<P::Msg>,
        stall: SimDuration,
        retry: Option<u64>,
    ) {
        let tag = match (retry, self.reliability.as_mut()) {
            (Some(seq), _) => Tag::Tracked(seq),
            (None, Some(rel)) if to != from => {
                let registered = rel.register(self.now, from, to, &msg);
                if let Some((evicted_to, seq)) = registered.evicted {
                    self.stats.messages_evicted += 1;
                    self.metrics.incr_by_id(self.metric_ids.evicted, 1);
                    self.trace.push(TraceEvent::Evict {
                        at: self.now,
                        from,
                        to: evicted_to,
                        seq,
                    });
                }
                Tag::Tracked(registered.seq)
            }
            (None, _) => Tag::Plain,
        };
        self.stats.messages_sent += 1;
        self.metrics.incr_by_id(self.metric_ids.messages_sent, 1);
        // Sends are part of the trace contract at every recording level;
        // only the payload string is Full-level extra.
        let payload =
            (self.trace.level() == TraceLevel::Full).then(|| format!("{:?}", msg.as_msg()));
        self.trace.push(TraceEvent::Send {
            at: self.now,
            from,
            to,
            payload,
        });
        if to == from {
            self.metrics
                .observe_by_id(self.metric_ids.delay_ticks, self.self_delay.ticks());
            let at = self.now + stall + self.self_delay;
            self.schedule(at, EventKind::Deliver { from, to, msg, tag });
            return;
        }
        match self.route(from, to, msg.as_msg()) {
            (Decision::Drop, _) => self.drop_message(from, to, DropReason::Adversary),
            (Decision::DropPartition, _) => self.drop_message(from, to, DropReason::Partition),
            (Decision::DropLoss, _) => self.drop_message(from, to, DropReason::Loss),
            (Decision::DeliverAfter(d), dup) => {
                // Causality floor, then the sender's fsync stall.
                let d = SimDuration::from_ticks(d.ticks().max(1)) + stall;
                self.metrics.observe_by_id(self.metric_ids.delay_ticks, d.ticks());
                let mut at = self.now + d;
                if self.fifo_links {
                    let horizon = self.fifo_horizon.entry((from, to)).or_insert(SimTime::ZERO);
                    if at <= *horizon {
                        at = *horizon + SimDuration::from_ticks(1);
                    }
                    *horizon = at;
                }
                if dup {
                    // The extra copy lands a tick later but is scheduled
                    // first, so it takes the lower seq.
                    self.stats.messages_duplicated += 1;
                    self.metrics.incr_by_id(self.metric_ids.messages_duplicated, 1);
                    let extra = if tag == Tag::Plain { Tag::Extra } else { tag };
                    let copy = EventKind::Deliver {
                        from,
                        to,
                        msg: msg.clone(),
                        tag: extra,
                    };
                    self.schedule(at + SimDuration::from_ticks(1), copy);
                }
                self.schedule(at, EventKind::Deliver { from, to, msg, tag });
            }
        }
        if retry.is_none() {
            self.ensure_check(from);
        }
    }

    /// Makes sure a [`EventKind::RetransmitCheck`] is queued for `pid` no
    /// later than its earliest retransmission deadline. Later checks
    /// already queued are left in place (they become cheap no-ops);
    /// earlier ones cover the new deadline by definition.
    fn ensure_check(&mut self, pid: ProcessId) {
        let Some(rel) = self.reliability.as_mut() else {
            return;
        };
        let Some(deadline) = rel.earliest_deadline(pid) else {
            return;
        };
        let tick = deadline.ticks().max(self.now.ticks());
        if rel.note_check(pid, tick) {
            self.schedule(
                SimTime::from_ticks(tick),
                EventKind::RetransmitCheck { process: pid },
            );
        }
    }

    /// Schedules the ack for one received copy: `acker → sender`,
    /// carrying the cumulative mark plus the triggering seq. Acks are
    /// engine control plane — they skip the adversary and the
    /// send/deliver counters, but still face the network's ambient loss
    /// probability through the dedicated reliability stream.
    fn send_ack(&mut self, acker: ProcessId, sender: ProcessId, cum: u64, seq: u64) {
        self.metrics.incr_by_id(self.metric_ids.acks_sent, 1);
        let rel = self
            .reliability
            .as_mut()
            // ooc-lint::allow(protocol/panic, "only tracked deliveries ack, and they already unwrapped the state")
            .expect("acks require the reliability state");
        let ack_drop = rel.ack_drop;
        let ack_delay = rel.cfg.ack_delay;
        if ack_drop > 0.0 && rel.rng.chance(ack_drop) {
            self.metrics.incr_by_id(self.metric_ids.acks_dropped, 1);
            return;
        }
        self.schedule(
            self.now + SimDuration::from_ticks(ack_delay),
            EventKind::Ack {
                from: acker,
                to: sender,
                cum,
                seq,
            },
        );
    }

    /// Applies a delivered ack at the original sender. No liveness
    /// check is needed: if the sender crashed, the crash already cleared
    /// its buffers and the application is a no-op.
    fn rel_ack(&mut self, from: ProcessId, to: ProcessId, cum: u64, seq: u64) {
        self.metrics.incr_by_id(self.metric_ids.acks_delivered, 1);
        if let Some(rel) = self.reliability.as_mut() {
            rel.apply_ack(to, from, cum, seq);
        }
    }

    /// Sweeps `process`'s send buffers for entries past their deadline:
    /// exhausted entries are retired, the rest are retransmitted through
    /// [`Sim::send`] (so a retry faces the adversary afresh — that is
    /// exactly how it can land in a heal window). Then re-arms the next
    /// check from the new earliest deadline.
    fn retransmit_check(&mut self, process: ProcessId) {
        let Some(rel) = self.reliability.as_mut() else {
            return;
        };
        rel.pop_check(process, self.now.ticks());
        if self.crashed[process.index()] {
            return;
        }
        let (due, exhausted) = rel.due(process, self.now);
        if exhausted > 0 {
            self.metrics
                .incr_by_id(self.metric_ids.retry_exhausted, exhausted);
        }
        for d in due {
            self.stats.retransmissions += 1;
            self.metrics.incr_by_id(self.metric_ids.retransmissions, 1);
            self.trace.push(TraceEvent::Retransmit {
                at: self.now,
                from: process,
                to: d.to,
                attempt: d.retries,
            });
            self.send(process, d.to, d.msg, SimDuration::ZERO, Some(d.seq));
        }
        self.ensure_check(process);
    }

    /// Armed timers owned by live (neither crashed nor halted)
    /// processes — the only timers that can still cause progress
    /// (`fire_timer` ignores the rest).
    fn armed_live_timers(&self) -> u64 {
        (0..self.processes.len())
            .filter(|&i| !self.crashed[i] && !self.halted[i])
            .map(|i| self.live_timers[i].len() as u64)
            .sum()
    }

    /// Unacked reliability-buffer entries held by live senders — each
    /// one a future retransmission that can still cause progress.
    fn live_buffered(&self) -> u64 {
        let Some(rel) = self.reliability.as_ref() else {
            return 0;
        };
        (0..self.processes.len())
            .filter(|&i| !self.crashed[i])
            .map(|i| rel.buffered(ProcessId(i)) as u64)
            .sum()
    }

    /// The liveness watchdog: classifies how the run ended.
    ///
    /// A run is *stalled* when live undecided processes remain but
    /// nothing can ever wake them again: the queue drained completely
    /// (`Quiescent`), or the time bound hit with zero in-flight
    /// messages, zero pending fault injections, zero armed live timers
    /// and zero buffered retransmissions. A merely-slow run — anything
    /// still in flight, armed, or buffered at `max_time` — is
    /// genuinely live, not stalled. The verdict (and `idle_since`, the
    /// time of the last processed event) lands in [`RunStats`] and, when
    /// stalled, as a [`TraceEvent::Stalled`] record.
    fn watchdog(&mut self, reason: StopReason) {
        let idle = match reason {
            StopReason::Quiescent => true,
            StopReason::TimeLimit => {
                self.pending_msgs == 0
                    && self.pending_faults == 0
                    && self.armed_live_timers() == 0
                    && self.live_buffered() == 0
            }
            _ => false,
        };
        let stalled = idle && self.live_undecided_count > 0;
        self.stats.stalled = stalled;
        self.stats.idle_since = if stalled { self.now } else { SimTime::ZERO };
        if stalled {
            self.trace.push(TraceEvent::Stalled {
                at: self.now,
                idle_since: self.now,
            });
        }
    }
}

enum Invocation<M> {
    Start,
    Message { from: ProcessId, msg: M },
    Timer { id: TimerId },
    Restart,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state_adversary::VoteSplitStateAdversary;
    use crate::Context;

    /// Broadcasts own id once; decides on the max id seen after hearing
    /// from everyone.
    #[derive(Debug, Default)]
    struct MaxId {
        seen: Vec<u64>,
    }

    impl Process for MaxId {
        type Msg = u64;
        type Output = u64;

        fn on_start(&mut self, ctx: &mut Context<'_, u64, u64>) {
            ctx.broadcast(ctx.me().index() as u64);
        }

        fn on_message(&mut self, ctx: &mut Context<'_, u64, u64>, _from: ProcessId, msg: u64) {
            self.seen.push(msg);
            if self.seen.len() == ctx.n() {
                ctx.decide(*self.seen.iter().max().unwrap());
            }
        }

        fn on_timer(&mut self, _ctx: &mut Context<'_, u64, u64>, _t: TimerId) {}
    }

    fn max_id_sim(seed: u64, n: usize, cfg: NetworkConfig) -> Sim<MaxId> {
        Sim::builder(cfg)
            .seed(seed)
            .processes((0..n).map(|_| MaxId::default()))
            .build()
    }

    #[test]
    fn simple_consensus_on_max_id() {
        let mut sim = max_id_sim(1, 5, NetworkConfig::default());
        let out = sim.run(RunLimit::default());
        assert_eq!(out.reason, StopReason::AllDecided);
        assert!(out.all_decided());
        assert_eq!(out.decided_value(), Some(4));
    }

    #[test]
    fn runs_are_deterministic() {
        let run = |seed| {
            let mut sim = max_id_sim(seed, 6, NetworkConfig::default());
            let out = sim.run(RunLimit::default());
            (out.stats, out.decision_times)
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).1, run(43).1, "different seeds should reorder");
    }

    #[test]
    fn crashed_process_never_decides() {
        let mut sim = Sim::builder(NetworkConfig::default())
            .seed(3)
            .processes((0..4).map(|_| MaxId::default()))
            .faults(FaultPlan::new().crash_at(ProcessId(0), SimTime::ZERO))
            .build();
        let out = sim.run(RunLimit::until_time(SimTime::from_ticks(10_000)));
        assert!(out.decisions[0].is_none());
        // Others never hear n messages (p0 is dead before start events run?
        // crash event is at t0 with seq before starts? starts run first) —
        // p0 broadcast at start, then crashed; others still decide.
        assert!(out.stats.crashes == 1);
    }

    #[test]
    fn crash_after_events_takes_effect() {
        let mut sim = Sim::builder(NetworkConfig::default())
            .seed(3)
            .processes((0..4).map(|_| MaxId::default()))
            .faults(FaultPlan::new().crash_after_events(ProcessId(2), 1))
            .build();
        let out = sim.run(RunLimit::until_time(SimTime::from_ticks(10_000)));
        // p2 handled exactly its start event then crashed: it broadcast but
        // never received, so it cannot have decided.
        assert!(out.decisions[2].is_none());
        assert_eq!(out.stats.crashes, 1);
    }

    #[test]
    fn crash_after_events_boundary_preserves_outgoing_effects() {
        // Crash-atomicity regression (see CrashSpec::AfterEvents): the
        // threshold is checked after apply_effects, so the messages sent
        // in the crossing invocation must survive the crash. p0 crashes
        // after its very first invocation (on_start) — its broadcast must
        // still reach everyone, letting the survivors count n messages.
        let mut sim = Sim::builder(NetworkConfig::default())
            .seed(5)
            .processes((0..3).map(|_| MaxId::default()))
            .faults(FaultPlan::new().crash_after_events(ProcessId(0), 1))
            .build();
        let out = sim.run(RunLimit::until_time(SimTime::from_ticks(10_000)));
        assert_eq!(out.stats.crashes, 1);
        assert_eq!(
            out.decisions[1],
            Some(2),
            "p0's dying broadcast must be delivered"
        );
        assert_eq!(out.decisions[2], Some(2));
    }

    #[test]
    fn crash_after_events_is_one_shot_across_restart() {
        // The handled-events count survives a crash, so a restarted
        // process is permanently over its AfterEvents threshold. The
        // threshold must be cleared when it fires — otherwise the very
        // first post-restart invocation would re-kill the process.
        #[derive(Debug)]
        struct RestartTimer;
        impl Process for RestartTimer {
            type Msg = ();
            type Output = u64;
            fn on_start(&mut self, ctx: &mut Context<'_, (), u64>) {
                ctx.set_timer(SimDuration::from_ticks(5));
            }
            fn on_message(&mut self, _c: &mut Context<'_, (), u64>, _f: ProcessId, _m: ()) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, (), u64>, _t: TimerId) {
                ctx.decide(7);
            }
            fn on_restart(&mut self, ctx: &mut Context<'_, (), u64>) {
                ctx.set_timer(SimDuration::from_ticks(5));
            }
        }
        let mut sim = Sim::builder(NetworkConfig::default())
            .seed(0)
            .processes(vec![RestartTimer])
            .faults(
                FaultPlan::new()
                    .crash_after_events(ProcessId(0), 1)
                    .restart_at(ProcessId(0), SimTime::from_ticks(10)),
            )
            .build();
        let out = sim.run(RunLimit::until_time(SimTime::from_ticks(100)));
        assert_eq!(out.stats.crashes, 1, "the threshold fires exactly once");
        assert_eq!(out.stats.restarts, 1);
        assert_eq!(
            out.decisions[0],
            Some(7),
            "the restarted process must live on to its timer"
        );
    }

    /// Persists "a", syncs, persists "b" — then waits to be crashed.
    #[derive(Debug, Default)]
    struct Persister;
    impl Process for Persister {
        type Msg = ();
        type Output = u64;
        fn on_start(&mut self, ctx: &mut Context<'_, (), u64>) {
            ctx.persist("a", vec![1, 2, 3, 4]);
            ctx.sync_storage();
            ctx.persist("b", vec![5, 6, 7, 8]);
        }
        fn on_message(&mut self, _c: &mut Context<'_, (), u64>, _f: ProcessId, _m: ()) {}
        fn on_timer(&mut self, _c: &mut Context<'_, (), u64>, _t: TimerId) {}
        fn on_restart(&mut self, ctx: &mut Context<'_, (), u64>) {
            ctx.decide(ctx.storage().len() as u64);
        }
    }

    fn crash_persister(policy: crate::StoragePolicy) -> (RunOutcome<u64>, Sim<Persister>) {
        let mut sim = Sim::builder(NetworkConfig::default())
            .seed(0)
            .processes(vec![Persister])
            .storage(StorageFaultPlan::uniform(policy))
            .faults(
                FaultPlan::new()
                    .crash_at(ProcessId(0), SimTime::from_ticks(5))
                    .restart_at(ProcessId(0), SimTime::from_ticks(10)),
            )
            .build();
        let out = sim.run(RunLimit::until_time(SimTime::from_ticks(100)));
        (out, sim)
    }

    #[test]
    fn storage_policies_decide_what_survives_a_crash() {
        use crate::StoragePolicy;
        // SyncAlways (default): both records survive, nothing lost.
        let (out, sim) = crash_persister(StoragePolicy::SyncAlways);
        assert_eq!(out.decisions[0], Some(2), "on_restart sees both records");
        assert_eq!(sim.store(ProcessId(0)).get("b"), Some(&[5u8, 6, 7, 8][..]));
        assert_eq!(out.metrics.counter("storage.lost_records"), 0);

        // LoseUnsynced: the synced prefix survives, the suffix is gone.
        let (out, sim) = crash_persister(StoragePolicy::LoseUnsynced);
        assert_eq!(out.decisions[0], Some(1), "only the synced record survives");
        assert_eq!(sim.store(ProcessId(0)).get("a"), Some(&[1u8, 2, 3, 4][..]));
        assert_eq!(sim.store(ProcessId(0)).get("b"), None);
        assert_eq!(out.metrics.counter("storage.lost_records"), 1);

        // TornLastWrite: "b" survives torn to half its bytes.
        let (out, sim) = crash_persister(StoragePolicy::TornLastWrite);
        assert_eq!(out.decisions[0], Some(2));
        assert_eq!(sim.store(ProcessId(0)).get("b"), Some(&[5u8, 6][..]));
        assert_eq!(out.metrics.counter("storage.lost_records"), 1);

        // Amnesia: everything is gone, synced or not.
        let (out, sim) = crash_persister(StoragePolicy::Amnesia);
        assert_eq!(out.decisions[0], Some(0), "on_restart sees an empty store");
        assert!(sim.store(ProcessId(0)).is_empty());
        assert_eq!(out.metrics.counter("storage.lost_records"), 2);
    }

    #[test]
    fn storage_events_join_trace_and_metrics() {
        let (out, _) = crash_persister(crate::StoragePolicy::LoseUnsynced);
        assert_eq!(out.metrics.counter("storage.writes"), 2);
        assert_eq!(out.metrics.counter("storage.syncs"), 1);
        let persists = out.trace.count(|e| matches!(e, TraceEvent::Persist { .. }));
        let syncs = out.trace.count(|e| matches!(e, TraceEvent::SyncOk { .. }));
        let losses = out.trace.count(|e| matches!(e, TraceEvent::SyncLost { .. }));
        let recovers = out.trace.count(|e| matches!(e, TraceEvent::Recover { .. }));
        assert_eq!((persists, syncs, losses, recovers), (2, 1, 1, 1));
        // The SyncOk reports exactly the records made durable by the sync.
        assert!(out
            .trace
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::SyncOk { records: 1, .. })));
        // Keys are payload-level detail: absent below TraceLevel::Full.
        assert!(out
            .trace
            .events()
            .iter()
            .all(|e| !matches!(e, TraceEvent::Persist { key: Some(_), .. })));
        // Recovery reports the store as on_restart saw it (1 survivor).
        assert!(out
            .trace
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::Recover { records: 1, .. })));
    }

    #[test]
    fn persistence_precedes_sends_within_an_invocation() {
        /// Persists then broadcasts in the same handler.
        #[derive(Debug)]
        struct WriteThenTell;
        impl Process for WriteThenTell {
            type Msg = ();
            type Output = u64;
            fn on_start(&mut self, ctx: &mut Context<'_, (), u64>) {
                ctx.broadcast_others(());
                ctx.persist("vote", vec![1]);
            }
            fn on_message(&mut self, _c: &mut Context<'_, (), u64>, _f: ProcessId, _m: ()) {}
            fn on_timer(&mut self, _c: &mut Context<'_, (), u64>, _t: TimerId) {}
        }
        let mut sim = Sim::builder(NetworkConfig::default())
            .seed(0)
            .processes(vec![WriteThenTell, WriteThenTell])
            .build();
        let out = sim.run(RunLimit::until_time(SimTime::from_ticks(100)));
        let first_persist = out
            .trace
            .events()
            .iter()
            .position(|e| matches!(e, TraceEvent::Persist { .. }))
            .expect("persist traced");
        let first_send = out
            .trace
            .events()
            .iter()
            .position(|e| matches!(e, TraceEvent::Send { .. }))
            .expect("send traced");
        assert!(
            first_persist < first_send,
            "storage effects must land before the invocation's sends"
        );
    }

    #[test]
    fn same_tick_crash_and_restart_leaves_process_alive() {
        // A crash and a restart scheduled for the same instant must resolve
        // crash-first (scheduling order in `build`), so the restart applies
        // and the process comes back instead of staying dead — and neither
        // side panics or underflows.
        let t = SimTime::from_ticks(5);
        let mut sim = Sim::builder(NetworkConfig::default())
            .seed(11)
            .processes((0..4).map(|_| MaxId::default()))
            .faults(FaultPlan::new().crash_at(ProcessId(0), t).restart_at(ProcessId(0), t))
            .build();
        let out = sim.run(RunLimit::until_time(SimTime::from_ticks(10_000)));
        assert_eq!(out.stats.crashes, 1);
        assert_eq!(
            out.stats.restarts, 1,
            "restart at the crash tick must still take effect"
        );
        // The surviving majority is untouched by the blip.
        for i in 1..4 {
            assert!(out.decisions[i].is_some());
        }
    }

    #[test]
    fn lossy_network_drops_messages() {
        let mut sim = max_id_sim(9, 4, NetworkConfig::lossy(1, 5, 1.0));
        let out = sim.run(RunLimit::until_time(SimTime::from_ticks(1_000)));
        // All cross-process messages dropped; only self-deliveries happen.
        assert_eq!(out.stats.messages_dropped, 4 * 3);
        assert!(!out.all_decided());
    }

    #[test]
    fn fifo_links_preserve_order() {
        /// Sends two numbered messages; receiver decides on first seen.
        #[derive(Debug)]
        struct TwoSends;
        impl Process for TwoSends {
            type Msg = u64;
            type Output = u64;
            fn on_start(&mut self, ctx: &mut Context<'_, u64, u64>) {
                if ctx.me().index() == 0 {
                    ctx.send(ProcessId(1), 1);
                    ctx.send(ProcessId(1), 2);
                }
            }
            fn on_message(&mut self, ctx: &mut Context<'_, u64, u64>, _f: ProcessId, m: u64) {
                ctx.decide(m);
            }
            fn on_timer(&mut self, _c: &mut Context<'_, u64, u64>, _t: TimerId) {}
        }
        for seed in 0..50 {
            let mut sim = Sim::builder(NetworkConfig {
                fifo_links: true,
                delay: crate::DelayModel::Uniform { min: 1, max: 100 },
                ..NetworkConfig::default()
            })
            .seed(seed)
            .processes(vec![TwoSends, TwoSends])
            .build();
            let out = sim.run(RunLimit::until_time(SimTime::from_ticks(10_000)));
            assert_eq!(out.decisions[1], Some(1), "seed {seed} reordered FIFO link");
        }
    }

    #[test]
    fn restart_invokes_handler() {
        #[derive(Debug, Default)]
        struct RestartCounter {
            restarts: u64,
        }
        impl Process for RestartCounter {
            type Msg = ();
            type Output = u64;
            fn on_start(&mut self, _ctx: &mut Context<'_, (), u64>) {}
            fn on_message(&mut self, _c: &mut Context<'_, (), u64>, _f: ProcessId, _m: ()) {}
            fn on_timer(&mut self, _c: &mut Context<'_, (), u64>, _t: TimerId) {}
            fn on_restart(&mut self, ctx: &mut Context<'_, (), u64>) {
                self.restarts += 1;
                ctx.decide(self.restarts);
            }
        }
        let mut sim = Sim::builder(NetworkConfig::default())
            .seed(0)
            .processes(vec![RestartCounter::default(), RestartCounter::default()])
            .faults(
                FaultPlan::new()
                    .crash_at(ProcessId(0), SimTime::from_ticks(5))
                    .restart_at(ProcessId(0), SimTime::from_ticks(10)),
            )
            .build();
        let out = sim.run(RunLimit::until_time(SimTime::from_ticks(100)));
        assert_eq!(out.decisions[0], Some(1));
        assert_eq!(out.stats.restarts, 1);
        assert_eq!(sim.process(ProcessId(0)).restarts, 1);
    }

    #[test]
    fn timers_fire_and_cancel() {
        #[derive(Debug, Default)]
        struct TimerUser {
            kept: Option<TimerId>,
            cancelled: Option<TimerId>,
            fired: Vec<TimerId>,
        }
        impl Process for TimerUser {
            type Msg = ();
            type Output = usize;
            fn on_start(&mut self, ctx: &mut Context<'_, (), usize>) {
                self.kept = Some(ctx.set_timer(SimDuration::from_ticks(10)));
                let c = ctx.set_timer(SimDuration::from_ticks(5));
                self.cancelled = Some(c);
                ctx.cancel_timer(c);
            }
            fn on_message(&mut self, _c: &mut Context<'_, (), usize>, _f: ProcessId, _m: ()) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, (), usize>, t: TimerId) {
                self.fired.push(t);
                ctx.decide(self.fired.len());
            }
        }
        let mut sim = Sim::builder(NetworkConfig::default())
            .seed(0)
            .processes(vec![TimerUser::default()])
            .build();
        let out = sim.run(RunLimit::until_time(SimTime::from_ticks(100)));
        assert_eq!(out.decisions[0], Some(1));
        let p = sim.process(ProcessId(0));
        assert_eq!(p.fired, vec![p.kept.unwrap()]);
        assert_eq!(out.stats.timers_fired, 1);
    }

    #[test]
    fn crash_cancels_pending_timers() {
        /// Sets a long timer at start; decides if it ever fires.
        #[derive(Debug)]
        struct TimerVictim;
        impl Process for TimerVictim {
            type Msg = ();
            type Output = u64;
            fn on_start(&mut self, ctx: &mut Context<'_, (), u64>) {
                ctx.set_timer(SimDuration::from_ticks(50));
            }
            fn on_message(&mut self, _c: &mut Context<'_, (), u64>, _f: ProcessId, _m: ()) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, (), u64>, _t: TimerId) {
                ctx.decide(1);
            }
            fn on_restart(&mut self, _ctx: &mut Context<'_, (), u64>) {
                // Deliberately set no new timer: the pre-crash timer must
                // NOT fire on our behalf after recovery.
            }
        }
        let mut sim = Sim::builder(NetworkConfig::default())
            .seed(0)
            .processes(vec![TimerVictim, TimerVictim])
            .faults(
                FaultPlan::new()
                    .crash_at(ProcessId(0), SimTime::from_ticks(10))
                    .restart_at(ProcessId(0), SimTime::from_ticks(20)),
            )
            .build();
        let out = sim.run(RunLimit::until_time(SimTime::from_ticks(500)));
        assert_eq!(out.decisions[0], None, "pre-crash timer must die with the crash");
        assert_eq!(out.decisions[1], Some(1), "unharmed process fires normally");
    }

    #[test]
    fn run_is_resumable() {
        let mut sim = max_id_sim(5, 4, NetworkConfig::default());
        let first = sim.run(RunLimit::until_decisions(1));
        assert_eq!(first.reason, StopReason::DecisionTarget);
        assert!(first.decided_count() >= 1);
        let rest = sim.run(RunLimit::default());
        assert!(rest.all_decided());
    }

    #[test]
    fn duplicated_messages_are_counted() {
        let mut sim = max_id_sim(
            1,
            3,
            NetworkConfig {
                duplicate_probability: 1.0,
                ..NetworkConfig::default()
            },
        );
        let out = sim.run(RunLimit::until_time(SimTime::from_ticks(1000)));
        assert_eq!(out.stats.messages_duplicated, 3 * 2);
        // Duplication must not break the protocol's decision.
        assert!(out.all_decided());
    }

    #[test]
    fn boxed_processes_work() {
        let procs: Vec<Box<dyn Process<Msg = u64, Output = u64>>> =
            (0..3).map(|_| Box::new(MaxId::default()) as _).collect();
        let mut sim = Sim::builder(NetworkConfig::default())
            .seed(2)
            .processes(procs)
            .build();
        let out = sim.run(RunLimit::default());
        assert_eq!(out.decided_value(), Some(2));
    }

    #[test]
    #[should_panic(expected = "needs processes")]
    fn empty_network_panics() {
        let _ = Sim::<MaxId>::builder(NetworkConfig::default()).build();
    }

    #[test]
    fn run_outcome_helpers() {
        let out: RunOutcome<u64> = RunOutcome {
            decisions: Arc::new(vec![None, None]),
            decision_times: Arc::new(vec![None, None]),
            stats: RunStats::default(),
            reason: StopReason::Quiescent,
            trace: Trace::default(),
            metrics: MetricsRegistry::default(),
        };
        assert!(!out.all_decided());
        assert!(out.agreement(), "vacuous agreement with no deciders");
        assert_eq!(out.decided_value(), None);
        assert_eq!(out.decided_count(), 0);
        assert_eq!(out.last_decision_time(), None);

        let out: RunOutcome<u64> = RunOutcome {
            decisions: Arc::new(vec![Some(3), None, Some(4)]),
            decision_times: Arc::new(vec![
                Some(SimTime::from_ticks(5)),
                None,
                Some(SimTime::from_ticks(9)),
            ]),
            stats: RunStats::default(),
            reason: StopReason::TimeLimit,
            trace: Trace::default(),
            metrics: MetricsRegistry::default(),
        };
        assert!(!out.agreement());
        assert_eq!(out.decided_value(), None, "disagreement yields no value");
        assert_eq!(out.decided_count(), 2);
        assert_eq!(out.last_decision_time(), Some(SimTime::from_ticks(9)));
    }

    #[test]
    fn full_trace_level_records_payloads() {
        let mut sim = Sim::builder(NetworkConfig::default())
            .seed(1)
            .trace_level(TraceLevel::Full)
            .processes((0..2).map(|_| MaxId::default()))
            .build();
        let out = sim.run(RunLimit::default());
        let has_payload = out.trace.events().iter().any(|e| {
            matches!(e, TraceEvent::Deliver { payload: Some(p), .. } if !p.is_empty())
        });
        assert!(has_payload, "Full level must capture Debug payloads");
        let has_decide_value = out.trace.events().iter().any(|e| {
            matches!(e, TraceEvent::Decide { value: Some(_), .. })
        });
        assert!(has_decide_value);
    }

    #[test]
    fn events_trace_level_omits_payloads() {
        let mut sim = Sim::builder(NetworkConfig::default())
            .seed(1)
            .processes((0..2).map(|_| MaxId::default()))
            .build();
        let out = sim.run(RunLimit::default());
        assert!(out.trace.events().iter().all(|e| !matches!(
            e,
            TraceEvent::Send { payload: Some(_), .. }
                | TraceEvent::Deliver { payload: Some(_), .. }
                | TraceEvent::Decide { value: Some(_), .. }
        )));
        assert!(!out.trace.is_empty());
    }

    #[test]
    fn sends_recorded_at_events_level() {
        // The trace contract promises every send is recorded; payload-less
        // Send events must appear at the default (Events) level, and they
        // must agree with the send counter.
        let mut sim = max_id_sim(1, 3, NetworkConfig::default());
        let out = sim.run(RunLimit::default());
        let sends = out.trace.count(|e| matches!(e, TraceEvent::Send { .. }));
        assert!(sends > 0, "Events level must record sends");
        assert_eq!(sends as u64, out.stats.messages_sent);
    }

    /// Runs `sim` to the end in `max_events`-sized chunks and returns the
    /// final outcome.
    fn run_chunked<P: Process>(sim: &mut Sim<P>, max_events: u64) -> RunOutcome<P::Output> {
        let mut chunks = 0;
        loop {
            let out = sim.run(RunLimit {
                max_events,
                ..RunLimit::default()
            });
            chunks += 1;
            if out.reason != StopReason::EventLimit {
                assert!(chunks > 1, "limit too large to exercise resumption");
                return out;
            }
            assert!(chunks < 100_000, "resume loop failed to terminate");
        }
    }

    #[test]
    fn event_limit_resume_matches_unbounded_run() {
        // Regression: the engine used to pop-and-discard the event that
        // crossed max_events (with `now` already advanced), so a resumed
        // run silently lost one event. Chunked execution must be
        // event-for-event identical to a single unbounded run — metrics
        // included, whatever the preallocated buffers and the persistent
        // queue-depth pop counter do. With retransmission on, first
        // sends, retries, acks and checks all straddle chunk boundaries.
        let cases = std::iter::once((7, NetworkConfig::default(), ReliabilityPolicy::Off))
            .chain((0..40).map(|seed| (seed, reliable_mix_config(), retransmit_default())));
        for (seed, cfg, policy) in cases {
            let sim = || {
                Sim::builder(cfg.clone())
                    .seed(seed)
                    .processes((0..4).map(|_| MaxId::default()))
                    .reliability(policy)
                    .build()
            };
            let expected = sim().run(RunLimit::default());
            let last = run_chunked(&mut sim(), 3);
            assert_outcomes_identical(&last, &expected, &format!("seed {seed}, {policy:?}"));
        }
    }

    #[test]
    fn same_tick_events_pop_in_insertion_order() {
        /// p0 sends two numbered messages with identical delay (same
        /// arrival tick); p1 records arrival order in its decision.
        #[derive(Debug, Default)]
        struct Recorder {
            got: Vec<u64>,
        }
        impl Process for Recorder {
            type Msg = u64;
            type Output = u64;
            fn on_start(&mut self, ctx: &mut Context<'_, u64, u64>) {
                if ctx.me().index() == 0 {
                    ctx.send(ProcessId(1), 10);
                    ctx.send(ProcessId(1), 20);
                }
            }
            fn on_message(&mut self, ctx: &mut Context<'_, u64, u64>, _f: ProcessId, m: u64) {
                self.got.push(m);
                if self.got.len() == 2 {
                    ctx.decide(self.got[0] * 100 + self.got[1]);
                }
            }
            fn on_timer(&mut self, _c: &mut Context<'_, u64, u64>, _t: TimerId) {}
        }
        for seed in 0..20 {
            let mut sim = Sim::builder(NetworkConfig {
                delay: crate::DelayModel::Uniform { min: 7, max: 7 },
                ..NetworkConfig::default()
            })
            .seed(seed)
            .processes(vec![Recorder::default(), Recorder::default()])
            .build();
            let out = sim.run(RunLimit::until_time(SimTime::from_ticks(1_000)));
            assert_eq!(
                out.decisions[1],
                Some(10 * 100 + 20),
                "seed {seed}: same-tick events must pop in seq (insertion) order"
            );
        }
    }

    #[test]
    fn outcome_snapshots_survive_resumes() {
        // Regression for the Arc-shared decision vectors: a resumed run
        // must see every new decision, while an outcome taken earlier
        // keeps showing exactly the decisions that existed at snapshot
        // time (copy-on-write, not shared mutation, not a stale deep
        // copy).
        let mut sim = max_id_sim(5, 4, NetworkConfig::default());
        let first = sim.run(RunLimit::until_decisions(1));
        let decided_at_snapshot = first.decided_count();
        assert!((1..4).contains(&decided_at_snapshot));
        let rest = sim.run(RunLimit::default());
        assert!(rest.all_decided());
        assert_eq!(rest.decided_count(), 4);
        assert_eq!(
            first.decided_count(),
            decided_at_snapshot,
            "earlier snapshot must not be mutated by the resume"
        );
        for i in 0..4 {
            assert_eq!(rest.decisions[i].as_ref(), sim.decision(ProcessId(i)));
        }
        // Without live snapshots the resume path is clone-free: dropping
        // the outcomes and resuming again keeps the accessor coherent.
        drop(first);
        drop(rest);
        let idle = sim.run(RunLimit::default());
        assert_eq!(idle.decided_count(), 4);
    }

    #[test]
    fn queue_depth_sampling_knob() {
        let run_with = |every: u64| {
            let mut sim = Sim::builder(NetworkConfig::default())
                .seed(3)
                .processes((0..4).map(|_| MaxId::default()))
                .queue_depth_sampling(every)
                .build();
            let out = sim.run(RunLimit::default());
            (
                out.metrics.histogram("queue_depth").map(|h| h.count()),
                out.stats,
            )
        };
        let (dense, stats_dense) = run_with(1);
        let (sampled, stats_sampled) = run_with(QUEUE_DEPTH_SAMPLE_DEFAULT);
        let (off, stats_off) = run_with(0);
        // The knob is observability-only: the schedule is untouched.
        assert_eq!(stats_dense, stats_sampled);
        assert_eq!(stats_dense, stats_off);
        let dense = dense.expect("stride 1 must record every pop");
        assert!(dense >= 1);
        assert!(
            sampled.unwrap_or(0) < dense,
            "default stride must record strictly fewer pops than stride 1"
        );
        assert_eq!(off, None, "stride 0 must disable the histogram");
    }

    #[test]
    fn delivery_ratio_bounded_under_duplication() {
        // Every message is duplicated; the extra copies land in
        // duplicate_deliveries, so delivered <= sent and the ratio
        // stays a true ratio.
        let mut sim = max_id_sim(
            1,
            3,
            NetworkConfig {
                duplicate_probability: 1.0,
                ..NetworkConfig::default()
            },
        );
        let out = sim.run(RunLimit::until_time(SimTime::from_ticks(1000)));
        assert!(out.stats.duplicate_deliveries > 0, "duplicates must arrive");
        assert!(out.stats.messages_delivered <= out.stats.messages_sent);
        assert!(out.stats.delivery_ratio() <= 1.0);
        // Every copy is accounted for: first deliveries + duplicate
        // deliveries + drops == sent + duplicated (scheduled copies).
        assert_eq!(
            out.stats.messages_delivered
                + out.stats.duplicate_deliveries
                + out.stats.messages_dropped,
            out.stats.messages_sent + out.stats.messages_duplicated,
        );
    }

    #[test]
    fn halted_recipient_drop_is_traced() {
        /// Decides and halts on the first message; stragglers' mail is
        /// dropped as HaltedRecipient.
        #[derive(Debug)]
        struct EarlyHalter;
        impl Process for EarlyHalter {
            type Msg = u64;
            type Output = u64;
            fn on_start(&mut self, ctx: &mut Context<'_, u64, u64>) {
                ctx.broadcast(ctx.me().index() as u64);
            }
            fn on_message(&mut self, ctx: &mut Context<'_, u64, u64>, _f: ProcessId, m: u64) {
                ctx.decide(m);
                ctx.halt();
            }
            fn on_timer(&mut self, _c: &mut Context<'_, u64, u64>, _t: TimerId) {}
        }
        let mut sim = Sim::builder(NetworkConfig::default())
            .seed(4)
            .processes((0..3).map(|_| EarlyHalter))
            .build();
        let out = sim.run(RunLimit::until_time(SimTime::from_ticks(1000)));
        let halted_drops = out.trace.count(|e| {
            matches!(e, TraceEvent::Drop { reason: DropReason::HaltedRecipient, .. })
        });
        assert!(halted_drops > 0, "halted-recipient drops must be traced");
        let traced_drops = out.trace.count(|e| matches!(e, TraceEvent::Drop { .. }));
        assert_eq!(
            traced_drops as u64, out.stats.messages_dropped,
            "messages_dropped and the trace must agree"
        );
    }

    #[test]
    fn metrics_agree_with_stats() {
        let mut sim = max_id_sim(3, 4, NetworkConfig::default());
        let out = sim.run(RunLimit::default());
        let m = &out.metrics;
        assert_eq!(m.counter("messages.sent"), out.stats.messages_sent);
        assert_eq!(m.counter("messages.delivered"), out.stats.messages_delivered);
        assert_eq!(m.counter("events"), out.stats.events_processed);
        assert_eq!(m.counter("decisions"), 4);
        let delays = m.histogram("delay_ticks").expect("delays observed");
        // Default config drops nothing, so every send sampled a delay.
        assert_eq!(delays.count(), out.stats.messages_sent);
        assert!(m.histogram("decision_ticks").is_some());
        // Determinism: an identical run yields byte-identical JSON.
        let mut sim2 = max_id_sim(3, 4, NetworkConfig::default());
        let out2 = sim2.run(RunLimit::default());
        assert_eq!(m.to_json(), out2.metrics.to_json());
    }

    #[test]
    fn restart_on_live_process_is_a_noop() {
        // An AfterEvents crash far beyond the run's horizon never fires,
        // so the scheduled restart lands on a live process: the engine
        // must ignore it (no stats, no trace, no second on_start).
        let mut sim = Sim::builder(NetworkConfig::default())
            .seed(9)
            .processes((0..3).map(|_| MaxId::default()))
            .faults(
                FaultPlan::new()
                    .crash_after_events(ProcessId(0), 1_000_000)
                    .restart_at(ProcessId(0), SimTime::from_ticks(5)),
            )
            .build();
        let out = sim.run(RunLimit::default());
        assert!(out.all_decided());
        assert_eq!(out.stats.restarts, 0, "live restart must not count");
        assert_eq!(out.metrics.counter("restarts"), 0);
    }

    #[test]
    #[should_panic(expected = "invalid fault plan")]
    fn build_rejects_restart_without_crash() {
        let _ = Sim::builder(NetworkConfig::default())
            .seed(1)
            .processes((0..3).map(|_| MaxId::default()))
            .faults(FaultPlan::new().restart_at(ProcessId(1), SimTime::from_ticks(10)))
            .build();
    }

    #[test]
    fn drop_reasons_split_and_sum_to_total() {
        // Loss, partition, and adversary drops land in distinct counters
        // whose sum (plus recipient-state drops) equals messages_dropped.
        let cfg = NetworkConfig {
            drop_probability: 0.4,
            partitions: vec![crate::PartitionWindow {
                from: SimTime::ZERO,
                until: SimTime::from_ticks(50),
                groups: vec![
                    vec![ProcessId(0)],
                    vec![ProcessId(1), ProcessId(2), ProcessId(3)],
                ],
            }],
            ..NetworkConfig::default()
        };
        let mut base = NetworkAdversary::new(cfg);
        let adv = crate::FnAdversary::new(move |at, from, to, msg: &u64, rng| {
            // Promote some deliveries to adversary drops to exercise the
            // third cause.
            match base.route(at, from, to, msg, rng) {
                Decision::DeliverAfter(_) if rng.chance(0.25) => Decision::Drop,
                other => other,
            }
        });
        let mut sim = Sim::builder(NetworkConfig::default())
            .seed(11)
            .processes((0..4).map(|_| MaxId::default()))
            .adversary(Box::new(adv))
            .build();
        let out = sim.run(RunLimit::until_time(SimTime::from_ticks(5_000)));
        let m = &out.metrics;
        let partition = m.counter("messages.dropped.partition");
        let loss = m.counter("messages.dropped.loss");
        let adversary = m.counter("messages.dropped.adversary");
        assert!(partition > 0, "partition window must account for drops");
        assert!(loss > 0, "stochastic loss must account for drops");
        assert!(adversary > 0, "adversary drops must account for drops");
        let dead = m.counter("messages.dropped.dead_recipient");
        let halted = m.counter("messages.dropped.halted_recipient");
        assert_eq!(
            partition + loss + adversary + dead + halted,
            out.stats.messages_dropped,
            "split drop counters must sum to the total"
        );
    }

    /// Arms one timer at start, decides when it fires.
    #[derive(Debug, Default)]
    struct OneTimer {
        sync_first: bool,
    }

    impl Process for OneTimer {
        type Msg = u64;
        type Output = u64;

        fn on_start(&mut self, ctx: &mut Context<'_, u64, u64>) {
            if self.sync_first {
                ctx.persist("boot", vec![1]);
                ctx.sync_storage();
            }
            ctx.set_timer(SimDuration::from_ticks(100));
        }

        fn on_message(&mut self, _ctx: &mut Context<'_, u64, u64>, _from: ProcessId, _msg: u64) {}

        fn on_timer(&mut self, ctx: &mut Context<'_, u64, u64>, _t: TimerId) {
            ctx.decide(ctx.now().ticks());
        }
    }

    #[test]
    fn clock_drift_scales_timer_arming() {
        let run = |clocks: ClockModel| {
            let mut sim = Sim::builder(NetworkConfig::default())
                .seed(2)
                .processes((0..2).map(|_| OneTimer::default()))
                .clocks(clocks)
                .build();
            let out = sim.run(RunLimit::default());
            (out.decisions[0], out.decisions[1])
        };
        assert_eq!(run(ClockModel::nominal()), (Some(100), Some(100)));
        // p0 runs a 150% (slow) clock, p1 a 75% (fast) clock.
        let drifted = ClockModel::nominal()
            .with_rate(ProcessId(0), 150)
            .with_rate(ProcessId(1), 75);
        assert_eq!(run(drifted), (Some(150), Some(75)));
    }

    #[test]
    fn sync_latency_stalls_the_invocation() {
        let run = |storage: StorageFaultPlan| {
            let mut sim = Sim::builder(NetworkConfig::default())
                .seed(2)
                .processes((0..2).map(|_| OneTimer { sync_first: true }))
                .storage(storage)
                .build();
            let out = sim.run(RunLimit::default());
            out.decisions[0]
        };
        assert_eq!(run(StorageFaultPlan::default()), Some(100));
        // A 7-tick fsync stall pushes the same invocation's timer late.
        assert_eq!(
            run(StorageFaultPlan::default().with_sync_latency(7)),
            Some(107)
        );
    }

    #[test]
    fn state_adversary_runs_deterministically() {
        let run = || {
            let mut sim = Sim::builder(NetworkConfig::default())
                .seed(17)
                .processes((0..4).map(|_| MaxId::default()))
                .state_adversary(Box::new(VoteSplitStateAdversary::new(
                    SimTime::from_ticks(40),
                    NetworkConfig::default(),
                )))
                .build();
            let out = sim.run(RunLimit::until_time(SimTime::from_ticks(10_000)));
            (out.stats, out.metrics.to_json())
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "not both")]
    fn build_rejects_two_adversaries() {
        let _ = Sim::builder(NetworkConfig::default())
            .seed(1)
            .processes((0..2).map(|_| MaxId::default()))
            .adversary(Box::new(NetworkAdversary::new(NetworkConfig::default())))
            .state_adversary(Box::new(VoteSplitStateAdversary::new(
                SimTime::from_ticks(10),
                NetworkConfig::default(),
            )))
            .build();
    }

    #[test]
    fn queue_depth_includes_the_event_about_to_pop() {
        // Regression: the histogram used to observe `queue.len()` *after*
        // the pop, recording one less than the depth the builder knob
        // documents. A single process whose only traffic is its own
        // start broadcast pops from a queue of depth exactly 1 — the
        // pre-fix code recorded 0 here.
        let mut sim = Sim::builder(NetworkConfig::default())
            .seed(0)
            .processes(vec![MaxId::default()])
            .queue_depth_sampling(1)
            .build();
        let out = sim.run(RunLimit::default());
        let h = out
            .metrics
            .histogram("queue_depth")
            .expect("stride 1 records every pop");
        assert!(h.count() >= 1);
        assert_eq!(
            h.min(),
            Some(1),
            "depth must include the event being popped (was off by one)"
        );
    }

    /// The scheduler mix: crashes, restarts, fifo links, duplication, a
    /// heavy-tailed delay model, and same-tick bursts all in one network.
    fn ab_config(seed: u64) -> NetworkConfig {
        NetworkConfig {
            fifo_links: seed.is_multiple_of(2),
            duplicate_probability: if seed.is_multiple_of(3) { 0.3 } else { 0.0 },
            drop_probability: if seed.is_multiple_of(5) { 0.1 } else { 0.0 },
            delay: if seed.is_multiple_of(4) {
                crate::DelayModel::HeavyTailed {
                    floor: 1,
                    cap: 5_000,
                    alpha_milli: 1_500,
                }
            } else if seed % 4 == 1 {
                // Constant delay: every broadcast lands as a same-tick
                // burst, the wheel's bucket-FIFO hot case.
                crate::DelayModel::Uniform { min: 3, max: 3 }
            } else {
                crate::DelayModel::Uniform { min: 1, max: 200 }
            },
            ..NetworkConfig::default()
        }
    }

    fn ab_sim(seed: u64) -> Sim<MaxId> {
        Sim::builder(ab_config(seed))
            .seed(seed)
            .processes((0..5).map(|_| MaxId::default()))
            .faults(
                FaultPlan::new()
                    .crash_at(ProcessId(0), SimTime::from_ticks(40 + seed))
                    .restart_at(ProcessId(0), SimTime::from_ticks(90 + seed)),
            )
            .queue_depth_sampling(1)
            .build()
    }

    #[test]
    fn chunked_runs_match_unbounded_runs() {
        // The budget-boundary path on the scheduler and gray-failure
        // mixes: a run resumed in small chunks must replay the exact
        // schedule of one unbounded run. A pop-then-re-push time-limit
        // check would break this on the wheel (re-pushing into a drained
        // bucket).
        for seed in [0u64, 7, 13] {
            let expected = ab_sim(seed).run(RunLimit::default());
            let last = run_chunked(&mut ab_sim(seed), 3);
            assert_outcomes_identical(&last, &expected, &format!("ab seed {seed}"));
            for policy in [ReliabilityPolicy::Off, retransmit_default()] {
                let expected = gray_sim(seed, policy).run(RunLimit::default());
                let last = run_chunked(&mut gray_sim(seed, policy), 4);
                assert_outcomes_identical(
                    &last,
                    &expected,
                    &format!("gray seed {seed}, {policy:?}"),
                );
            }
        }
    }

    #[test]
    fn time_limit_keeps_the_boundary_event_queued() {
        // The peek-based time-limit check must leave the first
        // out-of-bound event in the queue (not pop-and-re-push it), so a
        // resume with a larger bound replays it exactly once.
        let mut sim = ab_sim(3);
        let first = sim.run(RunLimit::until_time(SimTime::from_ticks(50)));
        assert_eq!(first.reason, StopReason::TimeLimit);
        let rest = sim.run(RunLimit::until_time(SimTime::from_ticks(10_000)));
        let expected = ab_sim(3).run(RunLimit::until_time(SimTime::from_ticks(10_000)));
        assert_eq!(rest.stats, expected.stats);
        assert_eq!(rest.trace.events(), expected.trace.events());
    }

    #[test]
    fn bounded_trace_ring_truncates_but_leaves_the_run_untouched() {
        // trace_capacity is observability-only: the schedule, stats and
        // metrics are byte-identical to an unbounded run; the trace keeps
        // exactly the most recent `capacity` events (the unbounded tail).
        let unbounded = {
            let mut sim = max_id_sim(6, 4, NetworkConfig::default());
            sim.run(RunLimit::default())
        };
        let bounded = {
            let mut sim = Sim::builder(NetworkConfig::default())
                .seed(6)
                .processes((0..4).map(|_| MaxId::default()))
                .trace_capacity(5)
                .build();
            sim.run(RunLimit::default())
        };
        assert_eq!(bounded.stats, unbounded.stats);
        assert_eq!(bounded.metrics, unbounded.metrics);
        assert_eq!(bounded.decisions, unbounded.decisions);
        assert_eq!(bounded.trace.len(), 5);
        let tail = &unbounded.trace.events()[unbounded.trace.len() - 5..];
        assert_eq!(bounded.trace.events(), tail);
    }

    /// Gray-mix workload: broadcasts at start and on a timer cadence (so
    /// gray-failure windows at different ticks intercept different
    /// broadcasts, and clock drift visibly reschedules traffic), decides
    /// after hearing a fixed number of messages. With `sync` set, each
    /// timer broadcast follows a storage sync, so a slow disk stalls it.
    /// With `observed` set, it reports the messages heard as its round,
    /// so a state adversary's view moves with every delivery.
    #[derive(Debug, Default)]
    struct Chatter {
        heard: u64,
        sync: bool,
        observed: bool,
    }

    impl Process for Chatter {
        type Msg = u64;
        type Output = u64;

        fn observe(&self) -> ProtocolObservation {
            ProtocolObservation {
                round: if self.observed { self.heard } else { 0 },
                ..ProtocolObservation::default()
            }
        }

        fn on_start(&mut self, ctx: &mut Context<'_, u64, u64>) {
            ctx.broadcast(ctx.me().index() as u64);
            ctx.set_timer(SimDuration::from_ticks(25));
        }

        fn on_message(&mut self, ctx: &mut Context<'_, u64, u64>, _from: ProcessId, msg: u64) {
            self.heard += 1;
            if self.heard == 40 {
                ctx.decide(msg);
            }
        }

        fn on_timer(&mut self, ctx: &mut Context<'_, u64, u64>, _t: TimerId) {
            if self.sync {
                ctx.persist("heard", self.heard.to_le_bytes().to_vec());
                ctx.sync_storage();
            }
            ctx.broadcast(self.heard);
            if self.heard < 40 {
                ctx.set_timer(SimDuration::from_ticks(25));
            }
        }
    }

    /// The gray-failure mix: everything [`ab_config`] covers (fifo,
    /// duplication, loss, heavy tails, same-tick bursts) plus stacked
    /// link overrides (last-wins with per-field fallback), flapping,
    /// scheduled partitions with an isolated process, keyed off the seed.
    fn gray_config(seed: u64) -> NetworkConfig {
        let mut cfg = ab_config(seed);
        if seed.is_multiple_of(7) {
            cfg.link_overrides.push(crate::LinkOverride {
                from: ProcessId(1),
                to: ProcessId(2),
                drop_probability: Some(0.25),
                delay: None,
            });
            // Last-wins with per-field fallback: this override replaces
            // the previous one entirely — its None drop probability
            // falls back to the *global* knob, not to 0.25.
            cfg.link_overrides.push(crate::LinkOverride {
                from: ProcessId(1),
                to: ProcessId(2),
                drop_probability: None,
                delay: Some(crate::DelayModel::Fixed(17)),
            });
            cfg.link_overrides.push(crate::LinkOverride {
                from: ProcessId(3),
                to: ProcessId(0),
                drop_probability: Some(0.5),
                delay: Some(crate::DelayModel::HeavyTailed {
                    floor: 2,
                    alpha_milli: 1_100,
                    cap: 900,
                }),
            });
        }
        if seed % 6 == 1 {
            cfg.flapping.push(crate::FlappingPartition {
                from: SimTime::from_ticks(20),
                until: SimTime::from_ticks(2_000),
                period: 30 + seed % 40,
                partitioned: 12,
                groups: vec![
                    vec![ProcessId(0), ProcessId(1), ProcessId(2)],
                    vec![ProcessId(3), ProcessId(4)],
                ],
            });
        }
        if seed % 8 == 2 {
            // P4 is absent from every group: isolated while active.
            cfg.partitions.push(crate::PartitionWindow {
                from: SimTime::from_ticks(30),
                until: SimTime::from_ticks(80 + seed),
                groups: vec![
                    vec![ProcessId(0), ProcessId(1)],
                    vec![ProcessId(2), ProcessId(3)],
                ],
            });
        }
        cfg
    }

    /// The gray-failure mix under crash/restart of P0 and, on some
    /// seeds, clock drift (timers — and therefore whole broadcasts —
    /// land at different ticks than nominal). Leaves the reliability
    /// policy at the builder default.
    fn gray_builder(seed: u64) -> SimBuilder<Chatter> {
        let clocks = if seed % 5 == 3 {
            ClockModel::nominal()
                .with_rate(ProcessId(2), 135)
                .with_rate(ProcessId(4), 70)
        } else {
            ClockModel::nominal()
        };
        Sim::builder(gray_config(seed))
            .seed(seed)
            .processes((0..5).map(|_| Chatter::default()))
            .faults(
                FaultPlan::new()
                    .crash_at(ProcessId(0), SimTime::from_ticks(40 + seed))
                    .restart_at(ProcessId(0), SimTime::from_ticks(90 + seed)),
            )
            .clocks(clocks)
            .queue_depth_sampling(1)
    }

    fn gray_sim(seed: u64, policy: ReliabilityPolicy) -> Sim<Chatter> {
        gray_builder(seed).reliability(policy).build()
    }

    fn assert_outcomes_identical(a: &RunOutcome<u64>, b: &RunOutcome<u64>, label: &str) {
        assert_eq!(a.reason, b.reason, "{label}");
        assert_eq!(a.decisions, b.decisions, "{label}");
        assert_eq!(a.decision_times, b.decision_times, "{label}");
        assert_eq!(a.stats, b.stats, "{label}");
        assert_eq!(
            a.trace.events(),
            b.trace.events(),
            "{label}: traces must be identical event for event"
        );
        assert_eq!(
            a.metrics.to_json(),
            b.metrics.to_json(),
            "{label}: metrics JSON (histograms included) must agree"
        );
    }

    // ---- reliable delivery (ReliabilityPolicy::Retransmit) ----

    fn retransmit_default() -> ReliabilityPolicy {
        ReliabilityPolicy::Retransmit(crate::RetransmitConfig::default())
    }

    /// Loss + a partition window + network duplication: the mix that
    /// exercises every reliable-path counter at once (loss and partition
    /// drops on data copies, ambient ack loss, retransmissions, and
    /// suppressed duplicates from both the network and the retry path).
    fn reliable_mix_config() -> NetworkConfig {
        NetworkConfig {
            drop_probability: 0.4,
            duplicate_probability: 0.3,
            partitions: vec![crate::PartitionWindow {
                from: SimTime::ZERO,
                until: SimTime::from_ticks(50),
                groups: vec![
                    vec![ProcessId(0)],
                    vec![ProcessId(1), ProcessId(2), ProcessId(3)],
                ],
            }],
            ..NetworkConfig::default()
        }
    }

    #[test]
    fn drop_reasons_still_split_and_sum_with_the_reliability_layer_on() {
        // Companion to drop_reasons_split_and_sum_to_total: with
        // retransmission active the suppressed-duplicate counter joins
        // the split, and the per-reason counters must still sum to
        // messages_dropped — retransmitted copies included.
        let mut sim = Sim::builder(reliable_mix_config())
            .seed(11)
            .processes((0..4).map(|_| MaxId::default()))
            .reliability(retransmit_default())
            .build();
        let out = sim.run(RunLimit::until_time(SimTime::from_ticks(5_000)));
        let m = &out.metrics;
        let partition = m.counter("messages.dropped.partition");
        let loss = m.counter("messages.dropped.loss");
        let adversary = m.counter("messages.dropped.adversary");
        let dead = m.counter("messages.dropped.dead_recipient");
        let halted = m.counter("messages.dropped.halted_recipient");
        let suppressed = m.counter("messages.dropped.duplicate_suppressed");
        assert!(loss > 0, "ambient loss must account for drops");
        assert!(partition > 0, "partition window must account for drops");
        assert!(
            suppressed > 0,
            "duplication plus retransmission must produce suppressed copies"
        );
        assert_eq!(
            partition + loss + adversary + dead + halted + suppressed,
            out.stats.messages_dropped,
            "split drop counters must sum to the total"
        );
        // The reliability layer is why the run survives the mix at all.
        assert!(out.all_decided(), "retransmission must recover delivery");
        assert!(out.stats.retransmissions > 0);
        assert_eq!(
            out.stats.retransmissions,
            m.counter("reliable.retransmissions")
        );
        // Acks skip the adversary but face ambient loss; every sent ack
        // is either dropped at send time, delivered, or still in flight
        // when the run stops — never double counted.
        let acks_sent = m.counter("reliable.acks_sent");
        assert!(acks_sent > 0);
        assert!(m.counter("reliable.acks_delivered") + m.counter("reliable.acks_dropped") <= acks_sent);
    }

    #[test]
    fn full_buffers_evict_oldest_unacked_instead_of_panicking() {
        // buffer_capacity is a hard bound: a chatty sender on a network
        // that never delivers (so nothing is ever acked) overflows its
        // send buffers, and the layer evicts the oldest unacked entry —
        // counted in both stats and the messages.evicted metric — rather
        // than panicking or growing without bound.
        let cfg = NetworkConfig {
            drop_probability: 1.0,
            ..NetworkConfig::default()
        };
        let policy = ReliabilityPolicy::Retransmit(crate::RetransmitConfig {
            buffer_capacity: 2,
            ..crate::RetransmitConfig::default()
        });
        let mut sim = Sim::builder(cfg)
            .seed(3)
            .processes((0..3).map(|_| Chatter::default()))
            .reliability(policy)
            .build();
        let out = sim.run(RunLimit::until_time(SimTime::from_ticks(2_000)));
        assert!(out.stats.messages_evicted > 0, "tiny buffers must evict");
        assert_eq!(
            out.stats.messages_evicted,
            out.metrics.counter("messages.evicted")
        );
        let evict_traces = out
            .trace
            .count(|e| matches!(e, TraceEvent::Evict { .. }));
        assert!(evict_traces > 0, "evictions must be traced");
    }

    #[test]
    fn retry_budget_exhausts_on_a_black_hole_network() {
        // A network that drops every copy defeats any finite retry
        // budget: each tracked message is retired as exhausted after
        // max_retries attempts, the check queue drains, and the watchdog
        // classifies the quiescent-but-undecided end state as stalled.
        let cfg = NetworkConfig {
            drop_probability: 1.0,
            ..NetworkConfig::default()
        };
        let policy = ReliabilityPolicy::Retransmit(crate::RetransmitConfig {
            max_retries: 3,
            ..crate::RetransmitConfig::default()
        });
        let mut sim = Sim::builder(cfg)
            .seed(5)
            .processes((0..3).map(|_| MaxId::default()))
            .reliability(policy)
            .build();
        let out = sim.run(RunLimit::default());
        assert_eq!(out.reason, StopReason::Quiescent);
        // 3 processes × 2 non-self recipients, every budget exhausted.
        assert_eq!(out.metrics.counter("reliable.retry_exhausted"), 6);
        assert_eq!(out.stats.retransmissions, 3 * 2 * 3);
        assert!(!out.all_decided());
        assert!(out.stats.stalled, "undecided + quiescent must stall");
        assert!(out.stats.idle_since > SimTime::ZERO);
    }

    #[test]
    fn watchdog_classifies_a_dead_in_the_water_run_as_stalled() {
        // Fire-and-forget on total loss: the start broadcasts evaporate,
        // nothing is armed or in flight, and the run ends Quiescent with
        // live undecided processes. The watchdog must flag it stalled,
        // pin idle_since to the last processed event, and record the
        // verdict in the trace.
        let cfg = NetworkConfig {
            drop_probability: 1.0,
            ..NetworkConfig::default()
        };
        let mut sim = Sim::builder(cfg)
            .seed(9)
            .processes((0..3).map(|_| MaxId::default()))
            .build();
        let out = sim.run(RunLimit::default());
        assert_eq!(out.reason, StopReason::Quiescent);
        assert!(out.stats.stalled);
        assert!(out.stats.idle_since > SimTime::ZERO);
        assert!(
            out.trace
                .events()
                .iter()
                .any(|e| matches!(e, TraceEvent::Stalled { idle_since, .. }
                    if *idle_since == out.stats.idle_since)),
            "the stall verdict must land in the trace"
        );
    }

    #[test]
    fn decided_and_time_limited_runs_are_not_stalled() {
        // The watchdog's negative space: a fully decided run is live by
        // definition, and a run cut off by the time limit with work
        // still queued was merely out of time, not dead in the water.
        let decided = max_id_sim(1, 5, NetworkConfig::default()).run(RunLimit::default());
        assert_eq!(decided.reason, StopReason::AllDecided);
        assert!(!decided.stats.stalled);
        assert_eq!(decided.stats.idle_since, SimTime::ZERO);

        let mut slow = Sim::builder(NetworkConfig {
            delay: crate::DelayModel::Uniform { min: 50, max: 90 },
            ..NetworkConfig::default()
        })
        .seed(2)
        .processes((0..5).map(|_| MaxId::default()))
        .build();
        let cut = slow.run(RunLimit::until_time(SimTime::from_ticks(10)));
        assert_eq!(cut.reason, StopReason::TimeLimit);
        assert!(!cut.stats.stalled, "queued work means live, not stalled");
    }

    #[test]
    fn retransmission_recovers_consensus_on_a_heavily_lossy_network() {
        // The headline at engine scale: 50% loss defeats fire-and-forget
        // MaxId on every seed (some of the 20 cross-process copies are
        // bound to evaporate), while the same seeds with retransmission
        // on reach full agreement with zero stalls. A 20-retry budget
        // makes per-message total failure (0.5^21) vanishingly rare.
        let cfg = NetworkConfig {
            drop_probability: 0.5,
            ..NetworkConfig::default()
        };
        let policy = ReliabilityPolicy::Retransmit(crate::RetransmitConfig {
            max_retries: 20,
            ..crate::RetransmitConfig::default()
        });
        for seed in 0..10u64 {
            let limit = RunLimit::until_time(SimTime::from_ticks(30_000));
            let off = Sim::builder(cfg.clone())
                .seed(seed)
                .processes((0..5).map(|_| MaxId::default()))
                .build()
                .run(limit);
            assert!(!off.all_decided(), "seed {seed}: 0.5 loss must starve");
            assert!(off.stats.stalled, "seed {seed}: starved run must stall");

            let on = Sim::builder(cfg.clone())
                .seed(seed)
                .processes((0..5).map(|_| MaxId::default()))
                .reliability(policy)
                .build()
                .run(limit);
            assert!(on.all_decided(), "seed {seed}: retransmission recovers");
            assert!(!on.stats.stalled, "seed {seed}");
            assert!(on.stats.retransmissions > 0, "seed {seed}");
            assert_eq!(on.decided_value(), Some(4), "seed {seed}: max id wins");
        }
    }

    #[test]
    fn reliability_off_is_byte_identical_to_the_baseline_engine() {
        // Explicitly selecting Off must leave every channel an outcome
        // exposes — decisions, stats, trace, metrics JSON — byte-identical
        // to a builder that never mentions reliability, over randomized
        // schedules covering the full gray-failure mix.
        for seed in 0..200 {
            let limit = RunLimit::until_time(SimTime::from_ticks(10_000));
            let baseline = gray_builder(seed).build().run(limit);
            let off = gray_sim(seed, ReliabilityPolicy::Off).run(limit);
            assert_outcomes_identical(&off, &baseline, &format!("seed {seed}"));
        }
    }

    // ---- recorded digest corpus ----

    /// FNV-1a over every channel a run outcome exposes, with a separator
    /// byte between channels.
    fn digest(out: &RunOutcome<u64>) -> u64 {
        let parts = [
            format!("{:?}", out.reason),
            format!("{:?}", out.decisions),
            format!("{:?}", out.decision_times),
            format!("{:?}", out.stats),
            out.trace.to_jsonl(),
            out.metrics.to_json(),
        ];
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for part in &parts {
            for b in part.bytes().chain([0x1f]) {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// Every suite of the corpus, as `(suite, seed, digest)` rows in
    /// fixture order.
    fn corpus() -> Vec<(&'static str, u64, u64)> {
        let until = |ticks| RunLimit::until_time(SimTime::from_ticks(ticks));
        let mut rows = Vec::new();
        for seed in 0..30 {
            rows.push(("ab", seed, digest(&ab_sim(seed).run(until(10_000)))));
        }
        for seed in 0..200 {
            let out = gray_sim(seed, ReliabilityPolicy::Off).run(until(10_000));
            rows.push(("gray-off", seed, digest(&out)));
        }
        for seed in 0..200 {
            let out = gray_sim(seed, retransmit_default()).run(until(5_000));
            rows.push(("gray-retransmit", seed, digest(&out)));
        }
        // Custom message adversaries: an opaque callback, and one wrapping
        // the stock network model to add adversary drops.
        for seed in 0..5 {
            let out = Sim::builder(gray_config(seed))
                .seed(seed)
                .processes((0..5).map(|_| Chatter::default()))
                .adversary(Box::new(crate::FnAdversary::new(
                    |_at, from: ProcessId, _to, _msg: &u64, rng: &mut SplitMix64| {
                        if from == ProcessId(2) && rng.chance(0.2) {
                            Decision::Drop
                        } else {
                            let delay = SimDuration::from_ticks(rng.range_inclusive(1, 60));
                            Decision::DeliverAfter(delay)
                        }
                    },
                )))
                .build()
                .run(until(10_000));
            rows.push(("fn-adversary", seed, digest(&out)));
        }
        for (seed, policy) in [(11, ReliabilityPolicy::Off), (12, retransmit_default())] {
            let cfg = NetworkConfig {
                drop_probability: 0.4,
                partitions: vec![crate::PartitionWindow {
                    from: SimTime::ZERO,
                    until: SimTime::from_ticks(50),
                    groups: vec![
                        vec![ProcessId(0)],
                        vec![ProcessId(1), ProcessId(2), ProcessId(3)],
                    ],
                }],
                ..NetworkConfig::default()
            };
            let mut base = NetworkAdversary::new(cfg);
            let adv = crate::FnAdversary::new(
                move |at, from, to, msg: &u64, rng: &mut SplitMix64| match base
                    .route(at, from, to, msg, rng)
                {
                    Decision::DeliverAfter(_) if rng.chance(0.25) => Decision::Drop,
                    other => other,
                },
            );
            let out = Sim::builder(NetworkConfig::default())
                .seed(seed)
                .processes((0..4).map(|_| MaxId::default()))
                .adversary(Box::new(adv))
                .reliability(policy)
                .build()
                .run(until(5_000));
            rows.push(("wrapped-adversary", seed, digest(&out)));
        }
        // State adversaries, which route on live protocol observables.
        for seed in [17u64, 18, 19] {
            let policy = if seed == 19 {
                retransmit_default()
            } else {
                ReliabilityPolicy::Off
            };
            let out = Sim::builder(NetworkConfig::default())
                .seed(seed)
                .processes((0..4).map(|_| MaxId::default()))
                .state_adversary(Box::new(VoteSplitStateAdversary::new(
                    SimTime::from_ticks(40),
                    NetworkConfig::default(),
                )))
                .reliability(policy)
                .build()
                .run(until(10_000));
            rows.push(("vote-split", seed, digest(&out)));
        }
        for seed in 0..4u64 {
            let policy = if seed % 2 == 1 {
                retransmit_default()
            } else {
                ReliabilityPolicy::Off
            };
            let out = Sim::builder(gray_config(seed))
                .seed(seed)
                .processes((0..5).map(|_| Chatter::default()))
                .state_adversary(Box::new(crate::QuorumStarveAdversary::new(
                    SimTime::from_ticks(600),
                    40,
                    gray_config(seed),
                )))
                .reliability(policy)
                .build()
                .run(until(5_000));
            rows.push(("quorum-starve", seed, digest(&out)));
        }
        // Statically uniform networks: fixed delay, no loss, duplication,
        // windows or overrides. Delay 1 lands self-deliveries on the same
        // tick as routed ones; delay 3 does not. The seed also picks the
        // trace recording (capacity 0, Full payloads, or the default) and
        // whether a slow disk stalls the timer broadcasts.
        for (suite, policy) in [
            ("uniform-off", ReliabilityPolicy::Off),
            ("uniform-retransmit", retransmit_default()),
        ] {
            for seed in 0..12u64 {
                let delay = if seed < 6 { 3 } else { 1 };
                let stall = seed % 2 == 1;
                let mut builder = Sim::builder(NetworkConfig::reliable(delay))
                    .seed(seed)
                    .processes((0..5).map(|_| Chatter {
                        sync: stall,
                        ..Chatter::default()
                    }))
                    .reliability(policy);
                if stall {
                    builder = builder.storage(StorageFaultPlan::default().with_sync_latency(2));
                }
                builder = match seed % 3 {
                    0 => builder.trace_capacity(0),
                    1 => builder.trace_level(TraceLevel::Full),
                    _ => builder,
                };
                let out = builder.build().run(until(5_000));
                rows.push((suite, seed, digest(&out)));
            }
        }
        // Retransmission at its limits: buffers of 2–5 entries evict,
        // 1–3 retries exhaust, a crash/restart of P0 on even seeds wipes
        // a sender mid-run, and every third seed routes through a quorum
        // starver whose view moves with every delivery.
        let (mut evicted, mut exhausted) = (0, 0);
        for seed in 0..60u64 {
            let policy = ReliabilityPolicy::Retransmit(crate::RetransmitConfig {
                rto_initial: 5 + seed % 7,
                rto_max: 40,
                jitter_permille: 1000,
                max_retries: 1 + (seed % 3) as u32,
                buffer_capacity: 2 + (seed % 4) as usize,
                ack_delay: 1,
            });
            let mut builder = Sim::builder(gray_config(seed))
                .seed(seed)
                .processes((0..5).map(|_| Chatter {
                    observed: true,
                    ..Chatter::default()
                }))
                .queue_depth_sampling(1)
                .reliability(policy);
            if seed.is_multiple_of(2) {
                builder = builder.faults(
                    FaultPlan::new()
                        .crash_at(ProcessId(0), SimTime::from_ticks(40 + seed))
                        .restart_at(ProcessId(0), SimTime::from_ticks(90 + seed)),
                );
            }
            if seed.is_multiple_of(3) {
                builder = builder.state_adversary(Box::new(crate::QuorumStarveAdversary::new(
                    SimTime::from_ticks(600),
                    40,
                    gray_config(seed),
                )));
            }
            let out = builder.build().run(until(5_000));
            evicted += out.metrics.counter("messages.evicted");
            exhausted += out.metrics.counter("reliable.retry_exhausted");
            rows.push(("retransmit-tight", seed, digest(&out)));
        }
        assert!(
            evicted > 0 && exhausted > 0,
            "retransmit-tight must evict ({evicted}) and exhaust retries ({exhausted})"
        );
        rows
    }

    /// The engine's contract is the set of runs it admits, and this test
    /// pins that set: every run of [`corpus`] is hashed and compared with
    /// the recorded fixture `tests/digests.txt`. The suites cover the
    /// scheduler mix, the gray-failure mix (loss, duplication, FIFO links,
    /// heavy tails, link overrides, flapping, partitions with isolation,
    /// clock drift, crash/restart), custom message and state adversaries,
    /// and statically uniform networks, each with reliability off and on,
    /// plus retransmission at buffer and retry limits tight enough to
    /// evict and exhaust.
    ///
    /// The fixture is a recorded artifact, not an expectation to be
    /// edited: a mismatch means the engine's observable behaviour moved,
    /// and the test prints the recomputed corpus for inspection.
    #[test]
    fn engine_runs_match_the_recorded_digest_corpus() {
        let recomputed: String = corpus()
            .iter()
            .map(|(suite, seed, d)| format!("{suite} {seed} {d:016x}\n"))
            .collect();
        let recorded: String = include_str!("../tests/digests.txt")
            .lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
            .map(|l| format!("{l}\n"))
            .collect();
        if recomputed != recorded {
            let moved: Vec<&str> = recomputed
                .lines()
                .zip(recorded.lines())
                .filter(|(a, b)| a != b)
                .map(|(a, _)| a)
                .take(10)
                .collect();
            println!("recomputed corpus:\n{recomputed}");
            panic!(
                "engine runs no longer match tests/digests.txt ({} vs {} lines); first moved: {moved:?}",
                recomputed.lines().count(),
                recorded.lines().count()
            );
        }
    }
}
