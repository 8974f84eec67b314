//! # ooc-simnet
//!
//! A deterministic discrete-event message-passing network simulator, built as
//! the substrate for the *Object Oriented Consensus* reproduction.
//!
//! The simulator provides two execution engines:
//!
//! * [`Sim`] — an **asynchronous** event-driven engine. Processes implement
//!   [`Process`] and react to message deliveries and timers. Message delays
//!   are sampled from a configurable [`NetworkConfig`] or controlled by an
//!   [`Adversary`]. Crash/restart faults are injected from a [`FaultPlan`].
//!   Used by the Ben-Or and Raft reproductions.
//! * [`SyncSim`] — a **lock-step synchronous** round engine. Processes
//!   implement [`SyncProcess`]; in every round each process consumes the
//!   messages sent to it in the previous round and emits per-recipient
//!   messages (which permits Byzantine equivocation). Used by Phase-King.
//!
//! Every run is a pure function of `(processes, configuration, seed)`:
//! identical inputs produce identical traces, so any failure reproduces from
//! a one-line seed report.
//!
//! ## Example
//!
//! ```
//! use ooc_simnet::{Process, Context, ProcessId, Sim, NetworkConfig, RunLimit, TimerId};
//!
//! /// Every process broadcasts a ping, decides on the first id it hears.
//! struct Echo;
//! impl Process for Echo {
//!     type Msg = u64;
//!     type Output = u64;
//!     fn on_start(&mut self, ctx: &mut Context<'_, u64, u64>) {
//!         let me = ctx.me().index() as u64;
//!         ctx.broadcast(me);
//!     }
//!     fn on_message(&mut self, ctx: &mut Context<'_, u64, u64>, _from: ProcessId, msg: u64) {
//!         ctx.decide(msg);
//!     }
//!     fn on_timer(&mut self, _ctx: &mut Context<'_, u64, u64>, _t: TimerId) {}
//! }
//!
//! let mut sim = Sim::builder(NetworkConfig::default())
//!     .seed(7)
//!     .processes((0..4).map(|_| Box::new(Echo) as Box<dyn Process<Msg = u64, Output = u64>>))
//!     .build();
//! let outcome = sim.run(RunLimit::default());
//! assert!(outcome.all_decided());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod byzantine;
pub mod fault;
pub mod json;
pub mod metrics;
pub mod network;
pub mod process;
pub mod reliable;
pub mod rng;
pub mod sim;
pub mod state_adversary;
pub mod stats;
pub mod storage;
pub mod sync;
pub mod time;
pub mod trace;

mod id;
mod queue;

pub use adversary::{Adversary, Decision, FnAdversary, NetworkAdversary, SwitchAfter};
pub use byzantine::{ByzantineNode, SyncStrategy};
pub use fault::{CrashSpec, FaultPlan};
pub use id::{ProcessId, TimerId};
pub use json::{Json, JsonError};
pub use metrics::{CounterId, HistogramId, MetricsRegistry, TickHistogram};
pub use network::{DelayModel, FlappingPartition, LinkOverride, NetworkConfig, PartitionWindow};
pub use process::{Context, Process, ProtocolObservation};
pub use reliable::{ReliabilityPolicy, RetransmitConfig};
pub use rng::SplitMix64;
pub use sim::{RunLimit, RunOutcome, Sim, SimBuilder, StopReason, QUEUE_DEPTH_SAMPLE_DEFAULT};
pub use state_adversary::{
    QuorumStarveAdversary, StateAdversary, StateView, VoteSplitStateAdversary,
};
pub use stats::RunStats;
pub use storage::{StableStore, StorageFaultPlan, StoragePolicy, StorageRecord};
pub use sync::{SyncContext, SyncProcess, SyncRunOutcome, SyncSim};
pub use time::{ClockModel, SimDuration, SimTime};
pub use trace::analyze::{
    analyze, decision_critical_path, CriticalHop, ProcessTimeline, TraceAnalysis, WindowRow,
};
pub use trace::{DropReason, Trace, TraceEvent, TraceLevel, TraceRing};
