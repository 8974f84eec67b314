//! # ooc-campaign
//!
//! A fault-injection campaign engine for the paper's three consensus
//! decompositions (Ben-Or, Phase-King, Raft-as-single-shot).
//!
//! The engine sweeps deterministic grids of
//! `(seed × fault plan × network × adversary)` combinations, runs every
//! execution through the `ooc-core::checker` property pipeline, and for
//! any violation produces a **reproducible failure artifact**: a
//! self-contained JSON document holding everything the run's identity
//! depends on. Artifacts can be replayed bit-for-bit and *shrunk* —
//! delta-debugging style — to a minimal counterexample.
//!
//! ## Pieces
//!
//! * [`adversaries`] — targeted liveness attacks, one per algorithm:
//!   [`adversaries::SplitVoteAdversary`] biases Ben-Or message order
//!   toward ties, [`adversaries::LeaderFlapAdversary`] isolates each
//!   freshly elected Raft leader, and
//!   [`adversaries::king_crash_schedule`] decapitates each reigning
//!   Phase-King king. All attacks carry budgets, so a correct protocol
//!   must still terminate.
//! * [`artifact`] — the [`artifact::FailureArtifact`] model and its JSON
//!   round-trip.
//! * [`runner`] — replays an artifact under a [`ooc_core::RunBudget`] so
//!   adversarial stalls become bounded `Termination` violations instead
//!   of hangs.
//! * [`parallel`] — the deterministic scoped-thread executor behind
//!   `--jobs`: workers claim grid indices from an atomic counter and
//!   results merge in stable grid order, so an `N`-thread sweep is
//!   byte-identical to a serial one.
//! * [`sweep`] — the campaign grids (≥ 1000 combinations per algorithm
//!   at the default target).
//! * [`report`] — percentile aggregation (p50/p95/p99 rounds-to-decide,
//!   messages, simulated time) over the same grids, rendered as
//!   byte-identical deterministic JSON.
//! * [`degradation`] — the gray-failure scenario zoo: adversary strength
//!   (oblivious → message-adaptive → state-adaptive) × gray-failure
//!   intensity (asymmetric loss, flapping partitions, heavy-tailed
//!   delays, clock drift, slow disks), reporting eventual-agreement
//!   probability and rounds-to-decide percentiles per regime.
//! * [`shrink`] — greedy delta-debugging minimization preserving the
//!   violation kind.
//! * [`json`] — the workspace's JSON value/parser/printer, re-exported
//!   from `ooc-simnet`, with exact 64-bit integers (seeds survive the
//!   round trip).
//!
//! ## CLI
//!
//! ```text
//! cargo run --release -p ooc-campaign -- sweep [--algorithm A] [--combos N] [--jobs N] [--out DIR] [--sabotage]
//! cargo run --release -p ooc-campaign -- report [--algorithm A] [--combos N] [--jobs N] [--out FILE]
//! cargo run --release -p ooc-campaign -- degradation [--seeds N] [--jobs N] [--out FILE] [--artifacts DIR]
//! cargo run --release -p ooc-campaign -- replay [--jobs N] <artifact.json>...
//! cargo run --release -p ooc-campaign -- shrink <artifact.json> [--out FILE]
//! ```
//!
//! `--jobs N` (default: available parallelism) fans the grid out over a
//! scoped-thread worker pool; output is byte-identical for every `N`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversaries;
pub mod artifact;
pub mod degradation;
pub mod parallel;
pub mod report;
pub mod runner;
pub mod shrink;
pub mod sweep;

pub use adversaries::{king_crash_schedule, LeaderFlapAdversary, SplitVoteAdversary};
pub use artifact::{
    AdversarySpec, Algorithm, FailureArtifact, FaultSpec, ViolationSummary,
};
pub use degradation::{
    degradation_artifacts, degradation_artifacts_with, degradation_json,
    degradation_reliability_json, degradation_reliability_report_jobs, degradation_report_jobs,
    degradation_report_with, DegradationCell, DegradationRegime, DegradationReport,
};
pub use ooc_simnet::json;
pub use ooc_simnet::Json;
pub use parallel::{default_jobs, run_all};
pub use report::{
    collect_reports, collect_reports_jobs, report_json, AlgorithmReport, PercentileSummary,
};
pub use runner::{run_artifact, CampaignOutcome};
pub use shrink::{shrink, ShrinkReport};
pub use sweep::{grid, sweep, sweep_jobs, SweepReport};
