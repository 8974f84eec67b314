//! Replays a [`FailureArtifact`] (or a not-yet-failing candidate) through
//! the matching harness and checker pipeline, under a [`RunBudget`] so an
//! adversarial stall surfaces as a bounded run with a `Termination`
//! violation instead of hanging the sweep.

use crate::adversaries::{LeaderFlapAdversary, SplitVoteAdversary};
use crate::artifact::{
    faults_to_plan, faults_to_round_crashes, AdversarySpec, Algorithm, FailureArtifact,
    FaultSpec,
};
use ooc_ben_or::{run_decomposed_gray, BenOrConfig, BenOrWire, GrayOptions};
use ooc_core::checker::Violation;
use ooc_core::{BudgetSpent, RunBudget};
use ooc_phase_king::{run_phase_king_with_crashes, PhaseKingConfig};
use ooc_raft::{run_raft_with, RaftClusterConfig, RaftMsg};
use ooc_simnet::{
    Adversary, NetworkConfig, QuorumStarveAdversary, RunLimit, SimTime,
    StateAdversary, StorageFaultPlan, VoteSplitStateAdversary,
};
// ooc-lint::allow(determinism/wall-clock, "measures host-side campaign wall time, not simulated time")
use std::time::Instant;

/// What one campaign execution produced.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// Violations found by the checkers (safety *and* liveness).
    pub violations: Vec<Violation>,
    /// How many processes decided.
    pub decided: usize,
    /// How many processes were expected to decide but did not.
    pub undecided: usize,
    /// Messages sent during the run (protocol messages for the
    /// synchronous Phase-King, wire messages for the simnet-backed
    /// algorithms).
    pub messages: u64,
    /// What the run consumed.
    pub spent: BudgetSpent,
    /// Why the run stopped, human-readable.
    pub stop: String,
    /// Liveness-watchdog verdict: the run ended with live undecided
    /// processes and nothing in flight, armed, or buffered that could
    /// ever wake them (always `false` for the synchronous Phase-King,
    /// whose lock-step engine cannot idle).
    pub stalled: bool,
    /// Tick at which progress ceased when [`stalled`]
    /// (`CampaignOutcome::stalled`) is `true`; zero otherwise.
    pub idle_since: u64,
    /// Reliability-layer retransmissions performed during the run.
    pub retransmissions: u64,
    /// Reliability-layer acknowledgements sent during the run.
    pub acks_sent: u64,
}

impl CampaignOutcome {
    /// Violations that break safety (everything except termination).
    pub fn safety_violations(&self) -> impl Iterator<Item = &Violation> {
        self.violations
            .iter()
            .filter(|v| crate::artifact::is_safety(v.kind))
    }

    /// Whether any safety property broke.
    pub fn has_safety_violation(&self) -> bool {
        self.safety_violations().next().is_some()
    }
}

/// Trace capacity for campaign runs: zero, so they record no trace. No
/// campaign check reads one (Ben-Or's analysis folds the round
/// histories, Raft's checks the nodes' event logs), and stats, metrics
/// and decisions do not depend on trace capture. The harness defaults
/// capture in full.
pub const CAMPAIGN_TRACE_CAPACITY: usize = 0;

/// The budget an artifact implies: its own round/tick caps plus fixed
/// event and wall-clock guards so no single execution can stall a sweep.
pub fn artifact_budget(artifact: &FailureArtifact) -> RunBudget {
    RunBudget::default()
        .rounds(artifact.max_rounds)
        .ticks(artifact.max_ticks.max(1))
        .events(5_000_000)
        .wall(std::time::Duration::from_secs(10))
}

/// Runs the execution an artifact describes and re-checks every property.
pub fn run_artifact(artifact: &FailureArtifact) -> CampaignOutcome {
    match artifact.algorithm {
        Algorithm::BenOr => run_ben_or(artifact),
        Algorithm::PhaseKing => run_phase_king_artifact(artifact),
        Algorithm::Raft => run_raft_artifact(artifact),
    }
}

fn network_of(artifact: &FailureArtifact) -> NetworkConfig {
    artifact
        .network
        .clone()
        .unwrap_or_else(|| NetworkConfig::reliable(1))
}

fn run_ben_or(artifact: &FailureArtifact) -> CampaignOutcome {
    // ooc-lint::allow(determinism/wall-clock, "campaign duration reporting only; never feeds the schedule")
    let started = Instant::now();
    let budget = artifact_budget(artifact);
    let mut cfg = BenOrConfig::new(artifact.n, artifact.t)
        .with_network(network_of(artifact))
        .with_faults(faults_to_plan(&artifact.faults))
        .with_max_rounds(artifact.max_rounds)
        .with_run_limit(RunLimit {
            max_time: SimTime::from_ticks(artifact.max_ticks.max(1)),
            max_events: 5_000_000,
            ..RunLimit::default()
        })
        // No campaign check reads the trace, so the run records none.
        // The outcome numbers below are unaffected: trace capture is
        // observability-only.
        .with_trace_capacity(CAMPAIGN_TRACE_CAPACITY)
        .with_reliability(artifact.reliability);
    if let Some(th) = artifact.sabotage_commit_threshold {
        cfg = cfg.with_sabotaged_commit_threshold(th);
    }
    let inputs: Vec<bool> = artifact.inputs.iter().map(|&v| v != 0).collect();
    let adversary: Option<Box<dyn Adversary<BenOrWire>>> = match artifact.adversary {
        AdversarySpec::SplitVote {
            until_ticks,
            slow_ticks,
        } => Some(Box::new(SplitVoteAdversary::new(
            until_ticks,
            slow_ticks,
            network_of(artifact),
        ))),
        _ => None,
    };
    let state_adversary: Option<Box<dyn StateAdversary<BenOrWire>>> = match artifact.adversary {
        AdversarySpec::StateSplitVote { until_ticks } => Some(Box::new(
            VoteSplitStateAdversary::new(SimTime::from_ticks(until_ticks), network_of(artifact)),
        )),
        AdversarySpec::QuorumFlap {
            until_ticks,
            period,
        } => Some(Box::new(QuorumStarveAdversary::new(
            SimTime::from_ticks(until_ticks),
            period,
            network_of(artifact),
        ))),
        _ => None,
    };
    let storage = if artifact.sync_latency > 0 {
        StorageFaultPlan::default().with_sync_latency(artifact.sync_latency)
    } else {
        StorageFaultPlan::default()
    };
    let run = run_decomposed_gray(
        &cfg,
        &inputs,
        artifact.seed,
        GrayOptions {
            adversary,
            state_adversary,
            clocks: artifact.clock_model(),
            storage,
        },
    );

    let spent = BudgetSpent {
        rounds: run.max_round,
        ticks: run.outcome.stats.end_time.ticks(),
        events: run.outcome.stats.events_processed,
        wall: started.elapsed(),
    };
    let decided = run.outcome.decided_count();
    let undecided = cfg
        .must_decide()
        .iter()
        .filter(|p| run.outcome.decisions[p.index()].is_none())
        .count();
    let mut violations = run.violations;
    // The harness already flags undecided must-decide processes; the
    // budget classification only adds context when it was the budget
    // that cut the run short.
    if violations.is_empty() {
        violations.extend(budget.classify(&spent, undecided));
    }
    CampaignOutcome {
        violations,
        decided,
        undecided,
        messages: run.outcome.stats.messages_sent,
        spent,
        stop: format!("{:?}", run.outcome.reason),
        stalled: run.outcome.stats.stalled,
        idle_since: run.outcome.stats.idle_since.ticks(),
        retransmissions: run.outcome.stats.retransmissions,
        acks_sent: run.outcome.metrics.counter("reliable.acks_sent"),
    }
}

fn run_phase_king_artifact(artifact: &FailureArtifact) -> CampaignOutcome {
    // Phase-King is analyzed under crash-stop: a revived process makes no
    // sense in the synchronous model, so reject artifacts that try.
    assert!(
        artifact.faults.iter().all(FaultSpec::is_crash),
        "Phase-King is a crash-stop protocol: artifact restart-at faults are not supported"
    );
    // ooc-lint::allow(determinism/wall-clock, "campaign duration reporting only; never feeds the schedule")
    let started = Instant::now();
    let byzantine = artifact.byzantine.unwrap_or(artifact.t);
    let cfg = {
        let mut cfg = PhaseKingConfig::new(artifact.n, artifact.t)
            .with_byzantine(byzantine)
            .with_attack(artifact.parse_attack().unwrap_or_else(|e| panic!("{e}")));
        cfg.max_phases = artifact.max_rounds;
        cfg
    };
    let crashes = faults_to_round_crashes(&artifact.faults);
    let run = run_phase_king_with_crashes(&cfg, &artifact.inputs, artifact.seed, &crashes);

    let spent = BudgetSpent {
        rounds: run.rounds,
        ticks: run.rounds,
        events: run.messages,
        wall: started.elapsed(),
    };
    let honest_alive = run
        .honest
        .iter()
        .filter(|p| !run.crashed.contains(p))
        .count();
    let decided = run
        .honest
        .iter()
        .filter(|p| run.decisions[p.index()].is_some())
        .count();
    CampaignOutcome {
        violations: run.violations,
        decided,
        undecided: honest_alive.saturating_sub(decided),
        messages: run.messages,
        spent,
        stop: format!("{} rounds", run.rounds),
        // The lock-step engine delivers exactly-once and never idles:
        // the watchdog and the reliability layer are vacuous here.
        stalled: false,
        idle_since: 0,
        retransmissions: 0,
        acks_sent: 0,
    }
}

fn run_raft_artifact(artifact: &FailureArtifact) -> CampaignOutcome {
    // ooc-lint::allow(determinism/wall-clock, "campaign duration reporting only; never feeds the schedule")
    let started = Instant::now();
    let budget = artifact_budget(artifact);
    let mut cfg = RaftClusterConfig {
        max_time: SimTime::from_ticks(artifact.max_ticks.max(1)),
        ..RaftClusterConfig::new(artifact.n)
    }
    .with_network(network_of(artifact))
    .with_faults(faults_to_plan(&artifact.faults))
    // No trace, as on the Ben-Or path above.
    .with_trace_capacity(CAMPAIGN_TRACE_CAPACITY);
    if let Some(policy) = artifact.storage_policy {
        cfg = cfg.with_storage(StorageFaultPlan::uniform(policy));
    }
    let adversary: Option<Box<dyn Adversary<RaftMsg>>> = match artifact.adversary {
        AdversarySpec::LeaderFlap {
            isolation_ticks,
            max_flaps,
        } => Some(Box::new(LeaderFlapAdversary::new(
            isolation_ticks,
            max_flaps,
            network_of(artifact),
        ))),
        _ => None,
    };
    let run = run_raft_with(&cfg, &artifact.inputs, artifact.seed, adversary);

    let spent = BudgetSpent {
        rounds: run.max_term.0,
        ticks: run.outcome.stats.end_time.ticks(),
        events: run.outcome.stats.events_processed,
        wall: started.elapsed(),
    };
    let decided = run.outcome.decided_count();
    // Nodes the fault plan crashes (and never restarts) are excused.
    let excused: Vec<usize> = artifact
        .faults
        .iter()
        .filter(|f| f.is_crash())
        .map(|f| f.process())
        .filter(|p| {
            !artifact
                .faults
                .iter()
                .any(|f| !f.is_crash() && f.process() == *p)
        })
        .collect();
    let undecided = (0..artifact.n)
        .filter(|i| !excused.contains(i) && run.outcome.decisions[*i].is_none())
        .count();
    let mut violations = run.violations;
    violations.extend(budget.classify(&spent, undecided));
    CampaignOutcome {
        violations,
        decided,
        undecided,
        messages: run.outcome.stats.messages_sent,
        spent,
        stop: format!("{:?}", run.outcome.reason),
        stalled: run.outcome.stats.stalled,
        idle_since: run.outcome.stats.idle_since.ticks(),
        retransmissions: run.outcome.stats.retransmissions,
        acks_sent: run.outcome.metrics.counter("reliable.acks_sent"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{FaultSpec, ViolationSummary};

    fn ben_or_artifact() -> FailureArtifact {
        FailureArtifact {
            max_rounds: 200,
            max_ticks: 200_000,
            network: Some(NetworkConfig::reliable(1)),
            ..FailureArtifact::clean(Algorithm::BenOr, 5, 2, 7, vec![1, 0, 1, 0, 1])
        }
    }

    #[test]
    fn clean_ben_or_run_is_clean() {
        let out = run_artifact(&ben_or_artifact());
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert_eq!(out.decided, 5);
        assert_eq!(out.undecided, 0);
    }

    #[test]
    fn split_vote_adversary_keeps_runs_safe() {
        let mut art = ben_or_artifact();
        art.adversary = AdversarySpec::SplitVote {
            until_ticks: 2_000,
            slow_ticks: 30,
        };
        for seed in 0..5 {
            art.seed = seed;
            let out = run_artifact(&art);
            assert!(
                !out.has_safety_violation(),
                "seed {seed}: {:?}",
                out.violations
            );
        }
    }

    #[test]
    fn state_adaptive_artifacts_stay_safe_and_replay_identically() {
        for adversary in [
            AdversarySpec::StateSplitVote { until_ticks: 2_000 },
            AdversarySpec::QuorumFlap {
                until_ticks: 2_000,
                period: 60,
            },
        ] {
            let mut art = ben_or_artifact();
            art.adversary = adversary;
            art.clock_rates = vec![(0, 130), (3, 80)];
            art.sync_latency = 3;
            for seed in 0..4 {
                art.seed = seed;
                let out = run_artifact(&art);
                assert!(
                    !out.has_safety_violation(),
                    "{adversary:?} seed {seed}: {:?}",
                    out.violations
                );
                let replay = run_artifact(&art);
                assert_eq!(out.decided, replay.decided);
                assert_eq!(out.messages, replay.messages);
                assert_eq!(out.stop, replay.stop);
            }
        }
    }

    #[test]
    fn sabotaged_ben_or_is_caught_and_replays_deterministically() {
        // The broken variant commits on t ratifies instead of t + 1.
        // Sweep a few seeds; at least one must surface a safety
        // violation, and replaying that artifact must reproduce the
        // violation exactly.
        let mut caught: Option<(FailureArtifact, Violation)> = None;
        for seed in 0..200 {
            let mut art = ben_or_artifact();
            art.seed = seed;
            art.sabotage_commit_threshold = Some(art.t);
            art.adversary = AdversarySpec::SplitVote {
                until_ticks: 3_000,
                slow_ticks: 25,
            };
            let out = run_artifact(&art);
            let found = out.safety_violations().next().cloned();
            if let Some(v) = found {
                art.violation = Some(ViolationSummary::of(&v));
                caught = Some((art, v));
                break;
            }
        }
        let (art, violation) = caught.expect("sabotaged Ben-Or must be caught");
        let replay = run_artifact(&art);
        let reproduced = replay
            .violations
            .iter()
            .find(|v| v.kind == violation.kind)
            .expect("replay reproduces the violation kind");
        assert_eq!(reproduced.detail, violation.detail, "bit-for-bit replay");
    }

    #[test]
    fn phase_king_with_king_crashes_is_clean() {
        let art = FailureArtifact {
            byzantine: Some(0),
            max_rounds: 6,
            faults: vec![
                FaultSpec::CrashAtRound { p: 0, round: 1 },
                FaultSpec::CrashAtRound { p: 1, round: 4 },
            ],
            ..FailureArtifact::clean(Algorithm::PhaseKing, 7, 2, 3, vec![0, 1, 0, 1, 0, 1, 0])
        };
        let out = run_artifact(&art);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
    }

    #[test]
    fn phase_king_replays_the_same_with_an_unbounded_round_cap() {
        let art = |max_rounds| FailureArtifact {
            byzantine: Some(2),
            attack: Some("equivocate".into()),
            max_rounds,
            ..FailureArtifact::clean(Algorithm::PhaseKing, 7, 2, 0, vec![0, 1, 0, 1, 0])
        };
        let bounded = run_artifact(&art(2 + 4));
        let unbounded = run_artifact(&art(u64::MAX));
        assert!(bounded.violations.is_empty(), "{:?}", bounded.violations);
        assert_eq!(bounded.decided, 5);
        assert_eq!(unbounded.decided, bounded.decided);
        assert_eq!(unbounded.undecided, bounded.undecided);
        assert_eq!(unbounded.messages, bounded.messages);
        assert_eq!(unbounded.stop, bounded.stop);
        assert_eq!(unbounded.violations, bounded.violations);
    }

    #[test]
    #[should_panic(expected = "crash-stop protocol")]
    fn phase_king_artifact_rejects_restarts() {
        let art = FailureArtifact {
            byzantine: Some(0),
            max_rounds: 6,
            faults: vec![
                FaultSpec::CrashAtRound { p: 0, round: 1 },
                FaultSpec::RestartAt { p: 0, tick: 50 },
            ],
            ..FailureArtifact::clean(Algorithm::PhaseKing, 7, 2, 3, vec![0, 1, 0, 1, 0, 1, 0])
        };
        let _ = run_artifact(&art);
    }

    #[test]
    fn raft_under_leader_flap_recovers_within_budget() {
        let art = FailureArtifact {
            max_rounds: 10_000,
            max_ticks: 2_000_000,
            network: Some(NetworkConfig::reliable(2)),
            adversary: AdversarySpec::LeaderFlap {
                isolation_ticks: 400,
                max_flaps: 3,
            },
            ..FailureArtifact::clean(Algorithm::Raft, 5, 2, 11, vec![1, 2, 3, 4, 5])
        };
        let out = run_artifact(&art);
        assert!(
            !out.has_safety_violation(),
            "leader flapping must never break safety: {:?}",
            out.violations
        );
    }
}
