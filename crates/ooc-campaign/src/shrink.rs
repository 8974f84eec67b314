//! Delta-debugging–style artifact minimization.
//!
//! Given a failing artifact, the shrinker repeatedly tries structurally
//! smaller candidates — fewer faults, shorter partitions, fewer
//! processes, tighter round caps, a simpler network, no adversary — and
//! accepts a candidate iff rerunning it still reproduces a violation of
//! the **same kind**. Every accepted candidate is strictly smaller by
//! construction, so the loop terminates; a run cap bounds the worst
//! case. The result is the minimal counterexample to hand a human.

use crate::artifact::{kind_name, Algorithm, FailureArtifact, ViolationSummary};
use crate::runner::run_artifact;
use ooc_core::checker::ViolationKind;
use ooc_simnet::ReliabilityPolicy;

/// What the shrinker did.
#[derive(Debug)]
pub struct ShrinkReport {
    /// The minimized artifact (violation summary refreshed).
    pub artifact: FailureArtifact,
    /// Accepted shrink steps.
    pub steps: usize,
    /// Executions spent probing candidates.
    pub runs: usize,
}

/// Hard cap on shrink probe executions.
const MAX_RUNS: usize = 400;

/// Minimizes `artifact`, preserving the kind of its violation.
///
/// Returns `None` if the artifact does not reproduce any violation in
/// the first place (nothing to shrink).
pub fn shrink(artifact: &FailureArtifact) -> Option<ShrinkReport> {
    let mut runs = 0;
    // Establish the violation kind to preserve: trust the recorded
    // summary if the replay confirms it, else whatever the replay finds.
    let baseline = run_artifact(artifact);
    runs += 1;
    let recorded = artifact
        .violation
        .as_ref()
        .and_then(|s| baseline.violations.iter().find(|v| kind_name(v.kind) == s.kind));
    let target_kind = match recorded.or_else(|| baseline.violations.first()) {
        Some(v) => v.kind,
        None => return None,
    };

    let mut current = artifact.clone();
    let mut steps = 0;
    'outer: loop {
        for candidate in candidates(&current) {
            if runs >= MAX_RUNS {
                break 'outer;
            }
            runs += 1;
            if reproduces(&candidate, target_kind) {
                current = candidate;
                steps += 1;
                continue 'outer;
            }
        }
        break;
    }

    // Refresh the violation summary from the minimized run.
    let finish = run_artifact(&current);
    if let Some(v) = finish
        .violations
        .iter()
        .find(|v| v.kind == target_kind)
        .or_else(|| finish.violations.first())
    {
        current.violation = Some(ViolationSummary::of(v));
    }
    Some(ShrinkReport {
        artifact: current,
        steps,
        runs,
    })
}

fn reproduces(candidate: &FailureArtifact, kind: ViolationKind) -> bool {
    run_artifact(candidate)
        .violations
        .iter()
        .any(|v| v.kind == kind)
}

/// Structurally smaller variants of `art`, most aggressive first.
fn candidates(art: &FailureArtifact) -> Vec<FailureArtifact> {
    let mut out = Vec::new();

    // Reduce the cluster: drop the highest-id process.
    if let Some(smaller) = reduce_n(art) {
        out.push(smaller);
    }

    // Drop each scheduled fault.
    for i in 0..art.faults.len() {
        let mut c = art.clone();
        c.faults.remove(i);
        out.push(c);
    }

    // Remove the adversary.
    if art.adversary != crate::artifact::AdversarySpec::None {
        let mut c = art.clone();
        c.adversary = crate::artifact::AdversarySpec::None;
        out.push(c);
    }

    // Drop the storage-fault policy (revert to implicit sync-always).
    // For genuine durability violations this candidate is rejected —
    // with synced storage the recovered node cannot double-vote — so
    // the minimal artifact keeps the lossy policy that caused it.
    if art.storage_policy.is_some() {
        let mut c = art.clone();
        c.storage_policy = None;
        out.push(c);
    }

    // Partitions: drop each window, then halve each window's length.
    if let Some(net) = &art.network {
        for i in 0..net.partitions.len() {
            let mut c = art.clone();
            c.network.as_mut().unwrap().partitions.remove(i);
            out.push(c);
        }
        for (i, w) in net.partitions.iter().enumerate() {
            let len = w.until.ticks().saturating_sub(w.from.ticks());
            if len > 2 {
                let mut c = art.clone();
                c.network.as_mut().unwrap().partitions[i].until =
                    ooc_simnet::SimTime::from_ticks(w.from.ticks() + len / 2);
                out.push(c);
            }
        }
        // Gray-failure dimensions: drop each asymmetric link override and
        // each flapping schedule, then clear each family wholesale.
        for i in 0..net.link_overrides.len() {
            let mut c = art.clone();
            c.network.as_mut().unwrap().link_overrides.remove(i);
            out.push(c);
        }
        if !net.link_overrides.is_empty() {
            let mut c = art.clone();
            c.network.as_mut().unwrap().link_overrides.clear();
            out.push(c);
        }
        for i in 0..net.flapping.len() {
            let mut c = art.clone();
            c.network.as_mut().unwrap().flapping.remove(i);
            out.push(c);
        }
        if !net.flapping.is_empty() {
            let mut c = art.clone();
            c.network.as_mut().unwrap().flapping.clear();
            out.push(c);
        }
        // Simplify the stochastic network to a deterministic one.
        let simple = ooc_simnet::NetworkConfig {
            partitions: net.partitions.clone(),
            ..ooc_simnet::NetworkConfig::reliable(1)
        };
        if *net != simple {
            let mut c = art.clone();
            c.network = Some(simple);
            out.push(c);
        }
    }

    // Restore nominal clocks.
    if !art.clock_rates.is_empty() {
        let mut c = art.clone();
        c.clock_rates.clear();
        out.push(c);
    }

    // Remove the slow disk.
    if art.sync_latency > 0 {
        let mut c = art.clone();
        c.sync_latency = 0;
        out.push(c);
    }

    // Downgrade the reliability policy toward `Off`: a counterexample
    // that survives without retransmission did not need the reliable-
    // delivery layer at all (the fire-and-forget engine is the simpler
    // substrate to reason about). A liveness counterexample that
    // *depends* on retransmission rejects this candidate and keeps the
    // policy, which is itself informative.
    if art.reliability.is_on() {
        let mut c = art.clone();
        c.reliability = ReliabilityPolicy::Off;
        out.push(c);
    }

    // Downgrade a state-adaptive adversary to its message-adaptive
    // analogue: a counterexample that survives the downgrade needs no
    // protocol-state oracle, which is a strictly weaker (and easier to
    // reason about) attacker.
    if let crate::artifact::AdversarySpec::StateSplitVote { until_ticks } = art.adversary {
        let mut c = art.clone();
        c.adversary = crate::artifact::AdversarySpec::SplitVote {
            until_ticks,
            slow_ticks: 25,
        };
        out.push(c);
    }

    // Tighten the budgets.
    if art.max_rounds > 8 {
        let mut c = art.clone();
        c.max_rounds = (art.max_rounds / 2).max(8);
        out.push(c);
    }
    if art.max_ticks > 2_000 {
        let mut c = art.clone();
        c.max_ticks = (art.max_ticks / 2).max(2_000);
        out.push(c);
    }

    // Unify the inputs (counterexamples with unanimous inputs are the
    // easiest to reason about). Only offered while the inputs are still
    // mixed, so accepted candidates cannot ping-pong between all-0 and
    // all-1.
    if art.inputs.windows(2).any(|w| w[0] != w[1]) {
        for v in [0u64, 1] {
            let mut c = art.clone();
            c.inputs = vec![v; art.inputs.len()];
            out.push(c);
        }
    }

    // Offer only candidates that can run: dropping a crash can orphan
    // its restart, and dropping a process can break the resilience bound.
    out.retain(|c| c.validate().is_ok());
    out
}

/// Drops the highest-id process, filtering the faults, clock rates, link
/// overrides and partition or flapping group members that referenced
/// it. Raft keeps at least two nodes: a one-node cluster elects itself
/// unopposed.
fn reduce_n(art: &FailureArtifact) -> Option<FailureArtifact> {
    let floor = if art.algorithm == Algorithm::Raft { 2 } else { 1 };
    let n = art.n.checked_sub(1).filter(|&n| n >= floor)?;
    let mut c = art.clone();
    c.n = n;
    // Inputs belong to the highest ids (Phase-King's Byzantine processes
    // are the lowest), so the dropped process's input is the last one.
    c.inputs.pop();
    c.faults.retain(|f| f.process() < n);
    c.clock_rates.retain(|&(p, _)| p < n);
    if let Some(net) = c.network.as_mut() {
        net.link_overrides
            .retain(|l| l.from.index() < n && l.to.index() < n);
        let partitions = net.partitions.iter_mut().map(|w| &mut w.groups);
        for groups in partitions.chain(net.flapping.iter_mut().map(|f| &mut f.groups)) {
            for g in groups.iter_mut() {
                g.retain(|p| p.index() < n);
            }
            groups.retain(|g| !g.is_empty());
        }
    }
    Some(c)
}

/// Rough structural size of an artifact — what the shrinker drives down.
pub fn size_of(art: &FailureArtifact) -> usize {
    art.n
        + art.faults.len()
        + art
            .network
            .as_ref()
            .map(|net| net.partitions.len() + net.link_overrides.len() + net.flapping.len())
            .unwrap_or(0)
        + usize::from(art.adversary != crate::artifact::AdversarySpec::None)
        + usize::from(art.adversary.is_state_adaptive())
        + usize::from(art.storage_policy.is_some())
        + usize::from(!art.clock_rates.is_empty())
        + usize::from(art.sync_latency > 0)
        + usize::from(art.reliability.is_on())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{AdversarySpec, FaultSpec};
    use ooc_simnet::NetworkConfig;

    fn sabotaged_failure() -> FailureArtifact {
        // Find a reproducing sabotaged Ben-Or artifact the same way the
        // sweep does.
        for seed in 0..300 {
            let art = FailureArtifact {
                max_rounds: 200,
                max_ticks: 300_000,
                network: Some(NetworkConfig::lossy(1, 5, 0.05)),
                faults: vec![FaultSpec::CrashAt { p: 6, tick: 60 }],
                adversary: AdversarySpec::SplitVote {
                    until_ticks: 2_000,
                    slow_ticks: 25,
                },
                sabotage_commit_threshold: Some(3),
                ..FailureArtifact::clean(Algorithm::BenOr, 7, 3, seed, vec![0, 1, 0, 1, 0, 1, 0])
            };
            let out = run_artifact(&art);
            if out.has_safety_violation() {
                return art;
            }
        }
        panic!("no sabotaged failure found in 300 seeds");
    }

    #[test]
    fn shrunk_durability_artifact_keeps_its_lossy_policy() {
        use ooc_simnet::StoragePolicy;
        let report = crate::sweep::sweep_storage_jobs(96, StoragePolicy::Amnesia, 2);
        let art = report.safety.first().expect("amnesia grid finds a double-vote");
        let shrunk = shrink(art).expect("reproduces, so it shrinks");
        assert_eq!(
            shrunk.artifact.storage_policy,
            Some(StoragePolicy::Amnesia),
            "the drop-policy candidate must be rejected: under sync-always \
             the revived node remembers its ballot and cannot double-vote"
        );
        assert!(size_of(&shrunk.artifact) <= size_of(art));
        // What the shrinker writes, replay and shrink must load again.
        let text = shrunk.artifact.to_string_pretty();
        assert_eq!(
            FailureArtifact::from_json_str(&text).as_ref(),
            Ok(&shrunk.artifact)
        );
        let kind = shrunk
            .artifact
            .violation
            .as_ref()
            .expect("summary refreshed")
            .kind
            .clone();
        assert!(
            run_artifact(&shrunk.artifact)
                .violations
                .iter()
                .any(|v| kind_name(v.kind) == kind),
            "minimized durability artifact must still reproduce"
        );
    }

    #[test]
    fn shrinker_downgrades_reliability_when_the_failure_survives_without_it() {
        use ooc_simnet::RetransmitConfig;
        // A quorum-starved run under a tick budget too tight for even
        // retransmission to save it: the termination violation reproduces
        // with the policy on AND off, so the downgrade-to-Off candidate
        // must be accepted and the minimal artifact needs no reliability
        // layer.
        let art = FailureArtifact {
            max_rounds: 40,
            max_ticks: 400,
            network: Some(NetworkConfig::reliable(1)),
            adversary: AdversarySpec::QuorumFlap {
                until_ticks: 60_000,
                period: 60,
            },
            reliability: ReliabilityPolicy::Retransmit(RetransmitConfig::default()),
            ..FailureArtifact::clean(Algorithm::BenOr, 7, 3, 0, vec![0, 1, 0, 1, 0, 1, 0])
        };
        let report = shrink(&art).expect("starved run violates termination");
        assert_eq!(
            report.artifact.reliability,
            ReliabilityPolicy::Off,
            "the downgrade-toward-Off candidate must be accepted"
        );
        assert!(size_of(&report.artifact) < size_of(&art));
    }

    #[test]
    fn reduce_n_drops_every_reference_to_the_removed_process() {
        use ooc_simnet::{LinkOverride, PartitionWindow, ProcessId, SimTime};
        // A T14 flapping-regime artifact (n = 7), with t lowered so that
        // Ben-Or's bound still holds at n = 6, and p6 named in every
        // family that names processes.
        let mut art = crate::degradation::degradation_artifacts(1)
            .into_iter()
            .find(|a| a.network.as_ref().is_some_and(|net| !net.flapping.is_empty()))
            .expect("the degradation grid has a flapping regime");
        art.t = 2;
        art.clock_rates.push((6, 80));
        let net = art.network.as_mut().expect("gray artifacts have a network");
        for (from, to) in [(6, 0), (0, 6), (1, 2)] {
            net.link_overrides.push(LinkOverride {
                from: ProcessId(from),
                to: ProcessId(to),
                drop_probability: Some(0.5),
                delay: None,
            });
        }
        net.partitions.push(PartitionWindow {
            from: SimTime::from_ticks(0),
            until: SimTime::from_ticks(100),
            groups: vec![vec![ProcessId(0), ProcessId(1)], vec![ProcessId(6)]],
        });
        net.flapping[0].groups.push(vec![ProcessId(6)]);
        assert_eq!(art.validate(), Ok(()));

        let c = reduce_n(&art).expect("n = 7 can shrink");
        assert_eq!(c.n, 6);
        assert_eq!(c.validate(), Ok(()), "reduce_n must offer a runnable candidate");
        assert!(c.clock_rates.iter().all(|&(p, _)| p < 6));
        assert_eq!(c.clock_rates.len(), art.clock_rates.len() - 1);
        let net = c.network.as_ref().expect("the network stays");
        assert_eq!(net.link_overrides.len(), 1, "only the 1 -> 2 override survives");
        let groups = net.partitions.iter().map(|w| &w.groups);
        for groups in groups.chain(net.flapping.iter().map(|f| &f.groups)) {
            assert!(groups.iter().all(|g| !g.is_empty()));
            assert!(groups.iter().flatten().all(|p| p.index() < 6));
        }
    }

    #[test]
    fn shrinking_a_clean_artifact_returns_none() {
        let art = FailureArtifact {
            max_rounds: 100,
            max_ticks: 100_000,
            network: Some(NetworkConfig::reliable(1)),
            ..FailureArtifact::clean(Algorithm::BenOr, 5, 2, 1, vec![1, 1, 1, 1, 1])
        };
        assert!(shrink(&art).is_none());
    }

    #[test]
    fn shrunk_artifact_is_smaller_and_still_reproduces_the_same_kind() {
        let art = sabotaged_failure();
        let original_kind = run_artifact(&art)
            .violations
            .iter()
            .find(|v| crate::artifact::is_safety(v.kind))
            .map(|v| v.kind)
            .or_else(|| run_artifact(&art).violations.first().map(|v| v.kind))
            .expect("baseline violation");

        let report = shrink(&art).expect("reproduces, so it shrinks");
        assert!(
            size_of(&report.artifact) <= size_of(&art),
            "shrinking must not grow the artifact"
        );
        // The minimized artifact still reproduces the target kind —
        // deterministically, twice in a row.
        let kind = report
            .artifact
            .violation
            .as_ref()
            .expect("summary refreshed")
            .kind
            .clone();
        assert_eq!(kind, kind_name(original_kind), "kind preserved");
        for _ in 0..2 {
            let replay = run_artifact(&report.artifact);
            assert!(
                replay
                    .violations
                    .iter()
                    .any(|v| kind_name(v.kind) == kind),
                "minimized artifact must reproduce {kind}, got {:?}",
                replay.violations
            );
        }
    }
}
