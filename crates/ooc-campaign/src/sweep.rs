//! Campaign sweeps: deterministic grids over
//! `(seed × fault plan × network × adversary)` per decomposition.
//!
//! Every combination is materialized as a [`FailureArtifact`] *first* and
//! then executed, so any failing combination is already in its
//! re-runnable, serializable form — the sweep never has to reconstruct
//! what it was doing when something broke.

use crate::artifact::{
    is_safety, AdversarySpec, Algorithm, FailureArtifact, FaultSpec, ViolationSummary,
};
use crate::adversaries::king_crash_schedule;
use crate::parallel::run_all;
use ooc_phase_king::{Attack, PhaseKingConfig};
use ooc_simnet::{
    DelayModel, FlappingPartition, LinkOverride, NetworkConfig, PartitionWindow, ProcessId,
    SimTime, StoragePolicy,
};

/// Everything a sweep over one algorithm produced.
#[derive(Debug)]
pub struct SweepReport {
    /// The algorithm swept.
    pub algorithm: Algorithm,
    /// Combinations executed.
    pub total: usize,
    /// Artifacts that broke a safety property (must stay empty for the
    /// shipped protocols).
    pub safety: Vec<FailureArtifact>,
    /// Artifacts that broke only liveness (stalls under attack).
    pub liveness: Vec<FailureArtifact>,
}

impl SweepReport {
    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{}: {} combos, {} safety violations, {} liveness violations",
            self.algorithm.name(),
            self.total,
            self.safety.len(),
            self.liveness.len()
        )
    }
}

/// Sweeps one algorithm over at least `target` combinations.
///
/// `sabotage` plants the Ben-Or off-by-one commit threshold (`t` instead
/// of `t + 1`) so tests and demos can prove the pipeline catches an
/// unsafe protocol; it is ignored for the other algorithms.
pub fn sweep(algorithm: Algorithm, target: usize, sabotage: bool) -> SweepReport {
    sweep_jobs(algorithm, target, sabotage, 1)
}

/// [`sweep`] with an explicit worker count.
///
/// Executes the grid on up to `jobs` scoped threads (see
/// [`crate::parallel`]); the returned report is **byte-identical** to a
/// `jobs = 1` sweep — artifacts are flagged and ordered exactly as a
/// serial pass over the grid would have flagged them.
pub fn sweep_jobs(algorithm: Algorithm, target: usize, sabotage: bool, jobs: usize) -> SweepReport {
    let grid = if sabotage && algorithm == Algorithm::BenOr {
        ben_or_grid(target, true)
    } else {
        grid(algorithm, target)
    };
    collect_report(algorithm, grid, jobs)
}

/// Executes a materialized grid and sorts the outcomes into a report —
/// the shared tail of every sweep entry point.
fn collect_report(algorithm: Algorithm, grid: Vec<FailureArtifact>, jobs: usize) -> SweepReport {
    let outcomes = run_all(&grid, jobs);
    let mut report = SweepReport {
        algorithm,
        total: 0,
        safety: Vec::new(),
        liveness: Vec::new(),
    };
    for (mut artifact, out) in grid.into_iter().zip(outcomes) {
        report.total += 1;
        if let Some(v) = out.violations.first() {
            let safety = out.violations.iter().any(|v| is_safety(v.kind));
            let flagged = out
                .violations
                .iter()
                .find(|v| is_safety(v.kind))
                .unwrap_or(v);
            artifact.violation = Some(ViolationSummary::of(flagged));
            // Attribute the liveness watchdog's verdict: a stalled run
            // was dead in the water (nothing in flight, armed, or
            // buffered), not merely out of budget.
            if out.stalled {
                artifact.stalled_since = Some(out.idle_since);
            }
            if safety {
                report.safety.push(artifact);
            } else {
                report.liveness.push(artifact);
            }
        }
    }
    report
}

/// The deterministic campaign grid for one algorithm, unsabotaged.
///
/// This is exactly the set of combinations [`sweep`] executes (for at
/// least `target` entries — the grid always completes its innermost
/// product, so it may overshoot). Exposed so the `report` aggregator
/// can run the same combinations the sweep does.
pub fn grid(algorithm: Algorithm, target: usize) -> Vec<FailureArtifact> {
    match algorithm {
        Algorithm::BenOr => ben_or_grid(target, false),
        Algorithm::PhaseKing => phase_king_grid(target),
        Algorithm::Raft => raft_grid(target),
    }
}

/// The alternating / all-zero / all-one input patterns, cycled by seed.
pub(crate) fn inputs_for(len: usize, seed: u64) -> Vec<u64> {
    match seed % 3 {
        0 => (0..len).map(|i| (i % 2) as u64).collect(),
        1 => vec![0; len],
        _ => vec![1; len],
    }
}

fn uniform_net(min: u64, max: u64) -> NetworkConfig {
    NetworkConfig {
        delay: DelayModel::Uniform { min, max },
        ..NetworkConfig::reliable(1)
    }
}

fn partitioned_net(n: usize, until: u64) -> NetworkConfig {
    let split = n / 2;
    NetworkConfig {
        partitions: vec![PartitionWindow {
            from: SimTime::ZERO,
            until: SimTime::from_ticks(until),
            groups: vec![
                (0..split).map(ProcessId).collect(),
                (split..n).map(ProcessId).collect(),
            ],
        }],
        ..NetworkConfig::reliable(2)
    }
}

fn crash_tail_specs(n: usize, count: usize, tick: u64) -> Vec<FaultSpec> {
    (n.saturating_sub(count)..n)
        .map(|p| FaultSpec::CrashAt { p, tick })
        .collect()
}

fn ben_or_grid(target: usize, sabotage: bool) -> Vec<FailureArtifact> {
    let sizes = [(4usize, 1usize), (5, 2), (7, 3)];
    let networks = [
        NetworkConfig::reliable(1),
        NetworkConfig::lossy(1, 5, 0.05),
        uniform_net(1, 10),
    ];
    let adversaries = [
        AdversarySpec::None,
        AdversarySpec::SplitVote {
            until_ticks: 2_000,
            slow_ticks: 25,
        },
    ];
    let mut grid = Vec::new();
    let mut seed = 0u64;
    while grid.len() < target {
        for &(n, t) in &sizes {
            // Crash-only plans: Ben-Or is crash-stop and its harness
            // rejects restart schedules (FaultPlan::assert_crash_stop).
            let fault_menu: [Vec<FaultSpec>; 4] = [
                vec![],
                crash_tail_specs(n, 1, 60),
                crash_tail_specs(n, t, 60),
                vec![FaultSpec::CrashAfterEvents {
                    p: n - 1,
                    events: 9,
                }],
            ];
            for network in &networks {
                for faults in &fault_menu {
                    for &adversary in &adversaries {
                        grid.push(FailureArtifact {
                            max_rounds: 200,
                            max_ticks: 300_000,
                            network: Some(network.clone()),
                            faults: faults.clone(),
                            adversary,
                            sabotage_commit_threshold: sabotage.then_some(t),
                            ..FailureArtifact::clean(
                                Algorithm::BenOr,
                                n,
                                t,
                                seed,
                                inputs_for(n, seed),
                            )
                        });
                    }
                }
            }
        }
        seed += 1;
    }
    grid
}

fn phase_king_grid(target: usize) -> Vec<FailureArtifact> {
    let sizes = [(4usize, 1usize), (7, 2), (10, 3)];
    let attacks = [
        Attack::Equivocate,
        Attack::Silent,
        Attack::Random,
        Attack::Fixed(0),
        Attack::Fixed(1),
    ];
    let mut grid = Vec::new();
    let mut seed = 0u64;
    while grid.len() < target {
        for &(n, t) in &sizes {
            // Three ways to spend the fault budget: all Byzantine, a
            // Byzantine/crash mix, and all crashes (king-crasher).
            let splits: [usize; 3] = [t, t.saturating_sub(1), 0];
            for (si, &byzantine) in splits.iter().enumerate() {
                // Skip the duplicate split when t == 1 makes two equal.
                if si > 0 && splits[..si].contains(&byzantine) {
                    continue;
                }
                let attack_menu: &[Attack] = if byzantine == 0 {
                    &attacks[..1]
                } else {
                    &attacks
                };
                for &attack in attack_menu {
                    let cfg = PhaseKingConfig::new(n, t)
                        .with_byzantine(byzantine)
                        .with_attack(attack);
                    let faults: Vec<FaultSpec> = if byzantine < t {
                        king_crash_schedule(&cfg)
                            .into_iter()
                            .map(|(p, round)| FaultSpec::CrashAtRound {
                                p: p.index(),
                                round,
                            })
                            .collect()
                    } else {
                        vec![]
                    };
                    let inputs = inputs_for(n - byzantine, seed);
                    grid.push(FailureArtifact {
                        byzantine: Some(byzantine),
                        attack: Some(FailureArtifact::attack_name(attack)),
                        max_rounds: t as u64 + 4,
                        faults,
                        ..FailureArtifact::clean(Algorithm::PhaseKing, n, t, seed, inputs)
                    });
                }
            }
        }
        seed += 1;
    }
    grid
}

fn raft_grid(target: usize) -> Vec<FailureArtifact> {
    let sizes = [3usize, 5];
    let adversaries = [
        AdversarySpec::None,
        AdversarySpec::LeaderFlap {
            isolation_ticks: 300,
            max_flaps: 2,
        },
        AdversarySpec::LeaderFlap {
            isolation_ticks: 500,
            max_flaps: 3,
        },
    ];
    let mut grid = Vec::new();
    let mut seed = 0u64;
    while grid.len() < target {
        for &n in &sizes {
            let minority = (n - 1) / 2;
            let networks = [
                NetworkConfig::reliable(2),
                NetworkConfig::lossy(1, 10, 0.1),
                partitioned_net(n, 2_000),
            ];
            let fault_menu: [Vec<FaultSpec>; 3] = [
                vec![],
                crash_tail_specs(n, minority, 200),
                vec![
                    FaultSpec::CrashAt { p: n - 1, tick: 150 },
                    FaultSpec::RestartAt {
                        p: n - 1,
                        tick: 3_000,
                    },
                ],
            ];
            for network in &networks {
                for faults in &fault_menu {
                    for &adversary in &adversaries {
                        let inputs = (1..=n as u64).collect();
                        grid.push(FailureArtifact {
                            max_rounds: 10_000,
                            max_ticks: 2_000_000,
                            network: Some(network.clone()),
                            faults: faults.clone(),
                            adversary,
                            ..FailureArtifact::clean(Algorithm::Raft, n, minority, seed, inputs)
                        });
                    }
                }
            }
        }
        seed += 1;
    }
    grid
}

/// The Raft **durability grid**: crash-a-voter schedules with every node
/// under the given uniform [`StoragePolicy`].
///
/// Each combination permanently crashes the tail `t` nodes (so no quorum
/// can commit — and end the run — while the victim is down), crashes one
/// early node a few handler invocations after it casts its first-term
/// ballot, revives it later, and *isolates the revived node* so its
/// election timer must fire before it hears the cluster's current term.
/// Under `sync-always` the revived node remembers its term and ballot, so
/// its forced candidacy moves to a fresh term and the grid stays clean;
/// under a lossy policy the hardstate record is gone, the node restarts
/// at term zero, and its candidacy re-votes in a term it already voted
/// in — a genuine double-vote the [`ooc_raft::DurabilityChecker`] flags.
/// Once the isolation window lifts, the revived victim restores the
/// quorum and every live node still decides.
pub fn raft_durability_grid(target: usize, policy: StoragePolicy) -> Vec<FailureArtifact> {
    let sizes = [3usize, 5];
    let networks = [
        NetworkConfig::reliable(2),
        NetworkConfig::lossy(1, 10, 0.1),
        uniform_net(1, 25),
    ];
    // Callback #1 is `on_start` and #2 is typically the first
    // `RequestVote`, so a threshold of 2 kills a granter right after its
    // ballot and *before* it acks the new leader's first log entry —
    // otherwise that ack lets the survivors commit and the run can end
    // before the victim's restart tick.
    let events_menu = [2u64, 3, 4, 6];
    let restart_ticks = [420u64, 650];
    /// How long the revived victim stays partitioned away — long enough
    /// for at least one post-restart election timeout to fire.
    const ISOLATION_TICKS: u64 = 600;
    let mut grid = Vec::new();
    while grid.len() < target {
        for &n in &sizes {
            for network in &networks {
                for &events in &events_menu {
                    for &restart in &restart_ticks {
                        // Crash the two lowest ids in turn: with fresh
                        // timers everywhere, low ids are as likely as any
                        // to be the first voters. Every combination gets
                        // its own seed so a single pass already samples
                        // many first-candidate orderings.
                        for victim in [0usize, 1] {
                            let t = (n - 1) / 2;
                            let mut net = network.clone();
                            net.partitions.push(PartitionWindow {
                                from: SimTime::from_ticks(restart),
                                until: SimTime::from_ticks(restart + ISOLATION_TICKS),
                                groups: vec![
                                    (0..n - t)
                                        .filter(|&p| p != victim)
                                        .map(ProcessId)
                                        .collect(),
                                ],
                            });
                            let mut faults = crash_tail_specs(n, t, 5);
                            faults.push(FaultSpec::CrashAfterEvents { p: victim, events });
                            faults.push(FaultSpec::RestartAt { p: victim, tick: restart });
                            let (seed, inputs) = (grid.len() as u64, (1..=n as u64).collect());
                            grid.push(FailureArtifact {
                                max_rounds: 10_000,
                                max_ticks: 2_000_000,
                                network: Some(net),
                                faults,
                                storage_policy: Some(policy),
                                ..FailureArtifact::clean(Algorithm::Raft, n, t, seed, inputs)
                            });
                        }
                    }
                }
            }
        }
    }
    grid
}

/// Sweeps the [`raft_durability_grid`] under `policy` on up to `jobs`
/// workers; the report inherits the byte-identity guarantee of
/// [`sweep_jobs`].
pub fn sweep_storage_jobs(target: usize, policy: StoragePolicy, jobs: usize) -> SweepReport {
    collect_report(Algorithm::Raft, raft_durability_grid(target, policy), jobs)
}

/// A network with one gray *directed* link: `p0 → p(n−1)` loses 30 % of
/// its traffic and crawls, while the reverse direction — and every other
/// link — stays healthy. A second override slows `p1 → p0` without extra
/// loss, so the grid also exercises delay-only asymmetry.
pub(crate) fn asym_lossy_net(n: usize) -> NetworkConfig {
    NetworkConfig::lossy(1, 5, 0.02)
        .with_link_override(LinkOverride {
            from: ProcessId(0),
            to: ProcessId(n - 1),
            drop_probability: Some(0.3),
            delay: Some(DelayModel::Uniform { min: 10, max: 30 }),
        })
        .with_link_override(LinkOverride {
            from: ProcessId(1),
            to: ProcessId(0),
            drop_probability: None,
            delay: Some(DelayModel::Fixed(20)),
        })
}

/// A network that flaps between a split and full connectivity on a fixed
/// cadence: 10 of every 80 ticks partitioned, starting healed, for the
/// first 2 000 ticks. The split makes two ⌊n/2⌋ camps and (for odd `n`)
/// isolates the last process, so *neither* camp reaches the `n − t`
/// quorum alone.
///
/// Even a 12.5 % duty cycle is brutal for a protocol built on reliable
/// channels: Ben-Or never retransmits, so a round whose message burst
/// lands in a partitioned window is starved forever and the run goes
/// quiescent. The cadence is tuned so *most* rounds thread the heal
/// windows — the regime degrades agreement instead of flooring it.
pub(crate) fn flapping_net(n: usize) -> NetworkConfig {
    let split = n / 2;
    NetworkConfig::reliable(2).with_flapping(FlappingPartition {
        from: SimTime::from_ticks(40),
        until: SimTime::from_ticks(2_040),
        period: 80,
        partitioned: 10,
        groups: vec![
            (0..split).map(ProcessId).collect(),
            (split..2 * split).map(ProcessId).collect(),
        ],
    })
}

/// A bounded-Pareto delay network: mostly fast, with a heavy tail deep
/// into the 60-tick cap.
pub(crate) fn heavy_tailed_net() -> NetworkConfig {
    NetworkConfig {
        delay: DelayModel::HeavyTailed {
            floor: 1,
            alpha_milli: 1100,
            cap: 60,
        },
        ..NetworkConfig::reliable(1)
    }
}

/// The Ben-Or **gray-failure grid**: every combination of the three gray
/// networks ([`asym_lossy_net`], [`flapping_net`], [`heavy_tailed_net`])
/// with the full adversary ladder — oblivious, message-adaptive
/// split-vote, state-adaptive split-vote, quorum-starving flapper — plus
/// per-process clock drift and slow-disk `sync()` latency cycled by seed.
///
/// This grid is deliberately **separate** from [`grid`]: the classic
/// grids feed the pinned `BENCH_ooc.json` campaign rows and must not
/// change shape.
pub fn ben_or_gray_grid(target: usize) -> Vec<FailureArtifact> {
    let sizes = [(5usize, 2usize), (7, 3)];
    let adversaries = [
        AdversarySpec::None,
        AdversarySpec::SplitVote {
            until_ticks: 2_000,
            slow_ticks: 25,
        },
        AdversarySpec::StateSplitVote { until_ticks: 2_000 },
        AdversarySpec::QuorumFlap {
            until_ticks: 2_000,
            period: 60,
        },
    ];
    let mut grid = Vec::new();
    let mut seed = 0u64;
    while grid.len() < target {
        for &(n, t) in &sizes {
            let networks = [asym_lossy_net(n), flapping_net(n), heavy_tailed_net()];
            // Clock drift and slow-disk intensity cycle with the seed so
            // every network × adversary cell eventually sees every timing
            // regime.
            let drift: Vec<(usize, u32)> = match seed % 3 {
                0 => Vec::new(),
                1 => vec![(0, 140)],
                _ => vec![(0, 150), (n - 1, 70)],
            };
            let sync_latency = [0u64, 4][(seed % 2) as usize];
            for network in &networks {
                for &adversary in &adversaries {
                    grid.push(FailureArtifact {
                        max_rounds: 300,
                        max_ticks: 600_000,
                        network: Some(network.clone()),
                        adversary,
                        clock_rates: drift.clone(),
                        sync_latency,
                        ..FailureArtifact::clean(Algorithm::BenOr, n, t, seed, inputs_for(n, seed))
                    });
                }
            }
        }
        seed += 1;
    }
    grid
}

/// Sweeps the [`ben_or_gray_grid`] on up to `jobs` workers; the report
/// inherits the byte-identity guarantee of [`sweep_jobs`].
pub fn sweep_gray_jobs(target: usize, jobs: usize) -> SweepReport {
    collect_report(Algorithm::BenOr, ben_or_gray_grid(target), jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_artifact;

    #[test]
    fn grids_reach_their_target_size() {
        assert!(ben_or_grid(1000, false).len() >= 1000);
        assert!(phase_king_grid(1000).len() >= 1000);
        assert!(raft_grid(1000).len() >= 1000);
    }

    #[test]
    fn grids_are_deterministic() {
        assert_eq!(ben_or_grid(100, false), ben_or_grid(100, false));
        assert_eq!(phase_king_grid(100), phase_king_grid(100));
        assert_eq!(raft_grid(100), raft_grid(100));
    }

    #[test]
    fn small_clean_sweeps_have_no_safety_violations() {
        for alg in Algorithm::all() {
            let report = sweep(alg, 30, false);
            assert!(
                report.safety.is_empty(),
                "{}: {:?}",
                alg.name(),
                report.safety.first().map(|a| &a.violation)
            );
            assert!(report.total >= 30);
        }
    }

    #[test]
    fn parallel_sweep_is_byte_identical_to_serial() {
        // The tentpole guarantee: a multi-worker sweep must flag the
        // same artifacts, in the same order, with byte-identical JSON,
        // as a serial pass over the same grid.
        let serial = sweep_jobs(Algorithm::BenOr, 400, true, 1);
        let parallel = sweep_jobs(Algorithm::BenOr, 400, true, 4);
        assert!(
            !serial.safety.is_empty(),
            "sabotage must be caught so the comparison is non-vacuous"
        );
        assert_eq!(serial.total, parallel.total);
        let render = |r: &SweepReport| -> Vec<String> {
            r.safety
                .iter()
                .chain(r.liveness.iter())
                .map(|a| a.to_string_pretty())
                .collect()
        };
        assert_eq!(render(&serial), render(&parallel));
    }

    #[test]
    fn sabotaged_sweep_catches_the_broken_ben_or() {
        let report = sweep(Algorithm::BenOr, 400, true);
        assert!(
            !report.safety.is_empty(),
            "the off-by-one commit threshold must be caught"
        );
        // Every flagged artifact carries its violation summary and
        // replays to the same violation kind.
        let art = &report.safety[0];
        let summary = art.violation.as_ref().expect("summary recorded");
        let replay = run_artifact(art);
        assert!(
            replay
                .violations
                .iter()
                .any(|v| crate::artifact::kind_name(v.kind) == summary.kind),
            "replay must reproduce {summary:?}, got {:?}",
            replay.violations
        );
    }

    #[test]
    fn amnesia_durability_sweep_surfaces_double_votes() {
        let report = sweep_storage_jobs(96, StoragePolicy::Amnesia, 2);
        assert!(
            !report.safety.is_empty(),
            "the amnesia grid must manufacture at least one double-vote"
        );
        for art in &report.safety {
            let summary = art.violation.as_ref().expect("summary recorded");
            assert!(
                summary.detail.contains("durability"),
                "expected a durability double-vote, got {summary:?}"
            );
            assert_eq!(art.storage_policy, Some(StoragePolicy::Amnesia));
        }
        // Every flagged artifact replays to the same violation,
        // deterministically.
        let art = &report.safety[0];
        let summary = art.violation.clone().expect("summary recorded");
        for _ in 0..2 {
            let replay = run_artifact(art);
            assert!(
                replay.violations.iter().any(|v| {
                    crate::artifact::kind_name(v.kind) == summary.kind
                        && v.detail == summary.detail
                }),
                "replay must reproduce {summary:?}, got {:?}",
                replay.violations
            );
        }
    }

    #[test]
    fn sync_always_durability_sweep_is_clean() {
        // The identical crash/restart/isolation schedules, with storage
        // that honors every write: no double-votes, no stalls.
        let report = sweep_storage_jobs(96, StoragePolicy::SyncAlways, 2);
        assert!(
            report.safety.is_empty(),
            "synced storage must survive the durability grid: {:?}",
            report.safety.first().map(|a| &a.violation)
        );
        assert!(
            report.liveness.is_empty(),
            "the durability grid must still terminate under sync-always: {:?}",
            report.liveness.first().map(|a| &a.violation)
        );
    }

    #[test]
    fn gray_grid_is_deterministic_and_reaches_its_target() {
        assert!(ben_or_gray_grid(200).len() >= 200);
        assert_eq!(ben_or_gray_grid(100), ben_or_gray_grid(100));
        // The grid exercises the full adversary ladder and all three
        // gray networks.
        let grid = ben_or_gray_grid(24);
        for adversary in [
            AdversarySpec::None,
            AdversarySpec::SplitVote {
                until_ticks: 2_000,
                slow_ticks: 25,
            },
            AdversarySpec::StateSplitVote { until_ticks: 2_000 },
            AdversarySpec::QuorumFlap {
                until_ticks: 2_000,
                period: 60,
            },
        ] {
            assert!(grid.iter().any(|a| a.adversary == adversary));
        }
        assert!(grid
            .iter()
            .any(|a| !a.network.as_ref().unwrap().link_overrides.is_empty()));
        assert!(grid
            .iter()
            .any(|a| !a.network.as_ref().unwrap().flapping.is_empty()));
        assert!(grid.iter().any(|a| matches!(
            a.network.as_ref().unwrap().delay,
            DelayModel::HeavyTailed { .. }
        )));
    }

    #[test]
    fn gray_sweep_stays_safe_and_parallel_matches_serial() {
        let serial = sweep_gray_jobs(48, 1);
        assert!(
            serial.safety.is_empty(),
            "gray failures may stall Ben-Or but must never break safety: {:?}",
            serial.safety.first().map(|a| &a.violation)
        );
        let parallel = sweep_gray_jobs(48, 4);
        assert_eq!(serial.total, parallel.total);
        let render = |r: &SweepReport| -> Vec<String> {
            r.safety
                .iter()
                .chain(r.liveness.iter())
                .map(|a| a.to_string_pretty())
                .collect()
        };
        assert_eq!(render(&serial), render(&parallel));
    }

    #[test]
    fn parallel_storage_sweep_is_byte_identical_to_serial() {
        let serial = sweep_storage_jobs(96, StoragePolicy::Amnesia, 1);
        let parallel = sweep_storage_jobs(96, StoragePolicy::Amnesia, 4);
        assert!(
            !serial.safety.is_empty(),
            "amnesia must be caught so the comparison is non-vacuous"
        );
        assert_eq!(serial.total, parallel.total);
        let render = |r: &SweepReport| -> Vec<String> {
            r.safety
                .iter()
                .chain(r.liveness.iter())
                .map(|a| a.to_string_pretty())
                .collect()
        };
        assert_eq!(render(&serial), render(&parallel));
    }
}

