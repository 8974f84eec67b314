//! Seeded experiment runners for Raft — shared by the integration tests
//! and the `ooc-bench` tables (T1, T6).

use crate::durable::DurabilityChecker;
use crate::events::RaftEvent;
use crate::message::RaftMsg;
use crate::node::{RaftConfig, RaftNode};
use crate::types::{LogIndex, Term};
use crate::vac_view;
use ooc_core::checker::{check_consensus, Violation, ViolationKind};
use ooc_simnet::{
    Adversary, FaultPlan, NetworkConfig, ProcessId, RunLimit, RunOutcome, Sim,
    SimTime, StorageFaultPlan,
};
use std::collections::BTreeMap;

/// Parameters of a Raft cluster experiment.
#[derive(Debug, Clone)]
pub struct RaftClusterConfig {
    /// Cluster size.
    pub n: usize,
    /// Node timing knobs.
    pub raft: RaftConfig,
    /// Network behaviour.
    pub network: NetworkConfig,
    /// Crash/restart schedule.
    pub faults: FaultPlan,
    /// Per-node stable-storage crash policies.
    pub storage: StorageFaultPlan,
    /// Simulated-time budget.
    pub max_time: SimTime,
    /// Bounds engine trace capture to a ring of the most recent events
    /// (`None` = unbounded). Campaign sweeps set a small capacity since
    /// they never read happy-path traces; failures replay unbounded.
    pub trace_capacity: Option<usize>,
}

impl RaftClusterConfig {
    /// A default reliable-network cluster of `n` nodes.
    pub fn new(n: usize) -> Self {
        RaftClusterConfig {
            n,
            raft: RaftConfig::default(),
            network: NetworkConfig::reliable(5),
            faults: FaultPlan::default(),
            storage: StorageFaultPlan::default(),
            max_time: SimTime::from_ticks(1_000_000),
            trace_capacity: None,
        }
    }

    /// Replaces the Raft timing configuration.
    pub fn with_raft(mut self, raft: RaftConfig) -> Self {
        self.raft = raft;
        self
    }

    /// Replaces the network configuration.
    pub fn with_network(mut self, network: NetworkConfig) -> Self {
        self.network = network;
        self
    }

    /// Replaces the fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Replaces the storage-fault plan.
    pub fn with_storage(mut self, storage: StorageFaultPlan) -> Self {
        self.storage = storage;
        self
    }

    /// Bounds engine trace capture to a ring of the most recent
    /// `capacity` events. Observability-only: stats, metrics and
    /// decisions are byte-identical to an unbounded run.
    pub fn with_trace_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = Some(capacity);
        self
    }
}

/// Everything measured from one Raft execution.
#[derive(Debug)]
pub struct RaftRun {
    /// The engine-level outcome.
    pub outcome: RunOutcome<u64>,
    /// Per-node event streams.
    pub events: Vec<Vec<RaftEvent>>,
    /// Property violations (must be empty).
    pub violations: Vec<Violation>,
    /// Simulated time when the first leader emerged.
    pub first_leader_at: Option<SimTime>,
    /// The term of the first elected leader.
    pub first_leader_term: Option<Term>,
    /// Highest term reached by any node.
    pub max_term: Term,
    /// Total elections started across the cluster (reconciliator
    /// invocations, Algorithm 11).
    pub elections: usize,
}

impl RaftRun {
    /// Simulated time from start to the last decision.
    pub fn consensus_latency(&self) -> Option<SimTime> {
        self.outcome.last_decision_time()
    }
}

/// Runs a Raft cluster where node `i` proposes `inputs[i]`, then checks:
/// consensus agreement + validity, **Election Safety** (≤ 1 leader per
/// term), **Log Matching** over final logs, **Leader Completeness**
/// (committed entries appear in later leaders' logs), **State Machine
/// Safety** (applied index/value pairs agree), the paper's VAC
/// coherence laws over the Algorithm-10 records, and the
/// [`DurabilityChecker`]'s no-double-vote contract.
///
/// # Panics
/// Panics if `inputs.len() != cfg.n`.
pub fn run_raft(cfg: &RaftClusterConfig, inputs: &[u64], seed: u64) -> RaftRun {
    run_raft_with(cfg, inputs, seed, None)
}

/// Like [`run_raft`] but with a custom message-scheduling adversary —
/// the hook the campaign engine uses for targeted liveness attacks
/// (e.g. isolating each new leader just after election).
pub fn run_raft_with(
    cfg: &RaftClusterConfig,
    inputs: &[u64],
    seed: u64,
    adversary: Option<Box<dyn Adversary<RaftMsg>>>,
) -> RaftRun {
    assert_eq!(inputs.len(), cfg.n, "one input per node");
    let mut builder = Sim::builder(cfg.network.clone())
        .seed(seed)
        .faults(cfg.faults.clone())
        .storage(cfg.storage.clone())
        .processes(inputs.iter().map(|&v| RaftNode::new(v, cfg.raft)));
    if let Some(adv) = adversary {
        builder = builder.adversary(adv);
    }
    if let Some(cap) = cfg.trace_capacity {
        builder = builder.trace_capacity(cap);
    }
    let mut sim = builder.build();
    let limit = RunLimit {
        max_time: cfg.max_time,
        ..RunLimit::default()
    };
    let outcome = sim.run(limit);

    let events: Vec<Vec<RaftEvent>> = (0..cfg.n)
        .map(|i| sim.process(ProcessId(i)).events().to_vec())
        .collect();
    let mut violations = check_consensus(inputs, &outcome.decisions);

    // Election Safety: at most one leader per term.
    let mut leaders: BTreeMap<Term, Vec<ProcessId>> = BTreeMap::new();
    for (i, evs) in events.iter().enumerate() {
        for e in evs {
            if let RaftEvent::BecameLeader { term } = e {
                leaders.entry(*term).or_default().push(ProcessId(i));
            }
        }
    }
    for (term, who) in &leaders {
        if who.len() > 1 {
            violations.push(Violation {
                kind: ViolationKind::Agreement,
                round: Some(term.0),
                detail: format!("election safety: {term} had leaders {who:?}"),
            });
        }
    }

    // Log Matching: same (index, term) ⇒ identical prefixes.
    for i in 0..cfg.n {
        for j in (i + 1)..cfg.n {
            let a = sim.process(ProcessId(i)).log();
            let b = sim.process(ProcessId(j)).log();
            let common = a.len().min(b.len()) as u64;
            for idx in (1..=common).rev() {
                let (ia, ib) = (
                    a.get(LogIndex(idx)).unwrap(),
                    b.get(LogIndex(idx)).unwrap(),
                );
                if ia.term == ib.term {
                    // Everything up to idx must match.
                    for k in 1..=idx {
                        let (ka, kb) =
                            (a.get(LogIndex(k)).unwrap(), b.get(LogIndex(k)).unwrap());
                        if ka != kb {
                            violations.push(Violation {
                                kind: ViolationKind::Agreement,
                                round: None,
                                detail: format!(
                                    "log matching: p{i}/p{j} agree at #{idx} but differ at #{k}"
                                ),
                            });
                        }
                    }
                    break;
                }
            }
        }
    }

    // State Machine Safety: applied (index, value) pairs agree.
    let mut applied: BTreeMap<LogIndex, (ProcessId, u64)> = BTreeMap::new();
    for (i, evs) in events.iter().enumerate() {
        for e in evs {
            if let RaftEvent::Applied { index, value } = e {
                match applied.get(index) {
                    None => {
                        applied.insert(*index, (ProcessId(i), *value));
                    }
                    Some((p0, v0)) if v0 != value => {
                        violations.push(Violation {
                            kind: ViolationKind::Agreement,
                            round: None,
                            detail: format!(
                                "state machine safety: {p0} applied {v0} at {index} but p{i} applied {value}"
                            ),
                        });
                    }
                    _ => {}
                }
            }
        }
    }

    // Leader Completeness: an entry committed in term T is in the log of
    // every leader of a term > T (checked against final logs; a later
    // leader that crashed before we sampled still held it while leading,
    // and persistent logs survive crashes here).
    let mut commits: Vec<(Term, LogIndex, u64)> = Vec::new();
    for evs in &events {
        for e in evs {
            if let RaftEvent::Committed {
                term,
                index,
                value,
                ..
            } = e
            {
                commits.push((*term, *index, *value));
            }
        }
    }
    for (term, who) in &leaders {
        for leader in who {
            let log = sim.process(*leader).log();
            for &(ct, idx, v) in &commits {
                if ct < *term {
                    match log.get(idx) {
                        Some(entry) if entry.command.0 == v => {}
                        _ => violations.push(Violation {
                            kind: ViolationKind::Agreement,
                            round: Some(term.0),
                            detail: format!(
                                "leader completeness: {leader} leads {term} without entry {idx}={v} committed in {ct}"
                            ),
                        }),
                    }
                }
            }
        }
    }

    // Paper Algorithm 10 coherence over the recorded VAC transitions.
    let outcomes: Vec<(ProcessId, BTreeMap<Term, ooc_core::VacOutcome<u64>>)> = events
        .iter()
        .enumerate()
        .map(|(i, evs)| (ProcessId(i), vac_view::per_term_outcomes(evs)))
        .collect();
    violations.extend(vac_view::check_vac_coherence(&outcomes));
    violations.extend(vac_view::check_commit_agreement(&outcomes));

    // Durability: no node granted its vote to two candidates in one term
    // (possible only when a lossy StoragePolicy erased VotedFor).
    violations.extend(DurabilityChecker::check(&events));

    // Election latency metrics, from per-node instrumentation.
    let first_leader_at = (0..cfg.n)
        .filter_map(|i| sim.process(ProcessId(i)).first_led_at())
        .min();
    let first_leader_term = events
        .iter()
        .flat_map(|evs| {
            evs.iter().filter_map(|e| match e {
                RaftEvent::BecameLeader { term } => Some(*term),
                _ => None,
            })
        })
        .min();
    let max_term = (0..cfg.n)
        .map(|i| sim.process(ProcessId(i)).current_term())
        .max()
        .unwrap_or(Term::ZERO);
    let elections = events
        .iter()
        .map(|evs| vac_view::reconciliator_invocations(evs))
        .sum();

    RaftRun {
        outcome,
        events,
        violations,
        first_leader_at,
        first_leader_term,
        max_term,
        elections,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_cluster_is_clean_across_seeds() {
        let cfg = RaftClusterConfig::new(5);
        for seed in 0..10 {
            let run = run_raft(&cfg, &[1, 2, 3, 4, 5], seed);
            assert!(run.outcome.all_decided(), "seed {seed}");
            assert!(run.violations.is_empty(), "seed {seed}: {:?}", run.violations);
            assert!(run.elections >= 1);
        }
    }

    #[test]
    fn lossy_network_still_safe() {
        let cfg = RaftClusterConfig::new(5).with_network(NetworkConfig::lossy(1, 10, 0.1));
        for seed in 0..5 {
            let run = run_raft(&cfg, &[9, 9, 9, 9, 9], seed);
            assert!(run.violations.is_empty(), "seed {seed}: {:?}", run.violations);
            if run.outcome.decided_count() > 0 {
                assert_eq!(run.outcome.decided_value(), Some(9), "validity");
            }
        }
    }

    #[test]
    fn minority_crash_cluster_is_clean() {
        let cfg = RaftClusterConfig::new(5).with_faults(
            FaultPlan::new().crash_tail(5, 2, SimTime::from_ticks(200)),
        );
        for seed in 0..5 {
            let run = run_raft(&cfg, &[1, 2, 3, 4, 5], seed);
            assert!(run.violations.is_empty(), "seed {seed}: {:?}", run.violations);
            for i in 0..3 {
                assert!(run.outcome.decisions[i].is_some(), "seed {seed}: p{i}");
            }
        }
    }

    #[test]
    fn partition_heals_and_decides() {
        use ooc_simnet::PartitionWindow;
        let mut network = NetworkConfig::reliable(5);
        network.partitions = vec![PartitionWindow {
            from: SimTime::ZERO,
            until: SimTime::from_ticks(2_000),
            groups: vec![
                vec![ProcessId(0), ProcessId(1)],
                vec![ProcessId(2), ProcessId(3), ProcessId(4)],
            ],
        }];
        let cfg = RaftClusterConfig::new(5).with_network(network);
        for seed in 0..5 {
            let run = run_raft(&cfg, &[1, 2, 3, 4, 5], seed);
            assert!(run.violations.is_empty(), "seed {seed}: {:?}", run.violations);
            assert!(run.outcome.all_decided(), "seed {seed}: heal ⇒ decide");
            // The majority side must have decided during the partition on
            // one of its own values.
            let v = run.outcome.decided_value().unwrap();
            assert!([3, 4, 5].contains(&v), "seed {seed}: majority value, got {v}");
        }
    }

    #[test]
    fn explicit_sync_always_plan_matches_default_run() {
        use ooc_simnet::StoragePolicy;
        let base = RaftClusterConfig::new(3).with_faults(
            FaultPlan::new()
                .crash_at(ProcessId(2), SimTime::from_ticks(400))
                .restart_at(ProcessId(2), SimTime::from_ticks(1200)),
        );
        let explicit = base
            .clone()
            .with_storage(StorageFaultPlan::uniform(StoragePolicy::SyncAlways));
        for seed in 0..3 {
            let a = run_raft(&base, &[1, 2, 3], seed);
            let b = run_raft(&explicit, &[1, 2, 3], seed);
            assert_eq!(a.outcome.decisions, b.outcome.decisions, "seed {seed}");
            assert_eq!(a.events, b.events, "seed {seed}");
            assert!(a.violations.is_empty(), "seed {seed}: {:?}", a.violations);
        }
    }

    #[test]
    #[should_panic(expected = "one input per node")]
    fn input_arity_checked() {
        let cfg = RaftClusterConfig::new(3);
        let _ = run_raft(&cfg, &[1], 0);
    }
}
