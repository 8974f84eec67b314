//! Seeded experiment runners for Raft — shared by the integration tests
//! and the `ooc-bench` tables (T1, T6).

use crate::durable::DurabilityChecker;
use crate::events::RaftEvent;
use crate::log::RaftLog;
use crate::message::RaftMsg;
use crate::node::{RaftConfig, RaftNode};
use crate::types::{LogIndex, Term};
use crate::vac_view;
use ooc_core::checker::{check_consensus, Violation, ViolationKind};
use ooc_simnet::{
    Adversary, FaultPlan, NetworkConfig, ProcessId, RunLimit, RunOutcome, Sim,
    SimTime, StorageFaultPlan,
};

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
    /// (`None`, the default, keeps everything). Campaign runs set zero
    /// and record no trace, since no campaign check reads one.
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
    let nodes = sim.into_processes();

    let streams: Vec<&[RaftEvent]> = nodes.iter().map(RaftNode::events).collect();
    let mut violations = check_consensus(inputs, &outcome.decisions);
    violations.extend(check_election_safety(&streams));
    violations.extend(check_log_matching(&nodes));
    violations.extend(check_state_machine_safety(&streams));
    violations.extend(check_leader_completeness(&streams, |p| nodes[p.index()].log()));

    // Paper Algorithm 10 coherence over the recorded VAC transitions.
    let outcomes = vac_view::per_term_outcomes(&streams);
    violations.extend(vac_view::check_vac_coherence(&outcomes));
    violations.extend(vac_view::check_commit_agreement(&outcomes));

    // Durability: no node granted its vote to two candidates in one term
    // (possible only when a lossy StoragePolicy erased VotedFor).
    violations.extend(DurabilityChecker::check(&streams));

    // Election latency metrics, from per-node instrumentation.
    let first_leader_at = nodes.iter().filter_map(RaftNode::first_led_at).min();
    let first_leader_term = streams
        .iter()
        .flat_map(|evs| {
            evs.iter().filter_map(|e| match e {
                RaftEvent::BecameLeader { term } => Some(*term),
                _ => None,
            })
        })
        .min();
    let max_term = nodes
        .iter()
        .map(RaftNode::current_term)
        .max()
        .unwrap_or(Term::ZERO);
    let elections = streams
        .iter()
        .map(|evs| vac_view::reconciliator_invocations(evs))
        .sum();
    let events = nodes.into_iter().map(RaftNode::into_events).collect();

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

/// Every event `pick` selects, as `(pick(event), process, position in
/// the process's stream)`: sorting the list orders it by the picked key,
/// then in the order a walk over the streams meets the events. One
/// counting pass sizes the list, so it allocates once.
fn tagged<E: AsRef<[RaftEvent]>, K>(
    events: &[E],
    pick: impl Fn(&RaftEvent) -> Option<K>,
) -> Vec<(K, ProcessId, usize)> {
    let count = events
        .iter()
        .map(|evs| evs.as_ref().iter().filter(|e| pick(e).is_some()).count())
        .sum();
    let mut tagged = Vec::with_capacity(count);
    for (i, evs) in events.iter().enumerate() {
        for (position, e) in evs.as_ref().iter().enumerate() {
            if let Some(key) = pick(e) {
                tagged.push((key, ProcessId(i), position));
            }
        }
    }
    tagged
}

/// Election Safety: at most one leader per term.
fn check_election_safety<E: AsRef<[RaftEvent]>>(events: &[E]) -> Vec<Violation> {
    let mut wins = tagged(events, |e| match *e {
        RaftEvent::BecameLeader { term } => Some(term),
        _ => None,
    });
    wins.sort_unstable();
    wins.chunk_by(|a, b| a.0 == b.0)
        .filter(|winners| winners.len() > 1)
        .map(|winners| {
            let term = winners[0].0;
            let who: Vec<ProcessId> = winners.iter().map(|&(_, p, _)| p).collect();
            Violation {
                kind: ViolationKind::Agreement,
                round: Some(term.0),
                detail: format!("election safety: {term} had leaders {who:?}"),
            }
        })
        .collect()
}

/// Log Matching: same (index, term) ⇒ identical prefixes.
fn check_log_matching(nodes: &[RaftNode]) -> Vec<Violation> {
    let mut violations = Vec::new();
    for (i, a) in nodes.iter().enumerate() {
        for (j, b) in nodes.iter().enumerate().skip(i + 1) {
            let (a, b) = (a.log(), b.log());
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
    violations
}

/// State Machine Safety: applied (index, value) pairs agree. The first
/// process (in id order) to apply an index sets the value the others
/// are held to.
fn check_state_machine_safety<E: AsRef<[RaftEvent]>>(events: &[E]) -> Vec<Violation> {
    let mut applied = tagged(events, |e| match *e {
        RaftEvent::Applied { index, value } => Some((index, value)),
        _ => None,
    });
    applied.sort_unstable_by_key(|&((index, _), p, position)| (index, p, position));
    let mut found = Vec::new();
    for appliers in applied.chunk_by(|a, b| a.0 .0 == b.0 .0) {
        let ((index, v0), p0, _) = appliers[0];
        for &((_, value), p, position) in &appliers[1..] {
            if value != v0 {
                let violation = Violation {
                    kind: ViolationKind::Agreement,
                    round: None,
                    detail: format!(
                        "state machine safety: {p0} applied {v0} at {index} but {p} applied {value}"
                    ),
                };
                found.push(((p, position), violation));
            }
        }
    }
    // Report in the order a walk over the streams meets the conflicts.
    found.sort_unstable_by_key(|&(at, _)| at);
    found.into_iter().map(|(_, v)| v).collect()
}

/// Leader Completeness: an entry committed in term T is in the log of
/// every leader of a term > T (checked against final logs; a later
/// leader that crashed before we sampled still held it while leading,
/// and persistent logs survive crashes here).
fn check_leader_completeness<'a, E: AsRef<[RaftEvent]>>(
    events: &[E],
    log_of: impl Fn(ProcessId) -> &'a RaftLog,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    let wins = events.iter().enumerate().flat_map(|(i, evs)| {
        evs.as_ref().iter().filter_map(move |e| match *e {
            RaftEvent::BecameLeader { term } => Some((term, ProcessId(i))),
            _ => None,
        })
    });
    for (term, leader) in wins {
        let log = log_of(leader);
        for e in events.iter().flat_map(|evs| evs.as_ref()) {
            if let RaftEvent::Committed {
                term: ct,
                index: idx,
                value: v,
                ..
            } = *e
            {
                if ct < term && log.get(idx).map(|entry| entry.command.0) != Some(v) {
                    violations.push(Violation {
                        kind: ViolationKind::Agreement,
                        round: Some(term.0),
                        detail: format!(
                            "leader completeness: {leader} leads {term} without entry {idx}={v} committed in {ct}"
                        ),
                    });
                }
            }
        }
    }
    // Report term by term; the sort is stable, so within a term the
    // leaders and the commits keep their stream order.
    violations.sort_by_key(|v| v.round);
    violations
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
    fn checks_see_the_same_run_with_and_without_a_trace() {
        use ooc_simnet::{PartitionWindow, StoragePolicy};
        // The amnesia case campaigns must catch: a voter crashes right
        // after its first ballot, loses its store, and is revived into
        // isolation where it can vote again. Campaign runs record no
        // trace, so nothing the checks report may depend on trace
        // capture.
        let run = |victim: usize, seed, capacity: Option<usize>| {
            let mut network = NetworkConfig::reliable(2);
            network.partitions.push(PartitionWindow {
                from: SimTime::from_ticks(420),
                until: SimTime::from_ticks(1020),
                groups: vec![vec![ProcessId(1 - victim)]],
            });
            let mut cfg = RaftClusterConfig::new(3)
                .with_network(network)
                .with_faults(
                    FaultPlan::new()
                        .crash_at(ProcessId(2), SimTime::from_ticks(5))
                        .crash_after_events(ProcessId(victim), 2)
                        .restart_at(ProcessId(victim), SimTime::from_ticks(420)),
                )
                .with_storage(StorageFaultPlan::uniform(StoragePolicy::Amnesia));
            if let Some(capacity) = capacity {
                cfg = cfg.with_trace_capacity(capacity);
            }
            run_raft(&cfg, &[1, 2, 3], seed)
        };
        let (victim, seed) = (0..2)
            .flat_map(|victim| (0..12).map(move |seed| (victim, seed)))
            .find(|&(victim, seed)| {
                run(victim, seed, Some(0))
                    .violations
                    .iter()
                    .any(|v| v.detail.contains("durability"))
            })
            .expect("an amnesiac voter double-votes within 12 seeds");
        let (blind, full) = (run(victim, seed, Some(0)), run(victim, seed, None));
        assert!(blind.outcome.trace.is_empty());
        assert!(!full.outcome.trace.is_empty());
        assert_eq!(blind.violations, full.violations);
        assert_eq!(blind.outcome.decisions, full.outcome.decisions);
        assert_eq!(blind.outcome.stats, full.outcome.stats);
        assert_eq!(blind.outcome.metrics.to_json(), full.outcome.metrics.to_json());
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

    /// `(kind, round, detail)` of each violation, in report order.
    fn pinned(violations: &[Violation]) -> Vec<(ViolationKind, Option<u64>, &str)> {
        violations
            .iter()
            .map(|v| (v.kind, v.round, v.detail.as_str()))
            .collect()
    }

    fn led(term: u64) -> RaftEvent {
        RaftEvent::BecameLeader { term: Term(term) }
    }

    fn applied(index: u64, value: u64) -> RaftEvent {
        RaftEvent::Applied {
            index: LogIndex(index),
            value,
        }
    }

    // The violation texts below are written into failure artifacts, so
    // they are pinned as the checks first reported them, order included.

    #[test]
    fn election_safety_texts_are_pinned() {
        // p0 leads T2 twice (an amnesiac restart can re-win an old term)
        // and the streams are out of term order.
        let events = vec![
            vec![led(5), led(2), led(2)],
            vec![led(2), led(3)],
            vec![led(5), led(2)],
        ];
        let v = check_election_safety(&events);
        assert_eq!(
            pinned(&v),
            [
                (
                    ViolationKind::Agreement,
                    Some(2),
                    "election safety: T2 had leaders [ProcessId(0), ProcessId(0), ProcessId(1), ProcessId(2)]"
                ),
                (
                    ViolationKind::Agreement,
                    Some(5),
                    "election safety: T5 had leaders [ProcessId(0), ProcessId(2)]"
                ),
            ]
        );
        assert!(check_election_safety(&[vec![led(1)], vec![led(2)]]).is_empty());
    }

    #[test]
    fn state_machine_safety_texts_are_pinned() {
        // The first applier of an index (in process order) sets the
        // reference; p2 applies out of index order.
        let events = vec![
            vec![applied(1, 7), applied(2, 8)],
            vec![applied(1, 7), applied(2, 9), applied(3, 4)],
            vec![applied(3, 5), applied(1, 6), applied(2, 9)],
        ];
        let v = check_state_machine_safety(&events);
        assert_eq!(
            pinned(&v),
            [
                (
                    ViolationKind::Agreement,
                    None,
                    "state machine safety: p0 applied 8 at #2 but p1 applied 9"
                ),
                (
                    ViolationKind::Agreement,
                    None,
                    "state machine safety: p1 applied 4 at #3 but p2 applied 5"
                ),
                (
                    ViolationKind::Agreement,
                    None,
                    "state machine safety: p0 applied 7 at #1 but p2 applied 6"
                ),
                (
                    ViolationKind::Agreement,
                    None,
                    "state machine safety: p0 applied 8 at #2 but p2 applied 9"
                ),
            ]
        );
        assert!(check_state_machine_safety(&[vec![applied(1, 7)], vec![applied(1, 7)]]).is_empty());
    }

    #[test]
    fn leader_completeness_texts_are_pinned() {
        use crate::types::{DecideAndStop, LogEntry};
        let committed = |term: u64, index: u64, value: u64| RaftEvent::Committed {
            term: Term(term),
            index: LogIndex(index),
            entry_term: Term(term),
            value,
        };
        let log = |entries: &[(u64, u64)]| {
            let mut log = RaftLog::new();
            for &(term, value) in entries {
                log.push(LogEntry {
                    term: Term(term),
                    command: DecideAndStop(value),
                });
            }
            log
        };
        let events = vec![
            vec![led(4), committed(1, 1, 7), led(3)],
            vec![led(2), committed(2, 2, 8)],
            vec![committed(3, 1, 7), led(4)],
        ];
        let logs = [log(&[(1, 7)]), log(&[(1, 7), (2, 8)]), log(&[(1, 6)])];
        let v = check_leader_completeness(&events, |p| &logs[p.index()]);
        assert_eq!(
            pinned(&v),
            [
                (
                    ViolationKind::Agreement,
                    Some(3),
                    "leader completeness: p0 leads T3 without entry #2=8 committed in T2"
                ),
                (
                    ViolationKind::Agreement,
                    Some(4),
                    "leader completeness: p0 leads T4 without entry #2=8 committed in T2"
                ),
                (
                    ViolationKind::Agreement,
                    Some(4),
                    "leader completeness: p2 leads T4 without entry #1=7 committed in T1"
                ),
                (
                    ViolationKind::Agreement,
                    Some(4),
                    "leader completeness: p2 leads T4 without entry #2=8 committed in T2"
                ),
                (
                    ViolationKind::Agreement,
                    Some(4),
                    "leader completeness: p2 leads T4 without entry #1=7 committed in T3"
                ),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "one input per node")]
    fn input_arity_checked() {
        let cfg = RaftClusterConfig::new(3);
        let _ = run_raft(&cfg, &[1], 0);
    }
}
