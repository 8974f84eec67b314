//! Recorded digest corpus for Phase-King runs.
//!
//! Every run built by [`corpus`] is hashed and compared with the
//! recorded fixture `tests/digests.txt`, one `<label> <fnv1a-64>` line
//! per run. A digest covers every observable a run exposes: decisions,
//! decision rounds and phases, rounds, messages, the kind and round of
//! each violation, and every field of every honest `RoundRecord`.
//!
//! The suites cover n ∈ {4, 7, 10, 13} under every oblivious `Attack`, a
//! fault budget split into Byzantine processes and crashes, the
//! king-crasher schedule, the paper's decide-at-commit rule, the adaptive
//! attacker under both decision rules, Phase-Queen, the monolithic
//! baseline against `ByzantineNode` strategies, and two n = 64 runs with
//! 21 equivocators.
//!
//! The fixture is a recorded artifact, not an expectation to be edited:
//! a mismatch means a run moved, and the test prints the recomputed
//! corpus for inspection.

use ooc_core::checker::{Violation, ViolationKind};
use ooc_core::template::RoundRecord;
use ooc_phase_king::harness::Node;
use ooc_phase_king::{
    phase_king_process, phase_king_process_paper_rule, phase_queen_process, run_phase_king,
    run_phase_king_with_crashes, run_phase_queen, AdaptiveAttacker, Attack, ByzantinePhaseKing,
    MonolithicPhaseKing, PhaseKingConfig, PhaseKingRun, PhaseKingWire, PhaseQueenProcess,
};
use ooc_simnet::{
    ByzantineNode, ProcessId, SplitMix64, SyncContext, SyncProcess, SyncRunOutcome, SyncSim,
    SyncStrategy,
};
use std::fmt::Debug;

/// FNV-1a over the `Debug` rendering of each channel, with a separator
/// byte after every channel.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn part(mut self, channel: impl Debug) -> Self {
        for b in format!("{channel:?}").bytes().chain([0x1f]) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }
}

fn violation_kinds(violations: &[Violation]) -> Vec<(String, Option<u64>)> {
    violations
        .iter()
        .map(|v| (format!("{:?}", v.kind), v.round))
        .collect()
}

fn run_digest(run: &PhaseKingRun) -> u64 {
    Digest::new()
        .part(&run.decisions)
        .part(&run.decision_rounds)
        .part(&run.decision_phases)
        .part(run.rounds)
        .part(run.messages)
        .part(violation_kinds(&run.violations))
        .part(&run.honest_histories)
        .0
}

fn outcome_digest<O: Debug>(out: &SyncRunOutcome<O>) -> Digest {
    Digest::new()
        .part(&out.decisions)
        .part(&out.decision_rounds)
        .part(out.rounds)
        .part(out.messages_sent)
        .part(out.reason)
}

/// Honest inputs by seed: alternating, all zero, all one, then seeded
/// coin flips.
fn inputs(len: usize, seed: u64) -> Vec<u64> {
    match seed % 4 {
        0 => (0..len).map(|i| (i % 2) as u64).collect(),
        1 => vec![0; len],
        2 => vec![1; len],
        _ => {
            let mut rng = SplitMix64::new(seed);
            (0..len).map(|_| rng.below(2)).collect()
        }
    }
}

const SIZES: [usize; 4] = [4, 7, 10, 13];

const ATTACKS: [Attack; 6] = [
    Attack::Silent,
    Attack::Fixed(0),
    Attack::Fixed(1),
    Attack::Fixed(2),
    Attack::Equivocate,
    Attack::Random,
];

/// Kings of the earliest phases whose ids are honest, each silenced one
/// round into its reign, until the crash budget `t − byzantine` is spent.
fn king_crashes(cfg: &PhaseKingConfig) -> Vec<(ProcessId, u64)> {
    let mut schedule: Vec<(ProcessId, u64)> = Vec::new();
    for phase in 1..=cfg.max_phases {
        if schedule.len() >= cfg.t - cfg.byzantine {
            break;
        }
        let king = ProcessId(((phase - 1) % cfg.n as u64) as usize);
        if king.index() >= cfg.byzantine && schedule.iter().all(|&(p, _)| p != king) {
            schedule.push((king, (phase - 1) * 3 + 1));
        }
    }
    schedule
}

/// The adaptive attacker on ids `0..t` against honest processors running
/// either decision rule (the harness places only oblivious attackers).
fn adaptive_digest(n: usize, t: usize, honest_inputs: &[u64], paper_rule: bool, seed: u64) -> u64 {
    let max_phases = t as u64 + 4;
    let mut procs: Vec<Node> = (0..t)
        .map(|_| Node::Byzantine2(AdaptiveAttacker::new(t, 1)))
        .collect();
    for &v in honest_inputs {
        procs.push(Node::Honest(if paper_rule {
            phase_king_process_paper_rule(v, n, t, max_phases)
        } else {
            phase_king_process(v, n, t, max_phases)
        }));
    }
    let mut sim = SyncSim::new(procs, seed);
    sim.track_only((t..n).map(ProcessId));
    let out = sim.run(3 * max_phases + 3);
    let honest: Vec<_> = (t..n)
        .map(|i| {
            let p = sim.process(ProcessId(i)).honest().expect("honest slot");
            (p.decision_phase(), p.history().to_vec())
        })
        .collect();
    outcome_digest(&out).part(honest).0
}

/// A node of a Phase-Queen network built outside the harness, which
/// does not return the honest histories.
#[derive(Debug)]
enum QueenNode {
    Honest(PhaseQueenProcess),
    Byzantine(ByzantinePhaseKing),
}

impl SyncProcess for QueenNode {
    type Msg = PhaseKingWire;
    type Output = u64;

    fn on_round(
        &mut self,
        round: u64,
        inbox: &[(ProcessId, PhaseKingWire)],
        ctx: &mut SyncContext<'_, PhaseKingWire, u64>,
    ) {
        match self {
            QueenNode::Honest(p) => p.on_round(round, inbox, ctx),
            QueenNode::Byzantine(b) => b.on_round(round, inbox, ctx),
        }
    }
}

/// The honest histories of the run `run_phase_queen` makes with the same
/// arguments.
fn queen_histories(
    n: usize,
    t: usize,
    attack: Attack,
    honest_inputs: &[u64],
    seed: u64,
) -> Vec<(Option<u64>, Vec<RoundRecord<u64>>)> {
    let max_phases = t as u64 + 3;
    let mut procs: Vec<QueenNode> = (0..t)
        .map(|_| QueenNode::Byzantine(ByzantinePhaseKing::for_queen(attack)))
        .collect();
    for &v in honest_inputs {
        procs.push(QueenNode::Honest(phase_queen_process(v, n, t, max_phases)));
    }
    let mut sim = SyncSim::new(procs, seed);
    sim.track_only((t..n).map(ProcessId));
    sim.run(2 * max_phases + 3);
    (t..n)
        .map(|i| match sim.process(ProcessId(i)) {
            QueenNode::Honest(p) => (p.decision_phase(), p.history().to_vec()),
            QueenNode::Byzantine(_) => unreachable!("honest ids hold honest nodes"),
        })
        .collect()
}

type MonoNode = Box<dyn SyncProcess<Msg = u64, Output = u64>>;

/// The classic formulation against `ByzantineNode` strategies on the
/// first ids.
fn monolithic_digest(n: usize, t: usize, strategy: usize, seed: u64) -> u64 {
    let mut procs: Vec<MonoNode> = Vec::new();
    for _ in 0..t {
        let strat: SyncStrategy<u64> = match strategy {
            0 => SyncStrategy::Silent,
            1 => SyncStrategy::Fixed(0),
            2 => SyncStrategy::Fixed(1),
            3 => SyncStrategy::Equivocate { low: 0, high: 1 },
            4 => SyncStrategy::RandomOf(vec![0, 1, 2]),
            _ => SyncStrategy::Custom(Box::new(|round, to: ProcessId, rng: &mut SplitMix64| {
                to.index()
                    .is_multiple_of(2)
                    .then(|| (round + rng.below(2)) % 3)
            })),
        };
        procs.push(Box::new(ByzantineNode::<u64, u64>::new(strat)));
    }
    for v in inputs(n - t, seed) {
        procs.push(Box::new(MonolithicPhaseKing::new(v, n, t)));
    }
    let mut sim = SyncSim::new(procs, seed);
    sim.track_only((t..n).map(ProcessId));
    outcome_digest(&sim.run(3 * (t as u64 + 2) + 3)).0
}

/// Every run of the corpus as `(label, digest)`, in fixture order.
fn corpus() -> Vec<(String, u64)> {
    let mut rows = Vec::new();
    for n in SIZES {
        let t = (n - 1) / 3;
        for attack in ATTACKS {
            let cfg = PhaseKingConfig::new(n, t).with_attack(attack);
            for seed in 0..4 {
                let run = run_phase_king(&cfg, &inputs(n - t, seed), seed);
                rows.push((format!("attack/n{n}/{attack:?}/s{seed}"), run_digest(&run)));
            }
        }
    }
    // The fault budget split into Byzantine processes and crashes at
    // rounds spread over the run.
    for (n, t) in [(7usize, 2usize), (10, 3), (13, 4)] {
        for byzantine in 1..t {
            for attack in [Attack::Equivocate, Attack::Random] {
                let cfg = PhaseKingConfig::new(n, t)
                    .with_byzantine(byzantine)
                    .with_attack(attack);
                for seed in 0..3u64 {
                    let crashes: Vec<(ProcessId, u64)> = (0..t - byzantine)
                        .map(|k| {
                            let p = ProcessId(byzantine + 2 * k + 1);
                            (p, (seed + 4 * k as u64) % (3 * (t as u64 + 2)))
                        })
                        .collect();
                    let run = run_phase_king_with_crashes(
                        &cfg,
                        &inputs(n - byzantine, seed),
                        seed,
                        &crashes,
                    );
                    rows.push((
                        format!("split/n{n}/b{byzantine}/{attack:?}/s{seed}"),
                        run_digest(&run),
                    ));
                }
            }
        }
    }
    for n in SIZES {
        let t = (n - 1) / 3;
        // All crashes, then one Byzantine process fewer than t (the same
        // split at t = 1).
        let splits: &[usize] = if t > 1 { &[0, t - 1] } else { &[0] };
        for &byzantine in splits {
            let cfg = PhaseKingConfig::new(n, t).with_byzantine(byzantine);
            let crashes = king_crashes(&cfg);
            for seed in 0..3 {
                let run =
                    run_phase_king_with_crashes(&cfg, &inputs(n - byzantine, seed), seed, &crashes);
                rows.push((
                    format!("king-crash/n{n}/b{byzantine}/s{seed}"),
                    run_digest(&run),
                ));
            }
        }
    }
    // The paper's decide-at-commit rule, which a Byzantine king breaks:
    // at n = 4 the random attacker splits inputs 0, 1, 0 on seeds 2 and 6.
    let mut agreement_broken = 0;
    for (n, attack, seeds) in [
        (4usize, Attack::Random, 0..8u64),
        (7, Attack::Equivocate, 0..4),
    ] {
        let t = (n - 1) / 3;
        let cfg = PhaseKingConfig::new(n, t)
            .with_attack(attack)
            .with_paper_decision_rule();
        for seed in seeds {
            let honest_inputs = if n == 4 {
                vec![0, 1, 0]
            } else {
                inputs(n - t, seed)
            };
            let run = run_phase_king(&cfg, &honest_inputs, seed);
            agreement_broken += run
                .violations
                .iter()
                .filter(|v| v.kind == ViolationKind::Agreement)
                .count();
            rows.push((
                format!("paper-rule/n{n}/{attack:?}/s{seed}"),
                run_digest(&run),
            ));
        }
    }
    assert!(
        agreement_broken > 0,
        "the paper-rule suite must record a violation"
    );
    for (n, t, honest_inputs) in [
        (7usize, 2usize, vec![1u64, 1, 1, 0, 0]),
        (10, 3, vec![1, 1, 1, 1, 0, 0, 0]),
    ] {
        for paper_rule in [true, false] {
            let rule = if paper_rule { "paper" } else { "classical" };
            for seed in 0..3 {
                rows.push((
                    format!("adaptive/n{n}/{rule}/s{seed}"),
                    adaptive_digest(n, t, &honest_inputs, paper_rule, seed),
                ));
            }
        }
    }
    for (n, t) in [(5usize, 1usize), (9, 2), (13, 3)] {
        for attack in ATTACKS {
            for seed in 0..3 {
                let honest_inputs = inputs(n - t, seed);
                let run = run_phase_queen(n, t, attack, &honest_inputs, seed);
                let d = Digest::new()
                    .part(&run.decisions)
                    .part(run.rounds)
                    .part(run.messages)
                    .part(violation_kinds(&run.violations))
                    .part(&run.honest)
                    .part(queen_histories(n, t, attack, &honest_inputs, seed))
                    .0;
                rows.push((format!("queen/n{n}/{attack:?}/s{seed}"), d));
            }
        }
    }
    for (n, t) in [(4usize, 1usize), (7, 2), (10, 3)] {
        for strategy in 0..6 {
            for seed in 0..2 {
                rows.push((
                    format!("monolithic/n{n}/strategy{strategy}/s{seed}"),
                    monolithic_digest(n, t, strategy, seed),
                ));
            }
        }
    }
    // n = 64 with 21 equivocators: `scale-n`'s run on alternating
    // inputs (equivocation draws no randomness, so every seed gives the
    // same run), then seeded coin-flip inputs.
    let cfg = PhaseKingConfig::new(64, 21).with_attack(Attack::Equivocate);
    for seed in [0, 3] {
        let run = run_phase_king(&cfg, &inputs(64 - 21, seed), seed);
        rows.push((format!("scale/n64/Equivocate/s{seed}"), run_digest(&run)));
    }
    rows
}

#[test]
fn phase_king_runs_match_the_recorded_digest_corpus() {
    let recomputed: String = corpus()
        .iter()
        .map(|(label, d)| format!("{label} {d:016x}\n"))
        .collect();
    let recorded: String = include_str!("digests.txt")
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
            "Phase-King runs no longer match tests/digests.txt ({} vs {} lines); first moved: {moved:?}",
            recomputed.lines().count(),
            recorded.lines().count()
        );
    }
}
