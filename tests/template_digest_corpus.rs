//! Recorded digest corpus for runs of the generic template (paper
//! Algorithm 1) on the asynchronous engine.
//!
//! Every run built by [`corpus`] is hashed and compared with the recorded
//! fixture `tests/template_digests.txt`, one `<label> <fnv1a-64>` line per
//! run. A digest covers everything a run exposes: the stop reason,
//! decisions and decision times, `RunStats`, the trace as JSON Lines at
//! unbounded capture, the metrics JSON, every field of every process's
//! `RoundRecord`s, and the kind and round of each violation.
//!
//! The suites cover decomposed Ben-Or at n ∈ {3, 5, 7, 16} on the default
//! network and on `reliable(1)` (n = 16 under `scale-n`'s round caps of 60
//! and 10), lossy networks with crashes, the split-vote message adversary,
//! both state adversaries (the only callers of `Template::observe`),
//! retransmission, clock drift with a slow disk, the sabotaged commit
//! threshold, a time-limited run, the §5 composition, decentralized Raft
//! (the only caller of `Template::timer`, and the only shaker that sends,
//! so its split-vote runs pin how the template buffers a `Shake` that
//! arrives during the detector) and a sequence of Ben-Or slots, whose
//! templates run on a nested `TemplateHost`.
//!
//! The fixture is a recorded artifact, not an expectation to be edited: a
//! mismatch means a run moved, and the test prints the recomputed corpus
//! for inspection.

use object_oriented_consensus::ben_or::harness::run_composed;
use object_oriented_consensus::ben_or::{
    balanced_inputs, run_decomposed_gray, split_adversary, BenOrConfig, BenOrRun, BenOrVac,
    CoinFlip, GrayOptions,
};
use object_oriented_consensus::core::checker::{Violation, ViolationKind};
use object_oriented_consensus::core::sequence::SequenceConsensus;
use object_oriented_consensus::core::template::{RoundRecord, TemplateConfig};
use object_oriented_consensus::raft::decentralized::decentralized_raft;
use object_oriented_consensus::simnet::{
    ClockModel, FaultPlan, NetworkConfig, ProcessId, QuorumStarveAdversary, ReliabilityPolicy,
    RetransmitConfig, RunLimit, RunOutcome, Sim, SimTime, SplitMix64, StorageFaultPlan,
    VoteSplitStateAdversary,
};
use std::fmt::Debug;

/// FNV-1a over each channel, with a separator byte after every channel.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes.iter().chain([&0x1f]) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Hashes the `Debug` rendering of `channel`.
    fn part(self, channel: impl Debug) -> Self {
        self.bytes(format!("{channel:?}").as_bytes())
    }
}

/// The engine-level half of a digest: stop reason, decisions and their
/// times, counters, the trace and the metrics.
fn outcome_digest<O: Debug>(out: &RunOutcome<O>) -> Digest {
    Digest::new()
        .part(out.reason)
        .part(&out.decisions)
        .part(&out.decision_times)
        .part(out.stats)
        .bytes(out.trace.to_jsonl().as_bytes())
        .bytes(out.metrics.to_json().as_bytes())
}

fn violation_kinds(violations: &[Violation]) -> Vec<(String, Option<u64>)> {
    violations
        .iter()
        .map(|v| (format!("{:?}", v.kind), v.round))
        .collect()
}

fn ben_or_digest(run: &BenOrRun) -> u64 {
    outcome_digest(&run.outcome)
        .part(&run.histories)
        .part(violation_kinds(&run.violations))
        .0
}

fn run(cfg: &BenOrConfig, inputs: &[bool], seed: u64, opts: GrayOptions) -> u64 {
    ben_or_digest(&run_decomposed_gray(cfg, inputs, seed, opts))
}

/// Inputs by seed: alternating, all true, then seeded coin flips.
fn inputs(n: usize, seed: u64) -> Vec<bool> {
    match seed % 3 {
        0 => balanced_inputs(n),
        1 => vec![true; n],
        _ => {
            let mut rng = SplitMix64::new(seed);
            (0..n).map(|_| rng.coin() == 1).collect()
        }
    }
}

/// `scale-n`'s Ben-Or run limit.
fn scale_limit() -> RunLimit {
    RunLimit {
        max_time: SimTime::from_ticks(2_000_000),
        max_events: 5_000_000,
        ..RunLimit::default()
    }
}

/// Every run of the corpus as `(label, digest)`, in fixture order.
fn corpus() -> Vec<(String, u64)> {
    let mut rows = Vec::new();
    for n in [3usize, 5, 7] {
        let t = (n - 1) / 2;
        for (net, network) in [
            ("default", NetworkConfig::default()),
            ("reliable1", NetworkConfig::reliable(1)),
        ] {
            let cfg = BenOrConfig::new(n, t).with_network(network);
            for seed in 0..3 {
                rows.push((
                    format!("ben-or/n{n}/{net}/s{seed}"),
                    run(&cfg, &inputs(n, seed), seed, GrayOptions::default()),
                ));
            }
        }
    }
    // `scale-n`'s Ben-Or runs: n = 16, t = 7, alternating inputs, 60
    // rounds on the default network and 10 on `reliable(1)`.
    for (net, network, max_rounds) in [
        ("default", NetworkConfig::default(), 60),
        ("reliable1", NetworkConfig::reliable(1), 10),
    ] {
        let cfg = BenOrConfig::new(16, 7)
            .with_network(network)
            .with_max_rounds(max_rounds)
            .with_run_limit(scale_limit());
        for seed in 0..2 {
            rows.push((
                format!("scale/n16/{net}/cap{max_rounds}/s{seed}"),
                run(&cfg, &balanced_inputs(16), seed, GrayOptions::default()),
            ));
        }
    }
    // Lossy networks with crashes: up to t processes stop mid-run.
    for (n, t) in [(5usize, 2usize), (7, 3)] {
        for crashes in [1, t] {
            let cfg = BenOrConfig::new(n, t)
                .with_network(NetworkConfig::lossy(1, 8, 0.1))
                .with_faults(FaultPlan::new().crash_tail(n, crashes, SimTime::from_ticks(15)))
                .with_max_rounds(40);
            for seed in 0..3 {
                rows.push((
                    format!("lossy-crash/n{n}/c{crashes}/s{seed}"),
                    run(&cfg, &balanced_inputs(n), seed, GrayOptions::default()),
                ));
            }
        }
    }
    for (n, t) in [(6usize, 2usize), (7, 3)] {
        let cfg = BenOrConfig::new(n, t).with_max_rounds(60);
        for seed in 0..3 {
            let opts = GrayOptions {
                adversary: Some(split_adversary(n, (1, 3), (20, 40))),
                ..GrayOptions::default()
            };
            rows.push((
                format!("split/n{n}/s{seed}"),
                run(&cfg, &balanced_inputs(n), seed, opts),
            ));
        }
    }
    // The state adversaries read `Template::observe` before every routing
    // batch. Fire-and-forget, they starve the run into quiescence; with
    // retransmission on a lossy network it keeps going to the round cap.
    let (n, t) = (7usize, 3usize);
    let retransmit = ReliabilityPolicy::Retransmit(RetransmitConfig::default());
    for (policy, reliability, network) in [
        ("off", ReliabilityPolicy::Off, NetworkConfig::reliable(1)),
        ("retransmit", retransmit, NetworkConfig::lossy(1, 6, 0.2)),
    ] {
        let cfg = BenOrConfig::new(n, t)
            .with_network(network.clone())
            .with_max_rounds(30)
            .with_reliability(reliability)
            .with_run_limit(RunLimit::until_time(SimTime::from_ticks(20_000)));
        for seed in 0..3 {
            rows.push((
                format!("lossy/{policy}/n{n}/s{seed}"),
                run(&cfg, &balanced_inputs(n), seed, GrayOptions::default()),
            ));
            let opts = GrayOptions {
                state_adversary: Some(Box::new(VoteSplitStateAdversary::new(
                    SimTime::from_ticks(2_000),
                    network.clone(),
                ))),
                ..GrayOptions::default()
            };
            rows.push((
                format!("state-split/{policy}/n{n}/s{seed}"),
                run(&cfg, &balanced_inputs(n), seed, opts),
            ));
            let opts = GrayOptions {
                state_adversary: Some(Box::new(QuorumStarveAdversary::new(
                    SimTime::from_ticks(2_000),
                    60,
                    network.clone(),
                ))),
                ..GrayOptions::default()
            };
            rows.push((
                format!("quorum-starve/{policy}/n{n}/s{seed}"),
                run(&cfg, &balanced_inputs(n), seed, opts),
            ));
        }
    }
    // Clock drift on two processes and a slow disk.
    let cfg = BenOrConfig::new(n, t).with_max_rounds(40);
    for seed in 0..3 {
        let opts = GrayOptions {
            clocks: ClockModel::nominal()
                .with_rate(ProcessId(0), 150)
                .with_rate(ProcessId(n - 1), 70),
            storage: StorageFaultPlan::default().with_sync_latency(4),
            ..GrayOptions::default()
        };
        rows.push((
            format!("drift-disk/n{n}/s{seed}"),
            run(&cfg, &balanced_inputs(n), seed, opts),
        ));
    }
    // The sabotaged commit threshold (t instead of t + 1) under a
    // split-vote schedule, a lossy network and one crash.
    let cfg = BenOrConfig::new(n, t)
        .with_network(NetworkConfig::lossy(1, 5, 0.05))
        .with_faults(FaultPlan::new().crash_at(ProcessId(6), SimTime::from_ticks(60)))
        .with_max_rounds(200)
        .with_sabotaged_commit_threshold(t);
    // Seeds 17 and 28 are the first two on which agreement breaks.
    let mut safety_broken = 0;
    for seed in [0, 1, 17, 28] {
        let opts = GrayOptions {
            adversary: Some(split_adversary(n, (1, 3), (20, 40))),
            ..GrayOptions::default()
        };
        let sabotaged = run_decomposed_gray(&cfg, &balanced_inputs(n), seed, opts);
        safety_broken += sabotaged
            .violations
            .iter()
            .filter(|v| v.kind == ViolationKind::Agreement)
            .count();
        rows.push((format!("sabotage/n{n}/s{seed}"), ben_or_digest(&sabotaged)));
    }
    assert!(
        safety_broken > 0,
        "the sabotage suite must record an agreement violation"
    );
    // A time bound that cuts the run short, with events still queued.
    let cfg = BenOrConfig::new(5, 2).with_run_limit(RunLimit::until_time(SimTime::from_ticks(25)));
    for seed in 0..2 {
        rows.push((
            format!("time-limit/n5/s{seed}"),
            run(&cfg, &balanced_inputs(5), seed, GrayOptions::default()),
        ));
    }
    for n in [3usize, 5] {
        let cfg = BenOrConfig::new(n, (n - 1) / 2);
        for seed in 0..3 {
            rows.push((
                format!("composed/n{n}/s{seed}"),
                ben_or_digest(&run_composed(&cfg, &inputs(n, seed), seed)),
            ));
        }
    }
    for (n, t) in [(3usize, 1usize), (5, 2)] {
        for seed in 0..3 {
            let mut sim = Sim::builder(NetworkConfig::default())
                .seed(seed)
                .processes(
                    inputs(n, seed)
                        .into_iter()
                        .map(|v| decentralized_raft(v, n, t)),
                )
                .build();
            let out = sim.run(RunLimit::default());
            let histories: Vec<Vec<RoundRecord<bool>>> = (0..n)
                .map(|i| sim.process(ProcessId(i)).history().to_vec())
                .collect();
            rows.push((
                format!("decentralized-raft/n{n}/s{seed}"),
                outcome_digest(&out).part(histories).0,
            ));
        }
    }
    // Balanced inputs at n = 7, and a split-vote schedule at every size:
    // nudges from a processor already in its shaker often reach one whose
    // detector still runs, which buffers them for its own shaker.
    for (n, t) in [(3usize, 1usize), (5, 2), (7, 3)] {
        for split in [false, true] {
            if n < 7 && !split {
                continue;
            }
            for seed in 0..8 {
                let mut builder = Sim::builder(NetworkConfig::default()).seed(seed).processes(
                    balanced_inputs(n)
                        .into_iter()
                        .map(|v| decentralized_raft(v, n, t)),
                );
                if split {
                    builder = builder.adversary(split_adversary(n, (1, 3), (20, 40)));
                }
                let mut sim = builder.build();
                let out = sim.run(RunLimit::default());
                let histories: Vec<Vec<RoundRecord<bool>>> = (0..n)
                    .map(|i| sim.process(ProcessId(i)).history().to_vec())
                    .collect();
                let schedule = if split { "split" } else { "balanced" };
                rows.push((
                    format!("decentralized-raft/{schedule}/n{n}/s{seed}"),
                    outcome_digest(&out).part(histories).0,
                ));
            }
        }
    }
    for seed in 0..3 {
        let (n, t, slots) = (5usize, 2usize, 3usize);
        let mut sim = Sim::builder(NetworkConfig::default())
            .seed(seed)
            .processes((0..n).map(|i| {
                SequenceConsensus::new(
                    (0..slots).map(|k| (i + k).is_multiple_of(2)).collect(),
                    move |_slot, _round| BenOrVac::new(n, t),
                    |_slot, _round| CoinFlip::new(),
                    TemplateConfig::default(),
                )
            }))
            .build();
        let out = sim.run(RunLimit::default());
        let prefixes: Vec<Vec<bool>> = (0..n)
            .map(|i| sim.process(ProcessId(i)).decided().to_vec())
            .collect();
        rows.push((
            format!("sequence/n{n}/slots{slots}/s{seed}"),
            outcome_digest(&out).part(prefixes).0,
        ));
    }
    rows
}

#[test]
fn template_runs_match_the_recorded_digest_corpus() {
    let recomputed: String = corpus()
        .iter()
        .map(|(label, d)| format!("{label} {d:016x}\n"))
        .collect();
    let recorded: String = include_str!("template_digests.txt")
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
            "template runs no longer match tests/template_digests.txt ({} vs {} lines); first moved: {moved:?}",
            recomputed.lines().count(),
            recorded.lines().count()
        );
    }
}
