//! The three workloads and the artifacts each one runs.
//!
//! One operation is one consensus run through
//! [`ooc_campaign::run_artifact`], exactly what `run_all(&artifacts, 1)`
//! executes. The workload seed is mixed into every artifact's `seed`
//! field, so the grid shape (sizes, networks, faults, adversaries) never
//! changes; seed 0 leaves the artifacts exactly as the campaign crate
//! builds them.

use ooc_campaign::{degradation_artifacts_with, grid, AdversarySpec, Algorithm, FailureArtifact};
use ooc_simnet::{NetworkConfig, ReliabilityPolicy, RetransmitConfig};

/// The seed whose artifacts are the campaign crate's own, unchanged, and
/// whose outcomes the committed digests record.
pub const DEFAULT_SEED: u64 = 0;

/// Per-algorithm target passed to `grid()`: the CLI's default sweep size.
const GRID_TARGET: usize = 1000;
/// Seeds per degradation cell: four times the T14/T17 tables, so the
/// grid has over a thousand artifacts and its p99 has ten beyond it.
/// The first 24 seeds of every cell are the tables' own.
const DEGRADATION_SEEDS: usize = 96;
/// Repetitions of the 50-run `scale-n` mix: a thousand artifacts, for
/// the same reason.
const SCALE_CYCLES: u64 = 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Sweep,
    GrayRetransmit,
    ScaleN,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Sweep, Workload::GrayRetransmit, Workload::ScaleN];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Sweep => "sweep",
            Workload::GrayRetransmit => "gray-retransmit",
            Workload::ScaleN => "scale-n",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Why the workload exists: which layers it stresses and which it
    /// leaves alone.
    pub fn why(self) -> &'static str {
        match self {
            Workload::Sweep => {
                "many short runs (classic Ben-Or/Phase-King/Raft grids plus the T14 gray grid \
                 fire-and-forget): fixed per-run cost dominates — harness set-up, Sim build, \
                 checker fold; the only workload on the fire-and-forget gray and adversary paths"
            }
            Workload::GrayRetransmit => {
                "the T14/T17 degradation grid under Retransmit: the only workload that runs the \
                 reliable-delivery layer; its artifacts are the Off half of sweep, so a gain for \
                 one policy that costs the other shows"
            }
            Workload::ScaleN => {
                "large clusters (Ben-Or n=16, Phase-King n=64, Raft n=64): per-message engine \
                 work dominates and fixed per-run cost is noise"
            }
        }
    }

    /// Every artifact of the workload, in run order, for `seed`.
    pub fn artifacts(self, seed: u64) -> Vec<FailureArtifact> {
        let mut artifacts = match self {
            Workload::Sweep => {
                let mut all = Vec::new();
                for algorithm in Algorithm::all() {
                    all.extend(grid(algorithm, GRID_TARGET));
                }
                all.extend(degradation_artifacts_with(
                    DEGRADATION_SEEDS,
                    ReliabilityPolicy::Off,
                ));
                all
            }
            Workload::GrayRetransmit => degradation_artifacts_with(DEGRADATION_SEEDS, retransmit()),
            Workload::ScaleN => scale_n(),
        };
        if seed != DEFAULT_SEED {
            let salt = splitmix(seed);
            for a in &mut artifacts {
                a.seed = splitmix(a.seed ^ salt);
            }
        }
        artifacts
    }
}

/// The reliability policy of `gray-retransmit` and of the T17 table.
pub fn retransmit() -> ReliabilityPolicy {
    ReliabilityPolicy::Retransmit(RetransmitConfig::default())
}

/// The SplitMix64 finaliser: a bijection on `u64`, so distinct artifact
/// seeds stay distinct after mixing.
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A clean artifact with no faults and no adversary.
pub fn clean(algorithm: Algorithm, n: usize, t: usize, seed: u64) -> FailureArtifact {
    FailureArtifact {
        algorithm,
        n,
        t,
        byzantine: None,
        attack: None,
        seed,
        inputs: Vec::new(),
        max_rounds: 10_000,
        max_ticks: 2_000_000,
        network: None,
        faults: Vec::new(),
        adversary: AdversarySpec::None,
        sabotage_commit_threshold: None,
        storage_policy: None,
        clock_rates: Vec::new(),
        sync_latency: 0,
        reliability: ReliabilityPolicy::Off,
        stalled_since: None,
        violation: None,
    }
}

/// Alternating 0/1 inputs: the vote split Ben-Or must break with coins.
fn split_inputs(len: usize) -> Vec<u64> {
    (0..len).map(|i| (i % 2) as u64).collect()
}

/// One `scale-n` cycle of 50 runs, repeated with fresh seeds: one
/// Phase-King n=64 run with 21 equivocators (about 10 ms and 214k
/// messages), 15 Raft n=64 elections on `reliable(5)`, 12 Ben-Or n=16
/// runs on the default uniform 1–10 network and 22 on `reliable(1)`.
///
/// Phase-King costs the same on every seed and is the heaviest run, so at
/// 2% of the runs it holds the middle of p99; the `reliable(1)` Ben-Or
/// runs hold p50 the same way. Round caps keep Ben-Or's cost bounded,
/// because coin rounds are geometric in the seed, and keep a pass short
/// enough that each run repeats a dozen times in 30 s. Under
/// `reliable(1)` every process hears the same first n − t reports, so the
/// split vote survives until a coin streak; those runs stop at 10 rounds
/// (a liveness outcome, not a failure) and measure engine cost per
/// message. On the default network the median run decides in about 30
/// rounds and the cap of 60 stops the slowest quarter.
fn scale_n() -> Vec<FailureArtifact> {
    let mut all = Vec::new();
    for cycle in 0..SCALE_CYCLES {
        let mut pk = clean(Algorithm::PhaseKing, 64, 21, cycle);
        pk.byzantine = Some(21);
        pk.attack = Some("equivocate".into());
        pk.inputs = split_inputs(64 - 21);
        pk.max_rounds = 21 + 4;
        all.push(pk);
        for k in 0..15 {
            let mut raft = clean(Algorithm::Raft, 64, 31, cycle * 15 + k);
            raft.inputs = (1..=64).collect();
            raft.network = Some(NetworkConfig::reliable(5));
            all.push(raft);
        }
        for k in 0..34 {
            // Interleave the two networks: 12 default, 22 reliable(1).
            let (network, max_rounds) = if k % 3 == 0 {
                (NetworkConfig::default(), 60)
            } else {
                (NetworkConfig::reliable(1), 10)
            };
            let mut ben_or = clean(Algorithm::BenOr, 16, 7, cycle * 34 + k);
            ben_or.inputs = split_inputs(16);
            ben_or.network = Some(network);
            ben_or.max_rounds = max_rounds;
            all.push(ben_or);
        }
    }
    all
}
