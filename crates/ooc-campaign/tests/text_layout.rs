//! The exact text the campaign writes: two artifacts in full, and
//! digests of the degradation reports. The round-trip tests only compare
//! the codec with itself; these compare it with text recorded once, so a
//! change to the codec that moves a byte of an artifact or report fails
//! here. Never regenerate the expected values: every artifact and report
//! written before such a change would stop matching what the code
//! writes.

use ooc_campaign::{
    degradation_json, degradation_reliability_json, degradation_reliability_report_jobs,
    degradation_report_jobs, AdversarySpec, Algorithm, FailureArtifact, FaultSpec,
    ViolationSummary,
};
use ooc_simnet::{
    DelayModel, FlappingPartition, LinkOverride, NetworkConfig, PartitionWindow, ProcessId,
    ReliabilityPolicy, RetransmitConfig, SimDuration, SimTime, StoragePolicy,
};

/// The unit tests' sample artifact: a Raft run with a partitioned
/// network, crashes, a restart, a split-vote adversary and a violation.
fn sample() -> FailureArtifact {
    FailureArtifact {
        algorithm: Algorithm::Raft,
        n: 5,
        t: 2,
        byzantine: None,
        attack: None,
        seed: 0xDEAD_BEEF_CAFE_F00D,
        inputs: vec![0, 1, 0, 1, 0],
        max_rounds: 64,
        max_ticks: 100_000,
        network: Some(NetworkConfig {
            delay: DelayModel::Uniform { min: 1, max: 9 },
            drop_probability: 0.05,
            duplicate_probability: 0.01,
            fifo_links: true,
            self_delay: SimDuration::from_ticks(1),
            partitions: vec![PartitionWindow {
                from: SimTime::from_ticks(10),
                until: SimTime::from_ticks(500),
                groups: vec![
                    vec![ProcessId(0), ProcessId(1)],
                    vec![ProcessId(2), ProcessId(3), ProcessId(4)],
                ],
            }],
            link_overrides: Vec::new(),
            flapping: Vec::new(),
        }),
        faults: vec![
            FaultSpec::CrashAt { p: 4, tick: 120 },
            FaultSpec::RestartAt { p: 4, tick: 900 },
            FaultSpec::CrashAfterEvents { p: 3, events: 77 },
        ],
        adversary: AdversarySpec::SplitVote {
            until_ticks: 5_000,
            slow_ticks: 40,
        },
        sabotage_commit_threshold: Some(2),
        storage_policy: Some(StoragePolicy::Amnesia),
        clock_rates: Vec::new(),
        sync_latency: 0,
        reliability: ReliabilityPolicy::Off,
        stalled_since: None,
        violation: Some(ViolationSummary {
            kind: "agreement".into(),
            round: Some(3),
            detail: "p0 decided true but p4 decided false".into(),
        }),
    }
}

/// The sample with every optional field set: a gray network (a
/// heavy-tailed delay, a link override carrying both of its optional
/// fields, a flapping schedule), a Phase-King-style Byzantine count and
/// attack, a state-adaptive adversary, clock rates, a slow disk,
/// Retransmit knobs away from their defaults, a watchdog verdict, and a
/// violation without a round.
fn every_field() -> FailureArtifact {
    let mut art = sample();
    art.byzantine = Some(1);
    art.attack = Some("fixed:1".into());
    let net = art.network.as_mut().expect("the sample has a network");
    net.delay = DelayModel::HeavyTailed {
        floor: 2,
        alpha_milli: 1500,
        cap: 200,
    };
    net.link_overrides = vec![LinkOverride {
        from: ProcessId(0),
        to: ProcessId(3),
        drop_probability: Some(0.5),
        delay: Some(DelayModel::Fixed(30)),
    }];
    net.flapping = vec![FlappingPartition {
        from: SimTime::from_ticks(0),
        until: SimTime::from_ticks(2_000),
        period: 80,
        partitioned: 40,
        groups: vec![vec![ProcessId(0), ProcessId(1)], vec![ProcessId(2)]],
    }];
    art.faults.push(FaultSpec::CrashAtRound { p: 2, round: 7 });
    art.adversary = AdversarySpec::QuorumFlap {
        until_ticks: 4_000,
        period: 60,
    };
    art.clock_rates = vec![(0, 150), (4, 75)];
    art.sync_latency = 5;
    art.reliability = ReliabilityPolicy::Retransmit(RetransmitConfig {
        rto_initial: 30,
        rto_max: 480,
        jitter_permille: 100,
        max_retries: 7,
        buffer_capacity: 256,
        ack_delay: 2,
    });
    art.stalled_since = Some(41_977);
    art.violation = Some(ViolationSummary {
        kind: "termination".into(),
        round: None,
        detail: "2 of 5 processes undecided".into(),
    });
    art
}

/// FNV-1a over the text's bytes.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn artifacts_write_the_recorded_text() {
    assert_eq!(
        sample().to_string_pretty(),
        include_str!("layout/sample.json")
    );
    assert_eq!(
        every_field().to_string_pretty(),
        include_str!("layout/every_field.json")
    );
}

#[test]
fn recorded_artifact_text_loads_back() {
    for (text, art) in [
        (include_str!("layout/sample.json"), sample()),
        (include_str!("layout/every_field.json"), every_field()),
    ] {
        assert_eq!(FailureArtifact::from_json_str(text), Ok(art));
    }
}

#[test]
fn degradation_reports_write_the_recorded_text() {
    let off = degradation_json(&degradation_report_jobs(2, 2)).pretty();
    let on = degradation_reliability_json(&degradation_reliability_report_jobs(2, 2)).pretty();
    assert_eq!(fnv1a(&off), 0x74f9_da47_b792_3777);
    assert_eq!(fnv1a(&on), 0xfff5_04df_0af8_d82c);
}
