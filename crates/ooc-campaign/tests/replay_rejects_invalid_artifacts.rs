//! `ooc-campaign replay` on artifacts that parse as JSON but cannot run:
//! each must be rejected at the parse boundary with exit code 2 and a
//! message, never a panic (exit code 101).

use ooc_campaign::{Algorithm, FailureArtifact};
use ooc_simnet::{
    LinkOverride, NetworkConfig, PartitionWindow, ProcessId, ReliabilityPolicy, RetransmitConfig,
    SimTime,
};
use std::process::Command;

fn valid(algorithm: Algorithm) -> FailureArtifact {
    let (n, t) = match algorithm {
        Algorithm::BenOr => (5, 2),
        Algorithm::PhaseKing => (7, 2),
        Algorithm::Raft => (7, 3),
    };
    let mut art = ooc_campaign::grid(algorithm, 1)
        .into_iter()
        .next()
        .expect("grid yields artifacts");
    art.n = n;
    art.t = t;
    art.byzantine = (algorithm == Algorithm::PhaseKing).then_some(1);
    art.inputs = vec![0; n - art.byzantine.unwrap_or(0)];
    art.faults.clear();
    art
}

/// A T14 degradation artifact (n = 7) from the flapping regime, which
/// carries a flapping schedule and a clock rate.
fn gray() -> FailureArtifact {
    let art = ooc_campaign::degradation::degradation_artifacts(1)
        .into_iter()
        .find(|a| {
            !a.clock_rates.is_empty()
                && a.network
                    .as_ref()
                    .is_some_and(|net| !net.flapping.is_empty())
        })
        .expect("the degradation grid has a flapping regime");
    assert_eq!(art.n, 7);
    art
}

fn net(art: &mut FailureArtifact) -> &mut NetworkConfig {
    art.network.as_mut().expect("gray artifacts have a network")
}

/// A partition window over `members` as one group.
fn window(members: Vec<ProcessId>) -> PartitionWindow {
    PartitionWindow {
        from: SimTime::from_ticks(0),
        until: SimTime::from_ticks(100),
        groups: vec![members],
    }
}

#[test]
fn replay_exits_2_on_artifacts_that_cannot_run() {
    use ooc_campaign::FaultSpec::{CrashAt, RestartAt};
    let mut cases: Vec<(&str, FailureArtifact, &str)> = Vec::new();
    let mut a = valid(Algorithm::BenOr);
    (a.n, a.t, a.inputs) = (2, 1, vec![0, 1]);
    cases.push(("ben-or-resilience", a, "requires 2t < n"));
    let mut a = valid(Algorithm::BenOr);
    a.inputs.pop();
    cases.push(("ben-or-inputs", a, "inputs"));
    let mut a = valid(Algorithm::BenOr);
    a.faults = vec![CrashAt { p: 1, tick: 5 }, RestartAt { p: 1, tick: 50 }];
    cases.push(("ben-or-restart", a, "crash-stop"));
    let mut a = valid(Algorithm::PhaseKing);
    (a.n, a.t, a.inputs) = (4, 2, vec![0; 3]);
    cases.push(("phase-king-resilience", a, "requires 3t < n"));
    let mut a = valid(Algorithm::Raft);
    a.inputs.pop();
    cases.push(("raft-inputs", a, "inputs"));
    let mut a = valid(Algorithm::Raft);
    a.faults = vec![CrashAt { p: 9, tick: 5 }];
    cases.push(("raft-crash-out-of-range", a, "names process 9"));
    let mut a = valid(Algorithm::Raft);
    a.faults = vec![RestartAt { p: 2, tick: 50 }];
    cases.push(("raft-orphan-restart", a, "no crash is scheduled"));
    let retransmit = |cfg| {
        let mut a = valid(Algorithm::BenOr);
        a.reliability = ReliabilityPolicy::Retransmit(cfg);
        a
    };
    let d = RetransmitConfig::default();
    cases.push((
        "retransmit-jitter",
        retransmit(RetransmitConfig {
            jitter_permille: u64::MAX,
            ..d
        }),
        "jitter_permille 18446744073709551615 exceeds 1000",
    ));
    cases.push((
        "retransmit-rto",
        retransmit(RetransmitConfig {
            rto_initial: 1 << 63,
            ..d
        }),
        "rto_initial 9223372036854775808 exceeds",
    ));
    // Process ids beyond n in a clock rate, a link override, and a
    // partition or flapping group.
    let mut a = gray();
    a.clock_rates.push((99, 100));
    cases.push(("clock-rate-out-of-range", a, "clock rate names process 99 but n=7"));
    let mut a = gray();
    net(&mut a).link_overrides.push(LinkOverride {
        from: ProcessId(9),
        to: ProcessId(0),
        drop_probability: Some(0.5),
        delay: None,
    });
    cases.push(("link-override-out-of-range", a, "link override names process 9 but n=7"));
    let mut a = gray();
    net(&mut a).partitions.push(window(vec![ProcessId(0), ProcessId(9)]));
    cases.push(("partition-group-out-of-range", a, "partition group names process 9 but n=7"));
    let mut a = gray();
    net(&mut a).flapping[0].groups[0].push(ProcessId(9));
    cases.push(("flapping-group-out-of-range", a, "flapping group names process 9 but n=7"));
    let mut texts: Vec<(&str, String, &str)> = cases
        .into_iter()
        .map(|(name, art, expected)| (name, art.to_string_pretty(), expected))
        .collect();
    // A u32 knob beyond u32::MAX cannot be built as an artifact, only
    // written as text.
    let text = retransmit(RetransmitConfig {
        max_retries: 7,
        ..d
    })
    .to_string_pretty()
    .replace("\"max_retries\": 7", "\"max_retries\": 4294967296");
    texts.push(("retransmit-retries", text, "max_retries 4294967296 exceeds"));
    // So can values that used to load lossily: a clock rate beyond u32
    // (once truncated), and a group member that is not an integer (once
    // dropped), written over a sentinel id.
    let mut a = gray();
    a.clock_rates = vec![(0, 7)];
    let text = a
        .to_string_pretty()
        .replace("\"rate_percent\": 7", "\"rate_percent\": 4294967396");
    texts.push(("clock-rate-overflow", text, "rate_percent 4294967396 exceeds 4294967295"));
    let mut partition = gray();
    net(&mut partition)
        .partitions
        .push(window(vec![ProcessId(0), ProcessId(424_242), ProcessId(1)]));
    let mut flapping = gray();
    net(&mut flapping).flapping[0].groups[0].insert(1, ProcessId(424_242));
    for (name, a) in [("partition-group-x", partition), ("flapping-group-x", flapping)] {
        let text = a.to_string_pretty().replace("424242", "\"x\"");
        texts.push((name, text, "group member must be a process id"));
    }
    // A probability beyond f64 once parsed as infinity and ran with
    // every message dropped; nesting once recursed until the stack
    // overflowed.
    let text = gray().to_string_pretty();
    let overflow = text.replacen(
        "\"drop_probability\": 0.0",
        "\"drop_probability\": 1e999",
        1,
    );
    assert_ne!(overflow, text, "the gray artifact has a drop probability");
    texts.push(("drop-probability-overflow", overflow, "number out of range"));
    texts.push(("deep-nesting", "[".repeat(100_000), "nesting"));

    let dir = std::env::temp_dir().join(format!("ooc-replay-invalid-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    for (name, text, expected) in texts {
        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, text).expect("write artifact");
        let out = Command::new(env!("CARGO_BIN_EXE_ooc-campaign"))
            .arg("replay")
            .arg(&path)
            .output()
            .expect("run ooc-campaign");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: {stderr}");
        assert!(
            stderr.contains(expected),
            "{name}: expected {expected:?} in {stderr:?}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
