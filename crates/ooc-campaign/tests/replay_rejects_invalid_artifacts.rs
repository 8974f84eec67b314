//! `ooc-campaign replay` on artifacts that parse as JSON but cannot run:
//! each must be rejected at the parse boundary with exit code 2 and a
//! message, never a panic (exit code 101).

use ooc_campaign::{Algorithm, FailureArtifact};
use ooc_simnet::{ReliabilityPolicy, RetransmitConfig};
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
