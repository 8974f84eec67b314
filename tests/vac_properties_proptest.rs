//! Property-based tests of the paper's object laws.
//!
//! Seeded random network sizes, fault counts, input vectors and seeds
//! are thrown at the Ben-Or VAC (native and §5-composed); the recorded
//! executions must satisfy every clause of the VAC specification.
//! Separately, the §5 constructions are checked as pure functions over
//! arbitrary AC outcomes, and the checker itself is validated against
//! hand-crafted violating rounds (it must *find* the bug, not just pass
//! clean inputs). Each property runs 48 cases through
//! [`testkit::cases`].

use object_oriented_consensus::ben_or::harness::{run_composed, run_decomposed, BenOrConfig};
use object_oriented_consensus::core::checker::{RoundEntry, RoundOutcomes, ViolationKind};
use object_oriented_consensus::core::compose::{TwoAcMsg, TwoAcVac, VacAsAc};
use object_oriented_consensus::core::objects::{AcObject, ObjectNet, VacObject};
use object_oriented_consensus::core::testkit::{self, LoopbackNet};
use object_oriented_consensus::core::{AcConfidence, AcOutcome, Confidence, VacOutcome};
use object_oriented_consensus::simnet::{FaultPlan, ProcessId, SimTime, SplitMix64};

const CASES: usize = 48;

/// `(n, t, inputs)` with `3 ≤ n ≤ 9` and `t < n/2`.
fn ben_or_params(rng: &mut SplitMix64) -> (usize, usize, Vec<bool>) {
    let n = rng.range_inclusive(3, 9) as usize;
    let t_max = n.div_ceil(2) - 1;
    let t = rng.range_inclusive(0, t_max as u64) as usize;
    let inputs = (0..n).map(|_| rng.coin() == 1).collect();
    (n, t, inputs)
}

/// One of the three VAC confidences, uniformly.
fn confidence(rng: &mut SplitMix64) -> Confidence {
    [Confidence::Vacillate, Confidence::Adopt, Confidence::Commit][rng.below(3) as usize]
}

/// Process `p`'s entry in a hand-made round.
fn entry(p: usize, input: u64, confidence: Confidence, value: u64) -> RoundEntry<u64> {
    RoundEntry {
        process: ProcessId(p),
        input,
        outcome: VacOutcome { confidence, value },
    }
}

#[test]
fn ben_or_vac_laws_hold() {
    testkit::cases(1, CASES, |rng| {
        let (n, t, inputs) = ben_or_params(rng);
        let seed = rng.below(1000);
        let cfg = BenOrConfig::new(n, t);
        let run = run_decomposed(&cfg, &inputs, seed);
        assert!(run.violations.is_empty(), "{:?}", run.violations);
        assert!(run.outcome.all_decided());
        true
    });
}

#[test]
fn ben_or_vac_laws_hold_under_crashes() {
    testkit::cases(2, CASES, |rng| {
        let (n, t, inputs) = ben_or_params(rng);
        let seed = rng.below(1000);
        let crash_at = rng.range_inclusive(1, 199);
        if t < 1 {
            return false;
        }
        let cfg = BenOrConfig::new(n, t).with_faults(FaultPlan::new().crash_tail(
            n,
            t,
            SimTime::from_ticks(crash_at),
        ));
        let run = run_decomposed(&cfg, &inputs, seed);
        assert!(run.violations.is_empty(), "{:?}", run.violations);
        true
    });
}

#[test]
fn composed_vac_laws_hold() {
    testkit::cases(3, CASES, |rng| {
        let (n, t, inputs) = ben_or_params(rng);
        let seed = rng.below(1000);
        let cfg = BenOrConfig::new(n, t);
        let run = run_composed(&cfg, &inputs, seed);
        assert!(run.violations.is_empty(), "{:?}", run.violations);
        true
    });
}

/// §5 composition table as a pure function: for all AC outcome pairs,
/// the mapping produces the documented confidence and AC₂'s value.
#[test]
fn two_ac_mapping_table() {
    #[derive(Debug)]
    struct Scripted(AcOutcome<u64>);
    impl AcObject for Scripted {
        type Value = u64;
        type Msg = ();
        fn begin(&mut self, _v: u64, _net: &mut dyn ObjectNet<()>) -> Option<AcOutcome<u64>> {
            Some(self.0)
        }
        fn on_message(
            &mut self,
            _f: ProcessId,
            _m: (),
            _net: &mut dyn ObjectNet<()>,
        ) -> Option<AcOutcome<u64>> {
            None
        }
    }

    testkit::cases(4, CASES, |rng| {
        let (a_commit, b_commit) = (rng.coin() == 1, rng.coin() == 1);
        let (u, w) = (rng.below(8), rng.below(8));
        let mk = |commit: bool, v: u64| {
            if commit {
                AcOutcome::commit(v)
            } else {
                AcOutcome::adopt(v)
            }
        };
        let mut vac = TwoAcVac::new(Scripted(mk(a_commit, u)), Scripted(mk(b_commit, w)));
        let mut net = LoopbackNet::<TwoAcMsg<()>>::new(0, 3, 0);
        let out = vac
            .begin(0, &mut net)
            .expect("scripted ACs complete in begin");
        let expected_conf = match (a_commit, b_commit) {
            (true, true) => Confidence::Commit,
            (_, true) => Confidence::Adopt,
            _ => Confidence::Vacillate,
        };
        assert_eq!(out.confidence, expected_conf);
        assert_eq!(out.value, w, "value comes from AC₂");
        true
    });
}

/// The VAC → AC weakening preserves values and maps the lattice as
/// documented.
#[test]
fn weakening_is_value_preserving() {
    #[derive(Debug)]
    struct ScriptedVac(VacOutcome<u64>);
    impl VacObject for ScriptedVac {
        type Value = u64;
        type Msg = ();
        fn begin(&mut self, _v: u64, _net: &mut dyn ObjectNet<()>) -> Option<VacOutcome<u64>> {
            Some(self.0)
        }
        fn on_message(
            &mut self,
            _f: ProcessId,
            _m: (),
            _net: &mut dyn ObjectNet<()>,
        ) -> Option<VacOutcome<u64>> {
            None
        }
    }

    testkit::cases(5, CASES, |rng| {
        let confidence = confidence(rng);
        let v = rng.below(100);
        let mut ac = VacAsAc(ScriptedVac(VacOutcome {
            confidence,
            value: v,
        }));
        let mut net = LoopbackNet::<()>::new(0, 2, 0);
        let out = ac.begin(0, &mut net).unwrap();
        assert_eq!(out.value, v);
        let expected = if confidence == Confidence::Commit {
            AcConfidence::Commit
        } else {
            AcConfidence::Adopt
        };
        assert_eq!(out.confidence, expected);
        true
    });
}

/// Checker soundness: a round where someone committed `u` while
/// another processor holds a different value (or vacillates) must be
/// flagged; a coherent round must not be.
#[test]
fn checker_flags_planted_coherence_bugs() {
    testkit::cases(6, CASES, |rng| {
        let (u, other) = (rng.below(4), rng.below(4));
        let confidence = confidence(rng);
        let round = RoundOutcomes {
            round: 1,
            entries: vec![
                entry(0, u, Confidence::Commit, u),
                entry(1, other, confidence, other),
            ],
            extra_inputs: Vec::new(),
        };
        let violations = round.check_coherence_adopt_commit();
        let coherent = confidence != Confidence::Vacillate && other == u;
        if coherent {
            assert!(violations.is_empty(), "{violations:?}");
        } else {
            assert!(!violations.is_empty(), "planted bug not found: {round:?}");
            assert!(violations
                .iter()
                .all(|v| v.kind == ViolationKind::CoherenceAdoptCommit));
        }
        true
    });
}

/// Checker soundness for the vacillate/adopt law.
#[test]
fn checker_flags_conflicting_adopts() {
    testkit::cases(7, CASES, |rng| {
        let (a, b) = (rng.below(4), rng.below(4));
        let round = RoundOutcomes {
            round: 1,
            entries: vec![
                entry(0, a, Confidence::Adopt, a),
                entry(1, b, Confidence::Adopt, b),
            ],
            extra_inputs: Vec::new(),
        };
        let violations = round.check_coherence_vacillate_adopt();
        assert_eq!(violations.is_empty(), a == b);
        true
    });
}

/// Convergence checker: unanimity in, anything but commit-of-that-value
/// out, must be flagged — including when a non-completing invoker broke
/// the unanimity (then nothing is flagged).
#[test]
fn checker_respects_extra_inputs() {
    testkit::cases(8, CASES, |rng| {
        let (v, extra) = (rng.below(4), rng.below(4));
        let round = RoundOutcomes {
            round: 1,
            entries: vec![entry(0, v, Confidence::Adopt, v)],
            extra_inputs: vec![extra],
        };
        let violations = round.check_convergence();
        assert_eq!(!violations.is_empty(), extra == v, "{:?}", violations);
        true
    });
}
