//! Executable property checkers.
//!
//! The paper's lemmas assert that particular implementations satisfy the
//! object specifications of §2. This module turns each specification
//! clause into a function over *recorded outcomes*, so the same checks run
//! in unit tests, property-based tests, and the experiment harness:
//!
//! * per-round VAC properties: validity, convergence, coherence over
//!   adopt & commit, coherence over vacillate & adopt;
//! * per-round AC properties: validity, convergence, coherence;
//! * whole-run consensus properties: agreement, validity, termination.
//!
//! Checkers return a list of [`Violation`]s (empty = property holds),
//! which keeps failure output informative in bulk experiments.

use crate::confidence::{AcOutcome, Confidence, VacOutcome};
use crate::template::RoundRecord;
use ooc_simnet::ProcessId;
use std::fmt::{self, Debug};

/// One processor's view of one object invocation round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundEntry<V> {
    /// The processor.
    pub process: ProcessId,
    /// The value it proposed to the object.
    pub input: V,
    /// The outcome it received.
    pub outcome: VacOutcome<V>,
}

/// All processors' views of one round, the unit the coherence laws range
/// over.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RoundOutcomes<V> {
    /// The round number.
    pub round: u64,
    /// One entry per processor that completed the round.
    pub entries: Vec<RoundEntry<V>>,
    /// Inputs of processors that *invoked* the round but never completed
    /// it (crashed mid-round, or still waiting when the run stopped).
    /// They count for validity (their value is a legitimate input) and
    /// against convergence (their invocation can break unanimity) even
    /// though they received no outcome.
    pub extra_inputs: Vec<V>,
}

/// Which specification clause was violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// An output value was not any processor's input.
    Validity,
    /// Identical inputs did not all yield `(commit, v)`.
    Convergence,
    /// Someone committed `u` but another processor's outcome was not
    /// `(commit, u)` / `(adopt, u)`.
    CoherenceAdoptCommit,
    /// Nobody committed, someone adopted `u`, but another processor
    /// adopted a different value.
    CoherenceVacillateAdopt,
    /// Two processors decided different values.
    Agreement,
    /// A processor decided a value that was nobody's input.
    DecisionValidity,
    /// A processor that should have decided did not.
    Termination,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ViolationKind::Validity => "validity",
            ViolationKind::Convergence => "convergence",
            ViolationKind::CoherenceAdoptCommit => "coherence over adopt & commit",
            ViolationKind::CoherenceVacillateAdopt => "coherence over vacillate & adopt",
            ViolationKind::Agreement => "agreement",
            ViolationKind::DecisionValidity => "decision validity",
            ViolationKind::Termination => "termination",
        };
        f.write_str(s)
    }
}

/// A concrete property violation, with enough context to debug it.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// The violated clause.
    pub kind: ViolationKind,
    /// The round it occurred in, when applicable.
    pub round: Option<u64>,
    /// Human-readable details.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.round {
            Some(r) => write!(f, "[round {r}] {}: {}", self.kind, self.detail),
            None => write!(f, "{}: {}", self.kind, self.detail),
        }
    }
}

impl<V: Clone + Debug + PartialEq + Ord> RoundOutcomes<V> {
    /// Collects round `round` from the per-process histories produced by
    /// the [`Template`](crate::template::Template) processes. Processes
    /// that did not complete the round are simply absent (the coherence
    /// laws quantify over outcomes actually received).
    pub fn from_histories(round: u64, histories: &[(ProcessId, &[RoundRecord<V>])]) -> Self {
        let mut entries = Vec::with_capacity(histories.len());
        for (pid, hist) in histories {
            if let Some(rec) = hist.iter().find(|r| r.round == round) {
                entries.push(RoundEntry {
                    process: *pid,
                    input: rec.input.clone(),
                    outcome: rec.outcome.clone(),
                });
            }
        }
        RoundOutcomes {
            round,
            entries,
            extra_inputs: Vec::new(),
        }
    }

    /// Adds the inputs of processors that began but never completed this
    /// round (see [`RoundOutcomes::extra_inputs`]).
    pub fn with_extra_inputs(mut self, inputs: impl IntoIterator<Item = V>) -> Self {
        self.extra_inputs.extend(inputs);
        self
    }

    /// Checks all four VAC clauses over this round.
    pub fn check_vac(&self) -> Vec<Violation> {
        let mut v = Vec::new();
        v.extend(self.check_validity());
        v.extend(self.check_convergence());
        v.extend(self.check_coherence_adopt_commit());
        v.extend(self.check_coherence_vacillate_adopt());
        v
    }

    /// Checks the AC clauses (validity, convergence, coherence) over this
    /// round, treating outcomes as AC outcomes. Any `Vacillate` outcome is
    /// itself a violation of the AC interface.
    pub fn check_ac(&self) -> Vec<Violation> {
        let mut v = Vec::new();
        v.extend(self.check_validity());
        v.extend(self.check_convergence());
        // AC coherence: a commit of u forces *everyone's value* to be u.
        let committed: Vec<&RoundEntry<V>> = self
            .entries
            .iter()
            .filter(|e| e.outcome.confidence == Confidence::Commit)
            .collect();
        if let Some(c) = committed.first() {
            for e in &self.entries {
                if e.outcome.value != c.outcome.value {
                    v.push(self.violation(
                        ViolationKind::CoherenceAdoptCommit,
                        format!(
                            "{} committed {:?} but {} returned {:?}",
                            c.process, c.outcome.value, e.process, e.outcome
                        ),
                    ));
                }
            }
        }
        for e in &self.entries {
            if e.outcome.confidence == Confidence::Vacillate {
                v.push(self.violation(
                    ViolationKind::CoherenceAdoptCommit,
                    format!("{} returned vacillate from an adopt-commit object", e.process),
                ));
            }
        }
        v
    }

    /// Validity: every output value equals some processor's input
    /// (including inputs of processors that never completed the round).
    pub fn check_validity(&self) -> Vec<Violation> {
        let inputs = self
            .entries
            .iter()
            .map(|e| &e.input)
            .chain(self.extra_inputs.iter());
        self.entries
            .iter()
            .filter(|e| !inputs.clone().any(|input| *input == e.outcome.value))
            .map(|e| {
                self.violation(
                    ViolationKind::Validity,
                    format!(
                        "{} received value {:?} which no processor proposed",
                        e.process, e.outcome.value
                    ),
                )
            })
            .collect()
    }

    /// Convergence: if all invokers' inputs equal `v`, every completer
    /// gets `(commit, v)`.
    pub fn check_convergence(&self) -> Vec<Violation> {
        let mut inputs = self
            .entries
            .iter()
            .map(|e| &e.input)
            .chain(self.extra_inputs.iter());
        let Some(first) = inputs.next() else {
            return Vec::new();
        };
        if !inputs.all(|i| i == first) {
            return Vec::new();
        }
        self.entries
            .iter()
            .filter(|e| e.outcome != VacOutcome::commit(first.clone()))
            .map(|e| {
                self.violation(
                    ViolationKind::Convergence,
                    format!(
                        "all inputs were {:?} but {} received {:?}",
                        first, e.process, e.outcome
                    ),
                )
            })
            .collect()
    }

    /// Coherence over adopt & commit: if any processor received
    /// `(commit, u)`, every processor received `(commit, u)` or
    /// `(adopt, u)`.
    pub fn check_coherence_adopt_commit(&self) -> Vec<Violation> {
        let Some(c) = self
            .entries
            .iter()
            .find(|e| e.outcome.confidence == Confidence::Commit)
        else {
            return Vec::new();
        };
        let u = &c.outcome.value;
        self.entries
            .iter()
            .filter(|e| {
                e.outcome.confidence == Confidence::Vacillate || &e.outcome.value != u
            })
            .map(|e| {
                self.violation(
                    ViolationKind::CoherenceAdoptCommit,
                    format!(
                        "{} committed {:?} but {} received {:?}",
                        c.process, u, e.process, e.outcome
                    ),
                )
            })
            .collect()
    }

    /// Coherence over vacillate & adopt: if nobody committed and some
    /// processor received `(adopt, u)`, every processor received
    /// `(adopt, u)` or `(vacillate, *)`.
    pub fn check_coherence_vacillate_adopt(&self) -> Vec<Violation> {
        if self
            .entries
            .iter()
            .any(|e| e.outcome.confidence == Confidence::Commit)
        {
            return Vec::new();
        }
        let mut adopts = self
            .entries
            .iter()
            .filter(|e| e.outcome.confidence == Confidence::Adopt);
        let Some(first) = adopts.next() else {
            return Vec::new();
        };
        adopts
            .filter(|e| e.outcome.value != first.outcome.value)
            .map(|e| {
                self.violation(
                    ViolationKind::CoherenceVacillateAdopt,
                    format!(
                        "{} adopted {:?} but {} adopted {:?}",
                        first.process, first.outcome.value, e.process, e.outcome.value
                    ),
                )
            })
            .collect()
    }

    fn violation(&self, kind: ViolationKind, detail: String) -> Violation {
        Violation {
            kind,
            round: Some(self.round),
            detail,
        }
    }
}

/// Checks consensus agreement + validity over final decisions:
/// all `Some` decisions must be equal and drawn from `inputs`.
pub fn check_consensus<V: Debug + PartialEq>(
    inputs: &[V],
    decisions: &[Option<V>],
) -> Vec<Violation> {
    let mut v = Vec::new();
    let mut deciders = decisions.iter().enumerate().filter_map(|(i, d)| {
        d.as_ref().map(|d| (ProcessId(i), d))
    });
    if let Some((p0, d0)) = deciders.next() {
        for (p, d) in deciders {
            if d != d0 {
                v.push(Violation {
                    kind: ViolationKind::Agreement,
                    round: None,
                    detail: format!("{p0} decided {d0:?} but {p} decided {d:?}"),
                });
            }
        }
    }
    for (i, d) in decisions.iter().enumerate() {
        if let Some(d) = d {
            if !inputs.iter().any(|inp| inp == d) {
                v.push(Violation {
                    kind: ViolationKind::DecisionValidity,
                    round: None,
                    detail: format!("{} decided {:?}, not an input", ProcessId(i), d),
                });
            }
        }
    }
    v
}

/// Checks termination: every process in `must_decide` has a decision.
pub fn check_termination<V>(
    must_decide: &[ProcessId],
    decisions: &[Option<V>],
) -> Vec<Violation> {
    must_decide
        .iter()
        .filter(|p| decisions[p.index()].is_none())
        .map(|p| Violation {
            kind: ViolationKind::Termination,
            round: None,
            detail: format!("{p} never decided"),
        })
        .collect()
}

/// Convenience: converts AC outcomes into the VAC-outcome entries the
/// round checkers consume.
pub fn ac_entries<V: Clone>(
    entries: impl IntoIterator<Item = (ProcessId, V, AcOutcome<V>)>,
) -> Vec<RoundEntry<V>> {
    entries
        .into_iter()
        .map(|(process, input, outcome)| RoundEntry {
            process,
            input,
            outcome: outcome.into_vac(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(p: usize, input: u64, outcome: VacOutcome<u64>) -> RoundEntry<u64> {
        RoundEntry {
            process: ProcessId(p),
            input,
            outcome,
        }
    }

    fn round(entries: Vec<RoundEntry<u64>>) -> RoundOutcomes<u64> {
        RoundOutcomes {
            round: 1,
            entries,
            extra_inputs: Vec::new(),
        }
    }

    #[test]
    fn extra_inputs_count_for_validity_in_vac_path() {
        // Processor 1 crashed mid-round after proposing 7; processor 0
        // adopted 7. Without the crashed input that value looks invented;
        // with it, validity must hold.
        let flagged = round(vec![entry(0, 3, VacOutcome::adopt(7))]);
        assert!(flagged
            .check_vac()
            .iter()
            .any(|v| v.kind == ViolationKind::Validity));

        let r = round(vec![entry(0, 3, VacOutcome::adopt(7))]).with_extra_inputs([7]);
        assert!(
            !r.check_vac().iter().any(|v| v.kind == ViolationKind::Validity),
            "a crashed invoker's input must legitimise the value: {:?}",
            r.check_vac()
        );
    }

    #[test]
    fn extra_inputs_count_for_validity_in_ac_path() {
        let flagged = round(vec![entry(0, 3, VacOutcome::adopt(7))]);
        assert!(flagged
            .check_ac()
            .iter()
            .any(|v| v.kind == ViolationKind::Validity));

        let r = round(vec![entry(0, 3, VacOutcome::adopt(7))]).with_extra_inputs([7]);
        assert!(!r.check_ac().iter().any(|v| v.kind == ViolationKind::Validity));
    }

    #[test]
    fn extra_inputs_count_against_convergence_in_vac_path() {
        // Every completer proposed 5 but a crashed invoker proposed 6:
        // unanimity is broken, so a non-commit outcome is *not* a
        // convergence violation.
        let vacuous = round(vec![
            entry(0, 5, VacOutcome::adopt(5)),
            entry(1, 5, VacOutcome::commit(5)),
        ])
        .with_extra_inputs([6]);
        assert!(
            !vacuous.check_vac().iter().any(|v| v.kind == ViolationKind::Convergence),
            "crashed-mid-round input must break unanimity: {:?}",
            vacuous.check_vac()
        );

        // Whereas a crashed invoker that *agreed* keeps unanimity intact,
        // so the adopt is still flagged.
        let flagged = round(vec![
            entry(0, 5, VacOutcome::adopt(5)),
            entry(1, 5, VacOutcome::commit(5)),
        ])
        .with_extra_inputs([5]);
        assert!(flagged
            .check_vac()
            .iter()
            .any(|v| v.kind == ViolationKind::Convergence));
    }

    #[test]
    fn extra_inputs_count_against_convergence_in_ac_path() {
        let vacuous = round(vec![
            entry(0, 5, VacOutcome::adopt(5)),
            entry(1, 5, VacOutcome::adopt(5)),
        ])
        .with_extra_inputs([6]);
        assert!(!vacuous
            .check_ac()
            .iter()
            .any(|v| v.kind == ViolationKind::Convergence));

        let flagged = round(vec![
            entry(0, 5, VacOutcome::adopt(5)),
            entry(1, 5, VacOutcome::adopt(5)),
        ])
        .with_extra_inputs([5]);
        assert!(flagged
            .check_ac()
            .iter()
            .any(|v| v.kind == ViolationKind::Convergence));
    }

    #[test]
    fn clean_round_passes_all_vac_checks() {
        let r = round(vec![
            entry(0, 0, VacOutcome::commit(0)),
            entry(1, 0, VacOutcome::commit(0)),
        ]);
        assert!(r.check_vac().is_empty());
    }

    #[test]
    fn validity_catches_invented_values() {
        let r = round(vec![
            entry(0, 0, VacOutcome::vacillate(5)),
            entry(1, 1, VacOutcome::vacillate(1)),
        ]);
        let v = r.check_validity();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::Validity);
    }

    #[test]
    fn convergence_requires_commit_on_unanimity() {
        let r = round(vec![
            entry(0, 7, VacOutcome::commit(7)),
            entry(1, 7, VacOutcome::adopt(7)),
        ]);
        let v = r.check_convergence();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::Convergence);
    }

    #[test]
    fn convergence_vacuous_on_mixed_inputs() {
        let r = round(vec![
            entry(0, 0, VacOutcome::vacillate(0)),
            entry(1, 1, VacOutcome::vacillate(1)),
        ]);
        assert!(r.check_convergence().is_empty());
    }

    #[test]
    fn coherence_ac_rejects_vacillate_beside_commit() {
        let r = round(vec![
            entry(0, 0, VacOutcome::commit(0)),
            entry(1, 1, VacOutcome::vacillate(1)),
        ]);
        let v = r.check_coherence_adopt_commit();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::CoherenceAdoptCommit);
    }

    #[test]
    fn coherence_ac_rejects_wrong_value_beside_commit() {
        let r = round(vec![
            entry(0, 0, VacOutcome::commit(0)),
            entry(1, 1, VacOutcome::adopt(1)),
        ]);
        assert_eq!(r.check_coherence_adopt_commit().len(), 1);
    }

    #[test]
    fn coherence_ac_accepts_adopt_of_same_value() {
        let r = round(vec![
            entry(0, 0, VacOutcome::commit(0)),
            entry(1, 1, VacOutcome::adopt(0)),
        ]);
        assert!(r.check_coherence_adopt_commit().is_empty());
    }

    #[test]
    fn coherence_va_rejects_conflicting_adopts() {
        let r = round(vec![
            entry(0, 0, VacOutcome::adopt(0)),
            entry(1, 1, VacOutcome::adopt(1)),
        ]);
        let v = r.check_coherence_vacillate_adopt();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::CoherenceVacillateAdopt);
    }

    #[test]
    fn coherence_va_allows_any_vacillate_values() {
        let r = round(vec![
            entry(0, 0, VacOutcome::adopt(0)),
            entry(1, 1, VacOutcome::vacillate(1)),
        ]);
        assert!(r.check_coherence_vacillate_adopt().is_empty());
    }

    #[test]
    fn coherence_va_only_applies_without_commit() {
        // With a commit present this clause is vacuous (the other clause
        // takes over).
        let r = round(vec![
            entry(0, 0, VacOutcome::commit(0)),
            entry(1, 1, VacOutcome::adopt(1)),
        ]);
        assert!(r.check_coherence_vacillate_adopt().is_empty());
    }

    #[test]
    fn ac_check_flags_vacillate_outcomes() {
        let r = round(vec![entry(0, 0, VacOutcome::vacillate(0))]);
        let v = r.check_ac();
        assert!(v.iter().any(|x| x.kind == ViolationKind::CoherenceAdoptCommit));
    }

    #[test]
    fn ac_check_enforces_value_agreement_under_commit() {
        let r = round(vec![
            entry(0, 0, VacOutcome::commit(0)),
            entry(1, 1, VacOutcome::adopt(1)),
        ]);
        assert!(!r.check_ac().is_empty());
        let ok = round(vec![
            entry(0, 0, VacOutcome::commit(0)),
            entry(1, 1, VacOutcome::adopt(0)),
        ]);
        assert!(ok.check_ac().is_empty());
    }

    #[test]
    fn consensus_agreement_and_validity() {
        let inputs = vec![0u64, 1];
        assert!(check_consensus(&inputs, &[Some(0), Some(0)]).is_empty());
        let v = check_consensus(&inputs, &[Some(0), Some(1)]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::Agreement);
        let v = check_consensus(&inputs, &[Some(9), None]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::DecisionValidity);
    }

    #[test]
    fn termination_check() {
        let v = check_termination(&[ProcessId(0), ProcessId(1)], &[Some(1u64), None]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::Termination);
    }

    #[test]
    fn from_histories_collects_matching_rounds() {
        let h0 = vec![RoundRecord {
            round: 1,
            input: 4u64,
            outcome: VacOutcome::adopt(4),
            shaken: None,
            messages: 0,
            started_at: 0,
            ended_at: 0,
        }];
        let h1: Vec<RoundRecord<u64>> = vec![];
        let r = RoundOutcomes::from_histories(
            1,
            &[(ProcessId(0), h0.as_slice()), (ProcessId(1), h1.as_slice())],
        );
        assert_eq!(r.entries.len(), 1);
        assert_eq!(r.entries[0].process, ProcessId(0));
    }

    #[test]
    fn display_formats_are_informative() {
        let v = Violation {
            kind: ViolationKind::Agreement,
            round: Some(3),
            detail: "x".into(),
        };
        assert_eq!(v.to_string(), "[round 3] agreement: x");
    }
}
