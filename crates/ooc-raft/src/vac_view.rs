//! The VAC view of Raft (paper Algorithms 10–11) and its checkers.
//!
//! §4.3 maps each Raft **term** to a template round and classifies every
//! node's experience of the term:
//!
//! * **vacillate** — saw no evidence a leader was chosen;
//! * **adopt** — won the election, or accepted a first-kind
//!   `AppendEntries` (entries, no commit movement): "all other processors
//!   which received such a message received it with the same value";
//! * **commit** — moved the commit index (second-kind `AppendEntries`, or
//!   the leader's own majority): consensus has been reached.
//!
//! [`RaftNode`](crate::RaftNode) records these transitions as
//! [`RaftEvent::VacTransition`]s; this module folds them into per-term
//! outcomes and checks the two coherence laws.
//!
//! ### A scope note the paper makes in passing
//!
//! Lemma 7's proof covers "processors which have not failed during the
//! term". A node that *times out* of term `T` (its reconciliator fires)
//! behaves, for `T`'s coherence accounting, like a processor that failed
//! during the term: it may sit at vacillate while the leader commits.
//! The checkers below therefore verify:
//!
//! * **value coherence** — all adopt/commit records of one term carry one
//!   value (this is unconditional);
//! * **commit coherence** — if some node committed in term `T`, every
//!   *adopt-or-commit* record of `T` carries the committed value;
//! * **convergence is *not* checked** for leader-based Raft — the paper
//!   itself concedes it "does not hold as is" (§4.3) and offers the
//!   [`decentralized`](crate::decentralized) variant instead, where we do
//!   check it.

use crate::events::RaftEvent;
use crate::types::Term;
use ooc_core::checker::{Violation, ViolationKind};
use ooc_core::{Confidence, VacOutcome};
use ooc_simnet::ProcessId;

/// One node's final VAC outcome for one term it participated in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TermOutcome {
    /// The term (= template round).
    pub term: Term,
    /// The node.
    pub process: ProcessId,
    /// Its final outcome for the term.
    pub outcome: VacOutcome<u64>,
}

/// Every node's final VAC outcome for each term it participated in
/// (`events[i]` belongs to process `i`), sorted by term, then process.
///
/// Within a term a node's confidence only ever increases (vacillate →
/// adopt → commit), so the fold keeps the highest, and of equally
/// confident records the latest.
pub fn per_term_outcomes<E: AsRef<[RaftEvent]>>(events: &[E]) -> Vec<TermOutcome> {
    let is_transition = |e: &&RaftEvent| matches!(e, RaftEvent::VacTransition { .. });
    let most = events
        .iter()
        .map(|evs| evs.as_ref().iter().filter(is_transition).count())
        .sum();
    let mut outcomes: Vec<TermOutcome> = Vec::with_capacity(most);
    for (i, evs) in events.iter().enumerate() {
        let first = outcomes.len();
        for e in evs.as_ref() {
            let RaftEvent::VacTransition {
                term,
                confidence,
                value,
            } = *e
            else {
                continue;
            };
            let outcome = VacOutcome { confidence, value };
            // A node's terms mostly arrive in order, so its current term
            // is usually the last one kept.
            match outcomes[first..].iter_mut().rev().find(|o| o.term == term) {
                Some(kept) if confidence >= kept.outcome.confidence => kept.outcome = outcome,
                Some(_) => {}
                None => outcomes.push(TermOutcome {
                    term,
                    process: ProcessId(i),
                    outcome,
                }),
            }
        }
    }
    outcomes.sort_unstable_by_key(|o| (o.term, o.process));
    outcomes
}

/// Number of reconciliator invocations (Algorithm 11 = election-timer
/// expiries) in the event stream.
pub fn reconciliator_invocations(events: &[RaftEvent]) -> usize {
    events
        .iter()
        .filter(|e| matches!(e, RaftEvent::ElectionStarted { .. }))
        .count()
}

/// Checks the VAC coherence laws over all nodes' per-term outcomes,
/// sorted by term, then process, as [`per_term_outcomes`] returns them.
pub fn check_vac_coherence(outcomes: &[TermOutcome]) -> Vec<Violation> {
    debug_assert!(outcomes.is_sorted_by_key(|o| (o.term, o.process)));
    let mut violations = Vec::new();
    for term_outcomes in outcomes.chunk_by(|a, b| a.term == b.term) {
        let committed = term_outcomes
            .iter()
            .any(|o| o.outcome.confidence == Confidence::Commit);
        // Value coherence among adopt/commit records (both laws' shared
        // core: first-kind AppendEntries of one term carry one value).
        let mut held = term_outcomes
            .iter()
            .filter(|o| o.outcome.confidence >= Confidence::Adopt);
        let Some(first) = held.next() else {
            continue;
        };
        let (p0, o0) = (first.process, first.outcome);
        for &TermOutcome {
            term,
            process: p,
            outcome: o,
        } in held
        {
            if o.value != o0.value {
                violations.push(Violation {
                    kind: if committed {
                        ViolationKind::CoherenceAdoptCommit
                    } else {
                        ViolationKind::CoherenceVacillateAdopt
                    },
                    round: Some(term.0),
                    detail: format!(
                        "{p0} held ({}, {}) but {p} held ({}, {}) in {term}",
                        o0.confidence, o0.value, o.confidence, o.value
                    ),
                });
            }
        }
    }
    violations
}

/// Checks that all committed values across the whole run agree — the
/// consensus-level consequence of Leader Completeness + State Machine
/// Safety that the paper's Lemma 6 leans on. The first commit in process
/// then term order sets the value the others are held to.
pub fn check_commit_agreement(outcomes: &[TermOutcome]) -> Vec<Violation> {
    let commits = || {
        outcomes
            .iter()
            .filter(|o| o.outcome.confidence == Confidence::Commit)
    };
    let Some(first) = commits().min_by_key(|o| (o.process, o.term)) else {
        return Vec::new();
    };
    let (p0, t0, v0) = (first.process, first.term, first.outcome.value);
    let mut found: Vec<_> = commits()
        .filter(|o| o.outcome.value != v0)
        .map(|o| {
            let (p, t, v) = (o.process, o.term, o.outcome.value);
            let violation = Violation {
                kind: ViolationKind::Agreement,
                round: None,
                detail: format!("{p0} committed {v0} in {t0} but {p} committed {v} in {t}"),
            };
            ((p, t), violation)
        })
        .collect();
    found.sort_unstable_by_key(|&(at, _)| at);
    found.into_iter().map(|(_, v)| v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vt(term: u64, confidence: Confidence, value: u64) -> RaftEvent {
        RaftEvent::VacTransition {
            term: Term(term),
            confidence,
            value,
        }
    }

    #[test]
    fn fold_keeps_highest_confidence() {
        let events = [vec![
            vt(1, Confidence::Vacillate, 5),
            vt(1, Confidence::Adopt, 7),
            vt(1, Confidence::Commit, 7),
            vt(2, Confidence::Vacillate, 7),
        ]];
        let outcomes: Vec<_> = per_term_outcomes(&events)
            .into_iter()
            .map(|o| (o.term, o.outcome))
            .collect();
        assert_eq!(
            outcomes,
            [
                (Term(1), VacOutcome::commit(7)),
                (Term(2), VacOutcome::vacillate(7))
            ]
        );
    }

    #[test]
    fn coherent_terms_pass() {
        let v = check_vac_coherence(&per_term_outcomes(&[
            [vt(1, Confidence::Commit, 7)],
            [vt(1, Confidence::Adopt, 7)],
            [vt(1, Confidence::Vacillate, 3)],
        ]));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn conflicting_adopts_flagged() {
        let v = check_vac_coherence(&per_term_outcomes(&[
            [vt(1, Confidence::Adopt, 7)],
            [vt(1, Confidence::Adopt, 8)],
        ]));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::CoherenceVacillateAdopt);
    }

    #[test]
    fn adopt_conflicting_with_commit_flagged() {
        let v = check_vac_coherence(&per_term_outcomes(&[
            [vt(2, Confidence::Commit, 7)],
            [vt(2, Confidence::Adopt, 8)],
        ]));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::CoherenceAdoptCommit);
    }

    #[test]
    fn cross_term_commit_disagreement_flagged() {
        let v = check_commit_agreement(&per_term_outcomes(&[
            [vt(1, Confidence::Commit, 7)],
            [vt(3, Confidence::Commit, 9)],
        ]));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::Agreement);
    }

    #[test]
    fn coherence_and_commit_agreement_texts_are_pinned() {
        // Written into failure artifacts, so pinned as first reported.
        // p1's stream goes back to T1 after T3, as an amnesiac restart
        // leaves it; p2 adopts twice in T1 (the later record wins) and
        // drops back to adopt after committing T4 (the commit stands).
        let events = [
            vec![
                vt(1, Confidence::Vacillate, 5),
                vt(1, Confidence::Adopt, 7),
                vt(2, Confidence::Vacillate, 7),
                vt(2, Confidence::Adopt, 7),
                vt(2, Confidence::Commit, 7),
                vt(4, Confidence::Adopt, 9),
            ],
            vec![
                vt(1, Confidence::Adopt, 8),
                vt(2, Confidence::Adopt, 6),
                vt(3, Confidence::Commit, 3),
                vt(1, Confidence::Vacillate, 1),
            ],
            vec![
                vt(1, Confidence::Adopt, 8),
                vt(1, Confidence::Adopt, 7),
                vt(2, Confidence::Adopt, 7),
                vt(4, Confidence::Commit, 9),
                vt(4, Confidence::Adopt, 2),
            ],
        ];
        let outcomes = per_term_outcomes(&events);
        let pinned = |violations: Vec<Violation>| -> Vec<(ViolationKind, Option<u64>, String)> {
            violations.into_iter().map(|v| (v.kind, v.round, v.detail)).collect()
        };
        assert_eq!(
            pinned(check_vac_coherence(&outcomes)),
            [
                (
                    ViolationKind::CoherenceVacillateAdopt,
                    Some(1),
                    "p0 held (A, 7) but p1 held (A, 8) in T1".to_string()
                ),
                (
                    ViolationKind::CoherenceAdoptCommit,
                    Some(2),
                    "p0 held (C, 7) but p1 held (A, 6) in T2".to_string()
                ),
            ]
        );
        assert_eq!(
            pinned(check_commit_agreement(&outcomes)),
            [
                (
                    ViolationKind::Agreement,
                    None,
                    "p0 committed 7 in T2 but p1 committed 3 in T3".to_string()
                ),
                (
                    ViolationKind::Agreement,
                    None,
                    "p0 committed 7 in T2 but p2 committed 9 in T4".to_string()
                ),
            ]
        );
    }

    #[test]
    fn reconciliator_count() {
        let events = vec![
            RaftEvent::ElectionStarted { term: Term(1) },
            vt(1, Confidence::Vacillate, 0),
            RaftEvent::ElectionStarted { term: Term(2) },
        ];
        assert_eq!(reconciliator_invocations(&events), 2);
    }
}
