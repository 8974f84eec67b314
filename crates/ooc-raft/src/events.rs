//! Instrumentation events emitted by [`RaftNode`](crate::RaftNode).
//!
//! The harness-level checkers (election safety, leader completeness,
//! state-machine safety, and the paper's VAC coherence laws) are all
//! predicates over these per-node event streams.

use crate::types::{LogIndex, Term};
use ooc_core::Confidence;
use ooc_simnet::ProcessId;

/// One observable step of a node's execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaftEvent {
    /// The node converted to candidate and started an election —
    /// in the paper's decomposition, this *is* the reconciliator
    /// invocation (Algorithm 11: reset timer, update term).
    ElectionStarted {
        /// The new term.
        term: Term,
    },
    /// The node won an election.
    BecameLeader {
        /// The led term.
        term: Term,
    },
    /// The node stepped down after seeing a higher term.
    SteppedDown {
        /// The newer term observed.
        term: Term,
    },
    /// The node granted its vote — the observable write of `VotedFor`.
    ///
    /// The [`DurabilityChecker`](crate::DurabilityChecker) folds these
    /// per node: two grants to *different* candidates in one term mean
    /// the `VotedFor` record did not survive a crash.
    VoteGranted {
        /// The term the vote belongs to.
        term: Term,
        /// The candidate the vote went to.
        candidate: ProcessId,
    },
    /// The node's commit index advanced.
    Committed {
        /// The node's current term when the commit advanced.
        term: Term,
        /// The new commit index.
        index: LogIndex,
        /// Term of the entry at that index.
        entry_term: Term,
        /// Value of the entry at that index.
        value: u64,
    },
    /// The state machine applied an entry.
    Applied {
        /// The applied index.
        index: LogIndex,
        /// The applied value.
        value: u64,
    },
    /// The node's VAC view for a term changed (paper Algorithm 10 and the
    /// two follower-side amendments of §4.3).
    VacTransition {
        /// The term (= template round).
        term: Term,
        /// The new confidence.
        confidence: Confidence,
        /// The accompanying value (`log[lastLogIndex].value`).
        value: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_comparable() {
        let a = RaftEvent::BecameLeader { term: Term(1) };
        let b = RaftEvent::BecameLeader { term: Term(1) };
        assert_eq!(a, b);
    }
}
