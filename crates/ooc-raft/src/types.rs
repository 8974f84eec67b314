//! Core Raft value types.

use std::fmt;

/// A Raft term (the paper maps terms to template rounds, §4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Term(pub u64);

impl Term {
    /// The pre-election term.
    pub const ZERO: Term = Term(0);

    /// The next term.
    pub fn next(self) -> Term {
        Term(self.0 + 1)
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// A 1-based log index; `LogIndex(0)` means "before the first entry".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LogIndex(pub u64);

impl LogIndex {
    /// The sentinel before the first entry.
    pub const ZERO: LogIndex = LogIndex(0);

    /// The next index.
    pub fn next(self) -> LogIndex {
        LogIndex(self.0 + 1)
    }

    /// The previous index, saturating at [`LogIndex::ZERO`].
    pub fn prev(self) -> LogIndex {
        LogIndex(self.0.saturating_sub(1))
    }
}

impl fmt::Display for LogIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// The single command of the paper's consensus reduction (§4.3):
/// `D&S(v)` — *decide-and-stop-applying-to-state-machine*.
///
/// Applying it makes the state machine decide `v` and ignore every later
/// command, so each processor decides the value of the **first** entry in
/// its log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DecideAndStop(pub u64);

impl fmt::Display for DecideAndStop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "D&S({})", self.0)
    }
}

/// One log entry: a command plus the term in which the leader received it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LogEntry {
    /// The term the entry was created in.
    pub term: Term,
    /// The replicated command.
    pub command: DecideAndStop,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn term_ordering_and_next() {
        assert!(Term(1) < Term(2));
        assert_eq!(Term(1).next(), Term(2));
    }

    #[test]
    fn index_arithmetic_saturates() {
        assert_eq!(LogIndex(0).prev(), LogIndex(0));
        assert_eq!(LogIndex(3).prev(), LogIndex(2));
        assert_eq!(LogIndex(3).next(), LogIndex(4));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Term(3).to_string(), "T3");
        assert_eq!(LogIndex(2).to_string(), "#2");
        assert_eq!(DecideAndStop(7).to_string(), "D&S(7)");
    }
}
