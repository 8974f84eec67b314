//! The replicated log, with the operations the Log Matching property
//! relies on.

use crate::types::{LogEntry, LogIndex, Term};

/// An indexed list of [`LogEntry`]s, 1-based as in the paper
/// ("indexed continuously from 1, i.e., 1, 2, 3, …").
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RaftLog {
    entries: Vec<LogEntry>,
}

impl RaftLog {
    /// An empty log.
    pub fn new() -> Self {
        RaftLog::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Index of the last entry ([`LogIndex::ZERO`] when empty).
    pub fn last_index(&self) -> LogIndex {
        LogIndex(self.entries.len() as u64)
    }

    /// Term of the last entry ([`Term::ZERO`] when empty).
    pub fn last_term(&self) -> Term {
        self.entries.last().map(|e| e.term).unwrap_or(Term::ZERO)
    }

    /// The entry at a 1-based index.
    pub fn get(&self, index: LogIndex) -> Option<&LogEntry> {
        if index == LogIndex::ZERO {
            return None;
        }
        self.entries.get(index.0 as usize - 1)
    }

    /// Term of the entry at `index`; [`Term::ZERO`] for index 0, `None`
    /// beyond the end.
    pub fn term_at(&self, index: LogIndex) -> Option<Term> {
        if index == LogIndex::ZERO {
            return Some(Term::ZERO);
        }
        self.get(index).map(|e| e.term)
    }

    /// Whether this log contains an entry matching `(index, term)` — the
    /// consistency check of AppendEntries.
    pub fn matches(&self, index: LogIndex, term: Term) -> bool {
        self.term_at(index) == Some(term)
    }

    /// Appends one entry, returning its index.
    pub fn push(&mut self, entry: LogEntry) -> LogIndex {
        self.entries.push(entry);
        self.last_index()
    }

    /// Entries from `from` (1-based, inclusive) to the end, capped at
    /// `max` entries.
    pub fn suffix(&self, from: LogIndex, max: usize) -> Vec<LogEntry> {
        if from == LogIndex::ZERO {
            return Vec::new();
        }
        let start = (from.0 as usize - 1).min(self.entries.len());
        let end = (start + max).min(self.entries.len());
        self.entries[start..end].to_vec()
    }

    /// Installs `entries` starting right after `prev`: skips duplicates,
    /// deletes conflicting suffixes ("append new entries, delete
    /// conflicting ones, if deleted delete all entries that follow as
    /// well" — paper Algorithm 9). Returns the index of the last entry
    /// covered by this append.
    pub fn install(&mut self, prev: LogIndex, entries: &[LogEntry]) -> LogIndex {
        let mut index = prev;
        for entry in entries {
            index = index.next();
            match self.term_at(index) {
                Some(t) if t == entry.term => {
                    // Already have it (duplicate delivery); keep going.
                }
                Some(_) => {
                    // Conflict: truncate from here and append.
                    self.entries.truncate(index.0 as usize - 1);
                    self.entries.push(*entry);
                }
                None => {
                    self.entries.push(*entry);
                }
            }
        }
        index
    }

    /// All entries, for whole-log inspections.
    pub fn entries(&self) -> &[LogEntry] {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::DecideAndStop;

    fn e(term: u64, v: u64) -> LogEntry {
        LogEntry {
            term: Term(term),
            command: DecideAndStop(v),
        }
    }

    #[test]
    fn empty_log_boundaries() {
        let log = RaftLog::new();
        assert!(log.is_empty());
        assert_eq!(log.last_index(), LogIndex::ZERO);
        assert_eq!(log.last_term(), Term::ZERO);
        assert_eq!(log.term_at(LogIndex::ZERO), Some(Term::ZERO));
        assert!(log.matches(LogIndex::ZERO, Term::ZERO));
        assert!(!log.matches(LogIndex(1), Term(1)));
    }

    #[test]
    fn push_and_get_are_one_based() {
        let mut log = RaftLog::new();
        assert_eq!(log.push(e(1, 10)), LogIndex(1));
        assert_eq!(log.push(e(1, 20)), LogIndex(2));
        assert_eq!(log.get(LogIndex(1)).unwrap().command.0, 10);
        assert_eq!(log.get(LogIndex(2)).unwrap().command.0, 20);
        assert!(log.get(LogIndex(3)).is_none());
    }

    #[test]
    fn suffix_respects_bounds_and_cap() {
        let mut log = RaftLog::new();
        for i in 0..5 {
            log.push(e(1, i));
        }
        assert_eq!(log.suffix(LogIndex(2), 2).len(), 2);
        assert_eq!(log.suffix(LogIndex(2), 100).len(), 4);
        assert_eq!(log.suffix(LogIndex(9), 10).len(), 0);
        assert_eq!(log.suffix(LogIndex::ZERO, 10).len(), 0);
    }

    #[test]
    fn install_appends_fresh_entries() {
        let mut log = RaftLog::new();
        let last = log.install(LogIndex::ZERO, &[e(1, 1), e(1, 2)]);
        assert_eq!(last, LogIndex(2));
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn install_skips_duplicates() {
        let mut log = RaftLog::new();
        log.push(e(1, 1));
        log.push(e(1, 2));
        let last = log.install(LogIndex::ZERO, &[e(1, 1), e(1, 2)]);
        assert_eq!(last, LogIndex(2));
        assert_eq!(log.len(), 2, "no duplication");
    }

    #[test]
    fn install_truncates_conflicts_and_suffix() {
        let mut log = RaftLog::new();
        log.push(e(1, 1));
        log.push(e(1, 2));
        log.push(e(1, 3));
        // New leader overwrites index 2 with a term-2 entry.
        let last = log.install(LogIndex(1), &[e(2, 9)]);
        assert_eq!(last, LogIndex(2));
        assert_eq!(log.len(), 2, "conflicting suffix removed");
        assert_eq!(log.get(LogIndex(2)).unwrap().term, Term(2));
        assert_eq!(log.get(LogIndex(1)).unwrap().term, Term(1), "prefix kept");
    }

    #[test]
    fn matches_checks_index_and_term() {
        let mut log = RaftLog::new();
        log.push(e(3, 1));
        assert!(log.matches(LogIndex(1), Term(3)));
        assert!(!log.matches(LogIndex(1), Term(2)));
        assert!(!log.matches(LogIndex(2), Term(3)));
    }
}
