//! Identifier newtypes.

use std::fmt;

/// Identifies a process in a simulated network.
///
/// Processes are numbered densely from `0` to `n - 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(pub usize);

impl ProcessId {
    /// Returns the dense index of this process.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<usize> for ProcessId {
    fn from(i: usize) -> Self {
        ProcessId(i)
    }
}

/// Handle for a pending timer, returned by [`Context::set_timer`].
///
/// [`Context::set_timer`]: crate::Context::set_timer
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(pub u64);

impl fmt::Display for TimerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "timer#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_id_roundtrip() {
        let p: ProcessId = 3usize.into();
        assert_eq!(p.index(), 3);
        assert_eq!(p.to_string(), "p3");
    }

    #[test]
    fn ids_are_ordered() {
        assert!(ProcessId(1) < ProcessId(2));
        assert!(TimerId(1) < TimerId(2));
    }
}
