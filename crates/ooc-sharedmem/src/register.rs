//! Linearizable registers and collects.

use std::sync::{PoisonError, RwLock};

/// A multi-writer multi-reader atomic register.
///
/// A `std::sync::RwLock` around a value is linearizable (each read and
/// write is a critical section), which is all the theory asks of an
/// atomic register; the algorithms built on top are what this crate is
/// about. A lock poisoned by a panicking thread still yields its value:
/// a register has no invariant a half-finished write could break.
#[derive(Debug, Default)]
pub struct AtomicRegister<T> {
    cell: RwLock<Option<T>>,
}

impl<T: Clone> AtomicRegister<T> {
    /// A register holding `⊥`.
    pub fn new() -> Self {
        AtomicRegister {
            cell: RwLock::new(None),
        }
    }

    /// Reads the register (`None` = `⊥`).
    pub fn read(&self) -> Option<T> {
        self.cell
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Writes the register.
    pub fn write(&self, value: T) {
        *self.cell.write().unwrap_or_else(PoisonError::into_inner) = Some(value);
    }

    /// Writes only if the register still holds `⊥`; returns the winner's
    /// value either way. (A convenience for conciliator tests; not used
    /// by the register-only algorithms.)
    pub fn write_if_empty(&self, value: T) -> T {
        let mut cell = self.cell.write().unwrap_or_else(PoisonError::into_inner);
        match &*cell {
            Some(v) => v.clone(),
            None => {
                *cell = Some(value.clone());
                value
            }
        }
    }
}

/// A collect object: one single-writer slot per process, plus a
/// wait-free `collect` that reads all slots one at a time.
#[derive(Debug)]
pub struct Collect<T> {
    slots: Vec<AtomicRegister<T>>,
}

impl<T: Clone> Collect<T> {
    /// A collect over `n` slots, all `⊥`.
    pub fn new(n: usize) -> Self {
        Collect {
            slots: (0..n).map(|_| AtomicRegister::new()).collect(),
        }
    }

    /// Number of slots.
    pub fn n(&self) -> usize {
        self.slots.len()
    }

    /// Writes process `i`'s slot.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn update(&self, i: usize, value: T) {
        self.slots[i].write(value);
    }

    /// Reads every slot (a *collect*, not a snapshot: slots are read one
    /// by one, which is exactly what the register-based AC needs).
    pub fn collect(&self) -> Vec<Option<T>> {
        self.slots.iter().map(|s| s.read()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn register_read_write() {
        let r = AtomicRegister::new();
        assert_eq!(r.read(), None);
        r.write(5u64);
        assert_eq!(r.read(), Some(5));
        r.write(7);
        assert_eq!(r.read(), Some(7));
    }

    #[test]
    fn write_if_empty_keeps_first() {
        let r = AtomicRegister::new();
        assert_eq!(r.write_if_empty(1u64), 1);
        assert_eq!(r.write_if_empty(2), 1);
        assert_eq!(r.read(), Some(1));
    }

    #[test]
    fn collect_sees_updates() {
        let c = Collect::new(3);
        c.update(1, 9u64);
        assert_eq!(c.collect(), vec![None, Some(9), None]);
        assert_eq!(c.n(), 3);
    }

    #[test]
    fn concurrent_writers_leave_some_value() {
        let r = Arc::new(AtomicRegister::new());
        std::thread::scope(|s| {
            for i in 0..8u64 {
                let r = Arc::clone(&r);
                s.spawn(move || r.write(i));
            }
        });
        assert!(r.read().is_some_and(|v| v < 8));
    }

    #[test]
    fn concurrent_write_if_empty_has_single_winner() {
        for _ in 0..50 {
            let r = Arc::new(AtomicRegister::new());
            let results: Vec<u64> = std::thread::scope(|s| {
                (0..4u64)
                    .map(|i| {
                        let r = Arc::clone(&r);
                        s.spawn(move || r.write_if_empty(i))
                    })
                    .collect::<Vec<_>>()
                    .into_iter()
                    .map(|h| h.join().unwrap())
                    .collect()
            });
            let winner = r.read().unwrap();
            assert!(results.iter().all(|&v| v == winner), "{results:?}");
        }
    }
}
