//! # ooc-sharedmem
//!
//! The shared-memory substrate of Aspnes' framework ("A modular approach
//! to shared-memory consensus", which the paper builds on as reference
//! \[2\]). The paper's message-passing decompositions have shared-memory
//! ancestors; this crate implements those on their native model:
//!
//! * [`AtomicRegister`] / [`Collect`] — linearizable multi-reader
//!   registers and the one-slot-per-writer collect object.
//! * [`RegisterAc`] — the classic wait-free, register-based adopt-commit
//!   (Gafni '98-style, two announce/flag phases).
//! * [`ProbWriteConciliator`] — Aspnes' probabilistic-write conciliator:
//!   a single shared register written with small probability per step, so
//!   with constant probability exactly one value lands first.
//! * [`SharedConsensus`] — the paper's Algorithm 2 loop
//!   (`AC`; on adopt → conciliator; on commit → decide) over those
//!   objects, runnable from real threads.
//! * [`RegisterVac`] / [`VacConsensus`] — the §5 two-AC VAC construction
//!   on registers, and the paper's Algorithm 1 (VAC + coin-flip
//!   reconciliator) in shared memory.
//!
//! Unlike the simulator crates, executions here are genuinely concurrent
//! (threads + `std::sync` locks), so tests assert safety on every
//! observed execution rather than replaying a seed.
//!
//! ## Quick start
//!
//! ```
//! use ooc_sharedmem::SharedConsensus;
//! use std::sync::Arc;
//!
//! let consensus = Arc::new(SharedConsensus::new(3));
//! let decisions: Vec<u64> = std::thread::scope(|s| {
//!     (0..3)
//!         .map(|i| {
//!             let c = Arc::clone(&consensus);
//!             s.spawn(move || c.propose(i, (i as u64) * 10, 42 + i as u64))
//!         })
//!         .collect::<Vec<_>>()
//!         .into_iter()
//!         .map(|h| h.join().unwrap())
//!         .collect()
//! });
//! assert!(decisions.windows(2).all(|w| w[0] == w[1]), "agreement");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adopt_commit;
pub mod conciliator;
pub mod consensus;
pub mod register;
pub mod vac;

pub use adopt_commit::RegisterAc;
pub use conciliator::ProbWriteConciliator;
pub use consensus::SharedConsensus;
pub use register::{AtomicRegister, Collect};
pub use vac::{RegisterVac, VacConsensus};
