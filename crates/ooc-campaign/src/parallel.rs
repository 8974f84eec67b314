//! Deterministic scoped-thread execution of campaign grids.
//!
//! The executor extends the workspace determinism contract across
//! threads: running a grid with `N` workers produces **byte-identical**
//! results to running it with one. Three properties make that true:
//!
//! 1. **Seed independence.** Every [`FailureArtifact`] carries its own
//!    seed and full configuration, so [`run_artifact`] is a pure
//!    function of the artifact — no RNG, clock or ambient state is
//!    shared between combos, and *which worker* runs a combo cannot
//!    change its outcome.
//! 2. **Scheduling-free work claiming.** Workers claim grid indices from
//!    a single atomic counter. The claim order is racy, but the index a
//!    combo was claimed under is not — it is the combo's position in the
//!    deterministic grid.
//! 3. **Stable-order merge.** Results are reassembled by grid index
//!    before being returned, so callers observe exactly the sequence a
//!    serial sweep would have produced.
//!
//! This module is on `ooc-lint`'s deterministic list (see
//! `DETERMINISTIC_MODULES`): no `HashMap`, no ambient RNG, no wall
//! clock. The single host-environment probe — `available_parallelism`
//! for the CLI's `--jobs` default — carries a reasoned suppression and
//! only ever influences *how many* workers run, never what they compute.
//!
//! Campaign runs record no trace
//! ([`CAMPAIGN_TRACE_CAPACITY`](crate::runner::CAMPAIGN_TRACE_CAPACITY)
//! is zero), so a sweep's memory footprint stays flat in the combo count
//! instead of accumulating every run's event history. The algorithm
//! harnesses capture in full by default. Sweep throughput is tracked by
//! `ooc-bench`'s T15 table.

use crate::artifact::FailureArtifact;
use crate::runner::{run_artifact, CampaignOutcome};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The default worker count for `--jobs`: the host's available
/// parallelism, or 1 if it cannot be determined.
///
/// The value never affects results (see the module docs), only wall
/// time, so querying the host here does not breach the determinism
/// contract.
pub fn default_jobs() -> usize {
    // ooc-lint::allow(determinism/host-env, "worker-count default only; outputs are byte-identical for any jobs value")
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs every artifact and returns their outcomes **in grid order**,
/// using up to `jobs` worker threads.
///
/// `jobs` is clamped to `1..=artifacts.len()`; `jobs <= 1` runs inline
/// with no thread machinery at all. The returned vector is byte-for-byte
/// independent of `jobs` (wall-clock fields in
/// [`BudgetSpent`](ooc_core::BudgetSpent) excepted — those measure the
/// host and are excluded from every serialized report).
pub fn run_all(artifacts: &[FailureArtifact], jobs: usize) -> Vec<CampaignOutcome> {
    let jobs = jobs.clamp(1, artifacts.len().max(1));
    if jobs == 1 {
        return artifacts.iter().map(run_artifact).collect();
    }
    let next = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, CampaignOutcome)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        // Dynamic claiming balances the uneven per-combo
                        // cost (a Raft partition run dwarfs a clean
                        // Ben-Or one); determinism is unaffected because
                        // the outcome is keyed by the claimed index.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= artifacts.len() {
                            break;
                        }
                        // ooc-lint::allow(determinism/transitive-reach, "runner reads the wall clock for duration reporting and budget guards only; the outcome is pure in the artifact")
                        mine.push((i, run_artifact(&artifacts[i])));
                    }
                    mine
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("campaign worker panicked"))
            .collect()
    });
    // Stable-order merge: indices are unique, so this sort has exactly
    // one result regardless of how work was interleaved above.
    indexed.sort_by_key(|(i, _)| *i);
    debug_assert_eq!(indexed.len(), artifacts.len());
    indexed.into_iter().map(|(_, out)| out).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::Algorithm;
    use crate::sweep::grid;
    use ooc_core::checker::Violation;

    /// Everything in a [`CampaignOutcome`] except the wall-clock field,
    /// which measures the host rather than the run.
    fn deterministic_view(
        out: &CampaignOutcome,
    ) -> (&[Violation], usize, usize, u64, u64, u64, u64, &str) {
        (
            &out.violations,
            out.decided,
            out.undecided,
            out.messages,
            out.spent.rounds,
            out.spent.ticks,
            out.spent.events,
            &out.stop,
        )
    }

    #[test]
    fn multi_thread_outcomes_match_single_thread() {
        let artifacts = grid(Algorithm::BenOr, 24);
        let serial = run_all(&artifacts, 1);
        for jobs in [2, 4] {
            let parallel = run_all(&artifacts, jobs);
            assert_eq!(parallel.len(), serial.len());
            for (i, (s, p)) in serial.iter().zip(parallel.iter()).enumerate() {
                assert_eq!(
                    deterministic_view(s),
                    deterministic_view(p),
                    "combo {i} diverged at jobs={jobs}"
                );
            }
        }
    }

    #[test]
    fn jobs_is_clamped() {
        let artifacts = grid(Algorithm::BenOr, 2);
        // 0 behaves as 1; a worker count far beyond the grid is fine.
        assert_eq!(run_all(&artifacts, 0).len(), artifacts.len());
        assert_eq!(run_all(&artifacts, 64).len(), artifacts.len());
        // Empty grids run nowhere and return nothing.
        assert!(run_all(&[], 4).is_empty());
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }
}
