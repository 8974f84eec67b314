//! Crash/restart fault injection.

use crate::time::SimTime;
use crate::ProcessId;

/// When a process should crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashSpec {
    /// Crash at the given simulated instant.
    AtTime(SimTime),
    /// Crash immediately after handling the given number of events
    /// (start / message / timer callbacks), counted per process.
    ///
    /// Crash atomicity: the threshold is checked only *after* the
    /// crossing invocation's effects have been applied, so the crashing
    /// event's outgoing messages, timer updates, decision **and storage
    /// writes** all land before the crash. Handler invocations are
    /// atomic — a crash never tears one in half. Storage-fault semantics
    /// ([`StoragePolicy`](crate::StoragePolicy)) are defined relative to
    /// this boundary: the crash's storage loss applies to a store that
    /// already contains the final invocation's writes.
    AfterEvents(u64),
}

/// A deterministic plan of crashes, restarts and recoveries.
///
/// The plan is part of the run's identity: re-running with the same plan and
/// seed reproduces the execution exactly.
///
/// ```
/// use ooc_simnet::{FaultPlan, ProcessId, SimTime};
/// let plan = FaultPlan::new()
///     .crash_at(ProcessId(2), SimTime::from_ticks(50))
///     .restart_at(ProcessId(2), SimTime::from_ticks(200));
/// assert_eq!(plan.crashes().len(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    crashes: Vec<(ProcessId, CrashSpec)>,
    restarts: Vec<(ProcessId, SimTime)>,
}

impl FaultPlan {
    /// An empty plan: no faults.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Schedules `p` to crash at time `t`.
    pub fn crash_at(mut self, p: ProcessId, t: SimTime) -> Self {
        self.crashes.push((p, CrashSpec::AtTime(t)));
        self
    }

    /// Schedules `p` to crash after it has handled `events` callbacks.
    pub fn crash_after_events(mut self, p: ProcessId, events: u64) -> Self {
        self.crashes.push((p, CrashSpec::AfterEvents(events)));
        self
    }

    /// Schedules `p` to restart (recover) at time `t`. A restart of a
    /// process that is not crashed at `t` is a no-op.
    pub fn restart_at(mut self, p: ProcessId, t: SimTime) -> Self {
        self.restarts.push((p, t));
        self
    }

    /// Crashes the last `count` processes of an `n`-process network at the
    /// given time — the standard "t crash failures" workload shape.
    pub fn crash_tail(mut self, n: usize, count: usize, t: SimTime) -> Self {
        let count = count.min(n);
        for i in (n - count)..n {
            self.crashes.push((ProcessId(i), CrashSpec::AtTime(t)));
        }
        self
    }

    /// Scheduled crashes.
    pub fn crashes(&self) -> &[(ProcessId, CrashSpec)] {
        &self.crashes
    }

    /// Scheduled restarts.
    pub fn restarts(&self) -> &[(ProcessId, SimTime)] {
        &self.restarts
    }

    /// The event-count crash threshold for `p`, if one is scheduled.
    pub fn event_crash_threshold(&self, p: ProcessId) -> Option<u64> {
        self.crashes
            .iter()
            .filter_map(|&(q, spec)| match spec {
                CrashSpec::AfterEvents(k) if q == p => Some(k),
                _ => None,
            })
            .min()
    }

    /// `true` when the plan schedules nothing at all.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty() && self.restarts.is_empty()
    }

    /// Asserts that this plan fits the **crash-stop** failure model:
    /// crashed processes never come back.
    ///
    /// Protocols analyzed under crash-stop (Ben-Or, Phase-King) have no
    /// recovery story — their `on_restart` default would silently resume
    /// with full pre-crash state, which is a model violation, not a
    /// scenario. Harnesses for such protocols call this before running.
    ///
    /// # Panics
    /// Panics when the plan contains restarts, naming `protocol`.
    pub fn assert_crash_stop(&self, protocol: &str) {
        assert!(
            self.restarts.is_empty(),
            "{protocol} is a crash-stop protocol: FaultPlan restarts are not \
             supported (a restarted process would silently keep its full \
             pre-crash state); remove the restarts or use a crash-recovery \
             protocol such as Raft"
        );
    }

    /// Total number of scheduled crashes.
    pub fn crash_count(&self) -> usize {
        self.crashes.len()
    }

    /// Checks the plan for restarts that can never take effect.
    ///
    /// Rejected shapes:
    ///
    /// * a restart for a process with **no crash scheduled at all** — the
    ///   engine's restart handler would be invoked on a live process (a
    ///   silent no-op today, pinned by tests, but always a plan bug);
    /// * a restart scheduled **strictly before** every time-scheduled crash
    ///   of its process, with no event-count crash that could fire earlier.
    ///
    /// A restart at the *same tick* as a crash stays valid: the engine
    /// schedules crash events before restarts, so the tie resolves
    /// crash-first and the process ends the tick alive (pinned by
    /// `overlapping_crash_and_restart_at_same_tick_are_both_kept`).
    /// Restarts paired with [`CrashSpec::AfterEvents`] are always accepted
    /// — the crash tick is not knowable from the plan alone.
    ///
    /// [`Sim`](crate::Sim) construction calls this and panics on `Err`, so
    /// invalid plans fail fast instead of silently dropping their faults.
    pub fn validate(&self) -> Result<(), String> {
        for &(p, t) in &self.restarts {
            let mut has_crash = false;
            let mut has_event_crash = false;
            let mut earliest_at_time: Option<SimTime> = None;
            for &(q, spec) in &self.crashes {
                if q != p {
                    continue;
                }
                has_crash = true;
                match spec {
                    CrashSpec::AfterEvents(_) => has_event_crash = true,
                    CrashSpec::AtTime(ct) => {
                        earliest_at_time =
                            Some(earliest_at_time.map_or(ct, |cur: SimTime| cur.min(ct)));
                    }
                }
            }
            if !has_crash {
                return Err(format!(
                    "FaultPlan: restart of process {} at {t} but no crash is \
                     scheduled for it — the restart could never take effect",
                    p.index()
                ));
            }
            if !has_event_crash {
                if let Some(ct) = earliest_at_time {
                    if t < ct {
                        return Err(format!(
                            "FaultPlan: restart of process {} at {t} precedes its \
                             earliest crash at {ct} — the restart could never take \
                             effect",
                            p.index()
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    // ---- shrink hooks -------------------------------------------------
    //
    // The campaign engine's delta-debugging shrinker works by deleting one
    // scheduled fault at a time and re-running; these return the mutated
    // plan without disturbing the order of the surviving entries (order is
    // part of a run's identity through event sequence numbers).

    /// A copy of the plan with crash number `idx` removed; `None` when
    /// `idx` is out of range.
    ///
    /// Restarts orphaned by the removal (their process no longer has any
    /// scheduled crash) are pruned too, so shrink candidates stay
    /// [valid](FaultPlan::validate) by construction.
    pub fn without_crash(&self, idx: usize) -> Option<FaultPlan> {
        if idx >= self.crashes.len() {
            return None;
        }
        let mut plan = self.clone();
        plan.crashes.remove(idx);
        plan.restarts
            .retain(|&(p, _)| plan.crashes.iter().any(|&(q, _)| q == p));
        Some(plan)
    }

    /// A copy of the plan with restart number `idx` removed; `None` when
    /// `idx` is out of range.
    pub fn without_restart(&self, idx: usize) -> Option<FaultPlan> {
        if idx >= self.restarts.len() {
            return None;
        }
        let mut plan = self.clone();
        plan.restarts.remove(idx);
        Some(plan)
    }

    /// A copy of the plan with every fault aimed at a process id `>= n`
    /// removed — used when the shrinker reduces the network size.
    pub fn restricted_to(&self, n: usize) -> FaultPlan {
        FaultPlan {
            crashes: self
                .crashes
                .iter()
                .copied()
                .filter(|(p, _)| p.index() < n)
                .collect(),
            restarts: self
                .restarts
                .iter()
                .copied()
                .filter(|(p, _)| p.index() < n)
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_tail_targets_last_processes() {
        let plan = FaultPlan::new().crash_tail(5, 2, SimTime::from_ticks(10));
        let ids: Vec<_> = plan.crashes().iter().map(|&(p, _)| p.index()).collect();
        assert_eq!(ids, vec![3, 4]);
    }

    #[test]
    fn crash_tail_clamps_count() {
        let plan = FaultPlan::new().crash_tail(3, 99, SimTime::ZERO);
        assert_eq!(plan.crashes().len(), 3);
    }

    #[test]
    fn event_threshold_takes_minimum() {
        let plan = FaultPlan::new()
            .crash_after_events(ProcessId(1), 9)
            .crash_after_events(ProcessId(1), 4);
        assert_eq!(plan.event_crash_threshold(ProcessId(1)), Some(4));
        assert_eq!(plan.event_crash_threshold(ProcessId(2)), None);
    }

    #[test]
    fn crash_tail_with_zero_count_is_empty() {
        let plan = FaultPlan::new().crash_tail(5, 0, SimTime::from_ticks(10));
        assert!(plan.crashes().is_empty());
        assert!(plan.is_empty());
    }

    #[test]
    fn crash_tail_with_zero_n_is_empty() {
        // count > n == 0 must clamp to nothing, not underflow in `n - count`.
        let plan = FaultPlan::new().crash_tail(0, 3, SimTime::ZERO);
        assert!(plan.crashes().is_empty());
    }

    #[test]
    fn overlapping_crash_and_restart_at_same_tick_are_both_kept() {
        // The plan records both; the engine resolves the tie (crash events
        // are scheduled before restarts, so the process ends up alive).
        let t = SimTime::from_ticks(7);
        let plan = FaultPlan::new()
            .crash_at(ProcessId(1), t)
            .restart_at(ProcessId(1), t);
        assert_eq!(plan.crashes().len(), 1);
        assert_eq!(plan.restarts().len(), 1);
        assert_eq!(plan.restarts()[0], (ProcessId(1), t));
    }

    #[test]
    fn without_crash_removes_exactly_one() {
        let plan = FaultPlan::new().crash_tail(4, 3, SimTime::from_ticks(5));
        let shrunk = plan.without_crash(1).unwrap();
        assert_eq!(shrunk.crash_count(), 2);
        let ids: Vec<_> = shrunk.crashes().iter().map(|&(p, _)| p.index()).collect();
        assert_eq!(ids, vec![1, 3]);
        assert!(plan.without_crash(3).is_none());
    }

    #[test]
    fn without_restart_removes_exactly_one() {
        let plan = FaultPlan::new()
            .restart_at(ProcessId(0), SimTime::from_ticks(3))
            .restart_at(ProcessId(1), SimTime::from_ticks(4));
        let shrunk = plan.without_restart(0).unwrap();
        assert_eq!(shrunk.restarts(), &[(ProcessId(1), SimTime::from_ticks(4))]);
        assert!(plan.without_restart(2).is_none());
    }

    #[test]
    fn restricted_to_drops_out_of_range_processes() {
        let plan = FaultPlan::new()
            .crash_at(ProcessId(1), SimTime::from_ticks(5))
            .crash_at(ProcessId(4), SimTime::from_ticks(5))
            .restart_at(ProcessId(4), SimTime::from_ticks(9));
        let small = plan.restricted_to(3);
        assert_eq!(small.crash_count(), 1);
        assert!(small.restarts().is_empty());
    }

    #[test]
    fn assert_crash_stop_accepts_crash_only_plans() {
        FaultPlan::new()
            .crash_at(ProcessId(0), SimTime::from_ticks(5))
            .assert_crash_stop("test-protocol");
        FaultPlan::new().assert_crash_stop("test-protocol");
    }

    #[test]
    #[should_panic(expected = "crash-stop protocol")]
    fn assert_crash_stop_rejects_restarts() {
        FaultPlan::new()
            .crash_at(ProcessId(0), SimTime::from_ticks(5))
            .restart_at(ProcessId(0), SimTime::from_ticks(9))
            .assert_crash_stop("test-protocol");
    }

    #[test]
    fn validate_accepts_well_formed_plans() {
        FaultPlan::new().validate().unwrap();
        FaultPlan::new()
            .crash_at(ProcessId(0), SimTime::from_ticks(5))
            .restart_at(ProcessId(0), SimTime::from_ticks(9))
            .validate()
            .unwrap();
        // Same-tick crash+restart is pinned valid (engine resolves
        // crash-first; the process ends the tick alive).
        FaultPlan::new()
            .crash_at(ProcessId(0), SimTime::from_ticks(7))
            .restart_at(ProcessId(0), SimTime::from_ticks(7))
            .validate()
            .unwrap();
        // Event-count crashes have no knowable tick: any restart time is
        // accepted.
        FaultPlan::new()
            .crash_after_events(ProcessId(1), 3)
            .restart_at(ProcessId(1), SimTime::from_ticks(1))
            .validate()
            .unwrap();
    }

    #[test]
    fn validate_rejects_restart_without_any_crash() {
        let err = FaultPlan::new()
            .restart_at(ProcessId(2), SimTime::from_ticks(9))
            .validate()
            .unwrap_err();
        assert!(err.contains("no crash is"), "unexpected message: {err}");
        // A crash for a *different* process does not help.
        FaultPlan::new()
            .crash_at(ProcessId(0), SimTime::from_ticks(5))
            .restart_at(ProcessId(2), SimTime::from_ticks(9))
            .validate()
            .unwrap_err();
    }

    #[test]
    fn validate_rejects_restart_before_earliest_crash() {
        let err = FaultPlan::new()
            .crash_at(ProcessId(0), SimTime::from_ticks(10))
            .restart_at(ProcessId(0), SimTime::from_ticks(9))
            .validate()
            .unwrap_err();
        assert!(err.contains("precedes"), "unexpected message: {err}");
        // The *earliest* of several crashes is what counts.
        FaultPlan::new()
            .crash_at(ProcessId(0), SimTime::from_ticks(10))
            .crash_at(ProcessId(0), SimTime::from_ticks(4))
            .restart_at(ProcessId(0), SimTime::from_ticks(6))
            .validate()
            .unwrap();
    }

    #[test]
    fn without_crash_prunes_orphaned_restarts() {
        let plan = FaultPlan::new()
            .crash_at(ProcessId(0), SimTime::from_ticks(5))
            .crash_at(ProcessId(1), SimTime::from_ticks(5))
            .restart_at(ProcessId(0), SimTime::from_ticks(9))
            .restart_at(ProcessId(1), SimTime::from_ticks(9));
        // Removing p0's only crash also removes p0's restart.
        let shrunk = plan.without_crash(0).unwrap();
        assert_eq!(shrunk.crash_count(), 1);
        assert_eq!(shrunk.restarts(), &[(ProcessId(1), SimTime::from_ticks(9))]);
        shrunk.validate().unwrap();
        // With a second crash for p0, the restart survives.
        let two = FaultPlan::new()
            .crash_at(ProcessId(0), SimTime::from_ticks(5))
            .crash_after_events(ProcessId(0), 3)
            .restart_at(ProcessId(0), SimTime::from_ticks(9));
        let kept = two.without_crash(0).unwrap();
        assert_eq!(kept.restarts().len(), 1);
        kept.validate().unwrap();
    }

    #[test]
    fn builder_accumulates() {
        let plan = FaultPlan::new()
            .crash_at(ProcessId(0), SimTime::from_ticks(5))
            .restart_at(ProcessId(0), SimTime::from_ticks(9));
        assert_eq!(plan.crashes().len(), 1);
        assert_eq!(plan.restarts().len(), 1);
    }
}
