//! State-adaptive adversaries.
//!
//! The adversary knowledge hierarchy the campaign layer sweeps over:
//!
//! 1. **Oblivious** — samples a [`NetworkConfig`] with no knowledge of the
//!    execution ([`NetworkAdversary`]).
//! 2. **Message-adaptive** — inspects payloads in flight and reorders,
//!    delays or drops them (any custom [`Adversary`]).
//! 3. **State-adaptive** — additionally reads live protocol observables
//!    (each process's round, phase, preference and decision) through a
//!    [`StateView`] and picks the worst next action against the *actual*
//!    execution. This is the strong-adversary model the paper's
//!    probabilistic claims are stated against: an adversary that sees the
//!    votes can keep them split far longer than one that guesses.
//!
//! State adversaries remain fully deterministic: the view is rebuilt by the
//! engine from [`Process::observe`](crate::Process::observe) snapshots at
//! deterministic points, and all randomness still flows through the run's
//! seeded RNG.

use crate::adversary::{Adversary, Decision, NetworkAdversary};
use crate::network::NetworkConfig;
use crate::process::ProtocolObservation;
use crate::rng::SplitMix64;
use crate::time::SimTime;
use crate::ProcessId;

/// A read-only view of the live execution handed to a [`StateAdversary`]
/// on every routing decision.
#[derive(Debug)]
pub struct StateView<'a> {
    /// Current simulated time.
    pub now: SimTime,
    /// One observation per process, indexed by process id.
    pub observations: &'a [ProtocolObservation],
    /// Which processes are currently crashed.
    pub crashed: &'a [bool],
    /// Which processes have decided (engine-recorded; authoritative even
    /// for protocols whose [`observe`](crate::Process::observe) reports
    /// nothing).
    pub decided: &'a [bool],
}

impl StateView<'_> {
    /// Network size.
    pub fn n(&self) -> usize {
        self.observations.len()
    }

    /// Whether process `i` is live (not crashed) and undecided.
    pub fn contested(&self, i: usize) -> bool {
        !self.crashed.get(i).copied().unwrap_or(true)
            && !self.decided.get(i).copied().unwrap_or(true)
    }

    /// Counts the binary preferences among live, undecided processes:
    /// `(zeros, ones)`.
    pub fn preference_counts(&self) -> (u64, u64) {
        let mut zeros = 0;
        let mut ones = 0;
        for (i, obs) in self.observations.iter().enumerate() {
            if !self.contested(i) {
                continue;
            }
            match obs.preference {
                Some(false) => zeros += 1,
                Some(true) => ones += 1,
                None => {}
            }
        }
        (zeros, ones)
    }

    /// The highest round any live, undecided process has reached.
    pub fn max_round(&self) -> u64 {
        self.observations
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.contested(i))
            .map(|(_, obs)| obs.round)
            .max()
            .unwrap_or(0)
    }

    /// Number of processes that have decided.
    pub fn decided_count(&self) -> usize {
        self.decided.iter().filter(|&&d| d).count()
    }
}

/// An adversary that sees protocol state, not just messages.
///
/// Mirrors [`Adversary`] but every hook additionally receives a
/// [`StateView`]. Implementations must be deterministic given the view and
/// the provided RNG.
pub trait StateAdversary<M> {
    /// Decides the fate of a message sent at `at` from `from` to `to`,
    /// given full knowledge of the live execution.
    fn route(
        &mut self,
        at: SimTime,
        from: ProcessId,
        to: ProcessId,
        msg: &M,
        view: &StateView<'_>,
        rng: &mut SplitMix64,
    ) -> Decision;

    /// Duplication hook; the default never duplicates.
    fn duplicate(
        &mut self,
        _at: SimTime,
        _from: ProcessId,
        _to: ProcessId,
        _msg: &M,
        _view: &StateView<'_>,
        _rng: &mut SplitMix64,
    ) -> bool {
        false
    }
}

impl<M> StateAdversary<M> for Box<dyn StateAdversary<M>> {
    fn route(
        &mut self,
        at: SimTime,
        from: ProcessId,
        to: ProcessId,
        msg: &M,
        view: &StateView<'_>,
        rng: &mut SplitMix64,
    ) -> Decision {
        (**self).route(at, from, to, msg, view, rng)
    }

    fn duplicate(
        &mut self,
        at: SimTime,
        from: ProcessId,
        to: ProcessId,
        msg: &M,
        view: &StateView<'_>,
        rng: &mut SplitMix64,
    ) -> bool {
        (**self).duplicate(at, from, to, msg, view, rng)
    }
}

/// A state-adaptive vote splitter: reads every process's live preference
/// and silences exactly the messages that would collapse the split.
///
/// While a perfect split holds, cross-camp traffic is cut; once one camp
/// has a majority, messages from the majority camp to the minority camp
/// are cut so the minority is never recruited. All other traffic — and
/// everything after the `until` budget — is routed by the wrapped
/// [`NetworkAdversary`], keeping the attack bounded so liveness is
/// *degraded* rather than trivially destroyed.
#[derive(Debug, Clone)]
pub struct VoteSplitStateAdversary {
    until: SimTime,
    base: NetworkAdversary,
}

impl VoteSplitStateAdversary {
    /// Attacks until `until`, routing everything else over `config`.
    pub fn new(until: SimTime, config: NetworkConfig) -> Self {
        VoteSplitStateAdversary {
            until,
            base: NetworkAdversary::new(config),
        }
    }
}

impl<M> StateAdversary<M> for VoteSplitStateAdversary {
    fn route(
        &mut self,
        at: SimTime,
        from: ProcessId,
        to: ProcessId,
        msg: &M,
        view: &StateView<'_>,
        rng: &mut SplitMix64,
    ) -> Decision {
        let base = self.base.route(at, from, to, msg, rng);
        if at >= self.until || base.is_drop() {
            return base;
        }
        let (zeros, ones) = view.preference_counts();
        if zeros == 0 || ones == 0 {
            return base; // nothing left to split
        }
        let from_pref = view.observations.get(from.index()).and_then(|o| o.preference);
        let to_pref = view.observations.get(to.index()).and_then(|o| o.preference);
        let (Some(fp), Some(tp)) = (from_pref, to_pref) else {
            return base;
        };
        let cut = if zeros == ones {
            // Perfect split: silence cross-camp traffic to hold it.
            fp != tp
        } else {
            // Majority forming: stop it recruiting the minority.
            let majority = ones > zeros;
            fp == majority && tp != majority
        };
        if cut {
            Decision::Drop
        } else {
            base
        }
    }

    fn duplicate(
        &mut self,
        at: SimTime,
        from: ProcessId,
        to: ProcessId,
        msg: &M,
        _view: &StateView<'_>,
        rng: &mut SplitMix64,
    ) -> bool {
        Adversary::<M>::duplicate(&mut self.base, at, from, to, msg, rng)
    }
}

/// A quorum-starving flapper: periodically identifies the camp of
/// front-runner processes (those at the highest observed round) and, when
/// that camp could assemble a quorum, drops the messages addressed to it —
/// then heals for the rest of the flap cycle.
///
/// The flap cadence makes this a *gray* failure, but only a sender that
/// retries can use the heal windows. Under
/// [`ReliabilityPolicy::Retransmit`](crate::ReliabilityPolicy::Retransmit)
/// a wiped copy is retransmitted until one lands in a heal window, so
/// runs limp rather than halt. On a fire-and-forget network a wiped
/// burst is gone, and a protocol without timers halts: timer-free
/// Ben-Or stalls in all 24 runs of every T14 quorum-starve cell, and in
/// none of them under T17's retransmission. Bounded by `until` like
/// every campaign attack.
#[derive(Debug, Clone)]
pub struct QuorumStarveAdversary {
    until: SimTime,
    period: u64,
    base: NetworkAdversary,
}

impl QuorumStarveAdversary {
    /// Attacks until `until`, starving in alternating `period`-tick
    /// windows, routing everything else over `config`.
    pub fn new(until: SimTime, period: u64, config: NetworkConfig) -> Self {
        QuorumStarveAdversary {
            until,
            period: period.max(1),
            base: NetworkAdversary::new(config),
        }
    }
}

impl<M> StateAdversary<M> for QuorumStarveAdversary {
    fn route(
        &mut self,
        at: SimTime,
        from: ProcessId,
        to: ProcessId,
        msg: &M,
        view: &StateView<'_>,
        rng: &mut SplitMix64,
    ) -> Decision {
        let base = self.base.route(at, from, to, msg, rng);
        if at >= self.until || base.is_drop() {
            return base;
        }
        // Flap: starve during even windows, heal during odd ones.
        if !(at.ticks() / self.period).is_multiple_of(2) {
            return base;
        }
        let max_round = view.max_round();
        let (mut contested, mut front) = (0, 0);
        for (i, obs) in view.observations.iter().enumerate() {
            if view.contested(i) {
                contested += 1;
                front += usize::from(obs.round == max_round);
            }
        }
        if contested == 0 {
            return base;
        }
        // Starve whichever camp currently holds a majority of the live,
        // undecided processes — that is the camp that could form a quorum.
        let front_is_majority = front * 2 > contested;
        let to_in_front = view
            .observations
            .get(to.index())
            .map(|o| o.round == max_round)
            .unwrap_or(false)
            && view.contested(to.index());
        if to_in_front == front_is_majority {
            Decision::Drop
        } else {
            base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn obs(round: u64, preference: Option<bool>) -> ProtocolObservation {
        ProtocolObservation {
            round,
            phase: 0,
            preference,
            decided: None,
        }
    }

    #[test]
    fn state_view_counts_only_live_undecided() {
        let observations = vec![
            obs(1, Some(true)),
            obs(1, Some(false)),
            obs(2, Some(true)),
            obs(0, None),
        ];
        let crashed = vec![false, false, true, false];
        let decided = vec![false, false, false, true];
        let view = StateView {
            now: SimTime::ZERO,
            observations: &observations,
            crashed: &crashed,
            decided: &decided,
        };
        // Process 2 is crashed, process 3 decided: neither is contested.
        assert_eq!(view.preference_counts(), (1, 1));
        assert_eq!(view.max_round(), 1);
        assert_eq!(view.decided_count(), 1);
        assert!(view.contested(0));
        assert!(!view.contested(2));
        assert!(!view.contested(3));
    }

    #[test]
    fn vote_split_cuts_cross_camp_traffic_on_a_tie() {
        let observations = vec![obs(1, Some(false)), obs(1, Some(true))];
        let crashed = vec![false, false];
        let decided = vec![false, false];
        let view = StateView {
            now: SimTime::ZERO,
            observations: &observations,
            crashed: &crashed,
            decided: &decided,
        };
        let mut adv =
            VoteSplitStateAdversary::new(SimTime::from_ticks(100), NetworkConfig::reliable(1));
        let mut rng = SplitMix64::new(1);
        // Cross-camp messages are cut while the split holds...
        assert_eq!(
            StateAdversary::<u32>::route(&mut adv, SimTime::ZERO, ProcessId(0), ProcessId(1), &0, &view, &mut rng),
            Decision::Drop
        );
        // ...but same-camp traffic flows,
        assert_eq!(
            StateAdversary::<u32>::route(&mut adv, SimTime::ZERO, ProcessId(0), ProcessId(0), &0, &view, &mut rng),
            Decision::DeliverAfter(SimDuration::from_ticks(1))
        );
        // and the budget ends the attack.
        assert_eq!(
            StateAdversary::<u32>::route(&mut adv, SimTime::from_ticks(100), ProcessId(0), ProcessId(1), &0, &view, &mut rng),
            Decision::DeliverAfter(SimDuration::from_ticks(1))
        );
    }

    #[test]
    fn vote_split_blocks_majority_recruiting_minority() {
        let observations = vec![obs(1, Some(true)), obs(1, Some(true)), obs(1, Some(false))];
        let crashed = vec![false; 3];
        let decided = vec![false; 3];
        let view = StateView {
            now: SimTime::ZERO,
            observations: &observations,
            crashed: &crashed,
            decided: &decided,
        };
        let mut adv =
            VoteSplitStateAdversary::new(SimTime::from_ticks(100), NetworkConfig::reliable(1));
        let mut rng = SplitMix64::new(1);
        // Majority (true) → minority (false): cut.
        assert_eq!(
            StateAdversary::<u32>::route(&mut adv, SimTime::ZERO, ProcessId(0), ProcessId(2), &0, &view, &mut rng),
            Decision::Drop
        );
        // Minority → majority: allowed (it only reinforces the split the
        // adversary wants to repair in its own favour — and keeps the
        // attack subtle).
        assert!(matches!(
            StateAdversary::<u32>::route(&mut adv, SimTime::ZERO, ProcessId(2), ProcessId(0), &0, &view, &mut rng),
            Decision::DeliverAfter(_)
        ));
    }

    #[test]
    fn vote_split_stands_down_once_unanimous() {
        let observations = vec![obs(1, Some(true)), obs(1, Some(true))];
        let crashed = vec![false; 2];
        let decided = vec![false; 2];
        let view = StateView {
            now: SimTime::ZERO,
            observations: &observations,
            crashed: &crashed,
            decided: &decided,
        };
        let mut adv =
            VoteSplitStateAdversary::new(SimTime::from_ticks(100), NetworkConfig::reliable(1));
        let mut rng = SplitMix64::new(1);
        assert!(matches!(
            StateAdversary::<u32>::route(&mut adv, SimTime::ZERO, ProcessId(0), ProcessId(1), &0, &view, &mut rng),
            Decision::DeliverAfter(_)
        ));
    }

    #[test]
    fn quorum_starver_flaps_and_targets_the_majority_camp() {
        // Processes 0 and 1 are front-runners (round 2, a majority of the
        // three contested processes); process 2 lags at round 1.
        let observations = vec![obs(2, Some(true)), obs(2, Some(false)), obs(1, Some(true))];
        let crashed = vec![false; 3];
        let decided = vec![false; 3];
        let view = StateView {
            now: SimTime::ZERO,
            observations: &observations,
            crashed: &crashed,
            decided: &decided,
        };
        let mut adv = QuorumStarveAdversary::new(
            SimTime::from_ticks(1000),
            10,
            NetworkConfig::reliable(1),
        );
        let mut rng = SplitMix64::new(1);
        // Starve window (ticks 0..10): messages to front-runners are cut,
        // messages to the laggard flow.
        assert_eq!(
            StateAdversary::<u32>::route(&mut adv, SimTime::from_ticks(3), ProcessId(2), ProcessId(0), &0, &view, &mut rng),
            Decision::Drop
        );
        assert!(matches!(
            StateAdversary::<u32>::route(&mut adv, SimTime::from_ticks(3), ProcessId(0), ProcessId(2), &0, &view, &mut rng),
            Decision::DeliverAfter(_)
        ));
        // Heal window (ticks 10..20): everything flows.
        assert!(matches!(
            StateAdversary::<u32>::route(&mut adv, SimTime::from_ticks(13), ProcessId(2), ProcessId(0), &0, &view, &mut rng),
            Decision::DeliverAfter(_)
        ));
        // Budget exhausted: everything flows.
        assert!(matches!(
            StateAdversary::<u32>::route(&mut adv, SimTime::from_ticks(1000), ProcessId(2), ProcessId(0), &0, &view, &mut rng),
            Decision::DeliverAfter(_)
        ));
    }
}
