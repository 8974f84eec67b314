//! Simulated time.
//!
//! Time is counted in abstract *ticks*. Algorithms should only ever compare
//! durations, never interpret ticks as wall-clock units. Newtypes keep
//! instants and durations from being mixed up ([`SimTime`] vs
//! [`SimDuration`]).

use crate::ProcessId;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub};

/// An instant of simulated time, in ticks since the start of the run.
///
/// ```
/// use ooc_simnet::{SimTime, SimDuration};
/// let t = SimTime::ZERO + SimDuration::from_ticks(5);
/// assert_eq!(t.ticks(), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from a raw tick count.
    pub fn from_ticks(ticks: u64) -> Self {
        SimTime(ticks)
    }

    /// Returns the raw tick count.
    pub fn ticks(self) -> u64 {
        self.0
    }

    /// Duration elapsed since `earlier`, saturating at zero.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from a raw tick count.
    pub fn from_ticks(ticks: u64) -> Self {
        SimDuration(ticks)
    }

    /// Returns the raw tick count.
    pub fn ticks(self) -> u64 {
        self.0
    }

    /// Saturating duration subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Scales the duration by `percent / 100`, rounding to the nearest
    /// tick. A non-zero duration never scales to zero (a drifting clock can
    /// slow a timer arbitrarily but cannot make it instantaneous), and the
    /// zero duration stays zero.
    pub fn scale_percent(self, percent: u32) -> SimDuration {
        if self.0 == 0 {
            return SimDuration::ZERO;
        }
        let scaled = (self.0 as u128 * percent as u128 + 50) / 100;
        SimDuration(u64::try_from(scaled).unwrap_or(u64::MAX).max(1))
    }
}

/// Per-process clock drift/skew: each process's timer durations are scaled
/// by a rate expressed in percent of nominal. A rate of 100 is a perfect
/// clock; 150 is a clock running 50 % slow (its timers fire 1.5× later in
/// simulated time); 50 is a clock running fast (timers fire early).
///
/// Drift applies at **timer arming** — when the engine converts a
/// [`Context::set_timer`](crate::Context::set_timer) duration into an
/// absolute firing instant — so protocol code keeps reasoning in its own
/// local units and never observes its own skew, exactly as a real process
/// cannot read its own oscillator error.
///
/// ```
/// use ooc_simnet::{ClockModel, ProcessId, SimDuration};
/// let clocks = ClockModel::nominal().with_rate(ProcessId(1), 150);
/// let d = SimDuration::from_ticks(10);
/// assert_eq!(clocks.scale(ProcessId(0), d).ticks(), 10);
/// assert_eq!(clocks.scale(ProcessId(1), d).ticks(), 15);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClockModel {
    /// Rate applied to processes without an explicit override.
    default_rate_percent: u32,
    /// Per-process overrides; the last entry for a process wins.
    rates: Vec<(ProcessId, u32)>,
}

impl Default for ClockModel {
    fn default() -> Self {
        ClockModel::nominal()
    }
}

impl ClockModel {
    /// All clocks perfect (rate 100 everywhere).
    pub fn nominal() -> Self {
        ClockModel {
            default_rate_percent: 100,
            rates: Vec::new(),
        }
    }

    /// All clocks at the given rate (percent of nominal; 0 clamps to 1).
    pub fn uniform(percent: u32) -> Self {
        ClockModel {
            default_rate_percent: percent.max(1),
            rates: Vec::new(),
        }
    }

    /// Overrides the rate for one process (percent of nominal; 0 clamps
    /// to 1).
    pub fn with_rate(mut self, p: ProcessId, percent: u32) -> Self {
        self.rates.push((p, percent.max(1)));
        self
    }

    /// The rate in effect for `p`, in percent of nominal.
    pub fn rate_percent(&self, p: ProcessId) -> u32 {
        self.rates
            .iter()
            .rev()
            .find(|&&(q, _)| q == p)
            .map(|&(_, r)| r)
            .unwrap_or(self.default_rate_percent)
    }

    /// Whether every clock runs at the nominal rate.
    pub fn is_nominal(&self) -> bool {
        self.default_rate_percent == 100 && self.rates.iter().all(|&(_, r)| r == 100)
    }

    /// Scales a timer duration requested by `p` into engine ticks.
    pub fn scale(&self, p: ProcessId, d: SimDuration) -> SimDuration {
        let rate = self.rate_percent(p);
        if rate == 100 {
            d
        } else {
            d.scale_percent(rate)
        }
    }

    /// Per-process overrides, for serialization into campaign artifacts.
    pub fn overrides(&self) -> &[(ProcessId, u32)] {
        &self.rates
    }

    /// The default rate, for serialization into campaign artifacts.
    pub fn default_rate(&self) -> u32 {
        self.default_rate_percent
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}Δ", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_duration_to_time() {
        let t = SimTime::from_ticks(10) + SimDuration::from_ticks(5);
        assert_eq!(t, SimTime::from_ticks(15));
    }

    #[test]
    fn since_saturates() {
        let early = SimTime::from_ticks(3);
        let late = SimTime::from_ticks(9);
        assert_eq!(late.since(early), SimDuration::from_ticks(6));
        assert_eq!(early.since(late), SimDuration::ZERO);
    }

    #[test]
    fn sub_is_since() {
        assert_eq!(
            SimTime::from_ticks(9) - SimTime::from_ticks(4),
            SimDuration::from_ticks(5)
        );
    }

    #[test]
    fn saturating_arithmetic_never_overflows() {
        let t = SimTime::MAX + SimDuration::from_ticks(1);
        assert_eq!(t, SimTime::MAX);
        let d = SimDuration::from_ticks(u64::MAX) * 2;
        assert_eq!(d.ticks(), u64::MAX);
    }

    #[test]
    fn duration_scaling() {
        assert_eq!(
            SimDuration::from_ticks(7) * 3,
            SimDuration::from_ticks(21)
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_ticks(42).to_string(), "t42");
        assert_eq!(SimDuration::from_ticks(7).to_string(), "7Δ");
    }

    #[test]
    fn scale_percent_rounds_and_floors_at_one_tick() {
        let d = SimDuration::from_ticks(10);
        assert_eq!(d.scale_percent(100), d);
        assert_eq!(d.scale_percent(150).ticks(), 15);
        assert_eq!(d.scale_percent(50).ticks(), 5);
        assert_eq!(d.scale_percent(25).ticks(), 3); // 2.5 rounds to 3
        // A non-zero duration can never be scaled down to zero.
        assert_eq!(SimDuration::from_ticks(1).scale_percent(1).ticks(), 1);
        // Zero stays zero.
        assert_eq!(SimDuration::ZERO.scale_percent(500), SimDuration::ZERO);
        // Saturates instead of overflowing.
        assert_eq!(
            SimDuration::from_ticks(u64::MAX).scale_percent(u32::MAX).ticks(),
            u64::MAX
        );
    }

    #[test]
    fn clock_scale_extremes_saturate_on_the_arming_path() {
        // Regression for the unchecked-cast sweep: the timer-arming path
        // (ClockModel::scale, then SimTime + SimDuration) must saturate
        // at every stage under extreme-but-valid rates, never wrap.
        let clocks = ClockModel::uniform(u32::MAX).with_rate(ProcessId(1), 1);
        let huge = SimDuration::from_ticks(u64::MAX);
        // Maximal rate on a maximal duration: the u128 intermediate in
        // scale_percent exceeds u64::MAX and must clamp, not truncate.
        assert_eq!(clocks.scale(ProcessId(0), huge).ticks(), u64::MAX);
        assert_eq!(huge.scale_percent(200).ticks(), u64::MAX);
        // The fastest representable clock (1 % of nominal) keeps a 1-tick
        // timer at the ≥ 1-tick floor — scaling cannot reach zero.
        assert_eq!(
            clocks.scale(ProcessId(1), SimDuration::from_ticks(1)).ticks(),
            1
        );
        // Arming a saturated delay near the end of time pins to the end
        // of time instead of wrapping into the past.
        let late = SimTime::from_ticks(u64::MAX - 5);
        assert_eq!((late + huge).ticks(), u64::MAX);
    }

    #[test]
    fn clock_model_rates_and_overrides() {
        let clocks = ClockModel::nominal()
            .with_rate(ProcessId(1), 150)
            .with_rate(ProcessId(2), 50)
            .with_rate(ProcessId(1), 200); // last override wins
        assert_eq!(clocks.rate_percent(ProcessId(0)), 100);
        assert_eq!(clocks.rate_percent(ProcessId(1)), 200);
        assert_eq!(clocks.rate_percent(ProcessId(2)), 50);
        assert!(!clocks.is_nominal());
        assert!(ClockModel::nominal().is_nominal());
        let d = SimDuration::from_ticks(8);
        assert_eq!(clocks.scale(ProcessId(0), d).ticks(), 8);
        assert_eq!(clocks.scale(ProcessId(1), d).ticks(), 16);
        assert_eq!(clocks.scale(ProcessId(2), d).ticks(), 4);
    }

    #[test]
    fn clock_model_uniform_and_zero_clamp() {
        let clocks = ClockModel::uniform(0); // clamps to 1 %
        assert_eq!(clocks.rate_percent(ProcessId(9)), 1);
        let slow = ClockModel::uniform(300);
        assert_eq!(
            slow.scale(ProcessId(0), SimDuration::from_ticks(5)).ticks(),
            15
        );
    }
}
