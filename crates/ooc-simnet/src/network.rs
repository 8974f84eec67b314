//! Network behaviour configuration for the asynchronous engine.

use crate::rng::SplitMix64;
use crate::time::{SimDuration, SimTime};
use crate::ProcessId;

/// How message transit delays are sampled.
///
/// # Causality floor
///
/// *Every* variant clamps the sampled delay to **at least 1 tick**: a
/// zero-tick delay would deliver a message at the instant it was sent,
/// letting effects land at the same time as (or, after same-tick reordering,
/// logically before) their cause. Concretely, `Fixed(0)` behaves as
/// `Fixed(1)`, and `Uniform` clamps each bound to ≥ 1 (so
/// `min: 0, max: 0` also yields 1-tick delays), exactly as
/// `Exponential` rounds up to 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DelayModel {
    /// Every message takes exactly this many ticks (floored to 1; see
    /// the [causality floor](DelayModel#causality-floor)).
    Fixed(u64),
    /// Delay drawn uniformly from `[min, max]` ticks (inclusive). Both
    /// bounds are floored to 1 and swapped bounds are reordered (see
    /// the [causality floor](DelayModel#causality-floor)).
    Uniform {
        /// Minimum delay in ticks (effective minimum is 1).
        min: u64,
        /// Maximum delay in ticks (effective maximum is `max(max, 1)`).
        max: u64,
    },
    /// Geometric approximation of an exponential delay with the given mean,
    /// in ticks; rounded up to 1 tick (see the
    /// [causality floor](DelayModel#causality-floor)).
    Exponential {
        /// Mean delay in ticks.
        mean: u64,
    },
    /// Bounded Pareto-style heavy-tailed delay: most messages arrive near
    /// `floor`, but a polynomial tail stretches out to `cap`. Sampled by
    /// inverse-CDF from the run's deterministic RNG as
    /// `floor / u^(1000/alpha_milli)` and clamped to `[floor, cap]`.
    ///
    /// The effective floor is `max(floor, 1)` and the effective cap is
    /// `max(cap, floor)` — the model can never sample a zero-tick delay
    /// (see the [causality floor](DelayModel#causality-floor)), even with
    /// all parameters zero.
    HeavyTailed {
        /// Minimum delay in ticks (effective minimum is `max(floor, 1)`).
        floor: u64,
        /// Tail index α in milli-units (1200 = α 1.2). Smaller α means a
        /// heavier tail; clamped to ≥ 100 (α 0.1) to keep the inverse CDF
        /// finite.
        alpha_milli: u64,
        /// Hard upper bound in ticks (effective cap is `max(cap, floor)`).
        cap: u64,
    },
}

impl DelayModel {
    /// Samples a transit delay; never less than 1 tick (see the
    /// [causality floor](DelayModel#causality-floor)).
    pub fn sample(&self, rng: &mut SplitMix64) -> SimDuration {
        let ticks = match *self {
            DelayModel::Fixed(d) => d.max(1),
            DelayModel::Uniform { min, max } => {
                let (lo, hi) = if min <= max { (min, max) } else { (max, min) };
                rng.range_inclusive(lo.max(1), hi.max(1))
            }
            DelayModel::Exponential { mean } => {
                let mean = mean.max(1) as f64;
                // Inverse-CDF sampling; `u` is kept away from 0 to avoid inf.
                let u = ((rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64).max(1e-12);
                ticks_from_f64((-u.ln() * mean).round()).max(1)
            }
            DelayModel::HeavyTailed {
                floor,
                alpha_milli,
                cap,
            } => {
                let lo = floor.max(1);
                let hi = cap.max(lo);
                let alpha = alpha_milli.max(100) as f64 / 1000.0;
                // Bounded Pareto via inverse CDF: u uniform in (0, 1],
                // x = floor · u^(-1/α), clamped into [lo, hi].
                let u = ((rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64).max(1e-12);
                let x = (lo as f64 * u.powf(-1.0 / alpha)).round();
                // An infinite tail sample saturates to u64::MAX and the
                // clamp lands it on the cap.
                ticks_from_f64(x).clamp(lo, hi)
            }
        };
        SimDuration::from_ticks(ticks)
    }
}

/// Converts a sampled delay from `f64` to ticks with *explicit*
/// saturation: NaN and non-positive values go to 0, values at or beyond
/// `u64::MAX` go to `u64::MAX`.
///
/// The delay hot path used to lean on the implicit saturation of a bare
/// `as u64` cast; extreme-but-valid parameters (`mean = u64::MAX`, a
/// near-zero `alpha_milli` tail) all funnel through this helper now, so
/// the boundary behaviour is spelled out and pinned by tests instead of
/// inherited from cast semantics. Every caller still applies its own
/// ≥ 1-tick causality floor after this conversion.
fn ticks_from_f64(x: f64) -> u64 {
    if x.is_nan() || x <= 0.0 {
        0
    } else if x >= u64::MAX as f64 {
        u64::MAX
    } else {
        x as u64
    }
}

impl Default for DelayModel {
    fn default() -> Self {
        DelayModel::Uniform { min: 1, max: 10 }
    }
}

/// A window of simulated time during which the network is partitioned into
/// disjoint groups; messages between different groups are dropped.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionWindow {
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
    /// The groups. A process absent from every group is isolated.
    pub groups: Vec<Vec<ProcessId>>,
}

impl PartitionWindow {
    /// Whether `a` can send to `b` at time `t` under this window.
    ///
    /// Returns `None` when the window is not active at `t` (no opinion).
    pub fn allows(&self, t: SimTime, a: ProcessId, b: ProcessId) -> Option<bool> {
        if t < self.from || t >= self.until {
            return None;
        }
        let ga = self.groups.iter().position(|g| g.contains(&a));
        let gb = self.groups.iter().position(|g| g.contains(&b));
        Some(match (ga, gb) {
            (Some(x), Some(y)) => x == y,
            // Isolated processes can talk to nobody (except themselves,
            // handled by the self-delivery fast path in the engine).
            _ => false,
        })
    }
}

/// A periodically recurring partition: within `[from, until)` the network
/// splits into `groups` for the first `partitioned` ticks of every
/// `period`-tick cycle, then heals for the remainder — the classic
/// "flapping switch" gray failure.
///
/// Campaigns derive the cadence deterministically from the run RNG via
/// [`FlappingPartition::from_rng`], so a flap schedule is part of the run's
/// seed identity rather than a hand-picked constant.
#[derive(Debug, Clone, PartialEq)]
pub struct FlappingPartition {
    /// First tick (inclusive) at which flapping may occur.
    pub from: SimTime,
    /// Last tick (exclusive) at which flapping may occur.
    pub until: SimTime,
    /// Full cycle length in ticks (effective minimum is 1).
    pub period: u64,
    /// Partitioned prefix of each cycle, in ticks; clamped to `period`.
    /// The remaining `period - partitioned` ticks of the cycle are healed.
    pub partitioned: u64,
    /// The groups while partitioned. A process absent from every group is
    /// isolated during the partitioned phase.
    pub groups: Vec<Vec<ProcessId>>,
}

impl FlappingPartition {
    /// Derives a flap cadence from the run RNG: period uniform in
    /// `[40, 120]` ticks, with between a quarter and three quarters of each
    /// cycle spent partitioned. Deterministic for a given RNG state.
    pub fn from_rng(
        rng: &mut SplitMix64,
        from: SimTime,
        until: SimTime,
        groups: Vec<Vec<ProcessId>>,
    ) -> Self {
        let period = rng.range_inclusive(40, 120);
        let partitioned = rng.range_inclusive(period / 4, (3 * period) / 4);
        FlappingPartition {
            from,
            until,
            period,
            partitioned,
            groups,
        }
    }

    /// Whether the partitioned phase of a cycle is active at `t`.
    pub fn active(&self, t: SimTime) -> bool {
        if t < self.from || t >= self.until {
            return false;
        }
        let period = self.period.max(1);
        let phase = (t.ticks() - self.from.ticks()) % period;
        phase < self.partitioned.min(period)
    }

    /// Whether `a` can send to `b` at time `t` under this flap.
    ///
    /// Returns `None` while healed or outside `[from, until)` (no opinion).
    pub fn allows(&self, t: SimTime, a: ProcessId, b: ProcessId) -> Option<bool> {
        if !self.active(t) {
            return None;
        }
        let ga = self.groups.iter().position(|g| g.contains(&a));
        let gb = self.groups.iter().position(|g| g.contains(&b));
        Some(match (ga, gb) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        })
    }
}

/// Per-directed-link overrides of the global loss/delay behaviour —
/// asymmetric gray failures where `a → b` limps while `b → a` is healthy.
///
/// A field left as `None` falls back to the corresponding global
/// [`NetworkConfig`] knob. When several overrides match the same link the
/// last one wins.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkOverride {
    /// Sender side of the directed link.
    pub from: ProcessId,
    /// Recipient side of the directed link.
    pub to: ProcessId,
    /// Replaces [`NetworkConfig::drop_probability`] for this link.
    pub drop_probability: Option<f64>,
    /// Replaces [`NetworkConfig::delay`] for this link.
    pub delay: Option<DelayModel>,
}

/// Stochastic network behaviour for the asynchronous engine.
///
/// The default configuration is a reliable network with uniform 1–10 tick
/// delays and instantaneous self-delivery.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkConfig {
    /// Transit delay distribution for messages between distinct processes.
    pub delay: DelayModel,
    /// Probability that a message is silently dropped.
    pub drop_probability: f64,
    /// Probability that a delivered message is delivered twice.
    pub duplicate_probability: f64,
    /// When true, deliveries between each ordered pair of processes respect
    /// send order (per-link FIFO), as in TCP-like transports.
    pub fifo_links: bool,
    /// Delay applied to messages a process sends to itself. Self-messages
    /// are never dropped, duplicated, or partitioned away.
    pub self_delay: SimDuration,
    /// Scheduled partitions.
    pub partitions: Vec<PartitionWindow>,
    /// Per-directed-link loss/delay overrides (asymmetric gray failures).
    pub link_overrides: Vec<LinkOverride>,
    /// Periodic partition/heal windows (flapping gray failures).
    pub flapping: Vec<FlappingPartition>,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            delay: DelayModel::default(),
            drop_probability: 0.0,
            duplicate_probability: 0.0,
            fifo_links: false,
            self_delay: SimDuration::from_ticks(1),
            partitions: Vec::new(),
            link_overrides: Vec::new(),
            flapping: Vec::new(),
        }
    }
}

impl NetworkConfig {
    /// A perfectly reliable network with a fixed per-message delay.
    pub fn reliable(delay_ticks: u64) -> Self {
        NetworkConfig {
            delay: DelayModel::Fixed(delay_ticks),
            ..NetworkConfig::default()
        }
    }

    /// A lossy network: uniform delays plus the given drop probability.
    pub fn lossy(min: u64, max: u64, drop_probability: f64) -> Self {
        NetworkConfig {
            delay: DelayModel::Uniform { min, max },
            drop_probability,
            ..NetworkConfig::default()
        }
    }

    /// Adds a per-directed-link override.
    pub fn with_link_override(mut self, link: LinkOverride) -> Self {
        self.link_overrides.push(link);
        self
    }

    /// Adds a flapping partition.
    pub fn with_flapping(mut self, flap: FlappingPartition) -> Self {
        self.flapping.push(flap);
        self
    }

    /// Whether a message from `a` to `b` at `t` crosses an active partition
    /// — a scheduled [`PartitionWindow`] or the partitioned phase of a
    /// [`FlappingPartition`].
    pub fn partition_blocks(&self, t: SimTime, a: ProcessId, b: ProcessId) -> bool {
        self.partitions
            .iter()
            .filter_map(|w| w.allows(t, a, b))
            .any(|allowed| !allowed)
            || self
                .flapping
                .iter()
                .filter_map(|w| w.allows(t, a, b))
                .any(|allowed| !allowed)
    }

    /// The last override registered for the directed link `from → to`.
    pub fn link_override(&self, from: ProcessId, to: ProcessId) -> Option<&LinkOverride> {
        self.link_overrides
            .iter()
            .rev()
            .find(|o| o.from == from && o.to == to)
    }

    /// The drop probability in effect on the directed link `from → to`.
    pub fn drop_probability_for(&self, from: ProcessId, to: ProcessId) -> f64 {
        self.link_override(from, to)
            .and_then(|o| o.drop_probability)
            .unwrap_or(self.drop_probability)
    }

    /// The delay model in effect on the directed link `from → to`.
    pub fn delay_for(&self, from: ProcessId, to: ProcessId) -> &DelayModel {
        self.link_override(from, to)
            .and_then(|o| o.delay.as_ref())
            .unwrap_or(&self.delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_delay_is_fixed() {
        let mut rng = SplitMix64::new(1);
        let m = DelayModel::Fixed(5);
        for _ in 0..10 {
            assert_eq!(m.sample(&mut rng), SimDuration::from_ticks(5));
        }
    }

    #[test]
    fn fixed_zero_becomes_one_tick() {
        let mut rng = SplitMix64::new(1);
        assert_eq!(
            DelayModel::Fixed(0).sample(&mut rng),
            SimDuration::from_ticks(1)
        );
    }

    #[test]
    fn causality_floor_on_all_variants() {
        // The documented contract: no variant can ever sample 0 ticks,
        // even with degenerate parameters.
        let mut rng = SplitMix64::new(7);
        let degenerate = [
            DelayModel::Fixed(0),
            DelayModel::Uniform { min: 0, max: 0 },
            DelayModel::Uniform { min: 0, max: 2 },
            DelayModel::Exponential { mean: 0 },
            DelayModel::HeavyTailed {
                floor: 0,
                alpha_milli: 0,
                cap: 0,
            },
            DelayModel::HeavyTailed {
                floor: 1,
                alpha_milli: 100,
                cap: 1,
            },
        ];
        for m in degenerate {
            for _ in 0..500 {
                assert!(
                    m.sample(&mut rng).ticks() >= 1,
                    "{m:?} sampled a zero-tick delay"
                );
            }
        }
        // Uniform {0, 0} is exactly the 1-tick floor, like Fixed(0).
        assert_eq!(
            DelayModel::Uniform { min: 0, max: 0 }.sample(&mut rng),
            SimDuration::from_ticks(1)
        );
    }

    #[test]
    fn uniform_delay_in_range() {
        let mut rng = SplitMix64::new(2);
        let m = DelayModel::Uniform { min: 3, max: 9 };
        for _ in 0..1000 {
            let d = m.sample(&mut rng).ticks();
            assert!((3..=9).contains(&d));
        }
    }

    #[test]
    fn uniform_swapped_bounds_are_fixed_up() {
        let mut rng = SplitMix64::new(2);
        let m = DelayModel::Uniform { min: 9, max: 3 };
        for _ in 0..100 {
            let d = m.sample(&mut rng).ticks();
            assert!((3..=9).contains(&d));
        }
    }

    #[test]
    fn exponential_delay_positive_and_near_mean() {
        let mut rng = SplitMix64::new(3);
        let m = DelayModel::Exponential { mean: 10 };
        let mut total = 0u64;
        for _ in 0..10_000 {
            let d = m.sample(&mut rng).ticks();
            assert!(d >= 1);
            total += d;
        }
        let mean = total as f64 / 10_000.0;
        assert!((mean - 10.0).abs() < 1.0, "empirical mean {mean}");
    }

    #[test]
    fn partition_window_blocks_cross_group() {
        let w = PartitionWindow {
            from: SimTime::from_ticks(10),
            until: SimTime::from_ticks(20),
            groups: vec![vec![ProcessId(0), ProcessId(1)], vec![ProcessId(2)]],
        };
        // Outside the window: no opinion.
        assert_eq!(w.allows(SimTime::from_ticks(5), ProcessId(0), ProcessId(2)), None);
        assert_eq!(w.allows(SimTime::from_ticks(20), ProcessId(0), ProcessId(2)), None);
        // Inside: same group ok, cross group blocked, isolated blocked.
        assert_eq!(
            w.allows(SimTime::from_ticks(10), ProcessId(0), ProcessId(1)),
            Some(true)
        );
        assert_eq!(
            w.allows(SimTime::from_ticks(15), ProcessId(0), ProcessId(2)),
            Some(false)
        );
        let w2 = PartitionWindow {
            groups: vec![vec![ProcessId(0)]],
            ..w
        };
        assert_eq!(
            w2.allows(SimTime::from_ticks(15), ProcessId(0), ProcessId(3)),
            Some(false)
        );
    }

    #[test]
    fn heavy_tailed_respects_floor_and_cap() {
        let mut rng = SplitMix64::new(9);
        let m = DelayModel::HeavyTailed {
            floor: 3,
            alpha_milli: 1200,
            cap: 50,
        };
        let mut saw_tail = false;
        for _ in 0..5000 {
            let d = m.sample(&mut rng).ticks();
            assert!((3..=50).contains(&d), "sampled {d} outside [3, 50]");
            saw_tail |= d > 20;
        }
        // A heavy tail actually reaches deep into the bounded range.
        assert!(saw_tail, "no sample ever exceeded 20 ticks");
    }

    #[test]
    fn heavy_tailed_degenerate_params_pin_to_one_tick() {
        let mut rng = SplitMix64::new(11);
        let m = DelayModel::HeavyTailed {
            floor: 0,
            alpha_milli: 0,
            cap: 0,
        };
        for _ in 0..200 {
            assert_eq!(m.sample(&mut rng), SimDuration::from_ticks(1));
        }
    }

    #[test]
    fn ticks_from_f64_saturates_at_the_boundaries() {
        // The explicit contract the delay hot path now carries instead of
        // implicit float-to-int cast semantics.
        assert_eq!(ticks_from_f64(f64::NAN), 0);
        assert_eq!(ticks_from_f64(-1.0), 0);
        assert_eq!(ticks_from_f64(0.0), 0);
        assert_eq!(ticks_from_f64(1.5), 1);
        assert_eq!(ticks_from_f64((1u64 << 53) as f64), 1u64 << 53);
        assert_eq!(ticks_from_f64(u64::MAX as f64), u64::MAX);
        assert_eq!(ticks_from_f64(1e300), u64::MAX);
        assert_eq!(ticks_from_f64(f64::INFINITY), u64::MAX);
    }

    #[test]
    fn extreme_delay_parameters_saturate_instead_of_wrapping() {
        // Regression for the unchecked-cast sweep: extreme-but-valid
        // parameters (maximal means, floors, caps and tail indices) must
        // saturate at u64::MAX, never wrap past the ≥ 1-tick causality
        // floor into a same-instant delivery.
        let mut rng = SplitMix64::new(5);
        let extremes = [
            DelayModel::Fixed(u64::MAX),
            DelayModel::Uniform {
                min: u64::MAX,
                max: u64::MAX,
            },
            DelayModel::Uniform {
                min: 0,
                max: u64::MAX,
            },
            DelayModel::Exponential { mean: u64::MAX },
            DelayModel::HeavyTailed {
                floor: u64::MAX,
                alpha_milli: 100,
                cap: u64::MAX,
            },
            DelayModel::HeavyTailed {
                floor: 1,
                alpha_milli: 100,
                cap: u64::MAX,
            },
            DelayModel::HeavyTailed {
                floor: u64::MAX,
                alpha_milli: u64::MAX,
                cap: 0,
            },
        ];
        for m in extremes {
            for _ in 0..500 {
                let d = m.sample(&mut rng).ticks();
                assert!(d >= 1, "{m:?} sampled a sub-causal delay {d}");
            }
        }
        // The α → 0.1 tail at a maximal floor saturates exactly at the cap.
        let m = DelayModel::HeavyTailed {
            floor: u64::MAX,
            alpha_milli: 100,
            cap: u64::MAX,
        };
        assert_eq!(m.sample(&mut rng).ticks(), u64::MAX);
    }

    #[test]
    fn flapping_partition_alternates_block_and_heal() {
        let flap = FlappingPartition {
            from: SimTime::from_ticks(10),
            until: SimTime::from_ticks(110),
            period: 20,
            partitioned: 5,
            groups: vec![vec![ProcessId(0)], vec![ProcessId(1)]],
        };
        // Outside [from, until): no opinion.
        assert_eq!(flap.allows(SimTime::from_ticks(9), ProcessId(0), ProcessId(1)), None);
        assert_eq!(flap.allows(SimTime::from_ticks(110), ProcessId(0), ProcessId(1)), None);
        // Partitioned prefix of the first cycle: ticks 10..15 blocked.
        assert_eq!(
            flap.allows(SimTime::from_ticks(10), ProcessId(0), ProcessId(1)),
            Some(false)
        );
        assert_eq!(
            flap.allows(SimTime::from_ticks(14), ProcessId(0), ProcessId(1)),
            Some(false)
        );
        // Healed remainder: ticks 15..30 no opinion.
        assert_eq!(flap.allows(SimTime::from_ticks(15), ProcessId(0), ProcessId(1)), None);
        assert_eq!(flap.allows(SimTime::from_ticks(29), ProcessId(0), ProcessId(1)), None);
        // Next cycle partitions again at tick 30.
        assert_eq!(
            flap.allows(SimTime::from_ticks(30), ProcessId(0), ProcessId(1)),
            Some(false)
        );
        // Same group is allowed even while partitioned.
        assert_eq!(
            flap.allows(SimTime::from_ticks(10), ProcessId(0), ProcessId(0)),
            Some(true)
        );
    }

    #[test]
    fn flapping_from_rng_is_deterministic_and_bounded() {
        let groups = vec![vec![ProcessId(0)], vec![ProcessId(1)]];
        let mut a = SplitMix64::new(77);
        let mut b = SplitMix64::new(77);
        let fa = FlappingPartition::from_rng(&mut a, SimTime::ZERO, SimTime::from_ticks(500), groups.clone());
        let fb = FlappingPartition::from_rng(&mut b, SimTime::ZERO, SimTime::from_ticks(500), groups);
        assert_eq!(fa, fb);
        assert!((40..=120).contains(&fa.period));
        assert!(fa.partitioned <= fa.period);
        assert!(fa.partitioned >= fa.period / 4);
    }

    #[test]
    fn flapping_zero_period_does_not_divide_by_zero() {
        let flap = FlappingPartition {
            from: SimTime::ZERO,
            until: SimTime::from_ticks(10),
            period: 0,
            partitioned: 5,
            groups: vec![vec![ProcessId(0)], vec![ProcessId(1)]],
        };
        // period clamps to 1 and partitioned clamps to the period, so the
        // flap degenerates to a permanent partition inside its window.
        assert!(flap.active(SimTime::from_ticks(3)));
    }

    #[test]
    fn link_override_is_directed_and_last_wins() {
        let cfg = NetworkConfig::default()
            .with_link_override(LinkOverride {
                from: ProcessId(0),
                to: ProcessId(1),
                drop_probability: Some(0.5),
                delay: None,
            })
            .with_link_override(LinkOverride {
                from: ProcessId(0),
                to: ProcessId(1),
                drop_probability: Some(0.9),
                delay: Some(DelayModel::Fixed(42)),
            });
        // Last registered override wins.
        assert_eq!(cfg.drop_probability_for(ProcessId(0), ProcessId(1)), 0.9);
        assert_eq!(
            cfg.delay_for(ProcessId(0), ProcessId(1)),
            &DelayModel::Fixed(42)
        );
        // The reverse direction falls back to the global knobs.
        assert_eq!(cfg.drop_probability_for(ProcessId(1), ProcessId(0)), 0.0);
        assert_eq!(cfg.delay_for(ProcessId(1), ProcessId(0)), &cfg.delay);
    }

    #[test]
    fn config_partition_blocks_includes_flapping() {
        let cfg = NetworkConfig::default().with_flapping(FlappingPartition {
            from: SimTime::ZERO,
            until: SimTime::from_ticks(100),
            period: 10,
            partitioned: 4,
            groups: vec![vec![ProcessId(0)], vec![ProcessId(1)]],
        });
        assert!(cfg.partition_blocks(SimTime::from_ticks(2), ProcessId(0), ProcessId(1)));
        assert!(!cfg.partition_blocks(SimTime::from_ticks(6), ProcessId(0), ProcessId(1)));
        assert!(!cfg.partition_blocks(SimTime::from_ticks(100), ProcessId(0), ProcessId(1)));
    }

    #[test]
    fn config_partition_blocks() {
        let cfg = NetworkConfig {
            partitions: vec![PartitionWindow {
                from: SimTime::ZERO,
                until: SimTime::from_ticks(100),
                groups: vec![vec![ProcessId(0)], vec![ProcessId(1)]],
            }],
            ..NetworkConfig::default()
        };
        assert!(cfg.partition_blocks(SimTime::from_ticks(1), ProcessId(0), ProcessId(1)));
        assert!(!cfg.partition_blocks(SimTime::from_ticks(100), ProcessId(0), ProcessId(1)));
        assert!(!cfg.partition_blocks(SimTime::from_ticks(1), ProcessId(0), ProcessId(0)));
    }
}
