//! Seeded experiment runners for Ben-Or — shared by the integration tests,
//! the property tests and the `ooc-bench` tables (T3, T4, T5, T7).

use crate::monolithic::MonolithicBenOr;
use crate::reconciliator::CoinFlip;
use crate::vac::BenOrVac;
use crate::{BenOrProcess, BenOrWire};
use ooc_core::checker::{check_consensus, check_termination, RoundOutcomes, Violation};
use ooc_core::compose::{TwoAcVac, VacAsAc};
use ooc_core::confidence::Confidence;
use ooc_core::template::{RoundRecord, Template, TemplateConfig};
use ooc_simnet::{
    Adversary, ClockModel, Decision, FaultPlan, FnAdversary, NetworkConfig, ProcessId,
    ReliabilityPolicy, RunLimit, RunOutcome, Sim, SimDuration, StateAdversary, StorageFaultPlan,
};

/// Parameters of a Ben-Or experiment.
#[derive(Debug, Clone)]
pub struct BenOrConfig {
    /// Network size.
    pub n: usize,
    /// Crash-fault tolerance (`t < n/2`).
    pub t: usize,
    /// Network behaviour.
    pub network: NetworkConfig,
    /// Crash schedule.
    pub faults: FaultPlan,
    /// Safety valve on template rounds.
    pub max_rounds: u64,
    /// Engine-level run limit (simulated time / event ceilings). The
    /// campaign engine tightens this so adversarial stalls surface as
    /// bounded runs instead of hanging the sweep.
    pub run_limit: RunLimit,
    /// Test-only sabotage: overrides the VAC commit threshold (the
    /// paper's rule is `t + 1`). See [`BenOrVac::with_commit_threshold`].
    pub commit_threshold: Option<usize>,
    /// Bounds engine trace capture to a ring of the most recent events
    /// (`None`, the default, keeps everything). Campaign runs set zero
    /// and record no trace, since no campaign check reads one.
    pub trace_capacity: Option<usize>,
    /// Reliable-delivery policy of the engine. `Off` (the default)
    /// reproduces the historical fire-and-forget network byte-for-byte;
    /// [`ReliabilityPolicy::Retransmit`] arms ack/dedup with seeded
    /// exponential-backoff retransmission.
    pub reliability: ReliabilityPolicy,
}

impl BenOrConfig {
    /// A default configuration for `n` processors tolerating `t` crashes.
    pub fn new(n: usize, t: usize) -> Self {
        assert!(2 * t < n, "Ben-Or requires t < n/2 (got n={n}, t={t})");
        BenOrConfig {
            n,
            t,
            network: NetworkConfig::default(),
            faults: FaultPlan::default(),
            max_rounds: 10_000,
            run_limit: RunLimit::default(),
            commit_threshold: None,
            trace_capacity: None,
            reliability: ReliabilityPolicy::default(),
        }
    }

    /// Replaces the engine-level run limit.
    pub fn with_run_limit(mut self, limit: RunLimit) -> Self {
        self.run_limit = limit;
        self
    }

    /// Caps template rounds (a processor whose VAC reaches the cap stops
    /// making progress, which the checkers then report as a stall).
    pub fn with_max_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Test-only: plants a sabotaged VAC commit threshold so campaign
    /// tests can prove the checker pipeline catches an unsafe protocol.
    #[doc(hidden)]
    pub fn with_sabotaged_commit_threshold(mut self, threshold: usize) -> Self {
        self.commit_threshold = Some(threshold);
        self
    }

    /// Replaces the network configuration.
    pub fn with_network(mut self, network: NetworkConfig) -> Self {
        self.network = network;
        self
    }

    /// Replaces the fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Bounds engine trace capture to a ring of the most recent
    /// `capacity` events. Observability-only: stats, metrics and
    /// decisions are byte-identical to an unbounded run.
    pub fn with_trace_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = Some(capacity);
        self
    }

    /// Arms (or disarms) the engine's reliable-delivery layer. With
    /// [`ReliabilityPolicy::Retransmit`] every unicast is buffered,
    /// acked, deduplicated, and retransmitted on a seeded
    /// exponential-backoff schedule until acknowledged or retired.
    /// `Off` is fire-and-forget delivery.
    pub fn with_reliability(mut self, reliability: ReliabilityPolicy) -> Self {
        self.reliability = reliability;
        self
    }

    /// Processes that are never crashed by the fault plan (and therefore
    /// must terminate).
    pub fn must_decide(&self) -> Vec<ProcessId> {
        (0..self.n)
            .map(ProcessId)
            .filter(|p| !self.faults.crashes().iter().any(|&(q, _)| q == *p))
            .collect()
    }
}

/// Everything measured from one decomposed Ben-Or execution.
#[derive(Debug)]
pub struct BenOrRun {
    /// The engine-level outcome (decisions, stats, trace).
    pub outcome: RunOutcome<bool>,
    /// Per-process template histories.
    pub histories: Vec<Vec<RoundRecord<bool>>>,
    /// Property violations found by the checkers (must be empty).
    pub violations: Vec<Violation>,
    /// Highest round any processor completed.
    pub max_round: u64,
    /// Tally of `[vacillate, adopt, commit]` outcomes over all
    /// (processor, round) pairs — experiment T4's distribution.
    pub confidence_counts: [u64; 3],
    /// Number of (processor, round) adopt outcomes whose value differs
    /// from the final decision — exactly the states the paper's §5
    /// argument says an AC-based decomposition would wrongly commit (T5).
    pub adopt_divergences: u64,
}

impl BenOrRun {
    /// Rounds needed until the *last* processor decided (the usual
    /// latency metric for randomized consensus).
    pub fn rounds_to_decide(&self) -> Option<u64> {
        self.histories
            .iter()
            .zip(self.outcome.decisions.iter())
            .filter(|(_, d)| d.is_some())
            .map(|(h, _)| {
                h.iter()
                    .find(|r| r.outcome.confidence == Confidence::Commit)
                    .map(|r| r.round)
                    .unwrap_or(u64::MAX)
            })
            .max()
    }
}

fn analyze(
    cfg: &BenOrConfig,
    inputs: &[bool],
    outcome: RunOutcome<bool>,
    histories: Vec<Vec<RoundRecord<bool>>>,
    open_rounds: Vec<(u64, bool)>,
) -> BenOrRun {
    let mut violations = Vec::new();
    let max_round = histories
        .iter()
        .flat_map(|h| h.iter().map(|r| r.round))
        .max()
        .unwrap_or(0);
    let handles: Vec<(ProcessId, &[RoundRecord<bool>])> = histories
        .iter()
        .enumerate()
        .map(|(i, h)| (ProcessId(i), h.as_slice()))
        .collect();
    let mut confidence_counts = [0u64; 3];
    let mut adopt_divergences = 0u64;
    let final_value = outcome.decided_value();
    for round in 1..=max_round {
        // Processors that invoked `round` but never completed it (crashed
        // or still waiting) still count as invokers for validity and
        // convergence.
        let extra = open_rounds
            .iter()
            .zip(&histories)
            .filter(|((r, _), h)| *r == round && h.iter().all(|rec| rec.round != round))
            .map(|((_, v), _)| *v);
        let ro = RoundOutcomes::from_histories(round, &handles).with_extra_inputs(extra);
        violations.extend(ro.check_vac());
        for e in &ro.entries {
            confidence_counts[e.outcome.confidence as usize] += 1;
            if e.outcome.confidence == Confidence::Adopt {
                if let Some(f) = final_value {
                    if e.outcome.value != f {
                        adopt_divergences += 1;
                    }
                }
            }
        }
    }
    violations.extend(check_consensus(inputs, &outcome.decisions));
    violations.extend(check_termination(&cfg.must_decide(), &outcome.decisions));
    BenOrRun {
        outcome,
        histories,
        violations,
        max_round,
        confidence_counts,
        adopt_divergences,
    }
}

fn template_config(cfg: &BenOrConfig) -> TemplateConfig {
    TemplateConfig {
        halt_after_decide: false,
        max_rounds: Some(cfg.max_rounds),
    }
}

/// Runs the decomposed protocol (template + [`BenOrVac`] + [`CoinFlip`],
/// paper Algorithms 1, 5, 6) and checks every paper property on the way
/// out.
///
/// # Panics
/// Panics if `inputs.len() != cfg.n`, or if `cfg.faults` schedules
/// restarts — Ben-Or is analyzed under **crash-stop**, and a restarted
/// process would silently resume with its full pre-crash state (see
/// [`FaultPlan::assert_crash_stop`]).
pub fn run_decomposed(cfg: &BenOrConfig, inputs: &[bool], seed: u64) -> BenOrRun {
    run_decomposed_with(cfg, inputs, seed, None)
}

/// Like [`run_decomposed`] but with a custom message-scheduling adversary.
pub fn run_decomposed_with(
    cfg: &BenOrConfig,
    inputs: &[bool],
    seed: u64,
    adversary: Option<Box<dyn Adversary<BenOrWire>>>,
) -> BenOrRun {
    run_decomposed_gray(
        cfg,
        inputs,
        seed,
        GrayOptions {
            adversary,
            ..GrayOptions::default()
        },
    )
}

/// Gray-failure knobs for [`run_decomposed_gray`]: at most one adversary
/// (message-adaptive *or* state-adaptive), per-process clock drift, and
/// slow-disk injection.
#[derive(Default)]
pub struct GrayOptions {
    /// A message-scheduling adversary (sees payloads, not state).
    pub adversary: Option<Box<dyn Adversary<BenOrWire>>>,
    /// A state-adaptive adversary (sees live protocol observables).
    pub state_adversary: Option<Box<dyn StateAdversary<BenOrWire>>>,
    /// Per-process timer-rate model (default: every clock nominal).
    pub clocks: ClockModel,
    /// Storage fault policy, including `sync()` latency injection.
    pub storage: StorageFaultPlan,
}

/// Like [`run_decomposed`] but under the full gray-failure model: drifting
/// clocks, slow disks, and optionally a state-adaptive adversary with a
/// read-only view of live votes, rounds, and decisions.
pub fn run_decomposed_gray(
    cfg: &BenOrConfig,
    inputs: &[bool],
    seed: u64,
    opts: GrayOptions,
) -> BenOrRun {
    assert_eq!(inputs.len(), cfg.n, "one input per processor");
    cfg.faults.assert_crash_stop("Ben-Or");
    let (n, t) = (cfg.n, cfg.t);
    let threshold = cfg.commit_threshold.unwrap_or(t + 1);
    let mut builder = Sim::builder(cfg.network.clone())
        .seed(seed)
        .reliability(cfg.reliability)
        .faults(cfg.faults.clone())
        .clocks(opts.clocks)
        .storage(opts.storage)
        .processes(inputs.iter().map(|&v| -> BenOrProcess {
            Template::vac(
                v,
                move |_m| BenOrVac::with_commit_threshold(n, t, threshold),
                |_m| CoinFlip::new(),
                template_config(cfg),
            )
        }));
    if let Some(adv) = opts.adversary {
        builder = builder.adversary(adv);
    }
    if let Some(adv) = opts.state_adversary {
        builder = builder.state_adversary(adv);
    }
    if let Some(cap) = cfg.trace_capacity {
        builder = builder.trace_capacity(cap);
    }
    let mut sim = builder.build();
    let outcome = sim.run(cfg.run_limit);
    let processes = sim.into_processes();
    let open_rounds: Vec<(u64, bool)> = processes
        .iter()
        .map(|p| (p.round(), *p.preference()))
        .collect();
    let histories = processes.into_iter().map(Template::into_history).collect();
    analyze(cfg, inputs, outcome, histories, open_rounds)
}

/// The §5 composition: the same consensus but with the VAC built from two
/// adopt-commit objects ([`TwoAcVac`] over [`VacAsAc`]`<`[`BenOrVac`]`>`),
/// i.e. four message exchanges per round instead of two. Used by T7 to
/// price the composition.
pub fn run_composed(cfg: &BenOrConfig, inputs: &[bool], seed: u64) -> BenOrRun {
    assert_eq!(inputs.len(), cfg.n, "one input per processor");
    cfg.faults.assert_crash_stop("Ben-Or");
    let (n, t) = (cfg.n, cfg.t);
    type ComposedVac = TwoAcVac<VacAsAc<BenOrVac>>;
    let mut sim = Sim::builder(cfg.network.clone())
        .seed(seed)
        .reliability(cfg.reliability)
        .faults(cfg.faults.clone())
        .processes(inputs.iter().map(|&v| -> Template<ComposedVac, CoinFlip> {
            Template::vac(
                v,
                move |_m| {
                    TwoAcVac::new(
                        VacAsAc(BenOrVac::new(n, t)),
                        VacAsAc(BenOrVac::new(n, t)),
                    )
                },
                |_m| CoinFlip::new(),
                template_config(cfg),
            )
        }))
        .build();
    let outcome = sim.run(RunLimit::default());
    let processes = sim.into_processes();
    let open_rounds: Vec<(u64, bool)> = processes
        .iter()
        .map(|p| (p.round(), *p.preference()))
        .collect();
    let histories = processes.into_iter().map(Template::into_history).collect();
    analyze(cfg, inputs, outcome, histories, open_rounds)
}

/// Runs the monolithic baseline; returns the engine outcome plus the
/// highest round any processor reached.
pub fn run_monolithic(cfg: &BenOrConfig, inputs: &[bool], seed: u64) -> (RunOutcome<bool>, u64) {
    assert_eq!(inputs.len(), cfg.n, "one input per processor");
    cfg.faults.assert_crash_stop("Ben-Or");
    let mut sim = Sim::builder(cfg.network.clone())
        .seed(seed)
        .reliability(cfg.reliability)
        .faults(cfg.faults.clone())
        .processes(
            inputs
                .iter()
                .map(|&v| MonolithicBenOr::new(v, cfg.n, cfg.t)),
        )
        .build();
    let outcome = sim.run(RunLimit::default());
    let max_round = (0..cfg.n)
        .map(|i| sim.process(ProcessId(i)).round())
        .max()
        .unwrap_or(0);
    (outcome, max_round)
}

/// A split-vote adversary: messages within each half of the network are
/// fast, messages across halves are slow. With a half-and-half input split
/// this is the classic attempt to keep Ben-Or's votes balanced; the
/// coin-flip reconciliator must still break through (Lemma 4 / T3).
pub fn split_adversary<M: 'static>(
    n: usize,
    fast: (u64, u64),
    slow: (u64, u64),
) -> Box<dyn Adversary<M>> {
    Box::new(FnAdversary::new(move |_at, from, to, _msg: &M, rng| {
        let same_half = (from.index() < n / 2) == (to.index() < n / 2);
        let (lo, hi) = if same_half { fast } else { slow };
        Decision::DeliverAfter(SimDuration::from_ticks(rng.range_inclusive(lo.max(1), hi.max(1))))
    }))
}

/// Alternating `true/false` inputs — the adversarially balanced workload.
pub fn balanced_inputs(n: usize) -> Vec<bool> {
    (0..n).map(|i| i % 2 == 0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ooc_simnet::SimTime;

    #[test]
    #[should_panic(expected = "crash-stop protocol")]
    fn decomposed_rejects_restart_plans() {
        use ooc_simnet::{FaultPlan, ProcessId};
        let cfg = BenOrConfig::new(5, 2).with_faults(
            FaultPlan::new()
                .crash_at(ProcessId(4), SimTime::from_ticks(10))
                .restart_at(ProcessId(4), SimTime::from_ticks(50)),
        );
        let _ = run_decomposed(&cfg, &balanced_inputs(5), 0);
    }

    #[test]
    #[should_panic(expected = "crash-stop protocol")]
    fn composed_rejects_restart_plans() {
        use ooc_simnet::{FaultPlan, ProcessId};
        let cfg = BenOrConfig::new(5, 2).with_faults(
            FaultPlan::new()
                .crash_at(ProcessId(4), SimTime::from_ticks(10))
                .restart_at(ProcessId(4), SimTime::from_ticks(50)),
        );
        let _ = run_composed(&cfg, &balanced_inputs(5), 0);
    }

    #[test]
    #[should_panic(expected = "crash-stop protocol")]
    fn monolithic_rejects_restart_plans() {
        use ooc_simnet::{FaultPlan, ProcessId};
        let cfg = BenOrConfig::new(5, 2).with_faults(
            FaultPlan::new()
                .crash_at(ProcessId(4), SimTime::from_ticks(10))
                .restart_at(ProcessId(4), SimTime::from_ticks(50)),
        );
        let _ = run_monolithic(&cfg, &balanced_inputs(5), 0);
    }

    #[test]
    fn decomposed_ben_or_is_correct_across_seeds() {
        let cfg = BenOrConfig::new(5, 2);
        for seed in 0..25 {
            let run = run_decomposed(&cfg, &balanced_inputs(5), seed);
            assert!(run.outcome.all_decided(), "seed {seed}");
            assert!(
                run.violations.is_empty(),
                "seed {seed}: {:?}",
                run.violations
            );
        }
    }

    #[test]
    fn checks_see_the_same_run_with_and_without_a_trace() {
        use ooc_core::checker::ViolationKind;
        use ooc_simnet::{FaultPlan, ProcessId};
        // The sabotaged-threshold case campaigns must catch: commit on t
        // votes instead of t + 1, under a split-vote schedule. Campaign
        // runs record no trace, so nothing the checks report may depend
        // on trace capture.
        let (n, t) = (7, 3);
        let run = |seed, capacity: Option<usize>| {
            let mut cfg = BenOrConfig::new(n, t)
                .with_network(NetworkConfig::lossy(1, 5, 0.05))
                .with_faults(FaultPlan::new().crash_at(ProcessId(6), SimTime::from_ticks(60)))
                .with_max_rounds(200)
                .with_sabotaged_commit_threshold(t);
            if let Some(capacity) = capacity {
                cfg = cfg.with_trace_capacity(capacity);
            }
            let adversary = split_adversary(n, (1, 3), (20, 40));
            run_decomposed_with(&cfg, &balanced_inputs(n), seed, Some(adversary))
        };
        let seed = (0..300)
            .find(|&seed| {
                run(seed, Some(0))
                    .violations
                    .iter()
                    .any(|v| v.kind != ViolationKind::Termination)
            })
            .expect("the sabotaged threshold breaks safety within 300 seeds");
        let (blind, full) = (run(seed, Some(0)), run(seed, None));
        assert!(blind.outcome.trace.is_empty());
        assert!(!full.outcome.trace.is_empty());
        assert_eq!(blind.violations, full.violations);
        assert_eq!(blind.outcome.decisions, full.outcome.decisions);
        assert_eq!(blind.outcome.stats, full.outcome.stats);
        assert_eq!(blind.outcome.metrics.to_json(), full.outcome.metrics.to_json());
    }

    #[test]
    fn unanimous_inputs_commit_in_round_one() {
        let cfg = BenOrConfig::new(5, 2);
        for seed in 0..10 {
            let run = run_decomposed(&cfg, &[true; 5], seed);
            assert_eq!(run.outcome.decided_value(), Some(true));
            assert_eq!(run.rounds_to_decide(), Some(1), "convergence ⇒ round 1");
        }
    }

    #[test]
    fn tolerates_t_crashes() {
        let n = 7;
        let t = 3;
        let cfg = BenOrConfig::new(n, t)
            .with_faults(FaultPlan::new().crash_tail(n, t, SimTime::from_ticks(20)));
        for seed in 0..10 {
            let run = run_decomposed(&cfg, &balanced_inputs(n), seed);
            assert!(
                run.violations.is_empty(),
                "seed {seed}: {:?}",
                run.violations
            );
        }
    }

    #[test]
    fn split_adversary_cannot_block_termination() {
        let n = 6;
        let cfg = BenOrConfig::new(n, 2);
        for seed in 0..5 {
            let run = run_decomposed_with(
                &cfg,
                &balanced_inputs(n),
                seed,
                Some(split_adversary(n, (1, 3), (30, 60))),
            );
            assert!(run.outcome.all_decided(), "seed {seed}");
            assert!(run.violations.is_empty(), "seed {seed}");
        }
    }

    #[test]
    fn composed_vac_is_correct_and_heavier() {
        let cfg = BenOrConfig::new(5, 2);
        let mut composed_msgs = 0;
        let mut native_msgs = 0;
        for seed in 0..10 {
            let c = run_composed(&cfg, &balanced_inputs(5), seed);
            assert!(c.violations.is_empty(), "seed {seed}: {:?}", c.violations);
            let nrun = run_decomposed(&cfg, &balanced_inputs(5), seed);
            composed_msgs += c.outcome.stats.messages_sent;
            native_msgs += nrun.outcome.stats.messages_sent;
        }
        assert!(
            composed_msgs > native_msgs,
            "two ACs must cost more messages than one native VAC"
        );
    }

    #[test]
    fn monolithic_and_decomposed_agree_on_guarantees() {
        let cfg = BenOrConfig::new(5, 2);
        for seed in 0..10 {
            let (out, _) = run_monolithic(&cfg, &balanced_inputs(5), seed);
            assert!(out.all_decided(), "seed {seed}");
            assert!(out.agreement(), "seed {seed}");
        }
    }

    #[test]
    fn confidence_distribution_is_tracked() {
        let cfg = BenOrConfig::new(5, 2);
        let mut totals = [0u64; 3];
        for seed in 0..20 {
            let run = run_decomposed(&cfg, &balanced_inputs(5), seed);
            for (i, c) in run.confidence_counts.iter().enumerate() {
                totals[i] += c;
            }
        }
        // Every run ends with commits, and balanced inputs force some
        // vacillation along the way.
        assert!(totals[Confidence::Commit as usize] > 0);
        assert!(totals[Confidence::Vacillate as usize] > 0);
    }

    #[test]
    #[should_panic(expected = "one input per processor")]
    fn input_arity_is_checked() {
        let cfg = BenOrConfig::new(5, 2);
        let _ = run_decomposed(&cfg, &[true], 0);
    }
}
