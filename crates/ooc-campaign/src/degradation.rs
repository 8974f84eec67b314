//! The degradation report: adversary strength × gray-failure intensity.
//!
//! Where [`sweep`](crate::sweep::sweep) hunts for violations and
//! [`report`](crate::report) summarizes the classic grids, `degradation`
//! measures *how gracefully Ben-Or limps*: for every combination of a
//! gray-failure regime (asymmetric loss, flapping partitions, heavy-tailed
//! delays with clock drift and slow disks) and a rung of the adversary
//! ladder (oblivious → message-adaptive → state-adaptive), it runs a batch
//! of seeded executions under a fixed round/tick budget and reports
//!
//! * the **eventual-agreement probability** — the fraction of runs in
//!   which every live process decided within the budget, in permille so
//!   the report stays integer-only and byte-identical, and
//! * **rounds-to-decide percentiles** over the runs that did decide.
//!
//! Every cell is materialized as ordinary [`FailureArtifact`]s and
//! executed through [`run_all`], so the report inherits the campaign's
//! byte-identity guarantee: `--jobs 1` and `--jobs N` produce the same
//! bytes, and any interesting cell can be replayed artifact-by-artifact.

use crate::artifact::{field, is_safety, AdversarySpec, Algorithm, FailureArtifact};
use crate::json::Json;
use crate::parallel::run_all;
use crate::report::PercentileSummary;
use crate::sweep::{asym_lossy_net, flapping_net, heavy_tailed_net, inputs_for};
use ooc_simnet::{NetworkConfig, ReliabilityPolicy};

/// Cluster size for every degradation cell.
const N: usize = 7;
/// Fault tolerance for every degradation cell.
const T: usize = 3;
/// Round budget per run; runs that exceed it count as *not agreed*.
const MAX_ROUNDS: u64 = 40;
/// Tick budget per run.
const MAX_TICKS: u64 = 60_000;
/// Adversary budget: attacks stay live for the whole tick budget, so the
/// agreement probability measures what the protocol salvages *under*
/// attack, not after it relents.
const ATTACK_TICKS: u64 = 60_000;

/// One gray-failure regime: name, network model, per-process clock rates
/// (percent of nominal), and slow-disk `sync()` latency in ticks.
type Regime = (&'static str, NetworkConfig, Vec<(usize, u32)>, u64);

/// The gray-failure regimes, weakest first.
fn regimes() -> Vec<Regime> {
    vec![
        ("clean", NetworkConfig::reliable(1), Vec::new(), 0),
        ("asym-loss", asym_lossy_net(N), Vec::new(), 0),
        ("flapping", flapping_net(N), vec![(0, 140)], 2),
        (
            "heavy-tail-drift",
            heavy_tailed_net(),
            vec![(0, 150), (N - 1, 70)],
            4,
        ),
    ]
}

/// The adversary ladder, weakest first.
fn ladder() -> Vec<(&'static str, AdversarySpec)> {
    vec![
        ("oblivious", AdversarySpec::None),
        (
            "split-vote",
            AdversarySpec::SplitVote {
                until_ticks: ATTACK_TICKS,
                slow_ticks: 25,
            },
        ),
        (
            "state-split-vote",
            AdversarySpec::StateSplitVote {
                until_ticks: ATTACK_TICKS,
            },
        ),
        (
            "quorum-starve",
            AdversarySpec::QuorumFlap {
                until_ticks: ATTACK_TICKS,
                period: 60,
            },
        ),
    ]
}

/// One (regime × adversary) measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationCell {
    /// Adversary rung name.
    pub adversary: &'static str,
    /// Runs executed.
    pub runs: u64,
    /// Runs in which every live process decided within the budget.
    pub agreed: u64,
    /// `agreed / runs` in permille (integer floor).
    pub agreement_permille: u64,
    /// Runs that broke a safety property (must stay 0 — gray failures and
    /// adaptive adversaries may stall Ben-Or but never fork it).
    pub safety_violations: u64,
    /// Runs the liveness watchdog classified as stalled: live undecided
    /// processes with nothing in flight, armed, or buffered.
    pub stalled: u64,
    /// Reliability-layer retransmissions summed over the cell's runs
    /// (zero when the policy is `Off`).
    pub retransmissions: u64,
    /// Reliability-layer acknowledgements summed over the cell's runs.
    pub acks_sent: u64,
    /// Rounds consumed, over the runs that agreed.
    pub rounds_to_decide: PercentileSummary,
}

/// All cells of one gray-failure regime.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationRegime {
    /// Regime name.
    pub regime: &'static str,
    /// One cell per adversary rung, ladder order.
    pub cells: Vec<DegradationCell>,
}

/// The full degradation report.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationReport {
    /// Cluster size.
    pub n: usize,
    /// Fault tolerance.
    pub t: usize,
    /// Seeds per cell.
    pub seeds: usize,
    /// Engine reliable-delivery policy every cell ran under.
    pub reliability: ReliabilityPolicy,
    /// One entry per regime, weakest first.
    pub regimes: Vec<DegradationRegime>,
}

/// The artifacts of one (regime, adversary) cell, in seed order.
fn cell_artifacts(
    network: &NetworkConfig,
    clock_rates: &[(usize, u32)],
    sync_latency: u64,
    adversary: AdversarySpec,
    seeds: usize,
    reliability: ReliabilityPolicy,
) -> Vec<FailureArtifact> {
    (0..seeds as u64)
        .map(|seed| FailureArtifact {
            max_rounds: MAX_ROUNDS,
            max_ticks: MAX_TICKS,
            network: Some(network.clone()),
            adversary,
            clock_rates: clock_rates.to_vec(),
            sync_latency,
            reliability,
            ..FailureArtifact::clean(Algorithm::BenOr, N, T, seed, inputs_for(N, seed))
        })
        .collect()
}

/// Every artifact of the degradation sweep, regime-major then ladder
/// order then seed order, all under `reliability`. Exposed so the CLI
/// can dump the artifacts for replay.
pub fn degradation_artifacts_with(
    seeds: usize,
    reliability: ReliabilityPolicy,
) -> Vec<FailureArtifact> {
    let mut all = Vec::new();
    for (_, network, clock_rates, sync_latency) in regimes() {
        for (_, adversary) in ladder() {
            all.extend(cell_artifacts(
                &network,
                &clock_rates,
                sync_latency,
                adversary,
                seeds,
                reliability,
            ));
        }
    }
    all
}

/// Every artifact of the classic (fire-and-forget) degradation sweep.
pub fn degradation_artifacts(seeds: usize) -> Vec<FailureArtifact> {
    degradation_artifacts_with(seeds, ReliabilityPolicy::Off)
}

/// Runs the degradation sweep under `reliability`: `seeds` runs per
/// (regime × adversary) cell on up to `jobs` workers. The report — and
/// its rendered JSON — is byte-identical for every `jobs` value.
pub fn degradation_report_with(
    seeds: usize,
    jobs: usize,
    reliability: ReliabilityPolicy,
) -> DegradationReport {
    let artifacts = degradation_artifacts_with(seeds, reliability);
    let outcomes = run_all(&artifacts, jobs);
    let mut it = outcomes.chunks(seeds.max(1));
    let mut report = DegradationReport {
        n: N,
        t: T,
        seeds,
        reliability,
        regimes: Vec::new(),
    };
    for (regime, ..) in regimes() {
        let mut cells = Vec::new();
        for (adversary, _) in ladder() {
            let outs = it.next().expect("one chunk per cell");
            let mut agreed = 0u64;
            let mut safety_violations = 0u64;
            let mut stalled = 0u64;
            let mut retransmissions = 0u64;
            let mut acks_sent = 0u64;
            let mut rounds = Vec::new();
            for out in outs {
                if out.undecided == 0 {
                    agreed += 1;
                    rounds.push(out.spent.rounds);
                }
                if out.violations.iter().any(|v| is_safety(v.kind)) {
                    safety_violations += 1;
                }
                if out.stalled {
                    stalled += 1;
                }
                retransmissions += out.retransmissions;
                acks_sent += out.acks_sent;
            }
            let runs = outs.len() as u64;
            cells.push(DegradationCell {
                adversary,
                runs,
                agreed,
                agreement_permille: (agreed * 1000).checked_div(runs).unwrap_or(0),
                safety_violations,
                stalled,
                retransmissions,
                acks_sent,
                rounds_to_decide: PercentileSummary::of(&rounds),
            });
        }
        report.regimes.push(DegradationRegime { regime, cells });
    }
    report
}

/// The classic degradation sweep: fire-and-forget delivery. Pinned to
/// `Off` so the committed T14 cells stay byte-identical.
pub fn degradation_report_jobs(seeds: usize, jobs: usize) -> DegradationReport {
    degradation_report_with(seeds, jobs, ReliabilityPolicy::Off)
}

/// The reliability degradation sweep: the same grid with the engine's
/// retransmission layer armed at its defaults. The headline lives in the
/// quorum-starve column, which climbs from 0‰ to ≥900‰.
pub fn degradation_reliability_report_jobs(seeds: usize, jobs: usize) -> DegradationReport {
    degradation_report_with(
        seeds,
        jobs,
        ReliabilityPolicy::Retransmit(ooc_simnet::RetransmitConfig::default()),
    )
}

impl DegradationCell {
    /// Renders as a JSON object with a fixed field order. This is the
    /// *classic* cell form: the watchdog and reliability columns are
    /// deliberately absent so the committed T14 report bytes never move.
    pub fn to_json(&self) -> Json {
        self.render(false)
    }

    /// Renders the reliability-report cell form: the classic columns
    /// plus the watchdog verdict and the retransmission/ack overhead.
    pub fn to_json_reliability(&self) -> Json {
        self.render(true)
    }

    /// The cell's columns, with the watchdog and overhead columns when
    /// `reliability` is set.
    fn render(&self, reliability: bool) -> Json {
        let mut fields = vec![
            ("adversary".to_string(), Json::Str(self.adversary.into())),
            field("runs", &self.runs),
            field("agreed", &self.agreed),
            field("agreement_permille", &self.agreement_permille),
            field("safety_violations", &self.safety_violations),
        ];
        if reliability {
            fields.extend([
                field("stalled", &self.stalled),
                field("retransmissions", &self.retransmissions),
                field("acks_sent", &self.acks_sent),
            ]);
        }
        fields.push(("rounds_to_decide".into(), self.rounds_to_decide.to_json()));
        Json::Obj(fields)
    }
}

/// Renders the full report document. Byte-identical across repeated runs
/// and worker counts: every value is an exact integer derived from the
/// deterministic grid, never from the wall clock or the host.
pub fn degradation_json(report: &DegradationReport) -> Json {
    render(report, false)
}

/// Renders the reliability degradation report. Same grid and byte-
/// identity discipline as [`degradation_json`], distinguished by its own
/// schema string, the pinned retransmission knobs, and the extra
/// watchdog/overhead columns per cell.
pub fn degradation_reliability_json(report: &DegradationReport) -> Json {
    render(report, true)
}

/// The report document, in its reliability form when `reliability` is
/// set.
fn render(report: &DegradationReport, reliability: bool) -> Json {
    let schema = if reliability {
        "ooc-campaign-degradation-reliability/v1"
    } else {
        "ooc-campaign-degradation/v1"
    };
    let mut fields = vec![
        ("schema".to_string(), Json::Str(schema.into())),
        field("algorithm", &Algorithm::BenOr),
        field("n", &report.n),
        field("t", &report.t),
        field("seeds", &report.seeds),
        field("max_rounds", &MAX_ROUNDS),
        field("max_ticks", &MAX_TICKS),
        field("attack_ticks", &ATTACK_TICKS),
    ];
    if reliability {
        fields.push(field("reliability", &report.reliability));
    }
    let regimes = report.regimes.iter().map(|r| {
        let cells = r.cells.iter().map(|c| c.render(reliability)).collect();
        Json::Obj(vec![
            ("regime".into(), Json::Str(r.regime.into())),
            ("cells".into(), Json::Arr(cells)),
        ])
    });
    fields.push(("regimes".into(), Json::Arr(regimes.collect())));
    Json::Obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degradation_report_is_byte_identical_across_thread_counts() {
        let serial = degradation_json(&degradation_report_jobs(6, 1)).pretty();
        for jobs in [2, 4] {
            let parallel = degradation_json(&degradation_report_jobs(6, jobs)).pretty();
            assert_eq!(serial, parallel, "jobs={jobs} changed the report bytes");
        }
        let doc = Json::parse(&serial).expect("valid JSON");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("ooc-campaign-degradation/v1")
        );
        assert_eq!(doc.get("regimes").and_then(Json::as_arr).unwrap().len(), 4);
    }

    #[test]
    fn quorum_starve_stalls_without_retransmission_and_agrees_with_it() {
        // The PR-10 headline, pinned at test scale. Fire-and-forget:
        // every quorum-starved run dies — 0 agreement, and the liveness
        // watchdog attributes each one as Stalled (nothing in flight,
        // armed, or buffered; the run is dead, not slow). Retransmission:
        // agreement climbs past 900‰ in every regime with zero safety
        // violations and zero stalls.
        let off = degradation_report_jobs(6, 4);
        for regime in &off.regimes {
            let cell = regime
                .cells
                .iter()
                .find(|c| c.adversary == "quorum-starve")
                .expect("quorum-starve rung");
            assert_eq!(cell.agreed, 0, "{}: starved runs cannot agree", regime.regime);
            assert_eq!(
                cell.stalled, cell.runs,
                "{}: every starved fire-and-forget run is watchdog-stalled",
                regime.regime
            );
            assert_eq!(cell.retransmissions, 0);
            assert_eq!(cell.acks_sent, 0);
        }
        let on = degradation_reliability_report_jobs(6, 4);
        for regime in &on.regimes {
            let cell = regime
                .cells
                .iter()
                .find(|c| c.adversary == "quorum-starve")
                .expect("quorum-starve rung");
            assert!(
                cell.agreement_permille >= 900,
                "{}: retransmission must rescue the starved runs, got {}‰",
                regime.regime,
                cell.agreement_permille
            );
            assert_eq!(cell.safety_violations, 0, "{}", regime.regime);
            assert_eq!(cell.stalled, 0, "{}", regime.regime);
            assert!(
                cell.retransmissions > 0,
                "{}: the rescue must come from actual retransmissions",
                regime.regime
            );
        }
    }

    #[test]
    fn reliability_report_is_byte_identical_across_thread_counts() {
        let serial =
            degradation_reliability_json(&degradation_reliability_report_jobs(4, 1)).pretty();
        for jobs in [2, 4] {
            let parallel =
                degradation_reliability_json(&degradation_reliability_report_jobs(4, jobs))
                    .pretty();
            assert_eq!(serial, parallel, "jobs={jobs} changed the report bytes");
        }
        let doc = Json::parse(&serial).expect("valid JSON");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("ooc-campaign-degradation-reliability/v1")
        );
        assert_eq!(
            doc.get("reliability")
                .and_then(|r| r.get("policy"))
                .and_then(Json::as_str),
            Some("retransmit")
        );
    }

    #[test]
    fn gray_failures_never_break_safety() {
        let report = degradation_report_jobs(8, 4);
        for regime in &report.regimes {
            for cell in &regime.cells {
                assert_eq!(
                    cell.safety_violations, 0,
                    "{}/{} broke safety",
                    regime.regime, cell.adversary
                );
                assert_eq!(cell.runs, 8);
            }
        }
    }

    #[test]
    fn state_adaptive_adversary_degrades_agreement_below_the_oblivious_baseline() {
        // The acceptance criterion: across the regimes, the state-adaptive
        // split-vote must push eventual-agreement probability measurably
        // below the oblivious baseline. Deterministic, so exact totals.
        let report = degradation_report_jobs(10, 4);
        let total = |name: &str| -> u64 {
            report
                .regimes
                .iter()
                .flat_map(|r| &r.cells)
                .filter(|c| c.adversary == name)
                .map(|c| c.agreed)
                .sum()
        };
        let oblivious = total("oblivious");
        let state_split = total("state-split-vote");
        let starve = total("quorum-starve");
        assert!(
            state_split < oblivious,
            "state-split-vote must degrade agreement: {state_split} vs {oblivious}"
        );
        assert!(
            starve <= oblivious,
            "quorum-starve must not beat the baseline: {starve} vs {oblivious}"
        );
    }
}
