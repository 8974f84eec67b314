//! Self-contained, re-runnable failure artifacts.
//!
//! When a sweep finds a violation it serializes **everything the run's
//! identity depends on** — algorithm, sizes, seed, inputs, fault plan,
//! network configuration, adversary parameters, budget caps, sabotage
//! flags — into one JSON document. Anyone holding the file can replay
//! the exact execution (`ooc-campaign replay art.json`) or minimize it
//! (`ooc-campaign shrink art.json`); determinism is inherited from the
//! simulator's seeded RNG discipline.

use crate::json::{Json, JsonError};
use ooc_core::checker::{Violation, ViolationKind};
use ooc_phase_king::Attack;
use ooc_simnet::{
    ClockModel, DelayModel, FaultPlan, FlappingPartition, LinkOverride, NetworkConfig,
    PartitionWindow, ProcessId, ReliabilityPolicy, RetransmitConfig, SimDuration, SimTime,
    StoragePolicy,
};

/// Which decomposition the artifact drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Ben-Or (asynchronous, crash faults, randomized).
    BenOr,
    /// Phase-King (synchronous, Byzantine faults).
    PhaseKing,
    /// Raft as single-shot consensus (asynchronous, crash faults).
    Raft,
}

impl Algorithm {
    /// The stable string used in JSON and on the CLI.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::BenOr => "ben-or",
            Algorithm::PhaseKing => "phase-king",
            Algorithm::Raft => "raft",
        }
    }

    /// Parses the stable string form.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "ben-or" => Some(Algorithm::BenOr),
            "phase-king" => Some(Algorithm::PhaseKing),
            "raft" => Some(Algorithm::Raft),
            _ => None,
        }
    }

    /// All three decompositions.
    pub fn all() -> [Algorithm; 3] {
        [Algorithm::BenOr, Algorithm::PhaseKing, Algorithm::Raft]
    }
}

/// One scheduled fault, serialization-friendly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSpec {
    /// Crash process `p` at simulated tick `tick` (asynchronous engine).
    CrashAt {
        /// Victim.
        p: usize,
        /// Simulated instant.
        tick: u64,
    },
    /// Crash process `p` after it has handled `events` events.
    CrashAfterEvents {
        /// Victim.
        p: usize,
        /// Handler-invocation threshold.
        events: u64,
    },
    /// Restart process `p` at simulated tick `tick`.
    RestartAt {
        /// The process to revive.
        p: usize,
        /// Simulated instant.
        tick: u64,
    },
    /// Crash process `p` at synchronous round `round` (Phase-King).
    CrashAtRound {
        /// Victim (an honest id).
        p: usize,
        /// Lock-step round number.
        round: u64,
    },
}

impl FaultSpec {
    /// The victim's process index.
    pub fn process(&self) -> usize {
        match *self {
            FaultSpec::CrashAt { p, .. }
            | FaultSpec::CrashAfterEvents { p, .. }
            | FaultSpec::RestartAt { p, .. }
            | FaultSpec::CrashAtRound { p, .. } => p,
        }
    }

    /// Whether this entry is a crash (as opposed to a restart).
    pub fn is_crash(&self) -> bool {
        !matches!(self, FaultSpec::RestartAt { .. })
    }
}

/// Converts serialization-friendly fault entries into an engine
/// [`FaultPlan`] (ignoring the synchronous-only `CrashAtRound` entries).
pub fn faults_to_plan(faults: &[FaultSpec]) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for f in faults {
        plan = match *f {
            FaultSpec::CrashAt { p, tick } => {
                plan.crash_at(ProcessId(p), SimTime::from_ticks(tick))
            }
            FaultSpec::CrashAfterEvents { p, events } => {
                plan.crash_after_events(ProcessId(p), events)
            }
            FaultSpec::RestartAt { p, tick } => {
                plan.restart_at(ProcessId(p), SimTime::from_ticks(tick))
            }
            FaultSpec::CrashAtRound { .. } => plan,
        };
    }
    plan
}

/// The synchronous crash schedule carried by the fault list.
pub fn faults_to_round_crashes(faults: &[FaultSpec]) -> Vec<(ProcessId, u64)> {
    faults
        .iter()
        .filter_map(|f| match *f {
            FaultSpec::CrashAtRound { p, round } => Some((ProcessId(p), round)),
            _ => None,
        })
        .collect()
}

/// Which message-scheduling adversary to install.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdversarySpec {
    /// No custom adversary; the stochastic network config rules alone.
    None,
    /// Ben-Or vote splitter: biases report/ratify delivery order so each
    /// recipient sees a near-tie, until `until_ticks`, then plays fair.
    SplitVote {
        /// Tick at which the attack yields to a fair scheduler.
        until_ticks: u64,
        /// Transit delay applied to tie-breaking messages.
        slow_ticks: u64,
    },
    /// Raft leader isolator: each newly elected leader is cut off from
    /// the cluster for `isolation_ticks`, at most `max_flaps` times.
    LeaderFlap {
        /// How long each fresh leader stays isolated.
        isolation_ticks: u64,
        /// Attack budget; afterwards the scheduler plays fair.
        max_flaps: u64,
    },
    /// State-adaptive vote splitter (Ben-Or): reads live preferences and
    /// cuts cross-camp links to keep the network split, until
    /// `until_ticks`, then plays fair.
    StateSplitVote {
        /// Tick at which the attack yields to a fair scheduler.
        until_ticks: u64,
    },
    /// State-adaptive quorum starver (Ben-Or): alternately starves
    /// whichever camp is closest to quorum at the frontier round.
    QuorumFlap {
        /// Tick at which the attack yields to a fair scheduler.
        until_ticks: u64,
        /// Starve/heal alternation period in ticks.
        period: u64,
    },
}

impl AdversarySpec {
    /// Whether this spec names a *state-adaptive* adversary (installed
    /// via [`ooc_simnet::StateAdversary`] rather than a message
    /// adversary).
    pub fn is_state_adaptive(self) -> bool {
        matches!(
            self,
            AdversarySpec::StateSplitVote { .. } | AdversarySpec::QuorumFlap { .. }
        )
    }
}

/// A compact record of the violation the artifact reproduces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViolationSummary {
    /// The violated property, in stable string form (see
    /// [`kind_name`]).
    pub kind: String,
    /// The round, when the checker attributed one.
    pub round: Option<u64>,
    /// Human-readable details from the checker.
    pub detail: String,
}

impl ViolationSummary {
    /// Summarizes a checker violation.
    pub fn of(v: &Violation) -> Self {
        ViolationSummary {
            kind: kind_name(v.kind).to_string(),
            round: v.round,
            detail: v.detail.clone(),
        }
    }
}

/// The stable string form of a [`ViolationKind`].
pub fn kind_name(kind: ViolationKind) -> &'static str {
    match kind {
        ViolationKind::Validity => "validity",
        ViolationKind::Convergence => "convergence",
        ViolationKind::CoherenceAdoptCommit => "coherence-adopt-commit",
        ViolationKind::CoherenceVacillateAdopt => "coherence-vacillate-adopt",
        ViolationKind::Agreement => "agreement",
        ViolationKind::DecisionValidity => "decision-validity",
        ViolationKind::Termination => "termination",
    }
}

/// Whether a violation kind breaks *safety* (anything but termination).
pub fn is_safety(kind: ViolationKind) -> bool {
    kind != ViolationKind::Termination
}

/// Everything needed to re-run one failing execution.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureArtifact {
    /// Which decomposition to drive.
    pub algorithm: Algorithm,
    /// Network size.
    pub n: usize,
    /// Fault tolerance the protocol is parameterized with.
    pub t: usize,
    /// Phase-King only: how many actually-Byzantine processors.
    pub byzantine: Option<usize>,
    /// Phase-King only: the Byzantine behaviour (stable string form).
    pub attack: Option<String>,
    /// The run seed.
    pub seed: u64,
    /// Inputs — `{0,1}` for Ben-Or (booleans) and Phase-King (honest
    /// processors only), arbitrary `u64` proposals for Raft.
    pub inputs: Vec<u64>,
    /// Template-round / phase cap.
    pub max_rounds: u64,
    /// Simulated-time budget in ticks (asynchronous engines).
    pub max_ticks: u64,
    /// Network behaviour (asynchronous engines).
    pub network: Option<NetworkConfig>,
    /// Crash/restart schedule.
    pub faults: Vec<FaultSpec>,
    /// The message-scheduling adversary.
    pub adversary: AdversarySpec,
    /// Ben-Or only: a deliberately broken VAC commit threshold, proving
    /// the campaign catches unsafe protocols.
    pub sabotage_commit_threshold: Option<usize>,
    /// Raft only: a uniform stable-storage crash policy for every node
    /// (`None` ⇒ the engine default, `sync-always`). Lossy policies make
    /// restarts forget persisted state, which is how the campaign
    /// manufactures real double-vote Election Safety violations.
    pub storage_policy: Option<StoragePolicy>,
    /// Per-process clock rates in percent (empty ⇒ every clock nominal).
    /// `(p, 150)` makes `p`'s timers fire 1.5× late — a slow clock.
    pub clock_rates: Vec<(usize, u32)>,
    /// Uniform `sync()` latency in ticks (0 ⇒ instantaneous fsync).
    pub sync_latency: u64,
    /// Engine reliable-delivery policy. `Off` (the default, and the only
    /// value legacy artifacts can carry) reproduces the historical
    /// fire-and-forget network byte-for-byte.
    pub reliability: ReliabilityPolicy,
    /// Liveness-watchdog verdict of the run this artifact reproduces:
    /// the tick at which progress ceased, when the run stalled (live
    /// undecided processes with nothing in flight, armed, or buffered).
    /// Filled in alongside `violation`; `None` for live runs and legacy
    /// artifacts.
    pub stalled_since: Option<u64>,
    /// The violation this artifact reproduces (filled in by the sweep).
    pub violation: Option<ViolationSummary>,
}

impl FailureArtifact {
    /// The engine [`ClockModel`] described by `clock_rates`.
    pub fn clock_model(&self) -> ClockModel {
        let mut clocks = ClockModel::nominal();
        for &(p, rate) in &self.clock_rates {
            clocks = clocks.with_rate(ProcessId(p), rate);
        }
        clocks
    }

    /// Parses the Phase-King attack string ("silent", "equivocate",
    /// "random", "fixed:K").
    pub fn parse_attack(&self) -> Attack {
        match self.attack.as_deref() {
            Some("silent") => Attack::Silent,
            Some("random") => Attack::Random,
            Some(s) if s.starts_with("fixed:") => {
                Attack::Fixed(s["fixed:".len()..].parse().unwrap_or(0))
            }
            _ => Attack::Equivocate,
        }
    }

    /// The stable string form of a Phase-King attack.
    pub fn attack_name(attack: Attack) -> String {
        match attack {
            Attack::Silent => "silent".to_string(),
            Attack::Equivocate => "equivocate".to_string(),
            Attack::Random => "random".to_string(),
            Attack::Fixed(v) => format!("fixed:{v}"),
        }
    }

    /// Serializes to the artifact JSON document.
    pub fn to_json(&self) -> Json {
        let mut fields: Vec<(String, Json)> = vec![
            ("algorithm".into(), Json::Str(self.algorithm.name().into())),
            ("n".into(), Json::U64(self.n as u64)),
            ("t".into(), Json::U64(self.t as u64)),
            ("seed".into(), Json::U64(self.seed)),
            (
                "inputs".into(),
                Json::Arr(self.inputs.iter().map(|&v| Json::U64(v)).collect()),
            ),
            ("max_rounds".into(), Json::U64(self.max_rounds)),
            ("max_ticks".into(), Json::U64(self.max_ticks)),
        ];
        if let Some(b) = self.byzantine {
            fields.push(("byzantine".into(), Json::U64(b as u64)));
        }
        if let Some(a) = &self.attack {
            fields.push(("attack".into(), Json::Str(a.clone())));
        }
        if let Some(net) = &self.network {
            fields.push(("network".into(), network_to_json(net)));
        }
        if !self.faults.is_empty() {
            fields.push((
                "faults".into(),
                Json::Arr(self.faults.iter().map(fault_to_json).collect()),
            ));
        }
        fields.push(("adversary".into(), adversary_to_json(self.adversary)));
        if let Some(th) = self.sabotage_commit_threshold {
            fields.push(("sabotage_commit_threshold".into(), Json::U64(th as u64)));
        }
        if let Some(policy) = self.storage_policy {
            fields.push(("storage_policy".into(), Json::Str(policy.name().into())));
        }
        if !self.clock_rates.is_empty() {
            fields.push((
                "clock_rates".into(),
                Json::Arr(
                    self.clock_rates
                        .iter()
                        .map(|&(p, rate)| {
                            Json::Obj(vec![
                                ("p".into(), Json::U64(p as u64)),
                                ("rate_percent".into(), Json::U64(rate as u64)),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        if self.sync_latency > 0 {
            fields.push(("sync_latency".into(), Json::U64(self.sync_latency)));
        }
        // The reliability policy and watchdog verdict are emitted only
        // when present, so artifacts written before the reliable-delivery
        // layer existed stay byte-identical on round-trip.
        if let ReliabilityPolicy::Retransmit(cfg) = self.reliability {
            fields.push((
                "reliability".into(),
                Json::Obj(vec![
                    ("policy".into(), Json::Str("retransmit".into())),
                    ("rto_initial".into(), Json::U64(cfg.rto_initial)),
                    ("rto_max".into(), Json::U64(cfg.rto_max)),
                    ("jitter_permille".into(), Json::U64(cfg.jitter_permille)),
                    ("max_retries".into(), Json::U64(cfg.max_retries as u64)),
                    (
                        "buffer_capacity".into(),
                        Json::U64(cfg.buffer_capacity as u64),
                    ),
                    ("ack_delay".into(), Json::U64(cfg.ack_delay)),
                ]),
            ));
        }
        if let Some(tick) = self.stalled_since {
            fields.push(("stalled_since".into(), Json::U64(tick)));
        }
        if let Some(v) = &self.violation {
            fields.push((
                "violation".into(),
                Json::Obj(vec![
                    ("kind".into(), Json::Str(v.kind.clone())),
                    (
                        "round".into(),
                        v.round.map(Json::U64).unwrap_or(Json::Null),
                    ),
                    ("detail".into(), Json::Str(v.detail.clone())),
                ]),
            ));
        }
        Json::Obj(fields)
    }

    /// Deserializes from the artifact JSON document.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        let alg = json
            .get("algorithm")
            .and_then(Json::as_str)
            .and_then(Algorithm::parse)
            .ok_or("missing or unknown \"algorithm\"")?;
        let n = json
            .get("n")
            .and_then(Json::as_usize)
            .ok_or("missing \"n\"")?;
        let t = json
            .get("t")
            .and_then(Json::as_usize)
            .ok_or("missing \"t\"")?;
        let seed = json
            .get("seed")
            .and_then(Json::as_u64)
            .ok_or("missing \"seed\"")?;
        let inputs = json
            .get("inputs")
            .and_then(Json::as_arr)
            .ok_or("missing \"inputs\"")?
            .iter()
            .map(|v| v.as_u64().ok_or("non-integer input"))
            .collect::<Result<Vec<u64>, _>>()?;
        let max_rounds = json
            .get("max_rounds")
            .and_then(Json::as_u64)
            .ok_or("missing \"max_rounds\"")?;
        let max_ticks = json
            .get("max_ticks")
            .and_then(Json::as_u64)
            .ok_or("missing \"max_ticks\"")?;
        let byzantine = json.get("byzantine").and_then(Json::as_usize);
        let attack = json
            .get("attack")
            .and_then(Json::as_str)
            .map(|s| s.to_string());
        let network = match json.get("network") {
            Some(net) => Some(network_from_json(net)?),
            None => None,
        };
        let faults = match json.get("faults").and_then(Json::as_arr) {
            Some(items) => items
                .iter()
                .map(fault_from_json)
                .collect::<Result<Vec<_>, _>>()?,
            None => Vec::new(),
        };
        let adversary = adversary_from_json(json.get("adversary"))?;
        let sabotage_commit_threshold =
            json.get("sabotage_commit_threshold").and_then(Json::as_usize);
        let storage_policy = match json.get("storage_policy").and_then(Json::as_str) {
            Some(name) => Some(
                StoragePolicy::from_name(name)
                    .ok_or_else(|| format!("unknown storage_policy {name:?}"))?,
            ),
            None => None,
        };
        // Pre-gray-failure artifacts carry neither field: default to
        // nominal clocks and instantaneous fsync (backward compat).
        let clock_rates = match json.get("clock_rates").and_then(Json::as_arr) {
            Some(items) => items
                .iter()
                .map(|c| {
                    Ok((
                        c.get("p")
                            .and_then(Json::as_usize)
                            .ok_or("clock_rates entry missing \"p\"")?,
                        c.get("rate_percent")
                            .and_then(Json::as_u64)
                            .ok_or("clock_rates entry missing \"rate_percent\"")?
                            as u32,
                    ))
                })
                .collect::<Result<Vec<_>, String>>()?,
            None => Vec::new(),
        };
        let sync_latency = json.get("sync_latency").and_then(Json::as_u64).unwrap_or(0);
        let reliability = match json.get("reliability") {
            Some(r) => reliability_from_json(r)?,
            // Artifacts written before the reliable-delivery layer
            // existed carry no field: fire-and-forget (backward compat).
            None => ReliabilityPolicy::Off,
        };
        let stalled_since = json.get("stalled_since").and_then(Json::as_u64);
        let violation = json.get("violation").map(|v| {
            ViolationSummary {
                kind: v
                    .get("kind")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown")
                    .to_string(),
                round: v.get("round").and_then(Json::as_u64),
                detail: v
                    .get("detail")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
            }
        });
        let artifact = FailureArtifact {
            algorithm: alg,
            n,
            t,
            byzantine,
            attack,
            seed,
            inputs,
            max_rounds,
            max_ticks,
            network,
            faults,
            adversary,
            sabotage_commit_threshold,
            storage_policy,
            clock_rates,
            sync_latency,
            reliability,
            stalled_since,
            violation,
        };
        artifact.validate()?;
        Ok(artifact)
    }

    /// Checks the preconditions the algorithm harnesses and the engine
    /// assert, so an artifact that parses but cannot run is rejected with
    /// a message instead of panicking mid-run: the resilience bound
    /// (`2t < n` for Ben-Or, `3t < n` for Phase-King; Raft runs on `n`
    /// alone and never reads `t`), `byzantine ≤ t`, one input per process
    /// (per honest process for Phase-King), fault process ids below `n`,
    /// no restarts for the crash-stop protocols, and a fault plan the
    /// engine accepts (every restart follows a crash of its process).
    /// Phase-King also needs binary inputs, crashes on honest ids only,
    /// and Byzantine plus crashed processes within `t`. Retransmit knobs
    /// must keep the engine's backoff arithmetic in range: jitter at most
    /// 1000‰ and RTOs within `u32::MAX` ticks. The shrinker offers only
    /// candidates that pass this check.
    pub(crate) fn validate(&self) -> Result<(), String> {
        let (alg, n, t) = (self.algorithm.name(), self.n, self.t);
        let bound = match self.algorithm {
            Algorithm::BenOr => Some((2, "2t < n")),
            Algorithm::PhaseKing => Some((3, "3t < n")),
            Algorithm::Raft => None,
        };
        if let Some((_, bound)) = bound.filter(|&(factor, _)| t.saturating_mul(factor) >= n) {
            return Err(format!("{alg} requires {bound} (got n={n}, t={t})"));
        }
        if let Some(b) = self.byzantine.filter(|&b| b > t) {
            return Err(format!("byzantine count {b} exceeds t={t}"));
        }
        let byzantine = match self.algorithm {
            Algorithm::PhaseKing => self.byzantine.unwrap_or(t),
            Algorithm::BenOr | Algorithm::Raft => 0,
        };
        if self.inputs.len() != n - byzantine {
            let per = if byzantine > 0 {
                "honest process"
            } else {
                "process"
            };
            return Err(format!(
                "{alg} needs {} inputs, one per {per} (got {})",
                n - byzantine,
                self.inputs.len()
            ));
        }
        if let Some(f) = self.faults.iter().find(|f| f.process() >= n) {
            return Err(format!(
                "fault {f:?} names process {} but n={n}",
                f.process()
            ));
        }
        let crash_stop = self.algorithm != Algorithm::Raft;
        if crash_stop && !self.faults.iter().all(FaultSpec::is_crash) {
            return Err(format!(
                "{alg} is a crash-stop protocol: restart-at faults are not supported"
            ));
        }
        faults_to_plan(&self.faults).validate()?;
        if let ReliabilityPolicy::Retransmit(cfg) = self.reliability {
            if cfg.jitter_permille > 1000 {
                return Err(format!(
                    "reliability jitter_permille {} exceeds 1000",
                    cfg.jitter_permille
                ));
            }
            for (knob, rto) in [("rto_initial", cfg.rto_initial), ("rto_max", cfg.rto_max)] {
                if rto > u64::from(u32::MAX) {
                    return Err(format!("reliability {knob} {rto} exceeds {}", u32::MAX));
                }
            }
        }
        if self.algorithm == Algorithm::PhaseKing {
            if self.inputs.iter().any(|&v| v > 1) {
                return Err("phase-king inputs must be binary".into());
            }
            let mut crashed: Vec<ProcessId> = faults_to_round_crashes(&self.faults)
                .into_iter()
                .map(|(p, _)| p)
                .collect();
            crashed.sort_unstable();
            crashed.dedup();
            if let Some(p) = crashed.iter().find(|p| p.index() < byzantine) {
                return Err(format!("crash schedule names Byzantine process {p}"));
            }
            if byzantine + crashed.len() > t {
                return Err(format!(
                    "fault budget exceeded: {byzantine} Byzantine + {} crashed > t={t}",
                    crashed.len()
                ));
            }
        }
        Ok(())
    }

    /// Parses an artifact from JSON text.
    pub fn from_json_str(text: &str) -> Result<Self, String> {
        let json = Json::parse(text).map_err(|e: JsonError| e.to_string())?;
        Self::from_json(&json)
    }

    /// Serializes to pretty JSON text.
    pub fn to_string_pretty(&self) -> String {
        self.to_json().pretty()
    }
}

fn delay_to_json(delay: &DelayModel) -> Json {
    match *delay {
        DelayModel::Fixed(ticks) => Json::Obj(vec![
            ("model".into(), Json::Str("fixed".into())),
            ("ticks".into(), Json::U64(ticks)),
        ]),
        DelayModel::Uniform { min, max } => Json::Obj(vec![
            ("model".into(), Json::Str("uniform".into())),
            ("min".into(), Json::U64(min)),
            ("max".into(), Json::U64(max)),
        ]),
        DelayModel::Exponential { mean } => Json::Obj(vec![
            ("model".into(), Json::Str("exponential".into())),
            ("mean".into(), Json::U64(mean)),
        ]),
        DelayModel::HeavyTailed {
            floor,
            alpha_milli,
            cap,
        } => Json::Obj(vec![
            ("model".into(), Json::Str("heavy-tailed".into())),
            ("floor".into(), Json::U64(floor)),
            ("alpha_milli".into(), Json::U64(alpha_milli)),
            ("cap".into(), Json::U64(cap)),
        ]),
    }
}

fn delay_from_json(delay_json: &Json) -> Result<DelayModel, String> {
    match delay_json.get("model").and_then(Json::as_str) {
        Some("fixed") => Ok(DelayModel::Fixed(
            delay_json
                .get("ticks")
                .and_then(Json::as_u64)
                .ok_or("fixed delay missing \"ticks\"")?,
        )),
        Some("uniform") => Ok(DelayModel::Uniform {
            min: delay_json
                .get("min")
                .and_then(Json::as_u64)
                .ok_or("uniform delay missing \"min\"")?,
            max: delay_json
                .get("max")
                .and_then(Json::as_u64)
                .ok_or("uniform delay missing \"max\"")?,
        }),
        Some("exponential") => Ok(DelayModel::Exponential {
            mean: delay_json
                .get("mean")
                .and_then(Json::as_u64)
                .ok_or("exponential delay missing \"mean\"")?,
        }),
        Some("heavy-tailed") => Ok(DelayModel::HeavyTailed {
            floor: delay_json
                .get("floor")
                .and_then(Json::as_u64)
                .ok_or("heavy-tailed delay missing \"floor\"")?,
            alpha_milli: delay_json
                .get("alpha_milli")
                .and_then(Json::as_u64)
                .ok_or("heavy-tailed delay missing \"alpha_milli\"")?,
            cap: delay_json
                .get("cap")
                .and_then(Json::as_u64)
                .ok_or("heavy-tailed delay missing \"cap\"")?,
        }),
        _ => Err("unknown delay model".to_string()),
    }
}

fn groups_to_json(groups: &[Vec<ProcessId>]) -> Json {
    Json::Arr(
        groups
            .iter()
            .map(|g| Json::Arr(g.iter().map(|p| Json::U64(p.index() as u64)).collect()))
            .collect(),
    )
}

fn groups_from_json(json: &Json) -> Result<Vec<Vec<ProcessId>>, String> {
    json.as_arr()
        .ok_or("\"groups\" must be an array")?
        .iter()
        .map(|g| {
            g.as_arr()
                .ok_or_else(|| "partition group must be an array".to_string())
                .map(|ids| ids.iter().filter_map(Json::as_usize).map(ProcessId).collect())
        })
        .collect()
}

fn network_to_json(net: &NetworkConfig) -> Json {
    let delay = delay_to_json(&net.delay);
    let partitions = net
        .partitions
        .iter()
        .map(|w| {
            Json::Obj(vec![
                ("from".into(), Json::U64(w.from.ticks())),
                ("until".into(), Json::U64(w.until.ticks())),
                ("groups".into(), groups_to_json(&w.groups)),
            ])
        })
        .collect();
    let mut fields = vec![
        ("delay".into(), delay),
        ("drop_probability".into(), Json::F64(net.drop_probability)),
        (
            "duplicate_probability".into(),
            Json::F64(net.duplicate_probability),
        ),
        ("fifo_links".into(), Json::Bool(net.fifo_links)),
        ("self_delay".into(), Json::U64(net.self_delay.ticks())),
        ("partitions".into(), Json::Arr(partitions)),
    ];
    // Gray-failure extensions are emitted only when present so artifacts
    // written by older tools stay byte-identical on round-trip.
    if !net.link_overrides.is_empty() {
        fields.push((
            "link_overrides".into(),
            Json::Arr(
                net.link_overrides
                    .iter()
                    .map(|l| {
                        let mut o = vec![
                            ("from".into(), Json::U64(l.from.index() as u64)),
                            ("to".into(), Json::U64(l.to.index() as u64)),
                        ];
                        if let Some(p) = l.drop_probability {
                            o.push(("drop_probability".into(), Json::F64(p)));
                        }
                        if let Some(d) = &l.delay {
                            o.push(("delay".into(), delay_to_json(d)));
                        }
                        Json::Obj(o)
                    })
                    .collect(),
            ),
        ));
    }
    if !net.flapping.is_empty() {
        fields.push((
            "flapping".into(),
            Json::Arr(
                net.flapping
                    .iter()
                    .map(|f| {
                        Json::Obj(vec![
                            ("from".into(), Json::U64(f.from.ticks())),
                            ("until".into(), Json::U64(f.until.ticks())),
                            ("period".into(), Json::U64(f.period)),
                            ("partitioned".into(), Json::U64(f.partitioned)),
                            ("groups".into(), groups_to_json(&f.groups)),
                        ])
                    })
                    .collect(),
            ),
        ));
    }
    Json::Obj(fields)
}

fn network_from_json(json: &Json) -> Result<NetworkConfig, String> {
    let delay_json = json.get("delay").ok_or("network missing \"delay\"")?;
    let delay = delay_from_json(delay_json)?;
    let partitions = match json.get("partitions").and_then(Json::as_arr) {
        Some(items) => items
            .iter()
            .map(|w| {
                Ok(PartitionWindow {
                    from: SimTime::from_ticks(
                        w.get("from")
                            .and_then(Json::as_u64)
                            .ok_or("partition missing \"from\"")?,
                    ),
                    until: SimTime::from_ticks(
                        w.get("until")
                            .and_then(Json::as_u64)
                            .ok_or("partition missing \"until\"")?,
                    ),
                    groups: groups_from_json(
                        w.get("groups").ok_or("partition missing \"groups\"")?,
                    )?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?,
        None => Vec::new(),
    };
    let link_overrides = match json.get("link_overrides").and_then(Json::as_arr) {
        Some(items) => items
            .iter()
            .map(|l| {
                Ok(LinkOverride {
                    from: ProcessId(
                        l.get("from")
                            .and_then(Json::as_usize)
                            .ok_or("link override missing \"from\"")?,
                    ),
                    to: ProcessId(
                        l.get("to")
                            .and_then(Json::as_usize)
                            .ok_or("link override missing \"to\"")?,
                    ),
                    drop_probability: l.get("drop_probability").and_then(Json::as_f64),
                    delay: match l.get("delay") {
                        Some(d) => Some(delay_from_json(d)?),
                        None => None,
                    },
                })
            })
            .collect::<Result<Vec<_>, String>>()?,
        None => Vec::new(),
    };
    let flapping = match json.get("flapping").and_then(Json::as_arr) {
        Some(items) => items
            .iter()
            .map(|f| {
                Ok(FlappingPartition {
                    from: SimTime::from_ticks(
                        f.get("from")
                            .and_then(Json::as_u64)
                            .ok_or("flapping missing \"from\"")?,
                    ),
                    until: SimTime::from_ticks(
                        f.get("until")
                            .and_then(Json::as_u64)
                            .ok_or("flapping missing \"until\"")?,
                    ),
                    period: f
                        .get("period")
                        .and_then(Json::as_u64)
                        .ok_or("flapping missing \"period\"")?,
                    partitioned: f
                        .get("partitioned")
                        .and_then(Json::as_u64)
                        .ok_or("flapping missing \"partitioned\"")?,
                    groups: groups_from_json(
                        f.get("groups").ok_or("flapping missing \"groups\"")?,
                    )?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?,
        None => Vec::new(),
    };
    Ok(NetworkConfig {
        delay,
        drop_probability: json
            .get("drop_probability")
            .and_then(Json::as_f64)
            .unwrap_or(0.0),
        duplicate_probability: json
            .get("duplicate_probability")
            .and_then(Json::as_f64)
            .unwrap_or(0.0),
        fifo_links: json
            .get("fifo_links")
            .and_then(Json::as_bool)
            .unwrap_or(false),
        self_delay: SimDuration::from_ticks(
            json.get("self_delay").and_then(Json::as_u64).unwrap_or(0),
        ),
        partitions,
        link_overrides,
        flapping,
    })
}

fn fault_to_json(f: &FaultSpec) -> Json {
    match *f {
        FaultSpec::CrashAt { p, tick } => Json::Obj(vec![
            ("kind".into(), Json::Str("crash-at".into())),
            ("p".into(), Json::U64(p as u64)),
            ("tick".into(), Json::U64(tick)),
        ]),
        FaultSpec::CrashAfterEvents { p, events } => Json::Obj(vec![
            ("kind".into(), Json::Str("crash-after-events".into())),
            ("p".into(), Json::U64(p as u64)),
            ("events".into(), Json::U64(events)),
        ]),
        FaultSpec::RestartAt { p, tick } => Json::Obj(vec![
            ("kind".into(), Json::Str("restart-at".into())),
            ("p".into(), Json::U64(p as u64)),
            ("tick".into(), Json::U64(tick)),
        ]),
        FaultSpec::CrashAtRound { p, round } => Json::Obj(vec![
            ("kind".into(), Json::Str("crash-at-round".into())),
            ("p".into(), Json::U64(p as u64)),
            ("round".into(), Json::U64(round)),
        ]),
    }
}

fn fault_from_json(json: &Json) -> Result<FaultSpec, String> {
    let p = json
        .get("p")
        .and_then(Json::as_usize)
        .ok_or("fault missing \"p\"")?;
    match json.get("kind").and_then(Json::as_str) {
        Some("crash-at") => Ok(FaultSpec::CrashAt {
            p,
            tick: json
                .get("tick")
                .and_then(Json::as_u64)
                .ok_or("crash-at missing \"tick\"")?,
        }),
        Some("crash-after-events") => Ok(FaultSpec::CrashAfterEvents {
            p,
            events: json
                .get("events")
                .and_then(Json::as_u64)
                .ok_or("crash-after-events missing \"events\"")?,
        }),
        Some("restart-at") => Ok(FaultSpec::RestartAt {
            p,
            tick: json
                .get("tick")
                .and_then(Json::as_u64)
                .ok_or("restart-at missing \"tick\"")?,
        }),
        Some("crash-at-round") => Ok(FaultSpec::CrashAtRound {
            p,
            round: json
                .get("round")
                .and_then(Json::as_u64)
                .ok_or("crash-at-round missing \"round\"")?,
        }),
        _ => Err("unknown fault kind".to_string()),
    }
}

fn adversary_to_json(spec: AdversarySpec) -> Json {
    match spec {
        AdversarySpec::None => Json::Obj(vec![("kind".into(), Json::Str("none".into()))]),
        AdversarySpec::SplitVote {
            until_ticks,
            slow_ticks,
        } => Json::Obj(vec![
            ("kind".into(), Json::Str("split-vote".into())),
            ("until_ticks".into(), Json::U64(until_ticks)),
            ("slow_ticks".into(), Json::U64(slow_ticks)),
        ]),
        AdversarySpec::LeaderFlap {
            isolation_ticks,
            max_flaps,
        } => Json::Obj(vec![
            ("kind".into(), Json::Str("leader-flap".into())),
            ("isolation_ticks".into(), Json::U64(isolation_ticks)),
            ("max_flaps".into(), Json::U64(max_flaps)),
        ]),
        AdversarySpec::StateSplitVote { until_ticks } => Json::Obj(vec![
            ("kind".into(), Json::Str("state-split-vote".into())),
            ("until_ticks".into(), Json::U64(until_ticks)),
        ]),
        AdversarySpec::QuorumFlap {
            until_ticks,
            period,
        } => Json::Obj(vec![
            ("kind".into(), Json::Str("quorum-flap".into())),
            ("until_ticks".into(), Json::U64(until_ticks)),
            ("period".into(), Json::U64(period)),
        ]),
    }
}

fn reliability_from_json(json: &Json) -> Result<ReliabilityPolicy, String> {
    match json.get("policy").and_then(Json::as_str) {
        Some("off") => Ok(ReliabilityPolicy::Off),
        Some("retransmit") => {
            // Missing knobs fall back to the engine defaults so artifacts
            // can pin only the values they care about.
            let d = RetransmitConfig::default();
            let u = |key: &str, default: u64| {
                json.get(key).and_then(Json::as_u64).unwrap_or(default)
            };
            let max_retries = u("max_retries", d.max_retries.into());
            Ok(ReliabilityPolicy::Retransmit(RetransmitConfig {
                rto_initial: u("rto_initial", d.rto_initial),
                rto_max: u("rto_max", d.rto_max),
                jitter_permille: u("jitter_permille", d.jitter_permille),
                max_retries: u32::try_from(max_retries).map_err(|_| {
                    format!("reliability max_retries {max_retries} exceeds {}", u32::MAX)
                })?,
                buffer_capacity: u("buffer_capacity", d.buffer_capacity as u64) as usize,
                ack_delay: u("ack_delay", d.ack_delay),
            }))
        }
        other => Err(format!("unknown reliability policy {other:?}")),
    }
}

fn adversary_from_json(json: Option<&Json>) -> Result<AdversarySpec, String> {
    let Some(json) = json else {
        return Ok(AdversarySpec::None);
    };
    match json.get("kind").and_then(Json::as_str) {
        None | Some("none") => Ok(AdversarySpec::None),
        Some("split-vote") => Ok(AdversarySpec::SplitVote {
            until_ticks: json
                .get("until_ticks")
                .and_then(Json::as_u64)
                .ok_or("split-vote missing \"until_ticks\"")?,
            slow_ticks: json
                .get("slow_ticks")
                .and_then(Json::as_u64)
                .ok_or("split-vote missing \"slow_ticks\"")?,
        }),
        Some("leader-flap") => Ok(AdversarySpec::LeaderFlap {
            isolation_ticks: json
                .get("isolation_ticks")
                .and_then(Json::as_u64)
                .ok_or("leader-flap missing \"isolation_ticks\"")?,
            max_flaps: json
                .get("max_flaps")
                .and_then(Json::as_u64)
                .ok_or("leader-flap missing \"max_flaps\"")?,
        }),
        Some("state-split-vote") => Ok(AdversarySpec::StateSplitVote {
            until_ticks: json
                .get("until_ticks")
                .and_then(Json::as_u64)
                .ok_or("state-split-vote missing \"until_ticks\"")?,
        }),
        Some("quorum-flap") => Ok(AdversarySpec::QuorumFlap {
            until_ticks: json
                .get("until_ticks")
                .and_then(Json::as_u64)
                .ok_or("quorum-flap missing \"until_ticks\"")?,
            period: json
                .get("period")
                .and_then(Json::as_u64)
                .ok_or("quorum-flap missing \"period\"")?,
        }),
        Some(other) => Err(format!("unknown adversary kind {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every field populated. Raft, the one crash-recovery protocol, so
    /// the restart entry passes validation.
    fn sample() -> FailureArtifact {
        FailureArtifact {
            algorithm: Algorithm::Raft,
            n: 5,
            t: 2,
            byzantine: None,
            attack: None,
            seed: 0xDEAD_BEEF_CAFE_F00D,
            inputs: vec![0, 1, 0, 1, 0],
            max_rounds: 64,
            max_ticks: 100_000,
            network: Some(NetworkConfig {
                delay: DelayModel::Uniform { min: 1, max: 9 },
                drop_probability: 0.05,
                duplicate_probability: 0.01,
                fifo_links: true,
                self_delay: SimDuration::from_ticks(1),
                partitions: vec![PartitionWindow {
                    from: SimTime::from_ticks(10),
                    until: SimTime::from_ticks(500),
                    groups: vec![
                        vec![ProcessId(0), ProcessId(1)],
                        vec![ProcessId(2), ProcessId(3), ProcessId(4)],
                    ],
                }],
                link_overrides: Vec::new(),
                flapping: Vec::new(),
            }),
            faults: vec![
                FaultSpec::CrashAt { p: 4, tick: 120 },
                FaultSpec::RestartAt { p: 4, tick: 900 },
                FaultSpec::CrashAfterEvents { p: 3, events: 77 },
            ],
            adversary: AdversarySpec::SplitVote {
                until_ticks: 5_000,
                slow_ticks: 40,
            },
            sabotage_commit_threshold: Some(2),
            storage_policy: Some(StoragePolicy::Amnesia),
            clock_rates: Vec::new(),
            sync_latency: 0,
            reliability: ReliabilityPolicy::Off,
            stalled_since: None,
            violation: Some(ViolationSummary {
                kind: "agreement".into(),
                round: Some(3),
                detail: "p0 decided true but p4 decided false".into(),
            }),
        }
    }

    #[test]
    fn artifact_round_trips_through_json_text() {
        let art = sample();
        let text = art.to_string_pretty();
        let back = FailureArtifact::from_json_str(&text).expect("parse");
        assert_eq!(back, art);
        // And the text form is stable (deterministic printing).
        assert_eq!(back.to_string_pretty(), text);
    }

    #[test]
    fn artifacts_that_cannot_run_are_rejected_at_parse_time() {
        let with = |algorithm, n: usize, t, byzantine: Option<usize>, faults: Vec<FaultSpec>| {
            let honest = n - byzantine.unwrap_or(0);
            FailureArtifact {
                algorithm,
                n,
                t,
                byzantine,
                inputs: vec![0; honest],
                faults,
                adversary: AdversarySpec::None,
                ..sample()
            }
        };
        let short_inputs = |mut a: FailureArtifact| {
            a.inputs.pop();
            a
        };
        let retransmit = |cfg: RetransmitConfig| FailureArtifact {
            reliability: ReliabilityPolicy::Retransmit(cfg),
            ..with(Algorithm::BenOr, 5, 2, None, vec![])
        };
        let d = RetransmitConfig::default();
        let cases = [
            (
                with(Algorithm::BenOr, 2, 1, None, vec![]),
                "ben-or requires 2t < n",
            ),
            (
                short_inputs(with(Algorithm::BenOr, 5, 2, None, vec![])),
                "needs 5 inputs, one per process (got 4)",
            ),
            (
                with(
                    Algorithm::BenOr,
                    5,
                    2,
                    None,
                    vec![FaultSpec::RestartAt { p: 1, tick: 9 }],
                ),
                "ben-or is a crash-stop protocol",
            ),
            (
                with(Algorithm::PhaseKing, 4, 2, Some(1), vec![]),
                "phase-king requires 3t < n",
            ),
            (
                short_inputs(with(Algorithm::Raft, 5, 2, None, vec![])),
                "needs 5 inputs, one per process (got 4)",
            ),
            (
                with(
                    Algorithm::Raft,
                    7,
                    3,
                    None,
                    vec![FaultSpec::CrashAt { p: 9, tick: 5 }],
                ),
                "names process 9 but n=7",
            ),
            (
                with(
                    Algorithm::Raft,
                    5,
                    2,
                    None,
                    vec![FaultSpec::RestartAt { p: 1, tick: 9 }],
                ),
                "no crash is scheduled for it",
            ),
            (
                with(
                    Algorithm::Raft,
                    5,
                    2,
                    None,
                    vec![
                        FaultSpec::RestartAt { p: 1, tick: 9 },
                        FaultSpec::CrashAt { p: 1, tick: 30 },
                    ],
                ),
                "precedes its earliest crash",
            ),
            (
                with(
                    Algorithm::PhaseKing,
                    7,
                    2,
                    Some(1),
                    vec![FaultSpec::RestartAt { p: 3, tick: 2 }],
                ),
                "phase-king is a crash-stop protocol",
            ),
            (
                with(Algorithm::PhaseKing, 7, 2, Some(3), vec![]),
                "byzantine count 3 exceeds t=2",
            ),
            (
                with(
                    Algorithm::PhaseKing,
                    7,
                    2,
                    Some(1),
                    vec![FaultSpec::CrashAtRound { p: 0, round: 1 }],
                ),
                "crash schedule names Byzantine process",
            ),
            (
                with(
                    Algorithm::PhaseKing,
                    7,
                    2,
                    Some(1),
                    vec![
                        FaultSpec::CrashAtRound { p: 3, round: 1 },
                        FaultSpec::CrashAtRound { p: 4, round: 2 },
                    ],
                ),
                "fault budget exceeded",
            ),
            (
                retransmit(RetransmitConfig {
                    jitter_permille: u64::MAX,
                    ..d
                }),
                "jitter_permille 18446744073709551615 exceeds 1000",
            ),
            (
                retransmit(RetransmitConfig {
                    rto_initial: 1 << 63,
                    ..d
                }),
                "rto_initial 9223372036854775808 exceeds 4294967295",
            ),
        ];
        for (art, expected) in cases {
            assert!(
                art.validate().is_err(),
                "{expected}: validate must agree with parsing"
            );
            let err = FailureArtifact::from_json_str(&art.to_string_pretty()).unwrap_err();
            assert!(err.contains(expected), "expected {expected:?}, got {err:?}");
        }
        let mut non_binary = with(Algorithm::PhaseKing, 7, 2, Some(1), vec![]);
        non_binary.inputs[0] = 2;
        let err = FailureArtifact::from_json_str(&non_binary.to_string_pretty()).unwrap_err();
        assert!(err.contains("binary"), "{err}");
        // A max_retries that u32 cannot hold can only be written as text.
        let text = retransmit(RetransmitConfig {
            max_retries: 7,
            ..d
        })
        .to_string_pretty()
        .replace("\"max_retries\": 7", "\"max_retries\": 4294967296");
        let err = FailureArtifact::from_json_str(&text).unwrap_err();
        assert!(err.contains("max_retries 4294967296 exceeds"), "{err}");
        // The limits themselves still load.
        let edge = retransmit(RetransmitConfig {
            rto_initial: u32::MAX.into(),
            rto_max: u32::MAX.into(),
            jitter_permille: 1000,
            max_retries: u32::MAX,
            ..d
        });
        assert_eq!(
            FailureArtifact::from_json_str(&edge.to_string_pretty()),
            Ok(edge)
        );
        // Raft runs on n alone, so a t beyond 2t < n (which the shrinker
        // leaves behind when it drops processes) still loads.
        let raft = with(Algorithm::Raft, 2, 1, None, vec![]);
        assert_eq!(
            FailureArtifact::from_json_str(&raft.to_string_pretty()),
            Ok(raft)
        );
    }

    #[test]
    fn every_generated_artifact_passes_validation_and_round_trips() {
        let mut all = Vec::new();
        for algorithm in Algorithm::all() {
            all.extend(crate::sweep::grid(algorithm, 1000));
        }
        let retransmit = ReliabilityPolicy::Retransmit(RetransmitConfig::default());
        for policy in [ReliabilityPolicy::Off, retransmit] {
            all.extend(crate::degradation::degradation_artifacts_with(96, policy));
        }
        for policy in StoragePolicy::ALL {
            all.extend(crate::sweep::raft_durability_grid(96, policy));
        }
        for art in &all {
            let back = FailureArtifact::from_json_str(&art.to_string_pretty())
                .unwrap_or_else(|e| panic!("{e}: {art:?}"));
            assert_eq!(&back, art);
        }
    }

    #[test]
    fn minimal_artifact_round_trips() {
        let art = FailureArtifact {
            algorithm: Algorithm::PhaseKing,
            n: 7,
            t: 2,
            byzantine: Some(1),
            attack: Some("fixed:1".into()),
            seed: 3,
            inputs: vec![0, 1, 0, 1, 0, 1],
            max_rounds: 6,
            max_ticks: 0,
            network: None,
            faults: vec![FaultSpec::CrashAtRound { p: 3, round: 4 }],
            adversary: AdversarySpec::None,
            sabotage_commit_threshold: None,
            storage_policy: None,
            clock_rates: Vec::new(),
            sync_latency: 0,
            reliability: ReliabilityPolicy::Off,
            stalled_since: None,
            violation: None,
        };
        let back = FailureArtifact::from_json_str(&art.to_string_pretty()).expect("parse");
        assert_eq!(back, art);
        assert_eq!(back.parse_attack(), Attack::Fixed(1));
    }

    #[test]
    fn storage_policy_round_trips_and_rejects_unknown_names() {
        for policy in StoragePolicy::ALL {
            let mut art = sample();
            art.storage_policy = Some(policy);
            let back = FailureArtifact::from_json_str(&art.to_string_pretty()).expect("parse");
            assert_eq!(back.storage_policy, Some(policy));
        }
        // An artifact written before storage faults existed has no
        // "storage_policy" field and must still parse (backward compat).
        let mut art = sample();
        art.storage_policy = None;
        let text = art.to_string_pretty();
        assert!(!text.contains("storage_policy"));
        assert_eq!(
            FailureArtifact::from_json_str(&text).expect("parse").storage_policy,
            None
        );
        let bad = text.replace("\"sabotage_commit_threshold\": 2", "\"storage_policy\": \"fsync-maybe\", \"sabotage_commit_threshold\": 2");
        assert!(FailureArtifact::from_json_str(&bad)
            .unwrap_err()
            .contains("unknown storage_policy"));
    }

    #[test]
    fn gray_failure_artifact_round_trips() {
        let mut art = sample();
        let net = art.network.as_mut().unwrap();
        net.delay = DelayModel::HeavyTailed {
            floor: 2,
            alpha_milli: 1500,
            cap: 200,
        };
        net.link_overrides = vec![LinkOverride {
            from: ProcessId(0),
            to: ProcessId(3),
            drop_probability: Some(0.5),
            delay: Some(DelayModel::Fixed(30)),
        }];
        net.flapping = vec![FlappingPartition {
            from: SimTime::from_ticks(0),
            until: SimTime::from_ticks(2_000),
            period: 80,
            partitioned: 40,
            groups: vec![vec![ProcessId(0), ProcessId(1)], vec![ProcessId(2)]],
        }];
        art.adversary = AdversarySpec::QuorumFlap {
            until_ticks: 4_000,
            period: 60,
        };
        art.clock_rates = vec![(0, 150), (4, 75)];
        art.sync_latency = 5;
        let text = art.to_string_pretty();
        let back = FailureArtifact::from_json_str(&text).expect("parse");
        assert_eq!(back, art);
        assert_eq!(back.to_string_pretty(), text);
        assert!(back.adversary.is_state_adaptive());
        assert_eq!(back.clock_model().rate_percent(ProcessId(0)), 150);
        assert_eq!(back.clock_model().rate_percent(ProcessId(1)), 100);
        // Old artifacts (no gray-failure fields) keep parsing: the sample
        // artifact itself never mentions them.
        let legacy = sample().to_string_pretty();
        for absent in ["clock_rates", "sync_latency", "link_overrides", "flapping"] {
            assert!(!legacy.contains(absent), "{absent} leaked into legacy form");
        }
    }

    #[test]
    fn reliability_and_watchdog_fields_round_trip_and_stay_out_of_legacy_form() {
        let mut art = sample();
        art.reliability = ReliabilityPolicy::Retransmit(RetransmitConfig {
            rto_initial: 30,
            rto_max: 480,
            jitter_permille: 100,
            max_retries: 7,
            buffer_capacity: 256,
            ack_delay: 2,
        });
        art.stalled_since = Some(41_977);
        let text = art.to_string_pretty();
        let back = FailureArtifact::from_json_str(&text).expect("parse");
        assert_eq!(back, art);
        assert_eq!(back.to_string_pretty(), text);
        // A retransmit spec that pins only some knobs falls back to the
        // engine defaults for the rest.
        let partial = text.replace(
            "\"rto_initial\": 30,",
            "",
        );
        let back = FailureArtifact::from_json_str(&partial).expect("parse");
        match back.reliability {
            ReliabilityPolicy::Retransmit(cfg) => {
                assert_eq!(cfg.rto_initial, RetransmitConfig::default().rto_initial);
                assert_eq!(cfg.max_retries, 7);
            }
            other => panic!("expected retransmit, got {other:?}"),
        }
        // Artifacts written before the reliable-delivery layer existed
        // carry neither field and must stay byte-identical on round-trip.
        let legacy = sample().to_string_pretty();
        for absent in ["reliability", "stalled_since"] {
            assert!(!legacy.contains(absent), "{absent} leaked into legacy form");
        }
        let back = FailureArtifact::from_json_str(&legacy).expect("parse");
        assert_eq!(back.reliability, ReliabilityPolicy::Off);
        assert_eq!(back.stalled_since, None);
    }

    #[test]
    fn state_adversary_specs_round_trip() {
        for adv in [
            AdversarySpec::StateSplitVote { until_ticks: 777 },
            AdversarySpec::QuorumFlap {
                until_ticks: 888,
                period: 50,
            },
        ] {
            let mut art = sample();
            art.adversary = adv;
            let back =
                FailureArtifact::from_json_str(&art.to_string_pretty()).expect("parse");
            assert_eq!(back.adversary, adv);
        }
    }

    #[test]
    fn fault_conversions_split_by_engine() {
        let faults = vec![
            FaultSpec::CrashAt { p: 1, tick: 10 },
            FaultSpec::CrashAtRound { p: 2, round: 5 },
            FaultSpec::RestartAt { p: 1, tick: 80 },
        ];
        let plan = faults_to_plan(&faults);
        assert_eq!(plan.crashes().len(), 1);
        assert_eq!(plan.restarts().len(), 1);
        assert_eq!(
            faults_to_round_crashes(&faults),
            vec![(ProcessId(2), 5)]
        );
    }
}
