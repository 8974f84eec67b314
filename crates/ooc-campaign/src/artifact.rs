//! Self-contained, re-runnable failure artifacts.
//!
//! When a sweep finds a violation it serializes **everything the run's
//! identity depends on** — algorithm, sizes, seed, inputs, fault plan,
//! network configuration, adversary parameters, budget caps, sabotage
//! flags — into one JSON document. Anyone holding the file can replay
//! the exact execution (`ooc-campaign replay art.json`) or minimize it
//! (`ooc-campaign shrink art.json`); determinism is inherited from the
//! simulator's seeded RNG discipline.
//!
//! The codec is one table per type. Every field type implements the
//! private `Codec` trait, every object is read through one reader
//! (`Fields`), each tagged enum is one `(tag, field names)` table
//! (`Tagged`) and each struct is one row per field (`object_codec!`), so
//! a field's key, type and default are written once. A field left out reads as its
//! default, and a field that is present must have its type: `-2` where a
//! tick count belongs is an error naming the key, not a zero.

use crate::json::{Json, JsonError};
use ooc_core::checker::{Violation, ViolationKind};
use ooc_phase_king::Attack;
use ooc_simnet::{
    ClockModel, DelayModel, FaultPlan, FlappingPartition, LinkOverride, NetworkConfig,
    PartitionWindow, ProcessId, ReliabilityPolicy, RetransmitConfig, SimDuration, SimTime,
    StoragePolicy,
};
use std::fmt;

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
    /// A clean run: no Byzantine processes, network, faults, adversary,
    /// sabotage, storage policy, clock drift, slow disk, reliability
    /// layer or recorded outcome. Every field outside the arguments holds
    /// the value the JSON form leaves out, and the decoder reads a field
    /// that is left out as this value. The round and tick caps, which
    /// every artifact writes, start at zero.
    pub fn clean(algorithm: Algorithm, n: usize, t: usize, seed: u64, inputs: Vec<u64>) -> Self {
        FailureArtifact {
            algorithm,
            n,
            t,
            byzantine: None,
            attack: None,
            seed,
            inputs,
            max_rounds: 0,
            max_ticks: 0,
            network: None,
            faults: Vec::new(),
            adversary: AdversarySpec::None,
            sabotage_commit_threshold: None,
            storage_policy: None,
            clock_rates: Vec::new(),
            sync_latency: 0,
            reliability: ReliabilityPolicy::Off,
            stalled_since: None,
            violation: None,
        }
    }

    /// The engine [`ClockModel`] described by `clock_rates`.
    pub fn clock_model(&self) -> ClockModel {
        let mut clocks = ClockModel::nominal();
        for &(p, rate) in &self.clock_rates {
            clocks = clocks.with_rate(ProcessId(p), rate);
        }
        clocks
    }

    /// The Phase-King attack the artifact names: "silent", "equivocate"
    /// (also when it names none), "random" or "fixed:K". Both
    /// `validate` and the runner read it here.
    pub fn parse_attack(&self) -> Result<Attack, String> {
        match self.attack.as_deref() {
            None | Some("equivocate") => Ok(Attack::Equivocate),
            Some("silent") => Ok(Attack::Silent),
            Some("random") => Ok(Attack::Random),
            Some(name) => name
                .strip_prefix("fixed:")
                .and_then(|k| k.parse().ok())
                .map(Attack::Fixed)
                .ok_or_else(|| {
                    format!("unknown attack {name:?} (silent|equivocate|random|fixed:K)")
                }),
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
        self.encode()
    }

    /// Deserializes from the artifact JSON document, and checks that the
    /// artifact can run.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        let artifact = Self::decode(json, At::new("", "artifact"))?;
        artifact.validate()?;
        Ok(artifact)
    }

    /// Checks the preconditions the algorithm harnesses and the engine
    /// assert, so an artifact that parses but cannot run is rejected with
    /// a message instead of panicking mid-run: the resilience bound
    /// (`2t < n` for Ben-Or, `3t < n` for Phase-King; Raft runs on `n`
    /// alone and never reads `t`), `byzantine ≤ t`, one input per process
    /// (per honest process for Phase-King), process ids below `n` in
    /// faults, clock rates, link overrides and partition or flapping
    /// groups, no restarts for the crash-stop protocols, and a fault plan
    /// the engine accepts (every restart follows a crash of its process).
    /// Phase-King also needs an attack [`parse_attack`](Self::parse_attack)
    /// knows, binary inputs, crashes on honest ids only, and Byzantine plus
    /// crashed processes within `t`. Retransmit knobs must keep the
    /// engine's backoff arithmetic in range: jitter at most 1000‰ and RTOs
    /// within `u32::MAX` ticks. The shrinker offers only candidates that
    /// pass this check.
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
        if let Some((p, _)) = self.clock_rates.iter().find(|&&(p, _)| p >= n) {
            return Err(format!("clock rate names process {p} but n={n}"));
        }
        if let Some(net) = &self.network {
            let mut links = net.link_overrides.iter().flat_map(|l| [l.from, l.to]);
            if let Some(p) = links.find(|p| p.index() >= n) {
                let p = p.index();
                return Err(format!("link override names process {p} but n={n}"));
            }
            let groups = net.partitions.iter().map(|w| ("partition", &w.groups));
            let groups = groups.chain(net.flapping.iter().map(|f| ("flapping", &f.groups)));
            for (kind, groups) in groups {
                if let Some(p) = groups.iter().flatten().find(|p| p.index() >= n) {
                    let p = p.index();
                    return Err(format!("{kind} group names process {p} but n={n}"));
                }
            }
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
            self.parse_attack()?;
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

/// Where a value sits in an artifact, for error messages: the object
/// that holds it (empty at the top level) and its key.
#[derive(Clone, Copy)]
pub(crate) struct At<'a> {
    object: &'a str,
    key: &'a str,
}

impl<'a> At<'a> {
    /// The value at `key` of `object`.
    fn new(object: &'a str, key: &'a str) -> Self {
        At { object, key }
    }
}

impl fmt::Display for At<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.object.is_empty() {
            f.write_str(self.key)
        } else {
            write!(f, "{} {}", self.object, self.key)
        }
    }
}

/// A type the artifact format writes and reads. Reports write through it
/// too.
pub(crate) trait Codec: Sized {
    /// The value as JSON.
    fn encode(&self) -> Json;
    /// Reads a value that [`encode`](Codec::encode) wrote. An error names
    /// `at`, so a value of the wrong type or range says where it sits.
    fn decode(json: &Json, at: At) -> Result<Self, String>;
}

/// One object entry: `key` and the encoded `value`.
pub(crate) fn field(key: &str, value: &impl Codec) -> (String, Json) {
    (key.to_string(), value.encode())
}

/// The fields of one JSON object, which error messages call `name`.
/// Every read follows one rule: an absent key reads as the caller's
/// default, or fails with `<name> missing "<key>"` when there is none; a
/// present key decodes, or fails with an error naming the key.
struct Fields<'a> {
    name: &'a str,
    json: &'a Json,
}

impl<'a> Fields<'a> {
    /// The fields of `json`, which must be an object.
    fn of(name: &'a str, json: &'a Json, at: At) -> Result<Self, String> {
        match json {
            Json::Obj(_) => Ok(Fields { name, json }),
            _ => Err(format!("{at} must be an object")),
        }
    }

    /// The value at `key`, which must be present.
    fn req<T: Codec>(&self, key: &str) -> Result<T, String> {
        self.req_with(key, T::decode)
    }

    /// The value at `key`, which must be present, read by `decode`.
    fn req_with<T>(
        &self,
        key: &str,
        decode: impl FnOnce(&Json, At) -> Result<T, String>,
    ) -> Result<T, String> {
        match self.json.get(key) {
            Some(value) => decode(value, At::new(self.name, key)),
            None if self.name.is_empty() => Err(format!("missing \"{key}\"")),
            None => Err(format!("{} missing \"{key}\"", self.name)),
        }
    }

    /// The value at `key`, or `default` when it is absent.
    fn or<T: Codec>(&self, key: &str, default: T) -> Result<T, String> {
        match self.json.get(key) {
            Some(value) => T::decode(value, At::new(self.name, key)),
            None => Ok(default),
        }
    }
}

impl Codec for u64 {
    fn encode(&self) -> Json {
        Json::U64(*self)
    }
    fn decode(json: &Json, at: At) -> Result<Self, String> {
        json.as_u64()
            .ok_or_else(|| format!("{at} must be an unsigned integer"))
    }
}

/// Reads an unsigned integer that must fit a narrower type.
fn narrow<T: TryFrom<u64>>(json: &Json, at: At, max: impl fmt::Display) -> Result<T, String> {
    let value = u64::decode(json, at)?;
    T::try_from(value).map_err(|_| format!("{at} {value} exceeds {max}"))
}

impl Codec for usize {
    fn encode(&self) -> Json {
        Json::U64(*self as u64)
    }
    fn decode(json: &Json, at: At) -> Result<Self, String> {
        narrow(json, at, usize::MAX)
    }
}

impl Codec for u32 {
    fn encode(&self) -> Json {
        Json::U64(u64::from(*self))
    }
    fn decode(json: &Json, at: At) -> Result<Self, String> {
        narrow(json, at, u32::MAX)
    }
}

impl Codec for f64 {
    fn encode(&self) -> Json {
        Json::F64(*self)
    }
    fn decode(json: &Json, at: At) -> Result<Self, String> {
        json.as_f64().ok_or_else(|| format!("{at} must be a number"))
    }
}

impl Codec for bool {
    fn encode(&self) -> Json {
        Json::Bool(*self)
    }
    fn decode(json: &Json, at: At) -> Result<Self, String> {
        json.as_bool().ok_or_else(|| format!("{at} must be a boolean"))
    }
}

impl Codec for String {
    fn encode(&self) -> Json {
        Json::Str(self.clone())
    }
    fn decode(json: &Json, at: At) -> Result<Self, String> {
        json.as_str()
            .map(str::to_string)
            .ok_or_else(|| format!("{at} must be a string"))
    }
}

impl Codec for SimTime {
    fn encode(&self) -> Json {
        self.ticks().encode()
    }
    fn decode(json: &Json, at: At) -> Result<Self, String> {
        u64::decode(json, at).map(SimTime::from_ticks)
    }
}

impl Codec for SimDuration {
    fn encode(&self) -> Json {
        self.ticks().encode()
    }
    fn decode(json: &Json, at: At) -> Result<Self, String> {
        u64::decode(json, at).map(SimDuration::from_ticks)
    }
}

/// `None` is `null`.
impl<T: Codec> Codec for Option<T> {
    fn encode(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::encode)
    }
    fn decode(json: &Json, at: At) -> Result<Self, String> {
        match json {
            Json::Null => Ok(None),
            _ => T::decode(json, at).map(Some),
        }
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self) -> Json {
        Json::Arr(self.iter().map(T::encode).collect())
    }
    fn decode(json: &Json, at: At) -> Result<Self, String> {
        let items = json
            .as_arr()
            .ok_or_else(|| format!("{at} must be an array"))?;
        items.iter().map(|item| T::decode(item, at)).collect()
    }
}

/// A partition or flapping group: an array of process ids.
impl Codec for Vec<ProcessId> {
    fn encode(&self) -> Json {
        Json::Arr(self.iter().map(|p| p.index().encode()).collect())
    }
    fn decode(json: &Json, at: At) -> Result<Self, String> {
        let object = at.object;
        let members = json
            .as_arr()
            .ok_or_else(|| format!("{object} group must be an array"))?;
        members
            .iter()
            .map(|id| {
                id.as_usize()
                    .map(ProcessId)
                    .ok_or_else(|| format!("{object} group member must be a process id"))
            })
            .collect()
    }
}

/// Reads a value written as one of a fixed set of names.
fn named<T>(json: &Json, at: At, parse: impl FnOnce(&str) -> Option<T>) -> Result<T, String> {
    let name = json
        .as_str()
        .ok_or_else(|| format!("{at} must be a string"))?;
    parse(name).ok_or_else(|| format!("unknown {at} {name:?}"))
}

impl Codec for Algorithm {
    fn encode(&self) -> Json {
        Json::Str(self.name().into())
    }
    fn decode(json: &Json, at: At) -> Result<Self, String> {
        named(json, at, Algorithm::parse)
    }
}

impl Codec for StoragePolicy {
    fn encode(&self) -> Json {
        Json::Str(self.name().into())
    }
    fn decode(json: &Json, at: At) -> Result<Self, String> {
        named(json, at, StoragePolicy::from_name)
    }
}

/// An enum written as an object: the `TAG` key names the variant, and
/// the variant's fields follow, all unsigned integers and all required.
/// One `(tag, field names)` row per variant drives both directions.
trait Tagged: Sized {
    /// What the object is called in error messages.
    const NAME: &'static str;
    /// The key that names the variant.
    const TAG: &'static str;
    /// Each variant's tag and field names, in written order.
    const VARIANTS: &'static [(&'static str, &'static [&'static str])];
    /// The row of this value's variant and its field values, in the
    /// row's order (unused slots are zero).
    fn split(&self) -> (usize, [u64; 3]);
    /// The variant in row `row` with these field values.
    fn join(row: usize, values: [u64; 3]) -> Self;
}

impl<T: Tagged> Codec for T {
    fn encode(&self) -> Json {
        let (row, values) = self.split();
        let (tag, keys) = T::VARIANTS[row];
        let mut fields = Vec::with_capacity(1 + keys.len());
        fields.push((T::TAG.to_string(), Json::Str(tag.into())));
        fields.extend(keys.iter().zip(&values).map(|(key, v)| field(key, v)));
        Json::Obj(fields)
    }

    fn decode(json: &Json, at: At) -> Result<Self, String> {
        let fields = Fields::of(T::NAME, json, at)?;
        let row = fields.req_with(T::TAG, |tag, at| {
            named(tag, at, |tag| T::VARIANTS.iter().position(|&(name, _)| name == tag))
        })?;
        let (name, keys) = T::VARIANTS[row];
        let fields = Fields { name, ..fields };
        let mut values = [0; 3];
        for (value, key) in values.iter_mut().zip(keys) {
            *value = fields.req(key)?;
        }
        Ok(T::join(row, values))
    }
}

impl Tagged for DelayModel {
    const NAME: &'static str = "delay";
    const TAG: &'static str = "model";
    const VARIANTS: &'static [(&'static str, &'static [&'static str])] = &[
        ("fixed", &["ticks"]),
        ("uniform", &["min", "max"]),
        ("exponential", &["mean"]),
        ("heavy-tailed", &["floor", "alpha_milli", "cap"]),
    ];
    fn split(&self) -> (usize, [u64; 3]) {
        match *self {
            DelayModel::Fixed(ticks) => (0, [ticks, 0, 0]),
            DelayModel::Uniform { min, max } => (1, [min, max, 0]),
            DelayModel::Exponential { mean } => (2, [mean, 0, 0]),
            DelayModel::HeavyTailed {
                floor,
                alpha_milli,
                cap,
            } => (3, [floor, alpha_milli, cap]),
        }
    }
    fn join(row: usize, [a, b, c]: [u64; 3]) -> Self {
        match row {
            0 => DelayModel::Fixed(a),
            1 => DelayModel::Uniform { min: a, max: b },
            2 => DelayModel::Exponential { mean: a },
            _ => DelayModel::HeavyTailed {
                floor: a,
                alpha_milli: b,
                cap: c,
            },
        }
    }
}

impl Tagged for FaultSpec {
    const NAME: &'static str = "fault";
    const TAG: &'static str = "kind";
    const VARIANTS: &'static [(&'static str, &'static [&'static str])] = &[
        ("crash-at", &["p", "tick"]),
        ("crash-after-events", &["p", "events"]),
        ("restart-at", &["p", "tick"]),
        ("crash-at-round", &["p", "round"]),
    ];
    fn split(&self) -> (usize, [u64; 3]) {
        let (row, value) = match *self {
            FaultSpec::CrashAt { tick, .. } => (0, tick),
            FaultSpec::CrashAfterEvents { events, .. } => (1, events),
            FaultSpec::RestartAt { tick, .. } => (2, tick),
            FaultSpec::CrashAtRound { round, .. } => (3, round),
        };
        (row, [self.process() as u64, value, 0])
    }
    fn join(row: usize, [p, value, _]: [u64; 3]) -> Self {
        let p = p as usize;
        match row {
            0 => FaultSpec::CrashAt { p, tick: value },
            1 => FaultSpec::CrashAfterEvents { p, events: value },
            2 => FaultSpec::RestartAt { p, tick: value },
            _ => FaultSpec::CrashAtRound { p, round: value },
        }
    }
}

impl Tagged for AdversarySpec {
    const NAME: &'static str = "adversary";
    const TAG: &'static str = "kind";
    const VARIANTS: &'static [(&'static str, &'static [&'static str])] = &[
        ("none", &[]),
        ("split-vote", &["until_ticks", "slow_ticks"]),
        ("leader-flap", &["isolation_ticks", "max_flaps"]),
        ("state-split-vote", &["until_ticks"]),
        ("quorum-flap", &["until_ticks", "period"]),
    ];
    fn split(&self) -> (usize, [u64; 3]) {
        match *self {
            AdversarySpec::None => (0, [0; 3]),
            AdversarySpec::SplitVote {
                until_ticks,
                slow_ticks,
            } => (1, [until_ticks, slow_ticks, 0]),
            AdversarySpec::LeaderFlap {
                isolation_ticks,
                max_flaps,
            } => (2, [isolation_ticks, max_flaps, 0]),
            AdversarySpec::StateSplitVote { until_ticks } => (3, [until_ticks, 0, 0]),
            AdversarySpec::QuorumFlap {
                until_ticks,
                period,
            } => (4, [until_ticks, period, 0]),
        }
    }
    fn join(row: usize, [a, b, _]: [u64; 3]) -> Self {
        match row {
            0 => AdversarySpec::None,
            1 => AdversarySpec::SplitVote {
                until_ticks: a,
                slow_ticks: b,
            },
            2 => AdversarySpec::LeaderFlap {
                isolation_ticks: a,
                max_flaps: b,
            },
            3 => AdversarySpec::StateSplitVote { until_ticks: a },
            _ => AdversarySpec::QuorumFlap {
                until_ticks: a,
                period: b,
            },
        }
    }
}

/// Implements [`Codec`] for a struct from one row per field, in written
/// order. A field's key is its name, and its rule says when it is
/// written and how its absence reads:
///
/// - `req`: always written; an error when absent;
/// - `all`: always written; absent reads as the default's value;
/// - `opt`: written only when it differs from the default's value, and
///   absent reads as that value.
///
/// The default follows the type when a row needs one.
macro_rules! object_codec {
    ($ty:ident $(= $default:expr)?, $name:literal, [$($field:ident $rule:ident),+ $(,)?]) => {
        impl Codec for $ty {
            fn encode(&self) -> Json {
                $(#[allow(unused_variables)] let default: $ty = $default;)?
                let mut fields = Vec::with_capacity([$(stringify!($field)),+].len());
                $(if object_codec!(@write $rule, self.$field, default.$field) {
                    fields.push(field(stringify!($field), &self.$field));
                })+
                Json::Obj(fields)
            }

            fn decode(json: &Json, at: At) -> Result<Self, String> {
                let fields = Fields::of($name, json, at)?;
                $(let default: $ty = $default;)?
                Ok($ty {
                    $($field: object_codec!(@read $rule, fields, $field, default.$field),)+
                })
            }
        }
    };
    (@write opt, $value:expr, $default:expr) => { $value != $default };
    (@write $rule:ident, $value:expr, $default:expr) => { true };
    (@read req, $fields:ident, $field:ident, $default:expr) => { $fields.req(stringify!($field))? };
    (@read $rule:ident, $fields:ident, $field:ident, $default:expr) => {
        $fields.or(stringify!($field), $default)?
    };
}

// Absent fields read as the clean artifact's; its arguments are the
// required fields, so the values given here are never read.
object_codec!(FailureArtifact = FailureArtifact::clean(Algorithm::BenOr, 0, 0, 0, Vec::new()), "", [
    algorithm req,
    n req,
    t req,
    seed req,
    inputs req,
    max_rounds req,
    max_ticks req,
    byzantine opt,
    attack opt,
    network opt,
    faults opt,
    adversary all,
    sabotage_commit_threshold opt,
    storage_policy opt,
    clock_rates opt,
    sync_latency opt,
    reliability opt,
    stalled_since opt,
    violation opt,
]);

// A network that leaves a key out has no loss, duplication, FIFO order,
// self-delay, partitions or gray links.
object_codec!(NetworkConfig = NetworkConfig {
    self_delay: SimDuration::ZERO,
    ..NetworkConfig::reliable(0)
}, "network", [
    delay req,
    drop_probability all,
    duplicate_probability all,
    fifo_links all,
    self_delay all,
    partitions all,
    link_overrides opt,
    flapping opt,
]);

object_codec!(PartitionWindow, "partition", [from req, until req, groups req]);

object_codec!(FlappingPartition, "flapping", [
    from req,
    until req,
    period req,
    partitioned req,
    groups req,
]);

// A Retransmit policy that leaves a knob out gets the engine default.
object_codec!(RetransmitConfig = RetransmitConfig::default(), "reliability", [
    rto_initial all,
    rto_max all,
    jitter_permille all,
    max_retries all,
    buffer_capacity all,
    ack_delay all,
]);

object_codec!(ViolationSummary = ViolationSummary {
    kind: "unknown".into(),
    round: None,
    detail: String::new(),
}, "violation", [kind all, round all, detail all]);

/// A directed link's overrides; its endpoints are process ids.
impl Codec for LinkOverride {
    fn encode(&self) -> Json {
        let mut fields = vec![field("from", &self.from.index()), field("to", &self.to.index())];
        if let Some(p) = &self.drop_probability {
            fields.push(field("drop_probability", p));
        }
        if let Some(delay) = &self.delay {
            fields.push(field("delay", delay));
        }
        Json::Obj(fields)
    }
    fn decode(json: &Json, at: At) -> Result<Self, String> {
        let fields = Fields::of("link override", json, at)?;
        Ok(LinkOverride {
            from: ProcessId(fields.req("from")?),
            to: ProcessId(fields.req("to")?),
            drop_probability: fields.or("drop_probability", None)?,
            delay: fields.or("delay", None)?,
        })
    }
}

/// A clock rate: a process and its rate in percent of nominal.
impl Codec for (usize, u32) {
    fn encode(&self) -> Json {
        Json::Obj(vec![field("p", &self.0), field("rate_percent", &self.1)])
    }
    fn decode(json: &Json, at: At) -> Result<Self, String> {
        let fields = Fields::of("clock", json, at)?;
        Ok((fields.req("p")?, fields.req("rate_percent")?))
    }
}

/// `{"policy": "off"}`, or `"retransmit"` followed by its knobs.
impl Codec for ReliabilityPolicy {
    fn encode(&self) -> Json {
        let (policy, knobs) = match self {
            ReliabilityPolicy::Off => ("off", None),
            ReliabilityPolicy::Retransmit(cfg) => ("retransmit", Some(cfg.encode())),
        };
        let mut fields = vec![("policy".to_string(), Json::Str(policy.into()))];
        if let Some(Json::Obj(knobs)) = knobs {
            fields.extend(knobs);
        }
        Json::Obj(fields)
    }
    fn decode(json: &Json, at: At) -> Result<Self, String> {
        let fields = Fields::of("reliability", json, at)?;
        let retransmit = fields.req_with("policy", |policy, at| {
            named(policy, at, |policy| match policy {
                "off" => Some(false),
                "retransmit" => Some(true),
                _ => None,
            })
        })?;
        if retransmit {
            RetransmitConfig::decode(json, at).map(ReliabilityPolicy::Retransmit)
        } else {
            Ok(ReliabilityPolicy::Off)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every field populated. Raft, the one crash-recovery protocol, so
    /// the restart entry passes validation.
    fn sample() -> FailureArtifact {
        FailureArtifact {
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
            violation: Some(ViolationSummary {
                kind: "agreement".into(),
                round: Some(3),
                detail: "p0 decided true but p4 decided false".into(),
            }),
            ..FailureArtifact::clean(
                Algorithm::Raft,
                5,
                2,
                0xDEAD_BEEF_CAFE_F00D,
                vec![0, 1, 0, 1, 0],
            )
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
        // A 7-process Raft artifact whose network (the sample's, with one
        // partition window) gets one edit.
        let gray = |edit: fn(&mut NetworkConfig)| {
            let mut a = with(Algorithm::Raft, 7, 3, None, vec![]);
            edit(a.network.as_mut().expect("the sample has a network"));
            a
        };
        fn flap(groups: Vec<Vec<ProcessId>>) -> FlappingPartition {
            FlappingPartition {
                from: SimTime::from_ticks(0),
                until: SimTime::from_ticks(400),
                period: 60,
                partitioned: 30,
                groups,
            }
        }
        let cases = [
            (
                with(Algorithm::BenOr, 2, 1, None, vec![]),
                "ben-or requires 2t < n",
            ),
            (
                FailureArtifact {
                    clock_rates: vec![(0, 130), (99, 80)],
                    ..with(Algorithm::Raft, 7, 3, None, vec![])
                },
                "clock rate names process 99 but n=7",
            ),
            (
                gray(|net| {
                    net.link_overrides.push(LinkOverride {
                        from: ProcessId(0),
                        to: ProcessId(9),
                        drop_probability: Some(0.5),
                        delay: None,
                    })
                }),
                "link override names process 9 but n=7",
            ),
            (
                gray(|net| net.partitions[0].groups[1].push(ProcessId(9))),
                "partition group names process 9 but n=7",
            ),
            (
                gray(|net| net.flapping.push(flap(vec![vec![ProcessId(0), ProcessId(9)]]))),
                "flapping group names process 9 but n=7",
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
            (
                FailureArtifact {
                    attack: Some("bogus".into()),
                    ..with(Algorithm::PhaseKing, 7, 2, Some(1), vec![])
                },
                "unknown attack \"bogus\"",
            ),
            (
                FailureArtifact {
                    attack: Some("fixed:x".into()),
                    ..with(Algorithm::PhaseKing, 7, 2, Some(1), vec![])
                },
                "unknown attack \"fixed:x\"",
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
        // So can a clock rate beyond u32, which used to load truncated.
        let rated = FailureArtifact {
            clock_rates: vec![(0, 7)],
            ..with(Algorithm::Raft, 7, 3, None, vec![])
        };
        let text = rated
            .to_string_pretty()
            .replace("\"rate_percent\": 7", "\"rate_percent\": 4294967396");
        let err = FailureArtifact::from_json_str(&text).unwrap_err();
        assert!(
            err.contains("clock rate_percent 4294967396 exceeds 4294967295"),
            "{err}"
        );
        // And a group member that is not an integer, which used to be
        // dropped: a sentinel id in the written text becomes "x".
        let partition = gray(|net| net.partitions[0].groups[0].insert(1, ProcessId(424_242)));
        let flapping = gray(|net| {
            let members = vec![ProcessId(0), ProcessId(424_242), ProcessId(1)];
            net.flapping.push(flap(vec![members]))
        });
        for art in [partition, flapping] {
            let text = art.to_string_pretty().replace("424242", "\"x\"");
            let err = FailureArtifact::from_json_str(&text).unwrap_err();
            assert!(err.contains("group member must be a process id"), "{err}");
        }
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
        // leaves behind when it drops processes) still loads. Its
        // partition keeps only the two processes a 2-node cluster has.
        let mut raft = with(Algorithm::Raft, 2, 1, None, vec![]);
        raft.network.as_mut().expect("the sample has a network").partitions[0].groups =
            vec![vec![ProcessId(0)], vec![ProcessId(1)]];
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
            byzantine: Some(1),
            attack: Some("fixed:1".into()),
            max_rounds: 6,
            faults: vec![FaultSpec::CrashAtRound { p: 3, round: 4 }],
            ..FailureArtifact::clean(Algorithm::PhaseKing, 7, 2, 3, vec![0, 1, 0, 1, 0, 1])
        };
        let back = FailureArtifact::from_json_str(&art.to_string_pretty()).expect("parse");
        assert_eq!(back, art);
        assert_eq!(back.parse_attack(), Ok(Attack::Fixed(1)));
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
