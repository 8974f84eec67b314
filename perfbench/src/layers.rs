//! Layer microbenchmarks for the traced run. Each one times calls into a
//! crate's public API and nothing else; every call is a span.

use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{clean, retransmit};
use ooc_ben_or::harness::{run_composed, run_monolithic};
use ooc_ben_or::{balanced_inputs, run_decomposed, BenOrConfig, BenOrRun};
use ooc_campaign::{
    degradation_artifacts_with, degradation_reliability_json, degradation_report_with, grid,
    report_json, run_all, run_artifact, Algorithm, AlgorithmReport, FailureArtifact,
};
use ooc_core::checker::{check_consensus, check_termination};
use ooc_core::{RoundOutcomes, RoundRecord};
use ooc_simnet::{
    Adversary, Context, Decision, DelayModel, FlappingPartition, LinkOverride, MetricsRegistry,
    NetworkConfig, Process, ProcessId, ReliabilityPolicy, RunLimit, Sim, SimDuration, SimTime,
    SplitMix64, StableStore, StoragePolicy, SyncContext, SyncProcess, SyncSim, TimerId,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One measured number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Every per-layer metric: name, unit, and the end-to-end metric and
/// workload it should move (or leave flat).
#[rustfmt::skip]
pub const LAYER_METRICS: &[(&str, &str, &str)] = &[
    ("campaign.grid_us_per_artifact", "us", "setup_s on every workload"),
    ("campaign.run_floor_us.ben-or", "us", "run_us.p50, runs_per_s on sweep; flat on scale-n"),
    ("campaign.run_floor_us.raft", "us", "run_us.p50, runs_per_s on sweep; flat on scale-n"),
    ("campaign.run_floor_us.phase-king", "us", "run_us.p50, runs_per_s on sweep; flat on scale-n"),
    ("campaign.artifact_encode_us", "us", "none on any workload (JSON is off the hot path)"),
    ("campaign.artifact_parse_us", "us", "none on any workload (JSON is off the hot path)"),
    ("campaign.report_render_us", "us", "none on any workload (JSON is off the hot path)"),
    ("campaign.parallel_speedup_jobs2", "x", "none (e2e runs one worker); what --jobs users see"),
    ("ben-or.run_us.p50", "us", "run_us.p50 on sweep and scale-n (Ben-Or share)"),
    ("phase-king.run_us.p50", "us", "run_us.p50 on sweep and scale-n (Phase-King share)"),
    ("raft.run_us.p50", "us", "run_us.p50 on sweep and scale-n (Raft share)"),
    ("ben-or.events_per_run", "count", "a change means behaviour changed, not speed"),
    ("phase-king.events_per_run", "count", "a change means behaviour changed, not speed"),
    ("raft.events_per_run", "count", "a change means behaviour changed, not speed"),
    ("ben-or.messages_per_run", "count", "a change means behaviour changed, not speed"),
    ("phase-king.messages_per_run", "count", "a change means behaviour changed, not speed"),
    ("raft.messages_per_run", "count", "a change means behaviour changed, not speed"),
    ("core.checker_fold_us", "us", "run_us.p50 on sweep; flat on scale-n"),
    ("core.template_ns_per_msg", "ns", "runs_per_s on scale-n"),
    ("core.monolithic_ns_per_msg", "ns", "runs_per_s on scale-n"),
    ("core.composed_ns_per_msg", "ns", "runs_per_s on scale-n"),
    ("simnet.build_us.n7", "us", "run_us.p50 on sweep"),
    ("simnet.build_us.n64", "us", "run_us.p50 on sweep"),
    ("simnet.flood.fixed.events_per_s", "1/s", "runs_per_s on scale-n, less on sweep"),
    ("simnet.flood.sampled.events_per_s", "1/s", "runs_per_s on scale-n, less on sweep"),
    ("simnet.flood.lossy.events_per_s", "1/s", "runs_per_s on sweep"),
    ("simnet.flood.adversary.events_per_s", "1/s", "runs_per_s on sweep"),
    ("simnet.flood.gray.events_per_s", "1/s", "runs_per_s on sweep"),
    ("simnet.flood.ring256.events_per_s", "1/s", "runs_per_s on all three, in proportion to events"),
    ("simnet.flood.retransmit.events_per_s", "1/s", "runs_per_s on gray-retransmit; flat on sweep, scale-n"),
    ("reliable.retx_per_msg", "ratio", "runs_per_s on gray-retransmit; flat on sweep, scale-n"),
    ("reliable.acks_per_msg", "ratio", "runs_per_s on gray-retransmit; flat on sweep, scale-n"),
    ("simnet.sync.msgs_per_s", "1/s", "runs_per_s on scale-n (Phase-King); a small share of sweep"),
    ("simnet.delay_sample_ns.uniform", "ns", "sampled-delay share of sweep and gray-retransmit"),
    ("simnet.delay_sample_ns.heavy_tailed", "ns", "sampled-delay share of sweep and gray-retransmit"),
    ("simnet.metrics_update_ns", "ns", "engine bookkeeping on every workload"),
    ("simnet.storage_append_sync_ns", "ns", "Raft's share of sweep"),
    ("trace.overhead_ratio", "x", "none: traced over untraced time on identical work"),
];

/// Microbenchmark repetitions never fall below this, whatever the budget.
const MIN_REPS: usize = 3;

/// Runs `rep` until `budget` has passed (and at least [`MIN_REPS`]
/// times), each call in a span; returns the count the last call reported
/// and the median call time in seconds.
fn reps(
    tracer: &mut Tracer,
    name: &'static str,
    budget: Duration,
    mut rep: impl FnMut() -> u64,
) -> (u64, f64) {
    let started = Instant::now();
    let mut secs = Vec::new();
    let mut count = 0;
    while secs.len() < MIN_REPS || started.elapsed() < budget {
        let (c, ns) = tracer.span(name, &mut rep);
        count = c;
        secs.push(ns as f64 / 1e9);
    }
    (count, median(&mut secs))
}

/// The T15/T16 message flood: every process broadcasts at start and
/// rebroadcasts on each delivery until it has handled [`FLOOD_BUDGET`]
/// messages, then decides.
#[derive(Debug, Default)]
struct Flood {
    handled: u64,
}

const FLOOD_N: usize = 8;
const FLOOD_BUDGET: u64 = 300;
const FLOOD_SEEDS: u64 = 6;

impl Process for Flood {
    type Msg = u64;
    type Output = u64;
    fn on_start(&mut self, ctx: &mut Context<'_, u64, u64>) {
        ctx.broadcast_others(0);
    }
    fn on_message(&mut self, ctx: &mut Context<'_, u64, u64>, _from: ProcessId, _msg: u64) {
        self.handled += 1;
        if self.handled < FLOOD_BUDGET {
            ctx.broadcast_others(self.handled);
        } else if self.handled == FLOOD_BUDGET {
            ctx.decide(self.handled);
        }
    }
    fn on_timer(&mut self, _ctx: &mut Context<'_, u64, u64>, _t: TimerId) {}
}

/// A custom adversary that routes like the default uniform network, so
/// the engine takes its per-recipient adversary path.
struct UniformAdversary;

impl Adversary<u64> for UniformAdversary {
    fn route(
        &mut self,
        _at: SimTime,
        _from: ProcessId,
        _to: ProcessId,
        _msg: &u64,
        rng: &mut SplitMix64,
    ) -> Decision {
        Decision::DeliverAfter(SimDuration::from_ticks(rng.range_inclusive(1, 10)))
    }
}

#[derive(Clone, Copy)]
struct FloodOpts {
    trace_capacity: usize,
    adversary: bool,
    reliability: ReliabilityPolicy,
}

const RAW: FloodOpts = FloodOpts {
    trace_capacity: 0,
    adversary: false,
    reliability: ReliabilityPolicy::Off,
};

#[derive(Default)]
struct FloodTotals {
    events: u64,
    messages: u64,
    retransmissions: u64,
    acks: u64,
}

fn flood(network: &NetworkConfig, opts: FloodOpts) -> FloodTotals {
    let mut t = FloodTotals::default();
    for seed in 0..FLOOD_SEEDS {
        let mut builder = Sim::builder(network.clone())
            .seed(seed)
            .trace_capacity(opts.trace_capacity)
            .reliability(opts.reliability)
            .processes((0..FLOOD_N).map(|_| Flood::default()));
        if opts.adversary {
            builder = builder.adversary(Box::new(UniformAdversary));
        }
        // With retransmission on, the run goes on after the decisions
        // until every lost copy is retransmitted and acknowledged.
        let limit = if opts.reliability.is_on() {
            RunLimit::until_time(SimTime::from_ticks(20_000))
        } else {
            RunLimit::default()
        };
        let out = builder.build().run(limit);
        t.events += out.stats.events_processed;
        t.messages += out.stats.messages_sent;
        t.retransmissions += out.stats.retransmissions;
        t.acks += out.metrics.counter("reliable.acks_sent");
    }
    t
}

fn lossy() -> NetworkConfig {
    NetworkConfig {
        drop_probability: 0.05,
        duplicate_probability: 0.05,
        delay: DelayModel::Uniform { min: 1, max: 40 },
        ..NetworkConfig::default()
    }
}

/// Gray routing: two asymmetric links and a flapping split, as in the
/// campaign's gray-failure zoo.
fn gray() -> NetworkConfig {
    let half = FLOOD_N / 2;
    NetworkConfig::lossy(1, 5, 0.02)
        .with_link_override(LinkOverride {
            from: ProcessId(0),
            to: ProcessId(FLOOD_N - 1),
            drop_probability: Some(0.3),
            delay: Some(DelayModel::Uniform { min: 10, max: 30 }),
        })
        .with_link_override(LinkOverride {
            from: ProcessId(1),
            to: ProcessId(0),
            drop_probability: None,
            delay: Some(DelayModel::Fixed(20)),
        })
        .with_flapping(FlappingPartition {
            from: SimTime::from_ticks(40),
            until: SimTime::from_ticks(2_040),
            period: 80,
            partitioned: 10,
            groups: vec![
                (0..half).map(ProcessId).collect(),
                (half..FLOOD_N).map(ProcessId).collect(),
            ],
        })
}

/// Sends one message to every other process per round, one `send` per
/// recipient, for `ROUNDS` rounds.
struct AllToAll;

const SYNC_N: usize = 64;
const SYNC_ROUNDS: u64 = 10;

impl SyncProcess for AllToAll {
    type Msg = u64;
    type Output = u64;
    fn on_round(
        &mut self,
        round: u64,
        inbox: &[(ProcessId, u64)],
        ctx: &mut SyncContext<'_, u64, u64>,
    ) {
        if round == SYNC_ROUNDS {
            ctx.decide(inbox.len() as u64);
            ctx.halt();
            return;
        }
        let me = ctx.me().index();
        for to in (0..ctx.n()).filter(|&to| to != me) {
            ctx.send(ProcessId(to), round);
        }
    }
}

/// The §2 checker fold the Ben-Or harness runs after every execution:
/// the VAC properties of every round, then consensus and termination.
/// Returns the number of violations found.
fn checker_fold(run: &BenOrRun, inputs: &[bool], must_decide: &[ProcessId]) -> usize {
    let handles: Vec<(ProcessId, &[RoundRecord<bool>])> = run
        .histories
        .iter()
        .enumerate()
        .map(|(i, h)| (ProcessId(i), h.as_slice()))
        .collect();
    let mut violations = 0;
    for round in 1..=run.max_round {
        violations += RoundOutcomes::from_histories(round, &handles)
            .check_vac()
            .len();
    }
    violations += check_consensus(inputs, &run.outcome.decisions).len();
    violations += check_termination(must_decide, &run.outcome.decisions).len();
    violations
}

/// A one-process artifact: the single-node baseline of `run_artifact`.
fn single_node(algorithm: Algorithm) -> FailureArtifact {
    let mut a = clean(algorithm, 1, 0, 0);
    a.inputs = vec![1];
    if algorithm == Algorithm::PhaseKing {
        a.byzantine = Some(0);
        a.max_rounds = 4;
    } else {
        a.network = Some(NetworkConfig::reliable(1));
    }
    a
}

/// Runs every microbenchmark. `artifacts` are the workload's own;
/// `seed` is the workload seed, mixed into the Ben-Or seeds of the
/// price-of-objects comparison. Problems found on the way (a run that
/// should be clean but is not, a lossy round trip) go to `errors`.
pub fn run(
    tracer: &mut Tracer,
    artifacts: &[FailureArtifact],
    seed: u64,
    budget: Duration,
    errors: &mut Vec<String>,
) -> Vec<Metric> {
    let mut metrics = Vec::new();
    let mut push = |name: &str, value: f64, unit: &'static str| {
        metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        })
    };

    // ooc-campaign: grid materialisation, run floors, JSON, parallelism.
    let mut sweep_artifacts = Vec::new();
    let (count, secs) = reps(tracer, "campaign.grid", budget, || {
        sweep_artifacts = Algorithm::all()
            .into_iter()
            .flat_map(|a| grid(a, 1000))
            .collect();
        sweep_artifacts.extend(degradation_artifacts_with(24, ReliabilityPolicy::Off));
        sweep_artifacts.len() as u64
    });
    push(
        "campaign.grid_us_per_artifact",
        secs * 1e6 / count as f64,
        "us",
    );

    for (algorithm, name, metric) in [
        (
            Algorithm::BenOr,
            "campaign.run_floor.ben-or",
            "campaign.run_floor_us.ben-or",
        ),
        (
            Algorithm::Raft,
            "campaign.run_floor.raft",
            "campaign.run_floor_us.raft",
        ),
        (
            Algorithm::PhaseKing,
            "campaign.run_floor.phase-king",
            "campaign.run_floor_us.phase-king",
        ),
    ] {
        let artifact = single_node(algorithm);
        let out = run_artifact(&artifact);
        if out.decided != 1 || !out.violations.is_empty() {
            errors.push(format!(
                "{name}: single-node run did not decide cleanly: {:?}",
                out.violations
            ));
        }
        let (count, secs) = reps(tracer, name, budget, || {
            for _ in 0..200 {
                black_box(run_artifact(black_box(&artifact)));
            }
            200
        });
        push(metric, secs * 1e6 / count as f64, "us");
    }

    let mut encoded = Vec::new();
    let (count, secs) = reps(tracer, "campaign.artifact_encode", budget, || {
        encoded = artifacts
            .iter()
            .map(FailureArtifact::to_string_pretty)
            .collect();
        encoded.len() as u64
    });
    push(
        "campaign.artifact_encode_us",
        secs * 1e6 / count as f64,
        "us",
    );
    let mut parsed = Vec::new();
    let (count, secs) = reps(tracer, "campaign.artifact_parse", budget, || {
        parsed = encoded
            .iter()
            .map(|s| FailureArtifact::from_json_str(s))
            .collect();
        parsed.len() as u64
    });
    push(
        "campaign.artifact_parse_us",
        secs * 1e6 / count as f64,
        "us",
    );
    if parsed
        .iter()
        .zip(artifacts)
        .any(|(p, a)| p.as_ref() != Ok(a))
    {
        errors.push("artifact JSON round trip changed an artifact".into());
    }

    let reports: Vec<AlgorithmReport> = Algorithm::all()
        .into_iter()
        .map(|a| AlgorithmReport::collect(a, 64))
        .collect();
    let degradation = degradation_report_with(2, 1, retransmit());
    let (count, secs) = reps(tracer, "campaign.report_render", budget, || {
        for _ in 0..50 {
            black_box(report_json(&reports).pretty());
            black_box(degradation_reliability_json(&degradation).pretty());
        }
        50
    });
    push("campaign.report_render_us", secs * 1e6 / count as f64, "us");

    let mut speedups = Vec::new();
    for _ in 0..MIN_REPS {
        let (_, serial) = tracer.span("campaign.run_all.jobs1", || {
            run_all(&sweep_artifacts, 1).len() as u64
        });
        let (_, parallel) = tracer.span("campaign.run_all.jobs2", || {
            run_all(&sweep_artifacts, 2).len() as u64
        });
        speedups.push(serial as f64 / parallel as f64);
    }
    push(
        "campaign.parallel_speedup_jobs2",
        median(&mut speedups),
        "x",
    );

    // ooc-core: the price of objects (T7 in CPU time) and the checker fold.
    let cfg = BenOrConfig::new(16, 7);
    let inputs = balanced_inputs(16);
    let must_decide = cfg.must_decide();
    let seeds: Vec<u64> = (0..12)
        .map(|i| seed.wrapping_mul(1_000).wrapping_add(i))
        .collect();
    let (mut fold_us, mut template, mut monolithic, mut composed) =
        (vec![], vec![], vec![], vec![]);
    let started = Instant::now();
    while fold_us.len() < MIN_REPS || started.elapsed() < budget {
        let (mut mono_ns, mut mono_msgs) = (0, 0);
        let (mut tmpl_ns, mut tmpl_msgs, mut comp_ns, mut comp_msgs) = (0, 0, 0, 0);
        let (mut fold_ns, mut folds) = (0, 0);
        for &s in &seeds {
            // Every variant's result is dropped outside its span.
            let mut mono = None;
            let (msgs, ns) = tracer.span("core.monolithic", || {
                let (outcome, _) = run_monolithic(&cfg, &inputs, s);
                let msgs = outcome.stats.messages_sent;
                mono = Some(outcome);
                msgs
            });
            drop(mono);
            mono_ns += ns;
            mono_msgs += msgs;
            for (composed_vac, total_ns, total_msgs) in [
                (false, &mut tmpl_ns, &mut tmpl_msgs),
                (true, &mut comp_ns, &mut comp_msgs),
            ] {
                let mut run = None;
                let (msgs, ns) = tracer.span(
                    if composed_vac {
                        "core.composed"
                    } else {
                        "core.template"
                    },
                    || {
                        let r = if composed_vac {
                            run_composed(&cfg, &inputs, s)
                        } else {
                            run_decomposed(&cfg, &inputs, s)
                        };
                        let msgs = r.outcome.stats.messages_sent;
                        run = Some(r);
                        msgs
                    },
                );
                let run = run.expect("the span ran");
                if !run.violations.is_empty() {
                    errors.push(format!("Ben-Or n=16 seed {s}: {:?}", run.violations));
                }
                let mut found = 0;
                let (_, fold) = tracer.span("core.checker_fold", || {
                    found = checker_fold(&run, &inputs, &must_decide);
                    run.max_round
                });
                if found != 0 {
                    errors.push(format!(
                        "checker fold found {found} violations on a clean run"
                    ));
                }
                // The monolithic baseline runs no checkers; take the fold
                // out of the template side.
                *total_ns += ns.saturating_sub(fold);
                *total_msgs += msgs;
                fold_ns += fold;
                folds += 1;
            }
        }
        fold_us.push(fold_ns as f64 / folds as f64 / 1e3);
        monolithic.push(mono_ns as f64 / mono_msgs as f64);
        template.push(tmpl_ns as f64 / tmpl_msgs as f64);
        composed.push(comp_ns as f64 / comp_msgs as f64);
    }
    push("core.checker_fold_us", median(&mut fold_us), "us");
    push("core.template_ns_per_msg", median(&mut template), "ns");
    push("core.monolithic_ns_per_msg", median(&mut monolithic), "ns");
    push("core.composed_ns_per_msg", median(&mut composed), "ns");

    // ooc-simnet: engine construction, the flood regimes, the lock-step
    // engine, and the bookkeeping the engine does per event.
    for (n, name, metric) in [
        (7, "simnet.build.n7", "simnet.build_us.n7"),
        (64, "simnet.build.n64", "simnet.build_us.n64"),
    ] {
        // Not `reps`: the previous batch is dropped outside the span.
        let mut built = Vec::with_capacity(100);
        let mut secs = Vec::new();
        let started = Instant::now();
        while secs.len() < MIN_REPS || started.elapsed() < budget {
            built.clear();
            let (_, ns) = tracer.span(name, || {
                for s in 0..100 {
                    built.push(
                        Sim::builder(NetworkConfig::default())
                            .seed(s)
                            .processes((0..n).map(|_| Flood::default()))
                            .build(),
                    );
                }
                100
            });
            secs.push(ns as f64 / 1e3 / 100.0);
        }
        push(metric, median(&mut secs), "us");
    }

    for (name, metric, network, opts) in [
        (
            "simnet.flood.fixed",
            "simnet.flood.fixed.events_per_s",
            NetworkConfig::reliable(3),
            RAW,
        ),
        (
            "simnet.flood.sampled",
            "simnet.flood.sampled.events_per_s",
            NetworkConfig::default(),
            RAW,
        ),
        (
            "simnet.flood.lossy",
            "simnet.flood.lossy.events_per_s",
            lossy(),
            RAW,
        ),
        (
            "simnet.flood.adversary",
            "simnet.flood.adversary.events_per_s",
            NetworkConfig::default(),
            FloodOpts {
                adversary: true,
                ..RAW
            },
        ),
        (
            "simnet.flood.gray",
            "simnet.flood.gray.events_per_s",
            gray(),
            RAW,
        ),
        (
            "simnet.flood.ring256",
            "simnet.flood.ring256.events_per_s",
            NetworkConfig::reliable(3),
            FloodOpts {
                trace_capacity: 256,
                ..RAW
            },
        ),
        (
            "simnet.flood.retransmit",
            "simnet.flood.retransmit.events_per_s",
            lossy(),
            FloodOpts {
                reliability: retransmit(),
                ..RAW
            },
        ),
    ] {
        let mut totals = FloodTotals::default();
        let (events, secs) = reps(tracer, name, budget, || {
            totals = flood(&network, opts);
            totals.events
        });
        push(metric, events as f64 / secs, "1/s");
        if opts.reliability.is_on() {
            push(
                "reliable.retx_per_msg",
                totals.retransmissions as f64 / totals.messages as f64,
                "ratio",
            );
            push(
                "reliable.acks_per_msg",
                totals.acks as f64 / totals.messages as f64,
                "ratio",
            );
        }
    }

    let (messages, secs) = reps(tracer, "simnet.sync", budget, || {
        let mut sim = SyncSim::new((0..SYNC_N).map(|_| AllToAll), seed);
        sim.run(SYNC_ROUNDS + 1).messages_sent
    });
    push("simnet.sync.msgs_per_s", messages as f64 / secs, "1/s");

    const SAMPLES: u64 = 100_000;
    for (name, metric, model) in [
        (
            "simnet.delay_sample.uniform",
            "simnet.delay_sample_ns.uniform",
            DelayModel::Uniform { min: 1, max: 10 },
        ),
        (
            "simnet.delay_sample.heavy_tailed",
            "simnet.delay_sample_ns.heavy_tailed",
            DelayModel::HeavyTailed {
                floor: 1,
                alpha_milli: 1100,
                cap: 60,
            },
        ),
    ] {
        let mut rng = SplitMix64::new(seed);
        let (count, secs) = reps(tracer, name, budget, || {
            let mut sum = 0u64;
            for _ in 0..SAMPLES {
                sum = sum.wrapping_add(black_box(&model).sample(&mut rng).ticks());
            }
            black_box(sum);
            SAMPLES
        });
        push(metric, secs * 1e9 / count as f64, "ns");
    }

    let mut registry = MetricsRegistry::new();
    let counter = registry.counter_id("perfbench.counter");
    let histogram = registry.histogram_id("perfbench.histogram");
    let (count, secs) = reps(tracer, "simnet.metrics_update", budget, || {
        for i in 0..SAMPLES {
            registry.incr_by_id(counter, 1);
            registry.observe_by_id(histogram, black_box(i & 63));
        }
        SAMPLES
    });
    push("simnet.metrics_update_ns", secs * 1e9 / count as f64, "ns");

    let (count, secs) = reps(tracer, "simnet.storage_append_sync", budget, || {
        for _ in 0..SAMPLES / 250 {
            let mut store = StableStore::new(StoragePolicy::SyncAlways);
            for i in 0..250u64 {
                store.append("raft/hardstate".to_string(), i.to_le_bytes().to_vec());
                black_box(store.sync());
            }
        }
        SAMPLES
    });
    push(
        "simnet.storage_append_sync_ns",
        secs * 1e9 / count as f64,
        "ns",
    );

    metrics
}
