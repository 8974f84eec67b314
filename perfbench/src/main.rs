//! Wall-clock benchmark of the campaign runtime.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep|gray-retransmit|scale-n> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One operation is one consensus run through `run_artifact`; the load is
//! a closed loop with one worker in one process. The network is
//! simulated, so no real message delay is injected and every latency is
//! host processor time.
//!
//! `--trace 0` reports the end-to-end metrics (`runs_per_s`,
//! `run_us.p50`, `run_us.p99`, `setup_s`, `peak_rss_mb`); `--trace 1`
//! reports the per-layer metrics from spans around calls into each
//! crate. Either way the last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`.
//!
//! `--record-digests` rewrites `perfbench/digests/<workload>.txt`, the
//! reference outcome of every artifact at the default seed.

mod check;
mod layers;
mod stats;
mod trace;
mod workloads;

use check::Anchor;
use layers::{Metric, LAYER_METRICS};
use ooc_campaign::{
    report_json, run_artifact, Algorithm, AlgorithmReport, CampaignOutcome, FailureArtifact,
    PercentileSummary,
};
use stats::percentile;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::{Workload, DEFAULT_SEED};

/// Set-ups a run makes at least: one before the measurement and one after
/// each pass, topped up after the last pass if that leaves fewer.
const SETUP_REPS: usize = 10;
/// Runs in the warm-up, spread evenly over the workload's artifacts.
const WARMUP_OPS: usize = 64;
/// Passes over the artifacts a run makes at least, whatever `--seconds`.
const MIN_PASSES: usize = 3;
/// Consecutive runs per block in the traced run; each block runs once
/// untraced and once traced, so the overhead compares identical work.
const BLOCK_OPS: usize = 32;
/// Failures quoted in the report; the rest are only counted.
const QUOTED_FAILURES: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    record_digests: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::Sweep,
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
        record_digests: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--record-digests" => args.record_digests = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// The repository root: the benchmark package sits one level below it.
fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package is not the filesystem root")
        .to_path_buf()
}

fn main() -> ExitCode {
    match parse_args().and_then(run) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ooc-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: Args) -> Result<(), String> {
    let workload = args.workload;
    println!("workload {}: {}", workload.name(), workload.why());
    println!("host: {}", fingerprint());
    if args.record_digests {
        return record_digests(workload);
    }
    let reference = if args.seed == DEFAULT_SEED {
        Some(check::read_digests(&check::digest_path(workload))?)
    } else {
        None
    };
    if args.trace {
        run_traced(&args, reference.as_deref())
    } else {
        run_untraced(&args, reference.as_deref())
    }
}

/// Host fingerprint: processor count, CPU model, compiler and commit.
fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let output = |cmd: &mut Command| {
        cmd.output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let rustc = output(Command::new("rustc").arg("-V")).unwrap_or_else(|| "unknown".into());
    let root = root();
    let commit = if root.join(".git").exists() {
        output(
            Command::new("git")
                .arg("-C")
                .arg(&root)
                .args(["rev-parse", "HEAD"]),
        )
    } else {
        None
    }
    .unwrap_or_else(|| "unknown (not a git checkout)".into());
    format!("nproc={nproc} cpu={cpu:?} rustc={rustc:?} commit={commit}")
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn record_digests(workload: Workload) -> Result<(), String> {
    let artifacts = workload.artifacts(DEFAULT_SEED);
    let digests: Vec<u32> = artifacts
        .iter()
        .map(|a| check::digest(&run_artifact(a)))
        .collect();
    let path = check::digest_path(workload);
    check::write_digests(&path, workload, &digests)?;
    println!("wrote {} digests to {}", digests.len(), path.display());
    Ok(())
}

/// The warm-up runs: `WARMUP_OPS` artifacts spread evenly over the
/// workload at the default seed. A subset this small costs noticeably
/// different amounts at different seeds, so the warm-up ignores the
/// workload seed and is the same work in every run.
fn warm_up_runs(workload: Workload) -> Vec<FailureArtifact> {
    let all = workload.artifacts(DEFAULT_SEED);
    let stride = all.len().div_ceil(WARMUP_OPS).max(1);
    // Cloned, so the whole grid's buffer is freed rather than kept.
    all.iter().step_by(stride).cloned().collect()
}

/// Materialises the workload and runs the warm-up. Returns the artifacts
/// and the time of each part in nanoseconds: the grid, then each warm-up
/// run.
fn setup(
    workload: Workload,
    seed: u64,
    warm_up: &[FailureArtifact],
) -> (Vec<FailureArtifact>, Vec<u64>) {
    let started = Instant::now();
    let artifacts = workload.artifacts(seed);
    let mut parts = vec![started.elapsed().as_nanos() as u64];
    for a in warm_up {
        let started = Instant::now();
        black_box(run_artifact(a));
        parts.push(started.elapsed().as_nanos() as u64);
    }
    (artifacts, parts)
}

/// Tallies failed runs and quotes the first few.
#[derive(Default)]
struct Failures {
    count: u64,
    quoted: Vec<String>,
}

impl Failures {
    fn record(&mut self, index: usize, why: &str) {
        self.count += 1;
        if self.quoted.len() < QUOTED_FAILURES {
            self.quoted.push(format!("artifact {index}: {why}"));
        }
    }
}

/// One operation: runs artifact `index` and checks its outcome. Returns
/// the outcome (`None` if the run panicked) and the run's wall time in
/// nanoseconds, which leaves the check out.
fn op(
    artifacts: &[FailureArtifact],
    index: usize,
    reference: Option<&[u32]>,
    failures: &mut Failures,
) -> (Option<CampaignOutcome>, u64) {
    let artifact = &artifacts[index];
    let started = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| run_artifact(artifact)));
    let ns = started.elapsed().as_nanos() as u64;
    match result {
        Err(_) => {
            failures.record(index, "panicked");
            (None, ns)
        }
        Ok(out) => {
            if let Some(why) = check::failure(artifact, &out, reference.map(|r| r[index])) {
                failures.record(index, why);
            }
            (Some(out), ns)
        }
    }
}

fn check_reference(artifacts: &[FailureArtifact], reference: Option<&[u32]>) -> Result<(), String> {
    match reference {
        Some(r) if r.len() != artifacts.len() => Err(format!(
            "reference digests cover {} artifacts, the workload has {}",
            r.len(),
            artifacts.len()
        )),
        _ => Ok(()),
    }
}

/// Sets up once more, from a heap with no artifacts alive: replaces
/// `artifacts` and lowers each part of `fastest` to this set-up's time
/// for it.
fn resetup(
    args: &Args,
    warm_up: &[FailureArtifact],
    artifacts: &mut Vec<FailureArtifact>,
    fastest: &mut Vec<u64>,
) {
    drop(std::mem::take(artifacts));
    let (a, parts) = setup(args.workload, args.seed, warm_up);
    *artifacts = a;
    if fastest.is_empty() {
        *fastest = parts;
    } else {
        for (f, p) in fastest.iter_mut().zip(parts) {
            *f = (*f).min(p);
        }
    }
}

fn run_untraced(args: &Args, reference: Option<&[u32]>) -> Result<(), String> {
    let warm_up = warm_up_runs(args.workload);
    let mut setup_parts = Vec::new();
    let mut artifacts = Vec::new();
    resetup(args, &warm_up, &mut artifacts, &mut setup_parts);
    let mut setups = 1;
    check_reference(&artifacts, reference)?;

    // Whole passes over the artifacts until the budget is spent, and at
    // least MIN_PASSES of them. Every pass is identical work, so the
    // spread between executions of one artifact is host interference:
    // each artifact's latency is the fastest of its executions, which
    // drops the slow phases a shared host goes through. A set-up follows
    // every pass, so set-ups meet the same phases, and each set-up part
    // (the grid, each warm-up run) counts at its fastest for the same
    // reason; `setup_s` is their sum.
    let budget = Duration::from_secs_f64(args.seconds);
    let n = artifacts.len();
    let mut failures = Failures::default();
    let mut best = vec![u64::MAX; n];
    let mut passes = 0;
    let mut run_secs = 0.0;
    let started = Instant::now();
    while passes < MIN_PASSES || started.elapsed() < budget {
        let pass_started = Instant::now();
        for (index, fastest) in best.iter_mut().enumerate() {
            *fastest = (*fastest).min(op(&artifacts, index, reference, &mut failures).1);
        }
        run_secs += pass_started.elapsed().as_secs_f64();
        passes += 1;
        resetup(args, &warm_up, &mut artifacts, &mut setup_parts);
        setups += 1;
    }
    while setups < SETUP_REPS {
        resetup(args, &warm_up, &mut artifacts, &mut setup_parts);
        setups += 1;
    }
    let ops = passes * n;
    best.sort_unstable();
    // Read before the anchor check, whose reports are not the workload's.
    let peak_rss = peak_rss_mb()?;
    let anchors = check::anchors(&root(), args.workload)?;

    let metrics = vec![
        metric(
            "runs_per_s",
            n as f64 / (best.iter().sum::<u64>() as f64 / 1e9),
            "1/s",
        ),
        metric("run_us.p50", percentile(&best, 0.50) as f64 / 1e3, "us"),
        metric("run_us.p99", percentile(&best, 0.99) as f64 / 1e3, "us"),
        metric("setup_s", setup_parts.iter().sum::<u64>() as f64 / 1e9, "s"),
        metric("peak_rss_mb", peak_rss, "MB"),
    ];
    println!(
        "{ops} runs in {run_secs:.3} s ({:.1} runs/s as measured): {passes} passes over {n} \
         artifacts, closed loop, 1 worker; latency is each artifact's fastest of its {passes} \
         runs, percentiles over n={n} artifacts with {} beyond p99; set-up parts (grid and {} \
         warm-up runs) at their fastest of {setups} set-ups",
        ops as f64 / run_secs,
        n - n * 99 / 100,
        setup_parts.len() - 1
    );
    for m in &metrics {
        println!("  {:<14} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<14} {:>14.4} ({} failed of {ops})",
        "fail_ratio",
        failures.count as f64 / ops as f64,
        failures.count
    );
    finish(&failures, &anchors, Vec::new(), ops as u64, &metrics)
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Prints the failures, the anchor check and the result line.
fn finish(
    failures: &Failures,
    anchors: &[Anchor],
    errors: Vec<String>,
    attempted: u64,
    metrics: &[Metric],
) -> Result<(), String> {
    for f in &failures.quoted {
        println!("FAILED {f}");
    }
    let broken: Vec<&Anchor> = anchors.iter().filter(|a| !a.holds()).collect();
    if anchors.is_empty() {
        println!("anchors: no committed table covers these artifacts");
    } else {
        println!(
            "anchors: {}/{} BENCH_ooc.json totals reproduced",
            anchors.len() - broken.len(),
            anchors.len()
        );
    }
    for a in &broken {
        println!(
            "ANCHOR MISMATCH {}: committed {:?}, measured {}",
            a.name, a.committed, a.measured
        );
    }
    for e in &errors {
        println!("ERROR {e}");
    }
    let correct = failures.count == 0 && broken.is_empty() && errors.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            if !m.value.is_finite() {
                return Err(format!("{} is not a finite number: {}", m.name, m.value));
            }
            Ok(format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            ))
        })
        .collect::<Result<_, _>>()?;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failures.count,
        body.join(", ")
    );
    Ok(())
}

/// Runs, events and messages of one algorithm in the traced run.
#[derive(Default)]
struct AlgorithmTotals {
    runs: u64,
    events: u64,
    messages: u64,
}

fn run_span(algorithm: Algorithm) -> &'static str {
    match algorithm {
        Algorithm::BenOr => "run_artifact.ben-or",
        Algorithm::PhaseKing => "run_artifact.phase-king",
        Algorithm::Raft => "run_artifact.raft",
    }
}

/// One traced pass over `indices`: a `pass` span holding one span per
/// run, tagged by algorithm, then the report render.
fn traced_pass(
    tracer: &mut Tracer,
    artifacts: &[FailureArtifact],
    indices: std::ops::Range<usize>,
    reference: Option<&[u32]>,
    failures: &mut Failures,
    totals: &mut BTreeMap<&'static str, AlgorithmTotals>,
) -> f64 {
    tracer.next_pass();
    let pass = tracer.enter("pass");
    let started = Instant::now();
    let mut outs = Vec::with_capacity(indices.len());
    for index in indices.clone() {
        let algorithm = artifacts[index].algorithm;
        let mut out = None;
        tracer.span(run_span(algorithm), || {
            out = op(artifacts, index, reference, failures).0;
            out.as_ref().map_or(0, |o| o.spent.events)
        });
        if let Some(o) = out {
            let t = totals.entry(algorithm.name()).or_default();
            t.runs += 1;
            t.events += o.spent.events;
            t.messages += o.messages;
            outs.push((algorithm, o));
        }
    }
    let secs = started.elapsed().as_secs_f64();
    tracer.span("report_render", || render_report(&outs) as u64);
    tracer.exit(pass, indices.len() as u64);
    secs
}

/// Aggregates outcomes into the campaign's per-algorithm report and
/// renders it; returns the document length.
fn render_report(outs: &[(Algorithm, CampaignOutcome)]) -> usize {
    let reports: Vec<AlgorithmReport> = Algorithm::all()
        .into_iter()
        .filter(|a| outs.iter().any(|(b, _)| b == a))
        .map(|algorithm| {
            let mine = || {
                outs.iter()
                    .filter(move |(b, _)| *b == algorithm)
                    .map(|(_, o)| o)
            };
            let mut violations = BTreeMap::new();
            for v in mine().flat_map(|o| &o.violations) {
                *violations
                    .entry(ooc_campaign::artifact::kind_name(v.kind).to_string())
                    .or_insert(0) += 1;
            }
            let rounds: Vec<u64> = mine()
                .filter(|o| o.undecided == 0)
                .map(|o| o.spent.rounds)
                .collect();
            let messages: Vec<u64> = mine().map(|o| o.messages).collect();
            let ticks: Vec<u64> = mine().map(|o| o.spent.ticks).collect();
            AlgorithmReport {
                algorithm,
                combos: messages.len() as u64,
                fully_decided: rounds.len() as u64,
                with_undecided: (messages.len() - rounds.len()) as u64,
                violations,
                rounds_to_decide: PercentileSummary::of(&rounds),
                messages: PercentileSummary::of(&messages),
                sim_ticks: PercentileSummary::of(&ticks),
            }
        })
        .collect();
    report_json(&reports).pretty().len()
}

fn run_traced(args: &Args, reference: Option<&[u32]>) -> Result<(), String> {
    let mut tracer = Tracer::new();
    let warm_up = warm_up_runs(args.workload);
    let mut artifacts = Vec::new();
    tracer.span("setup", || {
        artifacts = setup(args.workload, args.seed, &warm_up).0;
        artifacts.len() as u64
    });
    check_reference(&artifacts, reference)?;

    // Half the time on the workload, half on the layer microbenchmarks.
    let budget = Duration::from_secs_f64(args.seconds / 2.0);
    let mut failures = Failures::default();
    let mut totals: BTreeMap<&'static str, AlgorithmTotals> = BTreeMap::new();
    let (mut untraced, mut traced) = (0.0, 0.0);
    let mut attempted = 0u64;
    let started = Instant::now();
    let mut next = 0;
    let mut traced_first = false;
    while started.elapsed() < budget {
        let start = next % artifacts.len();
        let block = start..(start + BLOCK_OPS).min(artifacts.len());
        next = block.end;
        // The copy that runs second finds warm caches, so the order
        // alternates from block to block.
        for traced_turn in [traced_first, !traced_first] {
            if traced_turn {
                traced += traced_pass(
                    &mut tracer,
                    &artifacts,
                    block.clone(),
                    reference,
                    &mut failures,
                    &mut totals,
                );
            } else {
                let t0 = Instant::now();
                for index in block.clone() {
                    op(&artifacts, index, reference, &mut failures);
                }
                untraced += t0.elapsed().as_secs_f64();
            }
        }
        traced_first = !traced_first;
        attempted += 2 * block.len() as u64;
    }
    // An algorithm the workload does not run is measured on the first 64
    // combos of its sweep grid, so every workload reports every metric.
    for algorithm in Algorithm::all() {
        if !totals.contains_key(algorithm.name()) {
            let mut sample = ooc_campaign::grid(algorithm, 64);
            sample.truncate(64);
            traced_pass(
                &mut tracer,
                &sample,
                0..sample.len(),
                None,
                &mut failures,
                &mut totals,
            );
            attempted += sample.len() as u64;
            println!(
                "{}: not in this workload; measured on its first 64 sweep combos",
                algorithm.name()
            );
        }
    }

    let mut errors = Vec::new();
    let micro_budget = Duration::from_secs_f64(args.seconds / 2.0 / 24.0);
    let mut metrics = layers::run(
        &mut tracer,
        &artifacts,
        args.seed,
        micro_budget,
        &mut errors,
    );
    for algorithm in Algorithm::all() {
        let name = algorithm.name();
        let t = &totals[name];
        let mut durations = tracer.durations_ns(run_span(algorithm));
        durations.sort_unstable();
        metrics.push(metric(
            &format!("{name}.run_us.p50"),
            percentile(&durations, 0.5) as f64 / 1e3,
            "us",
        ));
        metrics.push(metric(
            &format!("{name}.events_per_run"),
            t.events as f64 / t.runs as f64,
            "count",
        ));
        metrics.push(metric(
            &format!("{name}.messages_per_run"),
            t.messages as f64 / t.runs as f64,
            "count",
        ));
    }
    metrics.push(metric("trace.overhead_ratio", traced / untraced, "x"));
    let anchors = check::anchors(&root(), args.workload)?;

    // Every declared layer metric, once, in declaration order.
    let mut by_name: BTreeMap<String, Metric> = BTreeMap::new();
    for m in metrics {
        let name = m.name.clone();
        if by_name.insert(name.clone(), m).is_some() {
            return Err(format!("layer metric {name} measured twice"));
        }
    }
    let mut ordered = Vec::new();
    for &(name, unit, _) in LAYER_METRICS {
        let m = by_name
            .remove(name)
            .ok_or(format!("layer metric {name} not measured"))?;
        if m.unit != unit {
            return Err(format!(
                "layer metric {name} has unit {}, declared {unit}",
                m.unit
            ));
        }
        ordered.push(m);
    }
    if let Some(extra) = by_name.keys().next() {
        return Err(format!("layer metric {extra} is not declared"));
    }

    println!(
        "\nself time per span ({} passes, all spans share their pass id):",
        tracer.passes()
    );
    println!(
        "  {:<36} {:>8} {:>12} {:>12} {:>14}",
        "span", "calls", "total ms", "self ms", "count"
    );
    let mut self_times = tracer.self_times();
    self_times.sort_by_key(|s| std::cmp::Reverse(s.self_ns));
    for s in &self_times {
        println!(
            "  {:<36} {:>8} {:>12.3} {:>12.3} {:>14}",
            s.name,
            s.calls,
            s.total_ns as f64 / 1e6,
            s.self_ns as f64 / 1e6,
            s.count
        );
    }
    println!(
        "\nper-layer metrics (tracing overhead {:.2}% on identical blocks):",
        (traced / untraced - 1.0) * 100.0
    );
    for (m, &(_, _, moves)) in ordered.iter().zip(LAYER_METRICS) {
        println!(
            "  {:<38} {:>16.4} {:<6} -> {moves}",
            m.name, m.value, m.unit
        );
    }
    finish(&failures, &anchors, errors, attempted, &ordered)
}
