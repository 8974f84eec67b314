//! The campaign CLI: `sweep`, `report`, `degradation`, `replay`, `shrink`.

use ooc_campaign::artifact::{Algorithm, FailureArtifact};
use ooc_campaign::degradation::{
    degradation_artifacts_with, degradation_json, degradation_reliability_json,
    degradation_reliability_report_jobs, degradation_report_jobs,
};
use ooc_campaign::parallel::{default_jobs, run_all};
use ooc_campaign::report::{collect_reports_jobs, report_json};
use ooc_campaign::shrink::{shrink, size_of};
use ooc_campaign::sweep::{sweep_jobs, sweep_storage_jobs, SweepReport};
use ooc_simnet::StoragePolicy;
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

/// Runs the command; an `Err` is a usage error, printed with exit code 2.
fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter().map(String::as_str);
    let result = match it.next() {
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("report") => cmd_report(&args[1..]),
        Some("degradation") => cmd_degradation(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some("shrink") => cmd_shrink(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::from(2)
    })
}

const USAGE: &str = "\
usage: ooc-campaign <command> [options]

commands:
  sweep  [--algorithm ben-or|phase-king|raft|all] [--combos N]
         [--jobs N] [--out DIR] [--sabotage] [--shrink]
         [--storage sync-always|lose-unsynced|torn-last-write|amnesia]
      Run the fault-injection campaign (default: all algorithms,
      1000 combos each). Violations are written to DIR (default
      campaign-artifacts/) as re-runnable JSON artifacts; --shrink
      minimizes each before writing. --sabotage plants the Ben-Or
      off-by-one commit threshold to prove the pipeline catches it.
      Exits non-zero if any SAFETY violation was found (unless
      --sabotage asked for one).
      --storage POLICY instead sweeps the Raft durability grid
      (crash-a-voter schedules) with every node's stable storage
      under POLICY. Policies that can lose a synced-in-spirit
      hardstate record (amnesia, lose-unsynced) are EXPECTED to
      produce double-vote safety violations; sync-always and
      torn-last-write must stay clean. The exit code asserts that
      expectation in both directions.

  report [--algorithm ben-or|phase-king|raft|all] [--combos N]
         [--jobs N] [--out FILE]
      Run the first N grid combinations per algorithm (default: all
      algorithms, 200 combos each) and aggregate them into percentile
      summaries (p50/p95/p99 rounds-to-decide, messages, simulated
      ticks). The JSON output is byte-identical across repeated runs
      with the same inputs; written to FILE or stdout.

  degradation [--seeds N] [--jobs N] [--out FILE] [--artifacts DIR]
              [--reliability]
      Sweep adversary strength (oblivious, message-adaptive split-vote,
      state-adaptive split-vote, quorum-starve) against the gray-failure
      scenario zoo (clean, asymmetric loss, flapping partitions,
      heavy-tailed delays with clock drift and slow disks) with N seeds
      per cell (default 40). Emits eventual-agreement probability (in
      permille) and rounds-to-decide percentiles per regime as
      byte-identical deterministic JSON, to FILE or stdout.
      --reliability arms the engine's ack/retransmit layer at its
      defaults and adds watchdog-stall and retransmission/ack-overhead
      columns (its own schema; the default report's bytes never move).
      --artifacts DIR additionally writes every cell's runs as
      re-runnable artifact JSON. Exits non-zero if any cell broke
      safety.

  replay [--jobs N] <artifact.json>...
      Re-run one or more artifacts and report what the checkers see.
      Exits 0 iff every artifact's recorded violation kind is
      reproduced. Results print in argument order.

  shrink <artifact.json> [--out FILE]
      Minimize an artifact while preserving its violation kind and
      write the result (default: <artifact>.min.json).

--jobs N runs the combo grid on N worker threads (default: the host's
available parallelism). Output is byte-identical for every N: combos
derive their seeds from the grid, not the schedule, and results merge
in stable grid order.";

/// The value of `flag`, or `None` when the flag is absent. A flag
/// without a value is an error that names it.
fn parse_flag<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    match args.get(i + 1) {
        Some(value) => Ok(Some(value)),
        None => Err(format!("{flag} needs a value")),
    }
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// The value of `flag` parsed as a `T`, or `default()` when the flag is
/// absent. A value that does not parse is an error that names the flag.
fn flag_value<T: FromStr>(
    args: &[String],
    flag: &str,
    default: impl FnOnce() -> T,
) -> Result<T, String>
where
    T::Err: Display,
{
    match parse_flag(args, flag)? {
        None => Ok(default()),
        Some(value) => value
            .parse()
            .map_err(|e| format!("invalid {flag} {value:?}: {e}")),
    }
}

fn parse_jobs(args: &[String]) -> Result<usize, String> {
    flag_value(args, "--jobs", default_jobs)
}

/// Positional arguments: everything that is not a flag or the value of
/// a value-taking flag.
fn positional_args<'a>(args: &'a [String], value_flags: &[&str]) -> Vec<&'a str> {
    let mut out = Vec::new();
    let mut skip_value = false;
    for a in args {
        if skip_value {
            skip_value = false;
            continue;
        }
        if value_flags.contains(&a.as_str()) {
            skip_value = true;
            continue;
        }
        if a.starts_with("--") {
            continue;
        }
        out.push(a.as_str());
    }
    out
}

fn cmd_sweep(args: &[String]) -> Result<ExitCode, String> {
    let algorithms = parse_algorithms(args)?;
    let combos = flag_value(args, "--combos", || 1000)?;
    let out_dir = PathBuf::from(parse_flag(args, "--out")?.unwrap_or("campaign-artifacts"));
    let sabotage = has_flag(args, "--sabotage");
    let do_shrink = has_flag(args, "--shrink");
    let jobs = parse_jobs(args)?;

    if let Some(name) = parse_flag(args, "--storage")? {
        let policy = StoragePolicy::from_name(name).ok_or_else(|| {
            format!(
                "unknown storage policy {name:?} \
                 (sync-always|lose-unsynced|torn-last-write|amnesia)"
            )
        })?;
        return Ok(cmd_sweep_storage(policy, combos, &out_dir, do_shrink, jobs));
    }

    let mut any_safety = false;
    for alg in algorithms {
        let report = sweep_jobs(alg, combos, sabotage, jobs);
        println!("{}", report.summary());
        any_safety |= !report.safety.is_empty();
        if let Err(code) = write_flagged(&report, &out_dir, do_shrink, alg.name()) {
            return Ok(code);
        }
    }
    // With sabotage we *expect* safety violations; without, any safety
    // violation is a red alert.
    if any_safety != sabotage {
        if sabotage {
            eprintln!("sabotaged sweep failed to catch the broken variant");
        } else {
            eprintln!("SAFETY VIOLATION found — artifacts written above");
        }
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// The `--algorithm` flag: one algorithm, or all three by default.
fn parse_algorithms(args: &[String]) -> Result<Vec<Algorithm>, String> {
    match parse_flag(args, "--algorithm")? {
        None | Some("all") => Ok(Algorithm::all().to_vec()),
        Some(name) => Algorithm::parse(name)
            .map(|a| vec![a])
            .ok_or_else(|| format!("unknown algorithm {name:?} (ben-or|phase-king|raft|all)")),
    }
}

/// The `sweep --storage POLICY` path: run the Raft durability grid and
/// hold the outcome against what the policy is *supposed* to do.
fn cmd_sweep_storage(
    policy: StoragePolicy,
    combos: usize,
    out_dir: &Path,
    do_shrink: bool,
    jobs: usize,
) -> ExitCode {
    let report = sweep_storage_jobs(combos, policy, jobs);
    println!("storage={}: {}", policy.name(), report.summary());
    let prefix = format!("raft-storage-{}", policy.name());
    if let Err(code) = write_flagged(&report, out_dir, do_shrink, &prefix) {
        return code;
    }
    // Only policies that can drop the hardstate record entirely make a
    // recovered node forget which term it voted in; torn-last-write
    // truncates the final record but recovery falls back to the earlier
    // term-adoption record, so the node re-campaigns in a *fresh* term.
    let expect_dirty = matches!(
        policy,
        StoragePolicy::Amnesia | StoragePolicy::LoseUnsynced
    );
    let dirty = !report.safety.is_empty();
    if dirty != expect_dirty {
        if expect_dirty {
            eprintln!(
                "storage sweep under {} failed to surface a double-vote",
                policy.name()
            );
        } else {
            eprintln!(
                "SAFETY VIOLATION under {} — artifacts written above",
                policy.name()
            );
        }
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Writes every flagged artifact of `report` (shrunk first when asked)
/// into `out_dir` as `<prefix>-NNNN.json`.
fn write_flagged(
    report: &SweepReport,
    out_dir: &Path,
    do_shrink: bool,
    prefix: &str,
) -> Result<(), ExitCode> {
    for (i, art) in report
        .safety
        .iter()
        .chain(report.liveness.iter())
        .enumerate()
    {
        let art = if do_shrink {
            match shrink(art) {
                Some(r) => {
                    println!(
                        "  shrunk artifact {} in {} steps ({} probe runs), size {} -> {}",
                        i,
                        r.steps,
                        r.runs,
                        size_of(art),
                        size_of(&r.artifact)
                    );
                    r.artifact
                }
                None => art.clone(),
            }
        } else {
            art.clone()
        };
        let path = out_dir.join(format!("{prefix}-{i:04}.json"));
        if let Err(e) = write_artifact(&path, &art) {
            eprintln!("  failed to write {}: {e}", path.display());
            return Err(ExitCode::FAILURE);
        }
        let what = art
            .violation
            .as_ref()
            .map(|v| v.kind.clone())
            .unwrap_or_else(|| "unknown".into());
        println!("  wrote {} ({what})", path.display());
    }
    Ok(())
}

fn cmd_report(args: &[String]) -> Result<ExitCode, String> {
    let algorithms = parse_algorithms(args)?;
    let combos = flag_value(args, "--combos", || 200)?;
    let out = parse_flag(args, "--out")?;
    let reports = collect_reports_jobs(&algorithms, combos, parse_jobs(args)?);
    for r in &reports {
        println!(
            "{}: {} combos, {} fully decided, {} with undecided, p50/p95/p99 rounds {}/{}/{}",
            r.algorithm.name(),
            r.combos,
            r.fully_decided,
            r.with_undecided,
            r.rounds_to_decide.p50,
            r.rounds_to_decide.p95,
            r.rounds_to_decide.p99,
        );
    }
    let text = report_json(&reports).pretty();
    if let Err(code) = write_report(out, &text) {
        return Ok(code);
    }
    Ok(ExitCode::SUCCESS)
}

/// Writes a report to the `--out` file, creating its directory, or to
/// stdout. A failure is printed and returned as exit code 1.
fn write_report(out: Option<&str>, text: &str) -> Result<(), ExitCode> {
    let Some(path) = out else {
        print!("{text}");
        return Ok(());
    };
    let path = Path::new(path);
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("failed to create {}: {e}", dir.display());
            return Err(ExitCode::FAILURE);
        }
    }
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("failed to write {}: {e}", path.display());
        return Err(ExitCode::FAILURE);
    }
    println!("wrote {}", path.display());
    Ok(())
}

fn cmd_degradation(args: &[String]) -> Result<ExitCode, String> {
    let seeds = flag_value(args, "--seeds", || 40)?;
    if seeds == 0 {
        return Err("--seeds must be at least 1".into());
    }
    let jobs = parse_jobs(args)?;
    let out = parse_flag(args, "--out")?;
    let artifacts_dir = parse_flag(args, "--artifacts")?;
    // `--reliability` arms the engine's retransmission layer at its
    // defaults and switches to the reliability report schema; without it
    // the classic fire-and-forget report reproduces byte-for-byte.
    let reliability = has_flag(args, "--reliability");
    let report = if reliability {
        degradation_reliability_report_jobs(seeds, jobs)
    } else {
        degradation_report_jobs(seeds, jobs)
    };
    for regime in &report.regimes {
        for cell in &regime.cells {
            println!(
                "{}/{}: agreement {}‰ ({}/{} runs), stalled {}, retx {}, rounds p50/p95 {}/{}",
                regime.regime,
                cell.adversary,
                cell.agreement_permille,
                cell.agreed,
                cell.runs,
                cell.stalled,
                cell.retransmissions,
                cell.rounds_to_decide.p50,
                cell.rounds_to_decide.p95,
            );
        }
    }
    let text = if reliability {
        degradation_reliability_json(&report).pretty()
    } else {
        degradation_json(&report).pretty()
    };
    if let Err(code) = write_report(out, &text) {
        return Ok(code);
    }
    if let Some(dir) = artifacts_dir {
        let dir = Path::new(dir);
        let artifacts = degradation_artifacts_with(seeds, report.reliability);
        for (i, art) in artifacts.iter().enumerate() {
            let path = dir.join(format!("degradation-{i:04}.json"));
            if let Err(e) = write_artifact(&path, art) {
                eprintln!("failed to write {}: {e}", path.display());
                return Ok(ExitCode::FAILURE);
            }
        }
        println!("wrote {} artifacts to {}", artifacts.len(), dir.display());
    }
    let safety: u64 = report
        .regimes
        .iter()
        .flat_map(|r| &r.cells)
        .map(|c| c.safety_violations)
        .sum();
    if safety > 0 {
        eprintln!("SAFETY VIOLATION in {safety} degradation runs");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn write_artifact(path: &Path, art: &FailureArtifact) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, art.to_string_pretty())
}

fn load_artifact(path: &str) -> Result<FailureArtifact, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    FailureArtifact::from_json_str(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn cmd_replay(args: &[String]) -> Result<ExitCode, String> {
    let paths = positional_args(args, &["--jobs"]);
    if paths.is_empty() {
        return Err(USAGE.to_string());
    }
    let jobs = parse_jobs(args)?;
    let artifacts = paths
        .iter()
        .map(|path| load_artifact(path))
        .collect::<Result<Vec<_>, _>>()?;
    let outcomes = run_all(&artifacts, jobs);
    let mut all_reproduced = true;
    for ((path, art), out) in paths.iter().zip(&artifacts).zip(&outcomes) {
        println!(
            "replayed {path} — {} n={} t={} seed={}: {} decided, {} undecided, stopped after {} ({})",
            art.algorithm.name(),
            art.n,
            art.t,
            art.seed,
            out.decided,
            out.undecided,
            out.spent,
            out.stop
        );
        for v in &out.violations {
            println!("  violation: {v}");
        }
        match &art.violation {
            Some(expected) => {
                let reproduced = out
                    .violations
                    .iter()
                    .any(|v| ooc_campaign::artifact::kind_name(v.kind) == expected.kind);
                if reproduced {
                    println!("  reproduced the recorded {} violation", expected.kind);
                } else {
                    eprintln!("  did NOT reproduce the recorded {} violation", expected.kind);
                    all_reproduced = false;
                }
            }
            None => {
                if out.violations.is_empty() {
                    println!("  clean run (artifact records no violation)");
                }
            }
        }
    }
    Ok(if all_reproduced {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_shrink(args: &[String]) -> Result<ExitCode, String> {
    let path = args.first().ok_or_else(|| USAGE.to_string())?;
    let out = parse_flag(args, "--out")?;
    let art = load_artifact(path)?;
    Ok(match shrink(&art) {
        None => {
            eprintln!("artifact does not reproduce any violation; nothing to shrink");
            ExitCode::FAILURE
        }
        Some(report) => {
            let out_path = out.map(PathBuf::from).unwrap_or_else(|| {
                PathBuf::from(path.strip_suffix(".json").unwrap_or(path).to_string() + ".min.json")
            });
            println!(
                "shrunk in {} steps ({} probe runs): size {} -> {}",
                report.steps,
                report.runs,
                size_of(&art),
                size_of(&report.artifact)
            );
            if let Some(v) = &report.artifact.violation {
                println!("minimal counterexample reproduces: {} — {}", v.kind, v.detail);
            }
            if let Err(e) = write_artifact(&out_path, &report.artifact) {
                eprintln!("failed to write {}: {e}", out_path.display());
                return Ok(ExitCode::FAILURE);
            }
            println!("wrote {}", out_path.display());
            ExitCode::SUCCESS
        }
    })
}
