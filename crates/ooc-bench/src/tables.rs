//! The T1–T16 experiment implementations.
//!
//! Each function runs one experiment sweep, prints the table, and returns
//! the raw rows so tests can assert on the *shape* of the results (who
//! wins, where crossovers fall) without parsing stdout.

use crate::stats::Summary;
use ooc_ben_or::harness::{
    balanced_inputs, run_composed, run_decomposed, run_decomposed_with, run_monolithic,
    split_adversary, BenOrConfig,
};
use ooc_core::Confidence;
use ooc_phase_king::{run_phase_king, run_phase_queen, Attack, PhaseKingConfig};
use ooc_raft::decentralized::{coin_flip_twin, decentralized_raft};
use ooc_raft::harness::{run_raft, RaftClusterConfig};
use ooc_raft::RaftConfig;
use ooc_sharedmem::{RegisterAc, SharedConsensus};
use ooc_simnet::{FaultPlan, Json, NetworkConfig, RunLimit, Sim, SimTime};
use std::sync::Arc;
// ooc-lint::allow(determinism/wall-clock, "throughput benchmarks time real execution by design")
use std::time::Instant;

/// Number of seeds per configuration (kept moderate so `tables all`
/// finishes in minutes even in debug builds).
pub const SEEDS: u64 = 40;

fn hr(title: &str) {
    println!("\n==== {title} ====");
}

/// T1 — template correctness matrix (Lemma 1): safety-violation counts
/// across all algorithms × fault settings × seeds. Must be all zeros.
///
/// Returns `(label, runs, violations)` rows.
pub fn t1() -> Vec<(String, u64, u64)> {
    hr("T1  template correctness matrix (violations must be 0)");
    let mut rows: Vec<(String, u64, u64)> = Vec::new();

    for (n, t) in [(5usize, 2usize), (7, 3)] {
        let mut v = 0u64;
        let cfg = BenOrConfig::new(n, t);
        for seed in 0..SEEDS {
            v += run_decomposed(&cfg, &balanced_inputs(n), seed).violations.len() as u64;
        }
        rows.push((format!("ben-or n={n} t={t} fault-free"), SEEDS, v));

        let mut v = 0u64;
        let cfg = BenOrConfig::new(n, t)
            .with_faults(FaultPlan::new().crash_tail(n, t, SimTime::from_ticks(25)));
        for seed in 0..SEEDS {
            v += run_decomposed(&cfg, &balanced_inputs(n), seed).violations.len() as u64;
        }
        rows.push((format!("ben-or n={n} t={t} +{t} crashes"), SEEDS, v));
    }

    for attack in [Attack::Equivocate, Attack::Random] {
        let mut v = 0u64;
        let cfg = PhaseKingConfig::new(7, 2).with_attack(attack);
        for seed in 0..SEEDS {
            v += run_phase_king(&cfg, &[0, 1, 0, 1, 0], seed).violations.len() as u64;
        }
        rows.push((format!("phase-king n=7 t=2 {attack:?}"), SEEDS, v));

        let mut v = 0u64;
        for seed in 0..SEEDS {
            v += run_phase_queen(9, 2, attack, &[0, 1, 0, 1, 0, 1, 0], seed)
                .violations
                .len() as u64;
        }
        rows.push((format!("phase-queen n=9 t=2 {attack:?}"), SEEDS, v));
    }

    {
        let mut v = 0u64;
        let cfg = RaftClusterConfig::new(5);
        for seed in 0..SEEDS {
            v += run_raft(&cfg, &[1, 2, 3, 4, 5], seed).violations.len() as u64;
        }
        rows.push(("raft n=5 fault-free".into(), SEEDS, v));

        let mut v = 0u64;
        let cfg = RaftClusterConfig::new(5)
            .with_faults(FaultPlan::new().crash_tail(5, 2, SimTime::from_ticks(300)));
        for seed in 0..SEEDS {
            v += run_raft(&cfg, &[1, 2, 3, 4, 5], seed).violations.len() as u64;
        }
        rows.push(("raft n=5 +2 crashes".into(), SEEDS, v));
    }

    println!("{:<34} {:>6} {:>12}", "configuration", "runs", "violations");
    for (label, runs, v) in &rows {
        println!("{label:<34} {runs:>6} {v:>12}");
    }
    rows
}

/// T2 — Phase-King sweep (Lemmas 2–3): phases/rounds/messages to decide
/// vs `(n, t)` and attack; plus the classical baseline's fixed cost.
///
/// Returns `(n, t, attack, worst_phases, mean_messages)` rows.
pub fn t2() -> Vec<(usize, usize, String, u64, u64)> {
    hr("T2  Phase-King: cost vs (n, t) and attack");
    let mut rows = Vec::new();
    println!(
        "{:>4} {:>3} {:<14} {:>12} {:>14} {:>12} {:>14}",
        "n", "t", "attack", "decide phase", "1st commit ≤", "bound t+2", "mean messages"
    );
    for (n, t) in [(4usize, 1usize), (7, 2), (10, 3), (13, 4)] {
        for attack in [Attack::Silent, Attack::Equivocate, Attack::Random] {
            let cfg = PhaseKingConfig::new(n, t).with_attack(attack);
            let inputs: Vec<u64> = (0..n - t).map(|i| (i % 2) as u64).collect();
            let mut worst = 0u64;
            let mut worst_commit = 0u64;
            let mut msgs = Vec::new();
            for seed in 0..SEEDS {
                let run = run_phase_king(&cfg, &inputs, seed);
                assert!(run.violations.is_empty(), "t2 violation: {:?}", run.violations);
                worst = worst.max(run.phases_to_decide().unwrap_or(0));
                worst_commit = worst_commit.max(run.first_commit_phase().unwrap_or(0));
                msgs.push(run.messages);
            }
            let mean_msgs = Summary::of(&msgs).mean as u64;
            println!(
                "{:>4} {:>3} {:<14} {:>12} {:>14} {:>12} {:>14}",
                n,
                t,
                format!("{attack:?}"),
                worst,
                worst_commit,
                t + 2,
                mean_msgs
            );
            rows.push((n, t, format!("{attack:?}"), worst, mean_msgs));
        }
    }
    rows
}

/// T3 — Ben-Or (Lemmas 4–5): empirical rounds to decide vs `n` under the
/// random scheduler and the split-vote adversary.
///
/// Returns `(n, scheduler, Summary-of-rounds)` rows.
pub fn t3() -> Vec<(usize, &'static str, Summary)> {
    hr("T3  Ben-Or: rounds to decide vs n and scheduler");
    let mut rows = Vec::new();
    println!("{:>4} {:<12} rounds to decide", "n", "scheduler");
    for n in [3usize, 5, 9, 15, 21] {
        let t = (n - 1) / 2;
        let cfg = BenOrConfig::new(n, t);
        for sched in ["random", "split-vote"] {
            let mut rounds = Vec::new();
            for seed in 0..SEEDS {
                let run = if sched == "random" {
                    run_decomposed(&cfg, &balanced_inputs(n), seed)
                } else {
                    run_decomposed_with(
                        &cfg,
                        &balanced_inputs(n),
                        seed,
                        Some(split_adversary(n, (1, 4), (25, 50))),
                    )
                };
                assert!(run.violations.is_empty(), "t3 violation: {:?}", run.violations);
                rounds.push(run.rounds_to_decide().unwrap_or(0));
            }
            let s = Summary::of(&rounds);
            println!("{n:>4} {sched:<12} {s}");
            rows.push((n, sched, s));
        }
    }
    rows
}

/// T4 — the three processor types (§5): per-round VAC outcome
/// distribution in Ben-Or.
///
/// Returns `(n, vacillate, adopt, commit)` rows (counts over all
/// processor-rounds).
pub fn t4() -> Vec<(usize, u64, u64, u64)> {
    hr("T4  Ben-Or: VAC outcome distribution (the paper's 3 processor types)");
    let mut rows = Vec::new();
    println!(
        "{:>4} {:>10} {:>10} {:>10} {:>22}",
        "n", "vacillate", "adopt", "commit", "adopt share of non-C"
    );
    for n in [5usize, 9, 15] {
        let t = (n - 1) / 2;
        let cfg = BenOrConfig::new(n, t);
        let mut counts = [0u64; 3];
        for seed in 0..SEEDS * 2 {
            let run = run_decomposed(&cfg, &balanced_inputs(n), seed);
            for (i, c) in run.confidence_counts.iter().enumerate() {
                counts[i] += c;
            }
        }
        let nc = counts[Confidence::Vacillate as usize] + counts[Confidence::Adopt as usize];
        let share = if nc == 0 {
            0.0
        } else {
            counts[Confidence::Adopt as usize] as f64 / nc as f64
        };
        println!(
            "{:>4} {:>10} {:>10} {:>10} {:>21.1}%",
            n,
            counts[0],
            counts[1],
            counts[2],
            share * 100.0
        );
        rows.push((n, counts[0], counts[1], counts[2]));
    }
    rows
}

/// T5 — AC-insufficiency (§5): frequency of adopt-states whose value
/// differs from the final decision (the states an AC-framework commit
/// would get wrong), vs commit-states (which must never diverge).
///
/// Returns `(n, runs, runs_with_divergence, total_divergences)`.
pub fn t5() -> Vec<(usize, u64, u64, u64)> {
    hr("T5  §5 AC-insufficiency: adopt-value vs final decision");
    let mut rows = Vec::new();
    println!(
        "{:>4} {:>6} {:>22} {:>18}",
        "n", "runs", "runs w/ divergence", "total divergences"
    );
    for n in [5usize, 9, 15] {
        let t = (n - 1) / 2;
        let cfg = BenOrConfig::new(n, t);
        let mut with = 0u64;
        let mut total = 0u64;
        let runs = SEEDS * 4;
        for seed in 0..runs {
            let run = run_decomposed_with(
                &cfg,
                &balanced_inputs(n),
                seed,
                Some(split_adversary(n, (1, 4), (20, 40))),
            );
            total += run.adopt_divergences;
            if run.adopt_divergences > 0 {
                with += 1;
            }
            // Commit divergence would be a soundness bug: checked by the
            // violations list being empty.
            assert!(run.violations.is_empty(), "t5 violation: {:?}", run.violations);
        }
        println!("{n:>4} {runs:>6} {with:>22} {total:>18}");
        rows.push((n, runs, with, total));
    }
    rows
}

/// T6 — Raft timing property (Lemmas 6–7): election latency and election
/// counts vs the election-timeout / broadcast-delay ratio.
///
/// Returns `(timeout_lo, timeout_hi, delay, mean_elections,
/// consensus_latency_summary)` rows.
pub fn t6() -> Vec<(u64, u64, u64, f64, Summary)> {
    hr("T6  Raft: the timing property (timeout vs broadcast delay)");
    let mut rows = Vec::new();
    println!(
        "{:>14} {:>7} {:>10} {:>16} {:>9} consensus latency (ticks)",
        "timeout", "delay", "ratio", "mean elections", "decided"
    );
    let delay = 25u64;
    for (lo, hi) in [(30u64, 60u64), (75, 150), (150, 300), (300, 600), (900, 1800)] {
        let cfg = RaftClusterConfig::new(5)
            .with_network(NetworkConfig::reliable(delay))
            .with_raft(RaftConfig {
                election_timeout: (lo, hi),
                heartbeat_interval: (lo / 3).max(1),
                max_batch: 16,
            });
        let mut elections = 0usize;
        let mut latency = Vec::new();
        let mut elect_latency = Vec::new();
        let mut decided = 0u64;
        for seed in 0..SEEDS {
            let run = run_raft(&cfg, &[1, 2, 3, 4, 5], seed);
            assert!(run.violations.is_empty(), "t6 violation: {:?}", run.violations);
            elections += run.elections;
            if let Some(t) = run.first_leader_at {
                elect_latency.push(t.ticks());
            }
            if run.outcome.all_decided() {
                decided += 1;
                latency.push(run.consensus_latency().map(|t| t.ticks()).unwrap_or(0));
            }
        }
        let mean_elections = elections as f64 / SEEDS as f64;
        let s = Summary::of(&latency);
        let es = Summary::of(&elect_latency);
        println!(
            "{:>14} {:>7} {:>10.1} {:>16.1} {:>9} {:>14.0} {}",
            format!("{lo}-{hi}"),
            delay,
            (lo + hi) as f64 / 2.0 / delay as f64,
            mean_elections,
            format!("{decided}/{SEEDS}"),
            es.mean,
            s
        );
        rows.push((lo, hi, delay, mean_elections, s));
    }
    rows
}

/// T7 — the price of composition: native Ben-Or VAC vs the §5 two-AC
/// composition vs the monolithic baseline, and the two reconciliators
/// (coin vs timer-nudge).
///
/// Returns `(variant, Summary-of-messages, Summary-of-ticks)` rows.
pub fn t7() -> Vec<(&'static str, Summary, Summary)> {
    hr("T7  composition & decomposition overhead (n=7, t=3, balanced inputs)");
    let n = 7usize;
    let t = 3usize;
    let cfg = BenOrConfig::new(n, t);
    let inputs = balanced_inputs(n);
    let mut rows = Vec::new();

    let mut collect = |label: &'static str, f: &mut dyn FnMut(u64) -> (u64, u64)| {
        let mut msgs = Vec::new();
        let mut ticks = Vec::new();
        for seed in 0..SEEDS {
            let (m, d) = f(seed);
            msgs.push(m);
            ticks.push(d);
        }
        rows.push((label, Summary::of(&msgs), Summary::of(&ticks)));
    };

    collect("monolithic ben-or", &mut |seed| {
        let (out, _) = run_monolithic(&cfg, &inputs, seed);
        (
            out.stats.messages_sent,
            out.last_decision_time().map(|t| t.ticks()).unwrap_or(0),
        )
    });
    collect("template + native VAC", &mut |seed| {
        let run = run_decomposed(&cfg, &inputs, seed);
        (
            run.outcome.stats.messages_sent,
            run.outcome.last_decision_time().map(|t| t.ticks()).unwrap_or(0),
        )
    });
    collect("template + 2×AC VAC (§5)", &mut |seed| {
        let run = run_composed(&cfg, &inputs, seed);
        (
            run.outcome.stats.messages_sent,
            run.outcome.last_decision_time().map(|t| t.ticks()).unwrap_or(0),
        )
    });
    collect("coin-flip reconciliator", &mut |seed| {
        let mut sim = Sim::builder(NetworkConfig::default())
            .seed(seed)
            .processes(inputs.iter().map(|&v| coin_flip_twin(v, n, t)))
            .build();
        let out = sim.run(RunLimit::default());
        (
            out.stats.messages_sent,
            out.last_decision_time().map(|t| t.ticks()).unwrap_or(0),
        )
    });
    collect("timer-nudge reconciliator", &mut |seed| {
        let mut sim = Sim::builder(NetworkConfig::default())
            .seed(seed)
            .processes(inputs.iter().map(|&v| decentralized_raft(v, n, t)))
            .build();
        let out = sim.run(RunLimit::default());
        (
            out.stats.messages_sent,
            out.last_decision_time().map(|t| t.ticks()).unwrap_or(0),
        )
    });

    println!("{:<26} {:>14} {:>16}", "variant", "mean messages", "mean ticks");
    for (label, msgs, ticks) in &rows {
        println!("{:<26} {:>14.0} {:>16.0}", label, msgs.mean, ticks.mean);
    }
    rows
}

/// T8 — shared-memory substrate: register-AC operation cost and rounds
/// to consensus vs thread count.
///
/// Returns `(threads, ac_ops_per_sec, consensus_per_sec)` rows.
pub fn t8() -> Vec<(usize, f64, f64)> {
    hr("T8  shared memory: throughput vs threads");
    let mut rows = Vec::new();
    println!(
        "{:>8} {:>16} {:>20}",
        "threads", "AC invocations/s", "consensus runs/s"
    );
    for threads in [1usize, 2, 4, 8] {
        // Adopt-commit throughput: each iteration is a fresh object, all
        // threads propose once.
        let iters = 400u64;
        // ooc-lint::allow(determinism/wall-clock, "adopt-commit throughput measurement")
        let start = Instant::now();
        for i in 0..iters {
            let ac = Arc::new(RegisterAc::new(threads));
            std::thread::scope(|s| {
                for th in 0..threads {
                    let ac = Arc::clone(&ac);
                    s.spawn(move || ac.propose(th, (i + th as u64) % 2));
                }
            });
        }
        let ac_rate = (iters * threads as u64) as f64 / start.elapsed().as_secs_f64();

        let runs = 150u64;
        // ooc-lint::allow(determinism/wall-clock, "consensus throughput measurement")
        let start = Instant::now();
        for seed in 0..runs {
            let c = Arc::new(SharedConsensus::new(threads));
            std::thread::scope(|s| {
                for th in 0..threads {
                    let c = Arc::clone(&c);
                    s.spawn(move || c.propose(th, th as u64 % 2, seed * 31 + th as u64));
                }
            });
        }
        let cons_rate = runs as f64 / start.elapsed().as_secs_f64();
        println!("{threads:>8} {ac_rate:>16.0} {cons_rate:>20.0}");
        rows.push((threads, ac_rate, cons_rate));
    }
    rows
}


/// T9 — Phase-King vs Phase-Queen (same Berman-Garay-Perry paper): the
/// rounds-vs-resilience trade the framework expresses as "swap the AC".
///
/// Returns `(n, t, algorithm, mean_rounds, mean_messages)` rows.
pub fn t9() -> Vec<(usize, usize, &'static str, f64, u64)> {
    hr("T9  Phase-King vs Phase-Queen (Equivocate attack)");
    let mut rows = Vec::new();
    println!(
        "{:>4} {:>3} {:<12} {:>12} {:>14} {:>12}",
        "n", "t", "algorithm", "mean rounds", "mean messages", "violations"
    );
    for (n, t) in [(9usize, 2usize), (13, 3), (17, 4)] {
        let inputs: Vec<u64> = (0..n - t).map(|i| (i % 2) as u64).collect();
        // King (3t < n always holds here).
        let kcfg = PhaseKingConfig::new(n, t).with_attack(Attack::Equivocate);
        let mut k_rounds = Vec::new();
        let mut k_msgs = Vec::new();
        let mut k_viol = 0usize;
        for seed in 0..SEEDS {
            let run = run_phase_king(&kcfg, &inputs, seed);
            k_viol += run.violations.len();
            k_rounds.push(run.rounds);
            k_msgs.push(run.messages);
        }
        println!(
            "{:>4} {:>3} {:<12} {:>12.1} {:>14} {:>12}",
            n,
            t,
            "king",
            Summary::of(&k_rounds).mean,
            Summary::of(&k_msgs).mean as u64,
            k_viol
        );
        rows.push((n, t, "king", Summary::of(&k_rounds).mean, Summary::of(&k_msgs).mean as u64));
        // Queen needs 4t < n.
        if 4 * t < n {
            let mut q_rounds = Vec::new();
            let mut q_msgs = Vec::new();
            let mut q_viol = 0usize;
            for seed in 0..SEEDS {
                let run = run_phase_queen(n, t, Attack::Equivocate, &inputs, seed);
                q_viol += run.violations.len();
                q_rounds.push(run.rounds);
                q_msgs.push(run.messages);
            }
            println!(
                "{:>4} {:>3} {:<12} {:>12.1} {:>14} {:>12}",
                n,
                t,
                "queen",
                Summary::of(&q_rounds).mean,
                Summary::of(&q_msgs).mean as u64,
                q_viol
            );
            rows.push((n, t, "queen", Summary::of(&q_rounds).mean, Summary::of(&q_msgs).mean as u64));
        } else {
            println!("{:>4} {:>3} {:<12} {:>12}", n, t, "queen", "n/a (4t ≥ n)");
        }
    }
    rows
}

/// T10 — the multi-shot sequence composition: cost per decided slot as
/// the log grows (Ben-Or slots, n = 5, t = 2).
///
/// Returns `(slots, mean_messages_per_slot, mean_ticks_per_slot)` rows.
pub fn t10() -> Vec<(usize, f64, f64)> {
    use ooc_ben_or::{BenOrVac, CoinFlip};
    use ooc_core::sequence::SequenceConsensus;
    use ooc_core::template::TemplateConfig;
    hr("T10  sequence consensus: cost per slot as the log grows");
    let n = 5usize;
    let t = 2usize;
    let mut rows = Vec::new();
    println!(
        "{:>6} {:>18} {:>16}",
        "slots", "messages / slot", "ticks / slot"
    );
    for slots in [1usize, 2, 4, 8] {
        let mut msgs = Vec::new();
        let mut ticks = Vec::new();
        for seed in 0..SEEDS / 2 {
            let mut sim = Sim::builder(NetworkConfig::default())
                .seed(seed)
                .processes((0..n).map(|i| {
                    SequenceConsensus::new(
                        (0..slots).map(|k| (i + k) % 2 == 0).collect(),
                        move |_slot, _round| BenOrVac::new(n, t),
                        |_slot, _round| CoinFlip::new(),
                        TemplateConfig::default(),
                    )
                }))
                .build();
            let out = sim.run(RunLimit::default());
            assert!(out.all_decided(), "t10: sequence must complete");
            assert!(out.agreement(), "t10: sequences must agree");
            msgs.push(out.stats.messages_sent / slots as u64);
            ticks.push(out.last_decision_time().map(|t| t.ticks()).unwrap_or(0) / slots as u64);
        }
        let (m, k) = (Summary::of(&msgs).mean, Summary::of(&ticks).mean);
        println!("{slots:>6} {m:>18.0} {k:>16.0}");
        rows.push((slots, m, k));
    }
    rows
}

/// T11 — the observability layer end to end: engine metrics registry,
/// protocol-level round metrics, trace analysis, and the decision
/// critical path, exercised on Ben-Or under a lossy duplicating network
/// and on Phase-King under the Equivocate attack.
///
/// Returns `(metric, value)` rows — exactly what `--bench-json`
/// serializes into `BENCH_ooc.json`. Every value is a simulated
/// quantity (no wall clock), so the rows are bit-for-bit reproducible.
pub fn t11() -> Vec<(String, u64)> {
    use ooc_core::RoundMetrics;
    use ooc_simnet::{analyze, decision_critical_path, ProcessId, TickHistogram};

    hr("T11  observability: metrics registry, round metrics, critical path");
    let mut rows: Vec<(String, u64)> = Vec::new();

    // Ben-Or over a lossy, duplicating network, so every layer of the
    // stack has something to report: drops for the trace breakdown,
    // duplicates for the delivery-ratio fix, rounds for RoundMetrics.
    {
        let n = 7usize;
        let t = 3usize;
        let net = NetworkConfig {
            duplicate_probability: 0.05,
            ..NetworkConfig::lossy(1, 5, 0.05)
        };
        let cfg = BenOrConfig::new(n, t).with_network(net);
        let mut rm = RoundMetrics::default();
        let (mut sent, mut delivered, mut dups, mut dropped) = (0u64, 0u64, 0u64, 0u64);
        let mut decide_hist = TickHistogram::new();
        let mut path_hops = 0u64;
        for seed in 0..SEEDS {
            let run = run_decomposed(&cfg, &balanced_inputs(n), seed);
            assert!(run.violations.is_empty(), "t11 violation: {:?}", run.violations);
            for h in &run.histories {
                rm.absorb(h);
            }
            let stats = &run.outcome.stats;
            sent += stats.messages_sent;
            delivered += stats.messages_delivered;
            dups += stats.duplicate_deliveries;
            dropped += stats.messages_dropped;
            if let Some(at) = run.outcome.last_decision_time() {
                decide_hist.record(at.ticks());
            }
            // The trace must agree with the engine's own counters.
            let analysis = analyze(&run.outcome.trace, n, 50);
            let traced_drops: u64 = analysis.drop_breakdown.values().sum();
            assert_eq!(traced_drops, stats.messages_dropped, "trace/stats drop mismatch");
            let first = run
                .outcome
                .decision_times
                .iter()
                .enumerate()
                .filter_map(|(i, at)| at.map(|at| (at, i)))
                .min();
            if let Some((_, p)) = first {
                path_hops +=
                    decision_critical_path(&run.outcome.trace, ProcessId(p)).len() as u64;
            }
        }
        rows.push(("ben-or/rounds_total".into(), rm.rounds));
        rows.push(("ben-or/rounds_vacillated".into(), rm.vacillated));
        rows.push(("ben-or/rounds_adopted".into(), rm.adopted));
        rows.push(("ben-or/rounds_committed".into(), rm.committed));
        rows.push(("ben-or/rounds_shaken".into(), rm.shaken));
        rows.push(("ben-or/protocol_messages".into(), rm.messages));
        rows.push(("ben-or/max_round_messages".into(), rm.max_round_messages));
        rows.push(("ben-or/wire_sent".into(), sent));
        rows.push(("ben-or/wire_delivered".into(), delivered));
        rows.push(("ben-or/wire_duplicates".into(), dups));
        rows.push(("ben-or/wire_dropped".into(), dropped));
        rows.push(("ben-or/delivery_permille".into(), delivered * 1000 / sent.max(1)));
        rows.push((
            "ben-or/decide_ticks_p50".into(),
            decide_hist.quantile(0.50).unwrap_or(0),
        ));
        rows.push((
            "ben-or/decide_ticks_p95".into(),
            decide_hist.quantile(0.95).unwrap_or(0),
        ));
        rows.push(("ben-or/critical_path_hops".into(), path_hops));
    }

    // Phase-King (synchronous): round metrics come from the same
    // RoundRecord instrumentation, with durations in network rounds.
    {
        let cfg = PhaseKingConfig::new(7, 2).with_attack(Attack::Equivocate);
        let mut rm = RoundMetrics::default();
        let mut wire = 0u64;
        for seed in 0..SEEDS {
            let run = run_phase_king(&cfg, &[0, 1, 0, 1, 0], seed);
            assert!(run.violations.is_empty(), "t11 violation: {:?}", run.violations);
            for (_, h) in &run.honest_histories {
                rm.absorb(h);
            }
            wire += run.messages;
        }
        rows.push(("phase-king/rounds_total".into(), rm.rounds));
        rows.push(("phase-king/rounds_committed".into(), rm.committed));
        rows.push(("phase-king/rounds_shaken".into(), rm.shaken));
        rows.push(("phase-king/protocol_messages".into(), rm.messages));
        rows.push(("phase-king/max_round_messages".into(), rm.max_round_messages));
        rows.push(("phase-king/wire_messages".into(), wire));
    }

    println!("{:<34} {:>14}", "metric", "value");
    for (metric, value) in &rows {
        println!("{metric:<34} {value:>14}");
    }
    rows
}

/// T12 — parallel campaign throughput: `ooc-campaign`'s deterministic
/// scoped-thread executor over a smoke grid, serial vs 4 workers.
///
/// Wall-clock throughput (runs/sec, events/sec, speedup) is printed for
/// the operator but deliberately kept **out** of the returned rows: only
/// simulated, machine-independent totals feed `BENCH_ooc.json`. The
/// function also asserts the executor's contract in passing — the
/// 4-worker outcomes must match the serial ones field-for-field (wall
/// time excepted), or the table itself is meaningless.
pub fn t12() -> Vec<(String, u64)> {
    use ooc_campaign::{grid, run_all, Algorithm};

    hr("T12  parallel campaign throughput (smoke grid, jobs=1 vs jobs=4)");
    const COMBOS: usize = 64;
    let mut artifacts = grid(Algorithm::BenOr, COMBOS);
    artifacts.truncate(COMBOS);

    // ooc-lint::allow(determinism/wall-clock, "throughput measurement of the serial executor")
    let start = Instant::now();
    let serial = run_all(&artifacts, 1);
    let serial_secs = start.elapsed().as_secs_f64().max(1e-9);

    // ooc-lint::allow(determinism/wall-clock, "throughput measurement of the 4-worker executor")
    let start = Instant::now();
    let parallel = run_all(&artifacts, 4);
    let parallel_secs = start.elapsed().as_secs_f64().max(1e-9);

    // The executor contract, asserted on real data: worker count must be
    // invisible in everything but wall time.
    assert_eq!(serial.len(), parallel.len());
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(s.violations, p.violations, "combo {i} violations diverged");
        assert_eq!(
            (s.decided, s.undecided, s.messages, &s.stop),
            (p.decided, p.undecided, p.messages, &p.stop),
            "combo {i} outcome diverged"
        );
        assert_eq!(
            (s.spent.rounds, s.spent.ticks, s.spent.events),
            (p.spent.rounds, p.spent.ticks, p.spent.events),
            "combo {i} budget spend diverged"
        );
    }

    let combos = artifacts.len() as u64;
    let events: u64 = serial.iter().map(|o| o.spent.events).sum();
    let messages: u64 = serial.iter().map(|o| o.messages).sum();
    let decided: u64 = serial.iter().map(|o| o.decided as u64).sum();
    let undecided: u64 = serial.iter().map(|o| o.undecided as u64).sum();
    let sim_ticks: u64 = serial.iter().map(|o| o.spent.ticks).sum();

    println!(
        "{:<8} {:>10} {:>12} {:>14}",
        "jobs", "secs", "runs/sec", "events/sec"
    );
    for (jobs, secs) in [(1, serial_secs), (4, parallel_secs)] {
        println!(
            "{:<8} {:>10.3} {:>12.1} {:>14.0}",
            jobs,
            secs,
            combos as f64 / secs,
            events as f64 / secs
        );
    }
    println!("speedup at jobs=4: {:.2}x", serial_secs / parallel_secs);

    vec![
        ("campaign/combos".into(), combos),
        ("campaign/decided".into(), decided),
        ("campaign/undecided".into(), undecided),
        ("campaign/messages".into(), messages),
        ("campaign/events".into(), events),
        ("campaign/sim_ticks".into(), sim_ticks),
    ]
}

/// T14 — gray-failure degradation: the `ooc-campaign` scenario zoo
/// (clean, asymmetric loss, flapping partitions, heavy-tailed delays with
/// clock drift and slow disks) against the adversary ladder (oblivious →
/// message-adaptive split-vote → state-adaptive split-vote →
/// quorum-starve), Ben-Or n=7 t=3.
///
/// Every returned value is a simulated, machine-independent total:
/// eventual-agreement probability in permille plus the p50/p95
/// rounds-to-decide of the runs that agreed. The degradation report
/// itself guarantees `jobs`-independence, so the rows are byte-stable.
pub fn t14() -> Vec<(String, u64)> {
    use ooc_campaign::degradation_report_jobs;

    hr("T14  gray-failure degradation (adversary ladder × scenario zoo)");
    const DEG_SEEDS: usize = 24;
    let report = degradation_report_jobs(DEG_SEEDS, 4);

    let mut rows: Vec<(String, u64)> = Vec::new();
    println!(
        "{:<18} {:<18} {:>10} {:>8} {:>8}",
        "regime", "adversary", "agree ‰", "rnd p50", "rnd p95"
    );
    for regime in &report.regimes {
        for cell in &regime.cells {
            assert_eq!(
                cell.safety_violations, 0,
                "t14: {}/{} broke safety",
                regime.regime, cell.adversary
            );
            println!(
                "{:<18} {:<18} {:>10} {:>8} {:>8}",
                regime.regime,
                cell.adversary,
                cell.agreement_permille,
                cell.rounds_to_decide.p50,
                cell.rounds_to_decide.p95
            );
            let key = format!("degradation/{}/{}", regime.regime, cell.adversary);
            rows.push((format!("{key}/agreement_permille"), cell.agreement_permille));
            rows.push((format!("{key}/rounds_p95"), cell.rounds_to_decide.p95));
        }
    }
    rows
}

/// Message flood shared by T15/T16: every process broadcasts at start
/// and rebroadcasts on each delivery until it has handled
/// [`FLOOD_BUDGET`] messages, then decides. Pure engine hot path: no
/// checkers, no histories.
#[derive(Debug, Default)]
struct Flood {
    handled: u64,
}

const FLOOD_N: usize = 8;
const FLOOD_BUDGET: u64 = 300;
const FLOOD_SEEDS: u64 = 6;
/// Timing repetitions per measurement: one flood pass runs in
/// single-digit milliseconds, where scheduler jitter dominates, so the
/// wall time reported is the *minimum* over this many identical passes
/// (the standard best-of-k estimator for a deterministic workload).
/// Simulated totals come from the first pass — every pass is
/// byte-identical by determinism, so repetition changes nothing else.
const FLOOD_REPS: usize = 15;

impl ooc_simnet::Process for Flood {
    type Msg = u64;
    type Output = u64;
    fn on_start(&mut self, ctx: &mut ooc_simnet::Context<'_, u64, u64>) {
        ctx.broadcast_others(0);
    }
    fn on_message(
        &mut self,
        ctx: &mut ooc_simnet::Context<'_, u64, u64>,
        _from: ooc_simnet::ProcessId,
        _msg: u64,
    ) {
        self.handled += 1;
        if self.handled < FLOOD_BUDGET {
            ctx.broadcast_others(self.handled);
        } else if self.handled == FLOOD_BUDGET {
            ctx.decide(self.handled);
        }
    }
    fn on_timer(&mut self, _ctx: &mut ooc_simnet::Context<'_, u64, u64>, _t: ooc_simnet::TimerId) {}
}

/// Simulated totals of one flood run (all machine-independent) plus the
/// wall time, which is printed for the operator but never serialized.
struct FloodTotals {
    events: u64,
    messages: u64,
    dropped: u64,
    duplicated: u64,
    timers: u64,
    sim_ticks: u64,
    secs: f64,
}

/// One timed flood pass over [`FLOOD_SEEDS`] seeds; accumulates the
/// simulated totals into `t` only when `accumulate` is set (the first
/// pass — every pass is byte-identical by determinism) and always folds
/// the pass's wall time into `t.secs` via min.
fn flood_pass(config: &NetworkConfig, t: &mut FloodTotals, accumulate: bool) {
    // ooc-lint::allow(determinism/wall-clock, "throughput measurement of the engine hot path")
    let start = Instant::now();
    for seed in 0..FLOOD_SEEDS {
        let mut sim = Sim::builder(config.clone())
            .seed(seed)
            // Raw-speed configuration: the trace ring records nothing,
            // the way a campaign happy path would run.
            .trace_capacity(0)
            .processes((0..FLOOD_N).map(|_| Flood::default()))
            .build();
        let out = sim.run(RunLimit::default());
        assert!(out.all_decided(), "flood seed {seed} must decide");
        if accumulate {
            t.events += out.stats.events_processed;
            t.messages += out.stats.messages_sent;
            t.dropped += out.stats.messages_dropped;
            t.duplicated += out.stats.messages_duplicated;
            t.timers += out.stats.timers_fired;
            t.sim_ticks += out.stats.end_time.ticks();
        }
    }
    t.secs = t.secs.min(start.elapsed().as_secs_f64().max(1e-9));
}

/// Times the flood on `config`: best of [`FLOOD_REPS`] passes.
fn run_flood(config: &NetworkConfig) -> FloodTotals {
    let mut t = FloodTotals {
        events: 0,
        messages: 0,
        dropped: 0,
        duplicated: 0,
        timers: 0,
        sim_ticks: 0,
        secs: f64::INFINITY,
    };
    for rep in 0..FLOOD_REPS {
        flood_pass(config, &mut t, rep == 0);
    }
    t
}

/// Deterministic modelled work-tick breakdown of the delivery path,
/// printed under `--profile` and **never** serialized into rows — the
/// same discipline as `ooc-lint`'s per-rule `work_ticks`: a tick is one
/// unit of logical work counted from the simulated totals, never wall
/// time, so the breakdown is identical on every host.
///
/// * `plan` — one tick per outbound message classified against the
///   routing state (partition/override/probability resolution);
/// * `sample` — one tick per routing RNG decision: a drop check per
///   message plus a delay draw per surviving message;
/// * `insert` — one tick per entry pushed into the scheduler: survivors,
///   duplicate copies, and fired timers;
/// * `deliver` — one tick per handler invocation popped from the queue.
fn print_work_ticks(label: &str, t: &FloodTotals) {
    let survivors = t.messages - t.dropped;
    let plan = t.messages;
    let sample = t.messages + survivors;
    let insert = survivors + t.duplicated + t.timers;
    let deliver = t.events;
    println!(
        "profile[{label}]: plan={plan} sample={sample} insert={insert} deliver={deliver} work ticks"
    );
}

/// T15 — raw simnet throughput: events/sec of the engine on a
/// message-flood workload, plus sweeps/sec over the T12 smoke grid.
///
/// Wall-clock events/sec and sweeps/sec are printed for the operator and
/// deliberately kept **out** of the returned rows: only simulated,
/// machine-independent totals feed `BENCH_ooc.json`, so the committed
/// rows are byte-stable across hosts and runs.
pub fn t15() -> Vec<(String, u64)> {
    t15_with(false)
}

/// [`t15`] with an optional deterministic work-tick profile (see
/// [`print_work_ticks`]).
pub fn t15_with(profile: bool) -> Vec<(String, u64)> {
    use ooc_campaign::{grid, run_all, Algorithm};

    hr("T15  raw simnet throughput (events/sec + sweeps/sec)");

    let flood = run_flood(&NetworkConfig::default());
    println!("{:<14} {:>10} {:>14}", "workload", "secs", "events/sec");
    println!(
        "{:<14} {:>10.3} {:>14.0}",
        "flood",
        flood.secs,
        flood.events as f64 / flood.secs
    );
    if profile {
        print_work_ticks("t15/flood", &flood);
    }

    // Sweeps/sec over the T12 smoke grid: the full campaign pipeline
    // (harness + checkers, no trace capture) at the default worker
    // count the CI throughput job uses.
    const COMBOS: usize = 64;
    let mut artifacts = grid(Algorithm::BenOr, COMBOS);
    artifacts.truncate(COMBOS);
    // ooc-lint::allow(determinism/wall-clock, "throughput measurement of the campaign sweep")
    let start = Instant::now();
    let outcomes = run_all(&artifacts, 4);
    let sweep_secs = start.elapsed().as_secs_f64().max(1e-9);
    let sweep_events: u64 = outcomes.iter().map(|o| o.spent.events).sum();
    println!(
        "sweep: {:.1} sweeps/sec, {:.0} events/sec ({} combos in {:.3}s)",
        COMBOS as f64 / sweep_secs,
        sweep_events as f64 / sweep_secs,
        COMBOS,
        sweep_secs
    );

    vec![
        ("t15/engine_seeds".into(), FLOOD_SEEDS),
        ("t15/engine_events".into(), flood.events),
        ("t15/engine_messages".into(), flood.messages),
        ("t15/engine_sim_ticks".into(), flood.sim_ticks),
        ("t15/sweep_combos".into(), COMBOS as u64),
        ("t15/sweep_events".into(), sweep_events),
    ]
}

/// T16 — flood throughput by network regime: the T15 flood workload on a
/// clean network (default uniform delay), a fixed-delay network
/// (statically uniform routing: no loss, duplication or delay draws) and
/// a lossy/duplicating/delaying one (a loss draw, a delay draw and a
/// duplication draw per message).
///
/// Wall-clock events/sec is printed for the operator; only simulated,
/// machine-independent totals feed the returned rows.
pub fn t16() -> Vec<(String, u64)> {
    t16_with(false)
}

/// [`t16`] with an optional deterministic work-tick profile (see
/// [`print_work_ticks`]).
pub fn t16_with(profile: bool) -> Vec<(String, u64)> {
    use ooc_simnet::DelayModel;

    hr("T16  flood throughput by network regime");

    let lossy = NetworkConfig {
        drop_probability: 0.05,
        duplicate_probability: 0.05,
        delay: DelayModel::Uniform { min: 1, max: 40 },
        ..NetworkConfig::default()
    };
    let mut rows = vec![("t16/engine_seeds".to_string(), FLOOD_SEEDS)];
    println!("{:<8} {:>10} {:>14}", "network", "secs", "events/sec");
    for (label, config) in [
        ("clean", NetworkConfig::default()),
        ("fixed", NetworkConfig::reliable(3)),
        ("lossy", lossy),
    ] {
        let flood = run_flood(&config);
        println!(
            "{:<8} {:>10.3} {:>14.0}",
            label,
            flood.secs,
            flood.events as f64 / flood.secs
        );
        if profile {
            print_work_ticks(&format!("t16/{label}"), &flood);
        }
        rows.push((format!("t16/{label}_events"), flood.events));
        rows.push((format!("t16/{label}_messages"), flood.messages));
        rows.push((format!("t16/{label}_sim_ticks"), flood.sim_ticks));
    }
    rows
}

/// T17 — reliable delivery: the T14 gray-failure grid rerun with
/// [`ReliabilityPolicy::Retransmit`](ooc_simnet::ReliabilityPolicy)
/// at default knobs. Alongside agreement and rounds-to-decide
/// percentiles, each cell reports the reliability layer's own costs:
/// retransmissions and acks sent.
///
/// The headline this table exists to pin: the quorum-starve adversary —
/// 0‰ eventual agreement under fire-and-forget delivery in every regime
/// (see T14) — recovers to ≥900‰ once lost copies are retransmitted,
/// with safety violations still at zero. The per-cell assertions below
/// make the bench run itself the regression gate.
pub fn t17() -> Vec<(String, u64)> {
    use ooc_campaign::degradation_reliability_report_jobs;

    hr("T17  reliable delivery (T14 grid + retransmission)");
    const DEG_SEEDS: usize = 24;
    let report = degradation_reliability_report_jobs(DEG_SEEDS, 4);

    let mut rows: Vec<(String, u64)> = Vec::new();
    println!(
        "{:<18} {:<18} {:>10} {:>8} {:>8} {:>8} {:>10} {:>10}",
        "regime", "adversary", "agree ‰", "stalled", "rnd p50", "rnd p95", "retx", "acks"
    );
    for regime in &report.regimes {
        for cell in &regime.cells {
            assert_eq!(
                cell.safety_violations, 0,
                "t17: {}/{} broke safety",
                regime.regime, cell.adversary
            );
            // The headline acceptance bar: retransmission must lift the
            // quorum-starve cell from 0‰ to at least 900‰ everywhere.
            if cell.adversary == "quorum-starve" {
                assert!(
                    cell.agreement_permille >= 900,
                    "t17: {}/quorum-starve agreement {}‰ below the 900‰ bar",
                    regime.regime,
                    cell.agreement_permille
                );
            }
            println!(
                "{:<18} {:<18} {:>10} {:>8} {:>8} {:>8} {:>10} {:>10}",
                regime.regime,
                cell.adversary,
                cell.agreement_permille,
                cell.stalled,
                cell.rounds_to_decide.p50,
                cell.rounds_to_decide.p95,
                cell.retransmissions,
                cell.acks_sent
            );
            let key = format!("reliability/{}/{}", regime.regime, cell.adversary);
            rows.push((format!("{key}/agreement_permille"), cell.agreement_permille));
            rows.push((format!("{key}/stalled"), cell.stalled));
            rows.push((format!("{key}/rounds_p95"), cell.rounds_to_decide.p95));
            rows.push((format!("{key}/retransmissions"), cell.retransmissions));
            rows.push((format!("{key}/acks_sent"), cell.acks_sent));
        }
    }
    rows
}

/// Serializes T11/T12/T14/T15/T16/T17 rows as the `BENCH_ooc.json`
/// document: a schema tag plus `{name, value}` metric records, in row
/// order. Deterministic because the rows are. The one-row-per-line
/// layout is the committed snapshot's, so rows are written here and only
/// the names go through [`Json`].
pub fn bench_json(rows: &[(String, u64)]) -> String {
    let mut out = String::from("{\n  \"schema\": \"ooc-bench/v1\",\n  \"source\": \"tables t11 t12 t14 t15 t16 t17\",\n  \"metrics\": [");
    for (i, (name, value)) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let name = Json::Str(name.clone()).compact();
        out.push_str(&format!("\n    {{ \"name\": {name}, \"value\": {value} }}"));
    }
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // Smoke-level shape assertions; the full sweeps run via the binary.

    #[test]
    fn t1_matrix_is_all_zeros() {
        for (label, _, v) in t1() {
            assert_eq!(v, 0, "{label}");
        }
    }

    #[test]
    fn t7_orders_variants_sensibly() {
        let rows = t7();
        let get = |label: &str| {
            rows.iter()
                .find(|(l, _, _)| *l == label)
                .map(|(_, m, _)| m.mean)
                .unwrap()
        };
        // The §5 composition must cost more messages than the native VAC.
        assert!(get("template + 2×AC VAC (§5)") > get("template + native VAC"));
    }

    #[test]
    fn t11_rows_are_deterministic_and_serialize() {
        let a = t11();
        let b = t11();
        assert_eq!(a, b, "t11 must be bit-for-bit reproducible");
        let json = bench_json(&a);
        assert!(json.contains("\"ooc-bench/v1\""));
        assert!(json.contains("\"ben-or/rounds_total\""));
        assert!(json.contains("\"phase-king/protocol_messages\""));
        // Sanity on the content: consensus costs messages and rounds.
        let get = |name: &str| a.iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap();
        assert!(get("ben-or/rounds_total") > 0);
        assert!(get("ben-or/wire_sent") > 0);
        assert!(get("ben-or/delivery_permille") <= 1000);
        assert!(get("phase-king/rounds_committed") > 0);
    }

    #[test]
    fn t14_rows_are_deterministic_and_show_degradation() {
        let a = t14();
        let b = t14();
        assert_eq!(a, b, "t14 must be bit-for-bit reproducible");
        let json = bench_json(&a);
        assert!(json.contains("\"tables t11 t12 t14 t15 t16 t17\""));
        assert!(json.contains("\"degradation/clean/oblivious/agreement_permille\""));
        let get = |name: &str| a.iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap();
        // The acceptance criterion: the state-adaptive split-vote must
        // sit measurably below the oblivious baseline.
        for regime in ["clean", "asym-loss", "flapping", "heavy-tail-drift"] {
            let oblivious = get(&format!("degradation/{regime}/oblivious/agreement_permille"));
            let state = get(&format!(
                "degradation/{regime}/state-split-vote/agreement_permille"
            ));
            assert!(
                state < oblivious,
                "{regime}: state-split-vote {state}‰ must degrade below oblivious {oblivious}‰"
            );
        }
    }

    #[test]
    fn t17_rows_are_deterministic_and_pin_the_recovery_headline() {
        // t17 internally asserts zero safety violations and the ≥900‰
        // quorum-starve bar; here we pin that the rows are reproducible
        // (so BENCH_ooc.json stays byte-stable) and that the reliability
        // layer visibly paid for the recovery.
        let a = t17();
        let b = t17();
        assert_eq!(a, b, "t17 must be bit-for-bit reproducible");
        let json = bench_json(&a);
        assert!(json.contains("\"reliability/clean/oblivious/agreement_permille\""));
        let get = |name: &str| a.iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap();
        for regime in ["clean", "asym-loss", "flapping", "heavy-tail-drift"] {
            // T14's quorum-starve rows sit at 0‰; the same cells here
            // must clear the recovery bar with zero stalled runs.
            let starve = format!("reliability/{regime}/quorum-starve");
            assert!(get(&format!("{starve}/agreement_permille")) >= 900);
            assert_eq!(get(&format!("{starve}/stalled")), 0);
            assert!(
                get(&format!("{starve}/retransmissions")) > 0,
                "{regime}: recovery without retransmissions is impossible"
            );
            assert!(get(&format!("{starve}/acks_sent")) > 0);
        }
    }

    #[test]
    fn t15_rows_are_deterministic_and_machine_independent() {
        // The rows must be reproducible (so BENCH_ooc.json stays
        // byte-stable) and carry no wall-clock values.
        let a = t15();
        let b = t15();
        assert_eq!(a, b, "t15 must be bit-for-bit reproducible");
        let json = bench_json(&a);
        assert!(json.contains("\"t15/engine_events\""));
        let get = |name: &str| a.iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap();
        assert!(get("t15/engine_events") > 0);
        assert!(get("t15/engine_messages") > 0);
        assert!(get("t15/engine_sim_ticks") > 0);
        assert_eq!(get("t15/sweep_combos"), 64);
        assert!(get("t15/sweep_events") > 0);
    }

    #[test]
    fn t16_rows_are_deterministic_and_machine_independent() {
        // The rows must be reproducible (with and without the printed
        // profile, which must never leak into them) and carry no
        // wall-clock values.
        let a = t16();
        let b = t16_with(true);
        assert_eq!(a, b, "t16 must be bit-for-bit reproducible");
        let json = bench_json(&a);
        assert!(json.contains("\"t16/clean_events\""));
        assert!(!json.contains("secs"), "wall time must not be serialized");
        let get = |name: &str| a.iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap();
        assert_eq!(get("t16/engine_seeds"), 6);
        for regime in ["clean", "fixed", "lossy"] {
            assert!(get(&format!("t16/{regime}_events")) > 0);
            assert!(get(&format!("t16/{regime}_messages")) > 0);
            assert!(get(&format!("t16/{regime}_sim_ticks")) > 0);
        }
        // The lossy regime must actually lose traffic relative to what it
        // sends — otherwise its loss and duplication draws went
        // unexercised.
        assert!(get("t16/lossy_events") != get("t16/clean_events"));
    }

    #[test]
    fn t12_rows_are_deterministic_and_serialize() {
        // t12 internally asserts serial/parallel agreement; here we pin
        // that the *rows* (the BENCH_ooc.json feed) are reproducible and
        // free of wall-clock values.
        let a = t12();
        let b = t12();
        assert_eq!(a, b, "t12 must be bit-for-bit reproducible");
        let json = bench_json(&a);
        assert!(json.contains("\"campaign/combos\""));
        let get = |name: &str| a.iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap();
        assert_eq!(get("campaign/combos"), 64);
        assert!(get("campaign/decided") > 0);
        assert!(get("campaign/events") > 0);
        assert!(get("campaign/messages") > 0);
    }
}
