//! Regenerates the experiment tables of `EXPERIMENTS.md`.
//!
//! ```sh
//! cargo run -p ooc-bench --bin tables --release -- all
//! cargo run -p ooc-bench --bin tables --release -- t3 t5
//! cargo run -p ooc-bench --bin tables --release -- t11 --bench-json BENCH_ooc.json
//! ```
//!
//! `--bench-json PATH` writes the T11 observability metrics, the T12
//! campaign-throughput totals, the T14 gray-failure degradation totals,
//! the T15 raw-engine throughput totals, the T16 per-regime flood totals
//! and the T17 reliable-delivery totals as one deterministic JSON
//! document (running the tables first if they were not requested).
//!
//! `--profile` prints the deterministic work-tick breakdown for T15/T16
//! (plan/sample/insert/deliver); the counters are simulated work units,
//! never wall time, and never reach the serialized rows.

use ooc_bench::tables;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let bench_json_path = args
        .iter()
        .position(|a| a == "--bench-json")
        .map(|i| args.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("--bench-json requires a PATH");
            std::process::exit(2);
        }));
    let profile = args.iter().any(|a| a == "--profile");
    let tables_args: Vec<&str> = args
        .iter()
        .enumerate()
        .filter(|(i, a)| {
            *a != "--bench-json"
                && *a != "--profile"
                && !(*i > 0 && args[i - 1] == "--bench-json")
        })
        .map(|(_, a)| a.as_str())
        .collect();
    let wanted: Vec<&str> = if tables_args.is_empty() || tables_args.contains(&"all") {
        vec![
            "t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8", "t9", "t10", "t11", "t12", "t14",
            "t15", "t16", "t17",
        ]
    } else {
        tables_args
    };
    let mut t11_rows: Option<Vec<(String, u64)>> = None;
    let mut t12_rows: Option<Vec<(String, u64)>> = None;
    let mut t14_rows: Option<Vec<(String, u64)>> = None;
    let mut t15_rows: Option<Vec<(String, u64)>> = None;
    let mut t16_rows: Option<Vec<(String, u64)>> = None;
    let mut t17_rows: Option<Vec<(String, u64)>> = None;
    for w in wanted {
        match w {
            "t1" => {
                tables::t1();
            }
            "t2" => {
                tables::t2();
            }
            "t3" => {
                tables::t3();
            }
            "t4" => {
                tables::t4();
            }
            "t5" => {
                tables::t5();
            }
            "t6" => {
                tables::t6();
            }
            "t7" => {
                tables::t7();
            }
            "t8" => {
                tables::t8();
            }
            "t9" => {
                tables::t9();
            }
            "t10" => {
                tables::t10();
            }
            "t11" => {
                t11_rows = Some(tables::t11());
            }
            "t12" => {
                t12_rows = Some(tables::t12());
            }
            "t14" => {
                t14_rows = Some(tables::t14());
            }
            "t15" => {
                t15_rows = Some(tables::t15_with(profile));
            }
            "t16" => {
                t16_rows = Some(tables::t16_with(profile));
            }
            "t17" => {
                t17_rows = Some(tables::t17());
            }
            other => {
                eprintln!("unknown table {other:?}; expected t1..t12, t14..t17, or all");
                std::process::exit(2);
            }
        }
    }
    if let Some(path) = bench_json_path {
        let mut rows = t11_rows.unwrap_or_else(tables::t11);
        rows.extend(t12_rows.unwrap_or_else(tables::t12));
        rows.extend(t14_rows.unwrap_or_else(tables::t14));
        rows.extend(t15_rows.unwrap_or_else(tables::t15));
        rows.extend(t16_rows.unwrap_or_else(tables::t16));
        rows.extend(t17_rows.unwrap_or_else(tables::t17));
        let doc = tables::bench_json(&rows);
        if let Err(e) = std::fs::write(&path, doc) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        println!("\nwrote {path}");
    }
}
