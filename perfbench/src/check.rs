//! Correctness checks: per-run digests against the committed reference,
//! the failure rule for one run, and the totals anchored to the committed
//! `BENCH_ooc.json` rows.

use crate::workloads::{retransmit, Workload};
use ooc_campaign::artifact::kind_name;
use ooc_campaign::runner::artifact_budget;
use ooc_campaign::{
    degradation_report_with, grid, run_all, Algorithm, CampaignOutcome, DegradationReport,
    FailureArtifact, Json,
};
use ooc_simnet::ReliabilityPolicy;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// FNV-1a over the outcome fields that define a run's behaviour, folded
/// to 32 bits: decided, undecided, messages, events, stop reason and
/// violation kinds, plus the watchdog verdict, retransmissions and acks.
pub fn digest(out: &CampaignOutcome) -> u32 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for v in [
        out.decided as u64,
        out.undecided as u64,
        out.messages,
        out.spent.events,
        u64::from(out.stalled),
        out.retransmissions,
        out.acks_sent,
    ] {
        eat(&v.to_le_bytes());
    }
    eat(out.stop.as_bytes());
    for v in &out.violations {
        eat(b"|");
        eat(kind_name(v.kind).as_bytes());
    }
    (h ^ (h >> 32)) as u32
}

/// Why one run counts as failed, if it does.
pub fn failure(
    artifact: &FailureArtifact,
    out: &CampaignOutcome,
    reference: Option<u32>,
) -> Option<&'static str> {
    if out.has_safety_violation() {
        return Some("safety violation");
    }
    // The 10 s guard depends on the host, so a run that trips it has an
    // outcome a faster host would not reproduce.
    if artifact_budget(artifact)
        .wall
        .is_some_and(|limit| out.spent.wall >= limit)
    {
        return Some("wall-clock guard tripped");
    }
    if reference.is_some_and(|d| d != digest(out)) {
        return Some("outcome differs from its reference digest");
    }
    None
}

pub fn digest_path(workload: Workload) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("digests")
        .join(format!("{}.txt", workload.name()))
}

/// Reads a digest file: one hex digest per artifact, `#` lines skipped.
pub fn read_digests(path: &Path) -> Result<Vec<u32>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| u32::from_str_radix(l, 16).map_err(|e| format!("{}: {l:?}: {e}", path.display())))
        .collect()
}

pub fn write_digests(path: &Path, workload: Workload, digests: &[u32]) -> Result<(), String> {
    let mut text = format!(
        "# {}: outcome digest of each artifact at the default seed, in run order\n",
        workload.name()
    );
    for d in digests {
        text.push_str(&format!("{d:08x}\n"));
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// One committed total compared with the same total recomputed now.
pub struct Anchor {
    pub name: String,
    pub committed: Option<u64>,
    pub measured: u64,
}

impl Anchor {
    pub fn holds(&self) -> bool {
        self.committed == Some(self.measured)
    }
}

/// Reads the `metrics` rows of `BENCH_ooc.json` as name → value.
fn committed_rows(root: &Path) -> Result<BTreeMap<String, u64>, String> {
    let path = root.join("BENCH_ooc.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let rows = doc
        .get("metrics")
        .and_then(Json::as_arr)
        .ok_or(format!("{}: no metrics array", path.display()))?;
    Ok(rows
        .iter()
        .filter_map(|row| {
            let name = row.get("name")?.as_str()?;
            let value = row.get("value")?.as_u64()?;
            Some((name.to_string(), value))
        })
        .collect())
}

/// Recomputes the committed totals whose artifact sets this workload
/// contains at the default seed: T12 and T14 for `sweep`, T17 for
/// `gray-retransmit`. They always run on the unmixed artifacts, so the
/// check holds at every workload seed.
pub fn anchors(root: &Path, workload: Workload) -> Result<Vec<Anchor>, String> {
    let mut measured: Vec<(String, u64)> = Vec::new();
    match workload {
        Workload::Sweep => {
            // T12: the first 64 combos of the Ben-Or grid.
            let mut artifacts = grid(Algorithm::BenOr, 64);
            artifacts.truncate(64);
            let outs = run_all(&artifacts, 1);
            let sum = |f: &dyn Fn(&CampaignOutcome) -> u64| outs.iter().map(f).sum::<u64>();
            measured.extend([
                ("campaign/combos".to_string(), outs.len() as u64),
                ("campaign/decided".into(), sum(&|o| o.decided as u64)),
                ("campaign/undecided".into(), sum(&|o| o.undecided as u64)),
                ("campaign/messages".into(), sum(&|o| o.messages)),
                ("campaign/events".into(), sum(&|o| o.spent.events)),
                ("campaign/sim_ticks".into(), sum(&|o| o.spent.ticks)),
            ]);
            let report = degradation_report_with(24, 1, ReliabilityPolicy::Off);
            for (key, cell) in cells(&report) {
                measured.push((
                    format!("degradation/{key}/agreement_permille"),
                    cell.agreement_permille,
                ));
                measured.push((
                    format!("degradation/{key}/rounds_p95"),
                    cell.rounds_to_decide.p95,
                ));
            }
        }
        Workload::GrayRetransmit => {
            let report = degradation_report_with(24, 1, retransmit());
            for (key, cell) in cells(&report) {
                let prefix = format!("reliability/{key}");
                measured.extend([
                    (
                        format!("{prefix}/agreement_permille"),
                        cell.agreement_permille,
                    ),
                    (format!("{prefix}/stalled"), cell.stalled),
                    (format!("{prefix}/rounds_p95"), cell.rounds_to_decide.p95),
                    (format!("{prefix}/retransmissions"), cell.retransmissions),
                    (format!("{prefix}/acks_sent"), cell.acks_sent),
                ]);
            }
        }
        Workload::ScaleN => {}
    }
    if measured.is_empty() {
        return Ok(Vec::new());
    }
    let committed = committed_rows(root)?;
    Ok(measured
        .into_iter()
        .map(|(name, measured)| Anchor {
            committed: committed.get(&name).copied(),
            name,
            measured,
        })
        .collect())
}

fn cells(
    report: &DegradationReport,
) -> impl Iterator<Item = (String, &ooc_campaign::DegradationCell)> {
    report.regimes.iter().flat_map(|r| {
        r.cells
            .iter()
            .map(move |c| (format!("{}/{}", r.regime, c.adversary), c))
    })
}
