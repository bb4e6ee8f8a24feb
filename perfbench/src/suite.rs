//! `suite`: the 17-experiment suite at full effort, what a researcher
//! waits for when regenerating `results/`.

use std::time::Instant;

use distscroll_eval::experiments::{self, Effort, ExperimentReport, ALL_IDS};

use crate::stats::fnv1a;

/// The seed `results/` was generated at.
pub const PINNED_SEED: u64 = 20_050_607;

/// One timed pass over every experiment.
#[derive(Debug, Clone)]
pub struct Pass {
    pub wall_s: f64,
    /// Digest of each rendered report, in `ALL_IDS` order.
    pub digests: Vec<u64>,
    /// Wall seconds of the slowest experiment.
    pub slowest_s: f64,
}

/// Runs every experiment once at `jobs`.
pub fn pass(effort: Effort, seed: u64, jobs: usize) -> Pass {
    experiments::set_jobs(jobs);
    let t0 = Instant::now();
    let timed = experiments::run_ids_timed(&ALL_IDS, effort, seed);
    Pass {
        wall_s: t0.elapsed().as_secs_f64(),
        digests: timed.iter().map(|(r, _)| digest(r)).collect(),
        slowest_s: timed.iter().map(|(_, s)| *s).fold(0.0, f64::max),
    }
}

/// Digest of a rendered report.
pub fn digest(report: &ExperimentReport) -> u64 {
    fnv1a(report.render().as_bytes())
}

/// The checked-in report of every experiment, read from `results/`.
///
/// # Errors
///
/// Names the first report that cannot be read.
pub fn reference_reports() -> Result<Vec<(String, u64)>, String> {
    experiments::REGISTRY
        .iter()
        .map(|e| {
            let path = format!("results/{}.txt", e.report_id().to_lowercase());
            std::fs::read(&path)
                .map(|bytes| (path.clone(), fnv1a(&bytes)))
                .map_err(|err| format!("cannot read {path}: {err}"))
        })
        .collect()
}

/// Reports whose digest differs from `reference`, position by position.
pub fn mismatches(digests: &[u64], reference: &[u64]) -> u64 {
    let differing = digests
        .iter()
        .zip(reference)
        .filter(|(a, b)| a != b)
        .count();
    (differing + digests.len().abs_diff(reference.len())) as u64
}
