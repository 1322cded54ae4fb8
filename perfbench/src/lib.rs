//! # pmp-perfbench
//!
//! The repository's benchmark. It drives the public entry points a
//! user runs (`runner::run_grid` over catalog traces and 4-core mixes)
//! from outside the program and reports end-to-end metrics; a separate
//! traced pass re-runs every cell through the lower-level public calls
//! (`TraceSpec::build`, `System::run`, `MultiCoreSystem::run`,
//! `hierarchy::demand_access`) with a timing adapter around each
//! prefetcher and reports per-layer metrics. See `README.md` in this
//! directory for the workloads and the metric definitions.

pub mod checks;
pub mod host;
pub mod inputs;
pub mod stats;
pub mod timing;
pub mod traced;

use pmp_bench::runner::{geo_mean, RunOutcome};
use pmp_sim::SimStats;
use std::collections::HashMap;

/// Per-core measured-window counters, keyed by (cell, prefetcher label).
pub type CellStats = HashMap<(String, String), Vec<SimStats>>;

/// The counters of every completed cell.
pub fn cell_stats(outcomes: &[RunOutcome]) -> CellStats {
    outcomes
        .iter()
        .map(|o| {
            let cores = if o.per_core.is_empty() {
                vec![o.result.stats]
            } else {
                o.per_core.clone()
            };
            ((o.trace.clone(), o.prefetcher.clone()), cores)
        })
        .collect()
}

/// A cell's IPC. For a mix it is the geomean of its cores' IPCs, as the
/// Fig. 13 report computes it, so it does not hinge on the slowest core.
pub fn cell_ipc(outcome: &RunOutcome) -> f64 {
    if outcome.per_core.is_empty() {
        outcome.result.ipc()
    } else {
        let ipcs: Vec<f64> = outcome.per_core.iter().map(SimStats::ipc).collect();
        geo_mean(&ipcs)
    }
}

/// Instructions a cell simulated: each core's warm-up plus its
/// measured window.
pub fn simulated_instructions(outcome: &RunOutcome, warmup: u64) -> u64 {
    if outcome.per_core.is_empty() {
        warmup + outcome.result.stats.instructions
    } else {
        outcome
            .per_core
            .iter()
            .map(|s| warmup + s.instructions)
            .sum()
    }
}
