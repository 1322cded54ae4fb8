//! Output checks: every grid cell is checked, and a cell that fails a
//! check counts as failed against the cells attempted.

use crate::inputs::Inputs;
use pmp_bench::runner::RunOutcome;
use pmp_bench::{journal, telemetry, trace_pool};
use pmp_sim::SimStats;
use std::path::Path;

/// Prefetch lifecycle conservation: every issued request was admitted,
/// dropped, or found redundant.
pub fn conserves_prefetches(s: &SimStats) -> bool {
    s.pf_issued == s.pf_admitted + s.pf_dropped + s.pf_redundant
}

/// Why `outcome` is not a valid cell of `inputs`, if it is not.
pub fn check_cell(outcome: &RunOutcome, inputs: &Inputs) -> Option<String> {
    let cell = format!("{} × {}", outcome.trace, outcome.prefetcher);
    let ipc = outcome.result.ipc();
    if !(ipc.is_finite() && ipc > 0.0) {
        return Some(format!("{cell}: IPC {ipc} is not finite and positive"));
    }
    let is_mix = inputs.is_mix();
    let cores: &[SimStats] = if is_mix {
        &outcome.per_core
    } else {
        std::slice::from_ref(&outcome.result.stats)
    };
    if is_mix && cores.len() != 4 {
        return Some(format!(
            "{cell}: {} cores reported, expected 4",
            cores.len()
        ));
    }
    for (i, s) in cores.iter().enumerate() {
        if !conserves_prefetches(s) {
            return Some(format!(
                "{cell} core {i}: pf_issued {} != admitted {} + dropped {} + redundant {}",
                s.pf_issued, s.pf_admitted, s.pf_dropped, s.pf_redundant
            ));
        }
        if is_mix && s.instructions + inputs.max_op_instructions <= inputs.mix_window() {
            return Some(format!(
                "{cell} core {i}: measured {} instructions, short of the {}-instruction window",
                s.instructions,
                inputs.mix_window()
            ));
        }
    }
    if !conserves_prefetches(&outcome.result.stats) {
        return Some(format!("{cell}: aggregate prefetch counts do not conserve"));
    }
    None
}

/// Why the process-global sweep state is not clean, if it is not: a
/// timed run must leave the journal, the telemetry observer and the
/// trace pool uninstalled, so it reads no history and writes nothing.
pub fn globals_uninstalled() -> Option<String> {
    if journal::global_active() {
        return Some("the cell journal is installed".into());
    }
    if telemetry::active() {
        return Some("the sweep telemetry observer is installed".into());
    }
    if trace_pool::global().is_some() {
        return Some("the process-wide trace pool is installed".into());
    }
    None
}

/// A listing of every file under `dir` with its size and modification
/// time, to show a run wrote nothing there. Empty when `dir` does not
/// exist.
pub fn tree_listing(dir: &Path) -> Vec<(String, u64, Option<std::time::SystemTime>)> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let Ok(meta) = entry.metadata() else { continue };
            if meta.is_dir() {
                stack.push(entry.path());
            } else {
                out.push((
                    entry.path().display().to_string(),
                    meta.len(),
                    meta.modified().ok(),
                ));
            }
        }
    }
    out.sort();
    out
}
