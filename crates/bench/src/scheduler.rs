//! Grid scheduler: one shared pool over the full `cells × kinds`
//! product.
//!
//! The historical `run_grid` ran one `parallel_map` barrier per
//! prefetcher kind: the slowest cell of kind *k* idled every core
//! before kind *k+1* could start, and each (cell, kind) pair rebuilt
//! its trace from scratch. This module replaces that with a single
//! pass:
//!
//! * **One queue, no barriers.** Every (cell, kind) pair is a work
//!   item, and all of them go through one [`parallel_map`] call, so a
//!   slow cell only ever occupies its own worker.
//! * **Cost-aware ordering.** Items are sorted
//!   longest-expected-first before the pool starts: expected cost
//!   comes from the installed [`crate::telemetry`] observer's
//!   per-prefetcher and per-archetype wall-time histograms (mean of
//!   the two, EWMA fallback), journaled cells cost ~0 (they resume in
//!   microseconds, so they run last and never occupy a core while real
//!   work waits), and with no history at all a flat prior applies —
//!   with 4-core mixes weighted heavier. Longest-first minimises the
//!   end-of-sweep straggler tail: the worst item starts first instead
//!   of last.
//! * **Shared trace cache.** Workers thread one [`TraceCache`] through
//!   the runner's cache-aware cell entry point, so a 125-trace ×
//!   19-kind grid builds 125 traces, not 2375.
//! * **Grid-order results.** Results come back in execution order and
//!   are un-permuted into grid order (kind-major:
//!   `kind_idx * cells.len() + cell_idx`, the same order the per-kind
//!   loop produced) — execution order is a scheduling detail, output
//!   order is part of the API.
//!
//! Determinism: every cell is an independent simulation of a
//! deterministic trace, so results are bit-identical regardless of
//! which worker runs a cell when (pinned by `tests/golden_stats.rs`
//! and `tests/sweep_telemetry.rs`). Panic isolation is per-cell:
//! the runner catches panics inside each cell, so a poisoned work
//! item degrades to a [`crate::runner::CellFailure`] and the pool
//! keeps draining.

use crate::journal;
use crate::prefetchers::PrefetcherKind;
use crate::runner::{parallel_map, run_cell_cached, CellResult, CellSpec, RunConfig};
use crate::telemetry;
use pmp_traces::TraceCache;

/// Flat prior for a cell's wall cost when the observer has no history
/// (or no observer is installed): ordering degrades to grid order,
/// which is what the old per-kind loop did anyway.
const DEFAULT_CELL_MS: f64 = 10.0;

/// A 4-core mix simulates roughly four single-core cells of work;
/// applied to the flat prior only (recorded mix history already
/// reflects real mix cost).
const MIX_COST_FACTOR: f64 = 4.0;

/// Expected wall cost of one (cell, kind) work item, in milliseconds.
fn expected_cost_ms(cell: &CellSpec, kind: &PrefetcherKind, cfg: &RunConfig) -> f64 {
    let keys = cell.journal_keys(cfg, kind);
    // Journaled cells resume in microseconds — schedule them last.
    // (Non-counting peek: the real lookup in the runner counts the
    // resume; counting it here too would inflate the resumed tally.)
    if journal::global_contains_all(&keys) {
        return 0.0;
    }
    // A prior run's journal measured this exact cell (same key, so the
    // same trace, prefetcher parameterisation, and system config):
    // that beats any histogram estimate. Mix cells record the whole
    // cell's wall once per core key — take the max.
    if let Some(ms) = keys.iter().filter_map(|k| journal::global_cost_hint_ms(k)).max() {
        return ms as f64;
    }
    let prior = match cell {
        CellSpec::Mix(_) => DEFAULT_CELL_MS * MIX_COST_FACTOR,
        _ => DEFAULT_CELL_MS,
    };
    telemetry::expected_cell_ms(&kind.label(), cell.family()).unwrap_or(prior)
}

/// Run the full `cells × kinds` product through one shared work pool
/// and return results in grid order (kind-major: all cells of
/// `kinds[0]`, then `kinds[1]`, …).
///
/// Callers that want a [`crate::runner::SweepSummary`] use
/// [`crate::runner::run_grid`]; this is the raw scheduling primitive
/// it (and the strict grid helper) share.
pub fn run_product(
    cells: &[CellSpec],
    kinds: &[PrefetcherKind],
    cfg: &RunConfig,
    cache: &TraceCache,
) -> Vec<CellResult> {
    let n = cells.len() * kinds.len();
    // Longest-expected-first execution order; cost ties stay in grid
    // order so scheduling is deterministic.
    let costs: Vec<f64> = (0..n)
        .map(|i| expected_cost_ms(&cells[i % cells.len()], &kinds[i / cells.len()], cfg))
        .collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| costs[b].total_cmp(&costs[a]).then(a.cmp(&b)));
    let results = parallel_map(&order, |&i| {
        run_cell_cached(&cells[i % cells.len()], &kinds[i / cells.len()], cfg, Some(cache))
    });
    let mut by_grid_index: Vec<(usize, CellResult)> = order.into_iter().zip(results).collect();
    by_grid_index.sort_unstable_by_key(|&(i, _)| i);
    by_grid_index.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmp_traces::{catalog, TraceScale};
    use std::sync::Mutex;

    fn tiny_cfg() -> RunConfig {
        RunConfig { scale: TraceScale::Tiny, ..RunConfig::default() }
    }

    /// Tests that install or clear the process-wide journal serialise
    /// on this lock so they cannot see each other's state.
    static GLOBAL_JOURNAL_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn product_preserves_grid_order() {
        let cells: Vec<CellSpec> =
            catalog()[..3].iter().cloned().map(CellSpec::Synthetic).collect();
        let kinds = [PrefetcherKind::None, PrefetcherKind::NextLine];
        let cache = TraceCache::new();
        let results = run_product(&cells, &kinds, &tiny_cfg(), &cache);
        assert_eq!(results.len(), 6);
        for (i, r) in results.iter().enumerate() {
            let out = r.as_ref().expect("healthy cell");
            assert_eq!(out.prefetcher, kinds[i / 3].label(), "kind-major order at {i}");
            assert_eq!(out.trace, catalog()[i % 3].name, "cell order within a kind at {i}");
        }
        assert_eq!(cache.builds(), 3, "each distinct trace builds once for the product");
        assert_eq!(cache.hits(), 3, "the second kind reuses every trace");
    }

    #[test]
    fn cost_model_orders_journaled_cells_last() {
        let _guard = GLOBAL_JOURNAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let cell = CellSpec::Synthetic(catalog()[0].clone());
        let cfg = tiny_cfg();
        journal::clear_global();
        let unjournaled = expected_cost_ms(&cell, &PrefetcherKind::None, &cfg);
        assert!(unjournaled > 0.0, "fresh cells carry the flat prior");
        let mix = CellSpec::Mix(Box::new(crate::runner::MixCell::homogeneous(&catalog()[0])));
        let mix_cost = expected_cost_ms(&mix, &PrefetcherKind::None, &cfg);
        assert!(mix_cost > unjournaled, "mixes are weighted heavier under the prior");
    }

    #[test]
    fn cost_model_prefers_journaled_wall_hints() {
        let _guard = GLOBAL_JOURNAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let spec = catalog()[2].clone();
        let cfg = tiny_cfg();
        let kind = PrefetcherKind::NextLine;
        let key = cfg.cell_key(&spec.name, &kind);
        let cell = CellSpec::Synthetic(spec);

        // Seed an on-disk journal with a measured cost for this exact
        // cell, then reopen FRESH: the entry must not resume, but its
        // wall_ms must still steer the cost model.
        let dir = std::env::temp_dir().join(format!("pmp_sched_hints_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("journal.jsonl");
        {
            let (mut j, _) = journal::Journal::open(&path, false).expect("seed journal");
            j.record(
                &key,
                journal::JournalEntry {
                    trace: cell.name(),
                    suite: pmp_traces::Suite::Spec06,
                    prefetcher: kind.label(),
                    instructions: 1,
                    cycles: 1,
                    wall_ms: 5_000,
                    outcome: "ok".into(),
                    stats: Default::default(),
                },
            );
        }
        let (fresh, info) = journal::Journal::open(&path, false).expect("fresh reopen");
        assert_eq!(info.loaded, 0);
        journal::install_global(fresh);
        let hinted = expected_cost_ms(&cell, &kind, &cfg);
        assert!(
            (hinted - 5_000.0).abs() < f64::EPSILON,
            "measured prior-run cost must win over the {DEFAULT_CELL_MS}ms prior, got {hinted}"
        );
        // A cell the old journal never saw still gets the flat prior.
        let unknown = expected_cost_ms(
            &CellSpec::Synthetic(catalog()[3].clone()),
            &PrefetcherKind::None,
            &cfg,
        );
        assert!((unknown - DEFAULT_CELL_MS).abs() < f64::EPSILON, "got {unknown}");
        // The hinted cell therefore sorts ahead of unhinted ones.
        assert!(hinted > unknown);
        journal::clear_global();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
