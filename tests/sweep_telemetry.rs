//! Sweep-telemetry integration tests: the observer's accounting over
//! real grids (executed / resumed / panicked / timed-out cells), the
//! observer-on == observer-off golden guarantee, ETA convergence
//! through the public API, and the `BENCH_sweep.json` → `bench_diff`
//! round trip.

use pmp_bench::benchdiff::BenchDiff;
use pmp_bench::journal::{self, Journal};
use pmp_bench::prefetchers::PrefetcherKind;
use pmp_bench::runner::{run_cell, run_grid, CellSpec, RunConfig};
use pmp_bench::telemetry;
use pmp_obs::{CellSpan, SpanOutcome, SweepObserver};
use pmp_traces::{catalog, TraceScale};
use std::sync::{Mutex, MutexGuard};

/// The observer and journal are process-wide; tests that install them
/// must not interleave.
static TELEMETRY_TESTS: Mutex<()> = Mutex::new(());

fn telemetry_lock() -> MutexGuard<'static, ()> {
    TELEMETRY_TESTS.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn tiny_cfg() -> RunConfig {
    RunConfig { scale: TraceScale::Tiny, ..RunConfig::default() }
}

fn small_grid() -> Vec<CellSpec> {
    catalog()[..3].iter().cloned().map(CellSpec::Synthetic).collect()
}

#[test]
fn observer_counts_executed_resumed_and_panicked_cells() {
    let _guard = telemetry_lock();
    journal::install_global(Journal::in_memory());
    let cells = small_grid();
    // FaultyPanicAfter(50) panics inside every cell; the healthy row
    // executes. 3 × 2 grid → 3 executed + 3 panicked.
    let kinds = [PrefetcherKind::None, PrefetcherKind::FaultyPanicAfter(50)];

    let obs = telemetry::install(SweepObserver::new());
    let (outcomes, summary) = run_grid(&cells, &kinds, &tiny_cfg());
    assert_eq!(outcomes.len(), 3);
    assert_eq!(summary.failures.len(), 3);
    let snap = obs.snapshot();
    assert_eq!(snap.total, Some(6), "run_grid announces the grid size");
    assert_eq!(snap.done, 6);
    assert_eq!(snap.executed, 3);
    assert_eq!(snap.panicked, 3);
    assert_eq!(snap.resumed, 0);
    assert_eq!(snap.timed_out, 0);
    assert!(snap.instructions > 0, "executed cells contribute retired instructions");
    assert_eq!(snap.eta_ms, Some(0), "finished sweep converges to zero ETA");

    // Same grid again on the same journal: the healthy row resumes,
    // the panicking row re-fails (failures are never journaled).
    let obs = telemetry::install(SweepObserver::new());
    let (outcomes, summary) = run_grid(&cells, &kinds, &tiny_cfg());
    assert_eq!(outcomes.len(), 3);
    assert_eq!(summary.resumed, 3);
    let snap = obs.snapshot();
    assert_eq!(snap.executed, 0, "journal served every healthy cell");
    assert_eq!(snap.resumed, 3);
    assert_eq!(snap.panicked, 3);

    telemetry::clear();
    journal::clear_global();
}

#[test]
fn observer_records_timeout_for_injected_slow_cell() {
    let _guard = telemetry_lock();
    journal::clear_global();
    // An impossible cycle budget turns an ordinary cell into the
    // "slow cell": the watchdog cuts it and the span says timeout.
    let cfg = RunConfig { scale: TraceScale::Tiny, max_cycles: Some(100), ..RunConfig::default() };
    let cells = small_grid();
    let obs = telemetry::install(SweepObserver::new());
    let (outcomes, summary) = run_grid(&cells, &[PrefetcherKind::None], &cfg);
    assert!(outcomes.is_empty());
    assert_eq!(summary.failures.len(), 3);
    let snap = obs.snapshot();
    assert_eq!(snap.timed_out, 3);
    assert_eq!(snap.executed, 0);
    let spans = obs.spans();
    assert_eq!(spans.len(), 3);
    assert!(spans.iter().all(|s| s.outcome == SpanOutcome::Timeout));
    assert!(
        spans.iter().all(|s| !s.family.is_empty() && s.group == "baseline"),
        "spans carry group and family tags"
    );
    telemetry::clear();
}

#[test]
fn observer_on_and_off_produce_identical_simulation_results() {
    let _guard = telemetry_lock();
    journal::clear_global();
    let cells = small_grid();
    let kinds = [PrefetcherKind::None, PrefetcherKind::Pmp];

    telemetry::clear();
    let (plain, _) = run_grid(&cells, &kinds, &tiny_cfg());

    telemetry::install(SweepObserver::new());
    let (observed, _) = run_grid(&cells, &kinds, &tiny_cfg());
    telemetry::clear();

    // The golden guarantee: telemetry watches, never steers. Full
    // SimStats equality cell by cell.
    assert_eq!(plain.len(), observed.len());
    for (a, b) in plain.iter().zip(&observed) {
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.prefetcher, b.prefetcher);
        assert_eq!(a.result.cycles, b.result.cycles, "{}/{}", a.trace, a.prefetcher);
        assert_eq!(a.result.stats, b.result.stats, "{}/{}", a.trace, a.prefetcher);
    }
}

#[test]
fn scheduler_matches_per_cell_reference_in_grid_order() {
    let _guard = telemetry_lock();
    journal::clear_global();
    telemetry::clear();
    let cells = small_grid();
    let kinds = [PrefetcherKind::None, PrefetcherKind::NextLine, PrefetcherKind::Pmp];
    let (outcomes, summary) = run_grid(&cells, &kinds, &tiny_cfg());
    assert!(summary.is_clean());
    assert_eq!(outcomes.len(), 9);
    // Reference: the naive per-(kind, cell) loop the scheduler
    // replaced, in the kind-major order run_grid promises. Execution
    // order is a scheduling detail; results must be bit-identical.
    let mut i = 0;
    for kind in &kinds {
        for cell in &cells {
            let r = run_cell(cell, kind, &tiny_cfg()).expect("healthy cell");
            let o = &outcomes[i];
            assert_eq!(o.trace, r.trace, "grid order at {i}");
            assert_eq!(o.prefetcher, r.prefetcher, "grid order at {i}");
            assert_eq!(o.result.cycles, r.result.cycles, "{}/{}", o.trace, o.prefetcher);
            assert_eq!(o.result.stats, r.result.stats, "{}/{}", o.trace, o.prefetcher);
            i += 1;
        }
    }
}

#[test]
fn grid_builds_each_trace_once_and_shares_it() {
    let _guard = telemetry_lock();
    journal::clear_global();
    telemetry::clear();
    let cells = small_grid();
    let kinds = [PrefetcherKind::None, PrefetcherKind::NextLine, PrefetcherKind::Pmp];
    let (_, summary) = run_grid(&cells, &kinds, &tiny_cfg());
    assert!(summary.is_clean());
    assert_eq!(summary.trace_builds, 3, "one build per distinct trace in the grid");
    assert_eq!(summary.trace_cache_hits, 6, "the other two kinds reuse every trace");
    let report = summary.report();
    assert!(report.contains("3 built"), "{report}");
    assert!(report.contains("6 served from cache"), "{report}");
}

#[test]
fn trace_peak_bytes_stays_within_one_trace_per_worker() {
    let _guard = telemetry_lock();
    journal::clear_global();
    telemetry::clear();
    let cells = small_grid();
    let kinds = [PrefetcherKind::None, PrefetcherKind::NextLine, PrefetcherKind::Pmp];
    let (_, summary) = run_grid(&cells, &kinds, &tiny_cfg());
    assert!(summary.is_clean());
    // Trace-major order plus release after each trace's last cell: a
    // trace is held only while one of its cells runs, so no more
    // traces than workers are ever held at once (a kind-major grid on
    // two workers would hold all three).
    let largest = catalog()[..3]
        .iter()
        .map(|spec| std::mem::size_of_val(spec.build(TraceScale::Tiny).ops.as_slice()))
        .max()
        .expect("three specs");
    let workers = std::thread::available_parallelism().map_or(4, |n| n.get());
    assert!(summary.trace_peak_bytes >= largest, "the largest trace was held while it ran");
    assert!(
        summary.trace_peak_bytes <= workers * largest,
        "peak {} B over {workers} workers × {largest} B",
        summary.trace_peak_bytes
    );
    let report = summary.report();
    assert!(report.contains("MiB retained"), "{report}");
}

#[test]
fn trace_peak_bytes_is_zero_for_a_fully_resumed_grid() {
    let _guard = telemetry_lock();
    journal::install_global(Journal::in_memory());
    telemetry::clear();
    let cells = small_grid();
    let (_, first) = run_grid(&cells, &[PrefetcherKind::None], &tiny_cfg());
    assert_eq!(first.trace_builds, 3);
    // Half resumed: the baseline cells release their uses without
    // loading a trace, the NextLine cells build. A debug build's
    // run_grid asserts that nothing is retained when the grid ends.
    let kinds = [PrefetcherKind::None, PrefetcherKind::NextLine];
    let (_, second) = run_grid(&cells, &kinds, &tiny_cfg());
    assert_eq!(second.resumed, 3);
    assert_eq!(second.trace_builds, 3, "one build per trace the executed cells need");
    assert!(second.trace_peak_bytes > 0);
    // Fully resumed: every use is released unloaded.
    let (outcomes, third) = run_grid(&cells, &kinds, &tiny_cfg());
    assert_eq!(outcomes.len(), 6);
    assert_eq!(third.resumed, 6);
    assert_eq!(third.trace_builds, 0);
    assert_eq!(third.trace_peak_bytes, 0, "a resumed grid holds no trace");
    journal::clear_global();
}

#[test]
fn each_grid_builds_its_own_traces() {
    let _guard = telemetry_lock();
    journal::clear_global();
    telemetry::clear();
    let cells = small_grid();
    let kinds = [PrefetcherKind::None, PrefetcherKind::NextLine];
    // No trace outlives its grid: the same grid run again builds every
    // trace afresh, and each summary counts that grid alone.
    for run in 1..=2 {
        let (_, summary) = run_grid(&cells, &kinds, &tiny_cfg());
        assert!(summary.is_clean(), "run {run}");
        assert_eq!(summary.trace_builds, 3, "run {run} builds each distinct trace");
        assert_eq!(summary.trace_cache_hits, 3, "run {run}: the second kind reuses every trace");
    }
}

#[test]
fn resumed_counts_are_per_grid_deltas() {
    let _guard = telemetry_lock();
    journal::install_global(Journal::in_memory());
    telemetry::clear();
    let cells = small_grid();
    let kinds = [PrefetcherKind::None];
    let (_, s1) = run_grid(&cells, &kinds, &tiny_cfg());
    assert_eq!(s1.resumed, 0, "first grid executes everything");
    let (_, s2) = run_grid(&cells, &kinds, &tiny_cfg());
    assert_eq!(s2.resumed, 3, "second grid resumes its own three cells");
    // The historical bug: `resumed` reported the process-lifetime
    // journal-hit total, so a third identical grid claimed 6.
    let (_, s3) = run_grid(&cells, &kinds, &tiny_cfg());
    assert_eq!(s3.resumed, 3, "per-grid delta, not the cumulative total");
    journal::clear_global();
}

#[test]
fn eta_converges_monotonically_through_the_public_api() {
    // The harness-facing restatement of the obs-crate unit test: a
    // uniform synthetic workload driven through SweepObserver's manual
    // clock must show a strictly shrinking ETA with non-growing error.
    let obs = SweepObserver::manual_clock();
    obs.add_total(10);
    let mut last_eta = u64::MAX;
    for k in 1..=10u64 {
        obs.finish(CellSpan {
            name: format!("cell{k}"),
            group: "pmp".into(),
            family: "stream".into(),
            wall_ms: 50,
            cycles: 1,
            instructions: 1,
            resumed: false,
            saved_ms: 0,
            outcome: SpanOutcome::Ok,
        });
        let eta = obs.snapshot_at(50 * k).eta_ms.expect("eta available");
        assert!(eta < last_eta, "ETA must shrink at cell {k}: {eta} !< {last_eta}");
        last_eta = eta;
    }
    assert_eq!(last_eta, 0);
}

#[test]
fn bench_sweep_json_round_trips_through_bench_diff() {
    let _guard = telemetry_lock();
    journal::clear_global();
    let cells = small_grid();
    let obs = telemetry::install(SweepObserver::new());
    let (_, summary) = run_grid(&cells, &[PrefetcherKind::None, PrefetcherKind::Pmp], &tiny_cfg());
    assert!(summary.is_clean());
    let json = telemetry::sweep_json(&obs, "test_grid", "Tiny");
    telemetry::clear();

    for needle in [
        "\"bench\": \"sweep\"",
        "\"executed\": 6",
        "\"ops_per_sec\"",
        "\"cells_per_sec\"",
        "\"name\": \"baseline\"",
        "\"name\": \"pmp\"",
        "\"p99_ms\"",
        "\"families\"",
    ] {
        assert!(json.contains(needle), "missing {needle} in:\n{json}");
    }

    // A file compared against itself is never a regression; one with
    // halved throughput is.
    let diff = BenchDiff::compare(&json, &json, 0.10);
    assert!(!diff.has_regression(), "{}", diff.report());
    let slower = {
        // Halve the aggregate ops_per_sec figure wherever it appears.
        let marker = "\"ops_per_sec\": ";
        let at = json.find(marker).expect("aggregate ops_per_sec") + marker.len();
        let end = json[at..]
            .find(|c: char| !c.is_ascii_digit() && c != '.')
            .map(|i| at + i)
            .expect("number ends");
        let value: f64 = json[at..end].parse().expect("numeric ops_per_sec");
        format!("{}{}{}", &json[..at], (value / 2.0).round(), &json[end..])
    };
    let diff = BenchDiff::compare(&json, &slower, 0.10);
    assert!(diff.has_regression(), "halved throughput must regress:\n{}", diff.report());
}
