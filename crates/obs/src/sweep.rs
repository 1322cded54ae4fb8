//! Sweep-level telemetry: per-cell span accounting for grid runs.
//!
//! The simulator has had rich introspection since the first obs PR;
//! this module gives the *harness* the same treatment. A
//! [`SweepObserver`] wraps each grid cell in a [`CellSpan`] recording
//! wall-clock, simulated cycles, retired instructions, whether the cell
//! was served from the results journal (`resumed`) and how it ended
//! ([`SpanOutcome`]). Spans aggregate into per-group (prefetcher) and
//! per-family (archetype) log2 wall-time histograms reusing
//! [`Log2Histogram`], plus an EWMA-smoothed ETA that a progress
//! reporter can poll via [`SweepObserver::snapshot`].
//!
//! The observer is `Sync` (internal mutex) so the harness's scoped
//! worker threads can record spans concurrently, and it never touches
//! the simulation itself — an observer-on sweep produces bit-identical
//! results to an observer-off sweep (pinned by the golden-fingerprint
//! integration tests).
//!
//! Time is threaded explicitly: the public convenience methods stamp
//! spans with a monotonic clock started at construction, while the
//! `*_at` variants take a millisecond timestamp so tests can drive a
//! synthetic clock and assert ETA convergence deterministically.

use crate::hist::Log2Histogram;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// How a cell span ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanOutcome {
    /// The cell produced a result (executed or journal-resumed).
    Ok,
    /// The cell panicked and was isolated.
    Panic,
    /// The watchdog cycle budget expired.
    Timeout,
    /// The cell never simulated (pre-flight rejection, unreadable
    /// trace file).
    Skip,
}

impl SpanOutcome {
    /// Stable machine-readable tag (journal/JSON field value).
    pub fn tag(self) -> &'static str {
        match self {
            SpanOutcome::Ok => "ok",
            SpanOutcome::Panic => "panic",
            SpanOutcome::Timeout => "timeout",
            SpanOutcome::Skip => "skip",
        }
    }

    /// Parse a tag back (unknown tags conservatively read as `Skip`).
    pub fn from_tag(tag: &str) -> SpanOutcome {
        match tag {
            "ok" => SpanOutcome::Ok,
            "panic" => SpanOutcome::Panic,
            "timeout" => SpanOutcome::Timeout,
            _ => SpanOutcome::Skip,
        }
    }
}

/// One completed grid cell, as the observer records it.
#[derive(Debug, Clone)]
pub struct CellSpan {
    /// Cell display name (trace, file path, or mix name).
    pub name: String,
    /// Aggregation group — the prefetcher label in grid sweeps.
    pub group: String,
    /// Aggregation family — the archetype/workload class.
    pub family: String,
    /// Wall-clock the cell consumed, in milliseconds.
    pub wall_ms: u64,
    /// Simulated cycles of the measured window (0 for failures).
    pub cycles: u64,
    /// Retired instructions of the measured window (0 for failures).
    pub instructions: u64,
    /// Whether the cell was served from the results journal instead of
    /// simulated.
    pub resumed: bool,
    /// Wall-clock a journal hit avoided re-spending (the recorded cost
    /// of the original execution); 0 for executed cells.
    pub saved_ms: u64,
    /// How the cell ended.
    pub outcome: SpanOutcome,
}

/// Point-in-time aggregate the progress reporter renders.
#[derive(Debug, Clone, Default)]
pub struct SweepSnapshot {
    /// Spans recorded so far.
    pub done: usize,
    /// Expected total cells (`None` for open-ended sweeps — no ETA).
    pub total: Option<usize>,
    /// Cells that actually simulated and succeeded.
    pub executed: usize,
    /// Cells served from the journal.
    pub resumed: usize,
    /// Cells that panicked.
    pub panicked: usize,
    /// Cells killed by the watchdog.
    pub timed_out: usize,
    /// Cells rejected before simulating.
    pub skipped: usize,
    /// Milliseconds since the observer started.
    pub elapsed_ms: u64,
    /// Retired instructions summed over executed (not resumed) spans.
    pub instructions: u64,
    /// Aggregate simulation throughput: instructions per wall second.
    pub ops_per_sec: f64,
    /// EWMA of executed-cell wall time, ms (the ETA's per-cell cost).
    pub ewma_cell_ms: f64,
    /// Estimated milliseconds to completion (`None` without a total or
    /// before the first executed cell lands).
    pub eta_ms: Option<u64>,
    /// Wall saved by journal resumes, ms.
    pub saved_ms: u64,
    /// Cells currently in flight (begun, not yet finished).
    pub in_flight: usize,
    /// Longest-running cell currently in flight: (name, elapsed ms).
    pub slowest_in_flight: Option<(String, u64)>,
}

impl SweepSnapshot {
    /// Failed cells of any flavour.
    pub fn failed(&self) -> usize {
        self.panicked + self.timed_out + self.skipped
    }
}

/// EWMA smoothing factor for per-cell wall time: heavy enough that a
/// couple of slow outliers move the ETA, light enough that it settles
/// within ~10 cells.
const EWMA_ALPHA: f64 = 0.2;

#[derive(Debug, Default)]
struct Inner {
    total: Option<usize>,
    spans: Vec<CellSpan>,
    executed: usize,
    resumed: usize,
    panicked: usize,
    timed_out: usize,
    skipped: usize,
    instructions: u64,
    busy_ms: u64,
    saved_ms: u64,
    ewma_cell_ms: f64,
    by_group: BTreeMap<String, Log2Histogram>,
    by_family: BTreeMap<String, Log2Histogram>,
    // (name, start ms); linear scan is fine at in-flight == thread count.
    in_flight: Vec<(String, u64)>,
    phases: Vec<(String, u64)>, // (phase name, start ms)
}

/// Aggregates [`CellSpan`]s into counts, histograms, and an ETA.
#[derive(Debug, Default)]
pub struct SweepObserver {
    inner: Mutex<Inner>,
    started: Option<Instant>,
}

impl SweepObserver {
    /// An observer for an open-ended sweep (progress but no ETA until
    /// [`SweepObserver::add_total`] announces work).
    pub fn new() -> Self {
        SweepObserver { inner: Mutex::new(Inner::default()), started: Some(Instant::now()) }
    }

    /// A clockless observer for tests driving the `*_at` API; the
    /// convenience methods stamp everything at 0 ms.
    pub fn manual_clock() -> Self {
        SweepObserver { inner: Mutex::new(Inner::default()), started: None }
    }

    /// Milliseconds since construction (0 under a manual clock).
    pub fn elapsed_ms(&self) -> u64 {
        self.started.map_or(0, |t| t.elapsed().as_millis() as u64)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A panicking recorder leaves only telemetry behind; the data
        // is still consistent enough to report.
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Announce `n` more expected cells (turns the ETA on).
    pub fn add_total(&self, n: usize) {
        let mut inner = self.lock();
        *inner.total.get_or_insert(0) += n;
    }

    /// Mark the start of a named sweep phase (per-phase wall breakdown
    /// in the JSON report).
    pub fn phase(&self, name: &str) {
        let now = self.elapsed_ms();
        self.phase_at(name, now);
    }

    /// [`SweepObserver::phase`] with an explicit timestamp.
    pub fn phase_at(&self, name: &str, now_ms: u64) {
        self.lock().phases.push((name.to_string(), now_ms));
    }

    /// Register a cell as in flight (drives the slowest-in-flight
    /// display). Pair with [`SweepObserver::finish`].
    pub fn begin(&self, name: &str) {
        let now = self.elapsed_ms();
        self.begin_at(name, now);
    }

    /// [`SweepObserver::begin`] with an explicit timestamp.
    pub fn begin_at(&self, name: &str, now_ms: u64) {
        self.lock().in_flight.push((name.to_string(), now_ms));
    }

    /// Record a completed span (and clear its in-flight entry, if any).
    pub fn finish(&self, span: CellSpan) {
        let mut inner = self.lock();
        if let Some(i) = inner.in_flight.iter().position(|(n, _)| *n == span.name) {
            inner.in_flight.swap_remove(i);
        }
        match (span.resumed, span.outcome) {
            (true, _) => inner.resumed += 1,
            (false, SpanOutcome::Ok) => inner.executed += 1,
            (false, SpanOutcome::Panic) => inner.panicked += 1,
            (false, SpanOutcome::Timeout) => inner.timed_out += 1,
            (false, SpanOutcome::Skip) => inner.skipped += 1,
        }
        inner.saved_ms += span.saved_ms;
        // Resumed cells are near-free: keeping them out of the timing
        // aggregates stops a mostly-resumed run from predicting that
        // the remaining *un-resumed* cells are free too, and keeping
        // them out of `instructions` stops `ops_per_sec` from counting
        // simulation this run never did.
        if !span.resumed {
            inner.instructions += span.instructions;
            inner.busy_ms += span.wall_ms;
            if span.outcome == SpanOutcome::Ok {
                inner.ewma_cell_ms = if inner.executed == 1 {
                    span.wall_ms as f64
                } else {
                    EWMA_ALPHA * span.wall_ms as f64 + (1.0 - EWMA_ALPHA) * inner.ewma_cell_ms
                };
            }
            inner
                .by_group
                .entry(span.group.clone())
                .or_default()
                .record(span.wall_ms);
            inner
                .by_family
                .entry(span.family.clone())
                .or_default()
                .record(span.wall_ms);
        }
        inner.spans.push(span);
    }

    /// Current aggregate state, stamped with the internal clock.
    pub fn snapshot(&self) -> SweepSnapshot {
        self.snapshot_at(self.elapsed_ms())
    }

    /// [`SweepObserver::snapshot`] with an explicit timestamp.
    pub fn snapshot_at(&self, now_ms: u64) -> SweepSnapshot {
        let inner = self.lock();
        let done = inner.spans.len();
        let elapsed_ms = now_ms;
        let ops_per_sec = if elapsed_ms == 0 {
            0.0
        } else {
            inner.instructions as f64 * 1000.0 / elapsed_ms as f64
        };
        // Effective parallelism: how many cell-milliseconds landed per
        // wall-millisecond. On a loaded machine this self-corrects the
        // ETA without knowing the worker count.
        let in_flight_ms: u64 =
            inner.in_flight.iter().map(|(_, t0)| now_ms.saturating_sub(*t0)).sum();
        let concurrency = if elapsed_ms == 0 {
            1.0
        } else {
            ((inner.busy_ms + in_flight_ms) as f64 / elapsed_ms as f64).max(1.0)
        };
        let eta_ms = inner.total.and_then(|total| {
            let remaining = total.saturating_sub(done);
            if remaining == 0 {
                return Some(0);
            }
            if inner.executed == 0 {
                return None; // nothing executed yet: no cost signal
            }
            Some((remaining as f64 * inner.ewma_cell_ms / concurrency).round() as u64)
        });
        let slowest_in_flight = inner
            .in_flight
            .iter()
            .map(|(n, t0)| (n.clone(), now_ms.saturating_sub(*t0)))
            .max_by_key(|(_, ms)| *ms);
        SweepSnapshot {
            done,
            total: inner.total,
            executed: inner.executed,
            resumed: inner.resumed,
            panicked: inner.panicked,
            timed_out: inner.timed_out,
            skipped: inner.skipped,
            elapsed_ms,
            instructions: inner.instructions,
            ops_per_sec,
            ewma_cell_ms: inner.ewma_cell_ms,
            eta_ms,
            saved_ms: inner.saved_ms,
            in_flight: inner.in_flight.len(),
            slowest_in_flight,
        }
    }

    /// Per-group (prefetcher) wall-time histograms, sorted by name.
    pub fn group_hists(&self) -> Vec<(String, Log2Histogram)> {
        self.lock().by_group.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
    }

    /// Per-family (archetype) wall-time histograms, sorted by name.
    pub fn family_hists(&self) -> Vec<(String, Log2Histogram)> {
        self.lock().by_family.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
    }

    /// Phase boundaries as `(name, wall_ms_spent)`, the last phase
    /// closed at `end_ms`.
    pub fn phase_breakdown(&self, end_ms: u64) -> Vec<(String, u64)> {
        let inner = self.lock();
        let mut out = Vec::with_capacity(inner.phases.len());
        for (i, (name, start)) in inner.phases.iter().enumerate() {
            let end = inner.phases.get(i + 1).map_or(end_ms, |(_, next)| *next);
            out.push((name.clone(), end.saturating_sub(*start)));
        }
        out
    }

    /// All recorded spans, in completion order.
    pub fn spans(&self) -> Vec<CellSpan> {
        self.lock().spans.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, group: &str, wall_ms: u64, outcome: SpanOutcome) -> CellSpan {
        CellSpan {
            name: name.to_string(),
            group: group.to_string(),
            family: "stream".to_string(),
            wall_ms,
            cycles: 1000,
            instructions: if outcome == SpanOutcome::Ok { 5000 } else { 0 },
            resumed: false,
            saved_ms: 0,
            outcome,
        }
    }

    #[test]
    fn counts_by_outcome_and_resume() {
        let obs = SweepObserver::manual_clock();
        obs.add_total(5);
        obs.finish(span("a", "pmp", 10, SpanOutcome::Ok));
        obs.finish(span("b", "pmp", 10, SpanOutcome::Panic));
        obs.finish(span("c", "pmp", 10, SpanOutcome::Timeout));
        obs.finish(span("d", "pmp", 10, SpanOutcome::Skip));
        let mut resumed = span("e", "pmp", 0, SpanOutcome::Ok);
        resumed.resumed = true;
        resumed.saved_ms = 42;
        obs.finish(resumed);
        let snap = obs.snapshot_at(100);
        assert_eq!(snap.done, 5);
        assert_eq!(snap.executed, 1);
        assert_eq!(snap.panicked, 1);
        assert_eq!(snap.timed_out, 1);
        assert_eq!(snap.skipped, 1);
        assert_eq!(snap.resumed, 1);
        assert_eq!(snap.failed(), 3);
        assert_eq!(snap.saved_ms, 42);
        assert_eq!(snap.eta_ms, Some(0), "all cells done: ETA is zero");
    }

    #[test]
    fn resumed_spans_add_no_instructions() {
        let obs = SweepObserver::manual_clock();
        obs.finish(span("a", "pmp", 10, SpanOutcome::Ok));
        let mut resumed = span("b", "pmp", 0, SpanOutcome::Ok);
        resumed.resumed = true;
        resumed.instructions = 7000;
        obs.finish(resumed);
        let snap = obs.snapshot_at(1000);
        assert_eq!(snap.instructions, 5000, "only the executed span ran");
        assert_eq!(snap.ops_per_sec, 5000.0);
    }

    #[test]
    fn eta_monotonically_converges_on_uniform_cells() {
        // 20 sequential cells of 100 ms each. After cell k (at time
        // 100*k) the true remaining work is (20-k)*100 ms; the EWMA
        // settles to 100 ms, so the estimate must converge and its
        // absolute error must never grow.
        let obs = SweepObserver::manual_clock();
        obs.add_total(20);
        let mut last_eta = u64::MAX;
        let mut last_err = u64::MAX;
        for k in 1..=20u64 {
            obs.finish(span(&format!("cell{k}"), "pmp", 100, SpanOutcome::Ok));
            let snap = obs.snapshot_at(100 * k);
            let eta = snap.eta_ms.expect("executed cells give an ETA");
            let truth = (20 - k) * 100;
            let err = eta.abs_diff(truth);
            assert!(eta < last_eta, "ETA must shrink: {eta} !< {last_eta} at cell {k}");
            assert!(err <= last_err, "ETA error must not grow: {err} > {last_err} at cell {k}");
            last_eta = eta;
            last_err = err;
        }
        assert_eq!(last_eta, 0, "completed sweep converges to zero");
    }

    #[test]
    fn eta_needs_an_executed_cell() {
        let obs = SweepObserver::manual_clock();
        obs.add_total(10);
        assert_eq!(obs.snapshot_at(50).eta_ms, None, "no cost signal yet");
        let mut resumed = span("r", "pmp", 0, SpanOutcome::Ok);
        resumed.resumed = true;
        obs.finish(resumed);
        assert_eq!(obs.snapshot_at(60).eta_ms, None, "resumed cells carry no cost signal");
        obs.finish(span("x", "pmp", 100, SpanOutcome::Ok));
        assert!(obs.snapshot_at(160).eta_ms.is_some());
    }

    #[test]
    fn open_ended_sweep_has_no_eta() {
        let obs = SweepObserver::manual_clock();
        obs.finish(span("a", "pmp", 10, SpanOutcome::Ok));
        assert_eq!(obs.snapshot_at(10).eta_ms, None);
    }

    #[test]
    fn slowest_in_flight_tracks_the_laggard() {
        let obs = SweepObserver::manual_clock();
        obs.begin_at("fast", 100);
        obs.begin_at("slow", 0);
        let snap = obs.snapshot_at(150);
        assert_eq!(snap.slowest_in_flight, Some(("slow".to_string(), 150)));
        obs.finish(span("slow", "pmp", 150, SpanOutcome::Ok));
        let snap = obs.snapshot_at(160);
        assert_eq!(snap.slowest_in_flight, Some(("fast".to_string(), 60)));
    }

    #[test]
    fn histograms_group_and_exclude_resumed() {
        let obs = SweepObserver::manual_clock();
        obs.finish(span("a", "pmp", 10, SpanOutcome::Ok));
        obs.finish(span("b", "pmp", 100, SpanOutcome::Ok));
        obs.finish(span("c", "bingo", 10, SpanOutcome::Ok));
        let mut resumed = span("d", "pmp", 0, SpanOutcome::Ok);
        resumed.resumed = true;
        obs.finish(resumed);
        let groups = obs.group_hists();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].0, "bingo");
        assert_eq!(groups[0].1.count(), 1);
        assert_eq!(groups[1].0, "pmp");
        assert_eq!(groups[1].1.count(), 2, "resumed span must not pollute timings");
        let families = obs.family_hists();
        assert_eq!(families.len(), 1);
        assert_eq!(families[0].1.count(), 3);
    }

    #[test]
    fn phase_breakdown_partitions_the_run() {
        let obs = SweepObserver::manual_clock();
        obs.phase_at("motivation", 0);
        obs.phase_at("headline", 300);
        obs.phase_at("ablation", 450);
        let phases = obs.phase_breakdown(1000);
        assert_eq!(
            phases,
            vec![
                ("motivation".to_string(), 300),
                ("headline".to_string(), 150),
                ("ablation".to_string(), 550),
            ]
        );
    }

    #[test]
    fn concurrency_scales_eta_down() {
        // Two workers: 10 cells of 100 ms land at 2 per 100 ms tick.
        // After 4 cells at t=200, remaining 6 cells / concurrency 2
        // must estimate ~300 ms, not ~600.
        let obs = SweepObserver::manual_clock();
        obs.add_total(10);
        for (i, t) in [(0, 100), (1, 100), (2, 200), (3, 200)] {
            let _ = t;
            obs.finish(span(&format!("c{i}"), "pmp", 100, SpanOutcome::Ok));
        }
        let snap = obs.snapshot_at(200);
        let eta = snap.eta_ms.expect("eta");
        assert!((250..=350).contains(&eta), "expected ~300 ms, got {eta}");
    }

    #[test]
    fn snapshot_reports_in_flight_count() {
        let obs = SweepObserver::manual_clock();
        obs.begin_at("a", 0);
        obs.begin_at("b", 10);
        assert_eq!(obs.snapshot_at(20).in_flight, 2);
        obs.finish(span("a", "pmp", 20, SpanOutcome::Ok));
        assert_eq!(obs.snapshot_at(30).in_flight, 1);
    }

    #[test]
    fn outcome_tags_round_trip() {
        for o in [SpanOutcome::Ok, SpanOutcome::Panic, SpanOutcome::Timeout, SpanOutcome::Skip] {
            assert_eq!(SpanOutcome::from_tag(o.tag()), o);
        }
        assert_eq!(SpanOutcome::from_tag("garbage"), SpanOutcome::Skip);
    }
}
