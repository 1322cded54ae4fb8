//! Trace-sweep runner: executes (cell × prefetcher) grids on all
//! available cores and aggregates normalized IPCs.
//!
//! ## Failure model
//!
//! Every grid cell — a catalog trace, an imported trace file, or a
//! 4-core mix — runs through one pipeline ([`run_cell`]) behind one
//! robustness boundary: configurations are pre-flight validated, the
//! simulation runs under the watchdog cycle budget when
//! [`RunConfig::max_cycles`] is set, and panics anywhere in the cell
//! (trace generator, prefetcher, simulator) are caught and converted to
//! a typed [`CellFailure`]. One bad cell therefore costs exactly one
//! grid gap — reported in the [`SweepSummary`] — instead of the whole
//! sweep. Completed cells are journaled through [`crate::journal`] when
//! a journal is active, so interrupted sweeps resume instead of
//! restarting. The flavours differ only in what [`CellSpec`] supplies:
//! recipe checks, journal keys, archetype family, and the traces.

use crate::journal::{self, JournalEntry};
use crate::prefetchers::PrefetcherKind;
use crate::telemetry;
use pmp_obs::{CellSpan, SpanOutcome};
use pmp_sim::{MultiCoreSystem, SimResult, SimStats, System, SystemConfig};
use pmp_traces::{Suite, Trace, TraceCache, TraceScale, TraceSpec};
use pmp_types::HarnessError;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Shared run parameters.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Trace scale (memory ops per trace).
    pub scale: TraceScale,
    /// Simulated system configuration.
    pub system: SystemConfig,
    /// Watchdog: maximum core cycles a single cell may consume before
    /// it is aborted with [`HarnessError::Timeout`]. `None` disables
    /// the guard (the historical behaviour).
    pub max_cycles: Option<u64>,
    /// When set, each executed cell snapshots its learned prefetcher
    /// state into this directory after completing (crash-safe writes;
    /// one file per cell, per core for mixes). Failures to snapshot
    /// never fail a completed cell. Not part of the journal
    /// fingerprint: snapshotting does not change results.
    pub snapshot_dir: Option<PathBuf>,
    /// When set, each cell tries to restore learned prefetcher state
    /// from a matching snapshot in this directory before running; a
    /// missing or invalid snapshot degrades to the usual cold start.
    /// Part of the journal fingerprint (a warm-started cell's result
    /// is not the cold cell's result).
    pub warm_start: Option<PathBuf>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            scale: TraceScale::Standard,
            system: SystemConfig::single_core(),
            max_cycles: None,
            snapshot_dir: None,
            warm_start: None,
        }
    }
}

impl RunConfig {
    /// The fingerprint input for journal cell keys: everything that
    /// affects a cell's result beyond trace name and scale. The warm
    /// start source is included only when set, so cold-run keys are
    /// unchanged from historical journals.
    fn fingerprint_input(&self, kind: &PrefetcherKind) -> String {
        let mut fp = format!("{:?}|{:?}|{:?}", kind, self.system, self.max_cycles);
        if let Some(dir) = &self.warm_start {
            use std::fmt::Write as _;
            let _ = write!(fp, "|warm:{}", dir.display());
        }
        fp
    }

    pub(crate) fn cell_key(&self, trace: &str, kind: &PrefetcherKind) -> String {
        journal::cell_key(
            trace,
            &kind.label(),
            &format!("{:?}", self.scale),
            &self.fingerprint_input(kind),
        )
    }

    /// Journal keys for a mix cell: one per core (`name#c0` … `name#c3`),
    /// fingerprinted over the full trace list so two mixes sharing a
    /// display name but not a composition never alias.
    pub(crate) fn mix_keys(&self, mix: &MixCell, kind: &PrefetcherKind) -> Vec<String> {
        let traces: Vec<&str> = mix.specs.iter().map(|s| s.name.as_str()).collect();
        let fp = format!("{}|{}", self.fingerprint_input(kind), traces.join("+"));
        (0..mix.specs.len())
            .map(|i| {
                journal::cell_key(
                    &format!("{}#c{i}", mix.name),
                    &kind.label(),
                    &format!("{:?}", self.scale),
                    &fp,
                )
            })
            .collect()
    }
}

/// One (trace, prefetcher) outcome.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Trace name (or mix name for [`CellSpec::Mix`] cells).
    pub trace: String,
    /// Trace suite (the first core's suite for mix cells).
    pub suite: Suite,
    /// Prefetcher label.
    pub prefetcher: String,
    /// Measured-window simulation result. For mix cells this is the
    /// aggregate: summed counters with makespan cycles.
    pub result: SimResult,
    /// Per-core measured-window counters for [`CellSpec::Mix`] cells;
    /// empty for single-core cells.
    pub per_core: Vec<SimStats>,
}

/// One isolated (trace, prefetcher) failure: the cell's identity plus
/// the typed error that killed it.
#[derive(Debug)]
pub struct CellFailure {
    /// Trace name (or file path for imported cells).
    pub trace: String,
    /// Prefetcher label.
    pub prefetcher: String,
    /// What went wrong.
    pub error: HarnessError,
}

impl std::fmt::Display for CellFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cell ({} × {}): {}", self.trace, self.prefetcher, self.error)
    }
}

/// A cell either completes with an outcome or degrades to a reported
/// failure.
pub type CellResult = Result<RunOutcome, CellFailure>;

/// A four-trace multi-programmed mix (Fig. 13): each spec runs on its
/// own core of a shared-LLC/DRAM system, and the cell's outcome is the
/// aggregate plus per-core breakdowns.
#[derive(Debug, Clone)]
pub struct MixCell {
    /// Display name, e.g. `"homo/spec06.mcf_2"` or `"all-high/1"`.
    pub name: String,
    /// One catalog recipe per core.
    pub specs: [TraceSpec; 4],
}

impl MixCell {
    /// A homogeneous mix: the same trace on all four cores.
    pub fn homogeneous(spec: &TraceSpec) -> MixCell {
        MixCell {
            name: format!("homo/{}", spec.name),
            specs: std::array::from_fn(|_| spec.clone()),
        }
    }
}

/// Input of one grid cell: a synthetic catalog spec, an imported
/// `.pmpt` trace file, or a 4-core mix.
#[derive(Debug, Clone)]
pub enum CellSpec {
    /// A catalog/synthetic trace recipe.
    Synthetic(TraceSpec),
    /// A binary trace file (external capture), read with full
    /// corruption checking.
    File(PathBuf),
    /// A 4-core multi-programmed mix run on the shared-memory system
    /// (boxed: four `TraceSpec`s dwarf the other variants).
    Mix(Box<MixCell>),
}

impl CellSpec {
    /// Display name (trace name, file path, or mix name).
    pub fn name(&self) -> String {
        match self {
            CellSpec::Synthetic(spec) => spec.name.clone(),
            CellSpec::File(path) => path.display().to_string(),
            CellSpec::Mix(mix) => mix.name.clone(),
        }
    }

    /// Recipe checks beyond the system and prefetcher ones every cell
    /// gets: each synthetic recipe must be valid. Files have none; a
    /// bad file fails on [`CellSpec::load`].
    pub(crate) fn validate(&self) -> Result<(), HarnessError> {
        match self {
            CellSpec::Synthetic(spec) => spec.validate(),
            CellSpec::File(_) => Ok(()),
            CellSpec::Mix(mix) => mix.specs.iter().try_for_each(TraceSpec::validate),
        }
    }

    /// Journal keys: one for a single-core cell, one `name#cN` key per
    /// core for a mix (which resumes only as a whole).
    pub(crate) fn journal_keys(&self, cfg: &RunConfig, kind: &PrefetcherKind) -> Vec<String> {
        match self {
            CellSpec::Mix(mix) => cfg.mix_keys(mix, kind),
            _ => vec![cfg.cell_key(&self.name(), kind)],
        }
    }

    /// Telemetry family: the archetype tag, or `"file"` / `"mix"`.
    pub(crate) fn family(&self) -> &'static str {
        match self {
            CellSpec::Synthetic(spec) => spec.archetype.tag(),
            CellSpec::File(_) => "file",
            CellSpec::Mix(_) => "mix",
        }
    }

    /// The synthetic recipes the cell loads, one per core (a spec a
    /// mix runs twice appears twice); none for a file.
    fn synthetic_specs(&self) -> &[TraceSpec] {
        match self {
            CellSpec::Synthetic(spec) => std::slice::from_ref(spec),
            CellSpec::File(_) => &[],
            CellSpec::Mix(mix) => &mix.specs,
        }
    }

    /// The cell's traces, one per core, through `cache`. An unreadable
    /// or corrupt file maps to [`HarnessError::TraceIo`]; generator
    /// panics propagate to the caller's isolation boundary.
    pub(crate) fn load(
        &self,
        scale: TraceScale,
        cache: &TraceCache,
    ) -> Result<Vec<Arc<Trace>>, HarnessError> {
        let synthetic = |spec: &TraceSpec| cache.get_synthetic(spec, scale);
        match self {
            CellSpec::File(path) => cache
                .get_file(path)
                .map(|t| vec![t])
                .map_err(|e| HarnessError::trace_io(self.name(), e)),
            _ => Ok(self.synthetic_specs().iter().map(synthetic).collect()),
        }
    }
}

/// Map a cell's typed error to its span outcome: pre-flight rejections
/// (invalid-config, trace-io) never simulated, so they are `Skip`.
fn error_outcome(error: &HarnessError) -> SpanOutcome {
    match error.kind_tag() {
        "panic" => SpanOutcome::Panic,
        "timeout" => SpanOutcome::Timeout,
        _ => SpanOutcome::Skip,
    }
}

/// Render a caught panic payload (the `&str`/`String` forms `panic!`
/// produces; anything else is labelled opaquely).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The deterministic snapshot file name for one cell (one core of a
/// mix uses the `name#cN` form): trace/mix name and prefetcher label,
/// sanitized to a flat filename.
pub(crate) fn snapshot_file_name(cell: &str, label: &str) -> String {
    let sanitize = |s: &str| {
        s.chars()
            .map(|c| if c.is_ascii_alphanumeric() || matches!(c, '-' | '.') { c } else { '_' })
            .collect::<String>()
    };
    format!("{}__{}.pmps", sanitize(cell), sanitize(label))
}

/// Run one cell of any flavour behind the full robustness boundary:
/// pre-flight validation, journal reuse, panic isolation, and the
/// watchdog budget.
///
/// # Errors
///
/// Returns a [`CellFailure`] carrying the typed [`HarnessError`] when
/// the cell cannot produce a result; the caller's sweep continues.
pub fn run_cell(cell: &CellSpec, kind: &PrefetcherKind, cfg: &RunConfig) -> CellResult {
    run_cell_cached(cell, kind, cfg, &TraceCache::new())
}

/// [`run_cell`] through a shared trace cache — [`run_grid`]'s per-cell
/// entry point (each distinct trace builds or decodes once per grid).
///
/// The one cell pipeline every flavour shares: validate, journal
/// lookup (all-or-nothing over the cell's keys), then load, warm start,
/// run and snapshot inside a single `catch_unwind`, one journal record
/// per key, and one telemetry span (no-op when telemetry is off; the
/// observer only watches, results are bit-identical either way).
pub(crate) fn run_cell_cached(
    cell: &CellSpec,
    kind: &PrefetcherKind,
    cfg: &RunConfig,
    cache: &TraceCache,
) -> CellResult {
    let start = Instant::now();
    let elapsed_ms = || start.elapsed().as_millis() as u64;
    let name = cell.name();
    let label = kind.label();
    telemetry::cell_started(&name);
    let span = |wall_ms, outcome, result: Option<&SimResult>, saved_ms: Option<u64>| {
        telemetry::cell_finished(CellSpan {
            name: name.clone(),
            group: label.clone(),
            family: cell.family().to_string(),
            wall_ms,
            cycles: result.map_or(0, |r| r.cycles),
            instructions: result.map_or(0, |r| r.instructions),
            resumed: saved_ms.is_some(),
            saved_ms: saved_ms.unwrap_or(0),
            outcome,
        });
    };
    let fail = |error: HarnessError| {
        span(elapsed_ms(), error_outcome(&error), None, None);
        Err(CellFailure { trace: name.clone(), prefetcher: label.clone(), error })
    };
    // Pre-flight validation comes before the journal: the cell key does
    // not cover archetype parameters, so a journaled cell sharing a
    // name with a now-invalid recipe must still be rejected instead of
    // silently resumed.
    let valid = cfg.system.validate().and_then(|()| kind.validate());
    if let Err(e) = valid.and_then(|()| cell.validate()) {
        return fail(e);
    }
    let keys = cell.journal_keys(cfg, kind);
    if let Some(entries) = journal::global_lookup_all(&keys) {
        // Each core entry of a mix carries the whole cell's recorded
        // wall; the resume saved that cost once, not once per core.
        let saved_ms = entries.iter().map(|e| e.wall_ms).max().unwrap_or(0);
        // `SimResult::prefetcher` is the engine-reported static name;
        // rebuild it from the kind (cheap relative to the simulation
        // the journal hit just saved).
        let outcome = cell_outcome(cell, kind, &entries, kind.build().name());
        span(elapsed_ms(), SpanOutcome::Ok, Some(&outcome.result), Some(saved_ms));
        return Ok(outcome);
    }
    // The generator can panic on inputs validation cannot foresee, so
    // loading sits inside the isolation boundary with the run itself.
    let attempt = catch_unwind(AssertUnwindSafe(|| -> Result<_, HarnessError> {
        let traces = cell.load(cfg.scale, cache)?;
        let (per_core, prefetcher) = simulate(&name, &traces, kind, cfg)?;
        Ok((traces, per_core, prefetcher))
    }));
    let (traces, per_core, prefetcher) = match attempt {
        Ok(Ok(ran)) => ran,
        Ok(Err(error)) => return fail(error),
        Err(payload) => return fail(HarnessError::Panic { message: panic_message(payload) }),
    };
    let wall_ms = elapsed_ms();
    let entries: Vec<JournalEntry> = traces
        .iter()
        .zip(per_core)
        .map(|(trace, stats)| JournalEntry {
            trace: trace.name.clone(),
            suite: trace.suite,
            prefetcher: label.clone(),
            instructions: stats.instructions,
            cycles: stats.cycles,
            wall_ms,
            outcome: "ok".to_string(),
            stats,
        })
        .collect();
    let outcome = cell_outcome(cell, kind, &entries, prefetcher);
    span(wall_ms, SpanOutcome::Ok, Some(&outcome.result), None);
    for (key, entry) in keys.iter().zip(entries) {
        journal::global_record(key, entry);
    }
    Ok(outcome)
}

/// Simulate one cell's traces under `kind`, one core per trace: a
/// single trace runs on [`System`], a mix on [`MultiCoreSystem`]. Each
/// core restores learned prefetcher state before the run and snapshots
/// it after when the config asks (a missing, foreign, or corrupt
/// snapshot degrades that core to the usual cold start; a failed
/// snapshot write never fails the completed cell). Returns the per-core
/// measured windows and the prefetcher's engine name.
fn simulate(
    name: &str,
    traces: &[Arc<Trace>],
    kind: &PrefetcherKind,
    cfg: &RunConfig,
) -> Result<(Vec<SimStats>, &'static str), HarnessError> {
    let label = kind.label();
    let snapshot_path = |dir: &Path, core: usize| {
        let cell = match traces.len() {
            1 => name.to_string(),
            _ => format!("{name}#c{core}"),
        };
        dir.join(snapshot_file_name(&cell, &label))
    };
    let warmup = cfg.scale.warmup_instructions();
    let budget = cfg.max_cycles.unwrap_or(u64::MAX);
    let mut prefetchers: Vec<_> = traces.iter().map(|_| kind.build()).collect();
    let prefetcher = prefetchers[0].name();
    if let [trace] = traces {
        let mut sys = System::new(cfg.system.clone(), prefetchers.remove(0));
        if let Some(dir) = &cfg.warm_start {
            let _ = sys.restore_from(&snapshot_path(dir, 0));
        }
        let result = sys.run_bounded(&trace.ops, warmup, budget)?;
        if let Some(dir) = &cfg.snapshot_dir {
            let _ = sys.snapshot_to(&snapshot_path(dir, 0));
        }
        return Ok((vec![result.stats], prefetcher));
    }
    let mut sys = MultiCoreSystem::new(cfg.system.clone(), prefetchers);
    if let Some(dir) = &cfg.warm_start {
        for core in 0..traces.len() {
            let _ = sys.restore_core_from(core, &snapshot_path(dir, core));
        }
    }
    let refs: Vec<_> = traces.iter().map(|t| t.ops.as_slice()).collect();
    // ~10 instructions per memory op across the archetypes: measure a
    // window comparable to the whole trace, as the single-core runs do.
    let measure = (cfg.scale.mem_ops() as u64) * 10;
    let result = sys.run_bounded(&refs, warmup, measure, budget)?;
    if let Some(dir) = &cfg.snapshot_dir {
        for core in 0..traces.len() {
            let _ = sys.snapshot_core_to(core, &snapshot_path(dir, core));
        }
    }
    Ok((result.cores, prefetcher))
}

/// Shape a cell's per-core entries — freshly simulated or resumed from
/// the journal — into its outcome. A single-core cell is its one
/// window; a mix is the aggregate (counters summed, cycles the
/// makespan) with every core's window kept in `per_core`.
fn cell_outcome(
    cell: &CellSpec,
    kind: &PrefetcherKind,
    entries: &[JournalEntry],
    prefetcher: &'static str,
) -> RunOutcome {
    let per_core: Vec<SimStats> = entries.iter().map(|e| e.stats).collect();
    let (trace, stats, per_core) = match cell {
        CellSpec::Mix(mix) => (mix.name.clone(), aggregate(&per_core), per_core),
        _ => (entries[0].trace.clone(), per_core[0], Vec::new()),
    };
    RunOutcome {
        trace,
        suite: entries[0].suite,
        prefetcher: kind.label(),
        result: SimResult {
            instructions: stats.instructions,
            cycles: stats.cycles,
            stats,
            prefetcher,
        },
        per_core,
    }
}

/// Fold per-core measured windows into one: counters summed, cycles
/// the makespan (the mix is done when its slowest core is).
fn aggregate(per_core: &[SimStats]) -> SimStats {
    let mut total = SimStats::default();
    for s in per_core {
        total.instructions += s.instructions;
        total.cycles = total.cycles.max(s.cycles);
        total.pf_issued += s.pf_issued;
        total.pf_admitted += s.pf_admitted;
        total.pf_dropped += s.pf_dropped;
        total.pf_redundant += s.pf_redundant;
        total.dram_requests += s.dram_requests;
        total.dram_writes += s.dram_writes;
        for (acc, lvl) in total.levels.iter_mut().zip(&s.levels) {
            acc.accumulate(lvl);
        }
    }
    total
}

/// Run the `specs × kinds` grid through [`run_grid`] and return the
/// outcomes grouped per kind (outer `Vec` in `kinds` order, inner in
/// `specs` order) — the strict grid helper for report generators that
/// compare prefetchers over one trace set.
///
/// # Panics
///
/// Panics with the typed diagnosis of the first failed cell (a full
/// grid is required to render a report; sweeps that should degrade
/// gracefully use [`run_grid`] and report gaps via [`SweepSummary`]).
pub fn run_specs_grid(
    specs: &[TraceSpec],
    kinds: &[PrefetcherKind],
    cfg: &RunConfig,
) -> Vec<Vec<RunOutcome>> {
    let cells: Vec<CellSpec> = specs.iter().cloned().map(CellSpec::Synthetic).collect();
    let (outcomes, summary) = run_grid(&cells, kinds, cfg);
    if let Some(f) = summary.failures.first() {
        panic!("sweep requires a full grid; {f}");
    }
    let mut outcomes = outcomes.into_iter();
    kinds.iter().map(|_| outcomes.by_ref().take(specs.len()).collect()).collect()
}

/// Run a mixed grid of cells under several prefetchers, collecting
/// every outcome and failure into a [`SweepSummary`].
///
/// The `cells × kinds` grid runs through one [`parallel_map`] pool
/// trace-major — `cell_idx * kinds.len() + kind_idx`, every kind of one
/// cell back to back — with no per-kind barrier, and returns kind-major
/// (`kind_idx * cells.len() + cell_idx`), the order every caller reads.
/// Each distinct trace is generated or decoded once, through a
/// [`TraceCache`] that lives for this grid only. The cache is told
/// every cell's synthetic traces up front and gets each use back as its
/// cell finishes (ran, resumed, rejected or panicked), so it frees a
/// trace after the trace's last cell: the grid holds about one trace
/// per worker, not all of them. `resumed` is this grid's journal-hit
/// delta, not the process-lifetime total.
pub fn run_grid(
    cells: &[CellSpec],
    kinds: &[PrefetcherKind],
    cfg: &RunConfig,
) -> (Vec<RunOutcome>, SweepSummary) {
    telemetry::expect_cells(cells.len() * kinds.len());
    let hits_before = journal::global_hits();
    let cache = TraceCache::new();
    for spec in cells.iter().flat_map(CellSpec::synthetic_specs) {
        cache.plan(spec, cfg.scale, kinds.len());
    }
    let width = kinds.len();
    let grid: Vec<usize> = (0..cells.len() * width).collect();
    let results = parallel_map(&grid, |&i| {
        let cell = &cells[i / width];
        let result = run_cell_cached(cell, &kinds[i % width], cfg, &cache);
        for spec in cell.synthetic_specs() {
            cache.release(spec, cfg.scale);
        }
        result
    });
    debug_assert!(cache.retained_bytes() == 0, "every planned use was released");
    let mut kind_major: Vec<(usize, CellResult)> = results
        .into_iter()
        .enumerate()
        .map(|(i, result)| ((i % width) * cells.len() + i / width, result))
        .collect();
    kind_major.sort_unstable_by_key(|&(slot, _)| slot);
    let mut outcomes = Vec::new();
    let mut summary = SweepSummary::default();
    for (_, result) in kind_major {
        match result {
            Ok(outcome) => outcomes.push(outcome),
            Err(failure) => summary.failures.push(failure),
        }
    }
    summary.completed = outcomes.len();
    summary.resumed = journal::global_hits().saturating_sub(hits_before);
    summary.trace_builds = cache.builds();
    summary.trace_cache_hits = cache.hits();
    summary.trace_peak_bytes = cache.peak_bytes();
    (outcomes, summary)
}

/// Tally of a fault-tolerant sweep: completed cells, journal-resumed
/// cells, and every isolated failure.
#[derive(Debug, Default)]
pub struct SweepSummary {
    /// Cells that produced an outcome (including journal-resumed ones).
    pub completed: usize,
    /// Cells served from the journal instead of re-simulated, within
    /// this sweep (a per-grid delta, not the process-lifetime total).
    pub resumed: u64,
    /// Isolated cell failures, in kind-major grid order.
    pub failures: Vec<CellFailure>,
    /// Distinct traces generated/decoded for this grid.
    pub trace_builds: usize,
    /// Trace requests served from the grid's shared cache instead of
    /// rebuilt.
    pub trace_cache_hits: usize,
    /// High-water mark of synthetic-trace bytes the grid's cache held
    /// at once.
    pub trace_peak_bytes: usize,
}

impl SweepSummary {
    /// Human-readable summary block for sweep logs.
    pub fn report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "sweep summary: {} completed ({} resumed from journal), {} failed\n",
            self.completed,
            self.resumed,
            self.failures.len()
        );
        if self.trace_builds + self.trace_cache_hits > 0 {
            let _ = writeln!(
                out,
                "  traces: {} built, {} served from cache, peak {:.1} MiB retained",
                self.trace_builds,
                self.trace_cache_hits,
                self.trace_peak_bytes as f64 / (1024.0 * 1024.0)
            );
        }
        for failure in &self.failures {
            let _ = writeln!(out, "  FAILED [{}] {failure}", failure.error.kind_tag());
        }
        out
    }

    /// True when every cell completed.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Simple scoped-thread parallel map preserving input order — the
/// crate's one worker pool.
///
/// Workers pull items off a shared cursor in slice order, so items
/// start in the order given ([`run_grid`] passes trace-major order). Results
/// travel over a channel instead of per-slot mutexes, so a panicking
/// worker cannot poison anything: completed items are unaffected and
/// the worker's own panic resurfaces (unchanged) once the scope joins.
/// Callers wanting isolation instead of propagation wrap `f` in
/// `catch_unwind` — [`run_cell`] does exactly that.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    let threads = threads.min(items.len()).max(1);
    let next = std::sync::atomic::AtomicUsize::new(0);
    let (tx, rx) = std::sync::mpsc::channel::<(usize, R)>();
    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    std::thread::scope(|s| {
        for _ in 0..threads {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            s.spawn(move || loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(&items[i]);
                if tx.send((i, r)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        // Collect on the calling thread while workers are still
        // producing; ends when every sender is gone.
        for (i, r) in rx {
            out[i] = Some(r);
        }
    });
    out.into_iter()
        .enumerate()
        .map(|(i, r)| {
            r.unwrap_or_else(|| panic!("parallel_map worker for item {i} produced no result"))
        })
        .collect()
}

/// Geometric mean of a non-empty slice of positive values.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn geo_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of nothing");
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Normalized IPCs (per trace, aligned with `base`) and their geomean.
///
/// # Panics
///
/// Panics if the two slices' traces are misaligned.
pub fn normalized_ipcs(base: &[RunOutcome], with: &[RunOutcome]) -> (Vec<f64>, f64) {
    assert_eq!(base.len(), with.len(), "outcome sets must align");
    let nipcs: Vec<f64> = base
        .iter()
        .zip(with)
        .map(|(b, w)| {
            assert_eq!(b.trace, w.trace, "outcome sets must align by trace");
            w.result.ipc() / b.result.ipc().max(1e-12)
        })
        .collect();
    let g = geo_mean(&nipcs);
    (nipcs, g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmp_traces::catalog;

    #[test]
    fn geo_mean_basics() {
        assert!((geo_mean(&[1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((geo_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(&items, |&x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_survives_panicking_items_behind_catch_unwind() {
        // The isolation contract: with f catching its own panics, a
        // poisoned item degrades to an Err and every other slot is
        // intact — no mutex poisoning, no lost results.
        let items: Vec<u64> = (0..64).collect();
        let out = parallel_map(&items, |&x| {
            catch_unwind(|| {
                assert!(x != 13, "injected");
                x * 2
            })
        });
        assert_eq!(out.len(), 64);
        for (i, r) in out.iter().enumerate() {
            if i == 13 {
                assert!(r.is_err(), "poisoned item must fail alone");
            } else {
                assert_eq!(*r.as_ref().expect("healthy item"), i as u64 * 2);
            }
        }
    }

    fn synthetic(index: usize) -> CellSpec {
        CellSpec::Synthetic(catalog()[index].clone())
    }

    #[test]
    fn run_trace_produces_miss_traffic() {
        let cfg = RunConfig { scale: TraceScale::Tiny, ..RunConfig::default() };
        let out = run_cell(&synthetic(0), &PrefetcherKind::None, &cfg).expect("healthy cell");
        assert!(out.result.stats.llc_mpki() > 0.0, "synthetic traces must miss");
    }

    #[test]
    fn checked_run_matches_unchecked() {
        // The pipeline adds isolation and bookkeeping, never simulation:
        // its result equals a bare System run of the same trace.
        let spec = &catalog()[0];
        let cfg = RunConfig { scale: TraceScale::Tiny, ..RunConfig::default() };
        let trace = spec.build(cfg.scale);
        let mut sys = System::new(cfg.system.clone(), PrefetcherKind::NextLine.build());
        let plain = sys.run(&trace.ops, cfg.scale.warmup_instructions());
        let checked =
            run_cell(&synthetic(0), &PrefetcherKind::NextLine, &cfg).expect("healthy cell");
        assert_eq!(plain.cycles, checked.result.cycles);
        assert_eq!(plain.stats, checked.result.stats);
        assert_eq!(plain.prefetcher, checked.result.prefetcher);
    }

    #[test]
    fn panicking_prefetcher_degrades_to_typed_failure() {
        let cfg = RunConfig { scale: TraceScale::Tiny, ..RunConfig::default() };
        let failure = run_cell(&synthetic(0), &PrefetcherKind::FaultyPanicAfter(5), &cfg)
            .expect_err("injected panic must fail the cell");
        assert_eq!(failure.error.kind_tag(), "panic");
        assert!(failure.to_string().contains("injected fault"), "{failure}");
    }

    #[test]
    fn watchdog_budget_degrades_to_timeout_failure() {
        let cfg = RunConfig {
            scale: TraceScale::Tiny,
            max_cycles: Some(100),
            ..RunConfig::default()
        };
        let failure = run_cell(&synthetic(0), &PrefetcherKind::None, &cfg)
            .expect_err("100 cycles cannot finish a tiny trace");
        assert_eq!(failure.error.kind_tag(), "timeout");
    }

    #[test]
    fn invalid_system_config_fails_fast() {
        let mut cfg = RunConfig { scale: TraceScale::Tiny, ..RunConfig::default() };
        cfg.system.l1d.sets = 63;
        let failure = run_cell(&synthetic(0), &PrefetcherKind::None, &cfg)
            .expect_err("broken config must be rejected");
        assert_eq!(failure.error.kind_tag(), "invalid-config");
        assert!(failure.to_string().contains("l1d.sets"), "{failure}");
    }

    #[test]
    fn missing_trace_file_is_a_typed_io_failure() {
        let cfg = RunConfig { scale: TraceScale::Tiny, ..RunConfig::default() };
        let cell = CellSpec::File(PathBuf::from("/nonexistent/not-a-trace.pmpt"));
        let failure = run_cell(&cell, &PrefetcherKind::None, &cfg)
            .expect_err("missing file must fail the cell");
        assert_eq!(failure.error.kind_tag(), "trace-io");
    }

    #[test]
    fn mix_cell_aggregates_cores() {
        let specs: [TraceSpec; 4] = std::array::from_fn(|i| catalog()[i * 7].clone());
        let mix = CellSpec::Mix(Box::new(MixCell { name: "test-mix".into(), specs }));
        let cfg = RunConfig {
            scale: TraceScale::Tiny,
            system: SystemConfig::quad_core(),
            ..RunConfig::default()
        };
        let out = run_cell(&mix, &PrefetcherKind::None, &cfg).expect("healthy mix");
        assert_eq!(out.trace, "test-mix");
        assert_eq!(out.per_core.len(), 4);
        let summed: u64 = out.per_core.iter().map(|s| s.instructions).sum();
        assert_eq!(out.result.instructions, summed, "aggregate sums instructions");
        let makespan = out.per_core.iter().map(|s| s.cycles).max().expect("4 cores");
        assert_eq!(out.result.cycles, makespan, "aggregate cycles are the makespan");
        let dram: u64 = out.per_core.iter().map(|s| s.dram_requests).sum();
        assert_eq!(out.result.stats.dram_requests, dram);
    }

    #[test]
    fn mix_watchdog_degrades_to_timeout() {
        let specs: [TraceSpec; 4] = std::array::from_fn(|i| catalog()[i].clone());
        let mix = CellSpec::Mix(Box::new(MixCell { name: "slow-mix".into(), specs }));
        let cfg = RunConfig {
            scale: TraceScale::Tiny,
            system: SystemConfig::quad_core(),
            max_cycles: Some(50),
            ..RunConfig::default()
        };
        let failure = run_cell(&mix, &PrefetcherKind::None, &cfg)
            .expect_err("50 cycles cannot finish a mix");
        assert_eq!(failure.error.kind_tag(), "timeout");
        assert_eq!(failure.trace, "slow-mix");
    }

    #[test]
    fn normalized_ipcs_align() {
        let specs = &catalog()[..2];
        let cfg = RunConfig { scale: TraceScale::Tiny, ..RunConfig::default() };
        let grid = run_specs_grid(specs, &[PrefetcherKind::None, PrefetcherKind::NextLine], &cfg);
        let (nipcs, g) = normalized_ipcs(&grid[0], &grid[1]);
        assert_eq!(nipcs.len(), 2);
        assert!(g > 0.0);
    }
}
