//! Full 125-trace single-core sweep (development diagnostic), run
//! fault-tolerantly: every cell is isolated, completed cells are
//! journaled to `results/journal.jsonl`, and failures are reported in a
//! summary instead of killing the sweep.
//!
//! Flags:
//! * `--resume` — serve already-journaled cells from the checkpoint and
//!   execute only the missing ones.
//! * `--fresh` — explicit form of the default: truncate the journal.
//! * `--inject-faults` — add two deliberately broken cells (a
//!   prefetcher that panics mid-run and a corrupted trace file) to
//!   demonstrate that the sweep degrades to a reported gap instead of
//!   crashing.
//! * `--no-progress` — suppress the live progress/ETA reporter (also
//!   `PMP_NO_PROGRESS=1`).
//! * `--snapshot-dir <dir>` — snapshot each cell's learned prefetcher
//!   state into `<dir>` after the cell completes (crash-safe writes).
//! * `--warm-start <dir>` — restore learned state from matching
//!   snapshots in `<dir>` before each cell runs; missing or invalid
//!   snapshots degrade to the usual cold start.
//!
//! The sweep runs with telemetry on: per-cell spans aggregate into
//! `results/BENCH_sweep.json` (wall-clock, ops/sec, per-prefetcher
//! and per-archetype wall histograms, executed/resumed/failed counts)
//! so sweep throughput is a tracked perf number — CI compares it with
//! `bench_diff --report-only`, which reports without gating.
//!
//! The whole baseline + paper-five product runs as ONE grid through
//! `run_grid`'s worker pool, trace-major: no per-kind barrier, and
//! the shared trace cache generates each of the 125 traces once
//! instead of once per prefetcher and frees it after its last cell.
use pmp_bench::prefetchers::PrefetcherKind;
use pmp_bench::progress::{ProgressMode, ProgressReporter};
use pmp_bench::runner::{
    geo_mean, run_cell, run_grid, CellSpec, RunConfig, RunOutcome, SweepContext,
};
use pmp_bench::{journal, telemetry};
use pmp_obs::SweepObserver;
use pmp_traces::io::write_trace_file;
use pmp_traces::{catalog, Suite, TraceScale};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Cycle budget per cell: generous for a healthy Small-scale run, but a
/// livelocked cell is cut off instead of hanging the sweep forever.
const CELL_CYCLE_BUDGET: u64 = 2_000_000_000;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let resume = args.iter().any(|a| a == "--resume");
    let inject = args.iter().any(|a| a == "--inject-faults");
    let mut snapshot_dir: Option<PathBuf> = None;
    let mut warm_start: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        match a.as_str() {
            "--resume" | "--fresh" | "--inject-faults" | "--no-progress" => {}
            "--snapshot-dir" | "--warm-start" => {
                let Some(dir) = args.get(i + 1) else {
                    eprintln!("{a} requires a directory argument");
                    std::process::exit(2);
                };
                if a == "--snapshot-dir" {
                    snapshot_dir = Some(PathBuf::from(dir));
                } else {
                    warm_start = Some(PathBuf::from(dir));
                }
                i += 1;
            }
            _ => {
                eprintln!(
                    "unknown flag {a}; expected --resume, --fresh, --inject-faults, \
                     --no-progress, --snapshot-dir <dir> or --warm-start <dir>"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }
    std::fs::create_dir_all("results").expect("create results dir");
    let observer = Arc::new(SweepObserver::new());
    let sweep = SweepContext {
        journal: journal::open_for_sweep(Path::new("results/journal.jsonl"), resume),
        observer: Some(observer.clone()),
    };
    let reporter = ProgressReporter::start(ProgressMode::from_env(&args), observer.clone());

    let specs = catalog();
    let cfg = RunConfig {
        scale: TraceScale::Small,
        max_cycles: Some(CELL_CYCLE_BUDGET),
        snapshot_dir,
        warm_start,
        sweep,
        ..RunConfig::default()
    };

    // Baseline + paper five as ONE 125 × 6 grid through the shared
    // worker pool; outcomes are partitioned by prefetcher label
    // afterwards. Traces whose baseline cell failed are excluded from
    // every comparison below (there is nothing to normalise by).
    observer.phase("grid");
    let cells: Vec<CellSpec> = specs.iter().cloned().map(CellSpec::Synthetic).collect();
    let mut kinds = vec![PrefetcherKind::None];
    kinds.extend(PrefetcherKind::paper_five());
    let (outcomes, mut summary) = run_grid(&cells, &kinds, &cfg);
    let mut base: HashMap<String, RunOutcome> = HashMap::new();
    let mut by_kind: HashMap<String, Vec<RunOutcome>> = HashMap::new();
    for o in outcomes {
        if o.prefetcher == PrefetcherKind::None.label() {
            base.insert(o.trace.clone(), o);
        } else {
            by_kind.entry(o.prefetcher.clone()).or_default().push(o);
        }
    }
    if base.is_empty() {
        eprint!("{}", summary.report());
        eprintln!("no baseline cell completed; nothing to normalise");
        std::process::exit(1);
    }
    let mpki: Vec<f64> = base.values().map(|o| o.result.stats.llc_mpki()).collect();
    let lo = mpki.iter().filter(|&&m| m <= 5.0).count();
    eprintln!("traces with MPKI<=5: {lo}/{}; median {:.1}", base.len(), {
        let mut s = mpki.clone();
        s.sort_by(|a, b| a.partial_cmp(b).expect("finite MPKI"));
        s[s.len() / 2]
    });

    for kind in PrefetcherKind::paper_five() {
        let outs = by_kind.remove(&kind.label()).unwrap_or_default();
        let pairs: Vec<(Suite, f64)> = outs
            .iter()
            .filter_map(|o| {
                base.get(&o.trace)
                    .map(|b| (o.suite, o.result.ipc() / b.result.ipc().max(1e-12)))
            })
            .collect();
        if pairs.is_empty() {
            eprintln!("{:8} no completed cells", kind.label());
            continue;
        }
        let all: Vec<f64> = pairs.iter().map(|(_, n)| *n).collect();
        let mut line = format!("{:8} overall {:.3}", kind.label(), geo_mean(&all));
        for suite in Suite::ALL {
            let vals: Vec<f64> =
                pairs.iter().filter(|(s, _)| *s == suite).map(|(_, n)| *n).collect();
            if !vals.is_empty() {
                line += &format!("  {suite}={:.3}", geo_mean(&vals));
            }
        }
        println!("{line}");
    }

    if inject {
        observer.phase("fault_injection");
        eprintln!("injecting two faulty cells (expected to fail in isolation)...");
        // Cell 1: a prefetcher that panics partway through the run.
        match run_cell(
            &CellSpec::Synthetic(specs[0].clone()),
            &PrefetcherKind::FaultyPanicAfter(10_000),
            &cfg,
        ) {
            Ok(o) => {
                summary.completed += 1;
                eprintln!("unexpected: injected panic cell completed ({})", o.trace);
            }
            Err(f) => summary.failures.push(f),
        }
        // Cell 2: a trace file truncated mid-record.
        let path = PathBuf::from("results/injected_corrupt.pmpt");
        let trace = specs[0].build(TraceScale::Tiny);
        write_trace_file(&trace, &path).expect("write injected trace");
        let full = std::fs::read(&path).expect("read back");
        std::fs::write(&path, &full[..full.len() - 7]).expect("truncate injected trace");
        match run_cell(&CellSpec::File(path), &PrefetcherKind::None, &cfg) {
            Ok(o) => {
                summary.completed += 1;
                eprintln!("unexpected: corrupted trace cell completed ({})", o.trace);
            }
            Err(f) => summary.failures.push(f),
        }
    }

    if let Some(reporter) = reporter {
        reporter.finish();
    }
    // `summary.resumed` is already the grid's own journal-hit delta;
    // the injected cells above fail, so they never add resumes.
    eprint!("{}", summary.report());
    if let Some(warning) = cfg.sweep.journal().and_then(|j| j.write_warning()) {
        eprintln!("WARNING: {warning}");
    }
    if telemetry::write_sweep_json(
        &observer,
        Path::new("results/BENCH_sweep.json"),
        "full_sweep",
        &format!("{:?}", cfg.scale),
    ) {
        eprintln!("wrote results/BENCH_sweep.json");
    }
    if inject && summary.failures.len() < 2 {
        eprintln!("fault injection expected 2 failures, saw {}", summary.failures.len());
        std::process::exit(1);
    }
}
