//! Fault-tolerance integration tests for the experiment harness: panic
//! isolation, watchdog budgets, corrupt-trace handling, pre-flight
//! validation, and journal checkpoint/resume — the failure model
//! documented in ARCHITECTURE.md.

use pmp_bench::journal::Journal;
use pmp_bench::prefetchers::PrefetcherKind;
use pmp_bench::runner::{run_cell, run_grid, CellSpec, MixCell, RunConfig, SweepContext};
use pmp_sim::SystemConfig;
use pmp_traces::io::write_trace_file;
use pmp_traces::{catalog, TraceScale, TraceSpec};
use std::path::{Path, PathBuf};

fn tiny_cfg() -> RunConfig {
    RunConfig { scale: TraceScale::Tiny, ..RunConfig::default() }
}

/// `cfg` journaling into the file at `path`, opened fresh or resumed.
fn journaled(cfg: RunConfig, path: &Path, resume: bool, loaded: usize) -> RunConfig {
    let (journal, info) = Journal::open(path, resume).expect("open journal");
    assert_eq!((info.loaded, info.skipped), (loaded, 0), "cells loaded, no torn lines");
    RunConfig { sweep: SweepContext::journaled(journal), ..cfg }
}

fn hits(cfg: &RunConfig) -> u64 {
    cfg.sweep.journal().map_or(0, |j| j.hits())
}

fn synthetic(spec: &TraceSpec) -> CellSpec {
    CellSpec::Synthetic(spec.clone())
}

/// An invalid recipe: the hash archetype with an impossible hot
/// fraction (the validator rejects anything outside 0..=1).
fn invalid_recipe(spec: &TraceSpec) -> TraceSpec {
    let mut bad = spec.clone();
    bad.archetype = pmp_traces::archetypes::presets::hash(8, 2.0);
    bad
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pmp_harness_robustness_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Write a structurally valid trace file, then chop bytes off the end
/// so it is truncated mid-record.
fn corrupted_trace_file(dir: &std::path::Path) -> PathBuf {
    let path = dir.join("corrupt.pmpt");
    let trace = catalog()[0].build(TraceScale::Tiny);
    write_trace_file(&trace, &path).expect("write trace file");
    let bytes = std::fs::read(&path).expect("read trace file back");
    std::fs::write(&path, &bytes[..bytes.len() - 7]).expect("truncate trace file");
    path
}

#[test]
fn panicking_cell_leaves_rest_of_grid_intact() {
    let specs = &catalog()[..4];
    let cells: Vec<CellSpec> = specs.iter().cloned().map(CellSpec::Synthetic).collect();
    let kinds = [PrefetcherKind::None, PrefetcherKind::FaultyPanicAfter(50)];
    let (outcomes, summary) = run_grid(&cells, &kinds, &tiny_cfg());

    // Every healthy (trace × baseline) cell completed...
    assert_eq!(outcomes.len(), 4, "baseline row must be complete");
    for spec in specs {
        assert!(
            outcomes.iter().any(|o| o.trace == spec.name && o.prefetcher == "baseline"),
            "{} missing from the healthy row",
            spec.name
        );
    }
    // ...and every poisoned cell is reported as an isolated failure.
    assert_eq!(summary.failures.len(), 4, "each faulty cell fails alone");
    for f in &summary.failures {
        assert_eq!(f.error.kind_tag(), "panic");
        assert_eq!(f.prefetcher, "faulty-panic/50");
        assert!(f.error.to_string().contains("injected fault"), "{f}");
    }
    assert_eq!(summary.completed, 4);
    assert!(!summary.is_clean());
    let report = summary.report();
    assert!(report.contains("4 completed"), "{report}");
    assert!(report.contains("4 failed"), "{report}");
    assert!(report.contains("FAILED [panic]"), "{report}");
}

#[test]
fn corrupt_trace_file_fails_its_cell_only() {
    let dir = temp_dir("corrupt_cell");
    let cells = vec![
        CellSpec::Synthetic(catalog()[0].clone()),
        CellSpec::File(corrupted_trace_file(&dir)),
    ];
    let (outcomes, summary) = run_grid(&cells, &[PrefetcherKind::NextLine], &tiny_cfg());
    assert_eq!(outcomes.len(), 1, "healthy synthetic cell still completes");
    assert_eq!(summary.failures.len(), 1);
    let failure = &summary.failures[0];
    assert_eq!(failure.error.kind_tag(), "trace-io");
    assert!(
        failure.error.to_string().contains("truncated"),
        "truncation diagnosis expected: {failure}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn watchdog_and_validation_fail_fast_with_typed_errors() {
    let spec = &catalog()[0];

    // Watchdog: an impossible cycle budget aborts the cell with Timeout.
    let cfg = RunConfig { max_cycles: Some(50), ..tiny_cfg() };
    let timeout = run_cell(&synthetic(spec), &PrefetcherKind::None, &cfg)
        .expect_err("50-cycle budget cannot finish");
    assert_eq!(timeout.error.kind_tag(), "timeout");

    // Validation: broken system / prefetcher / trace configs are all
    // rejected before any simulation runs.
    let mut cfg = tiny_cfg();
    cfg.system.core.rob_entries = 0;
    let bad_system = run_cell(&synthetic(spec), &PrefetcherKind::None, &cfg)
        .expect_err("zero ROB must be rejected");
    assert_eq!(bad_system.error.kind_tag(), "invalid-config");

    let bad_kind = run_cell(&synthetic(spec), &PrefetcherKind::DesignB(0), &tiny_cfg())
        .expect_err("zero-way Design B must be rejected");
    assert_eq!(bad_kind.error.kind_tag(), "invalid-config");

    let bad_trace = run_cell(&synthetic(&invalid_recipe(spec)), &PrefetcherKind::None, &tiny_cfg())
        .expect_err("hot fraction 2.0 must be rejected");
    assert_eq!(bad_trace.error.kind_tag(), "invalid-config");
    assert!(bad_trace.error.to_string().contains(&spec.name), "{bad_trace}");
}

#[test]
fn validation_rejects_before_journal_resume() {
    let dir = temp_dir("validation_before_resume");
    let file = dir.join("healthy.pmpt");
    write_trace_file(&catalog()[0].build(TraceScale::Tiny), &file).expect("write trace file");
    let mut broken_system = tiny_cfg();
    broken_system.system.core.rob_entries = 0;
    let mix = |specs| CellSpec::Mix(Box::new(MixCell { name: "mix/v".into(), specs }));
    let healthy_mix: [TraceSpec; 4] = std::array::from_fn(|i| catalog()[i].clone());
    let mut poisoned_mix = healthy_mix.clone();
    poisoned_mix[2] = invalid_recipe(&poisoned_mix[2]);

    // Each row journals a healthy cell, then reruns a cell that keeps
    // its name but is now invalid. A journal key fingerprints the name
    // and run config but not archetype parameters, so if the journal
    // were consulted before validation the synthetic and mix reruns
    // would silently resume the stale healthy result.
    let rows: [(&str, CellSpec, RunConfig, CellSpec, RunConfig); 3] = [
        (
            "synthetic: same trace name, invalid recipe",
            synthetic(&catalog()[0]),
            tiny_cfg(),
            synthetic(&invalid_recipe(&catalog()[0])),
            tiny_cfg(),
        ),
        (
            "file: same trace file, invalid system",
            CellSpec::File(file.clone()),
            tiny_cfg(),
            CellSpec::File(file),
            broken_system,
        ),
        (
            "mix: same mix name, one invalid recipe",
            mix(healthy_mix),
            quad_cfg(),
            mix(poisoned_mix),
            quad_cfg(),
        ),
    ];
    for (case, healthy, healthy_cfg, invalid, invalid_cfg) in rows {
        let sweep = SweepContext::journaled(Journal::in_memory());
        let healthy_cfg = RunConfig { sweep: sweep.clone(), ..healthy_cfg };
        let invalid_cfg = RunConfig { sweep, ..invalid_cfg };
        run_cell(&healthy, &PrefetcherKind::NextLine, &healthy_cfg)
            .unwrap_or_else(|f| panic!("{case}: healthy cell must journal: {f}"));
        let err = run_cell(&invalid, &PrefetcherKind::NextLine, &invalid_cfg)
            .expect_err("an invalid cell must be rejected, not resumed");
        assert_eq!(err.error.kind_tag(), "invalid-config", "{case}: {err}");
        assert_eq!(hits(&invalid_cfg), 0, "{case}: no resume for an invalid cell");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journal_resume_skips_exactly_the_completed_cells() {
    let dir = temp_dir("resume");
    let path = dir.join("journal.jsonl");
    let specs = &catalog()[..3];
    let cells: Vec<CellSpec> = specs.iter().cloned().map(CellSpec::Synthetic).collect();
    let kinds = [PrefetcherKind::NextLine, PrefetcherKind::FaultyPanicAfter(50)];

    // First attempt: healthy cells journal, poisoned cells fail.
    let cfg = journaled(tiny_cfg(), &path, false, 0);
    let (first, summary1) = run_grid(&cells, &kinds, &cfg);
    assert_eq!(first.len(), 3);
    assert_eq!(summary1.failures.len(), 3);
    assert_eq!(summary1.resumed, 0, "fresh journal serves nothing");
    drop(cfg);

    // Resume: exactly the three completed cells load back...
    let cfg = journaled(tiny_cfg(), &path, true, 3);
    let (second, summary2) = run_grid(&cells, &kinds, &cfg);
    // ...are served without re-simulation, and only the failed cells
    // re-execute (and fail again — the fault is deterministic).
    assert_eq!(summary2.resumed, 3, "healthy cells come from the journal");
    assert_eq!(summary2.failures.len(), 3, "failed cells re-execute");
    assert_eq!(second.len(), 3);
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.result.cycles, b.result.cycles, "journaled result must be bit-identical");
        assert_eq!(a.result.stats, b.result.stats);
    }

    // A config change invalidates the key: nothing is wrongly reused.
    let bigger = RunConfig { max_cycles: Some(u64::MAX - 1), ..cfg };
    let _ = run_cell(&cells[0], &PrefetcherKind::NextLine, &bigger);
    assert_eq!(hits(&bigger), 3, "different config must be a different cell");
    let _ = std::fs::remove_dir_all(&dir);
}

fn quad_cfg() -> RunConfig {
    RunConfig {
        scale: TraceScale::Tiny,
        system: SystemConfig::quad_core(),
        ..RunConfig::default()
    }
}

/// `n` disjoint 4-core mixes drawn from the head of the catalog.
fn mix_cells(n: usize) -> Vec<CellSpec> {
    let all = catalog();
    (0..n)
        .map(|m| {
            let specs: [TraceSpec; 4] = std::array::from_fn(|i| all[m * 4 + i].clone());
            CellSpec::Mix(Box::new(MixCell { name: format!("mix/{m}"), specs }))
        })
        .collect()
}

#[test]
fn panicking_core_fails_its_mix_cell_only() {
    let cells = mix_cells(2);
    let kinds = [PrefetcherKind::None, PrefetcherKind::FaultyPanicAfter(50)];
    let (outcomes, summary) = run_grid(&cells, &kinds, &quad_cfg());

    // The healthy baseline row completes with full per-core breakdowns...
    assert_eq!(outcomes.len(), 2, "baseline mixes must complete");
    for o in &outcomes {
        assert_eq!(o.per_core.len(), 4, "mix outcome carries every core");
        assert!(o.result.ipc() > 0.0);
    }
    // ...while a prefetcher panicking on one core of a 4-core mix costs
    // exactly that mix cell, typed as a panic, not the sweep.
    assert_eq!(summary.failures.len(), 2, "each faulty mix fails alone");
    for f in &summary.failures {
        assert_eq!(f.error.kind_tag(), "panic");
        assert!(f.trace.starts_with("mix/"), "{f}");
        assert!(f.error.to_string().contains("injected fault"), "{f}");
    }
    assert!(!summary.is_clean());
}

#[test]
fn mix_journal_resume_replays_only_failed_mixes() {
    let dir = temp_dir("mix_resume");
    let path = dir.join("journal.jsonl");
    let cells = mix_cells(2);
    let kinds = [PrefetcherKind::NextLine, PrefetcherKind::FaultyPanicAfter(50)];

    // First attempt: healthy mixes journal one entry per core, faulty
    // mixes fail.
    let cfg = journaled(quad_cfg(), &path, false, 0);
    let (first, summary1) = run_grid(&cells, &kinds, &cfg);
    assert_eq!(first.len(), 2);
    assert_eq!(summary1.failures.len(), 2);
    assert_eq!(summary1.resumed, 0, "fresh journal serves nothing");
    drop(cfg);

    // Resume: all four per-core entries of each healthy mix (2 x 4)
    // load back and are served without re-simulation; only the failed
    // mix cells re-execute (and fail again — the fault is
    // deterministic).
    let cfg = journaled(quad_cfg(), &path, true, 8);
    let (second, summary2) = run_grid(&cells, &kinds, &cfg);
    // Resume accounting is per *cell*: two healthy mixes resumed, even
    // though each loaded four per-core journal entries.
    assert_eq!(summary2.resumed, 2, "one resumed cell per healthy mix");
    assert_eq!(summary2.failures.len(), 2, "failed mixes re-execute");
    assert_eq!(second.len(), 2);
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.result.stats, b.result.stats, "aggregate must be bit-identical");
        assert_eq!(a.per_core, b.per_core, "per-core windows must be bit-identical");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unjournaled_runs_behave_as_before() {
    let cfg = tiny_cfg();
    assert!(cfg.sweep.journal.is_none(), "the default context carries no journal");
    let out = run_cell(&CellSpec::Synthetic(catalog()[0].clone()), &PrefetcherKind::NextLine, &cfg)
        .expect("healthy cell");
    assert!(out.result.ipc() > 0.0);
}
