//! Cross-crate integration tests: trace generation → simulation →
//! prefetching → metrics, exercised end-to-end.

use pmp_bench::prefetchers::PrefetcherKind;
use pmp_bench::runner::{normalized_ipcs, run_cell, run_specs_grid, CellSpec, RunConfig, RunOutcome};
use pmp_sim::{MultiCoreSystem, System, SystemConfig};
use pmp_stats::metrics::{coverage, nmt};
use pmp_traces::{catalog, representative_subset, Suite, TraceScale, TraceSpec};
use pmp_types::CacheLevel;

fn cfg(scale: TraceScale) -> RunConfig {
    RunConfig { scale, ..RunConfig::default() }
}

fn run(spec: &TraceSpec, kind: &PrefetcherKind, scale: TraceScale) -> RunOutcome {
    run_cell(&CellSpec::Synthetic(spec.clone()), kind, &cfg(scale)).expect("healthy cell")
}

fn run_all(specs: &[TraceSpec], kind: &PrefetcherKind, scale: TraceScale) -> Vec<RunOutcome> {
    run_specs_grid(specs, std::slice::from_ref(kind), &cfg(scale)).remove(0)
}

#[test]
fn every_catalog_family_simulates() {
    // One trace per family through the full pipeline.
    let all = catalog();
    for name in
        ["spec06.stream_0", "spec06.astar_1", "spec06.mcf_0", "spec06.hash_0", "spec06.mixed_0",
         "spec17.stride_0", "ligra.bfs_0", "parsec.stencil_0"]
    {
        let spec = all.iter().find(|s| s.name == name).unwrap_or_else(|| panic!("{name}"));
        let out = run(spec, &PrefetcherKind::None, TraceScale::Tiny);
        assert!(out.result.cycles > 0, "{name} must simulate");
        assert!(out.result.stats.llc_mpki() > 1.0, "{name} must miss");
    }
}

#[test]
fn traces_meet_the_papers_mpki_criterion() {
    // The paper selects traces with LLC MPKI > 5; at Small scale the
    // whole catalog must qualify on the baseline.
    let specs = catalog();
    let outs = run_all(&specs, &PrefetcherKind::None, TraceScale::Small);
    let below: Vec<&str> = outs
        .iter()
        .filter(|o| o.result.stats.llc_mpki() <= 5.0)
        .map(|o| o.trace.as_str())
        .collect();
    assert!(below.is_empty(), "traces below 5 MPKI: {below:?}");
}

#[test]
fn pmp_speeds_up_the_mcf_chase() {
    let spec = catalog().into_iter().find(|s| s.name == "spec06.mcf_2").unwrap();
    let base = run(&spec, &PrefetcherKind::None, TraceScale::Small);
    let pmp = run(&spec, &PrefetcherKind::Pmp, TraceScale::Small);
    let nipc = pmp.result.ipc() / base.result.ipc();
    assert!(nipc > 1.5, "PMP on a backward chase should fly: {nipc:.3}");
    // On a fully serialised chase most prefetches arrive "late" (the
    // demand merges with the in-flight fill), so strict miss-coverage
    // stays small; assert prefetch *utility* instead: useful L1D
    // prefetches must cover a solid share of the baseline's misses.
    let useful: u64 =
        CacheLevel::ALL.iter().map(|l| pmp.result.stats.level(*l).pf_useful).sum();
    let base_misses = base.result.stats.level(CacheLevel::L1D).load_misses;
    assert!(
        useful as f64 > 0.3 * base_misses as f64,
        "useful {useful} vs baseline misses {base_misses}"
    );
    // And the L2C coverage (timely lower-level fills) must be real.
    let cov2 = coverage(&base.result.stats, &pmp.result.stats, CacheLevel::L2C).unwrap();
    assert!(cov2 > 0.05, "L2C coverage = {cov2:.2}");
}

#[test]
fn pmp_produces_more_traffic_than_baseline_but_bounded() {
    let spec = catalog().into_iter().find(|s| s.name == "spec06.stream_1").unwrap();
    let base = run(&spec, &PrefetcherKind::None, TraceScale::Small);
    let pmp = run(&spec, &PrefetcherKind::Pmp, TraceScale::Small);
    let t = nmt(&base.result.stats, &pmp.result.stats).unwrap();
    assert!(t >= 1.0, "prefetching cannot reduce DRAM traffic on a stream: {t}");
    assert!(t < 4.0, "NMT should stay bounded: {t}");
}

#[test]
fn prefetcher_state_is_deterministic_across_runs() {
    let spec = catalog().into_iter().find(|s| s.name == "ligra.pagerank_0").unwrap();
    let a = run(&spec, &PrefetcherKind::Pmp, TraceScale::Tiny);
    let b = run(&spec, &PrefetcherKind::Pmp, TraceScale::Tiny);
    assert_eq!(a.result.cycles, b.result.cycles);
    assert_eq!(a.result.stats.pf_issued, b.result.stats.pf_issued);
}

#[test]
fn suite_labels_flow_through() {
    let specs = representative_subset();
    let outs = run_all(&specs, &PrefetcherKind::None, TraceScale::Tiny);
    for suite in Suite::ALL {
        assert!(outs.iter().any(|o| o.suite == suite), "{suite} missing from subset");
    }
}

#[test]
fn normalized_ipcs_are_aligned_and_positive() {
    let specs = &representative_subset()[..4];
    let base = run_all(specs, &PrefetcherKind::None, TraceScale::Tiny);
    let with = run_all(specs, &PrefetcherKind::NextLine, TraceScale::Tiny);
    let (nipcs, g) = normalized_ipcs(&base, &with);
    assert_eq!(nipcs.len(), 4);
    assert!(nipcs.iter().all(|&n| n > 0.0));
    assert!(g > 0.0);
}

#[test]
fn multicore_homogeneous_mix_runs_all_prefetchers() {
    let spec = catalog().into_iter().find(|s| s.name == "spec06.hash_0").unwrap();
    let ops = spec.build(TraceScale::Tiny).ops;
    let traces: [&[_]; 4] = [&ops, &ops, &ops, &ops];
    for kind in [PrefetcherKind::None, PrefetcherKind::Pmp, PrefetcherKind::Bingo] {
        let prefetchers = (0..4).map(|_| kind.build()).collect();
        let mut sys = MultiCoreSystem::new(SystemConfig::quad_core(), prefetchers);
        let r = sys.run(&traces, 500, 10_000);
        assert_eq!(r.cores.len(), 4);
        for (i, c) in r.cores.iter().enumerate() {
            assert!(c.ipc() > 0.0, "core {i} under {} stalled", kind.label());
        }
    }
}

#[test]
fn single_core_system_exposes_config() {
    let sys = System::new(SystemConfig::single_core(), Box::new(pmp_prefetch::NoPrefetch));
    assert_eq!(sys.config().llc.capacity_bytes(), 2 * 1024 * 1024);
}
