//! Smoke tests for every experiment entry point at Tiny scale: the
//! harness must always produce a well-formed report for each paper
//! artifact (the assertions check structure, not numbers).

use pmp_bench::experiments::{ablation, headline, motivation, multicore, sensitivity, storage};
use pmp_bench::runner::RunConfig;
use pmp_traces::TraceScale;

const SCALE: TraceScale = TraceScale::Tiny;

fn base() -> RunConfig {
    RunConfig { scale: SCALE, ..RunConfig::default() }
}

#[test]
fn tab1_report() {
    let s = motivation::tab1_pcr_pdr(SCALE);
    for needle in ["Table I", "PC+Address", "PCR", "PDR"] {
        assert!(s.contains(needle), "missing {needle:?} in:\n{s}");
    }
}

#[test]
fn fig2_report() {
    let s = motivation::fig2_top_patterns(SCALE);
    assert!(s.contains("top-1 share"));
    assert!(s.contains("distinct patterns"));
}

#[test]
fn fig4_report() {
    let s = motivation::fig4_icdd(SCALE);
    assert!(s.contains("Trigger Offset"));
    assert!(s.contains("median"));
}

#[test]
fn fig5_report() {
    let s = motivation::fig5_heatmaps(SCALE);
    assert!(s.contains("spec06.mcf_2"));
    // 64-line ASCII maps included.
    assert!(s.lines().filter(|l| l.chars().count() == 64).count() >= 64);
}

#[test]
fn storage_reports() {
    let s3 = storage::tab3_storage();
    assert!(s3.contains("4364"));
    let s5 = storage::tab5_overheads();
    assert!(s5.contains("pmp"));
    assert!(s5.contains("bingo"));
}

#[test]
fn headline_reports() {
    let runs = headline::HeadlineRuns::execute(&base());
    assert_eq!(runs.base.len(), 125);
    assert!(!runs.outcomes("pmp").is_empty());
    for (report, needle) in [
        (headline::fig8(&runs), "PMP improvement over baseline"),
        (headline::fig9(&runs), "acc L1D"),
        (headline::fig10(&runs), "LLC useless"),
        (headline::nmt_report(&runs), "NMT"),
    ] {
        assert!(report.contains(needle), "missing {needle:?}");
    }
}

#[test]
fn ablation_reports() {
    for (s, needle) in [
        (ablation::tab8_design_b(&base()), "512"),
        (ablation::ext_schemes(&base()), "ARE"),
        (ablation::mfp_ablation(&base()), "single PPT"),
        (ablation::tab9_pattern_len(&base()), "PMP-16"),
        (ablation::tab11_monitor_range(&base()), "range 8"),
    ] {
        assert!(s.contains(needle), "missing {needle:?} in:\n{s}");
    }
}

#[test]
fn extension_and_placement_reports() {
    let p = ablation::placement(&base());
    assert!(p.contains("bingo@llc"));
}

#[test]
fn per_suite_report() {
    let s = motivation::per_suite(SCALE);
    assert!(s.contains("Ligra"));
}

#[test]
fn tab10_report() {
    let s = ablation::tab10_width_counter(&base());
    assert!(s.contains("12-bit trigger offset"));
    assert!(s.contains("8-bit counters"));
}

#[test]
fn fig13_report() {
    let s = multicore::fig13(&base());
    for needle in ["Fig. 13", "homogeneous", "heterogeneous", "pmp", "pmp-limit"] {
        assert!(s.contains(needle), "missing {needle:?} in:\n{s}");
    }
    // 25 homogeneous workloads + 3 mixes for each of the 6 Table VII
    // kinds survive the checked grid at Tiny scale.
    assert!(s.contains("25 homogeneous workloads"), "{s}");
    assert!(s.contains("18 Table-VII mixes"), "{s}");
}

#[test]
fn sensitivity_reports() {
    let a = sensitivity::fig12a_bandwidth(&base());
    assert!(a.contains("800 MT/s") && a.contains("6400 MT/s"));
    let b = sensitivity::fig12b_llc(&base());
    assert!(b.contains("2MB") && b.contains("8MB"));
}
