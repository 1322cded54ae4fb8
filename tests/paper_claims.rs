//! Qualitative paper-claim tests: each test pins one *shape* claim
//! from the paper that the reproduction must preserve. These run at
//! Small scale — heavier than unit tests, still seconds each.

use pmp_analysis::collision::{redundancy, table_i};
use pmp_analysis::features::Feature;
use pmp_analysis::frequency::FrequencyCensus;
use pmp_analysis::icdd::average_icdd;
use pmp_analysis::capture_patterns;
use pmp_bench::prefetchers::PrefetcherKind;
use pmp_bench::runner::{normalized_ipcs, parallel_map, run_specs_grid, RunConfig};
use pmp_core::capture::CapturedPattern;
use pmp_prefetch::Prefetcher as _;
use pmp_traces::{representative_subset, TraceScale};
use pmp_types::RegionGeometry;

fn subset_patterns() -> Vec<CapturedPattern> {
    let specs = representative_subset();
    parallel_map(&specs, |s| capture_patterns(&s.build(TraceScale::Small)))
        .into_iter()
        .flatten()
        .collect()
}

/// Observation 1: only a tiny minority of patterns occur frequently;
/// the top patterns carry a large share of occurrences.
#[test]
fn observation1_heavy_tailed_pattern_frequency() {
    let census = FrequencyCensus::new(&subset_patterns());
    assert!(census.distinct > 100, "need a meaningful corpus");
    let top10 = census.top_share(10);
    let top1000 = census.top_share(1000);
    // Paper: top-10 ≈ 33%, top-1000 ≈ 74%. Require the heavy tail.
    assert!(top10 > 0.10, "top-10 share = {top10:.3}");
    assert!(top1000 > top10 + 0.1, "shares must keep growing: {top1000:.3}");
    let frac_top10 = 10.0 / census.distinct as f64;
    assert!(frac_top10 < 0.01, "top-10 is a tiny minority of distinct patterns");
}

/// Observation 2 / Table I: fine-grained features index patterns almost
/// uniquely (PCR → 1) but duplicate them massively (high PDR); coarse
/// features are the reverse.
#[test]
fn observation2_pcr_pdr_shape() {
    let patterns = subset_patterns();
    let geom = RegionGeometry::default();
    let rows = table_i(&patterns, geom);
    let get = |f: Feature| rows.iter().find(|r| r.feature == f).unwrap();
    let addr = get(Feature::Address);
    let pc_addr = get(Feature::PcAddress);
    let trig = get(Feature::TriggerOffset);
    let pc = get(Feature::Pc);
    // Fine features: near-unique indexing, heavy duplication.
    assert!(addr.pcr < 3.0, "Address PCR = {}", addr.pcr);
    assert!(pc_addr.pcr < 3.0, "PC+Address PCR = {}", pc_addr.pcr);
    assert!(addr.pdr > 3.0, "Address PDR = {}", addr.pdr);
    // Coarse features: heavy collisions, little duplication.
    assert!(trig.pcr > 20.0, "TriggerOffset PCR = {}", trig.pcr);
    assert!(trig.pdr < addr.pdr, "TriggerOffset must duplicate less than Address");
    assert!(pc.pdr < addr.pdr);
    // The Bingo redundancy number (paper: 82.9% for PC+Address).
    let red = redundancy(&patterns, Feature::PcAddress, geom);
    assert!(red > 0.5, "PC+Address redundancy = {red:.2}");
}

/// Observation 3 / Fig. 4: trigger offsets cluster similar patterns —
/// the average ICDD under Trigger Offset beats the address features
/// and the PC feature on the representative corpus.
#[test]
fn observation3_trigger_offset_clusters_best() {
    let specs = representative_subset();
    let per_trace = parallel_map(&specs, |s| {
        let pats = capture_patterns(&s.build(TraceScale::Small));
        (
            average_icdd(&pats, Feature::TriggerOffset),
            average_icdd(&pats, Feature::Pc),
            average_icdd(&pats, Feature::PcAddress),
        )
    });
    let mean = |f: &dyn Fn(&(f64, f64, f64)) -> f64| {
        per_trace.iter().map(f).sum::<f64>() / per_trace.len() as f64
    };
    let trig = mean(&|t| t.0);
    let pc = mean(&|t| t.1);
    let pc_addr = mean(&|t| t.2);
    assert!(trig < pc, "ICDD: trigger {trig:.2} must beat PC {pc:.2}");
    assert!(trig < pc_addr, "ICDD: trigger {trig:.2} must beat PC+Address {pc_addr:.2}");
}

/// The headline (Fig. 8 shape): PMP beats every baseline prefetcher on
/// the representative subset, and improves the baseline substantially.
#[test]
fn fig8_shape_pmp_wins_at_low_cost() {
    let specs = representative_subset();
    let cfg = RunConfig { scale: TraceScale::Small, ..RunConfig::default() };
    let mut kinds = vec![PrefetcherKind::None];
    kinds.extend(PrefetcherKind::paper_five());
    let grid = run_specs_grid(&specs, &kinds, &cfg);
    let results: Vec<(String, f64)> = kinds[1..]
        .iter()
        .zip(&grid[1..])
        .map(|(kind, outs)| (kind.label(), normalized_ipcs(&grid[0], outs).1))
        .collect();
    let get = |n: &str| results.iter().find(|(l, _)| l == n).unwrap().1;
    let pmp = get("pmp");
    assert!(pmp > 1.25, "PMP must clearly beat the baseline: {pmp:.3}");
    assert!(pmp > get("dspatch"), "PMP must beat DSPatch");
    assert!(pmp > get("spp-ppf"), "PMP must beat SPP+PPF");
    assert!(pmp > get("pythia"), "PMP must beat Pythia");
    assert!(pmp > get("bingo") * 0.98, "PMP must at least match Bingo");
}

/// Table V shape: the storage ordering and the headline ratios.
#[test]
fn table_v_storage_ordering() {
    let bits = |k: &PrefetcherKind| k.build().storage_bits();
    let pmp = bits(&PrefetcherKind::Pmp);
    let dspatch = bits(&PrefetcherKind::DsPatch);
    let bingo = bits(&PrefetcherKind::Bingo);
    let spp = bits(&PrefetcherKind::SppPpf);
    let pythia = bits(&PrefetcherKind::Pythia);
    // Paper ordering: DSPatch < PMP < Pythia < SPP+PPF < Bingo.
    assert!(dspatch < pmp);
    assert!(pmp < pythia);
    assert!(pythia < spp);
    assert!(spp < bingo);
    // PMP ≈ 4.3KB.
    assert_eq!(pmp / 8, 4364);
    // Bingo ≈ 30× PMP; Pythia ≈ 6× PMP.
    assert!(bingo as f64 / pmp as f64 > 20.0);
    assert!((3.0..10.0).contains(&(pythia as f64 / pmp as f64)));
}

/// Section V-D shape: PMP's traffic exceeds every other prefetcher's,
/// and PMP-Limit brings it down substantially.
#[test]
fn nmt_shape_pmp_is_most_aggressive() {
    let specs = representative_subset();
    let cfg = RunConfig { scale: TraceScale::Small, ..RunConfig::default() };
    let kinds = [
        PrefetcherKind::None,
        PrefetcherKind::Pmp,
        PrefetcherKind::PmpLimit,
        PrefetcherKind::Bingo,
    ];
    let dram: Vec<u64> = run_specs_grid(&specs, &kinds, &cfg)
        .iter()
        .map(|outs| outs.iter().map(|o| o.result.stats.dram_requests).sum())
        .collect();
    let [base_dram, pmp, limit, bingo] = dram[..] else { unreachable!("one row per kind") };
    assert!(pmp > base_dram, "prefetching adds traffic");
    assert!(pmp > bingo, "PMP is the most aggressive (paper: 199.6% vs 164.2%)");
    assert!(limit < pmp, "PMP-Limit must cut traffic (paper: 159.0%)");
}

/// Section IV-E / CACTI argument stand-in: the dual-table structure is
/// dramatically smaller than Bingo's PHT.
#[test]
fn dual_tables_vs_bingo_pht() {
    use pmp_core::tables::{OffsetPatternTable, PcPatternTable};
    let dual_bits =
        OffsetPatternTable::new(6, 64, 5).storage_bits() + PcPatternTable::new(5, 64, 2, 5).storage_bits();
    // Bingo's 16K-entry PHT at 64b patterns alone:
    let bingo_pht_bits = 16 * 1024 * 64u64;
    assert!(bingo_pht_bits / dual_bits > 30, "paper: 151x smaller area, 30x+ fewer bits");
}

/// Table IX shape: PMP-16 loses performance but stays competitive, and
/// the storage budgets shrink as the paper reports.
#[test]
fn table_ix_storage_shrinks_with_pattern_length() {
    use pmp_core::{Pmp, PmpConfig};
    let kib = |len| Pmp::new(PmpConfig::with_pattern_length(len)).storage_bits() as f64 / 8192.0;
    let k64 = kib(64);
    let k32 = kib(32);
    let k16 = kib(16);
    assert!((4.2..4.4).contains(&k64), "{k64}");
    assert!((2.3..2.7).contains(&k32), "{k32}");
    assert!((1.4..1.8).contains(&k16), "{k16}");
}
