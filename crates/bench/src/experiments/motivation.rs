//! Motivation-section experiments: Table I, Fig. 2, Fig. 4, Fig. 5.

use pmp_analysis::collision::{redundancy, table_i};
use pmp_analysis::features::Feature;
use pmp_analysis::frequency::FrequencyCensus;
use pmp_analysis::heatmap::HeatMap;
use pmp_analysis::icdd::average_icdd;
use pmp_analysis::capture_patterns;
use pmp_core::capture::CapturedPattern;
use pmp_stats::Table;
use pmp_traces::{catalog, TraceScale, TraceSpec};
use pmp_types::RegionGeometry;

use crate::runner::parallel_map;

fn all_patterns(specs: &[TraceSpec], scale: TraceScale) -> Vec<CapturedPattern> {
    parallel_map(specs, |spec| capture_patterns(&spec.build(scale)))
        .into_iter()
        .flatten()
        .collect()
}

/// **Table I** — average Pattern Collision Rate and Pattern Duplicate
/// Rate for the five indexing features, over all 125 traces.
///
/// Expected shape (paper): fine features (Address, PC+Address) have
/// PCR near 1 but high PDR; coarse features (PC, Trigger Offset) the
/// reverse. Also reports the Bingo-style redundancy fraction the paper
/// quotes as 82.9% for PC+Address.
pub fn tab1_pcr_pdr(scale: TraceScale) -> String {
    let specs = catalog();
    let geom = RegionGeometry::default();
    let patterns = all_patterns(&specs, scale);
    let mut t = Table::new(&["Feature", "bits", "PCR", "PDR", "redundant entries"]);
    for s in table_i(&patterns, geom) {
        let red = redundancy(&patterns, s.feature, geom);
        t.row_owned(vec![
            s.feature.name().into(),
            s.feature.bits().to_string(),
            format!("{:.1}", s.pcr),
            format!("{:.1}", s.pdr),
            super::pct(red),
        ]);
    }
    format!(
        "Table I: Average Pattern Collision/Duplicate Rates ({} patterns from {} traces)\n\n{}",
        patterns.len(),
        specs.len(),
        t.render()
    )
}

/// **Fig. 2 / Observation 1** — the pattern-occurrence census: top-k
/// occurrence shares and the singleton fraction.
pub fn fig2_top_patterns(scale: TraceScale) -> String {
    let specs = catalog();
    let patterns = all_patterns(&specs, scale);
    let census = FrequencyCensus::new(&patterns);
    let mut t = Table::new(&["metric", "value"]);
    t.row_owned(vec!["total occurrences".into(), census.total_occurrences.to_string()]);
    t.row_owned(vec!["distinct patterns".into(), census.distinct.to_string()]);
    t.row_owned(vec![
        "distinct appearing once".into(),
        super::pct(census.singleton_fraction),
    ]);
    for k in [1usize, 10, 100, 1000] {
        t.row_owned(vec![format!("top-{k} share"), super::pct(census.top_share(k))]);
    }
    format!(
        "Fig. 2 / Observation 1: pattern occurrence census\n(paper: top-10 = 33.1%, top-100 = 57.4%, top-1000 = 73.8%, singletons = 75.6%)\n\n{}",
        t.render()
    )
}

/// **Fig. 4 / Observation 3** — average ICDD per feature, summarised
/// over the 125 traces (mean / median / quartiles of the per-trace
/// average ICDDs, i.e. the box plot's numbers).
pub fn fig4_icdd(scale: TraceScale) -> String {
    let specs = catalog();
    let per_trace: Vec<Vec<f64>> = parallel_map(&specs, |spec| {
        let pats = capture_patterns(&spec.build(scale));
        Feature::ALL.iter().map(|f| average_icdd(&pats, *f)).collect()
    });
    let mut t = Table::new(&["Feature", "mean", "p25", "median", "p75"]);
    for (fi, f) in Feature::ALL.iter().enumerate() {
        let mut vals: Vec<f64> = per_trace.iter().map(|v| v[fi]).collect();
        vals.sort_by(|a, b| a.partial_cmp(b).expect("finite ICDD"));
        let n = vals.len();
        let mean = vals.iter().sum::<f64>() / n as f64;
        t.row_owned(vec![
            f.name().into(),
            super::f3(mean),
            super::f3(vals[n / 4]),
            super::f3(vals[n / 2]),
            super::f3(vals[3 * n / 4]),
        ]);
    }
    format!(
        "Fig. 4 / Observation 3: per-feature average ICDD over 125 traces\n(paper: Trigger Offset clusters are the most similar)\n\n{}",
        t.render()
    )
}

/// **Fig. 5** — pattern heat maps for an MCF-like and an Astar-like
/// trace under Trigger Offset / PC+Address / PC indexing, rendered as
/// ASCII, plus the diagonal-band mass that quantifies the "slash"
/// structure.
pub fn fig5_heatmaps(scale: TraceScale) -> String {
    let geom = RegionGeometry::default();
    let mut out = String::new();
    for (trace_name, features) in [
        ("spec06.mcf_2", vec![Feature::TriggerOffset, Feature::PcAddress, Feature::Pc]),
        ("spec06.astar_0", vec![Feature::TriggerOffset]),
    ] {
        let spec = pmp_traces::trace_named(trace_name).expect("catalog trace");
        let pats = capture_patterns(&spec.build(scale));
        for f in features {
            let hm = HeatMap::new(&pats, f, geom);
            out.push_str(&format!(
                "--- {} indexed by {} (diagonal band mass ±3: {}) ---\n{}\n",
                trace_name,
                f.name(),
                super::pct(hm.diagonal_band_mass(3)),
                hm.render()
            ));
        }
    }
    format!("Fig. 5: pattern heat maps (x = region offset, y = 6-bit feature value)\n\n{out}")
}

/// **Per-suite motivation breakdown** (extends Figs. 2/4): the pattern
/// census and feature-clustering quality per workload family, showing
/// *where* Observations 1 and 3 come from.
pub fn per_suite(scale: TraceScale) -> String {
    use pmp_traces::Suite;
    let mut t = Table::new(&[
        "suite",
        "patterns",
        "distinct",
        "top-10 share",
        "ICDD trig",
        "ICDD PC",
        "ICDD addr",
    ]);
    for suite in Suite::ALL {
        let specs = pmp_traces::catalog_for(suite);
        let patterns = all_patterns(&specs, scale);
        let census = FrequencyCensus::new(&patterns);
        let icdd = |f: Feature| average_icdd(&patterns, f);
        t.row_owned(vec![
            suite.to_string(),
            census.total_occurrences.to_string(),
            census.distinct.to_string(),
            super::pct(census.top_share(10)),
            format!("{:.2}", icdd(Feature::TriggerOffset)),
            format!("{:.2}", icdd(Feature::Pc)),
            format!("{:.2}", icdd(Feature::Address)),
        ]);
    }
    format!(
        "Per-suite motivation breakdown (Observations 1 and 3 by family)\n\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tab1_runs_at_tiny_scale() {
        let s = tab1_pcr_pdr(TraceScale::Tiny);
        assert!(s.contains("Trigger Offset"));
        assert!(s.contains("PC+Address"));
    }

    #[test]
    fn fig2_runs_at_tiny_scale() {
        let s = fig2_top_patterns(TraceScale::Tiny);
        assert!(s.contains("top-10 share"));
    }

    #[test]
    fn per_suite_runs_at_tiny_scale() {
        let s = per_suite(TraceScale::Tiny);
        assert!(s.contains("SPEC06"));
        assert!(s.contains("PARSEC"));
        assert!(s.contains("ICDD trig"));
    }

    #[test]
    fn fig5_runs_at_tiny_scale() {
        let s = fig5_heatmaps(TraceScale::Tiny);
        assert!(s.contains("diagonal band mass"));
        assert!(s.contains("spec06.astar_0"));
    }
}
