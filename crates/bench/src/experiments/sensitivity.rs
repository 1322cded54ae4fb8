//! Sensitivity studies: DRAM bandwidth (Fig. 12a) and LLC size
//! (Fig. 12b).

use crate::prefetchers::PrefetcherKind;
use crate::runner::{normalized_ipcs, run_specs_grid, RunConfig};
use pmp_sim::SystemConfig;
use pmp_stats::report::{render_series, Series};
use pmp_traces::{representative_subset, TraceScale};

/// Baseline + paper-five over `specs` as one grid for one
/// system-config point; returns (baseline outcomes, per-kind outcomes
/// in `paper_five` order).
fn point_grids(
    specs: &[pmp_traces::TraceSpec],
    cfg: &RunConfig,
) -> (Vec<crate::runner::RunOutcome>, Vec<Vec<crate::runner::RunOutcome>>) {
    let mut kinds = vec![PrefetcherKind::None];
    kinds.extend(PrefetcherKind::paper_five());
    let mut grids = run_specs_grid(specs, &kinds, cfg).into_iter();
    let base = grids.next().expect("baseline grid present");
    (base, grids.collect())
}

/// **Fig. 12a** — five prefetchers under 800/1600/3200/6400 MT/s.
///
/// Expected shape: PMP's aggressive traffic makes it bandwidth-hungry —
/// it trails at 800 MT/s (except vs DSPatch) and leads from 1600 MT/s
/// up, saturating near 3200 MT/s.
pub fn fig12a_bandwidth(scale: TraceScale) -> String {
    let specs = representative_subset();
    let mut series: Vec<Series> =
        PrefetcherKind::paper_five().iter().map(|k| Series::new(&k.label())).collect();
    for mts in [800u64, 1600, 3200, 6400] {
        let cfg = RunConfig {
            scale,
            system: SystemConfig::single_core().with_dram_mts(mts),
            ..RunConfig::default()
        };
        let (base, withs) = point_grids(&specs, &cfg);
        for (si, with) in withs.iter().enumerate() {
            let (_, g) = normalized_ipcs(&base, with);
            series[si].push(format!("{mts} MT/s"), g);
        }
    }
    format!(
        "Fig. 12a: NIPC vs DRAM bandwidth\n(paper: PMP trails slightly at 800 MT/s, leads at ≥1600, near peak by 3200)\n\n{}",
        render_series("bandwidth", &series)
    )
}

/// **Fig. 12b** — five prefetchers under 2/4/8 MB LLCs.
///
/// Expected shape: PMP's lead over Bingo widens with LLC size (useless
/// prefetches pollute less).
pub fn fig12b_llc(scale: TraceScale) -> String {
    let specs = representative_subset();
    let mut series: Vec<Series> =
        PrefetcherKind::paper_five().iter().map(|k| Series::new(&k.label())).collect();
    for mb in [2usize, 4, 8] {
        let cfg = RunConfig {
            scale,
            system: SystemConfig::single_core().with_llc_mb(mb),
            ..RunConfig::default()
        };
        let (base, withs) = point_grids(&specs, &cfg);
        for (si, with) in withs.iter().enumerate() {
            let (_, g) = normalized_ipcs(&base, with);
            series[si].push(format!("{mb}MB"), g);
        }
    }
    format!(
        "Fig. 12b: NIPC vs LLC size\n(paper: PMP leads at every size; the PMP-Bingo gap grows with the LLC)\n\n{}",
        render_series("LLC", &series)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig12b_tiny() {
        let s = fig12b_llc(TraceScale::Tiny);
        assert!(s.contains("2MB"));
        assert!(s.contains("8MB"));
        assert!(s.contains("pmp"));
    }
}
