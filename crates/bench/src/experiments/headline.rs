//! Headline single-core experiments sharing one set of runs:
//! Fig. 8 (NIPC), Fig. 9 (coverage & accuracy), Fig. 10 (useful /
//! useless prefetches), and the Section V-D NMT analysis.

use crate::prefetchers::PrefetcherKind;
use crate::runner::{geo_mean, normalized_ipcs, run_specs_grid, RunConfig, RunOutcome};
use pmp_stats::metrics::{accuracy, coverage, nmt, PrefetchBreakdown};
use pmp_stats::Table;
use pmp_traces::{catalog, Suite, TraceScale};
use pmp_types::CacheLevel;

/// The shared run grid: baseline plus the five paper prefetchers
/// (plus PMP-Limit for the NMT analysis) over all 125 traces.
pub struct HeadlineRuns {
    /// Baseline (no prefetcher) outcomes, one per trace.
    pub base: Vec<RunOutcome>,
    /// (prefetcher label, outcomes) in Fig. 8 order + pmp-limit last.
    pub with: Vec<(String, Vec<RunOutcome>)>,
}

impl HeadlineRuns {
    /// Execute the grid: all seven kinds × 125 traces as one grid
    /// (each trace generated once, no per-kind barrier).
    pub fn execute(scale: TraceScale) -> Self {
        let specs = catalog();
        let cfg = RunConfig { scale, ..RunConfig::default() };
        let mut kinds = vec![PrefetcherKind::None];
        kinds.extend(PrefetcherKind::paper_five());
        kinds.push(PrefetcherKind::PmpLimit);
        let mut grids = run_specs_grid(&specs, &kinds, &cfg).into_iter();
        let base = grids.next().expect("baseline grid present");
        let with = kinds[1..].iter().map(PrefetcherKind::label).zip(grids).collect();
        HeadlineRuns { base, with }
    }

    /// Outcomes for one prefetcher label.
    pub fn outcomes(&self, label: &str) -> &[RunOutcome] {
        &self.with.iter().find(|(l, _)| l == label).expect("known prefetcher").1
    }
}

/// **Fig. 8** — normalized IPC per prefetcher: overall geomean plus
/// per-suite geomeans and the pairwise PMP advantage the paper quotes.
pub fn fig8(runs: &HeadlineRuns) -> String {
    let mut t = Table::new(&["prefetcher", "overall", "SPEC06", "SPEC17", "Ligra", "PARSEC", "max"]);
    let mut overall = Vec::new();
    for (label, outs) in runs.with.iter().filter(|(l, _)| l != "pmp-limit") {
        let (nipcs, g) = normalized_ipcs(&runs.base, outs);
        overall.push((label.clone(), g));
        let mut row = vec![label.clone(), super::f3(g)];
        for suite in Suite::ALL {
            let vals: Vec<f64> = nipcs
                .iter()
                .zip(&runs.base)
                .filter(|(_, b)| b.suite == suite)
                .map(|(n, _)| *n)
                .collect();
            row.push(super::f3(geo_mean(&vals)));
        }
        let max = nipcs.iter().cloned().fold(0.0f64, f64::max);
        row.push(super::f3(max));
        t.row_owned(row);
    }
    let pmp = overall.iter().find(|(l, _)| l == "pmp").expect("pmp ran").1;
    let mut vs = String::new();
    for (label, g) in &overall {
        if label != "pmp" {
            vs.push_str(&format!("  PMP vs {label}: {}\n", super::pct(pmp / g - 1.0)));
        }
    }
    format!(
        "Fig. 8: single-core normalized IPC (geomean over 125 traces)\n(paper: PMP +65.2% over baseline; beats DSPatch +41.3%, Bingo +2.6%, SPP+PPF +6.5%, Pythia +8.2%)\n\n{}\nPMP improvement over baseline: {}\n{}",
        t.render(),
        super::pct(pmp - 1.0),
        vs
    )
}

/// **Fig. 9** — prefetch coverage and accuracy per cache level,
/// averaged over traces (arithmetic mean of per-trace values, skipping
/// traces without the relevant events).
pub fn fig9(runs: &HeadlineRuns) -> String {
    let mut t = Table::new(&[
        "prefetcher",
        "cov L1D",
        "cov L2C",
        "cov LLC",
        "acc L1D",
        "acc L2C",
        "acc LLC",
    ]);
    for (label, outs) in runs.with.iter().filter(|(l, _)| l != "pmp-limit") {
        let mut row = vec![label.clone()];
        for level in CacheLevel::ALL {
            let vals: Vec<f64> = runs
                .base
                .iter()
                .zip(outs)
                .filter_map(|(b, w)| coverage(&b.result.stats, &w.result.stats, level))
                .collect();
            row.push(if vals.is_empty() {
                "-".into()
            } else {
                super::pct(vals.iter().sum::<f64>() / vals.len() as f64)
            });
        }
        for level in CacheLevel::ALL {
            let vals: Vec<f64> =
                outs.iter().filter_map(|w| accuracy(&w.result.stats, level)).collect();
            row.push(if vals.is_empty() {
                "-".into()
            } else {
                super::pct(vals.iter().sum::<f64>() / vals.len() as f64)
            });
        }
        t.row_owned(row);
    }
    format!(
        "Fig. 9: coverage and accuracy by cache level\n(paper: PMP leads L2C/LLC coverage; L1D accuracy high for PMP and Bingo; L2C/LLC accuracy lower for all — training is L1-side)\n\n{}",
        t.render()
    )
}

/// **Fig. 10** — average useful / useless prefetches per trace, by
/// fill level.
pub fn fig10(runs: &HeadlineRuns) -> String {
    let mut t = Table::new(&[
        "prefetcher",
        "L1D useful",
        "L1D useless",
        "L2C useful",
        "L2C useless",
        "LLC useful",
        "LLC useless",
    ]);
    for (label, outs) in runs.with.iter().filter(|(l, _)| l != "pmp-limit") {
        let n = outs.len() as f64;
        let mut sums = [[0u64; 2]; 3];
        for o in outs {
            let b = PrefetchBreakdown::of(&o.result.stats);
            for (l, s) in sums.iter_mut().enumerate() {
                s[0] += b.useful[l];
                s[1] += b.useless[l];
            }
        }
        let mut row = vec![label.clone()];
        for s in &sums {
            row.push(format!("{:.0}", s[0] as f64 / n));
            row.push(format!("{:.0}", s[1] as f64 / n));
        }
        t.row_owned(row);
    }
    format!(
        "Fig. 10: average useful and useless prefetches per trace, by fill level\n(paper: PMP restrains L1D pollution while prefetching speculatively into L2C/LLC)\n\n{}",
        t.render()
    )
}

/// **Section V-D** — Normalized Memory Traffic, including PMP-Limit.
pub fn nmt_report(runs: &HeadlineRuns) -> String {
    let mut t = Table::new(&["prefetcher", "NMT", "prefetches issued per trace"]);
    for (label, outs) in &runs.with {
        let vals: Vec<f64> = runs
            .base
            .iter()
            .zip(outs)
            .filter_map(|(b, w)| nmt(&b.result.stats, &w.result.stats))
            .collect();
        let mean_nmt = vals.iter().sum::<f64>() / vals.len().max(1) as f64;
        let issued: u64 = outs.iter().map(|o| o.result.stats.pf_issued).sum();
        t.row_owned(vec![
            label.clone(),
            super::pct(mean_nmt),
            format!("{:.0}", issued as f64 / outs.len() as f64),
        ]);
    }
    format!(
        "Section V-D: Normalized Memory Traffic\n(paper: SPP+PPF 129.0%, Pythia 139.1%, DSPatch 159.8%, Bingo 164.2%, PMP 199.6%; PMP-Limit 159.0%)\n\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_pipeline_at_tiny_scale() {
        // One shared grid exercises all four reports.
        let runs = HeadlineRuns::execute(TraceScale::Tiny);
        let f8 = fig8(&runs);
        assert!(f8.contains("PMP vs bingo"));
        let f9 = fig9(&runs);
        assert!(f9.contains("cov L2C"));
        let f10 = fig10(&runs);
        assert!(f10.contains("L1D useless"));
        let n = nmt_report(&runs);
        assert!(n.contains("pmp-limit"));
    }
}
