//! Fig. 13 — 4-core performance on homogeneous and heterogeneous
//! multi-programmed workloads (Table VII mixes).
//!
//! Every 4-core mix is one [`CellSpec::Mix`] grid cell behind the full
//! robustness boundary: validated, panic-isolated, watchdogged, and
//! journaled per core — so an interrupted Fig. 13 sweep resumes with
//! `--resume` exactly like the single-core figures.

use crate::prefetchers::PrefetcherKind;
use crate::runner::{geo_mean, run_grid, CellSpec, MixCell, RunConfig, RunOutcome};
use pmp_sim::{SimStats, SystemConfig};
use pmp_stats::Table;
use pmp_traces::mix::{table_vii_mixes, MixSpec, MpkiClass};
use pmp_traces::{catalog, TraceSpec};
use pmp_types::HarnessError;
use std::collections::HashMap;

/// Number of homogeneous workloads sampled from the 125 traces (a
/// subset keeps the 4-core grid tractable; `PMP_SCALE` and this knob
/// trade fidelity for time).
const HOMOGENEOUS_SAMPLES: usize = 25;
/// Heterogeneous mixes evaluated per Table VII kind.
const HETERO_PER_KIND: usize = 3;
/// The six Table VII mix compositions.
const MIX_KINDS: [&str; 6] = [
    "all-low",
    "all-medium",
    "all-high",
    "half-low-half-medium",
    "half-low-half-high",
    "half-medium-half-high",
];

/// Resolve a Table VII mix (four catalog trace names) into a runnable
/// [`MixCell`].
///
/// # Errors
///
/// Returns [`HarnessError::InvalidConfig`] when a mix references a
/// trace name missing from the catalog — a mix-generation bug degrades
/// to one reported gap instead of panicking the sweep.
fn mix_cell(
    by_name: &HashMap<String, &TraceSpec>,
    name: String,
    traces: &[String; 4],
) -> Result<MixCell, HarnessError> {
    let resolve = |trace: &String| -> Result<TraceSpec, HarnessError> {
        by_name.get(trace).map(|s| (*s).clone()).ok_or_else(|| {
            HarnessError::invalid(
                format!("mix '{name}'"),
                format!("trace '{trace}' is not in the catalog"),
            )
        })
    };
    let specs = [
        resolve(&traces[0])?,
        resolve(&traces[1])?,
        resolve(&traces[2])?,
        resolve(&traces[3])?,
    ];
    Ok(MixCell { name, specs })
}

/// Classify the catalog by single-core baseline LLC MPKI (the paper's
/// Table VII procedure), run under `base`.
///
/// Runs through the checked grid path: a broken trace costs its own
/// classification (it is simply absent from the result), not the sweep.
pub fn classify_catalog(base: &RunConfig) -> Vec<(String, MpkiClass)> {
    let cells: Vec<CellSpec> = catalog().into_iter().map(CellSpec::Synthetic).collect();
    let (outs, summary) = run_grid(&cells, &[PrefetcherKind::None], base);
    if !summary.is_clean() {
        eprintln!("classify_catalog: {}", summary.report());
    }
    outs.into_iter()
        .map(|o| {
            let class = MpkiClass::of(o.result.stats.llc_mpki());
            (o.trace, class)
        })
        .collect()
}

/// Geometric mean of a mix outcome's per-core IPCs (normalisation
/// happens against the baseline run of the same mix).
fn mix_ipc(outcome: &RunOutcome) -> f64 {
    let ipcs: Vec<f64> = outcome.per_core.iter().map(SimStats::ipc).collect();
    geo_mean(&ipcs)
}

/// **Fig. 13** — multi-core NIPC for the five prefetchers plus
/// PMP-Limit, on homogeneous workloads and Table VII mixes.
pub fn fig13(base: &RunConfig) -> String {
    let all = catalog();
    let by_name: HashMap<String, &TraceSpec> =
        all.iter().map(|s| (s.name.clone(), s)).collect();

    // Homogeneous: every sampled trace on all four cores.
    let mut cells: Vec<CellSpec> = Vec::new();
    let mut homo_names: Vec<String> = Vec::new();
    for spec in all
        .iter()
        .step_by((all.len() / HOMOGENEOUS_SAMPLES).max(1))
        .take(HOMOGENEOUS_SAMPLES)
    {
        let mix = MixCell::homogeneous(spec);
        homo_names.push(mix.name.clone());
        cells.push(CellSpec::Mix(Box::new(mix)));
    }

    // Heterogeneous: Table VII mixes from the MPKI classification.
    let classified = classify_catalog(base);
    let mixes: Vec<MixSpec> = table_vii_mixes(&classified, 2022);
    let mut hetero_names: Vec<String> = Vec::new();
    for kind in MIX_KINDS {
        for (i, m) in mixes.iter().filter(|m| m.kind == kind).take(HETERO_PER_KIND).enumerate()
        {
            match mix_cell(&by_name, format!("{kind}/{i}"), &m.traces) {
                Ok(mix) => {
                    hetero_names.push(mix.name.clone());
                    cells.push(CellSpec::Mix(Box::new(mix)));
                }
                Err(e) => eprintln!("fig13: skipped mix: {e}"),
            }
        }
    }

    let mut kinds = vec![PrefetcherKind::None];
    kinds.extend(PrefetcherKind::paper_five());
    kinds.push(PrefetcherKind::PmpLimit);

    let cfg = RunConfig { system: SystemConfig::quad_core(), ..base.clone() };
    let (outs, summary) = run_grid(&cells, &kinds, &cfg);
    let by_cell: HashMap<(&str, &str), &RunOutcome> =
        outs.iter().map(|o| ((o.prefetcher.as_str(), o.trace.as_str()), o)).collect();

    // NIPC of one mix under one prefetcher, None when either run failed
    // (the gap is already in the sweep summary).
    let baseline = PrefetcherKind::None.label();
    let nipc = |label: &str, mix: &String| -> Option<f64> {
        let with = by_cell.get(&(label, mix.as_str()))?;
        let base = by_cell.get(&(baseline.as_str(), mix.as_str()))?;
        Some(mix_ipc(with) / mix_ipc(base).max(1e-12))
    };

    let mut t = Table::new(&["prefetcher", "homogeneous", "heterogeneous", "overall"]);
    for kind in kinds.iter().skip(1) {
        let label = kind.label();
        let homo: Vec<f64> = homo_names.iter().filter_map(|m| nipc(&label, m)).collect();
        let het: Vec<f64> = hetero_names.iter().filter_map(|m| nipc(&label, m)).collect();
        let both: Vec<f64> = homo.iter().chain(het.iter()).copied().collect();
        t.row_owned(vec![
            kind.label(),
            super::f3(geo_mean(&homo)),
            super::f3(geo_mean(&het)),
            super::f3(geo_mean(&both)),
        ]);
    }
    let mut out = format!(
        "Fig. 13: 4-core performance ({} homogeneous workloads, {} Table-VII mixes)\n(paper: PMP beats DSPatch +39.6%, SPP+PPF +7.3%, Pythia +6.9%; matches Bingo; PMP-Limit +1% over Bingo)\n\n{}",
        homo_names.len(),
        hetero_names.len(),
        t.render()
    );
    if !summary.is_clean() || summary.resumed > 0 {
        out.push('\n');
        out.push_str(&summary.report());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_cell;
    use pmp_traces::TraceScale;

    #[test]
    fn classification_covers_catalog() {
        let c = classify_catalog(&RunConfig { scale: TraceScale::Tiny, ..RunConfig::default() });
        assert_eq!(c.len(), 125);
    }

    #[test]
    fn one_mix_runs() {
        let all = catalog();
        let by_name: HashMap<String, &TraceSpec> =
            all.iter().map(|s| (s.name.clone(), s)).collect();
        let names: [String; 4] = std::array::from_fn(|i| all[i * 3].name.clone());
        let mix = mix_cell(&by_name, "test/0".into(), &names).expect("catalog names resolve");
        let cfg = RunConfig {
            scale: TraceScale::Tiny,
            system: SystemConfig::quad_core(),
            ..RunConfig::default()
        };
        let mix = CellSpec::Mix(Box::new(mix));
        let base = run_cell(&mix, &PrefetcherKind::None, &cfg).expect("baseline mix");
        let with = run_cell(&mix, &PrefetcherKind::Pmp, &cfg).expect("pmp mix");
        let nipc = mix_ipc(&with) / mix_ipc(&base);
        assert!(mix_ipc(&base) > 0.0);
        assert!(nipc > 0.1, "nipc = {nipc}");
    }

    #[test]
    fn unknown_mix_trace_is_a_typed_error() {
        let by_name: HashMap<String, &TraceSpec> = HashMap::new();
        let names: [String; 4] = std::array::from_fn(|i| format!("ghost_{i}"));
        let err = mix_cell(&by_name, "bad/0".into(), &names).expect_err("must not resolve");
        assert_eq!(err.kind_tag(), "invalid-config");
        assert!(err.to_string().contains("ghost_0"), "{err}");
    }
}
