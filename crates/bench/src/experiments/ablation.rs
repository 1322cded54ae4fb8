//! Design-analysis experiments (paper Section V-E): Design B
//! (Table VIII), extraction schemes, multi-feature prediction,
//! pattern length (Table IX), trigger-offset width and counter size
//! (Table X), monitoring range (Table XI).

use crate::prefetchers::PrefetcherKind;
use crate::runner::{normalized_ipcs, run_specs_grid, RunConfig};
use pmp_core::{ExtractionScheme, PmpConfig};
use pmp_core::pmp::TableMode;
use pmp_stats::Table;
use pmp_traces::{representative_subset, TraceScale, TraceSpec};

fn sweep_config() -> Vec<TraceSpec> {
    representative_subset()
}

/// One grid over `[baseline] + kinds`: the baseline
/// outcomes first, then one outcome set per requested kind.
fn baseline_and(
    specs: &[TraceSpec],
    kinds: Vec<PrefetcherKind>,
    cfg: &RunConfig,
) -> (Vec<crate::runner::RunOutcome>, Vec<Vec<crate::runner::RunOutcome>>) {
    let mut all = vec![PrefetcherKind::None];
    all.extend(kinds);
    let mut grids = run_specs_grid(specs, &all, cfg).into_iter();
    let base = grids.next().expect("baseline grid present");
    (base, grids.collect())
}

/// Run several PMP variants against one shared baseline — the whole
/// `(1 + variants) × specs` product as one grid.
fn pmp_variants(
    specs: &[TraceSpec],
    cfg: &RunConfig,
    variants: &[(String, PmpConfig)],
) -> Vec<(String, f64)> {
    let kinds: Vec<PrefetcherKind> = variants
        .iter()
        .map(|(_, c)| PrefetcherKind::PmpCustom(Box::new(c.clone())))
        .collect();
    let (base, withs) = baseline_and(specs, kinds, cfg);
    variants
        .iter()
        .zip(withs)
        .map(|((label, _), with)| (label.clone(), normalized_ipcs(&base, &with).1))
        .collect()
}

/// **Table VIII** — Design B NIPC versus associativity, plus PMP for
/// reference. The paper's point: even 512 ways of identical-pattern
/// counting lose to counter-vector merging.
pub fn tab8_design_b(scale: TraceScale) -> String {
    let specs = sweep_config();
    let cfg = RunConfig { scale, ..RunConfig::default() };
    let mut kinds: Vec<PrefetcherKind> =
        [8usize, 32, 128, 512].iter().map(|&w| PrefetcherKind::DesignB(w)).collect();
    kinds.push(PrefetcherKind::Pmp);
    let (base, withs) = baseline_and(&specs, kinds.clone(), &cfg);
    let mut t = Table::new(&["design", "ways", "NIPC", "storage KiB"]);
    for (kind, with) in kinds.iter().zip(withs) {
        let (_, g) = normalized_ipcs(&base, &with);
        let kib = kind.build().storage_bits() as f64 / 8.0 / 1024.0;
        let (design, ways) = match kind {
            PrefetcherKind::DesignB(w) => ("Design B".to_string(), w.to_string()),
            _ => ("PMP".to_string(), "-".to_string()),
        };
        t.row_owned(vec![design, ways, super::f3(g), format!("{kib:.1}")]);
    }
    format!(
        "Table VIII: Design B (identical-pattern counting) vs associativity\n(paper: NIPC grows with ways — 1.176/1.188/1.215/1.224 — but PMP beats 512-way by 34.9%)\n\n{}",
        t.render()
    )
}

/// **Section V-E2** — the three extraction schemes. Paper: AFE 65.2%
/// over baseline, ANE 60.3%, ARE only 5.0% (depth-capped).
pub fn ext_schemes(scale: TraceScale) -> String {
    let specs = sweep_config();
    let cfg = RunConfig { scale, ..RunConfig::default() };
    let variants = vec![
        (
            "AFE (default)".to_string(),
            PmpConfig { scheme: ExtractionScheme::default(), ..PmpConfig::default() },
        ),
        (
            "ANE (16/5)".to_string(),
            PmpConfig { scheme: ExtractionScheme::ane_default(), ..PmpConfig::default() },
        ),
        (
            "ARE (50%/15%)".to_string(),
            PmpConfig { scheme: ExtractionScheme::are_default(), ..PmpConfig::default() },
        ),
    ];
    let results = pmp_variants(&specs, &cfg, &variants);
    let mut t = Table::new(&["scheme", "NIPC"]);
    for (label, g) in results {
        t.row_owned(vec![label, super::f3(g)]);
    }
    format!(
        "Section V-E2: prefetch pattern extraction schemes\n(paper: AFE > ANE (−2.9%) ≫ ARE, which starves stream patterns)\n\n{}",
        t.render()
    )
}

/// **Section V-E3** — multi-feature prediction: the dual pattern
/// tables vs the combined PC+TriggerOffset feature vs single tables.
pub fn mfp_ablation(scale: TraceScale) -> String {
    let specs = sweep_config();
    let cfg = RunConfig { scale, ..RunConfig::default() };
    let variants = vec![
        ("dual tables (OPT+PPT)".to_string(), PmpConfig::default()),
        (
            "combined PC+TriggerOffset (2048 entries)".to_string(),
            PmpConfig { table_mode: TableMode::Combined, ..PmpConfig::default() },
        ),
        (
            "single OPT".to_string(),
            PmpConfig { table_mode: TableMode::OptOnly, ..PmpConfig::default() },
        ),
        (
            "single PPT (OPT-sized)".to_string(),
            PmpConfig { table_mode: TableMode::PptOnly, ..PmpConfig::default() },
        ),
    ];
    let results = pmp_variants(&specs, &cfg, &variants);
    let mut t = Table::new(&["configuration", "NIPC"]);
    for (label, g) in results {
        t.row_owned(vec![label, super::f3(g)]);
    }
    format!(
        "Section V-E3: multi-feature-based prediction ablation\n(paper: dual tables win; combined −3.1%, single OPT −2.4%, single PPT −3.5%)\n\n{}",
        t.render()
    )
}

/// **Table IX** — pattern length 64/32/16 (region 4KB/2KB/1KB) with
/// storage budgets.
pub fn tab9_pattern_len(scale: TraceScale) -> String {
    let specs = sweep_config();
    let cfg = RunConfig { scale, ..RunConfig::default() };
    let variants: Vec<(String, PmpConfig)> = [64u32, 32, 16]
        .iter()
        .map(|&len| (format!("PMP-{len}"), PmpConfig::with_pattern_length(len)))
        .collect();
    let results = pmp_variants(&specs, &cfg, &variants);
    let mut t = Table::new(&["config", "region", "overhead KiB", "NIPC"]);
    for ((label, g), len) in results.into_iter().zip([64u32, 32, 16]) {
        let kib = PrefetcherKind::PmpCustom(Box::new(PmpConfig::with_pattern_length(len)))
            .build()
            .storage_bits() as f64
            / 8.0
            / 1024.0;
        t.row_owned(vec![
            label,
            format!("{}KB", len * 64 / 1024),
            format!("{kib:.1}"),
            super::f3(g),
        ]);
    }
    format!(
        "Table IX: PMP under different pattern lengths\n(paper: 1.652 / 1.626 / 1.572 at 4.3 / 2.5 / 1.6 KB — shorter patterns fold and lose accuracy)\n\n{}",
        t.render()
    )
}

/// **Table X** — trigger-offset width (6..=12 bits) and OPT counter
/// size (2..=8 bits) sweeps.
pub fn tab10_width_counter(scale: TraceScale) -> String {
    let specs = sweep_config();
    let cfg = RunConfig { scale, ..RunConfig::default() };
    let width_variants: Vec<(String, PmpConfig)> = (6u32..=12)
        .map(|b| {
            (format!("{b}-bit trigger offset"), PmpConfig { trigger_offset_bits: b, ..PmpConfig::default() })
        })
        .collect();
    let counter_variants: Vec<(String, PmpConfig)> = (2u32..=8)
        .map(|b| (format!("{b}-bit counters"), PmpConfig { opt_counter_bits: b, ..PmpConfig::default() }))
        .collect();
    let widths = pmp_variants(&specs, &cfg, &width_variants);
    let counters = pmp_variants(&specs, &cfg, &counter_variants);
    let mut t = Table::new(&["trigger offset width", "NIPC", "counter size", "NIPC "]);
    for i in 0..7 {
        t.row_owned(vec![
            width_variants[i].0.clone(),
            super::f3(widths[i].1),
            counter_variants[i].0.clone(),
            super::f3(counters[i].1),
        ]);
    }
    format!(
        "Table X: trigger-offset width and counter size\n(paper: both rise then saturate; 12-bit offsets cost 64x storage for +0.4% NIPC)\n\n{}",
        t.render()
    )
}

/// **Table XI** — monitoring range 1/2/4/8.
pub fn tab11_monitor_range(scale: TraceScale) -> String {
    let specs = sweep_config();
    let cfg = RunConfig { scale, ..RunConfig::default() };
    let variants: Vec<(String, PmpConfig)> = [1u32, 2, 4, 8]
        .iter()
        .map(|&r| {
            (format!("range {r}"), PmpConfig { monitoring_range: r, ..PmpConfig::default() })
        })
        .collect();
    let results = pmp_variants(&specs, &cfg, &variants);
    let mut t = Table::new(&["monitoring range", "NIPC", "PPT bytes"]);
    for ((label, g), r) in results.into_iter().zip([1u32, 2, 4, 8]) {
        let ppt_bytes = pmp_core::tables::PcPatternTable::new(5, 64, r, 5).storage_bits() / 8;
        t.row_owned(vec![label, super::f3(g), ppt_bytes.to_string()]);
    }
    format!(
        "Table XI: PPT monitoring range\n(paper: 1.650 / 1.652 / 1.630 / 1.615 — range 2 is the knee)\n\n{}",
        t.render()
    )
}

/// **Placement study** (Section V-B's aside): "PMP (at L1) outperforms
/// the original Bingo at LLC by 16.5%" — heavyweight prefetchers are
/// realistic only at outer levels, where they see less and help less.
pub fn placement(scale: TraceScale) -> String {
    let specs = sweep_config();
    let cfg = RunConfig { scale, ..RunConfig::default() };
    let kinds = vec![PrefetcherKind::Pmp, PrefetcherKind::Bingo, PrefetcherKind::BingoAtLlc];
    let (base, withs) = baseline_and(&specs, kinds.clone(), &cfg);
    let mut t = Table::new(&["configuration", "NIPC"]);
    let mut results = Vec::new();
    for (kind, outs) in kinds.iter().zip(withs) {
        let (_, g) = normalized_ipcs(&base, &outs);
        results.push((kind.label(), g));
        t.row_owned(vec![kind.label(), super::f3(g)]);
    }
    let pmp = results[0].1;
    let bingo_llc = results[2].1;
    format!(
        "Placement study (Section V-B): PMP at L1 vs Bingo at its realistic LLC placement\n(paper: PMP-at-L1 beats Bingo-at-LLC by 16.5%)\n\n{}\nPMP-at-L1 vs Bingo-at-LLC: {}\n",
        t.render(),
        super::pct(pmp / bingo_llc - 1.0)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ext_schemes_tiny() {
        let s = ext_schemes(TraceScale::Tiny);
        assert!(s.contains("AFE"));
        assert!(s.contains("ARE"));
    }

    #[test]
    fn tab11_tiny() {
        let s = tab11_monitor_range(TraceScale::Tiny);
        assert!(s.contains("range 2"));
        assert!(s.contains("640")); // default PPT bytes
    }
}
