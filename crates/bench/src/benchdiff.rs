//! Comparing `BENCH_*.json` trajectory files for regressions.
//!
//! Both bodies are read with [`pmp_types::json`]. Every numeric member
//! named by the chosen [`MetricSet`] (`ops_per_sec` / `cells_per_sec`
//! for throughput) becomes a `(label, metric, value)` triple, labelled
//! by the `name` (or, in attribution documents, `origin`) of the
//! nearest enclosing object that has one. Layout does not matter: a
//! compact, pretty or re-indented rendering of the same document
//! yields the same triples. Each shared metric is then classified as
//! regressed, improved, or steady against a relative threshold —
//! higher is always better for the extracted metrics, so a regression
//! is `new < old * (1 - threshold)`.
//!
//! A body that is not JSON, or a baseline with no metric of the set,
//! makes the comparison fail ([`BenchDiff::errors`]) rather than pass
//! with nothing compared.

use pmp_types::json::{self, Json};
use std::fmt::Write as _;

/// Which metric family to extract and compare (higher is better for
/// every field of both).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetricSet {
    /// Throughput fields from `BENCH_*.json` (`ops_per_sec`,
    /// `cells_per_sec`) — the perf-trajectory gate.
    #[default]
    Throughput,
    /// Decision-quality fields from `pf_attrib.json`, written by
    /// `obs_report` (`ipc`, `accuracy`, `timeliness`, `coverage`),
    /// including per-origin rows labelled by their `"origin"` field.
    /// Origins churn as the prefetcher learns, so this set is meant
    /// for `--report-only` visibility, not a hard gate.
    Decision,
}

impl MetricSet {
    fn keys(self) -> &'static [&'static str] {
        match self {
            MetricSet::Throughput => &["ops_per_sec", "cells_per_sec"],
            MetricSet::Decision => &["ipc", "accuracy", "timeliness", "coverage"],
        }
    }
}

/// One extracted sample: `label` is the `name` or `origin` of the
/// nearest enclosing object that has one (empty for top-level
/// aggregates).
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// `label/field` identity, e.g. `"demand_walk/ops_per_sec"`.
    pub key: String,
    /// The measured value.
    pub value: f64,
}

/// Pull every labelled metric of `set` out of a JSON body, in
/// document order.
///
/// # Errors
///
/// The reader's message when `body` is not JSON.
pub fn extract_metrics_for(body: &str, set: MetricSet) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    collect(&json::parse(body)?, "", set.keys(), &mut out);
    Ok(out)
}

fn collect(value: &Json, label: &str, fields: &[&str], out: &mut Vec<Metric>) {
    match value {
        Json::Arr(items) => items.iter().for_each(|item| collect(item, label, fields, out)),
        Json::Obj(members) => {
            let label = ["name", "origin"]
                .iter()
                .find_map(|k| value.get(k).and_then(Json::as_str))
                .unwrap_or(label);
            for (field, child) in members {
                match child.number() {
                    Some(value) if fields.contains(&field.as_str()) => {
                        let key = match label {
                            "" => field.clone(),
                            _ => format!("{label}/{field}"),
                        };
                        out.push(Metric { key, value });
                    }
                    _ => collect(child, label, fields, out),
                }
            }
        }
        _ => {}
    }
}

/// One compared metric.
#[derive(Debug, Clone)]
pub struct DiffLine {
    /// `label/field` identity.
    pub key: String,
    /// Baseline value.
    pub old: f64,
    /// Current value.
    pub new: f64,
    /// `new / old` (∞ when the baseline is 0).
    pub ratio: f64,
    /// Past the regression threshold.
    pub regressed: bool,
}

/// Full comparison of two `BENCH_*.json` bodies.
#[derive(Debug, Default)]
pub struct BenchDiff {
    /// Metrics present in both files.
    pub compared: Vec<DiffLine>,
    /// Keys only in the baseline (removed by the new run).
    pub removed: Vec<String>,
    /// Keys only in the new file.
    pub added: Vec<String>,
    /// Why no comparison could be made: a body that is not JSON, or a
    /// baseline without a single metric of the set. Empty on success.
    pub errors: Vec<String>,
}

impl BenchDiff {
    /// Compare `old_body` to `new_body` with a relative regression
    /// `threshold` (0.10 = flag a >10% throughput drop).
    pub fn compare(old_body: &str, new_body: &str, threshold: f64) -> BenchDiff {
        Self::compare_for(old_body, new_body, threshold, MetricSet::Throughput)
    }

    /// [`BenchDiff::compare`] over an explicit [`MetricSet`].
    pub fn compare_for(
        old_body: &str,
        new_body: &str,
        threshold: f64,
        set: MetricSet,
    ) -> BenchDiff {
        let mut diff = BenchDiff::default();
        let mut read = |side: &str, body: &str| {
            extract_metrics_for(body, set)
                .map_err(|e| diff.errors.push(format!("{side} is not JSON: {e}")))
                .unwrap_or_default()
        };
        let (old, new) = (read("baseline", old_body), read("new run", new_body));
        if old.is_empty() && diff.errors.is_empty() {
            diff.errors.push(format!("baseline has no {} metric", set.keys().join("/")));
        }
        if !diff.errors.is_empty() {
            return diff;
        }
        for o in &old {
            match new.iter().find(|n| n.key == o.key) {
                Some(n) => {
                    let ratio = if o.value == 0.0 { f64::INFINITY } else { n.value / o.value };
                    diff.compared.push(DiffLine {
                        key: o.key.clone(),
                        old: o.value,
                        new: n.value,
                        ratio,
                        regressed: ratio < 1.0 - threshold,
                    });
                }
                None => diff.removed.push(o.key.clone()),
            }
        }
        for n in &new {
            if !old.iter().any(|o| o.key == n.key) {
                diff.added.push(n.key.clone());
            }
        }
        diff
    }

    /// Any metric past the threshold (a *removed* metric, or a failed
    /// comparison, also counts — silently dropping a gated number must
    /// not read as a pass).
    pub fn has_regression(&self) -> bool {
        !self.errors.is_empty()
            || !self.removed.is_empty()
            || self.compared.iter().any(|d| d.regressed)
    }

    /// Human-readable comparison table.
    pub fn report(&self) -> String {
        let mut out = String::new();
        for d in &self.compared {
            let verdict = if d.regressed {
                "REGRESSED"
            } else if d.ratio > 1.05 {
                "improved"
            } else {
                "ok"
            };
            // Throughputs are large integers, decision metrics are
            // small ratios — pick a precision that keeps both legible.
            let prec = if d.old.abs() < 100.0 && d.new.abs() < 100.0 { 4 } else { 1 };
            let _ = writeln!(
                out,
                "{:<40} {:>14.prec$} -> {:>14.prec$}  ({:>6.3}x)  {verdict}",
                d.key, d.old, d.new, d.ratio
            );
        }
        for key in &self.removed {
            let _ = writeln!(out, "{key:<40} present in baseline, MISSING in new run");
        }
        for key in &self.added {
            let _ = writeln!(out, "{key:<40} new metric (no baseline)");
        }
        for error in &self.errors {
            let _ = writeln!(out, "error: {error}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WORKLOADS_STYLE: &str = r#"{
  "bench": "core_kernels",
  "workloads": [
    {"name": "demand_walk", "ns_per_op": 60.0, "ops_per_sec": 16666667, "baseline_ops_per_sec": 10718114, "speedup": 1.555},
    {"name": "system_stream", "ns_per_op": 250.0, "ops_per_sec": 4000000, "baseline_ops_per_sec": 2722570, "speedup": 1.469}
  ]
}"#;

    const SWEEP_STYLE: &str = r#"{
  "bench": "sweep",
  "cells": {"done": 750, "executed": 750, "resumed": 0},
  "aggregate": {"instructions": 90000000, "ops_per_sec": 5000000, "cells_per_sec": 6.2, "cell_wall_ms": {"p99_ms": 512}},
  "prefetchers": [
    {"name": "pmp", "wall_ms": {"cells": 125, "mean_ms": 140.0}}
  ]
}"#;

    #[test]
    fn extracts_exact_fields_only() {
        let metrics = extract_metrics_for(WORKLOADS_STYLE, MetricSet::Throughput).expect("valid");
        // baseline_ops_per_sec must NOT match; two workloads → two
        // metrics.
        assert_eq!(metrics.len(), 2);
        assert_eq!(metrics[0].key, "demand_walk/ops_per_sec");
        assert!((metrics[0].value - 16_666_667.0).abs() < 1.0);
        assert_eq!(metrics[1].key, "system_stream/ops_per_sec");
    }

    #[test]
    fn extracts_sweep_aggregates_without_label() {
        let metrics = extract_metrics_for(SWEEP_STYLE, MetricSet::Throughput).expect("valid");
        assert_eq!(metrics.len(), 2);
        assert_eq!(metrics[0].key, "ops_per_sec");
        assert_eq!(metrics[1].key, "cells_per_sec");
        assert!((metrics[1].value - 6.2).abs() < 1e-9);
    }

    #[test]
    fn flags_regressions_past_threshold_only() {
        let new = WORKLOADS_STYLE
            .replace("\"ops_per_sec\": 16666667", "\"ops_per_sec\": 8000000") // -52%
            .replace("\"ops_per_sec\": 4000000", "\"ops_per_sec\": 3900000"); // -2.5%
        let diff = BenchDiff::compare(WORKLOADS_STYLE, &new, 0.10);
        assert!(diff.has_regression());
        assert_eq!(diff.compared.len(), 2);
        assert!(diff.compared[0].regressed, "52% drop past a 10% threshold");
        assert!(!diff.compared[1].regressed, "2.5% drop within a 10% threshold");
        // A generous threshold passes both.
        assert!(!BenchDiff::compare(WORKLOADS_STYLE, &new, 0.60).has_regression());
    }

    #[test]
    fn improvement_is_not_a_regression() {
        let new = WORKLOADS_STYLE.replace("\"ops_per_sec\": 16666667", "\"ops_per_sec\": 20000000");
        let diff = BenchDiff::compare(WORKLOADS_STYLE, &new, 0.10);
        assert!(!diff.has_regression());
        assert!(diff.report().contains("improved"), "{}", diff.report());
    }

    #[test]
    fn missing_metric_counts_as_regression() {
        let diff = BenchDiff::compare(WORKLOADS_STYLE, SWEEP_STYLE, 0.10);
        assert!(diff.has_regression(), "dropped workload metrics must not pass silently");
        assert!(!diff.removed.is_empty());
        assert!(!diff.added.is_empty());
    }

    const ATTRIB_STYLE: &str = r#"{
"trace": "spec06.stream_1", "scale": "Small", "prefetcher": "pmp", "ipc": 3.085117,
"attribution": {
  "pf_issued": 1827,
  "accuracy": 0.967021,
  "timeliness": 0.984971,
  "origins": [
    {"origin": "pmp/merged[0]@t0 g3", "family": "pmp", "issued": 1512, "accuracy": 0.960979, "timeliness": 0.984171},
    {"origin": "pmp/merged[0]@t0 g2", "family": "pmp", "issued": 315, "accuracy": 1.000000, "timeliness": 0.989170}
  ]
}
}"#;

    #[test]
    fn decision_set_extracts_aggregate_and_per_origin_rows() {
        // Throughput set sees nothing in an attribution document.
        assert!(extract_metrics_for(ATTRIB_STYLE, MetricSet::Throughput).expect("valid").is_empty());
        let metrics = extract_metrics_for(ATTRIB_STYLE, MetricSet::Decision).expect("valid");
        let keys: Vec<&str> = metrics.iter().map(|m| m.key.as_str()).collect();
        assert_eq!(
            keys,
            [
                "ipc",
                "accuracy",
                "timeliness",
                "pmp/merged[0]@t0 g3/accuracy",
                "pmp/merged[0]@t0 g3/timeliness",
                "pmp/merged[0]@t0 g2/accuracy",
                "pmp/merged[0]@t0 g2/timeliness",
            ]
        );
        assert!((metrics[1].value - 0.967021).abs() < 1e-9);
    }

    #[test]
    fn decision_set_flags_accuracy_drop() {
        let new = ATTRIB_STYLE.replace("\"accuracy\": 0.967021", "\"accuracy\": 0.50");
        let diff = BenchDiff::compare_for(ATTRIB_STYLE, &new, 0.10, MetricSet::Decision);
        assert!(diff.has_regression());
        assert!(
            diff.compared.iter().any(|d| d.key == "accuracy" && d.regressed),
            "{}",
            diff.report()
        );
        // Per-origin rows untouched → not regressed.
        assert!(diff
            .compared
            .iter()
            .filter(|d| d.key.starts_with("pmp/"))
            .all(|d| !d.regressed));
        // Self-compare is clean.
        assert!(!BenchDiff::compare_for(ATTRIB_STYLE, ATTRIB_STYLE, 0.10, MetricSet::Decision)
            .has_regression());
    }

    #[test]
    fn cross_format_self_compare_is_clean() {
        for body in [WORKLOADS_STYLE, SWEEP_STYLE] {
            let diff = BenchDiff::compare(body, body, 0.10);
            assert!(!diff.has_regression());
            assert!(diff.compared.iter().all(|d| (d.ratio - 1.0).abs() < 1e-12));
        }
    }

    fn pairs(body: &str, set: MetricSet) -> Vec<(String, f64)> {
        let metrics = extract_metrics_for(body, set).expect("valid JSON");
        metrics.into_iter().map(|m| (m.key, m.value)).collect()
    }

    #[test]
    fn layout_does_not_change_the_extracted_metrics() {
        for (body, set) in [
            (WORKLOADS_STYLE, MetricSet::Throughput),
            (SWEEP_STYLE, MetricSet::Throughput),
            (ATTRIB_STYLE, MetricSet::Decision),
        ] {
            let doc = json::parse(body).expect("valid");
            let compact = doc.to_string();
            let pretty = doc.pretty();
            let spaced = pretty.replace("\": ", "\" : ");
            let expected = pairs(body, set);
            assert!(!expected.is_empty());
            for rendering in [&compact, &pretty, &spaced] {
                assert_eq!(pairs(rendering, set), expected, "{rendering}");
            }
        }
    }

    #[test]
    fn compact_documents_label_every_entry() {
        let body = r#"{"workloads":[{"name":"a","ops_per_sec":1},{"name":"b","ops_per_sec":2}]}"#;
        assert_eq!(
            pairs(body, MetricSet::Throughput),
            [("a/ops_per_sec".to_string(), 1.0), ("b/ops_per_sec".to_string(), 2.0)]
        );
        // A label reaches nested objects but not the entry's siblings.
        let body = r#"[{"name":"a","inner":{"ops_per_sec":3}},{"ops_per_sec":4}]"#;
        assert_eq!(
            pairs(body, MetricSet::Throughput),
            [("a/ops_per_sec".to_string(), 3.0), ("ops_per_sec".to_string(), 4.0)]
        );
    }

    #[test]
    fn unreadable_or_metricless_bodies_fail_the_comparison() {
        for (old, new, needle) in [
            ("not json at all", WORKLOADS_STYLE, "baseline is not JSON"),
            (WORKLOADS_STYLE, "{\"workloads\": [", "new run is not JSON"),
            (ATTRIB_STYLE, ATTRIB_STYLE, "baseline has no ops_per_sec/cells_per_sec metric"),
        ] {
            let diff = BenchDiff::compare(old, new, 0.10);
            assert!(diff.has_regression());
            assert!(diff.compared.is_empty() && diff.removed.is_empty());
            assert!(diff.errors.iter().any(|e| e.contains(needle)), "{:?}", diff.errors);
            assert!(diff.report().contains(needle), "{}", diff.report());
        }
        assert!(BenchDiff::compare(WORKLOADS_STYLE, WORKLOADS_STYLE, 0.10).errors.is_empty());
    }

    /// The key lists the line scraper this reader replaced extracted
    /// from the committed artifacts.
    #[test]
    fn committed_artifacts_yield_the_line_scraper_keys() {
        let core: Vec<String> = [
            "merge", "halve", "extract_ane", "extract_are", "extract_afe", "pb_pop",
            "capture_on_load", "capture_on_evict", "arbitrate",
        ]
        .iter()
        .map(|r| format!("{r}/ops_per_sec"))
        .collect();
        let origins = ["pmp/merged[0]@t0 g3", "pmp/merged[0]@t0 g4", "pmp/merged[0]@t0 g2"];
        let mut attrib: Vec<String> = ["ipc", "accuracy", "timeliness"].map(String::from).into();
        for o in origins {
            attrib.extend([format!("{o}/accuracy"), format!("{o}/timeliness")]);
        }
        for (body, set, expected) in [
            (include_str!("../../../results/BENCH_core.json"), MetricSet::Throughput, core),
            (
                include_str!("../../../results/BENCH_sweep.json"),
                MetricSet::Throughput,
                vec!["ops_per_sec".into(), "cells_per_sec".into()],
            ),
            (include_str!("../../../results/obs/pf_attrib.json"), MetricSet::Decision, attrib),
        ] {
            let keys: Vec<String> = pairs(body, set).into_iter().map(|(k, _)| k).collect();
            assert_eq!(keys, expected);
            // Each file is in the codec's one pretty layout.
            assert_eq!(json::parse(body).expect("valid").pretty(), body);
        }
    }
}
