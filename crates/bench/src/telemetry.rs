//! Sweep telemetry rendering: the harness side of
//! [`pmp_obs::SweepObserver`].
//!
//! A sweep that wants telemetry puts an observer in the
//! [`SweepContext`] its configs carry. Every cell run under that
//! context then records a [`CellSpan`] (wall-clock, cycles,
//! instructions, resumed-vs-executed, outcome) without any experiment
//! code changing, and the binary renders [`sweep_json`] into
//! `results/BENCH_sweep.json` at the end. A context without an
//! observer costs each cell one `Option` check, and — because the
//! observer only ever *watches* — observed sweeps produce
//! bit-identical simulation results (pinned by
//! `tests/sweep_telemetry.rs`).
//!
//! [`SweepContext`]: crate::runner::SweepContext
//! [`CellSpan`]: pmp_obs::CellSpan

use pmp_obs::{Log2Histogram, SweepObserver, SweepSnapshot};
use pmp_types::json::Json;
use std::fmt::Write as _;

/// Always `false`: no observer is process-wide any more, each sweep
/// owns its own. Kept only for the benchmark's pre-run check; delete it
/// with the next change to the benchmark.
pub fn active() -> bool {
    false
}

/// Render the observer's final state as the `BENCH_sweep.json`
/// document. `grid` names the sweep that produced it (`run_all`,
/// `full_sweep`, …) and `scale` the trace scale it ran at.
pub fn sweep_json(observer: &SweepObserver, grid: &str, scale: &str) -> String {
    let snap = observer.snapshot();
    let cells_per_sec = if snap.elapsed_ms == 0 {
        0.0
    } else {
        snap.done as f64 * 1000.0 / snap.elapsed_ms as f64
    };
    let seconds = |ms: u64| Json::fixed(ms as f64 / 1000.0, 3);
    // Percentile/mean/max summary of one wall-time histogram.
    let wall = |h: &Log2Histogram| {
        Json::object()
            .with("cells", h.count())
            .with("mean_ms", Json::fixed(h.mean(), 1))
            .with("p50_ms", h.p50())
            .with("p95_ms", h.p95())
            .with("p99_ms", h.p99())
            .with("max_ms", h.max())
    };
    let named = |groups: Vec<(String, Log2Histogram)>| {
        let rows = groups.iter().map(|(name, h)| {
            Json::object().with("name", name.as_str()).with("wall_ms", wall(h))
        });
        Json::Arr(rows.collect())
    };
    let mut all = Log2Histogram::new();
    for (_, h) in observer.group_hists() {
        all.merge(&h);
    }
    let phases = observer.phase_breakdown(snap.elapsed_ms).into_iter().map(|(name, wall_ms)| {
        Json::object().with("name", name).with("wall_s", seconds(wall_ms))
    });
    Json::object()
        .with("bench", "sweep")
        .with("grid", grid)
        .with("scale", scale)
        .with("wall_clock_s", seconds(snap.elapsed_ms))
        .with(
            "cells",
            Json::object()
                .with("done", snap.done)
                .with("executed", snap.executed)
                .with("resumed", snap.resumed)
                .with("panicked", snap.panicked)
                .with("timed_out", snap.timed_out)
                .with("skipped", snap.skipped),
        )
        .with(
            "aggregate",
            Json::object()
                .with("instructions", snap.instructions)
                .with("ops_per_sec", Json::fixed(snap.ops_per_sec, 0))
                .with("cells_per_sec", Json::fixed(cells_per_sec, 3))
                .with("saved_s", seconds(snap.saved_ms))
                .with("cell_wall_ms", wall(&all)),
        )
        .with("phases", Json::Arr(phases.collect()))
        .with("prefetchers", named(observer.group_hists()))
        .with("families", named(observer.family_hists()))
        .pretty()
}

/// Write `observer`'s `BENCH_sweep.json` to `path`, reporting a failed
/// write on stderr. Returns whether the file was written.
pub fn write_sweep_json(
    observer: &SweepObserver,
    path: &std::path::Path,
    grid: &str,
    scale: &str,
) -> bool {
    let written = crate::write_artifact(path, &sweep_json(observer, grid, scale));
    if let Err(e) = &written {
        eprintln!("telemetry: could not write {} ({e})", path.display());
    }
    written.is_ok()
}

/// One-line human summary of a snapshot (sweep logs, progress lines).
pub fn summary_line(snap: &SweepSnapshot) -> String {
    let mut line = match snap.total {
        Some(total) => format!("sweep {} / {total} cells", snap.done),
        None => format!("sweep {} cells", snap.done),
    };
    let _ = write!(line, " | {} executed, {} resumed", snap.executed, snap.resumed);
    if snap.failed() > 0 {
        let _ = write!(line, ", {} failed", snap.failed());
    }
    if snap.ops_per_sec > 0.0 {
        let _ = write!(line, " | {:.2} Mops/s", snap.ops_per_sec / 1e6);
    }
    if let Some(eta) = snap.eta_ms {
        let _ = write!(line, " | ETA {}", fmt_duration_ms(eta));
    }
    if let Some((name, ms)) = &snap.slowest_in_flight {
        let _ = write!(
            line,
            " | {} in flight, slowest: {name} ({})",
            snap.in_flight,
            fmt_duration_ms(*ms)
        );
    }
    line
}

/// `1h02m`, `4m12s`, `31s`, `800ms` — compact duration for progress
/// lines.
pub fn fmt_duration_ms(ms: u64) -> String {
    let s = ms / 1000;
    if s >= 3600 {
        format!("{}h{:02}m", s / 3600, (s % 3600) / 60)
    } else if s >= 60 {
        format!("{}m{:02}s", s / 60, s % 60)
    } else if s > 0 {
        format!("{s}s")
    } else {
        format!("{ms}ms")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmp_obs::{CellSpan, SpanOutcome};

    fn span(name: &str) -> CellSpan {
        CellSpan {
            name: name.into(),
            group: "pmp".into(),
            family: "stream".into(),
            wall_ms: 120,
            cycles: 9000,
            instructions: 50_000,
            resumed: false,
            saved_ms: 0,
            outcome: SpanOutcome::Ok,
        }
    }

    #[test]
    fn json_document_carries_the_contract_fields() {
        let obs = SweepObserver::manual_clock();
        obs.add_total(2);
        obs.phase_at("baseline", 0);
        obs.finish(span("a"));
        obs.finish(span("b"));
        let json = sweep_json(&obs, "test_grid", "Tiny");
        for needle in [
            "\"bench\": \"sweep\"",
            "\"grid\": \"test_grid\"",
            "\"scale\": \"Tiny\"",
            "\"wall_clock_s\"",
            "\"ops_per_sec\"",
            "\"cells_per_sec\"",
            "\"executed\": 2",
            "\"resumed\": 0",
            "\"p99_ms\"",
            "\"phases\"",
            "\"name\": \"baseline\"",
            "\"prefetchers\"",
            "\"name\": \"pmp\"",
            "\"families\"",
            "\"name\": \"stream\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration_ms(250), "250ms");
        assert_eq!(fmt_duration_ms(31_000), "31s");
        assert_eq!(fmt_duration_ms(252_000), "4m12s");
        assert_eq!(fmt_duration_ms(3_720_000), "1h02m");
    }

    #[test]
    fn summary_line_reads_like_a_status() {
        let obs = SweepObserver::manual_clock();
        obs.add_total(4);
        obs.finish(span("a"));
        let snap = obs.snapshot_at(1000);
        let line = summary_line(&snap);
        assert!(line.contains("sweep 1 / 4 cells"), "{line}");
        assert!(line.contains("1 executed"), "{line}");
        assert!(line.contains("ETA"), "{line}");
    }
}
