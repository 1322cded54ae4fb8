//! The per-cell deep-dive: [`run`] simulates one (trace, prefetcher,
//! scale) cell once under `(ObsCollector, (RingRecorder,
//! FlightRecorder))` with interval sampling, so counters, histograms,
//! the event tail, per-origin fates, interval samples and gauges all
//! come from one live run (never the journal). `obs_report` renders it
//! all; `--attrib` on `fig9_cov_acc` / `fig10_useful` the fate tables.
//!
//! Sampling forwards each interval's DRAM utilization to
//! `Prefetcher::on_bandwidth`. Only DSPatch overrides that hook, so a
//! DSPatch deep-dive reports the bandwidth-fed cell, which can differ
//! from the sweep's; every other kind simulates bit-identically to its
//! untraced sweep cell.

use pmp_obs::{
    AttributionReport, EventKind, Fate, FlightRecorder, Gauge, IntervalSample, ObsCollector,
    RingRecorder,
};
use pmp_sim::{SimResult, System, SystemConfig};
use pmp_traces::{TraceScale, TraceSpec};

use crate::prefetchers::PrefetcherKind;

/// Interval-sampling period of a deep-dive, in cycles.
const SAMPLE_PERIOD: u64 = 2_000;

/// Raw events kept in the tail ring.
const RING_CAPACITY: usize = 4096;

/// Everything one deep-dive run observed.
#[derive(Debug)]
pub struct DeepDive {
    /// Plain simulation result (IPC, SimStats).
    pub result: SimResult,
    /// Lifecycle counters and latency histograms.
    pub events: ObsCollector,
    /// The last 4096 raw events.
    pub tail: RingRecorder,
    /// Finalized per-origin fate report.
    pub fates: AttributionReport,
    /// Interval time-series, one sample per 2000 cycles.
    pub samples: Vec<IntervalSample>,
    /// The prefetcher's end-of-run introspection gauges.
    pub gauges: Vec<Gauge>,
}

/// Run `kind` on `spec` at `scale` once under all three tracers with
/// interval sampling, finalize the flight recorder, and keep the top
/// `top_k` origins of its report.
pub fn run(spec: &TraceSpec, kind: &PrefetcherKind, scale: TraceScale, top_k: usize) -> DeepDive {
    let trace = spec.build(scale);
    let tracer = (ObsCollector::new(), (RingRecorder::new(RING_CAPACITY), FlightRecorder::new()));
    let mut sys = System::with_tracer(SystemConfig::default(), kind.build(), tracer);
    sys.enable_sampling(SAMPLE_PERIOD);
    let result = sys.run(&trace.ops, scale.warmup_instructions());
    let samples = sys.samples().to_vec();
    let gauges = sys.prefetcher_gauges();
    let (events, (tail, recorder)) = sys.tracer_mut();
    recorder.finalize();
    DeepDive {
        result,
        events: events.clone(),
        tail: tail.clone(),
        fates: recorder.report(top_k),
        samples,
        gauges,
    }
}

impl DeepDive {
    /// Every way the run's prefetch accounting fails to add up, one
    /// message each; empty when the fates partition `pf_issued`, the
    /// collector's lifecycle conserves, and the two tracers agree on
    /// issued, dropped and redundant counts. Useful and useless counts
    /// are not compared: the collector also counts outer-level shadow
    /// fills, which the flight recorder ignores by design.
    pub fn conservation_violations(&self) -> Vec<String> {
        let (ev, fates) = (&self.events, &self.fates);
        let fate = |f: Fate| fates.totals[f as usize];
        let issued = ev.count(EventKind::PrefetchIssued);
        let redundant = ev.count(EventKind::PrefetchRedundant);
        let resolved = ev.count(EventKind::PrefetchAdmitted) + ev.count(EventKind::PrefetchDropped);
        [
            ("sum of fates vs pf_issued", fates.totals.iter().sum(), fates.issued),
            ("pf_admitted + pf_dropped + pf_redundant vs pf_issued", resolved + redundant, issued),
            ("collector vs recorder pf_issued", issued, fates.issued),
            ("collector vs recorder dropped_pq", ev.dropped_pq(), fate(Fate::DroppedPq)),
            ("collector vs recorder dropped_mshr", ev.dropped_mshr(), fate(Fate::DroppedMshr)),
            ("collector vs recorder redundant", redundant, fate(Fate::Redundant)),
        ]
        .into_iter()
        .filter(|&(_, a, b)| a != b)
        .map(|(what, a, b)| format!("{what}: {a} != {b}"))
        .collect()
    }

    /// The per-origin fate table followed by the conservation verdict.
    pub fn fate_text(&self) -> String {
        let mut s = self.fates.to_text();
        let violations = self.conservation_violations();
        if violations.is_empty() {
            s.push_str("fate conservation: exact (fates partition pf_issued)\n");
        }
        for v in violations {
            s.push_str(&format!("fate conservation: VIOLATED: {v}\n"));
        }
        s
    }
}

/// `--attrib` for the figure bins: run `kind` over every catalog trace
/// at `scale` and return one fate block per trace.
pub fn render_catalog(kind: &PrefetcherKind, scale: TraceScale, top_k: usize) -> String {
    let mut s = format!("-- attribution deep-dive ({}, per-origin fates) --\n", kind.label());
    for spec in pmp_traces::catalog() {
        let dd = run(&spec, kind, scale, top_k);
        let (ipc, cycles) = (dd.result.ipc(), dd.result.cycles);
        s.push_str(&format!("== pf_attrib: {} on {} ==\n", kind.label(), spec.name));
        s.push_str(&format!("ipc={ipc:.3}  cycles={cycles}\n{}\n", dd.fate_text()));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmp_traces::trace_named;

    #[test]
    fn deep_dive_conserves_and_attributes_pmp_entries() {
        let spec = trace_named("spec06.stream_1").expect("catalog");
        let mut out = run(&spec, &PrefetcherKind::Pmp, TraceScale::Small, 8);
        assert!(out.fates.finalized);
        assert_eq!(
            out.fates.issued,
            out.fates.totals.iter().sum::<u64>(),
            "fates must partition pf_issued"
        );
        assert_eq!(out.fates.issued, out.result.stats.pf_issued);
        // PMP origins must resolve at pattern-entry granularity.
        assert!(
            out.fates.rows.iter().any(|(o, _)| matches!(o, pmp_types::Origin::Pmp { .. })),
            "expected pmp/- origins, got: {:?}",
            out.fates.rows.iter().map(|(o, _)| o.describe()).collect::<Vec<_>>()
        );
        let text = out.fate_text();
        assert!(text.contains("fate conservation: exact"), "{text}");
        // The one run fed every view.
        assert_eq!(out.events.count(EventKind::PrefetchIssued), out.fates.issued);
        assert_eq!(out.tail.total(), out.events.total());
        assert!(!out.samples.is_empty() && !out.gauges.is_empty());

        // A fate lost between the tracers fails the gate.
        assert!(out.conservation_violations().is_empty());
        out.fates.totals[Fate::DroppedMshr as usize] += 1;
        let violations = out.conservation_violations();
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(out.fate_text().contains("fate conservation: VIOLATED"));
    }
}
