//! End-to-end observability report: run PMP on one workload with full
//! lifecycle tracing, interval sampling, and structural introspection,
//! then render everything the `pmp-obs` crate can see.
//!
//! Usage: `obs_report [trace-name] [scale]` — defaults to
//! `spec06.stream_1` at the Standard scale. Reports go to stdout; the
//! interval time-series CSV and JSON Lines are also written under
//! `results/obs/`.

use pmp_bench::{scale_or_exit, write_artifact};
use pmp_core::{Pmp, PmpConfig};
use pmp_sim::{EventKind, ObsCollector, System, SystemConfig};
use pmp_stats::report::interval_table;
use pmp_stats::storage::interval_samples_to_json_lines;
use pmp_stats::{sim_stats_to_json, Table};
use pmp_traces::{catalog, TraceScale};
use pmp_types::json::Json;

fn main() {
    let trace_name =
        std::env::args().nth(1).unwrap_or_else(|| "spec06.stream_1".to_string());
    let scale = scale_or_exit("scale", std::env::args().nth(2).as_deref(), TraceScale::Standard);
    let spec = catalog()
        .into_iter()
        .find(|s| s.name == trace_name)
        .unwrap_or_else(|| panic!("unknown trace {trace_name}; see pmp-traces catalog"));
    let trace = spec.build(scale);

    let mut sys = System::with_tracer(
        SystemConfig::default(),
        Box::new(Pmp::new(PmpConfig::default())),
        ObsCollector::with_ring(4096),
    );
    sys.enable_sampling(2_000);
    let result = sys.run(&trace.ops, scale.warmup_instructions());

    println!("== obs_report: pmp on {trace_name} ({scale:?}) ==\n");
    println!(
        "ipc={:.3}  cycles={}  llc_mpki={:.2}\n",
        result.ipc(),
        result.cycles,
        result.stats.llc_mpki()
    );

    // --- 1. Prefetch-lifecycle summary.
    let collector = sys.tracer();
    let mut lifecycle = Table::new(&["event", "count"]);
    for kind in EventKind::ALL {
        lifecycle.row_owned(vec![
            kind.name().to_string(),
            collector.count(kind).to_string(),
        ]);
    }
    println!("-- lifecycle events --\n{}", lifecycle.render());
    // Drop-pressure split: the aggregate pf_dropped counter (exported in
    // stats.json) broken down by which admission resource refused the
    // request. A PQ-dominated split means the issue burst outruns the
    // queue; MSHR-dominated means the memory system is the bottleneck.
    let dropped = collector.dropped_pq() + collector.dropped_mshr();
    println!(
        "drop pressure: pq_full={}  mshr_full={}  ({:.1}% / {:.1}% of {} drops)",
        collector.dropped_pq(),
        collector.dropped_mshr(),
        collector.dropped_pq() as f64 * 100.0 / dropped.max(1) as f64,
        collector.dropped_mshr() as f64 * 100.0 / dropped.max(1) as f64,
        dropped,
    );
    println!(
        "late-useful prefetches: {}  (ring holds last {} of {} events)\n",
        collector.late_useful(),
        collector.ring().map(|r| r.len()).unwrap_or(0),
        collector.ring().map(|r| r.total()).unwrap_or(0),
    );

    // --- 2. Latency histograms (log2 buckets).
    for (label, hist) in [
        ("prefetch issue→fill", collector.pf_latency()),
        ("demand-miss", collector.demand_latency()),
        ("dram", collector.dram_latency()),
    ] {
        let mut t = Table::new(&["cycles", "count"]);
        for (lo, hi, n) in hist.nonzero() {
            t.row_owned(vec![format!("{lo}..{hi}"), n.to_string()]);
        }
        println!(
            "-- {label} latency: n={} mean={:.1} p99<={} --\n{}",
            hist.count(),
            hist.mean(),
            hist.percentile_upper_bound(0.99),
            t.render()
        );
    }

    // --- 3. Interval time-series.
    let samples = sys.samples().to_vec();
    let series = interval_table(&samples);
    println!("-- interval time-series ({} samples) --\n{}", samples.len(), series.render());

    // --- 4. PMP structural introspection.
    let mut gauges = Table::new(&["gauge", "value"]);
    for g in sys.prefetcher_gauges() {
        gauges.row_owned(vec![g.name.to_string(), format!("{:.4}", g.value)]);
    }
    println!("-- pmp introspection --\n{}", gauges.render());

    // --- 5. Machine-readable exports.
    let mut hist_lines = String::new();
    for (label, hist) in [
        ("pf_issue_to_fill", collector.pf_latency()),
        ("demand_miss", collector.demand_latency()),
        ("dram", collector.dram_latency()),
    ] {
        let buckets = hist.nonzero().into_iter().map(|(lo, hi, n)| {
            Json::object().with("lo", lo).with("hi", hi).with("count", n)
        });
        let line = Json::object()
            .with("histogram", label)
            .with("count", hist.count())
            .with("mean", Json::fixed(hist.mean(), 3))
            .with("buckets", Json::Arr(buckets.collect()));
        hist_lines.push_str(&format!("{line}\n"));
    }
    let artifacts = [
        ("results/obs/intervals.csv", series.to_csv()),
        ("results/obs/intervals.jsonl", interval_samples_to_json_lines(&samples)),
        ("results/obs/stats.json", sim_stats_to_json(&result.stats).to_string()),
        ("results/obs/latency_histograms.jsonl", hist_lines),
    ];
    let mut failed = false;
    for (path, body) in &artifacts {
        match write_artifact(path.as_ref(), body) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
