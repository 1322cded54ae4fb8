//! Observability report: run one cell once with every tracer attached
//! (`pmp_bench::deep_dive`) and render what `pmp-obs` sees.
//!
//! Usage: `obs_report [trace-name] [scale] [kind] [top_k]`
//!   defaults:  spec06.stream_1  standard  pmp  16
//!
//! Reports go to stdout and five artifacts under `results/obs/`. Exits
//! 2 on a usage error, 1 when a write fails or the prefetch accounting
//! does not conserve.

use pmp_bench::deep_dive;
use pmp_bench::prefetchers::PrefetcherKind;
use pmp_bench::{scale_or_exit, trace_or_exit, write_artifact};
use pmp_sim::EventKind;
use pmp_stats::report::interval_table;
use pmp_stats::storage::interval_samples_to_json_lines;
use pmp_stats::{sim_stats_to_json, Table};
use pmp_traces::TraceScale;
use pmp_types::json::Json;

fn main() {
    let arg = |i: usize| std::env::args().nth(i);
    let spec = trace_or_exit("trace", arg(1).as_deref().unwrap_or("spec06.stream_1"));
    let scale = scale_or_exit("scale", arg(2).as_deref(), TraceScale::Standard);
    let label = arg(3).unwrap_or_else(|| "pmp".into());
    let kind = PrefetcherKind::from_label(&label).unwrap_or_else(|| {
        let labels: Vec<String> = PrefetcherKind::LABELLED.iter().map(|k| k.label()).collect();
        eprintln!("kind: unknown prefetcher {label:?}; expected one of {}", labels.join(", "));
        std::process::exit(2)
    });
    let top_k: usize = match arg(4) {
        None => 16,
        Some(s) => s.parse().unwrap_or_else(|_| {
            eprintln!("top_k: expected a non-negative integer, got {s:?}");
            std::process::exit(2)
        }),
    };
    let dd = deep_dive::run(&spec, &kind, scale, top_k);
    let (result, events) = (&dd.result, &dd.events);

    println!("== obs_report: {} on {} ({scale:?}) ==\n", kind.label(), spec.name);
    println!(
        "ipc={:.3}  cycles={}  llc_mpki={:.2}\n",
        result.ipc(),
        result.cycles,
        result.stats.llc_mpki()
    );

    // --- 1. Prefetch-lifecycle summary.
    let mut lifecycle = Table::new(&["event", "count"]);
    for (event, n) in events.counts() {
        lifecycle.row_owned(vec![event.name().to_string(), n.to_string()]);
    }
    println!("-- lifecycle events --\n{}", lifecycle.render());
    // Drop pressure: the share of the issue stream the memory system
    // refused, by admission resource. A PQ-dominated split means the
    // issue burst outruns the queue; MSHR-dominated means the memory
    // system is the bottleneck.
    let issued = events.count(EventKind::PrefetchIssued);
    let redundant = events.count(EventKind::PrefetchRedundant);
    let share = |n: u64| n as f64 * 100.0 / issued.max(1) as f64;
    println!(
        "drop pressure: pq_full={}  mshr_full={}  redundant={}  ({:.2}% / {:.2}% / {:.2}% of {issued} issued)",
        events.dropped_pq(),
        events.dropped_mshr(),
        redundant,
        share(events.dropped_pq()),
        share(events.dropped_mshr()),
        share(redundant),
    );
    println!(
        "late-useful prefetches: {}  (ring holds last {} of {} events)\n",
        events.late_useful(),
        dd.tail.len(),
        dd.tail.total(),
    );

    // --- 2. Latency histograms (log2 buckets).
    let histograms = [
        ("prefetch issue→fill", "pf_issue_to_fill", events.pf_latency()),
        ("demand-miss", "demand_miss", events.demand_latency()),
        ("dram", "dram", events.dram_latency()),
    ];
    for (label, _, hist) in histograms {
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
    let series = interval_table(&dd.samples);
    println!("-- interval time-series ({} samples) --\n{}", dd.samples.len(), series.render());

    // --- 4. Structural introspection.
    let mut gauges = Table::new(&["gauge", "value"]);
    for g in &dd.gauges {
        gauges.row_owned(vec![g.name.to_string(), format!("{:.4}", g.value)]);
    }
    println!("-- {} introspection --\n{}", kind.label(), gauges.render());

    // --- 5. Per-origin prefetch fates.
    println!("-- prefetch fates (top {top_k} origins) --\n{}", dd.fate_text());

    // --- 6. Machine-readable exports.
    let mut hist_lines = String::new();
    for (_, key, hist) in histograms {
        let buckets = hist.nonzero().into_iter().map(|(lo, hi, n)| {
            Json::object().with("lo", lo).with("hi", hi).with("count", n)
        });
        let line = Json::object()
            .with("histogram", key)
            .with("count", hist.count())
            .with("mean", Json::fixed(hist.mean(), 3))
            .with("buckets", Json::Arr(buckets.collect()));
        hist_lines.push_str(&format!("{line}\n"));
    }
    let attrib = Json::object()
        .with("trace", spec.name.as_str())
        .with("scale", format!("{scale:?}"))
        .with("prefetcher", kind.label())
        .with("ipc", Json::fixed(result.ipc(), 6))
        .with("attribution", dd.fates.to_json());
    let artifacts = [
        ("results/obs/intervals.csv", series.to_csv()),
        ("results/obs/intervals.jsonl", interval_samples_to_json_lines(&dd.samples)),
        ("results/obs/stats.json", sim_stats_to_json(&result.stats).to_string()),
        ("results/obs/latency_histograms.jsonl", hist_lines),
        ("results/obs/pf_attrib.json", attrib.pretty()),
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
    let violations = dd.conservation_violations();
    for v in &violations {
        eprintln!("prefetch accounting does not conserve: {v}");
    }
    if failed || !violations.is_empty() {
        std::process::exit(1);
    }
}
