//! Prefetch provenance & fate attribution report: run one (trace,
//! prefetcher) cell with the flight recorder attached and break every
//! issued prefetch down by its scheme-internal origin and final fate.
//!
//! Usage: `pf_attrib [trace-name] [scale] [kind] [top_k]`
//!   defaults:  spec06.stream_1  standard  pmp  16
//!
//! Text report goes to stdout; the JSON document is written to
//! `results/obs/pf_attrib.json`. Drop pressure (PQ-full vs MSHR-full)
//! is part of the fate table — see ARCHITECTURE.md "Prefetch
//! attribution".

use pmp_bench::attrib::{render_text, run_attrib};
use pmp_bench::prefetchers::PrefetcherKind;
use pmp_bench::{scale_or_exit, write_artifact};
use pmp_obs::Fate;
use pmp_traces::{catalog, TraceScale};
use pmp_types::json::Json;

fn main() {
    let trace_name = std::env::args().nth(1).unwrap_or_else(|| "spec06.stream_1".to_string());
    let scale = scale_or_exit("scale", std::env::args().nth(2).as_deref(), TraceScale::Standard);
    let kind_label = std::env::args().nth(3).unwrap_or_else(|| "pmp".to_string());
    let kind = PrefetcherKind::from_label(&kind_label)
        .unwrap_or_else(|| panic!("unknown prefetcher kind {kind_label}"));
    let top_k: usize =
        std::env::args().nth(4).and_then(|s| s.parse().ok()).unwrap_or(16);
    let spec = catalog()
        .into_iter()
        .find(|s| s.name == trace_name)
        .unwrap_or_else(|| panic!("unknown trace {trace_name}; see pmp-traces catalog"));

    let out = run_attrib(&spec, &kind, scale, top_k);
    print!("{}", render_text(&spec.name, &kind, &out));

    // Drop-pressure summary: how much of the issue stream the memory
    // system refused, and why (satellite of the attribution PR — the
    // aggregate pf_dropped/pf_redundant counters are in stats.json,
    // this splits them by admission resource).
    let issued = out.report.issued.max(1);
    let pq = out.report.totals[Fate::DroppedPq as usize];
    let mshr = out.report.totals[Fate::DroppedMshr as usize];
    let red = out.report.totals[Fate::Redundant as usize];
    println!(
        "drop pressure: pq {:.2}%  mshr {:.2}%  redundant {:.2}%",
        pq as f64 * 100.0 / issued as f64,
        mshr as f64 * 100.0 / issued as f64,
        red as f64 * 100.0 / issued as f64,
    );

    let json_path = "results/obs/pf_attrib.json";
    // Wrap with run identity so downstream tooling knows the cell.
    let doc = Json::object()
        .with("trace", spec.name.as_str())
        .with("scale", format!("{scale:?}"))
        .with("prefetcher", kind.label())
        .with("ipc", Json::fixed(out.result.ipc(), 6))
        .with("attribution", out.report.to_json())
        .pretty();
    match write_artifact(json_path.as_ref(), &doc) {
        Ok(()) => println!("wrote {json_path}"),
        Err(e) => {
            eprintln!("failed to write {json_path}: {e}");
            std::process::exit(1);
        }
    }
}
