//! Graph-analytics workloads (the paper's Ligra suite): irregular
//! vertex reads feeding sequential edge scans. Compares all five
//! evaluated prefetchers on a BFS-like trace and breaks down where the
//! benefit comes from (multi-level fills).
//!
//! ```sh
//! cargo run --release --example graph_analytics
//! ```

use pmp_bench::prefetchers::PrefetcherKind;
use pmp_bench::runner::{run_cell, CellSpec, RunConfig};
use pmp_traces::{catalog, TraceScale};
use pmp_types::CacheLevel;

fn main() {
    let spec = catalog()
        .into_iter()
        .find(|s| s.name == "ligra.bfs_2")
        .expect("catalog trace");
    let cfg = RunConfig { scale: TraceScale::Small, ..RunConfig::default() };
    let cell = CellSpec::Synthetic(spec.clone());
    let base = run_cell(&cell, &PrefetcherKind::None, &cfg).expect("baseline cell");
    println!(
        "{}: baseline IPC {:.3}, LLC MPKI {:.1}\n",
        spec.name,
        base.result.ipc(),
        base.result.stats.llc_mpki()
    );

    println!(
        "{:10} {:>6} {:>8} {:>9} {:>9} {:>9}",
        "prefetcher", "NIPC", "issued", "L1 fills", "L2 fills", "LLC fills"
    );
    for kind in PrefetcherKind::paper_five() {
        let o = run_cell(&cell, &kind, &cfg).expect("prefetcher cell");
        let s = &o.result.stats;
        println!(
            "{:10} {:>6.3} {:>8} {:>9} {:>9} {:>9}",
            kind.label(),
            o.result.ipc() / base.result.ipc(),
            s.pf_issued,
            s.level(CacheLevel::L1D).pf_fills,
            s.level(CacheLevel::L2C).pf_fills,
            s.level(CacheLevel::Llc).pf_fills,
        );
    }
    println!(
        "\nNote how PMP pushes speculative fills into L2C/LLC — the paper's\n\
         high low-level coverage — while keeping L1D fills conservative."
    );
}
