//! Per-trace prefetch diagnostics (development tool).
use pmp_bench::prefetchers::PrefetcherKind;
use pmp_bench::runner::{run_cell, CellSpec, RunConfig};
use pmp_bench::trace_or_exit;
use pmp_traces::TraceScale;
use pmp_types::CacheLevel;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "ligra.bfs_2".into());
    let spec = trace_or_exit("trace", &name);
    let cfg = RunConfig { scale: TraceScale::Small, ..RunConfig::default() };
    let cell = CellSpec::Synthetic(spec);
    let base = run_cell(&cell, &PrefetcherKind::None, &cfg).expect("baseline cell");
    println!("baseline ipc={:.3} mpki={:.1} dram={}", base.result.ipc(), base.result.stats.llc_mpki(), base.result.stats.dram_requests);
    for kind in [PrefetcherKind::DsPatch, PrefetcherKind::Bingo, PrefetcherKind::SppPpf, PrefetcherKind::Pythia, PrefetcherKind::Pmp] {
        let o = run_cell(&cell, &kind, &cfg).expect("prefetcher cell");
        let s = &o.result.stats;
        print!("{:8} nipc={:.3} issued={} adm={} drop={} redun={} dram={}", kind.label(), o.result.ipc()/base.result.ipc(), s.pf_issued, s.pf_admitted, s.pf_dropped, s.pf_redundant, s.dram_requests);
        for l in CacheLevel::ALL {
            let v = s.level(l);
            print!("  {l}[fill={} useful={} useless={} late={}]", v.pf_fills, v.pf_useful, v.pf_useless, v.pf_late);
        }
        println!();
    }
}
