//! Quick end-to-end sanity check: a few traces × all prefetchers.
use pmp_bench::prefetchers::PrefetcherKind;
use pmp_bench::runner::{geo_mean, run_specs_grid, normalized_ipcs, RunConfig};
use pmp_bench::scale_or_exit;
use pmp_traces::{catalog, TraceScale};
use pmp_types::CacheLevel;

fn main() {
    let scale = scale_or_exit("scale", std::env::args().nth(1).as_deref(), TraceScale::Small);
    let all = catalog();
    let names = ["spec06.stream_1","spec06.astar_0","spec06.mcf_2","spec06.hash_3","spec17.stride_2","ligra.bfs_2","ligra.pagerank_4","parsec.stencil_2"];
    let specs: Vec<_> = all.iter().filter(|s| names.contains(&s.name.as_str())).cloned().collect();
    let cfg = RunConfig { scale, ..RunConfig::default() };
    let kinds = vec![
        PrefetcherKind::None,
        PrefetcherKind::NextLine,
        PrefetcherKind::Sms,
        PrefetcherKind::DsPatch,
        PrefetcherKind::Bingo,
        PrefetcherKind::SppPpf,
        PrefetcherKind::Pythia,
        PrefetcherKind::Pmp,
    ];
    let t0 = std::time::Instant::now();
    // One grid: every trace is generated once and shared across all
    // eight prefetchers.
    let mut grids = run_specs_grid(&specs, &kinds, &cfg).into_iter();
    let base = grids.next().expect("baseline grid present");
    println!("grid done in {:?}", t0.elapsed());
    for o in &base {
        println!("  {:22} ipc={:.3} mpki={:.1}", o.trace, o.result.ipc(), o.result.stats.llc_mpki());
    }
    for (kind, out) in kinds[1..].iter().zip(grids) {
        let (nipcs, g) = normalized_ipcs(&base, &out);
        let acc: Vec<String> = out.iter().map(|o| {
            let l1 = o.result.stats.level(CacheLevel::L1D);
            format!("{:.2}", l1.accuracy().unwrap_or(0.0))
        }).collect();
        println!("{:10} geomean NIPC = {:.3}  ({:?})  l1acc={:?}", kind.label(), g, nipcs.iter().map(|x| (x*100.0).round()/100.0).collect::<Vec<_>>(), acc);
        let _ = geo_mean(&nipcs);
    }
}
