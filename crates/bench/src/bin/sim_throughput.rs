//! `sim_throughput` — the simulator's ops/sec trajectory.
//!
//! Measures the memory-walk hot path (`demand_access` /
//! `prefetch_access`), whole-system throughput with no prefetcher,
//! next-line and PMP, the tracer's cost (`system_obscollector` is
//! `system_nextline` with a live `ObsCollector`; `system_nextline`
//! runs the `NullTracer`), and each prefetcher's `on_access` path on
//! its own (`on_access_<label>`), then emits `BENCH_sim.json` so the
//! numbers land in the perf trajectory. Compare a run against the
//! committed file with `bench_diff`; absolute numbers depend on the
//! host.
//!
//! Usage: `cargo run --release --bin sim_throughput [-- OUT.json]`
//! (default output path: `results/BENCH_sim.json`).

use pmp_bench::microbench::{bench_function, black_box};
use pmp_bench::prefetchers::PrefetcherKind;
use pmp_bench::write_artifact;
use pmp_core::{Pmp, PmpConfig};
use pmp_prefetch::{AccessInfo, NextLine, NoPrefetch, PrefetchRequest};
use pmp_sim::hierarchy::{
    demand_access, prefetch_access, CoreMem, MemEvents, PrefetchOutcome, SharedMem,
};
use pmp_sim::{NullTracer, ObsCollector, SimStats, System, SystemConfig};
use pmp_types::json::Json;
use pmp_types::{Addr, CacheLevel, LineAddr, MemAccess, Pc, TraceOp};

/// One measured workload: its name and mean ns per op.
type Workload = (String, f64);

/// A fresh single-core hierarchy, walked one access at a time.
struct Walk {
    cores: Vec<CoreMem>,
    shared: SharedMem,
    stats: SimStats,
    ev: MemEvents,
}

impl Walk {
    fn new() -> Self {
        let cfg = SystemConfig::single_core();
        let (stats, ev) = (SimStats::default(), MemEvents::default());
        Walk { cores: vec![CoreMem::new(&cfg)], shared: SharedMem::new(&cfg), stats, ev }
    }

    fn demand(&mut self, line: LineAddr, now: u64) -> u64 {
        let Walk { cores, shared, stats, ev } = self;
        demand_access(line, true, now, 0, cores, shared, stats, ev, &mut NullTracer).0
    }

    fn prefetch(&mut self, line: LineAddr, now: u64) -> PrefetchOutcome {
        let Walk { cores, shared, stats, ev } = self;
        let req = PrefetchRequest::new(line, CacheLevel::L1D);
        prefetch_access(req, now, 0, cores, shared, stats, ev, &mut NullTracer)
    }
}

/// The demand-side memory walk: mixed hits (small working set) and
/// streaming misses, one `demand_access` per op.
fn demand_walk() -> Workload {
    let mut walk = Walk::new();
    let mut i = 0u64;
    let m = bench_function("sim_throughput/demand_walk", |b| {
        b.iter(|| {
            let line = if i.is_multiple_of(4) { LineAddr(1_000_000 + i) } else { LineAddr(i % 64) };
            let lat = walk.demand(line, 2 * i);
            walk.ev.clear();
            i += 1;
            black_box(lat)
        });
    });
    ("demand_walk".into(), m.ns_per_iter)
}

/// The prefetch-side walk interleaved with demands: each op is one
/// demand plus one distance-4 L1D prefetch, so in steady state every
/// demand hits a prefetched line and every prefetch walks the full
/// admission + fill path.
fn prefetch_walk() -> Workload {
    let mut walk = Walk::new();
    let mut i = 0u64;
    let m = bench_function("sim_throughput/prefetch_walk", |b| {
        b.iter(|| {
            let lat = walk.demand(LineAddr(i), 8 * i);
            let out = walk.prefetch(LineAddr(i + 4), 8 * i);
            walk.ev.clear();
            i += 1;
            black_box((lat, out))
        });
    });
    ("prefetch_walk".into(), m.ns_per_iter)
}

/// Whole-system throughput on the 20k-op stream, per mem op: `run`
/// builds a system and runs the stream through it (trace dispatch +
/// core model + memory walk, plus its prefetcher and tracer).
fn system(name: &str, run: impl Fn(&[TraceOp]) -> u64) -> Workload {
    let ops: Vec<TraceOp> = (0..20_000)
        .map(|i| TraceOp::new(MemAccess::load(Pc(0x400), Addr((i * 320) % (1 << 26))), 3, false))
        .collect();
    let m = bench_function(&format!("sim_throughput/{name}"), |b| {
        b.iter(|| black_box(run(&ops)));
    });
    (name.to_string(), m.ns_per_iter / 20_000.0)
}

/// Each prefetcher's `on_access` alone, on a mixed access pattern
/// touching many regions (worst-ish case): the software analogue of
/// the paper's access-time argument.
fn on_access() -> Vec<Workload> {
    let accesses: Vec<AccessInfo> = (0..8192u64)
        .map(|i| AccessInfo {
            access: MemAccess::load(Pc(0x400 + (i % 17) * 4), Addr(((i * 4243) % (1 << 24)) * 64)),
            hit: i % 3 == 0,
            cycle: i * 4,
            pq_free: 8,
        })
        .collect();
    let kinds = [
        PrefetcherKind::Pmp,
        PrefetcherKind::Bingo,
        PrefetcherKind::DsPatch,
        PrefetcherKind::SppPpf,
        PrefetcherKind::Pythia,
        PrefetcherKind::Sms,
    ];
    kinds
        .iter()
        .map(|kind| {
            let name = format!("on_access_{}", kind.label());
            let mut p = kind.build();
            let mut out: Vec<PrefetchRequest> = Vec::with_capacity(64);
            let mut i = 0usize;
            let m = bench_function(&format!("sim_throughput/{name}"), |b| {
                b.iter(|| {
                    out.clear();
                    p.on_access(black_box(&accesses[i % accesses.len()]), &mut out);
                    i += 1;
                    black_box(out.len())
                });
            });
            (name, m.ns_per_iter)
        })
        .collect()
}

/// Serialize the measurements as the `BENCH_sim.json` document.
fn to_json(workloads: &[Workload]) -> String {
    let rows = workloads.iter().map(|(name, ns)| {
        Json::object()
            .with("name", name.as_str())
            .with("ns_per_op", Json::fixed(*ns, 1))
            .with("ops_per_sec", Json::fixed(1e9 / ns, 0))
    });
    Json::object()
        .with("bench", "sim_throughput")
        .with("unit", "ops_per_sec")
        .with("workloads", Json::Arr(rows.collect()))
        .pretty()
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "results/BENCH_sim.json".to_string());
    let cfg = SystemConfig::single_core;
    let mut workloads = vec![
        demand_walk(),
        prefetch_walk(),
        system("system_stream", |ops| System::new(cfg(), Box::new(NoPrefetch)).run(ops, 0).cycles),
        system("system_nextline", |ops| {
            System::new(cfg(), Box::new(NextLine::new(4))).run(ops, 0).cycles
        }),
        system("system_obscollector", |ops| {
            System::with_tracer(cfg(), Box::new(NextLine::new(4)), ObsCollector::new())
                .run(ops, 0)
                .cycles
        }),
        system("system_pmp", |ops| {
            System::new(cfg(), Box::new(Pmp::new(PmpConfig::default()))).run(ops, 0).cycles
        }),
    ];
    let tracer_overhead = workloads[4].1 / workloads[3].1;
    workloads.extend(on_access());
    for (name, ns) in &workloads {
        println!("{name:<22} {ns:>9.1} ns/op  {:>12.0} ops/s", 1e9 / ns);
    }
    println!("tracer overhead: collector/null = {tracer_overhead:.3}x");
    write_artifact(out_path.as_ref(), &to_json(&workloads)).expect("write BENCH_sim.json");
    println!("wrote {out_path}");
}
