//! `sim_throughput` — the simulator's ops/sec trajectory.
//!
//! Measures the memory-walk hot path (`demand_access` /
//! `prefetch_access`) and whole-system throughput, then emits
//! `BENCH_sim.json` so the numbers land in the perf trajectory and
//! future PRs can detect regressions. The `baseline_ops_per_sec`
//! fields pin the pre-optimization numbers measured on the reference
//! machine before the allocation-free hot-path rework; `speedup` is
//! current / baseline (machine-dependent — compare trends, not
//! absolutes, across hosts). Workloads added after that rework
//! (`system_pmp`) have no frozen baseline and carry neither field;
//! `min_speedup` covers the workloads that do.
//!
//! Usage: `cargo run --release --bin sim_throughput [-- OUT.json]`
//! (default output path: `results/BENCH_sim.json`).

use pmp_bench::microbench::{bench_function, black_box};
use pmp_core::{Pmp, PmpConfig};
use pmp_prefetch::{NextLine, NoPrefetch, PrefetchRequest};
use pmp_sim::hierarchy::{demand_access, prefetch_access, CoreMem, MemEvents, SharedMem};
use pmp_sim::{NullTracer, SimStats, System, SystemConfig};
use pmp_types::{Addr, CacheLevel, LineAddr, MemAccess, Pc, TraceOp};
use std::fmt::Write as _;

// Pre-PR baselines (ns/iter on the reference machine, commit 70aaa43).
// The acceptance target for the hot-path rework was >= 1.3x ops/sec on
// the memory-walk workloads.

/// `demand_walk` pre-PR ns/op.
const DEMAND_WALK_BASELINE_NS: f64 = 93.3;
/// `prefetch_walk` pre-PR ns/op.
const PREFETCH_WALK_BASELINE_NS: f64 = 320.3;
/// `system_stream` pre-PR ns/op (20k-mem-op run, NoPrefetch).
const SYSTEM_STREAM_BASELINE_NS: f64 = 367.3;
/// `system_nextline` pre-PR ns/op (20k-mem-op run, NextLine(4)).
const SYSTEM_NEXTLINE_BASELINE_NS: f64 = 621.8;

/// One measured workload.
struct Workload {
    name: &'static str,
    ns_per_op: f64,
    /// Frozen pre-rework ns/op, for the workloads that predate it.
    baseline_ns: Option<f64>,
}

impl Workload {
    fn speedup(&self) -> Option<f64> {
        self.baseline_ns.map(|base| base / self.ns_per_op)
    }
}

/// The demand-side memory walk: mixed hits (small working set) and
/// streaming misses, one `demand_access` per op.
fn demand_walk() -> Workload {
    let cfg = SystemConfig::single_core();
    let mut cores = vec![CoreMem::new(&cfg)];
    let mut shared = SharedMem::new(&cfg);
    let mut stats = SimStats::default();
    let mut ev = MemEvents::default();
    let mut now = 0u64;
    let mut i = 0u64;
    let m = bench_function("sim_throughput/demand_walk", |b| {
        b.iter(|| {
            let line = if i.is_multiple_of(4) { LineAddr(1_000_000 + i) } else { LineAddr(i % 64) };
            let (lat, _) = demand_access(
                line,
                true,
                now,
                0,
                &mut cores,
                &mut shared,
                &mut stats,
                &mut ev,
                &mut NullTracer,
            );
            ev.clear();
            now += 2;
            i += 1;
            black_box(lat)
        });
    });
    Workload {
        name: "demand_walk",
        ns_per_op: m.ns_per_iter,
        baseline_ns: Some(DEMAND_WALK_BASELINE_NS),
    }
}

/// The prefetch-side walk interleaved with demands: each op is one
/// demand plus one distance-4 L1D prefetch, so in steady state every
/// demand hits a prefetched line and every prefetch walks the full
/// admission + fill path.
fn prefetch_walk() -> Workload {
    let cfg = SystemConfig::single_core();
    let mut cores = vec![CoreMem::new(&cfg)];
    let mut shared = SharedMem::new(&cfg);
    let mut stats = SimStats::default();
    let mut ev = MemEvents::default();
    let mut now = 0u64;
    let mut i = 0u64;
    let m = bench_function("sim_throughput/prefetch_walk", |b| {
        b.iter(|| {
            let (lat, _) = demand_access(
                LineAddr(i),
                true,
                now,
                0,
                &mut cores,
                &mut shared,
                &mut stats,
                &mut ev,
                &mut NullTracer,
            );
            let out = prefetch_access(
                PrefetchRequest::new(LineAddr(i + 4), CacheLevel::L1D),
                now,
                0,
                &mut cores,
                &mut shared,
                &mut stats,
                &mut ev,
                &mut NullTracer,
            );
            ev.clear();
            now += 8;
            i += 1;
            black_box((lat, out))
        });
    });
    Workload {
        name: "prefetch_walk",
        ns_per_op: m.ns_per_iter,
        baseline_ns: Some(PREFETCH_WALK_BASELINE_NS),
    }
}

fn stream_ops(n: u64) -> Vec<TraceOp> {
    (0..n)
        .map(|i| TraceOp::new(MemAccess::load(Pc(0x400), Addr((i * 320) % (1 << 26))), 3, false))
        .collect()
}

/// Whole-system throughput, no prefetcher: trace dispatch + core model
/// + memory walk, per mem op.
fn system_stream() -> Workload {
    let ops = stream_ops(20_000);
    let m = bench_function("sim_throughput/system_stream", |b| {
        b.iter(|| {
            let mut sys = System::new(SystemConfig::single_core(), Box::new(NoPrefetch));
            black_box(sys.run(&ops, 0).cycles)
        });
    });
    Workload {
        name: "system_stream",
        ns_per_op: m.ns_per_iter / 20_000.0,
        baseline_ns: Some(SYSTEM_STREAM_BASELINE_NS),
    }
}

/// Whole-system throughput with an active prefetcher (adds the
/// prefetch walk and feedback delivery to every op).
fn system_nextline() -> Workload {
    let ops = stream_ops(20_000);
    let m = bench_function("sim_throughput/system_nextline", |b| {
        b.iter(|| {
            let mut sys = System::new(SystemConfig::single_core(), Box::new(NextLine::new(4)));
            black_box(sys.run(&ops, 0).cycles)
        });
    });
    Workload {
        name: "system_nextline",
        ns_per_op: m.ns_per_iter / 20_000.0,
        baseline_ns: Some(SYSTEM_NEXTLINE_BASELINE_NS),
    }
}

/// Whole-system throughput with PMP at its paper defaults on the same
/// stream: capture, table training and prediction, and Prefetch Buffer
/// issue on every load.
fn system_pmp() -> Workload {
    let ops = stream_ops(20_000);
    let m = bench_function("sim_throughput/system_pmp", |b| {
        b.iter(|| {
            let mut sys =
                System::new(SystemConfig::single_core(), Box::new(Pmp::new(PmpConfig::default())));
            black_box(sys.run(&ops, 0).cycles)
        });
    });
    Workload { name: "system_pmp", ns_per_op: m.ns_per_iter / 20_000.0, baseline_ns: None }
}

/// Serialize the measurements as the `BENCH_sim.json` document.
fn to_json(workloads: &[Workload]) -> String {
    let mut out = String::from("{\n  \"bench\": \"sim_throughput\",\n  \"unit\": \"ops_per_sec\",\n  \"workloads\": [\n");
    let mut min_speedup = f64::INFINITY;
    for (i, w) in workloads.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"ns_per_op\": {:.1}, \"ops_per_sec\": {:.0}",
            w.name,
            w.ns_per_op,
            1e9 / w.ns_per_op,
        );
        if let (Some(base_ns), Some(speedup)) = (w.baseline_ns, w.speedup()) {
            min_speedup = min_speedup.min(speedup);
            let _ = write!(
                out,
                ", \"baseline_ns_per_op\": {:.1}, \"baseline_ops_per_sec\": {:.0}, \
                 \"speedup\": {:.3}",
                base_ns,
                1e9 / base_ns,
                speedup,
            );
        }
        let _ = writeln!(out, "}}{}", if i + 1 < workloads.len() { "," } else { "" });
    }
    let _ = write!(out, "  ],\n  \"min_speedup\": {min_speedup:.3}\n}}\n");
    out
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "results/BENCH_sim.json".to_string());
    let workloads =
        [demand_walk(), prefetch_walk(), system_stream(), system_nextline(), system_pmp()];
    let json = to_json(&workloads);
    for w in &workloads {
        let speedup =
            w.speedup().map_or(String::new(), |s| format!("  speedup vs pre-PR: {s:.2}x"));
        let ops = 1e9 / w.ns_per_op;
        println!("{:<18} {:>9.1} ns/op  {ops:>12.0} ops/s{speedup}", w.name, w.ns_per_op);
    }
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        if !dir.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(dir);
        }
    }
    std::fs::write(&out_path, &json).expect("write BENCH_sim.json");
    println!("wrote {out_path}");
}
