//! The traced pass: per-layer metrics, never used for the end-to-end
//! figures.
//!
//! It runs the workload once through `run_grid` (the untraced twin),
//! then every cell once more, single-threaded, through the lower-level
//! public calls: each trace is built under a timer, replayed through
//! `hierarchy::demand_access`, and simulated twice — once plainly and
//! once with every prefetcher wrapped in [`Timed`]. A cell whose plain
//! or timed statistics differ from its twin counts as failed.

use crate::inputs::Inputs;
use crate::stats::{nearest_rank, ratio};
use crate::timing::{CallTimes, Timed};
use crate::{cell_stats, checks};
use pmp_bench::prefetchers::PrefetcherKind;
use pmp_bench::runner::{run_grid, CellSpec};
use pmp_prefetch::{Gauge, Prefetcher};
use pmp_sim::hierarchy::{demand_access, CoreMem, MemEvents, SharedMem};
use pmp_sim::{MultiCoreSystem, NullTracer, SimStats, System, SystemConfig};
use pmp_traces::{Trace, TraceSpec};
use pmp_types::{LineAddr, TraceOp};
use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

/// Per-layer metric prefixes of the prefetchers the workloads run.
pub const PREFETCHER_LAYERS: [&str; 6] = [
    "core.pmp",
    "baselines.spp-ppf",
    "baselines.bingo",
    "baselines.dspatch",
    "baselines.pythia",
    "prefetch.none",
];

/// Metric prefix of `kind`'s layer.
fn layer_of(kind: &PrefetcherKind) -> &'static str {
    match kind {
        PrefetcherKind::Pmp => "core.pmp",
        PrefetcherKind::SppPpf => "baselines.spp-ppf",
        PrefetcherKind::Bingo => "baselines.bingo",
        PrefetcherKind::DsPatch => "baselines.dspatch",
        PrefetcherKind::Pythia => "baselines.pythia",
        PrefetcherKind::None => "prefetch.none",
        other => panic!("no benchmark layer for prefetcher {}", other.label()),
    }
}

/// One metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// What the traced pass measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Per-layer metrics, every name the benchmark declares.
    pub metrics: Vec<Metric>,
    /// Cells attempted.
    pub attempted: u64,
    /// Cells that failed or whose outputs failed a check.
    pub failed: u64,
    /// One line per failure.
    pub problems: Vec<String>,
}

/// Callback time, simulated work and outcomes of one prefetcher layer.
#[derive(Debug, Default)]
struct LayerTotals {
    times: CallTimes,
    run_ns: u64,
    issued: u64,
    useful: u64,
}

/// PMP's `Introspect` gauges, summed over every PMP instance.
#[derive(Debug, Default)]
struct PmpGauges {
    lookups: f64,
    hits: f64,
    merged: f64,
    halvings: f64,
    opt_occupancy: f64,
    ppt_occupancy: f64,
    instances: f64,
}

impl PmpGauges {
    fn add(&mut self, gauges: &[Gauge]) {
        self.instances += 1.0;
        for g in gauges {
            match g.name {
                "table_lookups" => self.lookups += g.value,
                "pattern_hits" => self.hits += g.value,
                "patterns_merged" => self.merged += g.value,
                "cv_halvings" => self.halvings += g.value,
                "opt_occupancy" => self.opt_occupancy += g.value,
                "ppt_occupancy" => self.ppt_occupancy += g.value,
                _ => {}
            }
        }
    }
}

/// The traces of one cell.
fn cell_specs(cell: &CellSpec) -> Vec<TraceSpec> {
    match cell {
        CellSpec::Synthetic(spec) => vec![spec.clone()],
        CellSpec::Mix(mix) => mix.specs.to_vec(),
        CellSpec::File(path) => {
            panic!("the benchmark generates no file cells ({})", path.display())
        }
    }
}

/// Simulate one cell with the given per-core prefetchers; returns each
/// core's measured-window counters, the host nanoseconds inside `run`,
/// and each core's prefetcher gauges after the run.
fn simulate(
    inputs: &Inputs,
    traces: &[Trace],
    prefetchers: Vec<Box<dyn Prefetcher>>,
) -> (Vec<SimStats>, u64, Vec<Vec<Gauge>>) {
    let warmup = inputs.cfg.scale.warmup_instructions();
    let system = inputs.cfg.system.clone();
    if inputs.is_mix() {
        let mut sys = MultiCoreSystem::new(system, prefetchers);
        let refs: Vec<&[TraceOp]> = traces.iter().map(|t| t.ops.as_slice()).collect();
        let start = Instant::now();
        let result = sys.run(&refs, warmup, inputs.mix_window());
        let ns = start.elapsed().as_nanos() as u64;
        let gauges = (0..traces.len())
            .map(|i| sys.prefetcher_gauges(i))
            .collect();
        (result.cores, ns, gauges)
    } else {
        let prefetcher = prefetchers
            .into_iter()
            .next()
            .expect("one prefetcher per core");
        let mut sys = System::new(system, prefetcher);
        let start = Instant::now();
        let result = sys.run(&traces[0].ops, warmup);
        let ns = start.elapsed().as_nanos() as u64;
        (vec![result.stats], ns, vec![sys.prefetcher_gauges()])
    }
}

/// Replay the traces' demand line streams through
/// `hierarchy::demand_access` on a fresh hierarchy (one core per
/// trace, interleaved round-robin, on one clock advanced by each
/// access's latency). Returns host nanoseconds and accesses replayed.
fn replay_demand(traces: &[Trace], system: &SystemConfig) -> (u64, u64) {
    let mut cores: Vec<CoreMem> = traces.iter().map(|_| CoreMem::new(system)).collect();
    let mut shared = SharedMem::new(system);
    let mut stats = SimStats::default();
    let mut events = MemEvents::default();
    let mut tracer = NullTracer;
    let longest = traces.iter().map(|t| t.ops.len()).max().unwrap_or(0);
    let mut now = 0u64;
    let mut accesses = 0u64;
    let start = Instant::now();
    for i in 0..longest {
        for (who, trace) in traces.iter().enumerate() {
            let Some(op) = trace.ops.get(i) else { continue };
            // Each core gets its own address space, as the engine does,
            // so identical traces on two cores do not share lines.
            let line = LineAddr(op.access.addr.line().0 + ((who as u64) << 38));
            events.clear();
            let (latency, _) = demand_access(
                line,
                op.access.kind.is_load(),
                now,
                who,
                &mut cores,
                &mut shared,
                &mut stats,
                &mut events,
                &mut tracer,
            );
            now += latency.max(1);
            accesses += 1;
        }
    }
    let ns = start.elapsed().as_nanos() as u64;
    std::hint::black_box(&stats);
    (ns, accesses)
}

/// Run the traced pass over `inputs` with `workers` grid workers.
pub fn run(inputs: &Inputs, workers: usize) -> Report {
    let mut report = Report {
        attempted: inputs.expected_cells() as u64,
        ..Report::default()
    };
    let mut failed: HashSet<(String, String)> = HashSet::new();
    let mut fail = |key: (String, String), why: String, report: &mut Report| {
        report.problems.push(why);
        failed.insert(key);
    };

    // The untraced twin, through the public grid entry point.
    let start = Instant::now();
    let (outcomes, summary) = run_grid(&inputs.cells, &inputs.kinds, &inputs.cfg);
    let grid_s = start.elapsed().as_secs_f64();
    if let Some(why) = checks::globals_uninstalled() {
        report.problems.push(why);
        report.failed = report.attempted;
    }
    for f in &summary.failures {
        fail(
            (f.trace.clone(), f.prefetcher.clone()),
            f.to_string(),
            &mut report,
        );
    }
    let twins = cell_stats(&outcomes);
    let mut totals = SimStats::default();
    for o in &outcomes {
        if let Some(why) = checks::check_cell(o, inputs) {
            fail((o.trace.clone(), o.prefetcher.clone()), why, &mut report);
        }
        add_stats(&mut totals, &o.result.stats);
    }

    let warmup = inputs.cfg.scale.warmup_instructions();
    let mut build_ns = 0u64;
    let (mut demand_ns, mut demand_accesses) = (0u64, 0u64);
    let mut cell_us: Vec<u64> = Vec::new();
    let (mut plain_ns, mut timed_ns) = (0u64, 0u64);
    let (mut self_ns, mut self_instr) = (0i128, 0u64);
    let mut layers: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    let mut pmp = PmpGauges::default();
    for cell in &inputs.cells {
        let traces: Vec<Trace> = cell_specs(cell)
            .iter()
            .map(|spec| {
                let start = Instant::now();
                let trace = spec.build(inputs.cfg.scale);
                build_ns += start.elapsed().as_nanos() as u64;
                trace
            })
            .collect();
        let (ns, n) = replay_demand(&traces, &inputs.cfg.system);
        demand_ns += ns;
        demand_accesses += n;
        for kind in &inputs.kinds {
            let key = (cell.name(), kind.label());
            let Some(twin) = twins.get(&key) else {
                continue;
            };
            let plain_pfs = traces.iter().map(|_| kind.build()).collect();
            let (plain, ns, _) = simulate(inputs, &traces, plain_pfs);
            plain_ns += ns;
            cell_us.push(ns / 1000);

            let (timed_pfs, handles): (Vec<_>, Vec<_>) =
                traces.iter().map(|_| Timed::wrap(kind.build())).unzip();
            let (timed, ns, gauges) = simulate(inputs, &traces, timed_pfs);
            timed_ns += ns;
            for (label, stats) in [("plain", &plain), ("timed", &timed)] {
                if stats != twin {
                    let why = format!("{} × {}: {label} run differs from run_grid", key.0, key.1);
                    fail(key.clone(), why, &mut report);
                }
            }

            let layer = layers.entry(layer_of(kind)).or_default();
            layer.run_ns += ns;
            let mut callback_ns = 0u64;
            for (handle, stats) in handles.iter().zip(&timed) {
                let times = handle.get();
                callback_ns += times.total_ns();
                layer.times.add(&times);
                layer.issued += stats.pf_issued;
                layer.useful += stats.levels.iter().map(|l| l.pf_useful).sum::<u64>();
                self_instr += warmup + stats.instructions;
            }
            self_ns += i128::from(ns) - i128::from(callback_ns);
            if matches!(kind, PrefetcherKind::Pmp) {
                for g in &gauges {
                    pmp.add(g);
                }
            }
        }
    }
    let missing = inputs
        .expected_cells()
        .saturating_sub(outcomes.len() + summary.failures.len());
    if missing > 0 {
        report
            .problems
            .push(format!("{missing} cells never reported"));
    }
    report.failed = report.failed.max((failed.len() + missing) as u64);

    let m = &mut report.metrics;
    let mut push =
        |name: &str, value: f64, unit: &'static str| m.push((name.to_string(), value, unit));
    push("traces.build_ms", build_ns as f64 / 1e6, "ms");
    push("traces.builds", summary.trace_builds as f64, "count");
    push(
        "traces.cache_hits",
        summary.trace_cache_hits as f64,
        "count",
    );
    for (name, p) in [
        ("bench.cell_ms_p50", 50.0),
        ("bench.cell_ms_p95", 95.0),
        ("bench.cell_ms_max", 100.0),
    ] {
        push(
            name,
            nearest_rank(&cell_us, p).unwrap_or(0) as f64 / 1e3,
            "ms",
        );
    }
    push(
        "bench.harness_frac",
        1.0 - ratio(plain_ns as f64 / 1e9, grid_s * workers as f64),
        "fraction",
    );
    let per_instr = ratio(self_ns as f64, self_instr as f64);
    let (single, multi) = if inputs.is_mix() {
        (0.0, per_instr)
    } else {
        (per_instr, 0.0)
    };
    push("sim.self_ns_per_instr", single, "ns");
    push("sim.mc.ns_per_instr", multi, "ns");
    push(
        "sim.hierarchy.demand_ns",
        ratio(demand_ns as f64, demand_accesses as f64),
        "ns",
    );
    let kinstr = totals.instructions as f64 / 1e3;
    let misses = |i: usize| totals.levels[i].misses() as f64;
    push("sim.l1d_mpki", ratio(misses(0), kinstr), "1/kinstr");
    push("sim.l2c_mpki", ratio(misses(1), kinstr), "1/kinstr");
    push("sim.llc_mpki", ratio(misses(2), kinstr), "1/kinstr");
    push(
        "sim.dram_per_kinstr",
        ratio(totals.dram_requests as f64, kinstr),
        "1/kinstr",
    );
    push("sim.pf_issued", totals.pf_issued as f64, "count");
    let issued = totals.pf_issued as f64;
    push(
        "sim.pf_dropped_frac",
        ratio(totals.pf_dropped as f64, issued),
        "fraction",
    );
    push(
        "sim.pf_redundant_frac",
        ratio(totals.pf_redundant as f64, issued),
        "fraction",
    );
    for prefix in PREFETCHER_LAYERS {
        let l = layers.remove(prefix).unwrap_or_default();
        let t = &l.times;
        push(
            &format!("{prefix}.on_access_ns"),
            ratio(t.access_ns as f64, t.access_calls as f64),
            "ns",
        );
        push(
            &format!("{prefix}.callback_ns"),
            ratio(t.callback_ns as f64, t.callback_calls as f64),
            "ns",
        );
        push(&format!("{prefix}.calls"), t.access_calls as f64, "count");
        push(
            &format!("{prefix}.reqs_per_access"),
            ratio(t.requests as f64, t.access_calls as f64),
            "count",
        );
        push(
            &format!("{prefix}.accuracy"),
            ratio(l.useful as f64, l.issued as f64),
            "fraction",
        );
        push(
            &format!("{prefix}.time_frac"),
            ratio(t.total_ns() as f64, l.run_ns as f64),
            "fraction",
        );
    }
    push(
        "core.pmp.pattern_hit_rate",
        ratio(pmp.hits, pmp.lookups),
        "fraction",
    );
    push("core.pmp.patterns_merged", pmp.merged, "count");
    push("core.pmp.cv_halvings", pmp.halvings, "count");
    push(
        "core.pmp.opt_occupancy",
        ratio(pmp.opt_occupancy, pmp.instances),
        "fraction",
    );
    push(
        "core.pmp.ppt_occupancy",
        ratio(pmp.ppt_occupancy, pmp.instances),
        "fraction",
    );
    push(
        "trace_overhead_frac",
        ratio(timed_ns as f64, plain_ns as f64) - 1.0,
        "fraction",
    );
    report
}

/// Field-wise `acc += s` over the counters the per-layer metrics read.
fn add_stats(acc: &mut SimStats, s: &SimStats) {
    acc.instructions += s.instructions;
    acc.pf_issued += s.pf_issued;
    acc.pf_dropped += s.pf_dropped;
    acc.pf_redundant += s.pf_redundant;
    acc.dram_requests += s.dram_requests;
    for (a, l) in acc.levels.iter_mut().zip(&s.levels) {
        a.accumulate(l);
    }
}
