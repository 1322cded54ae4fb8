//! The multi-core system: private L1D/L2C per core, a shared inclusive
//! LLC and DRAM channels, and the per-op pipeline that drives any
//! number of cores — warmup snapshot, non-memory dispatch, demand
//! access, event delivery, prefetcher training, prefetch issue,
//! measured-window completion — written once.
//!
//! The split is:
//!
//! * `CoreDriver` — everything *per-core*: the CPU model, cumulative
//!   counters, the warmup snapshot and measured-window bookkeeping, the
//!   prefetch scratch buffer, and an optional [`IntervalSampler`].
//! * [`MultiCoreSystem`] — everything *shared*: N drivers, N private
//!   cache slices ([`CoreMem`]), the shared LLC/DRAM ([`SharedMem`]),
//!   one prefetcher per core, the event scratch buffer, and the tracer.
//!
//! Two schedules drive the same internal step routine:
//!
//! * `run_sequential` — the single-core schedule: ops execute in order,
//!   the ROB drains at the end, and the measured window runs to the end
//!   of the trace. [`System`](crate::System) is the 1-core face that
//!   selects it.
//! * [`MultiCoreSystem::run`] / [`MultiCoreSystem::run_bounded`] — the
//!   multi-programmed schedule: cores advance in near-lockstep, each
//!   scheduling step executing one record on the *laggard* core
//!   (minimum local clock), so shared-resource contention (LLC
//!   capacity, DRAM bandwidth) is modelled with roughly synchronised
//!   clocks. A core that exhausts its trace replays it to keep pressure
//!   on the shared resources, but its counters freeze at first
//!   completion of its measured window — the usual multi-programmed
//!   methodology (and the paper's: every core runs its
//!   200M-instruction window).
//!
//! For one core the two address maps below are the identity, so the
//! 1-core system is bit-identical to the historical single-core
//! pipeline (pinned by `tests/golden_stats.rs`).

use crate::config::SystemConfig;
use crate::cpu::Cpu;
use crate::hierarchy::{demand_access, occupancy, prefetch_access, CoreMem, MemEvents, SharedMem};
use crate::stats::{diff_stats, LevelStats, SimStats};
use crate::system::SimResult;
use pmp_obs::{IntervalSample, IntervalSampler, NullTracer, SampleInput, Tracer};
use pmp_prefetch::{AccessInfo, EvictInfo, Prefetcher, PrefetchRequest};
use pmp_types::{CacheLevel, HarnessError, LineAddr, SnapshotError, TraceOp};
use std::path::Path;

/// Per-core virtual-address offset (in cache lines): multi-programmed
/// workloads are independent processes, so each core's addresses are
/// shifted into a private slice of the physical space — otherwise
/// homogeneous mixes would falsely share LLC lines. Identity for core 0,
/// which is what makes the 1-core system bit-identical to the historical
/// single-core pipeline.
fn core_line(line: LineAddr, who: usize) -> LineAddr {
    LineAddr(line.0 + ((who as u64) << 38))
}

/// Inverse of [`core_line`]: events delivered to a core's prefetcher
/// must be in the trace's own address space.
fn uncore_line(line: LineAddr, who: usize) -> LineAddr {
    LineAddr(line.0.wrapping_sub((who as u64) << 38))
}

/// Drain `events` into core `who`'s prefetcher hooks, mapping lines
/// back to the trace's own address space. Draining (rather than
/// `mem::take`, which would drop and reallocate the buffers) keeps the
/// per-op event delivery allocation-free.
fn deliver_events(events: &mut MemEvents, pf: &mut dyn Prefetcher, who: usize, cycle: u64) {
    for line in events.l1d_evictions.drain(..) {
        pf.on_evict(&EvictInfo { line: uncore_line(line, who), cycle });
    }
    for (line, kind) in events.feedback.drain(..) {
        pf.on_feedback(uncore_line(line, who), kind);
    }
}

/// Everything one simulated core owns: its CPU model, cumulative
/// counters, warmup/measured-window bookkeeping, prefetch scratch
/// buffer, and optional interval sampler.
struct CoreDriver {
    cpu: Cpu,
    stats: SimStats,
    pf_buf: Vec<PrefetchRequest>,
    sampler: Option<IntervalSampler>,
    /// Instructions dispatched so far (trace-op granularity).
    dispatched: u64,
    /// Next op index into this core's trace (wraps for replay).
    ops_idx: usize,
    /// Warmup snapshot: (dispatched, cycle, stats) at measurement start.
    snap: Option<(u64, u64, SimStats)>,
    /// Measured-window counters, frozen at first window completion.
    result: Option<SimStats>,
    done: bool,
}

impl CoreDriver {
    fn new(cfg: &SystemConfig) -> Self {
        CoreDriver {
            cpu: Cpu::new(&cfg.core),
            stats: SimStats::default(),
            pf_buf: Vec::with_capacity(64),
            sampler: None,
            dispatched: 0,
            ops_idx: 0,
            snap: None,
            result: None,
            done: false,
        }
    }

    /// Reset the per-run bookkeeping (a reused system starts each run's
    /// warmup and watchdog accounting afresh; microarchitectural state
    /// — caches, CPU clock, counters — carries over, as it always has).
    fn begin_run(&mut self) {
        self.dispatched = 0;
        self.ops_idx = 0;
        self.snap = None;
        self.result = None;
        self.done = false;
    }
}

/// Per-core DRAM traffic attribution over a whole multi-core run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreDramTraffic {
    /// DRAM line fetches (demand + prefetch) this core caused.
    pub requests: u64,
    /// DRAM writes from dirty LLC evictions this core triggered.
    pub writes: u64,
}

/// Per-core outcome of a multi-core run, plus the shared-resource view.
#[derive(Debug, Clone)]
pub struct MultiCoreResult {
    /// Per-core counters over each core's measured window.
    pub cores: Vec<SimStats>,
    /// Shared DRAM requests over the whole run.
    pub dram_requests: u64,
    /// Shared-LLC counters aggregated across all cores over the whole
    /// run (not windowed — contention on the shared level is a property
    /// of the full schedule, warmup included).
    pub llc: LevelStats,
    /// Whole-run DRAM traffic attributed per core: who is consuming the
    /// shared bandwidth.
    pub core_dram: Vec<CoreDramTraffic>,
}

impl MultiCoreResult {
    /// Per-core IPCs.
    pub fn ipcs(&self) -> Vec<f64> {
        self.cores.iter().map(|s| s.ipc()).collect()
    }

    /// Each core's share of the attributed DRAM requests (0..=1; all
    /// zeros when no core touched DRAM).
    pub fn dram_shares(&self) -> Vec<f64> {
        let total: u64 = self.core_dram.iter().map(|c| c.requests).sum();
        self.core_dram
            .iter()
            .map(|c| if total == 0 { 0.0 } else { c.requests as f64 / total as f64 })
            .collect()
    }
}

/// A multi-programmed multi-core system: N `CoreDriver`s over one
/// shared memory system, with the per-op pipeline written exactly once.
///
/// `T` is the tracer every memory operation (from every core) reports
/// lifecycle events to; the default [`NullTracer`] is a ZST whose emits
/// compile away, so uninstrumented simulations pay nothing for the
/// instrumentation. In multi-core runs the tracer observes *physical*
/// (per-core shifted) line addresses, mirroring what the hierarchy
/// sees.
pub struct MultiCoreSystem<T: Tracer = NullTracer> {
    cfg: SystemConfig,
    mems: Vec<CoreMem>,
    shared: SharedMem,
    prefetchers: Vec<Box<dyn Prefetcher>>,
    drivers: Vec<CoreDriver>,
    events: MemEvents,
    tracer: T,
}

impl MultiCoreSystem<NullTracer> {
    /// Build an uninstrumented system with one core per prefetcher.
    ///
    /// # Panics
    ///
    /// Panics if `prefetchers` is empty.
    pub fn new(cfg: SystemConfig, prefetchers: Vec<Box<dyn Prefetcher>>) -> Self {
        MultiCoreSystem::with_tracer(cfg, prefetchers, NullTracer)
    }
}

impl<T: Tracer> MultiCoreSystem<T> {
    /// Build a system whose memory operations report lifecycle events
    /// to `tracer`; `prefetchers` supplies one prefetcher per core.
    ///
    /// # Panics
    ///
    /// Panics if `prefetchers` is empty.
    pub fn with_tracer(
        cfg: SystemConfig,
        prefetchers: Vec<Box<dyn Prefetcher>>,
        tracer: T,
    ) -> Self {
        assert!(!prefetchers.is_empty(), "need at least one core");
        let n = prefetchers.len();
        MultiCoreSystem {
            mems: (0..n).map(|_| CoreMem::new(&cfg)).collect(),
            shared: SharedMem::new(&cfg),
            drivers: (0..n).map(|_| CoreDriver::new(&cfg)).collect(),
            prefetchers,
            events: MemEvents::default(),
            tracer,
            cfg,
        }
    }

    /// The configuration the system was built with.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The tracer receiving lifecycle events.
    pub fn tracer(&self) -> &T {
        &self.tracer
    }

    /// Mutable access to the tracer (e.g. to drain a recorder).
    pub fn tracer_mut(&mut self) -> &mut T {
        &mut self.tracer
    }

    /// Record an [`IntervalSample`] every `period` cycles on every
    /// core. Each sample's DRAM utilization is forwarded to that core's
    /// prefetcher via [`Prefetcher::on_bandwidth`] — in multi-core runs
    /// the DRAM counter is the *shared* one, so every core's prefetcher
    /// observes the contention all cores generate together.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn enable_sampling(&mut self, period: u64) {
        let cycles_per_line = self.shared.dram.cycles_per_line();
        let channels = self.shared.dram.channels() as u32;
        for (who, d) in self.drivers.iter_mut().enumerate() {
            d.sampler =
                Some(IntervalSampler::for_core(period, cycles_per_line, channels, who as u32));
        }
    }

    /// Interval samples recorded for `core` so far (empty unless
    /// [`MultiCoreSystem::enable_sampling`] was called).
    pub fn samples(&self, core: usize) -> &[IntervalSample] {
        self.drivers[core].sampler.as_ref().map(|s| s.samples()).unwrap_or(&[])
    }

    /// Introspection gauges of `core`'s prefetcher, via
    /// [`pmp_prefetch::Introspect`].
    pub fn prefetcher_gauges(&self, core: usize) -> Vec<pmp_prefetch::Gauge> {
        let mut out = Vec::new();
        self.prefetchers[core].gauges(&mut out);
        out
    }

    /// Snapshot core `core`'s learned prefetcher state to `path`,
    /// crash-safely (write-to-temp, verify, atomic rename — see
    /// `pmp_snapshot::write_snapshot`).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Unsupported`] when the prefetcher has no state
    /// walk; otherwise any snapshot encode/IO error.
    pub fn snapshot_core_to(&self, core: usize, path: &Path) -> Result<(), SnapshotError> {
        pmp_snapshot::save_prefetcher(&*self.prefetchers[core], path)
    }

    /// Restore core `core`'s prefetcher learned state from the snapshot
    /// at `path`. Validation is paranoid (kind tag, config fingerprint,
    /// checksums, bounds): on any error the prefetcher is left exactly
    /// as it was.
    ///
    /// # Errors
    ///
    /// Anything `pmp_snapshot::restore_prefetcher` reports.
    pub fn restore_core_from(&mut self, core: usize, path: &Path) -> Result<(), SnapshotError> {
        pmp_snapshot::restore_prefetcher(&mut *self.prefetchers[core], path)
    }

    /// Swap core `core`'s prefetcher for `p`, returning the old one.
    /// Warm-start flows build a fresh prefetcher, restore a snapshot
    /// into it, and install it here.
    pub fn replace_prefetcher(
        &mut self,
        core: usize,
        p: Box<dyn Prefetcher>,
    ) -> Box<dyn Prefetcher> {
        std::mem::replace(&mut self.prefetchers[core], p)
    }

    /// Execute one trace record on core `who`: the warmup snapshot
    /// check, the non-memory prefix, the demand access, event delivery,
    /// prefetcher training and prefetch issue (loads only — the paper:
    /// "The training process performs on L1D loads"), and, when
    /// `measure` is set, the measured-window completion check.
    ///
    /// This is the per-op pipeline, written exactly once.
    fn step(&mut self, who: usize, op: &TraceOp, warmup: u64, measure: Option<u64>) {
        let d = &mut self.drivers[who];
        if d.snap.is_none() && d.dispatched >= warmup {
            d.snap = Some((d.dispatched, d.cpu.now(), d.stats));
        }
        d.cpu.dispatch_nonmem(usize::from(op.nonmem_before));
        let is_load = op.access.kind.is_load();
        let issue = d.cpu.begin_mem_op(is_load, op.dep_on_prev_load);
        self.events.clear();
        let (latency, l1_hit) = demand_access(
            core_line(op.access.addr.line(), who),
            is_load,
            issue,
            who,
            &mut self.mems,
            &mut self.shared,
            &mut self.drivers[who].stats,
            &mut self.events,
            &mut self.tracer,
        );
        let d = &mut self.drivers[who];
        if is_load {
            d.cpu.dispatch_load(issue, latency);
        } else {
            d.cpu.dispatch_store(issue, latency);
        }
        // Deliver events (mapped back to the trace's address space),
        // then train on loads.
        deliver_events(&mut self.events, &mut *self.prefetchers[who], who, issue);
        if is_load {
            let info = AccessInfo {
                access: op.access,
                hit: l1_hit,
                cycle: issue,
                pq_free: self.mems[who].l1_pq_free(issue),
            };
            let mut buf = std::mem::take(&mut self.drivers[who].pf_buf);
            buf.clear();
            self.prefetchers[who].on_access(&info, &mut buf);
            for req in &buf {
                self.events.clear();
                let req = PrefetchRequest { line: core_line(req.line, who), ..*req };
                let _ = prefetch_access(
                    req,
                    issue,
                    who,
                    &mut self.mems,
                    &mut self.shared,
                    &mut self.drivers[who].stats,
                    &mut self.events,
                    &mut self.tracer,
                );
                deliver_events(&mut self.events, &mut *self.prefetchers[who], who, issue);
            }
            self.drivers[who].pf_buf = buf;
        }
        let d = &mut self.drivers[who];
        d.dispatched += op.instruction_count();
        if let Some(measure) = measure {
            if !d.done && d.dispatched >= warmup + measure {
                let (wi, wc, ws) = d.snap.unwrap_or((0, 0, SimStats::default()));
                let mut out = diff_stats(&d.stats, &ws);
                out.instructions = d.dispatched - wi;
                out.cycles = d.cpu.now().saturating_sub(wc).max(1);
                d.result = Some(out);
                d.done = true;
            }
        }
    }

    /// Close core `who`'s sampling window: snapshot the cumulative
    /// counters and occupancies, record the interval, and forward the
    /// window's DRAM utilization to the core's prefetcher.
    fn take_sample(&mut self, who: usize) {
        let now = self.drivers[who].cpu.now();
        let stats = &self.drivers[who].stats;
        let miss = |l: CacheLevel| {
            let lv = stats.level(l);
            lv.load_misses + lv.store_misses
        };
        let misses =
            [miss(CacheLevel::L1D), miss(CacheLevel::L2C), miss(CacheLevel::Llc)];
        let instructions = self.drivers[who].dispatched;
        let (pq_occupancy, mshr_occupancy) = occupancy(&mut self.mems, &mut self.shared, who, now);
        let input = SampleInput {
            cycle: now,
            instructions,
            misses,
            dram_requests: self.shared.dram.requests(),
            pq_occupancy,
            mshr_occupancy,
        };
        if let Some(sampler) = &mut self.drivers[who].sampler {
            let sample = sampler.record(input);
            self.prefetchers[who].on_bandwidth(sample.dram_utilization);
        }
    }

    #[inline]
    fn sample_if_due(&mut self, who: usize) {
        let d = &self.drivers[who];
        if d.sampler.as_ref().is_some_and(|s| s.due(d.cpu.now())) {
            self.take_sample(who);
        }
    }

    /// The single-core schedule: run `ops` in order on core 0, treating
    /// the first `warmup_instructions` as warm-up, draining the ROB at
    /// the end. The measured window spans from the warmup snapshot to
    /// the drained end of the trace.
    ///
    /// The watchdog checks a cycle deadline once per trace op (one
    /// predicted-not-taken compare on the hot path); the budget counts
    /// cycles elapsed *within this call*.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::Timeout`] when `max_cycles` is exhausted;
    /// the partial run's statistics are discarded.
    ///
    /// # Panics
    ///
    /// Panics if the system has more than one core (multi-core runs use
    /// [`MultiCoreSystem::run_bounded`]).
    pub(crate) fn run_sequential(
        &mut self,
        ops: &[TraceOp],
        warmup_instructions: u64,
        max_cycles: u64,
    ) -> Result<SimResult, HarnessError> {
        assert_eq!(self.drivers.len(), 1, "sequential schedule is the 1-core specialization");
        self.drivers[0].begin_run();
        let start_cycle = self.drivers[0].cpu.now();
        let deadline = start_cycle.saturating_add(max_cycles);
        for op in ops {
            let now = self.drivers[0].cpu.now();
            if now >= deadline {
                return Err(HarnessError::Timeout {
                    cycles: now - start_cycle,
                    budget: max_cycles,
                });
            }
            self.step(0, op, warmup_instructions, None);
            self.sample_if_due(0);
        }
        let end_cycle = self.drivers[0].cpu.drain();
        let d = &self.drivers[0];
        let (warm_instr, warm_cycle, warm_stats) = d.snap.unwrap_or((0, 0, SimStats::default()));
        let mut stats = diff_stats(&d.stats, &warm_stats);
        stats.instructions = d.dispatched - warm_instr;
        stats.cycles = end_cycle - warm_cycle;
        Ok(SimResult {
            instructions: stats.instructions,
            cycles: stats.cycles,
            stats,
            prefetcher: self.prefetchers[0].name(),
        })
    }

    /// Run one trace per core on the multi-programmed schedule: each
    /// step executes one record on the laggard core (minimum local
    /// clock). Each core's measured window is `measure_instructions`
    /// after `warmup_instructions`; a core that finishes early replays
    /// its trace with its counters frozen until every core is done.
    ///
    /// # Panics
    ///
    /// Panics if `traces.len()` differs from the core count or any
    /// trace is empty.
    pub fn run(
        &mut self,
        traces: &[&[TraceOp]],
        warmup_instructions: u64,
        measure_instructions: u64,
    ) -> MultiCoreResult {
        match self.run_bounded(traces, warmup_instructions, measure_instructions, u64::MAX) {
            Ok(r) => r,
            Err(e) => unreachable!("a u64::MAX cycle budget cannot be exhausted: {e}"),
        }
    }

    /// [`MultiCoreSystem::run`] under a watchdog bounding each core's
    /// local clock, so a livelocked mix costs one grid cell instead of
    /// hanging a sweep. Since the schedule always steps the
    /// minimum-clock core, the whole system has overrun the budget when
    /// the laggard has.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::Timeout`] when any core's elapsed cycles
    /// within this call exceed `max_cycles`; partial statistics are
    /// discarded.
    ///
    /// # Panics
    ///
    /// Panics if `traces.len()` differs from the core count or any
    /// trace is empty.
    pub fn run_bounded(
        &mut self,
        traces: &[&[TraceOp]],
        warmup_instructions: u64,
        measure_instructions: u64,
        max_cycles: u64,
    ) -> Result<MultiCoreResult, HarnessError> {
        assert_eq!(traces.len(), self.drivers.len(), "one trace per core");
        assert!(traces.iter().all(|t| !t.is_empty()), "traces must be non-empty");
        let starts: Vec<u64> = self.drivers.iter().map(|d| d.cpu.now()).collect();
        for d in &mut self.drivers {
            d.begin_run();
        }
        // Pick the laggard unfinished core each step.
        while let Some(who) = self
            .drivers
            .iter()
            .enumerate()
            .filter(|(_, d)| !d.done)
            .min_by_key(|(_, d)| d.cpu.now())
            .map(|(i, _)| i)
        {
            let elapsed = self.drivers[who].cpu.now() - starts[who];
            if elapsed >= max_cycles {
                return Err(HarnessError::Timeout { cycles: elapsed, budget: max_cycles });
            }
            let ops = traces[who];
            let idx = self.drivers[who].ops_idx;
            let op = ops[idx % ops.len()];
            self.drivers[who].ops_idx = idx + 1;
            self.step(who, &op, warmup_instructions, Some(measure_instructions));
            self.sample_if_due(who);
        }
        let mut llc = LevelStats::default();
        for d in &self.drivers {
            llc.accumulate(d.stats.level(CacheLevel::Llc));
        }
        Ok(MultiCoreResult {
            cores: self
                .drivers
                .iter()
                .map(|d| d.result.unwrap_or_else(|| unreachable!("all cores done")))
                .collect(),
            dram_requests: self.shared.dram.requests(),
            llc,
            core_dram: self
                .drivers
                .iter()
                .map(|d| CoreDramTraffic {
                    requests: d.stats.dram_requests,
                    writes: d.stats.dram_writes,
                })
                .collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmp_prefetch::{NextLine, NoPrefetch};
    use pmp_types::{Addr, MemAccess, Pc};

    fn stream(base: u64, n: u64) -> Vec<TraceOp> {
        (0..n)
            .map(|i| TraceOp::new(MemAccess::load(Pc(0x400), Addr(base + i * 64)), 2, false))
            .collect()
    }

    /// Dependent sequential chase (latency-bound; see system tests).
    fn chase(base: u64, n: u64) -> Vec<TraceOp> {
        (0..n)
            .map(|i| TraceOp::new(MemAccess::load(Pc(0x400), Addr(base + i * 64)), 2, true))
            .collect()
    }

    #[test]
    fn address_maps_are_inverse_and_identity_for_core_zero() {
        let l = LineAddr(0xABCD);
        assert_eq!(core_line(l, 0), l);
        assert_eq!(uncore_line(l, 0), l);
        for who in 1..4 {
            assert_ne!(core_line(l, who), l, "core {who} must be offset");
            assert_eq!(uncore_line(core_line(l, who), who), l);
        }
    }

    #[test]
    fn sequential_and_windows_agree_on_throughput_shape() {
        // Not bit-identical by design (windows freezes at the window
        // boundary instead of draining) but the same system must give
        // the same order-of-magnitude IPC for the same workload.
        let ops = stream(0x100_0000, 2000);
        let seq = MultiCoreSystem::new(SystemConfig::default(), vec![Box::new(NoPrefetch)])
            .run_sequential(&ops, 0, u64::MAX)
            .expect("unbounded");
        let win = MultiCoreSystem::new(SystemConfig::default(), vec![Box::new(NoPrefetch)])
            .run_bounded(&[&ops], 0, 3000, u64::MAX)
            .expect("unbounded");
        assert_eq!(win.cores.len(), 1);
        let (a, b) = (seq.ipc(), win.cores[0].ipc());
        assert!(a > 0.0 && b > 0.0);
        assert!((a / b).abs() > 0.5 && (a / b) < 2.0, "seq {a} vs windows {b}");
    }

    #[test]
    fn windows_watchdog_times_out() {
        let ops = stream(0x100_0000, 4000);
        let err = MultiCoreSystem::new(SystemConfig::quad_core(), {
            (0..4).map(|_| Box::new(NoPrefetch) as Box<dyn Prefetcher>).collect()
        })
        .run_bounded(&[&ops, &ops, &ops, &ops], 0, 1_000_000, 200)
        .expect_err("200 cycles cannot finish");
        assert_eq!(err.kind_tag(), "timeout");
    }

    #[test]
    fn multicore_result_attributes_dram_traffic() {
        let busy = stream(0x100_0000, 1500);
        // Core 1 re-walks a tiny working set: almost no DRAM traffic.
        let mut idle = Vec::new();
        for _ in 0..15 {
            idle.extend(stream(0x900_0000, 100));
        }
        let mut sys = MultiCoreSystem::new(SystemConfig::quad_core(), {
            (0..2).map(|_| Box::new(NoPrefetch) as Box<dyn Prefetcher>).collect()
        });
        let r = sys
            .run_bounded(&[&busy, &idle], 300, 3000, u64::MAX)
            .expect("unbounded");
        assert_eq!(r.core_dram.len(), 2);
        assert!(
            r.core_dram[0].requests > 10 * r.core_dram[1].requests.max(1),
            "streaming core must dominate: {:?}",
            r.core_dram
        );
        let shares = r.dram_shares();
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(shares[0] > 0.9);
        // The shared-LLC aggregate sees both cores' accesses.
        assert!(r.llc.accesses() > 0);
        assert!(r.dram_requests >= r.core_dram.iter().map(|c| c.requests).sum::<u64>());
    }

    #[test]
    fn four_cores_complete() {
        let cfg = SystemConfig::quad_core();
        let pfs: Vec<Box<dyn Prefetcher>> = (0..4).map(|_| {
            Box::new(NoPrefetch) as Box<dyn Prefetcher>
        }).collect();
        let mut sys = MultiCoreSystem::new(cfg, pfs);
        let traces: Vec<Vec<TraceOp>> =
            (0..4).map(|c| stream(0x1000_0000 * (c + 1), 1500)).collect();
        let refs: Vec<&[TraceOp]> = traces.iter().map(|t| t.as_slice()).collect();
        let r = sys.run(&refs, 300, 3000);
        assert_eq!(r.cores.len(), 4);
        for s in &r.cores {
            assert!(s.instructions >= 3000);
            assert!(s.cycles > 0);
        }
        assert!(r.dram_requests > 0);
        // Streaming loads with no prefetch: the shared-LLC aggregate
        // and per-core DRAM attribution are populated and consistent.
        assert!(r.llc.load_accesses > 0);
        assert_eq!(r.core_dram.len(), 4);
        assert!(r.core_dram.iter().all(|c| c.requests > 0));
    }

    #[test]
    fn prefetching_helps_multicore_streams() {
        let cfg = SystemConfig::quad_core();
        let traces: Vec<Vec<TraceOp>> =
            (0..4).map(|c| chase(0x1000_0000 * (c + 1), 3000)).collect();
        let refs: Vec<&[TraceOp]> = traces.iter().map(|t| t.as_slice()).collect();

        let base = {
            let pfs: Vec<Box<dyn Prefetcher>> =
                (0..4).map(|_| Box::new(NoPrefetch) as Box<dyn Prefetcher>).collect();
            MultiCoreSystem::new(cfg.clone(), pfs).run(&refs, 500, 6000)
        };
        let next = {
            let pfs: Vec<Box<dyn Prefetcher>> =
                (0..4).map(|_| Box::new(NextLine::new(4)) as Box<dyn Prefetcher>).collect();
            MultiCoreSystem::new(cfg, pfs).run(&refs, 500, 6000)
        };
        let base_ipc: f64 = base.ipcs().iter().sum();
        let next_ipc: f64 = next.ipcs().iter().sum();
        assert!(next_ipc > base_ipc, "prefetch {next_ipc} vs base {base_ipc}");
    }

    #[test]
    fn multicore_sampling_feeds_every_core() {
        let cfg = SystemConfig::quad_core();
        let pfs: Vec<Box<dyn Prefetcher>> =
            (0..4).map(|_| Box::new(NoPrefetch) as Box<dyn Prefetcher>).collect();
        let mut sys = MultiCoreSystem::new(cfg, pfs);
        sys.enable_sampling(500);
        let traces: Vec<Vec<TraceOp>> =
            (0..4).map(|c| stream(0x1000_0000 * (c + 1), 2000)).collect();
        let refs: Vec<&[TraceOp]> = traces.iter().map(|t| t.as_slice()).collect();
        let _ = sys.run(&refs, 300, 4000);
        for core in 0..4 {
            let samples = sys.samples(core);
            assert!(!samples.is_empty(), "core {core} recorded no samples");
            assert!(samples.iter().all(|s| s.core == core as u32));
            // Four cores streaming through a shared DRAM: every core's
            // sampler sees the *shared* bandwidth pressure.
            assert!(
                samples.iter().any(|s| s.dram_utilization > 0.0),
                "core {core} saw no DRAM utilization"
            );
        }
    }

    /// The bugfix pinned as behaviour: bandwidth-aware prefetchers
    /// (DSPatch, Pythia) only modulate aggressiveness if `on_bandwidth`
    /// is actually delivered in multi-core runs — which the multi-core
    /// driver never did before the pipeline was shared. A probe records every
    /// delivery; with sampling enabled and four cores streaming through
    /// the shared DRAM, every core's hook must fire with a non-zero
    /// utilization.
    #[test]
    fn bandwidth_feedback_reaches_multicore_prefetchers() {
        use pmp_prefetch::{AccessInfo, Introspect, PrefetchRequest};
        use std::cell::Cell;
        use std::rc::Rc;

        /// Counts `on_bandwidth` deliveries and remembers the peak.
        struct BwProbe {
            calls: Rc<Cell<u64>>,
            peak: Rc<Cell<f64>>,
        }
        impl Introspect for BwProbe {}
        impl Prefetcher for BwProbe {
            fn name(&self) -> &'static str {
                "bw-probe"
            }
            fn on_access(&mut self, _info: &AccessInfo, _out: &mut Vec<PrefetchRequest>) {}
            fn on_bandwidth(&mut self, utilization: f64) {
                self.calls.set(self.calls.get() + 1);
                self.peak.set(self.peak.get().max(utilization));
            }
            fn storage_bits(&self) -> u64 {
                0
            }
        }

        let cfg = SystemConfig::quad_core();
        let calls: Vec<Rc<Cell<u64>>> = (0..4).map(|_| Rc::new(Cell::new(0))).collect();
        let peaks: Vec<Rc<Cell<f64>>> = (0..4).map(|_| Rc::new(Cell::new(0.0))).collect();
        let pfs: Vec<Box<dyn Prefetcher>> = (0..4)
            .map(|c| {
                Box::new(BwProbe { calls: calls[c].clone(), peak: peaks[c].clone() })
                    as Box<dyn Prefetcher>
            })
            .collect();
        let mut sys = MultiCoreSystem::new(cfg, pfs);
        sys.enable_sampling(500);
        let traces: Vec<Vec<TraceOp>> =
            (0..4).map(|c| stream(0x1000_0000 * (c + 1), 2500)).collect();
        let refs: Vec<&[TraceOp]> = traces.iter().map(|t| t.as_slice()).collect();
        let _ = sys.run(&refs, 300, 5000);
        for core in 0..4 {
            assert!(
                calls[core].get() > 0,
                "core {core}: on_bandwidth never delivered"
            );
            // The utilization each core sees is computed from the
            // *shared* DRAM counter: four streaming cores guarantee
            // non-zero pressure at every core's prefetcher.
            assert!(
                peaks[core].get() > 0.0,
                "core {core}: delivered utilization stuck at zero"
            );
        }
    }
}
