//! The single-core system: the 1-core face of [`MultiCoreSystem`].
//!
//! `System` holds a 1-core [`MultiCoreSystem`], hides the core index,
//! and selects the sequential schedule (run the trace in order, drain
//! the ROB at the end); the per-op pipeline is the multi-core one.

use crate::config::SystemConfig;
use crate::engine::MultiCoreSystem;
use crate::stats::SimStats;
use pmp_obs::{IntervalSample, NullTracer, Tracer};
use pmp_prefetch::Prefetcher;
use pmp_types::{HarnessError, TraceOp};

/// Result of a single-core simulation.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Retired instructions in the measured window.
    pub instructions: u64,
    /// Cycles in the measured window.
    pub cycles: u64,
    /// Counters for the measured window.
    pub stats: SimStats,
    /// Name of the prefetcher that ran.
    pub prefetcher: &'static str,
}

impl SimResult {
    /// Instructions per cycle over the measured window.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }
}

/// A single simulated core with its private caches, a shared memory
/// system, and an L1D prefetcher.
///
/// `T` is the tracer every memory operation reports lifecycle events
/// to; the default [`NullTracer`] is a ZST whose emits compile away, so
/// uninstrumented simulations pay nothing for the instrumentation.
pub struct System<T: Tracer = NullTracer> {
    engine: MultiCoreSystem<T>,
}

impl System<NullTracer> {
    /// Build an uninstrumented system with the given configuration and
    /// prefetcher.
    pub fn new(cfg: SystemConfig, prefetcher: Box<dyn Prefetcher>) -> Self {
        System::with_tracer(cfg, prefetcher, NullTracer)
    }
}

impl<T: Tracer> System<T> {
    /// Build a system whose memory operations report lifecycle events
    /// to `tracer`.
    pub fn with_tracer(cfg: SystemConfig, prefetcher: Box<dyn Prefetcher>, tracer: T) -> Self {
        System { engine: MultiCoreSystem::with_tracer(cfg, vec![prefetcher], tracer) }
    }

    /// Record an [`IntervalSample`] every `period` cycles during `run`.
    /// Each sample's DRAM utilization is also forwarded to the
    /// prefetcher via [`pmp_prefetch::Prefetcher::on_bandwidth`].
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn enable_sampling(&mut self, period: u64) {
        self.engine.enable_sampling(period);
    }

    /// Interval samples recorded so far (empty unless
    /// [`System::enable_sampling`] was called).
    pub fn samples(&self) -> &[IntervalSample] {
        self.engine.samples(0)
    }

    /// The tracer receiving this system's lifecycle events.
    pub fn tracer(&self) -> &T {
        self.engine.tracer()
    }

    /// Mutable access to the tracer (e.g. to drain a recorder).
    pub fn tracer_mut(&mut self) -> &mut T {
        self.engine.tracer_mut()
    }

    /// The prefetcher's introspection gauges, via
    /// [`pmp_prefetch::Introspect`].
    pub fn prefetcher_gauges(&self) -> Vec<pmp_prefetch::Gauge> {
        self.engine.prefetcher_gauges(0)
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        self.engine.config()
    }

    /// Run `ops`, treating the first `warmup_instructions` retired
    /// instructions as warm-up (they update all microarchitectural
    /// state but are excluded from the returned counters) — mirroring
    /// the paper's 50M-warm-up / 200M-measure methodology at a smaller
    /// scale.
    pub fn run(&mut self, ops: &[TraceOp], warmup_instructions: u64) -> SimResult {
        match self.run_bounded(ops, warmup_instructions, u64::MAX) {
            Ok(r) => r,
            Err(e) => unreachable!("a u64::MAX cycle budget cannot be exhausted: {e}"),
        }
    }

    /// [`System::run`] under a watchdog: abort with
    /// [`HarnessError::Timeout`] once the run has consumed `max_cycles`
    /// core cycles, so a livelocked or pathologically slow
    /// configuration costs one grid cell instead of hanging a sweep.
    ///
    /// The budget counts cycles elapsed *within this call* (a reused
    /// `System` does not inherit earlier runs' cycles). The guard is a
    /// single predicted-not-taken compare per trace record, so the hot
    /// path is unaffected.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::Timeout`] when the budget is exhausted;
    /// the partial run's statistics are discarded.
    pub fn run_bounded(
        &mut self,
        ops: &[TraceOp],
        warmup_instructions: u64,
        max_cycles: u64,
    ) -> Result<SimResult, HarnessError> {
        self.engine.run_sequential(ops, warmup_instructions, max_cycles)
    }

    /// Snapshot the prefetcher's learned state to `path`, crash-safely.
    ///
    /// # Errors
    ///
    /// [`pmp_types::SnapshotError::Unsupported`] when the prefetcher
    /// has no state walk; otherwise any snapshot encode/IO error.
    pub fn snapshot_to(&self, path: &std::path::Path) -> Result<(), pmp_types::SnapshotError> {
        self.engine.snapshot_core_to(0, path)
    }

    /// Restore the prefetcher's learned state from the snapshot at
    /// `path`; on any validation error the prefetcher is untouched.
    ///
    /// # Errors
    ///
    /// Anything `pmp_snapshot::restore_prefetcher` reports.
    pub fn restore_from(
        &mut self,
        path: &std::path::Path,
    ) -> Result<(), pmp_types::SnapshotError> {
        self.engine.restore_core_from(0, path)
    }

    /// Swap the prefetcher for `p`, returning the old one (warm-start
    /// flows install a fresh prefetcher before restoring into it).
    pub fn replace_prefetcher(&mut self, p: Box<dyn Prefetcher>) -> Box<dyn Prefetcher> {
        self.engine.replace_prefetcher(0, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmp_prefetch::{NextLine, NoPrefetch};
    use pmp_types::{Addr, CacheLevel, MemAccess, Pc};

    fn stream_ops(n: u64) -> Vec<TraceOp> {
        (0..n)
            .map(|i| {
                TraceOp::new(MemAccess::load(Pc(0x400), Addr(0x100_0000 + i * 64)), 2, false)
            })
            .collect()
    }

    #[test]
    fn baseline_runs_and_counts() {
        let mut sys = System::new(SystemConfig::default(), Box::new(NoPrefetch));
        let ops = stream_ops(2000);
        let r = sys.run(&ops, 0);
        assert_eq!(r.instructions, 3 * 2000);
        assert!(r.cycles > 0);
        assert!(r.stats.level(CacheLevel::L1D).load_accesses == 2000);
        // Streaming over fresh memory: every access is a cold miss.
        assert_eq!(r.stats.level(CacheLevel::L1D).load_misses, 2000);
        assert_eq!(r.stats.dram_requests, 2000);
    }

    /// A latency-bound sequential pointer chase: each load's address
    /// depends on the previous one, so without prefetching the misses
    /// serialise at full memory latency.
    fn chase_ops(n: u64) -> Vec<TraceOp> {
        (0..n)
            .map(|i| {
                let mut op = TraceOp::new(
                    MemAccess::load(Pc(0x400), Addr(0x100_0000 + i * 64)),
                    2,
                    true,
                );
                op.dep_on_prev_load = true;
                op
            })
            .collect()
    }

    #[test]
    fn next_line_speeds_up_chase() {
        let ops = chase_ops(3000);
        let base = System::new(SystemConfig::default(), Box::new(NoPrefetch)).run(&ops, 0);
        let next = System::new(SystemConfig::default(), Box::new(NextLine::new(4))).run(&ops, 0);
        assert!(
            next.ipc() > base.ipc() * 3.0,
            "next-line IPC {} should crush baseline {} on a sequential chase",
            next.ipc(),
            base.ipc()
        );
        assert!(next.stats.level(CacheLevel::L1D).pf_useful > 1000);
    }

    #[test]
    fn warmup_excludes_counters() {
        let ops = stream_ops(2000);
        let mut sys = System::new(SystemConfig::default(), Box::new(NoPrefetch));
        let r = sys.run(&ops, 3000);
        assert!(r.instructions < 3 * 2000);
        assert!(r.stats.level(CacheLevel::L1D).load_accesses < 2000);
    }

    #[test]
    fn sampling_produces_time_series() {
        let mut sys = System::new(SystemConfig::default(), Box::new(NoPrefetch));
        sys.enable_sampling(1000);
        let r = sys.run(&stream_ops(4000), 0);
        let samples = sys.samples();
        assert!(samples.len() >= 10, "got {} samples over {} cycles", samples.len(), r.cycles);
        // A cold streaming run misses constantly: MPKI and DRAM traffic
        // are non-zero in the busy windows.
        assert!(samples.iter().any(|s| s.mpki[0] > 0.0), "L1D MPKI all zero");
        assert!(samples.iter().any(|s| s.ipc > 0.0), "IPC all zero");
        assert!(
            samples.iter().any(|s| s.dram_utilization > 0.0),
            "utilization all zero"
        );
        assert!(samples.iter().all(|s| (0.0..=1.0).contains(&s.dram_utilization)));
        // Single-core samples carry the core-0 tag.
        assert!(samples.iter().all(|s| s.core == 0));
        // Windows are contiguous and strictly increasing.
        for w in samples.windows(2) {
            assert!(w[1].end_cycle > w[0].end_cycle);
            assert_eq!(w[1].start_cycle, w[0].end_cycle);
        }
        // Without enable_sampling there are no samples.
        let mut plain = System::new(SystemConfig::default(), Box::new(NoPrefetch));
        plain.run(&stream_ops(1000), 0);
        assert!(plain.samples().is_empty());
    }

    #[test]
    fn collector_traces_prefetch_lifecycle() {
        use pmp_obs::{EventKind, ObsCollector};
        let mut sys = System::with_tracer(
            SystemConfig::default(),
            Box::new(NextLine::new(4)),
            ObsCollector::new(),
        );
        sys.run(&stream_ops(3000), 0);
        let c = sys.tracer();
        assert!(c.count(EventKind::PrefetchIssued) > 0);
        assert!(c.count(EventKind::PrefetchAdmitted) > 0);
        assert!(c.count(EventKind::PrefetchFill) > 0);
        assert!(c.count(EventKind::PrefetchUseful) > 0);
        assert!(c.count(EventKind::DemandMiss) > 0);
        assert!(c.count(EventKind::DramFetch) > 0);
        // Conservation: every issued prefetch is admitted, dropped, or
        // redundant.
        assert_eq!(
            c.count(EventKind::PrefetchIssued),
            c.count(EventKind::PrefetchAdmitted)
                + c.count(EventKind::PrefetchDropped)
                + c.count(EventKind::PrefetchRedundant)
        );
    }

    #[test]
    fn watchdog_fires_on_small_budget() {
        let ops = chase_ops(3000);
        let mut sys = System::new(SystemConfig::default(), Box::new(NoPrefetch));
        let err = sys.run_bounded(&ops, 0, 500).expect_err("500 cycles cannot finish a chase");
        match err {
            HarnessError::Timeout { cycles, budget } => {
                assert_eq!(budget, 500);
                assert!(cycles >= 500, "watchdog fired early at {cycles}");
            }
            other => panic!("expected Timeout, got {other}"),
        }
    }

    #[test]
    fn watchdog_budget_is_per_run() {
        // A budget that comfortably covers one run must keep covering
        // re-runs on the same (already warmed, cycle-advanced) system.
        let ops = stream_ops(500);
        let mut sys = System::new(SystemConfig::default(), Box::new(NoPrefetch));
        let first =
            sys.run_bounded(&ops, 0, 10_000_000).expect("generous budget");
        let second =
            sys.run_bounded(&ops, 0, 10_000_000).expect("budget must reset between runs");
        assert!(first.cycles > 0 && second.cycles > 0);
    }

    #[test]
    fn bounded_run_matches_unbounded() {
        let ops = stream_ops(2000);
        let free = System::new(SystemConfig::default(), Box::new(NoPrefetch)).run(&ops, 0);
        let bounded = System::new(SystemConfig::default(), Box::new(NoPrefetch))
            .run_bounded(&ops, 0, u64::MAX)
            .expect("unbounded");
        assert_eq!(free.cycles, bounded.cycles);
        assert_eq!(free.stats, bounded.stats);
    }

    #[test]
    fn repeated_working_set_hits() {
        // Working set of 128 lines (8KB) accessed repeatedly: fits L1D.
        let mut ops = Vec::new();
        for rep in 0..20u64 {
            for i in 0..128u64 {
                let _ = rep;
                ops.push(TraceOp::new(
                    MemAccess::load(Pc(0x400), Addr(0x50_0000 + i * 64)),
                    0,
                    false,
                ));
            }
        }
        let r = System::new(SystemConfig::default(), Box::new(NoPrefetch)).run(&ops, 0);
        let l1 = r.stats.level(CacheLevel::L1D);
        // The cold pass misses; a handful of second-pass accesses merge
        // with still-in-flight fills and also count as misses.
        assert!(
            (128..256).contains(&l1.load_misses),
            "misses = {}",
            l1.load_misses
        );
        assert!(l1.load_accesses - l1.load_misses > 2000, "hits should dominate");
        // Steady state (cold pass excluded by warm-up) runs near width.
        let mut warm = System::new(SystemConfig::default(), Box::new(NoPrefetch));
        let ops2 = ops.clone();
        let w = warm.run(&ops2, 1280);
        assert!(w.ipc() > 3.0, "warmed ipc = {}", w.ipc());
    }
}
