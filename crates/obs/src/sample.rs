//! Per-interval time-series sampling.
//!
//! Every `period` cycles the driving system feeds the sampler a
//! [`SampleInput`] of *cumulative* gauges; the sampler differences
//! consecutive snapshots into one [`IntervalSample`] of per-window
//! rates (IPC, per-level MPKI, DRAM bandwidth utilization) plus
//! instantaneous occupancies. Keeping the window arithmetic here — pure
//! and free of simulator types — makes it unit-testable in isolation
//! and reusable by the multi-core driver later.

/// Cumulative counters + instantaneous occupancies at one cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SampleInput {
    /// Current cycle.
    pub cycle: u64,
    /// Instructions retired so far.
    pub instructions: u64,
    /// Cumulative demand misses per level (L1D, L2C, LLC).
    pub misses: [u64; 3],
    /// Cumulative DRAM requests (reads + writebacks).
    pub dram_requests: u64,
    /// Prefetch-queue occupancy per level right now.
    pub pq_occupancy: [u32; 3],
    /// MSHR occupancy per level right now.
    pub mshr_occupancy: [u32; 3],
}

/// One sampling window's derived rates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntervalSample {
    /// The core this window was sampled on (0 for single-core runs).
    /// Multi-core drivers run one sampler per core; merged sample
    /// streams stay attributable through this tag.
    pub core: u32,
    /// First cycle of the window.
    pub start_cycle: u64,
    /// Last cycle of the window (exclusive).
    pub end_cycle: u64,
    /// Instructions retired in the window.
    pub instructions: u64,
    /// Instructions per cycle over the window.
    pub ipc: f64,
    /// Misses per kilo-instruction per level (L1D, L2C, LLC).
    pub mpki: [f64; 3],
    /// DRAM channel utilization over the window (0..=1).
    pub dram_utilization: f64,
    /// Prefetch-queue occupancy at the window's end, per level.
    pub pq_occupancy: [u32; 3],
    /// MSHR occupancy at the window's end, per level.
    pub mshr_occupancy: [u32; 3],
}

/// Differences cumulative [`SampleInput`] snapshots into
/// [`IntervalSample`] windows every `period` cycles.
#[derive(Debug, Clone)]
pub struct IntervalSampler {
    period: u64,
    /// DRAM channel-cycles consumed per request (transfer time).
    dram_cycles_per_request: f64,
    /// Number of DRAM channels.
    dram_channels: u32,
    /// Core tag stamped onto every emitted sample.
    core: u32,
    prev: SampleInput,
    next_boundary: u64,
    samples: Vec<IntervalSample>,
}

impl IntervalSampler {
    /// Create a sampler firing every `period` cycles, tagging samples
    /// with core 0. `dram_cycles_per_request` and `dram_channels`
    /// parameterise the bandwidth-utilization calculation.
    ///
    /// # Panics
    ///
    /// Panics if `period` or `dram_channels` is zero.
    pub fn new(period: u64, dram_cycles_per_request: f64, dram_channels: u32) -> Self {
        IntervalSampler::for_core(period, dram_cycles_per_request, dram_channels, 0)
    }

    /// [`IntervalSampler::new`] with an explicit core tag: multi-core
    /// drivers run one sampler per core and stamp each sample with the
    /// core it was taken on.
    ///
    /// # Panics
    ///
    /// Panics if `period` or `dram_channels` is zero.
    pub fn for_core(
        period: u64,
        dram_cycles_per_request: f64,
        dram_channels: u32,
        core: u32,
    ) -> Self {
        assert!(period > 0, "sampling period must be positive");
        assert!(dram_channels > 0, "need at least one DRAM channel");
        IntervalSampler {
            period,
            dram_cycles_per_request,
            dram_channels,
            core,
            prev: SampleInput::default(),
            next_boundary: period,
            samples: Vec::new(),
        }
    }

    /// The configured period in cycles.
    pub fn period(&self) -> u64 {
        self.period
    }

    /// `true` once `cycle` has crossed the next window boundary.
    pub fn due(&self, cycle: u64) -> bool {
        cycle >= self.next_boundary
    }

    /// Close the current window with the snapshot `input` and return
    /// the new sample. The caller decides *when* (normally when
    /// [`IntervalSampler::due`] fires); windows therefore cover the
    /// actual cycle span between snapshots, which may exceed `period`
    /// when a single long-latency operation overshoots the boundary.
    pub fn record(&mut self, input: SampleInput) -> IntervalSample {
        let window = input.cycle.saturating_sub(self.prev.cycle).max(1);
        let d_instr = input.instructions.saturating_sub(self.prev.instructions);
        let d_dram = input.dram_requests.saturating_sub(self.prev.dram_requests);
        let mut mpki = [0.0f64; 3];
        for (i, m) in mpki.iter_mut().enumerate() {
            let d_miss = input.misses[i].saturating_sub(self.prev.misses[i]);
            *m = if d_instr == 0 { 0.0 } else { d_miss as f64 * 1000.0 / d_instr as f64 };
        }
        let busy = d_dram as f64 * self.dram_cycles_per_request;
        let capacity = window as f64 * f64::from(self.dram_channels);
        let sample = IntervalSample {
            core: self.core,
            start_cycle: self.prev.cycle,
            end_cycle: input.cycle,
            instructions: d_instr,
            ipc: d_instr as f64 / window as f64,
            mpki,
            dram_utilization: (busy / capacity).min(1.0),
            pq_occupancy: input.pq_occupancy,
            mshr_occupancy: input.mshr_occupancy,
        };
        self.samples.push(sample);
        self.prev = input;
        // Next boundary: the first multiple of `period` beyond `input.cycle`.
        self.next_boundary = (input.cycle / self.period + 1) * self.period;
        sample
    }

    /// All samples recorded so far.
    pub fn samples(&self) -> &[IntervalSample] {
        &self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input(cycle: u64, instr: u64, misses: [u64; 3], dram: u64) -> SampleInput {
        SampleInput {
            cycle,
            instructions: instr,
            misses,
            dram_requests: dram,
            pq_occupancy: [1, 2, 3],
            mshr_occupancy: [4, 5, 6],
        }
    }

    #[test]
    fn window_arithmetic_differences_cumulative_gauges() {
        let mut s = IntervalSampler::new(100, 10.0, 1);
        assert!(!s.due(99));
        assert!(s.due(100));
        let a = s.record(input(100, 200, [10, 5, 2], 4));
        assert_eq!(a.start_cycle, 0);
        assert_eq!(a.end_cycle, 100);
        assert_eq!(a.instructions, 200);
        assert!((a.ipc - 2.0).abs() < 1e-12);
        assert!((a.mpki[0] - 50.0).abs() < 1e-12); // 10 misses / 0.2 kI
        assert!((a.dram_utilization - 0.4).abs() < 1e-12); // 4 * 10 / 100
        // Second window sees only the deltas.
        let b = s.record(input(200, 300, [10, 5, 2], 4));
        assert_eq!(b.instructions, 100);
        assert!((b.ipc - 1.0).abs() < 1e-12);
        assert_eq!(b.mpki, [0.0, 0.0, 0.0]);
        assert_eq!(b.dram_utilization, 0.0);
        assert_eq!(s.samples().len(), 2);
    }

    #[test]
    fn overshoot_realigns_next_boundary() {
        let mut s = IntervalSampler::new(100, 1.0, 1);
        // A long-latency op carried the clock to 250 before sampling.
        let a = s.record(input(250, 100, [0; 3], 0));
        assert_eq!(a.end_cycle - a.start_cycle, 250, "window covers real span");
        assert!(!s.due(299));
        assert!(s.due(300), "boundary realigns to the next period multiple");
    }

    #[test]
    fn utilization_clamps_and_empty_window_is_safe() {
        let mut s = IntervalSampler::new(10, 100.0, 1);
        let a = s.record(input(10, 0, [0; 3], 50));
        assert_eq!(a.dram_utilization, 1.0, "clamped at 1.0");
        assert_eq!(a.ipc, 0.0);
        assert_eq!(a.mpki, [0.0; 3], "no instructions → MPKI 0, not NaN");
        // Same-cycle snapshot: window clamps to 1 cycle, no divide by 0.
        let b = s.record(input(10, 0, [0; 3], 50));
        assert_eq!(b.instructions, 0);
        assert!(b.ipc.is_finite());
    }

    #[test]
    fn occupancies_pass_through() {
        let mut s = IntervalSampler::new(10, 1.0, 2);
        let a = s.record(input(10, 1, [0; 3], 0));
        assert_eq!(a.pq_occupancy, [1, 2, 3]);
        assert_eq!(a.mshr_occupancy, [4, 5, 6]);
    }

    #[test]
    fn core_tag_stamps_samples() {
        let mut s0 = IntervalSampler::new(10, 1.0, 1);
        assert_eq!(s0.record(input(10, 1, [0; 3], 0)).core, 0);
        let mut s3 = IntervalSampler::for_core(10, 1.0, 1, 3);
        assert_eq!(s3.record(input(10, 1, [0; 3], 0)).core, 3);
    }
}
