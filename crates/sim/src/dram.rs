//! DRAM model: fixed access latency plus bandwidth-limited channels.
//!
//! Each channel is a serial resource: a 64-byte line transfer occupies
//! it for [`DramConfig::cycles_per_line`] core cycles. Requests that
//! find the channel busy queue behind it, so heavy prefetch traffic
//! inflates everyone's latency — the mechanism behind the paper's
//! Fig. 12a bandwidth-sensitivity result.

use crate::config::DramConfig;
use pmp_obs::{TraceEvent, Tracer};
use pmp_types::LineAddr;

/// The DRAM subsystem: one or more serial channels plus a request
/// counter used for the paper's Normalized Memory Traffic metric.
#[derive(Debug, Clone)]
pub struct Dram {
    next_free: Vec<f64>,
    cycles_per_line: f64,
    latency: u64,
    requests: u64,
}

impl Dram {
    /// Build from configuration.
    pub fn new(cfg: &DramConfig) -> Self {
        assert!(cfg.channels > 0, "need at least one DRAM channel");
        Dram {
            next_free: vec![0.0; cfg.channels],
            cycles_per_line: cfg.cycles_per_line(),
            latency: cfg.latency,
            requests: 0,
        }
    }

    /// Perform one line access at cycle `now`; returns its latency in
    /// cycles (queuing + fixed latency + transfer) and reports it as a
    /// [`TraceEvent::DramFetch`].
    pub fn access<T: Tracer>(&mut self, now: u64, line: LineAddr, tracer: &mut T) -> u64 {
        self.requests += 1;
        let ch = (line.0 as usize) % self.next_free.len();
        let start = self.next_free[ch].max(now as f64);
        self.next_free[ch] = start + self.cycles_per_line;
        let queue_wait = (start - now as f64) as u64;
        let latency = queue_wait + self.latency + self.cycles_per_line.ceil() as u64;
        tracer.emit(TraceEvent::DramFetch { line, cycle: now, latency });
        latency
    }

    /// Total requests served (demand + prefetch), for NMT.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Core cycles one line transfer occupies a channel.
    pub fn cycles_per_line(&self) -> f64 {
        self.cycles_per_line
    }

    /// Number of DRAM channels.
    pub fn channels(&self) -> usize {
        self.next_free.len()
    }

    /// Queue a write-back: occupies channel bandwidth but nothing
    /// waits on its latency. Reported as a [`TraceEvent::DramWriteback`]
    /// stamped with `now`.
    pub fn write_back<T: Tracer>(&mut self, line: LineAddr, now: u64, tracer: &mut T) {
        self.requests += 1;
        let ch = (line.0 as usize) % self.next_free.len();
        self.next_free[ch] += self.cycles_per_line;
        tracer.emit(TraceEvent::DramWriteback { line, cycle: now });
    }

    /// Fraction of cycles the channels were busy up to `now` (0..=1);
    /// a crude utilization signal some prefetchers (DSPatch, Pythia)
    /// condition on.
    pub fn utilization(&self, now: u64) -> f64 {
        if now == 0 {
            return 0.0;
        }
        let busy: f64 = self.requests as f64 * self.cycles_per_line;
        (busy / (now as f64 * self.next_free.len() as f64)).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmp_obs::NullTracer;

    fn cfg(mts: u64, channels: usize) -> DramConfig {
        DramConfig { mts, channels, core_hz: 4_000_000_000, latency: 160 }
    }

    #[test]
    fn idle_latency() {
        let mut d = Dram::new(&cfg(3200, 1));
        // 10 cycles/line at 3200 MT/s.
        assert_eq!(d.access(0, LineAddr(0), &mut NullTracer), 170);
        assert_eq!(d.requests(), 1);
    }

    #[test]
    fn back_to_back_queues() {
        let mut d = Dram::new(&cfg(3200, 1));
        let a = d.access(0, LineAddr(0), &mut NullTracer);
        let b = d.access(0, LineAddr(2), &mut NullTracer);
        assert_eq!(a, 170);
        assert_eq!(b, 180); // waited 10 cycles for the channel
    }

    #[test]
    fn channels_are_independent() {
        let mut d = Dram::new(&cfg(3200, 2));
        let a = d.access(0, LineAddr(0), &mut NullTracer); // channel 0
        let b = d.access(0, LineAddr(1), &mut NullTracer); // channel 1
        assert_eq!(a, 170);
        assert_eq!(b, 170);
    }

    #[test]
    fn low_bandwidth_hurts_more() {
        let mut fast = Dram::new(&cfg(3200, 1));
        let mut slow = Dram::new(&cfg(800, 1));
        let mut fast_total = 0;
        let mut slow_total = 0;
        for i in 0..16 {
            fast_total += fast.access(0, LineAddr(i), &mut NullTracer);
            slow_total += slow.access(0, LineAddr(i), &mut NullTracer);
        }
        assert!(slow_total > fast_total);
    }

    #[test]
    fn utilization_grows() {
        let mut d = Dram::new(&cfg(3200, 1));
        assert_eq!(d.utilization(0), 0.0);
        for i in 0..50 {
            d.access(i * 10, LineAddr(i), &mut NullTracer);
        }
        assert!(d.utilization(500) > 0.9);
    }
}
