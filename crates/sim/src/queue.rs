//! Bounded prefetch queues (PQ).
//!
//! A prefetch occupies a PQ entry while the cache processes it (lookup
//! plus MSHR hand-off, a few cycles) — matching ChampSim, where the PQ
//! is a request queue that drains into the MSHRs rather than a tracker
//! of in-flight fills. When the queue is full, new prefetches are
//! rejected; PMP reacts by parking the remainder of its prefetch
//! pattern in the Prefetch Buffer and resuming on the next access to
//! the region (Section IV-B of the paper).

use pmp_obs::{TraceEvent, Tracer};
use pmp_types::CacheLevel;

/// Cycles a prefetch occupies its queue entry while being processed.
pub const PQ_PROCESS_CYCLES: u64 = 4;

/// A bounded prefetch request queue for one cache level.
///
/// Drained entries are reclaimed lazily, mirroring [`crate::mshr::Mshr`]:
/// `min_release` tracks the earliest release cycle so the purge scan is
/// skipped while nothing can have drained.
#[derive(Debug, Clone)]
pub struct PrefetchQueue {
    release: Vec<u64>,
    capacity: usize,
    /// Earliest entry in `release`; `u64::MAX` when empty.
    min_release: u64,
}

impl PrefetchQueue {
    /// Create a queue with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "PQ capacity must be positive");
        PrefetchQueue { release: Vec::with_capacity(capacity), capacity, min_release: u64::MAX }
    }

    fn purge(&mut self, now: u64) {
        if now < self.min_release {
            return;
        }
        self.release.retain(|&r| r > now);
        self.min_release = self.release.iter().copied().min().unwrap_or(u64::MAX);
    }

    /// Requests still being processed at `now`.
    pub fn occupancy(&mut self, now: u64) -> usize {
        self.purge(now);
        self.release.len()
    }

    /// Free entries at `now`.
    pub fn free(&mut self, now: u64) -> usize {
        self.capacity - self.occupancy(now)
    }

    /// Try to enqueue a request at `now`; returns `false` when full. A
    /// successful enqueue is reported (with the resulting occupancy) as
    /// a [`TraceEvent::PqEnqueue`] at `level`.
    pub fn push<T: Tracer>(&mut self, now: u64, level: CacheLevel, tracer: &mut T) -> bool {
        self.purge(now);
        if self.release.len() >= self.capacity {
            return false;
        }
        let release = now + PQ_PROCESS_CYCLES;
        self.release.push(release);
        self.min_release = self.min_release.min(release);
        tracer.emit(TraceEvent::PqEnqueue {
            level,
            cycle: now,
            occupancy: self.release.len() as u32,
        });
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmp_obs::NullTracer;

    #[test]
    fn fills_then_rejects() {
        let mut q = PrefetchQueue::new(2);
        assert!(q.push(0, CacheLevel::L1D, &mut NullTracer));
        assert!(q.push(0, CacheLevel::L1D, &mut NullTracer));
        assert!(!q.push(0, CacheLevel::L1D, &mut NullTracer));
        assert_eq!(q.free(0), 0);
    }

    #[test]
    fn drains_after_processing() {
        let mut q = PrefetchQueue::new(2);
        q.push(0, CacheLevel::L1D, &mut NullTracer);
        q.push(0, CacheLevel::L1D, &mut NullTracer);
        assert_eq!(q.free(PQ_PROCESS_CYCLES), 2);
        assert!(q.push(PQ_PROCESS_CYCLES, CacheLevel::L1D, &mut NullTracer));
    }

    #[test]
    fn traced_push_reports_occupancy() {
        use pmp_obs::{EventKind, ObsCollector, RingRecorder, TraceEvent};
        let mut q = PrefetchQueue::new(2);
        let mut obs = (ObsCollector::new(), RingRecorder::new(4));
        assert!(q.push(0, CacheLevel::L1D, &mut obs));
        assert!(q.push(0, CacheLevel::L1D, &mut obs));
        assert!(!q.push(0, CacheLevel::L1D, &mut obs), "full queue rejects");
        assert_eq!(obs.0.count(EventKind::PqEnqueue), 2, "rejections are not enqueues");
        let last = obs.1.iter().last().unwrap();
        assert_eq!(
            *last,
            TraceEvent::PqEnqueue { level: CacheLevel::L1D, cycle: 0, occupancy: 2 }
        );
    }

    #[test]
    fn burst_is_bounded_but_trickle_is_not() {
        let mut q = PrefetchQueue::new(8);
        // A same-cycle burst of 12 admits only 8 ...
        let admitted = (0..12).filter(|_| q.push(100, CacheLevel::L1D, &mut NullTracer)).count();
        assert_eq!(admitted, 8);
        // ... but a spread-out stream all fits.
        let mut t = 200;
        for _ in 0..32 {
            assert!(q.push(t, CacheLevel::L1D, &mut NullTracer));
            t += PQ_PROCESS_CYCLES;
        }
    }
}
