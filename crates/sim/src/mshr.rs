//! Miss status holding registers (MSHRs).
//!
//! Each cache level owns a bounded set of MSHR entries tracking lines
//! with in-flight misses. Accesses to a line already in flight merge
//! into the existing entry (and complete when it does); when all entries
//! are busy, a new miss must wait for the earliest completion.

use pmp_obs::{TraceEvent, Tracer};
use pmp_types::{CacheLevel, LineAddr};

#[derive(Debug, Clone, Copy)]
struct Entry {
    line: LineAddr,
    ready: u64,
}

/// A bounded MSHR file for one cache level.
///
/// Completed entries are reclaimed lazily: `min_ready` tracks the
/// earliest completion cycle across the file, and the purge scan is
/// skipped entirely while `now < min_ready` (no entry can have
/// completed). Every query observes exactly the same entry set as an
/// eager purge-on-every-call scheme would, at a fraction of the cost —
/// the memory walk queries the MSHRs several times per trace op.
#[derive(Debug, Clone)]
pub struct Mshr {
    entries: Vec<Entry>,
    capacity: usize,
    /// Earliest `ready` among `entries`; `u64::MAX` when empty.
    min_ready: u64,
}

impl Mshr {
    /// Create an MSHR file with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR capacity must be positive");
        Mshr { entries: Vec::with_capacity(capacity), capacity, min_ready: u64::MAX }
    }

    /// Drop entries whose miss completed at or before `now`.
    ///
    /// Fast path: while `now < min_ready` nothing can have completed,
    /// so the scan is skipped and the entry set is provably identical
    /// to what an eager purge would leave.
    fn purge(&mut self, now: u64) {
        if now < self.min_ready {
            return;
        }
        self.entries.retain(|e| e.ready > now);
        self.min_ready = self.entries.iter().map(|e| e.ready).min().unwrap_or(u64::MAX);
    }

    /// Number of in-flight entries at `now`.
    pub fn occupancy(&mut self, now: u64) -> usize {
        self.purge(now);
        self.entries.len()
    }

    /// Free entries at `now`.
    pub fn free(&mut self, now: u64) -> usize {
        self.capacity - self.occupancy(now)
    }

    /// Completion time of the in-flight miss for `line`, if any.
    pub fn inflight(&mut self, now: u64, line: LineAddr) -> Option<u64> {
        self.purge(now);
        self.entries.iter().find(|e| e.line == line).map(|e| e.ready)
    }

    /// Cycles until at least one entry is free (0 if one is free now);
    /// a non-zero wait is reported as a [`TraceEvent::MshrStall`] at
    /// `level`.
    pub fn wait_for_free<T: Tracer>(&mut self, now: u64, level: CacheLevel, tracer: &mut T) -> u64 {
        self.purge(now);
        if self.entries.len() < self.capacity {
            return 0;
        }
        let earliest = self.entries.iter().map(|e| e.ready).min().expect("full file");
        let wait = earliest - now;
        tracer.emit(TraceEvent::MshrStall { level, cycle: now, wait });
        wait
    }

    /// Allocate an entry for `line` completing at `ready`.
    ///
    /// The caller must have consulted [`Mshr::inflight`] /
    /// [`Mshr::wait_for_free`] first; this method evicts the earliest
    /// completing entry if the file is somehow still full (which models
    /// the entry having completed by `ready`).
    pub fn allocate(&mut self, now: u64, line: LineAddr, ready: u64) {
        self.purge(now);
        if self.entries.len() == self.capacity {
            // The earliest entry completes before `ready`; retire it.
            let idx = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.ready)
                .map(|(i, _)| i)
                .expect("full file");
            self.entries.swap_remove(idx);
            self.min_ready = self.entries.iter().map(|e| e.ready).min().unwrap_or(u64::MAX);
        }
        self.entries.push(Entry { line, ready });
        self.min_ready = self.min_ready.min(ready);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmp_obs::NullTracer;

    #[test]
    fn merge_in_flight() {
        let mut m = Mshr::new(2);
        m.allocate(0, LineAddr(1), 100);
        assert_eq!(m.inflight(0, LineAddr(1)), Some(100));
        assert_eq!(m.inflight(0, LineAddr(2)), None);
    }

    #[test]
    fn entries_expire() {
        let mut m = Mshr::new(2);
        m.allocate(0, LineAddr(1), 100);
        assert_eq!(m.occupancy(50), 1);
        assert_eq!(m.occupancy(100), 0);
        assert_eq!(m.inflight(100, LineAddr(1)), None);
    }

    #[test]
    fn wait_when_full() {
        let mut m = Mshr::new(2);
        m.allocate(0, LineAddr(1), 100);
        m.allocate(0, LineAddr(2), 60);
        assert_eq!(m.wait_for_free(10, CacheLevel::L2C, &mut NullTracer), 50);
        // After 60, one slot is free.
        assert_eq!(m.wait_for_free(60, CacheLevel::L2C, &mut NullTracer), 0);
    }

    #[test]
    fn traced_wait_emits_stall_only_when_waiting() {
        use pmp_obs::{EventKind, ObsCollector};
        let mut m = Mshr::new(1);
        let mut obs = ObsCollector::new();
        assert_eq!(m.wait_for_free(0, CacheLevel::L2C, &mut obs), 0);
        assert_eq!(obs.count(EventKind::MshrStall), 0);
        m.allocate(0, LineAddr(1), 100);
        assert_eq!(m.wait_for_free(40, CacheLevel::L2C, &mut obs), 60);
        assert_eq!(obs.count(EventKind::MshrStall), 1);
    }

    /// The lazy purge must be observationally identical to an eager
    /// retain-on-every-query purge over an arbitrary operation mix.
    #[test]
    fn lazy_purge_matches_eager_semantics() {
        let mut m = Mshr::new(4);
        let mut eager: Vec<(LineAddr, u64)> = Vec::new();
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut now = 0u64;
        for i in 0..2000u64 {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            now += seed >> 61; // advance 0..=7 cycles
            let line = LineAddr(seed % 16);
            match seed % 3 {
                0 => {
                    eager.retain(|e| e.1 > now);
                    if eager.len() == 4 {
                        let idx = eager
                            .iter()
                            .enumerate()
                            .min_by_key(|(_, e)| e.1)
                            .map(|(j, _)| j)
                            .unwrap();
                        eager.swap_remove(idx);
                    }
                    let ready = now + 1 + (seed >> 32) % 200;
                    eager.push((line, ready));
                    m.allocate(now, line, ready);
                }
                1 => {
                    eager.retain(|e| e.1 > now);
                    let expect = eager.iter().find(|e| e.0 == line).map(|e| e.1);
                    assert_eq!(m.inflight(now, line), expect, "op {i} at {now}");
                }
                _ => {
                    eager.retain(|e| e.1 > now);
                    assert_eq!(m.occupancy(now), eager.len(), "op {i} at {now}");
                }
            }
        }
    }

    #[test]
    fn free_counts() {
        let mut m = Mshr::new(3);
        assert_eq!(m.free(0), 3);
        m.allocate(0, LineAddr(1), 10);
        m.allocate(0, LineAddr(2), 20);
        assert_eq!(m.free(5), 1);
        assert_eq!(m.free(15), 2);
    }
}
