//! Raw simulation counters.

use pmp_types::CacheLevel;

/// Per-cache-level counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Demand loads that reached this level.
    pub load_accesses: u64,
    /// Demand loads that missed at this level.
    pub load_misses: u64,
    /// Demand stores that reached this level.
    pub store_accesses: u64,
    /// Demand stores that missed at this level.
    pub store_misses: u64,
    /// Prefetch fills into this level.
    pub pf_fills: u64,
    /// Prefetched lines demanded before eviction at this level.
    pub pf_useful: u64,
    /// Prefetched lines evicted (or invalidated) untouched.
    pub pf_useless: u64,
    /// Prefetched lines that arrived after a demand miss to the same
    /// line was already outstanding (late prefetches). A late prefetch
    /// still hid part of the miss latency, so it is counted in
    /// `pf_useful` *as well* — `pf_late` is a subset of `pf_useful`,
    /// not a disjoint bucket.
    pub pf_late: u64,
    /// Dirty evictions at this level (write-backs to the next level).
    pub writebacks: u64,
}

impl LevelStats {
    /// Demand accesses (loads + stores).
    pub fn accesses(&self) -> u64 {
        self.load_accesses + self.store_accesses
    }

    /// Demand misses (loads + stores).
    pub fn misses(&self) -> u64 {
        self.load_misses + self.store_misses
    }

    /// Count one demand access as a load or a store, and as a miss
    /// when `miss` is set.
    pub(crate) fn count_demand(&mut self, is_load: bool, miss: bool) {
        let (accesses, misses) = if is_load {
            (&mut self.load_accesses, &mut self.load_misses)
        } else {
            (&mut self.store_accesses, &mut self.store_misses)
        };
        *accesses += 1;
        *misses += u64::from(miss);
    }

    /// Prefetch accuracy at this level: useful / (useful + useless).
    /// Returns `None` when no prefetch outcome has been observed.
    pub fn accuracy(&self) -> Option<f64> {
        let total = self.pf_useful + self.pf_useless;
        (total > 0).then(|| self.pf_useful as f64 / total as f64)
    }

    /// Field-wise `self += other`: aggregates one level's counters
    /// across cores (the multi-core engine sums each core's view of the
    /// shared LLC into one contention picture).
    pub fn accumulate(&mut self, other: &LevelStats) {
        self.load_accesses += other.load_accesses;
        self.load_misses += other.load_misses;
        self.store_accesses += other.store_accesses;
        self.store_misses += other.store_misses;
        self.pf_fills += other.pf_fills;
        self.pf_useful += other.pf_useful;
        self.pf_useless += other.pf_useless;
        self.pf_late += other.pf_late;
        self.writebacks += other.writebacks;
    }
}

/// Counters for one simulated core plus the memory system it saw.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Retired instructions.
    pub instructions: u64,
    /// Elapsed core cycles.
    pub cycles: u64,
    /// Per-level counters, indexed by [`CacheLevel::index`].
    pub levels: [LevelStats; 3],
    /// Prefetch requests emitted by the prefetcher.
    pub pf_issued: u64,
    /// Requests admitted into a prefetch queue.
    pub pf_admitted: u64,
    /// Requests dropped for a full PQ or MSHR.
    pub pf_dropped: u64,
    /// Requests dropped because the line was already resident close
    /// enough to the core.
    pub pf_redundant: u64,
    /// DRAM line requests (demand + prefetch), for NMT.
    pub dram_requests: u64,
    /// DRAM writes from dirty LLC evictions.
    pub dram_writes: u64,
}

impl SimStats {
    /// Counters for `level`.
    pub fn level(&self, level: CacheLevel) -> &LevelStats {
        &self.levels[level.index()]
    }

    /// Mutable counters for `level`.
    pub fn level_mut(&mut self, level: CacheLevel) -> &mut LevelStats {
        &mut self.levels[level.index()]
    }

    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// LLC misses per kilo-instruction (the paper's workload-selection
    /// metric: every evaluated trace has MPKI > 5 without prefetching).
    pub fn llc_mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.level(CacheLevel::Llc).misses() as f64 * 1000.0 / self.instructions as f64
        }
    }
}

/// Field-wise `a - b` for counters: extracts a measured window from
/// cumulative stats given a warm-up snapshot.
///
/// Subtraction saturates at zero so a snapshot taken *after* more
/// counting (or a mismatched pair) yields zeros instead of a panic in
/// debug builds / wrapped garbage in release builds.
pub fn diff_stats(a: &SimStats, b: &SimStats) -> SimStats {
    let mut out = SimStats {
        instructions: a.instructions.saturating_sub(b.instructions),
        cycles: a.cycles.saturating_sub(b.cycles),
        pf_issued: a.pf_issued.saturating_sub(b.pf_issued),
        pf_admitted: a.pf_admitted.saturating_sub(b.pf_admitted),
        pf_dropped: a.pf_dropped.saturating_sub(b.pf_dropped),
        pf_redundant: a.pf_redundant.saturating_sub(b.pf_redundant),
        dram_requests: a.dram_requests.saturating_sub(b.dram_requests),
        dram_writes: a.dram_writes.saturating_sub(b.dram_writes),
        ..SimStats::default()
    };
    for i in 0..3 {
        let (oa, ob, o) = (&a.levels[i], &b.levels[i], &mut out.levels[i]);
        o.load_accesses = oa.load_accesses.saturating_sub(ob.load_accesses);
        o.load_misses = oa.load_misses.saturating_sub(ob.load_misses);
        o.store_accesses = oa.store_accesses.saturating_sub(ob.store_accesses);
        o.store_misses = oa.store_misses.saturating_sub(ob.store_misses);
        o.pf_fills = oa.pf_fills.saturating_sub(ob.pf_fills);
        o.pf_useful = oa.pf_useful.saturating_sub(ob.pf_useful);
        o.pf_useless = oa.pf_useless.saturating_sub(ob.pf_useless);
        o.pf_late = oa.pf_late.saturating_sub(ob.pf_late);
        o.writebacks = oa.writebacks.saturating_sub(ob.writebacks);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diff_subtracts_fields() {
        let mut a = SimStats { instructions: 100, cycles: 50, ..SimStats::default() };
        a.levels[0].load_accesses = 30;
        let mut b = SimStats { instructions: 40, cycles: 20, ..SimStats::default() };
        b.levels[0].load_accesses = 10;
        let d = diff_stats(&a, &b);
        assert_eq!(d.instructions, 60);
        assert_eq!(d.cycles, 30);
        assert_eq!(d.levels[0].load_accesses, 20);
    }

    #[test]
    fn diff_saturates_instead_of_underflowing() {
        // b > a in several fields: the difference clamps at zero
        // rather than panicking (debug) or wrapping (release).
        let mut a = SimStats { instructions: 10, cycles: 5, ..SimStats::default() };
        a.levels[1].pf_useful = 2;
        let mut b = SimStats { instructions: 40, cycles: 20, dram_requests: 7, ..SimStats::default() };
        b.levels[1].pf_useful = 9;
        b.levels[2].writebacks = 3;
        let d = diff_stats(&a, &b);
        assert_eq!(d.instructions, 0);
        assert_eq!(d.cycles, 0);
        assert_eq!(d.dram_requests, 0);
        assert_eq!(d.levels[1].pf_useful, 0);
        assert_eq!(d.levels[2].writebacks, 0);
    }

    #[test]
    fn accuracy_none_without_outcomes() {
        let l = LevelStats::default();
        assert_eq!(l.accuracy(), None);
    }

    #[test]
    fn accuracy_ratio() {
        let l = LevelStats { pf_useful: 3, pf_useless: 1, ..LevelStats::default() };
        assert_eq!(l.accuracy(), Some(0.75));
    }

    #[test]
    fn ipc_and_mpki() {
        let mut s = SimStats { instructions: 2000, cycles: 1000, ..SimStats::default() };
        s.level_mut(CacheLevel::Llc).load_misses = 20;
        assert_eq!(s.ipc(), 2.0);
        assert_eq!(s.llc_mpki(), 10.0);
    }

    #[test]
    fn zero_division_guards() {
        let s = SimStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.llc_mpki(), 0.0);
    }
}
