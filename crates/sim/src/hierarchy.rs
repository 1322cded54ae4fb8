//! The three-level inclusive cache hierarchy.
//!
//! [`CoreMem`] holds a core's private L1D and L2C; [`SharedMem`] holds
//! the (possibly shared) inclusive LLC and the DRAM model. Free
//! functions walk demand and prefetch requests through the levels,
//! because the multi-core system needs simultaneous mutable access to
//! all cores' private caches for back-invalidation.
//!
//! ## Timing model
//!
//! The hierarchy resolves each request's latency at issue time: cache
//! directories are updated immediately, while availability is tracked
//! by MSHR entries carrying the fill-ready cycle. A demand access to a
//! line whose miss is still in flight merges with the MSHR entry and
//! completes when it does. This "latency at issue" scheme avoids a full
//! event queue while still modelling MSHR occupancy, prefetch-queue
//! backpressure, and DRAM channel queuing.

use crate::cache::{Cache, LineMeta};
use crate::config::SystemConfig;
use crate::dram::Dram;
use crate::mshr::Mshr;
use crate::queue::PrefetchQueue;
use crate::tlb::Tlb;
use crate::stats::SimStats;
use pmp_obs::{DropReason, TraceEvent, Tracer};
use pmp_prefetch::{FeedbackKind, PrefetchRequest};
use pmp_types::{CacheLevel, LineAddr};

/// A core's private cache levels (L1D + L2C) with their MSHRs and
/// prefetch queues.
#[derive(Debug)]
pub struct CoreMem {
    /// L1 data cache directory.
    pub l1d: Cache,
    /// L2 cache directory.
    pub l2c: Cache,
    l1_mshr: Mshr,
    l2_mshr: Mshr,
    l1_pq: PrefetchQueue,
    l2_pq: PrefetchQueue,
    l1_lat: u64,
    l2_lat: u64,
    /// Per-core data TLB (demand accesses translate through it).
    pub tlb: Tlb,
}

impl CoreMem {
    /// Build private caches from the system configuration.
    pub fn new(cfg: &SystemConfig) -> Self {
        CoreMem {
            l1d: Cache::new(&cfg.l1d),
            l2c: Cache::new(&cfg.l2c),
            l1_mshr: Mshr::new(cfg.l1d.mshrs),
            l2_mshr: Mshr::new(cfg.l2c.mshrs),
            l1_pq: PrefetchQueue::new(cfg.l1d.pq_entries),
            l2_pq: PrefetchQueue::new(cfg.l2c.pq_entries),
            l1_lat: cfg.l1d.latency,
            l2_lat: cfg.l2c.latency,
            tlb: Tlb::new(&cfg.tlb),
        }
    }

    /// The prefetch budget exposed to the prefetcher via
    /// [`pmp_prefetch::AccessInfo::pq_free`]: free L1D PQ entries,
    /// further capped by MSHR headroom (two entries stay reserved for
    /// demand misses). The cap keeps the budget honest: prefetchers
    /// that pop targets from an internal buffer lose whatever the
    /// admission stage would drop, so the budget must not exceed what
    /// the memory system can actually accept this cycle.
    pub fn l1_pq_free(&mut self, now: u64) -> usize {
        let pq = self.l1_pq.free(now);
        let mshr = self.l1_mshr.free(now).saturating_sub(2);
        pq.min(mshr)
    }

    /// Current PQ occupancy of the private levels at `now`: `[L1D, L2C]`.
    pub fn pq_occupancy(&mut self, now: u64) -> [u32; 2] {
        [self.l1_pq.occupancy(now) as u32, self.l2_pq.occupancy(now) as u32]
    }

    /// Current MSHR occupancy of the private levels at `now`: `[L1D, L2C]`.
    pub fn mshr_occupancy(&mut self, now: u64) -> [u32; 2] {
        [self.l1_mshr.occupancy(now) as u32, self.l2_mshr.occupancy(now) as u32]
    }
}

/// The shared memory system: inclusive LLC plus DRAM.
#[derive(Debug)]
pub struct SharedMem {
    /// Last-level cache directory (shared in multi-core).
    pub llc: Cache,
    llc_mshr: Mshr,
    llc_pq: PrefetchQueue,
    llc_lat: u64,
    /// The DRAM model.
    pub dram: Dram,
}

impl SharedMem {
    /// Build the shared memory system from the configuration.
    pub fn new(cfg: &SystemConfig) -> Self {
        SharedMem {
            llc: Cache::new(&cfg.llc),
            llc_mshr: Mshr::new(cfg.llc.mshrs),
            llc_pq: PrefetchQueue::new(cfg.llc.pq_entries),
            llc_lat: cfg.llc.latency,
            dram: Dram::new(&cfg.dram),
        }
    }

    /// Current LLC PQ occupancy at `now`.
    pub fn llc_pq_occupancy(&mut self, now: u64) -> u32 {
        self.llc_pq.occupancy(now) as u32
    }

    /// Current LLC MSHR occupancy at `now`.
    pub fn llc_mshr_occupancy(&mut self, now: u64) -> u32 {
        self.llc_mshr.occupancy(now) as u32
    }
}

/// Side effects of one memory operation that the driving system must
/// forward to the prefetcher.
///
/// Built once per system and reused for every operation: the drivers
/// `clear`/`drain` the buffers instead of replacing them, so after the
/// first few operations the hot path performs no allocation (a single
/// op produces at most a handful of events — one eviction per filled
/// level plus the LLC back-invalidation fan-out).
#[derive(Debug)]
pub struct MemEvents {
    /// Lines evicted (or back-invalidated) out of this core's L1D.
    pub l1d_evictions: Vec<LineAddr>,
    /// Outcome feedback for prefetched lines.
    pub feedback: Vec<(LineAddr, FeedbackKind)>,
}

impl Default for MemEvents {
    fn default() -> Self {
        MemEvents { l1d_evictions: Vec::with_capacity(8), feedback: Vec::with_capacity(8) }
    }
}

impl MemEvents {
    /// Clear both event lists (reuse between operations).
    pub fn clear(&mut self) {
        self.l1d_evictions.clear();
        self.feedback.clear();
    }
}

fn account_eviction<T: Tracer>(
    level: CacheLevel,
    line: LineAddr,
    meta: LineMeta,
    now: u64,
    stats: &mut SimStats,
    events: &mut MemEvents,
    tracer: &mut T,
) {
    if meta.dirty {
        stats.level_mut(level).writebacks += 1;
        tracer.emit(TraceEvent::Writeback { line, level, cycle: now });
    }
    if meta.prefetched {
        stats.level_mut(level).pf_useless += 1;
        tracer.emit(TraceEvent::PrefetchUseless { line, level, cycle: now });
        if level == CacheLevel::L1D {
            events.feedback.push((line, FeedbackKind::Useless));
        }
    }
    if level == CacheLevel::L1D {
        events.l1d_evictions.push(line);
    }
}

/// Insert `line` into `level` of the hierarchy, accounting evictions
/// and performing LLC back-invalidation across all cores.
#[allow(clippy::too_many_arguments)] // the memory-walk context is irreducible
fn insert_line<T: Tracer>(
    level: CacheLevel,
    line: LineAddr,
    meta: LineMeta,
    now: u64,
    who: usize,
    cores: &mut [CoreMem],
    shared: &mut SharedMem,
    stats: &mut SimStats,
    events: &mut MemEvents,
    tracer: &mut T,
) {
    match level {
        CacheLevel::L1D => {
            if let Some(ev) = cores[who].l1d.insert(line, meta) {
                account_eviction(CacheLevel::L1D, ev.line, ev.meta, now, stats, events, tracer);
                if ev.meta.dirty {
                    // Write back into the L2 copy (inclusive hierarchy).
                    if let Some(outer) = cores[who].l2c.lookup(ev.line) {
                        outer.dirty = true;
                    }
                }
            }
        }
        CacheLevel::L2C => {
            if let Some(ev) = cores[who].l2c.insert(line, meta) {
                account_eviction(CacheLevel::L2C, ev.line, ev.meta, now, stats, events, tracer);
                if ev.meta.dirty {
                    if let Some(outer) = shared.llc.lookup(ev.line) {
                        outer.dirty = true;
                    }
                }
            }
        }
        CacheLevel::Llc => {
            if let Some(ev) = shared.llc.insert(line, meta) {
                account_eviction(CacheLevel::Llc, ev.line, ev.meta, now, stats, events, tracer);
                // Inclusive LLC: back-invalidate every core's private
                // copies; the eviction is dirty if any copy is.
                let mut dirty = ev.meta.dirty;
                for (ci, core) in cores.iter_mut().enumerate() {
                    if let Some(m) = core.l2c.invalidate(ev.line) {
                        dirty |= m.dirty;
                        if m.prefetched {
                            stats.level_mut(CacheLevel::L2C).pf_useless += 1;
                            tracer.emit(TraceEvent::PrefetchUseless {
                                line: ev.line,
                                level: CacheLevel::L2C,
                                cycle: now,
                            });
                        }
                    }
                    if let Some(m) = core.l1d.invalidate(ev.line) {
                        dirty |= m.dirty;
                        if m.prefetched {
                            stats.level_mut(CacheLevel::L1D).pf_useless += 1;
                            tracer.emit(TraceEvent::PrefetchUseless {
                                line: ev.line,
                                level: CacheLevel::L1D,
                                cycle: now,
                            });
                        }
                        if ci == who {
                            events.l1d_evictions.push(ev.line);
                        }
                    }
                }
                // Write-back caches: a dirty LLC eviction writes the
                // line to DRAM, consuming channel bandwidth.
                if dirty {
                    shared.dram.write_back(ev.line, now, tracer);
                    stats.dram_writes += 1;
                }
            }
        }
    }
}

/// Walk a demand access (load or store) through the hierarchy for core
/// `who`. Returns `(latency_cycles, l1d_hit)`.
///
/// The L1D hit flag reflects whether the line had *arrived* — a line
/// still in flight counts as a miss with reduced latency (and, if the
/// in-flight request was a prefetch, as a late-prefetch hit).
#[allow(clippy::too_many_arguments)] // the memory-walk context is irreducible
pub fn demand_access<T: Tracer>(
    line: LineAddr,
    is_load: bool,
    now: u64,
    who: usize,
    cores: &mut [CoreMem],
    shared: &mut SharedMem,
    stats: &mut SimStats,
    events: &mut MemEvents,
    tracer: &mut T,
) -> (u64, bool) {
    // ---- Address translation (demand side only) ----
    let mut latency = cores[who].tlb.translate(line);

    // ---- L1D ----
    {
        let s = stats.level_mut(CacheLevel::L1D);
        if is_load {
            s.load_accesses += 1;
        } else {
            s.store_accesses += 1;
        }
    }
    let l1_lat = cores[who].l1_lat;
    if let Some(ready) = cores[who].l1_mshr.inflight(now, line) {
        // Miss merged with an in-flight fill.
        let s = stats.level_mut(CacheLevel::L1D);
        if is_load {
            s.load_misses += 1;
        } else {
            s.store_misses += 1;
        }
        // If that fill was a prefetch, the prefetch was late but useful.
        if let Some(meta) = cores[who].l1d.lookup(line) {
            if meta.prefetched {
                meta.prefetched = false;
                stats.level_mut(CacheLevel::L1D).pf_useful += 1;
                stats.level_mut(CacheLevel::L1D).pf_late += 1;
                events.feedback.push((line, FeedbackKind::Useful));
                tracer.emit(TraceEvent::PrefetchUseful {
                    line,
                    level: CacheLevel::L1D,
                    cycle: now,
                    late: true,
                });
            }
        }
        let total = latency + (ready - now).max(l1_lat);
        tracer.emit(TraceEvent::DemandMiss { line, cycle: now, latency: total });
        return (total, false);
    }
    if let Some(meta) = cores[who].l1d.lookup(line) {
        if meta.prefetched {
            meta.prefetched = false;
            stats.level_mut(CacheLevel::L1D).pf_useful += 1;
            events.feedback.push((line, FeedbackKind::Useful));
            tracer.emit(TraceEvent::PrefetchUseful {
                line,
                level: CacheLevel::L1D,
                cycle: now,
                late: false,
            });
        }
        if !is_load {
            meta.dirty = true;
        }
        return (latency + l1_lat, true);
    }
    // True L1D miss.
    {
        let s = stats.level_mut(CacheLevel::L1D);
        if is_load {
            s.load_misses += 1;
        } else {
            s.store_misses += 1;
        }
    }
    latency += l1_lat + cores[who].l1_mshr.wait_for_free(now, CacheLevel::L1D, tracer);

    // ---- L2C ----
    let l2_lat = cores[who].l2_lat;
    {
        let s = stats.level_mut(CacheLevel::L2C);
        if is_load {
            s.load_accesses += 1;
        } else {
            s.store_accesses += 1;
        }
    }
    let l2_resolved = if let Some(ready) = cores[who].l2_mshr.inflight(now + latency, line) {
        let s = stats.level_mut(CacheLevel::L2C);
        if is_load {
            s.load_misses += 1;
        } else {
            s.store_misses += 1;
        }
        if let Some(meta) = cores[who].l2c.lookup(line) {
            if meta.prefetched {
                meta.prefetched = false;
                stats.level_mut(CacheLevel::L2C).pf_useful += 1;
                stats.level_mut(CacheLevel::L2C).pf_late += 1;
                tracer.emit(TraceEvent::PrefetchUseful {
                    line,
                    level: CacheLevel::L2C,
                    cycle: now,
                    late: true,
                });
            }
        }
        Some(ready.saturating_sub(now).max(latency + l2_lat))
    } else if let Some(meta) = cores[who].l2c.lookup(line) {
        if meta.prefetched {
            meta.prefetched = false;
            stats.level_mut(CacheLevel::L2C).pf_useful += 1;
            tracer.emit(TraceEvent::PrefetchUseful {
                line,
                level: CacheLevel::L2C,
                cycle: now,
                late: false,
            });
        }
        Some(latency + l2_lat)
    } else {
        None
    };
    if let Some(total) = l2_resolved {
        // Fill L1D from L2.
        let ready = now + total;
        cores[who].l1_mshr.allocate(now, line, ready);
        insert_line(
            CacheLevel::L1D,
            line,
            LineMeta::default(),
            now,
            who,
            cores,
            shared,
            stats,
            events,
            tracer,
        );
        if !is_load {
            mark_dirty(cores, who, line);
        }
        tracer.emit(TraceEvent::DemandMiss { line, cycle: now, latency: total });
        return (total, false);
    }
    {
        let s = stats.level_mut(CacheLevel::L2C);
        if is_load {
            s.load_misses += 1;
        } else {
            s.store_misses += 1;
        }
    }
    latency +=
        l2_lat + cores[who].l2_mshr.wait_for_free(now + latency, CacheLevel::L2C, tracer);

    // ---- LLC ----
    let llc_lat = shared.llc_lat;
    {
        let s = stats.level_mut(CacheLevel::Llc);
        if is_load {
            s.load_accesses += 1;
        } else {
            s.store_accesses += 1;
        }
    }
    let llc_resolved = if let Some(ready) = shared.llc_mshr.inflight(now + latency, line) {
        let s = stats.level_mut(CacheLevel::Llc);
        if is_load {
            s.load_misses += 1;
        } else {
            s.store_misses += 1;
        }
        if let Some(meta) = shared.llc.lookup(line) {
            if meta.prefetched {
                meta.prefetched = false;
                stats.level_mut(CacheLevel::Llc).pf_useful += 1;
                stats.level_mut(CacheLevel::Llc).pf_late += 1;
                tracer.emit(TraceEvent::PrefetchUseful {
                    line,
                    level: CacheLevel::Llc,
                    cycle: now,
                    late: true,
                });
            }
        }
        Some(ready.saturating_sub(now).max(latency + llc_lat))
    } else if let Some(meta) = shared.llc.lookup(line) {
        if meta.prefetched {
            meta.prefetched = false;
            stats.level_mut(CacheLevel::Llc).pf_useful += 1;
            tracer.emit(TraceEvent::PrefetchUseful {
                line,
                level: CacheLevel::Llc,
                cycle: now,
                late: false,
            });
        }
        Some(latency + llc_lat)
    } else {
        None
    };
    if let Some(total) = llc_resolved {
        let ready = now + total;
        cores[who].l1_mshr.allocate(now, line, ready);
        cores[who].l2_mshr.allocate(now, line, ready);
        for level in [CacheLevel::L2C, CacheLevel::L1D] {
            insert_line(
                level,
                line,
                LineMeta::default(),
                now,
                who,
                cores,
                shared,
                stats,
                events,
                tracer,
            );
        }
        if !is_load {
            mark_dirty(cores, who, line);
        }
        tracer.emit(TraceEvent::DemandMiss { line, cycle: now, latency: total });
        return (total, false);
    }
    {
        let s = stats.level_mut(CacheLevel::Llc);
        if is_load {
            s.load_misses += 1;
        } else {
            s.store_misses += 1;
        }
    }
    latency +=
        llc_lat + shared.llc_mshr.wait_for_free(now + latency, CacheLevel::Llc, tracer);

    // ---- DRAM ----
    let dram_lat = shared.dram.access(now + latency, line, tracer);
    stats.dram_requests += 1;
    let total = latency + dram_lat;
    let ready = now + total;
    cores[who].l1_mshr.allocate(now, line, ready);
    cores[who].l2_mshr.allocate(now, line, ready);
    shared.llc_mshr.allocate(now, line, ready);
    for level in [CacheLevel::Llc, CacheLevel::L2C, CacheLevel::L1D] {
        insert_line(level, line, LineMeta::default(), now, who, cores, shared, stats, events, tracer);
    }
    if !is_load {
        mark_dirty(cores, who, line);
    }
    tracer.emit(TraceEvent::DemandMiss { line, cycle: now, latency: total });
    (total, false)
}

/// Mark the freshly filled L1D copy of `line` dirty (store fill).
fn mark_dirty(cores: &mut [CoreMem], who: usize, line: LineAddr) {
    if let Some(meta) = cores[who].l1d.lookup(line) {
        meta.dirty = true;
    }
}

/// Outcome of issuing a prefetch request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetchOutcome {
    /// Admitted and in flight.
    Admitted,
    /// Dropped: the line is already resident at or inside the target
    /// level.
    Redundant,
    /// Dropped: the target level's PQ or MSHRs were full.
    Dropped,
}

/// Issue one prefetch request from core `who`'s L1D prefetcher.
///
/// The line is fetched from the innermost level that holds it (or DRAM)
/// and filled into the request's target level *and every level outward*
/// to keep the hierarchy inclusive — the paper relies on this
/// ("prefetches for high-level caches will implicitly prefetch data to
/// low-level caches", Section V-C).
#[allow(clippy::too_many_arguments)] // the memory-walk context is irreducible
pub fn prefetch_access<T: Tracer>(
    req: PrefetchRequest,
    now: u64,
    who: usize,
    cores: &mut [CoreMem],
    shared: &mut SharedMem,
    stats: &mut SimStats,
    events: &mut MemEvents,
    tracer: &mut T,
) -> PrefetchOutcome {
    stats.pf_issued += 1;
    let line = req.line;
    let fill = req.fill_level;
    let provenance = req.provenance;
    tracer.emit(TraceEvent::PrefetchIssued { line, level: fill, cycle: now, provenance });

    // Per-level directory presence, probed once (includes in-flight
    // lines) — both the redundancy check and the fill-level selection
    // below read this snapshot, so each directory is scanned exactly
    // once per request.
    let in_l1d = cores[who].l1d.contains(line);
    let in_l2c = cores[who].l2c.contains(line);
    let in_llc = shared.llc.contains(line);

    // Innermost resident level.
    let resident = if in_l1d {
        Some(CacheLevel::L1D)
    } else if in_l2c {
        Some(CacheLevel::L2C)
    } else if in_llc {
        Some(CacheLevel::Llc)
    } else {
        None
    };
    if let Some(r) = resident {
        if r <= fill {
            stats.pf_redundant += 1;
            tracer.emit(TraceEvent::PrefetchRedundant { line, level: fill, cycle: now, provenance });
            return PrefetchOutcome::Redundant;
        }
    }

    // Levels that will take a fill: the target and every outer level
    // that misses (inclusive hierarchy — the paper relies on this:
    // "prefetches for high-level caches will implicitly prefetch data
    // to low-level caches", Section V-C). Computed up front, before any
    // side effect, into fixed-size storage: admission must be able to
    // reject the request without having touched the PQ or DRAM.
    let mut fill_levels = [CacheLevel::L1D; 3];
    let mut n_fills = 0;
    for (level, present) in [
        (CacheLevel::Llc, in_llc),
        (CacheLevel::L2C, in_l2c),
        (CacheLevel::L1D, in_l1d),
    ] {
        if level >= fill && !present {
            fill_levels[n_fills] = level;
            n_fills += 1;
        }
    }
    let fill_levels = &fill_levels[..n_fills];

    // Admission control: PQ space at the fill level, and MSHR space at
    // *every* level taking a fill, each leaving at least one entry for
    // demand requests (Section IV-B). Checking headroom only at the
    // fill level would let the outer-level allocations below silently
    // force-evict entries from a full file — occupancy beyond capacity
    // without a modeled drop or stall.
    let pq_free = match fill {
        CacheLevel::L1D => cores[who].l1_pq.free(now),
        CacheLevel::L2C => cores[who].l2_pq.free(now),
        CacheLevel::Llc => shared.llc_pq.free(now),
    };
    let mshr_ok = pq_free > 0
        && fill_levels.iter().all(|&level| {
            let mshr_free = match level {
                CacheLevel::L1D => cores[who].l1_mshr.free(now),
                CacheLevel::L2C => cores[who].l2_mshr.free(now),
                CacheLevel::Llc => shared.llc_mshr.free(now),
            };
            mshr_free > 1
        });
    if !mshr_ok {
        stats.pf_dropped += 1;
        let reason = if pq_free == 0 { DropReason::Pq } else { DropReason::Mshr };
        tracer.emit(TraceEvent::PrefetchDropped { line, level: fill, cycle: now, reason, provenance });
        return PrefetchOutcome::Dropped;
    }

    // Latency from the source to the fill level.
    let mut latency = match fill {
        CacheLevel::L1D => cores[who].l1_lat,
        CacheLevel::L2C => cores[who].l2_lat,
        CacheLevel::Llc => shared.llc_lat,
    };
    match resident {
        Some(CacheLevel::L2C) => latency += cores[who].l2_lat,
        Some(CacheLevel::Llc) => latency += shared.llc_lat,
        None => {
            latency += shared.llc_lat;
            latency += shared.dram.access(now + latency, line, tracer);
            stats.dram_requests += 1;
        }
        Some(CacheLevel::L1D) => unreachable!("redundant prefetch handled above"),
    }
    let ready = now + latency;

    match fill {
        CacheLevel::L1D => {
            cores[who].l1_pq.push(now, CacheLevel::L1D, tracer);
        }
        CacheLevel::L2C => {
            cores[who].l2_pq.push(now, CacheLevel::L2C, tracer);
        }
        CacheLevel::Llc => {
            shared.llc_pq.push(now, CacheLevel::Llc, tracer);
        }
    }

    // Fill every admitted level, marking prefetch metadata and
    // allocating MSHR entries at each newly filled level. Outer inserts
    // cannot make `line` resident at an inner level (back-invalidation
    // only touches the victim's copies), so the presence snapshot taken
    // above is still valid here.
    let meta = LineMeta { prefetched: true, pf_origin: fill, dirty: false };
    for &level in fill_levels {
        match level {
            CacheLevel::L1D => cores[who].l1_mshr.allocate(now, line, ready),
            CacheLevel::L2C => cores[who].l2_mshr.allocate(now, line, ready),
            CacheLevel::Llc => shared.llc_mshr.allocate(now, line, ready),
        }
        insert_line(level, line, meta, now, who, cores, shared, stats, events, tracer);
        stats.level_mut(level).pf_fills += 1;
        tracer.emit(TraceEvent::PrefetchFill { line, level, cycle: now });
    }
    stats.pf_admitted += 1;
    tracer.emit(TraceEvent::PrefetchAdmitted { line, level: fill, cycle: now, latency, provenance });
    PrefetchOutcome::Admitted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use pmp_obs::NullTracer;

    /// Test configuration with a free TLB so latency assertions isolate
    /// the cache hierarchy (TLB timing has its own tests in `tlb`).
    fn test_cfg() -> SystemConfig {
        SystemConfig {
            tlb: crate::tlb::TlbConfig { stlb_latency: 0, walk_latency: 0, ..Default::default() },
            ..SystemConfig::single_core()
        }
    }

    fn setup() -> (Vec<CoreMem>, SharedMem, SimStats, MemEvents) {
        let cfg = test_cfg();
        (vec![CoreMem::new(&cfg)], SharedMem::new(&cfg), SimStats::default(), MemEvents::default())
    }

    #[test]
    fn cold_miss_goes_to_dram() {
        let (mut cores, mut shared, mut stats, mut ev) = setup();
        let (lat, hit) =
            demand_access(LineAddr(100), true, 0, 0, &mut cores, &mut shared, &mut stats, &mut ev, &mut NullTracer);
        assert!(!hit);
        // 5 + 10 + 20 + (160 + 10) = 205
        assert_eq!(lat, 205);
        assert_eq!(stats.dram_requests, 1);
        assert_eq!(stats.level(CacheLevel::L1D).load_misses, 1);
        assert_eq!(stats.level(CacheLevel::Llc).load_misses, 1);
    }

    #[test]
    fn second_access_hits_l1_after_arrival() {
        let (mut cores, mut shared, mut stats, mut ev) = setup();
        let (lat, _) =
            demand_access(LineAddr(100), true, 0, 0, &mut cores, &mut shared, &mut stats, &mut ev, &mut NullTracer);
        // Access after the fill arrived.
        let (lat2, hit) = demand_access(
            LineAddr(100),
            true,
            lat + 1,
            0,
            &mut cores,
            &mut shared,
            &mut stats,
            &mut ev,
            &mut NullTracer,
        );
        assert!(hit);
        assert_eq!(lat2, 5);
        assert_eq!(stats.level(CacheLevel::L1D).load_misses, 1);
    }

    #[test]
    fn inflight_access_merges() {
        let (mut cores, mut shared, mut stats, mut ev) = setup();
        let (lat, _) =
            demand_access(LineAddr(100), true, 0, 0, &mut cores, &mut shared, &mut stats, &mut ev, &mut NullTracer);
        let (lat2, hit) =
            demand_access(LineAddr(100), true, 50, 0, &mut cores, &mut shared, &mut stats, &mut ev, &mut NullTracer);
        assert!(!hit);
        assert_eq!(lat2, lat - 50);
        // Merge counts as an L1D miss but never reaches DRAM again.
        assert_eq!(stats.level(CacheLevel::L1D).load_misses, 2);
        assert_eq!(stats.dram_requests, 1);
    }

    #[test]
    fn prefetch_then_demand_is_useful() {
        let (mut cores, mut shared, mut stats, mut ev) = setup();
        let out = prefetch_access(
            PrefetchRequest::new(LineAddr(7), CacheLevel::L1D),
            0,
            0,
            &mut cores,
            &mut shared,
            &mut stats,
            &mut ev,
            &mut NullTracer,
        );
        assert_eq!(out, PrefetchOutcome::Admitted);
        assert_eq!(stats.level(CacheLevel::L1D).pf_fills, 1);
        assert_eq!(stats.level(CacheLevel::Llc).pf_fills, 1);
        // Demand long after arrival: L1D hit, useful.
        let (lat, hit) =
            demand_access(LineAddr(7), true, 1000, 0, &mut cores, &mut shared, &mut stats, &mut ev, &mut NullTracer);
        assert!(hit);
        assert_eq!(lat, 5);
        assert_eq!(stats.level(CacheLevel::L1D).pf_useful, 1);
        assert!(ev.feedback.contains(&(LineAddr(7), FeedbackKind::Useful)));
    }

    #[test]
    fn late_prefetch_still_counts_useful() {
        let (mut cores, mut shared, mut stats, mut ev) = setup();
        prefetch_access(
            PrefetchRequest::new(LineAddr(7), CacheLevel::L1D),
            0,
            0,
            &mut cores,
            &mut shared,
            &mut stats,
            &mut ev,
            &mut NullTracer,
        );
        // Demand while the prefetch is still in flight.
        let (lat, hit) =
            demand_access(LineAddr(7), true, 10, 0, &mut cores, &mut shared, &mut stats, &mut ev, &mut NullTracer);
        assert!(!hit);
        assert!(lat > 5 && lat < 205);
        assert_eq!(stats.level(CacheLevel::L1D).pf_late, 1);
        assert_eq!(stats.level(CacheLevel::L1D).pf_useful, 1);
    }

    #[test]
    fn redundant_prefetch_dropped() {
        let (mut cores, mut shared, mut stats, mut ev) = setup();
        demand_access(LineAddr(7), true, 0, 0, &mut cores, &mut shared, &mut stats, &mut ev, &mut NullTracer);
        let out = prefetch_access(
            PrefetchRequest::new(LineAddr(7), CacheLevel::L1D),
            500,
            0,
            &mut cores,
            &mut shared,
            &mut stats,
            &mut ev,
            &mut NullTracer,
        );
        assert_eq!(out, PrefetchOutcome::Redundant);
        assert_eq!(stats.pf_redundant, 1);
    }

    #[test]
    fn l2_resident_line_can_be_promoted() {
        let (mut cores, mut shared, mut stats, mut ev) = setup();
        // Bring the line in, then evict it from L1D by filling the set.
        demand_access(LineAddr(0), true, 0, 0, &mut cores, &mut shared, &mut stats, &mut ev, &mut NullTracer);
        for i in 1..=12u64 {
            // Same L1D set (64 sets): stride by 64 lines.
            demand_access(
                LineAddr(i * 64),
                true,
                1000 + i * 300,
                0,
                &mut cores,
                &mut shared,
                &mut stats,
                &mut ev,
                &mut NullTracer,
            );
        }
        assert!(!cores[0].l1d.contains(LineAddr(0)));
        assert!(cores[0].l2c.contains(LineAddr(0)));
        // Prefetch back into L1D: cheap (L2 source), admitted.
        let out = prefetch_access(
            PrefetchRequest::new(LineAddr(0), CacheLevel::L1D),
            100_000,
            0,
            &mut cores,
            &mut shared,
            &mut stats,
            &mut ev,
            &mut NullTracer,
        );
        assert_eq!(out, PrefetchOutcome::Admitted);
        assert_eq!(stats.dram_requests, 13); // no extra DRAM traffic
    }

    #[test]
    fn pq_backpressure_drops() {
        let (mut cores, mut shared, mut stats, mut ev) = setup();
        // L1D PQ has 8 entries; the 9th concurrent prefetch must drop.
        let mut outcomes = Vec::new();
        for i in 0..9u64 {
            outcomes.push(prefetch_access(
                PrefetchRequest::new(LineAddr(1000 + i), CacheLevel::L1D),
                0,
                0,
                &mut cores,
                &mut shared,
                &mut stats,
                &mut ev,
                &mut NullTracer,
            ));
        }
        assert_eq!(outcomes.iter().filter(|o| **o == PrefetchOutcome::Admitted).count(), 8);
        assert_eq!(*outcomes.last().unwrap(), PrefetchOutcome::Dropped);
        assert_eq!(stats.pf_dropped, 1);
    }

    #[test]
    fn useless_prefetch_counted_on_eviction() {
        let (mut cores, mut shared, mut stats, mut ev) = setup();
        // Prefetch into L1D set 0, then thrash the set with demands.
        prefetch_access(
            PrefetchRequest::new(LineAddr(0), CacheLevel::L1D),
            0,
            0,
            &mut cores,
            &mut shared,
            &mut stats,
            &mut ev,
            &mut NullTracer,
        );
        for i in 1..=12u64 {
            demand_access(
                LineAddr(i * 64),
                true,
                1000 * i,
                0,
                &mut cores,
                &mut shared,
                &mut stats,
                &mut ev,
                &mut NullTracer,
            );
        }
        assert!(!cores[0].l1d.contains(LineAddr(0)));
        assert_eq!(stats.level(CacheLevel::L1D).pf_useless, 1);
        assert!(ev.feedback.contains(&(LineAddr(0), FeedbackKind::Useless)));
    }

    #[test]
    fn llc_eviction_back_invalidates() {
        let cfg = SystemConfig {
            llc: crate::config::CacheConfig {
                sets: 2,
                ways: 2,
                latency: 20,
                mshrs: 8,
                pq_entries: 8,
            },
            ..test_cfg()
        };
        let mut cores = vec![CoreMem::new(&cfg)];
        let mut shared = SharedMem::new(&cfg);
        let mut stats = SimStats::default();
        let mut ev = MemEvents::default();
        // Fill LLC set 0 (even lines) to capacity.
        for i in 0..2u64 {
            demand_access(
                LineAddr(i * 2),
                true,
                i * 1000,
                0,
                &mut cores,
                &mut shared,
                &mut stats,
                &mut ev,
                &mut NullTracer,
            );
        }
        // The third access evicts line 0 from the LLC; observe exactly
        // that access's events.
        ev.clear();
        demand_access(
            LineAddr(4),
            true,
            2000,
            0,
            &mut cores,
            &mut shared,
            &mut stats,
            &mut ev,
            &mut NullTracer,
        );
        // Line 0 was evicted from LLC and must be gone from L1D too.
        assert!(!shared.llc.contains(LineAddr(0)));
        assert!(!cores[0].l1d.contains(LineAddr(0)));
        assert!(!cores[0].l2c.contains(LineAddr(0)));
        // The back-invalidation must surface as an L1D eviction event so
        // the prefetcher's on_evict hook sees the line leave.
        assert!(
            ev.l1d_evictions.contains(&LineAddr(0)),
            "back-invalidated line missing from l1d_evictions: {:?}",
            ev.l1d_evictions
        );
    }

    /// Outer-level MSHR admission: a prefetch whose outer fill levels
    /// have no MSHR headroom must drop at admission instead of letting
    /// `Mshr::allocate` force-evict from a full file (occupancy beyond
    /// capacity with no modeled drop).
    #[test]
    fn prefetch_drops_when_outer_mshr_full() {
        let cfg = SystemConfig {
            l2c: crate::config::CacheConfig {
                mshrs: 2,
                ..SystemConfig::single_core().l2c
            },
            ..test_cfg()
        };
        let mut cores = vec![CoreMem::new(&cfg)];
        let mut shared = SharedMem::new(&cfg);
        let mut stats = SimStats::default();
        let mut ev = MemEvents::default();
        // Both prefetches target L1D and need fills at L1D, L2C, LLC.
        // The L1D/LLC files have plenty of headroom; the 2-entry L2
        // file can admit only the first (the second would leave no
        // demand reserve).
        let mut outcomes = Vec::new();
        for i in 0..2u64 {
            outcomes.push(prefetch_access(
                PrefetchRequest::new(LineAddr(500 + i), CacheLevel::L1D),
                0,
                0,
                &mut cores,
                &mut shared,
                &mut stats,
                &mut ev,
                &mut NullTracer,
            ));
        }
        assert_eq!(outcomes[0], PrefetchOutcome::Admitted);
        assert_eq!(outcomes[1], PrefetchOutcome::Dropped);
        assert_eq!(stats.pf_dropped, 1);
        // Occupancy never exceeded capacity at any level.
        assert!(cores[0].mshr_occupancy(0)[1] <= 2);
        // The drop happened at admission: no PQ entry or DRAM traffic
        // for the rejected request.
        assert_eq!(stats.dram_requests, 1);
    }

    #[test]
    fn l2_targeted_prefetch_does_not_touch_l1() {
        let (mut cores, mut shared, mut stats, mut ev) = setup();
        let out = prefetch_access(
            PrefetchRequest::new(LineAddr(9), CacheLevel::L2C),
            0,
            0,
            &mut cores,
            &mut shared,
            &mut stats,
            &mut ev,
            &mut NullTracer,
        );
        assert_eq!(out, PrefetchOutcome::Admitted);
        assert!(!cores[0].l1d.contains(LineAddr(9)));
        assert!(cores[0].l2c.contains(LineAddr(9)));
        assert!(shared.llc.contains(LineAddr(9)));
        assert_eq!(stats.level(CacheLevel::L1D).pf_fills, 0);
        assert_eq!(stats.level(CacheLevel::L2C).pf_fills, 1);
        assert_eq!(stats.level(CacheLevel::Llc).pf_fills, 1);
    }
}

#[cfg(test)]
mod writeback_tests {
    use super::*;
    use crate::config::SystemConfig;
    use pmp_obs::NullTracer;
    use pmp_types::{CacheLevel, LineAddr};

    fn setup() -> (Vec<CoreMem>, SharedMem, SimStats, MemEvents) {
        let cfg = SystemConfig {
            tlb: crate::tlb::TlbConfig { stlb_latency: 0, walk_latency: 0, ..Default::default() },
            ..SystemConfig::single_core()
        };
        (vec![CoreMem::new(&cfg)], SharedMem::new(&cfg), SimStats::default(), MemEvents::default())
    }

    #[test]
    fn store_marks_line_dirty_and_l1_eviction_writes_back() {
        let (mut cores, mut shared, mut stats, mut ev) = setup();
        // Store to line 0 (cold miss, write-allocate, marked dirty).
        demand_access(LineAddr(0), false, 0, 0, &mut cores, &mut shared, &mut stats, &mut ev, &mut NullTracer);
        assert!(cores[0].l1d.peek(LineAddr(0)).expect("resident").dirty);
        // Thrash the L1D set so line 0 is evicted.
        for i in 1..=12u64 {
            demand_access(
                LineAddr(i * 64),
                true,
                i * 1000,
                0,
                &mut cores,
                &mut shared,
                &mut stats,
                &mut ev,
                &mut NullTracer,
            );
        }
        assert!(!cores[0].l1d.contains(LineAddr(0)));
        assert_eq!(stats.level(CacheLevel::L1D).writebacks, 1);
        // The dirtiness propagated to the L2 copy.
        assert!(cores[0].l2c.peek(LineAddr(0)).expect("L2 copy").dirty);
        // No DRAM write yet — the line is still on chip.
        assert_eq!(stats.dram_writes, 0);
    }

    #[test]
    fn loads_never_dirty_lines() {
        let (mut cores, mut shared, mut stats, mut ev) = setup();
        demand_access(LineAddr(7), true, 0, 0, &mut cores, &mut shared, &mut stats, &mut ev, &mut NullTracer);
        assert!(!cores[0].l1d.peek(LineAddr(7)).expect("resident").dirty);
        let _ = stats;
    }

    #[test]
    fn dirty_llc_eviction_writes_to_dram() {
        // Tiny LLC: force an eviction of a dirty line.
        let cfg = SystemConfig {
            llc: crate::config::CacheConfig {
                sets: 2,
                ways: 2,
                latency: 20,
                mshrs: 8,
                pq_entries: 8,
            },
            tlb: crate::tlb::TlbConfig { stlb_latency: 0, walk_latency: 0, ..Default::default() },
            ..SystemConfig::single_core()
        };
        let mut cores = vec![CoreMem::new(&cfg)];
        let mut shared = SharedMem::new(&cfg);
        let mut stats = SimStats::default();
        let mut ev = MemEvents::default();
        // Dirty line 0 (store), then push two more even lines through
        // LLC set 0 to evict it.
        demand_access(LineAddr(0), false, 0, 0, &mut cores, &mut shared, &mut stats, &mut ev, &mut NullTracer);
        let before = shared.dram.requests();
        demand_access(LineAddr(2), true, 1000, 0, &mut cores, &mut shared, &mut stats, &mut ev, &mut NullTracer);
        demand_access(LineAddr(4), true, 2000, 0, &mut cores, &mut shared, &mut stats, &mut ev, &mut NullTracer);
        assert!(!shared.llc.contains(LineAddr(0)));
        assert_eq!(stats.dram_writes, 1, "dirty victim must be written back");
        // The write consumed a DRAM request slot beyond the two demand reads.
        assert_eq!(shared.dram.requests(), before + 3);
    }
}
