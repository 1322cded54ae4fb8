//! Reference model for the memory walk (test-only).
//!
//! This module preserves the hand-unrolled walk that the level loop in
//! [`crate::hierarchy`] replaced: one copy of the demand steps per cache
//! level, one `match` arm per level in `insert_line`, and a `match` on
//! the level for every PQ, MSHR and latency pick in `prefetch_access`.
//! It is built on the same `Cache`, `Mshr`, `PrefetchQueue`, `Dram` and
//! `Tlb` as the live walk. The differential tests drive both walks
//! through identical random streams of loads, stores and prefetches, on
//! one core and on four, over random shapes and over every small shape,
//! and check after every op the latency and hit flag (or the prefetch
//! outcome), the `SimStats`, both `MemEvents` lists, the recorded
//! `TraceEvent` sequence and the PQ/MSHR occupancy of every level.

use crate::cache::{Cache, LineMeta};
use crate::config::SystemConfig;
use crate::dram::Dram;
use crate::mshr::Mshr;
use crate::queue::PrefetchQueue;
use crate::tlb::Tlb;
use crate::hierarchy::{MemEvents, PrefetchOutcome};
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
    use crate::config::CacheConfig;
    use crate::hierarchy as live;
    use crate::tlb::TlbConfig;
    use pmp_types::Rng64;
    use std::collections::BTreeSet;

    /// Records every event in emission order.
    #[derive(Default)]
    struct Recorder(Vec<TraceEvent>);

    impl Tracer for Recorder {
        fn emit(&mut self, event: TraceEvent) {
            self.0.push(event);
        }
    }

    /// One memory operation of a stream.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        Load,
        Store,
        Prefetch(CacheLevel),
    }

    /// What one operation returned.
    #[derive(Debug, PartialEq)]
    enum Outcome {
        Demand(u64, bool),
        Prefetch(PrefetchOutcome),
    }

    /// One hierarchy (live or reference) with its per-core counters,
    /// event buffers and event log.
    struct Side<C, S> {
        cores: Vec<C>,
        shared: S,
        stats: Vec<SimStats>,
        events: MemEvents,
        trace: Recorder,
    }

    impl<C, S> Side<C, S> {
        fn new(cfg: &SystemConfig, n: usize, core: fn(&SystemConfig) -> C, shared: fn(&SystemConfig) -> S) -> Self {
            Side {
                cores: (0..n).map(|_| core(cfg)).collect(),
                shared: shared(cfg),
                stats: vec![SimStats::default(); n],
                events: MemEvents::default(),
                trace: Recorder::default(),
            }
        }
    }

    /// The live walk and the reference, driven in lockstep.
    struct Pair {
        live: Side<live::CoreMem, live::SharedMem>,
        frozen: Side<CoreMem, SharedMem>,
        /// Kinds of behaviour seen so far (see [`kind`]).
        seen: BTreeSet<String>,
    }

    /// The coverage key of one event: its variant plus the level, drop
    /// reason or lateness it carries.
    fn kind(event: &TraceEvent) -> String {
        match *event {
            TraceEvent::PrefetchUseful { level, late, .. } => format!("useful {level} late={late}"),
            TraceEvent::PrefetchUseless { level, .. } => format!("useless {level}"),
            TraceEvent::PrefetchFill { level, .. } => format!("fill {level}"),
            TraceEvent::Writeback { level, .. } => format!("writeback {level}"),
            TraceEvent::MshrStall { level, .. } => format!("stall {level}"),
            TraceEvent::PqEnqueue { level, .. } => format!("enqueue {level}"),
            TraceEvent::PrefetchDropped { reason, .. } => format!("dropped {reason:?}"),
            other => format!("{other:?}").split(' ').next().unwrap_or_default().to_string(),
        }
    }

    /// Every kind a stream set must produce for its comparison to mean
    /// something: each level's late and timely prefetch hits (in-flight
    /// and resident hits), stalls, fills, evictions and write-backs,
    /// both drop reasons, and L1D hits, evictions and feedback.
    fn required_kinds() -> BTreeSet<String> {
        let mut kinds: BTreeSet<String> = [
            "dropped Pq", "dropped Mshr", "PrefetchRedundant", "PrefetchAdmitted", "DemandMiss",
            "DramFetch", "DramWriteback", "hit", "l1d_evictions", "feedback",
        ]
        .map(String::from)
        .into();
        for level in CacheLevel::ALL {
            for what in ["useful {} late=true", "useful {} late=false", "useless {}", "fill {}", "writeback {}", "stall {}", "enqueue {}"] {
                kinds.insert(what.replace("{}", &level.to_string()));
            }
        }
        kinds
    }

    impl Pair {
        fn new(cfg: &SystemConfig, n: usize) -> Self {
            Pair {
                live: Side::new(cfg, n, live::CoreMem::new, live::SharedMem::new),
                frozen: Side::new(cfg, n, CoreMem::new, SharedMem::new),
                seen: BTreeSet::new(),
            }
        }

        /// Apply `op` to both walks and assert that everything either
        /// one exposes agrees. Returns the demand latency (0 for a
        /// prefetch).
        fn step(&mut self, op: Op, line: LineAddr, now: u64, who: usize, ctx: &dyn Fn() -> String) -> u64 {
            let (l, f) = (&mut self.live, &mut self.frozen);
            l.events.clear();
            f.events.clear();
            let (got, want) = match op {
                Op::Load | Op::Store => {
                    let is_load = matches!(op, Op::Load);
                    let got = live::demand_access(
                        line, is_load, now, who, &mut l.cores, &mut l.shared, &mut l.stats[who],
                        &mut l.events, &mut l.trace,
                    );
                    let want = demand_access(
                        line, is_load, now, who, &mut f.cores, &mut f.shared, &mut f.stats[who],
                        &mut f.events, &mut f.trace,
                    );
                    (Outcome::Demand(got.0, got.1), Outcome::Demand(want.0, want.1))
                }
                Op::Prefetch(fill) => {
                    let req = PrefetchRequest::new(line, fill);
                    let got = live::prefetch_access(
                        req, now, who, &mut l.cores, &mut l.shared, &mut l.stats[who], &mut l.events,
                        &mut l.trace,
                    );
                    let want = prefetch_access(
                        req, now, who, &mut f.cores, &mut f.shared, &mut f.stats[who], &mut f.events,
                        &mut f.trace,
                    );
                    (Outcome::Prefetch(got), Outcome::Prefetch(want))
                }
            };
            assert_eq!(got, want, "outcome: {}", ctx());
            let latency = match got {
                Outcome::Demand(latency, _) => latency,
                Outcome::Prefetch(_) => 0,
            };
            assert_eq!(l.stats[who], f.stats[who], "stats: {}", ctx());
            assert_eq!(l.events.l1d_evictions, f.events.l1d_evictions, "l1d_evictions: {}", ctx());
            assert_eq!(l.events.feedback, f.events.feedback, "feedback: {}", ctx());
            assert_eq!(l.trace.0, f.trace.0, "trace events: {}", ctx());
            self.seen.extend(l.trace.0.iter().map(kind));
            for (name, happened) in [
                ("hit", got == Outcome::Demand(latency, true)),
                ("l1d_evictions", !l.events.l1d_evictions.is_empty()),
                ("feedback", !l.events.feedback.is_empty()),
            ] {
                if happened {
                    self.seen.insert(name.to_string());
                }
            }
            l.trace.0.clear();
            f.trace.0.clear();
            let (pq, mshr) = (f.cores[who].pq_occupancy(now), f.cores[who].mshr_occupancy(now));
            let want = (
                [pq[0], pq[1], f.shared.llc_pq_occupancy(now)],
                [mshr[0], mshr[1], f.shared.llc_mshr_occupancy(now)],
            );
            let got = live::occupancy(&mut l.cores, &mut l.shared, who, now);
            assert_eq!(got, want, "occupancy: {}", ctx());
            assert_eq!(l.cores[who].l1_pq_free(now), f.cores[who].l1_pq_free(now), "pq_free: {}", ctx());
            latency
        }
    }

    /// A TLB small enough that DTLB hits, STLB hits and page walks all
    /// occur, with nonzero latencies, so L1D's TLB stacking is covered.
    fn small_tlb() -> TlbConfig {
        TlbConfig { dtlb_entries: 4, stlb_entries: 16, stlb_latency: 8, walk_latency: 80 }
    }

    /// Drive `ops` random operations on `cores` cores through both walks.
    ///
    /// Lines come from a hot pool spread over 14 pages (conflicts,
    /// resident and in-flight hits) or from 64 pages (cold misses). Each
    /// core keeps its own clock and steps it by 0 (same-cycle ops), by
    /// part of its last demand latency (merges with in-flight fills) or
    /// by 100–400 cycles (resident hits); the core is picked at random
    /// per op, so with four cores the clocks seen by the shared LLC and
    /// DRAM jump back and forth.
    fn run_stream(cfg: &SystemConfig, cores: usize, ops: usize, rng: &mut Rng64) -> BTreeSet<String> {
        let mut pair = Pair::new(cfg, cores);
        let mut clock = vec![0u64; cores];
        let mut last = vec![1u64; cores];
        for step in 0..ops {
            let who = rng.gen_range(0..cores);
            clock[who] += match rng.gen_range(0..4u32) {
                0 => 0,
                1 => rng.gen_range(1..=8u64),
                2 => rng.gen_range(1..=last[who]),
                _ => rng.gen_range(100..=400u64),
            };
            let line = if rng.gen_bool(0.75) {
                LineAddr(rng.gen_range(0..24u64) * 37)
            } else {
                LineAddr(rng.gen_range(0..4096u64))
            };
            let op = match rng.gen_range(0..10u32) {
                0..=3 => Op::Load,
                4..=5 => Op::Store,
                _ => Op::Prefetch(CacheLevel::ALL[rng.gen_range(0..3usize)]),
            };
            let now = clock[who];
            let ctx = || format!("{cores} cores, step {step}, {op:?} {line:?} core {who} at {now}, {cfg:?}");
            let latency = pair.step(op, line, now, who, &ctx);
            if latency > 0 {
                last[who] = latency;
            }
        }
        pair.seen
    }

    #[test]
    fn random_streams_match_the_frozen_walk() {
        let mut rng = Rng64::seed_from_u64(0x4E1E_5EED);
        let mut shapes = vec![
            SystemConfig { tlb: small_tlb(), ..SystemConfig::single_core() },
            SystemConfig { tlb: small_tlb(), ..SystemConfig::quad_core() },
        ];
        for _ in 0..24 {
            let mut level = |latency| CacheConfig {
                sets: 1 << rng.gen_range(0..=6u32),
                ways: rng.gen_range(1..=16usize),
                latency,
                mshrs: rng.gen_range(1..=16usize),
                pq_entries: rng.gen_range(1..=8usize),
            };
            let (l1d, l2c, llc) = (level(5), level(10), level(20));
            shapes.push(SystemConfig { l1d, l2c, llc, tlb: small_tlb(), ..SystemConfig::quad_core() });
        }
        let mut seen = BTreeSet::new();
        for cfg in &shapes {
            for cores in [1, 4] {
                seen.extend(run_stream(cfg, cores, 3000, &mut rng));
            }
        }
        let missing: Vec<_> = required_kinds().difference(&seen).cloned().collect();
        assert!(missing.is_empty(), "streams never produced {missing:?}");
    }

    /// Every shape with sets ∈ {1, 2, 4}, ways 1..=4, MSHRs 1..=4 and
    /// PQ 1..=4, applied to all three levels, on one core and on four.
    #[test]
    fn every_small_shape_matches_the_frozen_walk() {
        let mut rng = Rng64::seed_from_u64(0x5A11_4E1E);
        let mut seen = BTreeSet::new();
        for sets in [1, 2, 4] {
            for ways in 1..=4 {
                for mshrs in 1..=4 {
                    for pq_entries in 1..=4 {
                        let level = |latency| CacheConfig { sets, ways, latency, mshrs, pq_entries };
                        let cfg = SystemConfig {
                            l1d: level(5),
                            l2c: level(10),
                            llc: level(20),
                            tlb: small_tlb(),
                            ..SystemConfig::quad_core()
                        };
                        for cores in [1, 4] {
                            seen.extend(run_stream(&cfg, cores, 300, &mut rng));
                        }
                    }
                }
            }
        }
        // With one geometry at every level a full L2C set holds exactly
        // its LLC set, so the LLC evicts (and back-invalidates) first:
        // the L2C never evicts a victim of its own and no LLC copy is
        // ever written dirty. The random shapes cover those write-backs.
        let mut required = required_kinds();
        required.remove("writeback L2C");
        required.remove("writeback LLC");
        let missing: Vec<_> = required.difference(&seen).cloned().collect();
        assert!(missing.is_empty(), "streams never produced {missing:?}");
    }
}
