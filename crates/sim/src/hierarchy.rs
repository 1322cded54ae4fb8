//! The three-level inclusive cache hierarchy.
//!
//! Every level is one `Level`: a directory, an MSHR file, a prefetch
//! queue and a hit latency. [`CoreMem`] holds a core's private L1D and
//! L2C plus its DTLB; [`SharedMem`] holds the (possibly shared)
//! inclusive LLC and the DRAM model. Free functions walk demand and
//! prefetch requests through the levels, because the multi-core system
//! needs simultaneous mutable access to all cores' private caches for
//! back-invalidation. They reach a level only through `level_mut`, and
//! the demand walk is one loop over [`CacheLevel::ALL`] plus a DRAM
//! tail; `hierarchy_ref` (test-only) keeps the hand-unrolled walk it
//! replaced and a differential test holds the two equal.
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
use crate::config::{CacheConfig, SystemConfig};
use crate::dram::Dram;
use crate::mshr::Mshr;
use crate::queue::PrefetchQueue;
use crate::stats::SimStats;
use crate::tlb::Tlb;
use pmp_obs::{DropReason, TraceEvent, Tracer};
use pmp_prefetch::{FeedbackKind, PrefetchRequest};
use pmp_types::{CacheLevel, LineAddr};

/// One cache level: its directory, MSHR file, prefetch queue and hit
/// latency.
#[derive(Debug)]
struct Level {
    cache: Cache,
    mshr: Mshr,
    pq: PrefetchQueue,
    latency: u64,
}

impl Level {
    fn new(cfg: &CacheConfig) -> Self {
        Level {
            cache: Cache::new(cfg),
            mshr: Mshr::new(cfg.mshrs),
            pq: PrefetchQueue::new(cfg.pq_entries),
            latency: cfg.latency,
        }
    }
}

/// A core's private cache levels (L1D + L2C) and its data TLB.
#[derive(Debug)]
pub struct CoreMem {
    l1d: Level,
    l2c: Level,
    /// Demand accesses translate through it; prefetches do not.
    tlb: Tlb,
}

impl CoreMem {
    /// Build private caches from the system configuration.
    pub fn new(cfg: &SystemConfig) -> Self {
        CoreMem { l1d: Level::new(&cfg.l1d), l2c: Level::new(&cfg.l2c), tlb: Tlb::new(&cfg.tlb) }
    }

    /// The prefetch budget exposed to the prefetcher via
    /// [`pmp_prefetch::AccessInfo::pq_free`]: free L1D PQ entries,
    /// further capped by MSHR headroom (two entries stay reserved for
    /// demand misses). The cap keeps the budget honest: prefetchers
    /// that pop targets from an internal buffer lose whatever the
    /// admission stage would drop, so the budget must not exceed what
    /// the memory system can actually accept this cycle.
    pub fn l1_pq_free(&mut self, now: u64) -> usize {
        let pq = self.l1d.pq.free(now);
        let mshr = self.l1d.mshr.free(now).saturating_sub(2);
        pq.min(mshr)
    }
}

/// The shared memory system: inclusive LLC plus DRAM.
#[derive(Debug)]
pub struct SharedMem {
    llc: Level,
    /// The DRAM model.
    pub dram: Dram,
}

impl SharedMem {
    /// Build the shared memory system from the configuration.
    pub fn new(cfg: &SystemConfig) -> Self {
        SharedMem { llc: Level::new(&cfg.llc), dram: Dram::new(&cfg.dram) }
    }
}

/// Core `who`'s `level`: its private L1D or L2C, or the shared LLC.
/// The walks reach every level through here.
#[inline]
fn level_mut<'a>(
    cores: &'a mut [CoreMem],
    shared: &'a mut SharedMem,
    who: usize,
    level: CacheLevel,
) -> &'a mut Level {
    match level {
        CacheLevel::L1D => &mut cores[who].l1d,
        CacheLevel::L2C => &mut cores[who].l2c,
        CacheLevel::Llc => &mut shared.llc,
    }
}

/// PQ and MSHR occupancy of core `who`'s levels at `now`, each
/// indexed by [`CacheLevel::index`].
pub fn occupancy(
    cores: &mut [CoreMem],
    shared: &mut SharedMem,
    who: usize,
    now: u64,
) -> ([u32; 3], [u32; 3]) {
    let (mut pq, mut mshr) = ([0; 3], [0; 3]);
    for level in CacheLevel::ALL {
        let lv = level_mut(cores, shared, who, level);
        pq[level.index()] = lv.pq.occupancy(now) as u32;
        mshr[level.index()] = lv.mshr.occupancy(now) as u32;
    }
    (pq, mshr)
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
    let Some(ev) = level_mut(cores, shared, who, level).cache.insert(line, meta) else {
        return;
    };
    account_eviction(level, ev.line, ev.meta, now, stats, events, tracer);
    if let Some(outer) = level.outer() {
        // Write back into the outer copy (inclusive hierarchy).
        if ev.meta.dirty {
            if let Some(copy) = level_mut(cores, shared, who, outer).cache.lookup(ev.line) {
                copy.dirty = true;
            }
        }
        return;
    }
    // Inclusive LLC: back-invalidate every core's private copies; the
    // eviction is dirty if any copy is.
    let mut dirty = ev.meta.dirty;
    for core in 0..cores.len() {
        for inner in [CacheLevel::L2C, CacheLevel::L1D] {
            let Some(m) = level_mut(cores, shared, core, inner).cache.invalidate(ev.line) else {
                continue;
            };
            dirty |= m.dirty;
            if m.prefetched {
                stats.level_mut(inner).pf_useless += 1;
                let useless = TraceEvent::PrefetchUseless { line: ev.line, level: inner, cycle: now };
                tracer.emit(useless);
            }
            if inner == CacheLevel::L1D && core == who {
                events.l1d_evictions.push(ev.line);
            }
        }
    }
    // Write-back caches: a dirty LLC eviction writes the line to DRAM,
    // consuming channel bandwidth.
    if dirty {
        shared.dram.write_back(ev.line, now, tracer);
        stats.dram_writes += 1;
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
    // Address translation (demand side only).
    let mut latency = cores[who].tlb.translate(line);
    // Walk outward until a level (or DRAM) supplies the line: `found`
    // counts the levels inside the supplier, which the tail fills.
    let (found, total) = 'walk: {
        for level in CacheLevel::ALL {
            let lv = level_mut(cores, shared, who, level);
            // L1D is probed at issue and adds the TLB latency on top of
            // an in-flight wait; outer levels are probed when the request
            // reaches them, so the TLB overlaps the wait there (pinned by
            // `tests::l1d_inflight_wait_stacks_the_tlb_latency`).
            let (at, outside) =
                if level == CacheLevel::L1D { (now, latency) } else { (now + latency, 0) };
            // Probe the MSHR before the directory: an in-flight line is
            // already in the directory but has not arrived.
            let inflight = lv.mshr.inflight(at, line);
            let resident = lv.cache.lookup(line);
            let found_here = resident.is_some();
            stats.level_mut(level).count_demand(is_load, inflight.is_some() || !found_here);
            if let Some(meta) = resident {
                if meta.prefetched {
                    // A demanded prefetch was useful; late if its fill is
                    // still in flight.
                    meta.prefetched = false;
                    let late = inflight.is_some();
                    let s = stats.level_mut(level);
                    s.pf_useful += 1;
                    s.pf_late += u64::from(late);
                    // Only the L1D prefetcher hears about it.
                    if level == CacheLevel::L1D {
                        events.feedback.push((line, FeedbackKind::Useful));
                    }
                    tracer.emit(TraceEvent::PrefetchUseful { line, level, cycle: now, late });
                }
                // Only an L1D copy that has arrived is a hit; a store
                // dirties it in place.
                if level == CacheLevel::L1D && inflight.is_none() {
                    meta.dirty |= !is_load;
                    return (latency + lv.latency, true);
                }
            }
            if let Some(ready) = inflight {
                // Miss merged with an in-flight fill.
                let wait = ready.saturating_sub(now).max(latency - outside + lv.latency);
                break 'walk (level.index(), outside + wait);
            }
            if found_here {
                break 'walk (level.index(), latency + lv.latency);
            }
            latency += lv.latency + lv.mshr.wait_for_free(at, level, tracer);
        }
        latency += shared.dram.access(now + latency, line, tracer);
        stats.dram_requests += 1;
        (CacheLevel::ALL.len(), latency)
    };
    // Fill every level inside the supplier, outermost first, each with
    // an MSHR entry that completes when the line arrives.
    let ready = now + total;
    for &level in CacheLevel::ALL[..found].iter().rev() {
        level_mut(cores, shared, who, level).mshr.allocate(now, line, ready);
        insert_line(level, line, LineMeta::default(), now, who, cores, shared, stats, events, tracer);
    }
    // A store dirties the freshly filled L1D copy. A store merged with
    // an in-flight L1D fill filled nothing and leaves the copy as is.
    if !is_load && found > 0 {
        if let Some(meta) = level_mut(cores, shared, who, CacheLevel::L1D).cache.lookup(line) {
            meta.dirty = true;
        }
    }
    tracer.emit(TraceEvent::DemandMiss { line, cycle: now, latency: total });
    (total, false)
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
    // lines): the redundancy check and the fill levels below read it.
    let present =
        CacheLevel::ALL.map(|level| level_mut(cores, shared, who, level).cache.contains(line));
    let resident = CacheLevel::ALL.into_iter().find(|level| present[level.index()]);
    if resident.is_some_and(|r| r <= fill) {
        stats.pf_redundant += 1;
        tracer.emit(TraceEvent::PrefetchRedundant { line, level: fill, cycle: now, provenance });
        return PrefetchOutcome::Redundant;
    }

    // Levels that will take a fill, outermost first: the target and
    // every outer level that misses. Outer inserts cannot make `line`
    // resident at an inner level (back-invalidation only touches the
    // victim's copies), so `present` holds until the fills are done.
    let fills = || CacheLevel::ALL.into_iter().rev().filter(|&l| l >= fill && !present[l.index()]);

    // Admission control: PQ space at the fill level, and MSHR space at
    // *every* level taking a fill, each leaving at least one entry for
    // demand requests (Section IV-B). Checking headroom only at the
    // fill level would let the outer-level allocations below silently
    // force-evict entries from a full file — occupancy beyond capacity
    // without a modeled drop or stall. Nothing is touched before this.
    let pq_free = level_mut(cores, shared, who, fill).pq.free(now);
    let mshr_ok =
        pq_free > 0 && fills().all(|level| level_mut(cores, shared, who, level).mshr.free(now) > 1);
    if !mshr_ok {
        stats.pf_dropped += 1;
        let reason = if pq_free == 0 { DropReason::Pq } else { DropReason::Mshr };
        tracer.emit(TraceEvent::PrefetchDropped { line, level: fill, cycle: now, reason, provenance });
        return PrefetchOutcome::Dropped;
    }

    // Latency from the source to the fill level: the fill level's plus
    // the source's (the LLC's on the way to DRAM).
    let source = resident.unwrap_or(CacheLevel::Llc);
    let mut latency = level_mut(cores, shared, who, fill).latency
        + level_mut(cores, shared, who, source).latency;
    if resident.is_none() {
        latency += shared.dram.access(now + latency, line, tracer);
        stats.dram_requests += 1;
    }
    let ready = now + latency;
    level_mut(cores, shared, who, fill).pq.push(now, fill, tracer);

    // Fill every admitted level, marking prefetch metadata and
    // allocating an MSHR entry at each.
    let meta = LineMeta { prefetched: true, pf_origin: fill, dirty: false };
    for level in fills() {
        level_mut(cores, shared, who, level).mshr.allocate(now, line, ready);
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
    use crate::cache::tests::peek;
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

    /// Demand `LineAddr(100)` at cycle 1000, after a prefetch at cycle
    /// 0 placed it at `source` (`None`: nowhere, so DRAM supplies it).
    fn demand_from(source: Option<CacheLevel>, is_load: bool) -> ((u64, bool), Vec<CoreMem>, SimStats) {
        let (mut cores, mut shared, mut stats, mut ev) = setup();
        if let Some(level) = source {
            let req = PrefetchRequest::new(LineAddr(100), level);
            let out = prefetch_access(req, 0, 0, &mut cores, &mut shared, &mut stats, &mut ev, &mut NullTracer);
            assert_eq!(out, PrefetchOutcome::Admitted);
        }
        let got =
            demand_access(LineAddr(100), is_load, 1000, 0, &mut cores, &mut shared, &mut stats, &mut ev, &mut NullTracer);
        (got, cores, stats)
    }

    #[test]
    fn cold_miss_goes_to_dram() {
        let ((lat, hit), _, stats) = demand_from(None, true);
        assert!(!hit);
        // 5 + 10 + 20 + (160 + 10) = 205
        assert_eq!(lat, 205);
        assert_eq!(stats.dram_requests, 1);
        assert_eq!(stats.level(CacheLevel::L1D).load_misses, 1);
        assert_eq!(stats.level(CacheLevel::Llc).load_misses, 1);
    }

    /// Each level the request passes adds its hit latency (L1D 5, L2C
    /// 10, LLC 20) and DRAM adds 160 + 10; only an L1D copy is a hit.
    /// A store leaves the L1D copy dirty, in place or after the fill.
    #[test]
    fn demand_latency_is_closed_form_per_source() {
        let table = [
            (Some(CacheLevel::L1D), 5),
            (Some(CacheLevel::L2C), 5 + 10),
            (Some(CacheLevel::Llc), 5 + 10 + 20),
            (None, 5 + 10 + 20 + 170),
        ];
        for (source, latency) in table {
            for is_load in [true, false] {
                let (got, cores, _) = demand_from(source, is_load);
                let hit = source == Some(CacheLevel::L1D);
                assert_eq!(got, (latency, hit), "{source:?} is_load={is_load}");
                let copy = peek(&cores[0].l1d.cache, LineAddr(100)).expect("L1D copy");
                assert_eq!(copy.dirty, !is_load, "{source:?} is_load={is_load}");
            }
        }
    }

    /// Pins a timing asymmetry, to be fixed together with a
    /// regeneration of `results/` since it moves IPC. L1D probes its
    /// MSHR at issue and adds the TLB latency on top of the in-flight
    /// wait, so a demand that misses the DTLB and merges with an L1D
    /// fill pays both: `now + tlb + max(ready - now, l1)`. L2C and LLC
    /// are probed when the request reaches them, with the TLB latency
    /// already on the path, so there it overlaps the wait:
    /// `now + max(ready - now, tlb + l1 + wait + l2)`.
    #[test]
    fn l1d_inflight_wait_stacks_the_tlb_latency() {
        // Every DTLB miss pays the 8-cycle STLB latency; no page walk.
        let cfg = SystemConfig {
            tlb: crate::tlb::TlbConfig { stlb_latency: 8, walk_latency: 0, ..Default::default() },
            ..SystemConfig::single_core()
        };
        let demand_during_prefetch = |fill| {
            let (mut cores, mut shared) = (vec![CoreMem::new(&cfg)], SharedMem::new(&cfg));
            let (mut stats, mut ev) = (SimStats::default(), MemEvents::default());
            // Prefetches skip the TLB: in flight until 0 + fill latency
            // + 20 (LLC) + 170 (DRAM).
            let req = PrefetchRequest::new(LineAddr(7), fill);
            prefetch_access(req, 0, 0, &mut cores, &mut shared, &mut stats, &mut ev, &mut NullTracer);
            // A demand at 50 to the cold page: DTLB miss, 8 cycles.
            let (lat, hit) =
                demand_access(LineAddr(7), true, 50, 0, &mut cores, &mut shared, &mut stats, &mut ev, &mut NullTracer);
            assert!(!hit);
            assert_eq!(stats.level(fill).pf_late, 1, "{fill:?}: merged with the prefetch");
            lat
        };
        // In flight at L1D until 195: 8 + max(195 - 50, 5).
        assert_eq!(demand_during_prefetch(CacheLevel::L1D), 8 + 145);
        // In flight at L2C until 200: max(200 - 50, 8 + 5 + 0 + 10).
        assert_eq!(demand_during_prefetch(CacheLevel::L2C), 150);
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
        assert!(!cores[0].l1d.cache.contains(LineAddr(0)));
        assert!(cores[0].l2c.cache.contains(LineAddr(0)));
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
        assert!(!cores[0].l1d.cache.contains(LineAddr(0)));
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
        assert!(!shared.llc.cache.contains(LineAddr(0)));
        assert!(!cores[0].l1d.cache.contains(LineAddr(0)));
        assert!(!cores[0].l2c.cache.contains(LineAddr(0)));
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
        assert!(occupancy(&mut cores, &mut shared, 0, 0).1[1] <= 2);
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
        assert!(!cores[0].l1d.cache.contains(LineAddr(9)));
        assert!(cores[0].l2c.cache.contains(LineAddr(9)));
        assert!(shared.llc.cache.contains(LineAddr(9)));
        assert_eq!(stats.level(CacheLevel::L1D).pf_fills, 0);
        assert_eq!(stats.level(CacheLevel::L2C).pf_fills, 1);
        assert_eq!(stats.level(CacheLevel::Llc).pf_fills, 1);
    }
}

#[cfg(test)]
mod writeback_tests {
    use super::*;
    use crate::cache::tests::peek;
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
        assert!(peek(&cores[0].l1d.cache, LineAddr(0)).expect("resident").dirty);
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
        assert!(!cores[0].l1d.cache.contains(LineAddr(0)));
        assert_eq!(stats.level(CacheLevel::L1D).writebacks, 1);
        // The dirtiness propagated to the L2 copy.
        assert!(peek(&cores[0].l2c.cache, LineAddr(0)).expect("L2 copy").dirty);
        // No DRAM write yet — the line is still on chip.
        assert_eq!(stats.dram_writes, 0);
    }

    #[test]
    fn loads_never_dirty_lines() {
        let (mut cores, mut shared, mut stats, mut ev) = setup();
        demand_access(LineAddr(7), true, 0, 0, &mut cores, &mut shared, &mut stats, &mut ev, &mut NullTracer);
        assert!(!peek(&cores[0].l1d.cache, LineAddr(7)).expect("resident").dirty);
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
        assert!(!shared.llc.cache.contains(LineAddr(0)));
        assert_eq!(stats.dram_writes, 1, "dirty victim must be written back");
        // The write consumed a DRAM request slot beyond the two demand reads.
        assert_eq!(shared.dram.requests(), before + 3);
    }
}
