//! Design B — the identical-pattern-counting comparator (paper
//! Section V-E1, Fig. 11, Table VIII).
//!
//! Instead of merging similar patterns into counter vectors, Design B
//! stores *whole bit vectors* in a set-associative cache indexed by
//! trigger offset, attaching a repetition counter to each. Only exactly
//! identical patterns share an entry, so the table needs enormous
//! associativity to approach PMP — the paper shows PMP beating even the
//! 512-way variant by 34.9%.

use crate::buffer::PrefetchBuffer;
use crate::capture::{CaptureConfig, CapturedPattern, PatternCapture};
use pmp_prefetch::{AccessInfo, EvictInfo, Introspect, PrefetchRequest, Prefetcher};
use pmp_types::{BitPattern, CacheLevel, PrefetchPattern};

/// Design B configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignBConfig {
    /// Capture framework (shared with PMP).
    pub capture: CaptureConfig,
    /// Ways per trigger-offset set (Table VIII sweeps 8/32/128/512).
    pub ways: usize,
    /// Repetition count required to prefetch to L1D (ANE-style).
    pub t_l1d: u8,
    /// Repetition count required to prefetch to L2C.
    pub t_l2c: u8,
    /// Prefetch Buffer entries.
    pub pb_entries: usize,
}

impl Default for DesignBConfig {
    /// 8 ways; repetition thresholds scaled to our trace lengths (the
    /// paper's 16/5 assume 200M-instruction windows where identical
    /// patterns recur far more often).
    fn default() -> Self {
        DesignBConfig {
            capture: CaptureConfig::default(),
            ways: 8,
            t_l1d: 6,
            t_l2c: 2,
            pb_entries: 16,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    pattern: BitPattern,
    counter: u8,
    lru: u64,
    valid: bool,
}

/// The Design B prefetcher.
#[derive(Debug, Clone)]
pub struct DesignB {
    cfg: DesignBConfig,
    capture: PatternCapture,
    /// `sets[trigger_offset][way]` of (anchored pattern, counter).
    sets: Vec<Vec<Entry>>,
    buffer: PrefetchBuffer,
    clock: u64,
}

impl DesignB {
    /// Build Design B from its configuration.
    pub fn new(cfg: DesignBConfig) -> Self {
        assert!(cfg.ways > 0, "need at least one way");
        let len = cfg.capture.geometry.lines_per_region();
        let n_sets = len as usize;
        DesignB {
            capture: PatternCapture::new(cfg.capture.clone()),
            sets: vec![
                vec![
                    Entry { pattern: BitPattern::new(len), counter: 0, lru: 0, valid: false };
                    cfg.ways
                ];
                n_sets
            ],
            buffer: PrefetchBuffer::new(cfg.pb_entries, len),
            clock: 0,
            cfg,
        }
    }

    fn train(&mut self, captured: CapturedPattern) {
        self.clock += 1;
        let clock = self.clock;
        let anchored = captured.anchored();
        let set = &mut self.sets[usize::from(captured.trigger_offset)];
        if let Some(e) = set.iter_mut().find(|e| e.valid && e.pattern == anchored) {
            e.counter = e.counter.saturating_add(1);
            e.lru = clock;
            return;
        }
        let slot = set
            .iter_mut()
            .min_by_key(|e| if e.valid { e.lru } else { 0 })
            .expect("non-empty set");
        *slot = Entry { pattern: anchored, counter: 1, lru: clock, valid: true };
    }

    /// Best (highest-counter) pattern for a trigger offset, converted
    /// to a whole-pattern prefetch decision: all offsets to L1D if the
    /// counter clears `t_l1d`, all to L2C if it clears `t_l2c`.
    fn predict(&mut self, trigger_offset: u8) -> Option<PrefetchPattern> {
        self.clock += 1;
        let clock = self.clock;
        let set = &mut self.sets[usize::from(trigger_offset)];
        let best = set
            .iter_mut()
            .filter(|e| e.valid)
            .max_by_key(|e| e.counter)?;
        let level = if best.counter >= self.cfg.t_l1d {
            CacheLevel::L1D
        } else if best.counter >= self.cfg.t_l2c {
            CacheLevel::L2C
        } else {
            return None;
        };
        best.lru = clock;
        let len = best.pattern.len();
        let mut out = PrefetchPattern::new(len);
        for off in best.pattern.iter_set().filter(|&o| o != 0) {
            out.set(off, level);
        }
        Some(out)
    }
}

impl Introspect for DesignB {}

impl Prefetcher for DesignB {
    fn name(&self) -> &'static str {
        "design-b"
    }

    fn on_access(&mut self, info: &AccessInfo, out: &mut Vec<PrefetchRequest>) {
        let geom = self.capture.geometry();
        let line = info.access.addr.line();
        let region = geom.region_of_line(line);
        let offset = geom.offset_of_line(line);

        let outcome = self.capture.on_load(info.access.pc, line);
        if let Some(flushed) = outcome.flushed {
            self.train(flushed);
        }
        if let Some(trig) = outcome.trigger {
            if let Some(pattern) = self.predict(trig.offset) {
                if !pattern.is_empty() {
                    self.buffer.insert(trig.region, trig.offset, pattern);
                }
            }
        }
        self.buffer.pop_into(region, offset, info.pq_free, None, out);
    }

    fn on_evict(&mut self, info: &EvictInfo) {
        if let Some(captured) = self.capture.on_evict(info.line) {
            self.train(captured);
        }
    }

    /// Capture + pattern cache (anchored vector 64b + counter 6b + LRU
    /// ~log2(ways)) + prefetch buffer.
    fn storage_bits(&self) -> u64 {
        let len = u64::from(self.capture.geometry().lines_per_region());
        let lru = (usize::BITS - self.cfg.ways.leading_zeros()) as u64;
        let per_entry = len + 6 + lru;
        self.cfg.capture.storage_bits()
            + (self.sets.len() * self.cfg.ways) as u64 * per_entry
            + self.buffer.storage_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmp_types::{Addr, MemAccess, Pc};

    fn access(pc: u64, addr: u64, pq_free: usize) -> AccessInfo {
        AccessInfo {
            access: MemAccess::load(Pc(pc), Addr(addr)),
            hit: false,
            cycle: 0,
            pq_free,
        }
    }

    fn train(db: &mut DesignB, trigger: u64, offsets: &[u64], reps: u64, base_region: u64) {
        let mut out = Vec::new();
        for r in 0..reps {
            let base = (base_region + r) * 4096;
            db.on_access(&access(0x400, base + trigger * 64, 0), &mut out);
            for &o in offsets {
                db.on_access(&access(0x400, base + o * 64, 0), &mut out);
            }
            db.on_evict(&EvictInfo { line: Addr(base + trigger * 64).line(), cycle: 0 });
        }
    }

    #[test]
    fn learns_identical_patterns() {
        let mut db = DesignB::new(DesignBConfig { t_l1d: 4, t_l2c: 2, ..Default::default() });
        train(&mut db, 3, &[4, 5], 8, 100);
        let mut out = Vec::new();
        db.on_access(&access(0x400, 999 * 4096 + 3 * 64, 8), &mut out);
        let lines: Vec<u64> = out.iter().map(|r| r.line.0 - 999 * 64).collect();
        assert!(lines.contains(&4) && lines.contains(&5), "{lines:?}");
        assert!(out.iter().all(|r| r.fill_level == CacheLevel::L1D));
    }

    #[test]
    fn non_identical_patterns_compete_for_ways() {
        // One way per set: two alternating patterns evict each other,
        // so the counter never reaches the threshold.
        let mut db = DesignB::new(DesignBConfig {
            ways: 1,
            t_l1d: 4,
            t_l2c: 4,
            ..Default::default()
        });
        let mut out = Vec::new();
        for r in 0..20u64 {
            let base = (100 + r) * 4096;
            db.on_access(&access(0x400, base, 0), &mut out);
            // Alternate the second offset -> two distinct patterns.
            let o = if r % 2 == 0 { 4 } else { 5 };
            db.on_access(&access(0x400, base + o * 64, 0), &mut out);
            db.on_evict(&EvictInfo { line: Addr(base).line(), cycle: 0 });
        }
        out.clear();
        db.on_access(&access(0x400, 999 * 4096, 8), &mut out);
        assert!(out.is_empty(), "thrashing ways must suppress prediction: {out:?}");
    }

    #[test]
    fn more_ways_tolerate_diversity() {
        // Same workload, 8 ways: both patterns survive and one reaches
        // the (low) threshold.
        let mut db = DesignB::new(DesignBConfig {
            ways: 8,
            t_l1d: 40,
            t_l2c: 4,
            ..Default::default()
        });
        let mut out = Vec::new();
        for r in 0..20u64 {
            let base = (100 + r) * 4096;
            db.on_access(&access(0x400, base, 0), &mut out);
            let o = if r % 2 == 0 { 4 } else { 5 };
            db.on_access(&access(0x400, base + o * 64, 0), &mut out);
            db.on_evict(&EvictInfo { line: Addr(base).line(), cycle: 0 });
        }
        out.clear();
        db.on_access(&access(0x400, 999 * 4096, 8), &mut out);
        assert!(!out.is_empty(), "8 ways should retain the repeating patterns");
        assert!(out.iter().all(|r| r.fill_level == CacheLevel::L2C));
    }

    #[test]
    fn storage_grows_with_ways() {
        let s8 = DesignB::new(DesignBConfig { ways: 8, ..Default::default() }).storage_bits();
        let s512 = DesignB::new(DesignBConfig { ways: 512, ..Default::default() }).storage_bits();
        assert!(s512 > s8 * 30, "512-way Design B must dwarf the 8-way variant");
    }
}
