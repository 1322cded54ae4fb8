//! A set-associative cache with true LRU and per-line prefetch metadata.

use crate::config::CacheConfig;
use pmp_types::{CacheLevel, LineAddr};

/// Why a line is resident: demand fill or prefetch fill.
///
/// A prefetch-filled line keeps its marker until the first demand hit
/// consumes it; a line evicted with the marker still set was a useless
/// prefetch. This is exactly how ChampSim attributes useful/useless
/// prefetches per level, which the paper's Figs. 9-10 report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineMeta {
    /// Set when the line was brought in by a prefetch and has not yet
    /// been demanded at this level.
    pub prefetched: bool,
    /// The level the prefetch originally targeted (for bookkeeping).
    pub pf_origin: CacheLevel,
    /// Set when the copy has been written (write-back caches: a dirty
    /// LLC eviction costs a DRAM write).
    pub dirty: bool,
}

impl Default for LineMeta {
    fn default() -> Self {
        LineMeta { prefetched: false, pf_origin: CacheLevel::L1D, dirty: false }
    }
}

/// Tag value marking an empty way. Line addresses are byte addresses
/// shifted right by `LINE_SHIFT`, so no reachable line can collide
/// with it (that would require a byte address past 2^70).
const INVALID_TAG: u64 = u64::MAX;

/// The result of inserting a line: the victim, if a valid line was
/// evicted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// The evicted line address.
    pub line: LineAddr,
    /// Its metadata at eviction time.
    pub meta: LineMeta,
}

/// A set-associative, true-LRU cache directory.
///
/// The cache stores only tags and metadata — the simulator is
/// trace-driven, so no data payloads exist. The directory is laid out
/// struct-of-arrays, each array one contiguous allocation indexed by
/// `set * ways + way`: the tag probe that every access performs scans
/// only the 8-byte tag array (empty ways hold `INVALID_TAG`, so no
/// separate valid bit is consulted), and the LRU stamps and line
/// metadata are touched only at the matching way. A 16-way set probe
/// therefore reads 128 contiguous bytes instead of the ~384 bytes an
/// array-of-structs layout spreads the same tags across — the
/// memory-walk hot path probes a set at every level on every access,
/// and on streaming workloads those probes miss the host's own caches.
#[derive(Debug, Clone)]
pub struct Cache {
    tags: Vec<u64>,
    lru: Vec<u64>, // larger = more recently used
    meta: Vec<LineMeta>,
    assoc: usize,
    set_mask: u64,
    lru_clock: u64,
}

impl Cache {
    /// Build a cache from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or `ways` is zero.
    pub fn new(cfg: &CacheConfig) -> Self {
        assert!(cfg.sets.is_power_of_two(), "set count must be a power of two");
        assert!(cfg.ways > 0, "need at least one way");
        let n = cfg.ways * cfg.sets;
        Cache {
            tags: vec![INVALID_TAG; n],
            lru: vec![0; n],
            meta: vec![LineMeta::default(); n],
            assoc: cfg.ways,
            set_mask: (cfg.sets - 1) as u64,
            lru_clock: 0,
        }
    }

    /// First index of `line`'s set in the backing arrays.
    #[inline]
    fn set_start(&self, line: LineAddr) -> usize {
        (line.0 & self.set_mask) as usize * self.assoc
    }

    /// Index of `line`'s way, if resident.
    #[inline]
    fn find(&self, line: LineAddr) -> Option<usize> {
        let start = self.set_start(line);
        self.tags[start..start + self.assoc]
            .iter()
            .position(|&t| t == line.0)
            .map(|w| start + w)
    }

    /// Whether `line` is resident (does not touch LRU).
    #[inline]
    pub fn contains(&self, line: LineAddr) -> bool {
        self.find(line).is_some()
    }

    /// Look up `line`; on hit, update LRU and return a mutable reference
    /// to the line's metadata.
    #[inline]
    pub fn lookup(&mut self, line: LineAddr) -> Option<&mut LineMeta> {
        self.lru_clock += 1;
        let clock = self.lru_clock;
        self.find(line).map(|i| {
            self.lru[i] = clock;
            &mut self.meta[i]
        })
    }

    /// Insert `line` with `meta`, evicting the LRU way if the set is
    /// full. If the line is already resident no eviction occurs: its
    /// LRU is refreshed and the incoming dirty bit is merged into the
    /// resident metadata (a store fill over a resident clean copy must
    /// not lose the write), while the resident prefetch marker is kept
    /// as-is.
    pub fn insert(&mut self, line: LineAddr, meta: LineMeta) -> Option<Eviction> {
        debug_assert_ne!(line.0, INVALID_TAG, "line address collides with the empty-way tag");
        self.lru_clock += 1;
        let clock = self.lru_clock;
        let start = self.set_start(line);
        // One pass over the tags: the resident way, else the first empty
        // way, else the least-recently-used way.
        let mut empty = None;
        let mut victim = start;
        let mut victim_lru = u64::MAX;
        for i in start..start + self.assoc {
            let t = self.tags[i];
            if t == line.0 {
                self.lru[i] = clock;
                self.meta[i].dirty |= meta.dirty;
                return None;
            }
            if t == INVALID_TAG {
                empty.get_or_insert(i);
            } else if self.lru[i] < victim_lru {
                victim_lru = self.lru[i];
                victim = i;
            }
        }
        if let Some(i) = empty {
            self.tags[i] = line.0;
            self.lru[i] = clock;
            self.meta[i] = meta;
            return None;
        }
        let ev = Eviction { line: LineAddr(self.tags[victim]), meta: self.meta[victim] };
        self.tags[victim] = line.0;
        self.lru[victim] = clock;
        self.meta[victim] = meta;
        Some(ev)
    }

    /// Invalidate `line` if resident, returning its metadata (used for
    /// back-invalidation when an inclusive LLC evicts).
    pub fn invalidate(&mut self, line: LineAddr) -> Option<LineMeta> {
        self.find(line).map(|i| {
            self.tags[i] = INVALID_TAG;
            self.meta[i]
        })
    }

    /// Number of valid lines (test/diagnostic helper).
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&t| t != INVALID_TAG).count()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// `line`'s metadata without updating LRU.
    pub(crate) fn peek(c: &Cache, line: LineAddr) -> Option<&LineMeta> {
        c.find(line).map(|i| &c.meta[i])
    }

    fn tiny() -> Cache {
        Cache::new(&CacheConfig { sets: 2, ways: 2, latency: 1, mshrs: 4, pq_entries: 4 })
    }

    #[test]
    fn hit_after_insert() {
        let mut c = tiny();
        assert!(c.lookup(LineAddr(4)).is_none());
        assert!(c.insert(LineAddr(4), LineMeta::default()).is_none());
        assert!(c.lookup(LineAddr(4)).is_some());
        assert!(c.contains(LineAddr(4)));
        assert!(!c.contains(LineAddr(6)));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Set 0 holds even line addresses (mask 1).
        c.insert(LineAddr(0), LineMeta::default());
        c.insert(LineAddr(2), LineMeta::default());
        // Touch 0 so 2 is LRU.
        c.lookup(LineAddr(0));
        let ev = c.insert(LineAddr(4), LineMeta::default()).expect("eviction");
        assert_eq!(ev.line, LineAddr(2));
        assert!(c.contains(LineAddr(0)));
        assert!(c.contains(LineAddr(4)));
    }

    #[test]
    fn reinsert_does_not_evict() {
        let mut c = tiny();
        c.insert(LineAddr(0), LineMeta::default());
        c.insert(LineAddr(2), LineMeta::default());
        assert!(c.insert(LineAddr(0), LineMeta::default()).is_none());
        assert_eq!(c.occupancy(), 2);
    }

    #[test]
    fn dirty_reinsert_over_clean_line_merges_dirty_bit() {
        let mut c = tiny();
        c.insert(LineAddr(0), LineMeta::default());
        assert!(!peek(&c, LineAddr(0)).unwrap().dirty);
        // A store fill finds the line already resident: the dirty bit
        // must survive the re-insert.
        c.insert(LineAddr(0), LineMeta { dirty: true, ..LineMeta::default() });
        assert!(peek(&c, LineAddr(0)).unwrap().dirty);
        // ... and the eventual eviction reports a dirty victim
        // (write-back happens).
        c.insert(LineAddr(2), LineMeta::default());
        c.lookup(LineAddr(2)); // make line 0 the LRU way
        c.lookup(LineAddr(2));
        let ev = c.insert(LineAddr(4), LineMeta::default()).expect("eviction");
        assert_eq!(ev.line, LineAddr(0));
        assert!(ev.meta.dirty, "merged dirty bit must write back on eviction");
    }

    #[test]
    fn clean_reinsert_does_not_clear_dirty_or_prefetched() {
        let mut c = tiny();
        let meta = LineMeta { prefetched: true, pf_origin: CacheLevel::L1D, dirty: true };
        c.insert(LineAddr(0), meta);
        c.insert(LineAddr(0), LineMeta::default());
        let m = peek(&c, LineAddr(0)).unwrap();
        assert!(m.dirty, "clean re-insert must not launder the dirty bit");
        assert!(m.prefetched, "re-insert must not consume the prefetch marker");
    }

    #[test]
    fn invalidate_removes() {
        let mut c = tiny();
        let meta = LineMeta { prefetched: true, pf_origin: CacheLevel::L2C, dirty: false };
        c.insert(LineAddr(2), meta);
        assert_eq!(c.invalidate(LineAddr(2)), Some(meta));
        assert!(!c.contains(LineAddr(2)));
        assert_eq!(c.invalidate(LineAddr(2)), None);
    }

    #[test]
    fn sets_are_independent() {
        let mut c = tiny();
        // Lines 1 and 3 go to set 1; they must not evict set 0 contents.
        c.insert(LineAddr(0), LineMeta::default());
        c.insert(LineAddr(1), LineMeta::default());
        c.insert(LineAddr(3), LineMeta::default());
        c.insert(LineAddr(5), LineMeta::default()); // evicts in set 1
        assert!(c.contains(LineAddr(0)));
    }

    #[test]
    fn prefetch_meta_round_trips() {
        let mut c = tiny();
        c.insert(
            LineAddr(8),
            LineMeta { prefetched: true, pf_origin: CacheLevel::Llc, dirty: false },
        );
        let m = c.lookup(LineAddr(8)).unwrap();
        assert!(m.prefetched);
        m.prefetched = false;
        assert!(!peek(&c, LineAddr(8)).unwrap().prefetched);
    }
}
