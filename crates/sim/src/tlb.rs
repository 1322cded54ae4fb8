//! Translation lookaside buffers (Table IV: 64-entry DTLB, 1536-entry
//! L2 TLB, 4KB pages).
//!
//! Demand accesses translate through the DTLB; a DTLB miss that hits
//! the shared second-level TLB pays its access latency, and a full miss
//! pays a fixed page-walk latency. Hardware prefetchers operate on
//! physical addresses within a page (none of the implemented
//! prefetchers crosses pages), so prefetch requests never take TLB
//! misses — only demand accesses do.

use pmp_types::{LineAddr, PAGE_BYTES, LINE_SHIFT};

/// Pages per line-address shift: lines per page is 4KB / 64B = 64.
const PAGE_LINE_SHIFT: u32 = PAGE_BYTES.trailing_zeros() - LINE_SHIFT;

/// TLB configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TlbConfig {
    /// First-level DTLB entries (Table IV: 64).
    pub dtlb_entries: usize,
    /// Second-level TLB entries (Table IV: 1536).
    pub stlb_entries: usize,
    /// Added latency for an L2 TLB hit.
    pub stlb_latency: u64,
    /// Added latency for a full page walk.
    pub walk_latency: u64,
}

impl Default for TlbConfig {
    fn default() -> Self {
        TlbConfig { dtlb_entries: 64, stlb_entries: 1536, stlb_latency: 8, walk_latency: 80 }
    }
}

/// One fully-associative-by-construction TLB level (direct-mapped with
/// generous entry counts; page locality makes conflict misses rare and
/// the model cheap).
#[derive(Debug, Clone)]
struct TlbLevel {
    pages: Vec<u64>,
    valid: Vec<bool>,
}

impl TlbLevel {
    fn new(entries: usize) -> Self {
        assert!(entries > 0, "TLB needs at least one entry");
        TlbLevel { pages: vec![0; entries], valid: vec![false; entries] }
    }

    fn access(&mut self, page: u64) -> bool {
        // Modulo indexing: Table IV's 1536-entry L2 TLB is not a power
        // of two.
        let idx = (page as usize) % self.pages.len();
        if self.valid[idx] && self.pages[idx] == page {
            return true;
        }
        self.pages[idx] = page;
        self.valid[idx] = true;
        false
    }
}

/// The two-level data TLB.
#[derive(Debug, Clone)]
pub struct Tlb {
    dtlb: TlbLevel,
    stlb: TlbLevel,
    stlb_latency: u64,
    walk_latency: u64,
}

impl Tlb {
    /// Build from configuration.
    ///
    /// # Panics
    ///
    /// Panics if either entry count is zero.
    pub fn new(cfg: &TlbConfig) -> Self {
        Tlb {
            dtlb: TlbLevel::new(cfg.dtlb_entries),
            stlb: TlbLevel::new(cfg.stlb_entries),
            stlb_latency: cfg.stlb_latency,
            walk_latency: cfg.walk_latency,
        }
    }

    /// Translate the page of `line`; returns the added latency
    /// (0 on a DTLB hit).
    pub fn translate(&mut self, line: LineAddr) -> u64 {
        let page = line.0 >> PAGE_LINE_SHIFT;
        if self.dtlb.access(page) {
            return 0;
        }
        if self.stlb.access(page) {
            return self.stlb_latency;
        }
        self.stlb_latency + self.walk_latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tlb() -> Tlb {
        Tlb::new(&TlbConfig::default())
    }

    #[test]
    fn first_touch_walks_then_hits() {
        let mut t = tlb();
        let line = LineAddr(0x12345);
        assert_eq!(t.translate(line), 88); // stlb + walk
        assert_eq!(t.translate(line), 0);
        // Same page, different line: still a hit.
        assert_eq!(t.translate(LineAddr(0x12345 ^ 0x7)), 0);
    }

    #[test]
    fn dtlb_capacity_spills_to_stlb() {
        let mut t = tlb();
        // Touch 128 pages (> 64 DTLB entries, < 1536 STLB entries);
        // each first touch walks.
        for p in 0..128u64 {
            assert_eq!(t.translate(LineAddr(p << 6)), 88, "page {p}");
        }
        // Revisit the first page: DTLB conflict, STLB hit.
        let lat = t.translate(LineAddr(0));
        assert_eq!(lat, 8, "L2 TLB hit latency");
    }

    #[test]
    fn stlb_capacity_forces_walks() {
        let mut t = tlb();
        for p in 0..4096u64 {
            t.translate(LineAddr(p << 6));
        }
        let lat = t.translate(LineAddr(0));
        assert_eq!(lat, 88, "full miss after STLB eviction");
    }

    #[test]
    fn page_locality_is_free() {
        let mut t = tlb();
        t.translate(LineAddr(64)); // page 1
        let total: u64 = (0..64u64).map(|i| t.translate(LineAddr(64 + i))).sum();
        assert_eq!(total, 0, "all lines of a resident page translate freely");
    }
}
