//! The Prefetch Buffer (paper Section IV-B, bottom of Fig. 6c).
//!
//! Final prefetch patterns are parked here, indexed by the trigger
//! access's region. PMP has no fixed prefetch degree: it issues as many
//! targets as the L1D prefetch queue has free entries, nearest-first
//! relative to the triggering line, and resumes from the buffer when a
//! later load touches the same region.

use pmp_prefetch::PrefetchRequest;
use pmp_types::{
    BitPattern, ByteReader, ByteWriter, CacheLevel, Origin, PrefetchPattern, Provenance,
    RegionAddr, RegionGeometry, SnapshotError,
};

#[derive(Debug, Clone)]
struct PbEntry {
    region: RegionAddr,
    trigger_offset: u8,
    pattern: PrefetchPattern,
    low_level_issued: usize,
    lru: u64,
    valid: bool,
    // Provenance of the parked pattern (observability only): which
    // table lookup produced it. Deliberately NOT serialized — the
    // snapshot wire format carries learned state, not telemetry, and
    // restored entries report Origin::None.
    origin: Origin,
}

/// A small LRU buffer of pending prefetch patterns, keyed by region.
#[derive(Debug, Clone)]
pub struct PrefetchBuffer {
    entries: Vec<PbEntry>,
    clock: u64,
    geom: RegionGeometry,
}

impl PrefetchBuffer {
    /// Create a buffer of `capacity` entries for `pattern_len`-offset
    /// patterns (paper: 16 entries).
    ///
    /// # Panics
    ///
    /// Panics on zero capacity or when `pattern_len` is not a region
    /// size ([`RegionGeometry::new`]).
    pub fn new(capacity: usize, pattern_len: u32) -> Self {
        assert!(capacity > 0, "buffer capacity must be positive");
        let geom = RegionGeometry::new(pattern_len);
        PrefetchBuffer {
            entries: vec![
                PbEntry {
                    region: RegionAddr(0),
                    trigger_offset: 0,
                    pattern: PrefetchPattern::new(pattern_len),
                    low_level_issued: 0,
                    lru: 0,
                    valid: false,
                    origin: Origin::None,
                };
                capacity
            ],
            clock: 0,
            geom,
        }
    }

    /// Park a new pattern for `region` (evicting the LRU entry if full;
    /// an existing entry for the region is replaced).
    pub fn insert(&mut self, region: RegionAddr, trigger_offset: u8, pattern: PrefetchPattern) {
        self.insert_with_origin(region, trigger_offset, pattern, Origin::None);
    }

    /// [`PrefetchBuffer::insert`] with a provenance tag recording which
    /// table lookup produced the pattern.
    pub fn insert_with_origin(
        &mut self,
        region: RegionAddr,
        trigger_offset: u8,
        pattern: PrefetchPattern,
        origin: Origin,
    ) {
        assert_eq!(pattern.len(), self.geom.lines_per_region(), "pattern length mismatch");
        debug_assert!(u32::from(trigger_offset) < pattern.len(), "trigger offset out of region");
        self.clock += 1;
        let clock = self.clock;
        let slot = if let Some(i) =
            self.entries.iter().position(|e| e.valid && e.region == region)
        {
            i
        } else if let Some(i) = self.entries.iter().position(|e| !e.valid) {
            i
        } else {
            self.entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.lru)
                .map(|(i, _)| i)
                .expect("non-empty buffer")
        };
        self.entries[slot] = PbEntry {
            region,
            trigger_offset,
            pattern,
            low_level_issued: 0,
            lru: clock,
            valid: true,
            origin,
        };
    }

    /// Pop up to `budget` targets for `region` into `out`, nearest-first
    /// to the absolute offset `near` (the current access's offset; the
    /// lower offset wins a distance tie). Popped targets are removed
    /// from the stored pattern; an exhausted entry is freed. Each
    /// request carries the entry's provenance at its position in this
    /// pop.
    ///
    /// `low_level_limit` caps how many targets below L1D (L2C/LLC) a
    /// single pattern may issue over its lifetime — `None` is
    /// unlimited, `Some(1)` is the paper's PMP-Limit variant. A target
    /// over the cap is dropped silently and does not use budget.
    ///
    /// The walk allocates nothing and sorts nothing: it rotates the
    /// entry's two code planes to absolute offsets and advances two bit
    /// cursors outward from `near`, one over the targets at or below it
    /// and one over those above.
    pub fn pop_into(
        &mut self,
        region: RegionAddr,
        near: u8,
        budget: usize,
        low_level_limit: Option<usize>,
        out: &mut Vec<PrefetchRequest>,
    ) {
        self.clock += 1;
        let clock = self.clock;
        let geom = self.geom;
        let Some(entry) = self.entries.iter_mut().find(|e| e.valid && e.region == region) else {
            return;
        };
        entry.lru = clock;
        if budget == 0 {
            return;
        }
        let len = geom.lines_per_region();
        let trig = entry.trigger_offset;
        let to_abs =
            |plane: u64| BitPattern::from_bits(plane, len).rotate_from_anchor(trig).bits();
        let (lo, hi) = entry.pattern.planes();
        let (mut lo, mut hi) = (to_abs(lo), to_abs(hi));
        debug_assert!(u32::from(near) < len, "offset {near} out of region");
        let at_or_below_near = u64::MAX >> (63 - near);
        let mut issued = 0;
        while issued < budget {
            // Every visited target leaves the planes, so the two cursors
            // are the highest remaining target at or below `near` and
            // the lowest above it.
            let down = (lo | hi) & at_or_below_near;
            let up = (lo | hi) & !at_or_below_near;
            let below = (down != 0).then(|| 63 - down.leading_zeros() as u8);
            let above = (up != 0).then(|| up.trailing_zeros() as u8);
            let abs = match (below, above) {
                (Some(b), Some(a)) if a - near < near - b => a,
                (Some(b), _) => b,
                (None, Some(a)) => a,
                (None, None) => break,
            };
            let bit = 1u64 << abs;
            let level = match (hi & bit != 0, lo & bit != 0) {
                (false, _) => CacheLevel::L1D,
                (true, false) => CacheLevel::L2C,
                (true, true) => CacheLevel::Llc,
            };
            lo &= !bit;
            hi &= !bit;
            if level > CacheLevel::L1D {
                if let Some(limit) = low_level_limit {
                    if entry.low_level_issued >= limit {
                        // Over the low-level budget: drop silently.
                        continue;
                    }
                    entry.low_level_issued += 1;
                }
            }
            out.push(PrefetchRequest::with_provenance(
                geom.line_of(region, abs),
                level,
                Provenance::at(entry.origin, issued),
            ));
            issued += 1;
        }
        let to_anchored =
            |plane: u64| BitPattern::from_bits(plane, len).rotate_to_anchor(trig).bits();
        entry.pattern = PrefetchPattern::from_planes(len, to_anchored(lo), to_anchored(hi));
        if entry.pattern.is_empty() {
            entry.valid = false;
        }
    }

    /// Whether a pattern is parked for `region`.
    pub fn contains(&self, region: RegionAddr) -> bool {
        self.entries.iter().any(|e| e.valid && e.region == region)
    }

    /// Number of valid (pending) entries — introspection gauge.
    pub fn occupancy(&self) -> usize {
        self.entries.iter().filter(|e| e.valid).count()
    }

    /// Total entry count.
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Storage in bits (Table III: region tag 36 + pattern 2×(len−1) +
    /// LRU 4 per entry at 64-line regions; the tag widens by one bit
    /// per region-size halving, i.e. tag = 42 − offset bits).
    pub fn storage_bits(&self) -> u64 {
        let len = self.geom.lines_per_region();
        let tag = 42 - u64::from(self.geom.offset_bits());
        let per = tag + 2 * (u64::from(len) - 1) + 4;
        self.entries.len() as u64 * per
    }

    /// Append the buffer's full state to a snapshot section. Per-offset
    /// targets encode as one byte: 0 = none, 1 = L1D, 2 = L2C, 3 = LLC.
    pub(crate) fn encode_state(&self, w: &mut ByteWriter) {
        let pattern_len = self.geom.lines_per_region();
        w.put_u32(self.entries.len() as u32);
        w.put_u32(pattern_len);
        w.put_u64(self.clock);
        for e in &self.entries {
            w.put_u64(e.region.0);
            w.put_u8(e.trigger_offset);
            w.put_u64(e.low_level_issued as u64);
            w.put_u64(e.lru);
            w.put_bool(e.valid);
            for off in 0..pattern_len {
                w.put_u8(match e.pattern.target(off as u8).level() {
                    None => 0,
                    Some(CacheLevel::L1D) => 1,
                    Some(CacheLevel::L2C) => 2,
                    Some(CacheLevel::Llc) => 3,
                });
            }
        }
    }

    /// Rebuild a buffer from snapshot bytes, validating geometry and
    /// every per-entry invariant against the expected configuration.
    pub(crate) fn decode_state(
        r: &mut ByteReader<'_>,
        expected_capacity: usize,
        expected_len: u32,
        context: &str,
    ) -> Result<PrefetchBuffer, SnapshotError> {
        let capacity = r.take_u32()? as usize;
        if capacity != expected_capacity {
            return Err(SnapshotError::corrupt(
                context,
                format!("buffer capacity {capacity}, expected {expected_capacity}"),
            ));
        }
        let pattern_len = r.take_u32()?;
        if pattern_len != expected_len {
            return Err(SnapshotError::corrupt(
                context,
                format!("buffer pattern length {pattern_len}, expected {expected_len}"),
            ));
        }
        let clock = r.take_u64()?;
        let mut entries = Vec::with_capacity(capacity);
        for _ in 0..capacity {
            let region = RegionAddr(r.take_u64()?);
            let trigger_offset = r.take_u8()?;
            let low_level_issued = r.take_u64()? as usize;
            let lru = r.take_u64()?;
            let valid = r.take_bool()?;
            if valid && u32::from(trigger_offset) >= pattern_len {
                return Err(SnapshotError::corrupt(
                    context,
                    format!("trigger offset {trigger_offset} out of pattern {pattern_len}"),
                ));
            }
            if lru > clock {
                return Err(SnapshotError::corrupt(
                    context,
                    format!("entry LRU stamp {lru} ahead of clock {clock}"),
                ));
            }
            let mut pattern = PrefetchPattern::new(pattern_len);
            for off in 0..pattern_len {
                match r.take_u8()? {
                    0 => {}
                    1 => pattern.set(off as u8, CacheLevel::L1D),
                    2 => pattern.set(off as u8, CacheLevel::L2C),
                    3 => pattern.set(off as u8, CacheLevel::Llc),
                    t => {
                        return Err(SnapshotError::corrupt(
                            context,
                            format!("unknown prefetch target tag {t}"),
                        ))
                    }
                }
            }
            entries.push(PbEntry {
                region,
                trigger_offset,
                pattern,
                low_level_issued,
                lru,
                valid,
                origin: Origin::None,
            });
        }
        Ok(PrefetchBuffer { entries, clock, geom: RegionGeometry::new(pattern_len) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(len: u32, targets: &[(u8, CacheLevel)]) -> PrefetchPattern {
        let mut p = PrefetchPattern::new(len);
        for &(o, l) in targets {
            p.set(o, l);
        }
        p
    }

    /// Pop through [`PrefetchBuffer::pop_into`] and read back each
    /// request's absolute offset and level.
    fn pop(
        pb: &mut PrefetchBuffer,
        region: RegionAddr,
        near: u8,
        budget: usize,
        low_level_limit: Option<usize>,
    ) -> Vec<(u8, CacheLevel)> {
        let mut out = Vec::new();
        pb.pop_into(region, near, budget, low_level_limit, &mut out);
        out.iter().map(|r| (pb.geom.offset_of_line(r.line), r.fill_level)).collect()
    }

    #[test]
    fn pop_nearest_first() {
        let mut pb = PrefetchBuffer::new(16, 64);
        // Trigger offset 10: anchored offsets 1,2,40 -> abs 11,12,50.
        pb.insert(
            RegionAddr(3),
            10,
            pattern(64, &[(1, CacheLevel::L1D), (2, CacheLevel::L1D), (40, CacheLevel::L2C)]),
        );
        let t = pop(&mut pb, RegionAddr(3), 10, 2, None);
        assert_eq!(t, vec![(11, CacheLevel::L1D), (12, CacheLevel::L1D)]);
        // Remaining target pops on resume.
        let t = pop(&mut pb, RegionAddr(3), 10, 8, None);
        assert_eq!(t, vec![(50, CacheLevel::L2C)]);
        assert!(!pb.contains(RegionAddr(3)));
    }

    #[test]
    fn distance_tie_goes_to_the_lower_offset() {
        let mut pb = PrefetchBuffer::new(4, 16);
        // Trigger 4, anchored 2 and 6 -> abs 6 and 10, both 2 from 8.
        pb.insert(RegionAddr(1), 4, pattern(16, &[(6, CacheLevel::L2C), (2, CacheLevel::L1D)]));
        let t = pop(&mut pb, RegionAddr(1), 8, 4, None);
        assert_eq!(t, vec![(6, CacheLevel::L1D), (10, CacheLevel::L2C)]);
    }

    #[test]
    fn wraps_within_region() {
        let mut pb = PrefetchBuffer::new(16, 64);
        // Trigger at 62: anchored 3 -> abs (62+3)%64 = 1.
        pb.insert(RegionAddr(1), 62, pattern(64, &[(3, CacheLevel::L1D)]));
        let t = pop(&mut pb, RegionAddr(1), 62, 4, None);
        assert_eq!(t[0].0, 1);
    }

    #[test]
    fn zero_budget_keeps_pattern() {
        let mut pb = PrefetchBuffer::new(16, 64);
        pb.insert(RegionAddr(5), 0, pattern(64, &[(1, CacheLevel::L1D)]));
        assert!(pop(&mut pb, RegionAddr(5), 0, 0, None).is_empty());
        assert!(pb.contains(RegionAddr(5)));
    }

    #[test]
    fn unknown_region_pops_nothing() {
        let mut pb = PrefetchBuffer::new(16, 64);
        assert!(pop(&mut pb, RegionAddr(9), 0, 8, None).is_empty());
    }

    #[test]
    fn low_level_limit_enforced() {
        let mut pb = PrefetchBuffer::new(16, 64);
        pb.insert(
            RegionAddr(2),
            0,
            pattern(
                64,
                &[
                    (1, CacheLevel::L1D),
                    (2, CacheLevel::L2C),
                    (3, CacheLevel::L2C),
                    (4, CacheLevel::Llc),
                ],
            ),
        );
        let t = pop(&mut pb, RegionAddr(2), 0, 16, Some(1));
        let low = t.iter().filter(|x| x.1 > CacheLevel::L1D).count();
        assert_eq!(low, 1, "PMP-Limit allows one low-level prefetch: {t:?}");
        assert_eq!(t.iter().filter(|x| x.1 == CacheLevel::L1D).count(), 1);
    }

    #[test]
    fn lru_eviction_when_full() {
        let mut pb = PrefetchBuffer::new(2, 64);
        pb.insert(RegionAddr(1), 0, pattern(64, &[(1, CacheLevel::L1D)]));
        pb.insert(RegionAddr(2), 0, pattern(64, &[(1, CacheLevel::L1D)]));
        // Touch region 1 so region 2 is LRU.
        pop(&mut pb, RegionAddr(1), 0, 0, None);
        pb.insert(RegionAddr(3), 0, pattern(64, &[(1, CacheLevel::L1D)]));
        assert!(pb.contains(RegionAddr(1)));
        assert!(!pb.contains(RegionAddr(2)));
        assert!(pb.contains(RegionAddr(3)));
    }

    #[test]
    fn reinsert_replaces() {
        let mut pb = PrefetchBuffer::new(4, 64);
        pb.insert(RegionAddr(1), 0, pattern(64, &[(1, CacheLevel::L1D)]));
        pb.insert(RegionAddr(1), 5, pattern(64, &[(2, CacheLevel::L2C)]));
        let t = pop(&mut pb, RegionAddr(1), 5, 8, None);
        assert_eq!(t, vec![(7, CacheLevel::L2C)]);
    }

    #[test]
    fn origin_rides_along_but_is_not_persisted() {
        let mut pb = PrefetchBuffer::new(4, 8);
        let origin = Origin::Pmp {
            table: pmp_types::PmpTable::Opt,
            entry: 3,
            trigger_offset: 2,
            generation: 1,
        };
        let two = pattern(8, &[(1, CacheLevel::L1D), (2, CacheLevel::L1D)]);
        pb.insert_with_origin(RegionAddr(3), 2, two.clone(), origin);
        // Snapshot round trip drops the tag (telemetry, not state).
        let mut w = ByteWriter::new();
        pb.encode_state(&mut w);
        let bytes = w.into_bytes();
        let mut out = Vec::new();
        pb.pop_into(RegionAddr(3), 2, 8, None, &mut out);
        let tags: Vec<Provenance> = out.iter().map(|r| r.provenance).collect();
        assert_eq!(tags, vec![Provenance::at(origin, 0), Provenance::at(origin, 1)]);
        let mut r = ByteReader::new(&bytes, "pb");
        let mut back = PrefetchBuffer::decode_state(&mut r, 4, 8, "pb").expect("decode");
        out.clear();
        back.pop_into(RegionAddr(3), 2, 8, None, &mut out);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|r| r.provenance.origin == Origin::None));
    }

    #[test]
    fn storage_matches_table_iii() {
        let pb = PrefetchBuffer::new(16, 64);
        // 16 × (36 + 126 + 4) = 2656 bits = 332 bytes.
        assert_eq!(pb.storage_bits(), 332 * 8);
    }

    #[test]
    fn state_round_trips_bit_identically() {
        let mut pb = PrefetchBuffer::new(4, 8);
        pb.insert(RegionAddr(3), 2, pattern(8, &[(1, CacheLevel::L1D), (5, CacheLevel::L2C)]));
        pb.insert(RegionAddr(9), 7, pattern(8, &[(3, CacheLevel::Llc)]));
        pop(&mut pb, RegionAddr(3), 2, 1, Some(1));
        let mut w = ByteWriter::new();
        pb.encode_state(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, "pb");
        let back = PrefetchBuffer::decode_state(&mut r, 4, 8, "pb").expect("decode");
        r.finish().expect("exact consumption");
        let mut w2 = ByteWriter::new();
        back.encode_state(&mut w2);
        assert_eq!(w2.into_bytes(), bytes, "re-encode must be byte-identical");
        assert!(back.contains(RegionAddr(3)));
        assert!(back.contains(RegionAddr(9)));
    }

    #[test]
    fn decode_rejects_forged_payloads() {
        let pb = PrefetchBuffer::new(2, 8);
        let mut w = ByteWriter::new();
        pb.encode_state(&mut w);
        let bytes = w.into_bytes();
        // Wrong expected capacity and wrong expected pattern length.
        let mut r = ByteReader::new(&bytes, "pb");
        assert!(PrefetchBuffer::decode_state(&mut r, 4, 8, "pb").is_err());
        let mut r = ByteReader::new(&bytes, "pb");
        assert!(PrefetchBuffer::decode_state(&mut r, 2, 16, "pb").is_err());
        // Forge an out-of-range target tag in the first entry's pattern.
        let mut forged = bytes.clone();
        let first_pattern_at = 4 + 4 + 8 + (8 + 1 + 8 + 8 + 1);
        forged[first_pattern_at] = 9;
        let mut r = ByteReader::new(&forged, "pb");
        let err = PrefetchBuffer::decode_state(&mut r, 2, 8, "pb").expect_err("bad tag");
        assert_eq!(err.kind_tag(), "corrupt");
    }

    /// The pre-rework pop, kept verbatim as the reference the
    /// allocation-free [`PrefetchBuffer::pop_into`] must match: it
    /// assembles every target, sorts by `(distance, offset)` and walks
    /// the sorted list.
    mod pop_ref {
        use super::*;
        use pmp_types::Rng64;

        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        struct PendingTarget {
            abs_offset: u8,
            level: CacheLevel,
        }

        impl PrefetchBuffer {
            fn pop_targets(
                &mut self,
                region: RegionAddr,
                near: u8,
                budget: usize,
                low_level_limit: Option<usize>,
            ) -> Vec<PendingTarget> {
                self.clock += 1;
                let clock = self.clock;
                let len = self.geom.lines_per_region() as u16;
                let Some(entry) =
                    self.entries.iter_mut().find(|e| e.valid && e.region == region)
                else {
                    return Vec::new();
                };
                entry.lru = clock;
                if budget == 0 {
                    return Vec::new();
                }
                let trig = u16::from(entry.trigger_offset);
                let mut targets: Vec<(u8, u8, CacheLevel)> = entry
                    .pattern
                    .iter_targets()
                    .map(|(anch, level)| {
                        let abs = ((trig + u16::from(anch)) % len) as u8;
                        let dist = (i16::from(abs) - i16::from(near)).unsigned_abs() as u8;
                        (dist, abs, level)
                    })
                    .collect();
                targets.sort_unstable_by_key(|&(dist, abs, _)| (dist, abs));

                let mut out = Vec::with_capacity(budget.min(targets.len()));
                for (_, abs, level) in targets {
                    if out.len() >= budget {
                        break;
                    }
                    let anch = ((i16::from(abs) - i16::from(entry.trigger_offset))
                        .rem_euclid(len as i16)) as u8;
                    if level > CacheLevel::L1D {
                        if let Some(limit) = low_level_limit {
                            if entry.low_level_issued >= limit {
                                entry.pattern.clear(anch);
                                continue;
                            }
                            entry.low_level_issued += 1;
                        }
                    }
                    entry.pattern.clear(anch);
                    out.push(PendingTarget { abs_offset: abs, level });
                }
                if entry.pattern.is_empty() {
                    entry.valid = false;
                }
                out
            }
        }

        fn state(pb: &PrefetchBuffer) -> Vec<u8> {
            let mut w = ByteWriter::new();
            pb.encode_state(&mut w);
            w.into_bytes()
        }

        /// A random pattern: each plane's density varies from sparse to
        /// full, so every level mix and pattern size appears.
        fn random_pattern(rng: &mut Rng64, len: u32) -> PrefetchPattern {
            let mut plane = || {
                let mut bits = rng.next_u64();
                for _ in 0..rng.gen_range(0..3u32) {
                    bits &= rng.next_u64();
                }
                bits
            };
            let (lo, hi) = (plane(), plane());
            PrefetchPattern::from_planes(len, lo, hi)
        }

        #[test]
        fn pop_into_matches_sorted_reference() {
            let mut rng = Rng64::seed_from_u64(0x0B0F_F5E7);
            for len in [8u32, 16, 32, 64] {
                for trial in 0..300 {
                    let mut new = PrefetchBuffer::new(4, len);
                    let mut old = new.clone();
                    for step in 0..24 {
                        if rng.gen_range(0..3u32) == 0 {
                            let region = RegionAddr(rng.gen_range(0..6u64));
                            let trig = rng.gen_range(0..len) as u8;
                            let p = random_pattern(&mut rng, len);
                            new.insert(region, trig, p.clone());
                            old.insert(region, trig, p);
                        }
                        let region = RegionAddr(rng.gen_range(0..6u64));
                        let near = rng.gen_range(0..len) as u8;
                        let budget = rng.gen_range(0..=16usize);
                        let limit = [None, Some(1), Some(2)][rng.gen_range(0..3usize)];
                        let mut out = Vec::new();
                        new.pop_into(region, near, budget, limit, &mut out);
                        let got: Vec<(u8, CacheLevel, u8)> = out
                            .iter()
                            .map(|r| {
                                assert_eq!(new.geom.region_of_line(r.line), region);
                                let abs = new.geom.offset_of_line(r.line);
                                (abs, r.fill_level, r.provenance.degree_pos)
                            })
                            .collect();
                        let want: Vec<(u8, CacheLevel, u8)> = old
                            .pop_targets(region, near, budget, limit)
                            .iter()
                            .enumerate()
                            .map(|(i, t)| (t.abs_offset, t.level, i as u8))
                            .collect();
                        let ctx = format!(
                            "len={len} trial={trial} step={step} near={near} budget={budget} \
                             limit={limit:?}"
                        );
                        assert_eq!(got, want, "{ctx}");
                        // Leftover patterns, low-level counts, validity,
                        // LRU stamps and clock: the whole wire state.
                        assert_eq!(state(&new), state(&old), "{ctx}");
                    }
                }
            }
        }
    }
}
