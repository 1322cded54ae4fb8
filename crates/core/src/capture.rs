//! The SMS-style pattern-capturing framework (paper Section II-B,
//! Fig. 1): a Filter Table records the first access to each region, an
//! Accumulation Table assembles the region's bit-vector pattern, and
//! eviction of the region's data (or AT replacement) completes the
//! pattern.
//!
//! PMP, Bingo, DSPatch, and Design B all train on patterns produced by
//! this framework, so it lives here as a reusable component.

use pmp_types::{
    BitPattern, ByteReader, ByteWriter, LineAddr, Pc, RegionAddr, RegionGeometry, SnapshotError,
};

/// Capture-framework geometry and table sizes (defaults from the
/// paper's Table III: FT 8×8, AT 2×16).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaptureConfig {
    /// Region geometry (pattern length).
    pub geometry: RegionGeometry,
    /// Filter-table sets.
    pub ft_sets: usize,
    /// Filter-table ways.
    pub ft_ways: usize,
    /// Accumulation-table sets.
    pub at_sets: usize,
    /// Accumulation-table ways.
    pub at_ways: usize,
}

impl Default for CaptureConfig {
    fn default() -> Self {
        CaptureConfig {
            geometry: RegionGeometry::default(),
            ft_sets: 8,
            ft_ways: 8,
            at_sets: 2,
            at_ways: 16,
        }
    }
}

impl CaptureConfig {
    /// Storage in bits (Table III: FT entry = region tag 33 + hashed PC
    /// 5 + trigger offset + LRU 3; AT entry = region tag 35 + hashed PC
    /// 5 + bit vector + trigger offset + LRU 4).
    ///
    /// Region tags widen as regions shrink (one extra bit per halving),
    /// which is how the paper's Table IX reaches 2.5KB (PMP-32) and
    /// 1.6KB (PMP-16): tag width = 39 − offset bits (FT) and 41 −
    /// offset bits (AT), matching Table III at the default 6-bit offset.
    pub fn storage_bits(&self) -> u64 {
        let off = u64::from(self.geometry.offset_bits());
        let len = u64::from(self.geometry.lines_per_region());
        let ft_entry = (39 - off) + 5 + off + 3;
        let at_entry = (41 - off) + 5 + len + off + 4;
        (self.ft_sets * self.ft_ways) as u64 * ft_entry
            + (self.at_sets * self.at_ways) as u64 * at_entry
    }
}

/// A completed region pattern delivered to the prefetcher's tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapturedPattern {
    /// The region the pattern was observed in.
    pub region: RegionAddr,
    /// Offset of the region's first access.
    pub trigger_offset: u8,
    /// PC of the region's first access.
    pub trigger_pc: Pc,
    /// The *unanchored* bit vector (bit i ⇔ offset i accessed).
    pub pattern: BitPattern,
}

impl CapturedPattern {
    /// The pattern left-rotated so the trigger offset is position 0
    /// (the form the pattern tables merge).
    pub fn anchored(&self) -> BitPattern {
        self.pattern.rotate_to_anchor(self.trigger_offset)
    }
}

/// Result of observing one load: whether it triggered a new region
/// generation, plus any pattern flushed by AT replacement.
#[derive(Debug, Default)]
pub struct CaptureOutcome {
    /// `Some` when this load is the first access to its region.
    pub trigger: Option<TriggerEvent>,
    /// Pattern evicted from the AT to make room (if any).
    pub flushed: Option<CapturedPattern>,
}

/// A trigger access: the first access to a region (paper Fig. 7 —
/// "if the region of an L1D load misses in the AT and the FT, it is a
/// trigger access").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TriggerEvent {
    /// The region being opened.
    pub region: RegionAddr,
    /// The trigger offset.
    pub offset: u8,
    /// The trigger PC.
    pub pc: Pc,
}

#[derive(Debug, Clone, Copy)]
struct FtEntry {
    region: RegionAddr,
    pc: Pc,
    offset: u8,
    lru: u64,
    valid: bool,
}

#[derive(Debug, Clone, Copy)]
struct AtEntry {
    region: RegionAddr,
    pc: Pc,
    offset: u8,
    pattern: BitPattern,
    lru: u64,
    valid: bool,
}

impl AtEntry {
    fn captured(&self) -> CapturedPattern {
        CapturedPattern {
            region: self.region,
            trigger_offset: self.offset,
            trigger_pc: self.pc,
            pattern: self.pattern,
        }
    }
}

/// Probe key of an invalid way. No region reaches it: a region number
/// is a line address shifted right by at least one offset bit.
const INVALID: u64 = u64::MAX;

/// A way's probe key: its region when valid, [`INVALID`] otherwise.
#[inline]
fn probe_key(valid: bool, region: RegionAddr) -> u64 {
    if valid {
        region.0
    } else {
        INVALID
    }
}

/// The set `region` maps to among `sets` (a mask when `sets` is a
/// power of two, as in every paper configuration).
#[inline]
fn set_of(region: RegionAddr, sets: usize) -> usize {
    let r = region.0 as usize;
    if sets.is_power_of_two() {
        r & (sets - 1)
    } else {
        r % sets
    }
}

/// The way in `keys` (one set's probe keys) holding `region`.
#[inline]
fn probe(keys: &[u64], region: RegionAddr) -> Option<usize> {
    keys.iter().position(|&k| k == region.0)
}

/// The two-table capture engine.
///
/// Both tables are flat and set-major (way `w` of set `s` sits at
/// `s * ways + w`), and each keeps a parallel array of per-way probe
/// keys, so a lookup scans one set's keys — eight or sixteen adjacent
/// `u64`s — instead of the entries themselves. The keys are derived
/// state: entries keep their region and validity (invalid ways keep
/// their stale region, which the snapshot carries), and
/// [`PatternCapture::decode_state`] re-derives the keys.
#[derive(Debug, Clone)]
pub struct PatternCapture {
    cfg: CaptureConfig,
    ft: Vec<FtEntry>,
    ft_keys: Vec<u64>,
    at: Vec<AtEntry>,
    at_keys: Vec<u64>,
    clock: u64,
}

impl PatternCapture {
    /// Build the engine from its configuration.
    ///
    /// # Panics
    ///
    /// Panics on zero-sized tables.
    pub fn new(cfg: CaptureConfig) -> Self {
        assert!(cfg.ft_sets > 0 && cfg.ft_ways > 0, "degenerate FT");
        assert!(cfg.at_sets > 0 && cfg.at_ways > 0, "degenerate AT");
        let len = cfg.geometry.lines_per_region();
        let ft_len = cfg.ft_sets * cfg.ft_ways;
        let at_len = cfg.at_sets * cfg.at_ways;
        let ft = vec![
            FtEntry { region: RegionAddr(0), pc: Pc(0), offset: 0, lru: 0, valid: false };
            ft_len
        ];
        let at = vec![
            AtEntry {
                region: RegionAddr(0),
                pc: Pc(0),
                offset: 0,
                pattern: BitPattern::new(len),
                lru: 0,
                valid: false
            };
            at_len
        ];
        PatternCapture {
            cfg,
            ft,
            ft_keys: vec![INVALID; ft_len],
            at,
            at_keys: vec![INVALID; at_len],
            clock: 0,
        }
    }

    /// The configured region geometry.
    pub fn geometry(&self) -> RegionGeometry {
        self.cfg.geometry
    }

    /// First FT way of `region`'s set.
    fn ft_base(&self, region: RegionAddr) -> usize {
        set_of(region, self.cfg.ft_sets) * self.cfg.ft_ways
    }

    /// First AT way of `region`'s set.
    fn at_base(&self, region: RegionAddr) -> usize {
        set_of(region, self.cfg.at_sets) * self.cfg.at_ways
    }

    /// The AT way holding `region` in the set starting at `base`.
    fn at_find(&self, base: usize, region: RegionAddr) -> Option<usize> {
        probe(&self.at_keys[base..base + self.cfg.at_ways], region).map(|w| base + w)
    }

    /// The FT way holding `region` in the set starting at `base`.
    fn ft_find(&self, base: usize, region: RegionAddr) -> Option<usize> {
        probe(&self.ft_keys[base..base + self.cfg.ft_ways], region).map(|w| base + w)
    }

    /// Observe an L1D demand load.
    pub fn on_load(&mut self, pc: Pc, line: LineAddr) -> CaptureOutcome {
        self.clock += 1;
        let clock = self.clock;
        let geom = self.cfg.geometry;
        let region = geom.region_of_line(line);
        let offset = geom.offset_of_line(line);

        // 1. AT hit: accumulate.
        let at_base = self.at_base(region);
        if let Some(i) = self.at_find(at_base, region) {
            let e = &mut self.at[i];
            e.pattern.set(offset);
            e.lru = clock;
            return CaptureOutcome::default();
        }

        // 2. FT hit: second (distinct-offset) access promotes to AT.
        let ft_base = self.ft_base(region);
        if let Some(i) = self.ft_find(ft_base, region) {
            let fe = self.ft[i];
            if fe.offset == offset {
                // Same line again: stays in the FT.
                self.ft[i].lru = clock;
                return CaptureOutcome::default();
            }
            self.ft[i].valid = false;
            self.ft_keys[i] = INVALID;
            let mut pattern = BitPattern::new(geom.lines_per_region());
            pattern.set(fe.offset);
            pattern.set(offset);
            let new_entry = AtEntry {
                region,
                pc: fe.pc,
                offset: fe.offset,
                pattern,
                lru: clock,
                valid: true,
            };
            let flushed = self.at_insert(at_base, new_entry);
            return CaptureOutcome { trigger: None, flushed };
        }

        // 3. Miss in both: trigger access — allocate an FT entry.
        let victim = (ft_base..ft_base + self.cfg.ft_ways)
            .min_by_key(|&i| if self.ft[i].valid { self.ft[i].lru } else { 0 })
            .expect("non-empty FT set");
        self.ft[victim] = FtEntry { region, pc, offset, lru: clock, valid: true };
        self.ft_keys[victim] = region.0;
        CaptureOutcome {
            trigger: Some(TriggerEvent { region, offset, pc }),
            flushed: None,
        }
    }

    /// Place `entry` in its AT set (starting at `base`): the first
    /// invalid way, else the LRU way, whose pattern is flushed.
    fn at_insert(&mut self, base: usize, entry: AtEntry) -> Option<CapturedPattern> {
        let ways = base..base + self.cfg.at_ways;
        let (slot, flushed) = match ways.clone().find(|&i| !self.at[i].valid) {
            Some(i) => (i, None),
            None => {
                let i = ways.min_by_key(|&i| self.at[i].lru).expect("non-empty AT set");
                (i, Some(self.at[i].captured()))
            }
        };
        self.at_keys[slot] = entry.region.0;
        self.at[slot] = entry;
        flushed
    }

    /// Observe an L1D eviction: if a line of an accumulating region
    /// leaves the cache, the region's pattern is complete.
    pub fn on_evict(&mut self, line: LineAddr) -> Option<CapturedPattern> {
        let region = self.cfg.geometry.region_of_line(line);
        if let Some(i) = self.at_find(self.at_base(region), region) {
            self.at[i].valid = false;
            self.at_keys[i] = INVALID;
            return Some(self.at[i].captured());
        }
        // A single-access region in the FT carries no pattern.
        if let Some(i) = self.ft_find(self.ft_base(region), region) {
            self.ft[i].valid = false;
            self.ft_keys[i] = INVALID;
        }
        None
    }

    /// Append the engine's complete state — clock, every FT and AT
    /// entry including LRU stamps (victim selection depends on them) —
    /// to a snapshot section. Public because DSPatch (in
    /// `pmp-baselines`) snapshots its capture engine through this too.
    pub fn encode_state(&self, w: &mut ByteWriter) {
        w.put_u64(self.clock);
        w.put_u32(self.cfg.ft_sets as u32);
        w.put_u32(self.cfg.ft_ways as u32);
        for e in &self.ft {
            w.put_u64(e.region.0);
            w.put_u64(e.pc.0);
            w.put_u8(e.offset);
            w.put_u64(e.lru);
            w.put_bool(e.valid);
        }
        w.put_u32(self.cfg.at_sets as u32);
        w.put_u32(self.cfg.at_ways as u32);
        for e in &self.at {
            w.put_u64(e.region.0);
            w.put_u64(e.pc.0);
            w.put_u8(e.offset);
            w.put_u64(e.pattern.bits());
            w.put_u64(e.lru);
            w.put_bool(e.valid);
        }
    }

    /// Rebuild a capture engine from snapshot bytes under `cfg`,
    /// validating geometry (set/way counts must match the restoring
    /// configuration) and bounds-checking every offset against the
    /// region size. The probe keys are not on the wire; they are
    /// re-derived from each way's region and validity.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] on truncation, geometry mismatch, or
    /// an out-of-range offset.
    pub fn decode_state(
        r: &mut ByteReader<'_>,
        cfg: &CaptureConfig,
        context: &str,
    ) -> Result<PatternCapture, SnapshotError> {
        let len = cfg.geometry.lines_per_region();
        let clock = r.take_u64()?;
        let ft_sets = r.take_u32()? as usize;
        let ft_ways = r.take_u32()? as usize;
        if ft_sets != cfg.ft_sets || ft_ways != cfg.ft_ways {
            return Err(SnapshotError::corrupt(
                context,
                format!(
                    "FT geometry {ft_sets}x{ft_ways}, expected {}x{}",
                    cfg.ft_sets, cfg.ft_ways
                ),
            ));
        }
        let mut ft = Vec::with_capacity(ft_sets * ft_ways);
        for _ in 0..ft_sets * ft_ways {
            let region = RegionAddr(r.take_u64()?);
            let pc = Pc(r.take_u64()?);
            let offset = r.take_u8()?;
            let lru = r.take_u64()?;
            let valid = r.take_bool()?;
            if valid && u32::from(offset) >= len {
                return Err(SnapshotError::corrupt(
                    context,
                    format!("FT trigger offset {offset} outside {len}-line region"),
                ));
            }
            ft.push(FtEntry { region, pc, offset, lru, valid });
        }
        let at_sets = r.take_u32()? as usize;
        let at_ways = r.take_u32()? as usize;
        if at_sets != cfg.at_sets || at_ways != cfg.at_ways {
            return Err(SnapshotError::corrupt(
                context,
                format!(
                    "AT geometry {at_sets}x{at_ways}, expected {}x{}",
                    cfg.at_sets, cfg.at_ways
                ),
            ));
        }
        let mut at = Vec::with_capacity(at_sets * at_ways);
        for _ in 0..at_sets * at_ways {
            let region = RegionAddr(r.take_u64()?);
            let pc = Pc(r.take_u64()?);
            let offset = r.take_u8()?;
            let bits = r.take_u64()?;
            let lru = r.take_u64()?;
            let valid = r.take_bool()?;
            if valid && u32::from(offset) >= len {
                return Err(SnapshotError::corrupt(
                    context,
                    format!("AT trigger offset {offset} outside {len}-line region"),
                ));
            }
            if len < 64 && bits >> len != 0 {
                return Err(SnapshotError::corrupt(
                    context,
                    format!("AT pattern bits beyond the {len}-line region"),
                ));
            }
            at.push(AtEntry {
                region,
                pc,
                offset,
                pattern: BitPattern::from_bits(bits, len),
                lru,
                valid,
            });
        }
        let ft_keys = ft.iter().map(|e| probe_key(e.valid, e.region)).collect();
        let at_keys = at.iter().map(|e| probe_key(e.valid, e.region)).collect();
        Ok(PatternCapture { cfg: cfg.clone(), ft, ft_keys, at, at_keys, clock })
    }

    /// Drain every accumulated pattern (end-of-simulation flush, used
    /// by the analysis tooling to avoid losing in-flight patterns).
    pub fn drain(&mut self) -> Vec<CapturedPattern> {
        let mut out = Vec::new();
        for (e, key) in self.at.iter_mut().zip(&mut self.at_keys) {
            if e.valid {
                e.valid = false;
                *key = INVALID;
                out.push(e.captured());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmp_types::Addr;

    fn line(region: u64, off: u64) -> LineAddr {
        Addr(region * 4096 + off * 64).line()
    }

    #[test]
    fn first_access_is_trigger() {
        let mut c = PatternCapture::new(CaptureConfig::default());
        let out = c.on_load(Pc(0x400), line(5, 3));
        let t = out.trigger.expect("trigger");
        assert_eq!(t.region, RegionAddr(5));
        assert_eq!(t.offset, 3);
        assert_eq!(t.pc, Pc(0x400));
        // Second access to the same line: no trigger, no pattern.
        let out = c.on_load(Pc(0x404), line(5, 3));
        assert!(out.trigger.is_none());
        assert!(out.flushed.is_none());
    }

    #[test]
    fn eviction_completes_pattern_fig1() {
        // The paper's Fig. 6a example: accesses P+2, P+1, P+4.
        let mut c = PatternCapture::new(CaptureConfig::default());
        assert!(c.on_load(Pc(1), line(7, 2)).trigger.is_some());
        assert!(c.on_load(Pc(2), line(7, 1)).trigger.is_none());
        assert!(c.on_load(Pc(3), line(7, 4)).trigger.is_none());
        let p = c.on_evict(line(7, 2)).expect("completed pattern");
        assert_eq!(p.trigger_offset, 2);
        assert_eq!(p.trigger_pc, Pc(1));
        assert_eq!(p.pattern.iter_set().collect::<Vec<_>>(), vec![1, 2, 4]);
        // Anchoring matches the paper: (1,0,1,0,0,0,0,1) over 8 offsets
        // — here over 64, so set bits are {0, 2, 63}.
        let anchored = p.anchored();
        assert!(anchored.get(0) && anchored.get(2) && anchored.get(63));
        assert_eq!(anchored.count(), 3);
    }

    #[test]
    fn eviction_of_ft_only_region_is_silent() {
        let mut c = PatternCapture::new(CaptureConfig::default());
        c.on_load(Pc(1), line(9, 0));
        assert!(c.on_evict(line(9, 0)).is_none());
        // Region is gone: next access triggers again.
        assert!(c.on_load(Pc(1), line(9, 1)).trigger.is_some());
    }

    #[test]
    fn at_replacement_flushes_victim() {
        // AT is 2 sets × 16 ways = 32 entries; open 33+ two-access
        // regions mapping to the same AT set to force a flush.
        let mut c = PatternCapture::new(CaptureConfig::default());
        let mut flushed = 0;
        for r in 0..40u64 {
            let region = r * 2; // all even -> AT set 0
            c.on_load(Pc(1), line(region, 0));
            let out = c.on_load(Pc(1), line(region, 1));
            if out.flushed.is_some() {
                flushed += 1;
            }
        }
        assert!(flushed > 0, "AT replacement must flush patterns");
    }

    #[test]
    fn drain_returns_in_flight() {
        let mut c = PatternCapture::new(CaptureConfig::default());
        c.on_load(Pc(1), line(3, 0));
        c.on_load(Pc(1), line(3, 5));
        c.on_load(Pc(1), line(4, 2));
        c.on_load(Pc(1), line(4, 3));
        let drained = c.drain();
        assert_eq!(drained.len(), 2);
        assert!(c.drain().is_empty());
    }

    #[test]
    fn small_regions_supported() {
        let cfg = CaptureConfig {
            geometry: RegionGeometry::new(16),
            ..CaptureConfig::default()
        };
        let mut c = PatternCapture::new(cfg);
        // 16-line (1KB) regions: line 17 is region 1 offset 1.
        let out = c.on_load(Pc(1), LineAddr(17));
        assert_eq!(out.trigger.unwrap().region, RegionAddr(1));
        c.on_load(Pc(1), LineAddr(19));
        let p = c.on_evict(LineAddr(17)).unwrap();
        assert_eq!(p.pattern.len(), 16);
        assert_eq!(p.trigger_offset, 1);
    }

    #[test]
    fn storage_matches_table_iii() {
        let cfg = CaptureConfig::default();
        // FT 376 bytes + AT 456 bytes.
        assert_eq!(cfg.storage_bits(), (376 + 456) * 8);
    }

    #[test]
    fn state_round_trips_bit_identically() {
        let mut c = PatternCapture::new(CaptureConfig::default());
        for r in 0..20u64 {
            c.on_load(Pc(0x400 + r), line(r, r % 8));
            c.on_load(Pc(0x400 + r), line(r, (r + 3) % 8));
        }
        let mut w = ByteWriter::new();
        c.encode_state(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, "capture");
        let back = PatternCapture::decode_state(&mut r, &CaptureConfig::default(), "capture")
            .expect("decode");
        r.finish().expect("exact consumption");
        // Re-encoding the restored engine must reproduce the bytes
        // exactly — clock, LRU stamps, and all.
        let mut w2 = ByteWriter::new();
        back.encode_state(&mut w2);
        assert_eq!(w2.into_bytes(), bytes, "capture state must round-trip bit-identically");
    }

    #[test]
    fn decode_rejects_geometry_mismatch_and_bad_offsets() {
        let c = PatternCapture::new(CaptureConfig::default());
        let mut w = ByteWriter::new();
        c.encode_state(&mut w);
        let bytes = w.into_bytes();
        // Restoring under different table geometry is corruption.
        let other = CaptureConfig { ft_sets: 4, ..CaptureConfig::default() };
        let mut r = ByteReader::new(&bytes, "capture");
        let err = PatternCapture::decode_state(&mut r, &other, "capture")
            .expect_err("geometry mismatch");
        assert_eq!(err.kind_tag(), "corrupt");
        // Truncation is a typed error, not a panic.
        let mut r = ByteReader::new(&bytes[..bytes.len() / 2], "capture");
        assert!(PatternCapture::decode_state(&mut r, &CaptureConfig::default(), "capture")
            .is_err());
    }
}
