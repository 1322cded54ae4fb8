//! Reference model for the probe-key capture engine (test-only).
//!
//! This module preserves, verbatim, the capture engine the flat
//! probe-key layout replaced: per-set `Vec`s of entries scanned for a
//! valid way with a matching region. The randomized equivalence test
//! drives both engines through identical load/evict streams and checks
//! every outcome and the full snapshot state after every step, with a
//! snapshot round trip of the new engine mid-stream.

use crate::capture::{CaptureConfig, CaptureOutcome, CapturedPattern, PatternCapture, TriggerEvent};
use pmp_types::{BitPattern, ByteWriter, LineAddr, Pc, RegionAddr};

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

/// The pre-rework two-table capture engine.
struct RefCapture {
    cfg: CaptureConfig,
    ft: Vec<Vec<FtEntry>>,
    at: Vec<Vec<AtEntry>>,
    clock: u64,
}

impl RefCapture {
    fn new(cfg: CaptureConfig) -> Self {
        let len = cfg.geometry.lines_per_region();
        let ft_entry =
            FtEntry { region: RegionAddr(0), pc: Pc(0), offset: 0, lru: 0, valid: false };
        let ft = vec![vec![ft_entry; cfg.ft_ways]; cfg.ft_sets];
        let at = vec![
            vec![
                AtEntry {
                    region: RegionAddr(0),
                    pc: Pc(0),
                    offset: 0,
                    pattern: BitPattern::new(len),
                    lru: 0,
                    valid: false
                };
                cfg.at_ways
            ];
            cfg.at_sets
        ];
        RefCapture { cfg, ft, at, clock: 0 }
    }

    fn ft_set(&self, region: RegionAddr) -> usize {
        (region.0 as usize) % self.cfg.ft_sets
    }

    fn at_set(&self, region: RegionAddr) -> usize {
        (region.0 as usize) % self.cfg.at_sets
    }

    fn on_load(&mut self, pc: Pc, line: LineAddr) -> CaptureOutcome {
        self.clock += 1;
        let clock = self.clock;
        let geom = self.cfg.geometry;
        let region = geom.region_of_line(line);
        let offset = geom.offset_of_line(line);

        let at_set = self.at_set(region);
        if let Some(e) = self.at[at_set].iter_mut().find(|e| e.valid && e.region == region) {
            e.pattern.set(offset);
            e.lru = clock;
            return CaptureOutcome::default();
        }

        let ft_set = self.ft_set(region);
        if let Some(fi) = self.ft[ft_set].iter().position(|e| e.valid && e.region == region) {
            let fe = self.ft[ft_set][fi];
            if fe.offset == offset {
                self.ft[ft_set][fi].lru = clock;
                return CaptureOutcome::default();
            }
            self.ft[ft_set][fi].valid = false;
            let len = geom.lines_per_region();
            let mut pattern = BitPattern::new(len);
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
            let flushed = self.at_insert(at_set, new_entry);
            return CaptureOutcome { trigger: None, flushed };
        }

        let victim = self.ft[ft_set]
            .iter_mut()
            .min_by_key(|e| if e.valid { e.lru } else { 0 })
            .expect("non-empty FT set");
        *victim = FtEntry { region, pc, offset, lru: clock, valid: true };
        CaptureOutcome { trigger: Some(TriggerEvent { region, offset, pc }), flushed: None }
    }

    fn at_insert(&mut self, set: usize, entry: AtEntry) -> Option<CapturedPattern> {
        if let Some(e) = self.at[set].iter_mut().find(|e| !e.valid) {
            *e = entry;
            return None;
        }
        let victim = self.at[set].iter_mut().min_by_key(|e| e.lru).expect("non-empty AT set");
        let flushed = CapturedPattern {
            region: victim.region,
            trigger_offset: victim.offset,
            trigger_pc: victim.pc,
            pattern: victim.pattern,
        };
        *victim = entry;
        Some(flushed)
    }

    fn on_evict(&mut self, line: LineAddr) -> Option<CapturedPattern> {
        let region = self.cfg.geometry.region_of_line(line);
        let at_set = self.at_set(region);
        if let Some(e) = self.at[at_set].iter_mut().find(|e| e.valid && e.region == region) {
            e.valid = false;
            return Some(CapturedPattern {
                region: e.region,
                trigger_offset: e.offset,
                trigger_pc: e.pc,
                pattern: e.pattern,
            });
        }
        let ft_set = self.ft_set(region);
        if let Some(e) = self.ft[ft_set].iter_mut().find(|e| e.valid && e.region == region) {
            e.valid = false;
        }
        None
    }

    fn encode_state(&self, w: &mut ByteWriter) {
        w.put_u64(self.clock);
        w.put_u32(self.cfg.ft_sets as u32);
        w.put_u32(self.cfg.ft_ways as u32);
        for set in &self.ft {
            for e in set {
                w.put_u64(e.region.0);
                w.put_u64(e.pc.0);
                w.put_u8(e.offset);
                w.put_u64(e.lru);
                w.put_bool(e.valid);
            }
        }
        w.put_u32(self.cfg.at_sets as u32);
        w.put_u32(self.cfg.at_ways as u32);
        for set in &self.at {
            for e in set {
                w.put_u64(e.region.0);
                w.put_u64(e.pc.0);
                w.put_u8(e.offset);
                w.put_u64(e.pattern.bits());
                w.put_u64(e.lru);
                w.put_bool(e.valid);
            }
        }
    }

    fn drain(&mut self) -> Vec<CapturedPattern> {
        let mut out = Vec::new();
        for set in &mut self.at {
            for e in set.iter_mut().filter(|e| e.valid) {
                e.valid = false;
                out.push(CapturedPattern {
                    region: e.region,
                    trigger_offset: e.offset,
                    trigger_pc: e.pc,
                    pattern: e.pattern,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmp_types::{ByteReader, RegionGeometry, Rng64};

    fn state_of(encode: impl FnOnce(&mut ByteWriter)) -> Vec<u8> {
        let mut w = ByteWriter::new();
        encode(&mut w);
        w.into_bytes()
    }

    /// Table shapes from the paper default down to one-set, few-way
    /// tables where every load contends for a victim.
    fn configs() -> Vec<CaptureConfig> {
        let small = |lines, ft_sets, ft_ways, at_sets, at_ways| CaptureConfig {
            geometry: RegionGeometry::new(lines),
            ft_sets,
            ft_ways,
            at_sets,
            at_ways,
        };
        vec![
            CaptureConfig::default(),
            small(16, 2, 2, 1, 4),
            small(32, 3, 1, 2, 3),
            small(64, 1, 4, 1, 1),
        ]
    }

    #[test]
    fn probe_key_capture_matches_scan_reference() {
        let mut rng = Rng64::seed_from_u64(0xCA97_0BE5);
        for cfg in configs() {
            let lines = u64::from(cfg.geometry.lines_per_region());
            for trial in 0..40 {
                let mut new = PatternCapture::new(cfg.clone());
                let mut old = RefCapture::new(cfg.clone());
                // A few hot regions plus a spread of cold ones, so
                // accesses hit the AT, the FT and both replacement paths.
                let regions = rng.gen_range(2..48u64);
                for step in 0..600 {
                    let region = if rng.gen_bool(0.5) {
                        rng.gen_range(0..4u64)
                    } else {
                        rng.gen_range(0..regions)
                    };
                    let line = LineAddr(region * lines + rng.gen_range(0..lines));
                    let ctx = format!("cfg={cfg:?} trial={trial} step={step} line={line:?}");
                    if rng.gen_range(0..4u32) == 0 {
                        assert_eq!(new.on_evict(line), old.on_evict(line), "evict: {ctx}");
                    } else {
                        let pc = Pc(0x400 + rng.gen_range(0..8u64) * 4);
                        let (a, b) = (new.on_load(pc, line), old.on_load(pc, line));
                        assert_eq!(a.trigger, b.trigger, "trigger: {ctx}");
                        assert_eq!(a.flushed, b.flushed, "flush: {ctx}");
                    }
                    let bytes = state_of(|w| new.encode_state(w));
                    assert_eq!(bytes, state_of(|w| old.encode_state(w)), "state: {ctx}");
                    if step == 300 {
                        // Continue from a restored engine: the probe keys
                        // must be re-derived exactly.
                        let mut r = ByteReader::new(&bytes, "capture");
                        new = PatternCapture::decode_state(&mut r, &cfg, "capture")
                            .expect("decode");
                        r.finish().expect("exact consumption");
                    }
                }
                assert_eq!(new.drain(), old.drain(), "drain: cfg={cfg:?} trial={trial}");
            }
        }
    }
}
