//! The assembled Pattern Merging Prefetcher (paper Section IV-D/E).
//!
//! Flow per L1D demand load (Fig. 7):
//!
//! 1. the capture framework observes the access; completed patterns
//!    (AT replacement victims and, via [`Prefetcher::on_evict`],
//!    regions whose data left the L1D) are anchored and merged into
//!    both pattern tables;
//! 2. if the access is a trigger (first access to its region), the OPT
//!    and PPT independently extract candidate prefetch patterns, the
//!    arbiter fuses them, and the result is parked in the Prefetch
//!    Buffer;
//! 3. the buffer issues as many targets as the L1D prefetch queue has
//!    free entries — nearest-first to the current line — and resumes on
//!    subsequent loads to the same region.

use crate::arbiter::arbitrate;
use crate::buffer::PrefetchBuffer;
use crate::capture::{CaptureConfig, CapturedPattern, PatternCapture};
use crate::extract::ExtractionScheme;
use crate::lanes::CounterTable;
use crate::tables::{OffsetPatternTable, PcPatternTable};
use pmp_prefetch::{AccessInfo, EvictInfo, Gauge, Introspect, PrefetchRequest, Prefetcher};
use pmp_types::{
    config_fingerprint, ByteReader, ByteWriter, LineAddr, Pc, PrefetchPattern, RegionGeometry,
    SnapshotError, StateImage,
};

/// Which pattern-table organisation to use (Section V-E3 ablations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableMode {
    /// The paper's dual-table design: OPT primary + coarse PPT, fused
    /// by the arbiter.
    Dual,
    /// Single OPT, extraction used directly (no level arbitration).
    OptOnly,
    /// Single full-length PPT of the same size as the OPT.
    PptOnly,
    /// One table indexed by the concatenated PC+TriggerOffset feature
    /// (2^(pc_bits+offset_bits) entries).
    Combined,
}

/// PMP configuration (paper Table II defaults).
#[derive(Debug, Clone, PartialEq)]
pub struct PmpConfig {
    /// Capture-framework configuration (region geometry = pattern
    /// length: 64 / 32 / 16, Table IX).
    pub capture: CaptureConfig,
    /// Trigger-offset feature width in bits: OPT entry count is
    /// `2^bits` (Table X sweeps 6..=12).
    pub trigger_offset_bits: u32,
    /// Hashed-PC feature width: PPT entry count is `2^bits` (default 5).
    pub pc_index_bits: u32,
    /// OPT counter width in bits (Table X sweeps 2..=8; default 5).
    pub opt_counter_bits: u32,
    /// PPT counter width in bits (default 5).
    pub ppt_counter_bits: u32,
    /// Offsets monitored per PPT coarse counter (Table XI; default 2).
    pub monitoring_range: u32,
    /// Extraction scheme (default AFE 50%/15%).
    pub scheme: ExtractionScheme,
    /// Prefetch Buffer entries (default 16).
    pub pb_entries: usize,
    /// Cap on L2C/LLC prefetches per prediction: `Some(1)` is the
    /// paper's PMP-Limit variant; `None` is unlimited (default).
    pub low_level_degree: Option<usize>,
    /// Table organisation (default dual).
    pub table_mode: TableMode,
}

impl Default for PmpConfig {
    fn default() -> Self {
        PmpConfig {
            capture: CaptureConfig::default(),
            trigger_offset_bits: 6,
            pc_index_bits: 5,
            opt_counter_bits: 5,
            ppt_counter_bits: 5,
            monitoring_range: 2,
            scheme: ExtractionScheme::default(),
            pb_entries: 16,
            low_level_degree: None,
            table_mode: TableMode::Dual,
        }
    }
}

impl PmpConfig {
    /// The paper's PMP-Limit: low-level prefetch degree 1 (Section V-D).
    pub fn pmp_limit() -> Self {
        PmpConfig { low_level_degree: Some(1), ..PmpConfig::default() }
    }

    /// PMP-32 / PMP-16: shrink the tracked regions (Table IX).
    ///
    /// # Panics
    ///
    /// Panics if `lines` is not a power of two in 2..=64 or the
    /// monitoring range no longer divides it.
    pub fn with_pattern_length(lines: u32) -> Self {
        let mut cfg = PmpConfig::default();
        cfg.capture.geometry = RegionGeometry::new(lines);
        cfg
    }

    /// The region geometry in use.
    pub fn geometry(&self) -> RegionGeometry {
        self.capture.geometry
    }
}

/// Internal table organisation.
#[derive(Debug, Clone)]
enum Tables {
    Dual { opt: OffsetPatternTable, ppt: PcPatternTable },
    OptOnly { opt: OffsetPatternTable },
    PptOnly { table: CounterTable, bits: u32 },
    Combined { table: CounterTable, off_bits: u32, pc_bits: u32 },
}

impl Tables {
    fn new(cfg: &PmpConfig) -> Self {
        let len = cfg.geometry().lines_per_region();
        match cfg.table_mode {
            TableMode::Dual => Tables::Dual {
                opt: OffsetPatternTable::new(cfg.trigger_offset_bits, len, cfg.opt_counter_bits),
                ppt: PcPatternTable::new(
                    cfg.pc_index_bits,
                    len,
                    cfg.monitoring_range,
                    cfg.ppt_counter_bits,
                ),
            },
            TableMode::OptOnly => Tables::OptOnly {
                opt: OffsetPatternTable::new(cfg.trigger_offset_bits, len, cfg.opt_counter_bits),
            },
            TableMode::PptOnly => Tables::PptOnly {
                table: CounterTable::new(
                    1u32 << cfg.trigger_offset_bits,
                    len,
                    cfg.opt_counter_bits,
                ),
                bits: cfg.trigger_offset_bits,
            },
            TableMode::Combined => Tables::Combined {
                table: CounterTable::new(
                    1u32 << (cfg.trigger_offset_bits + cfg.pc_index_bits),
                    len,
                    cfg.opt_counter_bits,
                ),
                off_bits: cfg.trigger_offset_bits,
                pc_bits: cfg.pc_index_bits,
            },
        }
    }

    fn combined_index(line: LineAddr, pc: Pc, off_bits: u32, pc_bits: u32) -> usize {
        let off = (line.0 & ((1u64 << off_bits) - 1)) as usize;
        let pch = pc.hash_bits(pc_bits) as usize;
        (pch << off_bits) | off
    }

    /// Merge a captured pattern; returns how many counter-vector
    /// halvings the merge caused (0..=2 — the dual design can halve in
    /// both tables at once).
    fn train(&mut self, captured: &CapturedPattern, geom: RegionGeometry) -> u32 {
        let anchored = captured.anchored();
        let trigger_line = geom.line_of(captured.region, captured.trigger_offset);
        match self {
            Tables::Dual { opt, ppt } => {
                u32::from(opt.train(trigger_line, anchored))
                    + u32::from(ppt.train(captured.trigger_pc, anchored))
            }
            Tables::OptOnly { opt } => u32::from(opt.train(trigger_line, anchored)),
            Tables::PptOnly { table, bits } => {
                let idx = captured.trigger_pc.hash_bits(*bits) as usize;
                u32::from(table.merge(idx, anchored.bits()))
            }
            Tables::Combined { table, off_bits, pc_bits } => {
                let idx =
                    Self::combined_index(trigger_line, captured.trigger_pc, *off_bits, *pc_bits);
                u32::from(table.merge(idx, anchored.bits()))
            }
        }
    }

    /// Append occupancy/saturation gauges for the active organisation.
    /// The single-table sweeps read the packed words directly (one
    /// strided pass, no per-entry unpacking).
    fn gauges(&self, out: &mut Vec<Gauge>) {
        fn vec_stats(
            table: &CounterTable,
            occ_name: &'static str,
            sat_name: &'static str,
            out: &mut Vec<Gauge>,
        ) {
            out.push(Gauge::new(
                occ_name,
                table.occupied() as f64 / table.entries() as f64,
            ));
            out.push(Gauge::new(sat_name, table.saturated() as f64));
        }
        match self {
            Tables::Dual { opt, ppt } => {
                out.push(Gauge::new("opt_occupancy", opt.occupied() as f64 / opt.entries() as f64));
                out.push(Gauge::new("opt_saturated", opt.saturated() as f64));
                out.push(Gauge::new("ppt_occupancy", ppt.occupied() as f64 / ppt.entries() as f64));
                out.push(Gauge::new("ppt_saturated", ppt.saturated() as f64));
            }
            Tables::OptOnly { opt } => {
                out.push(Gauge::new("opt_occupancy", opt.occupied() as f64 / opt.entries() as f64));
                out.push(Gauge::new("opt_saturated", opt.saturated() as f64));
            }
            Tables::PptOnly { table, .. } => {
                vec_stats(table, "ppt_occupancy", "ppt_saturated", out);
            }
            Tables::Combined { table, .. } => {
                vec_stats(table, "opt_occupancy", "opt_saturated", out);
            }
        }
    }

    fn predict(
        &self,
        line: LineAddr,
        pc: Pc,
        scheme: &ExtractionScheme,
        monitoring_range: u32,
    ) -> PrefetchPattern {
        match self {
            Tables::Dual { opt, ppt } => {
                let a = opt.predict(line, scheme);
                let b = ppt.predict(pc, scheme);
                arbitrate(&a, &b, monitoring_range)
            }
            Tables::OptOnly { opt } => opt.predict(line, scheme),
            Tables::PptOnly { table, bits } => {
                scheme.extract_slice(table.slice(pc.hash_bits(*bits) as usize))
            }
            Tables::Combined { table, off_bits, pc_bits } => {
                scheme.extract_slice(
                    table.slice(Self::combined_index(line, pc, *off_bits, *pc_bits)),
                )
            }
        }
    }

    fn storage_bits(&self) -> u64 {
        match self {
            Tables::Dual { opt, ppt } => opt.storage_bits() + ppt.storage_bits(),
            Tables::OptOnly { opt } => opt.storage_bits(),
            Tables::PptOnly { table, .. } | Tables::Combined { table, .. } => {
                table.storage_bits()
            }
        }
    }

    /// Stable variant tag for the snapshot encoding.
    fn mode_tag(&self) -> u8 {
        match self {
            Tables::Dual { .. } => 0,
            Tables::OptOnly { .. } => 1,
            Tables::PptOnly { .. } => 2,
            Tables::Combined { .. } => 3,
        }
    }

    /// Append the active organisation's full state to a snapshot
    /// section: a variant tag, then the tables in declaration order.
    fn encode_state(&self, w: &mut ByteWriter) {
        w.put_u8(self.mode_tag());
        match self {
            Tables::Dual { opt, ppt } => {
                opt.encode_state(w);
                ppt.encode_state(w);
            }
            Tables::OptOnly { opt } => opt.encode_state(w),
            Tables::PptOnly { table, .. } | Tables::Combined { table, .. } => {
                table.encode_state(w);
            }
        }
    }

    /// Rebuild the tables from snapshot bytes; the variant tag must
    /// match the restoring configuration's [`TableMode`], and every
    /// counter vector must match the configured geometry.
    fn decode_state(
        r: &mut ByteReader<'_>,
        cfg: &PmpConfig,
        context: &str,
    ) -> Result<Tables, SnapshotError> {
        let len = cfg.geometry().lines_per_region();
        let tag = r.take_u8()?;
        let expected_tag = match cfg.table_mode {
            TableMode::Dual => 0,
            TableMode::OptOnly => 1,
            TableMode::PptOnly => 2,
            TableMode::Combined => 3,
        };
        if tag != expected_tag {
            return Err(SnapshotError::corrupt(
                context,
                format!("table mode tag {tag}, expected {expected_tag}"),
            ));
        }
        let decode_table = |r: &mut ByteReader<'_>,
                            index_bits: u32|
         -> Result<CounterTable, SnapshotError> {
            CounterTable::decode_state(
                r,
                1u32 << index_bits,
                len,
                cfg.opt_counter_bits,
                "table",
                context,
            )
        };
        Ok(match cfg.table_mode {
            TableMode::Dual => Tables::Dual {
                opt: OffsetPatternTable::decode_state(
                    r,
                    cfg.trigger_offset_bits,
                    len,
                    cfg.opt_counter_bits,
                    context,
                )?,
                ppt: PcPatternTable::decode_state(
                    r,
                    cfg.pc_index_bits,
                    len,
                    cfg.monitoring_range,
                    cfg.ppt_counter_bits,
                    context,
                )?,
            },
            TableMode::OptOnly => Tables::OptOnly {
                opt: OffsetPatternTable::decode_state(
                    r,
                    cfg.trigger_offset_bits,
                    len,
                    cfg.opt_counter_bits,
                    context,
                )?,
            },
            TableMode::PptOnly => Tables::PptOnly {
                table: decode_table(r, cfg.trigger_offset_bits)?,
                bits: cfg.trigger_offset_bits,
            },
            TableMode::Combined => Tables::Combined {
                table: decode_table(r, cfg.trigger_offset_bits + cfg.pc_index_bits)?,
                off_bits: cfg.trigger_offset_bits,
                pc_bits: cfg.pc_index_bits,
            },
        })
    }
}

/// Lifetime event counters backing [`Introspect`] — pure observability,
/// never consulted by the prediction path.
#[derive(Debug, Clone, Copy, Default)]
struct ObsCounters {
    /// Patterns merged into the tables (AT victims + L1D evictions).
    trains: u64,
    /// Counter-vector halvings caused by time-counter saturation.
    halvings: u64,
    /// Trigger-time table lookups (extraction invocations).
    lookups: u64,
    /// Lookups whose extracted pattern was non-empty.
    pattern_hits: u64,
    /// Total prefetch targets extracted across all hits.
    extracted_targets: u64,
}

impl ObsCounters {
    fn encode_state(&self, w: &mut ByteWriter) {
        w.put_u64(self.trains);
        w.put_u64(self.halvings);
        w.put_u64(self.lookups);
        w.put_u64(self.pattern_hits);
        w.put_u64(self.extracted_targets);
    }

    fn decode_state(r: &mut ByteReader<'_>, context: &str) -> Result<ObsCounters, SnapshotError> {
        let obs = ObsCounters {
            trains: r.take_u64()?,
            halvings: r.take_u64()?,
            lookups: r.take_u64()?,
            pattern_hits: r.take_u64()?,
            extracted_targets: r.take_u64()?,
        };
        if obs.pattern_hits > obs.lookups {
            return Err(SnapshotError::corrupt(
                context,
                format!("pattern hits {} exceed lookups {}", obs.pattern_hits, obs.lookups),
            ));
        }
        Ok(obs)
    }
}

/// The Pattern Merging Prefetcher.
#[derive(Debug, Clone)]
pub struct Pmp {
    cfg: PmpConfig,
    capture: PatternCapture,
    tables: Tables,
    buffer: PrefetchBuffer,
    obs: ObsCounters,
}

impl Pmp {
    /// Build PMP from its configuration.
    pub fn new(cfg: PmpConfig) -> Self {
        let capture = PatternCapture::new(cfg.capture.clone());
        let tables = Tables::new(&cfg);
        let buffer = PrefetchBuffer::new(cfg.pb_entries, cfg.geometry().lines_per_region());
        Pmp {
            capture,
            tables,
            buffer,
            obs: ObsCounters::default(),
            cfg,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &PmpConfig {
        &self.cfg
    }

    fn train(&mut self, captured: CapturedPattern) {
        let geom = self.cfg.geometry();
        self.obs.trains += 1;
        self.obs.halvings += u64::from(self.tables.train(&captured, geom));
    }

    /// Provenance tag for a prediction triggered by (`line`, `pc`):
    /// which table organisation answered, the pattern-entry index it
    /// was read from, the trigger offset, and the merge generation
    /// (training events seen so far, saturating). Entry indices wider
    /// than 16 bits (combined mode) truncate — telemetry, not state.
    fn origin_for(&self, line: pmp_types::LineAddr, pc: pmp_types::Pc, trigger_offset: u8) -> pmp_types::Origin {
        use pmp_types::PmpTable;
        let (table, entry) = match &self.tables {
            Tables::Dual { opt, .. } => (PmpTable::Merged, opt.index_of(line) as u16),
            Tables::OptOnly { opt } => (PmpTable::Opt, opt.index_of(line) as u16),
            Tables::PptOnly { bits, .. } => (PmpTable::Ppt, pc.hash_bits(*bits) as u16),
            Tables::Combined { off_bits, pc_bits, .. } => {
                (PmpTable::Merged, Tables::combined_index(line, pc, *off_bits, *pc_bits) as u16)
            }
        };
        pmp_types::Origin::Pmp {
            table,
            entry,
            trigger_offset,
            generation: self.obs.trains.min(u64::from(u16::MAX)) as u16,
        }
    }

    /// The gauge name for extraction counts under the active scheme
    /// (the paper's ANE / ARE / AFE naming, Section V-E2).
    fn extraction_gauge_name(&self) -> &'static str {
        match self.cfg.scheme {
            ExtractionScheme::AccessNumber { .. } => "ane_extractions",
            ExtractionScheme::AccessRatio { .. } => "are_extractions",
            ExtractionScheme::AccessFrequency { .. } => "afe_extractions",
        }
    }
}

impl Introspect for Pmp {
    fn gauges(&self, out: &mut Vec<Gauge>) {
        self.tables.gauges(out);
        out.push(Gauge::new("patterns_merged", self.obs.trains as f64));
        out.push(Gauge::new("cv_halvings", self.obs.halvings as f64));
        out.push(Gauge::new("table_lookups", self.obs.lookups as f64));
        out.push(Gauge::new("pattern_hits", self.obs.pattern_hits as f64));
        let hit_rate = if self.obs.lookups == 0 {
            0.0
        } else {
            self.obs.pattern_hits as f64 / self.obs.lookups as f64
        };
        out.push(Gauge::new("pattern_hit_rate", hit_rate));
        out.push(Gauge::new(self.extraction_gauge_name(), self.obs.extracted_targets as f64));
        out.push(Gauge::new("pb_occupancy", self.buffer.occupancy() as f64));
    }
}

impl Prefetcher for Pmp {
    fn name(&self) -> &'static str {
        match (self.cfg.table_mode, self.cfg.low_level_degree) {
            (TableMode::Dual, None) => "pmp",
            (TableMode::Dual, Some(_)) => "pmp-limit",
            (TableMode::OptOnly, _) => "pmp-opt-only",
            (TableMode::PptOnly, _) => "pmp-ppt-only",
            (TableMode::Combined, _) => "pmp-combined",
        }
    }

    fn on_access(&mut self, info: &AccessInfo, out: &mut Vec<PrefetchRequest>) {
        let pc = info.access.pc;
        let line = info.access.addr.line();
        let geom = self.cfg.geometry();
        let region = geom.region_of_line(line);
        let offset = geom.offset_of_line(line);

        // 1. Train the capture framework; merge any flushed pattern.
        let outcome = self.capture.on_load(pc, line);
        if let Some(flushed) = outcome.flushed {
            self.train(flushed);
        }

        // 2. On a trigger access, predict and park the final pattern.
        if let Some(trig) = outcome.trigger {
            let pattern =
                self.tables.predict(line, pc, &self.cfg.scheme, self.cfg.monitoring_range);
            self.obs.lookups += 1;
            if !pattern.is_empty() {
                self.obs.pattern_hits += 1;
                self.obs.extracted_targets += pattern.count() as u64;
                let origin = self.origin_for(line, pc, trig.offset);
                self.buffer.insert_with_origin(trig.region, trig.offset, pattern, origin);
            }
        }

        // 3. Issue from the Prefetch Buffer, bounded by free PQ entries.
        self.buffer.pop_into(region, offset, info.pq_free, self.cfg.low_level_degree, out);
    }

    fn on_evict(&mut self, info: &EvictInfo) {
        if let Some(captured) = self.capture.on_evict(info.line) {
            self.train(captured);
        }
    }

    /// Total storage (Table III): capture framework + pattern tables +
    /// prefetch buffer. The default configuration totals ≈4.3KB.
    fn storage_bits(&self) -> u64 {
        self.cfg.capture.storage_bits() + self.tables.storage_bits() + self.buffer.storage_bits()
    }

    /// Serialize every learned structure — capture framework, pattern
    /// tables, prefetch buffer and observability counters — into named
    /// sections.
    fn save_state(&self) -> Result<StateImage, SnapshotError> {
        let fp = config_fingerprint(&format!("{:?}", self.cfg));
        let mut img = StateImage::new(self.name(), fp);
        let mut w = ByteWriter::new();
        self.capture.encode_state(&mut w);
        img.push_section("capture", w.into_bytes());
        let mut w = ByteWriter::new();
        self.tables.encode_state(&mut w);
        img.push_section("tables", w.into_bytes());
        let mut w = ByteWriter::new();
        self.buffer.encode_state(&mut w);
        img.push_section("buffer", w.into_bytes());
        let mut w = ByteWriter::new();
        self.obs.encode_state(&mut w);
        img.push_section("obs", w.into_bytes());
        Ok(img)
    }

    /// Restore state saved by an identically configured PMP. Every
    /// section is decoded and validated into temporaries before any
    /// live structure is replaced, so a corrupt image can never leave
    /// the prefetcher half-restored.
    fn load_state(&mut self, image: &StateImage) -> Result<(), SnapshotError> {
        if image.kind != self.name() {
            return Err(SnapshotError::KindMismatch {
                found: image.kind.clone(),
                expected: self.name().to_string(),
            });
        }
        let fp = config_fingerprint(&format!("{:?}", self.cfg));
        if image.config_fingerprint != fp {
            return Err(SnapshotError::ConfigMismatch {
                found: image.config_fingerprint,
                expected: fp,
            });
        }
        let mut r = ByteReader::new(image.section("capture")?, "section capture");
        let capture = PatternCapture::decode_state(&mut r, &self.cfg.capture, "section capture")?;
        r.finish()?;
        let mut r = ByteReader::new(image.section("tables")?, "section tables");
        let tables = Tables::decode_state(&mut r, &self.cfg, "section tables")?;
        r.finish()?;
        let mut r = ByteReader::new(image.section("buffer")?, "section buffer");
        let buffer = PrefetchBuffer::decode_state(
            &mut r,
            self.cfg.pb_entries,
            self.cfg.geometry().lines_per_region(),
            "section buffer",
        )?;
        r.finish()?;
        let mut r = ByteReader::new(image.section("obs")?, "section obs");
        let obs = ObsCounters::decode_state(&mut r, "section obs")?;
        r.finish()?;
        self.capture = capture;
        self.tables = tables;
        self.buffer = buffer;
        self.obs = obs;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmp_types::{Addr, CacheLevel, MemAccess};

    fn access(pc: u64, addr: u64, pq_free: usize) -> AccessInfo {
        AccessInfo {
            access: MemAccess::load(Pc(pc), Addr(addr)),
            hit: false,
            cycle: 0,
            pq_free,
        }
    }

    /// Drive PMP over `reps` regions, each accessed at offsets
    /// `trigger, trigger+d1, trigger+d2, ...`, with an eviction closing
    /// each region.
    fn train_regions(pmp: &mut Pmp, pc: u64, trigger: u64, offsets: &[u64], reps: u64) {
        let mut out = Vec::new();
        for r in 0..reps {
            let base = (100 + r) * 4096;
            pmp.on_access(&access(pc, base + trigger * 64, 0), &mut out);
            for &o in offsets {
                pmp.on_access(&access(pc, base + o * 64, 0), &mut out);
            }
            pmp.on_evict(&EvictInfo { line: Addr(base + trigger * 64).line(), cycle: 0 });
        }
        out.clear();
    }

    #[test]
    fn default_storage_is_4_3_kib() {
        let pmp = Pmp::new(PmpConfig::default());
        let bytes = pmp.storage_bits() / 8;
        // Table III: 376 + 456 + 2560 + 640 + 332 = 4364 bytes.
        assert_eq!(bytes, 4364);
    }

    #[test]
    fn pmp_32_and_16_match_table_ix() {
        let kib = |lines| {
            let pmp = Pmp::new(PmpConfig::with_pattern_length(lines));
            pmp.storage_bits() as f64 / 8.0 / 1024.0
        };
        let k32 = kib(32);
        let k16 = kib(16);
        assert!((2.3..=2.7).contains(&k32), "PMP-32 = {k32} KiB, paper says 2.5");
        assert!((1.4..=1.8).contains(&k16), "PMP-16 = {k16} KiB, paper says 1.6");
    }

    #[test]
    fn learns_and_prefetches_repeated_pattern() {
        let mut pmp = Pmp::new(PmpConfig::default());
        // Train: regions triggered at offset 4, then offsets 5,6 always.
        train_regions(&mut pmp, 0x400, 4, &[5, 6], 12);
        // New region, same trigger offset: expect prefetches for +1, +2.
        let mut out = Vec::new();
        pmp.on_access(&access(0x400, 999 * 4096 + 4 * 64, 8), &mut out);
        let lines: Vec<u64> = out.iter().map(|r| r.line.0).collect();
        let base_line = 999 * 64;
        assert!(lines.contains(&(base_line + 5)), "prefetches: {lines:?}");
        assert!(lines.contains(&(base_line + 6)), "prefetches: {lines:?}");
        // Offset +6 (anchored 2, PPT group 1) is confirmed to L1D;
        // offset +5 (anchored 1) lives in coarse group 0, which never
        // predicts (Fig. 6d), so arbitration downgrades it to L2C.
        let level_of = |o: u64| {
            out.iter().find(|r| r.line.0 == base_line + o).unwrap().fill_level
        };
        assert_eq!(level_of(6), CacheLevel::L1D, "{out:?}");
        assert_eq!(level_of(5), CacheLevel::L2C, "{out:?}");
    }

    #[test]
    fn trigger_offset_is_never_prefetched() {
        let mut pmp = Pmp::new(PmpConfig::default());
        train_regions(&mut pmp, 0x400, 4, &[5], 12);
        let mut out = Vec::new();
        pmp.on_access(&access(0x400, 999 * 4096 + 4 * 64, 8), &mut out);
        assert!(out.iter().all(|r| r.line.0 != 999 * 64 + 4));
    }

    #[test]
    fn pq_budget_limits_and_resumes() {
        let mut pmp = Pmp::new(PmpConfig::default());
        // Pattern with many offsets.
        train_regions(&mut pmp, 0x400, 0, &[1, 2, 3, 4, 5, 6, 7, 8], 12);
        let mut out = Vec::new();
        pmp.on_access(&access(0x400, 500 * 4096, 3), &mut out);
        assert_eq!(out.len(), 3, "budget-limited: {out:?}");
        // A later load to the same region resumes from the buffer.
        let mut out2 = Vec::new();
        pmp.on_access(&access(0x404, 500 * 4096 + 64, 8), &mut out2);
        assert!(!out2.is_empty(), "resume should issue the remainder");
        let all: Vec<u64> =
            out.iter().chain(out2.iter()).map(|r| r.line.0 - 500 * 64).collect();
        for o in 1..=8u64 {
            assert!(all.contains(&o), "offset {o} missing from {all:?}");
        }
    }

    #[test]
    fn wrapping_pattern_stays_in_region() {
        let mut pmp = Pmp::new(PmpConfig::default());
        // Backward walk: trigger at 63, then 62, 61 — anchored offsets
        // 63, 62 (wrap).
        train_regions(&mut pmp, 0x420, 63, &[62, 61], 12);
        let mut out = Vec::new();
        pmp.on_access(&access(0x420, 777 * 4096 + 63 * 64, 8), &mut out);
        let lines: Vec<u64> = out.iter().map(|r| r.line.0).collect();
        let base = 777 * 64;
        assert!(lines.contains(&(base + 62)), "{lines:?}");
        assert!(lines.contains(&(base + 61)), "{lines:?}");
        // Everything stays inside region 777.
        assert!(lines.iter().all(|l| l / 64 == 777));
    }

    #[test]
    fn untrained_pmp_is_silent() {
        let mut pmp = Pmp::new(PmpConfig::default());
        let mut out = Vec::new();
        pmp.on_access(&access(0x400, 0x7000, 8), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn rare_offsets_go_to_l2_or_are_dropped() {
        let mut pmp = Pmp::new(PmpConfig::default());
        // Offset +5 always; offset +9 in 1 of 4 regions (freq 25%):
        // above T_l2c=15%, below T_l1d=50%.
        let mut out = Vec::new();
        for r in 0..16u64 {
            let base = (200 + r) * 4096;
            pmp.on_access(&access(0x400, base, 0), &mut out);
            pmp.on_access(&access(0x400, base + 5 * 64, 0), &mut out);
            if r % 4 == 0 {
                pmp.on_access(&access(0x400, base + 9 * 64, 0), &mut out);
            }
            pmp.on_evict(&EvictInfo { line: Addr(base).line(), cycle: 0 });
        }
        out.clear();
        pmp.on_access(&access(0x400, 998 * 4096, 8), &mut out);
        let l2_targets: Vec<u64> = out
            .iter()
            .filter(|r| r.fill_level == CacheLevel::L2C)
            .map(|r| r.line.0 - 998 * 64)
            .collect();
        assert!(l2_targets.contains(&9), "rare offset should fill L2C: {out:?}");
    }

    #[test]
    fn pmp_limit_caps_low_level_prefetches() {
        let mut pmp = Pmp::new(PmpConfig::pmp_limit());
        assert_eq!(pmp.name(), "pmp-limit");
        // Train several 25%-frequency offsets (L2C targets).
        let mut out = Vec::new();
        for r in 0..16u64 {
            let base = (300 + r) * 4096;
            pmp.on_access(&access(0x400, base, 0), &mut out);
            pmp.on_access(&access(0x400, base + 64, 0), &mut out);
            let extra = 2 + (r % 4);
            pmp.on_access(&access(0x400, base + extra * 64, 0), &mut out);
            pmp.on_evict(&EvictInfo { line: Addr(base).line(), cycle: 0 });
        }
        out.clear();
        pmp.on_access(&access(0x400, 997 * 4096, 8), &mut out);
        let low = out.iter().filter(|r| r.fill_level > CacheLevel::L1D).count();
        assert!(low <= 1, "PMP-Limit must cap low-level prefetches: {out:?}");
    }

    #[test]
    fn ablation_modes_run() {
        for mode in [TableMode::OptOnly, TableMode::PptOnly, TableMode::Combined] {
            let mut pmp =
                Pmp::new(PmpConfig { table_mode: mode, ..PmpConfig::default() });
            train_regions(&mut pmp, 0x400, 4, &[5, 6], 12);
            let mut out = Vec::new();
            pmp.on_access(&access(0x400, 996 * 4096 + 4 * 64, 8), &mut out);
            assert!(!out.is_empty(), "{mode:?} should predict after training");
        }
    }

    #[test]
    fn combined_mode_has_2048_entries_of_storage() {
        let pmp = Pmp::new(PmpConfig { table_mode: TableMode::Combined, ..PmpConfig::default() });
        // 2^(6+5) = 2048 entries × 64 counters × 5 bits.
        let table_bits = 2048u64 * 64 * 5;
        assert!(pmp.storage_bits() > table_bits, "combined table dominates storage");
    }

    #[test]
    fn introspection_reports_training_state() {
        let mut pmp = Pmp::new(PmpConfig::default());
        let gauge = |pmp: &Pmp, name: &str| -> f64 {
            let mut g = Vec::new();
            pmp.gauges(&mut g);
            g.iter().find(|x| x.name == name).unwrap_or_else(|| panic!("missing {name}")).value
        };
        // Untrained: structural gauges present but zero.
        assert_eq!(gauge(&pmp, "opt_occupancy"), 0.0);
        assert_eq!(gauge(&pmp, "table_lookups"), 0.0);
        // Enough repetitions to saturate the 5-bit time counter (cap 31)
        // and force at least one halving.
        train_regions(&mut pmp, 0x400, 4, &[5, 6], 40);
        let mut out = Vec::new();
        pmp.on_access(&access(0x400, 995 * 4096 + 4 * 64, 8), &mut out);
        assert!(!out.is_empty(), "trained PMP should predict");
        assert!(gauge(&pmp, "opt_occupancy") > 0.0);
        assert!(gauge(&pmp, "ppt_occupancy") > 0.0);
        assert!(gauge(&pmp, "patterns_merged") >= 40.0);
        assert!(gauge(&pmp, "cv_halvings") >= 1.0, "40 merges past a cap of 31 must halve");
        assert!(gauge(&pmp, "table_lookups") >= 41.0);
        assert!(gauge(&pmp, "pattern_hits") >= 1.0);
        let rate = gauge(&pmp, "pattern_hit_rate");
        assert!(rate > 0.0 && rate <= 1.0);
        assert!(gauge(&pmp, "afe_extractions") >= 2.0, "AFE default scheme names the gauge");
    }

    #[test]
    fn introspection_names_scheme_specific_extractions() {
        for (scheme, name) in [
            (ExtractionScheme::ane_default(), "ane_extractions"),
            (ExtractionScheme::are_default(), "are_extractions"),
        ] {
            let pmp = Pmp::new(PmpConfig { scheme, ..PmpConfig::default() });
            let mut g = Vec::new();
            pmp.gauges(&mut g);
            assert!(g.iter().any(|x| x.name == name), "{name} missing: {g:?}");
        }
    }

    #[test]
    fn snapshot_round_trip_continues_bit_identically() {
        for cfg in [
            PmpConfig::default(),
            PmpConfig::pmp_limit(),
            PmpConfig { table_mode: TableMode::OptOnly, ..PmpConfig::default() },
            PmpConfig { table_mode: TableMode::PptOnly, ..PmpConfig::default() },
            PmpConfig { table_mode: TableMode::Combined, ..PmpConfig::default() },
        ] {
            let mut trained = Pmp::new(cfg.clone());
            train_regions(&mut trained, 0x400, 4, &[5, 6, 9], 12);
            let img = trained.save_state().expect("save");
            let mut restored = Pmp::new(cfg.clone());
            restored.load_state(&img).expect("load");
            // Drive both over the same follow-on accesses: behaviour and
            // introspection must match exactly.
            let mut a = Vec::new();
            let mut b = Vec::new();
            for r in 0..4u64 {
                let base = (900 + r) * 4096;
                trained.on_access(&access(0x400, base + 4 * 64, 8), &mut a);
                restored.on_access(&access(0x400, base + 4 * 64, 8), &mut b);
            }
            assert_eq!(a, b, "restored PMP must continue bit-identically ({cfg:?})");
            let mut ga = Vec::new();
            let mut gb = Vec::new();
            trained.gauges(&mut ga);
            restored.gauges(&mut gb);
            assert_eq!(format!("{ga:?}"), format!("{gb:?}"));
            // And after identical continuations the two instances
            // re-serialize byte-identically.
            assert_eq!(
                restored.save_state().expect("resave"),
                trained.save_state().expect("resave")
            );
        }
    }

    #[test]
    fn load_state_rejects_mismatches_atomically() {
        let mut trained = Pmp::new(PmpConfig::default());
        train_regions(&mut trained, 0x400, 4, &[5, 6], 12);
        let img = trained.save_state().expect("save");

        // Kind mismatch: a PMP-Limit instance refuses a plain-PMP image.
        let mut other = Pmp::new(PmpConfig::pmp_limit());
        let err = other.load_state(&img).expect_err("kind");
        assert_eq!(err.kind_tag(), "kind-mismatch");

        // Config mismatch with identical kind: wider OPT index.
        let mut wider =
            Pmp::new(PmpConfig { trigger_offset_bits: 8, ..PmpConfig::default() });
        let err = wider.load_state(&img).expect_err("config");
        assert_eq!(err.kind_tag(), "config-mismatch");

        // Corrupt section: truncate the tables payload. The target must
        // be left untouched (still predicts nothing — cold).
        let mut broken = img.clone();
        let tables = broken
            .sections
            .iter_mut()
            .find(|s| s.name == "tables")
            .expect("tables section");
        tables.bytes.truncate(tables.bytes.len() / 2);
        let mut fresh = Pmp::new(PmpConfig::default());
        let err = fresh.load_state(&broken).expect_err("corrupt");
        assert_eq!(err.kind_tag(), "corrupt");
        let mut out = Vec::new();
        fresh.on_access(&access(0x400, 999 * 4096 + 4 * 64, 8), &mut out);
        assert!(out.is_empty(), "failed restore must leave the prefetcher cold");

        // Missing section is corruption too.
        let mut missing = img.clone();
        missing.sections.retain(|s| s.name != "obs");
        let err = fresh.load_state(&missing).expect_err("missing section");
        assert_eq!(err.kind_tag(), "corrupt");
    }

    #[test]
    fn wider_trigger_offsets_grow_opt_exponentially() {
        let bits6 = Pmp::new(PmpConfig::default()).storage_bits();
        let bits8 = Pmp::new(PmpConfig { trigger_offset_bits: 8, ..PmpConfig::default() })
            .storage_bits();
        // OPT grows 4x: 2560B -> 10240B.
        assert_eq!(bits8 - bits6, (10240 - 2560) * 8);
    }
}
