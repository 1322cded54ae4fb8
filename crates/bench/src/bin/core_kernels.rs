//! `core_kernels` — the PMP core's per-access kernels, each beside the
//! code it replaced.
//!
//! Measures, at the paper defaults (64 offsets × 5-bit counters):
//!
//! * merge / halve / extract (ANE, ARE, AFE) twice in the same run:
//!   once through the bit-parallel (SWAR) `CounterVector`, and once
//!   through a self-contained scalar reference replicating the
//!   pre-rework `Vec<u16>` element-at-a-time implementation. Their
//!   `scalar_*` fields and `speedup` report the SWAR rework's
//!   acceptance target (≥2× on the merge and extract kernels; report
//!   only, nothing enforces it), and
//!   `min_speedup` covers these kernels only.
//! * `pb_pop` (the Prefetch Buffer pop) and `capture_on_load` /
//!   `capture_on_evict` (the FT/AT capture framework) beside in-run
//!   copies of the code before the allocation-free pop and the
//!   probe-key capture tables, reported as `ref_*` fields and a
//!   `speedup` outside the SWAR gate.
//! * `arbitrate` (OPT/PPT arbitration), timed alone.
//!
//! Because both sides of a pair run on the same machine in the same
//! process, a `speedup` is machine-independent in a way the cross-run
//! BENCH baselines are not.
//!
//! Emits `results/BENCH_core.json` (read by `bench_diff`: each
//! workload carries `name` + `ops_per_sec`).
//!
//! Usage: `cargo run --release --bin core_kernels [-- OUT.json]`

use pmp_bench::microbench::{bench_function, black_box};
use pmp_bench::write_artifact;
use pmp_core::arbiter::arbitrate;
use pmp_core::buffer::PrefetchBuffer;
use pmp_core::capture::{CaptureConfig, CaptureOutcome, CapturedPattern, PatternCapture};
use pmp_core::{CounterVector, ExtractionScheme};
use pmp_prefetch::PrefetchRequest;
use pmp_types::{
    BitPattern, CacheLevel, LineAddr, Origin, Pc, PrefetchPattern, Provenance, RegionAddr,
    RegionGeometry, Rng64,
};
use pmp_types::json::Json;

const LEN: u32 = 64;
const BITS: u32 = 5;

/// The pre-SWAR counter vector, copied verbatim from the old
/// `pmp-core` implementation so the two sides run the exact same
/// algorithmic workload.
struct ScalarCv {
    counters: Vec<u16>,
    cap: u16,
}

impl ScalarCv {
    fn new(len: u32, bits: u32) -> Self {
        ScalarCv { counters: vec![0; len as usize], cap: (1u16 << bits) - 1 }
    }

    fn merge(&mut self, anchored: BitPattern) -> bool {
        for off in anchored.iter_set() {
            self.counters[usize::from(off)] += 1;
        }
        if self.counters[0] > self.cap {
            for c in &mut self.counters {
                *c /= 2;
            }
            return true;
        }
        false
    }

    fn extract(&self, scheme: &ExtractionScheme) -> PrefetchPattern {
        let len = self.counters.len() as u32;
        let mut out = PrefetchPattern::new(len);
        let time = self.counters[0];
        if time == 0 {
            return out;
        }
        let denom: u32 = self.counters[1..].iter().map(|&c| u32::from(c)).sum();
        for i in 1..len as u8 {
            let c = self.counters[usize::from(i)];
            let level = match *scheme {
                ExtractionScheme::AccessNumber { t_l1d, t_l2c } => {
                    if c >= t_l1d {
                        Some(CacheLevel::L1D)
                    } else if c >= t_l2c {
                        Some(CacheLevel::L2C)
                    } else {
                        None
                    }
                }
                ExtractionScheme::AccessRatio { t_l1d, t_l2c } => {
                    let r = if denom == 0 { 0.0 } else { f64::from(c) / f64::from(denom) };
                    if r >= t_l1d {
                        Some(CacheLevel::L1D)
                    } else if r >= t_l2c {
                        Some(CacheLevel::L2C)
                    } else {
                        None
                    }
                }
                ExtractionScheme::AccessFrequency { t_l1d, t_l2c } => {
                    let f = f64::from(c) / f64::from(time);
                    if f >= t_l1d {
                        Some(CacheLevel::L1D)
                    } else if f >= t_l2c {
                        Some(CacheLevel::L2C)
                    } else {
                        None
                    }
                }
            };
            if let Some(l) = level {
                out.set(i, l);
            }
        }
        out
    }
}

/// A mixed training workload: mostly sparse patterns (2-10 offsets)
/// with occasional dense streams — the distribution the OPT sees on
/// real traces. Bit 0 is always set (the trigger).
fn training_patterns(n: usize, seed: u64) -> Vec<BitPattern> {
    let mut rng = Rng64::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let mut bits = rng.next_u64();
            match rng.gen_range(0..8u32) {
                0 => {} // dense-ish (~32 offsets)
                1..=5 => bits &= rng.next_u64() & rng.next_u64(), // sparse (~8)
                _ => bits = u64::MAX, // full stream
            }
            BitPattern::from_bits(bits | 1, LEN)
        })
        .collect()
}

/// A trained 64×5 vector with a realistic mix of always/sometimes/never
/// offsets: a recurring ~12-offset true pattern (high counters, most
/// qualify for L1D), per-merge dropout and sparse noise (a band of
/// L2C-only and below-threshold offsets), and plenty of never-seen
/// offsets — the shape OPT entries actually take on real traces.
fn trained_pair() -> (CounterVector, ScalarCv) {
    let mut rng = Rng64::seed_from_u64(0xBEEF);
    let mut true_pattern = 1u64;
    for _ in 0..12 {
        true_pattern |= 1u64 << rng.gen_range(0..64u32);
    }
    let mut swar = CounterVector::new(LEN, BITS);
    let mut scalar = ScalarCv::new(LEN, BITS);
    for _ in 0..40 {
        let dropout = rng.next_u64() | rng.next_u64(); // keep ~3/4
        let noise = rng.next_u64() & rng.next_u64() & rng.next_u64() & rng.next_u64();
        let p = BitPattern::from_bits(((true_pattern & dropout) | noise) | 1, LEN);
        swar.merge(p);
        scalar.merge(p);
    }
    (swar, scalar)
}

/// What a kernel is timed against.
enum Reference {
    /// The pre-SWAR scalar counter vector (the `min_speedup` kernels).
    Scalar(f64),
    /// An in-run copy of the code the kernel replaced.
    PreChange(f64),
    /// Nothing: the kernel is timed alone.
    None,
}

struct Kernel {
    name: &'static str,
    ns: f64,
    reference: Reference,
}

impl Kernel {
    /// The reference's field prefix and ns/op, if there is one.
    fn reference(&self) -> Option<(&'static str, f64)> {
        match self.reference {
            Reference::Scalar(r) => Some(("scalar", r)),
            Reference::PreChange(r) => Some(("ref", r)),
            Reference::None => None,
        }
    }
}

/// merge: the OPT training op on the mixed workload.
fn bench_merge() -> Kernel {
    let patterns = training_patterns(256, 0x5EED);
    let mut swar = CounterVector::new(LEN, BITS);
    let mut i = 0usize;
    let m_swar = bench_function("core_kernels/merge_swar", |b| {
        b.iter(|| {
            let halved = swar.merge(patterns[i & 255]);
            i += 1;
            black_box(halved)
        });
    });
    let mut scalar = ScalarCv::new(LEN, BITS);
    let mut i = 0usize;
    let m_scalar = bench_function("core_kernels/merge_scalar", |b| {
        b.iter(|| {
            let halved = scalar.merge(patterns[i & 255]);
            i += 1;
            black_box(halved)
        });
    });
    Kernel {
        name: "merge",
        ns: m_swar.ns_per_iter,
        reference: Reference::Scalar(m_scalar.ns_per_iter),
    }
}

/// halve: dense stream merges at saturation — every 16th merge ages the
/// whole vector, so this is the halving-dominated steady state.
fn bench_halve() -> Kernel {
    let stream = BitPattern::from_bits(u64::MAX, LEN);
    let mut swar = CounterVector::new(LEN, BITS);
    let m_swar = bench_function("core_kernels/halve_swar", |b| {
        b.iter(|| black_box(swar.merge(stream)));
    });
    let mut scalar = ScalarCv::new(LEN, BITS);
    let m_scalar = bench_function("core_kernels/halve_scalar", |b| {
        b.iter(|| black_box(scalar.merge(stream)));
    });
    Kernel {
        name: "halve",
        ns: m_swar.ns_per_iter,
        reference: Reference::Scalar(m_scalar.ns_per_iter),
    }
}

/// One extraction kernel under `scheme` on the trained vector.
fn bench_extract(name: &'static str, scheme: ExtractionScheme) -> Kernel {
    let (swar, scalar) = trained_pair();
    let check = scheme.extract(&swar);
    assert_eq!(check, scalar.extract(&scheme), "SWAR and scalar must agree before timing");
    let m_swar = bench_function("core_kernels/extract_swar", |b| {
        b.iter(|| black_box(scheme.extract(black_box(&swar))));
    });
    let m_scalar = bench_function("core_kernels/extract_scalar", |b| {
        b.iter(|| black_box(scalar.extract(black_box(&scheme))));
    });
    Kernel { name, ns: m_swar.ns_per_iter, reference: Reference::Scalar(m_scalar.ns_per_iter) }
}

/// The Prefetch Buffer before the allocation-free pop, reduced to what
/// the pop touches: it assembles every target of the entry, sorts them
/// by `(distance, offset)` and walks the sorted list, then tags each
/// request with the entry's provenance from a second lookup.
struct RefBuffer {
    entries: Vec<RefPbEntry>,
    clock: u64,
    geom: RegionGeometry,
}

#[derive(Clone)]
struct RefPbEntry {
    region: RegionAddr,
    trigger_offset: u8,
    pattern: PrefetchPattern,
    low_level_issued: usize,
    lru: u64,
    valid: bool,
    origin: Origin,
}

impl RefBuffer {
    fn new(capacity: usize, geom: RegionGeometry) -> Self {
        let entry = RefPbEntry {
            region: RegionAddr(0),
            trigger_offset: 0,
            pattern: PrefetchPattern::new(geom.lines_per_region()),
            low_level_issued: 0,
            lru: 0,
            valid: false,
            origin: Origin::None,
        };
        RefBuffer { entries: vec![entry; capacity], clock: 0, geom }
    }

    fn insert(&mut self, region: RegionAddr, trigger_offset: u8, pattern: PrefetchPattern) {
        self.clock += 1;
        let slot = if let Some(i) = self.entries.iter().position(|e| e.valid && e.region == region)
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
        self.entries[slot] = RefPbEntry {
            region,
            trigger_offset,
            pattern,
            low_level_issued: 0,
            lru: self.clock,
            valid: true,
            origin: Origin::None,
        };
    }

    fn origin_of(&self, region: RegionAddr) -> Origin {
        self.entries
            .iter()
            .find(|e| e.valid && e.region == region)
            .map_or(Origin::None, |e| e.origin)
    }

    fn pop_targets(
        &mut self,
        region: RegionAddr,
        near: u8,
        budget: usize,
        low_level_limit: Option<usize>,
    ) -> Vec<(u8, CacheLevel)> {
        self.clock += 1;
        let clock = self.clock;
        let len = self.geom.lines_per_region() as u16;
        let Some(entry) = self.entries.iter_mut().find(|e| e.valid && e.region == region) else {
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
            let anch =
                ((i16::from(abs) - i16::from(entry.trigger_offset)).rem_euclid(len as i16)) as u8;
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
            out.push((abs, level));
        }
        if entry.pattern.is_empty() {
            entry.valid = false;
        }
        out
    }

    /// The pre-change issue step of `Pmp::on_access`.
    fn pop_into(
        &mut self,
        region: RegionAddr,
        near: u8,
        budget: usize,
        out: &mut Vec<PrefetchRequest>,
    ) {
        let origin = self.origin_of(region);
        let targets = self.pop_targets(region, near, budget, None);
        for (i, (abs, level)) in targets.into_iter().enumerate() {
            out.push(PrefetchRequest::with_provenance(
                self.geom.line_of(region, abs),
                level,
                Provenance::at(origin, i),
            ));
        }
    }
}

/// One Prefetch Buffer step: park a pattern for a region when it has
/// none pending, then pop with the access's free-PQ budget.
struct PopCase {
    region: RegionAddr,
    trigger: u8,
    pattern: PrefetchPattern,
    near: u8,
    budget: usize,
}

/// Patterns shaped like PMP's extraction output (about eight L1D and
/// eight L2C targets) over eight regions, popped with budgets of 1–8
/// from offsets near the trigger, as a region is walked.
fn pop_cases() -> Vec<PopCase> {
    let mut rng = Rng64::seed_from_u64(0x90B);
    (0..256)
        .map(|_| {
            let l1d = rng.next_u64() & rng.next_u64() & rng.next_u64() & !1;
            let l2c = rng.next_u64() & rng.next_u64() & rng.next_u64() & !1;
            let trigger = rng.gen_range(0..64u32) as u8;
            PopCase {
                region: RegionAddr(rng.gen_range(0..8u64)),
                trigger,
                pattern: PrefetchPattern::from_level_masks(64, l1d, l2c),
                near: (trigger + rng.gen_range(0..6u32) as u8) % 64,
                budget: rng.gen_range(1..=8usize),
            }
        })
        .collect()
}

/// pb_pop: the Prefetch Buffer issue step, allocation-free walk vs the
/// sort-based pop.
fn bench_pb_pop() -> Kernel {
    let cases = pop_cases();
    let geom = RegionGeometry::new(64);
    let mut new = PrefetchBuffer::new(16, 64);
    let mut old = RefBuffer::new(16, geom);
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for c in &cases {
        if !new.contains(c.region) {
            new.insert(c.region, c.trigger, c.pattern.clone());
            old.insert(c.region, c.trigger, c.pattern.clone());
        }
        new.pop_into(c.region, c.near, c.budget, None, &mut a);
        old.pop_into(c.region, c.near, c.budget, &mut b);
    }
    assert_eq!(a, b, "the pop and its reference must agree before timing");
    let mut out = Vec::with_capacity(16);
    let mut i = 0usize;
    let m_new = bench_function("core_kernels/pb_pop", |bn| {
        bn.iter(|| {
            let c = &cases[i & 255];
            i += 1;
            if !new.contains(c.region) {
                new.insert(c.region, c.trigger, c.pattern.clone());
            }
            out.clear();
            new.pop_into(c.region, c.near, c.budget, None, &mut out);
            black_box(out.len())
        });
    });
    let mut i = 0usize;
    let m_old = bench_function("core_kernels/pb_pop_ref", |bn| {
        bn.iter(|| {
            let c = &cases[i & 255];
            i += 1;
            if !old.entries.iter().any(|e| e.valid && e.region == c.region) {
                old.insert(c.region, c.trigger, c.pattern.clone());
            }
            out.clear();
            old.pop_into(c.region, c.near, c.budget, &mut out);
            black_box(out.len())
        });
    });
    Kernel {
        name: "pb_pop",
        ns: m_new.ns_per_iter,
        reference: Reference::PreChange(m_old.ns_per_iter),
    }
}

/// The capture engine before the probe-key layout: per-set `Vec`s of
/// entries, scanned for a valid way with a matching region.
struct RefCapture {
    cfg: CaptureConfig,
    ft: Vec<Vec<RefFtEntry>>,
    at: Vec<Vec<RefAtEntry>>,
    clock: u64,
}

#[derive(Clone, Copy)]
struct RefFtEntry {
    region: RegionAddr,
    pc: Pc,
    offset: u8,
    lru: u64,
    valid: bool,
}

#[derive(Clone, Copy)]
struct RefAtEntry {
    region: RegionAddr,
    pc: Pc,
    offset: u8,
    pattern: BitPattern,
    lru: u64,
    valid: bool,
}

impl RefCapture {
    fn new(cfg: CaptureConfig) -> Self {
        let len = cfg.geometry.lines_per_region();
        let ft =
            RefFtEntry { region: RegionAddr(0), pc: Pc(0), offset: 0, lru: 0, valid: false };
        let at = RefAtEntry {
            region: RegionAddr(0),
            pc: Pc(0),
            offset: 0,
            pattern: BitPattern::new(len),
            lru: 0,
            valid: false,
        };
        RefCapture {
            ft: vec![vec![ft; cfg.ft_ways]; cfg.ft_sets],
            at: vec![vec![at; cfg.at_ways]; cfg.at_sets],
            cfg,
            clock: 0,
        }
    }

    fn on_load(&mut self, pc: Pc, line: LineAddr) -> CaptureOutcome {
        self.clock += 1;
        let clock = self.clock;
        let geom = self.cfg.geometry;
        let region = geom.region_of_line(line);
        let offset = geom.offset_of_line(line);
        let at_set = (region.0 as usize) % self.cfg.at_sets;
        if let Some(e) = self.at[at_set].iter_mut().find(|e| e.valid && e.region == region) {
            e.pattern.set(offset);
            e.lru = clock;
            return CaptureOutcome::default();
        }
        let ft_set = (region.0 as usize) % self.cfg.ft_sets;
        if let Some(fi) = self.ft[ft_set].iter().position(|e| e.valid && e.region == region) {
            let fe = self.ft[ft_set][fi];
            if fe.offset == offset {
                self.ft[ft_set][fi].lru = clock;
                return CaptureOutcome::default();
            }
            self.ft[ft_set][fi].valid = false;
            let mut pattern = BitPattern::new(geom.lines_per_region());
            pattern.set(fe.offset);
            pattern.set(offset);
            let entry = RefAtEntry {
                region,
                pc: fe.pc,
                offset: fe.offset,
                pattern,
                lru: clock,
                valid: true,
            };
            let flushed = if let Some(e) = self.at[at_set].iter_mut().find(|e| !e.valid) {
                *e = entry;
                None
            } else {
                let victim =
                    self.at[at_set].iter_mut().min_by_key(|e| e.lru).expect("non-empty AT set");
                let flushed = victim.captured();
                *victim = entry;
                Some(flushed)
            };
            return CaptureOutcome { trigger: None, flushed };
        }
        let victim = self.ft[ft_set]
            .iter_mut()
            .min_by_key(|e| if e.valid { e.lru } else { 0 })
            .expect("non-empty FT set");
        *victim = RefFtEntry { region, pc, offset, lru: clock, valid: true };
        CaptureOutcome {
            trigger: Some(pmp_core::TriggerEvent { region, offset, pc }),
            flushed: None,
        }
    }

    fn on_evict(&mut self, line: LineAddr) -> Option<CapturedPattern> {
        let region = self.cfg.geometry.region_of_line(line);
        let at_set = (region.0 as usize) % self.cfg.at_sets;
        if let Some(e) = self.at[at_set].iter_mut().find(|e| e.valid && e.region == region) {
            e.valid = false;
            return Some(e.captured());
        }
        let ft_set = (region.0 as usize) % self.cfg.ft_sets;
        if let Some(e) = self.ft[ft_set].iter_mut().find(|e| e.valid && e.region == region) {
            e.valid = false;
        }
        None
    }
}

impl RefAtEntry {
    fn captured(&self) -> CapturedPattern {
        CapturedPattern {
            region: self.region,
            trigger_offset: self.offset,
            trigger_pc: self.pc,
            pattern: self.pattern,
        }
    }
}

/// A region-walking load stream: a few dozen live regions, each opened
/// by a trigger and then touched at several offsets, so loads hit the
/// AT, promote out of the FT and open new regions in a realistic mix.
fn capture_stream() -> Vec<(Pc, LineAddr)> {
    let mut rng = Rng64::seed_from_u64(0xCA97);
    let mut base = 0u64;
    (0..4096)
        .map(|i| {
            if i % 64 == 0 {
                base += 16; // drift the working set
            }
            let region = base + rng.gen_range(0..40u64);
            let pc = Pc(0x400 + rng.gen_range(0..13u64) * 4);
            (pc, LineAddr(region * 64 + rng.gen_range(0..64u64)))
        })
        .collect()
}

/// capture_on_load / capture_on_evict: the FT/AT pipeline, probe-key
/// layout vs the per-set entry scan.
fn bench_capture() -> [Kernel; 2] {
    let stream = capture_stream();
    let cfg = CaptureConfig::default();
    let mut new = PatternCapture::new(cfg.clone());
    let mut old = RefCapture::new(cfg.clone());
    for &(pc, line) in &stream {
        let (a, b) = (new.on_load(pc, line), old.on_load(pc, line));
        assert!(
            a.trigger == b.trigger && a.flushed == b.flushed,
            "capture and reference must agree"
        );
        assert_eq!(new.on_evict(LineAddr(line.0 ^ 0x40)), old.on_evict(LineAddr(line.0 ^ 0x40)));
    }
    let n = stream.len();
    let mut i = 0usize;
    let load_new = bench_function("core_kernels/capture_on_load", |b| {
        b.iter(|| {
            let (pc, line) = stream[i % n];
            i += 1;
            black_box(new.on_load(pc, line))
        });
    });
    let mut i = 0usize;
    let load_old = bench_function("core_kernels/capture_on_load_ref", |b| {
        b.iter(|| {
            let (pc, line) = stream[i % n];
            i += 1;
            black_box(old.on_load(pc, line))
        });
    });
    // Evictions against a table filled by the first 512 loads.
    let mut new = PatternCapture::new(cfg.clone());
    let mut old = RefCapture::new(cfg);
    for &(pc, line) in &stream[..512] {
        new.on_load(pc, line);
        old.on_load(pc, line);
    }
    let mut i = 0usize;
    let evict_new = bench_function("core_kernels/capture_on_evict", |b| {
        b.iter(|| {
            let line = stream[i % 512].1;
            i += 1;
            black_box(new.on_evict(line))
        });
    });
    let mut i = 0usize;
    let evict_old = bench_function("core_kernels/capture_on_evict_ref", |b| {
        b.iter(|| {
            let line = stream[i % 512].1;
            i += 1;
            black_box(old.on_evict(line))
        });
    });
    [
        Kernel {
            name: "capture_on_load",
            ns: load_new.ns_per_iter,
            reference: Reference::PreChange(load_old.ns_per_iter),
        },
        Kernel {
            name: "capture_on_evict",
            ns: evict_new.ns_per_iter,
            reference: Reference::PreChange(evict_old.ns_per_iter),
        },
    ]
}

/// arbitrate: OPT/PPT arbitration at monitoring range 2 (timed alone).
fn bench_arbitrate() -> Kernel {
    let mut cv = CounterVector::new(LEN, BITS);
    let mut coarse = CounterVector::new(LEN / 2, BITS);
    for i in 0..31u64 {
        let p = BitPattern::from_bits(1 | (0xff << (i % 48)), LEN);
        cv.merge(p);
        coarse.merge(p.coarsen(2));
    }
    let scheme = ExtractionScheme::default();
    let opt = scheme.extract(&cv);
    let ppt = scheme.extract_coarse(&coarse);
    let m = bench_function("core_kernels/arbitrate", |b| {
        b.iter(|| black_box(arbitrate(black_box(&opt), black_box(&ppt), 2)));
    });
    Kernel { name: "arbitrate", ns: m.ns_per_iter, reference: Reference::None }
}

/// Serialize the measurements as the `BENCH_core.json` document.
fn to_json(kernels: &[Kernel]) -> String {
    let mut min_speedup = f64::INFINITY;
    let rows = kernels.iter().map(|k| {
        let row = Json::object()
            .with("name", k.name)
            .with("ns_per_op", Json::fixed(k.ns, 2))
            .with("ops_per_sec", Json::fixed(1e9 / k.ns, 0));
        let Some((prefix, ref_ns)) = k.reference() else { return row };
        let speedup = ref_ns / k.ns;
        if prefix == "scalar" {
            min_speedup = min_speedup.min(speedup);
        }
        row.with(&format!("{prefix}_ns_per_op"), Json::fixed(ref_ns, 2))
            .with(&format!("{prefix}_ops_per_sec"), Json::fixed(1e9 / ref_ns, 0))
            .with("speedup", Json::fixed(speedup, 3))
    });
    let workloads = Json::Arr(rows.collect());
    Json::object()
        .with("bench", "core_kernels")
        .with("unit", "ops_per_sec")
        .with("geometry", "64x5bit")
        .with("workloads", workloads)
        .with("min_speedup", Json::fixed(min_speedup, 3))
        .pretty()
}

fn main() {
    let out_path =
        std::env::args().nth(1).unwrap_or_else(|| "results/BENCH_core.json".to_string());
    let [capture_load, capture_evict] = bench_capture();
    let kernels = [
        bench_merge(),
        bench_halve(),
        bench_extract("extract_ane", ExtractionScheme::ane_default()),
        bench_extract("extract_are", ExtractionScheme::are_default()),
        bench_extract("extract_afe", ExtractionScheme::default()),
        bench_pb_pop(),
        capture_load,
        capture_evict,
        bench_arbitrate(),
    ];
    for k in &kernels {
        let vs = k.reference().map_or(String::new(), |(prefix, r)| {
            format!("  {prefix:<6} {r:>7.2} ns/op  speedup {:>5.2}x", r / k.ns)
        });
        println!("{:<16} new {:>7.2} ns/op{vs}", k.name, k.ns);
    }
    write_artifact(out_path.as_ref(), &to_json(&kernels)).expect("write BENCH_core.json");
    println!("wrote {out_path}");
}
