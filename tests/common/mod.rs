//! Shared by the prefetch-accounting tests (`prefetch_conservation.rs`,
//! `fate_attribution.rs`): the randomized trace, the tiny-queue memory
//! system, and the prefetchers both sweep — every registry kind plus
//! [`RandomLines`], a stream no real prefetcher produces.

use pmp_bench::prefetchers::PrefetcherKind;
use pmp_prefetch::{AccessInfo, Introspect, Prefetcher, PrefetchRequest};
use pmp_sim::SystemConfig;
use pmp_types::{Addr, CacheLevel, LineAddr, MemAccess, Pc, Rng64, TraceOp};

/// Randomized trace mixing strided streams, region-local pointer
/// chases, and stores — enough structure that every prefetcher both
/// trains and misfires.
pub fn random_trace(rng: &mut Rng64, n: usize) -> Vec<TraceOp> {
    let mut ops = Vec::with_capacity(n);
    let mut base = 0x40_0000u64;
    let mut stride = 64u64;
    for _ in 0..n {
        match rng.gen_range(0..10u32) {
            0 => {
                // Jump to a fresh region and pick a new stride.
                base = 0x40_0000 + rng.gen_range(0..512u64) * 4096;
                stride = [64u64, 128, 192, 320][rng.gen_range(0..4u32) as usize];
            }
            1..=2 => {
                // Random access within the current region's page.
                let addr = base + rng.gen_range(0..64u64) * 64;
                ops.push(TraceOp::new(MemAccess::load(Pc(0x500), Addr(addr)), 1, false));
            }
            3 => {
                // Store to the current position.
                ops.push(TraceOp::new(MemAccess::store(Pc(0x504), Addr(base)), 1, false));
            }
            _ => {
                // Strided stream step (the common case).
                base = base.wrapping_add(stride);
                let dep = rng.gen_range(0..4u32) == 0;
                ops.push(TraceOp::new(MemAccess::load(Pc(0x508), Addr(base)), 2, dep));
            }
        }
    }
    ops
}

/// A memory system with 2-entry prefetch queues and 3–4-entry MSHR
/// files, so the PQ-full and MSHR-full drop paths fire constantly.
pub fn tiny_queues() -> SystemConfig {
    let mut cfg = SystemConfig::single_core();
    cfg.l1d.mshrs = 3;
    cfg.l1d.pq_entries = 2;
    cfg.l2c.mshrs = 3;
    cfg.l2c.pq_entries = 2;
    cfg.llc.mshrs = 4;
    cfg.llc.pq_entries = 2;
    cfg
}

/// Test-only prefetcher: up to five seeded random requests per access,
/// each at a random fill level. A target is a line just past the
/// trigger, a line anywhere in a 2^32-line space, the trigger line
/// itself, or a repeat of the previous target.
struct RandomLines {
    rng: Rng64,
    last: LineAddr,
}

impl RandomLines {
    fn new() -> Self {
        RandomLines { rng: Rng64::seed_from_u64(0x0DD_11E5), last: LineAddr(0) }
    }
}

impl Introspect for RandomLines {}

impl Prefetcher for RandomLines {
    fn name(&self) -> &'static str {
        "random-lines"
    }

    fn on_access(&mut self, info: &AccessInfo, out: &mut Vec<PrefetchRequest>) {
        let trigger = info.access.addr.line();
        for _ in 0..self.rng.gen_range(0..6u32) {
            let line = match self.rng.gen_range(0..4u32) {
                0 => LineAddr(trigger.0 + self.rng.gen_range(1..8u64)),
                1 => LineAddr(self.rng.gen_range(0..1u64 << 32)),
                2 => trigger,
                _ => self.last,
            };
            let level = CacheLevel::ALL[self.rng.gen_range(0..3usize)];
            out.push(PrefetchRequest::new(line, level));
            self.last = line;
        }
    }

    fn storage_bits(&self) -> u64 {
        0
    }
}

/// A prefetcher the accounting tests run: a registry kind, or
/// [`RandomLines`].
pub enum Subject {
    /// A kind from the experiment registry.
    Kind(PrefetcherKind),
    /// The random-line stream (same seed on every build).
    RandomLines,
}

impl Subject {
    /// A fresh instance; two builds of one subject behave identically.
    pub fn build(&self) -> Box<dyn Prefetcher> {
        match self {
            Subject::Kind(kind) => kind.build(),
            Subject::RandomLines => Box::new(RandomLines::new()),
        }
    }

    /// Name for assertion messages.
    pub fn label(&self) -> String {
        match self {
            Subject::Kind(kind) => kind.label(),
            Subject::RandomLines => "random-lines".into(),
        }
    }
}

/// Every kind the registry names by label, Design B (which takes a
/// parameter), and the random-line stream.
pub fn all_subjects() -> Vec<Subject> {
    PrefetcherKind::LABELLED
        .into_iter()
        .chain([PrefetcherKind::DesignB(8)])
        .map(Subject::Kind)
        .chain([Subject::RandomLines])
        .collect()
}

/// The subjects the tiny-queue tests drive into both drop paths.
pub fn tiny_queue_subjects() -> [Subject; 3] {
    [
        Subject::Kind(PrefetcherKind::NextLine),
        Subject::RandomLines,
        Subject::Kind(PrefetcherKind::Pmp),
    ]
}
