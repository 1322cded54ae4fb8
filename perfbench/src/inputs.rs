//! Workload inputs generated from the benchmark seed.
//!
//! Every workload draws its traces from `pmp_traces::catalog()`. The
//! seed is XOR-ed into each `TraceSpec::seed` (so trace names stay the
//! catalog's while the generated ops change) and drives the 4-core mix
//! draws. The program under test only ever sees the generated traces.

use pmp_bench::prefetchers::PrefetcherKind;
use pmp_bench::runner::{CellSpec, MixCell, RunConfig};
use pmp_sim::SystemConfig;
use pmp_traces::{catalog, TraceScale, TraceSpec};

/// Number of 4-core mixes in `mix4_standard`: the seeded shuffle deals
/// the whole catalog (124 of its 125 traces), so every seed simulates
/// nearly the same traces and only their pairing changes. Fewer, freely
/// drawn mixes made the simulated IPC vary by several percent between
/// seeds.
pub const MIXES: usize = 31;

/// Cycle budget per cell, as `full_sweep` sets it: a livelocked cell
/// fails alone instead of hanging the run.
const CELL_CYCLE_BUDGET: u64 = 2_000_000_000;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The `full_sweep` grid: every catalog trace × {baseline + the
    /// paper's five} at Small scale.
    SweepSmall,
    /// PMP alone over every catalog trace at Standard scale.
    PmpStandard,
    /// Seeded 4-core mixes with PMP on every core, Standard scale.
    Mix4Standard,
}

impl Workload {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::SweepSmall,
        Workload::PmpStandard,
        Workload::Mix4Standard,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepSmall => "sweep_small",
            Workload::PmpStandard => "pmp_standard",
            Workload::Mix4Standard => "mix4_standard",
        }
    }

    /// Parse a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One workload instance: the grid `cells × kinds` under `cfg`.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Grid cells (catalog traces or 4-core mixes).
    pub cells: Vec<CellSpec>,
    /// Prefetchers run over every cell.
    pub kinds: Vec<PrefetcherKind>,
    /// Scale, system and watchdog shared by every cell.
    pub cfg: RunConfig,
    /// The most instructions one trace op carries, over every trace of
    /// the grid (0 until the traces are built). A mix core's measured
    /// window starts at the op boundary after warm-up, so it may fall
    /// short of [`Inputs::mix_window`] by less than this.
    pub max_op_instructions: u64,
}

impl Inputs {
    /// Cells the grid must produce.
    pub fn expected_cells(&self) -> usize {
        self.cells.len() * self.kinds.len()
    }

    /// Whether the grid's cells are 4-core mixes.
    pub fn is_mix(&self) -> bool {
        matches!(self.cells.first(), Some(CellSpec::Mix(_)))
    }

    /// Instructions each core of a mix must complete in its measured
    /// window (the runner's rule: ten instructions per memory op).
    pub fn mix_window(&self) -> u64 {
        self.cfg.scale.mem_ops() as u64 * 10
    }
}

/// The catalog with `seed` XOR-ed into every recipe's seed.
pub fn seeded_catalog(seed: u64) -> Vec<TraceSpec> {
    let mut specs = catalog();
    for spec in &mut specs {
        spec.seed ^= seed;
    }
    specs
}

/// SplitMix64: a tiny seeded generator for the mix draws.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// `count` 4-core mixes drawn from the seeded catalog: a seeded
/// shuffle dealt four traces at a time, so no trace repeats until the
/// catalog is used up.
pub fn draw_mixes(seed: u64, count: usize) -> Vec<MixCell> {
    let specs = seeded_catalog(seed);
    let mut rng = SplitMix(seed);
    let mut deck: Vec<usize> = Vec::new();
    (0..count)
        .map(|m| {
            let picks: [usize; 4] = std::array::from_fn(|_| {
                if deck.is_empty() {
                    deck = (0..specs.len()).collect();
                    for i in (1..deck.len()).rev() {
                        deck.swap(i, rng.below(i + 1));
                    }
                }
                deck.pop().expect("deck refilled above")
            });
            MixCell {
                name: format!("mix{m}"),
                specs: picks.map(|i| specs[i].clone()),
            }
        })
        .collect()
}

/// The grid a workload runs for `seed`.
pub fn inputs(workload: Workload, seed: u64) -> Inputs {
    let single = |scale| RunConfig {
        scale,
        max_cycles: Some(CELL_CYCLE_BUDGET),
        ..RunConfig::default()
    };
    let synthetic = || {
        seeded_catalog(seed)
            .into_iter()
            .map(CellSpec::Synthetic)
            .collect()
    };
    match workload {
        Workload::SweepSmall => {
            let mut kinds = vec![PrefetcherKind::None];
            kinds.extend(PrefetcherKind::paper_five());
            Inputs {
                cells: synthetic(),
                kinds,
                cfg: single(TraceScale::Small),
                max_op_instructions: 0,
            }
        }
        Workload::PmpStandard => Inputs {
            cells: synthetic(),
            kinds: vec![PrefetcherKind::Pmp],
            cfg: single(TraceScale::Standard),
            max_op_instructions: 0,
        },
        Workload::Mix4Standard => Inputs {
            cells: draw_mixes(seed, MIXES)
                .into_iter()
                .map(|m| CellSpec::Mix(Box::new(m)))
                .collect(),
            kinds: vec![PrefetcherKind::Pmp],
            cfg: RunConfig {
                system: SystemConfig::quad_core(),
                ..single(TraceScale::Standard)
            },
            max_op_instructions: 0,
        },
    }
}

/// The distinct trace recipes a grid materialises.
pub fn distinct_specs(cells: &[CellSpec]) -> Vec<TraceSpec> {
    let mut out: Vec<TraceSpec> = Vec::new();
    for cell in cells {
        let specs: &[TraceSpec] = match cell {
            CellSpec::Synthetic(spec) => std::slice::from_ref(spec),
            CellSpec::Mix(mix) => &mix.specs,
            CellSpec::File(_) => &[],
        };
        for spec in specs {
            if !out.contains(spec) {
                out.push(spec.clone());
            }
        }
    }
    out
}
