//! Explore PMP's design space with custom configurations: extraction
//! scheme, thresholds, pattern length, and table organisation — the
//! knobs behind the paper's Section V-E and Tables IX-XI.
//!
//! ```sh
//! cargo run --release --example design_space
//! ```

use pmp_bench::prefetchers::PrefetcherKind;
use pmp_bench::runner::{normalized_ipcs, run_specs_grid, RunConfig};
use pmp_core::{ExtractionScheme, PmpConfig};
use pmp_traces::{representative_subset, TraceScale};

fn nipc_of(cfg_pmp: PmpConfig, specs: &[pmp_traces::TraceSpec], cfg: &RunConfig) -> f64 {
    let kinds = [PrefetcherKind::None, PrefetcherKind::PmpCustom(Box::new(cfg_pmp))];
    let grid = run_specs_grid(specs, &kinds, cfg);
    normalized_ipcs(&grid[0], &grid[1]).1
}

fn main() {
    let specs = representative_subset();
    let cfg = RunConfig { scale: TraceScale::Small, ..RunConfig::default() };

    println!("PMP design space (geomean NIPC over {} traces)\n", specs.len());

    // 1. The default (Table II).
    let default = nipc_of(PmpConfig::default(), &specs, &cfg);
    println!("default (AFE 50%/15%, 64-line patterns, dual tables): {default:.3}");

    // 2. Threshold sensitivity: a laxer L1D threshold pulls more
    //    targets into L1, trading accuracy for coverage.
    for (t1, t2) in [(0.7, 0.3), (0.5, 0.15), (0.3, 0.1)] {
        let c = PmpConfig {
            scheme: ExtractionScheme::AccessFrequency { t_l1d: t1, t_l2c: t2 },
            ..PmpConfig::default()
        };
        println!("AFE thresholds {:>3.0}%/{:>3.0}%: {:.3}", t1 * 100.0, t2 * 100.0, nipc_of(c, &specs, &cfg));
    }

    // 3. Smaller regions (Table IX).
    for len in [64u32, 32, 16] {
        let c = PmpConfig::with_pattern_length(len);
        println!("pattern length {len:>2}: {:.3}", nipc_of(c, &specs, &cfg));
    }

    // 4. Bigger prefetch buffer: cheap, mild gains on region-rich codes.
    for pb in [8usize, 16, 32] {
        let c = PmpConfig { pb_entries: pb, ..PmpConfig::default() };
        println!("prefetch buffer {pb:>2} entries: {:.3}", nipc_of(c, &specs, &cfg));
    }
}
