//! Regenerates Fig. 10 (useful/useless prefetches). See DESIGN.md §4.
//!
//! Pass `--attrib` to append a per-origin fate deep-dive (PMP with the
//! flight recorder over every catalog trace) after the figure — the
//! useless column of Fig. 10 splits there into evicted-unused vs
//! dead-at-end vs late-useful. See ARCHITECTURE.md "Prefetch
//! attribution".
use pmp_bench::experiments::{base_from_env, headline};
use pmp_bench::{deep_dive, prefetchers::PrefetcherKind};

fn main() {
    let base = base_from_env();
    let runs = headline::HeadlineRuns::execute(&base);
    println!("{}", headline::fig10(&runs));
    if std::env::args().any(|a| a == "--attrib") {
        print!("{}", deep_dive::render_catalog(&PrefetcherKind::Pmp, base.scale, 8));
    }
}
