//! Regenerates Fig. 9 (coverage & accuracy). See DESIGN.md §4.
//!
//! Pass `--attrib` to append a per-origin fate deep-dive (PMP with the
//! flight recorder over every catalog trace) after the figure — see
//! ARCHITECTURE.md "Prefetch attribution".
use pmp_bench::experiments::{headline, scale_from_env};
use pmp_bench::{deep_dive, prefetchers::PrefetcherKind};

fn main() {
    let scale = scale_from_env();
    let runs = headline::HeadlineRuns::execute(scale);
    println!("{}", headline::fig9(&runs));
    if std::env::args().any(|a| a == "--attrib") {
        print!("{}", deep_dive::render_catalog(&PrefetcherKind::Pmp, scale, 8));
    }
}
