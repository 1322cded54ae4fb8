//! Regenerates Fig. 8 (single-core NIPC). See DESIGN.md §4.
use pmp_bench::experiments::{base_from_env, headline};

fn main() {
    let runs = headline::HeadlineRuns::execute(&base_from_env());
    println!("{}", headline::fig8(&runs));
}
