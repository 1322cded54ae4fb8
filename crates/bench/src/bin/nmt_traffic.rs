//! Regenerates the Section V-D NMT analysis. See DESIGN.md §4.
use pmp_bench::experiments::{base_from_env, headline};

fn main() {
    let runs = headline::HeadlineRuns::execute(&base_from_env());
    println!("{}", headline::nmt_report(&runs));
}
