//! Regenerates the paper artifact `tab11_monitor_range` (see DESIGN.md §4).
//! Scale via `PMP_SCALE` (tiny/small/standard/large).
use pmp_bench::experiments::{self, base_from_env};

fn main() {
    println!("{}", experiments::ablation::tab11_monitor_range(&base_from_env()));
}
