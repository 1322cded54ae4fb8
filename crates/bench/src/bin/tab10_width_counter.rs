//! Regenerates the paper artifact `tab10_width_counter` (see DESIGN.md §4).
//! Scale via `PMP_SCALE` (tiny/small/standard/large).
use pmp_bench::experiments::{self, base_from_env};

fn main() {
    println!("{}", experiments::ablation::tab10_width_counter(&base_from_env()));
}
