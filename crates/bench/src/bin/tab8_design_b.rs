//! Regenerates the paper artifact `tab8_design_b` (see DESIGN.md §4).
//! Scale via `PMP_SCALE` (tiny/small/standard/large).
use pmp_bench::experiments::{self, base_from_env};

fn main() {
    println!("{}", experiments::ablation::tab8_design_b(&base_from_env()));
}
