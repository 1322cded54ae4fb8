//! Regenerates the paper artifact `tab9_pattern_len` (see DESIGN.md §4).
//! Scale via `PMP_SCALE` (tiny/small/standard/large).
use pmp_bench::experiments::{self, base_from_env};

fn main() {
    println!("{}", experiments::ablation::tab9_pattern_len(&base_from_env()));
}
