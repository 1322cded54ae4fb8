//! Regenerates the paper artifact `ext_schemes` (see DESIGN.md §4).
//! Scale via `PMP_SCALE` (tiny/small/standard/large).
use pmp_bench::experiments::{self, base_from_env};

fn main() {
    println!("{}", experiments::ablation::ext_schemes(&base_from_env()));
}
