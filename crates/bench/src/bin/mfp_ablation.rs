//! Regenerates the paper artifact `mfp_ablation` (see DESIGN.md §4).
//! Scale via `PMP_SCALE` (tiny/small/standard/large).
use pmp_bench::experiments::{self, base_from_env};

fn main() {
    println!("{}", experiments::ablation::mfp_ablation(&base_from_env()));
}
