//! Regenerates the paper artifact `fig12a_bandwidth` (see DESIGN.md §4).
//! Scale via `PMP_SCALE` (tiny/small/standard/large).
use pmp_bench::experiments::{self, base_from_env};

fn main() {
    println!("{}", experiments::sensitivity::fig12a_bandwidth(&base_from_env()));
}
