//! Regenerates the paper artifact `fig13_multicore` (see DESIGN.md §4).
//! Scale via `PMP_SCALE` (tiny/small/standard/large).
use pmp_bench::experiments::{self, base_from_env};

fn main() {
    println!("{}", experiments::multicore::fig13(&base_from_env()));
}
