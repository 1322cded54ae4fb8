//! Regenerates the Section V-B placement aside (DESIGN.md §4).
use pmp_bench::experiments::{ablation, base_from_env};

fn main() {
    println!("{}", ablation::placement(&base_from_env()));
}
