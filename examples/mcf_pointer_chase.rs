//! The paper's motivating example in miniature: an MCF-style backward
//! pointer chase over a big array, where the *trigger offset* — not the
//! PC or the address — is the feature that clusters similar patterns.
//!
//! The example renders the Fig. 5a-style heat map, measures ICDD per
//! feature (Observation 3), and shows PMP exploiting the structure.
//!
//! ```sh
//! cargo run --release --example mcf_pointer_chase
//! ```

use pmp_analysis::{capture_patterns, features::Feature, heatmap::HeatMap, icdd::average_icdd};
use pmp_bench::prefetchers::PrefetcherKind;
use pmp_bench::runner::{run_cell, CellSpec, RunConfig};
use pmp_traces::{catalog, TraceScale};
use pmp_types::RegionGeometry;

fn main() {
    let spec = catalog()
        .into_iter()
        .find(|s| s.name == "spec06.mcf_2")
        .expect("catalog trace");
    let trace = spec.build(TraceScale::Small);
    let patterns = capture_patterns(&trace);
    println!("captured {} patterns from {}", patterns.len(), trace.name);

    // Observation 3: compare clustering quality across features.
    println!("\naverage ICDD by indexing feature (lower = more similar clusters):");
    for f in Feature::ALL {
        println!("  {:18} {:.2}", f.name(), average_icdd(&patterns, f));
    }

    // Fig. 5a: heat map under trigger-offset indexing. The backward
    // walk shows up as a band below the diagonal; restarts near region
    // ends put mass in the high-offset rows.
    let geom = RegionGeometry::default();
    let hm = HeatMap::new(&patterns, Feature::TriggerOffset, geom);
    println!(
        "\nFig. 5a-style heat map (trigger offset indexing, diagonal band mass {:.0}%):",
        hm.diagonal_band_mass(3) * 100.0
    );
    println!("{}", hm.render());

    // And the punchline: PMP turns that structure into speedup.
    let cfg = RunConfig { scale: TraceScale::Small, ..RunConfig::default() };
    let cell = CellSpec::Synthetic(spec);
    let base = run_cell(&cell, &PrefetcherKind::None, &cfg).expect("baseline cell");
    let pmp = run_cell(&cell, &PrefetcherKind::Pmp, &cfg).expect("PMP cell");
    println!(
        "baseline IPC {:.3} -> PMP IPC {:.3} ({:.2}x)",
        base.result.ipc(),
        pmp.result.ipc(),
        pmp.result.ipc() / base.result.ipc()
    );
}
