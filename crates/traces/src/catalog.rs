//! The 125-trace catalog (the paper's Table VI population).
//!
//! Every entry is a named, seeded archetype configuration. Names follow
//! `<suite>.<family>_<index>` (e.g. `spec06.mcf_2`), and the same spec
//! always regenerates the identical trace.

use crate::archetypes::{presets, Archetype};
use crate::trace::{Suite, Trace, TraceScale};

/// A named, reproducible trace recipe.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpec {
    /// Unique name, e.g. `"ligra.bfs_3"`.
    pub name: String,
    /// Suite membership.
    pub suite: Suite,
    /// Generator and parameters.
    pub archetype: Archetype,
    /// RNG seed.
    pub seed: u64,
}

impl TraceSpec {
    /// Materialise the trace at `scale`.
    pub fn build(&self, scale: TraceScale) -> Trace {
        Trace {
            name: self.name.clone(),
            suite: self.suite,
            ops: self.archetype.generate_scaled(self.seed, scale),
        }
    }

    /// Pre-flight validation: a spec that would generate an empty or
    /// degenerate trace (or panic inside its generator) is rejected
    /// with a diagnosis before any simulation time is spent on it.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::InvalidConfig`](pmp_types::HarnessError)
    /// naming the trace and the offending parameter.
    pub fn validate(&self) -> Result<(), pmp_types::HarnessError> {
        if self.name.is_empty() {
            return Err(pmp_types::HarnessError::invalid(
                "TraceSpec.name",
                "trace name must be non-empty",
            ));
        }
        self.archetype.validate().map_err(|e| match e {
            pmp_types::HarnessError::InvalidConfig { context, reason } => {
                pmp_types::HarnessError::invalid(
                    format!("TraceSpec({}).{context}", self.name),
                    reason,
                )
            }
            other => other,
        })
    }
}

fn spec(name: String, suite: Suite, archetype: Archetype, seed: u64) -> TraceSpec {
    TraceSpec { name, suite, archetype, seed }
}

/// The catalog trace called `name` (exact, case-sensitive match).
pub fn trace_named(name: &str) -> Option<TraceSpec> {
    catalog().into_iter().find(|s| s.name == name)
}

/// The full 125-trace catalog: 38 SPEC06-like, 36 SPEC17-like, 42
/// Ligra-like, 9 PARSEC-like (Table VI).
pub fn catalog() -> Vec<TraceSpec> {
    let mut v = Vec::with_capacity(125);

    // ---- SPEC CPU 2006-like: 38 traces ----
    // Streaming FP kernels (libquantum/lbm/milc flavours): 8
    for i in 0..8u64 {
        v.push(spec(
            format!("spec06.stream_{i}"),
            Suite::Spec06,
            presets::stream(1 + (i % 4) as usize, 8 + i * 4),
            1000 + i,
        ));
    }
    // Astar-like multi-stride: 8
    let stride_sets: [&[i64]; 8] = [
        &[1, 2, 4],
        &[1, 3],
        &[2, 5, 9],
        &[1, -1, 2],
        &[4, 6],
        &[1, 2, 3, 5],
        &[7, 11],
        &[-3, 2, 8],
    ];
    for (i, s) in stride_sets.iter().enumerate() {
        v.push(spec(
            format!("spec06.astar_{i}"),
            Suite::Spec06,
            presets::strided(s.to_vec(), 16 + i as u64 * 4),
            1100 + i as u64,
        ));
    }
    // MCF-like backward pointer walks: 8
    for i in 0..8u64 {
        v.push(spec(
            format!("spec06.mcf_{i}"),
            Suite::Spec06,
            presets::backward(24 + i * 8, 24 + (i as usize) * 8),
            1200 + i,
        ));
    }
    // Integer hash/probe workloads (gcc/omnetpp): 8
    for i in 0..8u64 {
        v.push(spec(
            format!("spec06.hash_{i}"),
            Suite::Spec06,
            presets::hash(8 + i * 4, 0.2 + (i as f64) * 0.07),
            1300 + i,
        ));
    }
    // Mixed-phase applications: 6
    for i in 0..6u64 {
        v.push(spec(
            format!("spec06.mixed_{i}"),
            Suite::Spec06,
            Archetype::Phased(vec![
                presets::stream(2, 8 + i * 2),
                presets::hash(8 + i * 2, 0.35),
                presets::strided(vec![1, 2 + i as i64], 8),
            ]),
            1400 + i,
        ));
    }

    // ---- SPEC CPU 2017-like: 36 traces ----
    for i in 0..8u64 {
        v.push(spec(
            format!("spec17.stream_{i}"),
            Suite::Spec17,
            presets::stream(2 + (i % 3) as usize, 12 + i * 4),
            2000 + i,
        ));
    }
    let stride_sets17: [&[i64]; 8] = [
        &[1, 4],
        &[2, 3, 7],
        &[1, 5, 13],
        &[-2, 4],
        &[3, 8],
        &[1, 2, 6, 10],
        &[5, -5],
        &[9, 2],
    ];
    for (i, s) in stride_sets17.iter().enumerate() {
        v.push(spec(
            format!("spec17.stride_{i}"),
            Suite::Spec17,
            presets::strided(s.to_vec(), 12 + i as u64 * 4),
            2100 + i as u64,
        ));
    }
    for i in 0..7u64 {
        v.push(spec(
            format!("spec17.mcf_{i}"),
            Suite::Spec17,
            presets::backward(32 + i * 8, 16 + (i as usize) * 12),
            2200 + i,
        ));
    }
    for i in 0..7u64 {
        v.push(spec(
            format!("spec17.hash_{i}"),
            Suite::Spec17,
            presets::hash(12 + i * 6, 0.15 + (i as f64) * 0.08),
            2300 + i,
        ));
    }
    for i in 0..6u64 {
        v.push(spec(
            format!("spec17.mixed_{i}"),
            Suite::Spec17,
            Archetype::Phased(vec![
                presets::backward(16, 32),
                presets::stream(3, 8 + i * 3),
                presets::hash(16, 0.4),
            ]),
            2400 + i,
        ));
    }

    // ---- Ligra-like graph analytics: 42 traces ----
    // Six graph algorithms × seven graph shapes.
    let algos = ["bfs", "pagerank", "components", "radii", "kcore", "bc"];
    for (ai, algo) in algos.iter().enumerate() {
        for g in 0..7u64 {
            let vertices_k = 256 + g * 192; // 256K..1.4M vertices
            let degree = 4 + (ai as u64 * 3 + g) % 12;
            v.push(spec(
                format!("ligra.{algo}_{g}"),
                Suite::Ligra,
                presets::graph(vertices_k, degree),
                3000 + ai as u64 * 10 + g,
            ));
        }
    }

    // ---- PARSEC-like kernels: 9 traces ----
    for i in 0..9u64 {
        v.push(spec(
            format!("parsec.stencil_{i}"),
            Suite::Parsec,
            presets::stencil(8 + i * 4, 1 + i % 3),
            4000 + i,
        ));
    }

    assert_eq!(v.len(), 125, "catalog must have exactly 125 traces");
    v
}

/// Catalog entries for one suite.
pub fn catalog_for(suite: Suite) -> Vec<TraceSpec> {
    catalog().into_iter().filter(|s| s.suite == suite).collect()
}

/// A small representative subset (one per family) used by parameter
/// sweeps where running all 125 traces would be wasteful.
pub fn representative_subset() -> Vec<TraceSpec> {
    let names = [
        "spec06.stream_1",
        "spec06.astar_0",
        "spec06.mcf_2",
        "spec06.hash_3",
        "spec06.mixed_0",
        "spec17.stream_4",
        "spec17.stride_2",
        "spec17.mcf_1",
        "spec17.hash_5",
        "ligra.bfs_2",
        "ligra.pagerank_4",
        "ligra.components_1",
        "ligra.kcore_3",
        "parsec.stencil_2",
        "parsec.stencil_6",
    ];
    names
        .iter()
        .map(|n| trace_named(n).unwrap_or_else(|| panic!("missing representative trace {n}")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_names_resolve_and_typos_do_not() {
        for spec in catalog() {
            assert_eq!(trace_named(&spec.name).map(|s| s.name), Some(spec.name));
        }
        for typo in ["spec06.stream", "SPEC06.stream_1", "spec06.stream_1 ", "stream_1", ""] {
            assert!(trace_named(typo).is_none(), "{typo:?}");
        }
    }

    #[test]
    fn catalog_matches_table_vi() {
        let c = catalog();
        assert_eq!(c.len(), 125);
        for suite in Suite::ALL {
            let n = c.iter().filter(|s| s.suite == suite).count();
            assert_eq!(n, suite.trace_count(), "{suite}");
        }
    }

    #[test]
    fn names_are_unique() {
        let c = catalog();
        let mut names: Vec<&str> = c.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 125);
    }

    #[test]
    fn seeds_are_unique() {
        let c = catalog();
        let mut seeds: Vec<u64> = c.iter().map(|s| s.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 125);
    }

    #[test]
    fn builds_are_reproducible() {
        let c = catalog();
        let t1 = c[17].build(TraceScale::Tiny);
        let t2 = c[17].build(TraceScale::Tiny);
        assert_eq!(t1.ops, t2.ops);
        assert_eq!(t1.mem_ops(), TraceScale::Tiny.mem_ops());
    }

    #[test]
    fn representative_subset_resolves() {
        let subset = representative_subset();
        assert_eq!(subset.len(), 15);
        // Covers all four suites.
        for suite in Suite::ALL {
            assert!(subset.iter().any(|s| s.suite == suite), "{suite} missing");
        }
    }

    #[test]
    fn whole_catalog_validates() {
        for spec in catalog() {
            spec.validate().unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        }
    }

    #[test]
    fn validation_rejects_degenerate_specs() {
        use crate::archetypes::{presets, Archetype};
        let mut spec = catalog()[0].clone();
        spec.name = String::new();
        assert!(spec.validate().is_err(), "empty name");

        let mut spec = catalog()[0].clone();
        spec.archetype = Archetype::Phased(vec![]);
        let err = spec.validate().expect_err("empty phase list");
        assert!(err.to_string().contains(&catalog()[0].name), "{err}");

        let mut spec = catalog()[0].clone();
        spec.archetype = presets::stream(0, 8);
        assert!(spec.validate().is_err(), "zero streams");

        let mut spec = catalog()[0].clone();
        spec.archetype = presets::hash(8, 1.5);
        let err = spec.validate().expect_err("hot fraction > 1");
        assert!(err.to_string().contains("1.5"), "{err}");
    }

    #[test]
    fn catalog_for_filters() {
        let ligra = catalog_for(Suite::Ligra);
        assert_eq!(ligra.len(), 42);
        assert!(ligra.iter().all(|s| s.name.starts_with("ligra.")));
    }
}
