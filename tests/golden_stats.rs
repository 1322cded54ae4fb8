//! Golden simulation statistics.
//!
//! Pins the exact `SimStats` counters for fixed (trace, prefetcher,
//! config) triples, so any future hot-path rework that claims to be
//! semantics-preserving is checked bit-for-bit — this is the guard the
//! allocation-free memory-walk PR was verified against (its stats were
//! diffed as identical to the pre-rework simulator over the full
//! small-scale grid before these values were frozen; the only
//! intentional divergence is the outer-level MSHR admission fix, which
//! shifts a handful of PMP prefetches from admitted to dropped).
//!
//! If a PR changes these numbers *intentionally* (a modeling or
//! accounting fix), regenerate the table with:
//!
//! ```text
//! GOLDEN_PRINT=1 cargo test --release --test golden_stats -- --nocapture
//! ```
//!
//! and say why in the PR description. A silent diff here is a bug.

use pmp_bench::journal;
use pmp_bench::prefetchers::PrefetcherKind;
use pmp_bench::runner::{run_cell, run_grid, CellSpec, RunConfig};
use pmp_sim::SimStats;
use pmp_traces::{catalog, TraceScale};

/// Every counter in `SimStats`, flattened in a fixed order (levels
/// inner→outer, then the scalar counters). Field renames or additions
/// will fail to compile here — update the goldens alongside.
fn flatten(s: &SimStats) -> Vec<u64> {
    let mut out = Vec::with_capacity(9 * 3 + 8);
    for l in &s.levels {
        out.extend_from_slice(&[
            l.load_accesses,
            l.load_misses,
            l.store_accesses,
            l.store_misses,
            l.pf_fills,
            l.pf_useful,
            l.pf_useless,
            l.pf_late,
            l.writebacks,
        ]);
    }
    out.extend_from_slice(&[
        s.instructions,
        s.cycles,
        s.pf_issued,
        s.pf_admitted,
        s.pf_dropped,
        s.pf_redundant,
        s.dram_requests,
        s.dram_writes,
    ]);
    out
}

/// FNV-1a over the flattened counters: one u64 fingerprint per triple.
fn fingerprint(s: &SimStats) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for v in flatten(s) {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

const KINDS: [PrefetcherKind; 4] = [
    PrefetcherKind::None,
    PrefetcherKind::NextLine,
    PrefetcherKind::DsPatch,
    PrefetcherKind::Pmp,
];

/// Traces covered: the first six catalog entries (one per archetype
/// family at the head of the catalog) at small scale — large enough
/// that PMP and DSPatch actually train and issue prefetches, so their
/// fingerprints differ from the no-prefetch baseline.
const TRACES: usize = 6;

/// Frozen fingerprints, `[trace][kind]` in catalog / `KINDS` order.
const GOLDEN: [[u64; 4]; TRACES] = [
    [0x7ff99231ba76e4db, 0x377d28fc1ff1ca3b, 0xbd93209a7caf1b0a, 0x0f53ac31891d05b4],
    [0x2534b9965926564c, 0x65d64c0ab75b9d7e, 0xb34f46ac952ef4d3, 0x64ad5a24ba1ec4bc],
    [0xbf1a09adda9b41bf, 0x0e979a1bc31bb3dc, 0xd81291654203f8a9, 0x619ebf6ed4734481],
    [0x9e3ba72b3e24bfdd, 0xbbdd26bbef53b43d, 0x15f95692810589a2, 0x2dbad50eb21dce59],
    [0xe97c2cb2879f04d5, 0x7833770efbc1f45a, 0x608de940b7be684d, 0x11e206b5ac9562ad],
    [0xd136c6aa90b335a5, 0xa135a3efc75affab, 0x29404b5c3f65144a, 0xf277a23bff95135f],
];

#[test]
fn golden_stats_fixed_triples() {
    let cfg = RunConfig { scale: TraceScale::Small, ..RunConfig::default() };
    let print = std::env::var_os("GOLDEN_PRINT").is_some();
    let mut table = String::new();
    let mut failures = Vec::new();
    for (ti, spec) in catalog().iter().take(TRACES).enumerate() {
        table.push_str("    [");
        for (ki, kind) in KINDS.iter().enumerate() {
            let out =
                run_cell(&CellSpec::Synthetic(spec.clone()), kind, &cfg).expect("healthy cell");
            let fp = fingerprint(&out.result.stats);
            table.push_str(&format!("{fp:#018x}, "));
            if !print && fp != GOLDEN[ti][ki] {
                failures.push(format!(
                    "{}/{}: fingerprint {fp:#018x} != golden {:#018x}",
                    out.trace,
                    out.prefetcher,
                    GOLDEN[ti][ki]
                ));
            }
        }
        table.truncate(table.len() - 2);
        table.push_str("],\n");
    }
    if print {
        println!("const GOLDEN: [[u64; 4]; TRACES] = [\n{table}];");
        return;
    }
    assert!(
        failures.is_empty(),
        "SimStats diverged from golden values — if intentional, regenerate with \
         GOLDEN_PRINT=1 and explain the semantic change:\n{}",
        failures.join("\n")
    );
}

/// The work-stealing scheduler path must reproduce the same frozen
/// fingerprints: `run_grid` returns kind-major order, so grid index `i`
/// maps to `GOLDEN[i % TRACES][i / TRACES]`. This is the end-to-end
/// guard that scheduling order and the shared trace cache are
/// invisible to simulation semantics.
#[test]
fn golden_stats_via_grid_scheduler() {
    if std::env::var_os("GOLDEN_PRINT").is_some() {
        return; // regeneration runs the per-trace test only
    }
    journal::clear_global();
    let cfg = RunConfig { scale: TraceScale::Small, ..RunConfig::default() };
    let cells: Vec<CellSpec> =
        catalog().iter().take(TRACES).cloned().map(CellSpec::Synthetic).collect();
    let (outcomes, summary) = run_grid(&cells, &KINDS, &cfg);
    assert!(summary.is_clean(), "{}", summary.report());
    assert_eq!(outcomes.len(), TRACES * KINDS.len());
    assert_eq!(summary.trace_builds, TRACES, "each trace built once for the whole grid");
    for (i, out) in outcomes.iter().enumerate() {
        let fp = fingerprint(&out.result.stats);
        assert_eq!(
            fp,
            GOLDEN[i % TRACES][i / TRACES],
            "{}/{} diverged through the scheduler path",
            out.trace,
            out.prefetcher
        );
    }
}

/// The fingerprint must be sensitive to every counter (guards against
/// the flattening accidentally skipping a field).
#[test]
fn fingerprint_sensitive_to_each_counter() {
    let base = SimStats::default();
    let base_fp = fingerprint(&base);
    let n = flatten(&base).len();
    for i in 0..n {
        let mut s = SimStats::default();
        // Poke the i-th flattened slot via its source field.
        let level = i / 9;
        match i {
            _ if level < 3 => {
                let l = &mut s.levels[level];
                let f = [
                    &mut l.load_accesses,
                    &mut l.load_misses,
                    &mut l.store_accesses,
                    &mut l.store_misses,
                    &mut l.pf_fills,
                    &mut l.pf_useful,
                    &mut l.pf_useless,
                    &mut l.pf_late,
                    &mut l.writebacks,
                ];
                *f[i % 9] = 1;
            }
            _ => {
                let f = [
                    &mut s.instructions,
                    &mut s.cycles,
                    &mut s.pf_issued,
                    &mut s.pf_admitted,
                    &mut s.pf_dropped,
                    &mut s.pf_redundant,
                    &mut s.dram_requests,
                    &mut s.dram_writes,
                ];
                *f[i - 27] = 1;
            }
        }
        assert_ne!(fingerprint(&s), base_fp, "slot {i} not covered");
    }
}
