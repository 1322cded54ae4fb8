//! Equivalence and determinism pins for the multi-core system.
//!
//! The per-op pipeline used to exist twice — once in `System::run`, once
//! in `MultiCoreSystem::step_core` — and now lives exactly once in
//! [`MultiCoreSystem`], whose 1-core face is `System` (pinned by
//! `tests/golden_stats.rs`). These tests pin the multi-core side:
//!
//! 1. 4-core runs are pinned with golden per-core fingerprints
//!    (regenerate with `GOLDEN_PRINT=1 ... -- --nocapture` and justify
//!    the semantic change, exactly like `golden_stats`);
//! 2. a heterogeneous Table VII mix is deterministic run-to-run;
//! 3. the multi-core bandwidth-delivery bugfix: DSPatch's modulation
//!    engages (its `bw_measured` gauge flips to 1) under shared-DRAM
//!    contention, which never happened before the pipeline was shared.

use pmp_bench::prefetchers::PrefetcherKind;
use pmp_sim::{MultiCoreSystem, SimStats, SystemConfig};
use pmp_traces::mix::{table_vii_mixes, MpkiClass};
use pmp_traces::{catalog, TraceScale, TraceSpec};
use pmp_types::TraceOp;

/// Every counter in `SimStats`, flattened in the same fixed order as
/// `tests/golden_stats.rs`.
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

/// FNV-1a over the flattened counters.
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

/// Prefetchers pinned in the multi-core golden: the baseline and PMP.
/// (Small scale, unlike Tiny, gives PMP enough of a window to train and
/// issue, so its row genuinely differs from the baseline's.)
const MIX_GOLDEN_KINDS: [PrefetcherKind; 2] = [PrefetcherKind::None, PrefetcherKind::Pmp];

/// Frozen per-core fingerprints for a fixed 4-core mix (first four
/// catalog traces, Small scale), `[kind][core]` in `MIX_GOLDEN_KINDS`
/// order.
const MULTICORE_GOLDEN: [[u64; 4]; 2] = [
    [0x0d0b968cc4e4304e, 0x67d5b64adc81bafe, 0x0c5fec7c4a742149, 0xa3cef10917d93b14],
    [0x995622044c888bd2, 0xa300e13a26ef24d9, 0x032e463f5a3dba7e, 0xb7c8f0c73db80c39],
];

/// Multi-core measured windows are pinned the same way `golden_stats`
/// pins single-core ones: a silent diff in any per-core counter of a
/// fixed 4-core mix is a bug; an intentional one regenerates the table
/// with `GOLDEN_PRINT=1` and says why.
#[test]
fn multicore_golden_fingerprints() {
    let scale = TraceScale::Small;
    let specs = &catalog()[..4];
    let traces: Vec<_> = specs.iter().map(|s| s.build(scale)).collect();
    let refs: Vec<&[TraceOp]> = traces.iter().map(|t| t.ops.as_slice()).collect();
    let measure = (scale.mem_ops() as u64) * 10;
    let print = std::env::var_os("GOLDEN_PRINT").is_some();
    let mut table = String::new();
    let mut failures = Vec::new();
    for (ki, kind) in MIX_GOLDEN_KINDS.iter().enumerate() {
        let prefetchers = (0..4).map(|_| kind.build()).collect();
        let mut sys = MultiCoreSystem::new(SystemConfig::quad_core(), prefetchers);
        let r = sys.run(&refs, scale.warmup_instructions(), measure);
        table.push_str("    [");
        for (ci, core) in r.cores.iter().enumerate() {
            let fp = fingerprint(core);
            table.push_str(&format!("{fp:#018x}, "));
            if !print && fp != MULTICORE_GOLDEN[ki][ci] {
                failures.push(format!(
                    "{}/core{ci}: fingerprint {fp:#018x} != golden {:#018x}",
                    kind.label(),
                    MULTICORE_GOLDEN[ki][ci]
                ));
            }
        }
        table.truncate(table.len() - 2);
        table.push_str("],\n");
    }
    if print {
        println!("const MULTICORE_GOLDEN: [[u64; 4]; 2] = [\n{table}];");
        return;
    }
    assert!(
        failures.is_empty(),
        "multi-core stats diverged from golden values — if intentional, regenerate \
         with GOLDEN_PRINT=1 and explain the semantic change:\n{}",
        failures.join("\n")
    );
}

/// A heterogeneous Table VII mix (built through the real mix generator
/// over a synthetic MPKI classification) must be deterministic: two
/// runs of the same mix under PMP agree on every per-core counter, the
/// shared-LLC aggregate, and the per-core DRAM attribution.
#[test]
fn heterogeneous_table_vii_mix_is_deterministic() {
    let all = catalog();
    // Synthetic classification: round-robin Low/Medium/High keeps every
    // pool populated without paying for a 125-trace calibration sweep.
    let classes = [MpkiClass::Low, MpkiClass::Medium, MpkiClass::High];
    let classified: Vec<(String, MpkiClass)> =
        all.iter().enumerate().map(|(i, s)| (s.name.clone(), classes[i % 3])).collect();
    let mix = table_vii_mixes(&classified, 7)
        .into_iter()
        .find(|m| m.kind == "half-low-half-high")
        .expect("generator emits every Table VII kind");
    let specs: Vec<&TraceSpec> = mix
        .traces
        .iter()
        .map(|n| all.iter().find(|s| &s.name == n).expect("mix names come from the catalog"))
        .collect();
    let scale = TraceScale::Tiny;
    let traces: Vec<_> = specs.iter().map(|s| s.build(scale)).collect();
    let refs: Vec<&[TraceOp]> = traces.iter().map(|t| t.ops.as_slice()).collect();
    let measure = (scale.mem_ops() as u64) * 10;

    let run = || {
        let prefetchers = (0..4).map(|_| PrefetcherKind::Pmp.build()).collect();
        let mut sys = MultiCoreSystem::new(SystemConfig::quad_core(), prefetchers);
        sys.run(&refs, scale.warmup_instructions(), measure)
    };
    let a = run();
    let b = run();
    assert_eq!(a.cores, b.cores, "per-core windows must be identical");
    assert_eq!(a.dram_requests, b.dram_requests);
    assert_eq!(a.llc, b.llc, "shared-LLC aggregate must be identical");
    assert_eq!(a.core_dram, b.core_dram, "DRAM attribution must be identical");
    assert!(a.core_dram.iter().all(|c| c.requests > 0), "every core drove DRAM traffic");
}

/// The bugfix this PR ships: in multi-core runs, per-core interval
/// sampling forwards the *shared* DRAM utilization to each core's
/// prefetcher. DSPatch exposes whether it ever received a bandwidth
/// sample as the `bw_measured` gauge — before the engine refactor it
/// stayed 0 in every multi-core run, silently disabling DSPatch's
/// bandwidth modulation exactly where it matters most.
#[test]
fn dspatch_bandwidth_modulation_engages_in_multicore() {
    let scale = TraceScale::Tiny;
    let specs = &catalog()[..4];
    let traces: Vec<_> = specs.iter().map(|s| s.build(scale)).collect();
    let refs: Vec<&[TraceOp]> = traces.iter().map(|t| t.ops.as_slice()).collect();
    let prefetchers = (0..4).map(|_| PrefetcherKind::DsPatch.build()).collect();
    let mut sys = MultiCoreSystem::new(SystemConfig::quad_core(), prefetchers);
    sys.enable_sampling(500);
    let _ = sys.run(&refs, scale.warmup_instructions(), (scale.mem_ops() as u64) * 10);
    for core in 0..4 {
        let gauges = sys.prefetcher_gauges(core);
        let bw = gauges
            .iter()
            .find(|g| g.name == "bw_measured")
            .expect("DSPatch exposes bw_measured");
        assert_eq!(
            bw.value, 1.0,
            "core {core}: DSPatch never received a bandwidth sample"
        );
        assert!(!sys.samples(core).is_empty(), "core {core} recorded no samples");
    }
}
