//! Prefetch-accounting conservation laws, property-style.
//!
//! Over randomized traces, every prefetcher kind in the registry and a
//! random-line stream no real prefetcher produces,
//! the admission pipeline must conserve requests
//! (`pf_issued == pf_admitted + pf_dropped + pf_redundant`) and each
//! level's outcome attribution must stay within its fills
//! (`pf_useful + pf_useless <= pf_fills`: each fill plants exactly one
//! prefetch marker, which resolves to useful at the first demand hit or
//! useless at eviction/back-invalidation, never both).

mod common;

use common::{all_subjects, random_trace, tiny_queue_subjects, tiny_queues};
use pmp_sim::{System, SystemConfig};
use pmp_types::{CacheLevel, Rng64};

#[test]
fn prefetch_counters_conserve_over_random_traces() {
    let mut rng = Rng64::seed_from_u64(0x5EED_CAFE);
    for case in 0..3u64 {
        let ops = random_trace(&mut rng, 4000);
        for kind in all_subjects() {
            let mut sys = System::new(SystemConfig::single_core(), kind.build());
            let r = sys.run(&ops, 0);
            let s = &r.stats;
            assert_eq!(
                s.pf_issued,
                s.pf_admitted + s.pf_dropped + s.pf_redundant,
                "case {case}, {}: issued {} != admitted {} + dropped {} + redundant {}",
                kind.label(),
                s.pf_issued,
                s.pf_admitted,
                s.pf_dropped,
                s.pf_redundant
            );
            for level in [CacheLevel::L1D, CacheLevel::L2C, CacheLevel::Llc] {
                let l = s.level(level);
                assert!(
                    l.pf_useful + l.pf_useless <= l.pf_fills,
                    "case {case}, {} at {level:?}: useful {} + useless {} > fills {}",
                    kind.label(),
                    l.pf_useful,
                    l.pf_useless,
                    l.pf_fills
                );
                assert!(
                    l.pf_late <= l.pf_useful,
                    "case {case}, {} at {level:?}: late {} > useful {}",
                    kind.label(),
                    l.pf_late,
                    l.pf_useful
                );
            }
        }
    }
}

/// The same laws hold under heavy backpressure: a tiny memory system
/// (small PQs and MSHR files) forces the drop paths — including the
/// outer-level MSHR admission check — to fire constantly.
#[test]
fn conservation_survives_tiny_queues() {
    let cfg = tiny_queues();
    let mut rng = Rng64::seed_from_u64(0xB0B0_BEEF);
    let ops = random_trace(&mut rng, 4000);
    for kind in tiny_queue_subjects() {
        let mut sys = System::new(cfg.clone(), kind.build());
        let r = sys.run(&ops, 0);
        let s = &r.stats;
        assert_eq!(s.pf_issued, s.pf_admitted + s.pf_dropped + s.pf_redundant, "{}", kind.label());
        assert!(s.pf_dropped > 0, "{}: tiny queues must force drops", kind.label());
        for level in [CacheLevel::L1D, CacheLevel::L2C, CacheLevel::Llc] {
            let l = s.level(level);
            assert!(l.pf_useful + l.pf_useless <= l.pf_fills, "{} {level:?}", kind.label());
        }
    }
}
