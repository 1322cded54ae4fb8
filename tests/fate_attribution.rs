//! Fate-conservation laws for the prefetch flight recorder.
//!
//! The attribution layer promises an exhaustive partition: after
//! `finalize()`, every issued prefetch resolves to exactly ONE fate
//! (`useful + late_useful + evicted_unused + dead_at_end + dropped_pq
//! + dropped_mshr + redundant == pf_issued`) — for every prefetcher
//! kind in the registry and a random-line stream no real prefetcher
//! produces, over randomized traces, and under tiny-queue
//! backpressure that forces both drop paths. It also promises to be
//! pure observation: attaching the recorder must not change a single
//! simulated bit relative to the `NullTracer` run.

mod common;

use common::{all_subjects, random_trace, tiny_queue_subjects, tiny_queues, Subject};
use pmp_obs::{Fate, FlightRecorder, ObsCollector, RingRecorder};
use pmp_sim::{System, SystemConfig};
use pmp_types::{Rng64, TraceOp};

/// Run `kind` with the recorder attached and assert the partition law.
fn assert_partition(cfg: &SystemConfig, ops: &[TraceOp], kind: &Subject) -> [u64; 7] {
    let mut sys = System::with_tracer(cfg.clone(), kind.build(), FlightRecorder::new());
    let r = sys.run(ops, 0);
    let rec = sys.tracer_mut();
    rec.finalize();
    let totals: [u64; 7] = {
        let mut t = [0u64; 7];
        for (slot, f) in t.iter_mut().zip(Fate::ALL) {
            *slot = rec.total(f);
        }
        t
    };
    assert_eq!(
        rec.issued(),
        rec.total_fates(),
        "{}: fates {totals:?} must partition {} issued prefetches",
        kind.label(),
        rec.issued()
    );
    assert_eq!(
        rec.issued(),
        r.stats.pf_issued,
        "{}: recorder and SimStats disagree on pf_issued",
        kind.label()
    );
    assert_eq!(rec.inflight_len(), 0, "{}: finalize must drain in-flight", kind.label());
    totals
}

#[test]
fn every_kind_partitions_issued_prefetches_into_fates() {
    let mut rng = Rng64::seed_from_u64(0xFA7E_0001);
    let cfg = SystemConfig::single_core();
    for _case in 0..2u64 {
        let ops = random_trace(&mut rng, 4000);
        for kind in all_subjects() {
            assert_partition(&cfg, &ops, &kind);
        }
    }
}

#[test]
fn tiny_queues_force_both_drop_fates() {
    let cfg = tiny_queues();
    // Same seed as `conservation_survives_tiny_queues`: this trace
    // pushes all three subjects into the drop paths.
    let mut rng = Rng64::seed_from_u64(0xB0B0_BEEF);
    let ops = random_trace(&mut rng, 4000);
    let mut saw_pq = false;
    let mut saw_mshr = false;
    for kind in tiny_queue_subjects() {
        let totals = assert_partition(&cfg, &ops, &kind);
        saw_pq |= totals[Fate::DroppedPq as usize] > 0;
        saw_mshr |= totals[Fate::DroppedMshr as usize] > 0;
        assert!(
            totals[Fate::DroppedPq as usize] + totals[Fate::DroppedMshr as usize] > 0,
            "{}: tiny queues must force drops",
            kind.label()
        );
    }
    assert!(saw_pq, "expected at least one PQ-full drop across kinds");
    assert!(saw_mshr, "expected at least one MSHR-full drop across kinds");
}

#[test]
fn attribution_on_is_bit_identical_to_attribution_off() {
    let mut rng = Rng64::seed_from_u64(0xFA7E_0003);
    let ops = random_trace(&mut rng, 4000);
    let cfg = SystemConfig::single_core();
    for kind in all_subjects() {
        // Off: the default NullTracer path every existing caller uses.
        let mut plain = System::new(cfg.clone(), kind.build());
        let a = plain.run(&ops, 0);
        // On: the flight recorder alone, then the deep-dive's nested
        // triple of composed tracers.
        let mut traced = System::with_tracer(cfg.clone(), kind.build(), FlightRecorder::new());
        let b = traced.run(&ops, 0);
        let triple = (ObsCollector::new(), (RingRecorder::new(64), FlightRecorder::new()));
        let mut composed = System::with_tracer(cfg.clone(), kind.build(), triple);
        let c = composed.run(&ops, 0);
        // The golden guarantee: tracers watch, never steer.
        for (what, on) in [("FlightRecorder", &b), ("composed triple", &c)] {
            assert_eq!(a.cycles, on.cycles, "{} under {what}", kind.label());
            assert_eq!(a.stats, on.stats, "{}: SimStats differ under {what}", kind.label());
        }
    }
}
