//! Tests of the benchmark's own machinery: the timing adapter, the
//! seeded inputs, the percentile rule, the output checks and the host
//! controls.

use pmp_bench::prefetchers::PrefetcherKind;
use pmp_bench::runner::{run_cell, CellSpec, RunConfig};
use pmp_perfbench::checks::{check_cell, conserves_prefetches};
use pmp_perfbench::host::Host;
use pmp_perfbench::inputs::{draw_mixes, inputs, seeded_catalog, Workload, MIXES};
use pmp_perfbench::simulated_instructions;
use pmp_perfbench::stats::nearest_rank;
use pmp_perfbench::timing::Timed;
use pmp_sim::{System, SystemConfig};
use pmp_traces::TraceScale;

/// The six prefetchers the workloads run.
fn six_kinds() -> Vec<PrefetcherKind> {
    let mut kinds = vec![PrefetcherKind::None];
    kinds.extend(PrefetcherKind::paper_five());
    kinds
}

#[test]
fn timed_wrapper_leaves_stats_bit_identical_for_all_six_kinds() {
    let trace = seeded_catalog(7)[16].build(TraceScale::Tiny);
    let warmup = TraceScale::Tiny.warmup_instructions();
    for kind in six_kinds() {
        let plain = System::new(SystemConfig::single_core(), kind.build()).run(&trace.ops, warmup);
        let (wrapped, handle) = Timed::wrap(kind.build());
        let mut sys = System::new(SystemConfig::single_core(), wrapped);
        let timed = sys.run(&trace.ops, warmup);
        assert_eq!(
            plain.stats,
            timed.stats,
            "{}: stats must not change",
            kind.label()
        );
        assert_eq!(plain.cycles, timed.cycles);
        assert_eq!(plain.prefetcher, timed.prefetcher, "name is forwarded");
        let times = handle.get();
        assert!(
            times.access_calls > 0,
            "{}: on_access is timed",
            kind.label()
        );
        assert!(times.requests >= timed.stats.pf_issued, "{}", kind.label());
    }
}

#[test]
fn timed_wrapper_forwards_every_method() {
    let trace = seeded_catalog(0)[0].build(TraceScale::Tiny);
    for kind in six_kinds() {
        let mut plain = System::new(SystemConfig::single_core(), kind.build());
        let (wrapped, handle) = Timed::wrap(kind.build());
        let mut timed = System::new(SystemConfig::single_core(), wrapped);
        plain.enable_sampling(500);
        timed.enable_sampling(500);
        plain.run(&trace.ops, 0);
        timed.run(&trace.ops, 0);
        assert_eq!(
            plain.prefetcher_gauges(),
            timed.prefetcher_gauges(),
            "{}: gauges",
            kind.label()
        );
        assert!(
            handle.get().callback_calls > 0,
            "{}: evict, feedback and bandwidth callbacks are timed",
            kind.label()
        );

        let inner = kind.build();
        let (outer, _) = Timed::wrap(kind.build());
        assert_eq!(
            inner.storage_bits(),
            outer.storage_bits(),
            "{}: storage",
            kind.label()
        );
        let (mut a, mut b) = (
            plain.replace_prefetcher(kind.build()),
            timed.replace_prefetcher(kind.build()),
        );
        match (a.save_state(), b.save_state()) {
            (Ok(x), Ok(y)) => {
                assert_eq!(x, y, "{}: saved state", kind.label());
                a.load_state(&x).expect("own image loads");
                b.load_state(&y).expect("image loads through the wrapper");
            }
            (Err(x), Err(y)) => assert_eq!(x.kind_tag(), y.kind_tag()),
            _ => panic!("{}: save_state must be forwarded", kind.label()),
        }
    }
}

#[test]
fn same_seed_same_ops_other_seed_other_ops() {
    let scale = TraceScale::Tiny;
    let (a, b, c) = (seeded_catalog(11), seeded_catalog(11), seeded_catalog(12));
    for i in [0, 40, 80, 124] {
        assert_eq!(a[i].name, c[i].name, "names stay the catalog's");
        assert_eq!(
            a[i].build(scale).ops,
            b[i].build(scale).ops,
            "same seed, same ops"
        );
        assert_ne!(
            a[i].build(scale).ops,
            c[i].build(scale).ops,
            "{}: other seed",
            a[i].name
        );
    }
    let names = |seed| -> Vec<Vec<String>> {
        draw_mixes(seed, MIXES)
            .iter()
            .map(|m| m.specs.iter().map(|s| s.name.clone()).collect())
            .collect()
    };
    assert_eq!(names(11), names(11), "same seed, same mixes");
    assert_ne!(names(11), names(12), "other seed, other mixes");
    for w in Workload::ALL {
        assert_eq!(
            inputs(w, 3).expected_cells(),
            inputs(w, 4).expected_cells(),
            "{}",
            w.name()
        );
    }
}

#[test]
fn mixes_use_distinct_traces() {
    let mixes = draw_mixes(5, MIXES);
    let mut names: Vec<&str> = mixes
        .iter()
        .flat_map(|m| m.specs.iter().map(|s| s.name.as_str()))
        .collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(
        names.len(),
        4 * MIXES,
        "the mixes deal different catalog traces"
    );
}

#[test]
fn percentiles_are_ordered_samples() {
    assert_eq!(nearest_rank(&[], 50.0), None);
    let ten: Vec<u64> = (1..=10).collect();
    assert_eq!(nearest_rank(&ten, 50.0), Some(5));
    assert_eq!(nearest_rank(&ten, 95.0), Some(10));
    assert_eq!(nearest_rank(&[7], 95.0), Some(7));
    let mut x = 0x2545_f491_4f6c_dd1du64;
    for len in 1..200 {
        let samples: Vec<u64> = (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % 100_000
            })
            .collect();
        let p50 = nearest_rank(&samples, 50.0).expect("non-empty");
        let p95 = nearest_rank(&samples, 95.0).expect("non-empty");
        let max = nearest_rank(&samples, 100.0).expect("non-empty");
        assert!(p50 <= p95 && p95 <= max, "len {len}: {p50} {p95} {max}");
        assert_eq!(max, *samples.iter().max().expect("non-empty"));
        assert!(samples.contains(&p95), "a percentile is one of the samples");
    }
}

#[test]
fn claimed_host_runs_one_worker_and_times_only_the_program() {
    // Pinning applies to the calling thread and the threads it starts,
    // so it runs on a thread of its own and leaves the other tests be.
    std::thread::spawn(|| {
        let host = Host::claim().expect("claim");
        assert_ne!(host.cpu, host.probe_cpu);
        let n = std::thread::available_parallelism().expect("parallelism");
        assert_eq!(n.get(), 1, "the grid would run one worker");
        // The probe spins on its own CPU meanwhile and is not counted.
        let idle = host.read();
        std::thread::sleep(std::time::Duration::from_millis(100));
        let slept = idle.cpu_s_to(&host.read());
        assert!(slept < 0.02, "a sleeping program used {slept} CPU s");
        let before = host.read();
        std::thread::spawn(|| {
            let start = std::time::Instant::now();
            while start.elapsed().as_millis() < 50 {
                std::hint::black_box(start.elapsed());
            }
        })
        .join()
        .expect("busy thread");
        let after = host.read();
        let used = before.cpu_s_to(&after);
        assert!(used > 0.005, "an ended thread's CPU time counts: {used}");
        let ns = before.probe_ns_to(&after);
        assert!(ns.is_finite() && ns > 0.0, "probe speed {ns}");
        let norm = before.norm_cpu_s_to(&after);
        assert!(norm.is_finite() && norm > 0.0, "normalised {norm}");
    })
    .join()
    .expect("pinned thread");
}

#[test]
fn checks_accept_healthy_cells_and_reject_broken_ones() {
    let mut grid = inputs(Workload::SweepSmall, 1);
    grid.cfg.scale = TraceScale::Tiny;
    let CellSpec::Synthetic(spec) = &grid.cells[3] else {
        panic!("catalog cell")
    };
    let mut outcome =
        run_cell(&grid.cells[3], &PrefetcherKind::Pmp, &grid.cfg).expect("healthy cell");
    assert_eq!(check_cell(&outcome, &grid), None);
    let warmup = TraceScale::Tiny.warmup_instructions();
    let trace = spec.build(TraceScale::Tiny);
    let slack = trace
        .ops
        .iter()
        .map(|op| op.instruction_count())
        .max()
        .expect("ops");
    let counted = simulated_instructions(&outcome, warmup);
    assert!(
        counted.abs_diff(trace.instruction_count()) < slack,
        "{counted} vs the whole trace"
    );

    outcome.result.stats.pf_redundant += 1;
    assert!(!conserves_prefetches(&outcome.result.stats));
    assert!(
        check_cell(&outcome, &grid).is_some(),
        "broken conservation is a failure"
    );
    outcome.result.stats.pf_redundant -= 1;
    outcome.result.cycles = 0;
    assert!(
        check_cell(&outcome, &grid).is_some(),
        "zero IPC is a failure"
    );
}

#[test]
fn checks_require_every_mix_core_to_finish_its_window() {
    let mut grid = inputs(Workload::Mix4Standard, 1);
    grid.cfg = RunConfig {
        scale: TraceScale::Tiny,
        ..grid.cfg
    };
    let CellSpec::Mix(mix) = &grid.cells[0] else {
        panic!("mix cell")
    };
    grid.max_op_instructions = mix
        .specs
        .iter()
        .flat_map(|s| s.build(TraceScale::Tiny).ops)
        .map(|op| op.instruction_count())
        .max()
        .expect("ops");
    let mut outcome =
        run_cell(&grid.cells[0], &PrefetcherKind::Pmp, &grid.cfg).expect("healthy mix");
    assert_eq!(check_cell(&outcome, &grid), None);
    outcome.per_core[2].instructions = grid.mix_window() / 2;
    assert!(
        check_cell(&outcome, &grid).is_some(),
        "a short window is a failure"
    );
    outcome.per_core.pop();
    assert!(
        check_cell(&outcome, &grid).is_some(),
        "a missing core is a failure"
    );
}
