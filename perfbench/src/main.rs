//! The benchmark's command line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep_small|pmp_standard|mix4_standard> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! It first pins itself to one CPU and starts a memory probe on another
//! (see [`pmp_perfbench::host`]), so the grid runs on one worker. With
//! `--trace 0` it sets the workload up nine times, then runs the
//! workload's grid through `runner::run_grid` over and over for
//! `--seconds` seconds (at least once), checks every cell, and reports
//! the end-to-end metrics as medians over the passes. Times are CPU
//! seconds rescaled by the probe's speed over the same interval. With
//! `--trace 1` it runs the traced pass instead and reports the
//! per-layer metrics. Either way the last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.

use pmp_bench::prefetchers::PrefetcherKind;
use pmp_bench::runner::{geo_mean, run_grid, RunOutcome};
use pmp_perfbench::host::Host;
use pmp_perfbench::inputs::{distinct_specs, inputs, Inputs, Workload};
use pmp_perfbench::stats::{median, result_json};
use pmp_perfbench::{cell_ipc, cell_stats, checks, simulated_instructions, traced, CellStats};
use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 9;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10u64, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Generate the workload and build every distinct trace once, checking
/// each is long enough to leave a measured window after warm-up.
/// Returns the inputs and the traces that failed the check.
fn set_up(workload: Workload, seed: u64) -> (Inputs, Vec<String>) {
    let mut inputs = inputs(workload, seed);
    let warmup = inputs.cfg.scale.warmup_instructions();
    let mut short = Vec::new();
    for spec in distinct_specs(&inputs.cells) {
        let trace = spec.build(inputs.cfg.scale);
        if trace.instruction_count() <= warmup {
            short.push(format!("{}: no instructions after warm-up", spec.name));
        }
        let largest = trace
            .ops
            .iter()
            .map(|op| op.instruction_count())
            .max()
            .unwrap_or(0);
        inputs.max_op_instructions = inputs.max_op_instructions.max(largest);
    }
    (inputs, short)
}

/// Host memory high-water mark of this process, in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Geomean over traces of PMP IPC / baseline IPC.
fn speedup_geomean(pmp: &[RunOutcome], base: &[RunOutcome]) -> f64 {
    let base: HashMap<&str, f64> = base
        .iter()
        .map(|o| (o.trace.as_str(), cell_ipc(o)))
        .collect();
    let ratios: Vec<f64> = pmp
        .iter()
        .filter_map(|o| base.get(o.trace.as_str()).map(|b| cell_ipc(o) / b))
        .collect();
    if ratios.is_empty() {
        0.0
    } else {
        geo_mean(&ratios)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Before any grid thread starts, so every later thread inherits the
    // pin. Dropped at the end of `main`, which stops the probe.
    let host = match Host::claim() {
        Ok(host) => host,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "perfbench: workload {} seed {} on {workers} worker(s) on CPU {}, probe on CPU {}",
        args.workload.name(),
        args.seed,
        host.cpu,
        host.probe_cpu
    );
    if let Some(why) = checks::globals_uninstalled() {
        eprintln!("perfbench: {why} before the run");
        return ExitCode::from(1);
    }

    let mut setups = Vec::new();
    let mut set = None;
    for _ in 0..if args.trace { 1 } else { SETUP_REPS } {
        let before = host.read();
        set = Some(set_up(args.workload, args.seed));
        setups.push(before.norm_cpu_s_to(&host.read()));
    }
    eprintln!("perfbench: set-ups took {setups:.3?} normalised CPU s");
    let (inputs, bad_inputs) = set.expect("at least one set-up");
    let mut problems = bad_inputs;

    if args.trace {
        let report = traced::run(&inputs, workers);
        problems.extend(report.problems);
        return finish(&problems, report.attempted, report.failed, &report.metrics);
    }

    // The timed phase: whole grid passes while another pass as long as
    // the last still fits in the time (always at least one).
    let results = Path::new("results");
    let results_before = checks::tree_listing(results);
    let budget = Duration::from_secs(args.seconds);
    let timed_start = Instant::now();
    let warmup = inputs.cfg.scale.warmup_instructions();
    let (mut norms, mut mips) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut first: Option<(Vec<RunOutcome>, CellStats)> = None;
    let mut peak_rss = None;
    loop {
        let pass_start = Instant::now();
        let before = host.read();
        let (outcomes, summary) = run_grid(&inputs.cells, &inputs.kinds, &inputs.cfg);
        let after = host.read();
        let wall = pass_start.elapsed().as_secs_f64();
        let expected = inputs.expected_cells();
        attempted += expected as u64;
        let mut pass_failed = summary.failures.len();
        problems.extend(summary.failures.iter().map(|f| f.to_string()));
        for o in &outcomes {
            if let Some(why) = checks::check_cell(o, &inputs) {
                problems.push(why);
                pass_failed += 1;
            }
        }
        pass_failed += expected.saturating_sub(outcomes.len() + summary.failures.len());
        if let Some(why) = checks::globals_uninstalled() {
            problems.push(why);
            pass_failed = expected;
        }
        // Every pass simulates the same inputs, so its counters must
        // repeat the first pass's exactly.
        let stats = cell_stats(&outcomes);
        if let Some((_, first_stats)) = &first {
            let differ = stats
                .iter()
                .filter(|(k, v)| first_stats.get(*k) != Some(*v))
                .count();
            if differ > 0 {
                problems.push(format!("{differ} cells differ from the first pass"));
                pass_failed += differ;
            }
        }
        failed += pass_failed.min(expected) as u64;
        let instructions: u64 = outcomes
            .iter()
            .map(|o| simulated_instructions(o, warmup))
            .sum();
        let norm = before.norm_cpu_s_to(&after);
        norms.push(norm);
        mips.push(instructions as f64 / norm / 1e6);
        eprintln!(
            "perfbench: pass {} took {:.3} CPU s in {wall:.3} s, probe {:.3} ns/access, {norm:.3} normalised CPU s",
            norms.len(),
            before.cpu_s_to(&after),
            before.probe_ns_to(&after),
        );
        if first.is_none() {
            // Later passes reuse freed memory unevenly across worker
            // arenas; a user runs the grid once, so the peak is read
            // after the first pass.
            peak_rss = peak_rss_mib();
            first = Some((outcomes, stats));
        }
        if timed_start.elapsed() + Duration::from_secs_f64(wall) > budget {
            break;
        }
    }
    if checks::tree_listing(results) != results_before {
        problems.push("the timed runs wrote under results/".into());
        failed = attempted;
    }
    let (outcomes, _) = first.expect("at least one pass");

    let pmp_label = PrefetcherKind::Pmp.label();
    let base_label = PrefetcherKind::None.label();
    let of = |label: &str| -> Vec<RunOutcome> {
        outcomes
            .iter()
            .filter(|o| o.prefetcher == label)
            .cloned()
            .collect()
    };
    let ipcs: Vec<f64> = outcomes.iter().map(cell_ipc).collect();
    let mut base = of(&base_label);
    if base.is_empty() {
        // Workloads without baseline cells get their baseline from one
        // untimed reference grid after the timed phase.
        let (reference, summary) = run_grid(&inputs.cells, &[PrefetcherKind::None], &inputs.cfg);
        problems.extend(summary.failures.iter().map(|f| f.to_string()));
        base = reference;
    }
    let speedup = speedup_geomean(&of(&pmp_label), &base);

    let metrics = vec![
        ("cpu_s_norm".to_string(), median(&norms), "s"),
        ("sim_mips_norm".to_string(), median(&mips), "Minstr/s"),
        ("setup_s".to_string(), median(&setups), "s"),
        ("peak_rss_mib".to_string(), peak_rss.unwrap_or(0.0), "MiB"),
        (
            "sim_ipc_geomean".to_string(),
            if ipcs.is_empty() {
                0.0
            } else {
                geo_mean(&ipcs)
            },
            "instr/cycle",
        ),
        ("pmp_speedup_geomean".to_string(), speedup, "ratio"),
    ];
    if peak_rss.is_none() {
        problems.push("no VmHWM in /proc/self/status".into());
    }
    finish(&problems, attempted, failed, &metrics)
}

/// Print the problems and the result line; exit 0 once a result is out.
fn finish(
    problems: &[String],
    attempted: u64,
    failed: u64,
    metrics: &[traced::Metric],
) -> ExitCode {
    for p in problems.iter().take(20) {
        eprintln!("perfbench: FAILED {p}");
    }
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    let correct = problems.is_empty() && failed == 0 && finite && attempted > 0;
    println!("{}", result_json(correct, attempted, failed, metrics));
    ExitCode::SUCCESS
}
