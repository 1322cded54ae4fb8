//! `bench_diff` — gate on the perf trajectory.
//!
//! Compares two `BENCH_*.json` files (`BENCH_core.json` from
//! `core_kernels` or `BENCH_sweep.json` from a telemetry-on sweep)
//! and exits nonzero when any throughput metric dropped past the
//! threshold.
//!
//! Usage:
//!
//! ```text
//! bench_diff OLD.json NEW.json [--threshold 0.15] [--report-only] [--metrics throughput|decision]
//! ```
//!
//! `--metrics decision` compares decision-quality fields (`ipc`,
//! `accuracy`, `timeliness`, `coverage` — aggregate and per-origin)
//! from two `pf_attrib.json` documents (the file `obs_report` writes
//! under `results/obs/`) instead of throughputs. Origin rows churn as
//! prefetchers learn, so pair it with `--report-only` unless you want
//! added/removed origins to gate.
//!
//! Exit codes (stable, scripts key on them):
//! * `0` — no regression (or `--report-only`, which always reports
//!   and exits 0 so CI can surface the diff without gating on noisy
//!   shared runners).
//! * `1` — at least one metric regressed past the threshold, or a
//!   baseline metric disappeared.
//! * `2` — usage or I/O error, a file that is not JSON, or a baseline
//!   with no metric of the `--metrics` set (even with
//!   `--report-only`: there is nothing to report).

use pmp_bench::benchdiff::{BenchDiff, MetricSet};

/// Default relative drop tolerated before flagging: 10%.
const DEFAULT_THRESHOLD: f64 = 0.10;

fn usage() -> ! {
    eprintln!(
        "usage: bench_diff OLD.json NEW.json [--threshold FRACTION] [--report-only] [--metrics throughput|decision]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths: Vec<String> = Vec::new();
    let mut threshold = DEFAULT_THRESHOLD;
    let mut report_only = false;
    let mut set = MetricSet::Throughput;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--report-only" => report_only = true,
            "--metrics" => {
                set = match it.next().as_deref() {
                    Some("throughput") => MetricSet::Throughput,
                    Some("decision") => MetricSet::Decision,
                    _ => usage(),
                };
            }
            "--threshold" => {
                let Some(v) = it.next().and_then(|v| v.parse::<f64>().ok()) else {
                    usage();
                };
                if !(0.0..1.0).contains(&v) {
                    eprintln!("threshold must be a fraction in [0, 1), got {v}");
                    std::process::exit(2);
                }
                threshold = v;
            }
            _ if arg.starts_with("--") => usage(),
            _ => paths.push(arg),
        }
    }
    if paths.len() != 2 {
        usage();
    }
    let read = |path: &str| match std::fs::read_to_string(path) {
        Ok(body) => body,
        Err(e) => {
            eprintln!("bench_diff: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    let old = read(&paths[0]);
    let new = read(&paths[1]);
    let diff = BenchDiff::compare_for(&old, &new, threshold, set);
    if !diff.errors.is_empty() {
        eprintln!("bench_diff: {} ({} vs {})", diff.errors.join("; "), paths[1], paths[0]);
        std::process::exit(2);
    }
    print!("{}", diff.report());
    if diff.has_regression() {
        println!(
            "regression past {:.0}% threshold ({} vs {})",
            threshold * 100.0,
            paths[1],
            paths[0]
        );
        if report_only {
            println!("report-only mode: exiting 0");
        } else {
            std::process::exit(1);
        }
    } else {
        println!("no regression past {:.0}% threshold", threshold * 100.0);
    }
}
