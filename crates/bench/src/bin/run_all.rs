//! Runs every experiment and writes the reports under `results/`.
//! Scale via `PMP_SCALE` (tiny/small/standard/large; default standard).
//!
//! Flags:
//! * `--resume` — reuse completed cells from `results/journal.jsonl`
//!   (an interrupted run picks up where it stopped).
//! * `--fresh` — explicit form of the default: truncate the journal and
//!   recompute everything.
//! * `--no-progress` — suppress the live progress/ETA reporter (also
//!   `PMP_NO_PROGRESS=1`; progress auto-degrades to periodic plain
//!   lines when stderr is not a TTY).
//!
//! Every checked grid cell reports a telemetry span; the aggregate —
//! wall-clock, ops/sec, per-prefetcher and per-archetype latency
//! histograms, executed/resumed/failed counts, per-phase breakdown —
//! lands in `results/BENCH_sweep.json` at the end of the run (resumed
//! runs included). Compare two of them with the `bench_diff` bin.
use pmp_bench::experiments::{ablation, headline, motivation, multicore, scale_from_env, sensitivity, storage};
use pmp_bench::progress::{ProgressMode, ProgressReporter};
use pmp_bench::runner::{RunConfig, SweepContext};
use pmp_bench::{journal, telemetry};
use pmp_obs::SweepObserver;
use std::fs;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let resume = args.iter().any(|a| a == "--resume");
    for a in &args {
        if a != "--resume" && a != "--fresh" && a != "--no-progress" {
            eprintln!("unknown flag {a}; expected --resume, --fresh or --no-progress");
            std::process::exit(2);
        }
    }
    let scale = scale_from_env();
    fs::create_dir_all("results").expect("create results dir");
    let observer = Arc::new(SweepObserver::new());
    let sweep = SweepContext {
        journal: journal::open_for_sweep(Path::new("results/journal.jsonl"), resume),
        observer: Some(observer.clone()),
    };
    let base = RunConfig { scale, sweep, ..RunConfig::default() };
    let reporter = ProgressReporter::start(ProgressMode::from_env(&args), observer.clone());
    let t0 = Instant::now();
    let save = |name: &str, body: String| {
        let path = format!("results/{name}.txt");
        fs::write(&path, &body).expect("write report");
        println!("=== {name} ({:?} elapsed) ===\n{body}", t0.elapsed());
    };

    observer.phase("storage");
    save("tab3_storage", format!("{}\n{}", storage::tab3_storage(), storage::tab5_overheads()));
    observer.phase("motivation");
    save("tab1_pcr_pdr", motivation::tab1_pcr_pdr(scale));
    save("fig2_top_patterns", motivation::fig2_top_patterns(scale));
    save("fig4_icdd", motivation::fig4_icdd(scale));
    save("fig5_heatmaps", motivation::fig5_heatmaps(scale));
    save("per_suite", motivation::per_suite(scale));

    observer.phase("headline");
    let runs = headline::HeadlineRuns::execute(&base);
    save("fig8_singlecore", headline::fig8(&runs));
    save("fig9_cov_acc", headline::fig9(&runs));
    save("fig10_useful", headline::fig10(&runs));
    save("nmt_traffic", headline::nmt_report(&runs));

    observer.phase("ablation");
    save("tab8_design_b", ablation::tab8_design_b(&base));
    save("ext_schemes", ablation::ext_schemes(&base));
    save("mfp_ablation", ablation::mfp_ablation(&base));
    save("tab9_pattern_len", ablation::tab9_pattern_len(&base));
    save("tab10_width_counter", ablation::tab10_width_counter(&base));
    save("tab11_monitor_range", ablation::tab11_monitor_range(&base));
    save("placement", ablation::placement(&base));

    observer.phase("sensitivity");
    save("fig12a_bandwidth", sensitivity::fig12a_bandwidth(&base));
    save("fig12b_llc", sensitivity::fig12b_llc(&base));

    observer.phase("multicore");
    save("fig13_multicore", multicore::fig13(&base));
    match reporter {
        Some(reporter) => reporter.finish(),
        None => eprintln!("{}", telemetry::summary_line(&observer.snapshot())),
    }
    if let Some(journal) = base.sweep.journal() {
        if journal.hits() > 0 {
            eprintln!("journal: {} cells served from checkpoint", journal.hits());
        }
        if let Some(warning) = journal.write_warning() {
            eprintln!("WARNING: {warning}");
        }
    }
    let scale_tag = format!("{scale:?}");
    let sweep_json = Path::new("results/BENCH_sweep.json");
    if telemetry::write_sweep_json(&observer, sweep_json, "run_all", &scale_tag) {
        eprintln!("wrote results/BENCH_sweep.json");
    }
    eprintln!("run_all finished in {:?}", t0.elapsed());
}
