//! # pmp-bench
//!
//! The experiment harness: everything needed to regenerate the paper's
//! tables and figures. The library half provides the prefetcher
//! registry ([`prefetchers`]) and trace-sweep runner ([`runner`]); each
//! experiment is a binary under `src/bin/` (see DESIGN.md's experiment
//! index for the mapping).
//!
//! ## Example
//!
//! ```
//! use pmp_bench::prefetchers::PrefetcherKind;
//! use pmp_bench::runner::{run_cell, CellSpec, RunConfig};
//! use pmp_traces::{catalog, TraceScale};
//!
//! let cell = CellSpec::Synthetic(catalog()[0].clone());
//! let cfg = RunConfig { scale: TraceScale::Tiny, ..RunConfig::default() };
//! let base = run_cell(&cell, &PrefetcherKind::None, &cfg)?;
//! let pmp = run_cell(&cell, &PrefetcherKind::Pmp, &cfg)?;
//! assert!(base.result.ipc() > 0.0 && pmp.result.ipc() > 0.0);
//! # Ok::<(), pmp_bench::runner::CellFailure>(())
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod benchdiff;
pub mod deep_dive;
pub mod experiments;
pub mod journal;
pub mod microbench;
pub mod prefetchers;
pub mod progress;
pub mod runner;
pub mod telemetry;
pub mod trace_pool;

use pmp_traces::{TraceScale, TraceSpec};

/// Write `body` to `path`, creating the parent directory first: how
/// the bins land their `results/` artifacts.
///
/// # Errors
///
/// The first I/O error from creating the directory or writing.
pub fn write_artifact(path: &std::path::Path, body: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, body)
}

/// Resolve an optional scale label from `source` (an argument or
/// environment variable name, for the message): `default` when absent,
/// the matching [`TraceScale`] when it is one of
/// [`TraceScale::LABELS`]. Anything else is a usage error: the labels
/// go to stderr and the process exits with status 2.
pub fn scale_or_exit(source: &str, label: Option<&str>, default: TraceScale) -> TraceScale {
    let Some(label) = label else { return default };
    TraceScale::from_label(label).unwrap_or_else(|| {
        eprintln!(
            "{source}: unknown scale {label:?}; expected one of {}",
            TraceScale::LABELS.join(", ")
        );
        std::process::exit(2)
    })
}

/// Resolve a trace name from `source` (an argument name, for the
/// message) to its catalog spec. An unknown name is a usage error: the
/// message points at `trace_tool list` and the process exits with
/// status 2.
pub fn trace_or_exit(source: &str, name: &str) -> TraceSpec {
    pmp_traces::trace_named(name).unwrap_or_else(|| {
        eprintln!("{source}: unknown trace {name:?}; `trace_tool list` prints the catalog names");
        std::process::exit(2)
    })
}

