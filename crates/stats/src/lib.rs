//! # pmp-stats
//!
//! Metric derivation and reporting for the evaluation section:
//!
//! * [`metrics`] — the paper's derived metrics (coverage, accuracy,
//!   NMT, useful/useless breakdowns) computed from baseline +
//!   prefetcher [`pmp_sim::SimStats`] pairs (Section V-C/V-D);
//! * [`storage`] — bit-accurate storage budgets (Tables III and V);
//! * [`report`] — plain-text table, series, and CSV rendering shared by
//!   all experiment binaries.
//!
//! ## Example
//!
//! ```
//! use pmp_stats::metrics::coverage;
//! use pmp_sim::SimStats;
//! use pmp_types::CacheLevel;
//!
//! let mut base = SimStats::default();
//! base.level_mut(CacheLevel::L1D).load_misses = 1000;
//! let mut with = SimStats::default();
//! with.level_mut(CacheLevel::L1D).load_misses = 400;
//! assert_eq!(coverage(&base, &with, CacheLevel::L1D), Some(0.6));
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod metrics;
pub mod report;
pub mod storage;

pub use metrics::{accuracy, coverage, nmt, PrefetchBreakdown};
pub use report::{interval_table, Series, Table};
pub use storage::{
    interval_sample_to_json, interval_samples_to_json_lines, sim_stats_from_json,
    sim_stats_to_json,
};
