//! # pmp-traces
//!
//! Deterministic synthetic workload traces standing in for the paper's
//! 125 evaluation traces (38 SPEC CPU 2006, 36 SPEC CPU 2017, 42 Ligra,
//! 9 PARSEC — Table VI).
//!
//! The real DPC-2/DPC-3 and Pythia trace files are proprietary-ish
//! multi-gigabyte artifacts; what the paper's observations actually
//! depend on is the *shape* of the access patterns. Each generator in
//! [`archetypes`] reproduces one of the shapes the paper itself
//! describes:
//!
//! * sequential streams and constant-stride walks (SPEC floating-point
//!   kernels; the Astar "three slashes" heat map of Fig. 5b),
//! * backward pointer walks over a big array with big trigger offsets
//!   (the MCF `pflowup.c` loops of Fig. 5a),
//! * graph frontier expansion with irregular vertex reads feeding
//!   sequential edge-list scans (Ligra),
//! * hash-table probing with short bursts (integer SPEC),
//! * tiled stencil sweeps with partial region coverage (PARSEC).
//!
//! The [`catalog`](mod@catalog) module enumerates the 125 named traces with fixed
//! seeds so every experiment is reproducible bit-for-bit, and [`mix`]
//! builds the paper's heterogeneous 4-core workloads (Table VII).
//!
//! ## Example
//!
//! ```
//! use pmp_traces::{catalog, TraceScale};
//!
//! let specs = catalog::catalog();
//! assert_eq!(specs.len(), 125);
//! let trace = specs[0].build(TraceScale::Tiny);
//! assert!(!trace.ops.is_empty());
//! // Deterministic: same spec + scale => same trace.
//! assert_eq!(trace.ops, specs[0].build(TraceScale::Tiny).ops);
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod archetypes;
pub mod cache;
pub mod catalog;
pub mod faults;
pub mod io;
pub mod mix;
pub mod trace;

pub use cache::TraceCache;
pub use catalog::{catalog, catalog_for, representative_subset, trace_named, TraceSpec};
pub use faults::{Fault, FaultyReader, FaultyWriter};
pub use mix::{MixSpec, MpkiClass};
pub use trace::{Suite, Trace, TraceScale};
