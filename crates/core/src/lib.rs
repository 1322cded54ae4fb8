//! # pmp-core
//!
//! The paper's primary contribution: the **Pattern Merging Prefetcher
//! (PMP)** — a low-overhead L1D spatial prefetcher that merges the
//! memory-access bit-vector patterns sharing a *trigger offset* into
//! per-feature counter vectors, then extracts multi-level prefetch
//! patterns from the merged statistics.
//!
//! The crate decomposes the design exactly along the paper's Section IV:
//!
//! | Module | Paper section | Mechanism |
//! |---|---|---|
//! | [`capture`] | II-B / Fig. 1 | SMS-style Filter/Accumulation tables |
//! | [`counter_vec`] | IV-A / Fig. 6a | counter-vector pattern merging + halving |
//! | [`extract`] | IV-B | ANE / ARE / AFE prefetch-pattern extraction |
//! | [`tables`] | IV-C / Fig. 6c-d | dual pattern tables (OPT + PPT), coarse counter vectors |
//! | [`arbiter`] | IV-C / Fig. 6e | prefetch-level arbitration rules 1-4 |
//! | [`buffer`] | IV-B | region-indexed Prefetch Buffer with PQ-aware resume |
//! | [`pmp`] | IV-D/E | the assembled prefetcher, configuration, storage accounting |
//! | [`design_b`] | V-E1 / Fig. 11 | the identical-pattern-counting comparator |
//!
//! ## Example
//!
//! ```
//! use pmp_core::{Pmp, PmpConfig};
//! use pmp_prefetch::{AccessInfo, Prefetcher};
//! use pmp_types::{Addr, MemAccess, Pc};
//!
//! let mut pmp = Pmp::new(PmpConfig::default());
//! assert_eq!(pmp.name(), "pmp");
//! // The default configuration matches the paper's Table II/III budget.
//! let kib = pmp.storage_bits() as f64 / 8.0 / 1024.0;
//! assert!((4.2..4.4).contains(&kib), "PMP must cost ~4.3KB, got {kib}");
//!
//! let mut out = Vec::new();
//! let info = AccessInfo {
//!     access: MemAccess::load(Pc(0x400), Addr(0x1_0000)),
//!     hit: false,
//!     cycle: 0,
//!     pq_free: 8,
//! };
//! pmp.on_access(&info, &mut out); // first access: trains, may predict
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod arbiter;
pub mod buffer;
pub mod capture;
#[cfg(test)]
mod capture_ref;
pub mod counter_vec;
pub mod design_b;
pub mod extract;
pub(crate) mod lanes;
pub mod pmp;
#[cfg(test)]
mod swar_ref;
pub mod tables;

pub use capture::{CaptureConfig, CapturedPattern, PatternCapture, TriggerEvent};
pub use counter_vec::CounterVector;
pub use design_b::{DesignB, DesignBConfig};
pub use extract::ExtractionScheme;
pub use pmp::{Pmp, PmpConfig};
pub use tables::{OffsetPatternTable, PcPatternTable};
