//! # pmp-types
//!
//! Shared vocabulary types for the PMP (Pattern Merging Prefetcher)
//! reproduction: addresses, program counters, memory accesses, cache
//! levels, region geometry, and bit-vector access patterns.
//!
//! Everything in the workspace — the trace generators, the cache
//! simulator, the prefetchers, and the analysis tools — speaks these
//! types, so they are deliberately small, `Copy`, and free of policy.
//!
//! ## Example
//!
//! ```
//! use pmp_types::{Addr, RegionGeometry, BitPattern};
//!
//! let geom = RegionGeometry::new(64); // 4KB regions of 64-byte lines
//! let a = Addr(0x1000 + 3 * 64);
//! assert_eq!(geom.offset_of_line(a.line()), 3);
//!
//! let mut p = BitPattern::new(64);
//! p.set(3);
//! assert!(p.get(3));
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod access;
pub mod addr;
pub mod error;
pub mod json;
pub mod level;
pub mod pattern;
pub mod provenance;
pub mod rng;
pub mod snapshot;

pub use access::{AccessKind, MemAccess, TraceOp};
pub use error::HarnessError;
pub use snapshot::{
    config_fingerprint, fnv1a_64, ByteReader, ByteWriter, SnapshotError, StateImage,
    StateSection, SNAPSHOT_VERSION,
};
pub use addr::{Addr, LineAddr, Pc, RegionAddr, RegionGeometry, LINE_BYTES, LINE_SHIFT, PAGE_BYTES};
pub use level::CacheLevel;
pub use pattern::{BitPattern, PrefetchPattern, PrefetchTarget};
pub use provenance::{Origin, PmpTable, Provenance};
pub use rng::Rng64;
