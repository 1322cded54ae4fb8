//! # pmp-obs
//!
//! The observability substrate for the PMP reproduction: typed
//! prefetch-lifecycle events with a zero-cost [`Tracer`] abstraction
//! (tracers compose as pairs, so one run feeds several),
//! a ring-buffered recorder, fixed-bucket log2 latency histograms,
//! per-interval time-series sampling, and structural introspection
//! gauges. Depends only on `pmp-types`, so every layer of the stack —
//! simulator, prefetchers, stats, harness — can speak it.
//!
//! ## Example
//!
//! ```
//! use pmp_obs::{ObsCollector, TraceEvent, Tracer, EventKind};
//! use pmp_types::{CacheLevel, LineAddr};
//!
//! let mut obs = ObsCollector::new();
//! obs.emit(TraceEvent::PrefetchIssued {
//!     line: LineAddr(42),
//!     level: CacheLevel::L1D,
//!     cycle: 100,
//!     provenance: pmp_types::Provenance::NONE,
//! });
//! assert_eq!(obs.count(EventKind::PrefetchIssued), 1);
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod attribution;
pub mod collector;
pub mod event;
pub mod hist;
pub mod introspect;
pub mod ring;
pub mod sample;
pub mod sweep;

pub use attribution::{AttributionReport, Fate, FlightRecorder, OriginStats};
pub use collector::ObsCollector;
pub use event::{DropReason, EventKind, NullTracer, TraceEvent, Tracer};
pub use hist::Log2Histogram;
pub use introspect::{Gauge, Introspect};
pub use ring::RingRecorder;
pub use sample::{IntervalSample, IntervalSampler, SampleInput};
pub use sweep::{CellSpan, SpanOutcome, SweepObserver, SweepSnapshot};
