//! # pmp-sim
//!
//! A trace-driven, cycle-based cache-hierarchy simulator in the spirit
//! of ChampSim, built as the evaluation substrate for the PMP
//! reproduction.
//!
//! The simulator models the parts of a modern memory subsystem that
//! determine prefetcher quality:
//!
//! * a three-level inclusive cache hierarchy (L1D / L2C / LLC) with true
//!   LRU, write-allocate, back-invalidation, per-level MSHRs and
//!   prefetch queues ([`hierarchy`]);
//! * a DRAM model with fixed access latency plus a bandwidth-limited
//!   channel (configured in MT/s like the paper's Fig. 12a sweep)
//!   ([`dram`]);
//! * an out-of-order-lite core: a 352-entry ROB dispatching and retiring
//!   `width` instructions per cycle, load/store queues, and optional
//!   load→load dependencies so pointer-chasing traces serialise
//!   ([`cpu`]);
//! * one system type for N cores, [`MultiCoreSystem`], owning the
//!   per-op pipeline (dispatch, demand access, event delivery,
//!   prefetcher training, prefetch issue, measured-window accounting)
//!   exactly once, and [`System`], its 1-core face ([`system`]), with
//!   the paper's Table IV configuration as defaults ([`config`]).
//!
//! Prefetchers attach at the L1D through the
//! [`pmp_prefetch::Prefetcher`] trait and are trained on demand loads,
//! exactly as in the paper's single-level evaluation setup.
//!
//! ## Example
//!
//! ```
//! use pmp_sim::{System, SystemConfig};
//! use pmp_prefetch::NextLine;
//! use pmp_types::{MemAccess, Addr, Pc, TraceOp};
//!
//! // A tiny streaming trace: 512 sequential loads, one instruction each.
//! let ops: Vec<TraceOp> = (0..512)
//!     .map(|i| TraceOp::new(MemAccess::load(Pc(0x400), Addr(0x10_0000 + i * 64)), 0, false))
//!     .collect();
//!
//! let cfg = SystemConfig::default();
//! let base = System::new(cfg.clone(), Box::new(pmp_prefetch::NoPrefetch)).run(&ops, 0);
//! let next = System::new(cfg, Box::new(NextLine::new(4))).run(&ops, 0);
//! assert!(next.cycles <= base.cycles);
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod cache;
pub mod config;
pub mod cpu;
#[cfg(test)]
mod cpu_ref;
pub mod dram;
mod engine;
pub mod hierarchy;
#[cfg(test)]
mod hierarchy_ref;
pub mod mshr;
pub mod queue;
pub mod stats;
pub mod system;
pub mod tlb;

pub use config::{CacheConfig, CoreConfig, DramConfig, SystemConfig};
pub use engine::{CoreDramTraffic, MultiCoreResult, MultiCoreSystem};
pub use tlb::{Tlb, TlbConfig};
pub use hierarchy::{CoreMem, SharedMem};
pub use pmp_obs::{
    EventKind, IntervalSample, IntervalSampler, NullTracer, ObsCollector, SampleInput, TraceEvent,
    Tracer,
};
pub use stats::{LevelStats, SimStats};
pub use system::{SimResult, System};
