//! Process-wide trace cache shared across sweep grids.
//!
//! Each grid run ([`crate::runner::run_grid`] and friends) historically
//! created its own [`TraceCache`], so a multi-phase driver like
//! `run_all` rebuilt every synthetic trace once per phase even though
//! the phases sweep largely the same trace set. Installing a global
//! pool here makes every subsequent grid share one cache: the first
//! phase builds each distinct trace, later phases hit.
//!
//! The pool is opt-in and explicit — nothing installs it implicitly, so
//! single-grid callers (tests, one-shot report bins) keep their
//! per-grid cache and their per-grid build/hit accounting. Drivers that
//! opt in pick an explicit byte bound (traces decompress to tens of MiB
//! each; an unbounded cross-phase cache could grow past memory), and
//! the per-grid [`crate::runner::SweepSummary`] telemetry stays a
//! *delta* over the grid, not the process lifetime, so sweep logs and
//! regression assertions read the same either way.

use pmp_traces::TraceCache;
use std::sync::{Arc, Mutex, OnceLock};

/// Default byte bound for driver-installed pools: roomy enough for a
/// full `run_all` trace set, far below typical machine memory.
pub const DEFAULT_POOL_BYTES: usize = 1 << 30;

static POOL: OnceLock<Mutex<Option<Arc<TraceCache>>>> = OnceLock::new();

fn slot() -> &'static Mutex<Option<Arc<TraceCache>>> {
    POOL.get_or_init(|| Mutex::new(None))
}

/// Install `cache` as the process-wide pool and return a handle to it.
/// Replaces any previously installed pool.
pub fn install_global(cache: TraceCache) -> Arc<TraceCache> {
    let cache = Arc::new(cache);
    *slot().lock().expect("trace pool lock") = Some(Arc::clone(&cache));
    cache
}

/// Install a pool with the standard driver byte bound, honouring a
/// `PMP_TRACE_CACHE_BYTES` override (read by [`TraceCache::new`]).
pub fn install_default_global() -> Arc<TraceCache> {
    if std::env::var("PMP_TRACE_CACHE_BYTES").is_ok() {
        install_global(TraceCache::new())
    } else {
        install_global(TraceCache::with_byte_cap(DEFAULT_POOL_BYTES))
    }
}

/// Remove the installed pool (subsequent grids go back to per-grid
/// caches). Returns the pool that was installed, if any.
pub fn clear_global() -> Option<Arc<TraceCache>> {
    slot().lock().expect("trace pool lock").take()
}

/// The installed pool, if any.
pub fn global() -> Option<Arc<TraceCache>> {
    slot().lock().expect("trace pool lock").clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_and_clear_round_trip() {
        // Serialize against anything else touching the pool: this test
        // owns the global for its duration.
        let prior = clear_global();
        assert!(global().is_none());
        let handle = install_global(TraceCache::with_byte_cap(1024));
        let seen = global().expect("pool installed");
        assert!(Arc::ptr_eq(&handle, &seen));
        let removed = clear_global().expect("pool removable");
        assert!(Arc::ptr_eq(&handle, &removed));
        assert!(global().is_none());
        if let Some(p) = prior {
            *slot().lock().expect("trace pool lock") = Some(p);
        }
    }
}
