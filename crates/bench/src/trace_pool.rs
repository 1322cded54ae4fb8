//! The benchmark's pre-run check asks whether a cross-grid trace pool
//! is installed. None can be: every grid owns its [`TraceCache`] and
//! frees each trace after its last cell. Delete this module with the
//! next change to the benchmark.

use pmp_traces::TraceCache;
use std::sync::Arc;

/// The installed cross-grid trace pool: always `None`.
pub fn global() -> Option<Arc<TraceCache>> {
    None
}
