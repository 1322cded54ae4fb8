//! Shared read-only trace cache for grid sweeps.
//!
//! A `cells × kinds` grid runs every cell once per prefetcher kind, and
//! historically each (cell, kind) pair re-generated its synthetic trace
//! (or re-decoded its `.pmpt` file) from scratch — a 125-trace ×
//! 19-kind grid paid for 2375 trace builds to obtain 125 distinct
//! traces. A [`TraceCache`] shares each materialised trace as an
//! immutable [`Arc<Trace>`] across every kind that needs it, so a grid
//! builds each distinct trace exactly once.
//!
//! ## Keys
//!
//! Synthetic traces are keyed by the full `Debug` rendering of their
//! [`TraceSpec`] plus the [`TraceScale`] — the complete
//! parameterisation, so two specs sharing a display name but not a
//! recipe never alias. Files are keyed by path.
//!
//! ## Concurrency
//!
//! Synthetic entries use a per-key [`OnceLock`]: the cache's map lock
//! is held only long enough to fetch or insert the slot, and the
//! (possibly expensive) generator runs outside it via
//! `OnceLock::get_or_init` — distinct traces build concurrently, the
//! same trace builds exactly once, and threads requesting an
//! in-progress trace block until it lands. A panicking generator leaves
//! its slot uninitialised (no poisoning) and the panic propagates into
//! the requesting cell's isolation boundary; a later request retries
//! the build.
//!
//! ## Lifetime
//!
//! A cache is scoped to one grid: the runner constructs it at the top
//! of `run_grid`, every worker shares it by reference, and it drops
//! with the grid. Within the grid it holds a trace only while some cell
//! still needs it: the runner announces each synthetic spec's uses up
//! front ([`TraceCache::plan`]) and gives one back after every cell
//! that loads it ([`TraceCache::release`]), whatever the cell's outcome.
//! The release that brings a key's count to zero drops the cache's
//! [`Arc`]; cells still running keep their own clones. Release comes
//! only after a use has finished, so a planned trace is still built
//! exactly once. With the grid run trace-major (all kinds of one trace
//! back to back), peak memory is about one trace per worker rather than
//! every distinct trace of the grid. Keys never planned are retained
//! for the cache's lifetime, which for a single `run_cell` is one cell.
//!
//! [`TraceCache::retained_bytes`] and its high-water mark
//! [`TraceCache::peak_bytes`] are counters moved on every build and
//! release, not sums over the map.

use crate::catalog::TraceSpec;
use crate::io::read_trace_file;
use crate::trace::{Trace, TraceScale};
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// One synthetic-trace slot plus its outstanding planned uses.
#[derive(Debug, Default)]
struct SynthEntry {
    slot: Arc<OnceLock<Arc<Trace>>>,
    /// Uses announced by [`TraceCache::plan`] and not yet released; the
    /// entry drops when a release brings it to zero. Zero for a key
    /// never planned, which is retained.
    planned: usize,
}

/// Approximate heap footprint of a materialised trace: the ops vector
/// dominates (name/suite are noise at any realistic scale).
fn trace_bytes(trace: &Trace) -> usize {
    trace.ops.len() * std::mem::size_of::<pmp_types::TraceOp>()
}

/// Shares materialised traces across the cells of one grid. See the
/// module docs for keying, concurrency and lifetime.
#[derive(Debug, Default)]
pub struct TraceCache {
    /// Synthetic traces: spec+scale key → build-once slot + planned uses.
    synth: Mutex<HashMap<String, SynthEntry>>,
    /// Decoded `.pmpt` files by path (read errors are never cached —
    /// a transient IO failure should not poison later cells).
    files: Mutex<HashMap<PathBuf, Arc<Trace>>>,
    /// Traces requested (every `get_*` call).
    requests: AtomicUsize,
    /// Traces actually generated or decoded.
    builds: AtomicUsize,
    /// Bytes of materialised synthetic traces the map holds.
    retained: AtomicUsize,
    /// High-water mark of `retained`.
    peak: AtomicUsize,
}

impl TraceCache {
    /// An empty cache.
    pub fn new() -> Self {
        TraceCache::default()
    }

    /// The map key of `spec` at `scale`: the full parameterisation.
    fn synth_key(spec: &TraceSpec, scale: TraceScale) -> String {
        format!("{spec:?}|{scale:?}")
    }

    /// Announce `uses` more requests for `spec` at `scale`, each to be
    /// given back with [`TraceCache::release`] once it has finished.
    /// Counts add up, so a spec planned twice needs both sets released.
    pub fn plan(&self, spec: &TraceSpec, scale: TraceScale, uses: usize) {
        let mut map = self.synth.lock().unwrap_or_else(PoisonError::into_inner);
        map.entry(Self::synth_key(spec, scale)).or_default().planned += uses;
    }

    /// Give back one planned use of `spec` at `scale`, whether or not
    /// it requested the trace. The last release drops the cache's
    /// [`Arc`] (callers' clones live on); releasing a key that was never
    /// planned does nothing. Release a use only after its request has
    /// returned, or the trace may be built again.
    pub fn release(&self, spec: &TraceSpec, scale: TraceScale) {
        let key = Self::synth_key(spec, scale);
        let mut map = self.synth.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(entry) = map.get_mut(&key) else { return };
        if entry.planned == 0 {
            return;
        }
        entry.planned -= 1;
        if entry.planned == 0 {
            if let Some(trace) = map.remove(&key).as_ref().and_then(|e| e.slot.get()) {
                self.retained.fetch_sub(trace_bytes(trace), Ordering::Relaxed);
            }
        }
    }

    /// The materialised trace for `spec` at `scale`, building it on
    /// first request and sharing the same [`Arc`] thereafter (until its
    /// last planned use is released).
    ///
    /// # Panics
    ///
    /// Propagates a panicking generator to the caller (the slot stays
    /// uninitialised, so a later request retries).
    pub fn get_synthetic(&self, spec: &TraceSpec, scale: TraceScale) -> Arc<Trace> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let slot = {
            let mut map = self.synth.lock().unwrap_or_else(PoisonError::into_inner);
            map.entry(Self::synth_key(spec, scale)).or_default().slot.clone()
        };
        slot
            .get_or_init(|| {
                self.builds.fetch_add(1, Ordering::Relaxed);
                let trace = Arc::new(spec.build(scale));
                // Counted before the slot is visible as built, so a
                // removal that sees it built always has bytes to take.
                let bytes = trace_bytes(&trace);
                let now = self.retained.fetch_add(bytes, Ordering::Relaxed) + bytes;
                self.peak.fetch_max(now, Ordering::Relaxed);
                trace
            })
            .clone()
    }

    /// The decoded trace for the file at `path`, reading it on first
    /// request.
    ///
    /// # Errors
    ///
    /// Propagates [`read_trace_file`] errors; failed reads are not
    /// cached, so every requesting cell observes the error itself.
    pub fn get_file(&self, path: &Path) -> io::Result<Arc<Trace>> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        if let Some(trace) = self
            .files
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(path)
        {
            return Ok(trace.clone());
        }
        // Decode outside the lock: concurrent first requests for the
        // same path may both read (harmless — last insert wins and the
        // build counter reflects the duplicate work honestly).
        self.builds.fetch_add(1, Ordering::Relaxed);
        let trace = Arc::new(read_trace_file(path)?);
        self.files
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(path.to_path_buf(), trace.clone());
        Ok(trace)
    }

    /// Traces requested through the cache so far.
    pub fn requests(&self) -> usize {
        self.requests.load(Ordering::Relaxed)
    }

    /// Traces actually generated or decoded (the cache's miss count).
    pub fn builds(&self) -> usize {
        self.builds.load(Ordering::Relaxed)
    }

    /// Requests served without building — `requests() - builds()`.
    pub fn hits(&self) -> usize {
        self.requests().saturating_sub(self.builds())
    }

    /// Approximate bytes of materialised synthetic traces currently
    /// retained.
    pub fn retained_bytes(&self) -> usize {
        self.retained.load(Ordering::Relaxed)
    }

    /// High-water mark of [`TraceCache::retained_bytes`] over the
    /// cache's lifetime.
    pub fn peak_bytes(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::catalog;

    #[test]
    fn same_spec_builds_once_and_shares_the_arc() {
        let cache = TraceCache::new();
        let spec = &catalog()[0];
        let a = cache.get_synthetic(spec, TraceScale::Tiny);
        let b = cache.get_synthetic(spec, TraceScale::Tiny);
        assert!(Arc::ptr_eq(&a, &b), "second request shares the first build");
        assert_eq!(cache.requests(), 2);
        assert_eq!(cache.builds(), 1);
        assert_eq!(cache.hits(), 1);
        assert_eq!(a.ops, spec.build(TraceScale::Tiny).ops, "cached trace is the real one");
    }

    #[test]
    fn scale_is_part_of_the_key() {
        let cache = TraceCache::new();
        let spec = &catalog()[0];
        let tiny = cache.get_synthetic(spec, TraceScale::Tiny);
        let small = cache.get_synthetic(spec, TraceScale::Small);
        assert_eq!(cache.builds(), 2, "different scales are different traces");
        assert!(tiny.ops.len() < small.ops.len());
    }

    #[test]
    fn same_name_different_recipe_never_aliases() {
        let cache = TraceCache::new();
        let a = catalog()[0].clone();
        let mut b = catalog()[1].clone();
        b.name = a.name.clone();
        let ta = cache.get_synthetic(&a, TraceScale::Tiny);
        let tb = cache.get_synthetic(&b, TraceScale::Tiny);
        assert_eq!(cache.builds(), 2, "full parameterisation keys the cache, not the name");
        assert_ne!(ta.ops, tb.ops);
    }

    #[test]
    fn concurrent_requests_build_exactly_once() {
        let cache = TraceCache::new();
        let spec = catalog()[0].clone();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| cache.get_synthetic(&spec, TraceScale::Tiny));
            }
        });
        assert_eq!(cache.requests(), 8);
        assert_eq!(cache.builds(), 1, "racing requests coalesce onto one build");
    }

    #[test]
    fn panicking_generator_is_retried_not_poisoned() {
        let cache = TraceCache::new();
        let bad = panicking_spec();
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_synthetic(&bad, TraceScale::Tiny)
        }));
        assert!(attempt.is_err(), "invalid recipe must panic through the cache");
        // The slot is uninitialised, not poisoned: a healthy spec with
        // the same cache still works, and retrying the bad one panics
        // again instead of deadlocking.
        let ok = cache.get_synthetic(&catalog()[0], TraceScale::Tiny);
        assert!(!ok.ops.is_empty());
        let retry = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_synthetic(&bad, TraceScale::Tiny)
        }));
        assert!(retry.is_err());
    }

    /// A recipe whose generator panics at build time: a graph with
    /// fewer than 1024 vertices trips the generator's own assert
    /// (unlike most invalid recipes, which only pre-flight validation
    /// rejects).
    fn panicking_spec() -> TraceSpec {
        let mut bad = catalog()[0].clone();
        bad.archetype = crate::archetypes::Archetype::Graph(crate::archetypes::GraphGen {
            vertices: 10,
            avg_degree: 1,
            neighbor_prob: 0.1,
            gap_mean: 20,
            store_fraction: 0.1,
        });
        bad
    }

    #[test]
    fn release_drops_planned_key_on_last_use_and_caller_arc_outlives_it() {
        let cache = TraceCache::new();
        let spec = &catalog()[0];
        cache.plan(spec, TraceScale::Tiny, 2);
        let a = cache.get_synthetic(spec, TraceScale::Tiny);
        let bytes = trace_bytes(&a);
        assert_eq!(cache.retained_bytes(), bytes);
        cache.release(spec, TraceScale::Tiny);
        assert_eq!(cache.retained_bytes(), bytes, "one planned use is still open");
        let b = cache.get_synthetic(spec, TraceScale::Tiny);
        assert!(Arc::ptr_eq(&a, &b), "the second use shares the first build");
        assert_eq!(cache.builds(), 1);
        cache.release(spec, TraceScale::Tiny);
        assert_eq!(cache.retained_bytes(), 0, "the last release drops the cache's Arc");
        assert!(cache.synth.lock().expect("map lock").is_empty(), "no count is left behind");
        assert_eq!(cache.peak_bytes(), bytes);
        assert_eq!(Arc::strong_count(&a), 2, "only the callers' clones remain");
        assert_eq!(a.ops, spec.build(TraceScale::Tiny).ops, "the caller's trace outlives the drop");
    }

    #[test]
    fn release_leaves_unplanned_keys_retained() {
        let cache = TraceCache::new();
        let (planned, unplanned) = (&catalog()[0], &catalog()[1]);
        cache.plan(planned, TraceScale::Tiny, 1);
        let _p = cache.get_synthetic(planned, TraceScale::Tiny);
        let u = cache.get_synthetic(unplanned, TraceScale::Tiny);
        let both = cache.retained_bytes();
        cache.release(planned, TraceScale::Tiny);
        cache.release(unplanned, TraceScale::Tiny);
        cache.release(unplanned, TraceScale::Tiny);
        assert_eq!(cache.retained_bytes(), trace_bytes(&u), "only the planned key dropped");
        assert_eq!(cache.peak_bytes(), both);
        let again = cache.get_synthetic(unplanned, TraceScale::Tiny);
        assert!(Arc::ptr_eq(&u, &again), "an unplanned key is shared as before");
        assert_eq!(cache.builds(), 2);
    }

    #[test]
    fn release_after_panicking_generator_retries_and_does_not_leak() {
        let cache = TraceCache::new();
        let bad = panicking_spec();
        cache.plan(&bad, TraceScale::Tiny, 2);
        for attempt in 1..=2 {
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                cache.get_synthetic(&bad, TraceScale::Tiny)
            }));
            assert!(run.is_err(), "attempt {attempt} must panic through the cache");
            assert_eq!(cache.builds(), attempt, "a failed build is retried, not poisoned");
            cache.release(&bad, TraceScale::Tiny);
        }
        assert!(cache.synth.lock().expect("map lock").is_empty(), "the count did not leak");
        assert_eq!(cache.retained_bytes(), 0);
        assert_eq!(cache.peak_bytes(), 0, "a build that panicked retained nothing");
    }

    #[test]
    fn file_reads_cache_successes_but_not_errors() {
        let dir = std::env::temp_dir().join("pmp_trace_cache_file_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("t.pmpt");
        let trace = catalog()[0].build(TraceScale::Tiny);
        crate::io::write_trace_file(&trace, &path).expect("write");

        let cache = TraceCache::new();
        let missing = dir.join("missing.pmpt");
        assert!(cache.get_file(&missing).is_err());
        assert!(cache.get_file(&missing).is_err(), "errors are re-observed, not cached");

        let a = cache.get_file(&path).expect("readable");
        let b = cache.get_file(&path).expect("readable");
        assert!(Arc::ptr_eq(&a, &b), "second read shares the first decode");
        assert_eq!(a.ops, trace.ops);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
