//! A timing adapter around a boxed prefetcher.
//!
//! [`Timed`] forwards every [`Prefetcher`] and [`Introspect`] method to
//! the wrapped prefetcher unchanged and times the callbacks the engine
//! makes during a run. The counters live behind an `Rc` so the caller
//! keeps a handle after the engine takes ownership of the box; the
//! traced run is single-threaded, so no synchronisation is needed.

use pmp_prefetch::{
    AccessInfo, EvictInfo, FeedbackKind, Gauge, Introspect, PrefetchRequest, Prefetcher,
    SnapshotError, StateImage,
};
use pmp_types::LineAddr;
use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

/// Call counts and host time of one prefetcher's callbacks.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CallTimes {
    /// `on_access` calls.
    pub access_calls: u64,
    /// Host nanoseconds inside `on_access`.
    pub access_ns: u64,
    /// Requests `on_access` appended.
    pub requests: u64,
    /// `on_evict`, `on_feedback` and `on_bandwidth` calls.
    pub callback_calls: u64,
    /// Host nanoseconds inside those callbacks.
    pub callback_ns: u64,
}

impl CallTimes {
    /// Host nanoseconds inside every timed callback.
    pub fn total_ns(&self) -> u64 {
        self.access_ns + self.callback_ns
    }

    /// Field-wise `self += other`.
    pub fn add(&mut self, other: &CallTimes) {
        self.access_calls += other.access_calls;
        self.access_ns += other.access_ns;
        self.requests += other.requests;
        self.callback_calls += other.callback_calls;
        self.callback_ns += other.callback_ns;
    }
}

/// A prefetcher wrapper that times every engine callback.
pub struct Timed {
    inner: Box<dyn Prefetcher>,
    times: Rc<Cell<CallTimes>>,
}

impl Timed {
    /// Wrap `inner`; the returned handle reads the counters.
    pub fn wrap(inner: Box<dyn Prefetcher>) -> (Box<dyn Prefetcher>, Rc<Cell<CallTimes>>) {
        let times = Rc::new(Cell::new(CallTimes::default()));
        (
            Box::new(Timed {
                inner,
                times: Rc::clone(&times),
            }),
            times,
        )
    }

    fn callback(&mut self, f: impl FnOnce(&mut dyn Prefetcher)) {
        let start = Instant::now();
        f(self.inner.as_mut());
        let ns = start.elapsed().as_nanos() as u64;
        let mut t = self.times.get();
        t.callback_calls += 1;
        t.callback_ns += ns;
        self.times.set(t);
    }
}

impl Introspect for Timed {
    fn gauges(&self, out: &mut Vec<Gauge>) {
        self.inner.gauges(out);
    }
}

impl Prefetcher for Timed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_access(&mut self, info: &AccessInfo, out: &mut Vec<PrefetchRequest>) {
        let before = out.len();
        let start = Instant::now();
        self.inner.on_access(info, out);
        let ns = start.elapsed().as_nanos() as u64;
        let mut t = self.times.get();
        t.access_calls += 1;
        t.access_ns += ns;
        t.requests += (out.len() - before) as u64;
        self.times.set(t);
    }

    fn on_evict(&mut self, info: &EvictInfo) {
        self.callback(|p| p.on_evict(info));
    }

    fn on_feedback(&mut self, line: LineAddr, kind: FeedbackKind) {
        self.callback(|p| p.on_feedback(line, kind));
    }

    fn on_bandwidth(&mut self, utilization: f64) {
        self.callback(|p| p.on_bandwidth(utilization));
    }

    fn storage_bits(&self) -> u64 {
        self.inner.storage_bits()
    }

    fn save_state(&self) -> Result<StateImage, SnapshotError> {
        self.inner.save_state()
    }

    fn load_state(&mut self, image: &StateImage) -> Result<(), SnapshotError> {
        self.inner.load_state(image)
    }
}
