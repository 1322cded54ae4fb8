//! A bounded ring-buffered event recorder.
//!
//! Keeps the last `capacity` events and a total count of everything
//! ever emitted — enough to tail a run's final moments without
//! unbounded memory, in the spirit of hardware trace buffers.

use crate::event::{TraceEvent, Tracer};

/// Records the most recent `capacity` events.
#[derive(Debug, Clone)]
pub struct RingRecorder {
    buf: Vec<TraceEvent>,
    capacity: usize,
    /// Index of the next write (wraps).
    next: usize,
    total: u64,
}

impl RingRecorder {
    /// Create a recorder holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        RingRecorder { buf: Vec::with_capacity(capacity), capacity, next: 0, total: 0 }
    }

    /// Events currently retained (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events ever emitted, including overwritten ones.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        let split = if self.buf.len() < self.capacity { 0 } else { self.next };
        self.buf[split..].iter().chain(self.buf[..split].iter())
    }
}

impl Tracer for RingRecorder {
    /// Append an event, overwriting the oldest once full.
    #[inline]
    fn emit(&mut self, event: TraceEvent) {
        if self.buf.len() < self.capacity {
            self.buf.push(event);
        } else {
            self.buf[self.next] = event;
        }
        self.next = (self.next + 1) % self.capacity;
        self.total += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmp_types::LineAddr;

    fn ev(cycle: u64) -> TraceEvent {
        TraceEvent::DramWriteback { line: LineAddr(cycle), cycle }
    }

    #[test]
    fn fills_in_order_before_wrap() {
        let mut r = RingRecorder::new(4);
        assert!(r.is_empty());
        for c in 0..3 {
            r.emit(ev(c));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.total(), 3);
        let cycles: Vec<u64> = r.iter().map(|e| e.cycle()).collect();
        assert_eq!(cycles, vec![0, 1, 2]);
    }

    #[test]
    fn wraparound_keeps_newest_in_order() {
        let mut r = RingRecorder::new(4);
        for c in 0..10 {
            r.emit(ev(c));
        }
        assert_eq!(r.len(), 4, "retains exactly capacity");
        assert_eq!(r.total(), 10, "total counts overwritten events");
        let cycles: Vec<u64> = r.iter().map(|e| e.cycle()).collect();
        assert_eq!(cycles, vec![6, 7, 8, 9], "oldest-first after wrap");
    }

    #[test]
    fn exact_capacity_boundary() {
        let mut r = RingRecorder::new(3);
        for c in 0..3 {
            r.emit(ev(c));
        }
        let cycles: Vec<u64> = r.iter().map(|e| e.cycle()).collect();
        assert_eq!(cycles, vec![0, 1, 2]);
        r.emit(ev(3));
        let cycles: Vec<u64> = r.iter().map(|e| e.cycle()).collect();
        assert_eq!(cycles, vec![1, 2, 3]);
    }

    #[test]
    fn works_as_tracer() {
        let mut r = RingRecorder::new(2);
        Tracer::emit(&mut r, ev(5));
        assert_eq!(r.total(), 1);
    }
}
