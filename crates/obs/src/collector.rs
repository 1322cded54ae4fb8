//! The standard event collector: per-kind counts and latency
//! histograms behind one [`Tracer`] impl. Pair it with a
//! [`RingRecorder`](crate::RingRecorder) to keep the tail of the raw
//! event stream as well.

use crate::event::{DropReason, EventKind, TraceEvent, Tracer};
use crate::hist::Log2Histogram;

/// Aggregates a run's event stream into counters and histograms.
#[derive(Debug, Clone, Default)]
pub struct ObsCollector {
    counts: [u64; EventKind::ALL.len()],
    pf_latency: Log2Histogram,
    demand_latency: Log2Histogram,
    dram_latency: Log2Histogram,
    late_useful: u64,
    dropped_pq: u64,
    dropped_mshr: u64,
}

impl ObsCollector {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Events seen of `kind`.
    pub fn count(&self, kind: EventKind) -> u64 {
        self.counts[kind as usize]
    }

    /// All `(kind, count)` pairs in taxonomy order.
    pub fn counts(&self) -> impl Iterator<Item = (EventKind, u64)> + '_ {
        EventKind::ALL.iter().map(|&k| (k, self.counts[k as usize]))
    }

    /// Total events of any kind.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Useful prefetches whose fill was still in flight at first use.
    pub fn late_useful(&self) -> u64 {
        self.late_useful
    }

    /// Prefetches rejected because the prefetch queue was full.
    pub fn dropped_pq(&self) -> u64 {
        self.dropped_pq
    }

    /// Prefetches rejected because MSHRs were too full.
    pub fn dropped_mshr(&self) -> u64 {
        self.dropped_mshr
    }

    /// Histogram of prefetch issue→fill latencies (admitted requests).
    pub fn pf_latency(&self) -> &Log2Histogram {
        &self.pf_latency
    }

    /// Histogram of demand L1D-miss resolution latencies.
    pub fn demand_latency(&self) -> &Log2Histogram {
        &self.demand_latency
    }

    /// Histogram of DRAM fetch latencies (incl. channel queuing).
    pub fn dram_latency(&self) -> &Log2Histogram {
        &self.dram_latency
    }
}

impl Tracer for ObsCollector {
    fn emit(&mut self, event: TraceEvent) {
        self.counts[event.kind() as usize] += 1;
        match event {
            TraceEvent::PrefetchAdmitted { latency, .. } => self.pf_latency.record(latency),
            TraceEvent::DemandMiss { latency, .. } => self.demand_latency.record(latency),
            TraceEvent::DramFetch { latency, .. } => self.dram_latency.record(latency),
            TraceEvent::PrefetchUseful { late: true, .. } => self.late_useful += 1,
            TraceEvent::PrefetchDropped { reason: DropReason::Pq, .. } => self.dropped_pq += 1,
            TraceEvent::PrefetchDropped { reason: DropReason::Mshr, .. } => self.dropped_mshr += 1,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::RingRecorder;
    use pmp_types::{CacheLevel, LineAddr, Provenance};

    #[test]
    fn counts_and_histograms_accumulate() {
        let mut c = (ObsCollector::new(), RingRecorder::new(8));
        c.emit(TraceEvent::PrefetchIssued {
            line: LineAddr(1),
            level: CacheLevel::L1D,
            cycle: 0,
            provenance: Provenance::NONE,
        });
        c.emit(TraceEvent::PrefetchAdmitted {
            line: LineAddr(1),
            level: CacheLevel::L1D,
            cycle: 0,
            latency: 170,
            provenance: Provenance::NONE,
        });
        c.emit(TraceEvent::PrefetchUseful {
            line: LineAddr(1),
            level: CacheLevel::L1D,
            cycle: 40,
            late: true,
        });
        c.emit(TraceEvent::DemandMiss { line: LineAddr(9), cycle: 50, latency: 205 });
        let (c, ring) = &c;
        assert_eq!(c.count(EventKind::PrefetchIssued), 1);
        assert_eq!(c.count(EventKind::PrefetchAdmitted), 1);
        assert_eq!(c.count(EventKind::PrefetchDropped), 0);
        assert_eq!(c.late_useful(), 1);
        assert_eq!(c.pf_latency().count(), 1);
        assert_eq!(c.demand_latency().count(), 1);
        assert_eq!(c.total(), 4);
        assert_eq!(ring.total(), 4);
    }

    #[test]
    fn drop_reasons_split() {
        let mut c = ObsCollector::new();
        for (i, reason) in [DropReason::Pq, DropReason::Mshr, DropReason::Pq].iter().enumerate() {
            c.emit(TraceEvent::PrefetchDropped {
                line: LineAddr(i as u64),
                level: CacheLevel::L1D,
                cycle: i as u64,
                reason: *reason,
                provenance: Provenance::NONE,
            });
        }
        assert_eq!(c.count(EventKind::PrefetchDropped), 3);
        assert_eq!(c.dropped_pq(), 2);
        assert_eq!(c.dropped_mshr(), 1);
    }
}
