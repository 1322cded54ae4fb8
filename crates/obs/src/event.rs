//! The prefetch-lifecycle event taxonomy and the [`Tracer`] sink trait.
//!
//! A prefetch moves through `Issued → Admitted | Dropped | Redundant`,
//! an admitted one through `DramFetch? → Fill(level)* → Useful(late?) |
//! Useless` (useless = evicted or invalidated before any demand hit).
//! Demand misses, writebacks, MSHR stalls, PQ enqueues, and DRAM
//! traffic round out the set so a trace of these events reconstructs
//! the full memory-system timeline.
//!
//! The hot path is instrumented generically: every emit site is a call
//! on a `T: Tracer` type parameter, so with the zero-sized
//! [`NullTracer`] the calls monomorphise to nothing — no branch, no
//! allocation, no measurable cost.
//!
//! Tracers compose as pairs: `(A, B)` forwards every event to `A` and
//! then to `B`, and nesting (`(A, (B, C))`) combines more, so one run
//! can feed counters, a tail ring and the flight recorder at once.

use pmp_types::{CacheLevel, LineAddr, Provenance};

/// Which resource rejected a prefetch at admission control.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// The target level's prefetch queue had no free entry.
    Pq,
    /// A fill level's MSHRs were too full to admit a prefetch.
    Mshr,
}

impl DropReason {
    /// Stable snake_case tag for reports.
    pub fn tag(self) -> &'static str {
        match self {
            DropReason::Pq => "pq",
            DropReason::Mshr => "mshr",
        }
    }
}

/// One memory-system event, stamped with the cycle it happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A prefetcher handed the request to the memory system.
    PrefetchIssued {
        /// Target line.
        line: LineAddr,
        /// Requested fill level.
        level: CacheLevel,
        /// Issue cycle.
        cycle: u64,
        /// The scheme-internal decision that produced the request.
        provenance: Provenance,
    },
    /// The request passed admission control; its fill completes
    /// `latency` cycles after issue.
    PrefetchAdmitted {
        /// Target line.
        line: LineAddr,
        /// Requested fill level.
        level: CacheLevel,
        /// Issue cycle.
        cycle: u64,
        /// Issue→fill latency in cycles.
        latency: u64,
        /// The scheme-internal decision that produced the request.
        provenance: Provenance,
    },
    /// Rejected: the target level's PQ or MSHRs were full.
    PrefetchDropped {
        /// Target line.
        line: LineAddr,
        /// Requested fill level.
        level: CacheLevel,
        /// Issue cycle.
        cycle: u64,
        /// Which resource rejected it.
        reason: DropReason,
        /// The scheme-internal decision that produced the request.
        provenance: Provenance,
    },
    /// Rejected: the line was already resident at or inside the target.
    PrefetchRedundant {
        /// Target line.
        line: LineAddr,
        /// Requested fill level.
        level: CacheLevel,
        /// Issue cycle.
        cycle: u64,
        /// The scheme-internal decision that produced the request.
        provenance: Provenance,
    },
    /// A prefetched line was installed into a cache level.
    PrefetchFill {
        /// Filled line.
        line: LineAddr,
        /// Level that received the fill.
        level: CacheLevel,
        /// Cycle the fill was initiated.
        cycle: u64,
    },
    /// A demand access hit a prefetched line (first use).
    PrefetchUseful {
        /// The line.
        line: LineAddr,
        /// Level where the demand found it.
        level: CacheLevel,
        /// Cycle of the demand access.
        cycle: u64,
        /// The fill was still in flight — the prefetch was late.
        late: bool,
    },
    /// A prefetched line left the cache without ever being used.
    PrefetchUseless {
        /// The line.
        line: LineAddr,
        /// Level it was evicted from.
        level: CacheLevel,
        /// Eviction cycle.
        cycle: u64,
    },
    /// A demand access missed L1D; `latency` is its full resolution
    /// time (queuing, hierarchy walk, DRAM if needed).
    DemandMiss {
        /// Missed line.
        line: LineAddr,
        /// Cycle of the access.
        cycle: u64,
        /// Total miss latency in cycles.
        latency: u64,
    },
    /// A dirty line was evicted from a cache level.
    Writeback {
        /// The victim line.
        line: LineAddr,
        /// Level it left.
        level: CacheLevel,
        /// Eviction cycle.
        cycle: u64,
    },
    /// A line was fetched from DRAM.
    DramFetch {
        /// Fetched line.
        line: LineAddr,
        /// Cycle the request reached DRAM.
        cycle: u64,
        /// Latency including channel queuing.
        latency: u64,
    },
    /// A dirty LLC victim was written to DRAM.
    DramWriteback {
        /// Written line.
        line: LineAddr,
        /// Cycle of the write.
        cycle: u64,
    },
    /// A demand miss waited for a free MSHR entry.
    MshrStall {
        /// Stalled level.
        level: CacheLevel,
        /// Cycle the stall began.
        cycle: u64,
        /// Cycles waited.
        wait: u64,
    },
    /// A prefetch occupied a PQ entry.
    PqEnqueue {
        /// The queue's level.
        level: CacheLevel,
        /// Enqueue cycle.
        cycle: u64,
        /// Entries occupied after the enqueue.
        occupancy: u32,
    },
}

/// Discriminant of a [`TraceEvent`], used for counting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum EventKind {
    /// [`TraceEvent::PrefetchIssued`].
    PrefetchIssued,
    /// [`TraceEvent::PrefetchAdmitted`].
    PrefetchAdmitted,
    /// [`TraceEvent::PrefetchDropped`].
    PrefetchDropped,
    /// [`TraceEvent::PrefetchRedundant`].
    PrefetchRedundant,
    /// [`TraceEvent::PrefetchFill`].
    PrefetchFill,
    /// [`TraceEvent::PrefetchUseful`].
    PrefetchUseful,
    /// [`TraceEvent::PrefetchUseless`].
    PrefetchUseless,
    /// [`TraceEvent::DemandMiss`].
    DemandMiss,
    /// [`TraceEvent::Writeback`].
    Writeback,
    /// [`TraceEvent::DramFetch`].
    DramFetch,
    /// [`TraceEvent::DramWriteback`].
    DramWriteback,
    /// [`TraceEvent::MshrStall`].
    MshrStall,
    /// [`TraceEvent::PqEnqueue`].
    PqEnqueue,
}

impl EventKind {
    /// Every kind, in declaration order (= counter index order).
    pub const ALL: [EventKind; 13] = [
        EventKind::PrefetchIssued,
        EventKind::PrefetchAdmitted,
        EventKind::PrefetchDropped,
        EventKind::PrefetchRedundant,
        EventKind::PrefetchFill,
        EventKind::PrefetchUseful,
        EventKind::PrefetchUseless,
        EventKind::DemandMiss,
        EventKind::Writeback,
        EventKind::DramFetch,
        EventKind::DramWriteback,
        EventKind::MshrStall,
        EventKind::PqEnqueue,
    ];

    /// Stable snake_case name (report/CSV column key).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::PrefetchIssued => "pf_issued",
            EventKind::PrefetchAdmitted => "pf_admitted",
            EventKind::PrefetchDropped => "pf_dropped",
            EventKind::PrefetchRedundant => "pf_redundant",
            EventKind::PrefetchFill => "pf_fill",
            EventKind::PrefetchUseful => "pf_useful",
            EventKind::PrefetchUseless => "pf_useless",
            EventKind::DemandMiss => "demand_miss",
            EventKind::Writeback => "writeback",
            EventKind::DramFetch => "dram_fetch",
            EventKind::DramWriteback => "dram_writeback",
            EventKind::MshrStall => "mshr_stall",
            EventKind::PqEnqueue => "pq_enqueue",
        }
    }
}

impl TraceEvent {
    /// This event's [`EventKind`].
    pub fn kind(&self) -> EventKind {
        match self {
            TraceEvent::PrefetchIssued { .. } => EventKind::PrefetchIssued,
            TraceEvent::PrefetchAdmitted { .. } => EventKind::PrefetchAdmitted,
            TraceEvent::PrefetchDropped { .. } => EventKind::PrefetchDropped,
            TraceEvent::PrefetchRedundant { .. } => EventKind::PrefetchRedundant,
            TraceEvent::PrefetchFill { .. } => EventKind::PrefetchFill,
            TraceEvent::PrefetchUseful { .. } => EventKind::PrefetchUseful,
            TraceEvent::PrefetchUseless { .. } => EventKind::PrefetchUseless,
            TraceEvent::DemandMiss { .. } => EventKind::DemandMiss,
            TraceEvent::Writeback { .. } => EventKind::Writeback,
            TraceEvent::DramFetch { .. } => EventKind::DramFetch,
            TraceEvent::DramWriteback { .. } => EventKind::DramWriteback,
            TraceEvent::MshrStall { .. } => EventKind::MshrStall,
            TraceEvent::PqEnqueue { .. } => EventKind::PqEnqueue,
        }
    }

    /// The cycle stamped on the event.
    pub fn cycle(&self) -> u64 {
        match *self {
            TraceEvent::PrefetchIssued { cycle, .. }
            | TraceEvent::PrefetchAdmitted { cycle, .. }
            | TraceEvent::PrefetchDropped { cycle, .. }
            | TraceEvent::PrefetchRedundant { cycle, .. }
            | TraceEvent::PrefetchFill { cycle, .. }
            | TraceEvent::PrefetchUseful { cycle, .. }
            | TraceEvent::PrefetchUseless { cycle, .. }
            | TraceEvent::DemandMiss { cycle, .. }
            | TraceEvent::Writeback { cycle, .. }
            | TraceEvent::DramFetch { cycle, .. }
            | TraceEvent::DramWriteback { cycle, .. }
            | TraceEvent::MshrStall { cycle, .. }
            | TraceEvent::PqEnqueue { cycle, .. } => cycle,
        }
    }
}

/// A sink for [`TraceEvent`]s.
///
/// Simulator hot paths are generic over `T: Tracer`; the default
/// [`NullTracer`] is a ZST whose `emit` is an empty inline function, so
/// uninstrumented runs pay nothing.
pub trait Tracer {
    /// Record one event.
    fn emit(&mut self, event: TraceEvent);
}

/// The no-op tracer: zero-sized, `emit` compiles to nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullTracer;

impl Tracer for NullTracer {
    #[inline(always)]
    fn emit(&mut self, _event: TraceEvent) {}
}

impl<A: Tracer, B: Tracer> Tracer for (A, B) {
    #[inline]
    fn emit(&mut self, event: TraceEvent) {
        self.0.emit(event);
        self.1.emit(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_roundtrip_and_names_unique() {
        let ev = TraceEvent::PrefetchIssued {
            line: LineAddr(1),
            level: CacheLevel::L1D,
            cycle: 9,
            provenance: Provenance::NONE,
        };
        assert_eq!(ev.kind(), EventKind::PrefetchIssued);
        assert_eq!(ev.cycle(), 9);
        let mut names: Vec<&str> = EventKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EventKind::ALL.len());
    }

    #[test]
    fn null_tracer_is_zero_sized() {
        assert_eq!(std::mem::size_of::<NullTracer>(), 0);
        let mut t = NullTracer;
        t.emit(TraceEvent::DramWriteback { line: LineAddr(0), cycle: 0 });
    }

    #[test]
    fn pair_delivers_every_event_to_both_in_order() {
        use std::cell::RefCell;
        use std::rc::Rc;
        // Each member logs (member id, event cycle) into one shared
        // log, so the interleaving shows delivery order.
        struct Log(u8, Rc<RefCell<Vec<(u8, u64)>>>);
        impl Tracer for Log {
            fn emit(&mut self, e: TraceEvent) {
                self.1.borrow_mut().push((self.0, e.cycle()));
            }
        }
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut t = (Log(0, log.clone()), (Log(1, log.clone()), Log(2, log.clone())));
        for cycle in [3, 7] {
            t.emit(TraceEvent::DramWriteback { line: LineAddr(cycle), cycle });
        }
        assert_eq!(*log.borrow(), [(0, 3), (1, 3), (2, 3), (0, 7), (1, 7), (2, 7)]);
        assert_eq!(std::mem::size_of::<(NullTracer, NullTracer)>(), 0);
    }
}
