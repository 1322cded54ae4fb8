//! The prefetch flight recorder: per-request provenance → fate
//! attribution.
//!
//! [`FlightRecorder`] is a [`Tracer`] that follows every issued
//! prefetch from the scheme-internal decision that produced it
//! (its [`Origin`]) to its final **fate** in the hierarchy:
//!
//! | fate | meaning |
//! |---|---|
//! | `useful` | demanded while resident, fill complete in time |
//! | `late_useful` | demanded while the fill was still in flight |
//! | `evicted_unused` | filled, then evicted/invalidated untouched |
//! | `dead_at_end` | still resident and untouched when the run ended |
//! | `dropped_pq` | rejected at admission: prefetch queue full |
//! | `dropped_mshr` | rejected at admission: MSHRs too full |
//! | `redundant` | rejected: line already resident at/inside target |
//!
//! The seven fates **partition** `pf_issued` exactly: every issued
//! prefetch resolves to exactly one of them once [`FlightRecorder::
//! finalize`] has drained the still-in-flight entries to
//! `dead_at_end`. `tests/fate_attribution.rs` property-checks this for
//! every prefetcher kind.
//!
//! Correlation works without an ID plumbed through the memory system:
//! admitted requests are keyed by `(line, fill_level)`. The hierarchy
//! guarantees at most one *marked* (prefetched, unconsumed) copy of a
//! line per level, and a level's marker is owned by the in-flight entry
//! keyed there — `PrefetchUseful`/`PrefetchUseless` events at the fill
//! level resolve the entry; the same events for the request's *outer*
//! shadow fills find no entry and are ignored.
//!
//! Attribution off = [`NullTracer`](crate::NullTracer): the recorder is
//! just another tracer, so the zero-cost-off guarantee of the tracing
//! layer applies unchanged (perfbench's `trace_overhead_frac` reports
//! what a traced run costs over the plain one).

use std::collections::HashMap;

use crate::event::{DropReason, TraceEvent, Tracer};
use crate::hist::Log2Histogram;
use crate::introspect::{Gauge, Introspect};
use pmp_types::json::Json;
use pmp_types::{CacheLevel, LineAddr, Origin};

/// Final outcome of one issued prefetch. See module docs for the
/// taxonomy; [`Fate::ALL`] is the canonical order used for counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Fate {
    /// Demanded while resident; the fill had completed.
    Useful,
    /// Demanded while the fill was still in flight (merged in MSHR).
    LateUseful,
    /// Evicted or back-invalidated without ever being demanded.
    EvictedUnused,
    /// Still resident and untouched when the run ended.
    DeadAtEnd,
    /// Rejected at admission: the prefetch queue was full.
    DroppedPq,
    /// Rejected at admission: MSHRs were too full.
    DroppedMshr,
    /// Rejected: already resident at or inside the target level.
    Redundant,
}

impl Fate {
    /// Every fate, in counter-index order.
    pub const ALL: [Fate; 7] = [
        Fate::Useful,
        Fate::LateUseful,
        Fate::EvictedUnused,
        Fate::DeadAtEnd,
        Fate::DroppedPq,
        Fate::DroppedMshr,
        Fate::Redundant,
    ];

    /// Stable snake_case tag (report/JSON key).
    pub fn tag(self) -> &'static str {
        match self {
            Fate::Useful => "useful",
            Fate::LateUseful => "late_useful",
            Fate::EvictedUnused => "evicted_unused",
            Fate::DeadAtEnd => "dead_at_end",
            Fate::DroppedPq => "dropped_pq",
            Fate::DroppedMshr => "dropped_mshr",
            Fate::Redundant => "redundant",
        }
    }
}

/// Accumulated fates (plus use-distance moments) for one origin.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OriginStats {
    /// Per-fate counts, indexed by `Fate as usize`.
    pub fates: [u64; Fate::ALL.len()],
    /// Sum of issue→first-use cycle distances over useful prefetches.
    pub distance_sum: u64,
    /// Number of distances accumulated (useful + late_useful).
    pub distance_count: u64,
}

impl OriginStats {
    /// Count for one fate.
    pub fn fate(&self, f: Fate) -> u64 {
        self.fates[f as usize]
    }

    /// Total prefetches attributed to this origin (all fates).
    pub fn issued(&self) -> u64 {
        self.fates.iter().sum()
    }

    /// Prefetches that made it into a cache (admitted and filled).
    pub fn landed(&self) -> u64 {
        self.fate(Fate::Useful)
            + self.fate(Fate::LateUseful)
            + self.fate(Fate::EvictedUnused)
            + self.fate(Fate::DeadAtEnd)
    }

    /// Accuracy: (useful + late_useful) / landed. `None` if nothing
    /// landed.
    pub fn accuracy(&self) -> Option<f64> {
        let landed = self.landed();
        if landed == 0 {
            return None;
        }
        Some((self.fate(Fate::Useful) + self.fate(Fate::LateUseful)) as f64 / landed as f64)
    }

    /// Timeliness: useful / (useful + late_useful). `None` if the
    /// origin never produced a useful prefetch.
    pub fn timeliness(&self) -> Option<f64> {
        let used = self.fate(Fate::Useful) + self.fate(Fate::LateUseful);
        if used == 0 {
            return None;
        }
        Some(self.fate(Fate::Useful) as f64 / used as f64)
    }

    /// Pollution share: evicted-unused / landed. `None` if nothing
    /// landed.
    pub fn pollution(&self) -> Option<f64> {
        let landed = self.landed();
        if landed == 0 {
            return None;
        }
        Some(self.fate(Fate::EvictedUnused) as f64 / landed as f64)
    }

    /// Mean issue→use distance in cycles. `None` if never used.
    pub fn mean_distance(&self) -> Option<f64> {
        if self.distance_count == 0 {
            return None;
        }
        Some(self.distance_sum as f64 / self.distance_count as f64)
    }

    fn bump(&mut self, f: Fate) {
        self.fates[f as usize] += 1;
    }

    /// Fold another origin's stats into this one (cross-run or
    /// cross-core aggregation).
    pub fn merge(&mut self, other: &OriginStats) {
        for i in 0..self.fates.len() {
            self.fates[i] += other.fates[i];
        }
        self.distance_sum += other.distance_sum;
        self.distance_count += other.distance_count;
    }
}

#[derive(Debug, Clone, Copy)]
struct InFlight {
    origin: Origin,
    issue_cycle: u64,
}

/// Default cap on distinct origins tracked exactly; the excess is
/// folded into one overflow bucket (fates still conserve).
pub const DEFAULT_MAX_ORIGINS: usize = 4096;

/// The per-request flight recorder. See module docs.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    inflight: HashMap<(LineAddr, CacheLevel), InFlight>,
    origins: HashMap<Origin, OriginStats>,
    overflow: OriginStats,
    overflow_events: u64,
    totals: [u64; Fate::ALL.len()],
    issued: u64,
    useful_distance: Log2Histogram,
    late_distance: Log2Histogram,
    finalized: bool,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl FlightRecorder {
    /// A recorder tracking at most [`DEFAULT_MAX_ORIGINS`] distinct
    /// origins exactly (the rest share one overflow bucket).
    pub fn new() -> Self {
        FlightRecorder {
            inflight: HashMap::new(),
            origins: HashMap::new(),
            overflow: OriginStats::default(),
            overflow_events: 0,
            totals: [0; Fate::ALL.len()],
            issued: 0,
            useful_distance: Log2Histogram::new(),
            late_distance: Log2Histogram::new(),
            finalized: false,
        }
    }

    /// Canonical aggregation key for an origin: high-cardinality
    /// coordinates are coarsened so per-origin tables stay bounded and
    /// meaningful. PMP's merge generation (a raw training-event count)
    /// becomes its log2 bucket; everything else is already coarse.
    fn canonical(origin: Origin) -> Origin {
        match origin {
            Origin::Pmp {
                table,
                entry,
                trigger_offset,
                generation,
            } => Origin::Pmp {
                table,
                entry,
                trigger_offset,
                generation: if generation == 0 {
                    0
                } else {
                    16 - generation.leading_zeros() as u16
                },
            },
            other => other,
        }
    }

    fn record(&mut self, origin: Origin, fate: Fate, distance: Option<u64>) {
        self.totals[fate as usize] += 1;
        match distance {
            Some(d) if fate == Fate::Useful => self.useful_distance.record(d),
            Some(d) if fate == Fate::LateUseful => self.late_distance.record(d),
            _ => {}
        }
        let key = Self::canonical(origin);
        let tracked = self.origins.contains_key(&key) || self.origins.len() < DEFAULT_MAX_ORIGINS;
        let stats = if tracked {
            self.origins.entry(key).or_default()
        } else {
            self.overflow_events += 1;
            &mut self.overflow
        };
        stats.bump(fate);
        if let Some(d) = distance {
            stats.distance_sum += d;
            stats.distance_count += 1;
        }
    }

    /// Resolve every still-in-flight prefetch to `dead_at_end`. Call
    /// once after the run; afterwards the fates partition `pf_issued`.
    pub fn finalize(&mut self) {
        let drained: Vec<InFlight> = self.inflight.drain().map(|(_, v)| v).collect();
        for f in drained {
            self.record(f.origin, Fate::DeadAtEnd, None);
        }
        self.finalized = true;
    }

    /// Prefetches issued (from `PrefetchIssued` events).
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Global count for one fate.
    pub fn total(&self, f: Fate) -> u64 {
        self.totals[f as usize]
    }

    /// Sum of all fate counts. Equals [`FlightRecorder::issued`] after
    /// [`FlightRecorder::finalize`].
    pub fn total_fates(&self) -> u64 {
        self.totals.iter().sum()
    }

    /// Requests admitted but not yet resolved to a fate.
    pub fn inflight_len(&self) -> usize {
        self.inflight.len()
    }

    /// Build a sorted report of the `top_k` origins by attributed
    /// volume. Call after [`FlightRecorder::finalize`] for an exact
    /// fate partition.
    pub fn report(&self, top_k: usize) -> AttributionReport {
        let mut rows: Vec<(Origin, OriginStats)> =
            self.origins.iter().map(|(&o, &s)| (o, s)).collect();
        // Sort by volume desc, then by the stable describe() string so
        // equal-volume origins order deterministically across runs.
        rows.sort_by(|a, b| {
            b.1.issued()
                .cmp(&a.1.issued())
                .then_with(|| a.0.describe().cmp(&b.0.describe()))
        });
        let total_origins = rows.len();
        rows.truncate(top_k);
        AttributionReport {
            issued: self.issued,
            totals: self.totals,
            rows,
            total_origins,
            overflow: self.overflow,
            overflow_events: self.overflow_events,
            useful_distance: self.useful_distance.clone(),
            late_distance: self.late_distance.clone(),
            finalized: self.finalized,
        }
    }
}

impl Tracer for FlightRecorder {
    fn emit(&mut self, event: TraceEvent) {
        match event {
            TraceEvent::PrefetchIssued { .. } => self.issued += 1,
            TraceEvent::PrefetchDropped { reason, provenance, .. } => {
                let fate = match reason {
                    DropReason::Pq => Fate::DroppedPq,
                    DropReason::Mshr => Fate::DroppedMshr,
                };
                self.record(provenance.origin, fate, None);
            }
            TraceEvent::PrefetchRedundant { provenance, .. } => {
                self.record(provenance.origin, Fate::Redundant, None);
            }
            TraceEvent::PrefetchAdmitted { line, level, cycle, provenance, .. } => {
                // The hierarchy never admits a second prefetch for a
                // line that still has an unresolved marker at its fill
                // level (it would be redundant), so insertion cannot
                // clobber a live entry. Resolve defensively anyway so
                // fate conservation survives even an unforeseen reuse.
                if let Some(old) = self.inflight.insert(
                    (line, level),
                    InFlight {
                        origin: Self::canonical(provenance.origin),
                        issue_cycle: cycle,
                    },
                ) {
                    self.record(old.origin, Fate::DeadAtEnd, None);
                }
            }
            TraceEvent::PrefetchUseful { line, level, cycle, late } => {
                if let Some(f) = self.inflight.remove(&(line, level)) {
                    let fate = if late { Fate::LateUseful } else { Fate::Useful };
                    self.record(f.origin, fate, Some(cycle.saturating_sub(f.issue_cycle)));
                }
            }
            TraceEvent::PrefetchUseless { line, level, .. } => {
                if let Some(f) = self.inflight.remove(&(line, level)) {
                    self.record(f.origin, Fate::EvictedUnused, None);
                }
            }
            _ => {}
        }
    }
}

impl Introspect for FlightRecorder {
    fn gauges(&self, out: &mut Vec<Gauge>) {
        out.push(Gauge::new("attrib_issued", self.issued as f64));
        out.push(Gauge::new("attrib_useful", self.total(Fate::Useful) as f64));
        out.push(Gauge::new("attrib_late_useful", self.total(Fate::LateUseful) as f64));
        out.push(Gauge::new("attrib_evicted_unused", self.total(Fate::EvictedUnused) as f64));
        out.push(Gauge::new("attrib_dead_at_end", self.total(Fate::DeadAtEnd) as f64));
        out.push(Gauge::new("attrib_dropped_pq", self.total(Fate::DroppedPq) as f64));
        out.push(Gauge::new("attrib_dropped_mshr", self.total(Fate::DroppedMshr) as f64));
        out.push(Gauge::new("attrib_redundant", self.total(Fate::Redundant) as f64));
        out.push(Gauge::new("attrib_inflight", self.inflight.len() as f64));
        out.push(Gauge::new("attrib_origins", self.origins.len() as f64));
        let top = self
            .origins
            .values()
            .map(|s| s.issued())
            .max()
            .unwrap_or(0);
        let attributed = self.total_fates();
        out.push(Gauge::new(
            "attrib_top_origin_share",
            if attributed == 0 { 0.0 } else { top as f64 / attributed as f64 },
        ));
    }
}

/// A rendered snapshot of a [`FlightRecorder`]: global fate totals plus
/// the top-k origin rows, with JSON and text emitters.
#[derive(Debug, Clone)]
pub struct AttributionReport {
    /// Prefetches issued.
    pub issued: u64,
    /// Global per-fate counts, indexed by `Fate as usize`.
    pub totals: [u64; Fate::ALL.len()],
    /// Top-k origins by attributed volume, descending.
    pub rows: Vec<(Origin, OriginStats)>,
    /// Distinct origins tracked exactly (before top-k truncation).
    pub total_origins: usize,
    /// Fates attributed past the origin-cardinality cap.
    pub overflow: OriginStats,
    /// Number of events folded into the overflow bucket.
    pub overflow_events: u64,
    /// Issue→use distance histogram, on-time useful prefetches.
    pub useful_distance: Log2Histogram,
    /// Issue→use distance histogram, late useful prefetches.
    pub late_distance: Log2Histogram,
    /// Whether the recorder was finalized before this report.
    pub finalized: bool,
}

impl AttributionReport {
    /// Global accuracy over landed prefetches (all origins).
    pub fn accuracy(&self) -> Option<f64> {
        OriginStats { fates: self.totals, ..OriginStats::default() }.accuracy()
    }

    /// Global timeliness over used prefetches (all origins).
    pub fn timeliness(&self) -> Option<f64> {
        OriginStats { fates: self.totals, ..OriginStats::default() }.timeliness()
    }

    /// The report as a JSON object: totals, aggregate ratios,
    /// issue→use distances, and one row per reported origin.
    pub fn to_json(&self) -> Json {
        let ratio = |v: Option<f64>| v.map_or(Json::Null, |x| Json::fixed(x, 6));
        let fates = |counts: &[u64; Fate::ALL.len()]| {
            Fate::ALL.iter().fold(Json::object(), |obj, &f| obj.with(f.tag(), counts[f as usize]))
        };
        let origins = self.rows.iter().map(|(origin, st)| {
            Json::object()
                .with("origin", origin.describe())
                .with("family", origin.family())
                .with("issued", st.issued())
                .with("accuracy", ratio(st.accuracy()))
                .with("timeliness", ratio(st.timeliness()))
                .with("pollution", ratio(st.pollution()))
                .with("mean_distance", ratio(st.mean_distance()))
                .with("fates", fates(&st.fates))
        });
        Json::object()
            .with("pf_issued", self.issued)
            .with("finalized", self.finalized)
            .with("fates", fates(&self.totals))
            .with("accuracy", ratio(self.accuracy()))
            .with("timeliness", ratio(self.timeliness()))
            .with(
                "use_distance",
                Json::object()
                    .with("useful_mean", ratio(nonzero_mean(&self.useful_distance)))
                    .with("useful_p50", self.useful_distance.p50())
                    .with("useful_p95", self.useful_distance.p95())
                    .with("late_mean", ratio(nonzero_mean(&self.late_distance)))
                    .with("late_p50", self.late_distance.p50())
                    .with("late_p95", self.late_distance.p95()),
            )
            .with("total_origins", self.total_origins)
            .with("overflow_events", self.overflow_events)
            .with("origins", Json::Arr(origins.collect()))
    }

    /// Human-readable table.
    pub fn to_text(&self) -> String {
        let mut s = String::with_capacity(2048);
        s.push_str(&format!("prefetches issued: {}\n", self.issued));
        s.push_str("fates:");
        for f in Fate::ALL {
            s.push_str(&format!(" {}={}", f.tag(), self.totals[f as usize]));
        }
        s.push('\n');
        s.push_str(&format!(
            "accuracy {}  timeliness {}  use-distance p50 {} / p95 {} cycles\n",
            pct(self.accuracy()),
            pct(self.timeliness()),
            self.useful_distance.p50(),
            self.useful_distance.p95(),
        ));
        s.push_str(&format!(
            "origins tracked: {} (showing top {}, {} overflow events)\n",
            self.total_origins,
            self.rows.len(),
            self.overflow_events
        ));
        s.push_str(&format!(
            "{:<28} {:>8} {:>7} {:>7} {:>7} {:>9}  fates (u/l/e/d | pq/mshr/red)\n",
            "origin", "issued", "acc", "timely", "poll", "dist"
        ));
        for (origin, st) in &self.rows {
            s.push_str(&format!(
                "{:<28} {:>8} {:>7} {:>7} {:>7} {:>9}  {}/{}/{}/{} | {}/{}/{}\n",
                origin.describe(),
                st.issued(),
                pct(st.accuracy()),
                pct(st.timeliness()),
                pct(st.pollution()),
                st.mean_distance().map_or("-".to_string(), |d| format!("{d:.0}")),
                st.fate(Fate::Useful),
                st.fate(Fate::LateUseful),
                st.fate(Fate::EvictedUnused),
                st.fate(Fate::DeadAtEnd),
                st.fate(Fate::DroppedPq),
                st.fate(Fate::DroppedMshr),
                st.fate(Fate::Redundant),
            ));
        }
        s
    }
}

fn pct(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{:.1}%", x * 100.0),
        None => "-".to_string(),
    }
}

fn nonzero_mean(h: &Log2Histogram) -> Option<f64> {
    if h.count() == 0 {
        None
    } else {
        Some(h.mean())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmp_types::{PmpTable, Provenance};

    fn issue(r: &mut FlightRecorder, line: u64, origin: Origin) {
        r.emit(TraceEvent::PrefetchIssued {
            line: LineAddr(line),
            level: CacheLevel::L1D,
            cycle: 10,
            provenance: Provenance::of(origin),
        });
    }

    fn admit(r: &mut FlightRecorder, line: u64, origin: Origin) {
        issue(r, line, origin);
        r.emit(TraceEvent::PrefetchAdmitted {
            line: LineAddr(line),
            level: CacheLevel::L1D,
            cycle: 10,
            latency: 100,
            provenance: Provenance::of(origin),
        });
    }

    /// The report row of `origin` (canonicalized), if it made the top-k.
    fn origin_row(rep: &AttributionReport, origin: Origin) -> Option<OriginStats> {
        let key = FlightRecorder::canonical(origin);
        rep.rows.iter().find(|(o, _)| *o == key).map(|&(_, s)| s)
    }

    #[test]
    fn fates_partition_issued() {
        let mut r = FlightRecorder::new();
        let o = Origin::Offset { delta: 2 };
        // useful
        admit(&mut r, 1, o);
        r.emit(TraceEvent::PrefetchUseful {
            line: LineAddr(1),
            level: CacheLevel::L1D,
            cycle: 150,
            late: false,
        });
        // late useful
        admit(&mut r, 2, o);
        r.emit(TraceEvent::PrefetchUseful {
            line: LineAddr(2),
            level: CacheLevel::L1D,
            cycle: 60,
            late: true,
        });
        // evicted unused
        admit(&mut r, 3, o);
        r.emit(TraceEvent::PrefetchUseless {
            line: LineAddr(3),
            level: CacheLevel::L1D,
            cycle: 500,
        });
        // dead at end
        admit(&mut r, 4, o);
        // dropped pq / mshr
        issue(&mut r, 5, o);
        r.emit(TraceEvent::PrefetchDropped {
            line: LineAddr(5),
            level: CacheLevel::L1D,
            cycle: 10,
            reason: DropReason::Pq,
            provenance: Provenance::of(o),
        });
        issue(&mut r, 6, o);
        r.emit(TraceEvent::PrefetchDropped {
            line: LineAddr(6),
            level: CacheLevel::L1D,
            cycle: 10,
            reason: DropReason::Mshr,
            provenance: Provenance::of(o),
        });
        // redundant
        issue(&mut r, 7, o);
        r.emit(TraceEvent::PrefetchRedundant {
            line: LineAddr(7),
            level: CacheLevel::L1D,
            cycle: 10,
            provenance: Provenance::of(o),
        });
        assert_eq!(r.inflight_len(), 1);
        r.finalize();
        assert_eq!(r.inflight_len(), 0);
        assert_eq!(r.issued(), 7);
        assert_eq!(r.total_fates(), 7);
        for f in Fate::ALL {
            assert_eq!(r.total(f), 1, "{}", f.tag());
        }
        let rep = r.report(8);
        let st = origin_row(&rep, o).expect("origin tracked");
        assert_eq!(st.issued(), 7);
        assert_eq!(st.accuracy(), Some(0.5)); // 2 used / 4 landed
        assert_eq!(st.timeliness(), Some(0.5)); // 1 on-time / 2 used
        assert_eq!(st.pollution(), Some(0.25));
        // distances: useful 150-10=140, late 60-10=50
        assert_eq!(st.distance_sum, 190);
        assert_eq!(st.distance_count, 2);
        assert_eq!(rep.useful_distance.count(), 1);
        assert_eq!(rep.late_distance.count(), 1);
    }

    #[test]
    fn unmatched_useful_and_useless_are_ignored() {
        let mut r = FlightRecorder::new();
        r.emit(TraceEvent::PrefetchUseful {
            line: LineAddr(9),
            level: CacheLevel::L2C,
            cycle: 5,
            late: false,
        });
        r.emit(TraceEvent::PrefetchUseless {
            line: LineAddr(9),
            level: CacheLevel::Llc,
            cycle: 5,
        });
        r.finalize();
        assert_eq!(r.total_fates(), 0);
    }

    #[test]
    fn fill_level_keys_are_independent() {
        // Same line admitted at two different fill levels = two
        // distinct in-flight entries; resolving one leaves the other.
        let mut r = FlightRecorder::new();
        let o = Origin::Offset { delta: 1 };
        issue(&mut r, 1, o);
        r.emit(TraceEvent::PrefetchAdmitted {
            line: LineAddr(1),
            level: CacheLevel::L1D,
            cycle: 0,
            latency: 10,
            provenance: Provenance::of(o),
        });
        issue(&mut r, 1, o);
        r.emit(TraceEvent::PrefetchAdmitted {
            line: LineAddr(1),
            level: CacheLevel::Llc,
            cycle: 0,
            latency: 10,
            provenance: Provenance::of(o),
        });
        r.emit(TraceEvent::PrefetchUseful {
            line: LineAddr(1),
            level: CacheLevel::L1D,
            cycle: 90,
            late: false,
        });
        r.finalize();
        assert_eq!(r.total(Fate::Useful), 1);
        assert_eq!(r.total(Fate::DeadAtEnd), 1);
        assert_eq!(r.issued(), r.total_fates());
    }

    #[test]
    fn origin_cap_routes_to_overflow_but_conserves() {
        let mut r = FlightRecorder::new();
        let n = DEFAULT_MAX_ORIGINS + 3;
        for i in 0..n as u64 {
            let o = Origin::Spp { signature: i as u16, depth: 0 };
            issue(&mut r, i, o);
            r.emit(TraceEvent::PrefetchRedundant {
                line: LineAddr(i),
                level: CacheLevel::L1D,
                cycle: 0,
                provenance: Provenance::of(o),
            });
        }
        r.finalize();
        let rep = r.report(n);
        assert_eq!(rep.total_origins, DEFAULT_MAX_ORIGINS);
        assert_eq!(rep.overflow_events, 3);
        assert_eq!(r.total(Fate::Redundant), n as u64);
        assert_eq!(r.issued(), r.total_fates());
        let tracked: u64 = rep.rows.iter().map(|(_, s)| s.issued()).sum();
        assert_eq!(tracked + rep.overflow.issued(), n as u64);
    }

    #[test]
    fn pmp_generation_is_coarsened_but_entry_is_exact() {
        let mut r = FlightRecorder::new();
        for generation in [9u16, 10, 12, 15] {
            // All in [8, 16) → same log2 bucket → one origin.
            let o = Origin::Pmp {
                table: PmpTable::Opt,
                entry: 37,
                trigger_offset: 5,
                generation,
            };
            issue(&mut r, generation as u64, o);
            r.emit(TraceEvent::PrefetchRedundant {
                line: LineAddr(generation as u64),
                level: CacheLevel::L1D,
                cycle: 0,
                provenance: Provenance::of(o),
            });
        }
        let other_entry = Origin::Pmp {
            table: PmpTable::Opt,
            entry: 38,
            trigger_offset: 5,
            generation: 9,
        };
        issue(&mut r, 99, other_entry);
        r.emit(TraceEvent::PrefetchRedundant {
            line: LineAddr(99),
            level: CacheLevel::L1D,
            cycle: 0,
            provenance: Provenance::of(other_entry),
        });
        r.finalize();
        let rep = r.report(8);
        assert_eq!(
            rep.total_origins, 2,
            "same entry+generation bucket collapses; distinct entry does not"
        );
        let st = origin_row(
            &rep,
            Origin::Pmp {
                table: PmpTable::Opt,
                entry: 37,
                trigger_offset: 5,
                generation: 11, // any value in the same bucket resolves
            },
        )
        .expect("bucketed origin tracked");
        assert_eq!(st.issued(), 4);
    }

    #[test]
    fn report_renders_json_and_text() {
        let mut r = FlightRecorder::new();
        let o = Origin::DsPatch { accp: true };
        admit(&mut r, 1, o);
        r.emit(TraceEvent::PrefetchUseful {
            line: LineAddr(1),
            level: CacheLevel::L1D,
            cycle: 200,
            late: false,
        });
        r.finalize();
        let rep = r.report(8);
        let json = rep.to_json().pretty();
        assert!(json.contains("\"pf_issued\": 1"), "{json}");
        assert!(json.contains("\"useful\": 1"), "{json}");
        assert!(json.contains("dspatch/accp"), "{json}");
        assert!(json.contains("\"accuracy\": 1.000000"), "{json}");
        let text = rep.to_text();
        assert!(text.contains("dspatch/accp"), "{text}");
        assert!(text.contains("useful=1"), "{text}");
        // Sanity: balanced braces/brackets.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn introspect_exposes_fate_gauges() {
        let mut r = FlightRecorder::new();
        admit(&mut r, 1, Origin::Offset { delta: 1 });
        r.finalize();
        let mut g = Vec::new();
        r.gauges(&mut g);
        let find = |n: &str| g.iter().find(|x| x.name == n).map(|x| x.value);
        assert_eq!(find("attrib_issued"), Some(1.0));
        assert_eq!(find("attrib_dead_at_end"), Some(1.0));
        assert_eq!(find("attrib_top_origin_share"), Some(1.0));
    }
}
