//! The [`Prefetcher`] trait and its input/output types.

use pmp_obs::Introspect;
use pmp_types::{CacheLevel, LineAddr, MemAccess, Provenance, SnapshotError, StateImage};

/// A prefetch request emitted by a prefetcher: fetch `line` and fill it
/// into `fill_level` (and, for inclusion, every level outward of it).
///
/// `provenance` records which scheme-internal decision produced the
/// request; it is observability metadata and is deliberately excluded
/// from equality and hashing — two requests for the same line and fill
/// level are the same request regardless of who asked for them.
#[derive(Debug, Clone, Copy)]
pub struct PrefetchRequest {
    /// The cache line to prefetch.
    pub line: LineAddr,
    /// The level the line should be filled into (L1D / L2C / LLC).
    pub fill_level: CacheLevel,
    /// Which internal decision emitted this request (observability
    /// only; not part of equality/hash, never persisted in snapshots).
    pub provenance: Provenance,
}

impl PartialEq for PrefetchRequest {
    fn eq(&self, other: &Self) -> bool {
        self.line == other.line && self.fill_level == other.fill_level
    }
}

impl Eq for PrefetchRequest {}

impl std::hash::Hash for PrefetchRequest {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.line.hash(state);
        self.fill_level.hash(state);
    }
}

impl PrefetchRequest {
    /// Convenience constructor (no provenance recorded).
    #[inline]
    pub fn new(line: LineAddr, fill_level: CacheLevel) -> Self {
        PrefetchRequest {
            line,
            fill_level,
            provenance: Provenance::NONE,
        }
    }

    /// Constructor carrying a provenance tag.
    #[inline]
    pub fn with_provenance(line: LineAddr, fill_level: CacheLevel, provenance: Provenance) -> Self {
        PrefetchRequest {
            line,
            fill_level,
            provenance,
        }
    }
}

/// Everything a prefetcher sees about one demand access at the L1D.
#[derive(Debug, Clone, Copy)]
pub struct AccessInfo {
    /// The demand access (PC, address, load/store).
    pub access: MemAccess,
    /// Whether the access hit in the L1D.
    pub hit: bool,
    /// Current simulation cycle.
    pub cycle: u64,
    /// Free entries in the L1D prefetch queue. PMP uses this to decide
    /// how many prefetches to issue now and keeps the remainder in its
    /// Prefetch Buffer (Section IV-B of the paper).
    pub pq_free: usize,
}

/// Notification that a line was evicted from the L1D.
#[derive(Debug, Clone, Copy)]
pub struct EvictInfo {
    /// The evicted line.
    pub line: LineAddr,
    /// Current simulation cycle.
    pub cycle: u64,
}

/// Outcome feedback for a previously issued prefetch, used by learning
/// prefetchers (PPF's perceptron update, Pythia's RL reward).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedbackKind {
    /// The prefetched line was demanded before eviction (useful).
    Useful,
    /// The prefetched line was evicted without being demanded (useless).
    Useless,
    /// The prefetch was dropped (queue/MSHR full or redundant).
    Dropped,
}

/// A hardware data prefetcher attached to the L1D.
///
/// The simulator calls [`Prefetcher::on_access`] for every demand access
/// the core issues to the L1D, [`Prefetcher::on_evict`] for every L1D
/// eviction (this is what ends SMS-style pattern accumulation), and
/// [`Prefetcher::on_feedback`] when the fate of a prefetched line is
/// known.
///
/// Implementations append any number of [`PrefetchRequest`]s to `out`;
/// the simulator applies queue/MSHR admission control and may drop
/// requests (reported via [`FeedbackKind::Dropped`]).
///
/// The [`Introspect`] supertrait lets instrumented prefetchers expose
/// internal-state gauges (table occupancy, hit rates…); the default
/// implementation exposes nothing, so `impl Introspect for X {}` is all
/// an uninstrumented prefetcher needs.
pub trait Prefetcher: Introspect {
    /// Short human-readable name, e.g. `"pmp"` or `"bingo"`.
    fn name(&self) -> &'static str;

    /// Observe one demand access; append prefetch requests to `out`.
    ///
    /// `out` is not cleared by the callee: the simulator passes a fresh
    /// or pre-cleared buffer.
    fn on_access(&mut self, info: &AccessInfo, out: &mut Vec<PrefetchRequest>);

    /// Observe an L1D eviction. Default: ignore.
    fn on_evict(&mut self, _info: &EvictInfo) {}

    /// Learn from the outcome of a previously issued prefetch.
    /// Default: ignore.
    fn on_feedback(&mut self, _line: LineAddr, _kind: FeedbackKind) {}

    /// Observe a DRAM bandwidth-utilization sample (0..=1), delivered
    /// by the simulator at each interval-sampling boundary (only when
    /// sampling is enabled). Bandwidth-aware prefetchers (DSPatch,
    /// Pythia) can condition aggressiveness on it. Default: ignore.
    fn on_bandwidth(&mut self, _utilization: f64) {}

    /// Total hardware storage this prefetcher would require, in bits —
    /// used to regenerate the paper's Table III / Table V budgets.
    fn storage_bits(&self) -> u64;

    /// Serialize the prefetcher's complete learned state into a
    /// [`StateImage`] (kind tag, config fingerprint, named sections).
    /// Stateful prefetchers override this so instances can migrate,
    /// warm-start, and A/B-swap without relearning; the default
    /// declines with [`SnapshotError::Unsupported`].
    ///
    /// Contract: `load_state(save_state())` on an identically
    /// configured instance must reproduce behaviour *bit-identically* —
    /// every counter, LRU clock, and pending queue entry round-trips.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Unsupported`] unless overridden.
    fn save_state(&self) -> Result<StateImage, SnapshotError> {
        Err(SnapshotError::unsupported(self.name()))
    }

    /// Replace the prefetcher's learned state with `image`, previously
    /// produced by [`Prefetcher::save_state`] on an identically
    /// configured instance. Implementations validate the kind tag and
    /// config fingerprint before touching any state, and bounds-check
    /// every decoded field — a hostile image must yield a typed error,
    /// never a panic or a half-restored prefetcher.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Unsupported`] unless overridden;
    /// [`SnapshotError::KindMismatch`] / [`SnapshotError::ConfigMismatch`] /
    /// [`SnapshotError::Corrupt`] from overriding implementations.
    fn load_state(&mut self, _image: &StateImage) -> Result<(), SnapshotError> {
        Err(SnapshotError::unsupported(self.name()))
    }
}

/// Storage in kibibytes for a bit budget, rounded to one decimal, the
/// way the paper reports Table V.
///
/// ```
/// use pmp_prefetch::api::storage_kib;
/// assert_eq!(storage_kib(4_3 * 1024 * 8 / 10), 4.3);
/// ```
pub fn storage_kib(bits: u64) -> f64 {
    (bits as f64 / 8.0 / 1024.0 * 10.0).round() / 10.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmp_types::{Addr, Pc};

    struct Dummy;
    impl Introspect for Dummy {}
    impl Prefetcher for Dummy {
        fn name(&self) -> &'static str {
            "dummy"
        }
        fn on_access(&mut self, info: &AccessInfo, out: &mut Vec<PrefetchRequest>) {
            if !info.hit {
                out.push(PrefetchRequest::new(
                    info.access.addr.line().offset_by(1).unwrap(),
                    CacheLevel::L2C,
                ));
            }
        }
        fn storage_bits(&self) -> u64 {
            0
        }
    }

    #[test]
    fn trait_defaults_are_noops() {
        let mut d = Dummy;
        d.on_evict(&EvictInfo { line: LineAddr(1), cycle: 0 });
        d.on_feedback(LineAddr(1), FeedbackKind::Useful);
        let mut out = Vec::new();
        let info = AccessInfo {
            access: MemAccess::load(Pc(0), Addr(0)),
            hit: false,
            cycle: 0,
            pq_free: 1,
        };
        d.on_access(&info, &mut out);
        assert_eq!(out, vec![PrefetchRequest::new(LineAddr(1), CacheLevel::L2C)]);
    }

    #[test]
    fn snapshot_defaults_decline_with_unsupported() {
        let mut d = Dummy;
        let err = d.save_state().expect_err("default save_state is unsupported");
        assert_eq!(err.kind_tag(), "unsupported");
        assert!(err.to_string().contains("dummy"), "{err}");
        let img = StateImage::new("dummy", 0);
        let err = d.load_state(&img).expect_err("default load_state is unsupported");
        assert_eq!(err.kind_tag(), "unsupported");
    }

    #[test]
    fn provenance_is_excluded_from_equality_and_hash() {
        use pmp_types::{Origin, Provenance};
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};

        let plain = PrefetchRequest::new(LineAddr(7), CacheLevel::L1D);
        let tagged = PrefetchRequest::with_provenance(
            LineAddr(7),
            CacheLevel::L1D,
            Provenance::of(Origin::Offset { delta: 4 }),
        );
        assert_eq!(plain, tagged);
        let h = |r: &PrefetchRequest| {
            let mut s = DefaultHasher::new();
            r.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&plain), h(&tagged));
        assert_ne!(plain, PrefetchRequest::new(LineAddr(8), CacheLevel::L1D));
    }

    #[test]
    fn storage_kib_rounds() {
        assert_eq!(storage_kib(8 * 1024), 1.0);
        assert_eq!(storage_kib(8 * 1024 + 8 * 512), 1.5);
    }
}
