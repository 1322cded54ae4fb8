//! Prefetch provenance: *which internal decision* produced a prefetch.
//!
//! Aggregate counters (`pf_useful`, `pf_useless`, …) say how a
//! prefetcher performs overall; they cannot say *which pattern-table
//! entry*, *which SPP signature*, or *which DSPatch bitmap* earned or lost
//! that accuracy. [`Provenance`] is the small `Copy` tag a prefetcher
//! attaches to each candidate it emits so the observability layer can
//! attribute every downstream fate (admission, drop, fill, demand hit,
//! eviction) back to the originating decision.
//!
//! The tag is deliberately scheme-specific: each prefetcher family gets
//! an [`Origin`] variant carrying the coordinates that are meaningful
//! inside that scheme. Prefetchers that have not been annotated emit
//! [`Origin::None`], which the attribution layer buckets as a single
//! "untagged" origin — attribution still conserves fates for them.
//!
//! Provenance is observability-only state: it is excluded from
//! `PrefetchRequest` equality/hashing and from snapshot wire formats,
//! so tagging a prefetcher can never perturb simulation results.

/// Which PMP pattern table a prediction came from (paper Section IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PmpTable {
    /// Offset pattern table (indexed by trigger offset).
    Opt,
    /// PC pattern table (indexed by hashed PC bits).
    Ppt,
    /// Merged OPT+PPT prediction (dual-table vote).
    Merged,
}

impl PmpTable {
    /// Short stable tag for reports.
    pub fn tag(self) -> &'static str {
        match self {
            PmpTable::Opt => "opt",
            PmpTable::Ppt => "ppt",
            PmpTable::Merged => "merged",
        }
    }
}

/// Scheme-internal origin of a prefetch decision.
///
/// Every variant is a *stable coordinate* inside the emitting
/// prefetcher: two prefetches with equal origins were produced by the
/// same internal decision point, so their fates can be meaningfully
/// aggregated into per-origin accuracy/timeliness tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Origin {
    /// No provenance recorded (un-annotated prefetcher, or synthetic
    /// request built by tests/benches).
    #[default]
    None,
    /// PMP pattern-table prediction: the table it came from, the
    /// pattern-entry index inside that table, the trigger offset that
    /// fired it, and the merge generation (training events observed by
    /// the scheme when the prediction was made, coarsened by the
    /// recorder for bounded cardinality).
    Pmp {
        /// Which pattern table produced the prediction.
        table: PmpTable,
        /// Row index into that table (pattern-entry granularity).
        entry: u16,
        /// Trigger offset (line-in-region) that indexed the OPT.
        trigger_offset: u8,
        /// Training events seen when the prediction fired.
        generation: u16,
    },
    /// SPP lookahead step: the signature that indexed the pattern
    /// table and the lookahead depth at which the delta was taken.
    Spp {
        /// Compressed history signature at this lookahead step.
        signature: u16,
        /// Lookahead depth (0 = direct prediction).
        depth: u8,
    },
    /// DSPatch: which of the two stored bitmaps drove the replay.
    DsPatch {
        /// `true` = AccP (accuracy-optimized), `false` = CovP
        /// (coverage-optimized).
        accp: bool,
    },
    /// Fixed-delta schemes (next-line, IP-stride): the line delta from
    /// the trigger to the target.
    Offset {
        /// Target line minus trigger line.
        delta: i32,
    },
}

impl Origin {
    /// Short stable family tag for reports ("pmp", "spp", …).
    pub fn family(self) -> &'static str {
        match self {
            Origin::None => "untagged",
            Origin::Pmp { .. } => "pmp",
            Origin::Spp { .. } => "spp",
            Origin::DsPatch { .. } => "dspatch",
            Origin::Offset { .. } => "offset",
        }
    }

    /// Human-readable coordinate, e.g. `pmp/opt[37]@t12 g3` or
    /// `spp/0x1a2b d2`. Stable across runs for equal origins.
    pub fn describe(self) -> String {
        match self {
            Origin::None => "untagged".to_string(),
            Origin::Pmp {
                table,
                entry,
                trigger_offset,
                generation,
            } => format!("pmp/{}[{}]@t{} g{}", table.tag(), entry, trigger_offset, generation),
            Origin::Spp { signature, depth } => {
                format!("spp/0x{:04x} d{}", signature, depth)
            }
            Origin::DsPatch { accp } => {
                if accp {
                    "dspatch/accp".to_string()
                } else {
                    "dspatch/covp".to_string()
                }
            }
            Origin::Offset { delta } => format!("offset/{:+}", delta),
        }
    }
}

/// Full provenance of an emitted prefetch candidate: the scheme-internal
/// [`Origin`] plus the candidate's position in the emission burst
/// (degree position 0 = first target emitted for the trigger).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Provenance {
    /// Scheme-internal decision coordinate.
    pub origin: Origin,
    /// Position within the emission burst (saturates at 255).
    pub degree_pos: u8,
}

impl Provenance {
    /// Provenance with no origin information.
    pub const NONE: Provenance = Provenance {
        origin: Origin::None,
        degree_pos: 0,
    };

    /// Tag an origin at degree position 0.
    pub fn of(origin: Origin) -> Self {
        Provenance { origin, degree_pos: 0 }
    }

    /// Same origin at a given degree position (saturating to `u8`).
    pub fn at(origin: Origin, degree_pos: usize) -> Self {
        Provenance {
            origin,
            degree_pos: degree_pos.min(u8::MAX as usize) as u8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_none() {
        assert_eq!(Provenance::default(), Provenance::NONE);
        assert_eq!(Origin::default(), Origin::None);
    }

    #[test]
    fn describe_is_stable_and_distinct() {
        let a = Origin::Pmp {
            table: PmpTable::Opt,
            entry: 37,
            trigger_offset: 12,
            generation: 3,
        };
        assert_eq!(a.describe(), "pmp/opt[37]@t12 g3");
        assert_eq!(a.describe(), a.describe());
        let b = Origin::Spp {
            signature: 0x1a2b,
            depth: 2,
        };
        assert_eq!(b.describe(), "spp/0x1a2b d2");
        assert_ne!(a.describe(), b.describe());
        assert_eq!(Origin::Offset { delta: -3 }.describe(), "offset/-3");
        assert_eq!(Origin::DsPatch { accp: true }.describe(), "dspatch/accp");
        assert_eq!(Origin::Offset { delta: 1 }.describe(), "offset/+1");
    }

    #[test]
    fn degree_pos_saturates() {
        assert_eq!(Provenance::at(Origin::None, 999).degree_pos, 255);
        assert_eq!(Provenance::at(Origin::None, 7).degree_pos, 7);
    }

    #[test]
    fn family_tags() {
        assert_eq!(Origin::None.family(), "untagged");
        assert_eq!(Origin::Offset { delta: 1 }.family(), "offset");
    }
}
