//! Trace container types.

use core::fmt;
use pmp_types::TraceOp;

/// Which benchmark family a trace imitates (the paper's Table VI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Suite {
    /// SPEC CPU 2006-like workloads (38 traces).
    Spec06,
    /// SPEC CPU 2017-like workloads (36 traces).
    Spec17,
    /// Ligra-like graph analytics (42 traces).
    Ligra,
    /// PARSEC-like parallel kernels (9 traces).
    Parsec,
}

impl Suite {
    /// All suites in Table VI order.
    pub const ALL: [Suite; 4] = [Suite::Spec06, Suite::Spec17, Suite::Ligra, Suite::Parsec];

    /// Number of traces the paper draws from this suite.
    pub fn trace_count(self) -> usize {
        match self {
            Suite::Spec06 => 38,
            Suite::Spec17 => 36,
            Suite::Ligra => 42,
            Suite::Parsec => 9,
        }
    }
}

impl fmt::Display for Suite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Suite::Spec06 => write!(f, "SPEC06"),
            Suite::Spec17 => write!(f, "SPEC17"),
            Suite::Ligra => write!(f, "Ligra"),
            Suite::Parsec => write!(f, "PARSEC"),
        }
    }
}

/// How many memory operations to generate per trace.
///
/// The paper warms up on 50M instructions and measures 200M; we scale
/// the same methodology down so a full 125-trace × 6-prefetcher sweep
/// finishes in minutes. The warm-up fraction (1/5 of the measured
/// window, matching the paper's ratio) is exposed via
/// [`TraceScale::warmup_instructions`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceScale {
    /// ~2K memory ops — unit tests.
    Tiny,
    /// ~20K memory ops — integration tests, quick looks.
    Small,
    /// ~80K memory ops — the default experiment scale.
    Standard,
    /// ~320K memory ops — high-fidelity runs.
    Large,
}

impl TraceScale {
    /// The command-line label of each scale, smallest first.
    pub const LABELS: [&'static str; 4] = ["tiny", "small", "standard", "large"];

    /// Parse a command-line label (one of [`TraceScale::LABELS`]);
    /// `None` for anything else.
    pub fn from_label(label: &str) -> Option<TraceScale> {
        match label {
            "tiny" => Some(TraceScale::Tiny),
            "small" => Some(TraceScale::Small),
            "standard" => Some(TraceScale::Standard),
            "large" => Some(TraceScale::Large),
            _ => None,
        }
    }

    /// Memory operations generated at this scale.
    pub fn mem_ops(self) -> usize {
        match self {
            TraceScale::Tiny => 2_000,
            TraceScale::Small => 20_000,
            TraceScale::Standard => 80_000,
            TraceScale::Large => 320_000,
        }
    }

    /// Warm-up budget in *instructions* (non-mem + mem), ≈ 20% of the
    /// trace, mirroring the paper's 50M/250M split.
    pub fn warmup_instructions(self) -> u64 {
        // Generators emit ≈3 instructions per memory op on average.
        (self.mem_ops() as u64 * 3) / 5
    }
}

/// A complete synthetic trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Unique trace name, e.g. `"spec06.mcf_0"`.
    pub name: String,
    /// Which suite the trace belongs to.
    pub suite: Suite,
    /// The compact instruction stream.
    pub ops: Vec<TraceOp>,
}

impl Trace {
    /// Total instructions represented (memory + non-memory).
    pub fn instruction_count(&self) -> u64 {
        self.ops.iter().map(|o| o.instruction_count()).sum()
    }

    /// Number of memory operations.
    pub fn mem_ops(&self) -> usize {
        self.ops.len()
    }

    /// Number of distinct cache lines touched (footprint estimate).
    pub fn footprint_lines(&self) -> usize {
        let mut lines: Vec<u64> = self.ops.iter().map(|o| o.access.addr.line().0).collect();
        lines.sort_unstable();
        lines.dedup();
        lines.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmp_types::{Addr, MemAccess, Pc};

    #[test]
    fn scale_labels_parse_and_typos_do_not() {
        let parsed: Vec<_> = TraceScale::LABELS.iter().map(|l| TraceScale::from_label(l)).collect();
        assert_eq!(
            parsed,
            [TraceScale::Tiny, TraceScale::Small, TraceScale::Standard, TraceScale::Large]
                .map(Some)
        );
        for typo in ["smal", "lage", "Small", "STANDARD", " tiny", ""] {
            assert_eq!(TraceScale::from_label(typo), None, "{typo:?}");
        }
    }

    #[test]
    fn suite_counts_match_table_vi() {
        let total: usize = Suite::ALL.iter().map(|s| s.trace_count()).sum();
        assert_eq!(total, 125);
    }

    #[test]
    fn trace_accounting() {
        let ops = vec![
            TraceOp::new(MemAccess::load(Pc(1), Addr(0)), 2, false),
            TraceOp::new(MemAccess::load(Pc(1), Addr(64)), 3, false),
            TraceOp::new(MemAccess::load(Pc(1), Addr(64)), 0, false),
        ];
        let t = Trace { name: "t".into(), suite: Suite::Spec06, ops };
        assert_eq!(t.instruction_count(), 3 + 4 + 1);
        assert_eq!(t.mem_ops(), 3);
        assert_eq!(t.footprint_lines(), 2);
    }

    #[test]
    fn scales_are_ordered() {
        assert!(TraceScale::Tiny.mem_ops() < TraceScale::Small.mem_ops());
        assert!(TraceScale::Small.mem_ops() < TraceScale::Standard.mem_ops());
        assert!(TraceScale::Standard.mem_ops() < TraceScale::Large.mem_ops());
        assert!(TraceScale::Standard.warmup_instructions() > 0);
    }
}
