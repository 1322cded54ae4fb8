//! One function per paper table/figure; every experiment returns a
//! rendered report string so binaries, `run_all`, and integration tests
//! share the exact same code paths.
//!
//! See DESIGN.md §4 for the experiment ↔ paper mapping.

pub mod ablation;
pub mod headline;
pub mod motivation;
pub mod multicore;
pub mod sensitivity;
pub mod storage;

use pmp_traces::TraceScale;

/// Resolve the experiment scale from `PMP_SCALE`
/// (`tiny`/`small`/`standard`/`large`), defaulting to `standard` when
/// unset or empty; any other value exits with a usage error.
pub fn scale_from_env() -> TraceScale {
    let label = std::env::var("PMP_SCALE").ok().filter(|s| !s.is_empty());
    crate::scale_or_exit("PMP_SCALE", label.as_deref(), TraceScale::Standard)
}

/// Format a float as the paper prints NIPCs (three decimals).
pub(crate) fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Format a percentage with one decimal.
pub(crate) fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_scale_parsing() {
        // No env set in tests: default.
        std::env::remove_var("PMP_SCALE");
        assert_eq!(scale_from_env(), TraceScale::Standard);
    }

    #[test]
    fn formatting() {
        assert_eq!(f3(1.65189), "1.652");
        assert_eq!(pct(0.652), "65.2%");
    }
}
