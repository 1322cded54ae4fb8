//! The prefetcher registry: one enum naming every configuration the
//! experiments run, buildable into a boxed [`Prefetcher`].

use pmp_baselines::{Bingo, DsPatch, Pythia, Sms, SppPpf};
use pmp_core::{DesignB, DesignBConfig, Pmp, PmpConfig};
use pmp_prefetch::{
    AccessInfo, Introspect, NextLine, NoPrefetch, PlacedLow, Prefetcher, PrefetchRequest,
    StridePrefetcher,
};
use pmp_types::HarnessError;

/// Every prefetcher configuration used by the experiments.
#[derive(Debug, Clone)]
pub enum PrefetcherKind {
    /// Non-prefetching baseline.
    None,
    /// Next-line, degree 4.
    NextLine,
    /// IP-stride, degree 4.
    Stride,
    /// Classic SMS.
    Sms,
    /// DSPatch (paper comparator).
    DsPatch,
    /// Enhanced Bingo (paper comparator).
    Bingo,
    /// Original-placement Bingo attached at the LLC (Section V-B's
    /// "PMP (at L1) outperforms the original Bingo at LLC by 16.5%").
    BingoAtLlc,
    /// SPP+PPF (paper comparator).
    SppPpf,
    /// Pythia (paper comparator).
    Pythia,
    /// PMP with the paper's default configuration.
    Pmp,
    /// PMP-Limit (low-level prefetch degree 1).
    PmpLimit,
    /// Design B with the given associativity (Table VIII).
    DesignB(usize),
    /// PMP with a custom configuration (parameter sweeps/ablations).
    PmpCustom(Box<PmpConfig>),
    /// Fault-injection mock: behaves like no prefetcher, then panics on
    /// the Nth demand load it observes. Exists so the runner's panic
    /// isolation can be exercised end-to-end (a deliberately poisoned
    /// grid cell must not take the sweep down with it).
    FaultyPanicAfter(u64),
}

impl PrefetcherKind {
    /// The five prefetchers of the paper's headline comparison (Fig. 8),
    /// in plot order.
    pub fn paper_five() -> Vec<PrefetcherKind> {
        vec![
            PrefetcherKind::DsPatch,
            PrefetcherKind::Bingo,
            PrefetcherKind::SppPpf,
            PrefetcherKind::Pythia,
            PrefetcherKind::Pmp,
        ]
    }

    /// Instantiate the prefetcher.
    pub fn build(&self) -> Box<dyn Prefetcher> {
        match self {
            PrefetcherKind::None => Box::new(NoPrefetch),
            PrefetcherKind::NextLine => Box::new(NextLine::new(4)),
            PrefetcherKind::Stride => Box::new(StridePrefetcher::new(4)),
            PrefetcherKind::Sms => Box::<Sms>::default(),
            PrefetcherKind::DsPatch => Box::<DsPatch>::default(),
            PrefetcherKind::Bingo => Box::<Bingo>::default(),
            PrefetcherKind::BingoAtLlc => {
                Box::new(PlacedLow::new(Bingo::default(), pmp_types::CacheLevel::Llc))
            }
            PrefetcherKind::SppPpf => Box::<SppPpf>::default(),
            PrefetcherKind::Pythia => Box::<Pythia>::default(),
            PrefetcherKind::Pmp => Box::new(Pmp::new(PmpConfig::default())),
            PrefetcherKind::PmpLimit => Box::new(Pmp::new(PmpConfig::pmp_limit())),
            PrefetcherKind::DesignB(ways) => Box::new(DesignB::new(DesignBConfig {
                ways: *ways,
                ..DesignBConfig::default()
            })),
            PrefetcherKind::PmpCustom(cfg) => Box::new(Pmp::new((**cfg).clone())),
            PrefetcherKind::FaultyPanicAfter(n) => Box::new(PanicAfter { remaining: *n }),
        }
    }

    /// Pre-flight validation: parameterised kinds whose parameters
    /// would panic deep inside `build()` or the prefetcher itself are
    /// rejected here with a diagnosis instead.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::InvalidConfig`] naming the kind and the
    /// offending parameter.
    pub fn validate(&self) -> Result<(), HarnessError> {
        match self {
            PrefetcherKind::DesignB(ways) => {
                // Table VIII sweeps up to 512 ways; beyond 1024 the
                // config is a typo, not an experiment.
                if *ways == 0 || *ways > 1024 {
                    return Err(HarnessError::invalid(
                        "PrefetcherKind::DesignB.ways",
                        format!("associativity must be in 1..=1024, got {ways}"),
                    ));
                }
                Ok(())
            }
            PrefetcherKind::PmpCustom(cfg) => {
                let bits: [(&str, u32); 4] = [
                    ("trigger_offset_bits", cfg.trigger_offset_bits),
                    ("pc_index_bits", cfg.pc_index_bits),
                    ("opt_counter_bits", cfg.opt_counter_bits),
                    ("ppt_counter_bits", cfg.ppt_counter_bits),
                ];
                for (field, value) in bits {
                    if value == 0 || value > 16 {
                        return Err(HarnessError::invalid(
                            format!("PrefetcherKind::PmpCustom.{field}"),
                            format!("width must be in 1..=16 bits, got {value}"),
                        ));
                    }
                }
                if cfg.pb_entries == 0 {
                    return Err(HarnessError::invalid(
                        "PrefetcherKind::PmpCustom.pb_entries",
                        "prefetch buffer needs at least one entry",
                    ));
                }
                if cfg.monitoring_range == 0 {
                    return Err(HarnessError::invalid(
                        "PrefetcherKind::PmpCustom.monitoring_range",
                        "monitoring range must be non-zero",
                    ));
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }

    /// Display label used in experiment output.
    pub fn label(&self) -> String {
        match self {
            PrefetcherKind::None => "baseline".into(),
            PrefetcherKind::NextLine => "next-line".into(),
            PrefetcherKind::Stride => "ip-stride".into(),
            PrefetcherKind::Sms => "sms".into(),
            PrefetcherKind::DsPatch => "dspatch".into(),
            PrefetcherKind::Bingo => "bingo".into(),
            PrefetcherKind::BingoAtLlc => "bingo@llc".into(),
            PrefetcherKind::SppPpf => "spp-ppf".into(),
            PrefetcherKind::Pythia => "pythia".into(),
            PrefetcherKind::Pmp => "pmp".into(),
            PrefetcherKind::PmpLimit => "pmp-limit".into(),
            PrefetcherKind::DesignB(w) => format!("design-b/{w}w"),
            PrefetcherKind::PmpCustom(_) => "pmp-custom".into(),
            PrefetcherKind::FaultyPanicAfter(n) => format!("faulty-panic/{n}"),
        }
    }

    /// Every kind addressable by label, in registry order: all but the
    /// parameterised ones (Design B, custom configs, fault mocks).
    pub const LABELLED: [PrefetcherKind; 11] = [
        PrefetcherKind::None,
        PrefetcherKind::NextLine,
        PrefetcherKind::Stride,
        PrefetcherKind::Sms,
        PrefetcherKind::DsPatch,
        PrefetcherKind::Bingo,
        PrefetcherKind::BingoAtLlc,
        PrefetcherKind::SppPpf,
        PrefetcherKind::Pythia,
        PrefetcherKind::Pmp,
        PrefetcherKind::PmpLimit,
    ];

    /// Parse a display label (or one of the aliases `none`, `stride`,
    /// `spp`) back into one of [`PrefetcherKind::LABELLED`].
    pub fn from_label(label: &str) -> Option<PrefetcherKind> {
        let label = match label {
            "none" => "baseline",
            "stride" => "ip-stride",
            "spp" => "spp-ppf",
            other => other,
        };
        Self::LABELLED.into_iter().find(|k| k.label() == label)
    }
}

/// The fault-injection mock behind [`PrefetcherKind::FaultyPanicAfter`].
struct PanicAfter {
    remaining: u64,
}

impl Introspect for PanicAfter {}

impl Prefetcher for PanicAfter {
    fn name(&self) -> &'static str {
        "faulty-panic"
    }

    fn on_access(&mut self, _info: &AccessInfo, _out: &mut Vec<PrefetchRequest>) {
        if self.remaining == 0 {
            panic!("injected fault: prefetcher panicked on schedule");
        }
        self.remaining -= 1;
    }

    fn storage_bits(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kinds_build() {
        let parameterised = [
            PrefetcherKind::DesignB(8),
            PrefetcherKind::PmpCustom(Box::default()),
            PrefetcherKind::FaultyPanicAfter(10),
        ];
        for k in PrefetcherKind::LABELLED.into_iter().chain(parameterised) {
            let p = k.build();
            assert!(!p.name().is_empty());
            assert!(!k.label().is_empty());
            k.validate().unwrap_or_else(|e| panic!("{} must validate: {e}", k.label()));
        }
    }

    #[test]
    fn validate_rejects_bad_parameters() {
        assert!(PrefetcherKind::DesignB(0).validate().is_err());
        assert!(PrefetcherKind::DesignB(4096).validate().is_err());
        assert!(PrefetcherKind::DesignB(512).validate().is_ok(), "Table VIII's largest point");
        let cfg = PmpConfig { opt_counter_bits: 0, ..PmpConfig::default() };
        assert!(PrefetcherKind::PmpCustom(Box::new(cfg)).validate().is_err());
        let cfg = PmpConfig { pb_entries: 0, ..PmpConfig::default() };
        assert!(PrefetcherKind::PmpCustom(Box::new(cfg)).validate().is_err());
    }

    #[test]
    fn faulty_prefetcher_panics_on_schedule() {
        use pmp_types::{Addr, MemAccess, Pc};
        let mut p = PrefetcherKind::FaultyPanicAfter(2).build();
        let info = AccessInfo {
            access: MemAccess::load(Pc(0x400), Addr(0x1000)),
            hit: false,
            cycle: 0,
            pq_free: 8,
        };
        let mut out = Vec::new();
        p.on_access(&info, &mut out); // 1st: fine
        p.on_access(&info, &mut out); // 2nd: fine
        let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.on_access(&info, &mut out)
        }));
        assert!(boom.is_err(), "3rd access must panic");
    }

    #[test]
    fn labels_round_trip_and_typos_do_not() {
        for kind in PrefetcherKind::LABELLED {
            let parsed = PrefetcherKind::from_label(&kind.label()).map(|k| k.label());
            assert_eq!(parsed, Some(kind.label()));
        }
        for (alias, label) in [("none", "baseline"), ("stride", "ip-stride"), ("spp", "spp-ppf")] {
            let parsed = PrefetcherKind::from_label(alias).map(|k| k.label());
            assert_eq!(parsed.as_deref(), Some(label));
        }
        for typo in ["PMP", "spp_ppf", "design-b/8w", "pmp-custom", " pmp", ""] {
            assert!(PrefetcherKind::from_label(typo).is_none(), "{typo:?}");
        }
    }

    #[test]
    fn paper_five_order() {
        let five = PrefetcherKind::paper_five();
        assert_eq!(five.len(), 5);
        assert_eq!(five[4].label(), "pmp");
    }
}
