//! # pmp-baselines
//!
//! Clean-room Rust implementations of the four state-of-the-art
//! prefetchers the paper compares PMP against (Section V-A1), plus the
//! classic SMS prefetcher the capture framework descends from:
//!
//! | Prefetcher | Paper | Pattern form | Budget (paper Table V) |
//! |---|---|---|---|
//! | [`Sms`] | Somogyi+ ISCA'06 | bit vectors, PC+offset indexed | — |
//! | [`DsPatch`] | Bera+ MICRO'19 | dual bit vectors (OR/AND) | 3.6KB |
//! | [`Bingo`] | Bakhshalipour+ HPCA'19 / DPC-3 | bit vectors, PC+Address → PC+Offset | 127.8KB (enhanced) |
//! | [`SppPpf`] | Kim+ MICRO'16 + Bhatia+ ISCA'19 | delta signatures + perceptron filter | 48.4KB |
//! | [`Pythia`] | Bera+ MICRO'21 | tabular RL over program features | 25.5KB |
//!
//! Each implementation follows its paper's published structure at the
//! published sizes; micro-details that the original papers leave to
//! implementations (hash functions, replacement tie-breaks) are chosen
//! for simplicity and documented inline.
//!
//! ## Example
//!
//! ```
//! use pmp_baselines::{Bingo, DsPatch, Pythia, Sms, SppPpf};
//! use pmp_prefetch::Prefetcher;
//!
//! // Storage budgets land in Table V's neighbourhood.
//! let bingo = Bingo::default();
//! let kib = bingo.storage_bits() as f64 / 8.0 / 1024.0;
//! assert!(kib > 100.0, "enhanced Bingo is a heavy prefetcher: {kib}");
//! let dspatch = DsPatch::default();
//! assert!(dspatch.storage_bits() / 8 / 1024 < 8);
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod bingo;
pub mod dspatch;
pub mod pythia;
pub mod sms;
pub mod spp;

pub use bingo::{Bingo, BingoConfig};
pub use dspatch::{DsPatch, DsPatchConfig};
pub use pythia::{Pythia, PythiaConfig};
pub use sms::{Sms, SmsConfig};
pub use spp::{SppPpf, SppPpfConfig};
