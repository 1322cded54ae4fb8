//! Wire-format pin for PMP snapshots: a golden fixture must keep
//! decoding — and re-encoding — byte-identically.
//!
//! The fixture at `tests/fixtures/pmp_trained_v2.pmps` is the full
//! snapshot container (magic/version/CRCs) for a deterministically
//! trained default-config PMP. Its `capture`, `tables`, `buffer` and
//! `obs` payloads are byte-identical to those of the v1 fixture it
//! replaced, which the pre-SWAR (`Vec<u16>`) encoder wrote, so the
//! packed counter-vector layout is still pinned against the scalar
//! encoder's bytes. v2 differs from v1 only in the config fingerprint
//! (`PmpConfig` lost the switches of PMP's two future-work extensions,
//! cross-page prefetching and the adaptive L1D threshold), the two
//! sections those extensions kept, and the CRCs. The container version
//! is unchanged; a v1 image is refused as `config-mismatch`.
//!
//! The file is committed and must never be regenerated unless the PMP
//! state layout is *deliberately* revved (in which case bump the file
//! name's version suffix and say so in ARCHITECTURE.md).

use pmp_core::{Pmp, PmpConfig};
use pmp_prefetch::{AccessInfo, EvictInfo, Prefetcher};
use pmp_snapshot::{decode_image, encode_image};
use pmp_types::{Addr, MemAccess, Pc, Rng64};

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures/pmp_trained_v2.pmps");

fn access(pc: u64, addr: u64, pq_free: usize) -> AccessInfo {
    AccessInfo { access: MemAccess::load(Pc(pc), Addr(addr)), hit: false, cycle: 0, pq_free }
}

/// Deterministic training workload: streams, strided walks, and sparse
/// regions over several PCs and trigger offsets — enough merges to
/// saturate 5-bit time counters and force halvings, plus live capture
/// (FT/AT) and prefetch-buffer state at snapshot time.
fn train_fixture_pmp() -> Pmp {
    let mut pmp = Pmp::new(PmpConfig::default());
    let mut rng = Rng64::seed_from_u64(0x51AB_F1E1D);
    let mut out = Vec::new();
    for r in 0..400u64 {
        let pc = 0x400 + (r % 7) * 4;
        let base = (100 + r) * 4096;
        let trigger = r % 11;
        pmp.on_access(&access(pc, base + trigger * 64, 0), &mut out);
        let body = 2 + (r % 5);
        for k in 1..=body {
            let stride = 1 + (r % 3);
            let off = (trigger + k * stride) % 64;
            pmp.on_access(&access(pc, base + off * 64, 0), &mut out);
        }
        if rng.gen_range(0..4u32) != 0 {
            pmp.on_evict(&EvictInfo { line: Addr(base + trigger * 64).line(), cycle: 0 });
        }
        out.clear();
    }
    // A few trigger-only reads so the prefetch buffer holds parked
    // patterns when the snapshot is taken.
    for r in 0..4u64 {
        pmp.on_access(&access(0x400, (900 + r) * 4096 + 4 * 64, 2), &mut out);
    }
    pmp
}

/// Fixture generator, run once per deliberate layout rev and committed
/// (v1 before the SWAR rework; v2 when PMP's two extensions and their
/// sections were removed):
/// `cargo test -p pmp-bench --test snapshot_fixture -- --ignored`.
#[test]
#[ignore = "writes the committed fixture; run only to deliberately rev the state layout"]
fn regenerate_fixture() {
    let pmp = train_fixture_pmp();
    let image = pmp.save_state().expect("save");
    let bytes = encode_image(&image);
    std::fs::create_dir_all(std::path::Path::new(FIXTURE).parent().unwrap()).expect("mkdir");
    std::fs::write(FIXTURE, &bytes).expect("write fixture");
    eprintln!("wrote {} bytes to {FIXTURE}", bytes.len());
}

/// The committed fixture decodes, restores into a fresh PMP, and
/// re-encodes to the exact same bytes: the packed in-memory layout is
/// invisible on the wire.
#[test]
fn golden_fixture_restores_and_reencodes_bit_identically() {
    let bytes = std::fs::read(FIXTURE).expect("committed fixture present");
    let image = decode_image(&bytes).expect("container decodes");
    let mut pmp = Pmp::new(PmpConfig::default());
    pmp.load_state(&image).expect("state restores under the current layout");
    let back = encode_image(&pmp.save_state().expect("resave"));
    assert_eq!(back.len(), bytes.len(), "re-encoded snapshot length changed");
    assert_eq!(back, bytes, "snapshot wire format must stay byte-identical");
}

/// The restored state is the trained state, not merely parseable: it
/// predicts, and it matches a freshly trained PMP byte for byte.
#[test]
fn golden_fixture_matches_fresh_training_run() {
    let bytes = std::fs::read(FIXTURE).expect("committed fixture present");
    let fresh = encode_image(&train_fixture_pmp().save_state().expect("save"));
    assert_eq!(
        fresh, bytes,
        "deterministic training must still reproduce the committed fixture"
    );
    let image = decode_image(&bytes).expect("container decodes");
    let mut pmp = Pmp::new(PmpConfig::default());
    pmp.load_state(&image).expect("restore");
    let mut out = Vec::new();
    pmp.on_access(&access(0x400, 950 * 4096 + 4 * 64, 8), &mut out);
    assert!(!out.is_empty(), "restored PMP must predict from learned state");
}
