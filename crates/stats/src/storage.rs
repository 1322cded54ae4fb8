//! Storage-budget accounting (paper Tables III and V) and the JSON
//! schema of the simulator's counters and time-series.
//!
//! Every prefetcher reports its own bit-accurate budget via
//! [`pmp_prefetch::Prefetcher::storage_bits`]; this module renders the
//! comparison table and provides the itemised PMP breakdown of
//! Table III.
//!
//! The JSON values are built with [`pmp_types::json`], the workspace's
//! one codec; this module owns only the field names.

use pmp_prefetch::Prefetcher;
use pmp_sim::{IntervalSample, LevelStats, SimStats};
use pmp_types::json::Json;

/// One row of a storage table.
#[derive(Debug, Clone, PartialEq)]
pub struct StorageRow {
    /// Structure or prefetcher name.
    pub name: String,
    /// Budget in bits.
    pub bits: u64,
}

impl StorageRow {
    /// Budget in KiB, one decimal.
    pub fn kib(&self) -> f64 {
        (self.bits as f64 / 8.0 / 1024.0 * 10.0).round() / 10.0
    }

    /// Budget in bytes.
    pub fn bytes(&self) -> u64 {
        self.bits / 8
    }
}

/// Build Table V rows from a set of prefetchers.
pub fn table_v(prefetchers: &[(&str, &dyn Prefetcher)]) -> Vec<StorageRow> {
    prefetchers
        .iter()
        .map(|(name, p)| StorageRow { name: (*name).to_string(), bits: p.storage_bits() })
        .collect()
}

/// The itemised PMP budget of Table III for the default configuration:
/// (structure, bytes) pairs that must sum to ≈4.3KB.
pub fn table_iii_items() -> Vec<(&'static str, u64)> {
    use pmp_core::{buffer::PrefetchBuffer, capture::CaptureConfig};
    use pmp_core::tables::{OffsetPatternTable, PcPatternTable};
    let capture = CaptureConfig::default();
    // Table III splits the capture framework into FT and AT.
    let off = u64::from(capture.geometry.offset_bits());
    let len = u64::from(capture.geometry.lines_per_region());
    let ft_bits = (capture.ft_sets * capture.ft_ways) as u64 * ((39 - off) + 5 + off + 3);
    let at_bits =
        (capture.at_sets * capture.at_ways) as u64 * ((41 - off) + 5 + len + off + 4);
    vec![
        ("Filter Table", ft_bits / 8),
        ("Accumulation Table", at_bits / 8),
        ("Offset Pattern Table", OffsetPatternTable::new(6, 64, 5).storage_bits() / 8),
        ("PC Pattern Table", PcPatternTable::new(5, 64, 2, 5).storage_bits() / 8),
        ("Prefetch Buffer", PrefetchBuffer::new(16, 64).storage_bits() / 8),
    ]
}

/// Storage ratio `a / b` rounded to the nearest integer — the paper's
/// "30× lesser storage overhead" style comparisons.
pub fn ratio(a_bits: u64, b_bits: u64) -> f64 {
    if b_bits == 0 {
        return f64::INFINITY;
    }
    a_bits as f64 / b_bits as f64
}

/// A named `u64` counter of `T`: its JSON name and its place.
type Field<T> = (&'static str, fn(&mut T) -> &mut u64);

/// The [`LevelStats`] counters in serialisation order. Their JSON
/// names live only here: the writer and the reader both walk it.
const LEVEL_FIELDS: [Field<LevelStats>; 9] = [
    ("load_accesses", |l| &mut l.load_accesses),
    ("load_misses", |l| &mut l.load_misses),
    ("store_accesses", |l| &mut l.store_accesses),
    ("store_misses", |l| &mut l.store_misses),
    ("pf_fills", |l| &mut l.pf_fills),
    ("pf_useful", |l| &mut l.pf_useful),
    ("pf_useless", |l| &mut l.pf_useless),
    ("pf_late", |l| &mut l.pf_late),
    ("writebacks", |l| &mut l.writebacks),
];

/// The top-level [`SimStats`] counters in serialisation order: the
/// first two precede `ipc` and the per-level objects, the rest follow.
const SIM_FIELDS: [Field<SimStats>; 8] = [
    ("instructions", |s| &mut s.instructions),
    ("cycles", |s| &mut s.cycles),
    ("pf_issued", |s| &mut s.pf_issued),
    ("pf_admitted", |s| &mut s.pf_admitted),
    ("pf_dropped", |s| &mut s.pf_dropped),
    ("pf_redundant", |s| &mut s.pf_redundant),
    ("dram_requests", |s| &mut s.dram_requests),
    ("dram_writes", |s| &mut s.dram_writes),
];

/// The per-level object names, in [`SimStats::levels`] order.
const LEVEL_NAMES: [&str; 3] = ["l1d", "l2c", "llc"];

/// `obj` with each of `fields` of `v` appended (the accessors take
/// `&mut`, so each reads through a copy).
fn with_counters<T: Copy>(obj: Json, v: &T, fields: &[Field<T>]) -> Json {
    fields.iter().fold(obj, |obj, (name, field)| obj.with(name, *field(&mut { *v })))
}

/// Each of `fields` of `v` read from `obj`; `None` when any is missing
/// or not a `u64`.
fn read_counters<T>(obj: &Json, v: &mut T, fields: &[Field<T>]) -> Option<()> {
    for (name, field) in fields {
        *field(v) = obj.get(name)?.number()?;
    }
    Some(())
}

/// A full [`SimStats`] as a JSON object with per-level sub-objects
/// keyed `l1d` / `l2c` / `llc`, and the derived `ipc`.
pub fn sim_stats_to_json(s: &SimStats) -> Json {
    let mut obj = with_counters(Json::object(), s, &SIM_FIELDS[..2]);
    obj = obj.with("ipc", Json::float(s.ipc()));
    for (name, level) in LEVEL_NAMES.iter().zip(&s.levels) {
        obj = obj.with(name, with_counters(Json::object(), level, &LEVEL_FIELDS));
    }
    with_counters(obj, s, &SIM_FIELDS[2..])
}

/// Read back a [`SimStats`] written by [`sim_stats_to_json`]; `None`
/// when any counter is missing or not a `u64`.
pub fn sim_stats_from_json(v: &Json) -> Option<SimStats> {
    let mut s = SimStats::default();
    read_counters(v, &mut s, &SIM_FIELDS)?;
    for (level, name) in s.levels.iter_mut().zip(LEVEL_NAMES) {
        read_counters(v.get(name)?, level, &LEVEL_FIELDS)?;
    }
    Some(s)
}

/// One [`IntervalSample`] as a JSON object (a JSON-Lines record of the
/// interval time-series).
pub fn interval_sample_to_json(s: &IntervalSample) -> Json {
    let triple = |v: [u32; 3]| Json::from(v.map(Json::from).to_vec());
    Json::object()
        .with("core", s.core)
        .with("start_cycle", s.start_cycle)
        .with("end_cycle", s.end_cycle)
        .with("instructions", s.instructions)
        .with("ipc", Json::float(s.ipc))
        .with("mpki_l1d", Json::float(s.mpki[0]))
        .with("mpki_l2c", Json::float(s.mpki[1]))
        .with("mpki_llc", Json::float(s.mpki[2]))
        .with("dram_utilization", Json::float(s.dram_utilization))
        .with("pq_occupancy", triple(s.pq_occupancy))
        .with("mshr_occupancy", triple(s.mshr_occupancy))
}

/// A whole interval time-series as JSON Lines (one object per line).
pub fn interval_samples_to_json_lines(samples: &[IntervalSample]) -> String {
    samples.iter().map(|s| format!("{}\n", interval_sample_to_json(s))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmp_baselines::{Bingo, DsPatch, Pythia, SppPpf};
    use pmp_core::{Pmp, PmpConfig};
    use pmp_types::json::parse;

    #[test]
    fn table_iii_sums_to_4_3_kb() {
        let items = table_iii_items();
        let total: u64 = items.iter().map(|(_, b)| b).sum();
        assert_eq!(total, 4364, "Table III total: 376+456+2560+640+332");
        assert_eq!(items[0].1, 376);
        assert_eq!(items[1].1, 456);
        assert_eq!(items[2].1, 2560);
        assert_eq!(items[3].1, 640);
        assert_eq!(items[4].1, 332);
    }

    #[test]
    fn pmp_is_30x_smaller_than_bingo() {
        let pmp = Pmp::new(PmpConfig::default());
        let bingo = Bingo::default();
        let r = ratio(
            pmp_prefetch::Prefetcher::storage_bits(&bingo),
            pmp_prefetch::Prefetcher::storage_bits(&pmp),
        );
        assert!((20.0..=45.0).contains(&r), "Bingo/PMP storage ratio ≈30×, got {r:.1}");
    }

    #[test]
    fn pmp_is_about_6x_smaller_than_pythia() {
        let pmp = Pmp::new(PmpConfig::default());
        let pythia = Pythia::default();
        let r = ratio(
            pmp_prefetch::Prefetcher::storage_bits(&pythia),
            pmp_prefetch::Prefetcher::storage_bits(&pmp),
        );
        assert!((4.0..=10.0).contains(&r), "Pythia/PMP ratio ≈6×, got {r:.1}");
    }

    #[test]
    fn sim_stats_json_round_trips_values() {
        use pmp_types::CacheLevel;
        let mut s = SimStats {
            instructions: 12345,
            cycles: 6789,
            pf_issued: 42,
            dram_requests: 7,
            ..SimStats::default()
        };
        s.level_mut(CacheLevel::L2C).pf_useful = 9;
        s.level_mut(CacheLevel::Llc).writebacks = 3;
        let json = parse(&sim_stats_to_json(&s).to_string()).expect("valid JSON");
        assert_eq!(json.get("instructions").and_then(Json::number::<u64>), Some(12345));
        assert_eq!(json.get("ipc").and_then(Json::number::<f64>), Some(s.ipc()));
        // The l2c object carries its pf_useful; llc its writebacks.
        let l2c = json.get("l2c").expect("l2c");
        assert_eq!(l2c.get("pf_useful").and_then(Json::number::<u64>), Some(9));
        let llc = json.get("llc").expect("llc");
        assert_eq!(llc.get("writebacks").and_then(Json::number::<u64>), Some(3));
        assert_eq!(sim_stats_from_json(&json), Some(s));
        // Any missing counter fails the read.
        let Json::Obj(mut members) = json else { panic!("object") };
        members.retain(|(k, _)| k != "dram_writes");
        assert_eq!(sim_stats_from_json(&Json::Obj(members)), None);
    }

    #[test]
    fn interval_sample_json_lines() {
        let s = IntervalSample {
            core: 0,
            start_cycle: 1000,
            end_cycle: 2000,
            instructions: 500,
            ipc: 0.5,
            mpki: [12.0, 6.0, 3.0],
            dram_utilization: 0.25,
            pq_occupancy: [1, 2, 3],
            mshr_occupancy: [4, 5, 6],
        };
        let lines = interval_samples_to_json_lines(&[s, s]);
        assert_eq!(lines.lines().count(), 2);
        let first = lines.lines().next().unwrap();
        let json = parse(first).expect("valid JSON");
        assert_eq!(json.get("end_cycle").and_then(Json::number::<u64>), Some(2000));
        assert_eq!(json.get("mpki_l1d").and_then(Json::number::<f64>), Some(12.0));
        assert_eq!(json.get("dram_utilization").and_then(Json::number::<f64>), Some(0.25));
        assert!(first.contains("\"pq_occupancy\":[1,2,3]"));
    }

    #[test]
    fn non_finite_floats_serialise_as_null() {
        let s = IntervalSample {
            core: 0,
            start_cycle: 0,
            end_cycle: 1,
            instructions: 0,
            ipc: f64::NAN,
            mpki: [f64::INFINITY, 0.0, 0.0],
            dram_utilization: 0.0,
            pq_occupancy: [0; 3],
            mshr_occupancy: [0; 3],
        };
        let json = interval_sample_to_json(&s).to_string();
        assert!(json.contains("\"ipc\":null"));
        assert!(json.contains("\"mpki_l1d\":null"));
    }

    #[test]
    fn table_v_renders_rows() {
        let dspatch = DsPatch::default();
        let spp = SppPpf::default();
        let rows = table_v(&[("dspatch", &dspatch), ("spp-ppf", &spp)]);
        assert_eq!(rows.len(), 2);
        assert!(rows[0].kib() > 1.0);
        assert!(rows[1].bytes() > rows[0].bytes());
    }
}
