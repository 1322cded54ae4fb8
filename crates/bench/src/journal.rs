//! JSONL results journal with checkpoint/resume.
//!
//! Grid sweeps at paper scale (125 traces × many prefetchers) take long
//! enough that losing completed work to one bad cell — or to a
//! ctrl-C — is the dominant robustness cost. The journal makes each
//! completed (trace, prefetcher, scale, config) cell durable the moment
//! it finishes: the runner appends one JSON line per cell to
//! `results/journal.jsonl`, and a re-run started with `--resume` serves
//! those cells from the journal instead of re-simulating them, so only
//! missing (i.e. previously failed or never-reached) cells execute.
//!
//! The journal is a process-wide singleton the runner consults
//! implicitly (threading a handle through every experiment function
//! would churn two dozen call sites for no flexibility anyone needs):
//! binaries opt in via [`init_global`]; tests can install an in-memory
//! journal via [`install_global`] and reset with [`clear_global`].
//!
//! ## Record format
//!
//! One compact JSON object per line, written and read with
//! [`pmp_types::json`]; `stats` goes through the one `SimStats` field
//! table behind [`pmp_stats::sim_stats_to_json`] and
//! [`pmp_stats::sim_stats_from_json`]. Strings are escaped, so a cell
//! named by a path with `"`, `\` or a control character resumes under
//! its raw key:
//!
//! ```json
//! {"key":"spec06.mcf_2|pmp|Small|a1b2...","trace":"spec06.mcf_2","suite":0,"prefetcher":"pmp",
//!  "instructions":123,"cycles":456,"wall_ms":97,"outcome":"ok","stats":{...}}
//! ```
//!
//! `wall_ms` (the cell's wall-clock cost) and `outcome` (the span tag,
//! always `"ok"` for journaled cells) default to `0` / `"ok"` when
//! missing, so journals older than those fields still resume.
//! Unparseable lines (torn tail writes after a crash) are skipped on
//! load and counted, never fatal: a corrupt journal degrades to
//! re-running some cells.

use pmp_sim::SimStats;
use pmp_traces::Suite;
use pmp_types::fnv1a_64;
use pmp_types::json::{self, Json};
use std::collections::HashMap;
use std::fs::OpenOptions;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

/// One journaled (completed) grid cell.
#[derive(Debug, Clone)]
pub struct JournalEntry {
    /// Trace name.
    pub trace: String,
    /// Trace suite.
    pub suite: Suite,
    /// Prefetcher label.
    pub prefetcher: String,
    /// Measured-window instructions.
    pub instructions: u64,
    /// Measured-window cycles.
    pub cycles: u64,
    /// Wall-clock the cell cost when it executed, in milliseconds
    /// (0 for records written before the telemetry PR).
    pub wall_ms: u64,
    /// Span outcome tag (`"ok"` — only completed cells are journaled;
    /// the field exists so future partial-result records stay
    /// parseable).
    pub outcome: String,
    /// Measured-window counters.
    pub stats: SimStats,
}

/// Outcome of loading a journal file on resume.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResumeInfo {
    /// Cells loaded and available for reuse.
    pub loaded: usize,
    /// Lines skipped as unparseable (torn writes, corruption).
    pub skipped: usize,
}

/// An append-only journal of completed cells, keyed by cell key.
#[derive(Default)]
pub struct Journal {
    entries: HashMap<String, JournalEntry>,
    writer: Option<Box<dyn Write + Send>>,
    hits: u64,
    /// Appends that never reached the writer (disk full, IO error).
    dropped: u64,
    /// The last append error, for the end-of-sweep warning.
    last_error: Option<String>,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("entries", &self.entries.len())
            .field("writer", &self.writer.is_some())
            .field("hits", &self.hits)
            .field("dropped", &self.dropped)
            .finish()
    }
}

impl Journal {
    /// An in-memory journal (tests; nothing touches disk).
    pub fn in_memory() -> Self {
        Journal::default()
    }

    /// An in-memory journal appending through `writer` — the test seam
    /// for exercising append failures without a real full disk.
    pub fn with_writer(writer: Box<dyn Write + Send>) -> Self {
        Journal { writer: Some(writer), ..Journal::default() }
    }

    /// Open (append mode) the journal at `path`. With `resume` the
    /// existing records are loaded for reuse; without it the file is
    /// truncated unread and the sweep starts fresh.
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors. Unreadable *content* is never
    /// an error — bad lines are counted in [`ResumeInfo::skipped`].
    pub fn open(path: &Path, resume: bool) -> io::Result<(Self, ResumeInfo)> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let mut journal = Journal::default();
        let mut info = ResumeInfo::default();
        if resume {
            let body = match std::fs::read_to_string(path) {
                Ok(body) => body,
                Err(e) if e.kind() == io::ErrorKind::NotFound => String::new(),
                Err(e) => return Err(e),
            };
            for line in body.lines().filter(|l| !l.trim().is_empty()) {
                if let Some((key, entry)) = parse_record(line) {
                    journal.entries.insert(key, entry);
                } else {
                    info.skipped += 1;
                }
            }
            info.loaded = journal.entries.len();
        }
        let file = OpenOptions::new()
            .create(true)
            .append(resume)
            .write(true)
            .truncate(!resume)
            .open(path)?;
        journal.writer = Some(Box::new(BufWriter::new(file)));
        Ok((journal, info))
    }

    /// The journaled entries for *all* of `keys` — one key for a
    /// single-core cell, one per core for a mix — or `None` if any is
    /// missing. A mix is only resumable as a whole; a partial hit
    /// re-runs the cell and counts no hits (so [`Journal::hits`] never
    /// inflates the resumed tally with work that was re-simulated
    /// anyway).
    pub fn lookup_all(&mut self, keys: &[String]) -> Option<Vec<JournalEntry>> {
        let found: Option<Vec<JournalEntry>> =
            keys.iter().map(|k| self.entries.get(k).cloned()).collect();
        if found.is_some() {
            // One hit per resumed *cell*, not per key: a 4-core mix
            // resumes as a single cell, and `SweepSummary.resumed`
            // counts cells.
            self.hits += 1;
        }
        found
    }

    /// Record a completed cell and flush it to disk immediately (a
    /// crash right after must not lose the cell).
    ///
    /// Durability is best-effort — a full disk must not kill a sweep
    /// still holding healthy in-memory results — but append failures
    /// are counted and surfaced via [`Journal::write_warning`] instead
    /// of vanishing: the operator learns the checkpoint is incomplete.
    pub fn record(&mut self, key: &str, entry: JournalEntry) {
        let line = render_record(key, &entry);
        if let Some(w) = &mut self.writer {
            if let Err(e) = writeln!(w, "{line}").and_then(|()| w.flush()) {
                self.dropped += 1;
                self.last_error = Some(e.to_string());
            }
        }
        self.entries.insert(key.to_string(), entry);
    }

    /// Appends that failed to persist since the journal was opened.
    pub fn dropped_appends(&self) -> u64 {
        self.dropped
    }

    /// A human-readable warning when any append failed to persist, or
    /// `None` when the on-disk checkpoint is complete.
    pub fn write_warning(&self) -> Option<String> {
        (self.dropped > 0).then(|| {
            format!(
                "journal: {} append(s) failed to persist ({}); \
                 the checkpoint is incomplete and a --resume will re-run those cells",
                self.dropped,
                self.last_error.as_deref().unwrap_or("unknown error"),
            )
        })
    }

    /// Completed cells currently known.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no cells are journaled.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lookups served from the journal since it was opened.
    pub fn hits(&self) -> u64 {
        self.hits
    }
}

// ---------------------------------------------------------------------
// Process-wide journal the runner consults.
// ---------------------------------------------------------------------

static GLOBAL: Mutex<Option<Journal>> = Mutex::new(None);

/// Lock the global journal slot, surviving a poisoned mutex (a worker
/// that panicked mid-record must not poison every later cell — that is
/// exactly the failure mode this PR removes).
fn global_slot() -> std::sync::MutexGuard<'static, Option<Journal>> {
    GLOBAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Open `path` and install it as the process-wide journal.
///
/// # Errors
///
/// Propagates [`Journal::open`] errors.
pub fn init_global(path: &Path, resume: bool) -> io::Result<ResumeInfo> {
    let (journal, info) = Journal::open(path, resume)?;
    *global_slot() = Some(journal);
    Ok(info)
}

/// Install an already-built journal (tests use in-memory ones).
pub fn install_global(journal: Journal) {
    *global_slot() = Some(journal);
}

/// Remove the global journal (subsequent sweeps run un-journaled).
pub fn clear_global() {
    *global_slot() = None;
}

/// Whether a global journal is installed.
pub fn global_active() -> bool {
    global_slot().is_some()
}

/// All-or-nothing journal lookup for a cell's keys. `None` when
/// inactive or when any key is missing. See [`Journal::lookup_all`].
pub fn global_lookup_all(keys: &[String]) -> Option<Vec<JournalEntry>> {
    global_slot().as_mut().and_then(|j| j.lookup_all(keys))
}

/// Record a completed cell into the global journal (no-op when
/// inactive).
pub fn global_record(key: &str, entry: JournalEntry) {
    if let Some(j) = global_slot().as_mut() {
        j.record(key, entry);
    }
}

/// Lookups served from the global journal so far (resume hit count).
pub fn global_hits() -> u64 {
    global_slot().as_ref().map_or(0, Journal::hits)
}

/// End-of-sweep warning when any journal append failed to persist
/// (None when inactive or when the checkpoint is complete). See
/// [`Journal::write_warning`].
pub fn global_write_warning() -> Option<String> {
    global_slot().as_ref().and_then(Journal::write_warning)
}

// ---------------------------------------------------------------------
// Cell keys.
// ---------------------------------------------------------------------

/// Build the journal key for one grid cell. The human-readable prefix
/// (trace, prefetcher label, scale) makes journals greppable; the
/// fingerprint hash covers everything the label does not — the full
/// prefetcher parameterisation (two `PmpCustom` sweeps share a label
/// but not a configuration) and the system configuration — so a cell
/// is only ever reused for an identical experiment.
pub fn cell_key(trace: &str, label: &str, scale_tag: &str, fingerprint_input: &str) -> String {
    format!("{trace}|{label}|{scale_tag}|{:016x}", fnv1a_64(fingerprint_input.as_bytes()))
}

// ---------------------------------------------------------------------
// Serialisation.
// ---------------------------------------------------------------------

fn suite_index(suite: Suite) -> usize {
    Suite::ALL.iter().position(|s| *s == suite).unwrap_or(0)
}

fn render_record(key: &str, e: &JournalEntry) -> String {
    Json::object()
        .with("key", key)
        .with("trace", e.trace.as_str())
        .with("suite", suite_index(e.suite))
        .with("prefetcher", e.prefetcher.as_str())
        .with("instructions", e.instructions)
        .with("cycles", e.cycles)
        .with("wall_ms", e.wall_ms)
        .with("outcome", e.outcome.as_str())
        .with("stats", pmp_stats::sim_stats_to_json(&e.stats))
        .to_string()
}

fn parse_record(line: &str) -> Option<(String, JournalEntry)> {
    let record = json::parse(line).ok()?;
    let text = |key: &str| record.get(key).and_then(Json::as_str).map(str::to_string);
    let count = |key: &str| record.get(key).and_then(Json::number::<u64>);
    let entry = JournalEntry {
        trace: text("trace")?,
        suite: *Suite::ALL.get(usize::try_from(count("suite")?).ok()?)?,
        prefetcher: text("prefetcher")?,
        instructions: count("instructions")?,
        cycles: count("cycles")?,
        // Telemetry fields are younger than the journal format:
        // records from pre-telemetry journals default instead of
        // failing, so old checkpoints still resume.
        wall_ms: count("wall_ms").unwrap_or(0),
        outcome: text("outcome").unwrap_or_else(|| "ok".into()),
        stats: pmp_stats::sim_stats_from_json(record.get("stats")?)?,
    };
    Some((text("key")?, entry))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmp_types::CacheLevel;

    fn sample_entry() -> JournalEntry {
        let mut stats = SimStats {
            instructions: 9000,
            cycles: 4500,
            pf_issued: 77,
            pf_admitted: 70,
            pf_dropped: 4,
            pf_redundant: 3,
            dram_requests: 1234,
            dram_writes: 56,
            ..SimStats::default()
        };
        stats.level_mut(CacheLevel::L1D).load_accesses = 3000;
        stats.level_mut(CacheLevel::L1D).load_misses = 120;
        stats.level_mut(CacheLevel::L2C).pf_useful = 44;
        stats.level_mut(CacheLevel::Llc).writebacks = 9;
        JournalEntry {
            trace: "spec06.mcf_2".into(),
            suite: Suite::Spec06,
            prefetcher: "pmp".into(),
            instructions: 9000,
            cycles: 4500,
            wall_ms: 137,
            outcome: "ok".into(),
            stats,
        }
    }

    #[test]
    fn record_round_trips() {
        let entry = sample_entry();
        let line = render_record("k1|pmp|Small|0123456789abcdef", &entry);
        let (key, back) = parse_record(&line).expect("parse");
        assert_eq!(key, "k1|pmp|Small|0123456789abcdef");
        assert_eq!(back.trace, entry.trace);
        assert_eq!(back.suite, entry.suite);
        assert_eq!(back.prefetcher, entry.prefetcher);
        assert_eq!(back.instructions, entry.instructions);
        assert_eq!(back.cycles, entry.cycles);
        assert_eq!(back.wall_ms, 137);
        assert_eq!(back.outcome, "ok");
        assert_eq!(back.stats, entry.stats, "full SimStats must survive the round trip");
    }

    #[test]
    fn pre_telemetry_records_parse_with_defaults() {
        // A record in the exact format journals used before wall_ms /
        // outcome existed must still load (fields defaulted), so old
        // checkpoints keep resuming.
        let entry = sample_entry();
        let old_line = format!(
            "{{\"key\":\"old-key\",\"trace\":\"{}\",\"suite\":0,\"prefetcher\":\"pmp\",\
             \"instructions\":{},\"cycles\":{},\"stats\":{}}}",
            entry.trace,
            entry.instructions,
            entry.cycles,
            pmp_stats::sim_stats_to_json(&entry.stats),
        );
        let (key, back) = parse_record(&old_line).expect("old-format record must parse");
        assert_eq!(key, "old-key");
        assert_eq!(back.instructions, entry.instructions);
        assert_eq!(back.wall_ms, 0, "missing wall_ms defaults");
        assert_eq!(back.outcome, "ok", "missing outcome defaults");
        assert_eq!(back.stats, entry.stats);
    }

    #[test]
    fn old_journal_file_resumes() {
        // End-to-end form of the compatibility guarantee: a journal
        // file written by the pre-telemetry format loads and serves
        // lookups.
        let dir = std::env::temp_dir().join("pmp_journal_compat_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("journal.jsonl");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let entry = sample_entry();
        let old_line = format!(
            "{{\"key\":\"compat-cell\",\"trace\":\"{}\",\"suite\":0,\"prefetcher\":\"pmp\",\
             \"instructions\":{},\"cycles\":{},\"stats\":{}}}\n",
            entry.trace,
            entry.instructions,
            entry.cycles,
            pmp_stats::sim_stats_to_json(&entry.stats),
        );
        std::fs::write(&path, old_line).expect("seed old-format journal");
        let (mut journal, info) = Journal::open(&path, true).expect("open");
        assert_eq!(info.loaded, 1);
        assert_eq!(info.skipped, 0);
        let got = journal.lookup_all(&["compat-cell".into()]).expect("old cell resumes");
        assert_eq!(got[0].cycles, entry.cycles);
        assert_eq!(got[0].wall_ms, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_lines_are_skipped_not_fatal() {
        let dir = std::env::temp_dir().join("pmp_journal_corrupt_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("journal.jsonl");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let good = render_record("good-key", &sample_entry());
        let torn = &good[..good.len() / 2];
        std::fs::write(&path, format!("{good}\nnot json at all\n{torn}\n")).expect("seed");
        let (journal, info) = Journal::open(&path, true).expect("open");
        assert_eq!(info.loaded, 1);
        assert_eq!(info.skipped, 2);
        assert_eq!(journal.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fresh_open_truncates() {
        let dir = std::env::temp_dir().join("pmp_journal_fresh_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("journal.jsonl");
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(&path, render_record("stale", &sample_entry()) + "\n").expect("seed");
        let (journal, info) = Journal::open(&path, false).expect("open");
        assert_eq!(info.loaded, 0);
        assert!(journal.is_empty());
        drop(journal);
        assert_eq!(std::fs::read_to_string(&path).expect("read").len(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_then_resume_restores_cells() {
        let dir = std::env::temp_dir().join("pmp_journal_resume_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("journal.jsonl");
        {
            let (mut journal, _) = Journal::open(&path, false).expect("open");
            journal.record("cell-a", sample_entry());
            let mut other = sample_entry();
            other.trace = "ligra.bfs_2".into();
            other.suite = Suite::Ligra;
            journal.record("cell-b", other);
        }
        let (mut journal, info) = Journal::open(&path, true).expect("reopen");
        assert_eq!(info.loaded, 2);
        assert_eq!(info.skipped, 0);
        let a = journal.lookup_all(&["cell-a".into()]).expect("cell-a journaled");
        assert_eq!(a[0].trace, "spec06.mcf_2");
        let b = journal.lookup_all(&["cell-b".into()]).expect("cell-b journaled");
        assert_eq!(b[0].suite, Suite::Ligra);
        assert!(journal.lookup_all(&["cell-c".into()]).is_none());
        assert_eq!(journal.hits(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lookup_all_is_all_or_nothing() {
        let mut journal = Journal::in_memory();
        journal.record("mix#c0", sample_entry());
        journal.record("mix#c1", sample_entry());
        // Partial coverage: no entries returned, no hits counted.
        assert!(journal.lookup_all(&["mix#c0".into(), "mix#c2".into()]).is_none());
        assert_eq!(journal.hits(), 0);
        // Full coverage: all entries, hits advanced by ONE — the group
        // resumes as a single cell, however many keys it spans.
        let got = journal
            .lookup_all(&["mix#c0".into(), "mix#c1".into()])
            .expect("both journaled");
        assert_eq!(got.len(), 2);
        assert_eq!(journal.hits(), 1, "one resumed cell, not one hit per core");
    }

    /// A writer that fails every write, like a full disk that stays
    /// full.
    struct BrokenWriter;
    impl Write for BrokenWriter {
        fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
            Err(io::Error::new(io::ErrorKind::StorageFull, "disk full"))
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn failed_appends_warn_but_do_not_abort() {
        let mut journal = Journal::with_writer(Box::new(BrokenWriter));
        assert!(journal.write_warning().is_none(), "clean journal has no warning");
        journal.record("cell-a", sample_entry());
        journal.record("cell-b", sample_entry());
        // Both cells are still served from memory: the sweep continues.
        assert!(journal.lookup_all(&["cell-a".into(), "cell-b".into()]).is_some());
        assert_eq!(journal.dropped_appends(), 2);
        let warning = journal.write_warning().expect("failures must surface");
        assert!(warning.contains("2 append(s)"), "{warning}");
        assert!(warning.contains("disk full"), "{warning}");
    }

    #[test]
    fn cell_key_hash_is_pinned() {
        // FNV-1a 64 of "PmpCustom|cfg": journals written before keys
        // moved to `pmp_types::fnv1a_64` must keep resuming.
        assert_eq!(
            cell_key("spec06.mcf_2", "pmp", "Small", "PmpCustom|cfg"),
            "spec06.mcf_2|pmp|Small|f67b0a5fda4c4f93"
        );
    }

    #[test]
    fn hostile_file_names_journal_and_resume_under_their_raw_key() {
        let dir = std::env::temp_dir().join("pmp_journal_hostile_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("journal.jsonl");
        let cell = crate::runner::CellSpec::File("traces/we\"ird\\na\tme\u{1}.pmpt".into());
        let key = cell_key(&cell.name(), "pmp", "Small", "fingerprint");
        {
            let (mut journal, _) = Journal::open(&path, false).expect("open");
            let mut entry = sample_entry();
            entry.trace = cell.name();
            journal.record(&key, entry);
        }
        let (mut journal, info) = Journal::open(&path, true).expect("reopen");
        assert_eq!((info.loaded, info.skipped), (1, 0));
        assert!(journal.lookup_all(std::slice::from_ref(&key)).is_some(), "{key:?} must resume");
        let got = journal.lookup_all(&[key]).expect("resumes");
        assert_eq!(got[0].trace, cell.name());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cell_keys_separate_configs_sharing_a_label() {
        let a = cell_key("t", "pmp-custom", "Small", "cfg-variant-1");
        let b = cell_key("t", "pmp-custom", "Small", "cfg-variant-2");
        assert_ne!(a, b);
        assert!(a.starts_with("t|pmp-custom|Small|"));
    }
}
