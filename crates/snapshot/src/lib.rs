//! # pmp-snapshot
//!
//! Crash-safe persistence for learned prefetcher state.
//!
//! A long sweep trains prefetchers for minutes; a crash (or a deliberate
//! stop) should not discard that learning. This crate owns the *wire
//! container* around [`StateImage`] — the in-memory form every
//! [`Prefetcher::save_state`] produces — and the file IO discipline
//! around it:
//!
//! * **Versioned, checksummed format.** Magic + format version +
//!   prefetcher kind tag + config fingerprint + length-prefixed named
//!   sections, each with its own CRC-32, plus a whole-file CRC-32
//!   trailer. Any truncation or bit flip anywhere in the file fails a
//!   checksum or a bounds check and surfaces as a typed
//!   [`SnapshotError`] — never a panic.
//! * **Crash-safe writes.** [`write_snapshot`] writes to a sibling
//!   `.tmp` file, flushes, **reads the temp file back and verifies it
//!   byte-for-byte** (catching torn writes that report success), syncs,
//!   and only then atomically renames onto the final path. An
//!   interrupted write can never leave a half-written snapshot at the
//!   final path.
//! * **Paranoid restores.** [`read_snapshot`] bounds every allocation,
//!   verifies both checksum layers, and [`restore_prefetcher`] checks
//!   the kind tag before handing the image to the prefetcher's own
//!   validating `load_state`.

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

use pmp_prefetch::Prefetcher;
use pmp_types::{SnapshotError, StateImage, SNAPSHOT_VERSION};
use std::fs::File;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

pub use pmp_types::{StateSection, SNAPSHOT_VERSION as FORMAT_VERSION};

/// The four magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"PMPS";

/// Hard cap on accepted snapshot size: a hostile length field must not
/// be able to drive an unbounded allocation.
pub const MAX_SNAPSHOT_BYTES: u64 = 64 * 1024 * 1024;

/// Cap on the section count a container may declare.
const MAX_SECTIONS: u32 = 1024;
/// Cap on kind-tag and section-name lengths.
const MAX_NAME_LEN: u16 = 255;

const CTX: &str = "snapshot container";

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the same
/// checksum gzip/PNG use, implemented here because the workspace takes
/// no dependencies.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xffff_ffffu32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let lsb = crc & 1;
            crc >>= 1;
            if lsb != 0 {
                crc ^= 0xedb8_8320;
            }
        }
    }
    !crc
}

/// Serialize a [`StateImage`] into the versioned, checksummed wire
/// form.
///
/// Layout (all integers little-endian):
///
/// ```text
/// magic "PMPS" | version u16 | kind_len u16 | kind bytes
/// | config_fingerprint u64 | section_count u32
/// | per section: name_len u16 | name bytes
///               | payload_len u32 | payload bytes | crc32(payload) u32
/// | crc32(everything above) u32
/// ```
pub fn encode_image(image: &StateImage) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&SNAPSHOT_MAGIC);
    buf.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    let kind = image.kind.as_bytes();
    debug_assert!(kind.len() <= usize::from(MAX_NAME_LEN), "kind tag too long");
    buf.extend_from_slice(&(kind.len() as u16).to_le_bytes());
    buf.extend_from_slice(kind);
    buf.extend_from_slice(&image.config_fingerprint.to_le_bytes());
    buf.extend_from_slice(&(image.sections.len() as u32).to_le_bytes());
    for s in &image.sections {
        let name = s.name.as_bytes();
        debug_assert!(name.len() <= usize::from(MAX_NAME_LEN), "section name too long");
        buf.extend_from_slice(&(name.len() as u16).to_le_bytes());
        buf.extend_from_slice(name);
        buf.extend_from_slice(&(s.bytes.len() as u32).to_le_bytes());
        buf.extend_from_slice(&s.bytes);
        buf.extend_from_slice(&crc32(&s.bytes).to_le_bytes());
    }
    let file_crc = crc32(&buf);
    buf.extend_from_slice(&file_crc.to_le_bytes());
    buf
}

fn take_str(
    r: &mut pmp_types::ByteReader<'_>,
    what: &str,
) -> Result<String, SnapshotError> {
    let len = r.take_u16()?;
    if len > MAX_NAME_LEN {
        return Err(SnapshotError::corrupt(CTX, format!("{what} length {len} over the cap")));
    }
    let bytes = r.take_bytes(usize::from(len))?;
    String::from_utf8(bytes.to_vec())
        .map_err(|_| SnapshotError::corrupt(CTX, format!("{what} is not UTF-8")))
}

/// Parse and validate the wire form back into a [`StateImage`].
///
/// Validation order: magic, format version, whole-file checksum, then
/// bounds-checked structure with a per-section checksum each. Every
/// possible truncation and bit flip yields a typed error.
///
/// # Errors
///
/// [`SnapshotError::Corrupt`] for any malformed byte or a section name
/// that appears twice;
/// [`SnapshotError::VersionMismatch`] for a foreign format version.
pub fn decode_image(bytes: &[u8]) -> Result<StateImage, SnapshotError> {
    let mut hdr = pmp_types::ByteReader::new(bytes, CTX);
    let magic = hdr.take_bytes(4)?;
    if magic != SNAPSHOT_MAGIC {
        return Err(SnapshotError::corrupt(CTX, format!("bad magic {magic:02x?}")));
    }
    let version = hdr.take_u16()?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::VersionMismatch { found: version, expected: SNAPSHOT_VERSION });
    }
    if bytes.len() < 6 + 4 {
        return Err(SnapshotError::corrupt(CTX, "truncated before the file checksum"));
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    let computed = crc32(body);
    if stored != computed {
        return Err(SnapshotError::corrupt(
            CTX,
            format!("file checksum {stored:08x} != computed {computed:08x}"),
        ));
    }
    let mut r = pmp_types::ByteReader::new(&body[6..], CTX);
    let kind = take_str(&mut r, "kind tag")?;
    let config_fingerprint = r.take_u64()?;
    let section_count = r.take_u32()?;
    if section_count > MAX_SECTIONS {
        return Err(SnapshotError::corrupt(
            CTX,
            format!("section count {section_count} over the cap {MAX_SECTIONS}"),
        ));
    }
    let mut image = StateImage::new(kind, config_fingerprint);
    for _ in 0..section_count {
        let name = take_str(&mut r, "section name")?;
        if image.sections.iter().any(|s| s.name == name) {
            return Err(SnapshotError::corrupt(
                CTX,
                format!("section {name} appears twice"),
            ));
        }
        let payload_len = r.take_u32()? as usize;
        if payload_len > r.remaining() {
            return Err(SnapshotError::corrupt(
                CTX,
                format!("section {name} declares {payload_len} bytes, only {} remain", r.remaining()),
            ));
        }
        let payload = r.take_bytes(payload_len)?.to_vec();
        let stored = r.take_u32()?;
        let computed = crc32(&payload);
        if stored != computed {
            return Err(SnapshotError::corrupt(
                format!("section {name}"),
                format!("checksum {stored:08x} != computed {computed:08x}"),
            ));
        }
        image.push_section(name, payload);
    }
    r.finish()?;
    Ok(image)
}

/// Read and validate a snapshot from an arbitrary reader, with the
/// allocation bounded by [`MAX_SNAPSHOT_BYTES`].
///
/// # Errors
///
/// [`SnapshotError::Io`] on read failure, otherwise anything
/// [`decode_image`] reports.
pub fn read_snapshot_from<R: Read>(reader: R) -> Result<StateImage, SnapshotError> {
    let mut buf = Vec::new();
    let n = reader
        .take(MAX_SNAPSHOT_BYTES + 1)
        .read_to_end(&mut buf)
        .map_err(|e| SnapshotError::io("read snapshot", e))?;
    if n as u64 > MAX_SNAPSHOT_BYTES {
        return Err(SnapshotError::corrupt(
            CTX,
            format!("snapshot exceeds the {MAX_SNAPSHOT_BYTES}-byte cap"),
        ));
    }
    decode_image(&buf)
}

/// Read and validate the snapshot file at `path`.
///
/// # Errors
///
/// [`SnapshotError::Io`] when the file cannot be opened, otherwise
/// anything [`read_snapshot_from`] reports.
pub fn read_snapshot(path: &Path) -> Result<StateImage, SnapshotError> {
    let file = File::open(path)
        .map_err(|e| SnapshotError::io(format!("open snapshot {}", path.display()), e))?;
    read_snapshot_from(file)
}

/// The sibling temp path a crash-safe write stages through.
fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

/// Crash-safe snapshot write: encode, write to `<path>.tmp`, flush,
/// **read the temp file back and compare byte-for-byte** (a torn write
/// that claimed success is caught here), sync, then atomically rename
/// onto `path`. On any failure the temp file is removed and the final
/// path is left untouched — it either holds the complete new snapshot
/// or whatever was there before, never a torn file.
///
/// # Errors
///
/// [`SnapshotError::Io`] for filesystem failures;
/// [`SnapshotError::Corrupt`] when the temp file reads back different
/// from what was written.
pub fn write_snapshot(path: &Path, image: &StateImage) -> Result<(), SnapshotError> {
    write_snapshot_wrapped(path, image, |f| f)
}

/// [`write_snapshot`] with a hook wrapping the temp-file writer —
/// the fault-injection seam robustness tests drive `FaultyWriter`
/// through. Production callers use [`write_snapshot`].
///
/// # Errors
///
/// As [`write_snapshot`].
pub fn write_snapshot_wrapped<W, F>(
    path: &Path,
    image: &StateImage,
    wrap: F,
) -> Result<(), SnapshotError>
where
    W: Write,
    F: FnOnce(File) -> W,
{
    let bytes = encode_image(image);
    let tmp = tmp_path(path);
    let result = (|| {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)
                    .map_err(|e| SnapshotError::io("create snapshot directory", e))?;
            }
        }
        let file = File::create(&tmp)
            .map_err(|e| SnapshotError::io(format!("create temp snapshot {}", tmp.display()), e))?;
        let mut w = wrap(file);
        w.write_all(&bytes).map_err(|e| SnapshotError::io("write temp snapshot", e))?;
        w.flush().map_err(|e| SnapshotError::io("flush temp snapshot", e))?;
        drop(w);
        let written = std::fs::read(&tmp)
            .map_err(|e| SnapshotError::io("read back temp snapshot", e))?;
        if written != bytes {
            return Err(SnapshotError::corrupt(
                CTX,
                format!(
                    "temp snapshot read back {} bytes, wrote {} — torn write",
                    written.len(),
                    bytes.len()
                ),
            ));
        }
        File::open(&tmp)
            .and_then(|f| f.sync_all())
            .map_err(|e| SnapshotError::io("sync temp snapshot", e))?;
        std::fs::rename(&tmp, path)
            .map_err(|e| SnapshotError::io(format!("rename snapshot into {}", path.display()), e))?;
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Snapshot a prefetcher's learned state to `path`, crash-safely.
///
/// # Errors
///
/// [`SnapshotError::Unsupported`] when the prefetcher has no state
/// walk; otherwise anything [`write_snapshot`] reports.
pub fn save_prefetcher(p: &dyn Prefetcher, path: &Path) -> Result<(), SnapshotError> {
    write_snapshot(path, &p.save_state()?)
}

/// Restore a prefetcher's learned state from the snapshot at `path`,
/// validating the kind tag before the prefetcher's own `load_state`
/// checks the config fingerprint and every decoded field.
///
/// # Errors
///
/// [`SnapshotError::KindMismatch`] when the file was taken from a
/// different prefetcher kind; otherwise anything [`read_snapshot`] or
/// the prefetcher's `load_state` reports.
pub fn restore_prefetcher(p: &mut dyn Prefetcher, path: &Path) -> Result<(), SnapshotError> {
    let image = read_snapshot(path)?;
    if image.kind != p.name() {
        return Err(SnapshotError::KindMismatch {
            found: image.kind,
            expected: p.name().to_string(),
        });
    }
    p.load_state(&image)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmp_traces::faults::{Fault, FaultyWriter};

    fn sample_image() -> StateImage {
        let mut img = StateImage::new("pmp", 0xDEAD_BEEF_CAFE_F00D);
        img.push_section("alpha", vec![1, 2, 3, 4, 5]);
        img.push_section("beta", (0..200u32).map(|i| (i % 251) as u8).collect());
        img.push_section("empty", Vec::new());
        img
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pmp-snapshot-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn crc32_known_answer() {
        // The classic CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn wire_round_trip_is_lossless() {
        let img = sample_image();
        let bytes = encode_image(&img);
        let back = decode_image(&bytes).expect("decode");
        assert_eq!(back, img);
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = encode_image(&sample_image());
        for cut in 0..bytes.len() {
            let err = decode_image(&bytes[..cut]).expect_err("truncated snapshot must fail");
            assert!(
                matches!(err, SnapshotError::Corrupt { .. } | SnapshotError::VersionMismatch { .. }),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let bytes = encode_image(&sample_image());
        for at in 0..bytes.len() {
            let mut dirty = bytes.clone();
            dirty[at] ^= 0x01;
            assert!(decode_image(&dirty).is_err(), "flip at byte {at} must be caught");
        }
    }

    #[test]
    fn foreign_version_is_a_version_mismatch() {
        let mut bytes = encode_image(&sample_image());
        bytes[4] = 0x7f; // version low byte
        let err = decode_image(&bytes).expect_err("foreign version");
        assert_eq!(err.kind_tag(), "version-mismatch");
    }

    #[test]
    fn hostile_section_length_is_bounded() {
        // Rewrite section alpha's payload length to u32::MAX and fix the
        // file CRC so only the bounds check can catch it.
        let img = sample_image();
        let mut bytes = encode_image(&img);
        // Offset: magic 4 + version 2 + kind_len 2 + "pmp" 3 + fp 8 +
        // count 4 + name_len 2 + "alpha" 5 = 30.
        bytes[30..34].copy_from_slice(&u32::MAX.to_le_bytes());
        let len = bytes.len();
        let crc = crc32(&bytes[..len - 4]);
        bytes[len - 4..].copy_from_slice(&crc.to_le_bytes());
        let err = decode_image(&bytes).expect_err("hostile length");
        assert_eq!(err.kind_tag(), "corrupt");
        assert!(err.to_string().contains("alpha"), "{err}");
    }

    #[test]
    fn duplicate_section_name_is_rejected() {
        // Section names are unique within an image; a second "alpha"
        // would otherwise be shadowed by the first on lookup.
        let mut img = sample_image();
        img.push_section("alpha", vec![9, 9]);
        let err = decode_image(&encode_image(&img)).expect_err("duplicate section");
        assert_eq!(err.kind_tag(), "corrupt");
        assert!(err.to_string().contains("alpha"), "{err}");
    }

    #[test]
    fn file_round_trip_and_no_temp_left_behind() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join("state.pmps");
        let img = sample_image();
        write_snapshot(&path, &img).expect("write");
        assert_eq!(read_snapshot(&path).expect("read"), img);
        assert!(
            !tmp_path(&path).exists(),
            "successful write must clean up its temp file"
        );
        // Overwrite with different content: the rename replaces whole.
        let mut img2 = img.clone();
        img2.push_section("gamma", vec![9]);
        write_snapshot(&path, &img2).expect("overwrite");
        assert_eq!(read_snapshot(&path).expect("read"), img2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_write_never_reaches_the_final_path() {
        let dir = tmp_dir("torn");
        let path = dir.join("state.pmps");
        let img = sample_image();
        // A silently-truncating writer claims success; the read-back
        // verify must catch it and leave no file at the final path.
        let err = write_snapshot_wrapped(&path, &img, |f| {
            FaultyWriter::new(f, vec![Fault::TruncateAt(40)])
        })
        .expect_err("torn write must be detected");
        assert_eq!(err.kind_tag(), "corrupt");
        assert!(!path.exists(), "final path must stay untouched");
        assert!(!tmp_path(&path).exists(), "failed write must remove its temp file");

        // With a good snapshot already in place, a later torn write
        // must leave the old snapshot intact.
        write_snapshot(&path, &img).expect("good write");
        let err = write_snapshot_wrapped(&path, &img, |f| {
            FaultyWriter::new(f, vec![Fault::TruncateAt(10)])
        })
        .expect_err("torn overwrite must be detected");
        assert_eq!(err.kind_tag(), "corrupt");
        assert_eq!(read_snapshot(&path).expect("old snapshot survives"), img);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disk_error_mid_write_surfaces_as_io() {
        let dir = tmp_dir("ioerr");
        let path = dir.join("state.pmps");
        let err = write_snapshot_wrapped(&path, &sample_image(), |f| {
            FaultyWriter::new(
                f,
                vec![Fault::ErrorAt { at: 16, kind: std::io::ErrorKind::StorageFull }],
            )
        })
        .expect_err("disk full must surface");
        assert_eq!(err.kind_tag(), "io");
        assert!(!path.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prefetcher_save_restore_round_trips() {
        use pmp_core::{Pmp, PmpConfig};
        let dir = tmp_dir("pmp");
        let path = dir.join("pmp.pmps");
        let trained = Pmp::new(PmpConfig::default());
        save_prefetcher(&trained, &path).expect("save");
        let mut fresh = Pmp::new(PmpConfig::default());
        restore_prefetcher(&mut fresh, &path).expect("restore");
        // Kind guard: restoring the PMP file into DSPatch fails early.
        let mut other = pmp_baselines::DsPatch::default();
        let err = restore_prefetcher(&mut other, &path).expect_err("kind");
        assert_eq!(err.kind_tag(), "kind-mismatch");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unsupported_prefetcher_declines_cleanly() {
        let dir = tmp_dir("unsupported");
        let path = dir.join("noop.pmps");
        let p = pmp_prefetch::NoPrefetch;
        let err = save_prefetcher(&p, &path).expect_err("no state walk");
        assert_eq!(err.kind_tag(), "unsupported");
        assert!(!path.exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
