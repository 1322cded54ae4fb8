//! Snapshot/restore vocabulary: typed errors, the in-memory state
//! image, and the bounds-checked little-endian byte codec.
//!
//! Learned prefetcher state (PMP's counter vectors and pattern tables,
//! SPP's signature tables, DSPatch's dual patterns) is what a resident
//! prefetching service migrates, warm-starts, and A/B-swaps — so its
//! persistence must follow the same hostile-input discipline as trace
//! IO: every decode is bounds-checked, every failure is a typed
//! [`SnapshotError`], and nothing panics on truncated or bit-flipped
//! input.
//!
//! The split of responsibilities:
//!
//! * this module (dependency root) owns the *vocabulary*: the error
//!   taxonomy, the section-structured [`StateImage`] a prefetcher
//!   serialises itself into, and the [`ByteWriter`]/[`ByteReader`]
//!   codec components use to fill sections;
//! * each prefetcher crate owns its own *state walk* (fields are
//!   private where they belong — with the component);
//! * the `pmp-snapshot` crate owns the *container*: the versioned,
//!   checksummed wire format and crash-safe file IO.

use core::fmt;

/// The snapshot wire-format version this workspace writes and reads.
pub const SNAPSHOT_VERSION: u16 = 1;

/// A typed failure anywhere in the snapshot/restore stack.
#[derive(Debug)]
pub enum SnapshotError {
    /// The prefetcher does not implement snapshot/restore.
    Unsupported {
        /// The prefetcher's reported name.
        prefetcher: String,
    },
    /// File IO failed while writing or reading a snapshot.
    Io {
        /// What was being done (e.g. `"write temp snapshot"`).
        context: String,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The snapshot's format version is not the one this build speaks.
    VersionMismatch {
        /// Version found in the header.
        found: u16,
        /// Version this build writes ([`SNAPSHOT_VERSION`]).
        expected: u16,
    },
    /// The snapshot was taken from a different prefetcher kind.
    KindMismatch {
        /// Kind tag found in the header.
        found: String,
        /// Kind the restoring prefetcher reports.
        expected: String,
    },
    /// The snapshot was taken under a different configuration.
    ConfigMismatch {
        /// Config fingerprint found in the header.
        found: u64,
        /// Fingerprint of the restoring prefetcher's configuration.
        expected: u64,
    },
    /// The snapshot bytes are malformed: bad magic, failed checksum,
    /// truncation, or an out-of-range field.
    Corrupt {
        /// Where decoding failed (e.g. `"section opt"`).
        context: String,
        /// Why, with the offending value where useful.
        reason: String,
    },
}

impl SnapshotError {
    /// Shorthand for [`SnapshotError::Unsupported`].
    pub fn unsupported(prefetcher: impl Into<String>) -> Self {
        SnapshotError::Unsupported { prefetcher: prefetcher.into() }
    }

    /// Shorthand for [`SnapshotError::Io`].
    pub fn io(context: impl Into<String>, source: std::io::Error) -> Self {
        SnapshotError::Io { context: context.into(), source }
    }

    /// Shorthand for [`SnapshotError::Corrupt`].
    pub fn corrupt(context: impl Into<String>, reason: impl Into<String>) -> Self {
        SnapshotError::Corrupt { context: context.into(), reason: reason.into() }
    }

    /// A short stable tag for summaries and logs (`"unsupported"`,
    /// `"io"`, `"version-mismatch"`, `"kind-mismatch"`,
    /// `"config-mismatch"`, `"corrupt"`).
    pub fn kind_tag(&self) -> &'static str {
        match self {
            SnapshotError::Unsupported { .. } => "unsupported",
            SnapshotError::Io { .. } => "io",
            SnapshotError::VersionMismatch { .. } => "version-mismatch",
            SnapshotError::KindMismatch { .. } => "kind-mismatch",
            SnapshotError::ConfigMismatch { .. } => "config-mismatch",
            SnapshotError::Corrupt { .. } => "corrupt",
        }
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Unsupported { prefetcher } => {
                write!(f, "prefetcher `{prefetcher}` does not support snapshot/restore")
            }
            SnapshotError::Io { context, source } => {
                write!(f, "snapshot I/O failed ({context}): {source}")
            }
            SnapshotError::VersionMismatch { found, expected } => {
                write!(f, "snapshot version {found} is not the supported version {expected}")
            }
            SnapshotError::KindMismatch { found, expected } => {
                write!(f, "snapshot is for prefetcher `{found}`, not `{expected}`")
            }
            SnapshotError::ConfigMismatch { found, expected } => {
                write!(
                    f,
                    "snapshot config fingerprint {found:016x} differs from {expected:016x}"
                )
            }
            SnapshotError::Corrupt { context, reason } => {
                write!(f, "corrupt snapshot ({context}): {reason}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// One named, length-delimited chunk of serialized prefetcher state
/// (e.g. `"opt"`, `"capture"`, `"buffer"`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateSection {
    /// Section name, unique within its image.
    pub name: String,
    /// The section's encoded payload.
    pub bytes: Vec<u8>,
}

/// A prefetcher's complete learned state, structured as named sections.
///
/// This is the in-memory interchange form between a prefetcher's
/// `save_state`/`load_state` and the `pmp-snapshot` wire container:
/// the prefetcher fills sections with its own [`ByteWriter`]-encoded
/// component state, and the container adds versioning and checksums
/// around them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateImage {
    /// The prefetcher kind tag (its reported `name()`).
    pub kind: String,
    /// FNV-1a fingerprint of the prefetcher's configuration; restores
    /// refuse state captured under a different parameterisation.
    pub config_fingerprint: u64,
    /// The state sections, in encode order.
    pub sections: Vec<StateSection>,
}

impl StateImage {
    /// An empty image for `kind` under `config_fingerprint`.
    pub fn new(kind: impl Into<String>, config_fingerprint: u64) -> Self {
        StateImage { kind: kind.into(), config_fingerprint, sections: Vec::new() }
    }

    /// Append a section.
    pub fn push_section(&mut self, name: impl Into<String>, bytes: Vec<u8>) {
        self.sections.push(StateSection { name: name.into(), bytes });
    }

    /// The payload of the section called `name`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] when the image has no such section —
    /// restores treat a missing section as corruption, not a default.
    pub fn section(&self, name: &str) -> Result<&[u8], SnapshotError> {
        self.sections
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.bytes.as_slice())
            .ok_or_else(|| SnapshotError::corrupt(format!("section {name}"), "section missing"))
    }
}

/// FNV-1a over arbitrary bytes: cheap, deterministic, dependency-free —
/// the workspace's standard fingerprint hash.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fingerprint a configuration from its `Debug` rendering. Every
/// config in the workspace derives `Debug` over all behavioral fields,
/// so the rendering is a complete, stable parameterisation.
pub fn config_fingerprint(debug_repr: &str) -> u64 {
    fnv1a_64(debug_repr.as_bytes())
}

/// Little-endian section encoder. Infallible: it only ever appends.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Consume the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a bool as one byte (0/1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Append a little-endian u16.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an f64 as its little-endian bit pattern (bit-exact round
    /// trip; restores must be bit-identical, not approximately equal).
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Append raw bytes (caller frames the length itself).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// Bounds-checked little-endian section decoder.
///
/// Every read returns [`SnapshotError::Corrupt`] (naming `context`)
/// instead of panicking when the input runs out — the decoding half of
/// the hostile-input contract.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    at: usize,
    context: &'a str,
}

impl<'a> ByteReader<'a> {
    /// Decode `buf`, reporting failures against `context`
    /// (e.g. the section name).
    pub fn new(buf: &'a [u8], context: &'a str) -> Self {
        ByteReader { buf, at: 0, context }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    fn short(&self, want: usize) -> SnapshotError {
        SnapshotError::corrupt(
            self.context,
            format!("truncated: wanted {want} more bytes at offset {}, have {}", self.at, self.remaining()),
        )
    }

    /// Take `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] when fewer than `n` bytes remain.
    pub fn take_bytes(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(self.short(n));
        }
        let out = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(out)
    }

    /// Take one byte.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] on truncation.
    pub fn take_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take_bytes(1)?[0])
    }

    /// Take a bool encoded as one byte; anything but 0/1 is corrupt.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] on truncation or a non-boolean byte.
    pub fn take_bool(&mut self) -> Result<bool, SnapshotError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(SnapshotError::corrupt(self.context, format!("bool byte out of range: {v}"))),
        }
    }

    /// Take a little-endian u16.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] on truncation.
    pub fn take_u16(&mut self) -> Result<u16, SnapshotError> {
        let b = self.take_bytes(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Take a little-endian u32.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] on truncation.
    pub fn take_u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.take_bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Take a little-endian u64.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] on truncation.
    pub fn take_u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take_bytes(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Take an f64 from its little-endian bit pattern.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] on truncation.
    pub fn take_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Assert the section was consumed exactly — trailing garbage is
    /// corruption, not padding.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] when bytes remain.
    pub fn finish(self) -> Result<(), SnapshotError> {
        if self.remaining() != 0 {
            return Err(SnapshotError::corrupt(
                self.context,
                format!("{} trailing bytes after the last field", self.remaining()),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_round_trips_every_width() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u16(0xBEEF);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_f64(0.15625);
        w.put_bytes(b"tail");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, "test");
        assert_eq!(r.take_u8().unwrap(), 7);
        assert!(r.take_bool().unwrap());
        assert_eq!(r.take_u16().unwrap(), 0xBEEF);
        assert_eq!(r.take_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.take_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.take_f64().unwrap(), 0.15625);
        assert_eq!(r.take_bytes(4).unwrap(), b"tail");
        r.finish().unwrap();
    }

    #[test]
    fn reader_errors_are_typed_not_panics() {
        let mut r = ByteReader::new(&[1, 2], "section x");
        let err = r.take_u32().expect_err("2 bytes cannot hold a u32");
        assert_eq!(err.kind_tag(), "corrupt");
        assert!(err.to_string().contains("section x"), "{err}");

        let mut r = ByteReader::new(&[9], "flags");
        let err = r.take_bool().expect_err("9 is not a bool");
        assert_eq!(err.kind_tag(), "corrupt");

        let r = ByteReader::new(&[0, 0], "tail");
        assert!(r.finish().is_err(), "unconsumed bytes are corruption");
    }

    #[test]
    fn image_sections_are_found_by_name() {
        let mut img = StateImage::new("pmp", 0xABCD);
        img.push_section("opt", vec![1, 2, 3]);
        assert_eq!(img.section("opt").unwrap(), &[1, 2, 3]);
        let missing = img.section("ppt").expect_err("missing section");
        assert_eq!(missing.kind_tag(), "corrupt");
    }

    #[test]
    fn fingerprints_are_stable_and_distinguish_configs() {
        let a = config_fingerprint("PmpConfig { pb_entries: 16 }");
        let b = config_fingerprint("PmpConfig { pb_entries: 32 }");
        assert_ne!(a, b);
        assert_eq!(a, config_fingerprint("PmpConfig { pb_entries: 16 }"));
    }

    #[test]
    fn error_display_names_the_failure() {
        let e = SnapshotError::unsupported("bingo");
        assert!(e.to_string().contains("bingo"));
        assert_eq!(e.kind_tag(), "unsupported");
        let e = SnapshotError::VersionMismatch { found: 9, expected: SNAPSHOT_VERSION };
        assert!(e.to_string().contains('9'));
        let e = SnapshotError::KindMismatch { found: "spp".into(), expected: "pmp".into() };
        assert!(e.to_string().contains("spp") && e.to_string().contains("pmp"));
        let e = SnapshotError::ConfigMismatch { found: 1, expected: 2 };
        assert_eq!(e.kind_tag(), "config-mismatch");
        use std::error::Error as _;
        let io = SnapshotError::io("write temp", std::io::Error::other("disk full"));
        assert!(io.source().is_some(), "Io must chain its source");
    }
}
