//! Bit-vector access patterns and prefetch patterns.
//!
//! A [`BitPattern`] records *which* line offsets of a memory region were
//! accessed (the SMS bit-vector form, Section II of the paper). A
//! [`PrefetchPattern`] records, per offset, *where* to prefetch the line
//! — the output of PMP's extraction + arbitration (Fig. 6).

use crate::level::CacheLevel;
use core::fmt;

/// A bit vector over the line offsets of one memory region.
///
/// Supports pattern lengths 2..=64 (the paper evaluates 64/32/16,
/// Table IX). Offset 0 is the first line of the region.
///
/// ```
/// use pmp_types::BitPattern;
/// // Access sequence P+2, P+1, P+4 inside region P (Fig. 6a).
/// let mut p = BitPattern::new(8);
/// p.set(2);
/// p.set(1);
/// p.set(4);
/// assert_eq!(p.bits(), 0b0001_0110);
/// // Anchor at the trigger offset 2 (left circular shift by 2).
/// let anchored = p.rotate_to_anchor(2);
/// assert_eq!(anchored.bits(), 0b1000_0101);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BitPattern {
    bits: u64,
    len: u8,
}

impl BitPattern {
    /// Create an empty pattern of `len` offsets.
    ///
    /// # Panics
    ///
    /// Panics if `len` is not in `2..=64`.
    pub fn new(len: u32) -> Self {
        assert!((2..=64).contains(&len), "pattern length must be in 2..=64, got {len}");
        BitPattern { bits: 0, len: len as u8 }
    }

    /// Create a pattern from raw bits (bits beyond `len` are masked off).
    pub fn from_bits(bits: u64, len: u32) -> Self {
        let mut p = BitPattern::new(len);
        p.bits = bits & p.mask();
        p
    }

    #[inline]
    fn mask(self) -> u64 {
        if self.len == 64 {
            u64::MAX
        } else {
            (1u64 << self.len) - 1
        }
    }

    /// The pattern length (number of offsets tracked).
    #[inline]
    pub fn len(self) -> u32 {
        u32::from(self.len)
    }

    /// True when no offset is set.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.bits == 0
    }

    /// Raw bit representation (bit `i` ⇔ offset `i` accessed).
    #[inline]
    pub fn bits(self) -> u64 {
        self.bits
    }

    /// Mark offset `off` as accessed.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `off >= len`.
    #[inline]
    pub fn set(&mut self, off: u8) {
        debug_assert!(off < self.len, "offset {off} out of pattern length {}", self.len);
        self.bits |= 1u64 << off;
    }

    /// Whether offset `off` is set.
    #[inline]
    pub fn get(self, off: u8) -> bool {
        debug_assert!(off < self.len, "offset {off} out of pattern length {}", self.len);
        self.bits & (1u64 << off) != 0
    }

    /// Number of offsets set.
    #[inline]
    pub fn count(self) -> u32 {
        self.bits.count_ones()
    }

    /// Left circular shift by `anchor` positions within the pattern
    /// length, so the anchor offset becomes offset 0.
    ///
    /// This is the paper's "anchored bit vector" conversion (Fig. 6a):
    /// patterns are stored relative to their trigger offset so patterns
    /// from different regions merge meaningfully.
    #[inline]
    pub fn rotate_to_anchor(self, anchor: u8) -> BitPattern {
        debug_assert!(anchor < self.len, "anchor {anchor} out of pattern length {}", self.len);
        let n = u32::from(self.len);
        let a = u32::from(anchor);
        let bits = if a == 0 {
            self.bits
        } else {
            ((self.bits >> a) | (self.bits << (n - a))) & self.mask()
        };
        BitPattern { bits, len: self.len }
    }

    /// Inverse of [`BitPattern::rotate_to_anchor`].
    #[inline]
    pub fn rotate_from_anchor(self, anchor: u8) -> BitPattern {
        debug_assert!(anchor < self.len, "anchor {anchor} out of pattern length {}", self.len);
        let n = u32::from(self.len);
        let a = u32::from(anchor);
        let bits = if a == 0 {
            self.bits
        } else {
            ((self.bits << a) | (self.bits >> (n - a))) & self.mask()
        };
        BitPattern { bits, len: self.len }
    }

    /// Iterate over the set offsets, ascending.
    pub fn iter_set(self) -> impl Iterator<Item = u8> {
        let bits = self.bits;
        (0..self.len).filter(move |&i| bits & (1u64 << i) != 0)
    }

    /// Fold the pattern down to `len / range` coarse positions by OR-ing
    /// each group of `range` adjacent bits (the paper's *monitoring
    /// range* reduction feeding the Coarse Counter Vector, Fig. 6d).
    ///
    /// ```
    /// use pmp_types::BitPattern;
    /// let p = BitPattern::from_bits(0b1010_0001, 8);
    /// assert_eq!(p.coarsen(2).bits(), 0b1101);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `range` does not evenly divide the length or is zero.
    pub fn coarsen(self, range: u32) -> BitPattern {
        assert!(range >= 1 && self.len().is_multiple_of(range), "range {range} must divide {}", self.len);
        if range == 1 {
            return self;
        }
        let groups = self.len() / range;
        let mut out = BitPattern::new(groups.max(2));
        // When groups < 2 the constructor would reject; len>=2 && range<len
        // guarantees groups >= 1; groups == 1 only if range == len, which
        // collapses everything into one bit — disallowed by the assert below.
        assert!(groups >= 2, "monitoring range too large: collapses pattern to one bit");
        for g in 0..groups {
            let group_mask = ((1u64 << range) - 1) << (g * range);
            if self.bits & group_mask != 0 {
                out.set(g as u8);
            }
        }
        out
    }
}

impl fmt::Display for BitPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Offset 0 printed leftmost for readability.
        for i in 0..self.len {
            write!(f, "{}", if self.get(i) { '1' } else { '0' })?;
        }
        Ok(())
    }
}

/// Per-offset prefetch decision (the "four states of every offset",
/// Section IV-E: No Prefetch / L1D / L2C / LLC — 2 bits in hardware).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PrefetchTarget {
    /// Do not prefetch this offset.
    #[default]
    None,
    /// Prefetch into the given level.
    To(CacheLevel),
}

impl PrefetchTarget {
    /// The target level, if any.
    #[inline]
    pub fn level(self) -> Option<CacheLevel> {
        match self {
            PrefetchTarget::None => None,
            PrefetchTarget::To(l) => Some(l),
        }
    }

    /// Whether this offset will be prefetched.
    #[inline]
    pub fn is_some(self) -> bool {
        !matches!(self, PrefetchTarget::None)
    }
}

impl fmt::Display for PrefetchTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrefetchTarget::None => write!(f, "-"),
            PrefetchTarget::To(l) => write!(f, "{l}"),
        }
    }
}

/// A vector of per-offset prefetch targets, anchored at the trigger
/// offset (offset 0 is the trigger itself and is never prefetched).
///
/// ```
/// use pmp_types::{PrefetchPattern, PrefetchTarget, CacheLevel};
/// let mut p = PrefetchPattern::new(8);
/// p.set(2, CacheLevel::L1D);
/// p.set(7, CacheLevel::L2C);
/// assert_eq!(p.target(2), PrefetchTarget::To(CacheLevel::L1D));
/// assert_eq!(p.count(), 2);
/// ```
/// The pattern is stored as two 64-bit *code planes*: offset `i`'s
/// target is the 2-bit code `hi_i lo_i` (`00` none, `01` L1D, `10`
/// L2C, `11` LLC) — the paper's "four states of every offset" packed
/// exactly as hardware would. A pattern is created on every OPT/PPT
/// prediction, so the representation is sized and shaped for that hot
/// path: no heap, no per-offset stores on construction from the
/// word-parallel extraction masks, popcount-speed `count`.
#[derive(Clone)]
pub struct PrefetchPattern {
    len: u8,
    /// Bit 0 of each offset's 2-bit target code.
    lo: u64,
    /// Bit 1 of each offset's 2-bit target code.
    hi: u64,
}

impl PrefetchPattern {
    /// An all-`None` pattern over `len` offsets.
    #[inline]
    pub fn new(len: u32) -> Self {
        assert!((2..=64).contains(&len), "pattern length must be in 2..=64, got {len}");
        PrefetchPattern { len: len as u8, lo: 0, hi: 0 }
    }

    /// Build a pattern from per-level qualifying-offset bitmasks (bit
    /// `i` set iff offset `i` targets that level); where both masks
    /// claim an offset, L1D wins. Mask bits at or above `len` are
    /// ignored.
    ///
    /// This is the word-parallel extraction kernels' constructor: the
    /// masks they compute map straight onto the code planes, so
    /// building a pattern costs a few word ops regardless of how many
    /// offsets qualify.
    #[inline]
    pub fn from_level_masks(len: u32, l1d: u64, l2c: u64) -> Self {
        assert!((2..=64).contains(&len), "pattern length must be in 2..=64, got {len}");
        let keep = if len == 64 { u64::MAX } else { (1u64 << len) - 1 };
        let l1d = l1d & keep;
        // L1D -> code 01, L2C -> code 10.
        PrefetchPattern { len: len as u8, lo: l1d, hi: l2c & keep & !l1d }
    }

    /// Rebuild a pattern from its two code planes (see the type docs);
    /// plane bits at or above `len` are ignored.
    #[inline]
    pub fn from_planes(len: u32, lo: u64, hi: u64) -> Self {
        assert!((2..=64).contains(&len), "pattern length must be in 2..=64, got {len}");
        let keep = if len == 64 { u64::MAX } else { (1u64 << len) - 1 };
        PrefetchPattern { len: len as u8, lo: lo & keep, hi: hi & keep }
    }

    /// The two code planes `(lo, hi)`: offset `i`'s target code is
    /// `hi_i lo_i`.
    #[inline]
    pub fn planes(&self) -> (u64, u64) {
        (self.lo, self.hi)
    }

    /// Panic (matching slice-index semantics) when `off` is out of range.
    #[inline]
    fn check(&self, off: u8) {
        assert!(
            off < self.len,
            "offset index out of range: the len is {} but the index is {off}",
            self.len
        );
    }

    /// The 2-bit code for `level`, as (lo, hi) bits.
    #[inline]
    fn code(level: CacheLevel) -> (u64, u64) {
        match level {
            CacheLevel::L1D => (1, 0),
            CacheLevel::L2C => (0, 1),
            CacheLevel::Llc => (1, 1),
        }
    }

    /// Pattern length.
    #[inline]
    pub fn len(&self) -> u32 {
        u32::from(self.len)
    }

    /// True when no offset has a target.
    #[inline]
    pub fn is_empty(&self) -> bool {
        (self.lo | self.hi) == 0
    }

    /// Set the target level for anchored offset `off`.
    ///
    /// Position 0 is settable because *coarse* patterns (the PPT's
    /// per-group level votes) legitimately carry a group-0 entry; for
    /// full-length patterns the trigger-exclusion invariant is enforced
    /// by the extraction logic, which never selects offset 0.
    ///
    /// # Panics
    ///
    /// Panics if `off` is out of range.
    #[inline]
    pub fn set(&mut self, off: u8, level: CacheLevel) {
        self.check(off);
        let bit = 1u64 << off;
        let (lo, hi) = Self::code(level);
        self.lo = (self.lo & !bit) | (lo << off);
        self.hi = (self.hi & !bit) | (hi << off);
    }

    /// Clear the target for anchored offset `off`.
    #[inline]
    pub fn clear(&mut self, off: u8) {
        self.check(off);
        let bit = 1u64 << off;
        self.lo &= !bit;
        self.hi &= !bit;
    }

    /// The decision for anchored offset `off`.
    #[inline]
    pub fn target(&self, off: u8) -> PrefetchTarget {
        self.check(off);
        match (((self.hi >> off) & 1) << 1) | ((self.lo >> off) & 1) {
            0 => PrefetchTarget::None,
            1 => PrefetchTarget::To(CacheLevel::L1D),
            2 => PrefetchTarget::To(CacheLevel::L2C),
            _ => PrefetchTarget::To(CacheLevel::Llc),
        }
    }

    /// Number of offsets with a prefetch target.
    #[inline]
    pub fn count(&self) -> usize {
        (self.lo | self.hi).count_ones() as usize
    }

    /// Iterate over `(anchored_offset, level)` pairs with targets set,
    /// ascending by offset.
    #[inline]
    pub fn iter_targets(&self) -> impl Iterator<Item = (u8, CacheLevel)> + '_ {
        let (lo, hi) = (self.lo, self.hi);
        let mut rest = lo | hi;
        core::iter::from_fn(move || {
            if rest == 0 {
                return None;
            }
            let i = rest.trailing_zeros() as u8;
            rest &= rest - 1;
            let level = match (((hi >> i) & 1) << 1) | ((lo >> i) & 1) {
                1 => CacheLevel::L1D,
                2 => CacheLevel::L2C,
                _ => CacheLevel::Llc,
            };
            Some((i, level))
        })
    }
}

impl PartialEq for PrefetchPattern {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.lo == other.lo && self.hi == other.hi
    }
}

impl Eq for PrefetchPattern {}

impl core::hash::Hash for PrefetchPattern {
    fn hash<H: core::hash::Hasher>(&self, state: &mut H) {
        self.len.hash(state);
        self.lo.hash(state);
        self.hi.hash(state);
    }
}

impl fmt::Debug for PrefetchPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let targets: Vec<PrefetchTarget> = (0..self.len).map(|i| self.target(i)).collect();
        f.debug_struct("PrefetchPattern").field("targets", &targets).finish()
    }
}

impl fmt::Display for PrefetchPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for i in 0..self.len {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", self.target(i))?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_fig6a_example() {
        // Bit vector (0,1,1,0,1,0,0,0) captured from accesses P+2, P+1, P+4.
        // NOTE: the paper writes vectors with offset 0 first; bit i of our
        // u64 is offset i.
        let mut p = BitPattern::new(8);
        for off in [2u8, 1, 4] {
            p.set(off);
        }
        assert_eq!(p.to_string(), "01101000");
        // Trigger offset 2 -> anchored (1,0,1,0,0,0,0,1)
        let anchored = p.rotate_to_anchor(2);
        assert_eq!(anchored.to_string(), "10100001");
        // Round trip.
        assert_eq!(anchored.rotate_from_anchor(2), p);
    }

    #[test]
    fn rotate_anchor_zero_is_identity() {
        let p = BitPattern::from_bits(0b1011, 4);
        assert_eq!(p.rotate_to_anchor(0), p);
        assert_eq!(p.rotate_from_anchor(0), p);
    }

    #[test]
    fn rotate_full_width() {
        let p = BitPattern::from_bits(0x8000_0000_0000_0001, 64);
        let q = p.rotate_to_anchor(63);
        assert_eq!(q.bits(), 0b11);
        assert_eq!(q.rotate_from_anchor(63), p);
    }

    #[test]
    fn count_and_iter() {
        let p = BitPattern::from_bits(0b10110, 8);
        assert_eq!(p.count(), 3);
        assert_eq!(p.iter_set().collect::<Vec<_>>(), vec![1, 2, 4]);
        assert!(!p.is_empty());
        assert!(BitPattern::new(8).is_empty());
    }

    #[test]
    fn from_bits_masks() {
        let p = BitPattern::from_bits(u64::MAX, 8);
        assert_eq!(p.bits(), 0xff);
        assert_eq!(p.count(), 8);
    }

    #[test]
    fn coarsen_paper_example() {
        // "The 8-bit vector 10100001 is reduced to 1101 by joining every
        // two bits" (Section IV-C). The paper prints offset 0 leftmost, so
        // 10100001 textual = offsets {0, 2, 7}.
        let mut p = BitPattern::new(8);
        for off in [0u8, 2, 7] {
            p.set(off);
        }
        assert_eq!(p.to_string(), "10100001");
        let c = p.coarsen(2);
        assert_eq!(c.to_string(), "1101");
    }

    #[test]
    fn coarsen_range_one_is_identity() {
        let p = BitPattern::from_bits(0b1010, 8);
        assert_eq!(p.coarsen(1), p);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn coarsen_rejects_non_divisor() {
        let _ = BitPattern::new(8).coarsen(3);
    }

    #[test]
    fn prefetch_pattern_basics() {
        let mut p = PrefetchPattern::new(8);
        assert!(p.is_empty());
        p.set(3, CacheLevel::L1D);
        p.set(5, CacheLevel::Llc);
        assert_eq!(p.count(), 2);
        assert_eq!(
            p.iter_targets().collect::<Vec<_>>(),
            vec![(3, CacheLevel::L1D), (5, CacheLevel::Llc)]
        );
        p.clear(3);
        assert_eq!(p.count(), 1);
        assert_eq!(p.target(3), PrefetchTarget::None);
    }

    #[test]
    fn prefetch_pattern_allows_group_zero() {
        // Coarse (PPT) patterns legitimately vote on group 0.
        let mut p = PrefetchPattern::new(8);
        p.set(0, CacheLevel::L1D);
        assert_eq!(p.target(0), PrefetchTarget::To(CacheLevel::L1D));
    }

    #[test]
    fn prefetch_pattern_display() {
        let mut p = PrefetchPattern::new(4);
        p.set(2, CacheLevel::L2C);
        assert_eq!(p.to_string(), "(-,-,L2C,-)");
    }
}
