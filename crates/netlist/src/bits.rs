//! A compact, hashable bit vector used for circuit states.

use std::fmt;

/// A fixed-length bit vector backed by `u64` words.
///
/// `Bits` is the state representation used throughout the workspace: bit
/// `i` of a circuit state holds the value of signal `i` (environment pins
/// first, then gate outputs).  It is `Ord`/`Hash` so states can be used as
/// keys in exploration frontiers.
///
/// # Example
///
/// ```
/// use satpg_netlist::Bits;
///
/// let mut b = Bits::zeros(70);
/// b.set(69, true);
/// assert!(b.get(69));
/// assert_eq!(b.count_ones(), 1);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Bits {
    len: usize,
    words: Vec<u64>,
}

impl Bits {
    /// Creates an all-zero vector of `len` bits.
    pub fn zeros(len: usize) -> Self {
        Bits {
            len,
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// Creates a vector of `len` bits from a predicate on bit positions.
    pub fn from_fn(len: usize, mut f: impl FnMut(usize) -> bool) -> Self {
        let mut b = Bits::zeros(len);
        for i in 0..len {
            if f(i) {
                b.set(i, true);
            }
        }
        b
    }

    /// Creates a vector of `len` bits from its backing words, the inverse
    /// of [`Bits::words`] (low bit of word 0 is bit 0).
    ///
    /// # Panics
    ///
    /// Panics if `words.len() != len.div_ceil(64)` or a bit at or past
    /// `len` is set (the representation must stay canonical for the
    /// derived `Eq`/`Hash`/`Ord`).
    pub fn from_words(len: usize, words: &[u64]) -> Self {
        assert_eq!(words.len(), len.div_ceil(64), "word count for {len} bits");
        if let Some(&top) = words.last() {
            assert!(
                len.is_multiple_of(64) || top >> (len % 64) == 0,
                "bits set past length {len}"
            );
        }
        Bits {
            len,
            words: words.to_vec(),
        }
    }

    /// Parses a `0`/`1` string, most significant position first rejected:
    /// position 0 of the string is bit 0.
    ///
    /// # Errors
    ///
    /// Returns `None` if any character is not `0` or `1`.
    pub fn from_str01(s: &str) -> Option<Self> {
        let mut b = Bits::zeros(s.len());
        for (i, c) in s.chars().enumerate() {
            match c {
                '0' => {}
                '1' => b.set(i, true),
                _ => return None,
            }
        }
        Some(b)
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector has zero length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Writes bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize, v: bool) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let w = &mut self.words[i / 64];
        let m = 1u64 << (i % 64);
        if v {
            *w |= m;
        } else {
            *w &= !m;
        }
    }

    /// Flips bit `i` and returns the new value.
    #[inline]
    pub fn toggle(&mut self, i: usize) -> bool {
        let v = !self.get(i);
        self.set(i, v);
        v
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns the first `n <= 64` bits packed into a `u64`, bit `i` of the
    /// result being bit `i` of the vector.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64` or `n > len`.
    pub fn low_u64(&self, n: usize) -> u64 {
        assert!(n <= 64 && n <= self.len);
        if n == 0 {
            return 0;
        }
        let mask = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
        self.words.first().copied().unwrap_or(0) & mask
    }

    /// Overwrites the first `n <= 64` bits with the low bits of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64` or `n > len`.
    pub fn set_low_u64(&mut self, n: usize, v: u64) {
        assert!(n <= 64 && n <= self.len);
        if n == 0 {
            return;
        }
        let mask = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
        self.words[0] = (self.words[0] & !mask) | (v & mask);
    }

    /// Iterates over all bit values in position order.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Backing words (low bit of word 0 is bit 0).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Hamming distance to another vector of equal length.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn distance(&self, other: &Bits) -> usize {
        assert_eq!(self.len, other.len, "length mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum()
    }
}

impl fmt::Display for Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.len {
            write!(f, "{}", if self.get(i) { '1' } else { '0' })?;
        }
        Ok(())
    }
}

impl fmt::Debug for Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bits({self})")
    }
}

impl FromIterator<bool> for Bits {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let vals: Vec<bool> = iter.into_iter().collect();
        Bits::from_fn(vals.len(), |i| vals[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut b = Bits::zeros(130);
        for i in (0..130).step_by(3) {
            b.set(i, true);
        }
        for i in 0..130 {
            assert_eq!(b.get(i), i % 3 == 0, "bit {i}");
        }
    }

    #[test]
    fn from_words_inverts_words() {
        let mut b = Bits::zeros(130);
        for i in [0, 63, 64, 129] {
            b.set(i, true);
        }
        assert_eq!(Bits::from_words(130, b.words()), b);
        assert_eq!(Bits::from_words(0, &[]), Bits::zeros(0));
    }

    #[test]
    #[should_panic(expected = "past length")]
    fn from_words_rejects_bits_past_len() {
        Bits::from_words(3, &[0b1000]);
    }

    #[test]
    fn toggle_flips() {
        let mut b = Bits::zeros(5);
        assert!(b.toggle(2));
        assert!(!b.toggle(2));
        assert_eq!(b.count_ones(), 0);
    }

    #[test]
    fn display_and_parse() {
        let b = Bits::from_str01("01101").unwrap();
        assert_eq!(b.to_string(), "01101");
        assert!(Bits::from_str01("01x").is_none());
    }

    #[test]
    fn low_u64_packs_bit_order() {
        let b = Bits::from_str01("1010").unwrap();
        assert_eq!(b.low_u64(4), 0b0101);
    }

    #[test]
    fn set_low_u64_roundtrip() {
        let mut b = Bits::zeros(70);
        b.set(69, true);
        b.set_low_u64(6, 0b101101);
        assert_eq!(b.low_u64(6), 0b101101);
        assert!(b.get(69));
    }

    #[test]
    fn distance_counts_differences() {
        let a = Bits::from_str01("0110").unwrap();
        let b = Bits::from_str01("1110").unwrap();
        assert_eq!(a.distance(&b), 1);
        assert_eq!(a.distance(&a), 0);
    }

    #[test]
    fn ord_is_consistent() {
        let a = Bits::from_str01("001").unwrap();
        let b = Bits::from_str01("100").unwrap();
        assert!(a != b);
        assert_eq!(a.cmp(&b), a.cmp(&b));
    }

    #[test]
    fn from_iterator_collects() {
        let b: Bits = [true, false, true].into_iter().collect();
        assert_eq!(b.to_string(), "101");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        Bits::zeros(3).get(3);
    }
}
