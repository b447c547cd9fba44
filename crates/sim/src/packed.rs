//! A packed set of circuit states: the settle frontier's storage.
//!
//! Entries live back to back in one word arena, `stride` words each: the
//! state's `key` words (the part hashed and compared), then a payload
//! the owner fills in (the settler keeps each state's excited-gate mask
//! there).  An open-addressing index over the arena deduplicates
//! inserts, so after the first few calls no insert allocates.

/// A deduplicating set of fixed-width word vectors with a payload each.
pub(crate) struct PackedSet {
    /// Words per key (the state).
    key: usize,
    /// Words per entry: the key, then the payload.
    stride: usize,
    /// The entries, in insertion order.
    words: Vec<u64>,
    /// Linear-probing index: 0 is empty, else entry index + 1.  Its
    /// length is zero until the first insert, then a power of two,
    /// `1 << (64 - shift)`.
    slots: Vec<u32>,
    shift: u32,
    /// Slots filled since the last clear, so clearing costs the entries
    /// held rather than the table size.
    used: Vec<u32>,
    /// Entry indices in ascending key order, as of the last [`PackedSet::sort`].
    order: Vec<u32>,
}

const MIN_SLOTS_LOG2: u32 = 4;

/// Multiplicative hash of a key; the index takes its high bits.
#[inline]
fn hash(key: &[u64]) -> u64 {
    key.iter().fold(0, |h: u64, &w| {
        (h.rotate_left(29) ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15)
    })
}

impl PackedSet {
    /// An empty set of `key`-word states with `stride - key` payload words.
    pub(crate) fn new(key: usize, stride: usize) -> Self {
        assert!(stride >= key && stride > 0, "stride covers the key");
        PackedSet {
            key,
            stride,
            words: Vec::new(),
            slots: Vec::new(),
            shift: 64,
            used: Vec::new(),
            order: Vec::new(),
        }
    }

    /// Number of entries.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.words.len() / self.stride
    }

    /// Removes every entry, keeping the buffers.
    pub(crate) fn clear(&mut self) {
        for &s in &self.used {
            self.slots[s as usize] = 0;
        }
        self.used.clear();
        self.words.clear();
        self.order.clear();
    }

    /// Entry `i`'s key.
    #[inline]
    pub(crate) fn key(&self, i: usize) -> &[u64] {
        &self.words[i * self.stride..i * self.stride + self.key]
    }

    /// Entry `i`'s key and payload.
    #[inline]
    pub(crate) fn entry(&self, i: usize) -> (&[u64], &[u64]) {
        self.words[i * self.stride..(i + 1) * self.stride].split_at(self.key)
    }

    /// Entry `i`'s payload, for the owner to fill.
    #[inline]
    pub(crate) fn payload_mut(&mut self, i: usize) -> &mut [u64] {
        &mut self.words[i * self.stride + self.key..(i + 1) * self.stride]
    }

    /// Inserts `key` with a zeroed payload.  Returns the new entry's
    /// index, or `None` when the key is already present.
    pub(crate) fn insert(&mut self, key: &[u64]) -> Option<usize> {
        debug_assert_eq!(key.len(), self.key);
        if 2 * (self.len() + 1) > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut s = (hash(key) >> self.shift) as usize;
        loop {
            match self.slots[s] {
                0 => break,
                e if self.key(e as usize - 1) == key => return None,
                _ => s = (s + 1) & mask,
            }
        }
        let i = self.len();
        self.slots[s] = u32::try_from(i + 1).expect("fewer than 2^32 states");
        self.used.push(s as u32);
        self.words.extend_from_slice(key);
        self.words
            .resize(self.words.len() + self.stride - self.key, 0);
        Some(i)
    }

    /// Doubles the index (or creates it) and re-files every entry.
    fn grow(&mut self) {
        let slots = (2 * self.slots.len()).max(1 << MIN_SLOTS_LOG2);
        self.shift = 64 - slots.trailing_zeros();
        self.slots.clear();
        self.slots.resize(slots, 0);
        self.used.clear();
        let mask = self.slots.len() - 1;
        for i in 0..self.len() {
            let mut s = (hash(self.key(i)) >> self.shift) as usize;
            while self.slots[s] != 0 {
                s = (s + 1) & mask;
            }
            self.slots[s] = i as u32 + 1;
            self.used.push(s as u32);
        }
    }

    /// Orders the entries by ascending key, word 0 first — the derived
    /// `Ord` of `Bits` on states of one length.
    pub(crate) fn sort(&mut self) {
        let (words, stride, key) = (&self.words, self.stride, self.key);
        self.order.clear();
        self.order.extend(0..self.len() as u32);
        self.order.sort_unstable_by(|&a, &b| {
            let a = a as usize * stride;
            let b = b as usize * stride;
            words[a..a + key].cmp(&words[b..b + key])
        });
    }

    /// Entry indices in ascending key order (valid after [`PackedSet::sort`]
    /// until the next insert or clear).
    #[inline]
    pub(crate) fn sorted(&self) -> &[u32] {
        &self.order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedups_grows_and_sorts() {
        let mut set = PackedSet::new(2, 3);
        let keys: Vec<[u64; 2]> = (0..100u64).map(|i| [(i * 37) % 100, i % 3]).collect();
        for k in &keys {
            let i = set.insert(k).expect("distinct");
            set.payload_mut(i)[0] = k[0] + 1;
        }
        for k in &keys {
            assert_eq!(set.insert(k), None);
        }
        assert_eq!(set.len(), 100);
        set.sort();
        let sorted: Vec<&[u64]> = set.sorted().iter().map(|&i| set.key(i as usize)).collect();
        let mut want: Vec<&[u64]> = keys.iter().map(|k| &k[..]).collect();
        want.sort();
        assert_eq!(sorted, want);
        for i in 0..set.len() {
            let (k, p) = set.entry(i);
            assert_eq!(p[0], k[0] + 1);
        }
        set.clear();
        assert_eq!(set.len(), 0);
        assert_eq!(set.insert(&keys[0]), Some(0));
    }
}
