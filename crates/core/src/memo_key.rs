//! Exact-bits keys of the algorithm's memos.
//!
//! Both memos key their entries by the exact bits of what they read. A
//! lookup streams those bits from its input: it folds them into a 64-bit
//! fingerprint, compares that with each entry's, and compares the words in
//! place only where the fingerprints agree. Only storing an entry copies
//! the words.

/// The words of a memo key behind their fingerprint.
#[derive(Debug)]
pub(crate) struct BitsKey {
    fingerprint: u64,
    words: Vec<u64>,
}

impl BitsKey {
    /// The fingerprint of `words`: FNV-1a over 64-bit words.
    pub(crate) fn fingerprint(words: impl IntoIterator<Item = u64>) -> u64 {
        words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| (h ^ w).wrapping_mul(0x100_0000_01b3))
    }

    /// Stores `words`, whose fingerprint is `fingerprint`.
    pub(crate) fn new(fingerprint: u64, words: impl IntoIterator<Item = u64>) -> Self {
        BitsKey { fingerprint, words: words.into_iter().collect() }
    }

    /// Whether this key is exactly `words`, whose fingerprint is
    /// `fingerprint`.
    pub(crate) fn matches(&self, fingerprint: u64, words: impl IntoIterator<Item = u64>) -> bool {
        self.fingerprint == fingerprint && self.words.iter().copied().eq(words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_exactly_the_stored_words() {
        let words = [1u64, 2, 3];
        let key = BitsKey::new(BitsKey::fingerprint(words), words);
        assert!(key.matches(BitsKey::fingerprint(words), words));
        for other in [&[1u64, 2][..], &[1, 2, 3, 0], &[3, 2, 1], &[]] {
            let fp = BitsKey::fingerprint(other.iter().copied());
            assert!(!key.matches(fp, other.iter().copied()), "{other:?}");
        }
        // Equal fingerprints alone do not make a match.
        assert!(!key.matches(BitsKey::fingerprint(words), [1, 2, 4]));
    }
}
