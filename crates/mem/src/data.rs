//! Cache line payloads.
//!
//! The simulator tracks data values at 4-byte-word granularity so the
//! consistency scoreboard and litmus tests can check *which write* every
//! load observed. A word value is a `u64` token: workloads encode
//! (core, warp, sequence) into store tokens, and lock words hold small
//! integers that atomics operate on.

use rcc_common::addr::{WordAddr, WORDS_PER_LINE};
use std::fmt;

/// The data payload of one 128-byte cache line: 32 word values.
#[derive(Clone, PartialEq, Eq)]
pub struct LineData {
    words: [u64; WORDS_PER_LINE],
}

impl LineData {
    /// A line with all words zero (the initial value of all memory).
    pub fn zeroed() -> Self {
        LineData {
            words: [0; WORDS_PER_LINE],
        }
    }

    /// A boxed snapshot of this line, for a message or fill to carry.
    pub fn boxed(&self) -> Box<LineData> {
        Box::new(self.clone())
    }

    /// Reads the word at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= WORDS_PER_LINE`.
    #[inline]
    pub fn word(&self, idx: usize) -> u64 {
        self.words[idx]
    }

    /// Writes the word at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= WORDS_PER_LINE`.
    #[inline]
    pub fn set_word(&mut self, idx: usize, value: u64) {
        self.words[idx] = value;
    }

    /// Reads the word for a full [`WordAddr`] (the caller guarantees the
    /// word is in this line).
    #[inline]
    pub fn word_at(&self, addr: WordAddr) -> u64 {
        self.words[addr.line_word_index()]
    }

    /// Writes the word for a full [`WordAddr`].
    #[inline]
    pub fn set_word_at(&mut self, addr: WordAddr, value: u64) {
        self.words[addr.line_word_index()] = value;
    }

    /// Iterates over (index, value) pairs of non-zero words.
    pub fn nonzero_words(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.words
            .iter()
            .enumerate()
            .filter(|(_, &v)| v != 0)
            .map(|(i, &v)| (i, v))
    }

    /// Folds every word of the line into a cross-component state digest
    /// (raw values, not the sparse `Debug` rendering).
    pub fn digest_state(&self, d: &mut rcc_common::snap::StateDigest) {
        for &w in &self.words {
            d.write_u64(w);
        }
    }
}

impl Default for LineData {
    fn default() -> Self {
        Self::zeroed()
    }
}

/// Unboxes a line carried by a message, so [`crate::TagArray::fill`]
/// takes an in-flight boxed line and a resident inline one alike.
impl From<Box<LineData>> for LineData {
    #[inline]
    fn from(line: Box<LineData>) -> Self {
        *line
    }
}

impl fmt::Debug for LineData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Only show non-zero words; most lines are sparse in practice.
        let mut map = f.debug_map();
        for (i, v) in self.nonzero_words() {
            map.entry(&i, &v);
        }
        map.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcc_common::addr::Addr;

    #[test]
    fn zeroed_line_reads_zero() {
        let line = LineData::zeroed();
        for i in 0..WORDS_PER_LINE {
            assert_eq!(line.word(i), 0);
        }
    }

    #[test]
    fn word_roundtrip() {
        let mut line = LineData::zeroed();
        line.set_word(4, 0xdead_beef);
        assert_eq!(line.word(4), 0xdead_beef);
        assert_eq!(line.word(5), 0);
    }

    #[test]
    fn word_addr_roundtrip() {
        let mut line = LineData::zeroed();
        let w = Addr(128 * 3 + 16).word();
        line.set_word_at(w, 77);
        assert_eq!(line.word_at(w), 77);
        assert_eq!(line.word(w.line_word_index()), 77);
    }

    #[test]
    fn debug_shows_only_nonzero() {
        let mut line = LineData::zeroed();
        line.set_word(2, 9);
        let s = format!("{line:?}");
        assert!(s.contains('2') && s.contains('9'));
        assert_eq!(format!("{:?}", LineData::zeroed()), "{}");
    }

    #[test]
    fn nonzero_iteration() {
        let mut line = LineData::zeroed();
        line.set_word(0, 1);
        line.set_word(31, 2);
        let v: Vec<_> = line.nonzero_words().collect();
        assert_eq!(v, vec![(0, 1), (31, 2)]);
    }
}
