//! A dense set of `u64`s for state that lives in a sliding window.
//!
//! Per-request bookkeeping — which timestamps of a client were delivered or
//! proposed, which global request sequence numbers a node delivered — is
//! keyed by counters that every correct run fills densely from below. A hash
//! set pays a hash, a probe and an allocation per member for such keys; a
//! [`BitWindow`] pays one bit, and forgets whole words once the run of
//! members starting at its base passes them.

use std::collections::VecDeque;

/// A set of `u64`s that contains every value below a movable base and
/// records the values at or above it one bit each.
///
/// Memory is one bit per value between the base and the largest value ever
/// inserted, so callers keep inserts within a window above the base (client
/// watermarks bound request timestamps; the global request sequence number
/// is dense).
#[derive(Clone, Debug, Default)]
pub struct BitWindow {
    /// Every value below `base` is a member.
    base: u64,
    /// Bit `k` of word `w` stands for value `(base & !63) + 64 * w + k`.
    /// Bits for values below `base` in the first word are meaningless.
    words: VecDeque<u64>,
}

impl BitWindow {
    /// An empty window above `base` (every value below `base` is a member).
    pub const fn new(base: u64) -> Self {
        BitWindow {
            base,
            words: VecDeque::new(),
        }
    }

    /// The smallest value not known to be a member by the prefix rule.
    pub fn base(&self) -> u64 {
        self.base
    }

    fn locate(&self, value: u64) -> (usize, u64) {
        let offset = value - (self.base & !63);
        ((offset / 64) as usize, 1 << (offset % 64))
    }

    /// Whether `value` is a member.
    pub fn contains(&self, value: u64) -> bool {
        if value < self.base {
            return true;
        }
        let (word, bit) = self.locate(value);
        self.words.get(word).is_some_and(|w| w & bit != 0)
    }

    /// Adds `value`; returns `false` if it was a member already
    /// (test-and-set).
    pub fn insert(&mut self, value: u64) -> bool {
        if value < self.base {
            return false;
        }
        let (word, bit) = self.locate(value);
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let w = &mut self.words[word];
        let fresh = *w & bit == 0;
        *w |= bit;
        fresh
    }

    /// Removes `value` if it is recorded above the base. Values below the
    /// base stay members.
    pub fn remove(&mut self, value: u64) {
        if value < self.base {
            return;
        }
        let (word, bit) = self.locate(value);
        if let Some(w) = self.words.get_mut(word) {
            *w &= !bit;
        }
    }

    /// Moves the base past the run of members that starts at it, dropping
    /// the words it leaves behind, and returns the new base.
    pub fn advance(&mut self) -> u64 {
        while let Some(&word) = self.words.front() {
            let offset = self.base % 64;
            let run = u64::from((word >> offset).trailing_ones());
            self.base += run;
            if offset + run < 64 {
                break;
            }
            self.words.pop_front();
        }
        self.base
    }

    /// The 64-bit words the window holds above its base: its memory.
    pub fn word_count(&self) -> usize {
        self.words.len()
    }

    /// Empties the window and moves its base to `base`, keeping the
    /// allocation.
    pub fn reset(&mut self, base: u64) {
        self.words.clear();
        self.base = base;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_below_base_is_member_and_immutable() {
        let mut w = BitWindow::new(10);
        assert!(w.contains(0) && w.contains(9));
        assert!(!w.contains(10));
        assert!(!w.insert(3), "below the base is already a member");
        w.remove(3);
        assert!(w.contains(3));
    }

    #[test]
    fn insert_is_test_and_set_and_remove_undoes_it() {
        let mut w = BitWindow::new(5);
        assert!(w.insert(200));
        assert!(!w.insert(200));
        assert!(w.contains(200) && !w.contains(199));
        w.remove(200);
        assert!(!w.contains(200));
        assert!(w.insert(200));
    }

    #[test]
    fn advance_follows_the_run_across_word_boundaries() {
        let mut w = BitWindow::new(60);
        for v in (61..=130).rev() {
            w.insert(v);
        }
        assert_eq!(w.advance(), 60, "a gap at the base blocks advancing");
        w.insert(60);
        w.insert(132);
        assert_eq!(w.advance(), 131);
        assert!(w.contains(130) && !w.contains(131) && w.contains(132));
        assert_eq!(w.words.len(), 1, "words behind the base are dropped");
        w.insert(131);
        assert_eq!(w.advance(), 133);
    }

    #[test]
    fn full_words_advance_by_64() {
        let mut w = BitWindow::new(0);
        for v in 0..256 {
            w.insert(v);
        }
        assert_eq!(w.advance(), 256);
        assert!(w.words.is_empty());
        assert!(w.insert(256));
    }

    #[test]
    fn reset_empties_and_moves_the_base() {
        let mut w = BitWindow::new(0);
        w.insert(5);
        w.reset(3);
        assert_eq!(w.base(), 3);
        assert!(!w.contains(5));
        assert!(w.contains(2));
    }
}
