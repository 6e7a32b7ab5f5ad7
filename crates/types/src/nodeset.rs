//! A set of node ids, one bit per node of the deployment.
//!
//! A quorum certificate records which of the `n` nodes voted for something
//! and how many did. Nodes are numbered `0..n`, so a bitset sized to `n`
//! holds such a set in `n` bits and keeps its count as it goes: an insert is
//! a test-and-set on one word, with no hash and no allocation, and an id at
//! or beyond `n` — which no node of the deployment has — is refused rather
//! than stored.

use crate::ids::NodeId;

/// A set of [`NodeId`]s below a fixed bound `n`.
///
/// The first 64 ids live in a word inside the set, so a set over at most
/// 64 nodes allocates nothing; larger deployments allocate their remaining
/// `⌈n / 64⌉ - 1` words once, when the set is created.
#[derive(Clone, Debug)]
pub struct NodeSet {
    /// Bit `k`: node `k`, for `k < 64`.
    low: u64,
    /// Bit `k` of word `w`: node `64 * (w + 1) + k`.
    high: Box<[u64]>,
    /// The bound: ids `0..n` can be members.
    n: u32,
    /// Number of members.
    count: u32,
}

impl NodeSet {
    /// An empty set over the ids `0..n`.
    pub fn new(n: usize) -> Self {
        let n = u32::try_from(n).expect("node count fits a NodeId");
        NodeSet {
            low: 0,
            high: vec![0; (n as usize).div_ceil(64).saturating_sub(1)].into_boxed_slice(),
            n,
            count: 0,
        }
    }

    /// The word and bit that stand for `node`, or `None` beyond the bound.
    fn locate(&self, node: NodeId) -> Option<(usize, u64)> {
        (node.0 < self.n).then(|| ((node.0 / 64) as usize, 1 << (node.0 % 64)))
    }

    fn word(&self, w: usize) -> u64 {
        if w == 0 {
            self.low
        } else {
            self.high[w - 1]
        }
    }

    fn word_mut(&mut self, w: usize) -> &mut u64 {
        if w == 0 {
            &mut self.low
        } else {
            &mut self.high[w - 1]
        }
    }

    /// Adds `node`; returns `false` if it was a member already or lies at
    /// or beyond the bound (test-and-set).
    pub fn insert(&mut self, node: NodeId) -> bool {
        let Some((w, bit)) = self.locate(node) else {
            return false;
        };
        let word = self.word_mut(w);
        let fresh = *word & bit == 0;
        *word |= bit;
        self.count += u32::from(fresh);
        fresh
    }

    /// Whether `node` is a member.
    pub fn contains(&self, node: NodeId) -> bool {
        self.locate(node)
            .is_some_and(|(w, bit)| self.word(w) & bit != 0)
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// Whether the set has no members.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Removes every member, keeping the bound and the allocation.
    pub fn clear(&mut self) {
        self.low = 0;
        self.high.fill(0);
        self.count = 0;
    }

    /// The 64-bit words the set holds: its memory, fixed by the bound.
    pub fn word_count(&self) -> usize {
        1 + self.high.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_in_every_word_are_members_and_counted() {
        let mut s = NodeSet::new(130);
        assert_eq!(s.word_count(), 3);
        for id in [0, 63, 64, 127, 128, 129] {
            assert!(s.insert(NodeId(id)), "node {id} is fresh");
        }
        assert_eq!(s.len(), 6);
        for id in [0, 63, 64, 127, 128, 129] {
            assert!(s.contains(NodeId(id)));
        }
        for id in [1, 62, 65, 126] {
            assert!(!s.contains(NodeId(id)));
        }
    }

    #[test]
    fn a_duplicate_vote_counts_once() {
        let mut s = NodeSet::new(4);
        assert!(s.insert(NodeId(2)));
        assert!(!s.insert(NodeId(2)));
        assert!(!s.insert(NodeId(2)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn ids_at_or_beyond_the_bound_are_refused_without_growing() {
        let mut s = NodeSet::new(67);
        let words = s.word_count();
        for id in [67, 72, 1 << 20, u32::MAX] {
            assert!(!s.insert(NodeId(id)), "node {id} is outside the set");
            assert!(!s.contains(NodeId(id)));
        }
        assert!(s.is_empty());
        assert_eq!(s.word_count(), words, "an outside id allocates nothing");
        assert_eq!(NodeSet::new(64).word_count(), 1);
        assert_eq!(NodeSet::new(0).word_count(), 1);
    }

    #[test]
    fn clear_empties_every_word_and_keeps_the_bound() {
        let mut s = NodeSet::new(200);
        for id in [3, 70, 199] {
            s.insert(NodeId(id));
        }
        s.clear();
        assert!(s.is_empty());
        for id in [3, 70, 199] {
            assert!(!s.contains(NodeId(id)));
        }
        assert!(s.insert(NodeId(199)), "the bound survives a clear");
        assert!(!s.insert(NodeId(200)));
        assert_eq!(s.len(), 1);
    }
}
