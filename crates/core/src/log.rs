//! The totally ordered log and in-order delivery (Section 3.2, Equation 2).
//!
//! Positions commit out of order (segments progress independently) and are
//! delivered in order from `firstUndelivered`. Delivery hands out whole
//! batches — a handle clone, not a copy of each request — together with the
//! global request sequence number of the batch's first request; the k-th
//! request of a delivered batch has number `first_request_seq_nr + k`.

use iss_types::{Batch, NodeId, Request, SeqNr};
use std::collections::BTreeMap;

/// One committed log entry together with the leader that was responsible for
/// the sequence number (needed by the leader-selection policies).
#[derive(Clone, Debug, PartialEq)]
pub struct CommittedEntry {
    /// The committed batch, or `None` for ⊥.
    pub batch: Option<Batch>,
    /// The leader of the segment the sequence number belonged to.
    pub leader: NodeId,
}

/// A delivered batch at its log position (Equation 2 numbering).
#[derive(Clone, Debug, PartialEq)]
pub struct DeliveredBatch {
    /// The log sequence number the batch was committed at.
    pub seq_nr: SeqNr,
    /// The batch; never empty.
    pub batch: Batch,
    /// The global, gap-free request sequence number of the batch's first
    /// request.
    pub first_request_seq_nr: u64,
}

impl DeliveredBatch {
    /// The batch's requests paired with their global request sequence
    /// numbers.
    pub fn numbered(&self) -> impl Iterator<Item = (u64, &Request)> {
        (self.first_request_seq_nr..).zip(self.batch.requests())
    }
}

/// The log of one ISS node.
#[derive(Clone, Debug, Default)]
pub struct IssLog {
    entries: BTreeMap<SeqNr, CommittedEntry>,
    /// `firstUndelivered` in Algorithm 1.
    first_undelivered: SeqNr,
    /// `totalDelivered` in Algorithm 1: the number of *requests* delivered,
    /// which is also the next global request sequence number (Equation 2).
    total_delivered: u64,
}

impl IssLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Commits `batch` (or ⊥) at `sn`. Returns `false` if the position was
    /// already filled (the new value is ignored in that case — assignment of
    /// a batch to a sequence number is final).
    pub fn commit(&mut self, sn: SeqNr, batch: Option<Batch>, leader: NodeId) -> bool {
        if self.entries.contains_key(&sn) {
            return false;
        }
        self.entries.insert(sn, CommittedEntry { batch, leader });
        true
    }

    /// Whether position `sn` has been committed.
    pub fn is_committed(&self, sn: SeqNr) -> bool {
        self.entries.contains_key(&sn)
    }

    /// The committed entry at `sn`, if any.
    pub fn get(&self, sn: SeqNr) -> Option<&CommittedEntry> {
        self.entries.get(&sn)
    }

    /// Whether every sequence number in `first..=last` is committed.
    /// Positions below `firstUndelivered` were committed to be delivered
    /// (even if garbage collection or a snapshot has dropped them since),
    /// so only the rest of the range is probed.
    pub fn range_complete(&self, first: SeqNr, last: SeqNr) -> bool {
        (first.max(self.first_undelivered)..=last).all(|sn| self.entries.contains_key(&sn))
    }

    /// Number of committed positions.
    pub fn committed_count(&self) -> usize {
        self.entries.len()
    }

    /// The next sequence number awaiting delivery.
    pub fn first_undelivered(&self) -> SeqNr {
        self.first_undelivered
    }

    /// Total number of requests delivered so far.
    pub fn total_delivered(&self) -> u64 {
        self.total_delivered
    }

    /// Delivers every contiguous committed position starting at
    /// `firstUndelivered`, returning the delivered batches that carry
    /// requests, each with the global request sequence number of its first
    /// request (Equation 2: the k-th request of the batch at `sn` gets number
    /// `k + Σ_{i<sn} |S_i|`). ⊥ and empty batches advance delivery but are
    /// not returned.
    pub fn deliver_ready(&mut self) -> Vec<DeliveredBatch> {
        let mut delivered = Vec::new();
        while let Some(entry) = self.entries.get(&self.first_undelivered) {
            if let Some(batch) = entry.batch.as_ref().filter(|b| !b.is_empty()) {
                delivered.push(DeliveredBatch {
                    seq_nr: self.first_undelivered,
                    batch: batch.clone(),
                    first_request_seq_nr: self.total_delivered,
                });
                self.total_delivered += batch.len() as u64;
            }
            self.first_undelivered += 1;
        }
        delivered
    }

    /// Iterates over the committed entries in `first..=last` (used for
    /// checkpointing and state transfer).
    pub fn range(
        &self,
        first: SeqNr,
        last: SeqNr,
    ) -> impl Iterator<Item = (SeqNr, &CommittedEntry)> {
        self.entries.range(first..=last).map(|(sn, e)| (*sn, e))
    }

    /// Re-anchors the delivery state at a checkpoint snapshot boundary:
    /// everything below `first_undelivered` is considered delivered, and
    /// `total_delivered` requests were delivered getting there (Equation-2
    /// numbering resumes from that count). Used when rebooting from durable
    /// storage or installing a snapshot received over state transfer; only
    /// moves forward.
    pub fn restore_delivery_state(&mut self, first_undelivered: SeqNr, total_delivered: u64) {
        if first_undelivered < self.first_undelivered {
            return;
        }
        self.first_undelivered = first_undelivered;
        self.total_delivered = total_delivered;
    }

    /// Drops entries with sequence numbers strictly below `below` that have
    /// already been delivered (garbage collection after a stable checkpoint).
    pub fn garbage_collect(&mut self, below: SeqNr) -> usize {
        let cut = below.min(self.first_undelivered);
        let keys: Vec<SeqNr> = self.entries.range(..cut).map(|(sn, _)| *sn).collect();
        let removed = keys.len();
        for k in keys {
            self.entries.remove(&k);
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iss_types::ClientId;

    fn batch(reqs: &[(u32, u64)]) -> Batch {
        Batch::new(
            reqs.iter()
                .map(|(c, t)| Request::synthetic(ClientId(*c), *t, 100))
                .collect(),
        )
    }

    #[test]
    fn delivery_waits_for_contiguity() {
        let mut log = IssLog::new();
        log.commit(1, Some(batch(&[(1, 1)])), NodeId(1));
        assert!(log.deliver_ready().is_empty(), "gap at 0 blocks delivery");
        log.commit(0, Some(batch(&[(0, 1), (0, 2)])), NodeId(0));
        let delivered = log.deliver_ready();
        assert_eq!(delivered.len(), 2, "one entry per batch");
        assert_eq!(delivered[0].seq_nr, 0);
        assert_eq!(delivered[0].first_request_seq_nr, 0);
        assert_eq!(delivered[1].seq_nr, 1);
        assert_eq!(delivered[1].first_request_seq_nr, 2);
        let numbered: Vec<(u64, u64)> = delivered
            .iter()
            .flat_map(|d| d.numbered().map(|(nr, r)| (nr, r.id.timestamp)))
            .collect();
        assert_eq!(numbered, vec![(0, 1), (1, 2), (2, 1)]);
        assert_eq!(log.first_undelivered(), 2);
        assert_eq!(log.total_delivered(), 3);
    }

    #[test]
    fn equation2_numbering_skips_nil_entries() {
        let mut log = IssLog::new();
        log.commit(0, Some(batch(&[(0, 1)])), NodeId(0));
        log.commit(1, None, NodeId(1));
        log.commit(2, Some(Batch::empty()), NodeId(1));
        log.commit(3, Some(batch(&[(2, 1), (2, 2)])), NodeId(2));
        let delivered = log.deliver_ready();
        let nrs: Vec<(SeqNr, u64)> = delivered
            .iter()
            .map(|d| (d.seq_nr, d.first_request_seq_nr))
            .collect();
        assert_eq!(nrs, vec![(0, 0), (3, 1)], "⊥ and empty batches are skipped");
        assert_eq!(log.first_undelivered(), 4);
        assert_eq!(log.total_delivered(), 3);
    }

    #[test]
    fn commit_is_final() {
        let mut log = IssLog::new();
        assert!(log.commit(0, None, NodeId(0)));
        assert!(!log.commit(0, Some(batch(&[(1, 1)])), NodeId(0)));
        assert_eq!(log.get(0).unwrap().batch, None);
        assert!(log.is_committed(0));
        assert!(!log.is_committed(1));
    }

    #[test]
    fn range_complete_and_iteration() {
        let mut log = IssLog::new();
        for sn in 0..5u64 {
            if sn != 3 {
                log.commit(sn, None, NodeId(sn as u32));
            }
        }
        assert!(log.range_complete(0, 2));
        assert!(!log.range_complete(0, 4));
        assert_eq!(log.range(0, 4).count(), 4);
        assert_eq!(log.committed_count(), 4);
    }

    #[test]
    fn range_complete_with_the_delivery_head_inside_the_range() {
        let mut log = IssLog::new();
        for sn in [0, 1, 2, 4, 5] {
            log.commit(sn, None, NodeId(0));
        }
        log.deliver_ready();
        assert_eq!(log.first_undelivered(), 3);
        // The delivered prefix counts as committed even once dropped.
        log.garbage_collect(3);
        assert!(log.range_complete(0, 2));
        assert!(log.range_complete(1, 2));
        assert!(
            !log.range_complete(1, 5),
            "position 3 above the head is missing"
        );
        log.commit(3, None, NodeId(0));
        assert!(log.range_complete(1, 5));
        assert!(!log.range_complete(1, 6));
        // A head moved past the range by a snapshot install covers it.
        let mut restored = IssLog::new();
        restored.restore_delivery_state(10, 40);
        assert!(restored.range_complete(0, 9));
        assert!(!restored.range_complete(0, 10));
    }

    #[test]
    fn garbage_collection_only_drops_delivered_prefix() {
        let mut log = IssLog::new();
        for sn in 0..4u64 {
            log.commit(sn, Some(batch(&[(sn as u32, 0)])), NodeId(0));
        }
        log.deliver_ready();
        log.commit(5, None, NodeId(0)); // undeliverable yet (gap at 4)
        let removed = log.garbage_collect(10);
        assert_eq!(removed, 4, "only the delivered prefix is dropped");
        assert!(log.get(5).is_some());
        assert_eq!(log.first_undelivered(), 4);
    }

    #[test]
    fn delivery_is_idempotent_per_position() {
        let mut log = IssLog::new();
        log.commit(0, Some(batch(&[(0, 0)])), NodeId(0));
        assert_eq!(log.deliver_ready().len(), 1);
        assert!(log.deliver_ready().is_empty());
        assert_eq!(log.total_delivered(), 1);
    }
}
