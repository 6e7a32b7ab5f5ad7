//! Buckets: the partition of the request space (Section 2.4) and the local
//! FIFO bucket queues (Section 3.7).

use iss_types::{Batch, BucketId, EpochNr, FxHashSet, NodeId, Request, RequestId};
use std::collections::VecDeque;

/// The assignment of buckets to leaders for one epoch (Section 2.4,
/// Figure 2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BucketAssignment {
    /// `buckets[i]` is the set of buckets assigned to the i-th leader of the
    /// epoch (in the order of the `leaders` argument).
    pub per_leader: Vec<Vec<BucketId>>,
}

impl BucketAssignment {
    /// Computes the assignment of all buckets to the epoch's leaders.
    ///
    /// Every node first receives its `initBuckets(e, i) = {b | (b + e) ≡ i
    /// mod n}`; buckets whose initial owner is not a leader (the
    /// `extraBuckets`) are re-distributed round-robin over the leaders
    /// (`(b + e) ≡ k mod |Leaders(e)|`).
    pub fn compute(
        epoch: EpochNr,
        num_buckets: usize,
        all_nodes: &[NodeId],
        leaders: &[NodeId],
    ) -> Self {
        assert!(
            !leaders.is_empty(),
            "bucket assignment requires at least one leader"
        );
        let n = all_nodes.len() as u64;
        // Map each node to its index in `leaders` once, so the per-bucket
        // lookup below is O(1) and the whole assignment is O(B + L) rather
        // than O(B·L). Node ids are dense (0..n), so a vector indexed by
        // node id beats a hash map here.
        let max_id = all_nodes.iter().map(|n| n.0 as usize).max().unwrap_or(0);
        let mut leader_idx: Vec<Option<usize>> = vec![None; max_id + 1];
        for (pos, l) in leaders.iter().enumerate() {
            if let Some(slot) = leader_idx.get_mut(l.0 as usize) {
                *slot = Some(pos);
            }
        }
        let mut per_leader: Vec<Vec<BucketId>> = vec![Vec::new(); leaders.len()];
        for b in 0..num_buckets as u64 {
            // Initial owner: the node i with (b + e) ≡ i (mod n).
            let owner_idx = ((b + epoch) % n) as usize;
            let owner = all_nodes[owner_idx];
            if let Some(pos) = leader_idx.get(owner.0 as usize).copied().flatten() {
                per_leader[pos].push(BucketId(b as u32));
            } else {
                // Extra bucket: re-distribute round-robin over the leaders.
                let k = ((b + epoch) % leaders.len() as u64) as usize;
                per_leader[k].push(BucketId(b as u32));
            }
        }
        BucketAssignment { per_leader }
    }

    /// The buckets of the `k`-th leader.
    pub fn of_leader(&self, k: usize) -> &[BucketId] {
        &self.per_leader[k]
    }

    /// Flattened view: for each bucket, the leader node owning it this epoch.
    pub fn bucket_owners(&self, leaders: &[NodeId]) -> Vec<(BucketId, NodeId)> {
        let mut owners = Vec::new();
        for (k, buckets) in self.per_leader.iter().enumerate() {
            for b in buckets {
                owners.push((*b, leaders[k]));
            }
        }
        owners.sort_by_key(|(b, _)| *b);
        owners
    }
}

/// The local bucket queues of one node: received but not yet
/// proposed-or-delivered requests, partitioned by bucket.
///
/// Queues are FIFO (the oldest request is proposed first, required for
/// liveness) and idempotent (a request is added at most once).
#[derive(Clone, Debug)]
pub struct BucketQueues {
    queues: Vec<VecDeque<Request>>,
    /// Membership index to make insertion idempotent and removal cheap.
    present: FxHashSet<RequestId>,
    total: usize,
}

impl BucketQueues {
    /// Creates `num_buckets` empty queues.
    pub fn new(num_buckets: usize) -> Self {
        BucketQueues {
            queues: (0..num_buckets).map(|_| VecDeque::new()).collect(),
            present: FxHashSet::default(),
            total: 0,
        }
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.queues.len()
    }

    /// Total number of queued requests across all buckets.
    pub fn len(&self) -> usize {
        self.total
    }

    /// Whether all queues are empty.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Number of requests currently queued in the given buckets.
    pub fn available_in(&self, buckets: &[BucketId]) -> usize {
        buckets.iter().map(|b| self.queues[b.index()].len()).sum()
    }

    /// Adds a request to its bucket queue (idempotent). Returns `true` if the
    /// request was newly added.
    pub fn add(&mut self, request: Request) -> bool {
        if self.present.contains(&request.id) {
            return false;
        }
        let bucket = request.bucket(self.queues.len());
        self.present.insert(request.id);
        self.queues[bucket.index()].push_back(request);
        self.total += 1;
        true
    }

    /// Re-adds a request at the *front* of its queue (resurrection after an
    /// unsuccessful proposal, Algorithm 2 `resurrectRequests`): resurrection
    /// preserves the request's priority as the oldest pending request.
    pub fn resurrect(&mut self, request: Request) -> bool {
        if self.present.contains(&request.id) {
            return false;
        }
        let bucket = request.bucket(self.queues.len());
        self.present.insert(request.id);
        self.queues[bucket.index()].push_front(request);
        self.total += 1;
        true
    }

    /// Removes a request (by id) wherever it is queued, e.g. because it was
    /// observed committed in a delivered batch.
    pub fn remove(&mut self, id: &RequestId) -> bool {
        if !self.present.remove(id) {
            return false;
        }
        let bucket = id.bucket(self.queues.len());
        let queue = &mut self.queues[bucket.index()];
        if let Some(pos) = queue.iter().position(|r| r.id == *id) {
            queue.remove(pos);
            self.total -= 1;
            true
        } else {
            // Should not happen: membership index and queues are kept in sync.
            self.total = self.total.saturating_sub(1);
            false
        }
    }

    /// Whether the request is currently queued.
    pub fn contains(&self, id: &RequestId) -> bool {
        self.present.contains(id)
    }

    /// Cuts a batch of up to `max_size` oldest requests from the given
    /// buckets (Algorithm 2, `cutBatch`), removing them from the queues.
    pub fn cut_batch(&mut self, buckets: &[BucketId], max_size: usize) -> Batch {
        let mut requests = Vec::new();
        // Round-robin over the buckets, always taking the oldest request of
        // each, to approximate global FIFO order across the segment's buckets.
        let mut exhausted = false;
        while requests.len() < max_size && !exhausted {
            exhausted = true;
            for b in buckets {
                if requests.len() >= max_size {
                    break;
                }
                if let Some(req) = self.queues[b.index()].pop_front() {
                    self.present.remove(&req.id);
                    self.total -= 1;
                    requests.push(req);
                    exhausted = false;
                }
            }
        }
        Batch::new(requests)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iss_types::ClientId;
    use std::collections::HashSet;

    fn nodes(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn figure2_example_assignment() {
        // Figure 2: 8 buckets, 4 nodes, epoch 1, leaders {node 2, node 3}.
        // initBuckets(1, i) = {b | (b+1) ≡ i mod 4}:
        //   node0: {3, 7}, node1: {0, 4}, node2: {1, 5}, node3: {2, 6}
        // extraBuckets = {3, 7, 0, 4}; re-distribution over 2 leaders by
        // (b+1) mod 2: bucket 3 -> k=0, 7 -> k=0, 0 -> k=1, 4 -> k=1.
        let leaders = vec![NodeId(2), NodeId(3)];
        let a = BucketAssignment::compute(1, 8, &nodes(4), &leaders);
        let mut l0 = a.of_leader(0).to_vec();
        let mut l1 = a.of_leader(1).to_vec();
        l0.sort();
        l1.sort();
        assert_eq!(l0, vec![BucketId(1), BucketId(3), BucketId(5), BucketId(7)]);
        assert_eq!(l1, vec![BucketId(0), BucketId(2), BucketId(4), BucketId(6)]);
    }

    #[test]
    fn assignment_is_a_partition() {
        for epoch in 0..5u64 {
            for num_leaders in 1..=6usize {
                let all = nodes(6);
                let leaders: Vec<NodeId> = all.iter().copied().take(num_leaders).collect();
                let a = BucketAssignment::compute(epoch, 96, &all, &leaders);
                let mut seen = HashSet::new();
                for l in &a.per_leader {
                    for b in l {
                        assert!(seen.insert(*b), "bucket {b:?} assigned twice");
                    }
                }
                assert_eq!(seen.len(), 96, "every bucket assigned exactly once");
            }
        }
    }

    #[test]
    fn rotation_moves_buckets_between_epochs() {
        let all = nodes(4);
        let leaders = all.clone();
        let a0 = BucketAssignment::compute(0, 64, &all, &leaders);
        let a1 = BucketAssignment::compute(1, 64, &all, &leaders);
        assert_ne!(a0, a1, "assignment must rotate across epochs");
    }

    #[test]
    fn every_bucket_eventually_visits_every_node() {
        // With all nodes as leaders, bucket 0 must be assigned to each of the
        // n nodes within n consecutive epochs (liveness prerequisite).
        let all = nodes(4);
        let mut owners = HashSet::new();
        for e in 0..4u64 {
            let a = BucketAssignment::compute(e, 16, &all, &all);
            let owner = a
                .bucket_owners(&all)
                .into_iter()
                .find(|(b, _)| *b == BucketId(0))
                .map(|(_, n)| n)
                .unwrap();
            owners.insert(owner);
        }
        assert_eq!(owners.len(), 4);
    }

    fn req(c: u32, t: u64) -> Request {
        Request::synthetic(ClientId(c), t, 500)
    }

    #[test]
    fn queues_are_idempotent_and_fifo() {
        let mut q = BucketQueues::new(4);
        assert!(q.add(req(1, 1)));
        assert!(!q.add(req(1, 1)), "duplicate add is a no-op");
        assert!(q.add(req(1, 2)));
        assert!(q.add(req(2, 1)));
        assert_eq!(q.len(), 3);
        assert!(q.contains(&req(1, 1).id));
        // Cutting a batch over all buckets returns the requests exactly once.
        let all: Vec<BucketId> = (0..4).map(BucketId).collect();
        let batch = q.cut_batch(&all, 10);
        assert_eq!(batch.len(), 3);
        assert!(q.is_empty());
    }

    #[test]
    fn cut_batch_respects_bucket_restriction_and_size() {
        let mut q = BucketQueues::new(8);
        for c in 0..4u32 {
            for t in 0..8u64 {
                q.add(req(c, t));
            }
        }
        let total = q.len();
        let restricted: Vec<BucketId> = (0..4).map(BucketId).collect();
        let available = q.available_in(&restricted);
        let batch = q.cut_batch(&restricted, 5);
        assert!(batch.len() <= 5);
        assert!(batch.len() <= available);
        for r in batch.requests() {
            assert!(
                restricted.contains(&r.bucket(8)),
                "request outside the allowed buckets"
            );
        }
        assert_eq!(q.len(), total - batch.len());
    }

    #[test]
    fn remove_and_resurrect() {
        let mut q = BucketQueues::new(2);
        let a = req(1, 1);
        let b = req(1, 2);
        q.add(a.clone());
        q.add(b.clone());
        assert!(q.remove(&a.id));
        assert!(!q.remove(&a.id));
        assert_eq!(q.len(), 1);
        // Resurrection puts the request back at the front of its bucket.
        assert!(q.resurrect(a.clone()));
        assert!(!q.resurrect(a.clone()));
        let bucket = a.bucket(2);
        let cut = q.cut_batch(&[bucket], 1);
        // The resurrected request is the oldest in its bucket again (even if
        // it shares the bucket with `b`, it must come out first).
        assert_eq!(cut.requests()[0].id, a.id);
    }

    #[test]
    fn empty_cut_is_empty() {
        let mut q = BucketQueues::new(4);
        let batch = q.cut_batch(&[BucketId(0)], 16);
        assert!(batch.is_empty());
    }
}
