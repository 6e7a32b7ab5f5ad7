//! Client-side logic (Sections 3.7 and 4.3): request signing, the
//! watermark-limited submission window, optimistic leader tracking from the
//! nodes' bucket-assignment announcements, and response quorum counting.
//!
//! The actual client *process* (the event-driven entity that lives on the
//! simulated network and generates load) is assembled in `iss-sim`; this
//! crate holds the reusable, transport-independent pieces.

use iss_crypto::{request_digest, KeyPair};
use iss_messages::ClientMsg;
use iss_types::{
    BitWindow, BucketId, ClientId, EpochNr, FxHashMap, NodeId, ReqTimestamp, Request, RequestId,
    SeqNr,
};
use std::collections::{HashMap, HashSet};

/// Builds signed (or unsigned) requests for one client with increasing
/// timestamps. Payload sizes are chosen per request by the caller (the
/// workload schedule decides them), not baked into the factory.
pub struct RequestFactory {
    client: ClientId,
    keypair: KeyPair,
    sign: bool,
    next_timestamp: ReqTimestamp,
}

impl RequestFactory {
    /// Creates a factory for `client`.
    pub fn new(client: ClientId, sign: bool) -> Self {
        RequestFactory {
            client,
            keypair: KeyPair::for_client(client),
            sign,
            next_timestamp: 0,
        }
    }

    /// The timestamp the next request will carry.
    pub fn next_timestamp(&self) -> ReqTimestamp {
        self.next_timestamp
    }

    /// Produces the next request with a synthetic payload of `payload_size`
    /// bytes.
    pub fn next_request(&mut self, payload_size: u32) -> Request {
        let t = self.next_timestamp;
        self.next_timestamp += 1;
        let req = Request::synthetic(self.client, t, payload_size);
        if self.sign {
            let digest = request_digest(&req);
            let sig = self.keypair.sign(&digest).to_vec();
            req.with_signature(sig)
        } else {
            req
        }
    }
}

/// The announcing nodes and the announced assignment for one not-yet-accepted
/// epoch.
type PendingAnnouncement = (HashSet<NodeId>, Vec<(BucketId, NodeId)>);

/// Tracks the bucket → leader assignment announced by the nodes at every
/// epoch transition (Section 4.3). An announcement is accepted once a quorum
/// of nodes has sent the same assignment for the same epoch.
pub struct LeaderTable {
    quorum: usize,
    num_buckets: usize,
    all_nodes: Vec<NodeId>,
    /// The accepted assignment, indexed by bucket; `None` for a bucket the
    /// assignment does not name.
    current: Vec<Option<NodeId>>,
    accepted_epoch: Option<EpochNr>,
    /// epoch → set of nodes that announced it (assignments are deterministic,
    /// so counting senders is sufficient).
    pending: HashMap<EpochNr, PendingAnnouncement>,
}

impl LeaderTable {
    /// Creates a table; `quorum` is the number of matching announcements a
    /// client waits for (f+1 suffices since the assignment is deterministic).
    pub fn new(all_nodes: Vec<NodeId>, num_buckets: usize, quorum: usize) -> Self {
        LeaderTable {
            quorum,
            num_buckets,
            all_nodes,
            current: vec![None; num_buckets],
            accepted_epoch: None,
            pending: HashMap::new(),
        }
    }

    /// The epoch whose assignment is currently in force, if any.
    pub fn accepted_epoch(&self) -> Option<EpochNr> {
        self.accepted_epoch
    }

    /// Processes a `BucketLeaders` announcement from `from`. Returns `true`
    /// if a new assignment was accepted.
    pub fn on_announcement(&mut self, from: NodeId, msg: &ClientMsg) -> bool {
        let ClientMsg::BucketLeaders { epoch, leaders } = msg else {
            return false;
        };
        if self.accepted_epoch.is_some_and(|e| *epoch <= e) {
            return false;
        }
        let entry = self
            .pending
            .entry(*epoch)
            .or_insert_with(|| (HashSet::new(), leaders.clone()));
        entry.0.insert(from);
        if entry.0.len() >= self.quorum {
            self.current.fill(None);
            // A bucket this client does not have cannot route a request.
            for &(bucket, leader) in &entry.1 {
                if let Some(owner) = self.current.get_mut(bucket.index()) {
                    *owner = Some(leader);
                }
            }
            self.accepted_epoch = Some(*epoch);
            self.pending.retain(|e, _| *e > *epoch);
            true
        } else {
            false
        }
    }

    /// The node to which a request should be submitted: the leader currently
    /// owning the request's bucket, falling back to a deterministic default
    /// (bucket number modulo n) before the first announcement.
    pub fn target_for(&self, request: &RequestId) -> NodeId {
        let bucket = request.bucket(self.num_buckets).index();
        self.current[bucket].unwrap_or_else(|| self.all_nodes[bucket % self.all_nodes.len()])
    }
}

/// Counts per-request responses and reports completion once f+1 nodes have
/// sent *matching* responses, i.e. the same sequence number (Section 6.1:
/// "the latency from the moment a client submits a request until the client
/// receives f + 1 responses").
///
/// A client's timestamps count up from zero, so its completed requests are
/// a [`BitWindow`] over timestamps: memory follows the timestamps between
/// the oldest incomplete request and the newest completed one, not the
/// requests completed so far.
#[derive(Default)]
pub struct ResponseTracker {
    quorum: usize,
    /// Per pending request, the distinct `(responder, seq_nr)` pairs so far.
    responses: FxHashMap<RequestId, Vec<(NodeId, SeqNr)>>,
    /// Per client, the timestamps of its completed requests.
    completed: FxHashMap<ClientId, BitWindow>,
    completed_count: usize,
}

impl ResponseTracker {
    /// Creates a tracker requiring `quorum` (= f+1) matching responses.
    pub fn new(quorum: usize) -> Self {
        ResponseTracker {
            quorum,
            ..Default::default()
        }
    }

    /// Records a response. Returns `Some(seq_nr)` the first time `quorum`
    /// distinct nodes have reported the request at the same `seq_nr`.
    pub fn on_response(
        &mut self,
        from: NodeId,
        request: RequestId,
        seq_nr: SeqNr,
    ) -> Option<SeqNr> {
        if self.is_complete(&request) {
            return None;
        }
        let received = self.responses.entry(request).or_default();
        if !received.contains(&(from, seq_nr)) {
            received.push((from, seq_nr));
        }
        if received.iter().filter(|(_, s)| *s == seq_nr).count() >= self.quorum {
            self.responses.remove(&request);
            let window = self.completed.entry(request.client).or_default();
            window.insert(request.timestamp);
            window.advance();
            self.completed_count += 1;
            Some(seq_nr)
        } else {
            None
        }
    }

    /// Whether the request has completed.
    pub fn is_complete(&self, request: &RequestId) -> bool {
        self.completed
            .get(&request.client)
            .is_some_and(|window| window.contains(request.timestamp))
    }

    /// Number of completed requests.
    pub fn completed_count(&self) -> usize {
        self.completed_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iss_crypto::SignatureRegistry;

    #[test]
    fn request_factory_signs_and_increments() {
        let mut f = RequestFactory::new(ClientId(3), true);
        let a = f.next_request(500);
        let b = f.next_request(750);
        assert_eq!(a.id.timestamp, 0);
        assert_eq!(b.id.timestamp, 1);
        assert_eq!(f.next_timestamp(), 2);
        assert_eq!(a.payload_size, 500);
        assert_eq!(b.payload_size, 750);
        let registry = SignatureRegistry::with_processes(0, 4);
        registry
            .verify_client(ClientId(3), &request_digest(&a), &a.signature)
            .unwrap();
    }

    #[test]
    fn unsigned_factory_leaves_signature_empty() {
        let mut f = RequestFactory::new(ClientId(0), false);
        assert!(f.next_request(100).signature.is_empty());
    }

    #[test]
    fn leader_table_waits_for_quorum_and_routes() {
        let nodes: Vec<NodeId> = (0..4).map(NodeId).collect();
        let mut table = LeaderTable::new(nodes.clone(), 8, 2);
        let req = RequestId::new(ClientId(1), 7);
        let default_target = table.target_for(&req);
        assert!(nodes.contains(&default_target));

        let assignment: Vec<(BucketId, NodeId)> =
            (0..8).map(|b| (BucketId(b), NodeId(3))).collect();
        let msg = ClientMsg::BucketLeaders {
            epoch: 1,
            leaders: assignment,
        };
        assert!(!table.on_announcement(NodeId(0), &msg));
        assert!(table.on_announcement(NodeId(1), &msg));
        assert_eq!(table.accepted_epoch(), Some(1));
        assert_eq!(table.target_for(&req), NodeId(3));
        // Stale announcements are ignored.
        assert!(!table.on_announcement(
            NodeId(2),
            &ClientMsg::BucketLeaders {
                epoch: 1,
                leaders: vec![]
            }
        ));
    }

    #[test]
    fn newer_epoch_replaces_assignment() {
        let nodes: Vec<NodeId> = (0..4).map(NodeId).collect();
        let mut table = LeaderTable::new(nodes, 4, 1);
        let e1: Vec<(BucketId, NodeId)> = (0..4).map(|b| (BucketId(b), NodeId(1))).collect();
        let e2: Vec<(BucketId, NodeId)> = (0..4).map(|b| (BucketId(b), NodeId(2))).collect();
        table.on_announcement(
            NodeId(0),
            &ClientMsg::BucketLeaders {
                epoch: 1,
                leaders: e1,
            },
        );
        table.on_announcement(
            NodeId(0),
            &ClientMsg::BucketLeaders {
                epoch: 2,
                leaders: e2,
            },
        );
        assert_eq!(table.accepted_epoch(), Some(2));
        assert_eq!(table.target_for(&RequestId::new(ClientId(0), 0)), NodeId(2));
    }

    #[test]
    fn leader_table_falls_back_before_an_announcement_and_ignores_unknown_buckets() {
        let nodes: Vec<NodeId> = (0..4).map(NodeId).collect();
        let num_buckets = 8;
        let mut table = LeaderTable::new(nodes, num_buckets, 1);
        let requests: Vec<RequestId> = (0..64).map(|t| RequestId::new(ClientId(2), t)).collect();
        assert!(requests.iter().any(|r| r.bucket(num_buckets).index() == 0));
        // Before any announcement: bucket number modulo n.
        for req in &requests {
            let bucket = req.bucket(num_buckets).index();
            assert_eq!(table.target_for(req), NodeId((bucket % 4) as u32));
        }
        // An assignment naming bucket 0 and buckets this client does not
        // have: bucket 0 moves to node 3, out-of-range entries are ignored and
        // every other bucket keeps the fallback.
        let leaders = vec![
            (BucketId(0), NodeId(3)),
            (BucketId(num_buckets as u32), NodeId(1)),
            (BucketId(u32::MAX), NodeId(2)),
        ];
        assert!(table.on_announcement(NodeId(0), &ClientMsg::BucketLeaders { epoch: 1, leaders }));
        for req in &requests {
            let bucket = req.bucket(num_buckets).index();
            let expected = if bucket == 0 { 3 } else { bucket % 4 };
            assert_eq!(table.target_for(req), NodeId(expected as u32));
        }
    }

    #[test]
    fn response_tracker_requires_quorum_once() {
        let mut t = ResponseTracker::new(2);
        let req = RequestId::new(ClientId(0), 0);
        assert_eq!(t.on_response(NodeId(0), req, 5), None);
        assert_eq!(
            t.on_response(NodeId(0), req, 5),
            None,
            "duplicate responder does not count"
        );
        assert_eq!(t.on_response(NodeId(1), req, 5), Some(5));
        assert_eq!(t.on_response(NodeId(2), req, 5), None, "already completed");
        assert!(t.is_complete(&req));
        assert_eq!(t.completed_count(), 1);
    }

    #[test]
    fn response_tracker_counts_only_matching_seq_nrs() {
        let mut t = ResponseTracker::new(2);
        let req = RequestId::new(ClientId(0), 0);
        assert_eq!(t.on_response(NodeId(0), req, 5), None);
        assert_eq!(
            t.on_response(NodeId(1), req, 9),
            None,
            "two responders disagreeing on the seq_nr are not a quorum"
        );
        assert!(!t.is_complete(&req));
        assert_eq!(
            t.on_response(NodeId(2), req, 5),
            Some(5),
            "the second matching response completes at the agreed seq_nr"
        );
        assert_eq!(t.on_response(NodeId(3), req, 9), None, "already completed");
    }

    #[test]
    fn response_tracker_forgets_a_run_of_completions() {
        let mut t = ResponseTracker::new(2);
        let client = ClientId(1);
        let total = 1_000_000;
        for k in 0..total {
            let req = RequestId::new(client, k);
            assert_eq!(t.on_response(NodeId(0), req, k), None);
            assert_eq!(t.on_response(NodeId(1), req, k), Some(k));
        }
        assert_eq!(t.completed_count(), total as usize);
        assert!(t.responses.is_empty());
        let words = t.completed[&client].word_count();
        assert!(
            words <= 1,
            "{words} words after {total} in-order completions"
        );
        let late = RequestId::new(client, 17);
        assert_eq!(
            t.on_response(NodeId(2), late, 17),
            None,
            "a late duplicate of a long-completed request"
        );
        assert!(t.is_complete(&late));
        assert!(t.responses.is_empty(), "nothing kept for the duplicate");
    }
}
