//! Epochs and segments (Sections 2.3 and 3.1, Figure 1).

use crate::buckets::BucketAssignment;
use iss_types::{EpochNr, InstanceId, IssConfig, NodeId, Segment, SeqNr};
use std::sync::Arc;

/// The configuration of one epoch: its sequence numbers and segments.
#[derive(Clone, Debug)]
pub struct EpochConfig {
    /// The epoch number.
    pub epoch: EpochNr,
    /// First sequence number of the epoch.
    pub first_seq_nr: SeqNr,
    /// Number of sequence numbers in the epoch.
    pub length: u64,
    /// The leaders of the epoch, in segment order.
    pub leaders: Vec<NodeId>,
    /// One segment per leader. Segments are shared (`Arc`) so handing one
    /// to its SB instance is a refcount bump, not a deep copy of the
    /// sequence-number and bucket vectors.
    pub segments: Vec<Arc<Segment>>,
}

impl EpochConfig {
    /// Builds epoch `epoch` starting at `first_seq_nr` with the given
    /// leaderset (Algorithm 3, `initEpoch`).
    ///
    /// Sequence numbers are assigned to segments round-robin (`sn ≡ l mod
    /// |leaders|`, Figure 1) and buckets are assigned per Section 2.4.
    pub fn build(
        config: &IssConfig,
        epoch: EpochNr,
        first_seq_nr: SeqNr,
        leaders: Vec<NodeId>,
    ) -> Self {
        assert!(!leaders.is_empty(), "an epoch needs at least one leader");
        let length = config.epoch_length(leaders.len());
        let all_nodes = config.all_nodes();
        let assignment =
            BucketAssignment::compute(epoch, config.num_buckets(), &all_nodes, &leaders);
        let segments = leaders
            .iter()
            .enumerate()
            .map(|(l, leader)| {
                let seq_nrs: Vec<SeqNr> = (l as u64..length)
                    .step_by(leaders.len())
                    .map(|offset| first_seq_nr + offset)
                    .collect();
                Arc::new(Segment {
                    instance: InstanceId::new(epoch, l as u32),
                    leader: *leader,
                    seq_nrs,
                    buckets: assignment.of_leader(l).to_vec(),
                    nodes: all_nodes.clone(),
                    f: config.f(),
                })
            })
            .collect();
        EpochConfig {
            epoch,
            first_seq_nr,
            length,
            leaders,
            segments,
        }
    }

    /// The set `Sn(e)` of sequence numbers of this epoch.
    pub fn seq_nrs(&self) -> impl Iterator<Item = SeqNr> + '_ {
        self.first_seq_nr..self.first_seq_nr + self.length
    }

    /// The highest sequence number of the epoch (`max(Sn(e))`).
    pub fn max_seq_nr(&self) -> SeqNr {
        self.first_seq_nr + self.length - 1
    }

    /// The first sequence number of the *next* epoch.
    pub fn next_first_seq_nr(&self) -> SeqNr {
        self.first_seq_nr + self.length
    }

    /// The segment led by `node`, if `node` is a leader this epoch.
    pub fn segment_of_leader(&self, node: NodeId) -> Option<&Segment> {
        self.segments
            .iter()
            .find(|s| s.leader == node)
            .map(Arc::as_ref)
    }

    /// The owner (leader) of each bucket in this epoch, used for the client
    /// announcements of Section 4.3.
    pub fn bucket_owners(&self) -> Vec<(iss_types::BucketId, NodeId)> {
        let mut owners = Vec::new();
        for s in &self.segments {
            for b in &s.buckets {
                owners.push((*b, s.leader));
            }
        }
        owners.sort_by_key(|(b, _)| *b);
        owners
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iss_types::IssConfig;

    fn config(n: usize) -> IssConfig {
        let mut c = IssConfig::pbft(n);
        c.min_epoch_length = 12;
        c.min_segment_size = 1;
        c
    }

    #[test]
    fn figure1_example_layout() {
        // Figure 1: epoch length 12; epoch 0 has 3 segments, epoch 1 has 2.
        let cfg = config(4);
        let e0 = EpochConfig::build(&cfg, 0, 0, vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(e0.length, 12);
        assert_eq!(e0.max_seq_nr(), 11);
        assert_eq!(e0.segments.len(), 3);
        // Seg(0, 1) = {1, 4, 7, 10}: max(Seg(0,1)) = 10 as in the figure.
        assert_eq!(e0.segments[1].seq_nrs, vec![1, 4, 7, 10]);
        assert_eq!(e0.segments[1].max_seq_nr(), Some(10));

        let e1 = EpochConfig::build(&cfg, 1, e0.next_first_seq_nr(), vec![NodeId(0), NodeId(1)]);
        assert_eq!(e1.first_seq_nr, 12);
        assert_eq!(e1.max_seq_nr(), 23);
        assert_eq!(e1.segments.len(), 2);
        assert_eq!(e1.segments[0].seq_nrs, vec![12, 14, 16, 18, 20, 22]);

        let e2 = EpochConfig::build(
            &cfg,
            2,
            e1.next_first_seq_nr(),
            vec![NodeId(0), NodeId(1), NodeId(3)],
        );
        assert_eq!(e2.first_seq_nr, 24, "no gaps between epochs");
    }

    #[test]
    fn segments_partition_the_epoch() {
        let cfg = config(4);
        let e = EpochConfig::build(&cfg, 3, 100, vec![NodeId(1), NodeId(2), NodeId(3)]);
        let mut all: Vec<SeqNr> = e.segments.iter().flat_map(|s| s.seq_nrs.clone()).collect();
        all.sort();
        let expected: Vec<SeqNr> = e.seq_nrs().collect();
        assert_eq!(all, expected);
        // Every sequence number maps back to exactly one segment.
        let owners = |sn| e.segments.iter().filter(|s| s.contains(sn)).count();
        for sn in e.seq_nrs() {
            assert_eq!(owners(sn), 1);
        }
        assert_eq!(owners(99), 0);
        assert_eq!(owners(112), 0);
    }

    #[test]
    fn strided_segments_equal_the_round_robin_definition() {
        // Leaders beyond the epoch length get empty segments; 128 leaders is
        // the paper's largest deployment.
        for leaders in [1usize, 2, 3, 5, 7, 16, 31, 64, 128, 130] {
            let mut cfg = config(leaders.max(4));
            cfg.min_segment_size = 0;
            for length in [1u64, 2, 5, 12, 63, 64, 100, 129, 256, 1000] {
                cfg.min_epoch_length = length;
                let ids: Vec<NodeId> = (0..leaders as u32).map(NodeId).collect();
                let e = EpochConfig::build(&cfg, 1, 40, ids);
                assert_eq!(e.length, length, "min_segment_size 0 keeps the length");
                for (l, segment) in e.segments.iter().enumerate() {
                    let round_robin: Vec<SeqNr> = (0..length)
                        .filter(|offset| (*offset as usize) % leaders == l)
                        .map(|offset| 40 + offset)
                        .collect();
                    assert_eq!(
                        segment.seq_nrs, round_robin,
                        "length {length}, {leaders} leaders, segment {l}"
                    );
                }
            }
        }
    }

    #[test]
    fn epoch_length_grows_with_leaders_when_segments_would_be_too_short() {
        let mut cfg = IssConfig::hotstuff(64);
        cfg.min_epoch_length = 256;
        cfg.min_segment_size = 16;
        let leaders: Vec<NodeId> = (0..64).map(NodeId).collect();
        let e = EpochConfig::build(&cfg, 0, 0, leaders);
        assert_eq!(e.length, 64 * 16);
        assert!(e.segments.iter().all(|s| s.len() == 16));
    }

    #[test]
    fn segment_of_leader_and_bucket_owners() {
        let cfg = config(4);
        let e = EpochConfig::build(&cfg, 0, 0, vec![NodeId(0), NodeId(2)]);
        assert_eq!(e.segment_of_leader(NodeId(2)).unwrap().leader, NodeId(2));
        assert!(e.segment_of_leader(NodeId(1)).is_none());
        let owners = e.bucket_owners();
        assert_eq!(owners.len(), cfg.num_buckets());
        assert!(owners
            .iter()
            .all(|(_, n)| *n == NodeId(0) || *n == NodeId(2)));
    }
}
