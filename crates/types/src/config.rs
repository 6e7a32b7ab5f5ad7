//! Configuration of an ISS deployment.
//!
//! [`IssConfig`] captures every parameter of Table 1 of the paper plus the
//! knobs of Section 6.4 (view-change timeout, straggler behaviour). The
//! [`IssConfig::pbft`], [`IssConfig::hotstuff`] and [`IssConfig::raft`]
//! presets reproduce the exact values of Table 1.

use crate::ids::NodeId;
use crate::time::Duration;

/// The leader-driven ordering protocol multiplexed by ISS (Section 4.2).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ProtocolKind {
    /// Practical Byzantine Fault Tolerance (Castro–Liskov).
    Pbft,
    /// Chained HotStuff with threshold-signature quorum certificates.
    HotStuff,
    /// Raft (crash fault tolerant).
    Raft,
}

impl ProtocolKind {
    /// Whether the protocol tolerates Byzantine faults.
    pub fn is_bft(self) -> bool {
        !matches!(self, ProtocolKind::Raft)
    }

    /// Human-readable name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::Pbft => "PBFT",
            ProtocolKind::HotStuff => "HotStuff",
            ProtocolKind::Raft => "Raft",
        }
    }
}

/// Leader-selection policy (Section 3.4).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LeaderPolicyKind {
    /// All nodes are leaders in every epoch.
    Simple,
    /// Suspected nodes are banned for a doubling number of epochs.
    Backoff,
    /// At most `f` most-recently-suspected nodes are excluded (default).
    Blacklist,
}

impl LeaderPolicyKind {
    /// Human-readable name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            LeaderPolicyKind::Simple => "Simple",
            LeaderPolicyKind::Backoff => "Backoff",
            LeaderPolicyKind::Blacklist => "Blacklist",
        }
    }
}

/// Full configuration of an ISS deployment.
#[derive(Clone, PartialEq, Debug)]
pub struct IssConfig {
    /// Number of replicas `n`.
    pub num_nodes: usize,
    /// The ordering protocol used to implement Sequenced Broadcast.
    pub protocol: ProtocolKind,
    /// The leader-selection policy.
    pub leader_policy: LeaderPolicyKind,
    /// Buckets per leader (Table 1: 16); total buckets = `num_nodes × this`.
    pub buckets_per_leader: usize,
    /// Maximum number of requests per batch.
    pub max_batch_size: usize,
    /// System-wide batch rate in batches per second, if rate limiting is used
    /// (Table 1: 32 b/s for PBFT and Raft, not applicable for HotStuff).
    pub batch_rate: Option<f64>,
    /// Minimum time a leader waits before proposing a (possibly non-full)
    /// batch.
    pub min_batch_timeout: Duration,
    /// Maximum time a leader waits for a batch to fill before proposing it.
    pub max_batch_timeout: Duration,
    /// Minimum epoch length in sequence numbers (Table 1: 256).
    pub min_epoch_length: u64,
    /// Minimum number of sequence numbers per segment (Table 1: 2 for PBFT,
    /// 16 for HotStuff and Raft).
    pub min_segment_size: u64,
    /// Timeout after which an SB instance that makes no progress suspects its
    /// leader (the "epoch change timeout" of Table 1).
    pub epoch_change_timeout: Duration,
    /// PBFT view-change timeout (Section 6.4 uses 10 s).
    pub view_change_timeout: Duration,
    /// Whether clients sign requests (Table 1: ECDSA for PBFT/HotStuff, none
    /// for Raft).
    pub client_signatures: bool,
    /// Size of the per-client watermark window (how many requests a client
    /// may have in flight, Section 3.7).
    pub client_watermark_window: u64,
    /// BACKOFF policy: initial ban period in epochs.
    pub backoff_ban_period: u64,
    /// BACKOFF policy: linear decrease of the ban period per correct epoch.
    pub backoff_decrease: u64,
    /// Read by nothing: PBFT always holds back a vote that arrives before
    /// its slot's pre-prepare. Exists only because the wall-clock harness in
    /// `bench/` still assigns it; ROADMAP F4 deletes it.
    #[doc(hidden)]
    pub buffer_early_votes: bool,
}

impl IssConfig {
    /// Table 1 configuration for ISS-PBFT.
    pub fn pbft(num_nodes: usize) -> Self {
        IssConfig {
            num_nodes,
            protocol: ProtocolKind::Pbft,
            leader_policy: LeaderPolicyKind::Blacklist,
            buckets_per_leader: 16,
            max_batch_size: 2048,
            batch_rate: Some(32.0),
            min_batch_timeout: Duration::ZERO,
            max_batch_timeout: Duration::from_secs(4),
            min_epoch_length: 256,
            min_segment_size: 2,
            epoch_change_timeout: Duration::from_secs(10),
            view_change_timeout: Duration::from_secs(10),
            client_signatures: true,
            client_watermark_window: 1024,
            backoff_ban_period: 4,
            backoff_decrease: 1,
            buffer_early_votes: false,
        }
    }

    /// Table 1 configuration for ISS-HotStuff.
    pub fn hotstuff(num_nodes: usize) -> Self {
        IssConfig {
            num_nodes,
            protocol: ProtocolKind::HotStuff,
            leader_policy: LeaderPolicyKind::Blacklist,
            buckets_per_leader: 16,
            max_batch_size: 4096,
            batch_rate: None,
            min_batch_timeout: Duration::from_secs(1),
            max_batch_timeout: Duration::ZERO,
            min_epoch_length: 256,
            min_segment_size: 16,
            epoch_change_timeout: Duration::from_secs(10),
            view_change_timeout: Duration::from_secs(10),
            client_signatures: true,
            client_watermark_window: 1024,
            backoff_ban_period: 4,
            backoff_decrease: 1,
            buffer_early_votes: false,
        }
    }

    /// Table 1 configuration for ISS-Raft.
    pub fn raft(num_nodes: usize) -> Self {
        IssConfig {
            num_nodes,
            protocol: ProtocolKind::Raft,
            leader_policy: LeaderPolicyKind::Blacklist,
            buckets_per_leader: 16,
            max_batch_size: 4096,
            batch_rate: Some(32.0),
            min_batch_timeout: Duration::ZERO,
            max_batch_timeout: Duration::from_secs(4),
            min_epoch_length: 256,
            min_segment_size: 16,
            epoch_change_timeout: Duration::from_secs(10),
            view_change_timeout: Duration::from_secs(10),
            client_signatures: false,
            client_watermark_window: 1024,
            backoff_ban_period: 4,
            backoff_decrease: 1,
            buffer_early_votes: false,
        }
    }

    /// Configuration preset for the given protocol.
    pub fn preset(protocol: ProtocolKind, num_nodes: usize) -> Self {
        match protocol {
            ProtocolKind::Pbft => Self::pbft(num_nodes),
            ProtocolKind::HotStuff => Self::hotstuff(num_nodes),
            ProtocolKind::Raft => Self::raft(num_nodes),
        }
    }

    /// Selects the leader-selection policy, returning the updated config.
    pub fn with_policy(mut self, policy: LeaderPolicyKind) -> Self {
        self.leader_policy = policy;
        self
    }

    /// Number of tolerated faults `f`.
    ///
    /// For BFT protocols `n ≥ 3f + 1`; for the CFT protocol `n ≥ 2f + 1`.
    pub fn f(&self) -> usize {
        if self.protocol.is_bft() {
            (self.num_nodes.saturating_sub(1)) / 3
        } else {
            (self.num_nodes.saturating_sub(1)) / 2
        }
    }

    /// Total number of buckets `|B| = num_nodes × buckets_per_leader`.
    pub fn num_buckets(&self) -> usize {
        self.num_nodes * self.buckets_per_leader
    }

    /// Epoch length (number of sequence numbers) for an epoch with
    /// `num_leaders` leaders.
    ///
    /// The epoch must be long enough that every segment has at least
    /// `min_segment_size` sequence numbers, and at least `min_epoch_length`
    /// long (Table 1).
    pub fn epoch_length(&self, num_leaders: usize) -> u64 {
        let leaders = num_leaders.max(1) as u64;
        self.min_epoch_length.max(leaders * self.min_segment_size)
    }

    /// All node identifiers `0..n`.
    pub fn all_nodes(&self) -> Vec<NodeId> {
        (0..self.num_nodes as u32).map(NodeId).collect()
    }

    /// Validates internal consistency of the configuration.
    pub fn validate(&self) -> crate::error::Result<()> {
        if self.num_nodes == 0 {
            return Err(crate::error::Error::config("num_nodes must be positive"));
        }
        if self.protocol.is_bft() && self.num_nodes < 4 && self.f() > 0 {
            return Err(crate::error::Error::config("BFT requires n >= 3f + 1"));
        }
        if self.buckets_per_leader == 0 {
            return Err(crate::error::Error::config(
                "buckets_per_leader must be positive",
            ));
        }
        if self.max_batch_size == 0 {
            return Err(crate::error::Error::config(
                "max_batch_size must be positive",
            ));
        }
        if self.min_epoch_length == 0 {
            return Err(crate::error::Error::config(
                "min_epoch_length must be positive",
            ));
        }
        if let Some(rate) = self.batch_rate {
            // `partial_cmp` keeps NaN out: anything that is not strictly
            // greater than zero (including NaN) is rejected.
            if rate.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
                return Err(crate::error::Error::config("batch_rate must be positive"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_pbft_preset() {
        let c = IssConfig::pbft(32);
        assert_eq!(c.max_batch_size, 2048);
        assert_eq!(c.batch_rate, Some(32.0));
        assert_eq!(c.min_batch_timeout, Duration::ZERO);
        assert_eq!(c.max_batch_timeout, Duration::from_secs(4));
        assert_eq!(c.min_epoch_length, 256);
        assert_eq!(c.min_segment_size, 2);
        assert_eq!(c.epoch_change_timeout, Duration::from_secs(10));
        assert_eq!(c.buckets_per_leader, 16);
        assert!(c.client_signatures);
        assert_eq!(c.leader_policy, LeaderPolicyKind::Blacklist);
        c.validate().unwrap();
    }

    #[test]
    fn table1_hotstuff_preset() {
        let c = IssConfig::hotstuff(16);
        assert_eq!(c.max_batch_size, 4096);
        assert_eq!(c.batch_rate, None);
        assert_eq!(c.min_batch_timeout, Duration::from_secs(1));
        assert_eq!(c.max_batch_timeout, Duration::ZERO);
        assert_eq!(c.min_segment_size, 16);
        assert!(c.client_signatures);
        c.validate().unwrap();
    }

    #[test]
    fn table1_raft_preset() {
        let c = IssConfig::raft(8);
        assert_eq!(c.max_batch_size, 4096);
        assert_eq!(c.batch_rate, Some(32.0));
        assert!(!c.client_signatures);
        assert_eq!(c.min_segment_size, 16);
        c.validate().unwrap();
    }

    #[test]
    fn fault_tolerance_thresholds() {
        assert_eq!(IssConfig::pbft(4).f(), 1);
        assert_eq!(IssConfig::pbft(32).f(), 10);
        assert_eq!(IssConfig::pbft(128).f(), 42);
        assert_eq!(IssConfig::raft(5).f(), 2);
        assert_eq!(IssConfig::raft(4).f(), 1);
    }

    #[test]
    fn epoch_length_respects_minimums() {
        let pbft = IssConfig::pbft(128);
        // 128 leaders × 2 = 256 = min epoch length.
        assert_eq!(pbft.epoch_length(128), 256);
        let hs = IssConfig::hotstuff(128);
        // 128 leaders × 16 = 2048 > 256.
        assert_eq!(hs.epoch_length(128), 2048);
        assert_eq!(hs.epoch_length(4), 256);
        assert_eq!(hs.epoch_length(0), 256);
    }

    #[test]
    fn num_buckets_scales_with_nodes() {
        assert_eq!(IssConfig::pbft(32).num_buckets(), 512);
        assert_eq!(IssConfig::pbft(4).num_buckets(), 64);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = IssConfig::pbft(4);
        c.num_nodes = 0;
        assert!(c.validate().is_err());
        let mut c = IssConfig::pbft(4);
        c.max_batch_size = 0;
        assert!(c.validate().is_err());
        let mut c = IssConfig::pbft(4);
        c.batch_rate = Some(0.0);
        assert!(c.validate().is_err());
        let mut c = IssConfig::pbft(4);
        c.buckets_per_leader = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn protocol_and_policy_names() {
        assert_eq!(ProtocolKind::Pbft.name(), "PBFT");
        assert_eq!(ProtocolKind::HotStuff.name(), "HotStuff");
        assert_eq!(ProtocolKind::Raft.name(), "Raft");
        assert!(ProtocolKind::Pbft.is_bft());
        assert!(!ProtocolKind::Raft.is_bft());
        assert_eq!(LeaderPolicyKind::Simple.name(), "Simple");
        assert_eq!(LeaderPolicyKind::Backoff.name(), "Backoff");
        assert_eq!(LeaderPolicyKind::Blacklist.name(), "Blacklist");
    }

    #[test]
    fn all_nodes_enumeration() {
        let c = IssConfig::pbft(4);
        assert_eq!(
            c.all_nodes(),
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]
        );
    }
}
