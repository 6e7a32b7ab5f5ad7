//! Raft messages (Ongaro & Ousterhout, adapted per Section 4.2.3).
//!
//! Within ISS the first leader of a Raft instance is fixed to the segment
//! leader (the election phase is skipped); elections still exist to replace
//! a crashed segment leader, in which case the new leader only appends ⊥
//! entries for unproposed sequence numbers.

use iss_types::{Batch, SeqNr, ViewNr};

/// One replicated log entry: a segment sequence number and the batch (or ⊥)
/// assigned to it.
#[derive(Clone, Debug, PartialEq)]
pub struct RaftEntry {
    /// Term in which the entry was created.
    pub term: ViewNr,
    /// The segment sequence number this entry decides.
    pub seq_nr: SeqNr,
    /// The assigned batch; `None` encodes ⊥.
    pub batch: Option<Batch>,
}

/// Raft protocol messages.
#[derive(Clone, Debug, PartialEq)]
pub enum RaftMsg {
    /// Leader replication request (also serves as heartbeat when empty).
    AppendEntries {
        /// Leader's current term.
        term: ViewNr,
        /// Index (position within the segment) preceding the new entries.
        prev_index: u64,
        /// Term of the entry at `prev_index`.
        prev_term: ViewNr,
        /// New entries to append (may be empty for heartbeats).
        entries: Vec<RaftEntry>,
        /// Highest segment position known committed by the leader.
        leader_commit: u64,
    },
    /// Follower response to an append-entries request.
    AppendResponse {
        /// Follower's current term.
        term: ViewNr,
        /// Whether the append succeeded (log matching held).
        success: bool,
        /// Highest segment position the follower has replicated.
        match_index: u64,
    },
    /// Candidate requesting votes for a new term.
    RequestVote {
        /// Candidate's term.
        term: ViewNr,
        /// Index of the candidate's last log entry.
        last_log_index: u64,
        /// Term of the candidate's last log entry.
        last_log_term: ViewNr,
    },
    /// Response to a vote request.
    VoteResponse {
        /// Voter's current term.
        term: ViewNr,
        /// Whether the vote was granted.
        granted: bool,
    },
}

impl RaftMsg {
    /// Number of client requests the message carries.
    pub fn num_requests(&self) -> usize {
        match self {
            RaftMsg::AppendEntries { entries, .. } => entries
                .iter()
                .map(|e| e.batch.as_ref().map(Batch::len).unwrap_or(0))
                .sum(),
            _ => 0,
        }
    }

    /// The term the message belongs to.
    pub fn term(&self) -> ViewNr {
        match self {
            RaftMsg::AppendEntries { term, .. }
            | RaftMsg::AppendResponse { term, .. }
            | RaftMsg::RequestVote { term, .. }
            | RaftMsg::VoteResponse { term, .. } => *term,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SbMsg;
    use iss_types::{ClientId, Request};

    fn size(msg: RaftMsg) -> usize {
        crate::net::sb_wire_size(SbMsg::Raft(msg))
    }

    #[test]
    fn append_entries_size_tracks_entries() {
        let heartbeat = RaftMsg::AppendEntries {
            term: 1,
            prev_index: 0,
            prev_term: 0,
            entries: vec![],
            leader_commit: 0,
        };
        let loaded = RaftMsg::AppendEntries {
            term: 1,
            prev_index: 0,
            prev_term: 0,
            entries: vec![RaftEntry {
                term: 1,
                seq_nr: 4,
                batch: Some(Batch::new(vec![
                    Request::synthetic(ClientId(0), 0, 500);
                    16
                ])),
            }],
            leader_commit: 0,
        };
        assert!(size(heartbeat.clone()) < 100);
        assert!(size(loaded.clone()) > 16 * 500);
        assert_eq!(loaded.num_requests(), 16);
        assert_eq!(heartbeat.num_requests(), 0);
    }

    #[test]
    fn control_messages_are_small() {
        assert!(
            size(RaftMsg::AppendResponse {
                term: 1,
                success: true,
                match_index: 3
            }) < 64
        );
        assert!(
            size(RaftMsg::RequestVote {
                term: 2,
                last_log_index: 0,
                last_log_term: 0
            }) < 64
        );
        assert!(
            size(RaftMsg::VoteResponse {
                term: 2,
                granted: false
            }) < 64
        );
    }

    #[test]
    fn term_accessor() {
        assert_eq!(
            RaftMsg::VoteResponse {
                term: 9,
                granted: true
            }
            .term(),
            9
        );
        assert_eq!(
            RaftMsg::RequestVote {
                term: 3,
                last_log_index: 0,
                last_log_term: 0
            }
            .term(),
            3
        );
    }

    #[test]
    fn nil_entries_are_cheap() {
        let append = |entries| RaftMsg::AppendEntries {
            term: 1,
            prev_index: 0,
            prev_term: 0,
            entries,
            leader_commit: 0,
        };
        let nil = RaftEntry {
            term: 1,
            seq_nr: 0,
            batch: None,
        };
        assert!(size(append(vec![nil])) - size(append(vec![])) < 32);
    }
}
