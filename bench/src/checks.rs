//! Output checks. A run whose outputs are wrong has no performance to
//! report: any failure here makes the command exit non-zero and name the
//! check.

use crate::cluster::NodeLog;
use crate::loadgen::RequestRecord;
use iss_net::CommitLog;
use iss_types::{ClientId, NodeId, RequestId};
use std::collections::{HashMap, HashSet};

/// Checks the replicas' delivered sequences against each other and against
/// what the clients saw confirmed. `victim` is the replica the crash
/// workload restarted: the deliveries it recovered from its WAL or a
/// snapshot are replayed without sink events, so its sequence has a hole
/// and it is compared key by key rather than position by position, and is
/// exempt from the presence check.
pub fn check_tcp_outputs(
    logs: &[NodeLog],
    per_client: &[Vec<RequestRecord>],
    victim: Option<NodeId>,
) -> Vec<String> {
    let mut failed = Vec::new();
    let steady: Vec<NodeId> = (0..logs.len() as u32)
        .map(NodeId)
        .filter(|n| Some(*n) != victim)
        .collect();

    // Pairwise agreement over the full delivered sequences.
    let mut commits = CommitLog::default();
    for node in &steady {
        for (sn, id) in &logs[node.index()].delivered {
            commits.delivered.push((*node, *sn, *id));
        }
    }
    if let Err(e) = commits.check_agreement(&steady) {
        failed.push(format!("agreement: {e}"));
    }
    if let Some(v) = victim {
        let reference: HashMap<u64, RequestId> =
            logs[steady[0].index()].delivered.iter().copied().collect();
        let diverged = logs[v.index()]
            .delivered
            .iter()
            .find(|(sn, id)| reference.get(sn).is_some_and(|r| r != id));
        if let Some((sn, id)) = diverged {
            failed.push(format!(
                "agreement: restarted {v} delivered {id:?} at {sn}, {} delivered {:?}",
                steady[0], reference[sn]
            ));
        }
    }

    // No duplicate delivery, by request and by sequence number.
    let mut delivered_ids: Vec<HashSet<RequestId>> = Vec::with_capacity(logs.len());
    for (n, log) in logs.iter().enumerate() {
        let mut ids = HashSet::with_capacity(log.delivered.len());
        let mut sns = HashSet::with_capacity(log.delivered.len());
        for (sn, id) in &log.delivered {
            if !ids.insert(*id) {
                failed.push(format!(
                    "duplicate delivery: node {n} delivered {id:?} twice"
                ));
                break;
            }
            if !sns.insert(*sn) {
                failed.push(format!("duplicate delivery: node {n} filled {sn} twice"));
                break;
            }
        }
        delivered_ids.push(ids);
    }

    // Every client-confirmed request is in every steady replica's log.
    'presence: for (c, records) in per_client.iter().enumerate() {
        for (ts, rec) in records.iter().enumerate() {
            if rec.done_us == 0 {
                continue;
            }
            let id = RequestId::new(ClientId(c as u32), ts as u64);
            for node in &steady {
                if !delivered_ids[node.index()].contains(&id) {
                    failed.push(format!(
                        "confirmed-but-missing: {id:?} was confirmed to its client but {node} \
                         never delivered it"
                    ));
                    break 'presence;
                }
            }
        }
    }
    failed
}
