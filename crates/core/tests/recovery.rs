//! Lockstep recovery tests: a replica restored from (checkpoint snapshot +
//! WAL replay) must end up with a delivered log bit-identical to a replica
//! that never crashed and committed the same entries.

use iss_core::{EpochConfig, IssLog, IssNode, LeaderPolicy, NodeOptions, NullSink, OrdererFactory};
use iss_crypto::SignatureRegistry;
use iss_sb::reference::ReferenceSb;
use iss_sb::SbInstance;
use iss_storage::record::{PolicyState, Snapshot, WalRecord};
use iss_storage::{MemStorage, Storage};
use iss_types::{Batch, ClientId, IssConfig, NodeId, Request, SeqNr};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

fn test_config() -> IssConfig {
    let mut config = IssConfig::pbft(4);
    config.min_epoch_length = 8;
    config.client_signatures = false;
    config
}

fn restore_node(storage: Rc<MemStorage>) -> IssNode {
    let config = test_config();
    let timeout = config.epoch_change_timeout;
    let factory: OrdererFactory = Box::new(move |id, seg| {
        Box::new(ReferenceSb::new(id, seg, timeout)) as Box<dyn SbInstance>
    });
    IssNode::with_storage(
        NodeId(0),
        NodeOptions::new(config),
        factory,
        Arc::new(SignatureRegistry::with_processes(4, 4)),
        Rc::new(RefCell::new(NullSink)),
        storage,
    )
}

/// The committed history this cluster agreed on: one single-request batch
/// per sequence number, with one ⊥ (led by node 3) inside epoch 0.
fn history(upto: SeqNr) -> Vec<(SeqNr, NodeId, Option<Batch>)> {
    (0..=upto)
        .map(|sn| {
            let leader = NodeId((sn % 4) as u32);
            let batch = if sn == 3 {
                None
            } else {
                Some(Batch::new(vec![Request::synthetic(
                    ClientId(sn as u32),
                    sn,
                    16,
                )]))
            };
            (sn, leader, batch)
        })
        .collect()
}

#[test]
fn restored_replica_matches_never_crashed_log() {
    let config = test_config();
    let all_nodes = config.all_nodes();
    let e0_max = EpochConfig::build(&config, 0, 0, all_nodes.clone()).max_seq_nr();
    let extra = 5; // entries committed in epoch 1 before the crash
    let history = history(e0_max + extra);

    // The never-crashed oracle: commits everything, delivers in order.
    let mut oracle_log = IssLog::new();
    let mut oracle_policy = LeaderPolicy::new(
        config.leader_policy,
        all_nodes,
        config.f(),
        config.backoff_ban_period,
        config.backoff_decrease,
    );
    let mut total_at_cut = 0;
    for (sn, leader, batch) in &history {
        assert!(oracle_log.commit(*sn, batch.clone(), *leader));
        if batch.is_none() {
            oracle_policy.record_nil_delivery(*leader, *sn);
        }
        let _ = oracle_log.deliver_ready();
        if *sn == e0_max {
            total_at_cut = oracle_log.total_delivered();
        }
    }
    oracle_policy.on_epoch_end((0, e0_max));
    let (penalties, failures) = oracle_policy.export_records();

    // Storage as the crashed node left it: a snapshot cut at the end of
    // epoch 0 (the WAL below it pruned) plus the epoch-1 suffix in the WAL.
    let storage = Rc::new(MemStorage::new());
    storage
        .save_snapshot(&Snapshot {
            epoch: 0,
            max_seq_nr: e0_max,
            root: [0u8; 32],
            proof: Vec::new(),
            total_delivered: total_at_cut,
            policy: PolicyState {
                penalties,
                failures,
            },
        })
        .unwrap();
    for (sn, leader, batch) in history.iter().filter(|(sn, _, _)| *sn > e0_max) {
        storage
            .append(&WalRecord::Committed {
                seq_nr: *sn,
                leader: *leader,
                batch: batch.clone(),
            })
            .unwrap();
    }

    let restored = restore_node(storage);
    assert!(restored.is_recovering(), "replayed entries imply catch-up");
    assert_eq!(
        restored.current_epoch(),
        1,
        "re-anchored at the epoch after the snapshot"
    );
    assert_eq!(
        restored.log().first_undelivered(),
        oracle_log.first_undelivered(),
        "delivery head identical to the never-crashed replica"
    );
    assert_eq!(
        restored.log().total_delivered(),
        oracle_log.total_delivered(),
        "Equation-2 request numbering identical to the never-crashed replica"
    );
    // The retained suffix is bit-identical: same batches, same leaders.
    for (sn, _, _) in history.iter().filter(|(sn, _, _)| *sn > e0_max) {
        let ours = restored.log().get(*sn).expect("replayed entry present");
        let oracle = oracle_log.get(*sn).unwrap();
        assert_eq!(ours.leader, oracle.leader, "leader at sn {sn}");
        assert_eq!(ours.batch, oracle.batch, "batch at sn {sn}");
    }
}

#[test]
fn torn_wal_tail_is_ignored_on_restore() {
    let history = history(4);
    let storage = Rc::new(MemStorage::new());
    for (sn, leader, batch) in &history {
        storage
            .append(&WalRecord::Committed {
                seq_nr: *sn,
                leader: *leader,
                batch: batch.clone(),
            })
            .unwrap();
    }
    // A crash mid-append leaves a torn frame at the tail.
    let mut wal = storage.raw_wal();
    wal.extend_from_slice(&[0x2a, 0x00, 0x00]);
    storage.set_wal_bytes(wal);

    let restored = restore_node(storage);
    assert_eq!(restored.log().first_undelivered(), 5);
    assert_eq!(restored.log().committed_count(), 5);
}

#[test]
fn cold_boot_on_empty_storage_is_not_a_recovery() {
    let restored = restore_node(Rc::new(MemStorage::new()));
    assert!(!restored.is_recovering());
    assert_eq!(restored.current_epoch(), 0);
    assert_eq!(restored.log().first_undelivered(), 0);
    assert_eq!(restored.log().total_delivered(), 0);
}
