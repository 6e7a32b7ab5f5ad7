//! The delivery checker: agreement and no duplication of the one global log,
//! checked online at every delivery, whichever engine drives the nodes.
//!
//! Every node reports each delivered request to its
//! [`DeliverySink`](crate::DeliverySink) together with the request's global
//! request sequence number of Equation 2 (its *position*). A sink that sees
//! the deliveries of all n nodes — the simulator's metrics sink, the TCP
//! cluster's shared log — hands each one to a [`DeliveryChecker`], which
//! checks three invariants:
//!
//! 1. *Agreement* — every node delivers the same request at a position: the
//!    first delivery at a position records the request's id there, and every
//!    later delivery at it must match.
//! 2. *No duplication in the log* — a request occupies one position at most:
//!    each client's timestamps are set in a [`BitWindow`] when a position is
//!    first assigned to them, and a request whose timestamp is set already
//!    is a violation.
//! 3. *No re-delivery* — a node delivers each position at most once: each
//!    node keeps a [`BitWindow`] of the positions it delivered, which catches
//!    a position delivered again after a crash-restart from durable storage.
//!    Nodes may report positions in any order (the check assumes no
//!    reporting order) and may skip positions (a snapshot install).
//!
//! Together these imply the per-node property *a node never delivers the
//! same request twice*: if node `k` delivered request `r` at positions `p`
//! and `q`, then `p = q` is caught by (3), and for `p ≠ q` agreement (1)
//! says both positions hold `r`, which (2) rejects.
//!
//! # Bounded state
//!
//! The position table keeps only the positions at or above the *settled
//! cut*: the minimum over all n nodes of their delivered-position window's
//! [`BitWindow::base`]. Every node has delivered each position below the cut
//! and compared it against the table, so the table can tell nothing more
//! about those positions: a later delivery there is a re-delivery, which
//! the node's own window rejects. Dropping them is therefore exact. The cut
//! moves in amortised O(1) per delivery: the checker counts the nodes whose
//! base sits at the cut and takes the minimum over all nodes again only when
//! the last of them moves on — at most once per cut position, and every
//! node delivered each of those positions.
//!
//! A node that delivers nothing (crashed, partitioned away) or skips
//! positions (a snapshot install) pins the cut, and the table then grows by
//! 16 B per position for as long as it stays pinned. The client windows cost
//! one bit per timestamp above each client's lowest undelivered one.
//!
//! The checker never prints and returns a [`Violation`] instead of
//! panicking: the simulator panics on it, the TCP cluster records the first.

use iss_types::{BitWindow, ClientId, FxHashMap, NodeId, RequestId};
use std::collections::VecDeque;
use std::fmt;

/// Marks a table position no delivery has reached yet.
const UNASSIGNED: RequestId = RequestId {
    client: ClientId(u32::MAX),
    timestamp: u64::MAX,
};

/// A delivery that breaks the log's safety (see the module docs): `node`
/// delivered a request at global request sequence number `position`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// Request `delivered`, where an earlier delivery recorded `first`.
    Agreement {
        node: NodeId,
        position: u64,
        first: RequestId,
        delivered: RequestId,
    },
    /// Request `id`, which holds another position already.
    Duplicated {
        node: NodeId,
        position: u64,
        id: RequestId,
    },
    /// Request `id`, at a position the node delivered before.
    Redelivered {
        node: NodeId,
        position: u64,
        id: RequestId,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Agreement {
                node,
                position,
                first,
                delivered,
            } => write!(
                f,
                "agreement violation: node {node} delivered request {delivered:?} at global \
                 sequence number {position}, where request {first:?} was delivered first"
            ),
            Violation::Duplicated { node, position, id } => write!(
                f,
                "duplicate delivery: node {node} delivered request {id:?} at global sequence \
                 number {position}, but it holds another position already"
            ),
            Violation::Redelivered { node, position, id } => write!(
                f,
                "duplicate delivery: node {node} delivered global sequence number {position} \
                 (request {id:?}) twice"
            ),
        }
    }
}

/// One node's deliveries.
#[derive(Clone, Debug, Default)]
struct NodeDeliveries {
    positions: BitWindow,
    count: u64,
}

/// Checks every delivery of an n-node cluster against agreement and no
/// duplication, keeping state only above the settled cut (see the module
/// docs). The default checker has no nodes.
#[derive(Debug, Default)]
pub struct DeliveryChecker {
    /// Indexed by node id.
    nodes: Vec<NodeDeliveries>,
    /// Every node delivered every position below it.
    cut: u64,
    /// Nodes whose delivered-position window's base equals `cut`.
    at_cut: usize,
    /// The request recorded at position `cut + i`, or [`UNASSIGNED`].
    table: VecDeque<RequestId>,
    /// Per client: the timestamps assigned to a position.
    clients: FxHashMap<ClientId, BitWindow>,
}

impl DeliveryChecker {
    /// A checker for the nodes `0..num_nodes`.
    pub fn new(num_nodes: usize) -> Self {
        DeliveryChecker {
            nodes: vec![NodeDeliveries::default(); num_nodes],
            cut: 0,
            at_cut: num_nodes,
            table: VecDeque::new(),
            clients: FxHashMap::default(),
        }
    }

    /// Checks that `node` may deliver request `id` at global request
    /// sequence number `position`, and records the delivery if so. A
    /// delivery counts towards [`DeliveryChecker::delivered_at`] either way.
    ///
    /// # Panics
    ///
    /// If `node` is not one of the `num_nodes` the checker was built for.
    pub fn check(&mut self, node: NodeId, id: RequestId, position: u64) -> Result<(), Violation> {
        self.nodes[node.index()].count += 1;
        if position >= self.cut {
            let slot = (position - self.cut) as usize;
            if slot >= self.table.len() {
                self.table.resize(slot + 1, UNASSIGNED);
            }
            let first = self.table[slot];
            if first == UNASSIGNED {
                let window = self.clients.entry(id.client).or_default();
                if !window.insert(id.timestamp) {
                    return Err(Violation::Duplicated { node, position, id });
                }
                window.advance();
                self.table[slot] = id;
            } else if first != id {
                return Err(Violation::Agreement {
                    node,
                    position,
                    first,
                    delivered: id,
                });
            }
        }
        let positions = &mut self.nodes[node.index()].positions;
        if !positions.insert(position) {
            return Err(Violation::Redelivered { node, position, id });
        }
        let before = positions.base();
        let after = positions.advance();
        if before == self.cut && after > before {
            self.at_cut -= 1;
            if self.at_cut == 0 {
                self.settle();
            }
        }
        Ok(())
    }

    /// Requests delivered at `node` so far (0 for a node the checker does
    /// not know).
    pub fn delivered_at(&self, node: NodeId) -> u64 {
        self.nodes.get(node.index()).map_or(0, |n| n.count)
    }

    /// Moves the cut to the lowest base over all nodes once no node's base
    /// sits at the old cut, and drops the table positions below it.
    fn settle(&mut self) {
        let mut cut = u64::MAX;
        for base in self.nodes.iter().map(|n| n.positions.base()) {
            if base < cut {
                (cut, self.at_cut) = (base, 1);
            } else if base == cut {
                self.at_cut += 1;
            }
        }
        self.table.drain(..(cut - self.cut) as usize);
        self.cut = cut;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(client: u32, timestamp: u64) -> RequestId {
        RequestId::new(ClientId(client), timestamp)
    }

    /// Delivers `positions` at `node`, each `p` holding request `c0#p`,
    /// like the simulator does: a violation panics.
    fn deliver(checker: &mut DeliveryChecker, node: u32, positions: impl IntoIterator<Item = u64>) {
        for p in positions {
            if let Err(violation) = checker.check(NodeId(node), request(0, p), p) {
                panic!("{violation}");
            }
        }
    }

    #[test]
    fn lockstep_deliveries_keep_only_the_unsettled_window() {
        let mut checker = DeliveryChecker::new(4);
        let mut widest = 0;
        for position in 0..100_000u64 {
            let id = request((position % 16) as u32, position / 16);
            for node in 0..4 {
                assert_eq!(checker.check(NodeId(node), id, position), Ok(()));
                widest = widest.max(checker.table.len());
            }
        }
        assert_eq!(widest, 1, "only the position in flight is unsettled");
        assert!(checker.table.is_empty() && checker.cut == 100_000);
        assert_eq!(checker.delivered_at(NodeId(3)), 100_000);
        assert!(checker.clients.values().all(|w| w.base() == 100_000 / 16));
    }

    #[test]
    #[should_panic(expected = "duplicate delivery")]
    fn redelivering_a_settled_position_panics() {
        let mut checker = DeliveryChecker::new(2);
        deliver(&mut checker, 0, 0..200);
        deliver(&mut checker, 1, 0..200);
        assert_eq!(checker.cut, 200);
        deliver(&mut checker, 1, [50]);
    }

    #[test]
    fn a_silent_node_pins_the_cut_and_conflicts_above_it_are_caught() {
        let mut checker = DeliveryChecker::new(4);
        for node in 0..3 {
            deliver(&mut checker, node, 0..1000);
        }
        assert_eq!((checker.cut, checker.table.len()), (0, 1000));
        let conflict = checker.check(NodeId(3), request(2, 0), 5).unwrap_err();
        assert_eq!(
            conflict,
            Violation::Agreement {
                node: NodeId(3),
                position: 5,
                first: request(0, 5),
                delivered: request(2, 0),
            }
        );
        let text = conflict.to_string();
        assert!(text.starts_with("agreement violation"), "{text}");
        assert!(text.contains("number 5,") && text.contains("c0#5") && text.contains("c2#0"));
    }

    #[test]
    fn one_request_at_two_positions_on_two_nodes_is_caught_by_the_client_window() {
        let mut checker = DeliveryChecker::new(2);
        deliver(&mut checker, 0, [4]);
        let duplicate = checker.check(NodeId(1), request(0, 4), 5).unwrap_err();
        let (node, position, id) = (NodeId(1), 5, request(0, 4));
        assert_eq!(duplicate, Violation::Duplicated { node, position, id });
        assert!(duplicate.to_string().starts_with("duplicate delivery"));
    }

    #[test]
    fn a_snapshot_gap_pins_the_cut_and_stays_checked() {
        let mut checker = DeliveryChecker::new(2);
        deliver(&mut checker, 0, 0..300);
        // Node 1 delivered a prefix, installed a snapshot up to 200 and
        // continued from there: its base, and so the cut, stays at 10.
        deliver(&mut checker, 1, (0..10).chain(200..300));
        assert_eq!((checker.cut, checker.table.len()), (10, 290));
        // A skipped position stays checked: node 1 cannot fill it with a
        // different request later.
        let conflict = checker.check(NodeId(1), request(9, 0), 100);
        assert!(matches!(
            conflict,
            Err(Violation::Agreement { position: 100, .. })
        ));
        assert_eq!(checker.delivered_at(NodeId(1)), 111);
    }
}
