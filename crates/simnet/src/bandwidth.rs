//! Per-node bandwidth model.
//!
//! Each node has two rate-limited interfaces, as in the paper's testbed
//! (Section 6.1): a *public* interface for client traffic and a *private*
//! interface for node-to-node traffic, both limited to 1 Gbps. A message of
//! size `S` occupies the sender's outbound interface and the receiver's
//! inbound interface for `S / rate` each; transfers are serialized per
//! interface, which is exactly the single-leader bottleneck the paper's
//! multi-leader construction removes.

use iss_runtime::Addr;
use iss_types::{Duration, Time};

/// Bandwidth configuration.
#[derive(Clone, Copy, Debug)]
pub struct BandwidthConfig {
    /// Node-to-node ("private") interface rate in bytes per second.
    pub node_bytes_per_sec: f64,
    /// Client-facing ("public") interface rate in bytes per second.
    pub client_bytes_per_sec: f64,
    /// Fixed per-message overhead in bytes (framing, TCP/TLS headers).
    pub per_message_overhead: usize,
}

impl BandwidthConfig {
    /// The paper's configuration: both interfaces limited to 1 Gbps.
    pub fn gigabit() -> Self {
        BandwidthConfig {
            node_bytes_per_sec: 125_000_000.0,
            client_bytes_per_sec: 125_000_000.0,
            per_message_overhead: 80,
        }
    }

    /// An effectively unlimited configuration (useful for unit tests).
    pub fn unlimited() -> Self {
        BandwidthConfig {
            node_bytes_per_sec: 1e15,
            client_bytes_per_sec: 1e15,
            per_message_overhead: 0,
        }
    }

    /// Serialization delay of a `size`-byte message on the given interface.
    pub fn serialization_delay(&self, size: usize, client_interface: bool) -> Duration {
        let rate = if client_interface {
            self.client_bytes_per_sec
        } else {
            self.node_bytes_per_sec
        };
        let bytes = (size + self.per_message_overhead) as f64;
        Duration::from_secs_f64(bytes / rate)
    }
}

/// Which interface a transfer between two participants uses.
fn is_client_traffic(a: Addr, b: Addr) -> bool {
    !(a.is_node() && b.is_node())
}

/// Busy-until times of one participant's four logical interfaces, indexed by
/// `(is_client_interface, is_outbound)`.
type IfaceTimes = [Time; 4];

#[inline(always)]
fn iface_index(client_if: bool, outbound: bool) -> usize {
    (client_if as usize) | ((outbound as usize) << 1)
}

/// Tracks per-interface occupancy of every participant.
///
/// Storage is dense — one four-entry array per node/client id, grown on
/// demand — so the two lookups on every send are plain array indexing
/// instead of hash-map probes.
#[derive(Clone, Debug, Default)]
pub struct InterfaceState {
    nodes: Vec<IfaceTimes>,
    clients: Vec<IfaceTimes>,
}

impl InterfaceState {
    /// Creates an empty interface state.
    pub fn new() -> Self {
        Self::default()
    }

    /// The busy-until slot for one direction of one participant's interface.
    #[inline]
    fn slot(&mut self, addr: Addr, client_if: bool, outbound: bool) -> &mut Time {
        let (table, idx) = match addr {
            Addr::Node(n) => (&mut self.nodes, n.index()),
            Addr::Client(c) => (&mut self.clients, c.index()),
        };
        if idx >= table.len() {
            table.resize(idx + 1, [Time::ZERO; 4]);
        }
        &mut table[idx][iface_index(client_if, outbound)]
    }

    /// Schedules a transfer of `size` bytes from `from` to `to` starting no
    /// earlier than `now`, and returns the time at which the last byte leaves
    /// the sender (`sent_at`) and the serialization delay to add at the
    /// receiver side.
    pub fn schedule(
        &mut self,
        cfg: &BandwidthConfig,
        now: Time,
        from: Addr,
        to: Addr,
        size: usize,
    ) -> (Time, Duration) {
        let client_if = is_client_traffic(from, to);
        let ser = cfg.serialization_delay(size, client_if);

        // Outbound interface of the sender.
        let out_free = self.slot(from, client_if, true);
        let start = if *out_free > now { *out_free } else { now };
        let sent_at = start + ser;
        *out_free = sent_at;

        (sent_at, ser)
    }

    /// Serializes the arrival of `size` bytes at the receiver `to` that hit
    /// the wire at `arrival`; returns the time at which the message is fully
    /// received.
    pub fn receive(
        &mut self,
        cfg: &BandwidthConfig,
        arrival: Time,
        from: Addr,
        to: Addr,
        size: usize,
    ) -> Time {
        let client_if = is_client_traffic(from, to);
        let ser = cfg.serialization_delay(size, client_if);
        let in_free = self.slot(to, client_if, false);
        let start = if *in_free > arrival {
            *in_free
        } else {
            arrival
        };
        let done = start + ser;
        *in_free = done;
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iss_types::{ClientId, NodeId};

    #[test]
    fn serialization_delay_scales_with_size() {
        let cfg = BandwidthConfig::gigabit();
        let small = cfg.serialization_delay(1_000, false);
        let large = cfg.serialization_delay(1_000_000, false);
        assert!(large > small.saturating_mul(100));
        // 1 MB at 1 Gbps ≈ 8 ms.
        assert!(large >= Duration::from_millis(7) && large <= Duration::from_millis(10));
    }

    #[test]
    fn outbound_transfers_serialize() {
        let cfg = BandwidthConfig::gigabit();
        let mut state = InterfaceState::new();
        let from = Addr::Node(NodeId(0));
        let (sent1, _) = state.schedule(&cfg, Time::ZERO, from, Addr::Node(NodeId(1)), 1_000_000);
        let (sent2, _) = state.schedule(&cfg, Time::ZERO, from, Addr::Node(NodeId(2)), 1_000_000);
        assert!(sent2 > sent1, "second transfer must wait for the first");
        assert!(sent2.as_micros() >= 2 * sent1.as_micros() - 100);
    }

    #[test]
    fn client_and_node_interfaces_are_independent() {
        let cfg = BandwidthConfig::gigabit();
        let mut state = InterfaceState::new();
        let from = Addr::Node(NodeId(0));
        let (sent_node, _) =
            state.schedule(&cfg, Time::ZERO, from, Addr::Node(NodeId(1)), 1_000_000);
        let (sent_client, _) =
            state.schedule(&cfg, Time::ZERO, from, Addr::Client(ClientId(0)), 1_000_000);
        // Same start because the transfers use different interfaces.
        assert_eq!(sent_node, sent_client);
    }

    #[test]
    fn inbound_serialization_accumulates() {
        let cfg = BandwidthConfig::gigabit();
        let mut state = InterfaceState::new();
        let to = Addr::Node(NodeId(5));
        let done1 = state.receive(&cfg, Time::ZERO, Addr::Node(NodeId(0)), to, 1_000_000);
        let done2 = state.receive(&cfg, Time::ZERO, Addr::Node(NodeId(1)), to, 1_000_000);
        assert!(done2 > done1);
    }

    #[test]
    fn unlimited_config_is_effectively_instant() {
        let cfg = BandwidthConfig::unlimited();
        assert_eq!(cfg.serialization_delay(10_000_000, false), Duration::ZERO);
    }
}
