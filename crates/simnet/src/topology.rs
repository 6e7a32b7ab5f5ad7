//! WAN topology: datacenters and inter-datacenter latency.
//!
//! The paper deploys nodes across 16 IBM-Cloud datacenters spanning Europe,
//! America, Australia and Asia, with nodes distributed uniformly across the
//! datacenters (Section 6.1). [`Topology::wan16`] reproduces that layout with
//! a representative one-way latency matrix derived from public inter-region
//! measurements; [`Topology::lan`] and [`Topology::uniform`] are provided for
//! testing and micro-benchmarks.

use iss_runtime::Addr;
use iss_types::Duration;

/// A datacenter location.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Datacenter(pub usize);

/// Placement of nodes and clients onto datacenters plus the latency matrix.
#[derive(Clone, Debug)]
pub struct Topology {
    /// One-way latency between datacenter pairs, in microseconds.
    latency_us: Vec<Vec<u64>>,
    /// Jitter added on top of the base latency (uniform in `[0, jitter_us]`).
    pub jitter_us: u64,
    /// Human-readable datacenter names.
    pub names: Vec<&'static str>,
}

/// 16 datacenters spread over 4 continents (approximate one-way latencies in
/// milliseconds). Index order groups continents: Europe (0-5), North America
/// (6-10), Asia (11-13), Australia (14-15).
const WAN16_NAMES: [&str; 16] = [
    "fra", "lon", "ams", "par", "mil", "mad", // Europe
    "dal", "wdc", "sjc", "tor", "mon", // North America
    "tok", "osa", "sng", // Asia
    "syd", "mel", // Australia
];

/// Approximate one-way latency (ms) between continent groups.
fn continent(dc: usize) -> usize {
    match dc {
        0..=5 => 0,   // Europe
        6..=10 => 1,  // North America
        11..=13 => 2, // Asia
        _ => 3,       // Australia
    }
}

const INTER_CONTINENT_MS: [[u64; 4]; 4] = [
    // EU,   NA,   ASIA, AUS
    [12, 45, 120, 140], // EU
    [45, 20, 75, 90],   // NA
    [120, 75, 25, 55],  // ASIA
    [140, 90, 55, 10],  // AUS
];

impl Topology {
    /// The 16-datacenter WAN used in the paper's evaluation.
    pub fn wan16() -> Self {
        let n = 16;
        let mut latency_us = vec![vec![0u64; n]; n];
        for (i, row) in latency_us.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                if i == j {
                    *cell = 300; // intra-datacenter
                } else {
                    let base = INTER_CONTINENT_MS[continent(i)][continent(j)];
                    // Distinct datacenters within a continent differ slightly.
                    let intra = ((i as u64 * 7 + j as u64 * 13) % 5) * 500;
                    *cell = base * 1000 + intra;
                }
            }
        }
        Topology {
            latency_us,
            jitter_us: 2_000,
            names: WAN16_NAMES.to_vec(),
        }
    }

    /// A single-datacenter (LAN) topology with the given one-way latency.
    pub fn lan(latency: Duration) -> Self {
        Topology {
            latency_us: vec![vec![latency.as_micros()]],
            jitter_us: latency.as_micros() / 10,
            names: vec!["lan"],
        }
    }

    /// A topology with `num_dcs` datacenters and a uniform one-way latency
    /// between distinct datacenters.
    pub fn uniform(num_dcs: usize, latency: Duration) -> Self {
        let us = latency.as_micros();
        let mut latency_us = vec![vec![us; num_dcs]; num_dcs];
        for (i, row) in latency_us.iter_mut().enumerate() {
            row[i] = us / 10;
        }
        Topology {
            latency_us,
            jitter_us: us / 20,
            names: vec!["dc"; num_dcs],
        }
    }

    /// A topology from an explicit one-way latency matrix (µs).
    ///
    /// `latency_us[a][b]` is the one-way latency from datacenter `a` to
    /// datacenter `b`; the matrix must be square and non-empty. Participants
    /// are placed round-robin across the datacenters, as in the built-in
    /// topologies.
    pub fn custom(latency_us: Vec<Vec<u64>>, jitter_us: u64) -> Self {
        assert!(
            !latency_us.is_empty(),
            "custom topology needs >= 1 datacenter"
        );
        assert!(
            latency_us.iter().all(|row| row.len() == latency_us.len()),
            "custom latency matrix must be square"
        );
        let names = vec!["custom"; latency_us.len()];
        Topology {
            latency_us,
            jitter_us,
            names,
        }
    }

    /// Number of datacenters.
    pub fn num_datacenters(&self) -> usize {
        self.latency_us.len()
    }

    /// Datacenter hosting the given participant.
    ///
    /// As in the paper, nodes and clients are distributed uniformly (round
    /// robin) across all datacenters; the 4-node setup therefore spans 4
    /// datacenters on 4 different continents (indices 0, 6, 11, 14 hit
    /// Europe, North America, Asia and Australia in `wan16`).
    pub fn placement(&self, addr: Addr) -> Datacenter {
        let idx = match addr {
            Addr::Node(n) => n.index(),
            Addr::Client(c) => c.index().wrapping_add(7), // offset so clients spread differently
        };
        let n = self.num_datacenters();
        if n == 16 {
            // Spread consecutive indices across continents first for small
            // deployments: stride through the datacenter list.
            const ORDER: [usize; 16] = [0, 6, 11, 14, 1, 7, 12, 15, 2, 8, 13, 9, 3, 10, 4, 5];
            Datacenter(ORDER[idx % 16])
        } else {
            Datacenter(idx % n)
        }
    }

    /// Base one-way latency between two participants.
    pub fn latency(&self, from: Addr, to: Addr) -> Duration {
        let a = self.placement(from).0;
        let b = self.placement(to).0;
        Duration::from_micros(self.latency_us[a][b])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iss_types::{ClientId, NodeId};

    #[test]
    fn wan16_has_16_datacenters_and_symmetric_scale() {
        let t = Topology::wan16();
        assert_eq!(t.num_datacenters(), 16);
        // Europe-Europe is much cheaper than Europe-Australia.
        let eu_eu = Duration::from_micros(t.latency_us[0][1]);
        let eu_aus = Duration::from_micros(t.latency_us[0][14]);
        assert!(eu_eu < eu_aus);
        assert!(eu_aus >= Duration::from_millis(100));
    }

    #[test]
    fn placement_is_deterministic_and_spreads() {
        let t = Topology::wan16();
        let d0 = t.placement(Addr::Node(NodeId(0)));
        assert_eq!(d0, t.placement(Addr::Node(NodeId(0))));
        // First four nodes land on four different continents.
        let dcs: Vec<_> = (0..4)
            .map(|i| continent(t.placement(Addr::Node(NodeId(i))).0))
            .collect();
        let distinct: std::collections::HashSet<_> = dcs.iter().collect();
        assert_eq!(distinct.len(), 4);
    }

    #[test]
    fn latency_between_same_node_is_small() {
        let t = Topology::wan16();
        let l = t.latency(Addr::Node(NodeId(0)), Addr::Node(NodeId(16)));
        // Node 0 and node 16 map to the same datacenter (16 DCs, stride 16).
        assert!(l <= Duration::from_millis(1));
    }

    #[test]
    fn lan_and_uniform_topologies() {
        let lan = Topology::lan(Duration::from_micros(200));
        assert_eq!(lan.num_datacenters(), 1);
        assert_eq!(
            lan.latency(Addr::Node(NodeId(0)), Addr::Node(NodeId(1))),
            Duration::from_micros(200)
        );
        let uni = Topology::uniform(4, Duration::from_millis(50));
        assert_eq!(uni.num_datacenters(), 4);
        let cross = uni.latency(Addr::Node(NodeId(0)), Addr::Node(NodeId(1)));
        assert_eq!(cross, Duration::from_millis(50));
    }

    #[test]
    fn custom_matrix_topology() {
        // A 3-DC "dumbbell": DCs 0 and 1 are close, DC 2 is far from both.
        let t = Topology::custom(
            vec![
                vec![300, 1_000, 80_000],
                vec![1_000, 300, 80_000],
                vec![80_000, 80_000, 300],
            ],
            500,
        );
        assert_eq!(t.num_datacenters(), 3);
        // Nodes 0, 1, 2 land on DCs 0, 1, 2 (round robin).
        assert_eq!(
            t.latency(Addr::Node(NodeId(0)), Addr::Node(NodeId(1))),
            Duration::from_millis(1)
        );
        assert_eq!(
            t.latency(Addr::Node(NodeId(0)), Addr::Node(NodeId(2))),
            Duration::from_millis(80)
        );
        assert_eq!(t.jitter_us, 500);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn custom_matrix_must_be_square() {
        let _ = Topology::custom(vec![vec![1, 2], vec![3]], 0);
    }

    #[test]
    fn clients_get_placed_too() {
        let t = Topology::wan16();
        let d = t.placement(Addr::Client(ClientId(3)));
        assert!(d.0 < 16);
    }
}
