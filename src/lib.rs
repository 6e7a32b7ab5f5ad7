//! # ISS — Insanely Scalable State-machine replication
//!
//! A from-scratch Rust reproduction of *"State-Machine Replication
//! Scalability Made Simple"* (Stathakopoulou, Pavlovic, Vukolić,
//! EuroSys 2022): a generic construction that turns leader-driven total-order
//! broadcast protocols (PBFT, HotStuff, Raft) into scalable multi-leader ones
//! by multiplexing finite **Sequenced Broadcast** instances over disjoint
//! segments of a single log, with bucketed request-space partitioning to
//! prevent duplication and censoring.
//!
//! This facade crate re-exports the public API of the workspace:
//!
//! | module | contents |
//! |---|---|
//! | [`types`] | identifiers, requests, batches, configuration (Table 1 presets) |
//! | [`crypto`] | SHA-256, signatures, Merkle trees, threshold signatures |
//! | [`messages`] | every wire message and the binary codec |
//! | [`sb`] | the Sequenced Broadcast abstraction and its reference implementation |
//! | [`pbft`], [`hotstuff`], [`raft`] | the three ordering protocols as SB instances |
//! | [`core`] | the ISS framework: epochs, segments, buckets, leader policies, checkpointing, and the single-leader and Mir-BFT-style baseline modes |
//! | [`client`], [`workload`] | client-side logic and load generation / metrics |
//! | [`runtime`] | the sans-IO process model every engine drives (events in, actions out) |
//! | [`simnet`], [`sim`] | the discrete-event WAN simulator and the experiment harness |
//! | [`net`] | the threaded TCP runtime: the same nodes over real sockets |
//! | [`storage`] | the durable WAL + snapshot store the TCP nodes mount |
//!
//! ## Quick start
//!
//! Experiments are described by the composable **Scenario API** —
//! `Scenario = Protocol stack × Workload × Topology × FaultPlan ×
//! RunWindow` — so new experiment shapes are data, not new code paths:
//!
//! ```
//! use iss::sim::{Protocol, Scenario};
//! use iss::types::Duration;
//!
//! // A 4-node ISS-PBFT deployment on the simulated 16-datacenter WAN,
//! // 4 open-loop clients offering 400 requests/s, run for 10 simulated
//! // seconds.
//! let report = Scenario::builder(Protocol::Pbft, 4)
//!     .open_loop(4, 400.0)
//!     .duration(Duration::from_secs(10))
//!     .warmup(Duration::from_secs(2))
//!     .build()
//!     .run();
//! assert!(report.delivered > 0);
//! ```
//!
//! ## The runtime boundary
//!
//! A replica is a *pure event handler* behind the sans-IO boundary defined
//! in [`runtime`]: events go in (`Start`, `Message`, `Timer`), an action
//! list comes out (`Send`, `SetTimer`), and nothing inside the handler
//! touches a socket or a clock. Every engine drives the same unmodified
//! protocol code — [`simnet`] in virtual time, [`net`] over real TCP on the
//! wall clock — which is what makes simulator results transfer to the
//! socket deployment (see `docs/architecture.md` and the trace-equivalence
//! suite):
//!
//! ```
//! use iss::runtime::{Action, Addr, Context, Driver, Event, Payload, Process, SansIo};
//! use iss::types::{NodeId, Time};
//!
//! #[derive(Clone, Debug, PartialEq)]
//! struct Ping(u32);
//! impl Payload for Ping {
//!     fn wire_size(&self) -> usize {
//!         4
//!     }
//! }
//!
//! struct Echo;
//! impl Process<Ping> for Echo {
//!     fn on_start(&mut self, _ctx: &mut Context<'_, Ping>) {}
//!     fn on_message(&mut self, from: Addr, msg: Ping, ctx: &mut Context<'_, Ping>) {
//!         ctx.send(from, Ping(msg.0 + 1));
//!     }
//!     fn on_timer(&mut self, _id: iss::types::TimerId, _kind: u64, _ctx: &mut Context<'_, Ping>) {}
//! }
//!
//! // The standalone driver executes one invocation and hands the emitted
//! // actions back; the simulator and the TCP runtime route them instead.
//! let mut driver: SansIo<Ping> = SansIo::new(1);
//! driver.mount(Addr::Node(NodeId(0)), Box::new(Echo));
//! let actions = driver.handle(
//!     Time::ZERO,
//!     Event::Message { from: Addr::Node(NodeId(7)), msg: Ping(41) },
//! );
//! assert_eq!(
//!     actions,
//!     vec![Action::Send { to: Addr::Node(NodeId(7)), msg: Ping(42) }]
//! );
//! ```
//!
//! ### Running it over real sockets
//!
//! The same node code runs as an actual ordering service:
//!
//! ```sh
//! cargo run --release --example ordering_service -- --tcp
//! ```
//!
//! boots 4 ISS-PBFT replicas on 127.0.0.1 — length-prefixed frames over
//! `std::net::TcpStream`, one reader thread per peer funneling into a
//! single protocol thread per node, and a file write-ahead log each (one
//! `write_all` per record, never synced: it survives the process, not the
//! machine — see ROADMAP.md, storage item) — then loads them with open-loop clients on the wall clock and
//! checks every delivery online for agreement and no duplication, with the
//! same [`core::DeliveryChecker`] the simulator's metrics sink uses.
//! [`net::TcpCluster`] is the embeddable form of the same harness; the
//! `iss-net` loopback test `killed_node_recovers_from_its_wal_on_restart`
//! additionally kills a replica under load and requires WAL-replay recovery
//! and rejoin.
//!
//! Beyond the paper's uniform open loop, `iss::workload` provides bursty
//! on/off traffic, linearly ramping load and Zipf-skewed per-client rates
//! (plus payload-size distributions), and the scenario's `FaultPlan`
//! unifies crashes, Byzantine stragglers, healing partitions and
//! lossy-link windows; see `iss::sim::scenario` for the full surface.

pub use iss_client as client;
pub use iss_core as core;
pub use iss_crypto as crypto;
pub use iss_hotstuff as hotstuff;
pub use iss_messages as messages;
pub use iss_net as net;
pub use iss_pbft as pbft;
pub use iss_raft as raft;
pub use iss_runtime as runtime;
pub use iss_sb as sb;
pub use iss_sim as sim;
pub use iss_simnet as simnet;
pub use iss_storage as storage;
pub use iss_types as types;
pub use iss_workload as workload;
