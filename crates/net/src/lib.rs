//! Threaded TCP runtime: the second engine behind the sans-IO runtime
//! boundary.
//!
//! `iss-runtime` defines the engine-agnostic process model — events in,
//! [`iss_runtime::Action`]s out. The discrete-event simulator (`iss-simnet`)
//! drives that model in virtual time; this crate drives the *same unmodified
//! protocol code* over real `std::net` sockets on the wall clock:
//!
//! * [`frame`] — length-prefixed frames and the hello that opens every
//!   connection, with message bodies encoded by [`iss_messages::wire`];
//!   many frames to a write, many frames from a read;
//! * [`runtime`] — [`runtime::TcpRuntime`], hosting one process on one OS
//!   thread: it executes handler callbacks serially against a
//!   [`iss_runtime::SansIo`] driver (so the process still sees a
//!   deterministic, single-threaded world), waits in `ppoll(2)` on every
//!   socket at once (a replica's client connections only once a 5 ms
//!   intake period has passed since it last read one), handles every frame
//!   a read completed, writes each
//!   destination's frames with one nonblocking `write` per burst, and
//!   redials a lost peer with backoff (each connect on a short-lived helper
//!   thread, since `std` cannot connect without blocking);
//! * [`cluster`] — [`cluster::TcpCluster`], lowering a simulator
//!   [`iss_sim::Scenario`] onto localhost: the simulator's own replicas,
//!   clients and metrics, with per-node durable
//!   [`iss_storage::FileStorage`], its crashes as node kills and restarts
//!   on the wall clock, and the same [`iss_sim::Report`] at the end.
//!
//! What the sockets add over the simulator — and what they cost — is
//! documented in `docs/architecture.md` (runtime boundary section): real
//! kernel scheduling, real file writes (page-cache `write_all`s — nothing
//! calls `sync_data` yet, see ROADMAP.md's storage item) and real connection
//! failure, in exchange for determinism and virtual-time control.

pub mod cluster;
pub mod frame;
pub mod runtime;

pub use cluster::{CommitLog, TcpCluster};
pub use runtime::{peer_table, PeerTable, ProcessBuilder, TcpConfig, TcpHandle, TcpRuntime};
