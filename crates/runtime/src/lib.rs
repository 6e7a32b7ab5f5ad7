//! The engine-agnostic runtime boundary: a node is a pure event handler.
//!
//! Every participant of the system — replica or client —
//! implements [`process::Process`]: three callbacks (`on_start`,
//! `on_message`, `on_timer`) that interact with the world exclusively by
//! buffering explicit [`process::Action`]s (sends, timer arms) through a
//! [`process::Context`]. Nothing in this crate performs I/O, reads clocks or
//! touches sockets; the *driver* hosting a process decides what the actions
//! mean:
//!
//! * `iss-simnet`'s `Runtime` interprets them against a simulated WAN
//!   (latency matrix, bandwidth, CPU model, fault injection) in virtual
//!   time — the engine behind every figure of the paper reproduction;
//! * `iss-net`'s `TcpRuntime` interprets them against real localhost/LAN
//!   sockets in wall-clock time, with `FileStorage` underneath;
//! * [`driver::SansIo`] interprets them not at all: it hands them back to
//!   the caller, which is what tests use to replay a recorded message trace
//!   through a node standalone and diff its decisions action for action
//!   ([`trace`]).
//!
//! A timer is armed once and fires once. Its handle numbers it among the
//! timers its process incarnation armed, so a driver keeps no per-timer
//! state and every driver hands a process the same handles.
//!
//! Because the handler is a pure function of `(state, event)` — the only
//! ambient inputs are the context's `now` and its seeded RNG, both supplied
//! by the driver — the same protocol bytes produce the same decisions under
//! every driver. That equivalence is asserted, not assumed: see
//! `crates/sim/tests/trace_equivalence.rs`.

pub mod driver;
pub mod process;
pub mod trace;

pub use driver::{Event, SansIo};
pub use process::{Action, Addr, Context, Payload, Process};
pub use trace::{replay_trace, TraceEntry, TraceRecorder, TraceSink};
