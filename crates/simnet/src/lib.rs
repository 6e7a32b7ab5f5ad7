//! Deterministic discrete-event network and CPU simulator.
//!
//! This crate is the substitute for the paper's physical testbed (a WAN of
//! 16 IBM-Cloud datacenters with 1 Gbps interfaces and 32-vCPU machines, see
//! `docs/threat-model.md#simplifications`). It simulates:
//!
//! * **virtual time** — a global event queue ordered by [`iss_types::Time`];
//! * **WAN latency** — a 16-datacenter round-trip-time matrix
//!   ([`topology`]);
//! * **bandwidth** — per-node, per-interface (client-facing "public" and
//!   node-facing "private") serialization delay at a configurable line rate
//!   ([`bandwidth`]);
//! * **CPU** — a per-node processing-cost model that serializes message
//!   handling ([`cpu`]);
//! * **faults** — crash schedules, network partitions and probabilistic
//!   message drops before GST ([`fault`]).
//!
//! Protocol code is written against the [`iss_runtime::Process`] /
//! [`iss_runtime::Context`] interface and is completely unaware of whether it
//! runs on the simulator or on a real transport.
//!
//! # Engine design
//!
//! Every paper figure is produced by millions of simulated events, so the
//! engine hot path (pop event → dispatch → invoke handler → apply actions)
//! is built to be allocation-free and hash-free:
//!
//! * **Timing-wheel event queue** ([`event::EventQueue`]). Three tiers,
//!   consulted in order: the *cursor slot* (its sorted keys drained from
//!   the back, beside a binary heap that takes every push at or before the
//!   cursor slot, so a broadcast's same-slot follow-ups cost a heap push
//!   each), a *near wheel* of [`event::WHEEL_SLOTS`] unsorted
//!   2^[`event::SLOT_BITS`] µs buckets (about four seconds of virtual time)
//!   with an occupancy bitmap, and a *sorted overflow* `BTreeSet` for
//!   everything beyond the window that cascades back in when the window
//!   re-anchors. The tiers order 24-byte `(time, seq, slot)` keys; payloads
//!   stay put in a slab from push to pop. Push and pop are O(1) amortized
//!   for the near-future events that dominate; the cached global minimum
//!   makes `peek_time` O(1). The pre-wheel `BinaryHeap` implementation
//!   survives in `tests/wheel_equivalence.rs`, as the oracle of the
//!   equivalence property tests.
//! * **Slab-indexed processes** ([`runtime::Runtime`]). Processes and their
//!   CPU state live in one dense `Vec` addressed through `NodeId`/`ClientId`
//!   → slot tables, so dispatching an event is two array indexes — no map
//!   lookups and no per-event remove/insert churn.
//! * **Timers are queue events and nothing else.** A timer fires once and
//!   nothing cancels it, so the runtime keeps no per-timer state: each
//!   process counts the timers its incarnation armed, and the count is the
//!   next [`iss_types::TimerId`]. The incarnation stamp on a timer event
//!   keeps a pre-crash timer out of the restarted process.
//! * **Reused action buffer.** Every callback writes its actions into one
//!   runtime-owned `Vec` that is drained and handed back, so steady-state
//!   invocations allocate nothing.
//!
//! # Determinism invariants
//!
//! * Events pop in strict `(time, sequence-number)` order; the sequence
//!   number increments per push, so same-time events fire in submission
//!   order. The timing wheel preserves this order bit-for-bit relative to
//!   the reference heap (asserted by a randomized property test).
//! * All randomness (jitter, probabilistic loss, process RNG) comes from one
//!   seeded generator owned by the runtime; identical configuration + seed ⇒
//!   identical schedules.
//! * Virtual time never runs backwards: handlers only schedule at
//!   `now + delay` with `delay ≥ 0`.

pub mod bandwidth;
pub mod cpu;
pub mod event;
pub mod fault;
pub mod runtime;
pub mod topology;

pub use bandwidth::BandwidthConfig;
pub use cpu::CpuModel;
pub use event::EventQueue;
pub use fault::{CrashSchedule, FaultConfig, LossWindow, Partition};
pub use runtime::{Runtime, RuntimeConfig, RuntimeStats};
pub use topology::{Datacenter, Topology};
