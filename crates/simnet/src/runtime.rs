//! The discrete-event simulation runtime.
//!
//! [`Runtime`] owns the registered processes, the event queue, the network
//! (topology + bandwidth), the CPU model and the fault configuration, and
//! advances virtual time by executing events in order. Runs are fully
//! deterministic for a given seed and configuration.
//!
//! The hot path is allocation- and hash-free: processes live in a dense slab
//! indexed directly by node/client id (no per-event map lookups or
//! remove/insert churn), callbacks buffer their actions in one reusable
//! per-runtime `Vec`, a timer is one queue event and a per-process count
//! (it fires once, so nothing else tracks it), and the fault/jitter RNG
//! draws in `Runtime::send` go through inlined samplers that produce the
//! same values as the generic `rand` paths they replace.

use crate::bandwidth::{BandwidthConfig, InterfaceState};
use crate::cpu::{CpuModel, CpuState};
use crate::event::{EventKind, EventQueue};
use crate::fault::FaultConfig;
use crate::topology::Topology;
use iss_runtime::{Action, Addr, Context, Event, Payload, Process, TraceSink};
use iss_types::{Duration, Time};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Static configuration of a simulation run.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Datacenter placement and latency.
    pub topology: Topology,
    /// Interface bandwidth.
    pub bandwidth: BandwidthConfig,
    /// CPU cost model applied to node (not client) message handling.
    pub cpu: CpuModel,
    /// Fault injection.
    pub faults: FaultConfig,
    /// RNG seed; two runs with identical configuration and seed produce
    /// identical schedules.
    pub seed: u64,
}

impl RuntimeConfig {
    /// The paper's testbed: 16-datacenter WAN, 1 Gbps interfaces, 32-core
    /// nodes, no faults.
    pub fn testbed() -> Self {
        RuntimeConfig {
            topology: Topology::wan16(),
            bandwidth: BandwidthConfig::gigabit(),
            cpu: CpuModel::testbed(),
            faults: FaultConfig::none(),
            seed: 42,
        }
    }

    /// A fast, idealized configuration for unit tests: single datacenter,
    /// unlimited bandwidth, free CPU.
    pub fn ideal() -> Self {
        RuntimeConfig {
            topology: Topology::lan(Duration::from_micros(100)),
            bandwidth: BandwidthConfig::unlimited(),
            cpu: CpuModel::free(),
            faults: FaultConfig::none(),
            seed: 7,
        }
    }
}

/// Counters maintained by the runtime.
#[derive(Clone, Copy, Debug, Default)]
pub struct RuntimeStats {
    /// Messages accepted for transmission.
    pub messages_sent: u64,
    /// Bytes accepted for transmission (wire sizes).
    pub bytes_sent: u64,
    /// Messages dropped by crashes, partitions or loss windows.
    pub messages_dropped: u64,
}

/// One registered participant: its state machine and (for nodes) its CPU
/// occupancy.
struct ProcEntry<M: Payload> {
    process: Box<dyn Process<M>>,
    cpu: Option<CpuState>,
    /// Total CPU time charged to this process (message handling costs).
    busy: Duration,
    /// Bumped on every crash-restart replacement; timers armed by an older
    /// incarnation fail the stamp comparison and are dropped.
    incarnation: u32,
    /// Timers this incarnation armed so far: the next timer's handle.
    next_timer: u64,
}

/// Sentinel in the id → slot tables for "no process registered".
const NO_SLOT: u32 = u32::MAX;

/// Deferred constructor for a crash-restart replacement process.
type ProcessBuilder<M> = Box<dyn FnOnce() -> Box<dyn Process<M>>>;

/// Uniform draw from `[0, 1)` — inlined replica of the vendored
/// `rng.gen::<f64>()` (53-bit mantissa), so the drop-sampling stream is
/// bit-identical to the generic path it replaces.
#[inline(always)]
fn sample_unit(rng: &mut StdRng) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Uniform draw from `0..=max_us` — inlined replica of the vendored
/// `rng.gen_range(0..=max_us)` widening-multiply reduction.
#[inline(always)]
fn sample_jitter_us(rng: &mut StdRng, max_us: u64) -> u64 {
    ((rng.next_u64() as u128 * (max_us as u128 + 1)) >> 64) as u64
}

/// The discrete-event simulator.
pub struct Runtime<M: Payload> {
    config: RuntimeConfig,
    /// Dense process storage; never shrinks.
    procs: Vec<ProcEntry<M>>,
    /// NodeId index → slot in `procs` (NO_SLOT when unregistered).
    node_slots: Vec<u32>,
    /// ClientId index → slot in `procs` (NO_SLOT when unregistered).
    client_slots: Vec<u32>,
    queue: EventQueue<M>,
    interfaces: InterfaceState,
    /// Reusable action buffer handed to every `Context` (empty between
    /// invocations).
    action_buf: Vec<Action<M>>,
    /// Replacement processes for scheduled crash-restarts, consumed when the
    /// matching [`EventKind::Restart`] event fires.
    pending_restarts: Vec<(Addr, ProcessBuilder<M>)>,
    now: Time,
    rng: StdRng,
    stats: RuntimeStats,
    started: bool,
    /// Telemetry handles attached per address ([`Runtime::attach_telemetry`]):
    /// the CPU cost charged for each delivered message is also attributed to
    /// the address's handle, split by [`iss_types::MsgClass`]. Empty by
    /// default — unattached runs pay one `is_empty` branch per delivery.
    telemetry: Vec<(Addr, iss_telemetry::TelemetryHandle)>,
    /// Invocation trace hook for one address ([`Runtime::record_trace`]).
    /// `None` by default: untraced runs pay a single branch per invocation
    /// and stay byte-identical to builds without the hook.
    trace: Option<(Addr, Box<dyn TraceSink<M>>)>,
    // Hoisted fault/jitter configuration so the per-event and per-send hot
    // paths skip the config traversals when (as in most runs) there is
    // nothing to sample.
    crash_faults: bool,
    drop_faults: bool,
    lossy_faults: bool,
    jitter_us: u64,
}

impl<M: Payload> Runtime<M> {
    /// Creates a runtime with the given configuration.
    pub fn new(config: RuntimeConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.seed);
        let crash_faults = !config.faults.crashes.is_empty();
        let drop_faults = crash_faults || !config.faults.partitions.is_empty();
        let lossy_faults = !config.faults.loss_windows.is_empty();
        let jitter_us = config.topology.jitter_us;
        Runtime {
            config,
            procs: Vec::new(),
            node_slots: Vec::new(),
            client_slots: Vec::new(),
            queue: EventQueue::new(),
            interfaces: InterfaceState::new(),
            action_buf: Vec::new(),
            pending_restarts: Vec::new(),
            now: Time::ZERO,
            rng,
            stats: RuntimeStats::default(),
            started: false,
            telemetry: Vec::new(),
            trace: None,
            crash_faults,
            drop_faults,
            lossy_faults,
            jitter_us,
        }
    }

    /// Registers a process under the given address. Node addresses get a CPU
    /// governed by the configured cost model; clients are assumed to have
    /// ample CPU.
    pub fn add_process(&mut self, addr: Addr, process: Box<dyn Process<M>>) {
        let cpu = addr.as_node().map(|_| CpuState::new(self.config.cpu.cores));
        let (table, idx) = match addr {
            Addr::Node(n) => (&mut self.node_slots, n.index()),
            Addr::Client(c) => (&mut self.client_slots, c.index()),
        };
        if idx >= table.len() {
            table.resize(idx + 1, NO_SLOT);
        }
        if table[idx] == NO_SLOT {
            table[idx] = self.procs.len() as u32;
            self.procs.push(ProcEntry {
                process,
                cpu,
                busy: Duration::ZERO,
                incarnation: 0,
                next_timer: 0,
            });
        } else {
            // Re-registration replaces the process (and resets its CPU).
            let entry = &mut self.procs[table[idx] as usize];
            entry.process = process;
            entry.cpu = cpu;
            entry.busy = Duration::ZERO;
        }
        self.queue.push(Time::ZERO, EventKind::Start { addr });
    }

    /// Schedules the process at `addr` to be replaced at virtual time `at` by
    /// a process built on the spot by `builder`, modelling a crash-restart:
    /// the old in-memory state is discarded, the CPU is reset, the process
    /// incarnation is bumped (so timers armed before the crash cannot fire
    /// into the new life), and the replacement's `on_start` runs at `at`.
    ///
    /// The builder runs at restart time, so handles it captures (e.g. an
    /// `Rc<dyn Storage>` shared with the crashed instance) observe everything
    /// the old incarnation persisted before going down. Pair with
    /// [`crate::fault::CrashSchedule::crash_restart`] so the network treats
    /// the node as dead during the same downtime interval.
    pub fn schedule_restart<F>(&mut self, addr: Addr, at: Time, builder: F)
    where
        F: FnOnce() -> Box<dyn Process<M>> + 'static,
    {
        assert!(
            self.slot_of(addr).is_some(),
            "cannot schedule a restart for an unregistered process"
        );
        self.pending_restarts.push((addr, Box::new(builder)));
        self.queue.push(at, EventKind::Restart { addr });
    }

    /// Slot of the process registered under `addr`, if any.
    #[inline]
    fn slot_of(&self, addr: Addr) -> Option<usize> {
        let (table, idx) = match addr {
            Addr::Node(n) => (&self.node_slots, n.index()),
            Addr::Client(c) => (&self.client_slots, c.index()),
        };
        match table.get(idx) {
            Some(&slot) if slot != NO_SLOT => Some(slot as usize),
            _ => None,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Runtime statistics so far.
    pub fn stats(&self) -> RuntimeStats {
        self.stats
    }

    /// Total CPU time charged to the process at `addr` so far (zero for
    /// unregistered or CPU-less processes).
    pub fn busy_time(&self, addr: Addr) -> Duration {
        self.slot_of(addr)
            .map(|slot| self.procs[slot].busy)
            .unwrap_or(Duration::ZERO)
    }

    /// Installs an invocation trace for the process at `addr`: every
    /// callback invoked on it from now on is reported to `sink`, with its
    /// event and the actions it emitted (see [`iss_runtime::trace`]). One
    /// address at a time; installing a new sink replaces the old one. Used
    /// by the trace-equivalence suite to record a node's inbound events and
    /// outbound decisions for standalone replay.
    pub fn record_trace(&mut self, addr: Addr, sink: Box<dyn TraceSink<M>>) {
        self.trace = Some((addr, sink));
    }

    /// Attaches a telemetry handle to the process at `addr`: the CPU cost
    /// charged for each message delivered to it is also attributed to the
    /// handle, split by the message's [`iss_types::MsgClass`]. Attribution
    /// is pure bookkeeping — it never touches the RNG or the event queue, so
    /// attaching telemetry cannot perturb a run. Attaching a second handle
    /// to the same address replaces the first.
    pub fn attach_telemetry(&mut self, addr: Addr, handle: iss_telemetry::TelemetryHandle) {
        if let Some(slot) = self.telemetry.iter_mut().find(|(a, _)| *a == addr) {
            slot.1 = handle;
        } else {
            self.telemetry.push((addr, handle));
        }
    }

    /// Runs the simulation until virtual time `until` (inclusive) or until no
    /// events remain, whichever comes first. Returns the number of events
    /// processed by this call.
    pub fn run_until(&mut self, until: Time) -> u64 {
        self.started = true;
        let mut processed = 0u64;
        while let Some(at) = self.queue.peek_time() {
            if at > until {
                break;
            }
            let event = self.queue.pop().expect("peeked event exists");
            self.now = event.at;
            self.dispatch(event.kind);
            processed += 1;
        }
        if self.now < until {
            self.now = until;
        }
        processed
    }

    fn dispatch(&mut self, kind: EventKind<M>) {
        match kind {
            EventKind::Start { addr } => {
                self.invoke(addr, Event::Start);
            }
            EventKind::Deliver {
                from,
                to,
                msg,
                size,
            } => {
                // Receiver may have crashed while the message was in flight.
                if self.addr_crashed(to) {
                    self.stats.messages_dropped += 1;
                    return;
                }
                // Charge the receiver's CPU; if it is busy, defer the invocation.
                let completion = match self.slot_of(to) {
                    Some(slot) => {
                        let entry = &mut self.procs[slot];
                        match entry.cpu.as_mut() {
                            Some(cpu) => {
                                let cost = self.config.cpu.message_cost(msg.num_requests(), size);
                                entry.busy += cost;
                                if !self.telemetry.is_empty() {
                                    if let Some((_, h)) =
                                        self.telemetry.iter().find(|(a, _)| *a == to)
                                    {
                                        h.cpu_charge(msg.class(), cost.as_micros());
                                    }
                                }
                                cpu.schedule(self.now, cost)
                            }
                            None => self.now,
                        }
                    }
                    None => self.now,
                };
                if completion > self.now {
                    self.queue
                        .push(completion, EventKind::Invoke { from, to, msg });
                } else {
                    self.invoke(to, Event::Message { from, msg });
                }
            }
            EventKind::Invoke { from, to, msg } => {
                if self.addr_crashed(to) {
                    self.stats.messages_dropped += 1;
                    return;
                }
                self.invoke(to, Event::Message { from, msg });
            }
            EventKind::Timer {
                addr,
                id,
                kind,
                incarnation,
            } => {
                if self.addr_crashed(addr) {
                    return;
                }
                // A timer armed before a crash must not fire into the
                // restarted incarnation.
                if self
                    .slot_of(addr)
                    .is_some_and(|slot| self.procs[slot].incarnation != incarnation)
                {
                    return;
                }
                self.invoke(addr, Event::Timer { id, kind });
            }
            EventKind::Restart { addr } => {
                let Some(pos) = self.pending_restarts.iter().position(|(a, _)| *a == addr) else {
                    return;
                };
                let (_, builder) = self.pending_restarts.remove(pos);
                let slot = self.slot_of(addr).expect("restart target is registered");
                let entry = &mut self.procs[slot];
                entry.process = builder();
                entry.cpu = addr.as_node().map(|_| CpuState::new(self.config.cpu.cores));
                entry.incarnation += 1;
                entry.next_timer = 0;
                self.invoke(addr, Event::Start);
            }
        }
    }

    #[inline]
    fn addr_crashed(&self, addr: Addr) -> bool {
        self.crash_faults
            && addr
                .as_node()
                .is_some_and(|n| self.config.faults.crashes.is_crashed(n, self.now))
    }

    fn invoke(&mut self, addr: Addr, event: Event<M>) {
        if self.addr_crashed(addr) {
            return;
        }
        let Some(slot) = self.slot_of(addr) else {
            return;
        };
        // The callback consumes the event, so a traced one is cloned first.
        let traced = match &self.trace {
            Some((a, _)) if *a == addr => Some(event.clone()),
            _ => None,
        };
        // Take the reusable buffer for the duration of the callback; the
        // process stays in place (disjoint field borrows), so there is no
        // per-event remove/insert churn.
        let mut actions = std::mem::take(&mut self.action_buf);
        {
            let entry = &mut self.procs[slot];
            let mut ctx = Context::new(
                self.now,
                addr,
                &mut entry.next_timer,
                &mut actions,
                &mut self.rng,
            );
            match event {
                Event::Start => entry.process.on_start(&mut ctx),
                Event::Message { from, msg } => entry.process.on_message(from, msg, &mut ctx),
                Event::Timer { id, kind } => entry.process.on_timer(id, kind, &mut ctx),
            }
        }
        if let (Some(event), Some((_, sink))) = (traced, self.trace.as_mut()) {
            sink.record(self.now, event, &actions);
        }
        self.apply_actions(addr, &mut actions);
        debug_assert!(actions.is_empty());
        self.action_buf = actions;
    }

    fn apply_actions(&mut self, source: Addr, actions: &mut Vec<Action<M>>) {
        let incarnation = self
            .slot_of(source)
            .map(|slot| self.procs[slot].incarnation)
            .unwrap_or(0);
        for action in actions.drain(..) {
            match action {
                Action::Send { to, msg } => self.send(source, to, msg),
                Action::SetTimer { id, delay, kind } => {
                    self.queue.push(
                        self.now + delay,
                        EventKind::Timer {
                            addr: source,
                            id,
                            kind,
                            incarnation,
                        },
                    );
                }
            }
        }
    }

    fn send(&mut self, from: Addr, to: Addr, msg: M) {
        // Deterministic drops: crashes and partitions.
        if self.drop_faults && self.config.faults.drops(from, to, self.now) {
            self.stats.messages_dropped += 1;
            return;
        }
        // Probabilistic loss: a scheduled loss window.
        // The RNG is only drawn while loss is actually in force, so runs
        // whose loss schedule never activates keep a bit-identical
        // jitter/drop stream to a loss-free configuration.
        if self.lossy_faults
            && self.config.faults.lossy_at(self.now)
            && sample_unit(&mut self.rng) < self.config.faults.drop_probability(self.now)
        {
            self.stats.messages_dropped += 1;
            return;
        }
        let size = msg.wire_size();
        self.stats.messages_sent += 1;
        self.stats.bytes_sent += size as u64;

        // Local delivery skips the network: a process sending to itself
        // touches neither the NIC, the topology latency nor the jitter draw.
        if from == to {
            self.queue.push(
                self.now,
                EventKind::Deliver {
                    from,
                    to,
                    msg,
                    size,
                },
            );
            return;
        }

        let (sent_at, _) =
            self.interfaces
                .schedule(&self.config.bandwidth, self.now, from, to, size);
        let base_latency = self.config.topology.latency(from, to);
        let jitter = if self.jitter_us > 0 {
            Duration::from_micros(sample_jitter_us(&mut self.rng, self.jitter_us))
        } else {
            Duration::ZERO
        };
        let arrival = self.interfaces.receive(
            &self.config.bandwidth,
            sent_at + base_latency + jitter,
            from,
            to,
            size,
        );
        self.queue.push(
            arrival,
            EventKind::Deliver {
                from,
                to,
                msg,
                size,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::CrashSchedule;
    use iss_types::{NodeId, TimerId};
    use rand::Rng;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[derive(Clone, Debug)]
    struct Ping {
        hops: u32,
        size: usize,
    }
    impl Payload for Ping {
        fn wire_size(&self) -> usize {
            self.size
        }
    }

    /// A process that forwards a ping around a ring a fixed number of times.
    struct RingNode {
        id: NodeId,
        n: u32,
        max_hops: u32,
        log: Rc<RefCell<Vec<(Time, NodeId, u32)>>>,
    }

    impl Process<Ping> for RingNode {
        fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
            if self.id == NodeId(0) {
                ctx.send(Addr::Node(NodeId(1 % self.n)), Ping { hops: 1, size: 100 });
            }
        }
        fn on_message(&mut self, _from: Addr, msg: Ping, ctx: &mut Context<'_, Ping>) {
            self.log.borrow_mut().push((ctx.now(), self.id, msg.hops));
            if msg.hops < self.max_hops {
                let next = NodeId((self.id.0 + 1) % self.n);
                ctx.send(
                    Addr::Node(next),
                    Ping {
                        hops: msg.hops + 1,
                        size: msg.size,
                    },
                );
            }
        }
        fn on_timer(&mut self, _id: TimerId, _kind: u64, _ctx: &mut Context<'_, Ping>) {}
    }

    type PingLog = Rc<RefCell<Vec<(Time, NodeId, u32)>>>;

    fn ring_runtime(config: RuntimeConfig, n: u32, max_hops: u32) -> (Runtime<Ping>, PingLog) {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut rt = Runtime::new(config);
        for i in 0..n {
            rt.add_process(
                Addr::Node(NodeId(i)),
                Box::new(RingNode {
                    id: NodeId(i),
                    n,
                    max_hops,
                    log: Rc::clone(&log),
                }),
            );
        }
        (rt, log)
    }

    #[test]
    fn ring_ping_visits_every_node_in_order() {
        let (mut rt, log) = ring_runtime(RuntimeConfig::ideal(), 4, 8);
        rt.run_until(Time::from_secs(10));
        let hops: Vec<u32> = log.borrow().iter().map(|(_, _, h)| *h).collect();
        assert_eq!(hops, (1..=8).collect::<Vec<_>>());
        // Virtual time advances with each hop.
        let times: Vec<Time> = log.borrow().iter().map(|(t, _, _)| *t).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert!(rt.stats().messages_sent >= 8);
    }

    #[test]
    fn identical_seeds_give_identical_schedules() {
        let (mut a, log_a) = ring_runtime(RuntimeConfig::testbed(), 4, 12);
        let (mut b, log_b) = ring_runtime(RuntimeConfig::testbed(), 4, 12);
        a.run_until(Time::from_secs(30));
        b.run_until(Time::from_secs(30));
        assert_eq!(*log_a.borrow(), *log_b.borrow());
    }

    #[test]
    fn different_seeds_change_jitter_but_not_logic() {
        let mut cfg = RuntimeConfig::testbed();
        cfg.seed = 1;
        let (mut a, log_a) = ring_runtime(cfg.clone(), 4, 6);
        cfg.seed = 2;
        let (mut b, log_b) = ring_runtime(cfg, 4, 6);
        a.run_until(Time::from_secs(30));
        b.run_until(Time::from_secs(30));
        let hops_a: Vec<u32> = log_a.borrow().iter().map(|(_, _, h)| *h).collect();
        let hops_b: Vec<u32> = log_b.borrow().iter().map(|(_, _, h)| *h).collect();
        assert_eq!(hops_a, hops_b);
    }

    #[test]
    fn crashed_nodes_stop_receiving() {
        let mut cfg = RuntimeConfig::ideal();
        cfg.faults.crashes = CrashSchedule::none().crash(NodeId(2), Time::ZERO);
        let (mut rt, log) = ring_runtime(cfg, 4, 8);
        rt.run_until(Time::from_secs(10));
        // The ping dies when it reaches the crashed node 2.
        let visited: Vec<NodeId> = log.borrow().iter().map(|(_, n, _)| *n).collect();
        assert!(visited.contains(&NodeId(1)));
        assert!(!visited.contains(&NodeId(2)));
        assert!(rt.stats().messages_dropped >= 1);
    }

    #[test]
    fn wan_latency_dominates_ideal_latency() {
        let (mut ideal, log_ideal) = ring_runtime(RuntimeConfig::ideal(), 4, 4);
        ideal.run_until(Time::from_secs(30));
        let (mut wan, log_wan) = ring_runtime(RuntimeConfig::testbed(), 4, 4);
        wan.run_until(Time::from_secs(30));
        let end_ideal = log_ideal.borrow().last().map(|(t, _, _)| *t).unwrap();
        let end_wan = log_wan.borrow().last().map(|(t, _, _)| *t).unwrap();
        assert!(end_wan > end_ideal, "WAN must be slower than the ideal LAN");
        assert!(
            end_wan >= Time::from_millis(100),
            "4 cross-continent hops take >100ms"
        );
    }

    /// A process that arms three timers, latest deadline first.
    struct TimerNode {
        fired: Rc<RefCell<Vec<(TimerId, u64)>>>,
    }
    impl Process<Ping> for TimerNode {
        fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
            ctx.set_timer(Duration::from_millis(30), 3);
            ctx.set_timer(Duration::from_millis(20), 2);
            ctx.set_timer(Duration::from_millis(10), 1);
        }
        fn on_message(&mut self, _f: Addr, _m: Ping, _c: &mut Context<'_, Ping>) {}
        fn on_timer(&mut self, id: TimerId, kind: u64, _ctx: &mut Context<'_, Ping>) {
            self.fired.borrow_mut().push((id, kind));
        }
    }

    #[test]
    fn timers_fire_once_in_deadline_order() {
        let fired = Rc::new(RefCell::new(Vec::new()));
        let mut rt: Runtime<Ping> = Runtime::new(RuntimeConfig::ideal());
        rt.add_process(
            Addr::Node(NodeId(0)),
            Box::new(TimerNode {
                fired: Rc::clone(&fired),
            }),
        );
        rt.run_until(Time::from_secs(1));
        // Handles count arms; fires follow deadlines.
        assert_eq!(
            *fired.borrow(),
            vec![(TimerId(2), 1), (TimerId(1), 2), (TimerId(0), 3)]
        );
    }

    /// Guards the inlined hot-path samplers against silently diverging from
    /// the generic `rand` paths they replicate: if the vendored stand-in is
    /// ever swapped or its formulas change, this fails instead of quietly
    /// changing schedules.
    #[test]
    fn inlined_samplers_match_generic_rand_paths() {
        for seed in [0u64, 1, 42, 0xDEAD] {
            let mut a = StdRng::seed_from_u64(seed);
            let mut b = StdRng::seed_from_u64(seed);
            for max_us in [1u64, 7, 500, 1_000_000] {
                assert_eq!(sample_unit(&mut a).to_bits(), b.gen::<f64>().to_bits());
                assert_eq!(sample_jitter_us(&mut a, max_us), b.gen_range(0..=max_us));
            }
        }
    }

    #[test]
    fn loss_window_drops_during_the_window_and_heals_after() {
        use crate::fault::LossWindow;

        /// Node 0 pings node 1 every 10 ms; node 1 counts arrivals by second.
        struct Pinger;
        impl Process<Ping> for Pinger {
            fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
                ctx.set_timer(Duration::from_millis(10), 0);
            }
            fn on_message(&mut self, _f: Addr, _m: Ping, _c: &mut Context<'_, Ping>) {}
            fn on_timer(&mut self, _i: TimerId, _k: u64, ctx: &mut Context<'_, Ping>) {
                ctx.send(Addr::Node(NodeId(1)), Ping { hops: 0, size: 10 });
                ctx.set_timer(Duration::from_millis(10), 0);
            }
        }
        struct Counter {
            by_second: Rc<RefCell<Vec<u64>>>,
        }
        impl Process<Ping> for Counter {
            fn on_start(&mut self, _ctx: &mut Context<'_, Ping>) {}
            fn on_message(&mut self, _f: Addr, _m: Ping, ctx: &mut Context<'_, Ping>) {
                let s = (ctx.now().as_micros() / 1_000_000) as usize;
                let mut v = self.by_second.borrow_mut();
                if v.len() <= s {
                    v.resize(s + 1, 0);
                }
                v[s] += 1;
            }
            fn on_timer(&mut self, _i: TimerId, _k: u64, _c: &mut Context<'_, Ping>) {}
        }

        let mut cfg = RuntimeConfig::ideal();
        cfg.faults.loss_windows = vec![LossWindow {
            probability: 1.0,
            from: Time::from_secs(2),
            until: Time::from_secs(4),
        }];
        let counts = Rc::new(RefCell::new(Vec::new()));
        let mut rt: Runtime<Ping> = Runtime::new(cfg);
        rt.add_process(Addr::Node(NodeId(0)), Box::new(Pinger));
        rt.add_process(
            Addr::Node(NodeId(1)),
            Box::new(Counter {
                by_second: Rc::clone(&counts),
            }),
        );
        rt.run_until(Time::from_secs(6));
        let counts = counts.borrow();
        // ~100 pings/s outside the window, none inside, traffic resumes
        // after the heal.
        assert!(counts[1] > 90, "second 1 carried {}", counts[1]);
        assert_eq!(counts[2], 0, "window must drop everything");
        assert_eq!(counts[3], 0, "window must drop everything");
        assert!(counts[5] > 90, "second 5 must heal, carried {}", counts[5]);
        assert!(rt.stats().messages_dropped >= 190);
    }

    #[test]
    fn inactive_loss_window_leaves_the_schedule_bit_identical() {
        use crate::fault::LossWindow;
        // A window scheduled after the run's horizon never activates, so the
        // jitter RNG stream — and therefore the whole schedule — must match
        // the no-window run exactly.
        let (mut plain, log_plain) = ring_runtime(RuntimeConfig::testbed(), 4, 12);
        let mut cfg = RuntimeConfig::testbed();
        cfg.faults.loss_windows = vec![LossWindow {
            probability: 0.9,
            from: Time::from_secs(3600),
            until: Time::from_secs(7200),
        }];
        let (mut windowed, log_windowed) = ring_runtime(cfg, 4, 12);
        plain.run_until(Time::from_secs(30));
        windowed.run_until(Time::from_secs(30));
        assert_eq!(*log_plain.borrow(), *log_windowed.borrow());
    }

    /// Counts deliveries per second and arms a long timer at start; used by
    /// the crash-restart tests below.
    struct RestartProbe {
        label: u32,
        arrivals: Rc<RefCell<Vec<(Time, u32)>>>,
        timer_fires: Rc<RefCell<Vec<(Time, u32, TimerId)>>>,
    }
    impl Process<Ping> for RestartProbe {
        fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
            // A long timer armed by this incarnation: if the process is
            // replaced before it fires, the stamp check must drop it.
            ctx.set_timer(Duration::from_secs(4), self.label as u64);
        }
        fn on_message(&mut self, _f: Addr, _m: Ping, ctx: &mut Context<'_, Ping>) {
            self.arrivals.borrow_mut().push((ctx.now(), self.label));
        }
        fn on_timer(&mut self, id: TimerId, _k: u64, ctx: &mut Context<'_, Ping>) {
            self.timer_fires
                .borrow_mut()
                .push((ctx.now(), self.label, id));
        }
    }

    /// Node 0 pings node 1 every 100 ms forever.
    struct SteadyPinger;
    impl Process<Ping> for SteadyPinger {
        fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
            ctx.set_timer(Duration::from_millis(100), 0);
        }
        fn on_message(&mut self, _f: Addr, _m: Ping, _c: &mut Context<'_, Ping>) {}
        fn on_timer(&mut self, _i: TimerId, _k: u64, ctx: &mut Context<'_, Ping>) {
            ctx.send(Addr::Node(NodeId(1)), Ping { hops: 0, size: 10 });
            ctx.set_timer(Duration::from_millis(100), 0);
        }
    }

    #[test]
    fn restarted_process_receives_again_with_fresh_state() {
        let mut cfg = RuntimeConfig::ideal();
        cfg.faults.crashes =
            CrashSchedule::none().crash_restart(NodeId(1), Time::from_secs(2), Time::from_secs(3));
        let arrivals = Rc::new(RefCell::new(Vec::new()));
        let timer_fires = Rc::new(RefCell::new(Vec::new()));
        let mut rt: Runtime<Ping> = Runtime::new(cfg);
        rt.add_process(Addr::Node(NodeId(0)), Box::new(SteadyPinger));
        rt.add_process(
            Addr::Node(NodeId(1)),
            Box::new(RestartProbe {
                label: 1,
                arrivals: Rc::clone(&arrivals),
                timer_fires: Rc::clone(&timer_fires),
            }),
        );
        let (a2, t2) = (Rc::clone(&arrivals), Rc::clone(&timer_fires));
        rt.schedule_restart(Addr::Node(NodeId(1)), Time::from_secs(3), move || {
            Box::new(RestartProbe {
                label: 2,
                arrivals: a2,
                timer_fires: t2,
            })
        });
        rt.run_until(Time::from_secs(5));

        let arrivals = arrivals.borrow();
        // The first incarnation received during [0, 2); nothing arrived
        // during the downtime [2, 3); the second incarnation receives from 3.
        assert!(arrivals
            .iter()
            .any(|&(t, l)| l == 1 && t < Time::from_secs(2)));
        assert!(
            !arrivals
                .iter()
                .any(|&(t, _)| t >= Time::from_secs(2) && t < Time::from_secs(3)),
            "no delivery during downtime"
        );
        assert!(arrivals
            .iter()
            .any(|&(t, l)| l == 2 && t >= Time::from_secs(3)));
        assert!(
            !arrivals
                .iter()
                .any(|&(t, l)| l == 1 && t >= Time::from_secs(3)),
            "old incarnation must not see post-restart traffic"
        );
        // The old incarnation's 4 s timer (armed at 0) must not fire into
        // the new life; the new incarnation's own timer (armed at 3, fires
        // at 7) is beyond the horizon.
        assert!(
            timer_fires.borrow().is_empty(),
            "pre-crash timer leaked: {:?}",
            timer_fires.borrow()
        );
        assert!(rt.stats().messages_dropped >= 9, "downtime drops pings");
    }

    #[test]
    fn a_restarted_incarnation_numbers_its_timers_from_zero() {
        let mut cfg = RuntimeConfig::ideal();
        cfg.faults.crashes =
            CrashSchedule::none().crash_restart(NodeId(1), Time::from_secs(2), Time::from_secs(3));
        let arrivals = Rc::new(RefCell::new(Vec::new()));
        let timer_fires = Rc::new(RefCell::new(Vec::new()));
        let mut rt: Runtime<Ping> = Runtime::new(cfg);
        rt.add_process(
            Addr::Node(NodeId(1)),
            Box::new(RestartProbe {
                label: 1,
                arrivals: Rc::clone(&arrivals),
                timer_fires: Rc::clone(&timer_fires),
            }),
        );
        let (a2, t2) = (Rc::clone(&arrivals), Rc::clone(&timer_fires));
        rt.schedule_restart(Addr::Node(NodeId(1)), Time::from_secs(3), move || {
            Box::new(RestartProbe {
                label: 2,
                arrivals: a2,
                timer_fires: t2,
            })
        });
        rt.run_until(Time::from_secs(8));
        // The first incarnation armed TimerId(0) for 4 s, which the restart
        // at 3 s outlives; the second incarnation's own first timer (armed at
        // 3, fires at 7) is TimerId(0) again.
        assert_eq!(
            *timer_fires.borrow(),
            vec![(Time::from_secs(7), 2, TimerId(0))]
        );
    }

    #[test]
    fn runs_without_restarts_are_bit_identical_to_before() {
        // A schedule with no restart entries exercises exactly the same
        // event stream as one with a restart scheduled beyond the horizon.
        let (mut plain, log_plain) = ring_runtime(RuntimeConfig::testbed(), 4, 12);
        let (mut scheduled, log_scheduled) = ring_runtime(RuntimeConfig::testbed(), 4, 12);
        scheduled.schedule_restart(Addr::Node(NodeId(2)), Time::from_secs(3600), || {
            Box::new(SteadyPinger)
        });
        plain.run_until(Time::from_secs(30));
        scheduled.run_until(Time::from_secs(30));
        assert_eq!(*log_plain.borrow(), *log_scheduled.borrow());
    }

    #[test]
    fn run_until_advances_clock_even_without_events() {
        let mut rt: Runtime<Ping> = Runtime::new(RuntimeConfig::ideal());
        rt.run_until(Time::from_secs(5));
        assert_eq!(rt.now(), Time::from_secs(5));
    }

    #[test]
    fn cpu_model_defers_processing_under_load() {
        // One node, free network, expensive CPU: messages queue up on the CPU.
        let mut cfg = RuntimeConfig::ideal();
        cfg.cpu = CpuModel {
            cores: 1,
            per_message: Duration::from_millis(10),
            per_request: Duration::ZERO,
            per_byte_ns: 0.0,
        };
        struct Sink {
            times: Rc<RefCell<Vec<Time>>>,
        }
        impl Process<Ping> for Sink {
            fn on_start(&mut self, _ctx: &mut Context<'_, Ping>) {}
            fn on_message(&mut self, _f: Addr, _m: Ping, ctx: &mut Context<'_, Ping>) {
                self.times.borrow_mut().push(ctx.now());
            }
            fn on_timer(&mut self, _i: TimerId, _k: u64, _c: &mut Context<'_, Ping>) {}
        }
        struct Burst;
        impl Process<Ping> for Burst {
            fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
                for _ in 0..3 {
                    ctx.send(Addr::Node(NodeId(1)), Ping { hops: 0, size: 10 });
                }
            }
            fn on_message(&mut self, _f: Addr, _m: Ping, _c: &mut Context<'_, Ping>) {}
            fn on_timer(&mut self, _i: TimerId, _k: u64, _c: &mut Context<'_, Ping>) {}
        }
        let times = Rc::new(RefCell::new(Vec::new()));
        let mut rt: Runtime<Ping> = Runtime::new(cfg);
        rt.add_process(Addr::Node(NodeId(0)), Box::new(Burst));
        rt.add_process(
            Addr::Node(NodeId(1)),
            Box::new(Sink {
                times: Rc::clone(&times),
            }),
        );
        rt.run_until(Time::from_secs(1));
        let times = times.borrow();
        assert_eq!(times.len(), 3);
        // Second and third messages are delayed by CPU occupancy (10 ms each).
        assert!(times[1].as_micros() >= times[0].as_micros() + 10_000);
        assert!(times[2].as_micros() >= times[1].as_micros() + 10_000);
    }
}
