//! Equivalence property tests against the oracles the engine replaced: the
//! timing-wheel [`EventQueue`] must pop the exact `(time, seq)` sequence of
//! a `BinaryHeap` queue, under randomized workloads and under the broadcast
//! bursts at the cursor a 128-node deployment makes, and the heap-based
//! [`CpuState`] must complete work exactly when the per-core scan did.
//!
//! The workloads are generated from seeded RNGs, so failures are perfectly
//! reproducible; well over 1000 randomized cases run across the tests.

use iss_runtime::Addr;
use iss_simnet::cpu::CpuState;
use iss_simnet::event::{EventKind, EventQueue, SLOT_BITS, WHEEL_SLOTS};
use iss_types::{Duration, NodeId, Time};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The pre-wheel event queue, reduced to what the wheel is checked against:
/// a binary min-heap of `(time, push sequence number, event identity)`.
#[derive(Default)]
struct ReferenceQueue {
    heap: BinaryHeap<Reverse<(Time, u64, u64)>>,
    pushed: u64,
}

impl ReferenceQueue {
    fn push(&mut self, at: Time, ident: u64) {
        self.heap.push(Reverse((at, self.pushed, ident)));
        self.pushed += 1;
    }

    fn pop(&mut self) -> Option<(Time, u64)> {
        self.heap.pop().map(|Reverse((at, _, ident))| (at, ident))
    }

    fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|Reverse((at, _, _))| *at)
    }
}

/// The pre-heap CPU model: first idle core by index, else a full scan for
/// the earliest-free core.
struct ReferenceCpuState {
    core_free_at: Vec<Time>,
}

impl ReferenceCpuState {
    fn new(cores: usize) -> Self {
        ReferenceCpuState {
            core_free_at: vec![Time::ZERO; cores.max(1)],
        }
    }

    fn schedule(&mut self, arrival: Time, cost: Duration) -> Time {
        let mut min_idx = 0;
        let mut min_free = Time(u64::MAX);
        for (idx, &free_at) in self.core_free_at.iter().enumerate() {
            if free_at <= arrival {
                let done = arrival + cost;
                self.core_free_at[idx] = done;
                return done;
            }
            if free_at < min_free {
                min_free = free_at;
                min_idx = idx;
            }
        }
        let done = min_free + cost;
        self.core_free_at[min_idx] = done;
        done
    }
}

/// Identity of a pushed event, recovered from its message slot on pop.
fn ident(kind: &EventKind) -> u64 {
    match kind {
        EventKind::Deliver { msg, .. } | EventKind::Invoke { msg, .. } => u64::from(*msg),
        EventKind::Timer { kind, .. } => *kind,
        EventKind::Start { addr } | EventKind::Restart { addr } => match addr {
            Addr::Node(n) => n.0 as u64,
            Addr::Client(c) => c.0 as u64,
        },
    }
}

/// Draws an event time from a mixture that exercises every wheel tier:
/// same-slot times, in-window times, far-overflow times, exact ties with the
/// previous event, and (rarely) times before the last pop.
fn draw_time(rng: &mut StdRng, anchor: Time, prev: Time) -> Time {
    match rng.gen_range(0u32..100) {
        // Exact tie with a previously drawn time.
        0..=14 => prev,
        // Same-slot / sub-slot distance (cursor-slot inserts).
        15..=39 => anchor + iss_types::Duration::from_micros(rng.gen_range(0u64..128)),
        // Typical network/CPU distance: well inside the wheel window.
        40..=74 => anchor + iss_types::Duration::from_micros(rng.gen_range(0u64..200_000)),
        // Protocol-timer distance: past the end of the wheel's window,
        // whatever slot it starts at → overflow tier.
        75..=94 => {
            let window = (WHEEL_SLOTS as u64) << SLOT_BITS;
            anchor + iss_types::Duration::from_micros(rng.gen_range(window..2 * window))
        }
        // Behind the anchor (the queue must still order it correctly).
        _ => Time::from_micros(
            anchor
                .as_micros()
                .saturating_sub(rng.gen_range(0u64..1_000)),
        ),
    }
}

/// The simulator's pattern — push relative to the last popped time, pop the
/// earliest — with a fifth of the pushes past the wheel's window, so the
/// window re-anchors and cascades the overflow back in again and again.
#[test]
fn wheel_pops_identical_sequences_to_reference_heap() {
    let mut cases = 0u32;
    for seed in 0..1100u64 {
        cases += 1;
        let mut rng = StdRng::seed_from_u64(0xBEEF_CAFE ^ seed);
        let mut wheel = EventQueue::new();
        let mut heap = ReferenceQueue::default();
        let mut next_ident = 0u32;
        let mut anchor = Time::ZERO;
        let mut prev = Time::ZERO;
        let ops = rng.gen_range(20usize..200);
        for _ in 0..ops {
            // Bias towards pushes so the queues carry state across windows.
            if rng.gen_range(0u32..10) < 6 || wheel.is_empty() {
                let at = draw_time(&mut rng, anchor, prev);
                prev = at;
                let n = rng.gen_range(1usize..4); // bursts create ties
                for _ in 0..n {
                    let (from, to) = (Addr::Node(NodeId(0)), Addr::Node(NodeId(1)));
                    let msg = next_ident;
                    wheel.push(
                        at,
                        EventKind::Deliver {
                            from,
                            to,
                            msg,
                            size: 0,
                        },
                    );
                    heap.push(at, u64::from(msg));
                    next_ident += 1;
                }
            } else {
                assert_eq!(wheel.peek_time(), heap.peek_time(), "seed {seed}");
                assert_eq!(wheel.len(), heap.heap.len(), "seed {seed}");
                let w = wheel.pop().unwrap();
                assert_eq!((w.at, ident(&w.kind)), heap.pop().unwrap(), "seed {seed}");
                // The simulator schedules relative to the popped time.
                anchor = w.at;
            }
        }
        // Drain both completely.
        loop {
            assert_eq!(wheel.peek_time(), heap.peek_time(), "seed {seed}");
            match (wheel.pop(), heap.pop()) {
                (None, None) => break,
                (Some(w), Some(h)) => assert_eq!((w.at, ident(&w.kind)), h, "seed {seed}"),
                _ => panic!("queues disagree on emptiness (seed {seed})"),
            }
        }
    }
    assert!(cases >= 1000, "must cover 1000+ randomized cases");
}

/// A broadcast in a 128-node deployment: one popped event schedules
/// thousands of deliveries and CPU completions in its own wheel slot, so
/// most pushes land at or before the cursor, between a few pops. A few
/// pushes of each burst go further out (the wheel and the overflow), and a
/// few land earlier in the slot than the event just popped.
#[test]
fn cursor_slot_bursts_pop_identical_sequences_to_reference_heap() {
    const SLOT_US: u64 = 1 << iss_simnet::event::SLOT_BITS;
    let mut at_cursor = 0u64;
    let mut pushed = 0u64;
    for seed in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(0x128_B0AD ^ seed);
        let mut wheel = EventQueue::new();
        let mut heap = ReferenceQueue::default();
        let mut next_ident = 0u32;
        let mut anchor = Time::from_millis(1);
        let mut push = |wheel: &mut EventQueue, heap: &mut ReferenceQueue, at: Time| {
            let (from, to) = (Addr::Node(NodeId(0)), Addr::Node(NodeId(1)));
            wheel.push(
                at,
                EventKind::Deliver {
                    from,
                    to,
                    msg: next_ident,
                    size: 0,
                },
            );
            heap.push(at, u64::from(next_ident));
            next_ident += 1;
        };
        push(&mut wheel, &mut heap, anchor);
        for _round in 0..8 {
            for _ in 0..rng.gen_range(1usize..300) {
                assert_eq!(wheel.peek_time(), heap.peek_time(), "seed {seed}");
                let Some(w) = wheel.pop() else { break };
                assert_eq!((w.at, ident(&w.kind)), heap.pop().unwrap(), "seed {seed}");
                anchor = w.at;
            }
            let slot_start = anchor.as_micros() / SLOT_US * SLOT_US;
            let slot_left = slot_start + SLOT_US - anchor.as_micros();
            for _ in 0..rng.gen_range(1_000usize..4_000) {
                let at = match rng.gen_range(0u32..100) {
                    // Zero delay: the same instant as the popped event.
                    0..=29 => anchor,
                    // Later in the popped event's slot.
                    30..=79 => anchor + Duration::from_micros(rng.gen_range(0..slot_left)),
                    // Earlier in the same slot.
                    80..=84 => Time::from_micros(rng.gen_range(slot_start..=anchor.as_micros())),
                    // Network distance: the wheel.
                    85..=96 => anchor + Duration::from_micros(rng.gen_range(SLOT_US..300_000)),
                    // Protocol timers: the overflow.
                    _ => anchor + Duration::from_micros(rng.gen_range(5_000_000..8_000_000)),
                };
                pushed += 1;
                at_cursor += u64::from(at.as_micros() < slot_start + SLOT_US);
                push(&mut wheel, &mut heap, at);
            }
            assert_eq!(wheel.len(), heap.heap.len(), "seed {seed}");
        }
        loop {
            assert_eq!(wheel.peek_time(), heap.peek_time(), "seed {seed}");
            match (wheel.pop(), heap.pop()) {
                (None, None) => break,
                (Some(w), Some(h)) => assert_eq!((w.at, ident(&w.kind)), h, "seed {seed}"),
                _ => panic!("queues disagree on emptiness (seed {seed})"),
            }
        }
    }
    assert!(
        at_cursor * 10 >= pushed * 8,
        "{at_cursor} of {pushed} pushes at or before the cursor slot"
    );
}

/// The heap-based [`CpuState`] must produce completion times bit-identical
/// to the scan-based `ReferenceCpuState` for any workload with
/// non-decreasing arrivals — the invariant the discrete-event runtime
/// guarantees. 300 randomized workloads across core counts, mixing idle
/// stretches, saturation bursts (half the arrivals share the previous
/// one's instant) and zero-cost messages.
#[test]
fn cpu_heap_matches_reference_scan() {
    for seed in 0..300u64 {
        let mut rng = StdRng::seed_from_u64(0xC0DE_C0DE ^ seed);
        let cores = [1usize, 2, 3, 4, 8, 32, 128][rng.gen_range(0usize..7)];
        let mut heap = CpuState::new(cores);
        let mut scan = ReferenceCpuState::new(cores);
        let mut arrival = Time::ZERO;
        for step in 0..2_000 {
            // Arrivals advance in bursts: ~half the steps share an instant.
            if rng.gen_bool(0.5) {
                arrival += Duration::from_micros(rng.gen_range(0u64..50));
            }
            // Costs span zero, sub-arrival-gap and way-beyond-gap work, so
            // the schedulers alternate between idle and saturated regimes.
            let cost = Duration::from_micros(match rng.gen_range(0u32..10) {
                0 => 0,
                1..=6 => rng.gen_range(0u64..60),
                _ => rng.gen_range(200u64..2_000),
            });
            assert_eq!(
                heap.schedule(arrival, cost),
                scan.schedule(arrival, cost),
                "seed {seed}, step {step}, {cores} cores"
            );
        }
    }
}
