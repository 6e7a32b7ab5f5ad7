//! The discrete-event queue.
//!
//! Events are ordered by virtual time with a monotonically increasing
//! sequence number as a tie-breaker, which makes runs fully deterministic for
//! a given seed and schedule.
//!
//! [`EventQueue`] is a hierarchical timing wheel tuned for the access pattern
//! of the simulator: almost every event is scheduled within a few hundred
//! milliseconds of virtual *now* (network latency, CPU completion, bandwidth
//! serialization), while a small minority (protocol timers) lands seconds
//! ahead. The tiers order 24-byte `(time, seq, slot)` keys; an event's
//! [`EventKind`] waits in a slab at `slot` from push to pop, so it is moved
//! into the queue and out of it and never while it is being ordered. No
//! event carries a message: a delivery names the message's slot in the
//! runtime's message slab, where one copy serves every destination of a
//! broadcast. The tiers, consulted in order:
//!
//! 1. the *cursor slot*: the keys of the wheel slot the cursor points at,
//!    sorted once when the cursor enters the slot and drained from the back,
//!    next to a binary heap that takes every key pushed at or before the
//!    cursor slot afterwards (a broadcast's zero-delay and same-slot
//!    follow-ups), so such an insert costs O(log k) for k such keys; a pop
//!    takes the earlier of the two heads;
//! 2. the *near wheel*: [`WHEEL_SLOTS`] unsorted buckets of
//!    2^[`SLOT_BITS`] µs each, covering a sliding window of about four
//!    seconds of virtual time, with an occupancy bitmap to skip empty slots
//!    64 at a time;
//! 3. a *sorted overflow* (`BTreeSet` of keys) that spills everything beyond
//!    the window and cascades back into the wheel when the window re-anchors.
//!
//! Push and pop are O(1) amortized for in-window events, and O(log k) for
//! the k keys pushed into the cursor slot; far-future events pay one extra
//! O(log n) detour through the overflow set. The pop order is *exactly* the
//! `(time, seq)` order of a binary heap, which `tests/wheel_equivalence.rs`
//! asserts against such a heap over randomized workloads.

use iss_runtime::Addr;
use iss_types::{Time, TimerId};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

/// A scheduled event.
#[derive(Debug)]
pub enum EventKind {
    /// Deliver a message to `to`.
    Deliver {
        /// Sender address.
        from: Addr,
        /// Receiver address.
        to: Addr,
        /// The message's slot in the runtime's message slab.
        msg: u32,
        /// The message's `wire_size()`, priced once when it was sent.
        size: usize,
    },
    /// Fire a timer at `addr`.
    Timer {
        /// The process whose timer fires.
        addr: Addr,
        /// Timer handle.
        id: TimerId,
        /// Opaque tag supplied when the timer was armed.
        kind: u64,
        /// Incarnation of the process when the timer was armed; a restarted
        /// process has a higher incarnation, so pre-crash timers firing after
        /// the restart are dropped rather than leaking into the new life.
        incarnation: u32,
    },
    /// Invoke `on_start` of a process (used at time zero).
    Start {
        /// The process to start.
        addr: Addr,
    },
    /// Replace the process at `addr` with a freshly built one and start it
    /// (crash-restart fault injection; scheduled by
    /// [`crate::Runtime::schedule_restart`]).
    Restart {
        /// The process to restart.
        addr: Addr,
    },
    /// Invoke the message handler after the receiver's CPU becomes free
    /// (scheduled internally by the runtime's CPU model).
    Invoke {
        /// Sender address.
        from: Addr,
        /// Receiver address.
        to: Addr,
        /// The message's slot in the runtime's message slab.
        msg: u32,
    },
}

/// An event plus its firing time.
#[derive(Debug)]
pub struct Event {
    /// Virtual time at which the event fires.
    pub at: Time,
    /// What happens.
    pub kind: EventKind,
}

/// What the tiers order: firing time, then push order. `slot` is where the
/// event's kind waits in the slab; it never decides an order, because `seq`
/// is unique.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct Key {
    at: Time,
    seq: u64,
    slot: u32,
}

/// log2 of the width of one wheel slot in microseconds (256 µs).
pub const SLOT_BITS: u32 = 8;
/// Number of slots in the near wheel (must be a multiple of 64 for the
/// occupancy bitmap); 16384 × 256 µs ≈ 4.2 s of virtual time, wide enough
/// that only the long protocol timers (10 s view/epoch-change timeouts)
/// spill to the overflow tier (~10% of inserts in a fig8-scale run).
pub const WHEEL_SLOTS: usize = 16384;

const BITMAP_WORDS: usize = WHEEL_SLOTS / 64;

/// A deterministic event queue (timing-wheel implementation).
pub struct EventQueue {
    /// The overall minimum key, cached so `peek_time` and `pop` are O(1).
    /// Invariant: `Some` iff the queue is non-empty.
    next: Option<Key>,
    /// Keys of the cursor slot as it was entered, sorted so the earliest is
    /// at the *back*: draining is `Vec::pop`.
    active: Vec<Key>,
    /// Keys pushed at or before the cursor slot after it was entered.
    due: BinaryHeap<Reverse<Key>>,
    /// The near wheel: unsorted buckets of 2^SLOT_BITS µs each.
    wheel: Vec<Vec<Key>>,
    /// One bit per wheel slot: does the bucket hold any key?
    occupied: [u64; BITMAP_WORDS],
    /// Absolute slot number (`time >> SLOT_BITS`) that `wheel[0]` covers.
    window_start_slot: u64,
    /// Index into `wheel` of the slot `active` was loaded from.
    cursor: usize,
    /// Keys beyond the wheel window.
    overflow: BTreeSet<Key>,
    /// The kinds of the queued events, at their keys' `slot`s.
    slab: Vec<Option<EventKind>>,
    /// Empty slab entries, reused last-freed first.
    free: Vec<u32>,
    next_seq: u64,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            next: None,
            active: Vec::new(),
            due: BinaryHeap::new(),
            wheel: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; BITMAP_WORDS],
            window_start_slot: 0,
            cursor: 0,
            overflow: BTreeSet::new(),
            slab: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
        }
    }

    /// Schedules an event at time `at`.
    #[inline]
    pub fn push(&mut self, at: Time, kind: EventKind) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(kind);
                slot
            }
            None => {
                self.slab.push(Some(kind));
                (self.slab.len() - 1) as u32
            }
        };
        let key = Key {
            at,
            seq: self.next_seq,
            slot,
        };
        self.next_seq += 1;
        match self.next {
            None => self.next = Some(key),
            // A new event can only displace the cached minimum with a
            // strictly earlier time: on a tie the cached event wins because
            // its sequence number is smaller.
            Some(min) if key.at < min.at => {
                self.next = Some(key);
                self.insert(min);
            }
            Some(_) => self.insert(key),
        }
    }

    /// Pops the earliest event, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<Event> {
        let key = self.next.take()?;
        self.next = self.extract_min();
        let kind = self.slab[key.slot as usize]
            .take()
            .expect("a queued key's kind waits in its slab slot");
        self.free.push(key.slot);
        Some(Event { at: key.at, kind })
    }

    /// Time of the next event without removing it.
    #[inline]
    pub fn peek_time(&self) -> Option<Time> {
        self.next.map(|key| key.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.slab.len() - self.free.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.next.is_none()
    }

    /// Routes a key into the tier matching its distance from the cursor.
    fn insert(&mut self, key: Key) {
        let slot_abs = key.at.as_micros() >> SLOT_BITS;
        if slot_abs <= self.window_start_slot + self.cursor as u64 {
            // At or before the cursor slot (e.g. a zero-delay self-send).
            self.due.push(Reverse(key));
            return;
        }
        let offset = slot_abs - self.window_start_slot;
        if offset < WHEEL_SLOTS as u64 {
            let idx = offset as usize;
            self.wheel[idx].push(key);
            self.occupied[idx / 64] |= 1u64 << (idx % 64);
        } else {
            self.overflow.insert(key);
        }
    }

    /// Extracts the globally earliest key from the three tiers.
    fn extract_min(&mut self) -> Option<Key> {
        loop {
            // Both heads belong to the cursor slot or earlier, so they come
            // before anything on the wheel.
            match (self.active.last(), self.due.peek()) {
                (Some(a), Some(Reverse(d))) if d < a => return self.due.pop().map(|r| r.0),
                (Some(_), _) => return self.active.pop(),
                (None, Some(_)) => return self.due.pop().map(|r| r.0),
                (None, None) => {}
            }
            // Advance the cursor to the next occupied wheel slot.
            if let Some(idx) = self.next_occupied_slot() {
                self.cursor = idx;
                self.occupied[idx / 64] &= !(1u64 << (idx % 64));
                // Swap buffers (the active vec is empty here) and sort the
                // slot once, earliest last; draining it is then pop-from-back.
                std::mem::swap(&mut self.active, &mut self.wheel[idx]);
                self.active.sort_unstable_by(|a, b| b.cmp(a));
                continue;
            }
            // Wheel exhausted: re-anchor the window at the first overflow
            // key and cascade everything inside the new window back in.
            let first = *self.overflow.first()?;
            self.window_start_slot = first.at.as_micros() >> SLOT_BITS;
            self.cursor = 0;
            let window_end = Key {
                at: Time::from_micros((self.window_start_slot + WHEEL_SLOTS as u64) << SLOT_BITS),
                seq: 0,
                slot: 0,
            };
            let far = self.overflow.split_off(&window_end);
            for key in std::mem::replace(&mut self.overflow, far) {
                let idx = ((key.at.as_micros() >> SLOT_BITS) - self.window_start_slot) as usize;
                self.wheel[idx].push(key);
                self.occupied[idx / 64] |= 1u64 << (idx % 64);
            }
        }
    }

    /// Index of the first occupied slot at or after the cursor, if any.
    fn next_occupied_slot(&self) -> Option<usize> {
        let start = self.cursor;
        let mut word_idx = start / 64;
        // Mask off bits below the cursor in the first word.
        let mut word = self.occupied[word_idx] & (!0u64 << (start % 64));
        loop {
            if word != 0 {
                return Some(word_idx * 64 + word.trailing_zeros() as usize);
            }
            word_idx += 1;
            if word_idx >= BITMAP_WORDS {
                return None;
            }
            word = self.occupied[word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iss_types::NodeId;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.push(
            Time::from_millis(20),
            EventKind::Start {
                addr: Addr::Node(NodeId(2)),
            },
        );
        q.push(
            Time::from_millis(10),
            EventKind::Start {
                addr: Addr::Node(NodeId(1)),
            },
        );
        q.push(
            Time::from_millis(30),
            EventKind::Start {
                addr: Addr::Node(NodeId(3)),
            },
        );
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_time(), Some(Time::from_millis(10)));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.at.as_micros())
            .collect();
        assert_eq!(order, vec![10_000, 20_000, 30_000]);
        assert!(q.is_empty());
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = Time::from_millis(5);
        q.push(
            t,
            EventKind::Timer {
                addr: Addr::Node(NodeId(0)),
                id: TimerId(1),
                kind: 1,
                incarnation: 0,
            },
        );
        q.push(
            t,
            EventKind::Timer {
                addr: Addr::Node(NodeId(0)),
                id: TimerId(2),
                kind: 2,
                incarnation: 0,
            },
        );
        let first = q.pop().unwrap();
        let second = q.pop().unwrap();
        match (first.kind, second.kind) {
            (EventKind::Timer { kind: k1, .. }, EventKind::Timer { kind: k2, .. }) => {
                assert_eq!((k1, k2), (1, 2));
            }
            _ => panic!("unexpected event kinds"),
        }
    }

    #[test]
    fn far_future_events_take_the_overflow_path() {
        let mut q = EventQueue::new();
        // Far beyond the wheel window (window is ~4.2 s).
        q.push(
            Time::from_secs(30),
            EventKind::Start {
                addr: Addr::Node(NodeId(1)),
            },
        );
        q.push(
            Time::from_secs(10),
            EventKind::Start {
                addr: Addr::Node(NodeId(0)),
            },
        );
        q.push(
            Time::from_millis(1),
            EventKind::Start {
                addr: Addr::Node(NodeId(2)),
            },
        );
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.at.as_micros())
            .collect();
        assert_eq!(order, vec![1_000, 10_000_000, 30_000_000]);
    }

    #[test]
    fn interleaved_push_pop_across_window_reanchors() {
        // Mimics the simulator: pop an event, schedule follow-ups relative to
        // its time, repeat. Times repeatedly cross the wheel horizon. The
        // oracle is a plain min-heap of `(time, push order)`.
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        type Oracle = BinaryHeap<Reverse<(Time, u64)>>;
        fn push(q: &mut EventQueue, r: &mut Oracle, pushed: &mut u64, t: Time, node: u32) {
            r.push(Reverse((t, *pushed)));
            *pushed += 1;
            q.push(
                t,
                EventKind::Start {
                    addr: Addr::Node(NodeId(node)),
                },
            );
        }
        let mut q = EventQueue::new();
        let mut r = Oracle::new();
        let mut pushed = 0u64;
        for i in 0..4u64 {
            let t = Time::from_millis(i * 2_800);
            push(&mut q, &mut r, &mut pushed, t, i as u32);
        }
        let mut popped = Vec::new();
        while let Some(e) = q.pop() {
            let Reverse((rt, _)) = r.pop().expect("reference has the same events");
            assert_eq!(e.at, rt);
            popped.push(e.at);
            if popped.len() < 64 {
                // Two follow-ups: one near, one past the horizon.
                for delay in [150u64, 5_100_000] {
                    let t = e.at + iss_types::Duration::from_micros(delay);
                    push(&mut q, &mut r, &mut pushed, t, 9);
                }
            }
        }
        assert!(r.is_empty());
        assert!(popped.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn zero_delay_pushes_pop_before_later_events() {
        let mut q = EventQueue::new();
        q.push(
            Time::from_millis(10),
            EventKind::Start {
                addr: Addr::Node(NodeId(0)),
            },
        );
        q.push(
            Time::from_millis(20),
            EventKind::Start {
                addr: Addr::Node(NodeId(1)),
            },
        );
        let first = q.pop().unwrap();
        assert_eq!(first.at, Time::from_millis(10));
        // Self-send at the current time must come before the 20 ms event.
        q.push(
            Time::from_millis(10),
            EventKind::Start {
                addr: Addr::Node(NodeId(2)),
            },
        );
        assert_eq!(q.pop().unwrap().at, Time::from_millis(10));
        assert_eq!(q.pop().unwrap().at, Time::from_millis(20));
    }
}
