//! Fixed-capacity span ring buffers.
//!
//! Every commit-path event (request arrival, batch cut, proposal, quorum,
//! delivery, …) is recorded as one `Copy` [`SpanRecord`] in a preallocated
//! ring. Recording is a slot write plus two integer updates — no allocation,
//! no resizing — so it is safe on the hot path under both the simulator and
//! the TCP runtime. When the ring is full the oldest record is overwritten
//! and a drop counter advances, so a snapshot always holds the *latest*
//! `capacity` events plus an exact count of how many were discarded.

/// What kind of commit-path event a [`SpanRecord`] marks.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
#[repr(u8)]
pub enum SpanKind {
    /// A client request arrived at its node (`key` = request key).
    Arrival = 0,
    /// A batch was cut from the buckets (`key` = batch key, `aux` = #requests).
    Cut = 1,
    /// A batch was proposed to an ordering instance (`key` = sequence number,
    /// `aux` = #requests).
    Propose = 2,
    /// The ordering instance committed the sequence number (`key` = sequence
    /// number).
    Quorum = 3,
    /// The batch at `key` (sequence number) was delivered to the application.
    Deliver = 4,
    /// A request completed end-to-end (`key` = request key, `aux` = latency
    /// in microseconds).
    EndToEnd = 5,
}

impl SpanKind {
    /// Stable lowercase label (export format).
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Arrival => "arrival",
            SpanKind::Cut => "cut",
            SpanKind::Propose => "propose",
            SpanKind::Quorum => "quorum",
            SpanKind::Deliver => "deliver",
            SpanKind::EndToEnd => "end-to-end",
        }
    }
}

/// One commit-path event. `Copy` and pointer-free by design: writing one into
/// the ring moves a few machine words and can never allocate or tear.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SpanRecord {
    /// Event time in microseconds (virtual time under the simulator,
    /// monotonic-since-boot under the TCP runtime).
    pub t_us: u64,
    /// Node the event happened on.
    pub node: u32,
    /// Event kind.
    pub kind: SpanKind,
    /// Kind-dependent correlation key (request key, batch key or sequence
    /// number — see [`SpanKind`]).
    pub key: u64,
    /// Kind-dependent auxiliary value (batch size, latency, …).
    pub aux: u64,
}

/// A fixed-capacity ring of [`SpanRecord`]s with overwrite-oldest semantics.
#[derive(Clone, Debug)]
pub struct SpanRing {
    slots: Vec<SpanRecord>,
    capacity: usize,
    /// Next slot to write (wraps at `capacity`).
    head: usize,
    /// Total records ever pushed (`pushed - len()` = records overwritten).
    pushed: u64,
}

impl SpanRing {
    /// A ring holding at most `capacity` records (`capacity` ≥ 1).
    pub fn new(capacity: usize) -> Self {
        SpanRing {
            slots: Vec::with_capacity(capacity.max(1)),
            capacity: capacity.max(1),
            head: 0,
            pushed: 0,
        }
    }

    /// Records one event. Overwrites the oldest record when full; never
    /// allocates once the ring has filled up.
    #[inline]
    pub fn push(&mut self, rec: SpanRecord) {
        if self.slots.len() < self.capacity {
            self.slots.push(rec);
        } else {
            self.slots[self.head] = rec;
        }
        self.head = (self.head + 1) % self.capacity;
        self.pushed += 1;
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the ring holds no records.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Maximum number of records the ring can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total records ever pushed, including overwritten ones.
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// How many records were overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.pushed - self.slots.len() as u64
    }

    /// The retained records, oldest first.
    pub fn iter_ordered(&self) -> impl Iterator<Item = &SpanRecord> {
        let split = if self.slots.len() < self.capacity {
            0
        } else {
            self.head
        };
        self.slots[split..].iter().chain(self.slots[..split].iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(i: u64) -> SpanRecord {
        SpanRecord {
            t_us: i,
            node: 0,
            kind: SpanKind::Arrival,
            key: i,
            aux: 0,
        }
    }

    #[test]
    fn fills_then_overwrites_oldest() {
        let mut r = SpanRing::new(4);
        for i in 0..6 {
            r.push(rec(i));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 2);
        assert_eq!(r.total_pushed(), 6);
        let keys: Vec<u64> = r.iter_ordered().map(|s| s.key).collect();
        assert_eq!(keys, vec![2, 3, 4, 5]);
    }

    #[test]
    fn partial_fill_keeps_insertion_order() {
        let mut r = SpanRing::new(8);
        for i in 0..3 {
            r.push(rec(i));
        }
        assert_eq!(r.dropped(), 0);
        let keys: Vec<u64> = r.iter_ordered().map(|s| s.key).collect();
        assert_eq!(keys, vec![0, 1, 2]);
    }

    #[test]
    fn capacity_one_always_keeps_latest() {
        let mut r = SpanRing::new(1);
        for i in 0..10 {
            r.push(rec(i));
        }
        assert_eq!(r.len(), 1);
        assert_eq!(r.iter_ordered().next().unwrap().key, 9);
        assert_eq!(r.dropped(), 9);
    }
}
