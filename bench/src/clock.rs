//! One monotonic time base for the whole run. Every `TcpRuntime` anchors
//! `ctx.now()` at its own start, so timestamps taken in different runtimes
//! are not comparable; the harness, the load generators and the sinks all
//! read this clock instead.

use std::time::Instant;

#[derive(Clone, Copy, Debug)]
pub struct Clock {
    t0: Instant,
}

impl Clock {
    pub fn start() -> Self {
        Clock { t0: Instant::now() }
    }

    /// Microseconds since the clock started.
    pub fn now_us(&self) -> u64 {
        self.t0.elapsed().as_micros() as u64
    }
}
