//! Fault injection: crashes, partitions and probabilistic message loss.
//!
//! The evaluation of the paper studies crash faults at the start and end of
//! an epoch (Section 6.4.1) and Byzantine stragglers (Section 6.4.2).
//! Crashes and partitions are injected here at the network level; straggler
//! behaviour is a protocol-level misbehaviour implemented in the node logic
//! (`iss_core::NodeOptions::straggler`).

use iss_runtime::Addr;
use iss_types::{NodeId, Time};
use std::collections::HashMap;

/// When a node stops participating — and, for crash-restart faults, when it
/// comes back.
///
/// A plain [`CrashSchedule::crash`] is permanent at the *network* level: the
/// node neither sends nor receives from `at` on. A
/// [`CrashSchedule::crash_restart`] entry is an interval `[at, up)`: during
/// the downtime the node is dead exactly like a crashed one, and from `up`
/// on delivery and timers heal automatically (the runtime additionally
/// replaces the process itself at `up` via
/// [`crate::Runtime::schedule_restart`], so the new incarnation reboots
/// from its durable storage rather than resuming with in-memory state).
#[derive(Clone, Debug, Default)]
pub struct CrashSchedule {
    /// Per node: downtime start, and the restart time for crash-restart
    /// entries (`None` = crashed forever).
    crash_at: HashMap<NodeId, (Time, Option<Time>)>,
}

impl CrashSchedule {
    /// Creates an empty schedule (no crashes).
    pub fn none() -> Self {
        Self::default()
    }

    /// Schedules `node` to crash at `at` and never come back.
    pub fn crash(mut self, node: NodeId, at: Time) -> Self {
        self.crash_at.insert(node, (at, None));
        self
    }

    /// Schedules `node` to crash at `at` and restart at `up`.
    pub fn crash_restart(mut self, node: NodeId, at: Time, up: Time) -> Self {
        debug_assert!(up > at, "restart must come after the crash");
        self.crash_at.insert(node, (at, Some(up)));
        self
    }

    /// Whether `node` is down at time `now`.
    pub fn is_crashed(&self, node: NodeId, now: Time) -> bool {
        self.crash_at
            .get(&node)
            .is_some_and(|(down, up)| now >= *down && up.is_none_or(|u| now < u))
    }

    /// Whether the schedule contains no crashes at all (lets the runtime
    /// skip the per-event crash probe entirely in fault-free runs).
    pub fn is_empty(&self) -> bool {
        self.crash_at.is_empty()
    }

    /// The set of nodes that ever crash (including ones that restart).
    pub fn crashed_nodes(&self) -> Vec<NodeId> {
        let mut v: Vec<_> = self.crash_at.keys().copied().collect();
        v.sort();
        v
    }

    /// The `(node, restart time)` pairs of crash-restart entries, sorted by
    /// node.
    pub fn restarts(&self) -> Vec<(NodeId, Time)> {
        let mut v: Vec<_> = self
            .crash_at
            .iter()
            .filter_map(|(&n, &(_, up))| up.map(|u| (n, u)))
            .collect();
        v.sort();
        v
    }
}

/// A network partition separating two groups of nodes during a time window.
#[derive(Clone, Debug)]
pub struct Partition {
    /// One side of the partition.
    pub group_a: Vec<NodeId>,
    /// The other side.
    pub group_b: Vec<NodeId>,
    /// Start of the partition (inclusive).
    pub from: Time,
    /// End of the partition (exclusive). Communication heals at this time —
    /// this models the global stabilization time (GST) of the partial
    /// synchrony assumption.
    pub until: Time,
}

impl Partition {
    /// Whether a message between `a` and `b` sent at `now` is blocked.
    pub fn blocks(&self, a: Addr, b: Addr, now: Time) -> bool {
        if now < self.from || now >= self.until {
            return false;
        }
        let (Some(na), Some(nb)) = (a.as_node(), b.as_node()) else {
            return false;
        };
        (self.group_a.contains(&na) && self.group_b.contains(&nb))
            || (self.group_a.contains(&nb) && self.group_b.contains(&na))
    }
}

/// A window of probabilistic message loss.
///
/// While active, every message accepted for transmission is dropped with
/// the given probability. Pre-GST asynchrony is the window from zero to the
/// global stabilization time; other lossy episodes sit anywhere in a run,
/// and several windows with different severities may coexist.
#[derive(Clone, Copy, Debug)]
pub struct LossWindow {
    /// Probability of dropping a message sent inside the window.
    pub probability: f64,
    /// Start of the window (inclusive).
    pub from: Time,
    /// End of the window (exclusive); loss stops at this time.
    pub until: Time,
}

impl LossWindow {
    /// Whether the window is active at `now`.
    pub fn active(&self, now: Time) -> bool {
        self.probability > 0.0 && now >= self.from && now < self.until
    }
}

/// Complete fault configuration for a run.
#[derive(Clone, Debug, Default)]
pub struct FaultConfig {
    /// Crash schedule.
    pub crashes: CrashSchedule,
    /// Active partitions.
    pub partitions: Vec<Partition>,
    /// Scheduled windows of probabilistic loss.
    pub loss_windows: Vec<LossWindow>,
}

impl FaultConfig {
    /// No faults at all.
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether a message from `from` to `to` at `now` must be dropped
    /// deterministically (crash or partition). Probabilistic loss is decided
    /// by the runtime using its RNG and [`FaultConfig::drop_probability`].
    pub fn drops(&self, from: Addr, to: Addr, now: Time) -> bool {
        if let Some(n) = from.as_node() {
            if self.crashes.is_crashed(n, now) {
                return true;
            }
        }
        if let Some(n) = to.as_node() {
            if self.crashes.is_crashed(n, now) {
                return true;
            }
        }
        self.partitions.iter().any(|p| p.blocks(from, to, now))
    }

    /// Whether a scheduled loss window is active at `now`.
    pub fn lossy_at(&self, now: Time) -> bool {
        self.loss_windows.iter().any(|w| w.active(now))
    }

    /// The drop probability in force at `now`: the strongest active loss
    /// window (so overlapping windows degrade to the worst one instead of
    /// compounding, which keeps a window's effect independent of how the
    /// schedule was sliced).
    pub fn drop_probability(&self, now: Time) -> f64 {
        self.loss_windows
            .iter()
            .filter(|w| w.active(now))
            .fold(0.0, |p, w| p.max(w.probability))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_schedule_applies_from_crash_time() {
        let s = CrashSchedule::none().crash(NodeId(3), Time::from_secs(10));
        assert!(!s.is_crashed(NodeId(3), Time::from_secs(9)));
        assert!(s.is_crashed(NodeId(3), Time::from_secs(10)));
        assert!(!s.is_crashed(NodeId(1), Time::from_secs(100)));
        assert_eq!(s.crashed_nodes(), vec![NodeId(3)]);
    }

    #[test]
    fn crash_restart_is_an_interval_not_a_point() {
        let s = CrashSchedule::none()
            .crash(NodeId(1), Time::from_secs(3))
            .crash_restart(NodeId(2), Time::from_secs(5), Time::from_secs(8));
        // Down exactly during [5, 8).
        assert!(!s.is_crashed(NodeId(2), Time::from_millis(4_999)));
        assert!(s.is_crashed(NodeId(2), Time::from_secs(5)));
        assert!(s.is_crashed(NodeId(2), Time::from_millis(7_999)));
        assert!(!s.is_crashed(NodeId(2), Time::from_secs(8)));
        assert!(!s.is_crashed(NodeId(2), Time::from_secs(100)));
        // A plain crash stays down forever.
        assert!(s.is_crashed(NodeId(1), Time::from_secs(100)));
        assert_eq!(s.crashed_nodes(), vec![NodeId(1), NodeId(2)]);
        assert_eq!(s.restarts(), vec![(NodeId(2), Time::from_secs(8))]);
        assert!(CrashSchedule::none().restarts().is_empty());
    }

    #[test]
    fn partition_blocks_cross_group_node_traffic_only() {
        let p = Partition {
            group_a: vec![NodeId(0), NodeId(1)],
            group_b: vec![NodeId(2), NodeId(3)],
            from: Time::from_secs(1),
            until: Time::from_secs(2),
        };
        let a = Addr::Node(NodeId(0));
        let b = Addr::Node(NodeId(2));
        assert!(!p.blocks(a, b, Time::from_millis(500)));
        assert!(p.blocks(a, b, Time::from_millis(1500)));
        assert!(p.blocks(b, a, Time::from_millis(1500)));
        assert!(!p.blocks(a, b, Time::from_secs(2)));
        // Same-group traffic unaffected.
        assert!(!p.blocks(a, Addr::Node(NodeId(1)), Time::from_millis(1500)));
        // Client traffic unaffected.
        assert!(!p.blocks(
            a,
            Addr::Client(iss_types::ClientId(0)),
            Time::from_millis(1500)
        ));
    }

    #[test]
    fn fault_config_combines_sources() {
        let cfg = FaultConfig {
            crashes: CrashSchedule::none().crash(NodeId(1), Time::from_secs(5)),
            partitions: vec![Partition {
                group_a: vec![NodeId(0)],
                group_b: vec![NodeId(2)],
                from: Time::ZERO,
                until: Time::from_secs(1),
            }],
            // Pre-GST loss: a window from zero to GST at 3 s.
            loss_windows: vec![LossWindow {
                probability: 0.1,
                from: Time::ZERO,
                until: Time::from_secs(3),
            }],
        };
        assert!(cfg.drops(
            Addr::Node(NodeId(1)),
            Addr::Node(NodeId(0)),
            Time::from_secs(6)
        ));
        assert!(cfg.drops(
            Addr::Node(NodeId(0)),
            Addr::Node(NodeId(1)),
            Time::from_secs(6)
        ));
        assert!(cfg.drops(
            Addr::Node(NodeId(0)),
            Addr::Node(NodeId(2)),
            Time::from_millis(500)
        ));
        assert!(!cfg.drops(
            Addr::Node(NodeId(0)),
            Addr::Node(NodeId(2)),
            Time::from_secs(2)
        ));
        assert!(cfg.lossy_at(Time::from_secs(1)));
        assert!(!cfg.lossy_at(Time::from_secs(4)));
        assert!(!FaultConfig::none().drops(
            Addr::Node(NodeId(0)),
            Addr::Node(NodeId(1)),
            Time::ZERO
        ));
    }

    #[test]
    fn loss_windows_bound_probabilistic_loss_in_time() {
        let cfg = FaultConfig {
            loss_windows: vec![
                LossWindow {
                    probability: 0.2,
                    from: Time::from_secs(2),
                    until: Time::from_secs(5),
                },
                LossWindow {
                    probability: 0.6,
                    from: Time::from_secs(4),
                    until: Time::from_secs(6),
                },
            ],
            ..FaultConfig::none()
        };
        assert!(!cfg.lossy_at(Time::from_secs(1)));
        assert!(cfg.lossy_at(Time::from_secs(2)));
        assert!(cfg.lossy_at(Time::from_millis(5500)));
        assert!(!cfg.lossy_at(Time::from_secs(6)), "windows heal at `until`");
        assert_eq!(cfg.drop_probability(Time::from_secs(1)), 0.0);
        assert_eq!(cfg.drop_probability(Time::from_secs(3)), 0.2);
        // Overlap takes the worst window, not the product.
        assert_eq!(cfg.drop_probability(Time::from_millis(4500)), 0.6);
        assert_eq!(cfg.drop_probability(Time::from_millis(5500)), 0.6);
    }

    #[test]
    fn loss_windows_combine_with_pre_gst_loss() {
        let cfg = FaultConfig {
            loss_windows: vec![
                // Pre-GST loss: a window from zero to GST at 3 s.
                LossWindow {
                    probability: 0.5,
                    from: Time::ZERO,
                    until: Time::from_secs(3),
                },
                LossWindow {
                    probability: 0.1,
                    from: Time::from_secs(2),
                    until: Time::from_secs(10),
                },
            ],
            ..FaultConfig::none()
        };
        // Before GST the stronger pre-GST probability wins.
        assert_eq!(cfg.drop_probability(Time::from_millis(2500)), 0.5);
        // After GST only the window applies.
        assert_eq!(cfg.drop_probability(Time::from_secs(5)), 0.1);
        assert!(cfg.lossy_at(Time::from_secs(5)));
    }
}
