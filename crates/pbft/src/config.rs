//! PBFT instance configuration.

use iss_types::Duration;

/// Tunables of one PBFT SB instance.
#[derive(Clone, Copy, Debug)]
pub struct PbftConfig {
    /// Time without any commit after which a follower starts a view change
    /// (Section 6.4 uses 10 s).
    pub view_change_timeout: Duration,
    /// Whether votes that arrive before their slot's pre-prepare are
    /// buffered and replayed instead of dropped (see `EarlyVote` in
    /// `instance.rs`). On by default — required for transports without
    /// cross-peer ordering; the simulator presets opt out via
    /// `IssConfig::buffer_early_votes` to keep recorded baselines stable.
    pub buffer_early_votes: bool,
}

impl Default for PbftConfig {
    fn default() -> Self {
        PbftConfig {
            view_change_timeout: Duration::from_secs(10),
            buffer_early_votes: true,
        }
    }
}

impl PbftConfig {
    /// Configuration with a custom view-change timeout.
    pub fn with_timeout(timeout: Duration) -> Self {
        PbftConfig {
            view_change_timeout: timeout,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = PbftConfig::default();
        assert_eq!(c.view_change_timeout, Duration::from_secs(10));
        assert!(c.buffer_early_votes);
    }

    #[test]
    fn with_timeout_overrides() {
        let c = PbftConfig::with_timeout(Duration::from_secs(1));
        assert_eq!(c.view_change_timeout, Duration::from_secs(1));
    }
}
