//! Messages of the Mir-BFT-style baseline (`iss_core::Mode::Mir`).
//!
//! Mir-BFT multiplexes PBFT instances like ISS but relies on an *epoch
//! primary* and a stop-the-world epoch change (Section 7 and the comparison
//! in Section 6.4.1). Ordering reuses the ISS SB messages; the only message
//! of its own is the primary's epoch announcement.

use crate::{DIGEST_WIRE, HEADER_WIRE};
use iss_types::EpochNr;

/// Mir-BFT baseline messages.
#[derive(Clone, Debug, PartialEq)]
pub enum MirMsg {
    /// The epoch primary announces the configuration of the next epoch.
    NewEpoch {
        /// The new epoch.
        epoch: EpochNr,
        /// Digest of the epoch configuration (leaders, buckets).
        config_digest: [u8; 32],
    },
}

impl MirMsg {
    /// Approximate size of the message on the wire.
    pub fn wire_size(&self) -> usize {
        match self {
            MirMsg::NewEpoch { .. } => HEADER_WIRE + 8 + DIGEST_WIRE,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_change_messages_small() {
        assert!(
            MirMsg::NewEpoch {
                epoch: 2,
                config_digest: [0; 32]
            }
            .wire_size()
                < 100
        );
    }
}
