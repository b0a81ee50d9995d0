//! Logical messages exchanged over the simulated network.
//!
//! Algorithms do not serialise real byte buffers; instead they describe *what* a message
//! carries (how many data tuples, how many control entries) and the substrate converts
//! that description into bytes, airtime and energy through the
//! [`crate::radio::RadioModel`]; the algorithm phase it belongs to is passed to
//! [`crate::sim::Network::send`] next to it.  Keeping messages symbolic makes the
//! accounting exact and the algorithms easy to audit against their published
//! pseudo-code.
//!
//! [`Message`] is the *single-hop, single-payload* unit.  Per-epoch report traffic
//! should not construct report messages directly: the preferred entry point is
//! [`crate::sim::Network::send_report_up`], behind which the frame scheduler
//! ([`crate::schedule`]) can merge **all** sessions' reports for a hop into one frame
//! per epoch.  Constructing report messages by hand bypasses that merging and pays the
//! full per-session overhead.

use crate::types::{Epoch, NodeId};
use serde::{Deserialize, Serialize};

/// A single-hop logical message.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Message {
    /// Sender of this hop.
    pub from: NodeId,
    /// Receiver of this hop (parent for upstream traffic, child for downstream).
    pub to: NodeId,
    /// Epoch the message belongs to.
    pub epoch: Epoch,
    /// Number of data (result) tuples carried.
    pub data_tuples: u32,
    /// Number of control entries carried (thresholds, candidate ids, filter bounds).
    pub control_tuples: u32,
}

impl Message {
    /// Creates a data report of `tuples` tuples from `from` to `to`.
    pub fn data(from: NodeId, to: NodeId, epoch: Epoch, tuples: u32) -> Self {
        Self { from, to, epoch, data_tuples: tuples, control_tuples: 0 }
    }
}
