//! Logical messages exchanged over the simulated network.
//!
//! Algorithms do not serialise real byte buffers; instead they describe *what* a message
//! carries (how many data tuples, how many control entries, which algorithm phase it
//! belongs to) and the substrate converts that description into bytes, airtime and
//! energy through the [`crate::radio::RadioModel`].  Keeping messages symbolic makes the
//! accounting exact and the algorithms easy to audit against their published
//! pseudo-code.
//!
//! [`Message`] is the *single-hop, single-payload* unit.  Per-epoch report traffic
//! should not construct `DataReport` messages directly: the preferred entry point is
//! [`crate::sim::Network::send_report_up`], behind which the frame scheduler
//! ([`crate::schedule`]) can merge **all** sessions' reports for a hop into one frame
//! per epoch.  Constructing report messages by hand bypasses that merging and pays the
//! full per-session overhead.

use crate::types::{Epoch, NodeId};
use serde::{Deserialize, Serialize};

/// The role a message plays in the executing algorithm.
///
/// The [`crate::metrics::PhaseTag`] recorded with every transmission is derived from the
/// kind, letting the System Panel break savings down per phase (e.g. how much of TJA's
/// traffic is Lower-Bound vs Hierarchical-Join vs Clean-Up).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MessageKind {
    /// Query dissemination (flooding the SQL query / epoch schedule down the tree).
    QueryDissemination,
    /// A per-epoch data report travelling towards the sink (TAG partial aggregates,
    /// MINT view updates, raw tuples of the centralized baseline).  Under frame
    /// batching one on-air report frame carries *several* sessions' payload slices at
    /// once (see [`crate::schedule`]); enter report traffic through
    /// [`crate::sim::Network::send_report_up`] rather than building these by hand, so
    /// the scheduler can do that merging.
    DataReport,
    /// A threshold, filter bound or candidate list broadcast from the sink down the tree
    /// (MINT's `γ`/threshold dissemination, TJA's `L_sink`, FILA filter updates).
    ControlBroadcast,
    /// A targeted request from the sink for additional tuples (MINT probe, TJA clean-up
    /// pull, TPUT phase-3 fetch).
    Probe,
    /// A reply to a probe travelling back to the sink.
    ProbeReply,
}

impl MessageKind {
    /// True for traffic that flows towards the sink.
    pub fn is_upstream(self) -> bool {
        matches!(self, MessageKind::DataReport | MessageKind::ProbeReply)
    }

    /// True for traffic that flows away from the sink.
    pub fn is_downstream(self) -> bool {
        !self.is_upstream()
    }
}

/// A single-hop logical message.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Message {
    /// Sender of this hop.
    pub from: NodeId,
    /// Receiver of this hop (parent for upstream traffic, child for downstream).
    pub to: NodeId,
    /// Epoch the message belongs to.
    pub epoch: Epoch,
    /// What the message is for.
    pub kind: MessageKind,
    /// Number of data (result) tuples carried.
    pub data_tuples: u32,
    /// Number of control entries carried (thresholds, candidate ids, filter bounds).
    pub control_tuples: u32,
}

impl Message {
    /// Creates a data report of `tuples` tuples from `from` to `to`.
    pub fn data(from: NodeId, to: NodeId, epoch: Epoch, tuples: u32) -> Self {
        Self { from, to, epoch, kind: MessageKind::DataReport, data_tuples: tuples, control_tuples: 0 }
    }

    /// Creates a control broadcast of `entries` control entries.
    pub fn control(from: NodeId, to: NodeId, epoch: Epoch, entries: u32) -> Self {
        Self {
            from,
            to,
            epoch,
            kind: MessageKind::ControlBroadcast,
            data_tuples: 0,
            control_tuples: entries,
        }
    }

    /// Creates a query-dissemination message of `entries` control entries.
    pub fn query(from: NodeId, to: NodeId, entries: u32) -> Self {
        Self {
            from,
            to,
            epoch: 0,
            kind: MessageKind::QueryDissemination,
            data_tuples: 0,
            control_tuples: entries,
        }
    }

    /// Creates a probe request for `entries` identifiers.
    pub fn probe(from: NodeId, to: NodeId, epoch: Epoch, entries: u32) -> Self {
        Self { from, to, epoch, kind: MessageKind::Probe, data_tuples: 0, control_tuples: entries }
    }

    /// Total logical entries carried (data + control).
    pub fn entries(&self) -> u32 {
        self.data_tuples + self.control_tuples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_the_right_kind() {
        assert_eq!(Message::data(3, 1, 5, 2).kind, MessageKind::DataReport);
        assert_eq!(Message::control(0, 3, 5, 1).kind, MessageKind::ControlBroadcast);
        assert_eq!(Message::query(0, 3, 4).kind, MessageKind::QueryDissemination);
        assert_eq!(Message::probe(0, 3, 5, 1).kind, MessageKind::Probe);
    }

    #[test]
    fn upstream_downstream_classification() {
        assert!(MessageKind::DataReport.is_upstream());
        assert!(MessageKind::ProbeReply.is_upstream());
        assert!(MessageKind::QueryDissemination.is_downstream());
        assert!(MessageKind::ControlBroadcast.is_downstream());
        assert!(MessageKind::Probe.is_downstream());
    }

    #[test]
    fn entries_sums_data_and_control() {
        let mut m = Message::data(1, 0, 0, 3);
        m.control_tuples = 2;
        assert_eq!(m.entries(), 5);
    }
}
