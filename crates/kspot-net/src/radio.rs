//! The radio cost model.
//!
//! KSpot's demo hardware is the MICA2 mote whose CC1000 radio transmits at 38.4 kbit/s.
//! What the System Panel reports — and what the top-k algorithms are designed to
//! minimise — is the number of messages and the number of payload bytes that cross the
//! air.  [`RadioModel`] turns "a node sends `t` tuples to its parent" into a byte count
//! and a transmission time.  Whether a transmission is lost is the fault plan's
//! business ([`crate::fault::FaultPlan`]), not the radio's.

use serde::{Deserialize, Serialize};

/// Byte/packet-level parameters of the simulated radio.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RadioModel {
    /// Fixed per-*frame* overhead in bytes, paid exactly once per logical transmission
    /// regardless of how many physical packets it fragments into: the radio preamble
    /// and synchronisation bytes the receiver needs to lock onto the carrier.  This is
    /// the cost the frame scheduler ([`crate::schedule`]) amortises when it merges
    /// several sessions' reports into one frame — N separate reports pay N preambles,
    /// one merged frame pays one.
    pub frame_overhead_bytes: u32,
    /// Fixed per-message header overhead in bytes (TinyOS Active Message header, CRC,
    /// routing metadata).
    pub header_bytes: u32,
    /// Payload bytes consumed by a single result tuple (group id, aggregate state,
    /// descriptor fields).
    pub tuple_bytes: u32,
    /// Payload bytes of a control tuple (threshold, filter bound, probe id).
    pub control_bytes: u32,
    /// Maximum payload bytes per physical packet; larger logical messages are
    /// fragmented and each fragment pays the header again (TinyOS packets carry at most
    /// 29 payload bytes by default).
    pub max_payload_bytes: u32,
}

impl RadioModel {
    /// The MICA2 / CC1000 model used by all experiments unless stated otherwise.
    pub fn mica2() -> Self {
        Self {
            frame_overhead_bytes: 8,
            header_bytes: 7,
            tuple_bytes: 12,
            control_bytes: 6,
            max_payload_bytes: 29,
        }
    }

    /// An idealised radio without header overhead or fragmentation; useful in unit
    /// tests that want byte counts proportional to tuple counts.
    pub fn ideal() -> Self {
        Self {
            frame_overhead_bytes: 0,
            header_bytes: 0,
            tuple_bytes: 1,
            control_bytes: 1,
            max_payload_bytes: u32::MAX,
        }
    }

    /// Payload size in bytes of a message carrying `data_tuples` result tuples and
    /// `control_tuples` control entries.
    pub fn payload_bytes(&self, data_tuples: u32, control_tuples: u32) -> u32 {
        data_tuples * self.tuple_bytes + control_tuples * self.control_bytes
    }

    /// Number of physical packets needed for a payload of `payload` bytes.  Even an
    /// empty payload (a pure beacon / acknowledgement) costs one packet.
    pub fn packets_for(&self, payload: u32) -> u32 {
        if payload == 0 {
            1
        } else {
            payload.div_ceil(self.max_payload_bytes.max(1))
        }
    }

    /// Total on-air bytes for a payload of `payload` bytes transmitted as **one**
    /// frame: the per-frame preamble, one packet header per physical fragment, and the
    /// payload itself.
    pub fn on_air_bytes(&self, payload: u32) -> u32 {
        self.frame_overhead_bytes + self.packets_for(payload) * self.header_bytes + payload
    }
}

impl Default for RadioModel {
    fn default() -> Self {
        Self::mica2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mica2_defaults_are_sane() {
        let r = RadioModel::mica2();
        assert!(r.header_bytes > 0);
        assert!(r.tuple_bytes > r.control_bytes);
    }

    #[test]
    fn payload_combines_data_and_control_tuples() {
        let r = RadioModel::mica2();
        assert_eq!(r.payload_bytes(0, 0), 0);
        assert_eq!(r.payload_bytes(3, 0), 36);
        assert_eq!(r.payload_bytes(3, 2), 48);
    }

    #[test]
    fn empty_message_still_costs_one_packet() {
        let r = RadioModel::mica2();
        assert_eq!(r.packets_for(0), 1);
        assert_eq!(r.on_air_bytes(0), 8 + 7, "preamble + one packet header");
    }

    #[test]
    fn fragmentation_pays_header_per_packet_but_one_preamble() {
        let r = RadioModel::mica2();
        // 5 tuples = 60 bytes > 29-byte packets → 3 packets, still one frame.
        let payload = r.payload_bytes(5, 0);
        assert_eq!(r.packets_for(payload), 3);
        assert_eq!(r.on_air_bytes(payload), 8 + 3 * 7 + 60);
    }

    #[test]
    fn one_merged_frame_is_never_dearer_than_separate_frames() {
        let r = RadioModel::mica2();
        for (a, b) in [(1u32, 1u32), (1, 3), (2, 2), (5, 7), (0, 4)] {
            let merged = r.on_air_bytes(r.payload_bytes(a + b, 0));
            let separate =
                r.on_air_bytes(r.payload_bytes(a, 0)) + r.on_air_bytes(r.payload_bytes(b, 0));
            assert!(
                merged < separate,
                "merging {a}+{b} tuples must save at least a preamble: {merged} vs {separate}"
            );
        }
    }

    #[test]
    fn ideal_radio_counts_tuples_as_bytes() {
        let r = RadioModel::ideal();
        assert_eq!(r.on_air_bytes(r.payload_bytes(5, 0)), 5);
        assert_eq!(r.packets_for(5), 1);
    }
}
