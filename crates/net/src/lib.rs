//! Minimal network substrate for the smart NIC.
//!
//! The paper's end-to-end example (§3) exposes a key-value service "to other
//! machines over the network"; the clients that drive the E2/E3 experiments
//! live on the far side of this substrate. It models exactly what those
//! experiments need and nothing more: ports on a store-and-forward switch,
//! per-egress-port line-rate serialization (so congestion and antagonist
//! interference are real), and fixed propagation delay.
//!
//! Timing is computed by the switch but *applied* by the host simulator:
//! [`Switch::route`] returns `(port, deliver_at)` pairs which the caller
//! turns into scheduled events.

#![forbid(unsafe_code)]

pub mod switch;

pub use lastcpu_sim::pool::{BufPool, Bytes};
pub use switch::{NetCostModel, PortId, Switch, SwitchStats};

/// Fixed per-frame header overhead on the wire, in bytes: an Ethernet-ish
/// header (dst/src addresses + ethertype) plus the frame check sequence.
///
/// Every component that accounts for frame bytes — [`Frame::wire_len`], the
/// switch's byte counters, [`NetCostModel::serialize_frame`], and the
/// rack fabric's inter-machine links — shares this constant, so changing
/// the modeled header cost cannot desynchronize the cost model from the
/// accounting.
pub const FRAME_OVERHEAD_BYTES: u64 = 18;

/// A network frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Sending port.
    pub src: PortId,
    /// Destination port, or [`PortId::BROADCAST`].
    pub dst: PortId,
    /// Payload bytes (the emulator does not model L2 headers beyond the
    /// fixed per-frame overhead in the cost model). Possibly pool-backed
    /// ([`Bytes`]): the zero-alloc delivery path serializes into a buffer
    /// drawn from the sender's [`BufPool`] and the storage returns to that
    /// pool when the frame is decoded and dropped at the receiver.
    pub payload: Bytes,
}

impl Frame {
    /// Creates a unicast frame. Accepts a plain `Vec<u8>` or a pooled
    /// [`Bytes`] payload.
    pub fn unicast(src: PortId, dst: PortId, payload: impl Into<Bytes>) -> Self {
        Frame {
            src,
            dst,
            payload: payload.into(),
        }
    }

    /// On-wire length in bytes (payload + [`FRAME_OVERHEAD_BYTES`]).
    pub fn wire_len(&self) -> u64 {
        self.payload.len() as u64 + FRAME_OVERHEAD_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_len_includes_header() {
        let f = Frame::unicast(PortId(1), PortId(2), vec![0; 100]);
        assert_eq!(f.wire_len(), 100 + FRAME_OVERHEAD_BYTES);
        assert_eq!(f.wire_len(), 118, "regression: 18-byte header + FCS");
    }

    #[test]
    fn empty_frame_still_pays_header() {
        let f = Frame::unicast(PortId(1), PortId(2), Vec::new());
        assert_eq!(f.wire_len(), FRAME_OVERHEAD_BYTES);
    }

    #[test]
    fn cost_model_serialize_frame_matches_wire_len() {
        // Regression for the shared-constant contract: serializing "a frame
        // of payload length L" through the cost model must charge exactly
        // the bytes `wire_len` reports, for payloads across the varint /
        // jumbo range.
        let cost = NetCostModel::default();
        for len in [0usize, 1, 63, 64, 1500, 9000] {
            let f = Frame::unicast(PortId(1), PortId(2), vec![0; len]);
            assert_eq!(
                cost.serialize_frame(len as u64),
                cost.serialize(f.wire_len()),
                "payload len {len}"
            );
        }
    }
}
