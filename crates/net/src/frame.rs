//! Link-level frames.
//!
//! The reliable channel exchanges two kinds of frames: `Data` (a sequenced,
//! encoded [`demos_types::Message`]) and `Ack` (cumulative). Frame overhead
//! is part of the byte counts the network statistics report, so frames have
//! a byte-exact encoding like everything else.
//!
//! `Data` frames additionally carry [`FrameMeta`] — the correlation id of
//! the message inside and a retransmission marker — *alongside* the wire
//! image: the metadata is never encoded, never counted in [`Frame::wire_size`],
//! and never compared, so tracing cannot change any measured byte count.

use bytes::{Buf, BufMut, Bytes};
use demos_types::wire::{self, Wire, WireError};
use demos_types::CorrId;

/// Out-of-band per-frame metadata for the observability layer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrameMeta {
    /// Correlation id of the encoded message ([`CorrId::NONE`] when the
    /// sender predates tracing, e.g. hand-built test frames).
    pub corr: CorrId,
    /// Whether this transmission is a retransmission of an earlier frame.
    pub retx: bool,
}

impl FrameMeta {
    /// Metadata for a first transmission of a message with id `corr`.
    pub fn new(corr: CorrId) -> FrameMeta {
        FrameMeta { corr, retx: false }
    }

    /// The same frame, marked as a retransmission.
    pub fn retransmission(self) -> FrameMeta {
        FrameMeta { retx: true, ..self }
    }
}

/// A link-level frame between two machines.
#[derive(Clone, Eq, Debug)]
pub enum Frame {
    /// Sequenced message bytes.
    Data {
        /// Connection incarnation of the sender's channel to the
        /// destination. Bumped each time the channel is reset (peer
        /// reboot); a frame whose epoch differs from the receiver's is a
        /// straggler from a dead incarnation and must not enter the
        /// current sequence space.
        epoch: u32,
        /// Channel sequence number (per source-destination pair).
        seq: u64,
        /// One encoded [`demos_types::Message`].
        payload: Bytes,
        /// Tracing metadata carried alongside the wire image (not
        /// encoded, not part of equality or [`Frame::wire_size`]).
        meta: FrameMeta,
    },
    /// Cumulative acknowledgement: every `Data` with `seq <= cum` has been
    /// received.
    Ack {
        /// Connection incarnation this ack belongs to (see
        /// [`Frame::Data::epoch`]).
        epoch: u32,
        /// Highest in-order sequence received.
        cum: u64,
    },
}

impl PartialEq for Frame {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (
                Frame::Data {
                    epoch: ea,
                    seq: a,
                    payload: p,
                    ..
                },
                Frame::Data {
                    epoch: eb,
                    seq: b,
                    payload: q,
                    ..
                },
            ) => ea == eb && a == b && p == q,
            (Frame::Ack { epoch: ea, cum: a }, Frame::Ack { epoch: eb, cum: b }) => {
                ea == eb && a == b
            }
            (Frame::Data { .. }, Frame::Ack { .. }) | (Frame::Ack { .. }, Frame::Data { .. }) => {
                false
            }
        }
    }
}

impl Frame {
    /// A data frame on the first connection incarnation with default
    /// (untraced) metadata — test fixtures and callers that predate
    /// tracing.
    pub fn data(seq: u64, payload: Bytes) -> Frame {
        Frame::Data {
            epoch: 0,
            seq,
            payload,
            meta: FrameMeta::default(),
        }
    }

    /// Size the physical network charges for this frame.
    pub fn wire_size(&self) -> usize {
        match self {
            Frame::Data { payload, .. } => 1 + 4 + 8 + 4 + payload.len(),
            Frame::Ack { .. } => 1 + 4 + 8,
        }
    }

    /// Whether this is an `Ack`.
    pub fn is_ack(&self) -> bool {
        matches!(self, Frame::Ack { .. })
    }

    /// The connection incarnation this frame was sent on.
    pub fn epoch(&self) -> u32 {
        match self {
            Frame::Data { epoch, .. } | Frame::Ack { epoch, .. } => *epoch,
        }
    }

    /// This frame's tracing metadata (`None` for acks).
    pub fn meta(&self) -> Option<FrameMeta> {
        match self {
            Frame::Data { meta, .. } => Some(*meta),
            Frame::Ack { .. } => None,
        }
    }
}

impl Wire for Frame {
    fn encode(&self, buf: &mut impl BufMut) {
        match self {
            Frame::Data {
                epoch,
                seq,
                payload,
                ..
            } => {
                buf.put_u8(1);
                buf.put_u32(*epoch);
                buf.put_u64(*seq);
                wire::put_bytes(buf, payload);
            }
            Frame::Ack { epoch, cum } => {
                buf.put_u8(2);
                buf.put_u32(*epoch);
                buf.put_u64(*cum);
            }
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        if buf.remaining() < 13 {
            return Err(WireError::Truncated("Frame"));
        }
        let tag = buf.get_u8();
        match tag {
            1 => {
                let epoch = buf.get_u32();
                let seq = buf.get_u64();
                let payload = wire::get_bytes(buf, "Frame.payload", 1 << 20)?;
                Ok(Frame::Data {
                    epoch,
                    seq,
                    payload,
                    meta: FrameMeta::default(),
                })
            }
            2 => Ok(Frame::Ack {
                epoch: buf.get_u32(),
                cum: buf.get_u64(),
            }),
            _ => Err(WireError::BadTag {
                what: "Frame",
                tag: u16::from(tag),
            }),
        }
    }

    fn wire_len(&self) -> usize {
        self.wire_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use demos_types::wire::roundtrip;
    use demos_types::MachineId;

    #[test]
    fn data_roundtrip() {
        let f = Frame::data(42, Bytes::from_static(b"msg"));
        assert_eq!(roundtrip(&f).unwrap(), f);
        assert_eq!(f.wire_size(), f.to_bytes().len());
        assert!(!f.is_ack());
    }

    #[test]
    fn ack_roundtrip() {
        let f = Frame::Ack { epoch: 3, cum: 7 };
        assert_eq!(roundtrip(&f).unwrap(), f);
        assert_eq!(f.wire_size(), 13);
        assert!(f.is_ack());
    }

    #[test]
    fn bad_tag() {
        let mut b = Bytes::from_static(&[9u8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert!(Frame::decode(&mut b).is_err());
    }

    #[test]
    fn epoch_is_part_of_the_wire_image() {
        let old = Frame::data(1, Bytes::from_static(b"msg"));
        let new = Frame::Data {
            epoch: 1,
            seq: 1,
            payload: Bytes::from_static(b"msg"),
            meta: FrameMeta::default(),
        };
        assert_ne!(old, new, "same seq on different incarnations differs");
        assert_ne!(old.to_bytes(), new.to_bytes());
        assert_eq!(roundtrip(&new).unwrap(), new);
    }

    #[test]
    fn meta_rides_outside_the_wire_image() {
        let corr = CorrId::new(MachineId(2), 9);
        let tagged = Frame::Data {
            epoch: 0,
            seq: 1,
            payload: Bytes::from_static(b"msg"),
            meta: FrameMeta::new(corr).retransmission(),
        };
        let plain = Frame::data(1, Bytes::from_static(b"msg"));
        // Same wire bytes, same size, equal — metadata is out of band.
        assert_eq!(tagged.to_bytes(), plain.to_bytes());
        assert_eq!(tagged.wire_size(), plain.wire_size());
        assert_eq!(tagged, plain);
        assert_eq!(tagged.meta(), Some(FrameMeta { corr, retx: true }));
        // Decoding yields default metadata: re-attachment is the
        // receiver's transport's job.
        assert_eq!(
            roundtrip(&tagged).unwrap().meta(),
            Some(FrameMeta::default())
        );
        assert_eq!(Frame::Ack { epoch: 0, cum: 0 }.meta(), None);
    }
}
