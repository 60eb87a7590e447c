//! The message envelope carried by every transport.

use bytes::Bytes;
use vce_codec::{uvarint_len, Codec, Decoder, Encoder, Result};

use crate::addr::Addr;

/// A routed message: source, destination, sequence number and an opaque
/// payload.
///
/// The payload is already in architecture-independent form (encoded with
/// `vce-codec` by the protocol layer); transports never inspect it. The
/// sequence number is assigned per *sender endpoint* and is what FIFO
/// ordering in `vce-isis` is built from.
///
/// On the wire the header is four uvarint-built fields — `src`, `dst`
/// (two uvarints each), `seq`, payload length — then the payload: 6–7
/// bytes of header between daemons of a small fleet, 34 at worst
/// (docs/PROTOCOL.md § Framing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Sending endpoint.
    pub src: Addr,
    /// Receiving endpoint.
    pub dst: Addr,
    /// Per-sender monotone sequence number.
    pub seq: u64,
    /// Opaque encoded payload.
    pub payload: Bytes,
}

impl Envelope {
    /// Build an envelope around an already-encoded payload.
    pub fn new(src: Addr, dst: Addr, seq: u64, payload: impl Into<Bytes>) -> Self {
        Self {
            src,
            dst,
            seq,
            payload: payload.into(),
        }
    }

    /// Decode the payload as a `T`. The payload buffer is passed as the
    /// decoder's backing store, so nested byte fields (e.g. the payload
    /// inside an `IsisMsg::Cast`) decode as zero-copy sub-views of it.
    pub fn decode_payload<T: Codec>(&self) -> Result<T> {
        let mut dec = Decoder::with_backing(&self.payload);
        T::decode(&mut dec)
    }

    /// Decode a whole envelope from its wire buffer without copying the
    /// payload: where plain `Codec::decode` from a `&[u8]` copies the
    /// payload bytes out, this borrows them — the returned envelope's
    /// `payload` is a `slice_ref` sub-view sharing `buf`'s allocation.
    /// The buffer must contain exactly one envelope.
    pub fn decode_from(buf: &Bytes) -> Result<Self> {
        vce_codec::from_backing(buf)
    }

    /// Total size of the envelope on the (notional) wire: header + payload.
    /// Used by the simulator's bandwidth model and its [`crate::NetStats`].
    /// Exactly what the `Codec` writes, computed without encoding.
    pub fn wire_size(&self) -> usize {
        let len = self.payload.len();
        self.src.wire_len()
            + self.dst.wire_len()
            + uvarint_len(self.seq)
            + uvarint_len(len as u64)
            + len
    }
}

impl Codec for Envelope {
    fn encode(&self, enc: &mut Encoder) {
        self.src.encode(enc);
        self.dst.encode(enc);
        enc.put_uvarint(self.seq);
        enc.put_len_bytes(&self.payload);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(Envelope {
            src: Addr::decode(dec)?,
            dst: Addr::decode(dec)?,
            seq: dec.get_uvarint()?,
            // Zero-copy when the decoder has a backing buffer (see
            // `Envelope::decode_from`); copies otherwise.
            payload: dec.get_bytes()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{NodeId, PortId};
    use vce_codec::{from_bytes, to_bytes};

    fn sample() -> Envelope {
        Envelope::new(
            Addr::daemon(NodeId(1)),
            Addr::leader(NodeId(2)),
            7,
            to_bytes(&("bid".to_string(), 0.25f64)),
        )
    }

    #[test]
    fn payload_round_trip() {
        let env = sample();
        let (tag, load): (String, f64) = env.decode_payload().unwrap();
        assert_eq!(tag, "bid");
        assert_eq!(load, 0.25);
    }

    #[test]
    fn envelope_itself_is_codec() {
        let env = sample();
        let back: Envelope = from_bytes(&to_bytes(&env)).unwrap();
        assert_eq!(back, env);
    }

    #[test]
    fn wire_size_counts_header() {
        let env = Envelope::new(
            Addr::daemon(NodeId(0)),
            Addr::daemon(NodeId(1)),
            0,
            vec![0u8; 10],
        );
        // src(1+1) + dst(1+1) + seq(1) + len(1) + 10
        assert_eq!(env.wire_size(), 16);
        assert_eq!(to_bytes(&env).len(), 16);
    }

    #[test]
    fn decode_wrong_type_fails() {
        let env = sample();
        assert!(env.decode_payload::<Vec<u64>>().is_err());
    }

    #[test]
    fn decode_from_shares_the_wire_buffer() {
        // Payload large enough to be heap-backed (not inline in the
        // Bytes handle), so pointer identity proves sharing.
        let env = Envelope::new(
            Addr::daemon(NodeId(1)),
            Addr::daemon(NodeId(2)),
            3,
            (0u8..64).collect::<Vec<u8>>(),
        );
        let wire = Bytes::from(to_bytes(&env));
        let back = Envelope::decode_from(&wire).unwrap();
        assert_eq!(back, env);
        // Zero-copy: the decoded payload points into the wire buffer.
        let base = wire.as_ref().as_ptr() as usize;
        let sub = back.payload.as_ref().as_ptr() as usize;
        assert!(sub >= base && sub + back.payload.len() <= base + wire.len());
    }

    #[test]
    fn decode_from_rejects_trailing_garbage() {
        let env = sample();
        let mut wire = to_bytes(&env);
        wire.push(0);
        assert!(Envelope::decode_from(&Bytes::from(wire)).is_err());
    }

    #[test]
    fn dynamic_port_envelope() {
        let env = Envelope::new(
            Addr::new(NodeId(1), PortId(1001)),
            Addr::new(NodeId(2), PortId(1002)),
            1,
            Bytes::new(),
        );
        assert!(env.src.port.is_dynamic());
        // src(1+2) + dst(1+2) + seq(1) + len(1)
        assert_eq!(env.wire_size(), 8);
        assert_eq!(to_bytes(&env), [1, 0xe9, 0x07, 2, 0xea, 0x07, 1, 0]);
    }
}
