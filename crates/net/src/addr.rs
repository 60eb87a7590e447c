//! Node and port addressing.
//!
//! Isis addressed processes with opaque "Isis addresses" (§5: "a list of the
//! Isis addresses of the least loaded processors"). We reproduce that with a
//! `(node, port)` pair: a [`NodeId`] names a machine, a [`PortId`] names a
//! software endpoint on it (daemon, executor, a task's channel port, ...).
//!
//! On the wire both numbers are uvarints: an `Addr` is 2 bytes for a
//! well-known port on one of the first 128 machines, 3 for a dynamic port,
//! 10 at worst (docs/PROTOCOL.md § Framing).

use std::fmt;

use vce_codec::{uvarint_len, Codec, Decoder, Encoder, Result};

/// Identifies one machine participating in the VCE network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Identifies a software endpoint on a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PortId(pub u32);

impl PortId {
    /// The per-machine scheduling/dispatching daemon (paper §5).
    pub const DAEMON: PortId = PortId(0);
    /// The group-leader role endpoint (co-located with a daemon).
    pub const LEADER: PortId = PortId(1);
    /// The user's execution program.
    pub const EXECUTOR: PortId = PortId(2);
    /// First port number available for dynamically created task ports.
    pub const DYNAMIC_BASE: PortId = PortId(1000);

    /// True if this is a runtime-allocated (task/channel) port rather than a
    /// well-known service port.
    pub fn is_dynamic(self) -> bool {
        self.0 >= Self::DYNAMIC_BASE.0
    }
}

/// A full endpoint address: machine plus endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Addr {
    /// The machine.
    pub node: NodeId,
    /// The endpoint on that machine.
    pub port: PortId,
}

impl Addr {
    /// Construct an address.
    pub fn new(node: NodeId, port: PortId) -> Self {
        Self { node, port }
    }

    /// The daemon endpoint on `node`.
    pub fn daemon(node: NodeId) -> Self {
        Self::new(node, PortId::DAEMON)
    }

    /// The leader endpoint on `node`.
    pub fn leader(node: NodeId) -> Self {
        Self::new(node, PortId::LEADER)
    }

    /// The executor endpoint on `node`.
    pub fn executor(node: NodeId) -> Self {
        Self::new(node, PortId::EXECUTOR)
    }

    /// Bytes this address's `Codec` writes.
    pub(crate) fn wire_len(self) -> usize {
        uvarint_len(u64::from(self.node.0)) + uvarint_len(u64::from(self.port.0))
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.port {
            PortId::DAEMON => write!(f, "{}:daemon", self.node),
            PortId::LEADER => write!(f, "{}:leader", self.node),
            PortId::EXECUTOR => write!(f, "{}:exec", self.node),
            PortId(p) => write!(f, "{}:p{}", self.node, p),
        }
    }
}

impl Codec for NodeId {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_uvarint(u64::from(self.0));
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(NodeId(dec.get_uvarint_as("NodeId")?))
    }
}

impl Codec for PortId {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_uvarint(u64::from(self.0));
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(PortId(dec.get_uvarint_as("PortId")?))
    }
}

impl Codec for Addr {
    fn encode(&self, enc: &mut Encoder) {
        self.node.encode(enc);
        self.port.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(Addr {
            node: NodeId::decode(dec)?,
            port: PortId::decode(dec)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vce_codec::{from_bytes, to_bytes};

    #[test]
    fn well_known_ports_are_distinct() {
        assert_ne!(PortId::DAEMON, PortId::LEADER);
        assert_ne!(PortId::LEADER, PortId::EXECUTOR);
        assert!(!PortId::DAEMON.is_dynamic());
        assert!(PortId(1000).is_dynamic());
        assert!(PortId(5000).is_dynamic());
    }

    #[test]
    fn addr_constructors() {
        let n = NodeId(7);
        assert_eq!(Addr::daemon(n).port, PortId::DAEMON);
        assert_eq!(Addr::leader(n).port, PortId::LEADER);
        assert_eq!(Addr::executor(n).port, PortId::EXECUTOR);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Addr::daemon(NodeId(3)).to_string(), "n3:daemon");
        assert_eq!(Addr::new(NodeId(3), PortId(1234)).to_string(), "n3:p1234");
    }

    #[test]
    fn codec_round_trip() {
        let a = Addr::new(NodeId(42), PortId(1001));
        assert_eq!(from_bytes::<Addr>(&to_bytes(&a)).unwrap(), a);
    }

    #[test]
    fn wire_form_is_two_uvarints_and_refuses_past_u32() {
        assert_eq!(to_bytes(&Addr::leader(NodeId(13))), [13, 1]);
        for a in [
            Addr::new(NodeId(128), PortId::DYNAMIC_BASE),
            Addr::new(NodeId(u32::MAX), PortId(u32::MAX)),
        ] {
            let wire = to_bytes(&a);
            assert_eq!(wire.len(), a.wire_len());
            assert_eq!(from_bytes::<Addr>(&wire).unwrap(), a);
        }
        // u32::MAX + 1 as a uvarint, in either position.
        let past = [0x80, 0x80, 0x80, 0x80, 0x10];
        assert!(from_bytes::<NodeId>(&past).is_err());
        assert!(from_bytes::<PortId>(&past).is_err());
        assert!(from_bytes::<Addr>(&[&[0][..], &past].concat()).is_err());
    }

    #[test]
    fn ordering_is_by_node_then_port() {
        let a = Addr::new(NodeId(1), PortId(9));
        let b = Addr::new(NodeId(2), PortId(0));
        assert!(a < b);
    }
}
