//! Membership views.

use std::fmt;

use vce_codec::{Codec, Decoder, Encoder, Result};
use vce_net::Addr;

/// One group member as recorded in a view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Member {
    /// The member's isis endpoint.
    pub addr: Addr,
    /// Seniority: assigned by the coordinator at admission, never reused.
    /// Smaller = older. The oldest member of a view is its coordinator.
    pub joined_seq: u64,
}

impl Codec for Member {
    fn encode(&self, enc: &mut Encoder) {
        self.addr.encode(enc);
        enc.put_uvarint(self.joined_seq);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(Member {
            addr: Addr::decode(dec)?,
            joined_seq: dec.get_uvarint()?,
        })
    }
}

/// An installed membership view: a numbered snapshot of who is in the group.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct View {
    /// Monotone view number (first installed view is 1).
    pub id: u64,
    /// Members sorted by (joined_seq, addr): index 0 is the coordinator.
    pub members: Vec<Member>,
}

impl View {
    /// Build a view, normalizing member order.
    pub fn new(id: u64, mut members: Vec<Member>) -> Self {
        members.sort_by_key(|m| (m.joined_seq, m.addr));
        members.dedup_by_key(|m| m.addr);
        Self { id, members }
    }

    /// The coordinator: the oldest surviving member (paper §5's takeover
    /// rule falls out of this definition applied to each new view).
    pub fn coordinator(&self) -> Option<Addr> {
        self.members.first().map(|m| m.addr)
    }

    /// Is `who` a member?
    pub fn contains(&self, who: Addr) -> bool {
        self.members.iter().any(|m| m.addr == who)
    }

    /// `who`'s rank (0 = coordinator), if a member.
    pub fn rank_of(&self, who: Addr) -> Option<usize> {
        self.members.iter().position(|m| m.addr == who)
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True for the (never-installed) empty view.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Member addresses in rank order.
    pub fn addrs(&self) -> impl Iterator<Item = Addr> + '_ {
        self.members.iter().map(|m| m.addr)
    }

    /// Largest joined_seq in the view (for the coordinator's admission
    /// counter).
    pub fn max_joined_seq(&self) -> u64 {
        self.members.iter().map(|m| m.joined_seq).max().unwrap_or(0)
    }
}

impl fmt::Display for View {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "view#{}{{", self.id)?;
        for (i, m) in self.members.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", m.addr)?;
        }
        write!(f, "}}")
    }
}

impl Codec for View {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_uvarint(self.id);
        self.members.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        let id = dec.get_uvarint()?;
        let members = Vec::<Member>::decode(dec)?;
        Ok(View::new(id, members))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vce_net::NodeId;

    fn m(n: u32, j: u64) -> Member {
        Member {
            addr: Addr::daemon(NodeId(n)),
            joined_seq: j,
        }
    }

    #[test]
    fn coordinator_is_oldest() {
        let v = View::new(1, vec![m(5, 2), m(3, 0), m(4, 1)]);
        assert_eq!(v.coordinator(), Some(Addr::daemon(NodeId(3))));
        assert_eq!(v.rank_of(Addr::daemon(NodeId(4))), Some(1));
        assert_eq!(v.rank_of(Addr::daemon(NodeId(9))), None);
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn seniority_tie_breaks_on_addr() {
        let v = View::new(1, vec![m(9, 0), m(2, 0)]);
        assert_eq!(v.coordinator(), Some(Addr::daemon(NodeId(2))));
    }

    #[test]
    fn dedup_by_addr() {
        let v = View::new(1, vec![m(1, 0), m(1, 5)]);
        assert_eq!(v.len(), 1);
        assert_eq!(v.members[0].joined_seq, 0);
    }

    #[test]
    fn empty_view() {
        let v = View::default();
        assert!(v.is_empty());
        assert_eq!(v.coordinator(), None);
        assert_eq!(v.max_joined_seq(), 0);
    }

    #[test]
    fn max_joined_seq_and_contains() {
        let v = View::new(2, vec![m(1, 0), m(2, 7)]);
        assert_eq!(v.max_joined_seq(), 7);
        assert!(v.contains(Addr::daemon(NodeId(2))));
        assert!(!v.contains(Addr::daemon(NodeId(3))));
    }

    #[test]
    fn codec_round_trip() {
        let v = View::new(4, vec![m(1, 0), m(2, 1), m(3, 2)]);
        let bytes = vce_codec::to_bytes(&v);
        assert_eq!(vce_codec::from_bytes::<View>(&bytes).unwrap(), v);
    }

    #[test]
    fn display() {
        let v = View::new(3, vec![m(1, 0)]);
        assert_eq!(v.to_string(), "view#3{n1:daemon}");
    }
}
