//! MPI over VCE channels — the mapping §4.2/§5 promises.
//!
//! > "The compilation manager will provide a number of different libraries
//! > that will map MPI to communication tools available in the system. In
//! > addition ... these libraries will provide the runtime manager with
//! > the ability to monitor, redirect, and move connections between
//! > tasks." — §4.2
//!
//! [`ChannelConduit`] implements the MPI [`PointToPoint`] transport on top
//! of a shared [`ChannelRegistry`]: every rank owns a registry *port* and a
//! mailbox at that port's location; sends look the destination port's
//! current location up **per message** and post `(rank, tag, bytes)` to the
//! mailbox there. Migrating a rank is therefore one
//! [`ChannelRegistry::move_port`] call (see [`ConduitWorld::migrate`]) —
//! in-flight communication pattern unchanged, exactly the redirection hook
//! process migration needs.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use vce_net::{Addr, NodeId, PortId as NetPort};

use crate::mpi::{PointToPoint, Rank};
use crate::registry::{ChannelId, ChannelRegistry, PortId, Role};

/// A message in flight: `(source rank, tag, bytes)`.
type Frame = (Rank, u64, Vec<u8>);

/// Per-(sender, tag) holdback of frames received out of matching order.
type Stash = HashMap<(Rank, u64), VecDeque<Vec<u8>>>;

/// Where each rank is and how to reach it there. One lock covers both, so
/// a send's lookup-and-post and a migration never interleave: every
/// location the registry names has its rank's mailbox.
struct Routes {
    registry: ChannelRegistry,
    mailboxes: HashMap<Addr, Sender<Frame>>,
}

/// Shared state of one conduit world: the registry, the rank→port map and
/// one mailbox per rank, keyed by the rank port's location.
pub struct ConduitWorld {
    routes: Mutex<Routes>,
    ports: Vec<PortId>,
    /// The data channel every rank attaches to (diagnostics).
    pub channel: ChannelId,
}

impl ConduitWorld {
    /// Lay out `n` ranks on machines `0..n`: one registry port per rank,
    /// all attached (Both) to one channel. Returns the world and one
    /// [`ChannelConduit`] per rank.
    pub fn create(n: usize) -> (Arc<ConduitWorld>, Vec<ChannelConduit>) {
        assert!(n > 0);
        let mut registry = ChannelRegistry::new();
        let channel = registry.create_channel();
        let mut ports = Vec::with_capacity(n);
        let mut mailboxes = HashMap::with_capacity(n);
        let mut inboxes = Vec::with_capacity(n);
        for rank in 0..n {
            let home = Addr::new(NodeId(rank as u32), rank_port(rank));
            let port = registry.create_port(home);
            registry.attach(port, channel, Role::Both).expect("fresh");
            ports.push(port);
            let (tx, rx) = unbounded();
            mailboxes.insert(home, tx);
            inboxes.push(rx);
        }
        let world = Arc::new(ConduitWorld {
            routes: Mutex::new(Routes {
                registry,
                mailboxes,
            }),
            ports,
            channel,
        });
        let conduits = inboxes
            .into_iter()
            .enumerate()
            .map(|(rank, inbox)| ChannelConduit {
                rank,
                world: Arc::clone(&world),
                inbox,
                stash: RefCell::new(HashMap::new()),
            })
            .collect();
        (world, conduits)
    }

    /// Migrate `rank`'s port to a new machine. Every *subsequent* send to
    /// this rank routes to the new location — one registry update, no
    /// sender involvement (§4.2 redirection). The rank's mailbox moves with
    /// its port, so frames already waiting in it are still received.
    pub fn migrate(&self, rank: Rank, to: NodeId) {
        let mut routes = self.routes.lock();
        let port = self.ports[rank];
        let from = routes.registry.location(port).expect("known port");
        let at = Addr::new(to, rank_port(rank));
        routes.registry.move_port(port, at).expect("known port");
        let mailbox = routes
            .mailboxes
            .remove(&from)
            .expect("every location has a mailbox");
        routes.mailboxes.insert(at, mailbox);
    }

    /// Current location of a rank's port.
    pub fn location_of(&self, rank: Rank) -> Addr {
        self.routes
            .lock()
            .registry
            .location(self.ports[rank])
            .expect("known port")
    }

    fn size(&self) -> usize {
        self.ports.len()
    }
}

/// Each rank keeps its well-known endpoint port so a migrated rank can be
/// addressed on its new node without re-coordination.
fn rank_port(rank: Rank) -> NetPort {
    NetPort(NetPort::DYNAMIC_BASE.0 + rank as u32)
}

/// One rank's MPI transport over the channel registry.
pub struct ChannelConduit {
    rank: Rank,
    world: Arc<ConduitWorld>,
    inbox: Receiver<Frame>,
    stash: RefCell<Stash>,
}

impl PointToPoint for ChannelConduit {
    fn rank(&self) -> Rank {
        self.rank
    }
    fn size(&self) -> usize {
        self.world.size()
    }
    fn send_bytes(&self, to: Rank, tag: u64, bytes: Vec<u8>) {
        // Per-message location lookup: redirection is transparent.
        let routes = self.world.routes.lock();
        let dst = routes
            .registry
            .location(self.world.ports[to])
            .expect("known port");
        routes.mailboxes[&dst]
            .send((self.rank, tag, bytes))
            .expect("receiver alive");
    }
    fn recv_bytes(&self, from: Rank, tag: u64) -> Vec<u8> {
        if let Some(q) = self.stash.borrow_mut().get_mut(&(from, tag)) {
            if let Some(b) = q.pop_front() {
                return b;
            }
        }
        loop {
            let (src, t, bytes) = self.inbox.recv().expect("senders alive");
            if src == from && t == tag {
                return bytes;
            }
            self.stash
                .borrow_mut()
                .entry((src, t))
                .or_default()
                .push_back(bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn redirection_moves_a_rank_mid_conversation() {
        let (world, mut conduits) = ConduitWorld::create(2);
        let c1 = conduits.pop().unwrap();
        let c0 = conduits.pop().unwrap();

        // Rank 1 receives one message at home, then migrates to machine 9
        // and receives the next one there — rank 0 never learns about it.
        let (moved_tx, moved_rx) = unbounded();
        let w = Arc::clone(&world);
        let r1 = std::thread::spawn(move || {
            let a = c1.recv_bytes(0, 1);
            w.migrate(1, NodeId(9));
            moved_tx.send(()).unwrap();
            let b = c1.recv_bytes(0, 1);
            (a, b)
        });
        c0.send_bytes(1, 1, b"before".to_vec());
        moved_rx.recv().unwrap();
        assert_eq!(world.location_of(1).node, NodeId(9));
        c0.send_bytes(1, 1, b"after".to_vec());
        let (a, b) = r1.join().unwrap();
        assert_eq!(a, b"before");
        assert_eq!(b, b"after");
    }

    #[test]
    fn frames_waiting_at_the_old_location_follow_the_move() {
        let (world, conduits) = ConduitWorld::create(2);
        let (c0, c1) = (&conduits[0], &conduits[1]);
        c0.send_bytes(1, 3, b"queued".to_vec());
        world.migrate(1, NodeId(9));
        c0.send_bytes(1, 3, b"there".to_vec());
        assert_eq!(world.location_of(1), Addr::new(NodeId(9), rank_port(1)));
        assert_eq!(c1.recv_bytes(0, 3), b"queued");
        assert_eq!(c1.recv_bytes(0, 3), b"there");
    }
}
