//! Dense, allocation-free-in-steady-state containers for hot protocol
//! state.
//!
//! The protocol objects (isis ordering buffers, EXM daemon tables) were
//! originally `BTreeMap`s: correct and deterministic, but every
//! insert/remove cycle allocates and frees a tree node, which dominates the
//! per-event cost once encode and decode are pooled. This module provides
//! the replacements, all preserving *deterministic iteration order*:
//!
//! * [`SlotArena`] — a slab of slots plus a sorted key index:
//!   `BTreeMap`-compatible ordered iteration, but inserts reuse freed slots
//!   and removals free into a free-list, so a steady-state workload that
//!   inserts and removes at the same rate allocates nothing. Its surface
//!   is what the EXM leader's three request tables call and no more.
//! * [`SeqWindow`] — a ring buffer keyed by a dense monotone sequence
//!   number (FIFO holdback): insert ahead of the base, take
//!   contiguously from the base, no per-entry nodes at all.
//! * [`NodeList`] — an inline small-vector of [`NodeId`]s wire-compatible
//!   with `Vec<NodeId>`, so allocation fan-out lists (≤ 8 nodes in every
//!   benchmark scenario) decode and store without touching the heap.
//!
//! Mutability classes follow murk-arena's split: *per-tick scratch*
//! (cleared and refilled every round — plain `Vec`s owned by the protocol
//! object) versus *sparse long-lived* state (these arenas, where entries
//! outlive many ticks and churn slot-by-slot).

use vce_codec::{Codec, Decoder, Encoder, Result};

use crate::addr::NodeId;

/// An ordered map over a dense slab: sorted `(key, slot)` index for
/// deterministic iteration and `O(log n)` lookup, a slot vector for
/// storage, and a free-list so steady-state insert/remove churn reuses
/// slots instead of allocating.
#[derive(Debug)]
pub struct SlotArena<K, V> {
    /// Sorted by key; values are slot indices.
    index: Vec<(K, u32)>,
    slots: Vec<Option<(K, V)>>,
    free: Vec<u32>,
}

impl<K, V> Default for SlotArena<K, V> {
    fn default() -> Self {
        SlotArena {
            index: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<K: Ord + Copy, V> SlotArena<K, V> {
    /// Empty arena; slots are allocated on demand.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when no entries are live.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    fn find(&self, key: &K) -> std::result::Result<usize, usize> {
        self.index.binary_search_by(|(k, _)| k.cmp(key))
    }

    /// Insert or replace; returns the previous value if the key was
    /// present. Reuses a freed slot when one exists.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.find(&key) {
            Ok(i) => {
                let slot = self.index[i].1 as usize;
                let old = self.slots[slot].replace((key, value));
                old.map(|(_, v)| v)
            }
            Err(i) => {
                let slot = match self.free.pop() {
                    Some(s) => {
                        self.slots[s as usize] = Some((key, value));
                        s
                    }
                    None => {
                        self.slots.push(Some((key, value)));
                        (self.slots.len() - 1) as u32
                    }
                };
                self.index.insert(i, (key, slot));
                None
            }
        }
    }

    /// Remove and return the value for `key`, freeing its slot.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let i = self.find(key).ok()?;
        let slot = self.index.remove(i).1;
        self.free.push(slot);
        self.slots[slot as usize].take().map(|(_, v)| v)
    }

    /// Shared access by key.
    pub fn get(&self, key: &K) -> Option<&V> {
        let i = self.find(key).ok()?;
        let slot = self.index[i].1 as usize;
        self.slots[slot].as_ref().map(|(_, v)| v)
    }

    /// Mutable access by key.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let i = self.find(key).ok()?;
        let slot = self.index[i].1 as usize;
        self.slots[slot].as_mut().map(|(_, v)| v)
    }

    /// True if `key` has a live entry.
    pub fn contains_key(&self, key: &K) -> bool {
        self.find(key).is_ok()
    }

    /// Iterate entries in ascending key order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.index.iter().map(|(_, slot)| {
            let (k, v) = self.slots[*slot as usize]
                .as_ref()
                .expect("indexed slot is live");
            (k, v)
        })
    }

    /// Keep only entries for which `pred` returns true, in key order.
    /// Freed slots go to the free-list; no allocation.
    pub fn retain(&mut self, mut pred: impl FnMut(&K, &mut V) -> bool) {
        let slots = &mut self.slots;
        let free = &mut self.free;
        self.index.retain(|&(_, slot)| {
            let s = &mut slots[slot as usize];
            let (k, v) = s.as_mut().expect("indexed slot is live");
            let keep = pred(k, v);
            if !keep {
                *s = None;
                free.push(slot);
            }
            keep
        });
    }

    /// Slots ever allocated, live or free — what churn must not grow.
    pub fn slab_len(&self) -> usize {
        self.slots.len()
    }
}

/// Holdback buffer keyed by a dense monotone sequence number.
///
/// Entries are inserted at arbitrary positions at or ahead of the window
/// `base` and consumed contiguously from the base — exactly the access
/// pattern of FIFO holdback queues. Storage is a power-of-
/// two ring of `Option<T>`; the ring grows (amortized, rarely after warm-
/// up) when a sequence lands beyond the current capacity, and never holds
/// per-entry heap nodes.
#[derive(Debug)]
pub struct SeqWindow<T> {
    ring: Vec<Option<T>>,
    /// Sequence number of ring position `head`.
    base: u64,
    head: usize,
    occupied: usize,
}

impl<T> Default for SeqWindow<T> {
    fn default() -> Self {
        SeqWindow::new()
    }
}

impl<T> SeqWindow<T> {
    /// Empty window based at sequence 0.
    pub fn new() -> Self {
        SeqWindow {
            ring: Vec::new(),
            base: 0,
            head: 0,
            occupied: 0,
        }
    }

    /// Number of buffered entries.
    pub fn len(&self) -> usize {
        self.occupied
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.occupied == 0
    }

    /// Slots in the ring: the largest gap past the base it holds without
    /// growing.
    pub fn capacity(&self) -> usize {
        self.ring.len()
    }

    /// The sequence number the next contiguous take will yield.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Rebase an *empty* window at `seq` (adopting a stream position).
    ///
    /// # Panics
    /// Panics if entries are buffered — rebasing would orphan them.
    pub fn rebase(&mut self, seq: u64) {
        assert!(self.occupied == 0, "rebase of a non-empty SeqWindow");
        self.base = seq;
        self.head = 0;
    }

    fn pos_of(&self, seq: u64) -> usize {
        debug_assert!(seq >= self.base);
        let off = (seq - self.base) as usize;
        (self.head + off) & (self.ring.len() - 1)
    }

    fn grow_to(&mut self, need: usize) {
        let new_cap = need.next_power_of_two().max(8);
        let old_cap = self.ring.len();
        let mut ring = Vec::with_capacity(new_cap);
        ring.resize_with(new_cap, || None);
        for (i, slot) in ring.iter_mut().take(old_cap).enumerate() {
            let pos = (self.head + i) & (old_cap - 1);
            *slot = self.ring[pos].take();
        }
        self.ring = ring;
        self.head = 0;
    }

    /// Buffer `value` at `seq`. Returns `false` (dropping nothing) for
    /// sequences behind the base — those are duplicates by construction.
    /// Re-inserting an occupied position keeps the first arrival, matching
    /// the retransmission-tolerant map semantics it replaces.
    pub fn insert(&mut self, seq: u64, value: T) -> bool {
        if seq < self.base {
            return false;
        }
        let need = (seq - self.base) as usize + 1;
        if need > self.ring.len() {
            self.grow_to(need);
        }
        let pos = self.pos_of(seq);
        if self.ring[pos].is_none() {
            self.ring[pos] = Some(value);
            self.occupied += 1;
        }
        true
    }

    /// Take the entry at the base, advancing it, or `None` on a gap.
    pub fn take_next(&mut self) -> Option<T> {
        if self.ring.is_empty() {
            return None;
        }
        let v = self.ring[self.head].take()?;
        self.head = (self.head + 1) & (self.ring.len() - 1);
        self.base += 1;
        self.occupied -= 1;
        Some(v)
    }

    /// Whether `seq` is currently buffered.
    pub fn contains(&self, seq: u64) -> bool {
        seq >= self.base
            && ((seq - self.base) as usize) < self.ring.len()
            && self.ring[self.pos_of(seq)].is_some()
    }

    /// Drop all entries; base is unchanged, capacity retained.
    pub fn clear(&mut self) {
        for slot in &mut self.ring {
            *slot = None;
        }
        self.occupied = 0;
    }
}

/// How many [`NodeId`]s a [`NodeList`] stores without heap allocation.
pub const NODE_LIST_INLINE: usize = 8;

/// A list of [`NodeId`]s, inline up to [`NODE_LIST_INLINE`] entries and
/// spilling to a `Vec` beyond that. Wire-compatible with `Vec<NodeId>`
/// (`u32` count + entries), so protocol messages switch representations
/// without a format change. Allocation fan-out in every benchmark scenario
/// fits inline, making decode, store, and clone allocation-free.
#[derive(Clone)]
pub enum NodeList {
    /// Up to [`NODE_LIST_INLINE`] ids in the handle itself.
    Inline {
        /// Number of valid entries in `buf`.
        len: u8,
        /// Backing storage; entries past `len` are meaningless.
        buf: [NodeId; NODE_LIST_INLINE],
    },
    /// Heap fallback for longer lists.
    Spill(Vec<NodeId>),
}

impl NodeList {
    /// Empty list (inline, no allocation).
    pub const fn new() -> Self {
        NodeList::Inline {
            len: 0,
            buf: [NodeId(0); NODE_LIST_INLINE],
        }
    }

    /// Number of ids.
    pub fn len(&self) -> usize {
        match self {
            NodeList::Inline { len, .. } => *len as usize,
            NodeList::Spill(v) => v.len(),
        }
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The ids as a slice.
    pub fn as_slice(&self) -> &[NodeId] {
        match self {
            NodeList::Inline { len, buf } => &buf[..*len as usize],
            NodeList::Spill(v) => v,
        }
    }

    /// Append an id, spilling to the heap past the inline capacity.
    pub fn push(&mut self, id: NodeId) {
        match self {
            NodeList::Inline { len, buf } => {
                if (*len as usize) < NODE_LIST_INLINE {
                    buf[*len as usize] = id;
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(NODE_LIST_INLINE * 2);
                    v.extend_from_slice(&buf[..]);
                    v.push(id);
                    *self = NodeList::Spill(v);
                }
            }
            NodeList::Spill(v) => v.push(id),
        }
    }

    /// Remove all ids (inline representation keeps its buffer; spilled
    /// keeps its capacity).
    pub fn clear(&mut self) {
        match self {
            NodeList::Inline { len, .. } => *len = 0,
            NodeList::Spill(v) => v.clear(),
        }
    }

    /// Iterate the ids.
    pub fn iter(&self) -> std::slice::Iter<'_, NodeId> {
        self.as_slice().iter()
    }

    /// Whether `id` is present.
    pub fn contains(&self, id: NodeId) -> bool {
        self.as_slice().contains(&id)
    }
}

impl Default for NodeList {
    fn default() -> Self {
        NodeList::new()
    }
}

impl PartialEq for NodeList {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for NodeList {}

impl std::fmt::Debug for NodeList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl From<Vec<NodeId>> for NodeList {
    fn from(v: Vec<NodeId>) -> Self {
        if v.len() <= NODE_LIST_INLINE {
            let mut out = NodeList::new();
            for id in v {
                out.push(id);
            }
            out
        } else {
            NodeList::Spill(v)
        }
    }
}

impl From<&[NodeId]> for NodeList {
    fn from(s: &[NodeId]) -> Self {
        let mut out = NodeList::new();
        if s.len() > NODE_LIST_INLINE {
            return NodeList::Spill(s.to_vec());
        }
        for &id in s {
            out.push(id);
        }
        out
    }
}

impl<'a> IntoIterator for &'a NodeList {
    type Item = &'a NodeId;
    type IntoIter = std::slice::Iter<'a, NodeId>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl Codec for NodeList {
    fn encode(&self, enc: &mut Encoder) {
        // Wire format of `Vec<NodeId>`: uvarint count, then each id.
        enc.put_uvarint(self.len() as u64);
        for id in self.iter() {
            id.encode(enc);
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        let n = dec.get_count(1)?;
        if n <= NODE_LIST_INLINE {
            let mut out = NodeList::new();
            for _ in 0..n {
                out.push(NodeId::decode(dec)?);
            }
            Ok(out)
        } else {
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(NodeId::decode(dec)?);
            }
            Ok(NodeList::Spill(v))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_matches_btreemap_iteration_order() {
        use std::collections::BTreeMap;
        let keys = [40u32, 7, 19, 3, 28, 11, 40, 7];
        let mut arena = SlotArena::new();
        let mut map = BTreeMap::new();
        for (i, &k) in keys.iter().enumerate() {
            arena.insert(k, i);
            map.insert(k, i);
        }
        let a: Vec<_> = arena.iter().map(|(k, v)| (*k, *v)).collect();
        let m: Vec<_> = map.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(a, m);
        arena.remove(&19);
        map.remove(&19);
        arena.insert(5, 99);
        map.insert(5, 99);
        let a: Vec<_> = arena.iter().map(|(k, v)| (*k, *v)).collect();
        let m: Vec<_> = map.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(a, m);
    }

    #[test]
    fn arena_insert_remove_reuses_slots() {
        let mut arena = SlotArena::new();
        for i in 0u32..8 {
            arena.insert(i, i);
        }
        let slots_before = arena.slots.len();
        for round in 0u32..100 {
            arena.remove(&(round % 8));
            arena.insert(round % 8, round);
        }
        assert_eq!(
            arena.slots.len(),
            slots_before,
            "churn must not grow the slab"
        );
        assert_eq!(arena.len(), 8);
    }

    #[test]
    fn arena_retain_frees_slots_in_order() {
        let mut arena = SlotArena::new();
        for i in 0u32..10 {
            arena.insert(i, i);
        }
        arena.retain(|k, _| k % 2 == 0);
        let kept: Vec<u32> = arena.iter().map(|(k, _)| *k).collect();
        assert_eq!(kept, vec![0, 2, 4, 6, 8]);
        // Freed slots are reused before the slab grows.
        let slots = arena.slots.len();
        for i in 10u32..15 {
            arena.insert(i, i);
        }
        assert_eq!(arena.slots.len(), slots);
    }

    #[test]
    fn seq_window_contiguous_flow() {
        let mut w = SeqWindow::new();
        assert!(w.insert(0, "a"));
        assert!(w.insert(1, "b"));
        assert_eq!(w.take_next(), Some("a"));
        assert_eq!(w.take_next(), Some("b"));
        assert_eq!(w.take_next(), None);
        assert_eq!(w.base(), 2);
    }

    #[test]
    fn seq_window_gap_and_fill() {
        let mut w = SeqWindow::new();
        w.rebase(10);
        assert!(w.insert(12, "c"));
        assert_eq!(w.take_next(), None, "gap at 10");
        assert!(w.insert(10, "a"));
        assert!(w.insert(11, "b"));
        assert_eq!(w.take_next(), Some("a"));
        assert_eq!(w.take_next(), Some("b"));
        assert_eq!(w.take_next(), Some("c"));
        assert!(w.is_empty());
    }

    #[test]
    fn seq_window_behind_base_is_duplicate() {
        let mut w = SeqWindow::new();
        w.insert(0, 1);
        assert_eq!(w.take_next(), Some(1));
        assert!(!w.insert(0, 2), "seq behind base rejected");
        // First arrival wins on re-insert of a buffered position.
        w.insert(5, 50);
        w.insert(5, 51);
        assert_eq!(w.len(), 1);
        for _ in 0..4 {
            assert_eq!(w.take_next(), None);
            w.base += 1; // simulate fills elsewhere for the test
        }
    }

    #[test]
    fn seq_window_grows_for_far_ahead_seq() {
        let mut w = SeqWindow::new();
        w.insert(0, 0u64);
        assert!(w.insert(100, 100));
        assert_eq!(w.len(), 2);
        assert_eq!(w.take_next(), Some(0));
        assert!(w.contains(100));
        for seq in 1..100 {
            w.insert(seq, seq);
        }
        for seq in 1..=100 {
            assert_eq!(w.take_next(), Some(seq));
        }
    }

    #[test]
    fn seq_window_wraps_ring() {
        let mut w = SeqWindow::new();
        // Fill and drain repeatedly so head wraps the power-of-two ring.
        for round in 0u64..50 {
            let base = round * 3;
            for i in 0..3 {
                assert!(w.insert(base + i, base + i));
            }
            for i in 0..3 {
                assert_eq!(w.take_next(), Some(base + i));
            }
        }
        assert_eq!(w.base(), 150);
    }

    #[test]
    fn node_list_inline_and_spill() {
        let mut l = NodeList::new();
        for i in 0..NODE_LIST_INLINE as u32 {
            l.push(NodeId(i));
        }
        assert!(matches!(l, NodeList::Inline { .. }));
        assert_eq!(l.len(), NODE_LIST_INLINE);
        l.push(NodeId(99));
        assert!(matches!(l, NodeList::Spill(_)));
        assert_eq!(l.len(), NODE_LIST_INLINE + 1);
        assert!(l.contains(NodeId(99)));
    }

    #[test]
    fn node_list_wire_compatible_with_vec() {
        let ids = vec![NodeId(3), NodeId(1), NodeId(7)];
        let mut enc = Encoder::with_capacity(32);
        ids.encode(&mut enc);
        let vec_bytes = enc.finish();

        let list = NodeList::from(ids.clone());
        let mut enc = Encoder::with_capacity(32);
        list.encode(&mut enc);
        assert_eq!(enc.finish(), vec_bytes, "same wire bytes as Vec<NodeId>");

        let mut dec = Decoder::new(&vec_bytes);
        let back = NodeList::decode(&mut dec).unwrap();
        assert_eq!(back.as_slice(), ids.as_slice());
    }

    #[test]
    fn node_list_long_round_trip() {
        let ids: Vec<NodeId> = (0..20).map(NodeId).collect();
        let list = NodeList::from(ids.clone());
        let mut enc = Encoder::with_capacity(128);
        list.encode(&mut enc);
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        let back = NodeList::decode(&mut dec).unwrap();
        assert!(matches!(back, NodeList::Spill(_)));
        assert_eq!(back.as_slice(), ids.as_slice());
    }
}
