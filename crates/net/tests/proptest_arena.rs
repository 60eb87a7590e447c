//! [`SlotArena`] against the `BTreeMap` it stands in for: random
//! insert/remove/retain schedules driven through both must agree on every
//! return value, on contents and on iteration order — and the slab behind
//! the arena must never be longer than the most entries that were ever
//! live at once, which is what "a freed slot is reused before the slab
//! grows" comes to.

use std::collections::BTreeMap;

use proptest::prelude::*;
use vce_net::SlotArena;

/// Keys are drawn from `0..KEYS`, few enough that schedules keep hitting
/// keys that are present.
const KEYS: u32 = 24;

#[derive(Debug, Clone)]
enum Op {
    Insert(u32, u64),
    Remove(u32),
    /// Add the value to the entry, if there is one.
    Bump(u32, u64),
    /// Keep the keys `k` with `k % modulus != residue`, doubling every
    /// value on the way past (kept or not: the predicate sees `&mut V`).
    Retain {
        modulus: u32,
        residue: u32,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    // (The vendored `prop_oneof!` is unweighted; arms are repeated so a
    // schedule fills up between the retains that empty it.)
    prop_oneof![
        (0..KEYS, any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v)),
        (0..KEYS, any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v)),
        (0..KEYS, any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v)),
        (0..KEYS).prop_map(Op::Remove),
        (0..KEYS).prop_map(Op::Remove),
        (0..KEYS, any::<u64>()).prop_map(|(k, v)| Op::Bump(k, v)),
        (1u32..5, 0u32..5).prop_map(|(modulus, residue)| Op::Retain { modulus, residue }),
    ]
}

/// Apply `op` to both maps; what each hands back must agree.
fn apply(op: &Op, arena: &mut SlotArena<u32, u64>, map: &mut BTreeMap<u32, u64>) {
    match *op {
        Op::Insert(k, v) => assert_eq!(arena.insert(k, v), map.insert(k, v)),
        Op::Remove(k) => assert_eq!(arena.remove(&k), map.remove(&k)),
        Op::Bump(k, by) => {
            let bump = |v: &mut u64| *v = v.wrapping_add(by);
            assert_eq!(arena.get_mut(&k).map(bump), map.get_mut(&k).map(bump));
        }
        Op::Retain { modulus, residue } => {
            // Both visit in key order: the arena's visits are recorded and
            // compared with the map's.
            let mut visited = Vec::new();
            arena.retain(|k, v| {
                visited.push(*k);
                *v = v.wrapping_mul(2);
                k % modulus != residue
            });
            let mut expected = Vec::new();
            map.retain(|k, v| {
                expected.push(*k);
                *v = v.wrapping_mul(2);
                k % modulus != residue
            });
            assert_eq!(visited, expected);
        }
    }
}

proptest! {
    #[test]
    fn arena_matches_btreemap(ops in prop::collection::vec(arb_op(), 1..300)) {
        let mut arena = SlotArena::new();
        let mut map = BTreeMap::new();
        for (step, op) in ops.iter().enumerate() {
            apply(op, &mut arena, &mut map);
            prop_assert_eq!(arena.len(), map.len(), "len after step {} ({:?})", step, op);
            prop_assert_eq!(arena.is_empty(), map.is_empty());
            prop_assert!(
                arena.iter().eq(map.iter()),
                "contents or order after step {} ({:?}): {:?} vs {:?}",
                step, op, arena.iter().collect::<Vec<_>>(), map
            );
            for k in 0..KEYS {
                prop_assert_eq!(arena.get(&k), map.get(&k), "get({}) after step {}", k, step);
                prop_assert_eq!(arena.contains_key(&k), map.contains_key(&k));
            }
        }
    }

    #[test]
    fn a_freed_slot_is_reused_before_the_slab_grows(
        ops in prop::collection::vec(arb_op(), 1..300),
    ) {
        let mut arena = SlotArena::new();
        let mut map = BTreeMap::new();
        let mut peak = 0;
        for (step, op) in ops.iter().enumerate() {
            apply(op, &mut arena, &mut map);
            peak = peak.max(map.len());
            prop_assert_eq!(
                arena.slab_len(), peak,
                "slab after step {} ({:?}) vs the most entries ever live", step, op
            );
        }
    }
}
