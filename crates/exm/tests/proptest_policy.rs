//! Property tests on the placement policy and the aging queue.

use proptest::prelude::*;
use vce_exm::policy::{eligible, select, select_with, Needs, PlacementPolicy};
use vce_exm::queue::{priority, QueuedRequest, RequestQueue};
use vce_exm::status::DaemonStatus;
use vce_exm::{AppId, ReqId};
use vce_net::{Addr, MachineClass, NodeId};

fn arb_bid_fields() -> impl Strategy<Value = BidFields> {
    (
        0.0f64..4.0,
        10.0f64..1000.0,
        prop_oneof![Just(32u32), Just(64), Just(256), Just(1024)],
        any::<bool>(),
        prop::collection::vec("[a-c]", 0..3),
    )
}

type BidFields = (f64, f64, u32, bool, Vec<String>);

fn to_bids(by_node: std::collections::BTreeMap<u32, BidFields>) -> Vec<DaemonStatus> {
    by_node
        .into_iter()
        .map(
            |(node, (load, speed, mem, willing, binaries))| DaemonStatus {
                node: NodeId(node),
                class: MachineClass::Workstation,
                load,
                background: 0.0,
                speed_mops: speed,
                mem_mb: mem,
                willing,
                tasks: Default::default(),
                binaries: binaries.iter().map(String::as_str).collect(),
            },
        )
        .collect()
}

/// One bid per node id, as the reply collector guarantees.
fn arb_bids(max: usize) -> impl Strategy<Value = Vec<DaemonStatus>> {
    prop::collection::btree_map(0u32..32, arb_bid_fields(), 0..max).prop_map(to_bids)
}

fn arb_needs() -> impl Strategy<Value = Needs> {
    (
        prop_oneof![Just(16u32), Just(128), Just(512)],
        1u32..4,
        0u32..8,
        "[a-c]",
    )
        .prop_map(|(mem_mb, count_min, extra, unit)| Needs {
            mem_mb,
            count_min,
            count_max: count_min + extra,
            unit: unit.as_str().into(),
        })
}

/// `select_with` as it was before the staged-binary answer was decided
/// once per bid: the comparator asks both name lists on every comparison.
/// Kept as the reference the production sort is held to.
fn select_reference(
    policy: PlacementPolicy,
    bids: &[DaemonStatus],
    needs: &Needs,
    reserved: &[NodeId],
    overload: f64,
    prefer_staged_binaries: bool,
) -> Vec<NodeId> {
    let mut order: Vec<&DaemonStatus> = bids
        .iter()
        .filter(|b| eligible(b, needs, overload))
        .collect();
    if policy == PlacementPolicy::UtilizationFirst {
        let free = |b: &&DaemonStatus| !reserved.contains(&b.node);
        if order.iter().filter(|b| free(b)).count() >= needs.count_min as usize {
            order.retain(free);
        }
    }
    let unit = needs.unit.as_str();
    order.sort_by(|a, b| {
        let a_has = prefer_staged_binaries && a.binaries.contains(unit);
        let b_has = prefer_staged_binaries && b.binaries.contains(unit);
        a.load
            .total_cmp(&b.load)
            .then(b_has.cmp(&a_has))
            .then(b.speed_mops.total_cmp(&a.speed_mops))
            .then(a.node.cmp(&b.node))
    });
    if order.len() < needs.count_min as usize {
        return Vec::new();
    }
    let take = needs.count_max as usize;
    order.iter().take(take).map(|b| b.node).collect()
}

/// Bids built to collide on every sort key but the node id: loads and
/// speeds from tiny sets (NaN among the loads), 0–64 staged names that may
/// or may not include the unit asked about.
fn arb_tied_bids() -> impl Strategy<Value = Vec<DaemonStatus>> {
    let fields = (
        prop_oneof![
            Just(0.0f64),
            Just(0.5),
            Just(0.5),
            Just(2.0),
            Just(f64::NAN)
        ],
        prop_oneof![Just(50.0f64), Just(100.0), Just(100.0)],
        prop_oneof![Just(64u32), Just(1024)],
        any::<bool>(),
        prop::collection::vec(prop_oneof!["[a-c]", "unit-[0-9]{1,2}"], 0..65),
    );
    prop::collection::btree_map(0u32..32, fields, 0..16).prop_map(to_bids)
}

proptest! {
    #[test]
    fn select_matches_the_two_lookups_per_comparison_reference(
        bids in arb_tied_bids(),
        needs in arb_needs(),
        reserved in prop::collection::vec((0u32..32).prop_map(NodeId), 0..4),
        utilization_first in any::<bool>(),
        prefer_staged_binaries in any::<bool>(),
    ) {
        let policy = if utilization_first {
            PlacementPolicy::UtilizationFirst
        } else {
            PlacementPolicy::BestPlatform
        };
        for reserved in [&reserved[..], &[]] {
            prop_assert_eq!(
                select_with(policy, &bids, &needs, reserved, 3.0, prefer_staged_binaries),
                select_reference(policy, &bids, &needs, reserved, 3.0, prefer_staged_binaries)
            );
        }
    }

    #[test]
    fn select_returns_only_eligible_machines(
        bids in arb_bids(16),
        needs in arb_needs(),
        reserved in prop::collection::vec((0u32..32).prop_map(NodeId), 0..4),
        policy_flag in any::<bool>(),
        overload in 0.5f64..4.0,
    ) {
        let policy = if policy_flag {
            PlacementPolicy::UtilizationFirst
        } else {
            PlacementPolicy::BestPlatform
        };
        let got = select(policy, &bids, &needs, &reserved, overload);
        // Bounds.
        prop_assert!(got.len() <= needs.count_max as usize);
        prop_assert!(got.is_empty() || got.len() >= needs.count_min.min(needs.count_max) as usize);
        // Every returned node corresponds to an eligible bid.
        for n in &got {
            let bid = bids.iter().find(|b| b.node == *n).expect("known node");
            prop_assert!(eligible(bid, &needs, overload), "ineligible {bid:?}");
        }
        // No duplicates.
        let mut sorted = got.clone();
        sorted.sort();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), got.len());
    }

    #[test]
    fn select_is_deterministic(
        bids in arb_bids(16),
        needs in arb_needs(),
    ) {
        let a = select(PlacementPolicy::UtilizationFirst, &bids, &needs, &[], 3.0);
        let b = select(PlacementPolicy::UtilizationFirst, &bids, &needs, &[], 3.0);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn select_orders_by_load_first(
        bids in arb_bids(16),
        needs in arb_needs(),
    ) {
        let got = select(PlacementPolicy::BestPlatform, &bids, &needs, &[], 3.0);
        let load_of = |n: NodeId| bids.iter().find(|b| b.node == n).unwrap().load;
        for w in got.windows(2) {
            prop_assert!(load_of(w[0]) <= load_of(w[1]) + 1e-12);
        }
    }

    #[test]
    fn aging_eventually_dominates_any_boost(
        boost in -10i32..=10,
        rival_boost in -10i32..=10,
        quantum in 1_000u64..1_000_000,
    ) {
        // A request that waited long enough outranks any freshly arrived
        // rival regardless of boosts — the §4.3 starvation guarantee.
        let old = QueuedRequest {
            req: ReqId { app: AppId(1), seq: 0 },
            class: MachineClass::Workstation,
            needs: Needs { mem_mb: 1, count_min: 1, count_max: 1, unit: "u".into() },
            priority_boost: boost,
            enqueued_at_us: 0,
            reply_to: Addr::executor(NodeId(0)),
        };
        let wait = quantum * (21 + 20); // enough quanta to cover any boost gap
        let fresh = QueuedRequest {
            priority_boost: rival_boost,
            enqueued_at_us: wait,
            req: ReqId { app: AppId(1), seq: 1 },
            ..old.clone()
        };
        prop_assert!(
            priority(&old, wait, quantum) > priority(&fresh, wait, quantum),
            "old {} vs fresh {}",
            priority(&old, wait, quantum),
            priority(&fresh, wait, quantum)
        );
    }

    #[test]
    fn queue_service_order_is_a_permutation(
        boosts in prop::collection::vec(-5i32..=5, 1..10),
        now in 0u64..100_000_000,
    ) {
        let mut q = RequestQueue::new(1_000_000);
        for (i, &b) in boosts.iter().enumerate() {
            q.push(QueuedRequest {
                req: ReqId { app: AppId(1), seq: i as u32 },
                class: MachineClass::Workstation,
                needs: Needs { mem_mb: 1, count_min: 1, count_max: 1, unit: "u".into() },
                priority_boost: b,
                enqueued_at_us: (i as u64) * 1_000,
                reply_to: Addr::executor(NodeId(0)),
            });
        }
        let order = q.service_order(now);
        prop_assert_eq!(order.len(), boosts.len());
        let mut seqs: Vec<u32> = order.iter().map(|r| r.req.seq).collect();
        seqs.sort_unstable();
        let expect: Vec<u32> = (0..boosts.len() as u32).collect();
        prop_assert_eq!(seqs, expect);
        // Priorities non-increasing along the service order.
        for w in order.windows(2) {
            prop_assert!(
                priority(&w[0], now, 1_000_000) >= priority(&w[1], now, 1_000_000)
            );
        }
    }
}
