//! Property tests on the placement policy and the aging queue.

use proptest::prelude::*;
use vce_exm::msg::encode_disclose;
use vce_exm::policy::{eligible, select_into, Needs, PlacementPolicy};
use vce_exm::queue::{priority, QueuedRequest, RequestQueue};
use vce_exm::status::{staged_answer, staged_bit, DaemonStatus};
use vce_exm::wire::WireStr;
use vce_exm::{AppId, ExmMsg, ReqId};
use vce_net::{Addr, MachineClass, NodeId, NodeList};

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

/// A bidder: what its bid says about the machine (`staged` still blank),
/// and the units it holds binaries for.
type Bidder = (DaemonStatus, Vec<String>);

fn to_bidders(by_node: std::collections::BTreeMap<u32, BidFields>) -> Vec<Bidder> {
    by_node
        .into_iter()
        .map(|(node, (load, speed, mem, willing, binaries))| {
            let status = DaemonStatus {
                node: NodeId(node),
                class: MachineClass::Workstation,
                load,
                background: 0.0,
                speed_mops: speed,
                mem_mb: mem,
                willing,
                tasks: Default::default(),
                staged: 0,
            };
            (status, binaries)
        })
        .collect()
}

/// One bid per node id, as the reply collector guarantees — each answering
/// a disclosure that asked about "a", "b" and "c".
fn arb_bids(max: usize) -> impl Strategy<Value = Vec<DaemonStatus>> {
    prop::collection::btree_map(0u32..32, arb_bid_fields(), 0..max)
        .prop_map(|by_node| round(&to_bidders(by_node), &abc(), 0).0)
}

fn abc() -> Vec<String> {
    ["a", "b", "c"].map(String::from).to_vec()
}

/// One disclosure round as the daemons run it. The leader's question goes
/// over the wire; every bidder answers it from the binaries it holds (and
/// sets `stray` bits above its answer, as a hostile one might); the leader
/// clears what it did not ask for. Returns the bids and the leader's list.
fn round(bidders: &[Bidder], asked: &[String], stray: u64) -> (Vec<DaemonStatus>, Vec<WireStr>) {
    let asked: Vec<WireStr> = asked.iter().map(|u| u.as_str().into()).collect();
    let stray = stray.checked_shl(asked.len() as u32).unwrap_or(0);
    let mut enc = vce_codec::Encoder::new();
    encode_disclose(&asked, &mut enc);
    let Ok(ExmMsg::DiscloseState { units }) = vce_codec::from_bytes(&enc.finish()) else {
        panic!("the leader's own disclosure must decode");
    };
    let bids = bidders
        .iter()
        .map(|(status, held)| {
            let mut bid = status.clone();
            bid.staged = stray | staged_answer(&units, |unit| held.iter().any(|h| h == unit));
            let back = vce_codec::to_bytes(&bid);
            let mut bid: DaemonStatus = vce_codec::from_bytes(&back).expect("a bid decodes");
            bid.clear_unasked(asked.len());
            bid
        })
        .collect();
    (bids, asked)
}

/// [`select_into`] on fresh scratch, for `needs` out of a round that `asked`.
fn select_asked(
    policy: PlacementPolicy,
    bids: &[DaemonStatus],
    needs: &Needs,
    reserved: &[NodeId],
    overload: f64,
    asked: &[WireStr],
) -> Vec<NodeId> {
    let bit = staged_bit(asked, &needs.unit);
    let (mut order, mut out) = (Vec::new(), NodeList::new());
    select_into(
        policy, bids, needs, reserved, overload, bit, &mut order, &mut out,
    );
    out.as_slice().to_vec()
}

/// [`select_asked`] out of a round that asked about "a", "b" and "c".
fn select(
    policy: PlacementPolicy,
    bids: &[DaemonStatus],
    needs: &Needs,
    reserved: &[NodeId],
    overload: f64,
) -> Vec<NodeId> {
    let asked: Vec<WireStr> = abc().iter().map(|u| u.as_str().into()).collect();
    select_asked(policy, bids, needs, reserved, overload, &asked)
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

/// The placement rule stated on names, as it ran when every bid listed its
/// machine's whole inventory: the comparator asks both bidders' name lists
/// on every comparison. A unit the disclosure did not ask about earns no
/// preference. Kept as the reference the bit-per-asked-unit path is held to.
fn select_reference(
    policy: PlacementPolicy,
    bidders: &[Bidder],
    needs: &Needs,
    reserved: &[NodeId],
    overload: f64,
    asked: &[String],
) -> Vec<NodeId> {
    let mut order: Vec<&Bidder> = bidders
        .iter()
        .filter(|(b, _)| eligible(b, needs, overload))
        .collect();
    if policy == PlacementPolicy::UtilizationFirst {
        let free = |b: &&Bidder| !reserved.contains(&b.0.node);
        if order.iter().filter(|b| free(b)).count() >= needs.count_min as usize {
            order.retain(free);
        }
    }
    let unit = needs.unit.as_str();
    let was_asked = asked.iter().any(|u| u == unit);
    order.sort_by(|(a, a_holds), (b, b_holds)| {
        let a_has = was_asked && a_holds.iter().any(|h| h == unit);
        let b_has = was_asked && b_holds.iter().any(|h| h == unit);
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
    order.iter().take(take).map(|(b, _)| b.node).collect()
}

fn arb_unit() -> impl Strategy<Value = String> {
    prop_oneof!["[a-c]", "unit-[0-9]{1,2}"]
}

/// Bidders built to collide on every sort key but the node id: loads and
/// speeds from tiny sets (NaN among the loads), 0–64 staged names that may
/// or may not include the unit asked about.
fn arb_tied_bidders() -> impl Strategy<Value = Vec<Bidder>> {
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
        prop::collection::vec(arb_unit(), 0..65),
    );
    prop::collection::btree_map(0u32..32, fields, 0..16).prop_map(to_bidders)
}

proptest! {
    /// The mask path picks exactly the nodes the name-list rule picks: for
    /// the request's unit asked first, last, among 63 others or not at all
    /// (the preference switched off is the empty list), under both
    /// policies, with and without reservations, and whatever bits a bidder
    /// sets beyond the ones it was asked for.
    #[test]
    fn select_matches_the_two_lookups_per_comparison_reference(
        bidders in arb_tied_bidders(),
        needs in arb_needs(),
        reserved in prop::collection::vec((0u32..32).prop_map(NodeId), 0..4),
        utilization_first in any::<bool>(),
        others in prop::collection::vec(arb_unit(), 0..64),
        place in prop::option::of(any::<usize>()),
        stray in any::<u64>(),
    ) {
        let policy = if utilization_first {
            PlacementPolicy::UtilizationFirst
        } else {
            PlacementPolicy::BestPlatform
        };
        let unit = needs.unit.as_str().to_owned();
        // Distinct, as the leader builds its list, and without the unit.
        let mut names: Vec<String> = Vec::new();
        for other in others {
            if other != unit && !names.contains(&other) {
                names.push(other);
            }
        }
        if let Some(place) = place {
            names.insert(place % (names.len() + 1), unit);
        }
        let (bids, asked) = round(&bidders, &names, stray);
        for reserved in [&reserved[..], &[]] {
            prop_assert_eq!(
                select_asked(policy, &bids, &needs, reserved, 3.0, &asked),
                select_reference(policy, &bidders, &needs, reserved, 3.0, &names)
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
