//! Task-placement policies (§4.3).
//!
//! The leader must balance two "sometimes conflicting" goals: maximize
//! hardware utilization vs. run each task on its best platform. The
//! paper's worked example: a task that can *only* run on machine A should
//! get A even when a flexible task would run fastest there — the flexible
//! task waits.

use vce_net::{NodeId, NodeList};

use crate::status::DaemonStatus;
use crate::wire::WireStr;

/// Leader placement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementPolicy {
    /// §4.3's preferred discipline: prefer schedules that maximize overall
    /// resource utilization — flexible requests take the *least* capable
    /// adequate machine and avoid machines that queued restricted requests
    /// need.
    #[default]
    UtilizationFirst,
    /// Greedy per-job optimum: every request takes the least-loaded,
    /// fastest machines it can (the comparison baseline in experiment P1).
    BestPlatform,
}

/// A request's requirements as the policy sees them.
#[derive(Debug, Clone, PartialEq)]
pub struct Needs {
    /// Per-instance memory requirement, MB.
    pub mem_mb: u32,
    /// Minimum machines.
    pub count_min: u32,
    /// Maximum useful machines.
    pub count_max: u32,
    /// Program unit to run: the leader asks the bidders whether they hold
    /// a staged binary for it and prefers those that do (the payoff of §4.5
    /// anticipatory compilation). A view of the request for the length of
    /// a round; the queue, which outlives it, detaches its copy.
    pub unit: WireStr,
}

/// Default load above which a machine refuses new remote work ("not
/// already excessively loaded", §5). Override via
/// [`crate::ExmConfig::overload_threshold`].
pub const OVERLOAD_THRESHOLD: f64 = 3.0;

/// Is this machine eligible for this request at all? `overload` is the
/// configured excessive-load bar.
pub fn eligible(bid: &DaemonStatus, needs: &Needs, overload: f64) -> bool {
    bid.willing && bid.mem_mb >= needs.mem_mb && bid.load < overload
}

/// One eligible bid's sort keys, copied out so that ranking never reaches
/// back into the bids. Opaque: a caller only owns the scratch vector.
#[derive(Debug, Clone, Copy)]
pub struct Candidate {
    load: f64,
    staged: bool,
    speed_mops: f64,
    node: NodeId,
}

/// Select machines for a request from the collected bids.
///
/// `reserved` are machines a queued, less-flexible request needs —
/// utilization-first avoids them when alternatives exist. `staged_bit` is
/// the bit of [`DaemonStatus::staged`] that answers for this request's
/// unit: zero when the disclosure did not ask, and then no bid is preferred
/// for its binaries. At most `count_max` nodes land in `out` (cleared
/// first), best first; none when fewer than `count_min` are eligible.
/// `order` is reusable scratch: with it warm and ≤
/// [`vce_net::NODE_LIST_INLINE`] winners this performs no heap allocation —
/// the leader calls it once per bidding round.
#[allow(clippy::too_many_arguments)]
pub fn select_into(
    policy: PlacementPolicy,
    bids: &[DaemonStatus],
    needs: &Needs,
    reserved: &[NodeId],
    overload: f64,
    staged_bit: u64,
    order: &mut Vec<Candidate>,
    out: &mut NodeList,
) {
    out.clear();
    order.clear();
    order.extend(
        bids.iter()
            .filter(|b| eligible(b, needs, overload))
            .map(|b| Candidate {
                load: b.load,
                staged: b.staged & staged_bit != 0,
                speed_mops: b.speed_mops,
                node: b.node,
            }),
    );
    if policy == PlacementPolicy::UtilizationFirst {
        // Avoid machines that restricted requests depend on, whenever
        // enough unreserved machines remain — the §4.3 example: the
        // flexible task yields machine A to the task that can only run
        // there, and waits if nothing else is free.
        let free = |c: &Candidate| !reserved.contains(&c.node);
        if order.iter().filter(|c| free(c)).count() >= needs.count_min as usize {
            order.retain(free);
        }
    }
    // The paper's sortBidsByLoad with tiebreaks: least loaded first; among
    // equals prefer a machine that already holds the unit's binary (no
    // dispatch-time compile — §4.5), then the fastest. Bid fields came off
    // the wire, so a corrupt peer can send NaN: total_cmp gives NaN a
    // stable (worst) rank instead of panicking the group leader. The final
    // node-id tiebreak makes the comparator a total order, so the unstable
    // (in-place, allocation-free) sort is deterministic.
    order.sort_unstable_by(|a, b| {
        a.load
            .total_cmp(&b.load)
            .then(b.staged.cmp(&a.staged))
            .then(b.speed_mops.total_cmp(&a.speed_mops))
            .then(a.node.cmp(&b.node))
    });
    if order.len() < needs.count_min as usize {
        return;
    }
    for c in order.iter().take(needs.count_max as usize) {
        out.push(c.node);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vce_net::MachineClass;

    fn bid(node: u32, load: f64, speed: f64, mem: u32) -> DaemonStatus {
        DaemonStatus {
            node: NodeId(node),
            class: MachineClass::Workstation,
            load,
            background: load,
            speed_mops: speed,
            mem_mb: mem,
            willing: true,
            tasks: Default::default(),
            staged: 0,
        }
    }

    /// [`select_into`] on fresh scratch.
    fn select_bit(
        policy: PlacementPolicy,
        bids: &[DaemonStatus],
        needs: &Needs,
        reserved: &[NodeId],
        overload: f64,
        staged_bit: u64,
    ) -> Vec<NodeId> {
        let (mut order, mut out) = (Vec::new(), NodeList::new());
        select_into(
            policy, bids, needs, reserved, overload, staged_bit, &mut order, &mut out,
        );
        out.as_slice().to_vec()
    }

    /// [`select_bit`] for a request whose unit nobody was asked about.
    fn select(
        policy: PlacementPolicy,
        bids: &[DaemonStatus],
        needs: &Needs,
        reserved: &[NodeId],
        overload: f64,
    ) -> Vec<NodeId> {
        select_bit(policy, bids, needs, reserved, overload, 0)
    }

    fn needs(mem: u32, min: u32, max: u32) -> Needs {
        Needs {
            mem_mb: mem,
            count_min: min,
            count_max: max,
            unit: "u".into(),
        }
    }

    #[test]
    fn staged_binary_breaks_load_ties() {
        // The disclosure asked about two units; this request's is the
        // second. Node 0 holds only the first, node 1 only the second.
        let (mut other_bin, mut with_bin) = (bid(0, 0.0, 200.0, 64), bid(1, 0.0, 100.0, 64));
        (other_bin.staged, with_bin.staged) = (0b01, 0b10);
        let bids = vec![other_bin, with_bin];
        // Node 0 is faster, but node 1 holds the binary: equal loads go to
        // the binary holder — by the unit's own bit, not by any bit set.
        let select = |bids: &[DaemonStatus], staged_bit| {
            let (policy, needs) = (PlacementPolicy::BestPlatform, needs(16, 1, 1));
            select_bit(policy, bids, &needs, &[], OVERLOAD_THRESHOLD, staged_bit)
        };
        assert_eq!(select(&bids, 0b10), vec![NodeId(1)]);
        assert_eq!(select(&bids, 0b01), vec![NodeId(0)]);
        // Not asked about: speed decides.
        assert_eq!(select(&bids, 0), vec![NodeId(0)]);
        // A loaded binary-holder loses to an idle machine without one.
        let mut loaded = bids[1].clone();
        loaded.load = 1.0;
        assert_eq!(
            select(&[bid(0, 0.0, 50.0, 64), loaded], 0b10),
            vec![NodeId(0)]
        );
    }

    #[test]
    fn best_platform_takes_the_fastest_idle_machine() {
        let bids = vec![bid(0, 0.0, 50.0, 64), bid(1, 0.0, 200.0, 64)];
        let got = select(
            PlacementPolicy::BestPlatform,
            &bids,
            &needs(16, 1, 1),
            &[],
            OVERLOAD_THRESHOLD,
        );
        assert_eq!(got, vec![NodeId(1)]);
    }

    #[test]
    fn utilization_first_matches_best_platform_without_reservations() {
        let bids = vec![bid(0, 0.0, 50.0, 64), bid(1, 0.0, 200.0, 64)];
        let got = select(
            PlacementPolicy::UtilizationFirst,
            &bids,
            &needs(16, 1, 1),
            &[],
            OVERLOAD_THRESHOLD,
        );
        assert_eq!(got, vec![NodeId(1)], "no reservations ⇒ same greedy sort");
    }

    #[test]
    fn paper_example_reservation() {
        // Machine A (node 1) is the only machine a restricted task can use
        // (say, big memory). A flexible request must avoid it if possible,
        // and wait if not.
        let bids = vec![bid(0, 0.0, 50.0, 64), bid(1, 0.0, 200.0, 512)];
        let reserved = [NodeId(1)];
        let got = select(
            PlacementPolicy::UtilizationFirst,
            &bids,
            &needs(16, 1, 1),
            &reserved,
            OVERLOAD_THRESHOLD,
        );
        assert_eq!(got, vec![NodeId(0)]);
        // With node 0 unavailable (overloaded), the flexible request WAITS
        // rather than taking the reserved machine... unless waiting is the
        // only option and nothing else satisfies count_min — then the
        // caller keeps it queued by receiving the reserved machine last.
        let bids = vec![bid(0, 5.0, 50.0, 64), bid(1, 0.0, 200.0, 512)];
        let got = select(
            PlacementPolicy::UtilizationFirst,
            &bids,
            &needs(16, 1, 1),
            &reserved,
            OVERLOAD_THRESHOLD,
        );
        // Overloaded node 0 is ineligible; only the reserved machine
        // remains and unreserved coverage < count_min, so it IS returned —
        // the queueing decision (wait vs take) belongs to the leader, which
        // checks reservations against queued restricted requests first.
        assert_eq!(got, vec![NodeId(1)]);
    }

    #[test]
    fn overloaded_and_unwilling_machines_excluded() {
        let mut unwilling = bid(2, 0.0, 100.0, 64);
        unwilling.willing = false;
        let bids = vec![bid(0, 3.5, 100.0, 64), unwilling, bid(1, 0.2, 100.0, 64)];
        let got = select(
            PlacementPolicy::BestPlatform,
            &bids,
            &needs(16, 1, 3),
            &[],
            OVERLOAD_THRESHOLD,
        );
        assert_eq!(got, vec![NodeId(1)]);
    }

    #[test]
    fn memory_requirement_filters() {
        let bids = vec![bid(0, 0.0, 100.0, 32), bid(1, 1.0, 100.0, 256)];
        let got = select(
            PlacementPolicy::BestPlatform,
            &bids,
            &needs(128, 1, 2),
            &[],
            OVERLOAD_THRESHOLD,
        );
        assert_eq!(got, vec![NodeId(1)]);
    }

    #[test]
    fn insufficient_eligible_machines_returns_empty() {
        let bids = vec![bid(0, 0.0, 100.0, 64)];
        let got = select(
            PlacementPolicy::BestPlatform,
            &bids,
            &needs(16, 2, 4),
            &[],
            OVERLOAD_THRESHOLD,
        );
        assert!(got.is_empty());
    }

    #[test]
    fn count_max_caps_allocation() {
        let bids: Vec<DaemonStatus> = (0..10).map(|i| bid(i, 0.0, 100.0, 64)).collect();
        let got = select(
            PlacementPolicy::BestPlatform,
            &bids,
            &needs(16, 1, 3),
            &[],
            OVERLOAD_THRESHOLD,
        );
        assert_eq!(got.len(), 3);
    }

    #[test]
    fn load_dominates_speed_in_both_policies() {
        let bids = vec![bid(0, 2.0, 500.0, 64), bid(1, 0.0, 50.0, 64)];
        for policy in [
            PlacementPolicy::BestPlatform,
            PlacementPolicy::UtilizationFirst,
        ] {
            let got = select(policy, &bids, &needs(16, 1, 1), &[], OVERLOAD_THRESHOLD);
            assert_eq!(got, vec![NodeId(1)], "{policy:?}");
        }
    }

    #[test]
    fn nan_bids_from_a_corrupt_peer_do_not_panic_the_leader() {
        // A corrupt (or byzantine) peer can put NaN in any wire float.
        // NaN `load` fails the `load < overload` eligibility test, so it
        // never reaches the sort; NaN `speed_mops` survives eligibility and
        // used to hit `partial_cmp().expect("finite")` in the tiebreak —
        // panicking the group leader. This test panics on the pre-fix code.
        let nan_speed = bid(0, 0.0, f64::NAN, 64);
        let nan_load = bid(1, f64::NAN, 100.0, 64);
        let honest = bid(2, 0.0, 100.0, 64);
        for policy in [
            PlacementPolicy::BestPlatform,
            PlacementPolicy::UtilizationFirst,
        ] {
            let got = select(
                policy,
                &[nan_speed.clone(), nan_load.clone(), honest.clone()],
                &needs(16, 1, 3),
                &[],
                OVERLOAD_THRESHOLD,
            );
            // NaN load is never eligible; the NaN-speed machine may still
            // be chosen (its load is honest) but must not crash the sort.
            assert!(!got.contains(&NodeId(1)), "{policy:?}: NaN load eligible");
            assert!(got.contains(&NodeId(2)), "{policy:?}: honest bid dropped");
        }
    }

    #[test]
    fn deterministic_tie_break_on_node_id() {
        let bids = vec![bid(5, 0.0, 100.0, 64), bid(2, 0.0, 100.0, 64)];
        for policy in [
            PlacementPolicy::BestPlatform,
            PlacementPolicy::UtilizationFirst,
        ] {
            let got = select(policy, &bids, &needs(16, 1, 1), &[], OVERLOAD_THRESHOLD);
            assert_eq!(got, vec![NodeId(2)], "{policy:?}");
        }
    }
}
