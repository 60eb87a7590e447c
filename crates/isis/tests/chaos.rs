//! Membership chaos: random kill/revive/partition/heal schedules, then
//! quiescence — every surviving member must converge to one identical
//! view with the correct coordinator. This is the §5 claim ("machines can
//! enter or leave the group at any time") under adversarial schedules.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vce_codec::from_bytes;
use vce_isis::{is_isis_token, GroupConfig, GroupMember, IsisMsg, View};
use vce_net::{Addr, Endpoint, Envelope, Host, MachineInfo, NodeId};
use vce_sim::{Sim, SimConfig};

struct Member {
    gm: GroupMember,
}

impl Endpoint for Member {
    fn on_start(&mut self, host: &mut dyn Host) {
        self.gm.start(host);
    }
    fn on_envelope(&mut self, env: Envelope, host: &mut dyn Host) {
        if let Ok(msg) = from_bytes::<IsisMsg>(&env.payload) {
            self.gm.handle(env.src, msg, host, &mut Vec::new());
        }
    }
    fn on_timer(&mut self, token: u64, host: &mut dyn Host) {
        assert!(is_isis_token(token));
        self.gm.on_timer(token, host, &mut Vec::new());
    }
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

fn run_chaos(seed: u64, n: u32, ops: u32) {
    let mut sim = Sim::new(SimConfig {
        seed,
        trace_enabled: false,
        ..SimConfig::default()
    });
    let addrs: Vec<Addr> = (0..n).map(|i| Addr::daemon(NodeId(i))).collect();
    for i in 0..n {
        sim.add_node(MachineInfo::workstation(NodeId(i), 100.0));
        sim.add_endpoint(
            addrs[i as usize],
            Box::new(Member {
                gm: GroupMember::new(addrs[i as usize], GroupConfig::new(addrs.clone())),
            }),
        );
    }
    sim.run_until(3_000_000);

    let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(31));
    let mut dead: Vec<u32> = Vec::new();
    for _ in 0..ops {
        match rng.gen_range(0..4u8) {
            0 => {
                // Kill a random live node (never the last one standing).
                let live: Vec<u32> = (0..n).filter(|i| !dead.contains(i)).collect();
                if live.len() > 1 {
                    let victim = live[rng.gen_range(0..live.len())];
                    sim.kill_node(NodeId(victim));
                    dead.push(victim);
                }
            }
            1 => {
                // Revive a random dead node.
                if !dead.is_empty() {
                    let idx = rng.gen_range(0..dead.len());
                    let back = dead.remove(idx);
                    sim.revive_node(NodeId(back));
                }
            }
            2 => {
                // Random two-way partition for a while.
                let cut: Vec<u32> = (0..n).filter(|_| rng.gen_bool(0.4)).collect();
                sim.with_fault_plan(|p| {
                    for &c in &cut {
                        p.set_partition(NodeId(c), 1);
                    }
                });
            }
            _ => {
                sim.with_fault_plan(|p| p.heal_partitions());
            }
        }
        let dt = rng.gen_range(500_000..4_000_000);
        let t = sim.now_us() + dt;
        sim.run_until(t);
    }
    // Quiesce: heal everything, revive everyone, and let membership settle
    // (rejoins can cascade through several view installs).
    sim.with_fault_plan(|p| p.heal_partitions());
    for d in dead.drain(..) {
        sim.revive_node(NodeId(d));
    }
    let t = sim.now_us() + 30_000_000;
    sim.run_until(t);

    // Convergence: all members share one full view, one coordinator.
    let views: Vec<View> = addrs
        .iter()
        .map(|&a| {
            sim.with_endpoint_mut::<Member, _>(a, |m| m.gm.view().clone())
                .unwrap()
        })
        .collect();
    let reference = &views[0];
    assert_eq!(
        reference.len(),
        n as usize,
        "seed {seed}: view incomplete: {reference}"
    );
    for (i, v) in views.iter().enumerate() {
        assert_eq!(
            v, reference,
            "seed {seed}: node {i} diverged: {v} vs {reference}"
        );
    }
    let coords = addrs
        .iter()
        .filter(|&&a| {
            sim.with_endpoint_mut::<Member, _>(a, |m| m.gm.is_coordinator())
                .unwrap()
        })
        .count();
    assert_eq!(coords, 1, "seed {seed}: exactly one coordinator");
}

#[test]
fn membership_converges_after_random_chaos() {
    for seed in [1, 2, 3, 4, 5] {
        run_chaos(seed, 5, 12);
    }
}

#[test]
fn membership_converges_after_longer_chaos_on_a_larger_group() {
    run_chaos(42, 8, 20);
}
