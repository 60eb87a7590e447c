//! Property tests on the processor-sharing CPU model: work conservation,
//! prediction consistency, fairness.

use proptest::prelude::*;
use vce_net::PortId;
use vce_sim::Cpu;

const P: PortId = PortId(1000);

proptest! {
    #[test]
    fn work_is_conserved(
        speed in 10.0f64..1000.0,
        jobs in prop::collection::vec(1.0f64..500.0, 1..8),
        horizon_ms in 1u64..10_000,
    ) {
        let mut cpu = Cpu::new(speed);
        let total_submitted: f64 = jobs.iter().sum();
        for (i, &mops) in jobs.iter().enumerate() {
            cpu.add_job((P, i as u64), mops);
        }
        let horizon = horizon_ms * 1_000;
        cpu.advance(horizon);
        let remaining: f64 = (0..jobs.len())
            .filter_map(|i| cpu.remaining((P, i as u64)))
            .sum();
        let done = total_submitted - remaining;
        // Executed work never exceeds capacity × time (within fp slack)...
        let capacity = speed * horizon as f64 / 1e6;
        prop_assert!(done <= capacity + 1e-6, "done {done} > capacity {capacity}");
        // ...and never exceeds what was submitted.
        prop_assert!(done <= total_submitted + 1e-6);
        prop_assert!(done >= -1e-9);
    }

    #[test]
    fn equal_jobs_progress_equally(
        speed in 10.0f64..1000.0,
        mops in 10.0f64..500.0,
        n in 2usize..6,
        t_ms in 1u64..1_000,
    ) {
        let mut cpu = Cpu::new(speed);
        for i in 0..n {
            cpu.add_job((P, i as u64), mops);
        }
        cpu.advance(t_ms * 1_000);
        let rems: Vec<f64> = (0..n).map(|i| cpu.remaining((P, i as u64)).unwrap()).collect();
        for w in rems.windows(2) {
            prop_assert!((w[0] - w[1]).abs() < 1e-6, "unfair sharing: {rems:?}");
        }
    }

    #[test]
    fn prediction_matches_reality(
        speed in 10.0f64..1000.0,
        jobs in prop::collection::vec(1.0f64..200.0, 1..5),
    ) {
        // If nothing changes, advancing to the predicted completion time
        // really does finish the predicted job.
        let mut cpu = Cpu::new(speed);
        for (i, &mops) in jobs.iter().enumerate() {
            cpu.add_job((P, i as u64), mops);
        }
        let (key, at) = cpu.next_completion(0).expect("jobs present");
        cpu.advance(at);
        let mut done = Vec::new();
        cpu.done_jobs(&mut done);
        prop_assert!(done.contains(&key), "predicted {key:?} not in {done:?}");
    }

    #[test]
    fn background_scales_slowdown(
        speed in 50.0f64..500.0,
        mops in 10.0f64..100.0,
        bg in prop_oneof![Just(0.0f64), Just(1.0), Just(3.0)],
    ) {
        let mut cpu = Cpu::new(speed);
        cpu.set_background(bg);
        cpu.add_job((P, 1), mops);
        let (_, at) = cpu.next_completion(0).unwrap();
        let expected = (mops / (speed / (1.0 + bg)) * 1e6).ceil() as u64;
        // ceil() introduces ≤1µs slack.
        prop_assert!(at.abs_diff(expected) <= 1, "at {at} expected {expected}");
    }

    #[test]
    fn interleaved_mutations_never_lose_or_invent_work(
        ops in prop::collection::vec((0u8..3, 1u64..5, 1.0f64..100.0, 1u64..500_000), 1..30),
    ) {
        // A random schedule of add/remove/advance keeps the accounting sane.
        let mut cpu = Cpu::new(100.0);
        let mut now = 0u64;
        let mut live_total = 0.0f64;
        for (op, pid, mops, dt) in ops {
            match op {
                0 => {
                    // (Re)start a job; replacing forgets the old remainder.
                    if let Some(old) = cpu.remaining((P, pid)) {
                        live_total -= old;
                    }
                    cpu.advance(now);
                    cpu.add_job((P, pid), mops);
                    live_total += mops;
                }
                1 => {
                    cpu.advance(now);
                    if let Some(rem) = cpu.remove_job((P, pid)) {
                        live_total -= rem;
                    }
                }
                _ => {
                    now += dt;
                    cpu.advance(now);
                }
            }
            // Recompute live_total against ground truth after each step.
            let actual: f64 = (0..6).filter_map(|p| cpu.remaining((P, p))).sum();
            prop_assert!(actual >= -1e-9);
            prop_assert!(actual <= live_total + 1e-6, "{actual} > {live_total}");
            live_total = actual;
        }
    }
}
