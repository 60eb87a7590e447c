//! C1: isis inbound-ordering throughput — in-order FIFO, reversed-burst
//! holdback, and causal delivery.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use vce_isis::msg::{BcastId, CastOrder};
use vce_isis::ordering::{CastData, OrderingState};
use vce_isis::VClock;
use vce_net::{Addr, NodeId};

fn cast(origin: Addr, seq: u64, order: CastOrder, vc: Option<VClock>) -> CastData {
    CastData {
        id: BcastId { origin, seq },
        order,
        vclock: vc,
        total_seq: None,
        payload: Bytes::from_static(b"payload"),
    }
}

/// The sender's rank in a two-candidate group.
const RANK: usize = 1;

fn bench(c: &mut Criterion) {
    let sender = Addr::daemon(NodeId(1));
    let mut g = c.benchmark_group("isis_ordering");
    for &n in &[64u64, 512] {
        g.bench_with_input(BenchmarkId::new("fifo_in_order", n), &n, |b, &n| {
            b.iter(|| {
                let mut st = OrderingState::new(2);
                let mut delivered = 0;
                for s in 0..n {
                    delivered += st
                        .on_cast(RANK, s, cast(sender, s, CastOrder::Fifo, None), 0)
                        .len();
                }
                assert_eq!(delivered as u64, n);
            })
        });
        g.bench_with_input(BenchmarkId::new("fifo_reversed_burst", n), &n, |b, &n| {
            b.iter(|| {
                let mut st = OrderingState::new(2);
                // Anchor the stream, then deliver a fully reversed burst:
                // worst-case holdback.
                st.on_cast(RANK, 0, cast(sender, 0, CastOrder::Fifo, None), 0);
                let mut delivered = 1;
                for s in (1..n).rev() {
                    delivered += st
                        .on_cast(RANK, s, cast(sender, s, CastOrder::Fifo, None), 0)
                        .len();
                }
                assert_eq!(delivered as u64, n);
            })
        });
        g.bench_with_input(BenchmarkId::new("causal_in_order", n), &n, |b, &n| {
            b.iter(|| {
                let mut st = OrderingState::new(2);
                let mut delivered = 0;
                for s in 0..n {
                    let mut vc = VClock::new();
                    vc.set(sender, s + 1);
                    delivered += st
                        .on_cast(RANK, s, cast(sender, s + 1, CastOrder::Causal, Some(vc)), 0)
                        .len();
                }
                assert_eq!(delivered as u64, n);
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
