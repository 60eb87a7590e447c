//! Host-side probes: the counting allocator, `/proc` readers, and the
//! isolated per-layer micro-measurements of the traced pass.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vce_exm::{AppId, DaemonWal, InstanceKey, WalRecord};
use vce_sim::queue::CalendarQueue;
use vce_storage::{StableStore, StorageConfig};

use crate::stats::median;

/// Counts heap allocations (alloc + realloc) process-wide: one relaxed
/// increment per call, the same idiom as the repo's zero-alloc gate.
pub struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the only addition is a relaxed counter increment.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU time the calling thread has consumed so far, ns. This sandbox is a
/// shared VM whose host takes the CPU away for milliseconds at a time
/// (`steal` in `/proc/stat`); the thread's CPU clock does not advance
/// while it does, so rates over it are far steadier than over wall time.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `timespec` through the pointer it
    // is given and nothing else; `ts` is a live, writable `timespec` with
    // the C layout, and std already links the libc that defines the symbol.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

fn status_kib(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:") as f64 / 1024.0
}

/// Current resident set of this process, bytes (`VmRSS`).
pub fn rss_bytes() -> u64 {
    status_kib("VmRSS:") * 1024
}

/// `(on-cpu ns, runqueue-wait ns)` of the calling thread so far, from
/// `/proc/thread-self/schedstat`; zeros where the kernel does not say.
pub fn schedstat() -> (u64, u64) {
    let s = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
    let mut it = s.split_whitespace().map(|x| x.parse::<u64>().unwrap_or(0));
    (it.next().unwrap_or(0), it.next().unwrap_or(0))
}

/// Median over `reps` repetitions of `f`, which returns ns per item.
fn median_of(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    let v: Vec<f64> = (0..reps).map(|_| f()).collect();
    median(&v)
}

/// Classic hold model on the engine's [`CalendarQueue`]: `items` pending
/// events, each hold pops the earliest and pushes it back 1–10 ms later.
/// Returns ns per hold.
pub fn queue_hold_ns(items: u64, seed: u64) -> f64 {
    const HOLDS: u64 = 200_000;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut q: CalendarQueue<u64> = CalendarQueue::new();
    for i in 0..items {
        q.push(rng.gen_range(0..10_000), i, i);
    }
    let mut cause = items;
    median_of(5, || {
        let t = Instant::now();
        for _ in 0..HOLDS {
            let (at, _, item) = q.pop().expect("queue holds `items` events");
            cause += 1;
            q.push(at + rng.gen_range(1_000..10_000), cause, black_box(item));
        }
        t.elapsed().as_nanos() as f64 / HOLDS as f64
    })
}

/// Isolated `StableStore`: ns per 64-byte `append`, and ns per record of
/// `crash` + `recover` over a log of `RECORDS` such records.
pub fn storage_ns() -> (f64, f64) {
    const RECORDS: u64 = 20_000;
    let payload = [0xA5u8; 64];
    let mut append = Vec::new();
    let mut recover = Vec::new();
    for rep in 0..5u64 {
        let mut store = StableStore::new(StorageConfig::default());
        let t = Instant::now();
        for i in 0..RECORDS {
            black_box(store.append(i * 1_000, &payload));
        }
        append.push(t.elapsed().as_nanos() as f64 / RECORDS as f64);
        let t = Instant::now();
        store.crash(RECORDS * 1_000 + 1_000_000, rep, rep);
        let rec = store.recover();
        recover.push(t.elapsed().as_nanos() as f64 / RECORDS as f64);
        assert_eq!(
            rec.replayed, RECORDS,
            "a clean crash keeps every durable record"
        );
        assert!(rec.prefix_ok);
    }
    (median(&append), median(&recover))
}

/// Isolated `DaemonWal::journal`: ns per `Checkpoint` record.
pub fn wal_journal_ns() -> f64 {
    const RECORDS: u64 = 20_000;
    median_of(5, || {
        let mut wal = DaemonWal::new(StorageConfig::default(), true);
        let t = Instant::now();
        for i in 0..RECORDS {
            let rec = WalRecord::Checkpoint {
                key: InstanceKey {
                    app: AppId(1),
                    task: (i % 64) as u32,
                    instance: 0,
                },
                remaining_mops: i as f64,
            };
            black_box(wal.journal(i * 1_000, &rec));
        }
        t.elapsed().as_nanos() as f64 / RECORDS as f64
    })
}

/// Median µs to `vce_script::parse` one of `sources` (0.0 if none).
pub fn script_parse_us(sources: &[String]) -> f64 {
    if sources.is_empty() {
        return 0.0;
    }
    let v: Vec<f64> = sources
        .iter()
        .map(|src| {
            let t = Instant::now();
            black_box(vce_script::parse(black_box(src)).expect("generated scripts parse"));
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    median(&v)
}
