//! The window runner — the only way the simulator advances: drives `S`
//! [`Shard`]s through lock-step conservative time windows, shard 0 on the
//! caller's thread and every other shard on a scoped worker thread.
//!
//! With one shard the same loop runs on the caller's thread alone, its
//! rendezvous points returning at once (nobody to meet) and its lookahead
//! unbounded (no cross-shard pair exists), so a "window" is the whole
//! fence-free span up to the run bound.
//!
//! This is the **only** threaded module in the simulator, and the only one
//! allowed to be: determinism is restored not by avoiding threads but by
//! the conservative barrier (no cross-shard event can land inside the
//! window that produced it, so shards never observe each other mid-window)
//! plus the shard-invariant cause key (see [`crate::shard`]). Everything
//! the threads share is either synchronized at the three barriers per
//! window or commutative (per-shard `NetStats` merged later).
//!
//! # Protocol (three barrier waits per window)
//!
//! 1. Each worker ships the previous window's outboxes to the other
//!    workers' inboxes. **Barrier 0** — every envelope is in its
//!    destination inbox before anyone looks at one.
//! 2. Each worker drains its inbox of cross-shard events, then publishes
//!    its earliest event time. **Barrier A.**
//! 3. The coordinator (worker 0, which also runs shard 0) reads all the
//!    published times plus the next fence, picks the window `[w_start,
//!    w_end)` ([`plan_window`]) or raises the stop flag. **Barrier B.**
//! 4. Every worker applies the fences at `w_start` to its plan replica
//!    (the owning shard also runs crash/boot callbacks), runs its events
//!    in `[w_start, w_end)`, buffers cross-shard sends in its outboxes
//!    and loops back to step 1.
//!
//! Inbox append order varies with thread timing, but the destination
//! queue orders purely on the `(at_us, cause)` key, so the queue state —
//! and therefore the whole run — is unaffected.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex, PoisonError};
use std::thread; // vce-lint: allow(D004) the one sanctioned threaded module: window barriers + cause keys keep the run deterministic (DESIGN.md decision 17)

use vce_net::FaultOp;

use crate::shard::{RemoteEvent, Shard};

/// Schedule-permutation hook for the race gate: `VCE_SHARDS_STAGGER=<seed>`
/// makes every worker yield its timeslice a pseudo-random number of times
/// (derived from seed × shard index × window count × phase) before the
/// shipping and publishing phases, permuting the order in which workers
/// reach each barrier. A correct barrier protocol is insensitive to wake
/// order, so output must stay byte-identical across seeds — the
/// `shard_stagger` gate sweeps seeds and diffs digests against serial.
/// Read once per sim, when its [`Rendezvous`] is built: set the variable
/// before constructing the `Sim` it should apply to.
fn stagger_seed() -> Option<u64> {
    std::env::var("VCE_SHARDS_STAGGER").ok()?.parse().ok()
}

/// splitmix64: cheap, well-mixed, and dependency-free.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn stagger(seed: Option<u64>, shard: usize, window: u64, phase: u64) {
    let Some(seed) = seed else { return };
    let k = splitmix(seed ^ splitmix((shard as u64) << 32 | phase) ^ splitmix(window));
    for _ in 0..(k & 7) {
        thread::yield_now();
    }
}

/// A fault fence as the runner sees it: `(at_us, driver cause, op)`.
pub(crate) type Fence = (u64, u64, FaultOp);

/// Everything the workers share, built once per sim so a run allocates
/// nothing: the barrier, each shard's published next-event time and
/// inbox, the coordinator's per-window plan, and the panic hand-off.
pub(crate) struct Rendezvous {
    barrier: Barrier,
    next_times: Vec<AtomicU64>,
    inboxes: Vec<Mutex<Vec<RemoteEvent>>>,
    /// Per-window plan, published by the coordinator between barriers A
    /// and B: the window end, and the fence-list index up to which
    /// (exclusive) this window's fences run.
    w_end: AtomicU64,
    fence_upto: AtomicUsize,
    /// Raised by the coordinator when nothing remains at or before the run
    /// bound, or by a worker that unwound. Written only between barriers A
    /// and B and read only after B, so every worker of an iteration reads
    /// the same value.
    stop: AtomicBool,
    /// First payload of a worker that unwound, re-raised by [`run`] once
    /// every worker has left the loop.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// `VCE_SHARDS_STAGGER`, as it stood when the sim was built.
    stagger: Option<u64>,
}

impl Rendezvous {
    pub(crate) fn new(shards: usize) -> Self {
        Self {
            barrier: Barrier::new(shards),
            next_times: (0..shards).map(|_| AtomicU64::new(u64::MAX)).collect(),
            inboxes: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
            w_end: AtomicU64::new(0),
            fence_upto: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            panic: Mutex::new(None),
            stagger: stagger_seed(),
        }
    }

    /// Meet every other worker: the loop's three rendezvous points and an
    /// unwinding worker's catch-up all come through here. A sim of one
    /// shard has nobody to meet, and `Barrier::wait` on a barrier of one
    /// still takes its mutex and issues a wake, so that case returns at
    /// once.
    fn meet(&self) {
        if self.next_times.len() > 1 {
            self.barrier.wait();
        }
    }
}

/// Drive all shards until no event or fence remains at or before `t`:
/// shard 0 on the caller's thread (which also coordinates), every other
/// shard on a scoped thread of its own.
///
/// `fences` must be sorted by `(at, cause)` with every entry ≤ `t`; each
/// worker applies them to its own replica at window starts, all at the
/// same fence cursor (published by the coordinator), so replicas never
/// diverge.
pub(crate) fn run(shards: &mut [Shard], rv: &Rendezvous, fences: &[Fence], lookahead: u64, t: u64) {
    rv.stop.store(false, Ordering::Release);
    let (first, rest) = shards.split_first_mut().expect("a sim has a shard");
    if rest.is_empty() {
        // `thread::scope` allocates; one shard needs no scope.
        worker(first, rv, fences, lookahead, t);
    } else {
        thread::scope(|scope| {
            for sh in rest {
                scope.spawn(move || worker(sh, rv, fences, lookahead, t));
            }
            worker(first, rv, fences, lookahead, t);
        });
    }
    let payload = rv
        .panic
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .take();
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
}

/// The next window, given the earliest queued event anywhere and the
/// fences not yet applied (`fences[cursor..]`): `(upto, w_end)`, where
/// `fences[cursor..upto]` apply at the window's start and the window runs
/// events strictly before `w_end` — one lookahead wide, cut short by the
/// next fence and by the run bound `t`. `None` when nothing remains at or
/// before `t`.
fn plan_window(
    next_ev: u64,
    fences: &[Fence],
    cursor: usize,
    lookahead: u64,
    t: u64,
) -> Option<(usize, u64)> {
    let next_fence = fences.get(cursor).map_or(u64::MAX, |f| f.0);
    let w_start = next_ev.min(next_fence);
    // `w_start == MAX` means every queue is empty and no fence remains —
    // checked explicitly because `w_start > t` can't catch it when the
    // caller's bound is itself `u64::MAX` (`run_until_idle`).
    if w_start > t || w_start == u64::MAX {
        return None;
    }
    let at_start = fences[cursor..].iter().take_while(|f| f.0 == w_start);
    let upto = cursor + at_start.count();
    let fence_cap = fences.get(upto).map_or(u64::MAX, |f| f.0);
    let w_end = w_start
        .saturating_add(lookahead)
        .min(fence_cap)
        .min(t.saturating_add(1));
    Some((upto, w_end))
}

/// Run one shard's window loop, and keep the others live if it unwinds.
/// `Barrier` does not poison: a worker that simply died would leave the
/// rest blocked in `wait` and the scope would never return. So a worker
/// that unwinds still meets the barriers left in its iteration, raising
/// the stop flag where the coordinator would — between barriers A and B —
/// so that every worker leaves after B, and parks its payload for [`run`]
/// to re-raise.
fn worker(sh: &mut Shard, rv: &Rendezvous, fences: &[Fence], lookahead: u64, t: u64) {
    let mut waits = 0;
    let looped = catch_unwind(AssertUnwindSafe(|| {
        window_loop(sh, rv, fences, lookahead, t, &mut waits);
    }));
    if let Err(payload) = looped {
        for met in waits..3 {
            if met == 2 {
                rv.stop.store(true, Ordering::Release);
            }
            rv.meet();
        }
        rv.panic
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get_or_insert(payload);
    }
}

/// The window loop itself. `waits` counts the barrier waits this worker
/// has completed in its current iteration (0 once it is past barrier B).
fn window_loop(
    sh: &mut Shard,
    rv: &Rendezvous,
    fences: &[Fence],
    lookahead: u64,
    t: u64,
    waits: &mut u8,
) {
    let i = sh.index;
    let mut fence_cursor = 0usize;
    let seed = rv.stagger;
    let mut window_no = 0u64;
    loop {
        window_no += 1;
        stagger(seed, i, window_no, 0);
        // Phase 0: ship the previous window's outboxes (and any mail a
        // driver-time fence produced since the last run), then rendezvous
        // before anyone drains. Without this barrier a fast receiver can
        // loop around, drain its still-empty inbox and publish its next
        // event time while a slow sender is still posting mail to it —
        // the coordinator then plans a window that silently excludes that
        // mail, and the receiver replays it a window late (time going
        // backwards, output diverging with thread timing).
        for (d, inbox) in rv.inboxes.iter().enumerate() {
            if d != i && !sh.outbox_is_empty(d) {
                let mut sink = inbox.lock().expect("sim worker panicked");
                sh.drain_outbox_into(d, &mut sink);
            }
        }
        rv.meet();
        *waits = 1;
        stagger(seed, i, window_no, 1);
        // Phase 1: absorb cross-shard mail, publish the earliest thing
        // this shard still has to do.
        {
            let mut mail = rv.inboxes[i].lock().expect("sim worker panicked");
            sh.enqueue_remote_drain(&mut mail);
        }
        rv.next_times[i].store(sh.peek_time().unwrap_or(u64::MAX), Ordering::Release);
        rv.meet();
        *waits = 2;
        // Phase 2 (coordinator only, between the barriers — exclusive):
        // pick the next window or stop.
        if i == 0 {
            let next_ev = rv
                .next_times
                .iter()
                .map(|a| a.load(Ordering::Acquire))
                .min()
                .unwrap_or(u64::MAX);
            match plan_window(next_ev, fences, fence_cursor, lookahead, t) {
                Some((upto, w_end)) => {
                    rv.fence_upto.store(upto, Ordering::Release);
                    rv.w_end.store(w_end, Ordering::Release);
                }
                None => rv.stop.store(true, Ordering::Release),
            }
        }
        rv.meet();
        *waits = 0;
        if rv.stop.load(Ordering::Acquire) {
            break;
        }
        // Phase 3: fences for this window (every replica, same cursor
        // range), then the window itself. The outboxes it fills are
        // shipped at the top of the next iteration, behind the phase-0
        // barrier.
        let upto = rv.fence_upto.load(Ordering::Acquire);
        for (at, cause, op) in &fences[fence_cursor..upto] {
            sh.apply_fence(*at, *cause, op);
        }
        fence_cursor = upto;
        sh.run_window(rv.w_end.load(Ordering::Acquire));
    }
}
