//! The region barrier of the persistent thread pool.
//!
//! A `RegionBarrier` coordinates one leader and a fixed team of
//! workers through an unbounded sequence of fork-join regions. It is an
//! epoch (sense-reversing) barrier split into two halves:
//!
//! * **release** — the leader publishes a job payload and bumps the
//!   epoch; each worker compares the epoch to the last one it ran and
//!   wakes exactly once per region.
//! * **completion latch** — each worker increments a done-count after
//!   finishing the job; the leader waits until the whole team has
//!   checked in, which is what makes it sound to hand workers a borrowed
//!   closure (the borrow cannot end before every use of it has).
//!
//! # Spin, then park
//!
//! Kernels launch regions microseconds apart (one per BFS level, SSSP
//! bucket or PR sweep), and a futex sleep/wake round trip costs tens of
//! microseconds. Both halves therefore wait the same way (`poll`):
//! `yield_now` probes of an atomic for at most [`POLL_BUDGET`], and only
//! then the mutex/condvar path — the OpenMP/TBB "spin, then sleep"
//! barrier. Yielding rather than busy-spinning keeps the wait polite when
//! threads outnumber cores (a 16-thread pool or two serve handlers on a
//! 2-core host): a poller hands its core to whoever can make the
//! condition true. The budget bounds idle burn: [`POLL_BUDGET`] after the
//! last region every worker is parked on the condvar and the pool costs
//! no CPU.
//!
//! # Memory ordering
//!
//! The mutexes stay authoritative; the atomics only tell a poller when
//! to look.
//!
//! * `epoch_hint` mirrors `gate.epoch` (shutdown stores `u64::MAX`). It
//!   is stored with `Release` while the gate is held and polled with
//!   `Acquire`; a worker that sees it move then locks the gate and reads
//!   epoch, job and shutdown flag from there. The job payload therefore
//!   still travels inside the same mutex as the epoch — no torn job
//!   reads, no fence reasoning about the payload — and everything the
//!   leader wrote before `release` happens-before the worker's body.
//! * `gate.parked` counts workers blocked on `start`; it is only touched
//!   under the gate. A worker re-checks the epoch under the gate before
//!   it parks, so either it sees the new epoch or the leader (who bumps
//!   the epoch under the same gate) sees `parked > 0` and notifies: no
//!   lost wake, and no futex call when the whole team is polling.
//! * `done` is bumped with `AcqRel` and polled with `Acquire`. Every
//!   increment is a read-modify-write, so the load that observes the
//!   final count synchronises with *every* worker's increment (release
//!   sequence): all region-body writes happen-before `await_team`
//!   returns. `release` resets it before the gate unlock that publishes
//!   the epoch, so no worker can count into the old value.
//! * The worker whose increment completes the team always takes
//!   `leader_parked` and notifies only if the flag is set. The leader
//!   sets the flag and re-checks `done` under that same mutex before it
//!   blocks, so whichever of the two locks first, the other observes its
//!   write: again no lost wake.

use crate::sync::Mutex;
use gapbs_telemetry::{record, Counter};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Condvar;
use std::time::{Duration, Instant};

/// How long a waiter polls before it parks on the condvar.
///
/// Long enough to cover the serial gap between two regions of one
/// kernel (frontier swap, bucket scan: single-digit microseconds) and
/// the tail of a region whose chunks finished unevenly; short enough
/// that a pool nobody is using goes quiet at once and that a worker
/// oversubscribed off its core gives up instead of yielding in circles.
pub const POLL_BUDGET: Duration = Duration::from_micros(100);

/// Polls `ready`, yielding the core between probes, for at most
/// [`POLL_BUDGET`], and returns whether it came true in time.
///
/// There is deliberately no pause-instruction spin phase in front of the
/// yields: interleaved runs with 0, 8 and 32 `spin_loop` probes measured
/// the same launch cost with a core per thread (0.4–0.6 µs at 2 threads
/// on the 2-core reference host) and a worse one oversubscribed (3.2 vs
/// 2.3 µs at 4 threads), so the extra constant bought nothing.
fn poll(ready: impl Fn() -> bool) -> bool {
    let deadline = Instant::now() + POLL_BUDGET;
    loop {
        if ready() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::yield_now();
    }
}

/// What a worker observes when it comes back from [`RegionBarrier::wait`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Wake<J> {
    /// Epoch of the region being entered; pass it to the next `wait`.
    pub epoch: u64,
    /// The region's job, or `None` when the pool is shutting down.
    pub job: Option<J>,
}

#[derive(Debug)]
struct Gate<J> {
    epoch: u64,
    job: Option<J>,
    shutdown: bool,
    /// Workers currently blocked on `start`.
    parked: usize,
}

/// Epoch-release / completion-latch barrier for one leader and
/// `workers` team members (the leader itself is not counted).
#[derive(Debug)]
pub(crate) struct RegionBarrier<J> {
    workers: usize,
    gate: Mutex<Gate<J>>,
    epoch_hint: AtomicU64,
    start: Condvar,
    parks: AtomicU64,
    done: AtomicUsize,
    leader_parked: Mutex<bool>,
    finished: Condvar,
}

impl<J: Copy> RegionBarrier<J> {
    /// A barrier for a team of `workers` (excluding the leader).
    pub(crate) fn new(workers: usize) -> Self {
        RegionBarrier {
            workers,
            gate: Mutex::new(Gate {
                epoch: 0,
                job: None,
                shutdown: false,
                parked: 0,
            }),
            epoch_hint: AtomicU64::new(0),
            start: Condvar::new(),
            parks: AtomicU64::new(0),
            done: AtomicUsize::new(0),
            leader_parked: Mutex::new(false),
            finished: Condvar::new(),
        }
    }

    /// Team size the completion latch waits for.
    #[cfg(test)]
    pub(crate) fn workers(&self) -> usize {
        self.workers
    }

    /// Times a worker has given up polling and blocked on the condvar.
    /// Counted as the worker parks, not when it next wakes, so an idle
    /// team shows up here [`POLL_BUDGET`] after its last region.
    pub(crate) fn parks(&self) -> u64 {
        self.parks.load(Ordering::Relaxed)
    }

    /// Leader half, phase 1: publish `job`, open a new epoch, and wake
    /// whoever is parked. Resets the completion latch first, so a leader
    /// that panicked out of a *previous* region's body (after its
    /// workers checked in) cannot leave a stale done-count behind.
    pub(crate) fn release(&self, job: J) {
        self.done.store(0, Ordering::Relaxed);
        let mut gate = self.gate.lock();
        gate.job = Some(job);
        gate.epoch += 1;
        self.epoch_hint.store(gate.epoch, Ordering::Release);
        let parked = gate.parked;
        drop(gate);
        if parked > 0 {
            self.start.notify_all();
        }
    }

    /// Worker half, phase 1: wait until the epoch moves past
    /// `last_epoch` (or shutdown), then return the new epoch and job.
    pub(crate) fn wait(&self, last_epoch: u64) -> Wake<J> {
        poll(|| self.epoch_hint.load(Ordering::Acquire) != last_epoch);
        let mut gate = self.gate.lock();
        loop {
            if gate.shutdown {
                return Wake {
                    epoch: gate.epoch,
                    job: None,
                };
            }
            if gate.epoch != last_epoch {
                return Wake {
                    epoch: gate.epoch,
                    job: gate.job,
                };
            }
            self.parks.fetch_add(1, Ordering::Relaxed);
            record(Counter::PoolParks, 1);
            gate.parked += 1;
            gate = self.start.wait(gate).unwrap_or_else(|e| e.into_inner());
            gate.parked -= 1;
        }
    }

    /// Worker half, phase 2: check in as finished with the current
    /// region, waking the leader if the team is complete and it parked.
    pub(crate) fn complete(&self) {
        let done = self.done.fetch_add(1, Ordering::AcqRel) + 1;
        if done >= self.workers && *self.leader_parked.lock() {
            self.finished.notify_one();
        }
    }

    /// Leader half, phase 2: wait until every worker has checked in.
    pub(crate) fn await_team(&self) {
        let joined = || self.done.load(Ordering::Acquire) >= self.workers;
        if poll(joined) {
            return;
        }
        let mut parked = self.leader_parked.lock();
        *parked = true;
        while !joined() {
            parked = self
                .finished
                .wait(parked)
                .unwrap_or_else(|e| e.into_inner());
        }
        *parked = false;
    }

    /// Permanently releases the team with no job; `wait` returns
    /// `job: None` from now on.
    pub(crate) fn shutdown(&self) {
        let mut gate = self.gate.lock();
        gate.shutdown = true;
        self.epoch_hint.store(u64::MAX, Ordering::Release);
        drop(gate);
        self.start.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A team of `workers` that adds each job it receives into `ran`.
    fn team<'s>(
        s: &'s std::thread::Scope<'s, '_>,
        barrier: &'s RegionBarrier<u32>,
        ran: &'s AtomicU64,
    ) {
        for _ in 0..barrier.workers() {
            s.spawn(|| {
                let mut epoch = 0;
                loop {
                    let wake = barrier.wait(epoch);
                    let Some(job) = wake.job else { break };
                    epoch = wake.epoch;
                    ran.fetch_add(u64::from(job), Ordering::Relaxed);
                    barrier.complete();
                }
            });
        }
    }

    #[test]
    fn releases_exactly_one_wake_per_epoch() {
        // Team sizes around and far above any host's core count: the
        // oversubscribed teams are the ones that exhaust the poll budget
        // and mix polling with parked workers.
        for workers in [2, 7, 16] {
            let barrier = RegionBarrier::<u32>::new(workers);
            let ran = AtomicU64::new(0);
            std::thread::scope(|s| {
                team(s, &barrier, &ran);
                for region in 0..200 {
                    barrier.release(region);
                    barrier.await_team();
                    // Every worker's increment is visible once joined.
                    let expect = workers as u64 * (0..=u64::from(region)).sum::<u64>();
                    assert_eq!(ran.load(Ordering::Relaxed), expect, "team of {workers}");
                }
                barrier.shutdown();
            });
        }
    }

    #[test]
    fn regions_after_a_long_gap_reach_parked_workers() {
        // Gaps past the poll budget put the whole team on the condvar;
        // gaps inside it leave them polling. Alternate the two.
        let barrier = RegionBarrier::<u32>::new(3);
        let ran = AtomicU64::new(0);
        std::thread::scope(|s| {
            team(s, &barrier, &ran);
            for region in 0..20 {
                if region % 2 == 0 {
                    std::thread::sleep(POLL_BUDGET * 20);
                }
                barrier.release(1);
                barrier.await_team();
            }
            barrier.shutdown();
        });
        assert_eq!(ran.into_inner(), 3 * 20);
        assert!(barrier.parks() >= 3, "the sleeps outlast the poll budget");
    }

    #[test]
    fn wait_returns_immediately_when_region_is_open() {
        let barrier = RegionBarrier::<u8>::new(1);
        barrier.release(7);
        let wake = barrier.wait(0);
        assert_eq!(wake.job, Some(7));
        assert_eq!(barrier.parks(), 0, "no park when work was already released");
    }

    #[test]
    fn an_unreleased_worker_parks_instead_of_spinning() {
        let barrier = RegionBarrier::<u8>::new(1);
        std::thread::scope(|s| {
            let t = s.spawn(|| barrier.wait(0));
            let deadline = Instant::now() + Duration::from_secs(10);
            while barrier.parks() == 0 {
                assert!(Instant::now() < deadline, "worker never parked");
                std::thread::sleep(Duration::from_millis(1));
            }
            barrier.release(9);
            assert_eq!(t.join().unwrap().job, Some(9));
        });
    }

    #[test]
    fn a_parked_leader_is_woken_by_the_last_worker() {
        let barrier = RegionBarrier::<u8>::new(2);
        barrier.release(1);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    // Far past the leader's poll budget.
                    std::thread::sleep(POLL_BUDGET * 50);
                    barrier.complete();
                });
            }
            barrier.await_team();
        });
        assert_eq!(barrier.done.load(Ordering::Relaxed), 2);
        assert!(!*barrier.leader_parked.lock());
    }

    #[test]
    fn shutdown_reaches_polling_and_parked_workers() {
        for settle in [Duration::ZERO, Duration::from_millis(10)] {
            let barrier = RegionBarrier::<u8>::new(1);
            std::thread::scope(|s| {
                let t = s.spawn(|| barrier.wait(0));
                // Zero: the worker is still polling. 10 ms: it has parked.
                std::thread::sleep(settle);
                barrier.shutdown();
                assert!(t.join().unwrap().job.is_none());
            });
        }
    }

    #[test]
    fn release_resets_a_stale_done_count() {
        let barrier = RegionBarrier::<u8>::new(1);
        // Simulate a leader that panicked after its worker completed.
        barrier.complete();
        barrier.release(1);
        // The latch must now require a fresh completion.
        assert_eq!(barrier.done.load(Ordering::Relaxed), 0);
        barrier.complete();
        barrier.await_team();
    }
}
