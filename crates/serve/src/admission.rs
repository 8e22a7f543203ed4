//! Admission control for the serve daemon.
//!
//! Unbounded concurrent queries would not crash — they would share the
//! cores ever more thinly and blow through every deadline at once. The
//! [`AdmissionGate`] makes that queue explicit and bounded: at most
//! `max_active` queries execute concurrently, at most `max_waiting` more
//! may block waiting for a slot, and everything beyond that is rejected
//! immediately with a `rejected` error the client can retry against.
//!
//! Waits are deadline-aware: a query whose deadline expires while still
//! queued is failed with `deadline_exceeded` without ever touching the
//! pool. Shutdown flips the gate into draining mode — new admissions
//! fail fast while in-flight permits finish normally — and [`drain`]
//! blocks until the last permit is returned.
//!
//! # Coherent observation
//!
//! The gate is also the daemon's source of lifecycle truth for the live
//! metrics plane, and a scrape must never observe impossible states
//! (`completed > admitted`, or a latency histogram whose count disagrees
//! with `completed`). Every transition that participates in those
//! invariants — admit, release (with its batch members) — mutates the
//! stats *inside the state-mutex critical section*, and [`observe`]
//! reads everything under that same lock. Within one
//! [`GateObservation`] the equalities are exact:
//!
//! * `admitted == completed + active`
//! * `latency.count == completed`
//! * `inline <= completed`
//!
//! (`rejected` / `deadline_exceeded` stay plain monotone atomics — they
//! participate in no cross-field equality.)
//!
//! [`drain`]: AdmissionGate::drain
//! [`observe`]: AdmissionGate::observe

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use gapbs_telemetry::metrics::{Histogram, HistogramSnapshot};

/// Why a query was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitError {
    /// Active and waiting capacity were both full.
    Rejected,
    /// The deadline expired while the query was queued for a slot.
    DeadlineExceeded,
    /// The gate is draining for shutdown.
    Draining,
}

#[derive(Debug, Default)]
struct GateState {
    active: usize,
    waiting: usize,
    draining: bool,
    /// `(token, enqueued-at)` per parked waiter, for the queue-age gauge.
    /// Bounded by `max_waiting`; removal is a linear scan by token.
    waiting_since: Vec<(u64, Instant)>,
    next_wait_token: u64,
}

/// Cumulative gate statistics, monotone over the daemon lifetime.
///
/// These are the gate's own cells, not reads of the global counter
/// registry (which `gapbs_telemetry::capture` may reset mid-run). The
/// cells are atomics only so [`GateSnapshot`]-free readers stay legal;
/// the invariant-bearing ones are written exclusively under the gate's
/// state mutex (see the module docs).
#[derive(Debug, Default)]
struct GateStats {
    admitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    deadline_exceeded: AtomicU64,
    batch_queries: AtomicU64,
    batch_width: AtomicU64,
    inline: AtomicU64,
}

/// Point-in-time copy of the gate's cumulative statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateSnapshot {
    pub admitted: u64,
    pub rejected: u64,
    pub completed: u64,
    pub deadline_exceeded: u64,
    /// Logical queries answered out of a multi-source batch (cumulative).
    pub batch_queries: u64,
    /// Widest batch executed so far (monotone max).
    pub batch_width: u64,
    /// Completed queries that ran at width 1 on their own handler thread
    /// because another query held a permit when they were admitted.
    pub inline: u64,
}

/// One coherent reading of the whole gate, taken under the state lock:
/// cumulative stats, instantaneous queue gauges, and the end-to-end
/// latency histogram, all from the same instant.
#[derive(Debug, Clone)]
pub(crate) struct GateObservation {
    /// Cumulative lifecycle stats.
    pub stats: GateSnapshot,
    /// Permits currently held.
    pub active: usize,
    /// Queries parked waiting for a slot.
    pub waiting: usize,
    /// Age of the oldest parked waiter, in microseconds (0 when none).
    pub queue_age_us: u64,
    /// End-to-end latency distribution (µs) of every completed query;
    /// `latency.count == stats.completed` exactly.
    pub latency: HistogramSnapshot,
}

/// Bounded concurrency gate; see the module docs.
#[derive(Debug)]
pub struct AdmissionGate {
    state: Mutex<GateState>,
    cond: Condvar,
    max_active: usize,
    max_waiting: usize,
    stats: GateStats,
    /// End-to-end latency histogram (µs), recorded at permit release in
    /// the same critical section that counts the query completed.
    latency_us: Histogram,
}

/// RAII token for an admitted query; releasing it frees the slot, counts
/// the query as completed, and records its latency histogram entry.
#[derive(Debug)]
pub struct Permit<'g> {
    gate: &'g AdmissionGate,
    admitted_at: Instant,
    /// Permits held right after this one was granted, itself included.
    active_at_admit: usize,
    /// Set by the engine when the query ran at width 1; release counts
    /// it into `inline` under the state lock, beside `completed`.
    inline: AtomicBool,
    /// Sources answered by this permit's batch (0 when not a batch): the
    /// release admits and completes the extra members beside this one.
    batch: AtomicU64,
    /// End-to-end latency set by the engine before release; `u64::MAX`
    /// means unset and release falls back to the permit's own hold time.
    latency_us: AtomicU64,
}

impl AdmissionGate {
    /// Gate allowing `max_active` concurrent holders and `max_waiting`
    /// queued waiters. Both floors are clamped to at least 1 active.
    pub fn new(max_active: usize, max_waiting: usize) -> AdmissionGate {
        AdmissionGate {
            state: Mutex::new(GateState::default()),
            cond: Condvar::new(),
            max_active: max_active.max(1),
            max_waiting,
            stats: GateStats::default(),
            latency_us: Histogram::new(),
        }
    }

    fn permit(&self, active_at_admit: usize) -> Permit<'_> {
        Permit {
            gate: self,
            admitted_at: Instant::now(),
            active_at_admit,
            inline: AtomicBool::new(false),
            batch: AtomicU64::new(0),
            latency_us: AtomicU64::new(u64::MAX),
        }
    }

    /// Acquires an execution slot, blocking until one frees up or
    /// `deadline` passes. `None` waits without a deadline.
    pub fn admit(&self, deadline: Option<Instant>) -> Result<Permit<'_>, AdmitError> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.draining {
            return Err(self.fail(AdmitError::Draining));
        }
        if state.active < self.max_active {
            state.active += 1;
            self.stats.admitted.fetch_add(1, Ordering::Relaxed);
            return Ok(self.permit(state.active));
        }
        if state.waiting >= self.max_waiting {
            return Err(self.fail(AdmitError::Rejected));
        }
        state.waiting += 1;
        let token = state.next_wait_token;
        state.next_wait_token += 1;
        state.waiting_since.push((token, Instant::now()));
        let outcome = loop {
            if state.draining {
                break Err(AdmitError::Draining);
            }
            if state.active < self.max_active {
                // Claim the slot and count the admission while still
                // inside the critical section, so no observation can see
                // `active` grow before `admitted` does.
                state.active += 1;
                self.stats.admitted.fetch_add(1, Ordering::Relaxed);
                break Ok(());
            }
            match deadline {
                None => {
                    state = self.cond.wait(state).unwrap_or_else(|e| e.into_inner());
                }
                Some(when) => {
                    let now = Instant::now();
                    if now >= when {
                        break Err(AdmitError::DeadlineExceeded);
                    }
                    let (guard, _timeout) = self
                        .cond
                        .wait_timeout(state, when - now)
                        .unwrap_or_else(|e| e.into_inner());
                    state = guard;
                }
            }
        };
        state.waiting -= 1;
        if let Some(pos) = state.waiting_since.iter().position(|&(t, _)| t == token) {
            state.waiting_since.swap_remove(pos);
        }
        let active = state.active;
        drop(state);
        match outcome {
            Ok(()) => Ok(self.permit(active)),
            Err(err) => Err(self.fail(err)),
        }
    }

    /// Flips the gate into draining mode and blocks until every
    /// outstanding permit has been released. Waiters are woken and fail
    /// with [`AdmitError::Draining`].
    pub(crate) fn drain(&self) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.draining = true;
        self.cond.notify_all();
        while state.active > 0 {
            state = self.cond.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// `true` once [`drain`](Self::drain) has begun (readiness probes).
    pub(crate) fn draining(&self) -> bool {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .draining
    }

    /// Number of permits currently held.
    pub(crate) fn active(&self) -> usize {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).active
    }

    /// Copies the cumulative lifecycle stats. Unsynchronized with
    /// in-flight transitions — use `observe` when the
    /// cross-field invariants matter (scrapes, lint).
    pub fn snapshot(&self) -> GateSnapshot {
        GateSnapshot {
            admitted: self.stats.admitted.load(Ordering::Relaxed),
            rejected: self.stats.rejected.load(Ordering::Relaxed),
            completed: self.stats.completed.load(Ordering::Relaxed),
            deadline_exceeded: self.stats.deadline_exceeded.load(Ordering::Relaxed),
            batch_queries: self.stats.batch_queries.load(Ordering::Relaxed),
            batch_width: self.stats.batch_width.load(Ordering::Relaxed),
            inline: self.stats.inline.load(Ordering::Relaxed),
        }
    }

    /// One coherent reading of stats, queue gauges, and the latency
    /// histogram, taken under the state lock. The invariant-bearing
    /// writers hold the same lock, so within the returned observation
    /// `admitted == completed + active`, `latency.count == completed` and
    /// `inline <= completed` hold exactly — even mid-load.
    pub(crate) fn observe(&self) -> GateObservation {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let queue_age_us = state
            .waiting_since
            .iter()
            .map(|&(_, since)| since.elapsed().as_micros() as u64)
            .max()
            .unwrap_or(0);
        GateObservation {
            stats: GateSnapshot {
                admitted: self.stats.admitted.load(Ordering::Relaxed),
                rejected: self.stats.rejected.load(Ordering::Relaxed),
                completed: self.stats.completed.load(Ordering::Relaxed),
                deadline_exceeded: self.stats.deadline_exceeded.load(Ordering::Relaxed),
                batch_queries: self.stats.batch_queries.load(Ordering::Relaxed),
                batch_width: self.stats.batch_width.load(Ordering::Relaxed),
                inline: self.stats.inline.load(Ordering::Relaxed),
            },
            active: state.active,
            waiting: state.waiting,
            queue_age_us,
            latency: self.latency_us.snapshot(),
        }
    }

    /// Counts one executed multi-source batch: `members` logical queries
    /// answered by a single MS-BFS sweep. Every member is separately
    /// accounted as admitted (its own permit, or one permit carrying
    /// [`Permit::note_batch`] for sources that share it), so
    /// `batch_queries <= admitted` is an invariant.
    pub(crate) fn note_batch(&self, members: u64) {
        let _state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        self.count_batch(members);
    }

    fn count_batch(&self, members: u64) {
        self.stats
            .batch_queries
            .fetch_add(members, Ordering::Relaxed);
        self.stats.batch_width.fetch_max(members, Ordering::Relaxed);
    }

    /// Counts a query that finished execution past its deadline (admitted
    /// and completed, but answered with a `deadline_exceeded` error).
    pub(crate) fn note_deadline_exceeded(&self) {
        self.stats.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
    }

    fn fail(&self, err: AdmitError) -> AdmitError {
        match err {
            AdmitError::Rejected | AdmitError::Draining => {
                self.stats.rejected.fetch_add(1, Ordering::Relaxed);
            }
            AdmitError::DeadlineExceeded => {
                self.stats.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
            }
        }
        err
    }
}

impl Permit<'_> {
    /// When the slot was granted (queue wait = this minus receive time).
    pub(crate) fn admitted_at(&self) -> Instant {
        self.admitted_at
    }

    /// Whether another query held a permit when this one was granted —
    /// the engine's cue to run it at width 1 rather than contend for the
    /// shared pool.
    pub(crate) fn concurrent(&self) -> bool {
        self.active_at_admit > 1
    }

    /// Marks the query as run at width 1; counted into
    /// [`GateSnapshot::inline`] when the permit is released.
    pub(crate) fn note_inline(&self) {
        self.inline.store(true, Ordering::Relaxed);
    }

    /// Sets the end-to-end latency (µs) this permit's release will record
    /// into the gate's histogram. Unset permits record their own hold
    /// time, so every release contributes exactly one entry either way.
    pub(crate) fn set_latency_us(&self, us: u64) {
        self.latency_us
            .store(us.min(u64::MAX - 1), Ordering::Relaxed);
    }

    /// Marks this permit as carrying an explicit batch of `members`
    /// sources. Its release admits and completes the `members - 1` extra
    /// logical queries at the batch's latency (one histogram entry each,
    /// keeping `latency.count == completed` exact) and counts the batch,
    /// all in the critical section that completes the permit.
    pub(crate) fn note_batch(&self, members: u64) {
        self.batch.store(members, Ordering::Relaxed);
    }

    fn release(&self) {
        let latency_us = match self.latency_us.load(Ordering::Relaxed) {
            u64::MAX => self.admitted_at.elapsed().as_micros() as u64,
            set => set,
        };
        let gate = self.gate;
        let mut state = gate.state.lock().unwrap_or_else(|e| e.into_inner());
        state.active -= 1;
        gate.stats.completed.fetch_add(1, Ordering::Relaxed);
        if self.inline.load(Ordering::Relaxed) {
            gate.stats.inline.fetch_add(1, Ordering::Relaxed);
        }
        // Same critical section as the completed count: an observation
        // can never see the two disagree.
        gate.latency_us.record(latency_us);
        let members = self.batch.load(Ordering::Relaxed);
        if members > 0 {
            let extra = members - 1;
            gate.stats.admitted.fetch_add(extra, Ordering::Relaxed);
            gate.stats.completed.fetch_add(extra, Ordering::Relaxed);
            for _ in 0..extra {
                gate.latency_us.record(latency_us);
            }
            gate.count_batch(members);
        }
        // Wake both slot waiters and a drainer waiting for active == 0.
        gate.cond.notify_all();
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn admits_up_to_capacity_then_rejects() {
        let gate = AdmissionGate::new(2, 0);
        let a = gate.admit(None).unwrap();
        let b = gate.admit(None).unwrap();
        assert_eq!(gate.admit(None).unwrap_err(), AdmitError::Rejected);
        drop(a);
        let c = gate.admit(None).unwrap();
        drop(b);
        drop(c);
        let snap = gate.snapshot();
        assert_eq!(snap.admitted, 3);
        assert_eq!(snap.rejected, 1);
        assert_eq!(snap.completed, 3);
        assert!(snap.completed <= snap.admitted);
    }

    #[test]
    fn batch_accounting_keeps_members_under_admitted() {
        let gate = AdmissionGate::new(2, 0);
        // Explicit batch: one permit carries 5 sources.
        let permit = gate.admit(None).unwrap();
        permit.note_batch(5);
        drop(permit);
        assert_eq!(gate.observe().latency.count, 5, "one entry per member");
        // Coalesced batch: three members, each with its own permit.
        let a = gate.admit(None).unwrap();
        let b = gate.admit(None).unwrap();
        gate.note_batch(2);
        drop(a);
        drop(b);
        let snap = gate.snapshot();
        assert_eq!(snap.admitted, 7);
        assert_eq!(snap.completed, 7);
        assert_eq!(snap.batch_queries, 7);
        assert_eq!(snap.batch_width, 5, "width is a monotone max");
        assert!(snap.batch_queries <= snap.admitted);
    }

    #[test]
    fn queued_waiter_times_out_at_deadline() {
        let gate = AdmissionGate::new(1, 4);
        let held = gate.admit(None).unwrap();
        let deadline = Instant::now() + Duration::from_millis(30);
        let err = gate.admit(Some(deadline)).unwrap_err();
        assert_eq!(err, AdmitError::DeadlineExceeded);
        assert_eq!(gate.snapshot().deadline_exceeded, 1);
        drop(held);
    }

    #[test]
    fn waiter_wakes_when_slot_frees() {
        let gate = Arc::new(AdmissionGate::new(1, 4));
        let held = gate.admit(None).unwrap();
        let waiter = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || gate.admit(None).map(drop).is_ok())
        };
        // Give the waiter time to park, then free the slot.
        std::thread::sleep(Duration::from_millis(20));
        drop(held);
        assert!(waiter.join().unwrap());
        assert_eq!(gate.snapshot().admitted, 2);
    }

    #[test]
    fn drain_rejects_new_and_waits_for_active() {
        let gate = AdmissionGate::new(1, 4);
        assert!(!gate.draining());
        std::thread::scope(|scope| {
            let held = gate.admit(None).unwrap();
            scope.spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                drop(held);
            });
            gate.drain();
            assert!(gate.draining());
            assert_eq!(gate.active(), 0);
            assert_eq!(gate.admit(None).unwrap_err(), AdmitError::Draining);
        });
    }

    #[test]
    fn observation_sees_waiting_queue_and_its_age() {
        let gate = Arc::new(AdmissionGate::new(1, 4));
        let held = gate.admit(None).unwrap();
        let waiter = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || drop(gate.admit(None).unwrap()))
        };
        // Let the waiter park, then observe it.
        let mut obs = gate.observe();
        for _ in 0..200 {
            if obs.waiting == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
            obs = gate.observe();
        }
        assert_eq!(obs.waiting, 1);
        assert_eq!(obs.active, 1);
        assert!(obs.queue_age_us > 0, "parked waiter has nonzero age");
        drop(held);
        waiter.join().unwrap();
        let obs = gate.observe();
        assert_eq!(obs.waiting, 0);
        assert_eq!(obs.queue_age_us, 0);
    }

    #[test]
    fn observation_invariants_hold_exactly_under_churn() {
        // Hammer the gate from N threads while an observer thread
        // continuously asserts the coherent-snapshot equalities the
        // metrics plane advertises. With the pre-fix code (stats bumped
        // outside the state lock) this fails within a few iterations.
        let gate = Arc::new(AdmissionGate::new(3, 64));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|scope| {
            for t in 0..6 {
                let gate = Arc::clone(&gate);
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        if let Ok(permit) = gate.admit(None) {
                            permit.set_latency_us(100 + t * 10 + i % 7);
                            if permit.concurrent() {
                                permit.note_inline();
                            }
                            drop(permit);
                        }
                        i += 1;
                    }
                });
            }
            let observer = {
                let gate = Arc::clone(&gate);
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    let mut observations = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let obs = gate.observe();
                        assert_eq!(
                            obs.stats.admitted,
                            obs.stats.completed + obs.active as u64,
                            "admitted == completed + active must hold in every observation"
                        );
                        assert_eq!(
                            obs.latency.count, obs.stats.completed,
                            "latency histogram count must equal completed"
                        );
                        assert!(obs.stats.inline <= obs.stats.completed);
                        observations += 1;
                    }
                    observations
                })
            };
            std::thread::sleep(Duration::from_millis(150));
            stop.store(true, Ordering::Relaxed);
            let observations = observer.join().unwrap();
            assert!(observations > 10, "observer barely ran");
        });
        let final_obs = gate.observe();
        assert_eq!(final_obs.active, 0);
        assert_eq!(final_obs.stats.admitted, final_obs.stats.completed);
        assert!(final_obs.latency.quantile(0.5).unwrap() >= 64);
    }

    #[test]
    fn permits_report_concurrency_and_count_inline_at_release() {
        let gate = AdmissionGate::new(2, 0);
        let first = gate.admit(None).unwrap();
        assert!(!first.concurrent(), "a lone permit has the gate to itself");
        let second = gate.admit(None).unwrap();
        assert!(second.concurrent());
        second.note_inline();
        assert_eq!(gate.observe().stats.inline, 0, "counted at release");
        drop(second);
        let obs = gate.observe();
        assert_eq!((obs.stats.inline, obs.stats.completed), (1, 1));
        drop(first);
        assert_eq!(gate.snapshot().inline, 1);
    }

    #[test]
    fn release_records_explicit_latency() {
        let gate = AdmissionGate::new(1, 0);
        let permit = gate.admit(None).unwrap();
        permit.set_latency_us(5000);
        drop(permit);
        let obs = gate.observe();
        assert_eq!(obs.latency.count, 1);
        // 5000 µs lands in bucket [4096, 8192).
        assert_eq!(obs.latency.quantile(1.0), Some(4096));
    }
}
