//! Phase span timers.
//!
//! GAP's timing rules (DESIGN.md §5) only time the kernel proper — graph
//! build, heuristic relabeling, and verification are untimed. These spans
//! make those *untimed* phases visible so restructuring cost can be
//! reported next to kernel time in the run ledger.
//!
//! Spans nest: a `Relabel` span opened inside a `Build` span accrues to
//! both (inclusive timing), matching how the phases physically nest in
//! the runner. Accrual happens at span close into relaxed atomics, so
//! guards are cheap and thread-safe.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The timed phases of one benchmark cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Phase {
    /// Graph/matrix construction inside `prepare` (untimed by Table IV).
    Build,
    /// Heuristic-controlled relabeling/reordering (Table III footnote 2).
    Relabel,
    /// The kernel proper — what Table IV times.
    Kernel,
    /// Output verification against the sequential oracles.
    Verify,
}

impl Phase {
    /// Every phase, in ledger order.
    pub(crate) const ALL: [Phase; 4] = [Phase::Build, Phase::Relabel, Phase::Kernel, Phase::Verify];

    /// Number of phases.
    pub(crate) const COUNT: usize = Self::ALL.len();

    /// The stable snake_case ledger key.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Phase::Build => "build",
            Phase::Relabel => "relabel",
            Phase::Kernel => "kernel",
            Phase::Verify => "verify",
        }
    }

    /// Parses a ledger key back to the phase.
    pub(crate) fn from_name(name: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.name() == name)
    }
}

/// Aggregated per-phase wall time in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseTimes {
    seconds: [f64; Phase::COUNT],
}

impl PhaseTimes {
    /// The all-zero table.
    pub fn zero() -> Self {
        Self::default()
    }

    /// Accrued seconds of one phase.
    pub fn get(&self, p: Phase) -> f64 {
        self.seconds[p as usize]
    }

    /// Sets one phase's seconds (ledger parsing and tests).
    pub(crate) fn set(&mut self, p: Phase, s: f64) {
        self.seconds[p as usize] = s;
    }

    /// `self - other`, clamped at zero — the time between two snapshots.
    pub fn delta(&self, other: &PhaseTimes) -> PhaseTimes {
        let mut out = PhaseTimes::zero();
        for p in Phase::ALL {
            out.set(p, (self.get(p) - other.get(p)).max(0.0));
        }
        out
    }

    /// `(key, seconds)` pairs in ledger order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Phase, f64)> + '_ {
        Phase::ALL.into_iter().map(|p| (p, self.get(p)))
    }
}

/// A per-phase accumulator of nanoseconds.
#[derive(Debug, Default)]
pub struct PhaseClock {
    nanos: [AtomicU64; Phase::COUNT],
}

impl PhaseClock {
    /// Creates a zeroed clock.
    pub(crate) const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        PhaseClock {
            nanos: [ZERO; Phase::COUNT],
        }
    }

    /// Accrues `nanos` to `phase`.
    pub fn accrue(&self, phase: Phase, nanos: u64) {
        self.nanos[phase as usize].fetch_add(nanos, Ordering::Relaxed);
    }

    /// Snapshot in seconds.
    pub(crate) fn times(&self) -> PhaseTimes {
        let mut out = PhaseTimes::zero();
        for p in Phase::ALL {
            out.set(
                p,
                self.nanos[p as usize].load(Ordering::Relaxed) as f64 / 1e9,
            );
        }
        out
    }

    /// Zeroes every phase.
    #[cfg(test)]
    pub(crate) fn reset(&self) {
        for cell in &self.nanos {
            cell.store(0, Ordering::Relaxed);
        }
    }
}

static GLOBAL_CLOCK: PhaseClock = PhaseClock::new();

/// The global phase clock the runner's spans accrue into.
pub fn clock() -> &'static PhaseClock {
    &GLOBAL_CLOCK
}

/// Snapshot of the global clock in seconds.
pub fn phase_times() -> PhaseTimes {
    GLOBAL_CLOCK.times()
}

/// An open span: accrues its inclusive elapsed time to its phase on drop.
#[derive(Debug)]
pub struct Span {
    phase: Phase,
    start: Instant,
}

impl Span {
    /// Opens a span on the global clock.
    pub fn enter(phase: Phase) -> Span {
        Span {
            phase,
            start: Instant::now(),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        GLOBAL_CLOCK.accrue(self.phase, self.start.elapsed().as_nanos() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn names_round_trip() {
        for p in Phase::ALL {
            assert_eq!(Phase::from_name(p.name()), Some(p));
        }
        assert_eq!(Phase::from_name("bogus"), None);
    }

    #[test]
    fn private_clock_accrues_and_resets() {
        let clock = PhaseClock::new();
        clock.accrue(Phase::Build, 2_000_000_000);
        clock.accrue(Phase::Kernel, 0);
        let t = clock.times();
        assert!((t.get(Phase::Build) - 2.0).abs() < 1e-9);
        clock.reset();
        assert_eq!(clock.times().get(Phase::Build), 0.0);
    }

    #[test]
    fn spans_nest_inclusively() {
        // A child span's time is also inside the parent's window: both
        // phases see at least the child's duration.
        let before = phase_times();
        {
            let _build = Span::enter(Phase::Build);
            {
                let _relabel = Span::enter(Phase::Relabel);
                std::thread::sleep(Duration::from_millis(20));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let d = phase_times().delta(&before);
        assert!(d.get(Phase::Relabel) >= 0.015, "relabel {:?}", d);
        assert!(
            d.get(Phase::Build) >= d.get(Phase::Relabel),
            "parent must include child: {:?}",
            d
        );
    }

    #[test]
    fn delta_clamps_at_zero() {
        let mut a = PhaseTimes::zero();
        a.set(Phase::Kernel, 1.0);
        let mut b = PhaseTimes::zero();
        b.set(Phase::Kernel, 3.0);
        assert_eq!(a.delta(&b).get(Phase::Kernel), 0.0);
    }
}
