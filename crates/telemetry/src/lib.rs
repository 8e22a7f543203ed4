//! Execution telemetry for the GAPBS reproduction.
//!
//! The paper's §V narratives are claims about *work performed* — edges
//! examined, direction switches, bucket relaxations, iterations — but a
//! wall-clock-only harness can assert Table V ratios without explaining
//! them. This crate makes the work visible:
//!
//! * `counters` — a lock-free registry of per-thread relaxed-atomic
//!   cells over a fixed counter vocabulary, aggregated on demand;
//! * [`span`] — phase timers (`build`, `relabel`, `kernel`, `verify`)
//!   that expose restructuring cost per the GAP timing rules;
//! * [`ledger`] — the JSON-lines run ledger (`results/ledger.jsonl`):
//!   one record per trial with times, counters, and the git revision,
//!   which `perf_compare --lint` checks and the work golden pins;
//! * [`json`] — the dependency-free JSON encoder/parser the ledger uses;
//! * [`metrics`] — always-on live metrics: lock-free log₂ latency
//!   histograms (p50/p90/p99/p999) and a named counter/gauge/histogram
//!   registry with Prometheus text exposition, for the serving daemon's
//!   scrapeable stats plane (`docs/OPERATIONS.md`).
//!
//! # One build
//!
//! Counters and kernel trace events are always compiled; there is no
//! cargo feature and no uninstrumented twin. What keeps that affordable
//! is where [`record`] is called: hot loops count into locals and record
//! once per chunk, worker or round, and trace emitters sit behind one
//! relaxed load of the session flag ([`trace::is_on`]).

mod counters;
pub mod json;
pub mod ledger;
pub mod metrics;
pub mod span;
pub mod trace;

pub use counters::{record, snapshot, Counter, CounterSet};
pub use ledger::{LedgerSink, TrialRecord};
pub use metrics::Histogram;
pub use span::{Phase, PhaseTimes, Span};
pub use trace::Trace;

/// Runs `f` with the global counter registry zeroed, returning its result
/// plus everything counted during the call.
///
/// Captures serialize on an internal lock so concurrent captures (e.g.
/// parallel test threads) don't attribute each other's work.
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, CounterSet) {
    static CAPTURE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _guard = CAPTURE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    counters::reset();
    let result = f();
    (result, counters::snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_scopes_global_counts() {
        let ((), counts) = capture(|| {
            record(Counter::EdgesExamined, 7);
            record(Counter::EdgesExamined, 5);
        });
        assert_eq!(counts.get(Counter::EdgesExamined), 12);
        let ((), empty) = capture(|| {});
        assert_eq!(empty.get(Counter::EdgesExamined), 0);
    }
}
