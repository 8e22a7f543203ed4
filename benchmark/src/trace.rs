//! The benchmark's own in-memory span recorder and allocation counter.
//!
//! Spans are recorded from this package, around each call into a layer
//! of the program; nothing inside the program is instrumented here. A
//! span carries its name, start, end, the span that was open on the
//! same thread when it began (its parent) and the request or cell it
//! belongs to. The recorder is a relaxed flag check while off, which is
//! the state every end-to-end metric is measured in.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use gapbs_telemetry::json::Json;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<stage>`, the layer being a crate or module name.
    pub name: String,
    /// Microseconds since the process's first span.
    pub start_us: f64,
    /// Microseconds since the process's first span.
    pub end_us: f64,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<usize>,
    /// Request or cell identifier shared by the spans of one operation.
    pub op: u64,
}

static ON: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    /// Indices of this thread's open spans, innermost last.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

fn now_us() -> f64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64() * 1e6
}

/// Switches the recorder on and discards spans of an earlier session.
pub fn start() {
    SPANS.lock().expect("recorder span lock").clear();
    ON.store(true, Ordering::SeqCst);
}

/// Pauses or resumes recording inside a session; spans already taken
/// are kept. The untraced slice of a traced run is measured paused.
pub fn set_on(on: bool) {
    ON.store(on, Ordering::SeqCst);
}

/// Switches the recorder off and returns everything it recorded.
pub fn stop() -> Vec<Span> {
    ON.store(false, Ordering::SeqCst);
    std::mem::take(&mut *SPANS.lock().expect("recorder span lock"))
}

/// Whether a traced phase is running.
pub fn is_on() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Closes its span when dropped.
pub struct Guard(Option<usize>);

/// Opens a span; a no-op while the recorder is off.
pub fn span(name: &str, op: u64) -> Guard {
    if !is_on() {
        return Guard(None);
    }
    let parent = OPEN.with(|open| open.borrow().last().copied());
    let mut spans = SPANS.lock().expect("recorder span lock");
    let index = spans.len();
    spans.push(Span {
        name: name.to_string(),
        start_us: now_us(),
        end_us: f64::NAN,
        parent,
        op,
    });
    drop(spans);
    OPEN.with(|open| open.borrow_mut().push(index));
    Guard(Some(index))
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(index) = self.0 else { return };
        OPEN.with(|open| open.borrow_mut().retain(|&i| i != index));
        // A poisoned lock or a recorder stopped meanwhile loses this
        // span's end; Drop must not panic.
        if let Ok(mut spans) = SPANS.lock() {
            if let Some(span) = spans.get_mut(index) {
                span.end_us = now_us();
            }
        }
    }
}

/// Runs `f` inside a span and returns its result with the span's
/// duration in milliseconds (measured whether or not the recorder is on).
pub fn timed<R>(name: &str, op: u64, f: impl FnOnce() -> R) -> (R, f64) {
    let guard = span(name, op);
    let start = Instant::now();
    let out = f();
    let ms = start.elapsed().as_secs_f64() * 1e3;
    drop(guard);
    (out, ms)
}

/// Self time of every span in microseconds: its duration minus the part
/// of that interval its child spans cover. Children may overlap each
/// other (two threads under one parent) and may stick out of the parent;
/// covered time is the union of the children clipped to the parent.
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut children: BTreeMap<usize, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_us, s.end_us));
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut covered = 0.0;
            if let Some(kids) = children.get_mut(&i) {
                kids.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut reach = s.start_us;
                for &(start, end) in kids.iter() {
                    let (start, end) = (start.max(reach), end.min(s.end_us));
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
            }
            (s.end_us - s.start_us - covered).max(0.0)
        })
        .collect()
}

/// Self times grouped by span name, in milliseconds.
pub fn self_ms_by_name(spans: &[Span]) -> BTreeMap<String, Vec<f64>> {
    let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (s, us) in spans.iter().zip(self_times_us(spans)) {
        if us.is_finite() {
            out.entry(s.name.clone()).or_default().push(us / 1e3);
        }
    }
    out
}

/// The trace file's JSON: one object per span, in recording order.
pub fn to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name".to_string(), Json::Str(s.name.clone())),
                    ("start_us".to_string(), Json::Num(s.start_us)),
                    ("end_us".to_string(), Json::Num(s.end_us)),
                    (
                        "parent".to_string(),
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("op".to_string(), Json::Num(s.op as f64)),
                ])
            })
            .collect(),
    )
}

/// Counts allocations of every thread while switched on; otherwise a
/// relaxed flag check in front of the system allocator.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

fn note(size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are plain
// atomics and allocate nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` obligations are passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` and `layout` come from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` come from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Runs `f` with allocation counting on (when `count` is set) and
/// returns its result with the allocations and bytes requested meanwhile
/// by any thread.
pub fn count_allocs<R>(count: bool, f: impl FnOnce() -> R) -> (R, u64, u64) {
    if !count {
        return (f(), 0, 0);
    }
    let (a0, b0) = (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    );
    COUNTING.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING.store(false, Ordering::SeqCst);
    (
        out,
        ALLOCS.load(Ordering::Relaxed) - a0,
        ALLOC_BYTES.load(Ordering::Relaxed) - b0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: &str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_us: start,
            end_us: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100 > a 10..60 > b 20..30 ; root > c 70..90
        let spans = [
            s("root", 0.0, 100.0, None),
            s("a", 10.0, 60.0, Some(0)),
            s("b", 20.0, 30.0, Some(1)),
            s("c", 70.0, 90.0, Some(0)),
        ];
        assert_eq!(self_times_us(&spans), vec![30.0, 40.0, 10.0, 20.0]);
    }

    #[test]
    fn overlapping_and_protruding_children_cover_their_union_only() {
        // Children 10..50 and 30..70 overlap; 90..120 sticks out of the parent.
        let spans = [
            s("root", 0.0, 100.0, None),
            s("x", 10.0, 50.0, Some(0)),
            s("y", 30.0, 70.0, Some(0)),
            s("z", 90.0, 120.0, Some(0)),
        ];
        let own = self_times_us(&spans);
        assert_eq!(own[0], 100.0 - 60.0 - 10.0);
        assert_eq!(own[1], 40.0);
        // A child fully inside an earlier sibling adds nothing.
        let spans = [
            s("root", 0.0, 100.0, None),
            s("x", 10.0, 80.0, Some(0)),
            s("y", 20.0, 30.0, Some(0)),
        ];
        assert_eq!(self_times_us(&spans)[0], 30.0);
    }

    #[test]
    fn recorder_links_parents_per_thread_and_is_inert_when_off() {
        assert!(span("ignored", 1).0.is_none());
        start();
        {
            let _outer = span("outer", 7);
            let _inner = span("inner", 7);
        }
        let spans = stop();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[1].end_us <= spans[0].end_us);
        assert_eq!(spans[1].op, 7);
        let by_name = self_ms_by_name(&spans);
        assert!(by_name["outer"][0] >= 0.0);
    }
}
