//! Execution tracing: per-iteration kernel timelines, per-worker pool
//! timelines, and a resource sampler, exported as Chrome trace-event
//! JSON (loadable in Perfetto / `chrome://tracing`).
//!
//! The counters in `crate::counters` aggregate a trial into totals;
//! this module keeps the *sequence*. Three producers feed per-thread
//! event buffers:
//!
//! * **kernel iteration events** — one [`IterEvent`] per bulk-synchronous
//!   round (BFS level with frontier size and push/pull choice, PR sweep
//!   with residual, SSSP bucket drain, CC hook round), emitted by the
//!   framework crates through [`trace_iter!`](crate::trace_iter);
//! * **pool worker events** — one complete event per worker per parallel
//!   region plus steal instants, emitted by `gapbs-parallel`;
//! * **resource samples** — VmRSS/VmHWM read from `/proc/self/status` by
//!   a sampler thread at a fixed cadence.
//!
//! # Cost outside a session
//!
//! Every emitter is guarded by [`is_on`], one relaxed load of the session
//! flag, and emitters fire per round, per region or per stage — never
//! per element. With no session active that load is the whole cost.

use crate::json::Json;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

/// Records one kernel iteration event on the calling thread's lane:
///
/// ```
/// use gapbs_telemetry::trace::Dir;
/// gapbs_telemetry::trace_iter!(BfsLevel { depth: 0, frontier: 1, dir: Dir::Push });
/// ```
///
/// Expands to a branch on [`trace::is_on`](crate::trace::is_on), so
/// outside a trace session the argument expressions are never evaluated.
#[macro_export]
macro_rules! trace_iter {
    ($variant:ident { $($body:tt)* }) => {
        if $crate::trace::is_on() {
            $crate::trace::iter($crate::trace::IterEvent::$variant { $($body)* });
        }
    };
}
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Traversal direction of a BFS-like level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// Top-down: frontier vertices scan their out-edges.
    Push,
    /// Bottom-up: unvisited vertices scan in-edges for frontier members.
    Pull,
}

impl Dir {
    /// Stable trace label.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Dir::Push => "push",
            Dir::Pull => "pull",
        }
    }

    /// The direction implied by a `pull` flag (how the kernels track it).
    pub fn from_pull(pull: bool) -> Dir {
        if pull {
            Dir::Pull
        } else {
            Dir::Push
        }
    }
}

/// One kernel iteration: the per-round vocabulary of the §V narratives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IterEvent {
    /// One BFS level: its depth, frontier size, and direction.
    BfsLevel {
        /// 0-based level depth.
        depth: u32,
        /// Vertices in the frontier at this level.
        frontier: u64,
        /// Push (top-down) or pull (bottom-up).
        dir: Dir,
    },
    /// One delta-stepping bucket drain wave.
    SsspBucket {
        /// Bucket index being drained.
        bucket: u64,
        /// Vertices drained in this wave.
        size: u64,
    },
    /// One PageRank sweep.
    PrSweep {
        /// 1-based sweep number.
        sweep: u32,
        /// L1 residual after the sweep.
        residual: f64,
    },
    /// One connected-components hook/propagation round.
    CcRound {
        /// 0-based round number.
        round: u32,
        /// Labels changed this round (0 when the kernel doesn't count).
        changed: u64,
    },
    /// One BC forward level.
    BcLevel {
        /// 0-based level depth.
        depth: u32,
        /// Vertices in the frontier at this level.
        frontier: u64,
    },
}

impl IterEvent {
    /// Stable trace event name.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            IterEvent::BfsLevel { .. } => "bfs_level",
            IterEvent::SsspBucket { .. } => "sssp_bucket",
            IterEvent::PrSweep { .. } => "pr_sweep",
            IterEvent::CcRound { .. } => "cc_round",
            IterEvent::BcLevel { .. } => "bc_level",
        }
    }

    fn args(&self) -> Json {
        match *self {
            IterEvent::BfsLevel {
                depth,
                frontier,
                dir,
            } => Json::obj([
                ("depth".into(), Json::Num(depth as f64)),
                ("frontier".into(), Json::Num(frontier as f64)),
                ("dir".into(), Json::Str(dir.name().into())),
            ]),
            IterEvent::SsspBucket { bucket, size } => Json::obj([
                ("bucket".into(), Json::Num(bucket as f64)),
                ("size".into(), Json::Num(size as f64)),
            ]),
            IterEvent::PrSweep { sweep, residual } => Json::obj([
                ("sweep".into(), Json::Num(sweep as f64)),
                ("residual".into(), Json::Num(residual)),
            ]),
            IterEvent::CcRound { round, changed } => Json::obj([
                ("round".into(), Json::Num(round as f64)),
                ("changed".into(), Json::Num(changed as f64)),
            ]),
            IterEvent::BcLevel { depth, frontier } => Json::obj([
                ("depth".into(), Json::Num(depth as f64)),
                ("frontier".into(), Json::Num(frontier as f64)),
            ]),
        }
    }
}

/// What one trace event records.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A kernel iteration instant.
    Iter(IterEvent),
    /// One worker's participation in one pool region (duration event).
    Region {
        /// Pool worker id (0 = the leader thread).
        worker: u32,
        /// Region sequence number within the pool.
        region: u64,
    },
    /// Ranges stolen by a worker while draining a loop region.
    Steal {
        /// Pool worker id.
        worker: u32,
        /// Ranges stolen.
        ranges: u64,
    },
    /// One resource-sampler reading (counter event).
    Rss {
        /// Current resident set size in bytes.
        vm_rss_bytes: u64,
        /// Peak resident set size (high-water mark) in bytes.
        vm_hwm_bytes: u64,
    },
    /// One timed trial, labelled `framework kernel graph mode #trial`
    /// (duration event emitted by the runner).
    Trial {
        /// Human-readable trial label.
        label: String,
    },
    /// One stage of the parallel graph-build pipeline (duration event
    /// emitted once per stage by the builder — cold path).
    BuildStage {
        /// Stage name (`count`, `scan`, `scatter`, `sort_dedup`, ...).
        stage: &'static str,
    },
    /// One GraphBLAS operation on the grb engine (duration event emitted
    /// per `vxm`/`mxv`/... call, so Perfetto timelines show where each
    /// LAGraph kernel spends its time).
    GrbOp {
        /// Operation name (`vxm`, `mxv`, `mxm`, `reduce`, ...).
        op: &'static str,
    },
}

/// One buffered trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Nanoseconds since the trace epoch.
    pub ts_ns: u64,
    /// Duration in nanoseconds; 0 for instant/counter events.
    pub dur_ns: u64,
    /// Trace lane (one per OS thread; the Chrome `tid`).
    pub lane: u32,
    /// Payload.
    pub kind: EventKind,
}

/// A finished trace: every event drained from every lane, time-sorted.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Events sorted by `(ts_ns, lane)`.
    pub events: Vec<Event>,
    /// `(lane, thread name)` pairs for every lane that emitted.
    pub lanes: Vec<(u32, String)>,
}

impl Trace {
    /// `true` when no events were recorded.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Encodes the trace as a Chrome trace-event JSON array (the format
    /// Perfetto and `chrome://tracing` load directly). Thread-name
    /// metadata events come first; real events follow in time order.
    pub fn to_chrome_json(&self) -> Json {
        let pid = std::process::id() as f64;
        let mut out = Vec::with_capacity(self.events.len() + self.lanes.len());
        for (lane, name) in &self.lanes {
            out.push(Json::obj([
                ("name".into(), Json::Str("thread_name".into())),
                ("ph".into(), Json::Str("M".into())),
                ("ts".into(), Json::Num(0.0)),
                ("pid".into(), Json::Num(pid)),
                ("tid".into(), Json::Num(*lane as f64)),
                (
                    "args".into(),
                    Json::obj([("name".into(), Json::Str(name.clone()))]),
                ),
            ]));
        }
        for e in &self.events {
            let mut fields = vec![
                ("ts".into(), Json::Num(e.ts_ns as f64 / 1_000.0)),
                ("pid".into(), Json::Num(pid)),
                ("tid".into(), Json::Num(e.lane as f64)),
            ];
            match &e.kind {
                EventKind::Iter(ev) => {
                    fields.push(("name".into(), Json::Str(ev.name().into())));
                    fields.push(("cat".into(), Json::Str("iter".into())));
                    fields.push(("ph".into(), Json::Str("i".into())));
                    fields.push(("s".into(), Json::Str("t".into())));
                    fields.push(("args".into(), ev.args()));
                }
                EventKind::Region { worker, region } => {
                    fields.push(("name".into(), Json::Str("region".into())));
                    fields.push(("cat".into(), Json::Str("pool".into())));
                    fields.push(("ph".into(), Json::Str("X".into())));
                    fields.push(("dur".into(), Json::Num(e.dur_ns as f64 / 1_000.0)));
                    fields.push((
                        "args".into(),
                        Json::obj([
                            ("worker".into(), Json::Num(*worker as f64)),
                            ("region".into(), Json::Num(*region as f64)),
                        ]),
                    ));
                }
                EventKind::Steal { worker, ranges } => {
                    fields.push(("name".into(), Json::Str("steal".into())));
                    fields.push(("cat".into(), Json::Str("pool".into())));
                    fields.push(("ph".into(), Json::Str("i".into())));
                    fields.push(("s".into(), Json::Str("t".into())));
                    fields.push((
                        "args".into(),
                        Json::obj([
                            ("worker".into(), Json::Num(*worker as f64)),
                            ("ranges".into(), Json::Num(*ranges as f64)),
                        ]),
                    ));
                }
                EventKind::Rss {
                    vm_rss_bytes,
                    vm_hwm_bytes,
                } => {
                    fields.push(("name".into(), Json::Str("rss".into())));
                    fields.push(("cat".into(), Json::Str("rss".into())));
                    fields.push(("ph".into(), Json::Str("C".into())));
                    fields.push((
                        "args".into(),
                        Json::obj([
                            ("vm_rss_bytes".into(), Json::Num(*vm_rss_bytes as f64)),
                            ("vm_hwm_bytes".into(), Json::Num(*vm_hwm_bytes as f64)),
                        ]),
                    ));
                }
                EventKind::Trial { label } => {
                    fields.push(("name".into(), Json::Str(label.clone())));
                    fields.push(("cat".into(), Json::Str("trial".into())));
                    fields.push(("ph".into(), Json::Str("X".into())));
                    fields.push(("dur".into(), Json::Num(e.dur_ns as f64 / 1_000.0)));
                }
                EventKind::BuildStage { stage } => {
                    fields.push(("name".into(), Json::Str(format!("build:{stage}"))));
                    fields.push(("cat".into(), Json::Str("build".into())));
                    fields.push(("ph".into(), Json::Str("X".into())));
                    fields.push(("dur".into(), Json::Num(e.dur_ns as f64 / 1_000.0)));
                }
                EventKind::GrbOp { op } => {
                    fields.push(("name".into(), Json::Str(format!("grb:{op}"))));
                    fields.push(("cat".into(), Json::Str("grb".into())));
                    fields.push(("ph".into(), Json::Str("X".into())));
                    fields.push(("dur".into(), Json::Num(e.dur_ns as f64 / 1_000.0)));
                }
            }
            out.push(Json::obj(fields));
        }
        Json::Arr(out)
    }

    /// Writes the Chrome trace-event JSON to `path`, creating parent
    /// directories as needed.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_chrome_file(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        std::fs::write(path, self.to_chrome_json().encode())
    }
}

/// VmRSS / VmHWM of the current process, in bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VmStatus {
    /// Current resident set size.
    pub vm_rss_bytes: u64,
    /// Peak resident set size (the kernel's high-water mark).
    pub vm_hwm_bytes: u64,
}

/// Reads VmRSS/VmHWM from `/proc/self/status`. `None` where procfs is
/// unavailable (non-Linux) or the fields are missing.
pub fn read_vm_status() -> Option<VmStatus> {
    parse_vm_status(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// Parses the `VmRSS:`/`VmHWM:` lines of a `/proc/<pid>/status` dump.
fn parse_vm_status(text: &str) -> Option<VmStatus> {
    let field = |key: &str| -> Option<u64> {
        text.lines().find_map(|line| {
            let rest = line.strip_prefix(key)?;
            // "VmRSS:\t   1234 kB" — the value is always in kB.
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            Some(kb * 1024)
        })
    };
    Some(VmStatus {
        vm_rss_bytes: field("VmRSS:")?,
        vm_hwm_bytes: field("VmHWM:")?,
    })
}

// ---------------------------------------------------------------------
// Per-thread lanes and the global session.

/// One thread's event buffer, registered in [`LANES`] on first use. The
/// owning thread pushes under an uncontended lock; only the collector
/// ever contends for it (at [`stop`]).
#[derive(Debug, Clone)]
struct Lane {
    id: u32,
    name: String,
    events: Arc<Mutex<Vec<Event>>>,
}

static LANES: Mutex<Vec<Lane>> = Mutex::new(Vec::new());
static NEXT_LANE: AtomicU32 = AtomicU32::new(0);
static ACTIVE: AtomicBool = AtomicBool::new(false);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

thread_local! {
    static LOCAL_LANE: std::cell::OnceCell<Lane> = const { std::cell::OnceCell::new() };
}

fn with_lane<R>(f: impl FnOnce(&Lane) -> R) -> R {
    LOCAL_LANE.with(|cell| {
        let lane = cell.get_or_init(|| {
            let lane = Lane {
                id: NEXT_LANE.fetch_add(1, Ordering::Relaxed),
                name: std::thread::current()
                    .name()
                    .map(str::to_string)
                    .unwrap_or_else(|| "unnamed".into()),
                events: Arc::new(Mutex::new(Vec::new())),
            };
            lock(&LANES).push(lane.clone());
            lane
        });
        f(lane)
    })
}

fn push(kind: EventKind, ts_ns: u64, dur_ns: u64) {
    with_lane(|lane| {
        lock(&lane.events).push(Event {
            ts_ns,
            dur_ns,
            lane: lane.id,
            kind,
        });
    });
}

/// Nanoseconds since the trace epoch — the timestamp base every event
/// uses. Callers capture it before timed work to later report durations.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// `true` while a trace session is active: the guard every emitter sits
/// behind.
#[inline(always)]
pub fn is_on() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Records a kernel iteration event. Guard with [`is_on`] (or call
/// through [`trace_iter!`](crate::trace_iter), which does).
pub fn iter(event: IterEvent) {
    push(EventKind::Iter(event), now_ns(), 0);
}

/// Records one worker's participation in a pool region that began at
/// `start_ns` (from [`now_ns`]). Guard with [`is_on`].
pub fn region(worker: usize, region: u64, start_ns: u64) {
    let end = now_ns();
    push(
        EventKind::Region {
            worker: worker as u32,
            region,
        },
        start_ns,
        end.saturating_sub(start_ns),
    );
}

/// Records ranges stolen by a worker within a region. Guard with
/// [`is_on`].
pub fn steal(worker: usize, ranges: u64) {
    push(
        EventKind::Steal {
            worker: worker as u32,
            ranges,
        },
        now_ns(),
        0,
    );
}

/// Records one timed trial as a duration event (cold path: emitted once
/// per trial by the runner, while a session is active).
pub fn trial(label: String, start_ns: u64) {
    if !is_on() {
        return;
    }
    let end = now_ns();
    push(
        EventKind::Trial { label },
        start_ns,
        end.saturating_sub(start_ns),
    );
}

/// Records one graph-build pipeline stage as a duration event (cold
/// path: a handful per build, while a session is active).
pub fn build_stage(stage: &'static str, start_ns: u64) {
    if !is_on() {
        return;
    }
    let end = now_ns();
    push(
        EventKind::BuildStage { stage },
        start_ns,
        end.saturating_sub(start_ns),
    );
}

/// Records one GraphBLAS engine operation as a duration event. Callers
/// gate the paired [`now_ns`] with [`is_on`] so untraced runs read no
/// clock.
pub fn grb_op(op: &'static str, start_ns: u64) {
    if !is_on() {
        return;
    }
    let end = now_ns();
    push(
        EventKind::GrbOp { op },
        start_ns,
        end.saturating_sub(start_ns),
    );
}

/// The resource sampler thread handle, if one is running.
struct Sampler {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<()>,
}

static SAMPLER: Mutex<Option<Sampler>> = Mutex::new(None);

/// Starts a trace session: clears previously buffered events, arms the
/// emitters, and (for `sampler_cadence` > 0) spawns the resource sampler
/// thread reading `/proc/self/status` at that cadence.
///
/// Sessions don't nest; a second `start` resets the first.
pub fn start(sampler_cadence: Duration) {
    stop(); // reset any previous session (joins a live sampler)
    for lane in lock(&LANES).iter() {
        lock(&lane.events).clear();
    }
    ACTIVE.store(true, Ordering::Relaxed);
    if sampler_cadence > Duration::ZERO && read_vm_status().is_some() {
        let stop_flag = Arc::new(AtomicBool::new(false));
        let thread_flag = Arc::clone(&stop_flag);
        let handle = std::thread::Builder::new()
            .name("gapbs-rss-sampler".into())
            .spawn(move || {
                while !thread_flag.load(Ordering::Relaxed) {
                    if let Some(vm) = read_vm_status() {
                        push(
                            EventKind::Rss {
                                vm_rss_bytes: vm.vm_rss_bytes,
                                vm_hwm_bytes: vm.vm_hwm_bytes,
                            },
                            now_ns(),
                            0,
                        );
                    }
                    std::thread::sleep(sampler_cadence);
                }
            })
            .expect("spawn rss sampler");
        *lock(&SAMPLER) = Some(Sampler {
            stop: stop_flag,
            handle,
        });
    }
}

/// Ends the session and drains every lane into a time-sorted [`Trace`].
/// Returns an empty trace when no session was active.
pub fn stop() -> Trace {
    ACTIVE.store(false, Ordering::Relaxed);
    if let Some(sampler) = lock(&SAMPLER).take() {
        sampler.stop.store(true, Ordering::Relaxed);
        let _ = sampler.handle.join();
        // A closing sample, so even sessions shorter than one cadence
        // (or ones the OS never scheduled the sampler thread for) carry
        // at least one RSS reading.
        if let Some(vm) = read_vm_status() {
            push(
                EventKind::Rss {
                    vm_rss_bytes: vm.vm_rss_bytes,
                    vm_hwm_bytes: vm.vm_hwm_bytes,
                },
                now_ns(),
                0,
            );
        }
    }
    let mut events = Vec::new();
    let mut lanes = Vec::new();
    for lane in lock(&LANES).iter() {
        let mut drained = std::mem::take(&mut *lock(&lane.events));
        if !drained.is_empty() {
            lanes.push((lane.id, lane.name.clone()));
        }
        events.append(&mut drained);
    }
    events.sort_by_key(|e| (e.ts_ns, e.lane));
    lanes.sort();
    Trace { events, lanes }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Trace sessions are global; tests that run one serialize here.
    static SESSION_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn vm_status_parses_proc_format() {
        let text = "Name:\tcat\nVmRSS:\t    1234 kB\nVmHWM:\t    2048 kB\n";
        let vm = parse_vm_status(text).unwrap();
        assert_eq!(vm.vm_rss_bytes, 1234 * 1024);
        assert_eq!(vm.vm_hwm_bytes, 2048 * 1024);
        assert_eq!(parse_vm_status("Name:\tcat\n"), None);
    }

    #[test]
    fn vm_status_reads_on_linux() {
        // On Linux procfs must parse; elsewhere None is the contract.
        if cfg!(target_os = "linux") {
            let vm = read_vm_status().expect("VmRSS/VmHWM in /proc/self/status");
            assert!(vm.vm_rss_bytes > 0);
            assert!(vm.vm_hwm_bytes >= vm.vm_rss_bytes / 2);
        }
    }

    #[test]
    fn dir_and_event_names_are_stable() {
        assert_eq!(Dir::from_pull(true).name(), "pull");
        assert_eq!(Dir::from_pull(false).name(), "push");
        let ev = IterEvent::BfsLevel {
            depth: 1,
            frontier: 2,
            dir: Dir::Push,
        };
        assert_eq!(ev.name(), "bfs_level");
    }

    #[test]
    fn session_collects_events_across_threads() {
        let _guard = lock(&SESSION_LOCK);
        start(Duration::ZERO);
        assert!(is_on());
        iter(IterEvent::PrSweep {
            sweep: 1,
            residual: 0.5,
        });
        let t0 = now_ns();
        std::thread::spawn(move || {
            region(1, 7, t0);
            steal(1, 3);
        })
        .join()
        .unwrap();
        trial("GAP bfs Kron Baseline #0".into(), t0);
        let trace = stop();
        assert!(!is_on());
        assert_eq!(trace.events.len(), 4);
        assert!(trace.lanes.len() >= 2, "main + spawned thread lanes");
        // Sorted by timestamp.
        assert!(trace.events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        // A fresh session starts clean.
        start(Duration::ZERO);
        assert!(stop().is_empty());
    }

    #[test]
    fn sampler_emits_rss_counter_events() {
        if read_vm_status().is_none() {
            return; // no procfs on this host
        }
        let _guard = lock(&SESSION_LOCK);
        start(Duration::from_millis(1));
        std::thread::sleep(Duration::from_millis(30));
        let trace = stop();
        let samples = trace
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Rss { .. }))
            .count();
        assert!(samples >= 1, "sampler produced no Rss events");
    }

    #[test]
    fn iteration_macro_records_only_inside_a_session() {
        let _guard = lock(&SESSION_LOCK);
        let mut evaluated = false;
        crate::trace_iter!(BfsLevel {
            depth: 0,
            frontier: {
                evaluated = true;
                1
            },
            dir: Dir::Push
        });
        assert!(!evaluated, "arguments are not evaluated outside a session");
        start(Duration::ZERO);
        crate::trace_iter!(BfsLevel {
            depth: 0,
            frontier: 1,
            dir: Dir::Push
        });
        let trace = stop();
        assert_eq!(
            trace
                .events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::Iter(_)))
                .count(),
            1
        );
    }

    #[test]
    fn chrome_export_is_a_valid_trace_event_array() {
        // Synthetic trace, hand-built so the test is independent of the
        // global session machinery.
        let trace = Trace {
            events: vec![
                Event {
                    ts_ns: 1_000,
                    dur_ns: 500,
                    lane: 0,
                    kind: EventKind::Region {
                        worker: 0,
                        region: 1,
                    },
                },
                Event {
                    ts_ns: 1_200,
                    dur_ns: 0,
                    lane: 1,
                    kind: EventKind::Iter(IterEvent::BfsLevel {
                        depth: 2,
                        frontier: 37,
                        dir: Dir::Pull,
                    }),
                },
                Event {
                    ts_ns: 2_000,
                    dur_ns: 0,
                    lane: 1,
                    kind: EventKind::Rss {
                        vm_rss_bytes: 4096,
                        vm_hwm_bytes: 8192,
                    },
                },
                Event {
                    ts_ns: 3_000,
                    dur_ns: 2_000,
                    lane: 0,
                    kind: EventKind::Trial {
                        label: "GAP bfs Kron Baseline #0".into(),
                    },
                },
            ],
            lanes: vec![(0, "main".into()), (1, "gapbs-pool-1".into())],
        };
        let text = trace.to_chrome_json().encode();
        let parsed = Json::parse(&text).unwrap();
        let Json::Arr(items) = parsed else {
            panic!("chrome trace must be a JSON array");
        };
        assert_eq!(items.len(), 4 + 2, "4 events + 2 thread_name records");
        let mut last_ts_per_tid = std::collections::BTreeMap::new();
        for item in &items {
            for key in ["ph", "ts", "pid", "tid", "name"] {
                assert!(item.get(key).is_some(), "missing {key:?} in {item:?}");
            }
            let ph = item.get("ph").and_then(Json::as_str).unwrap();
            if ph == "M" {
                continue; // metadata events carry no timeline position
            }
            let tid = item.get("tid").and_then(Json::as_f64).unwrap() as u64;
            let ts = item.get("ts").and_then(Json::as_f64).unwrap();
            let last = last_ts_per_tid.entry(tid).or_insert(f64::NEG_INFINITY);
            assert!(ts >= *last, "events out of order on tid {tid}");
            *last = ts;
            if ph == "X" {
                assert!(item.get("dur").and_then(Json::as_f64).unwrap() > 0.0);
            }
        }
        // The BFS level event carries its narrative args.
        let bfs = items
            .iter()
            .find(|i| i.get("name").and_then(Json::as_str) == Some("bfs_level"))
            .unwrap();
        assert_eq!(
            bfs.get("args")
                .and_then(|a| a.get("dir"))
                .and_then(Json::as_str),
            Some("pull")
        );
        assert_eq!(
            bfs.get("args")
                .and_then(|a| a.get("frontier"))
                .and_then(Json::as_u64),
            Some(37)
        );
    }

    #[test]
    fn write_chrome_file_creates_directories() {
        let dir = std::env::temp_dir().join(format!(
            "gapbs-trace-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let path = dir.join("nested/trace.json");
        let trace = Trace {
            events: vec![Event {
                ts_ns: 0,
                dur_ns: 0,
                lane: 0,
                kind: EventKind::Steal {
                    worker: 0,
                    ranges: 1,
                },
            }],
            lanes: vec![(0, "main".into())],
        };
        trace.write_chrome_file(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(Json::parse(&text).is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
