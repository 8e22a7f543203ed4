//! The daemon's live metrics plane.
//!
//! [`ServeMetrics`] owns one [`MetricsRegistry`] holding what the daemon
//! records on the query path beyond the admission gate's own lifecycle
//! counters: per-{kernel, graph, framework} latency histograms,
//! queue-wait and batch-width histograms, slow-query and traced-query
//! counters, and the cold-start series fixed at load.
//!
//! [`ServeMetrics::snapshot`] is the one place a scrape is assembled: it
//! renders a [`GateObservation`] (stats, gauges and the end-to-end
//! latency histogram, all coherent under the gate's lock; see
//! `admission`'s module docs), the pool's lifetime [`PoolStats`] and the
//! process RSS as entries built at scrape time, then appends the
//! registry's own. Both `{"cmd":"stats"}` and `/metrics` render that one
//! snapshot, and [`scrape_problems`] states the invariants it upholds.

use std::collections::BTreeMap;
use std::sync::Mutex;

use gapbs_core::Kernel;
use gapbs_graph::gen::GraphSpec;
use gapbs_parallel::PoolStats;
use gapbs_telemetry::json::Json;
use gapbs_telemetry::metrics::{
    CounterHandle, FloatGaugeHandle, GaugeHandle, HistogramHandle, MetricValue, MetricsRegistry,
    MetricsSnapshot,
};

use crate::admission::GateObservation;

/// The Prometheus metric-name prefix for every exposed series.
pub(crate) const PROM_PREFIX: &str = "gapbs_serve_";

/// One per-label latency histogram, keyed without allocating.
type LabelledLatency = (Kernel, GraphSpec, String, HistogramHandle);

/// All serve-side instruments; see the module docs.
pub(crate) struct ServeMetrics {
    registry: MetricsRegistry,
    /// Lazily registered per-{kernel, graph, framework} latency
    /// histograms (µs). Lazy because 6×5×6 combinations exist but a
    /// given daemon serves a handful, so a linear scan finds one; the
    /// label strings are built only when a combination first registers.
    latency_by_label: Mutex<Vec<LabelledLatency>>,
    /// Time from request receipt to permit grant (µs), all queries.
    queue_wait_us: HistogramHandle,
    /// Members per executed MS-BFS batch (explicit or coalesced).
    batch_width: HistogramHandle,
    /// Queries past the `--slow-ms` threshold (0 when unset).
    slow_queries: CounterHandle,
    /// Queries served with an inline `"trace": true` capture.
    traced_queries: CounterHandle,
    /// Wall-clock seconds from load start until every graph was
    /// resident — the daemon's cold-start cost, set once at startup.
    time_to_ready_seconds: FloatGaugeHandle,
    /// Per-graph snapshot-cache outcome counters, registered at load
    /// time: each resident graph gets a `snapshot_hit{graph=...}` and a
    /// `snapshot_miss{graph=...}` pair summing to exactly 1 (loads
    /// without a snapshot dir count as misses — they rebuilt).
    snapshot_loads: Mutex<BTreeMap<String, (CounterHandle, CounterHandle)>>,
    /// Per-graph resident CSR bytes, registered lazily by graph name.
    /// Fixed at load time (the registry is immutable) but kept as a
    /// gauge so dashboards can plot layout savings across deploys.
    graph_bytes: Mutex<BTreeMap<String, GaugeHandle>>,
}

impl ServeMetrics {
    /// Registers every fixed instrument.
    pub(crate) fn new() -> ServeMetrics {
        let registry = MetricsRegistry::new();
        let queue_wait_us = registry.histogram(
            "queue_wait_us",
            "Microseconds from request receipt to admission-permit grant",
        );
        let batch_width = registry.histogram(
            "batch_width",
            "Logical queries answered per executed MS-BFS batch",
        );
        let slow_queries = registry.counter(
            "slow_queries_total",
            "Queries whose end-to-end latency exceeded the --slow-ms threshold",
        );
        let traced_queries = registry.counter(
            "traced_queries_total",
            "Queries served with an inline trace capture",
        );
        let time_to_ready_seconds = registry.float_gauge(
            "time_to_ready_seconds",
            "Wall-clock seconds from daemon start until every graph was resident",
        );
        ServeMetrics {
            registry,
            latency_by_label: Mutex::new(Vec::new()),
            queue_wait_us,
            batch_width,
            slow_queries,
            traced_queries,
            time_to_ready_seconds,
            snapshot_loads: Mutex::new(BTreeMap::new()),
            graph_bytes: Mutex::new(BTreeMap::new()),
        }
    }

    /// Sets the startup time-to-ready gauge (seconds until every graph
    /// was resident). Called once when the engine is built.
    pub(crate) fn set_time_to_ready(&self, seconds: f64) {
        self.time_to_ready_seconds.set(seconds);
    }

    /// Records how one resident graph was sourced at startup: a
    /// snapshot-cache hit bumps `snapshot_hit{graph=...}`, a rebuild
    /// bumps `snapshot_miss{graph=...}`. Both series are registered so
    /// every resident graph exposes the pair (one at 1, one at 0).
    pub(crate) fn note_snapshot_load(&self, graph: &str, hit: bool) {
        let mut map = self
            .snapshot_loads
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let (hits, misses) = map.entry(graph.to_string()).or_insert_with(|| {
            (
                self.registry.counter_with_labels(
                    "snapshot_hit",
                    &[("graph", graph)],
                    "Startup loads of this graph served from a snapshot file",
                ),
                self.registry.counter_with_labels(
                    "snapshot_miss",
                    &[("graph", graph)],
                    "Startup loads of this graph rebuilt from the generators",
                ),
            )
        });
        if hit {
            hits.add(1);
        } else {
            misses.add(1);
        }
    }

    /// Sets the resident-bytes gauge for one loaded graph (labelled
    /// `graph_bytes{graph="..."}` in the exposition).
    pub(crate) fn set_graph_bytes(&self, graph: &str, bytes: u64) {
        let mut map = self.graph_bytes.lock().unwrap_or_else(|e| e.into_inner());
        map.entry(graph.to_string())
            .or_insert_with(|| {
                self.registry.gauge_with_labels(
                    "graph_bytes",
                    &[("graph", graph)],
                    "Resident CSR bytes of one loaded graph (all prepared structures)",
                )
            })
            .set(bytes as i64);
    }

    /// Records one completed query: its end-to-end latency into the
    /// {kernel, graph, framework} histogram and its queue wait into the
    /// global wait histogram. Allocates only when the label set is new.
    pub(crate) fn observe_query(
        &self,
        kernel: Kernel,
        graph: GraphSpec,
        framework: &str,
        latency_us: u64,
        queue_wait_us: u64,
    ) {
        {
            let mut labelled = self
                .latency_by_label
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            let found = labelled
                .iter()
                .position(|(k, g, f, _)| *k == kernel && *g == graph && f == framework);
            let at = found.unwrap_or_else(|| {
                let histogram = self.registry.histogram_with_labels(
                    "query_latency_us",
                    &[
                        ("kernel", &kernel.name().to_lowercase()),
                        ("graph", &graph.name().to_lowercase()),
                        ("framework", framework),
                    ],
                    "End-to-end query latency in microseconds",
                );
                labelled.push((kernel, graph, framework.to_string(), histogram));
                labelled.len() - 1
            });
            labelled[at].3.record(latency_us);
        }
        self.queue_wait_us.record(queue_wait_us);
    }

    /// Records the width of one executed MS-BFS batch.
    pub(crate) fn observe_batch_width(&self, members: u64) {
        self.batch_width.record(members);
    }

    /// Counts one slow query (already logged by the engine).
    pub(crate) fn note_slow(&self) {
        self.slow_queries.add(1);
    }

    /// Counts one inline-traced query.
    pub(crate) fn note_traced(&self) {
        self.traced_queries.add(1);
    }

    /// One point-in-time snapshot of everything the daemon exposes.
    ///
    /// The gate-derived series come verbatim from `gate` (one coherent
    /// observation; the caller takes it) and lead the entry list, then
    /// the pool's lifetime totals and the RSS read from procfs now, then
    /// the registry's instruments.
    pub(crate) fn snapshot(&self, gate: &GateObservation, pool: PoolStats) -> MetricsSnapshot {
        let entry = |name: &str, help: &str, value: MetricValue| {
            (name.to_string(), String::new(), help.to_string(), value)
        };
        let counter = |name: &str, help: &str, v: u64| entry(name, help, MetricValue::Counter(v));
        let gauge =
            |name: &str, help: &str, v: u64| entry(name, help, MetricValue::Gauge(v as i64));
        let rss = gapbs_telemetry::trace::read_vm_status().map_or(0, |vm| vm.vm_rss_bytes);
        let mut metrics = vec![
            counter(
                "queries_admitted_total",
                "Queries granted an execution slot",
                gate.stats.admitted,
            ),
            counter(
                "queries_rejected_total",
                "Queries refused at admission",
                gate.stats.rejected,
            ),
            counter(
                "queries_completed_total",
                "Queries that released their slot",
                gate.stats.completed,
            ),
            counter(
                "queries_inline_total",
                "Completed queries run at width 1 on their own handler thread",
                gate.stats.inline,
            ),
            counter(
                "deadline_exceeded_total",
                "Queries that missed their deadline (queued or executed)",
                gate.stats.deadline_exceeded,
            ),
            counter(
                "batch_queries_total",
                "Logical queries answered via MS-BFS batches",
                gate.stats.batch_queries,
            ),
            gauge(
                "batch_width_max",
                "Widest batch executed so far",
                gate.stats.batch_width,
            ),
            gauge(
                "active_queries",
                "Admission permits currently held",
                gate.active as u64,
            ),
            gauge(
                "waiting_queries",
                "Queries parked waiting for a slot",
                gate.waiting as u64,
            ),
            gauge(
                "queue_age_us",
                "Age of the oldest parked waiter in microseconds",
                gate.queue_age_us,
            ),
            entry(
                "latency_us",
                "End-to-end latency of every completed query in microseconds",
                MetricValue::Histogram(Box::new(gate.latency)),
            ),
            counter(
                "pool_regions_total",
                "Parallel regions launched on the shared thread pool",
                pool.regions,
            ),
            counter(
                "pool_steals_total",
                "Ranges stolen between pool workers by dynamic/guided loops",
                pool.steals,
            ),
            counter(
                "pool_parks_total",
                "Times a pool worker parked on the region barrier",
                pool.parks,
            ),
            gauge(
                "rss_bytes",
                "Resident set size from /proc/self/status, read per scrape",
                rss,
            ),
        ];
        metrics.extend(self.registry.snapshot().metrics);
        MetricsSnapshot { metrics }
    }
}

/// Checks one `{"cmd":"stats"}` reply (or `/stats` body) against the
/// invariants its one metrics snapshot upholds, returning one message
/// per violation (empty = clean). The gate takes every lifecycle
/// transition and its observation under one lock, so
/// these hold exactly within any single reply, even one scraped
/// mid-load: a violation means the accounting broke, not that the
/// scrape raced.
///
/// * `queries_admitted_total == queries_completed_total + active_queries`
/// * `batch_queries_total <= queries_admitted_total`
/// * `queries_inline_total <= queries_completed_total`
/// * `latency_us.count == queries_completed_total`, and its cumulative
///   bucket table is monotone and tops out at that count
/// * `time_to_ready_seconds` is present, finite and not negative
/// * each graph's `snapshot_hit` + `snapshot_miss` is exactly 1
/// * no top-level key repeats a `metrics` series
pub fn scrape_problems(stats: &Json) -> Vec<String> {
    let mut problems = Vec::new();
    let Some(Json::Obj(metrics)) = stats.get("metrics") else {
        return vec!["stats missing the metrics object".to_string()];
    };
    if let Json::Obj(top) = stats {
        for key in top.keys().filter(|k| metrics.contains_key(*k)) {
            problems.push(format!(
                "{key:?} appears both at the top level and in metrics"
            ));
        }
    }
    let mut series = |name: &str| match metrics.get(name).and_then(Json::as_u64) {
        Some(v) => Some(v),
        None => {
            problems.push(format!("metrics missing numeric series {name:?}"));
            None
        }
    };
    let admitted = series("queries_admitted_total");
    let completed = series("queries_completed_total");
    let active = series("active_queries");
    let batched = series("batch_queries_total");
    let inline = series("queries_inline_total");
    if let (Some(admitted), Some(completed), Some(active)) = (admitted, completed, active) {
        if completed + active != admitted {
            problems.push(format!(
                "incoherent lifecycle: {admitted} admitted != {completed} completed + {active} active"
            ));
        }
    }
    if let (Some(admitted), Some(batched)) = (admitted, batched) {
        if batched > admitted {
            problems.push(format!(
                "{batched} batched queries but only {admitted} admitted"
            ));
        }
    }
    // A query is counted inline at release, under the same lock as its
    // completion, so the inline count never runs ahead of completions.
    if let (Some(inline), Some(completed)) = (inline, completed) {
        if inline > completed {
            problems.push(format!(
                "{inline} queries ran inline but only {completed} completed"
            ));
        }
    }
    match metrics.get("latency_us") {
        None => problems.push("metrics missing the latency_us histogram".into()),
        Some(hist) => {
            let count = hist.get("count").and_then(Json::as_u64).unwrap_or(0);
            if let Some(completed) = completed {
                if count != completed {
                    problems.push(format!(
                        "latency histogram holds {count} records but {completed} queries completed"
                    ));
                }
            }
            if let Some(Json::Arr(buckets)) = hist.get("buckets") {
                let mut prev = 0u64;
                for (i, bucket) in buckets.iter().enumerate() {
                    let Some(c) = bucket.get("count").and_then(Json::as_u64) else {
                        problems.push(format!("bucket entry {i} missing cumulative count"));
                        continue;
                    };
                    if c < prev {
                        problems.push(format!(
                            "bucket table not monotone: cumulative {c} after {prev} at entry {i}"
                        ));
                    }
                    prev = c;
                }
                if prev != count {
                    problems.push(format!(
                        "bucket table tops out at {prev} but histogram count is {count}"
                    ));
                }
            } else {
                problems.push("latency_us missing its buckets table".into());
            }
        }
    }
    // Cold-start series: time-to-ready is set exactly once at startup
    // and must be a plausible duration; every resident graph loads
    // exactly once, so its snapshot_hit/snapshot_miss pair sums to 1.
    match metrics.get("time_to_ready_seconds").and_then(Json::as_f64) {
        None => problems.push("metrics missing time_to_ready_seconds".into()),
        Some(s) if !s.is_finite() || s < 0.0 => {
            problems.push(format!("implausible time_to_ready_seconds {s}"));
        }
        Some(_) => {}
    }
    let mut loads: BTreeMap<&str, u64> = BTreeMap::new();
    for (key, value) in metrics {
        for family in ["snapshot_hit{graph=\"", "snapshot_miss{graph=\""] {
            if let Some(graph) = key
                .strip_prefix(family)
                .and_then(|rest| rest.strip_suffix("\"}"))
            {
                *loads.entry(graph).or_insert(0) += value.as_u64().unwrap_or(0);
            }
        }
    }
    for (graph, total) in loads {
        if total != 1 {
            problems.push(format!(
                "graph {graph:?} loaded {total} times by snapshot_hit+snapshot_miss; expected exactly 1"
            ));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionGate;
    use gapbs_telemetry::json::Json;

    fn observation(gate: &AdmissionGate) -> GateObservation {
        gate.observe()
    }

    #[test]
    fn snapshot_leads_with_coherent_gate_series() {
        let metrics = ServeMetrics::new();
        let gate = AdmissionGate::new(2, 4);
        let p = gate.admit(None).unwrap();
        p.set_latency_us(1234);
        drop(p);
        let _held = gate.admit(None).unwrap();
        metrics.observe_query(Kernel::Bfs, GraphSpec::Kron, "GAP", 1234, 12);
        metrics.observe_batch_width(3);
        metrics.note_slow();

        let snap = metrics.snapshot(&observation(&gate), PoolStats::default());
        let json = snap.to_json();
        assert_eq!(
            json.get("queries_admitted_total").and_then(Json::as_u64),
            Some(2)
        );
        assert_eq!(
            json.get("queries_completed_total").and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(json.get("active_queries").and_then(Json::as_u64), Some(1));
        assert_eq!(
            json.get("latency_us")
                .and_then(|h| h.get("count"))
                .and_then(Json::as_u64),
            Some(1),
            "gate latency histogram count tracks completed"
        );
        let hist = json
            .get("query_latency_us{framework=\"GAP\",graph=\"kron\",kernel=\"bfs\"}")
            .or_else(|| {
                json.get("query_latency_us{kernel=\"bfs\",graph=\"kron\",framework=\"GAP\"}")
            })
            .expect("labeled latency histogram present");
        assert_eq!(hist.get("count").and_then(Json::as_u64), Some(1));
        assert_eq!(
            json.get("slow_queries_total").and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(
            json.get("batch_width")
                .and_then(|h| h.get("count"))
                .and_then(Json::as_u64),
            Some(1)
        );
    }

    #[test]
    fn pool_series_are_the_lifetime_totals_read_at_scrape() {
        let metrics = ServeMetrics::new();
        let gate = AdmissionGate::new(1, 0);
        let regions = |pool: PoolStats| {
            let json = metrics.snapshot(&observation(&gate), pool).to_json();
            let read = |k: &str| json.get(k).and_then(Json::as_u64).unwrap();
            assert!(json.get("rss_bytes").is_some());
            (read("pool_regions_total"), read("pool_steals_total"))
        };
        let stats = |regions, steals| PoolStats {
            spawn_events: 1,
            regions,
            steals,
            parks: 2,
        };
        assert_eq!(regions(stats(10, 4)), (10, 4));
        // The same totals scraped again read the same, never twice.
        assert_eq!(regions(stats(10, 4)), (10, 4));
        assert_eq!(regions(stats(25, 9)), (25, 9));
    }

    #[test]
    fn observing_a_known_label_set_registers_nothing_new() {
        let metrics = ServeMetrics::new();
        for _ in 0..3 {
            metrics.observe_query(Kernel::Bfs, GraphSpec::Kron, "GAP", 10, 1);
        }
        metrics.observe_query(Kernel::Bfs, GraphSpec::Road, "GAP", 10, 1);
        let labelled = metrics.latency_by_label.lock().unwrap();
        assert_eq!(labelled.len(), 2);
        let json = metrics.registry.snapshot().to_json();
        let count = json
            .get("query_latency_us{framework=\"GAP\",graph=\"kron\",kernel=\"bfs\"}")
            .or_else(|| {
                json.get("query_latency_us{kernel=\"bfs\",graph=\"kron\",framework=\"GAP\"}")
            })
            .and_then(|h| h.get("count"))
            .and_then(Json::as_u64);
        assert_eq!(count, Some(3));
    }

    #[test]
    fn cold_start_series_reach_both_renderings() {
        let metrics = ServeMetrics::new();
        let gate = AdmissionGate::new(1, 0);
        metrics.set_time_to_ready(0.125);
        metrics.note_snapshot_load("kron", true);
        metrics.note_snapshot_load("road", false);

        let snap = metrics.snapshot(&observation(&gate), PoolStats::default());
        let json = snap.to_json();
        assert_eq!(
            json.get("time_to_ready_seconds").and_then(Json::as_f64),
            Some(0.125)
        );
        assert_eq!(
            json.get("snapshot_hit{graph=\"kron\"}")
                .and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(
            json.get("snapshot_miss{graph=\"kron\"}")
                .and_then(Json::as_u64),
            Some(0),
            "the zero side of the pair is still exposed"
        );
        assert_eq!(
            json.get("snapshot_hit{graph=\"road\"}")
                .and_then(Json::as_u64),
            Some(0)
        );
        assert_eq!(
            json.get("snapshot_miss{graph=\"road\"}")
                .and_then(Json::as_u64),
            Some(1)
        );

        let text = snap.to_prometheus(PROM_PREFIX);
        assert!(text.contains("# TYPE gapbs_serve_time_to_ready_seconds gauge"));
        assert!(text.contains("gapbs_serve_time_to_ready_seconds 0.125"));
        assert!(text.contains("gapbs_serve_snapshot_hit{graph=\"kron\"} 1"));
        assert!(text.contains("gapbs_serve_snapshot_miss{graph=\"road\"} 1"));
    }

    #[test]
    fn prometheus_exposition_carries_both_sources() {
        let metrics = ServeMetrics::new();
        let gate = AdmissionGate::new(1, 0);
        drop(gate.admit(None).unwrap());
        metrics.observe_query(Kernel::Pr, GraphSpec::Road, "SuiteSparse", 900, 5);
        let text = metrics
            .snapshot(&observation(&gate), PoolStats::default())
            .to_prometheus(PROM_PREFIX);
        assert!(text.contains("# TYPE gapbs_serve_queries_admitted_total counter"));
        assert!(text.contains("gapbs_serve_queries_admitted_total 1"));
        assert!(text.contains("# TYPE gapbs_serve_queries_inline_total counter"));
        assert!(text.contains("gapbs_serve_queries_inline_total 0"));
        assert!(text.contains("# TYPE gapbs_serve_latency_us histogram"));
        assert!(text.contains("gapbs_serve_latency_us_count 1"));
        assert!(text.contains("kernel=\"pr\""));
        assert!(text.contains("gapbs_serve_query_latency_us_count"));
    }
    /// A minimal coherent stats reply: the roster fields plus the
    /// `metrics` series the checker reads.
    fn stats_reply(admitted: u64, completed: u64, active: u64, hist_count: u64) -> Json {
        let buckets = if hist_count > 0 {
            vec![Json::obj([
                ("le".to_string(), Json::Num(1024.0)),
                ("count".to_string(), Json::Num(hist_count as f64)),
            ])]
        } else {
            Vec::new()
        };
        let num = |k: &str, v: u64| (k.to_string(), Json::Num(v as f64));
        Json::obj([
            ("ok".to_string(), Json::Bool(true)),
            (
                "metrics".to_string(),
                Json::obj([
                    num("queries_admitted_total", admitted),
                    num("queries_completed_total", completed),
                    num("active_queries", active),
                    num("batch_queries_total", 0),
                    num("queries_inline_total", completed),
                    (
                        "latency_us".to_string(),
                        Json::obj([
                            num("count", hist_count),
                            ("buckets".to_string(), Json::Arr(buckets)),
                        ]),
                    ),
                    ("time_to_ready_seconds".to_string(), Json::Num(0.25)),
                    num("snapshot_hit{graph=\"kron\"}", 1),
                    num("snapshot_miss{graph=\"kron\"}", 0),
                    num("snapshot_hit{graph=\"road\"}", 0),
                    num("snapshot_miss{graph=\"road\"}", 1),
                ]),
            ),
        ])
    }

    /// Applies `edit` to the reply's `metrics` object.
    fn edit_metrics(mut stats: Json, edit: impl FnOnce(&mut BTreeMap<String, Json>)) -> Json {
        if let Json::Obj(fields) = &mut stats {
            if let Some(Json::Obj(metrics)) = fields.get_mut("metrics") {
                edit(metrics);
            }
        }
        stats
    }

    fn has(problems: &[String], needle: &str) -> bool {
        problems.iter().any(|p| p.contains(needle))
    }

    #[test]
    fn scrape_problems_accept_a_coherent_reply() {
        // Mid-load: 2 in flight, 5 done, histogram tracks completions.
        assert_eq!(
            scrape_problems(&stats_reply(7, 5, 2, 5)),
            Vec::<String>::new()
        );
        // Quiescent zero state.
        assert_eq!(
            scrape_problems(&stats_reply(0, 0, 0, 0)),
            Vec::<String>::new()
        );
    }

    #[test]
    fn scrape_problems_flag_an_unbalanced_lifecycle() {
        let problems = scrape_problems(&stats_reply(7, 6, 2, 6));
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(has(&problems, "incoherent lifecycle"), "{problems:?}");
        // Completed ahead of admitted is the classic torn-scrape symptom.
        assert!(!scrape_problems(&stats_reply(5, 7, 0, 7)).is_empty());
        // Batched answers past the admissions ran without accounting.
        let stats = edit_metrics(stats_reply(3, 3, 0, 3), |m| {
            m.insert("batch_queries_total".to_string(), Json::Num(8.0));
        });
        let problems = scrape_problems(&stats);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(has(&problems, "8 batched queries but only 3 admitted"));
    }

    #[test]
    fn scrape_problems_cap_inline_queries_at_completions() {
        let stats = edit_metrics(stats_reply(7, 5, 2, 5), |m| {
            m.insert("queries_inline_total".to_string(), Json::Num(6.0));
        });
        let problems = scrape_problems(&stats);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(has(&problems, "6 queries ran inline but only 5 completed"));
    }

    #[test]
    fn scrape_problems_tie_histogram_count_to_completions() {
        let problems = scrape_problems(&stats_reply(5, 5, 0, 4));
        assert!(has(&problems, "holds 4 records"), "{problems:?}");
    }

    #[test]
    fn scrape_problems_require_monotone_buckets() {
        let stats = edit_metrics(stats_reply(3, 3, 0, 3), |m| {
            let bucket = |le: f64, count: f64| {
                Json::obj([
                    ("le".to_string(), Json::Num(le)),
                    ("count".to_string(), Json::Num(count)),
                ])
            };
            m.insert(
                "latency_us".to_string(),
                Json::obj([
                    ("count".to_string(), Json::Num(3.0)),
                    (
                        "buckets".to_string(),
                        Json::Arr(vec![bucket(64.0, 2.0), bucket(128.0, 1.0)]),
                    ),
                ]),
            );
        });
        let problems = scrape_problems(&stats);
        assert!(has(&problems, "not monotone"), "{problems:?}");
        assert!(has(&problems, "tops out at"), "{problems:?}");
    }

    #[test]
    fn scrape_problems_flag_missing_series() {
        let problems = scrape_problems(&Json::obj([("ok".to_string(), Json::Bool(true))]));
        assert!(has(&problems, "missing the metrics object"), "{problems:?}");
        let stats = edit_metrics(stats_reply(0, 0, 0, 0), |m| {
            m.remove("queries_admitted_total");
            m.remove("latency_us");
        });
        let problems = scrape_problems(&stats);
        assert!(has(&problems, "queries_admitted_total"), "{problems:?}");
        assert!(has(&problems, "latency_us"), "{problems:?}");
    }

    #[test]
    fn scrape_problems_check_cold_start_series() {
        // A graph that claims both a hit and a miss double-loaded.
        let stats = edit_metrics(stats_reply(0, 0, 0, 0), |m| {
            m.insert("snapshot_miss{graph=\"kron\"}".to_string(), Json::Num(1.0));
        });
        assert!(has(&scrape_problems(&stats), "\"kron\" loaded 2 times"));
        // A negative time-to-ready is nonsense.
        let stats = edit_metrics(stats_reply(0, 0, 0, 0), |m| {
            m.insert("time_to_ready_seconds".to_string(), Json::Num(-1.0));
        });
        assert!(has(
            &scrape_problems(&stats),
            "implausible time_to_ready_seconds"
        ));
        // Dropping the gauge entirely is flagged.
        let stats = edit_metrics(stats_reply(0, 0, 0, 0), |m| {
            m.remove("time_to_ready_seconds");
        });
        assert!(has(
            &scrape_problems(&stats),
            "missing time_to_ready_seconds"
        ));
    }

    #[test]
    fn scrape_problems_flag_a_top_level_copy_of_a_series() {
        let mut stats = stats_reply(1, 1, 0, 1);
        if let Json::Obj(fields) = &mut stats {
            fields.insert("active_queries".to_string(), Json::Num(0.0));
        }
        let problems = scrape_problems(&stats);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(has(&problems, "both at the top level and in metrics"));
    }
}
