//! The daemon's live metrics plane.
//!
//! [`ServeMetrics`] owns one [`MetricsRegistry`] holding everything the
//! daemon exposes beyond the admission gate's own lifecycle counters:
//! per-{kernel, graph, framework} latency histograms, queue-wait and
//! coalescing batch-width histograms, slow-query and traced-query
//! counters, and pool/RSS instruments that are synchronized at scrape
//! time rather than on the query path.
//!
//! [`ServeMetrics::snapshot`] stitches the two sources together: it
//! takes a [`GateObservation`] (stats + gauges + the end-to-end latency
//! histogram, all coherent under the gate's lock — see
//! `admission`'s module docs) and prepends those as synthetic entries
//! ahead of the registry's own, so one snapshot renders to both the
//! `{"cmd":"stats"}` JSON and the Prometheus exposition with the
//! gate-derived series guaranteed internally consistent.

use std::collections::BTreeMap;
use std::sync::Mutex;

use gapbs_parallel::PoolStats;
use gapbs_telemetry::metrics::{
    CounterHandle, FloatGaugeHandle, GaugeHandle, HistogramHandle, MetricValue, MetricsRegistry,
    MetricsSnapshot,
};

use crate::admission::GateObservation;

/// The Prometheus metric-name prefix for every exposed series.
pub(crate) const PROM_PREFIX: &str = "gapbs_serve_";

/// All serve-side instruments; see the module docs.
pub(crate) struct ServeMetrics {
    registry: MetricsRegistry,
    /// Lazily registered per-{kernel, graph, framework} latency
    /// histograms (µs). Lazy because 6×5×6 combinations exist but a
    /// given daemon serves a handful; the lock is off the kernel's hot
    /// loop (once per query, microseconds next to a millisecond kernel).
    latency_by_label: Mutex<BTreeMap<(String, String, String), HistogramHandle>>,
    /// Time from request receipt to permit grant (µs), all queries.
    queue_wait_us: HistogramHandle,
    /// Members per executed MS-BFS batch (explicit or coalesced).
    batch_width: HistogramHandle,
    /// Queries past the `--slow-ms` threshold (0 when unset).
    slow_queries: CounterHandle,
    /// Queries served with an inline `"trace": true` capture.
    traced_queries: CounterHandle,
    /// Pool lifetime counters, mirrored from [`PoolStats`] at scrape
    /// time (see [`sync_pool`](Self::snapshot)).
    pool_regions: CounterHandle,
    pool_steals: CounterHandle,
    pool_parks: CounterHandle,
    /// Resident set size, refreshed from `/proc/self/status` per scrape.
    rss_bytes: GaugeHandle,
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
    /// Last pool stats folded into the mirrors, so concurrent scrapes
    /// can't double-add a delta.
    pool_seen: Mutex<PoolStats>,
}

impl Default for ServeMetrics {
    fn default() -> Self {
        Self::new()
    }
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
        let pool_regions = registry.counter(
            "pool_regions_total",
            "Parallel regions launched on the shared thread pool",
        );
        let pool_steals = registry.counter(
            "pool_steals_total",
            "Ranges stolen between pool workers by dynamic/guided loops",
        );
        let pool_parks = registry.counter(
            "pool_parks_total",
            "Times a pool worker parked on the region barrier",
        );
        let rss_bytes = registry.gauge(
            "rss_bytes",
            "Resident set size from /proc/self/status, sampled per scrape",
        );
        let time_to_ready_seconds = registry.float_gauge(
            "time_to_ready_seconds",
            "Wall-clock seconds from daemon start until every graph was resident",
        );
        ServeMetrics {
            registry,
            latency_by_label: Mutex::new(BTreeMap::new()),
            queue_wait_us,
            batch_width,
            slow_queries,
            traced_queries,
            pool_regions,
            pool_steals,
            pool_parks,
            rss_bytes,
            time_to_ready_seconds,
            snapshot_loads: Mutex::new(BTreeMap::new()),
            graph_bytes: Mutex::new(BTreeMap::new()),
            pool_seen: Mutex::new(PoolStats::default()),
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
    /// global wait histogram.
    pub(crate) fn observe_query(
        &self,
        kernel: &str,
        graph: &str,
        framework: &str,
        latency_us: u64,
        queue_wait_us: u64,
    ) {
        self.latency_histogram(kernel, graph, framework)
            .record(latency_us);
        self.queue_wait_us.record(queue_wait_us);
    }

    /// The per-label latency histogram, registering it on first use.
    fn latency_histogram(&self, kernel: &str, graph: &str, framework: &str) -> HistogramHandle {
        let mut map = self
            .latency_by_label
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        map.entry((kernel.to_string(), graph.to_string(), framework.to_string()))
            .or_insert_with(|| {
                self.registry.histogram_with_labels(
                    "query_latency_us",
                    &[
                        ("kernel", kernel),
                        ("graph", graph),
                        ("framework", framework),
                    ],
                    "End-to-end query latency in microseconds",
                )
            })
            .clone()
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
    /// observation; the caller takes it) and lead the entry list; the
    /// registry's instruments follow. Pool counters are brought current
    /// by folding in the delta versus the last scrape, and the RSS gauge
    /// is refreshed from procfs.
    pub(crate) fn snapshot(&self, gate: &GateObservation, pool: PoolStats) -> MetricsSnapshot {
        {
            let mut seen = self.pool_seen.lock().unwrap_or_else(|e| e.into_inner());
            let delta = pool.delta(&seen);
            self.pool_regions.add(delta.regions);
            self.pool_steals.add(delta.steals);
            self.pool_parks.add(delta.parks);
            *seen = pool;
        }
        if let Some(vm) = gapbs_telemetry::trace::read_vm_status() {
            self.rss_bytes.set(vm.vm_rss_bytes as i64);
        }
        let counter = |name: &str, help: &str, v: u64| {
            (
                name.to_string(),
                String::new(),
                help.to_string(),
                MetricValue::Counter(v),
            )
        };
        let gauge = |name: &str, help: &str, v: i64| {
            (
                name.to_string(),
                String::new(),
                help.to_string(),
                MetricValue::Gauge(v),
            )
        };
        let mut snapshot = MetricsSnapshot {
            metrics: vec![
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
                    gate.stats.batch_width as i64,
                ),
                gauge(
                    "active_queries",
                    "Admission permits currently held",
                    gate.active as i64,
                ),
                gauge(
                    "waiting_queries",
                    "Queries parked waiting for a slot",
                    gate.waiting as i64,
                ),
                gauge(
                    "queue_age_us",
                    "Age of the oldest parked waiter in microseconds",
                    gate.queue_age_us as i64,
                ),
                (
                    "latency_us".to_string(),
                    String::new(),
                    "End-to-end latency of every completed query in microseconds".to_string(),
                    MetricValue::Histogram(Box::new(gate.latency)),
                ),
            ],
        };
        snapshot.metrics.extend(self.registry.snapshot().metrics);
        snapshot
    }
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
        metrics.observe_query("bfs", "kron", "GAP", 1234, 12);
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
    fn pool_deltas_fold_once_across_scrapes() {
        let metrics = ServeMetrics::new();
        let gate = AdmissionGate::new(1, 0);
        let stats1 = PoolStats {
            spawn_events: 1,
            regions: 10,
            steals: 4,
            parks: 2,
        };
        let snap = metrics.snapshot(&observation(&gate), stats1);
        let regions = |s: &MetricsSnapshot| {
            s.metrics
                .iter()
                .find(|(name, ..)| name == "pool_regions_total")
                .map(|(.., v)| match v {
                    MetricValue::Counter(c) => *c,
                    _ => panic!("counter"),
                })
                .unwrap()
        };
        assert_eq!(regions(&snap), 10);
        // Same stats again: no double-add.
        let snap = metrics.snapshot(&observation(&gate), stats1);
        assert_eq!(regions(&snap), 10);
        // Progress folds in as a delta.
        let stats2 = PoolStats {
            spawn_events: 1,
            regions: 25,
            steals: 9,
            parks: 2,
        };
        let snap = metrics.snapshot(&observation(&gate), stats2);
        assert_eq!(regions(&snap), 25);
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
        metrics.observe_query("pr", "road", "SuiteSparse", 900, 5);
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
}
