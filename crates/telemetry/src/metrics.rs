//! Live metrics: log₂-bucketed histograms and a named-metric registry.
//!
//! The ledger and Chrome traces (PRs 1/3) are post-mortem artifacts; a
//! running daemon needs its latency distribution, queue depth, and pool
//! rates observable *while serving*. GAP's methodology (Beamer et al.)
//! reports full trial distributions rather than means — a live service
//! owes its operator the same: quantiles, not averages.
//!
//! The recording discipline matches `crate::counters`: per-thread
//! cache-line-padded shards of relaxed atomics, so the hot path is one
//! uncontended `fetch_add`. Like the work counters they are always on.
//! The cost per record is a leading-zeros instruction plus one relaxed
//! add.
//!
//! Buckets are log₂ of the recorded value: bucket `i` holds values in
//! `[2^(i-1), 2^i)` (bucket 0 holds 0). With microsecond latencies this
//! spans 1 µs to ~18 minutes in 31 buckets — coarse (each bucket is a
//! 2x band) but honest: a reported p99 is exact to within one power of
//! two, which is the right resolution for "is p99 1 ms or 100 ms?"
//! operator questions. `crates/serve/tests/metrics_plane.rs` cross-checks
//! the daemon's quantiles against client-measured latencies within one
//! bucket.

use crate::json::Json;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};

/// Number of log₂ buckets. Bucket 0 is the zero bucket; bucket `i`
/// (1-based) covers `[2^(i-1), 2^i)`; the last bucket is open-ended.
pub const BUCKETS: usize = 64;

/// Number of shards. Matches [`crate::counters`]: more than any
/// plausible thread count; two threads sharing a shard is still correct
/// (atomic adds), just marginally contended.
const SHARDS: usize = 64;

/// The bucket index a value lands in: 0 for 0, else `1 + floor(log2 v)`
/// clamped to the last bucket.
#[inline]
pub fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        ((64 - value.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// Inclusive lower bound of bucket `i` (0 for the zero bucket).
#[inline]
pub(crate) fn bucket_lo(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// Exclusive upper bound of bucket `i` (`u64::MAX` for the last).
#[inline]
pub fn bucket_hi(i: usize) -> u64 {
    if i == 0 {
        1
    } else if i >= BUCKETS - 1 {
        u64::MAX
    } else {
        1u64 << i
    }
}

/// One shard: a cache-line-padded row of bucket cells plus a sum cell.
#[repr(align(128))]
struct HistShard {
    buckets: [AtomicU64; BUCKETS],
    /// Sum of raw recorded values (for the mean; quantiles come from
    /// buckets). Wrapping on overflow — at µs resolution that is ~584k
    /// core-years of recorded latency.
    sum: AtomicU64,
}

impl HistShard {
    const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        HistShard {
            buckets: [ZERO; BUCKETS],
            sum: AtomicU64::new(0),
        }
    }
}

/// A lock-free log₂ histogram.
///
/// `record` touches only the calling thread's shard; [`Histogram::snapshot`]
/// merges all shards into an immutable [`HistogramSnapshot`]. Snapshots
/// taken concurrently with recording are *per-bucket* consistent (each
/// bucket count is a real value some record produced) but may straddle
/// in-flight records — fine for monitoring, and the consistency the
/// stats lint asserts (`count == completed`) is only required at
/// quiescent points or under the engine's coherent-snapshot lock.
pub struct Histogram {
    shards: [HistShard; SHARDS],
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &snap.count)
            .field("sum", &snap.sum)
            .finish()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const SHARD: HistShard = HistShard::new();
        Histogram {
            shards: [SHARD; SHARDS],
        }
    }

    /// Records one value into the calling thread's shard.
    #[inline]
    pub fn record(&self, value: u64) {
        let shard = &self.shards[shard_index()];
        shard.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        shard.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Merges every shard into an immutable snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        let mut sum = 0u64;
        for shard in &self.shards {
            for (out, cell) in buckets.iter_mut().zip(shard.buckets.iter()) {
                *out = out.wrapping_add(cell.load(Ordering::Relaxed));
            }
            sum = sum.wrapping_add(shard.sum.load(Ordering::Relaxed));
        }
        let count = buckets.iter().fold(0u64, |a, &b| a.wrapping_add(b));
        HistogramSnapshot {
            buckets,
            count,
            sum,
        }
    }
}

/// An immutable merged view of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts; bucket `i` covers `[bucket_lo(i), bucket_hi(i))`.
    pub buckets: [u64; BUCKETS],
    /// Total records.
    pub count: u64,
    /// Sum of raw recorded values.
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl HistogramSnapshot {
    /// The quantile `q` in `[0, 1]`, reported as the *inclusive lower
    /// bound* of the bucket holding the rank-`ceil(q·count)` value
    /// (nearest-rank on the bucketed distribution). `None` when empty.
    ///
    /// Lower-bound reporting keeps the estimate conservative and makes
    /// the oracle contract crisp: the true quantile `t` satisfies
    /// `quantile(q) <= t < 2·quantile(q)` (one log₂ bucket).
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Nearest-rank: the smallest rank r with r >= q*count, at least 1.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_lo(i));
            }
        }
        // Unreachable: seen == count >= rank after the loop.
        Some(bucket_lo(BUCKETS - 1))
    }

    /// Compact JSON for the stats snapshot: count/sum/p50..p999 plus the
    /// sparse bucket table (`le` = exclusive upper bound, cumulative
    /// counts, Prometheus-style).
    pub fn to_json(&self) -> Json {
        let mut cumulative = 0u64;
        let mut buckets = Vec::new();
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            cumulative += c;
            buckets.push(Json::obj([
                ("le".to_string(), Json::Num(bucket_hi(i) as f64)),
                ("count".to_string(), Json::Num(cumulative as f64)),
            ]));
        }
        let quant = |q: f64| Json::Num(self.quantile(q).unwrap_or(0) as f64);
        Json::obj([
            ("count".to_string(), Json::Num(self.count as f64)),
            ("sum".to_string(), Json::Num(self.sum as f64)),
            ("p50".to_string(), quant(0.50)),
            ("p90".to_string(), quant(0.90)),
            ("p99".to_string(), quant(0.99)),
            ("p999".to_string(), quant(0.999)),
            ("buckets".to_string(), Json::Arr(buckets)),
        ])
    }
}

/// The calling thread's shard slot, assigned round-robin on first use.
/// Separate counter from [`crate::counters`]' so the two modules don't
/// perturb each other's distribution, same scheme.
fn shard_index() -> usize {
    static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SLOT: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
    }
    SLOT.with(|s| *s)
}

/// A named instrument in a [`MetricsRegistry`].
#[derive(Debug)]
enum Instrument {
    /// Monotone counter.
    Counter(AtomicU64),
    /// Point-in-time signed value (queue depths, RSS bytes).
    Gauge(AtomicI64),
    /// Point-in-time float value (seconds, ratios), stored as f64 bits
    /// in an atomic word so set/get stay lock-free.
    FloatGauge(AtomicU64),
    /// Log₂ latency histogram.
    Histogram(Box<Histogram>),
}

/// A registry of named counters, gauges, and histograms.
///
/// Names are registered once (typically at daemon startup) and then
/// looked up by the returned handle index — the hot path never touches
/// the name table. Snapshots render to the stats JSON and to Prometheus
/// text exposition with a caller-supplied name prefix.
///
/// Metric names must match `[a-z_][a-z0-9_]*`; label sets are encoded
/// into the name by the caller (e.g. `latency_us{kernel="bfs"}` is
/// registered via [`MetricsRegistry::histogram_with_labels`]).
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    entries: std::sync::Mutex<Vec<Entry>>,
}

#[derive(Debug)]
struct Entry {
    name: String,
    /// `key="value"` label pairs, already escaped, without braces.
    labels: String,
    help: String,
    instrument: std::sync::Arc<InstrumentCell>,
}

#[derive(Debug)]
struct InstrumentCell {
    inner: Instrument,
}

/// Handle to a registered counter.
#[derive(Debug, Clone)]
pub struct CounterHandle(std::sync::Arc<InstrumentCell>);

/// Handle to a registered gauge.
#[derive(Debug, Clone)]
pub struct GaugeHandle(std::sync::Arc<InstrumentCell>);

/// Handle to a registered float gauge.
#[derive(Debug, Clone)]
pub struct FloatGaugeHandle(std::sync::Arc<InstrumentCell>);

/// Handle to a registered histogram.
#[derive(Debug, Clone)]
pub struct HistogramHandle(std::sync::Arc<InstrumentCell>);

impl CounterHandle {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Instrument::Counter(c) = &self.0.inner {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }
}

impl GaugeHandle {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        if let Instrument::Gauge(g) = &self.0.inner {
            g.store(v, Ordering::Relaxed);
        }
    }
}

impl FloatGaugeHandle {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        if let Instrument::FloatGauge(g) = &self.0.inner {
            g.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value.
    #[cfg(test)]
    pub(crate) fn get(&self) -> f64 {
        match &self.0.inner {
            Instrument::FloatGauge(g) => f64::from_bits(g.load(Ordering::Relaxed)),
            _ => 0.0,
        }
    }
}

impl HistogramHandle {
    /// Records one value.
    #[inline]
    pub fn record(&self, v: u64) {
        if let Instrument::Histogram(h) = &self.0.inner {
            h.record(v);
        }
    }
}

/// One metric's merged state in a registry snapshot.
#[derive(Debug, Clone)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Float gauge value.
    FloatGauge(f64),
    /// Histogram snapshot (boxed: 64 buckets dwarf the scalar variants).
    Histogram(Box<HistogramSnapshot>),
}

/// A registry snapshot: `(name, labels, help, value)` per metric, in
/// registration order.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// The entries.
    pub metrics: Vec<(String, String, String, MetricValue)>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn register(
        &self,
        name: &str,
        labels: String,
        help: &str,
        instrument: Instrument,
    ) -> std::sync::Arc<InstrumentCell> {
        let cell = std::sync::Arc::new(InstrumentCell { inner: instrument });
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        entries.push(Entry {
            name: name.to_string(),
            labels,
            help: help.to_string(),
            instrument: std::sync::Arc::clone(&cell),
        });
        cell
    }

    /// Registers a monotone counter.
    pub fn counter(&self, name: &str, help: &str) -> CounterHandle {
        CounterHandle(self.register(
            name,
            String::new(),
            help,
            Instrument::Counter(AtomicU64::new(0)),
        ))
    }

    /// Registers a gauge.
    pub fn gauge(&self, name: &str, help: &str) -> GaugeHandle {
        GaugeHandle(self.register(
            name,
            String::new(),
            help,
            Instrument::Gauge(AtomicI64::new(0)),
        ))
    }

    /// Registers a float-valued gauge (Prometheus gauges are floats
    /// anyway; this one keeps fractional precision, e.g. seconds).
    pub fn float_gauge(&self, name: &str, help: &str) -> FloatGaugeHandle {
        FloatGaugeHandle(self.register(
            name,
            String::new(),
            help,
            Instrument::FloatGauge(AtomicU64::new(0f64.to_bits())),
        ))
    }

    /// Registers a histogram.
    pub fn histogram(&self, name: &str, help: &str) -> HistogramHandle {
        HistogramHandle(self.register(
            name,
            String::new(),
            help,
            Instrument::Histogram(Box::default()),
        ))
    }

    /// Registers a histogram with a label set (`[("kernel", "bfs")]` →
    /// `name{kernel="bfs"}` in the exposition).
    pub fn histogram_with_labels(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
    ) -> HistogramHandle {
        HistogramHandle(self.register(
            name,
            encode_labels(labels),
            help,
            Instrument::Histogram(Box::default()),
        ))
    }

    /// Registers a gauge with a label set.
    pub fn gauge_with_labels(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
    ) -> GaugeHandle {
        GaugeHandle(self.register(
            name,
            encode_labels(labels),
            help,
            Instrument::Gauge(AtomicI64::new(0)),
        ))
    }

    /// Registers a counter with a label set.
    pub fn counter_with_labels(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
    ) -> CounterHandle {
        CounterHandle(self.register(
            name,
            encode_labels(labels),
            help,
            Instrument::Counter(AtomicU64::new(0)),
        ))
    }

    /// Merges every metric into a point-in-time snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        let metrics = entries
            .iter()
            .map(|e| {
                let value = match &e.instrument.inner {
                    Instrument::Counter(c) => MetricValue::Counter(c.load(Ordering::Relaxed)),
                    Instrument::Gauge(g) => MetricValue::Gauge(g.load(Ordering::Relaxed)),
                    Instrument::FloatGauge(g) => {
                        MetricValue::FloatGauge(f64::from_bits(g.load(Ordering::Relaxed)))
                    }
                    Instrument::Histogram(h) => MetricValue::Histogram(Box::new(h.snapshot())),
                };
                (e.name.clone(), e.labels.clone(), e.help.clone(), value)
            })
            .collect();
        MetricsSnapshot { metrics }
    }
}

fn encode_labels(labels: &[(&str, &str)]) -> String {
    let mut out = String::new();
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for ch in v.chars() {
            match ch {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out
}

impl MetricsSnapshot {
    /// Renders Prometheus text exposition (version 0.0.4). Histograms
    /// render as native `_bucket`/`_sum`/`_count` series with `le`
    /// labels (exclusive log₂ upper bounds plus `+Inf`); `# HELP` and
    /// `# TYPE` lines are emitted once per metric family.
    pub fn to_prometheus(&self, prefix: &str) -> String {
        let mut out = String::new();
        let mut seen_families: Vec<String> = Vec::new();
        for (name, labels, help, value) in &self.metrics {
            let family = format!("{prefix}{name}");
            let ty = match value {
                MetricValue::Counter(_) => "counter",
                MetricValue::Gauge(_) | MetricValue::FloatGauge(_) => "gauge",
                MetricValue::Histogram(_) => "histogram",
            };
            if !seen_families.contains(&family) {
                out.push_str(&format!("# HELP {family} {}\n", escape_help(help)));
                out.push_str(&format!("# TYPE {family} {ty}\n"));
                seen_families.push(family.clone());
            }
            match value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("{family}{} {v}\n", braced(labels)));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("{family}{} {v}\n", braced(labels)));
                }
                MetricValue::FloatGauge(v) => {
                    // Non-finite values are not representable in the
                    // exposition format's sample grammar; clamp to 0.
                    let v = if v.is_finite() { *v } else { 0.0 };
                    out.push_str(&format!("{family}{} {v}\n", braced(labels)));
                }
                MetricValue::Histogram(h) => {
                    let mut cumulative = 0u64;
                    for (i, &c) in h.buckets.iter().enumerate() {
                        if c == 0 {
                            continue;
                        }
                        cumulative += c;
                        let le = bucket_hi(i);
                        let le_labels = join_labels(labels, &format!("le=\"{le}\""));
                        out.push_str(&format!("{family}_bucket{{{le_labels}}} {cumulative}\n"));
                    }
                    let inf_labels = join_labels(labels, "le=\"+Inf\"");
                    out.push_str(&format!("{family}_bucket{{{inf_labels}}} {}\n", h.count));
                    out.push_str(&format!("{family}_sum{} {}\n", braced(labels), h.sum));
                    out.push_str(&format!("{family}_count{} {}\n", braced(labels), h.count));
                }
            }
        }
        out
    }

    /// Renders the snapshot as a JSON object keyed by metric name (a
    /// `name{labels}` key when labels are present).
    pub fn to_json(&self) -> Json {
        Json::obj(self.metrics.iter().map(|(name, labels, _, value)| {
            let key = if labels.is_empty() {
                name.clone()
            } else {
                format!("{name}{{{labels}}}")
            };
            let v = match value {
                MetricValue::Counter(c) => Json::Num(*c as f64),
                MetricValue::Gauge(g) => Json::Num(*g as f64),
                MetricValue::FloatGauge(g) => Json::Num(if g.is_finite() { *g } else { 0.0 }),
                MetricValue::Histogram(h) => h.to_json(),
            };
            (key, v)
        }))
    }
}

fn braced(labels: &str) -> String {
    if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    }
}

fn join_labels(labels: &str, extra: &str) -> String {
    if labels.is_empty() {
        extra.to_string()
    } else {
        format!("{labels},{extra}")
    }
}

fn escape_help(help: &str) -> String {
    help.replace('\\', "\\\\").replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_tile_the_u64_line() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        for i in 0..BUCKETS - 1 {
            // Every bucket's own bounds map back into it.
            assert_eq!(bucket_of(bucket_lo(i)), i, "lo of bucket {i}");
            assert_eq!(bucket_of(bucket_hi(i) - 1), i, "hi-1 of bucket {i}");
            // Adjacent buckets share a boundary.
            assert_eq!(bucket_hi(i), bucket_lo(i + 1).max(1));
        }
    }

    #[test]
    fn known_values_land_in_exact_buckets() {
        let h = Histogram::new();
        for v in [0, 1, 1, 2, 3, 4, 7, 8, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 9);
        assert_eq!(s.sum, 1026);
        assert_eq!(s.buckets[0], 1, "one zero");
        assert_eq!(s.buckets[1], 2, "two ones");
        assert_eq!(s.buckets[2], 2, "2 and 3");
        assert_eq!(s.buckets[3], 2, "4 and 7");
        assert_eq!(s.buckets[4], 1, "8");
        assert_eq!(s.buckets[10], 1, "1000 in [512, 1024)");
    }

    #[test]
    fn quantiles_are_bucket_lower_bounds_and_monotone() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        // True p50 is 500 → bucket [256,512) → lower bound 256.
        assert_eq!(s.quantile(0.5), Some(256));
        // True p99 is 990 → bucket [512,1024) → lower bound 512.
        assert_eq!(s.quantile(0.99), Some(512));
        // Monotone in q.
        let mut last = 0;
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
            let v = s.quantile(q).unwrap();
            assert!(v >= last, "quantile({q}) = {v} < {last}");
            last = v;
        }
        // Lower-bound contract: q <= true < 2*q for the bucketed value.
        assert!(s.quantile(0.5).unwrap() <= 500 && 500 < 2 * s.quantile(0.5).unwrap());
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.quantile(0.5), None);
    }

    #[test]
    fn concurrent_recording_merges_exactly() {
        // Satellite: N threads recording known value sets yields exact
        // bucket counts and monotone quantiles.
        let h = Histogram::new();
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 5000;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let h = &h;
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        // Deterministic mixed magnitudes: every thread
                        // records the same multiset.
                        h.record((i % 17) * (i % 17) + t - t);
                        h.record(1u64 << (i % 20));
                    }
                });
            }
        });
        let s = h.snapshot();
        assert_eq!(s.count, THREADS * PER_THREAD * 2);
        // Oracle: replay the same multiset serially.
        let oracle = Histogram::new();
        for _ in 0..THREADS {
            for i in 0..PER_THREAD {
                oracle.record((i % 17) * (i % 17));
                oracle.record(1u64 << (i % 20));
            }
        }
        let o = oracle.snapshot();
        assert_eq!(s.buckets, o.buckets, "bucket counts must merge exactly");
        assert_eq!(s.sum, o.sum);
        let mut last = 0;
        for q in 0..=100 {
            let v = s.quantile(q as f64 / 100.0).unwrap();
            assert!(v >= last);
            last = v;
        }
    }

    #[test]
    fn registry_snapshot_and_prometheus_exposition() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("queries_total", "Total queries");
        let g = reg.gauge("active", "Active queries");
        let h = reg.histogram_with_labels("latency_us", &[("kernel", "bfs")], "Latency");
        c.add(3);
        g.set(2);
        h.record(100);
        h.record(5000);

        let snap = reg.snapshot();
        assert_eq!(snap.metrics.len(), 3);

        let text = snap.to_prometheus("gapbs_serve_");
        assert!(text.contains("# TYPE gapbs_serve_queries_total counter"));
        assert!(text.contains("gapbs_serve_queries_total 3"));
        assert!(text.contains("# TYPE gapbs_serve_active gauge"));
        assert!(text.contains("gapbs_serve_active 2"));
        assert!(text.contains("# TYPE gapbs_serve_latency_us histogram"));
        assert!(text.contains("gapbs_serve_latency_us_bucket{kernel=\"bfs\",le=\"128\"} 1"));
        assert!(text.contains("gapbs_serve_latency_us_bucket{kernel=\"bfs\",le=\"+Inf\"} 2"));
        assert!(text.contains("gapbs_serve_latency_us_sum{kernel=\"bfs\"} 5100"));
        assert!(text.contains("gapbs_serve_latency_us_count{kernel=\"bfs\"} 2"));
        // Every non-comment line is `name{...} value` or `name value`.
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (name_part, value) = line.rsplit_once(' ').expect("sample line has a value");
            assert!(!name_part.is_empty());
            assert!(
                value == "+Inf" || value.parse::<f64>().is_ok(),
                "bad value {value:?}"
            );
        }

        let json = snap.to_json();
        assert_eq!(json.get("queries_total").and_then(Json::as_u64), Some(3));
        let hist = json.get("latency_us{kernel=\"bfs\"}").expect("hist key");
        assert_eq!(hist.get("count").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn float_gauge_round_trips_through_both_renderings() {
        let reg = MetricsRegistry::new();
        let g = reg.float_gauge("time_to_ready_seconds", "Startup load time");
        assert_eq!(g.get(), 0.0, "registers at zero");
        g.set(1.75);
        assert_eq!(g.get(), 1.75);

        let snap = reg.snapshot();
        let text = snap.to_prometheus("gapbs_serve_");
        assert!(text.contains("# TYPE gapbs_serve_time_to_ready_seconds gauge"));
        assert!(text.contains("gapbs_serve_time_to_ready_seconds 1.75"));
        let json = snap.to_json();
        assert_eq!(
            json.get("time_to_ready_seconds").and_then(Json::as_f64),
            Some(1.75)
        );

        // Non-finite values degrade to 0 rather than breaking the
        // exposition grammar.
        g.set(f64::NAN);
        let text = reg.snapshot().to_prometheus("x_");
        assert!(text.contains("x_time_to_ready_seconds 0\n"), "{text}");
    }

    #[test]
    fn same_family_two_label_sets_emits_one_header() {
        let reg = MetricsRegistry::new();
        reg.histogram_with_labels("latency_us", &[("kernel", "bfs")], "Latency")
            .record(1);
        reg.histogram_with_labels("latency_us", &[("kernel", "pr")], "Latency")
            .record(2);
        let text = reg.snapshot().to_prometheus("x_");
        assert_eq!(text.matches("# TYPE x_latency_us histogram").count(), 1);
        assert!(text.contains("kernel=\"bfs\""));
        assert!(text.contains("kernel=\"pr\""));
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(
            encode_labels(&[("g", "a\"b\\c\nd")]),
            "g=\"a\\\"b\\\\c\\nd\""
        );
    }
}
