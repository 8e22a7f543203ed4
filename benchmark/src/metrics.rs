//! The metric tables — the same names, units and bounds `BENCHMARK.json`
//! declares (a unit test holds the two together) — and the container a
//! run fills in.

use std::collections::BTreeMap;

use gapbs_core::Kernel;
use gapbs_telemetry::json::Json;

use crate::batch::kernel_name;

/// An end-to-end metric: what a user of the system would see.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which it may get worse.
    pub bound: f64,
}

/// Bounds are what this two-core shared host can hold: two sets of ten
/// runs of one build differed by up to 14 % in their medians, with
/// interquartile spreads of 1–18 % inside a set (`results/aa.txt`), so
/// every timing gets the contract's widest bound; only memory repeats
/// well enough for a tighter one.
pub const END_TO_END: [EndToEnd; 10] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ready_rebuild_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "snapshot_write_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ready_snapshot_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "qps",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "query_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "query_tail_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "kernel_geomean_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "kernel_total_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.10,
    },
];

/// Length of one run's timed phase, `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u32 = 10;

/// `BENCHMARK.json`, generated from the tables in this file and the
/// workload list so the declaration cannot drift from what is printed
/// (`--spec` prints it; a unit test compares it with the committed file).
pub fn benchmark_json() -> String {
    let entry = |fields: Vec<(&str, Json)>| {
        let body: Vec<String> = fields
            .into_iter()
            .map(|(k, v)| format!("{}: {}", Json::Str(k.to_string()).encode(), v.encode()))
            .collect();
        format!("    {{{}}}", body.join(", "))
    };
    let text = |s: &str| Json::Str(s.to_string());
    let workloads: Vec<String> = crate::workloads::Workload::ALL
        .iter()
        .map(|w| entry(vec![("name", text(w.name())), ("why", text(w.why()))]))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            entry(vec![
                ("name", text(m.name)),
                ("unit", text(m.unit)),
                ("better", text(m.better)),
                ("bound", Json::Num(m.bound)),
            ])
        })
        .collect();
    let layers: Vec<String> = per_layer()
        .iter()
        .map(|(name, unit, better)| {
            entry(vec![
                ("name", text(name)),
                ("unit", text(unit)),
                ("better", text(better)),
            ])
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        layers.join(",\n"),
    )
}

/// Layer (crate) names of the six frameworks, in Table V's row order.
pub const FRAMEWORK_CRATES: [&str; 6] = ["ref", "grb", "galois", "graphit", "gkc", "nwgraph"];

/// Every per-layer metric as `(name, unit, better)`; the layer is the
/// part of the name before the first dot.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut out = Vec::new();
    let mut push = |name: String, unit: &'static str, better: &'static str| {
        out.push((name, unit, better));
    };
    for layer in FRAMEWORK_CRATES {
        for kernel in Kernel::ALL {
            push(format!("{layer}.{}_ms", kernel_name(kernel)), "ms", "lower");
        }
        push(format!("{layer}.pr_iters"), "count", "lower");
        push(format!("core.prepare_{layer}_ms"), "ms", "lower");
    }
    push("ref.ms_bfs_ms".to_string(), "ms", "lower");
    for kernel in Kernel::ALL {
        push(
            format!("ref.{}_alloc_kb", kernel_name(kernel)),
            "KB",
            "lower",
        );
        push(format!("verify.{}_ms", kernel_name(kernel)), "ms", "lower");
    }
    for (name, unit, better) in [
        ("core.matrix_pass_s", "s", "lower"),
        ("core.runner_overhead_s", "s", "lower"),
        ("graph.gen_s", "s", "lower"),
        ("graph.build_s", "s", "lower"),
        ("graph.snapshot_write_s", "s", "lower"),
        ("graph.snapshot_load_ms", "ms", "lower"),
        ("graph.snapshot_load_compact_ms", "ms", "lower"),
        ("graph.snapshot_mb", "MB", "lower"),
        ("graph.resident_mb", "MB", "lower"),
        ("parallel.region_launch_us", "us", "lower"),
        ("parallel.pool_spawn_ms", "ms", "lower"),
        ("serve.parse_us", "us", "lower"),
        ("serve.admit_us", "us", "lower"),
        ("serve.execute_bfs_ms", "ms", "lower"),
        ("serve.execute_sssp_ms", "ms", "lower"),
        ("serve.execute_cc_ms", "ms", "lower"),
        ("serve.execute_pr_ms", "ms", "lower"),
        ("serve.canonicalize_us", "us", "lower"),
        ("serve.serialize_us", "us", "lower"),
        ("serve.coalesce_wait_ms", "ms", "lower"),
        ("serve.handle_overhead_us", "us", "lower"),
        ("serve.socket_overhead_us", "us", "lower"),
        ("serve.concurrency_wait_ms", "ms", "lower"),
        ("serve.batch_fanout_ms", "ms", "lower"),
        ("serve.response_bytes", "B", "lower"),
        ("serve.stats_scrape_ms", "ms", "lower"),
        ("serve.allocs_per_query", "count", "lower"),
        ("serve.alloc_kb_per_query", "KB", "lower"),
        ("telemetry.hist_record_ns", "ns", "lower"),
        ("telemetry.ledger_append_us", "us", "lower"),
        ("bench.trace_overhead_ratio", "ratio", "lower"),
    ] {
        push(name.to_string(), unit, better);
    }
    out
}

/// One measured value and the number of samples behind it.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub value: f64,
    pub samples: usize,
}

/// The metrics of one run, by name.
#[derive(Default)]
pub struct Metrics(pub BTreeMap<String, Metric>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, samples: usize) {
        self.0.insert(name.into(), Metric { value, samples });
    }

    /// Adds `value` to `name`, counting one more sample behind it.
    pub fn add(&mut self, name: String, value: f64) {
        let entry = self.0.entry(name).or_insert(Metric {
            value: 0.0,
            samples: 0,
        });
        entry.value += value;
        entry.samples += 1;
    }

    /// Sets `name` unless an earlier, more specific source already did.
    pub fn fill(&mut self, name: impl Into<String>, value: f64, samples: usize) {
        self.0
            .entry(name.into())
            .or_insert(Metric { value, samples });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|m| m.value)
    }
}

/// What one run of one workload produced.
pub struct RunOutput {
    pub workload: &'static str,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Machine shape, seed and graph shapes.
    pub info: Vec<(String, Json)>,
    /// Statements about how the numbers were taken.
    pub notes: Vec<String>,
    /// Mean latency in milliseconds per class of the timed phase.
    pub classes: Vec<(String, f64)>,
}

impl RunOutput {
    /// The table of names this run must report, with units.
    fn expected(&self) -> Vec<(String, &'static str, Option<f64>)> {
        if self.traced {
            per_layer()
                .into_iter()
                .map(|(name, unit, _)| (name, unit, None))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| (m.name.to_string(), m.unit, Some(m.bound)))
                .collect()
        }
    }

    /// Whether every check passed and every metric the contract lists is
    /// present as a finite number (an end-to-end one also non-zero).
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.attempted > 0
            && self.expected().iter().all(|(name, _, bound)| {
                self.metrics
                    .get(name)
                    .is_some_and(|v| v.is_finite() && (bound.is_none() || v > 0.0))
            })
    }

    /// Every metric by name with value, unit, sample count and bound.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{} ({}): {} checked, {} failed\n{:<34} {:>14} {:<6} {:>8} {:>6}\n",
            self.workload,
            if self.traced {
                "traced, per layer"
            } else {
                "untraced, end to end"
            },
            self.attempted,
            self.failed,
            "metric",
            "value",
            "unit",
            "samples",
            "bound"
        );
        for (name, unit, bound) in self.expected() {
            let (value, samples) = self
                .metrics
                .0
                .get(&name)
                .map_or(("MISSING".to_string(), 0), |m| {
                    (format!("{:.4}", m.value), m.samples)
                });
            let bound = bound.map_or("-".to_string(), |b| format!("{b:.2}"));
            out.push_str(&format!(
                "{name:<34} {value:>14} {unit:<6} {samples:>8} {bound:>6}\n"
            ));
        }
        for note in &self.notes {
            out.push_str(&format!("note: {note}\n"));
        }
        out
    }

    /// The result object the contract wants as the last line of output.
    pub fn result_json(&self) -> Json {
        let metrics = self.expected().into_iter().filter_map(|(name, unit, _)| {
            let value = self.metrics.get(&name)?;
            let entry = Json::obj([
                ("value".to_string(), Json::Num(value)),
                ("unit".to_string(), Json::Str(unit.to_string())),
            ]);
            Some((name, entry))
        });
        Json::obj([
            ("correct".to_string(), Json::Bool(self.correct())),
            ("attempted".to_string(), Json::Num(self.attempted as f64)),
            ("failed".to_string(), Json::Num(self.failed as f64)),
            ("metrics".to_string(), Json::obj(metrics)),
        ])
    }

    /// The full record of the run: result, machine shape and notes.
    pub fn record_json(&self) -> Json {
        let samples = self
            .metrics
            .0
            .iter()
            .map(|(name, m)| (name.clone(), Json::Num(m.samples as f64)));
        Json::obj([
            ("workload".to_string(), Json::Str(self.workload.to_string())),
            ("traced".to_string(), Json::Bool(self.traced)),
            ("result".to_string(), self.result_json()),
            ("samples".to_string(), Json::obj(samples)),
            ("machine".to_string(), Json::obj(self.info.clone())),
            (
                "class_mean_ms".to_string(),
                Json::obj(
                    self.classes
                        .iter()
                        .map(|(c, ms)| (c.clone(), Json::Num(*ms))),
                ),
            ),
            (
                "notes".to_string(),
                Json::Arr(self.notes.iter().cloned().map(Json::Str).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is what the driver and later issues read; the
    /// tables above are what the binary prints. They must not drift.
    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        assert_eq!(committed, benchmark_json(), "regenerate with --spec");
        let json = Json::parse(&committed).expect("BENCHMARK.json parses");
        assert_eq!(
            json.get("run_seconds").and_then(Json::as_u64),
            Some(u64::from(RUN_SECONDS))
        );
        assert!(per_layer().len() <= 128 && END_TO_END.len() <= 16);
        for w in crate::workloads::Workload::ALL {
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
    }

    #[test]
    fn metric_names_are_unique_and_within_the_contracts_limits() {
        let mut names: Vec<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
        names.extend(per_layer().into_iter().map(|m| m.0));
        let total = names.len();
        for name in &names {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used twice");
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }
}
