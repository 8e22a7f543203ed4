//! Post-hoc analysis of Chrome trace-event timelines.
//!
//! `gapbs_telemetry::trace` sessions export the trace-event JSON array
//! that Perfetto loads; this module reads one back and condenses it into
//! the numbers a terminal wants: per-region worker-time imbalance, the
//! BFS direction-switch narrative, and per-kernel iteration tables. The
//! `trace_stats` binary is a thin wrapper over [`render`].

use gapbs_telemetry::json::Json;
use std::collections::BTreeMap;

/// One trace event, with only the fields the analyses read.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Phase: "X" complete, "i" instant, "C" counter, "M" metadata.
    pub ph: String,
    /// Category: "iter", "pool", "rss", "trial".
    pub cat: String,
    /// Event name ("bfs_level", "region", "worker_steal", ...).
    pub name: String,
    /// Timestamp in microseconds since the session epoch.
    pub ts: f64,
    /// Duration in microseconds (complete events; 0 otherwise).
    pub dur: f64,
    /// Thread lane the event landed on.
    pub tid: u64,
    /// Event arguments.
    pub args: Json,
}

impl TraceEvent {
    fn from_json(v: &Json) -> Option<TraceEvent> {
        Some(TraceEvent {
            ph: v.get("ph")?.as_str()?.to_string(),
            cat: v
                .get("cat")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            name: v.get("name")?.as_str()?.to_string(),
            ts: v.get("ts").and_then(Json::as_f64).unwrap_or(0.0),
            dur: v.get("dur").and_then(Json::as_f64).unwrap_or(0.0),
            tid: v.get("tid").and_then(Json::as_u64).unwrap_or(0),
            args: v.get("args").cloned().unwrap_or(Json::Null),
        })
    }

    fn arg_u64(&self, key: &str) -> Option<u64> {
        self.args.get(key).and_then(Json::as_u64)
    }

    fn arg_f64(&self, key: &str) -> Option<f64> {
        self.args.get(key).and_then(Json::as_f64)
    }

    fn arg_str(&self, key: &str) -> Option<&str> {
        self.args.get(key).and_then(Json::as_str)
    }
}

/// Parses a Chrome trace-event timeline into events, dropping metadata
/// records ("M") — they carry thread names, not measurements.
///
/// Three input shapes are accepted: a bare trace-event array (what
/// `--trace` files hold), a serve-daemon response line whose `"trace"`
/// field carries the inline events of a `"trace": true` query, and the
/// Chrome trace-viewer object form with a `"traceEvents"` array.
///
/// # Errors
///
/// Returns a message when the text is none of those shapes.
pub fn load(text: &str) -> Result<Vec<TraceEvent>, String> {
    let doc = Json::parse(text)?;
    let items = match &doc {
        Json::Arr(items) => items,
        Json::Obj(_) => match doc.get("trace").or_else(|| doc.get("traceEvents")) {
            Some(Json::Arr(items)) => items,
            Some(_) => return Err("trace field is not an event array".into()),
            None => {
                return Err(
                    "trace input is neither an event array nor an object with a \
                     trace/traceEvents field (did the query set \"trace\": true?)"
                        .into(),
                )
            }
        },
        _ => return Err("trace file is not a JSON array".into()),
    };
    let mut events: Vec<TraceEvent> = items
        .iter()
        .filter_map(TraceEvent::from_json)
        .filter(|e| e.ph != "M")
        .collect();
    events.sort_by(|a, b| a.ts.total_cmp(&b.ts));
    Ok(events)
}

/// Busy time per worker inside one pool region.
#[derive(Debug, Clone)]
pub(crate) struct RegionStat {
    /// Region sequence number (the pool's per-region counter).
    pub region: u64,
    /// `(worker id, busy microseconds)` for every participating worker.
    pub workers: Vec<(u64, f64)>,
}

impl RegionStat {
    /// Max/mean busy-time ratio across the region's workers: 1.0 is a
    /// perfectly balanced region, higher means one worker carried it.
    pub(crate) fn imbalance(&self) -> f64 {
        let n = self.workers.len();
        if n == 0 {
            return 1.0;
        }
        let max = self.workers.iter().map(|&(_, d)| d).fold(0.0, f64::max);
        let mean: f64 = self.workers.iter().map(|&(_, d)| d).sum::<f64>() / n as f64;
        if mean > 0.0 {
            max / mean
        } else {
            1.0
        }
    }
}

/// Groups pool `region` spans by region id, accumulating per-worker
/// busy time.
pub(crate) fn region_stats(events: &[TraceEvent]) -> Vec<RegionStat> {
    let mut by_region: BTreeMap<u64, BTreeMap<u64, f64>> = BTreeMap::new();
    for e in events {
        if e.cat != "pool" || e.ph != "X" {
            continue;
        }
        let (Some(region), Some(worker)) = (e.arg_u64("region"), e.arg_u64("worker")) else {
            continue;
        };
        *by_region
            .entry(region)
            .or_default()
            .entry(worker)
            .or_insert(0.0) += e.dur;
    }
    by_region
        .into_iter()
        .map(|(region, workers)| RegionStat {
            region,
            workers: workers.into_iter().collect(),
        })
        .collect()
}

/// Total busy microseconds per worker across every region, and the
/// overall max/mean imbalance. Returns `None` without pool events.
pub(crate) fn worker_imbalance(stats: &[RegionStat]) -> Option<(Vec<(u64, f64)>, f64)> {
    let mut busy: BTreeMap<u64, f64> = BTreeMap::new();
    for s in stats {
        for &(w, d) in &s.workers {
            *busy.entry(w).or_insert(0.0) += d;
        }
    }
    if busy.is_empty() {
        return None;
    }
    let max = busy.values().cloned().fold(0.0, f64::max);
    let mean: f64 = busy.values().sum::<f64>() / busy.len() as f64;
    let ratio = if mean > 0.0 { max / mean } else { 1.0 };
    Some((busy.into_iter().collect(), ratio))
}

/// Narrates the BFS frontier walk: one line per level with its frontier
/// size and direction, flagging every push/pull switch.
pub(crate) fn bfs_narrative(events: &[TraceEvent]) -> String {
    let levels: Vec<&TraceEvent> = events.iter().filter(|e| e.name == "bfs_level").collect();
    if levels.is_empty() {
        return String::new();
    }
    let mut out = String::from("BFS DIRECTION NARRATIVE\n");
    let mut switches = 0usize;
    let mut prev_dir: Option<String> = None;
    for e in &levels {
        let depth = e.arg_u64("depth").unwrap_or(0);
        let frontier = e.arg_u64("frontier").unwrap_or(0);
        let dir = e.arg_str("dir").unwrap_or("?").to_string();
        // A fresh trial restarts at depth 0; direction memory resets.
        if depth == 0 {
            prev_dir = None;
        }
        let switched = prev_dir.as_deref().is_some_and(|p| p != dir);
        if switched {
            switches += 1;
        }
        out.push_str(&format!(
            "  level {depth:>3}  frontier {frontier:>10}  {dir}{}\n",
            if switched {
                "   <- direction switch"
            } else {
                ""
            }
        ));
        prev_dir = Some(dir);
    }
    out.push_str(&format!(
        "  {} levels, {switches} direction switch(es)\n",
        levels.len()
    ));
    out
}

/// Per-kernel iteration tables: event counts plus the ranges of their
/// interesting arguments.
pub(crate) fn iteration_table(events: &[TraceEvent]) -> String {
    let mut counts: BTreeMap<&str, u64> = BTreeMap::new();
    for e in events {
        if e.cat == "iter" {
            *counts.entry(e.name.as_str()).or_insert(0) += 1;
        }
    }
    if counts.is_empty() {
        return String::new();
    }
    let mut out = String::from("ITERATION EVENTS\n");
    for (name, count) in &counts {
        let detail =
            match *name {
                "bfs_level" | "bc_level" => arg_range(events, name, "frontier")
                    .map(|(lo, hi)| format!("frontier {lo}..{hi}")),
                "sssp_bucket" => arg_range(events, name, "size")
                    .map(|(lo, hi)| format!("bucket size {lo}..{hi}")),
                "pr_sweep" => last_arg_f64(events, name, "residual")
                    .map(|r| format!("final residual {r:.3e}")),
                "cc_round" => {
                    arg_range(events, name, "changed").map(|(lo, hi)| format!("changed {lo}..{hi}"))
                }
                _ => None,
            };
        out.push_str(&format!(
            "  {name:<12} {count:>6} event(s){}\n",
            detail.map_or(String::new(), |d| format!("  [{d}]"))
        ));
    }
    out
}

fn arg_range(events: &[TraceEvent], name: &str, key: &str) -> Option<(u64, u64)> {
    let vals: Vec<u64> = events
        .iter()
        .filter(|e| e.name == name)
        .filter_map(|e| e.arg_u64(key))
        .collect();
    let (lo, hi) = (vals.iter().min()?, vals.iter().max()?);
    Some((*lo, *hi))
}

fn last_arg_f64(events: &[TraceEvent], name: &str, key: &str) -> Option<f64> {
    events
        .iter()
        .filter(|e| e.name == name)
        .filter_map(|e| e.arg_f64(key))
        .next_back()
}

/// Peak VmRSS seen by the resource sampler, in bytes.
pub(crate) fn peak_sampled_rss(events: &[TraceEvent]) -> Option<u64> {
    events
        .iter()
        .filter(|e| e.cat == "rss")
        .filter_map(|e| e.arg_u64("vm_rss_bytes"))
        .max()
}

/// Renders the full report. The `imbalance:` line is stable and
/// machine-parseable (`imbalance: <ratio>`); scripts grep for it.
pub fn render(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    let trials = events.iter().filter(|e| e.cat == "trial").count();
    let steals: u64 = events
        .iter()
        .filter(|e| e.name == "steal")
        .filter_map(|e| e.arg_u64("ranges"))
        .sum();
    out.push_str(&format!(
        "{} events, {trials} trial span(s), {steals} stolen range(s)\n\n",
        events.len()
    ));

    let stats = region_stats(events);
    if let Some((busy, ratio)) = worker_imbalance(&stats) {
        out.push_str("POOL WORKER TIME (all regions)\n");
        for (w, d) in &busy {
            out.push_str(&format!("  worker {w:>3}  busy {:>12.1} us\n", d));
        }
        let worst = stats
            .iter()
            .max_by(|a, b| a.imbalance().total_cmp(&b.imbalance()));
        if let Some(worst) = worst {
            out.push_str(&format!(
                "  {} region(s); worst single region: #{} at {:.3}x\n",
                stats.len(),
                worst.region,
                worst.imbalance()
            ));
        }
        out.push_str(&format!("imbalance: {ratio:.3}\n\n"));
    } else {
        out.push_str("POOL WORKER TIME: no region events\n");
        out.push_str("imbalance: n/a\n\n");
    }

    let narrative = bfs_narrative(events);
    if !narrative.is_empty() {
        out.push_str(&narrative);
        out.push('\n');
    }
    let table = iteration_table(events);
    if !table.is_empty() {
        out.push_str(&table);
        out.push('\n');
    }
    if let Some(peak) = peak_sampled_rss(events) {
        out.push_str(&format!(
            "peak sampled VmRSS: {:.1} MiB\n",
            peak as f64 / (1024.0 * 1024.0)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(json: &str) -> String {
        json.to_string()
    }

    fn trace(items: &[String]) -> Vec<TraceEvent> {
        load(&format!("[{}]", items.join(","))).expect("valid trace")
    }

    fn region(worker: u64, region: u64, ts: f64, dur: f64) -> String {
        ev(&format!(
            "{{\"ph\":\"X\",\"cat\":\"pool\",\"name\":\"region\",\"ts\":{ts},\"dur\":{dur},\"pid\":1,\"tid\":{worker},\"args\":{{\"worker\":{worker},\"region\":{region}}}}}"
        ))
    }

    fn bfs_level(depth: u64, frontier: u64, dir: &str, ts: f64) -> String {
        ev(&format!(
            "{{\"ph\":\"i\",\"cat\":\"iter\",\"name\":\"bfs_level\",\"s\":\"t\",\"ts\":{ts},\"pid\":1,\"tid\":0,\"args\":{{\"depth\":{depth},\"frontier\":{frontier},\"dir\":\"{dir}\"}}}}"
        ))
    }

    #[test]
    fn metadata_events_are_dropped_and_order_is_by_ts() {
        let events = trace(&[
            ev("{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"main\"}}"),
            bfs_level(1, 5, "push", 20.0),
            bfs_level(0, 1, "push", 10.0),
        ]);
        assert_eq!(events.len(), 2);
        assert!(events[0].ts < events[1].ts);
    }

    #[test]
    fn imbalance_is_max_over_mean_worker_busy_time() {
        // Worker 0 busy 300us, workers 1 and 2 busy 100us each: mean
        // 166.7, max 300 -> 1.8x.
        let events = trace(&[
            region(0, 0, 0.0, 100.0),
            region(1, 0, 0.0, 100.0),
            region(2, 0, 0.0, 100.0),
            region(0, 1, 200.0, 200.0),
        ]);
        let stats = region_stats(&events);
        assert_eq!(stats.len(), 2);
        assert!(
            (stats[0].imbalance() - 1.0).abs() < 1e-12,
            "region 0 balanced"
        );
        let (busy, ratio) = worker_imbalance(&stats).expect("has workers");
        assert_eq!(busy.len(), 3);
        assert!((ratio - 1.8).abs() < 1e-9, "got {ratio}");
        let report = render(&events);
        assert!(report.contains("imbalance: 1.800"), "{report}");
    }

    #[test]
    fn narrative_counts_direction_switches_and_resets_per_trial() {
        let events = trace(&[
            bfs_level(0, 1, "push", 0.0),
            bfs_level(1, 40, "push", 1.0),
            bfs_level(2, 900, "pull", 2.0),
            bfs_level(3, 80, "push", 3.0),
            // Second trial: depth restarts, no cross-trial switch counted.
            bfs_level(0, 1, "pull", 4.0),
        ]);
        let text = bfs_narrative(&events);
        assert!(text.contains("2 direction switch(es)"), "{text}");
        assert!(text.contains("frontier        900"), "{text}");
    }

    #[test]
    fn iteration_table_covers_every_kernel_event() {
        let events = trace(&[
            bfs_level(0, 7, "push", 0.0),
            ev("{\"ph\":\"i\",\"cat\":\"iter\",\"name\":\"pr_sweep\",\"ts\":1,\"pid\":1,\"tid\":0,\"args\":{\"sweep\":1,\"residual\":0.25}}"),
            ev("{\"ph\":\"i\",\"cat\":\"iter\",\"name\":\"sssp_bucket\",\"ts\":2,\"pid\":1,\"tid\":0,\"args\":{\"bucket\":3,\"size\":11}}"),
            ev("{\"ph\":\"i\",\"cat\":\"iter\",\"name\":\"cc_round\",\"ts\":3,\"pid\":1,\"tid\":0,\"args\":{\"round\":0,\"changed\":9}}"),
        ]);
        let table = iteration_table(&events);
        for needle in [
            "bfs_level",
            "pr_sweep",
            "sssp_bucket",
            "cc_round",
            "2.500e-1",
        ] {
            assert!(table.contains(needle), "missing {needle} in {table}");
        }
    }

    #[test]
    fn report_without_pool_events_says_so_but_still_renders() {
        let events = trace(&[bfs_level(0, 1, "push", 0.0)]);
        let report = render(&events);
        assert!(report.contains("imbalance: n/a"), "{report}");
        assert!(report.contains("BFS DIRECTION NARRATIVE"), "{report}");
    }

    #[test]
    fn rss_counter_events_feed_the_peak() {
        let events = trace(&[
            ev("{\"ph\":\"C\",\"cat\":\"rss\",\"name\":\"vm_rss\",\"ts\":0,\"pid\":1,\"tid\":9,\"args\":{\"vm_rss_bytes\":1000,\"vm_hwm_bytes\":1000}}"),
            ev("{\"ph\":\"C\",\"cat\":\"rss\",\"name\":\"vm_rss\",\"ts\":1,\"pid\":1,\"tid\":9,\"args\":{\"vm_rss_bytes\":5000,\"vm_hwm_bytes\":5000}}"),
        ]);
        assert_eq!(peak_sampled_rss(&events), Some(5000));
    }

    #[test]
    fn malformed_trace_is_an_error() {
        assert!(load("{\"not\":\"an array\"}").is_err());
        assert!(load("[{broken").is_err());
        assert!(load("{\"trace\":\"not an array\"}").is_err());
    }

    #[test]
    fn served_response_lines_carry_inline_traces() {
        // A serve-daemon success line for a "trace": true query: the
        // events ride in the "trace" field next to the result.
        let response = format!(
            "{{\"ok\":true,\"id\":7,\"kernel\":\"bfs\",\"fingerprint\":\"abc\",\"trace\":[{}]}}",
            [
                ev("{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"main\"}}"),
                bfs_level(0, 1, "push", 10.0),
                bfs_level(1, 5, "push", 20.0),
            ]
            .join(",")
        );
        let events = load(&response).expect("inline trace parses");
        assert_eq!(events.len(), 2, "metadata dropped, levels kept");
        assert!(bfs_narrative(&events).contains("2 levels"));
        // Chrome's object export form works too.
        let wrapped = format!("{{\"traceEvents\":[{}]}}", bfs_level(0, 1, "push", 0.0));
        assert_eq!(load(&wrapped).expect("traceEvents parses").len(), 1);
    }
}
