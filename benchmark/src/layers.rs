//! Per-layer numbers of a traced run: sums over the cells the benchmark
//! walked, the serve stage replay, and micro-measurements of the layers
//! no end-to-end path isolates (`parallel`, `telemetry`).

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use gapbs_core::Kernel;
use gapbs_graph::gen::{GraphSpec, Scale};
use gapbs_parallel::ThreadPool;
use gapbs_serve::{AdmissionGate, GraphRegistry, RegistryOptions};
use gapbs_telemetry::{CounterSet, Histogram, LedgerSink, PhaseTimes, TrialRecord};

use crate::batch::{crate_of, kernel_name, Cell, Output, Timed};
use crate::metrics::Metrics;
use crate::serve::{self, Daemon, Mix, POINT_KINDS};
use crate::stats::{by_class, mean, median, Sample};

/// Per-crate sums over the graphs: `<crate>.<kernel>_ms`,
/// `<crate>.pr_iters`, `core.prepare_<crate>_ms` and, for the
/// reference, `ref.<kernel>_alloc_kb`.
pub fn framework_layers(cells: &[Cell], metrics: &mut Metrics) {
    for cell in cells {
        let layer = crate_of(cell.framework);
        let kernel = kernel_name(cell.kernel);
        metrics.add(format!("{layer}.{kernel}_ms"), cell.kernel_ms);
        metrics.add(format!("core.prepare_{layer}_ms"), cell.prepare_ms);
        if let Output::Pr(_, iters) = cell.output {
            metrics.add(format!("{layer}.pr_iters"), iters as f64);
        }
        if layer == "ref" {
            metrics.add(
                format!("ref.{kernel}_alloc_kb"),
                cell.alloc_bytes as f64 / 1024.0,
            );
        }
    }
}

/// `verify.<kernel>_ms`: check time summed over the checked cells.
pub fn verify_layers(checks: &[(Kernel, f64)], metrics: &mut Metrics) {
    for (kernel, ms) in checks {
        metrics.add(format!("verify.{}_ms", kernel_name(*kernel)), *ms);
    }
}

/// Median microseconds per call of `f`, timed in blocks of `block` calls
/// so the clock read does not dominate a sub-microsecond operation.
fn per_call_us(blocks: usize, block: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..blocks)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..block {
                f();
            }
            start.elapsed().as_secs_f64() * 1e6 / block as f64
        })
        .collect();
    median(&times)
}

/// `parallel.*` and `telemetry.*`, on the run's own pool and work dir.
pub fn micro_layers(pool: &ThreadPool, work: &Path, metrics: &mut Metrics) {
    pool.run(|_| {});
    metrics.set(
        "parallel.region_launch_us",
        per_call_us(200, 10, || pool.run(|_| {})),
        2000,
    );
    let spawns: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let fresh = ThreadPool::new(pool.num_threads());
            fresh.run(|_| {});
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    metrics.set("parallel.pool_spawn_ms", median(&spawns), spawns.len());

    let hist = Histogram::new();
    let mut value = 1u64;
    let record_us = per_call_us(100, 10_000, || {
        value = value.wrapping_mul(6364136223846793005).wrapping_add(1);
        hist.record(std::hint::black_box(value >> 40));
    });
    assert_eq!(hist.snapshot().count, 1_000_000);
    metrics.set("telemetry.hist_record_ns", record_us * 1e3, 1_000_000);

    let sink = LedgerSink::open(work.join("ledger-probe.jsonl")).expect("open probe ledger");
    let record = TrialRecord {
        framework: "GAP".to_string(),
        kernel: "bfs".to_string(),
        graph: "Kron".to_string(),
        mode: "Baseline".to_string(),
        trial: 0,
        seconds: 0.001,
        build_seconds: 0.0,
        relabel_seconds: 0.0,
        verified: true,
        threads: pool.num_threads() as u64,
        num_vertices: 1,
        num_arcs: 1,
        counters: CounterSet::zero(),
        phases: PhaseTimes::zero(),
        peak_rss_bytes: 0,
        graph_bytes: 0,
        git_rev: String::new(),
    };
    let append_us = per_call_us(100, 20, || {
        sink.append(&record).expect("append to probe ledger")
    });
    sink.flush().expect("flush probe ledger");
    metrics.set("telemetry.ledger_append_us", append_us, 2000);
}

/// Per query kind, the mean over the five graphs of the class medians.
/// A kind's pooled median would sit on a boundary between graphs (a
/// Road BFS costs ten times a Kron one), so each graph's class is
/// summarised on its own first.
fn kind_means(samples: &[Sample]) -> Vec<f64> {
    let medians = by_class(samples, POINT_KINDS.len() * 5, median);
    (0..POINT_KINDS.len())
        .map(|kind| {
            let of_kind: Vec<f64> = medians
                .iter()
                .filter(|(class, _)| class / 5 == kind)
                .map(|(_, ms)| *ms)
                .collect();
            mean(&of_kind)
        })
        .collect()
}

/// [`kind_means`] of one value per request of `mix`.
fn request_kind_means(values: &[f64], mix: &Mix) -> Vec<f64> {
    let samples: Vec<Sample> = mix
        .requests
        .iter()
        .zip(values)
        .map(|(r, &ms)| Sample { class: r.class, ms })
        .collect();
    kind_means(&samples)
}

/// What the serve layer measurement needs from the run.
pub struct ServeInputs<'a> {
    /// The snapshot directory the serve layers load from.
    pub snapshot_dir: &'a Path,
    pub work: &'a Path,
    pub pool: &'a ThreadPool,
    pub seed: u64,
    pub connections: usize,
    /// Length of each of the two short closed loops.
    pub loop_seconds: f64,
    /// The scale of the snapshots in `snapshot_dir`.
    pub scale: Scale,
    /// The workload's own daemon and request lists, where it has them.
    pub daemon: Option<&'a Daemon>,
    pub points: Option<&'a Mix>,
    pub batches: Option<&'a Mix>,
}

/// Every `serve.*` metric plus `ref.ms_bfs_ms`: the stage replay of a
/// point list and a batch list through the public functions, and two
/// short closed loops (one connection, then `connections`) that put the
/// socket and the wait behind another client's query on top. Returns a
/// per-kind account of where a served point query's time goes; the last
/// three terms of each line are differences between enclosing spans, so
/// a line adds up exactly and what it tells is how large they are.
pub fn serve_layers(input: &ServeInputs<'_>, metrics: &mut Metrics) -> Vec<String> {
    let opts = RegistryOptions {
        snapshot_dir: Some(input.snapshot_dir.to_path_buf()),
        paranoid: false,
    };
    let registry = Arc::new(GraphRegistry::load_with(
        input.scale,
        &GraphSpec::TABLE_ORDER,
        input.pool,
        &opts,
    ));
    let mut started = None;
    let daemon: &Daemon = match input.daemon {
        Some(daemon) => daemon,
        None => started.insert(Daemon::start(
            input.snapshot_dir,
            &input.work.join("ledger-sweep.jsonl"),
            input.scale,
            input.pool.num_threads(),
        )),
    };
    let reference = |mut mix: Mix| {
        serve::reference_fingerprints(&mut mix, &registry, input.pool);
        mix
    };
    let mut default_points = None;
    let points = match input.points {
        Some(mix) => mix,
        None => default_points.insert(reference(serve::point_mix(input.seed, &registry))),
    };
    let mut default_batches = None;
    let batches = match input.batches {
        Some(mix) => mix,
        None => {
            // One line per graph is enough for a median and keeps the
            // 64-solo-runs-per-line reference affordable.
            let mut mix = serve::batch_mix(input.seed, &registry);
            mix.requests.truncate(5);
            default_batches.insert(reference(mix))
        }
    };

    let n = points.requests.len();
    // Replayed on a thread of its own, as the daemon's handlers are: the
    // main thread's allocator arena makes per-query matrix builds cheaper
    // than any handler thread sees them.
    let (replay, batch_replay) = std::thread::scope(|scope| {
        scope
            .spawn(|| {
                (
                    serve::replay_points(points, &registry, input.pool),
                    serve::replay_batches(batches, &registry, input.pool),
                )
            })
            .join()
            .expect("replay thread")
    });
    metrics.set("serve.parse_us", median(&replay.parse_us), n);
    metrics.set("serve.canonicalize_us", median(&replay.canonicalize_us), n);
    metrics.set("serve.serialize_us", median(&replay.serialize_us), n);
    metrics.set("serve.allocs_per_query", replay.allocs_per_query, n);
    metrics.set("serve.alloc_kb_per_query", replay.alloc_kb_per_query, n);
    let execute = request_kind_means(&replay.execute_ms, points);
    // Kinds 0 and 1 are both BFS; the metric follows the GAP one, which
    // is also the coalescible kind. Each is the mean over the graphs.
    for (kernel, kind) in [("bfs", 0), ("sssp", 2), ("cc", 3), ("pr", 4)] {
        let count = POINT_KINDS[kind].2;
        metrics.set(format!("serve.execute_{kernel}_ms"), execute[kind], count);
    }
    let gate = AdmissionGate::new(8, 128);
    metrics.set(
        "serve.admit_us",
        per_call_us(100, 100, || drop(gate.admit(None).expect("admit"))),
        10_000,
    );
    let direct = request_kind_means(&replay.handle_direct_ms, points);
    let shipped = request_kind_means(&replay.handle_ms, points);
    metrics.set(
        "serve.coalesce_wait_ms",
        shipped[0] - direct[0],
        POINT_KINDS[0].2,
    );
    let overhead: Vec<f64> = replay
        .handle_direct_ms
        .iter()
        .zip(&replay.execute_ms)
        .zip(&replay.serialize_us)
        .map(|((handle, execute), serialize)| (handle - execute) * 1e3 - serialize)
        .collect();
    metrics.set("serve.handle_overhead_us", median(&overhead), n);

    let one = serve::closed_loop(daemon.addr, points, 1, 50, input.loop_seconds, input.seed);
    let many = serve::closed_loop(
        daemon.addr,
        points,
        input.connections,
        50,
        input.loop_seconds,
        input.seed,
    );
    let parse_ms = median(&replay.parse_us) / 1e3;
    let socket_one = kind_means(&one.samples);
    let socket_many = kind_means(&many.samples);
    let socket: Vec<f64> = (0..POINT_KINDS.len())
        .map(|k| (socket_one[k] - shipped[k] - parse_ms) * 1e3)
        .collect();
    metrics.set(
        "serve.socket_overhead_us",
        median(&socket),
        one.samples.len(),
    );
    let p50 = |t: &Timed| median(&t.samples.iter().map(|s| s.ms).collect::<Vec<_>>());
    metrics.set(
        "serve.concurrency_wait_ms",
        p50(&many) - p50(&one),
        many.samples.len(),
    );

    let (ms_bfs, handle_batch, batch_bytes) = batch_replay;
    metrics.set("ref.ms_bfs_ms", median(&ms_bfs), ms_bfs.len());
    metrics.set(
        "serve.batch_fanout_ms",
        median(&handle_batch) - median(&ms_bfs),
        ms_bfs.len(),
    );
    let reply_bytes = if input.batches.is_some() {
        &batch_bytes
    } else {
        &replay.reply_bytes
    };
    metrics.set(
        "serve.response_bytes",
        median(reply_bytes),
        reply_bytes.len(),
    );
    let scrapes: Vec<f64> = (0..20)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(daemon.engine.stats_json().encode());
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    metrics.set("serve.stats_scrape_ms", median(&scrapes), scrapes.len());

    let admit_ms = metrics.get("serve.admit_us").unwrap_or(0.0) / 1e3;
    let serialize = request_kind_means(&replay.serialize_us, points);
    let account = (0..POINT_KINDS.len())
        .map(|k| {
            let coalesce = shipped[k] - direct[k];
            let handle_rest = direct[k] - execute[k] - serialize[k] / 1e3 - admit_ms;
            let wait = socket_many[k] - socket_one[k];
            format!(
                "{}/{}: {:.3} ms at the client with {} connections = parse {:.3} + admit {:.3} + coalesce wait {:.3} + execute {:.3} + serialise {:.3} + rest of handle {:.3} + socket {:.3} + wait behind other clients {:.3}",
                POINT_KINDS[k].0, POINT_KINDS[k].1, socket_many[k], input.connections,
                parse_ms, admit_ms, coalesce, execute[k], serialize[k] / 1e3, handle_rest,
                socket[k] / 1e3, wait
            )
        })
        .collect();
    if let Some(daemon) = started {
        daemon.stop();
    }
    account
}
