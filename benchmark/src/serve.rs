//! The served path: the request mixes, an in-process daemon on real
//! loopback TCP, the closed-loop clients, and the stage replay that
//! attributes a served query's latency to layers from outside.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gapbs_core::spec::SourcePicker;
use gapbs_core::{Kernel, Mode};
use gapbs_graph::gen::{GraphSpec, Scale};
use gapbs_parallel::ThreadPool;
use gapbs_serve::protocol::canonical;
use gapbs_serve::{
    parse_request, run_query_local, BatchQuery, Command, Engine, EngineConfig, GraphRegistry,
    Query, ServeConfig, Server,
};
use gapbs_telemetry::json::Json;

use crate::batch::Timed;
use crate::stats::Sample;
use crate::trace;

/// Distinct request lines per mix.
pub const POINT_REQUESTS: usize = 256;
/// Distinct batch lines (five per graph: each costs 64 solo reference
/// runs during set-up), and BFS sources per batch line.
pub const BATCH_REQUESTS: usize = 25;
pub const BATCH_WIDTH: usize = 64;

/// The point mix's query kinds with their share of the 256 lines. The
/// shares put p50 inside the BFS/SSSP kinds and p99 inside PR, the
/// costliest, so neither percentile sits on a boundary between kinds.
pub const POINT_KINDS: [(&str, &str, usize); 5] = [
    ("bfs", "GAP", 90),         // 35 %, with target
    ("bfs", "SuiteSparse", 38), // 15 %
    ("sssp", "GAP", 51),        // 20 %, with target
    ("cc", "GAP", 51),          // 20 %, with vertex
    ("pr", "GAP", 26),          // 10 %
];

/// One request line with everything needed to replay and check it.
pub struct Request {
    pub line: String,
    pub class: usize,
    pub command: Command,
    /// Expected canonical fingerprints, one per result in the reply.
    pub expected: Vec<String>,
}

/// A request list and the names of its classes.
pub struct Mix {
    pub requests: Vec<Request>,
    pub classes: Vec<String>,
}

fn num(v: impl Into<f64>) -> Json {
    Json::Num(v.into())
}

/// The seeded point mix: kind counts and graph rotation are fixed, so
/// the seed changes sources, targets and order but not how much work a
/// cycle of the list holds.
pub fn point_mix(seed: u64, registry: &GraphRegistry) -> Mix {
    let mut classes = Vec::new();
    for (kernel, framework, _) in POINT_KINDS {
        for spec in GraphSpec::TABLE_ORDER {
            classes.push(format!("{kernel}/{framework}/{}", spec.name()));
        }
    }
    let mut pickers: Vec<SourcePicker> = GraphSpec::TABLE_ORDER
        .iter()
        .map(|&spec| {
            let bench = registry.get(spec).expect("corpus graph is resident");
            SourcePicker::from_candidates(
                bench.source_candidates.clone(),
                (seed << 4) + spec as u64 * 2,
            )
        })
        .collect();
    let mut requests = Vec::with_capacity(POINT_REQUESTS);
    for (kind, (kernel, framework, count)) in POINT_KINDS.into_iter().enumerate() {
        for i in 0..count {
            let g = i % 5;
            let spec = GraphSpec::TABLE_ORDER[g];
            let mut fields = vec![
                ("id".to_string(), num(requests.len() as u32)),
                ("kernel".to_string(), Json::Str(kernel.to_string())),
                ("graph".to_string(), Json::Str(spec.name().to_lowercase())),
                ("framework".to_string(), Json::Str(framework.to_string())),
            ];
            match kernel {
                "bfs" | "sssp" => {
                    fields.push(("source".to_string(), num(pickers[g].next_source())));
                    if framework == "GAP" {
                        fields.push(("target".to_string(), num(pickers[g].next_source())));
                    }
                }
                "cc" => fields.push(("vertex".to_string(), num(pickers[g].next_source()))),
                // PR takes no vertex; the top-k size keeps the lines distinct.
                _ => fields.push(("k".to_string(), num(10 + (i / 5) as u32))),
            }
            requests.push(request(Json::obj(fields).encode(), kind * 5 + g));
        }
    }
    assert_eq!(requests.len(), POINT_REQUESTS);
    Mix { requests, classes }
}

/// The seeded batch mix: explicit 64-source BFS lines, five per graph.
pub fn batch_mix(seed: u64, registry: &GraphRegistry) -> Mix {
    let classes = GraphSpec::TABLE_ORDER
        .iter()
        .map(|spec| format!("bfs64/GAP/{}", spec.name()))
        .collect();
    let requests = (0..BATCH_REQUESTS)
        .map(|i| {
            let g = i % 5;
            let spec = GraphSpec::TABLE_ORDER[g];
            let bench = registry.get(spec).expect("corpus graph is resident");
            let mut picker = SourcePicker::from_candidates(
                bench.source_candidates.clone(),
                (seed << 12) + (i as u64) * 2,
            );
            let sources = picker.next_sources(BATCH_WIDTH).into_iter().map(num);
            let line = Json::obj([
                ("id".to_string(), num(i as u32)),
                ("kernel".to_string(), Json::Str("bfs".to_string())),
                ("graph".to_string(), Json::Str(spec.name().to_lowercase())),
                ("sources".to_string(), Json::Arr(sources.collect())),
            ])
            .encode();
            request(line, g)
        })
        .collect();
    Mix { requests, classes }
}

fn request(line: String, class: usize) -> Request {
    let command = parse_request(&line)
        .unwrap_or_else(|e| panic!("protocol drift: {line} no longer parses: {}", e.message));
    Request {
        line,
        class,
        command,
        expected: Vec::new(),
    }
}

fn solo_bfs(batch: &BatchQuery, source: u32) -> Query {
    Query {
        source: Some(source),
        ..batch.query.clone()
    }
}

/// Fills in every request's expected fingerprints with
/// `run_query_local` on `registry` — for a batch line, one solo BFS per
/// source, so a served batch must equal 64 independent batch-mode runs.
pub fn reference_fingerprints(mix: &mut Mix, registry: &GraphRegistry, pool: &ThreadPool) {
    for request in &mut mix.requests {
        let queries: Vec<Query> = match &request.command {
            Command::Query(q) => vec![q.clone()],
            Command::Batch(b) => b.sources.iter().map(|&s| solo_bfs(b, s)).collect(),
            other => panic!("mix holds a non-query command {other:?}"),
        };
        request.expected = queries
            .iter()
            .map(|q| {
                let outcome = run_query_local(registry, q, pool)
                    .unwrap_or_else(|e| panic!("local run of {q:?} failed: {}", e.message));
                format!("{:016x}", outcome.fingerprint)
            })
            .collect();
    }
}

/// Whether a reply line is a success carrying exactly the expected
/// fingerprints, in order.
pub fn reply_matches(reply: &str, expected: &[String]) -> bool {
    const KEY: &str = "\"fingerprint\":\"";
    let mut got = reply.match_indices(KEY).map(|(at, _)| {
        let hex = &reply[at + KEY.len()..];
        &hex[..hex.find('"').unwrap_or(hex.len())]
    });
    reply.contains("\"ok\":true")
        && expected
            .iter()
            .all(|want| got.next() == Some(want.as_str()))
        && got.next().is_none()
}

/// A daemon running on a thread of this process.
pub struct Daemon {
    pub addr: SocketAddr,
    pub engine: Arc<Engine>,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<()>,
}

impl Daemon {
    /// `Server::bind` from `snapshot_dir` with the engine configuration
    /// the `serve` binary ships, then `Server::run` on its own thread;
    /// returns once `/ready` answers 200.
    pub fn start(snapshot_dir: &Path, ledger: &Path, scale: Scale, threads: usize) -> Daemon {
        let _span = trace::span("serve.bind_to_ready", 0);
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            metrics_addr: Some("127.0.0.1:0".to_string()),
            scale,
            threads,
            engine: EngineConfig::default(),
            ledger_path: Some(ledger.to_path_buf()),
            snapshot_dir: Some(snapshot_dir.to_path_buf()),
            ..ServeConfig::default()
        };
        let server = Server::bind(&config).expect("bind daemon");
        let addr = server.local_addr().expect("daemon address");
        let metrics = server.metrics_addr().expect("metrics address");
        let engine = Arc::clone(server.engine());
        let stop = server.stop_handle();
        let thread = std::thread::spawn(move || {
            server.run().expect("daemon run");
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        while !ready(metrics) {
            assert!(Instant::now() < deadline, "daemon never became ready");
            std::thread::sleep(Duration::from_millis(1));
        }
        Daemon {
            addr,
            engine,
            stop,
            thread,
        }
    }

    /// Requests shutdown and waits for the drain to finish.
    pub fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        self.thread.join().expect("daemon thread");
    }
}

fn ready(metrics: SocketAddr) -> bool {
    let Ok(mut stream) = TcpStream::connect(metrics) else {
        return false;
    };
    let mut reply = String::new();
    stream
        .write_all(b"GET /ready HTTP/1.0\r\n\r\n")
        .and_then(|()| stream.read_to_string(&mut reply))
        .is_ok()
        && reply.starts_with("HTTP/1.0 200")
}

struct Connection {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    reply: String,
}

impl Connection {
    fn open(addr: SocketAddr) -> Connection {
        let stream = TcpStream::connect(addr).expect("connect to daemon");
        // Without nodelay, Nagle plus delayed ACK adds tens of
        // milliseconds per line and the client measures the TCP stack.
        stream.set_nodelay(true).expect("set nodelay");
        Connection {
            writer: stream.try_clone().expect("clone stream"),
            reader: BufReader::new(stream),
            reply: String::new(),
        }
    }

    /// Sends one line and waits for the full reply line; returns the
    /// milliseconds in between.
    fn round_trip(&mut self, line: &str) -> f64 {
        let start = Instant::now();
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .expect("write request");
        self.reply.clear();
        self.reader.read_line(&mut self.reply).expect("read reply");
        start.elapsed().as_secs_f64() * 1e3
    }
}

/// Seeded Fisher–Yates order of `0..n`.
fn shuffled(n: usize, mut state: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        state = gapbs_graph::rng::mix64(state, i as u64);
        order.swap(i, (state % (i as u64 + 1)) as usize);
    }
    order
}

/// Closed loop: `connections` clients, each waiting for its reply
/// before sending its next request, each cycling the list in its own
/// seeded order; `warmup` untimed requests per connection, then
/// `seconds` of timed ones. Every reply is checked.
pub fn closed_loop(
    addr: SocketAddr,
    mix: &Mix,
    connections: usize,
    warmup: usize,
    seconds: f64,
    seed: u64,
) -> Timed {
    let barrier = Barrier::new(connections);
    let per_client: Vec<(Vec<Sample>, u64, f64)> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..connections)
            .map(|client| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut conn = Connection::open(addr);
                    let order = shuffled(mix.requests.len(), seed ^ ((client as u64 + 1) << 32));
                    let mut next = order.iter().cycle().map(|&i| &mix.requests[i]);
                    for request in next.by_ref().take(warmup) {
                        conn.round_trip(&request.line);
                    }
                    let (mut samples, mut failed) = (Vec::new(), 0u64);
                    barrier.wait();
                    let start = Instant::now();
                    while start.elapsed().as_secs_f64() < seconds {
                        let request = next.next().expect("cycle never ends");
                        let op = (client * 1_000_000 + samples.len()) as u64;
                        let span = trace::span("client.request", op);
                        let ms = conn.round_trip(&request.line);
                        drop(span);
                        samples.push(Sample {
                            class: request.class,
                            ms,
                        });
                        if !reply_matches(&conn.reply, &request.expected) {
                            failed += 1;
                            eprintln!("FAIL: {} answered {}", request.line, conn.reply.trim());
                        }
                    }
                    (samples, failed, start.elapsed().as_secs_f64())
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .collect()
    });
    let mut out = Timed {
        classes: mix.classes.clone(),
        ..Timed::default()
    };
    for (samples, failed, wall) in per_client {
        out.attempted += samples.len() as u64;
        out.failed += failed;
        out.samples.extend(samples);
        out.wall_s = out.wall_s.max(wall);
    }
    out
}

/// The single-threaded stage replay of one request list through the
/// public functions, without a socket. Every vector is indexed like the
/// list; times are per request.
#[derive(Default)]
pub struct Replay {
    pub parse_us: Vec<f64>,
    pub execute_ms: Vec<f64>,
    pub canonicalize_us: Vec<f64>,
    pub serialize_us: Vec<f64>,
    /// `Engine::handle` with the coalesce window at 0, and as shipped.
    pub handle_direct_ms: Vec<f64>,
    pub handle_ms: Vec<f64>,
    pub reply_bytes: Vec<f64>,
    /// Allocations and bytes per query through `Engine::handle`.
    pub allocs_per_query: f64,
    pub alloc_kb_per_query: f64,
}

fn engine_with(registry: &Arc<GraphRegistry>, pool: &ThreadPool, window_ms: u64) -> Engine {
    let config = EngineConfig {
        coalesce_window_ms: window_ms,
        ..EngineConfig::default()
    };
    Engine::new(Arc::clone(registry), pool.clone(), config, None)
}

/// Replays a point mix stage by stage. `execute_query` is the only
/// public entry to a query's execution, so its span encloses prepare,
/// kernel, canonicalise and result fields; canonicalise is timed apart
/// by calling `canonical::*` on the same kernel outputs.
pub fn replay_points(mix: &Mix, registry: &Arc<GraphRegistry>, pool: &ThreadPool) -> Replay {
    let queries: Vec<&Query> = mix
        .requests
        .iter()
        .map(|r| match &r.command {
            Command::Query(q) => q,
            other => panic!("point mix holds {other:?}"),
        })
        .collect();
    let mut replay = Replay::default();
    for (op, (request, query)) in mix.requests.iter().zip(&queries).enumerate() {
        let op = op as u64;
        let (_, parse_ms) = trace::timed("serve.parse", op, || {
            std::hint::black_box(parse_request(std::hint::black_box(&request.line)))
        });
        replay.parse_us.push(parse_ms * 1e3);
        let bench = registry.get(query.graph).expect("resident graph");
        let framework = registry.framework(&query.framework).expect("framework");
        let (outcome, execute_ms) = trace::timed("serve.execute", op, || {
            gapbs_serve::execute_query(bench, framework, query, pool).expect("execute query")
        });
        replay.execute_ms.push(execute_ms);
        let (line, serialize_ms) = trace::timed("serve.serialize", op, || {
            gapbs_serve::protocol::success_line(
                query.id.as_ref(),
                query,
                execute_ms,
                outcome.result,
                outcome.fingerprint,
                None,
            )
        });
        replay.serialize_us.push(serialize_ms * 1e3);
        replay.reply_bytes.push(line.len() as f64);
        let prepared = framework.prepare(bench, Mode::Baseline, pool);
        let source = query.source.unwrap_or(0);
        let canonicalize_ms = match query.kernel {
            Kernel::Bfs => {
                let parents = prepared.bfs(source);
                trace::timed("serve.canonicalize", op, || {
                    canonical::fingerprint_depths(&canonical::bfs_depths(&parents))
                })
                .1
            }
            Kernel::Sssp => {
                let dist = prepared.sssp(source);
                trace::timed("serve.canonicalize", op, || {
                    canonical::fingerprint_distances(&dist)
                })
                .1
            }
            Kernel::Cc => {
                let labels = prepared.cc();
                trace::timed("serve.canonicalize", op, || {
                    canonical::fingerprint_labels(&canonical::cc_labels(&labels))
                })
                .1
            }
            _ => {
                let (scores, _) = prepared.pr();
                trace::timed("serve.canonicalize", op, || {
                    canonical::fingerprint_scores(&scores)
                })
                .1
            }
        };
        replay.canonicalize_us.push(canonicalize_ms * 1e3);
    }
    let direct = engine_with(registry, pool, 0);
    let ((), allocs, bytes) = trace::count_allocs(true, || {
        for (op, query) in queries.iter().enumerate() {
            let (_, ms) = trace::timed("serve.handle_direct", op as u64, || direct.handle(query));
            replay.handle_direct_ms.push(ms);
        }
    });
    replay.allocs_per_query = allocs as f64 / queries.len() as f64;
    replay.alloc_kb_per_query = bytes as f64 / 1024.0 / queries.len() as f64;
    let shipped = engine_with(registry, pool, EngineConfig::default().coalesce_window_ms);
    for (op, (request, query)) in mix.requests.iter().zip(&queries).enumerate() {
        let (reply, ms) = trace::timed("serve.handle", op as u64, || shipped.handle(query));
        assert!(
            reply_matches(&reply, &request.expected),
            "Engine::handle answered {reply} to {}",
            request.line
        );
        replay.handle_ms.push(ms);
    }
    replay
}

/// Stage times of a batch mix: the direct 64-source MS-BFS call and
/// `Engine::handle_batch` around it, per request, in milliseconds, plus
/// reply sizes.
pub fn replay_batches(
    mix: &Mix,
    registry: &Arc<GraphRegistry>,
    pool: &ThreadPool,
) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let engine = engine_with(registry, pool, EngineConfig::default().coalesce_window_ms);
    let (mut ms_bfs, mut handle, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    for (op, request) in mix.requests.iter().enumerate() {
        let Command::Batch(batch) = &request.command else {
            panic!("batch mix holds {:?}", request.command);
        };
        let bench = registry.get(batch.query.graph).expect("resident graph");
        let (_, direct_ms) = trace::timed("ref.ms_bfs", op as u64, || {
            gapbs_ref::ms_bfs(&bench.graph, &batch.sources, pool)
        });
        let (reply, handle_ms) = trace::timed("serve.handle_batch", op as u64, || {
            engine.handle_batch(batch)
        });
        assert!(
            reply_matches(&reply, &request.expected),
            "Engine::handle_batch answered a wrong batch to {}",
            request.line
        );
        ms_bfs.push(direct_ms);
        handle.push(handle_ms);
        bytes.push(reply.len() as f64);
    }
    (ms_bfs, handle, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_check_wants_ok_and_the_exact_fingerprint_sequence() {
        let want = vec!["00ab".to_string(), "00cd".to_string()];
        let good = r#"{"ok":true,"results":[{"fingerprint":"00ab"},{"fingerprint":"00cd"}]}"#;
        assert!(reply_matches(good, &want));
        assert!(!reply_matches(&good.replace("true", "false"), &want));
        assert!(!reply_matches(&good.replace("00cd", "00ce"), &want));
        assert!(
            !reply_matches(good, &want[..1]),
            "an extra result is a mismatch"
        );
        assert!(!reply_matches(r#"{"ok":true,"fingerprint":"00ab"}"#, &want));
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let a = shuffled(256, 1);
        assert_eq!(a, shuffled(256, 1));
        assert_ne!(a, shuffled(256, 2));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..256).collect::<Vec<_>>());
    }

    /// p50 and p99 of the point mix must fall inside a query kind, not
    /// on the boundary between two, or a small shift in either kind's
    /// cost would move the percentile by the whole gap between them.
    /// Kinds are ordered by their probed cost at medium scale.
    #[test]
    fn point_mix_puts_p50_and_p99_inside_a_kind() {
        let share = |kernel: &str, framework: &str| {
            POINT_KINDS
                .iter()
                .find(|k| k.0 == kernel && k.1 == framework)
                .map(|k| k.2 as f64 / POINT_REQUESTS as f64)
                .expect("kind in mix")
        };
        assert_eq!(
            POINT_KINDS.iter().map(|k| k.2).sum::<usize>(),
            POINT_REQUESTS
        );
        // Cheapest to costliest: cc, bfs GAP, sssp, bfs SuiteSparse, pr.
        let order = [
            share("cc", "GAP"),
            share("bfs", "GAP"),
            share("sssp", "GAP"),
            share("bfs", "SuiteSparse"),
            share("pr", "GAP"),
        ];
        let mut edges = vec![0.0];
        for s in order {
            edges.push(edges.last().unwrap() + s);
        }
        for (p, margin) in [(0.50, 0.04), (0.99, 0.009)] {
            let clear = edges.iter().all(|e| (e - p).abs() >= margin);
            assert!(
                clear,
                "p{p} sits within {margin} of a kind boundary {edges:?}"
            );
        }
        assert!(edges[4] < 0.99, "p99 must fall in the costliest kind");
    }
}
