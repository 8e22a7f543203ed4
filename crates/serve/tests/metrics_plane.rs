//! Live metrics plane, end to end: a daemon under real 64-client TCP
//! load must answer `{"cmd":"stats"}` scrapes that are *internally
//! consistent at every instant* — the acceptance bar for the coherent
//! gate snapshot — the `--metrics-addr` listener must serve valid
//! Prometheus exposition plus health/readiness probes, and the daemon's
//! latency quantiles must agree with what a client measures.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

use gapbs_graph::gen::{GraphSpec, Scale};
use gapbs_parallel::ThreadPool;
use gapbs_serve::server::{ServeConfig, ServeSummary, Server};
use gapbs_serve::{scrape_problems, EngineConfig, GraphRegistry};
use gapbs_telemetry::json::Json;
use gapbs_telemetry::metrics::{bucket_hi, bucket_of, Histogram, HistogramSnapshot, BUCKETS};

/// One tiny corpus shared by every test in this binary.
fn registry() -> &'static Arc<GraphRegistry> {
    static REG: OnceLock<Arc<GraphRegistry>> = OnceLock::new();
    REG.get_or_init(|| {
        let pool = ThreadPool::new(2);
        Arc::new(GraphRegistry::load(Scale::Tiny, &[GraphSpec::Kron], &pool))
    })
}

struct TestServer {
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    handle: JoinHandle<std::io::Result<ServeSummary>>,
}

fn start_server(engine: EngineConfig, metrics: bool) -> TestServer {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        engine,
        metrics_addr: metrics.then(|| "127.0.0.1:0".to_string()),
        ..ServeConfig::default()
    };
    let pool = ThreadPool::new(2);
    let server = Server::bind_with_registry(&config, Arc::clone(registry()), pool)
        .expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    let metrics_addr = server.metrics_addr();
    let handle = std::thread::spawn(move || server.run());
    TestServer {
        addr,
        metrics_addr,
        handle,
    }
}

fn roundtrip(writer: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> Json {
    writer
        .write_all(line.as_bytes())
        .and_then(|()| writer.write_all(b"\n"))
        .and_then(|()| writer.flush())
        .expect("write request");
    let mut response = String::new();
    reader.read_line(&mut response).expect("read response");
    Json::parse(response.trim()).unwrap_or_else(|e| panic!("bad response {response:?}: {e}"))
}

fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    let writer = stream.try_clone().expect("clone");
    (writer, BufReader::new(stream))
}

fn shutdown_and_join(server: TestServer) -> ServeSummary {
    let (mut w, mut r) = connect(server.addr);
    let v = roundtrip(&mut w, &mut r, r#"{"cmd":"shutdown"}"#);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    drop((w, r));
    server
        .handle
        .join()
        .expect("server thread")
        .expect("clean shutdown")
}

/// Holds one stats reply to the daemon's scrape invariants
/// ([`scrape_problems`], the checker `perf_compare --lint-stats` runs
/// too) and returns its admitted and completed totals.
fn assert_coherent(stats: &Json, ctx: &str) -> (u64, u64) {
    let problems = scrape_problems(stats);
    assert!(problems.is_empty(), "{ctx}: {problems:?}");
    let series = |key: &str| {
        stats
            .get("metrics")
            .and_then(|m| m.get(key))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("{ctx}: metrics missing {key}"))
    };
    (
        series("queries_admitted_total"),
        series("queries_completed_total"),
    )
}

#[test]
fn stats_scrapes_stay_coherent_under_64_client_load() {
    let server = start_server(EngineConfig::default(), false);
    let addr = server.addr;
    const CLIENTS: usize = 64;
    const REQUESTS: usize = 4;
    let done = AtomicBool::new(false);
    let scrapes = std::thread::scope(|scope| {
        let load: Vec<_> = (0..CLIENTS)
            .map(|client| {
                scope.spawn(move || {
                    let (mut w, mut r) = connect(addr);
                    let mut ok = 0usize;
                    for i in 0..REQUESTS {
                        let source = (client * REQUESTS + i) % 32;
                        let line =
                            format!(r#"{{"kernel":"bfs","graph":"kron","source":{source}}}"#);
                        let v = roundtrip(&mut w, &mut r, &line);
                        if v.get("ok").and_then(Json::as_bool) == Some(true) {
                            ok += 1;
                        }
                    }
                    ok
                })
            })
            .collect();
        // Scrape continuously while the fleet hammers the daemon: every
        // single response must balance on its own.
        let done = &done;
        let scraper = scope.spawn(move || {
            let (mut w, mut r) = connect(addr);
            let mut scrapes = 0usize;
            while !done.load(Ordering::SeqCst) {
                let stats = roundtrip(&mut w, &mut r, r#"{"cmd":"stats"}"#);
                assert_coherent(&stats, "mid-load scrape");
                scrapes += 1;
            }
            scrapes
        });
        let served: usize = load.into_iter().map(|h| h.join().expect("client")).sum();
        done.store(true, Ordering::SeqCst);
        let scrapes = scraper.join().expect("scraper");
        assert_eq!(served, CLIENTS * REQUESTS, "every query should succeed");
        scrapes
    });
    assert!(scrapes > 0, "scraper never observed the daemon");
    // Quiescent: everything admitted has completed; the histogram agrees.
    let (mut w, mut r) = connect(addr);
    let stats = roundtrip(&mut w, &mut r, r#"{"cmd":"stats"}"#);
    let (admitted, completed) = assert_coherent(&stats, "quiescent scrape");
    assert_eq!(admitted, (CLIENTS * REQUESTS) as u64);
    assert_eq!(completed, admitted);
    assert_eq!(
        stats
            .get("metrics")
            .and_then(|m| m.get("active_queries"))
            .and_then(Json::as_u64),
        Some(0)
    );
    drop((w, r));
    shutdown_and_join(server);
}

fn http_get(addr: SocketAddr, request: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect metrics listener");
    stream.write_all(request.as_bytes()).expect("write request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line: {head}"));
    (status, head.to_string(), body.to_string())
}

#[test]
fn metrics_listener_serves_prometheus_stats_and_probes() {
    let server = start_server(EngineConfig::default(), true);
    let maddr = server.metrics_addr.expect("metrics listener bound");

    // Probes answer before any query has run.
    let (status, _, body) = http_get(maddr, "GET /health HTTP/1.0\r\n\r\n");
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    let (status, _, body) = http_get(maddr, "GET /ready HTTP/1.0\r\n\r\n");
    assert_eq!((status, body.as_str()), (200, "ready\n"));

    // Run a few queries so the exposition has non-trivial series.
    let (mut w, mut r) = connect(server.addr);
    for source in 0..3 {
        let line = format!(r#"{{"kernel":"bfs","graph":"kron","source":{source}}}"#);
        let v = roundtrip(&mut w, &mut r, &line);
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    }

    let (status, head, text) = http_get(maddr, "GET /metrics HTTP/1.0\r\n\r\n");
    assert_eq!(status, 200);
    assert!(head.contains("text/plain; version=0.0.4"), "{head}");
    for needle in [
        "# TYPE gapbs_serve_queries_admitted_total counter",
        "gapbs_serve_queries_admitted_total 3",
        "gapbs_serve_queries_completed_total 3",
        "# TYPE gapbs_serve_latency_us histogram",
        "gapbs_serve_latency_us_count 3",
        "gapbs_serve_active_queries 0",
        "gapbs_serve_rss_bytes",
        "gapbs_serve_pool_regions_total",
        "kernel=\"bfs\"",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
    // Exposition syntax: every non-comment line is `name{...} value`.
    for line in text.lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let (name, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("bad line {line:?}"));
        assert!(!name.is_empty());
        assert!(value.parse::<f64>().is_ok(), "bad sample value in {line:?}");
    }

    // /stats serves the same JSON snapshot as the TCP command, and it
    // satisfies the same consistency invariants.
    let (status, head, body) = http_get(maddr, "GET /stats HTTP/1.0\r\n\r\n");
    assert_eq!(status, 200);
    assert!(head.contains("application/json"), "{head}");
    let stats = Json::parse(body.trim()).expect("stats JSON");
    let (admitted, _) = assert_coherent(&stats, "http stats");
    assert_eq!(admitted, 3);

    // Unknown route and non-GET get clean errors, listener survives.
    let (status, _, _) = http_get(maddr, "GET /nope HTTP/1.0\r\n\r\n");
    assert_eq!(status, 404);
    let (status, _, _) = http_get(maddr, "POST /metrics HTTP/1.0\r\n\r\n");
    assert_eq!(status, 405);
    let (status, _, _) = http_get(maddr, "GET /health HTTP/1.0\r\n\r\n");
    assert_eq!(status, 200, "listener survives bad requests");

    drop((w, r));
    shutdown_and_join(server);
}

/// Maps a stats-JSON `le` (a bucket's exclusive upper bound) back to its
/// bucket index. `le` values at or above 2⁶³ — including the last
/// bucket's `u64::MAX`, which round-trips lossily through f64 — collapse
/// into the open-ended final bucket.
fn le_bucket_index(le: &Json) -> usize {
    match le.as_u64() {
        Some(1) => 0,
        Some(v) if v.is_power_of_two() => (v.trailing_zeros() as usize).min(BUCKETS - 1),
        _ => BUCKETS - 1,
    }
}

/// Reconstructs the daemon's gate-latency histogram from the sparse
/// cumulative bucket table under `metrics.latency_us` in a stats
/// snapshot. The rebuilt snapshot carries a zero `sum` (the table does
/// not encode it); only bucket counts and quantiles are meaningful.
fn parse_latency_histogram(stats: &Json) -> Result<HistogramSnapshot, String> {
    let hist = stats
        .get("metrics")
        .and_then(|m| m.get("latency_us"))
        .ok_or_else(|| "stats response missing metrics.latency_us".to_string())?;
    let Some(Json::Arr(entries)) = hist.get("buckets") else {
        return Err("metrics.latency_us missing buckets table".to_string());
    };
    let mut snap = HistogramSnapshot::default();
    let mut prev = 0u64;
    for entry in entries {
        let cumulative = entry
            .get("count")
            .and_then(Json::as_u64)
            .ok_or_else(|| "bucket entry missing count".to_string())?;
        let le = entry
            .get("le")
            .ok_or_else(|| "bucket entry missing le".to_string())?;
        let idx = le_bucket_index(le);
        snap.buckets[idx] = snap.buckets[idx].wrapping_add(cumulative.saturating_sub(prev));
        prev = cumulative;
    }
    snap.count = snap.buckets.iter().sum();
    Ok(snap)
}

/// Per-bucket `after - before`, for isolating one run's worth of
/// recordings out of the daemon's cumulative histogram.
fn bucket_delta(after: &HistogramSnapshot, before: &HistogramSnapshot) -> HistogramSnapshot {
    let mut out = HistogramSnapshot::default();
    for i in 0..BUCKETS {
        out.buckets[i] = after.buckets[i].saturating_sub(before.buckets[i]);
    }
    out.count = out.buckets.iter().sum();
    out
}

/// Whether a client-side latency and the daemon histogram's quantile
/// lower bound land within one log₂ bucket of each other. One bucket of
/// slack absorbs the genuine skew between the two measurements: the
/// client adds loopback RTT on top of the daemon's `received → responded`
/// window, and a true value sitting near a power-of-two boundary can
/// land the two readings in adjacent buckets.
fn quantiles_agree(client_ms: f64, daemon_lower_us: u64) -> bool {
    let client_bucket = bucket_of((client_ms * 1e3).round().max(0.0) as u64) as i64;
    let daemon_bucket = bucket_of(daemon_lower_us) as i64;
    (client_bucket - daemon_bucket).abs() <= 1
}

#[test]
fn le_values_round_trip_to_bucket_indices() {
    assert_eq!(le_bucket_index(&Json::Num(1.0)), 0);
    assert_eq!(le_bucket_index(&Json::Num(2.0)), 1);
    assert_eq!(le_bucket_index(&Json::Num(1024.0)), 10);
    // The last bucket's u64::MAX survives the f64 round trip only as
    // the open-ended bucket; so does any unparseable le.
    assert_eq!(le_bucket_index(&Json::Num(u64::MAX as f64)), BUCKETS - 1);
    assert_eq!(le_bucket_index(&Json::Str("+Inf".to_string())), BUCKETS - 1);
    for i in 0..BUCKETS {
        assert_eq!(
            le_bucket_index(&Json::Num(bucket_hi(i) as f64)),
            i.min(BUCKETS - 1),
            "bucket {i}"
        );
    }
}

#[test]
fn histogram_reconstruction_inverts_to_json() {
    let h = Histogram::new();
    for v in [0, 1, 3, 100, 5000, 5000, 1 << 40] {
        h.record(v);
    }
    let snap = h.snapshot();
    let stats = Json::obj([(
        "metrics".to_string(),
        Json::obj([("latency_us".to_string(), snap.to_json())]),
    )]);
    let rebuilt = parse_latency_histogram(&stats).expect("reconstruct");
    assert_eq!(rebuilt.buckets, snap.buckets);
    assert_eq!(rebuilt.count, snap.count);
}

#[test]
fn bucket_delta_isolates_one_run() {
    let h = Histogram::new();
    h.record(100);
    h.record(3000);
    let before = h.snapshot();
    h.record(3000);
    h.record(70_000);
    let delta = bucket_delta(&h.snapshot(), &before);
    assert_eq!(delta.count, 2);
    assert_eq!(delta.buckets[bucket_of(3000)], 1);
    assert_eq!(delta.buckets[bucket_of(70_000)], 1);
    assert_eq!(delta.buckets[bucket_of(100)], 0);
}

#[test]
fn quantile_agreement_is_one_bucket_wide() {
    // 5 ms client → 5000 us → bucket [4096, 8192).
    assert!(quantiles_agree(5.0, 4096), "same bucket");
    assert!(quantiles_agree(5.0, 2048), "one bucket below");
    assert!(quantiles_agree(5.0, 8192), "one bucket above");
    assert!(!quantiles_agree(5.0, 1024), "two buckets below");
    assert!(!quantiles_agree(5.0, 1 << 20), "far above");
}

/// The daemon's `received → responded` window sits inside the client's
/// write → read window, so per query the daemon's latency is at most the
/// client's. Over one run the daemon histogram must hold exactly the
/// run's queries and its nearest-rank quantile lower bounds must not
/// exceed the client's same-rank latencies. The two must also land
/// within one log₂ bucket of each other; that part is statistical (a
/// client thread preempted after the daemon answered adds a time slice
/// the daemon never sees), so a run that disagrees is retried twice.
#[test]
fn daemon_latency_quantiles_agree_with_the_client() {
    const QUERIES: usize = 100;
    let server = start_server(EngineConfig::default(), false);
    let (mut w, mut r) = connect(server.addr);
    // Without nodelay, Nagle plus delayed ACK adds tens of milliseconds
    // to every request and the client measures the TCP stack instead.
    w.set_nodelay(true).expect("nodelay");
    let latency_histogram = |w: &mut TcpStream, r: &mut BufReader<TcpStream>| {
        let stats = roundtrip(w, r, r#"{"cmd":"stats"}"#);
        parse_latency_histogram(&stats).expect("stats carry the latency histogram")
    };
    let mut disagreements = Vec::new();
    for _attempt in 0..3 {
        // The first scrape also waits out the accept loop, so no timed
        // query pays for the connection being picked up.
        let before = latency_histogram(&mut w, &mut r);
        let mut client_ms: Vec<f64> = (0..QUERIES)
            .map(|_| {
                let start = Instant::now();
                let v = roundtrip(
                    &mut w,
                    &mut r,
                    r#"{"kernel":"pr","graph":"kron","framework":"SuiteSparse"}"#,
                );
                let ms = start.elapsed().as_secs_f64() * 1e3;
                assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v:?}");
                ms
            })
            .collect();
        let delta = bucket_delta(&latency_histogram(&mut w, &mut r), &before);
        assert_eq!(
            delta.count, QUERIES as u64,
            "daemon recorded every query once"
        );
        client_ms.sort_by(f64::total_cmp);
        disagreements.clear();
        for q in [0.50, 0.99] {
            // Nearest rank, the histogram's own definition.
            let rank = ((q * QUERIES as f64).ceil() as usize).clamp(1, QUERIES);
            let client = client_ms[rank - 1];
            let daemon_lower_us = delta.quantile(q).expect("non-empty run");
            assert!(
                daemon_lower_us as f64 <= client * 1e3,
                "p{}: daemon bucket starts at {daemon_lower_us}us, client saw {client:.3}ms",
                q * 100.0
            );
            if !quantiles_agree(client, daemon_lower_us) {
                disagreements.push(format!(
                    "p{}: client {client:.3}ms vs daemon bucket [{daemon_lower_us}us, {}us)",
                    q * 100.0,
                    daemon_lower_us.saturating_mul(2).max(1)
                ));
            }
        }
        if disagreements.is_empty() {
            break;
        }
    }
    assert!(disagreements.is_empty(), "{disagreements:?}");
    drop((w, r));
    shutdown_and_join(server);
}
