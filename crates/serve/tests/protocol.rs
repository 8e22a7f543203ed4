//! End-to-end protocol tests: a live daemon on an ephemeral port, real
//! TCP clients, and bit-identity between served responses and direct
//! batch-mode execution.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

use gapbs_graph::gen::{GraphSpec, Scale};
use gapbs_parallel::ThreadPool;
use gapbs_serve::engine::run_query_local;
use gapbs_serve::protocol::{parse_request, Command};
use gapbs_serve::server::{ServeConfig, ServeSummary, Server};
use gapbs_serve::{EngineConfig, GraphRegistry};
use gapbs_telemetry::json::Json;

/// One tiny two-graph corpus shared by every test in this binary —
/// corpus generation is the slow part, and the registry is immutable.
fn registry() -> &'static Arc<GraphRegistry> {
    static REG: OnceLock<Arc<GraphRegistry>> = OnceLock::new();
    REG.get_or_init(|| {
        let pool = ThreadPool::new(2);
        Arc::new(GraphRegistry::load(
            Scale::Tiny,
            &[GraphSpec::Kron, GraphSpec::Road],
            &pool,
        ))
    })
}

struct TestServer {
    addr: SocketAddr,
    handle: JoinHandle<std::io::Result<ServeSummary>>,
}

fn start_server(engine: EngineConfig, ledger: Option<std::path::PathBuf>) -> TestServer {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        engine,
        ledger_path: ledger,
        ..ServeConfig::default()
    };
    let pool = ThreadPool::new(2);
    let server = Server::bind_with_registry(&config, Arc::clone(registry()), pool)
        .expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || server.run());
    TestServer { addr, handle }
}

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        Client {
            writer: stream.try_clone().expect("clone"),
            reader: BufReader::new(stream),
        }
    }

    fn roundtrip(&mut self, line: &str) -> Json {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .and_then(|()| self.writer.flush())
            .expect("write request");
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("read response");
        Json::parse(response.trim()).unwrap_or_else(|e| panic!("bad response {response:?}: {e}"))
    }
}

fn shutdown_and_join(server: TestServer) -> ServeSummary {
    let mut client = Client::connect(server.addr);
    let v = client.roundtrip(r#"{"cmd":"shutdown"}"#);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    drop(client);
    server
        .handle
        .join()
        .expect("server thread")
        .expect("clean shutdown")
}

#[test]
fn malformed_and_invalid_requests_get_stable_error_codes() {
    let server = start_server(EngineConfig::default(), None);
    let mut client = Client::connect(server.addr);
    let code = |client: &mut Client, line: &str| {
        let v = client.roundtrip(line);
        assert_eq!(
            v.get("ok").and_then(Json::as_bool),
            Some(false),
            "line: {line}"
        );
        v.get("code")
            .and_then(Json::as_str)
            .map(str::to_string)
            .expect("code field")
    };
    assert_eq!(code(&mut client, "{not json"), "malformed");
    assert_eq!(
        code(&mut client, r#"{"kernel":"mst","graph":"kron"}"#),
        "unknown_kernel"
    );
    assert_eq!(
        code(
            &mut client,
            r#"{"kernel":"bfs","graph":"orkut","source":0}"#
        ),
        "unknown_graph"
    );
    assert_eq!(
        code(&mut client, r#"{"kernel":"bfs","graph":"web","source":0}"#),
        "unknown_graph",
        "web is in the vocabulary but not resident in this daemon"
    );
    assert_eq!(
        code(
            &mut client,
            r#"{"kernel":"bfs","graph":"kron","source":0,"framework":"ligra"}"#
        ),
        "unknown_framework"
    );
    assert_eq!(
        code(&mut client, r#"{"kernel":"bfs","graph":"kron"}"#),
        "bad_request"
    );
    assert_eq!(
        code(
            &mut client,
            r#"{"kernel":"bfs","graph":"kron","source":999999}"#
        ),
        "bad_source"
    );
    // The connection survives every error and still answers pings.
    let v = client.roundtrip(r#"{"cmd":"ping"}"#);
    assert_eq!(v.get("pong").and_then(Json::as_bool), Some(true));
    shutdown_and_join(server);
}

/// The tentpole correctness claim: a served response is bit-identical to
/// direct batch-mode execution — asserted through the fingerprint over
/// the canonical form of the *entire* kernel output, for every kernel.
/// SuiteSparse covers all six (its engine is bit-identical at every
/// thread count); the GAP reference covers the kernels whose canonical
/// integer outputs are schedule-invariant.
#[test]
fn an_oversized_request_line_is_refused_and_the_daemon_keeps_serving() {
    let server = start_server(EngineConfig::default(), None);
    let mut hostile = Client::connect(server.addr);
    // 2 MiB without a newline in the first MiB: twice the cap.
    let v = hostile.roundtrip(&"x".repeat(2 * gapbs_serve::server::MAX_REQUEST_LINE));
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(v.get("code").and_then(Json::as_str), Some("malformed"));
    // The connection is closed, not resynchronised...
    let mut rest = String::new();
    assert_eq!(hostile.reader.read_line(&mut rest).unwrap_or(0), 0);
    // ...and the next client is answered as usual.
    let mut client = Client::connect(server.addr);
    let v = client.roundtrip(r#"{"kernel":"bfs","graph":"kron","source":1}"#);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    // A line of exactly the cap, newline included, is still parsed.
    let pad = gapbs_serve::server::MAX_REQUEST_LINE - r#"{"cmd":"ping"}"#.len() - 1;
    let v = client.roundtrip(&format!(r#"{{"cmd":"ping"}}{}"#, " ".repeat(pad)));
    assert_eq!(v.get("pong").and_then(Json::as_bool), Some(true));
    drop(client);
    shutdown_and_join(server);
}

#[test]
fn served_results_are_bit_identical_to_batch_mode() {
    let server = start_server(EngineConfig::default(), None);
    let mut client = Client::connect(server.addr);
    let pool = ThreadPool::new(1);
    let cases = [
        ("SuiteSparse", "bfs"),
        ("SuiteSparse", "sssp"),
        ("SuiteSparse", "pr"),
        ("SuiteSparse", "cc"),
        ("SuiteSparse", "bc"),
        ("SuiteSparse", "tc"),
        ("GAP", "bfs"),
        ("GAP", "sssp"),
        ("GAP", "cc"),
        ("GAP", "tc"),
    ];
    for graph in ["kron", "road"] {
        for (framework, kernel) in cases {
            let line = format!(
                r#"{{"kernel":"{kernel}","graph":"{graph}","framework":"{framework}","source":3}}"#
            );
            let v = client.roundtrip(&line);
            assert_eq!(
                v.get("ok").and_then(Json::as_bool),
                Some(true),
                "{framework} {kernel} on {graph}: {}",
                v.encode()
            );
            let served = v
                .get("fingerprint")
                .and_then(Json::as_str)
                .expect("fingerprint");
            let Command::Query(query) = parse_request(&line).expect("parse own request") else {
                panic!("expected query");
            };
            let expected = run_query_local(registry(), &query, &pool).expect("local run");
            assert_eq!(
                served,
                format!("{:016x}", expected.fingerprint),
                "{framework} {kernel} on {graph} differs from batch-mode"
            );
        }
    }
    shutdown_and_join(server);
}

/// A batch line answers with one result per source, each fingerprint
/// bit-identical to the same query issued solo, and the daemon's stats
/// expose the batch lifecycle counters.
#[test]
fn batch_lines_fan_out_with_solo_identical_fingerprints() {
    let server = start_server(EngineConfig::default(), None);
    let mut client = Client::connect(server.addr);
    let sources = [2u32, 8, 2, 31];
    let v = client.roundtrip(r#"{"kernel":"bfs","graph":"kron","sources":[2,8,2,31]}"#);
    assert_eq!(
        v.get("ok").and_then(Json::as_bool),
        Some(true),
        "{}",
        v.encode()
    );
    assert_eq!(v.get("batch").and_then(Json::as_u64), Some(4));
    let Some(Json::Arr(results)) = v.get("results") else {
        panic!("missing results: {}", v.encode());
    };
    for (entry, source) in results.iter().zip(sources) {
        let solo = client.roundtrip(&format!(
            r#"{{"kernel":"bfs","graph":"kron","source":{source}}}"#
        ));
        assert_eq!(
            entry.get("fingerprint").and_then(Json::as_str),
            solo.get("fingerprint").and_then(Json::as_str),
            "source {source}"
        );
    }
    let stats = client.roundtrip(r#"{"cmd":"stats"}"#);
    let field = |k: &str| {
        let series = stats.get("metrics").and_then(|m| m.get(k));
        series.and_then(Json::as_u64).expect(k)
    };
    assert!(
        field("batch_queries_total") >= 4,
        "stats: {}",
        stats.encode()
    );
    assert!(field("batch_width_max") >= 4);
    assert!(field("batch_queries_total") <= field("queries_admitted_total"));
    shutdown_and_join(server);
}

#[test]
fn expired_deadlines_error_without_poisoning_the_daemon() {
    let server = start_server(EngineConfig::default(), None);
    let mut client = Client::connect(server.addr);
    let v = client.roundtrip(r#"{"kernel":"tc","graph":"kron","deadline_ms":0}"#);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        v.get("code").and_then(Json::as_str),
        Some("deadline_exceeded")
    );
    // Same connection, next query: fine.
    let v = client.roundtrip(r#"{"kernel":"tc","graph":"kron"}"#);
    assert_eq!(
        v.get("ok").and_then(Json::as_bool),
        Some(true),
        "{}",
        v.encode()
    );
    let summary = shutdown_and_join(server);
    assert_eq!(summary.queries.deadline_exceeded, 1);
    assert!(summary.queries.completed >= 2);
}

#[test]
fn concurrent_clients_all_get_correct_answers() {
    let server = start_server(
        EngineConfig {
            max_active: 4,
            max_waiting: 64,
            ..EngineConfig::default()
        },
        None,
    );
    let pool = ThreadPool::new(1);
    let Command::Query(query) =
        parse_request(r#"{"kernel":"bfs","graph":"kron","source":7}"#).unwrap()
    else {
        panic!("expected query");
    };
    let expected = format!(
        "{:016x}",
        run_query_local(registry(), &query, &pool)
            .unwrap()
            .fingerprint
    );
    let addr = server.addr;
    std::thread::scope(|scope| {
        for _ in 0..16 {
            let expected = expected.clone();
            scope.spawn(move || {
                let mut client = Client::connect(addr);
                for _ in 0..3 {
                    let v = client.roundtrip(r#"{"kernel":"bfs","graph":"kron","source":7}"#);
                    assert_eq!(
                        v.get("ok").and_then(Json::as_bool),
                        Some(true),
                        "{}",
                        v.encode()
                    );
                    assert_eq!(
                        v.get("fingerprint").and_then(Json::as_str),
                        Some(expected.as_str())
                    );
                }
            });
        }
    });
    let summary = shutdown_and_join(server);
    assert_eq!(summary.queries.rejected, 0, "48 queries fit the 4+64 gate");
    assert!(summary.queries.completed >= 48);
}

#[test]
fn zero_capacity_queue_rejects_overload_with_rejected_code() {
    let server = start_server(
        EngineConfig {
            max_active: 1,
            max_waiting: 0,
            ..EngineConfig::default()
        },
        None,
    );
    let addr = server.addr;
    let rejected = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr);
                    let v = client.roundtrip(r#"{"kernel":"pr","graph":"kron"}"#);
                    v.get("code").and_then(Json::as_str) == Some("rejected")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .filter(|&was_rejected| was_rejected)
            .count()
    });
    let summary = shutdown_and_join(server);
    assert_eq!(summary.queries.rejected as usize, rejected);
    assert!(
        summary.queries.completed <= summary.queries.admitted,
        "lifecycle invariant"
    );
}

#[test]
fn shutdown_flushes_a_lint_clean_ledger() {
    let ledger_path = std::env::temp_dir().join(format!(
        "gapbs-serve-test-{}-ledger.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&ledger_path);
    let server = start_server(EngineConfig::default(), Some(ledger_path.clone()));
    let mut client = Client::connect(server.addr);
    for line in [
        r#"{"kernel":"bfs","graph":"kron","source":1}"#,
        r#"{"kernel":"cc","graph":"road"}"#,
        r#"{"kernel":"tc","graph":"kron"}"#,
    ] {
        let v = client.roundtrip(line);
        assert_eq!(
            v.get("ok").and_then(Json::as_bool),
            Some(true),
            "{}",
            v.encode()
        );
    }
    let summary = shutdown_and_join(server);
    assert_eq!(summary.ledger_records, 3);
    let contents = std::fs::read_to_string(&ledger_path).expect("ledger written");
    let records: Vec<Json> = contents
        .lines()
        .map(|l| Json::parse(l).expect("ledger line is JSON"))
        .collect();
    assert_eq!(records.len(), 3);
    for record in &records {
        let counters = record.get("counters").expect("counters");
        let admitted = counters
            .get("queries_admitted")
            .and_then(Json::as_u64)
            .unwrap_or(0);
        let completed = counters
            .get("queries_completed")
            .and_then(Json::as_u64)
            .unwrap_or(0);
        assert!(
            admitted >= 1,
            "every record carries the daemon's lifecycle counters"
        );
        assert!(completed <= admitted, "the lint invariant holds per record");
        assert!(record.get("seconds").and_then(Json::as_f64).unwrap_or(-1.0) >= 0.0);
    }
    let _ = std::fs::remove_file(&ledger_path);
}
