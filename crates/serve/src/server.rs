//! The TCP server: accept loop, per-connection handlers, drain sequence.
//!
//! One OS thread per connection, reading line-delimited requests and
//! writing one response line each, in order. All cross-connection
//! concurrency control lives in the engine's admission gate, so handler
//! threads stay trivially simple.
//!
//! # Shutdown
//!
//! SIGINT/SIGTERM (when enabled) and `{"cmd":"shutdown"}` both set a stop
//! flag. The accept loop then:
//!
//! 1. stops accepting connections;
//! 2. drains the admission gate — queued waiters fail fast with
//!    `shutting_down`, in-flight queries run to completion and their
//!    responses are written;
//! 3. half-closes every connection's *read* side, which unblocks idle
//!    `read_line` calls with EOF while leaving the write side usable;
//! 4. joins every handler thread, flushes the query ledger, exits.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use gapbs_graph::gen::{GraphSpec, Scale};
use gapbs_parallel::ThreadPool;
use gapbs_telemetry::json::Json;
use gapbs_telemetry::LedgerSink;

use crate::admission::GateSnapshot;
use crate::engine::{Engine, EngineConfig};
use crate::protocol::{error_line, parse_request, Command, ErrorCode, ProtoError};
use crate::registry::{GraphRegistry, RegistryOptions};
use crate::signal;

/// Everything the daemon needs to start.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// If set, the bound port is written here (harness handshake).
    pub port_file: Option<PathBuf>,
    /// If set, a second HTTP listener binds here serving `/metrics`
    /// (Prometheus text exposition), `/stats` (the JSON snapshot),
    /// `/health`, and `/ready` (`docs/OPERATIONS.md`).
    pub metrics_addr: Option<String>,
    /// If set, the metrics listener's bound port is written here.
    pub metrics_port_file: Option<PathBuf>,
    /// Corpus scale to load.
    pub scale: Scale,
    /// Which corpus members to load.
    pub graphs: Vec<GraphSpec>,
    /// Pool worker threads.
    pub threads: usize,
    /// Admission and deadline parameters.
    pub engine: EngineConfig,
    /// If set, one ledger record is appended per executed query.
    pub ledger_path: Option<PathBuf>,
    /// Route SIGINT/SIGTERM to graceful shutdown (off in tests).
    pub handle_signals: bool,
    /// Snapshot cache directory (`--snapshot-dir`): cold-start by
    /// mmapping cached snapshot files, writing them on first use.
    pub snapshot_dir: Option<PathBuf>,
    /// Full O(V+E) validation of snapshot loads (`--paranoid`) instead
    /// of the default checksum-only verification.
    pub paranoid: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7447".to_string(),
            port_file: None,
            metrics_addr: None,
            metrics_port_file: None,
            scale: Scale::Small,
            graphs: GraphSpec::TABLE_ORDER.to_vec(),
            threads: gapbs_parallel::pool::default_threads(),
            engine: EngineConfig::default(),
            ledger_path: None,
            handle_signals: false,
            snapshot_dir: None,
            paranoid: false,
        }
    }
}

/// What a completed daemon run did, for the operator log and tests.
#[derive(Debug, Clone)]
pub struct ServeSummary {
    /// Address the daemon actually listened on.
    pub addr: SocketAddr,
    /// Final cumulative gate statistics.
    pub queries: GateSnapshot,
    /// Ledger records appended (0 without a ledger).
    pub ledger_records: u64,
}

/// A bound, not-yet-running daemon.
pub struct Server {
    listener: TcpListener,
    metrics_listener: Option<TcpListener>,
    engine: Arc<Engine>,
    stop: Arc<AtomicBool>,
    handle_signals: bool,
}

impl Server {
    /// Loads the corpus, builds the engine, and binds the listener.
    pub fn bind(config: &ServeConfig) -> std::io::Result<Server> {
        let pool = ThreadPool::new(config.threads.max(1));
        let opts = RegistryOptions {
            snapshot_dir: config.snapshot_dir.clone(),
            paranoid: config.paranoid,
        };
        let registry = Arc::new(GraphRegistry::load_with(
            config.scale,
            &config.graphs,
            &pool,
            &opts,
        ));
        Self::bind_with_registry(config, registry, pool)
    }

    /// [`Server::bind`] over an already-loaded registry (tests share one
    /// corpus across servers). `pool` is the execution pool.
    pub fn bind_with_registry(
        config: &ServeConfig,
        registry: Arc<GraphRegistry>,
        pool: ThreadPool,
    ) -> std::io::Result<Server> {
        // Before the port file announces the daemon: a supervisor may
        // signal as soon as it reads the port, and must get a drain.
        if config.handle_signals {
            signal::install();
        }
        let ledger = match &config.ledger_path {
            Some(path) => Some(LedgerSink::open(path)?),
            None => None,
        };
        let engine = Arc::new(Engine::new(registry, pool, config.engine.clone(), ledger));
        let listener = TcpListener::bind(&config.addr)?;
        let write_port = |file: &PathBuf, port: u16| -> std::io::Result<()> {
            if let Some(parent) = file.parent() {
                std::fs::create_dir_all(parent)?;
            }
            std::fs::write(file, format!("{port}\n"))
        };
        if let Some(port_file) = &config.port_file {
            write_port(port_file, listener.local_addr()?.port())?;
        }
        let metrics_listener = match &config.metrics_addr {
            Some(addr) => {
                let l = TcpListener::bind(addr)?;
                if let Some(port_file) = &config.metrics_port_file {
                    write_port(port_file, l.local_addr()?.port())?;
                }
                Some(l)
            }
            None => None,
        };
        Ok(Server {
            listener,
            metrics_listener,
            engine,
            stop: Arc::new(AtomicBool::new(false)),
            handle_signals: config.handle_signals,
        })
    }

    /// The bound address (read the ephemeral port here).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The metrics listener's bound address, when one is configured.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_listener
            .as_ref()
            .and_then(|l| l.local_addr().ok())
    }

    /// The engine (tests inspect gate stats through it).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// A handle that stops this server from another thread.
    pub fn stop_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    fn should_stop(&self) -> bool {
        self.stop.load(Ordering::SeqCst) || (self.handle_signals && signal::shutdown_requested())
    }

    /// Serves until shutdown is requested, then drains and returns.
    pub fn run(mut self) -> std::io::Result<ServeSummary> {
        let addr = self.listener.local_addr()?;
        eprintln!("serve: listening on {addr}");
        self.listener.set_nonblocking(true)?;
        // The metrics listener outlives the accept loop on purpose: it
        // keeps answering scrapes and probes (with `/ready` = 503)
        // through the drain window, and stops only on its own flag once
        // every handler has been joined.
        let metrics_stop = Arc::new(AtomicBool::new(false));
        let metrics_thread = self.metrics_listener.take().map(|listener| {
            let engine = Arc::clone(&self.engine);
            let stop = Arc::clone(&metrics_stop);
            if let Ok(maddr) = listener.local_addr() {
                eprintln!("serve: metrics on http://{maddr}/metrics");
            }
            std::thread::spawn(move || metrics_http_loop(&listener, &engine, &stop))
        });
        let connections: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        let mut handlers = Vec::new();
        while !self.should_stop() {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    stream.set_nonblocking(false)?;
                    // Line-delimited request/response: without nodelay,
                    // Nagle + delayed ACK adds ~40ms per small write and
                    // client-observed latency stops measuring the daemon.
                    let _ = stream.set_nodelay(true);
                    if let Ok(reader_half) = stream.try_clone() {
                        connections
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .push(reader_half);
                    }
                    let engine = Arc::clone(&self.engine);
                    let stop = Arc::clone(&self.stop);
                    handlers.push(std::thread::spawn(move || {
                        handle_connection(stream, &engine, &stop);
                    }));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        eprintln!(
            "serve: draining {} active queries",
            self.engine.gate().active()
        );
        // In-flight queries finish and answer; queued waiters fail fast.
        self.engine.gate().drain();
        // Unblock idle readers with EOF; write halves stay open so any
        // response still being written goes out.
        for conn in connections.lock().unwrap_or_else(|e| e.into_inner()).iter() {
            let _ = conn.shutdown(Shutdown::Read);
        }
        for handle in handlers {
            let _ = handle.join();
        }
        metrics_stop.store(true, Ordering::SeqCst);
        if let Some(thread) = metrics_thread {
            let _ = thread.join();
        }
        self.engine.flush_ledger()?;
        let queries = self.engine.gate().snapshot();
        eprintln!(
            "serve: shut down cleanly ({} admitted, {} rejected, {} completed, {} past deadline)",
            queries.admitted, queries.rejected, queries.completed, queries.deadline_exceeded
        );
        let ledger_records = self
            .engine
            .stats_json()
            .get("ledger_records")
            .and_then(Json::as_u64)
            .unwrap_or(0);
        Ok(ServeSummary {
            addr,
            queries,
            ledger_records,
        })
    }
}

/// Accept loop of the metrics/observability listener: a dependency-free
/// HTTP/1.0 responder. Requests are served inline (scrapes are cheap and
/// infrequent) and every response closes the connection.
fn metrics_http_loop(listener: &TcpListener, engine: &Engine, stop: &AtomicBool) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = serve_http_request(stream, engine);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Answers one HTTP GET on the metrics listener.
///
/// Routes: `/metrics` (Prometheus text exposition 0.0.4), `/stats` (the
/// same JSON snapshot as `{"cmd":"stats"}`), `/health` (liveness: 200
/// while the process runs), `/ready` (readiness: 503 once draining).
fn serve_http_request(stream: TcpStream, engine: &Engine) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // Drain headers to the blank line so the client sees a clean close.
    let mut header = String::new();
    loop {
        header.clear();
        if reader.read_line(&mut header)? == 0 || header.trim().is_empty() {
            break;
        }
    }
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("/");
    let (status, content_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "method not allowed\n".to_string(),
        )
    } else {
        match path {
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                engine.prometheus_text(),
            ),
            "/stats" => (
                "200 OK",
                "application/json; charset=utf-8",
                format!("{}\n", engine.stats_json().encode()),
            ),
            "/health" => ("200 OK", "text/plain; charset=utf-8", "ok\n".to_string()),
            "/ready" => {
                if engine.gate().draining() {
                    (
                        "503 Service Unavailable",
                        "text/plain; charset=utf-8",
                        "draining\n".to_string(),
                    )
                } else {
                    ("200 OK", "text/plain; charset=utf-8", "ready\n".to_string())
                }
            }
            _ => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                "not found\n".to_string(),
            ),
        }
    };
    writer.write_all(
        format!(
            "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        )
        .as_bytes(),
    )?;
    writer.write_all(body.as_bytes())?;
    writer.flush()
}

/// Longest request line a connection may send, newline included. The
/// widest legitimate request, a batch line of `MAX_BATCH_SOURCES` (1024)
/// sources, is about 12 KiB; without a bound one client could make its
/// handler buffer an endless line.
pub const MAX_REQUEST_LINE: usize = 1 << 20;

fn handle_connection(stream: TcpStream, engine: &Engine, stop: &AtomicBool) {
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        let mut bounded = reader.by_ref().take(MAX_REQUEST_LINE as u64);
        match bounded.read_line(&mut line) {
            Ok(0) => return, // EOF (client closed, or drain half-closed us)
            Ok(_) => {}
            Err(_) => return,
        }
        if line.len() == MAX_REQUEST_LINE && !line.ends_with('\n') {
            // Discard the rest of the line unbuffered before answering:
            // closing with unread input would reset the connection and
            // could take the error line with it.
            let _ = reader.skip_until(b'\n');
            let err = ProtoError::new(
                ErrorCode::Malformed,
                format!("request line exceeds {MAX_REQUEST_LINE} bytes"),
            );
            let _ = send_line(&mut writer, &error_line(None, &err));
            // The accept loop keeps a clone of every stream for the
            // drain, so dropping ours would not close the socket.
            let _ = writer.shutdown(Shutdown::Both);
            return;
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let response = match parse_request(trimmed) {
            Err(err) => error_line(None, &err),
            Ok(Command::Query(query)) => engine.handle(&query),
            Ok(Command::Batch(batch)) => engine.handle_batch(&batch),
            Ok(Command::Stats) => engine.stats_json().encode(),
            Ok(Command::Ping) => Json::obj([
                ("ok".to_string(), Json::Bool(true)),
                ("pong".to_string(), Json::Bool(true)),
            ])
            .encode(),
            Ok(Command::Shutdown) => {
                stop.store(true, Ordering::SeqCst);
                Json::obj([
                    ("ok".to_string(), Json::Bool(true)),
                    ("shutting_down".to_string(), Json::Bool(true)),
                ])
                .encode()
            }
        };
        if send_line(&mut writer, &response).is_err() {
            return;
        }
    }
}

fn send_line(writer: &mut TcpStream, response: &str) -> std::io::Result<()> {
    writer.write_all(response.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

/// Parses `--graphs web,kron,...` lists.
pub(crate) fn parse_graph_list(s: &str) -> Result<Vec<GraphSpec>, String> {
    s.split(',')
        .map(str::trim)
        .filter(|part| !part.is_empty())
        .map(str::parse)
        .collect()
}

/// CLI entry point for the `serve` binary. Returns the exit code.
pub fn serve_main(args: impl Iterator<Item = String>) -> i32 {
    let mut config = ServeConfig {
        handle_signals: true,
        ..ServeConfig::default()
    };
    let mut args = args.peekable();
    let usage =
        "usage: serve [--addr HOST:PORT] [--port-file PATH] [--scale tiny|small|medium|large] \
                 [--graphs a,b,...] [--threads N] [--max-active N] [--max-waiting N] \
                 [--deadline-ms N] [--coalesce-ms N (0 = off, the default)] \
                 [--slow-ms N] [--ledger PATH] \
                 [--metrics-addr HOST:PORT] [--metrics-port-file PATH] \
                 [--snapshot-dir DIR] [--paranoid]";
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        let parsed: Result<(), String> = match arg.as_str() {
            "--addr" => value("--addr").map(|v| config.addr = v),
            "--port-file" => value("--port-file").map(|v| config.port_file = Some(v.into())),
            "--scale" => value("--scale")
                .and_then(|v| v.parse())
                .map(|s| config.scale = s),
            "--graphs" => value("--graphs")
                .and_then(|v| parse_graph_list(&v))
                .map(|g| config.graphs = g),
            "--threads" => value("--threads")
                .and_then(|v| gapbs_parallel::pool::parse_threads(&v))
                .map(|n| config.threads = n),
            "--max-active" => value("--max-active")
                .and_then(|v| v.parse().map_err(|_| "bad --max-active".to_string()))
                .map(|n| config.engine.max_active = n),
            "--max-waiting" => value("--max-waiting")
                .and_then(|v| v.parse().map_err(|_| "bad --max-waiting".to_string()))
                .map(|n| config.engine.max_waiting = n),
            "--deadline-ms" => value("--deadline-ms")
                .and_then(|v| v.parse().map_err(|_| "bad --deadline-ms".to_string()))
                .map(|n| config.engine.default_deadline_ms = Some(n)),
            "--coalesce-ms" => value("--coalesce-ms")
                .and_then(|v| v.parse().map_err(|_| "bad --coalesce-ms".to_string()))
                .map(|n| config.engine.coalesce_window_ms = n),
            "--slow-ms" => value("--slow-ms")
                .and_then(|v| v.parse().map_err(|_| "bad --slow-ms".to_string()))
                .map(|n| config.engine.slow_ms = Some(n)),
            "--metrics-addr" => value("--metrics-addr").map(|v| config.metrics_addr = Some(v)),
            "--metrics-port-file" => {
                value("--metrics-port-file").map(|v| config.metrics_port_file = Some(v.into()))
            }
            "--ledger" => value("--ledger").map(|v| config.ledger_path = Some(v.into())),
            "--snapshot-dir" => {
                value("--snapshot-dir").map(|v| config.snapshot_dir = Some(v.into()))
            }
            "--paranoid" => {
                config.paranoid = true;
                Ok(())
            }
            "--help" | "-h" => {
                println!("{usage}");
                return 0;
            }
            other => Err(format!("unknown flag {other:?}\n{usage}")),
        };
        if let Err(e) = parsed {
            eprintln!("serve: {e}");
            return 2;
        }
    }
    let server = match Server::bind(&config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("serve: bind {}: {e}", config.addr);
            return 1;
        }
    };
    match server.run() {
        Ok(_summary) => 0,
        Err(e) => {
            eprintln!("serve: {e}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_lists_parse() {
        assert_eq!(
            parse_graph_list("kron, road").unwrap(),
            vec![GraphSpec::Kron, GraphSpec::Road]
        );
        assert!(parse_graph_list("kron,orkut").is_err());
    }
}
