//! The `serve` daemon's signal drain, end to end: SIGTERM after an
//! answered query must drain, flush that query's ledger record and exit 0.
#![cfg(unix)]

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const SIGTERM: i32 = 15;

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

/// SIGKILLs and reaps the daemon unless it already exited, so a failing
/// assertion never leaves a process behind.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.0.try_wait() {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
}

/// Calls `ready` every 20 ms until it yields, failing after `secs` s.
fn poll<T>(secs: u64, what: &str, mut ready: impl FnMut() -> Option<T>) -> T {
    let start = Instant::now();
    loop {
        if let Some(value) = ready() {
            return value;
        }
        let waited = start.elapsed();
        assert!(
            waited < Duration::from_secs(secs),
            "no {what} after {waited:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn sigterm_drains_flushes_the_ledger_and_exits_zero() {
    let dir = std::env::temp_dir().join(format!("gapbs-serve-signal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let port_file = dir.join("serve.port");
    let ledger = dir.join("serve.jsonl");
    let log = std::fs::File::create(dir.join("serve.log")).unwrap();
    let child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--scale",
            "tiny",
            "--graphs",
            "kron",
        ])
        .args(["--threads", "1", "--port-file", port_file.to_str().unwrap()])
        .args(["--ledger", ledger.to_str().unwrap()])
        .stdout(Stdio::null())
        .stderr(log)
        .spawn()
        .expect("spawn serve");
    let mut daemon = Daemon(child);

    let port: u16 = poll(60, "port file", || {
        if let Some(status) = daemon.0.try_wait().unwrap() {
            panic!("serve exited {status} before writing its port");
        }
        let text = std::fs::read_to_string(&port_file).ok()?;
        text.strip_suffix('\n')?.parse().ok()
    });
    let stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    (&stream)
        .write_all(b"{\"kernel\":\"bfs\",\"graph\":\"kron\",\"source\":1}\n")
        .unwrap();
    let mut reply = String::new();
    BufReader::new(&stream).read_line(&mut reply).unwrap();
    assert!(reply.contains("\"ok\":true"), "reply: {reply}");

    // The connection stays open: the drain must unblock its idle reader.
    let pid = i32::try_from(daemon.0.id()).expect("pid fits in i32");
    assert_eq!(unsafe { kill(pid, SIGTERM) }, 0, "kill(SIGTERM) failed");
    let status = poll(30, "exit after SIGTERM", || daemon.0.try_wait().unwrap());
    let log = std::fs::read_to_string(dir.join("serve.log")).unwrap_or_default();
    assert!(status.success(), "serve exited {status}; log:\n{log}");

    let records = gapbs_telemetry::ledger::read(&ledger).expect("ledger readable");
    assert_eq!(records.len(), 1, "one query, one record; log:\n{log}");
    assert_eq!(records[0].kernel, "bfs");
    assert_eq!(records[0].graph, "Kron");
    drop(stream);
    std::fs::remove_dir_all(&dir).ok();
}
