//! Subprocess integration test for the experiment service (ISSUE 8): boot
//! the real `psyncd` binary on a temp socket, drive it with raw socket
//! clients and the `psync_client` binary, and exercise the full lifecycle —
//! submit → accepted → result, warm-cache resubmission answered
//! byte-identically, cancel, malformed requests, concurrent clients, and
//! SIGTERM graceful drain to exit 0.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use serde::Value;

/// Longest a test waits for one event or one `psync_client` run: a lost
/// event fails the test instead of blocking it forever.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// Daemon under test: spawned `psyncd` on a per-test temp socket, killed
/// (SIGKILL) on drop unless the test already waited it out.
struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    fn boot(tag: &str, extra_args: &[&str]) -> Daemon {
        let socket =
            std::env::temp_dir().join(format!("psyncd-it-{tag}-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&socket);
        let child = Command::new(env!("CARGO_BIN_EXE_psyncd"))
            .arg("--socket")
            .arg(&socket)
            .args(extra_args)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("psyncd spawns");
        let daemon = Daemon { child, socket };
        // Wait for the listener to come up.
        let deadline = Instant::now() + Duration::from_secs(20);
        while UnixStream::connect(&daemon.socket).is_err() {
            assert!(
                Instant::now() < deadline,
                "psyncd did not bind {} in time",
                daemon.socket.display()
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        daemon
    }

    fn connect(&self) -> Client {
        let s = UnixStream::connect(&self.socket).expect("connect to psyncd");
        s.set_read_timeout(Some(READ_TIMEOUT))
            .expect("set read timeout");
        let reader = BufReader::new(s.try_clone().expect("clone stream"));
        Client { writer: s, reader }
    }

    /// SIGTERM the daemon and assert it drains to exit 0.
    fn sigterm_and_wait(mut self) {
        let pid = self.child.id();
        let status = Command::new("kill")
            .args(["-TERM", &pid.to_string()])
            .status()
            .expect("kill runs");
        assert!(status.success(), "kill -TERM delivered");
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Some(status) = self.child.try_wait().expect("try_wait") {
                assert_eq!(status.code(), Some(0), "psyncd drains to exit 0");
                break;
            }
            assert!(Instant::now() < deadline, "psyncd did not drain in time");
            std::thread::sleep(Duration::from_millis(25));
        }
        assert!(
            !self.socket.exists(),
            "socket file removed on graceful exit"
        );
        // Disarm the drop killer.
        std::mem::forget(self);
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// Raw NDJSON client over the daemon socket.
struct Client {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Client {
    fn send(&mut self, line: &str) {
        writeln!(self.writer, "{line}").expect("write request");
    }

    fn recv_line(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read event");
        assert!(!line.is_empty(), "daemon closed the connection");
        line.trim_end().to_string()
    }

    fn recv(&mut self) -> Value {
        serde_json::from_str(&self.recv_line()).expect("event is JSON")
    }

    /// Read events until one of `kinds`; returns (raw line, parsed).
    fn recv_until(&mut self, kinds: &[&str]) -> (String, Value) {
        loop {
            let line = self.recv_line();
            let ev: Value = serde_json::from_str(&line).expect("event is JSON");
            let kind = ev
                .get("event")
                .and_then(Value::as_str)
                .expect("event field")
                .to_string();
            if kinds.contains(&kind.as_str()) {
                return (line, ev);
            }
        }
    }
}

fn event(v: &Value) -> &str {
    v.get("event").and_then(Value::as_str).expect("event field")
}

fn code(v: &Value) -> &str {
    v.get("code").and_then(Value::as_str).expect("code field")
}

const TINY_TABLE3: &str =
    r#"{"v":1,"verb":"submit","spec":{"family":"table3","procs":16,"row_len":8}}"#;

/// The headline lifecycle: submit → accepted → result, then an identical
/// resubmission is served from the warm cache — `cached:true`, zero extra
/// executions, and a byte-identical result document + fingerprint.
#[test]
fn submit_then_warm_cache_resubmit_is_byte_identical() {
    let daemon = Daemon::boot("cache", &["--workers", "2"]);
    let mut c = daemon.connect();

    c.send(TINY_TABLE3);
    let (_, acc) = c.recv_until(&["accepted", "error"]);
    assert_eq!(event(&acc), "accepted", "submit accepted: {acc:?}");
    assert_eq!(acc.get("family").and_then(Value::as_str), Some("table3"));
    let first_id = acc.get("job_id").and_then(Value::as_u64).expect("job id");
    let (first_line, first) = c.recv_until(&["result", "error"]);
    assert_eq!(event(&first), "result", "first run succeeds: {first_line}");
    assert_eq!(first.get("cached").and_then(Value::as_bool), Some(false));

    c.send(TINY_TABLE3);
    let (_, acc2) = c.recv_until(&["accepted"]);
    let second_id = acc2.get("job_id").and_then(Value::as_u64).expect("job id");
    assert_ne!(first_id, second_id, "a fresh job id per submission");
    let (second_line, second) = c.recv_until(&["result", "error"]);
    assert_eq!(event(&second), "result");
    assert_eq!(
        second.get("cached").and_then(Value::as_bool),
        Some(true),
        "identical resubmit must be served from the cache: {second_line}"
    );

    // Byte-identity: the event lines differ only in job_id; the embedded
    // result document and fingerprint must match exactly.
    assert_eq!(
        serde_json::to_string(first.get("result").expect("result doc")).unwrap(),
        serde_json::to_string(second.get("result").expect("result doc")).unwrap(),
        "cached result document must be byte-identical"
    );
    assert_eq!(
        first.get("fingerprint").and_then(Value::as_str),
        second.get("fingerprint").and_then(Value::as_str),
    );

    // The daemon's own accounting agrees: one miss (the build), at least
    // one hit (the cached resubmit), nothing evicted.
    c.send(r#"{"v":1,"verb":"status"}"#);
    let (_, status) = c.recv_until(&["status"]);
    let cache = status.get("cache").expect("cache stats");
    assert_eq!(cache.get("misses").and_then(Value::as_u64), Some(1));
    assert!(cache.get("hits").and_then(Value::as_u64).unwrap_or(0) >= 1);
    assert_eq!(cache.get("evictions").and_then(Value::as_u64), Some(0));

    daemon.sigterm_and_wait();
}

/// Two clients on separate connections submit the same spec concurrently:
/// both get results, the cache builds at most once (single-flight), and
/// progress/terminal events route to the right connection.
#[test]
fn concurrent_clients_share_the_single_flight_cache() {
    let daemon = Daemon::boot("concurrent", &["--workers", "2"]);
    let mut a = daemon.connect();
    let mut b = daemon.connect();
    a.send(TINY_TABLE3);
    b.send(TINY_TABLE3);
    let (_, ra) = a.recv_until(&["result", "error"]);
    let (_, rb) = b.recv_until(&["result", "error"]);
    assert_eq!(event(&ra), "result");
    assert_eq!(event(&rb), "result");
    assert_eq!(
        serde_json::to_string(ra.get("result").unwrap()).unwrap(),
        serde_json::to_string(rb.get("result").unwrap()).unwrap(),
        "both clients see the same result bytes"
    );
    let mut c = daemon.connect();
    c.send(r#"{"v":1,"verb":"status"}"#);
    let (_, status) = c.recv_until(&["status"]);
    assert_eq!(
        status
            .get("cache")
            .and_then(|v| v.get("misses"))
            .and_then(Value::as_u64),
        Some(1),
        "single-flight: the result was built exactly once: {status:?}"
    );
    daemon.sigterm_and_wait();
}

/// Malformed and invalid requests get structured error events with stable
/// machine-readable codes — and never wedge the connection.
#[test]
fn malformed_requests_get_structured_errors() {
    let daemon = Daemon::boot("malformed", &[]);
    let mut c = daemon.connect();

    c.send("this is not json");
    assert_eq!(code(&c.recv()), "bad_json");

    c.send(r#"{"verb":"ping"}"#);
    assert_eq!(code(&c.recv()), "bad_version");

    c.send(r#"{"v":2,"verb":"ping"}"#);
    assert_eq!(code(&c.recv()), "bad_version");

    c.send(r#"{"v":1,"verb":"frobnicate"}"#);
    assert_eq!(code(&c.recv()), "unknown_verb");

    c.send(r#"{"v":1,"verb":"submit","spec":{"family":"table3","procs":17}}"#);
    let ev = c.recv();
    assert_eq!(code(&ev), "bad_spec");
    assert!(
        ev.get("detail")
            .and_then(Value::as_str)
            .is_some_and(|d| d.contains("square")),
        "spec validation detail names the violated invariant: {ev:?}"
    );

    c.send(r#"{"v":1,"verb":"cancel","job_id":123456}"#);
    assert_eq!(code(&c.recv()), "unknown_job");

    // Unknown fields are tolerated (forward compatibility): still a pong.
    c.send(r#"{"v":1,"verb":"ping","future_field":[1,2,3]}"#);
    assert_eq!(event(&c.recv()), "pong");

    daemon.sigterm_and_wait();
}

/// Cancelling a running job routes through the CancelToken → Interrupt
/// path: the fabric stops at a poll boundary and the client gets the
/// structured `cancelled` error, not a result.
#[test]
fn cancel_interrupts_a_running_job() {
    // One worker so the target job holds it; paper-sized mesh gives the
    // cancel a long window to land in.
    let daemon = Daemon::boot("cancel", &["--workers", "1"]);
    let mut c = daemon.connect();
    c.send(r#"{"v":1,"verb":"submit","spec":{"family":"table3","procs":256,"row_len":256}}"#);
    let (_, acc) = c.recv_until(&["accepted"]);
    let id = acc.get("job_id").and_then(Value::as_u64).expect("job id");
    // Cancel only once the job is running: a cancel that lands while it is
    // still queued never reaches the fabric's interrupt.
    let (_, running) = c.recv_until(&["progress", "result", "error"]);
    assert_eq!(event(&running), "progress", "job reports progress first");
    c.send(&format!(r#"{{"v":1,"verb":"cancel","job_id":{id}}}"#));
    let mut saw_ack = false;
    let terminal = loop {
        let ev = c.recv();
        match event(&ev) {
            "cancel_requested" => saw_ack = true,
            "result" | "error" => break ev,
            _ => {}
        }
    };
    assert!(saw_ack, "cancel verb acknowledged");
    assert_eq!(event(&terminal), "error", "no result after cancel");
    assert_eq!(code(&terminal), "cancelled");
    daemon.sigterm_and_wait();
}

/// SIGTERM during an in-flight job: the daemon stops accepting, finishes
/// the job, flushes its result to the client, and exits 0.
#[test]
fn sigterm_drains_inflight_work_before_exit() {
    let daemon = Daemon::boot("drain", &["--workers", "1"]);
    let mut c = daemon.connect();
    c.send(TINY_TABLE3);
    c.recv_until(&["accepted"]);
    // Deliver SIGTERM immediately — likely mid-job.
    let pid = daemon.child.id();
    assert!(Command::new("kill")
        .args(["-TERM", &pid.to_string()])
        .status()
        .expect("kill runs")
        .success());
    // The terminal event still arrives before the stream closes.
    let (_, terminal) = c.recv_until(&["result", "error"]);
    assert_eq!(event(&terminal), "result", "drain flushes the result");
    daemon.sigterm_and_wait();
}

/// Wait for `child`'s output, killing it and failing the test if it takes
/// longer than `limit`.
fn output_within(child: Child, limit: Duration) -> Output {
    let pid = child.id();
    let (tx, rx) = mpsc::channel();
    let waiter = std::thread::spawn(move || {
        let _ = tx.send(child.wait_with_output());
    });
    let out = rx.recv_timeout(limit);
    if out.is_err() {
        // Killing the client ends `wait_with_output`, so the join returns.
        let _ = Command::new("kill")
            .args(["-KILL", &pid.to_string()])
            .status();
    }
    waiter.join().expect("waiter thread");
    out.unwrap_or_else(|_| panic!("psync_client did not finish within {limit:?}"))
        .expect("psync_client runs")
}

/// The `psync_client` CLI end-to-end: ping, a family/preset submit, and
/// exit codes (0 result, 1 daemon error, 2 usage).
#[test]
fn psync_client_cli_round_trips() {
    let daemon = Daemon::boot("cli", &["--workers", "2"]);
    let socket = daemon.socket.to_str().expect("utf8 socket path");
    let client = |args: &[&str]| {
        let child = Command::new(env!("CARGO_BIN_EXE_psync_client"))
            .args(["--socket", socket])
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("psync_client spawns");
        output_within(child, READ_TIMEOUT)
    };

    let out = client(&["ping"]);
    assert_eq!(out.status.code(), Some(0), "ping exits 0");
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"pong\""));

    let out = client(&[
        "submit",
        "--spec",
        r#"{"family":"table3","procs":16,"row_len":8}"#,
    ]);
    assert_eq!(out.status.code(), Some(0), "successful submit exits 0");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("\"accepted\""),
        "streams accepted: {stdout}"
    );
    assert!(stdout.contains("\"result\""), "streams result: {stdout}");

    let out = client(&[
        "submit",
        "--spec",
        r#"{"family":"table3","procs":16,"row_len":8}"#,
    ]);
    assert_eq!(out.status.code(), Some(0), "resubmit exits 0");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("\"cached\":true"),
        "identical spec from a second CLI invocation → warm-cache hit"
    );

    // Family + preset shorthand (analytic family: fast even in debug).
    let out = client(&[
        "submit",
        "--family",
        "crosscheck_models",
        "--preset",
        "quick",
    ]);
    assert_eq!(out.status.code(), Some(0), "preset submit exits 0");
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"result\""));

    let out = client(&["submit", "--family", "no_such_family"]);
    assert_eq!(out.status.code(), Some(1), "daemon error exits 1");
    assert!(String::from_utf8_lossy(&out.stdout).contains("bad_spec"));

    let out = client(&["submit"]);
    assert_eq!(out.status.code(), Some(2), "usage error exits 2");

    let out = client(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2), "unknown verb exits 2");

    daemon.sigterm_and_wait();
}
