//! The `psyncd` daemon runtime: accept loop, per-connection handlers, the
//! report reaper, the progress pump, and graceful drain.
//!
//! # Threading model
//!
//! * **accept loop** — [`serve`]'s calling thread; non-blocking accept
//!   polled against the shutdown latch.
//! * **one handler thread per connection** — reads newline-delimited
//!   requests, answers `status`/`list`/`cancel`/`ping` inline, and submits
//!   experiment jobs to the shared [`Supervisor`] pool.
//! * **reaper thread** — drains [`JobReport`]s from the pool and writes
//!   each job's terminal `result`/`error` event to the connection that
//!   submitted it.
//! * **progress pump** — samples every tracked job's [`Progress`] probe
//!   (fed by the fabric's interrupt polls) and streams `progress` events
//!   when the counter advances.
//!
//! All writes to one connection go through a mutex so event lines never
//! interleave. A client that disconnects mid-job loses its event stream
//! but not the job: the result still lands in the cache, so resubmitting
//! the same spec is answered instantly.
//!
//! # Shutdown
//!
//! SIGTERM (install via [`install_sigterm`], or trip the [`serve`]
//! `shutdown` latch directly) stops the accept loop, flips the service
//! into draining (new submits are refused with `shutting_down`), waits for
//! every outstanding job's terminal event to be flushed, shuts the pool
//! down, removes the socket file, and returns so the bin can exit 0.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write as _};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use serde::Value;
use sim_core::cancel::{CancelToken, Progress};

use crate::cache::ResultCache;
use crate::jobs::supervised_work;
use crate::supervisor::{JobError, JobReport, Supervisor, SupervisorConfig, Work};

use super::protocol::{
    event_accepted, event_cancel_requested, event_error, event_pong, event_progress, event_result,
    event_with, parse_request, ErrorCode, Request,
};

/// Latch set by the SIGTERM handler; polled by every [`serve`] loop (in
/// practice one daemon per process).
static SIGTERM: AtomicBool = AtomicBool::new(false);

/// Route SIGTERM to the graceful-drain latch instead of killing the
/// process (async-signal-safe: the handler is a single atomic store).
pub fn install_sigterm() {
    const SIGTERM_NO: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_sigterm(_: i32) {
        SIGTERM.store(true, Ordering::Release);
    }

    unsafe {
        signal(SIGTERM_NO, on_sigterm as *const () as usize);
    }
}

/// Daemon configuration (the `psyncd` bin's flags).
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Unix socket path to listen on (a stale file is replaced).
    pub socket: PathBuf,
    /// Supervisor worker threads.
    pub workers: usize,
    /// Bounded job-queue capacity (beyond it, submits get `queue_full`).
    pub queue_cap: usize,
    /// Result-cache byte budget (`0` = unbounded).
    pub cache_budget_bytes: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            socket: PathBuf::from("psyncd.sock"),
            workers: 2,
            queue_cap: 16,
            cache_budget_bytes: 64 << 20,
        }
    }
}

/// Serialized writer for one connection: event lines never interleave.
type Writer = Arc<Mutex<UnixStream>>;

fn send(writer: &Writer, line: &str) {
    if let Ok(mut s) = writer.lock() {
        // A disconnected client is not an error worth surfacing: its jobs
        // still run and their results still cache.
        let _ = s.write_all(line.as_bytes());
        let _ = s.write_all(b"\n");
        let _ = s.flush();
    }
}

/// Job lifecycle states published to `status`/`list` (terminal states
/// leave the tracking map instead).
const STATE_QUEUED: u8 = 0;
const STATE_RUNNING: u8 = 1;

/// Per-job state shared between the handler that submitted it, the work
/// closure running it, the progress pump, and the reaper.
struct JobShared {
    name: String,
    family: &'static str,
    tag: Option<String>,
    state: AtomicU8,
    progress: Progress,
    cancel: CancelToken,
    /// Last progress counter streamed to the client (`u64::MAX` = none).
    progress_sent: AtomicU64,
}

struct JobRecord {
    shared: Arc<JobShared>,
    writer: Writer,
}

/// Everything the daemon's threads share.
struct ServiceState {
    sup: Supervisor,
    cache: Arc<ResultCache>,
    jobs: Mutex<HashMap<u64, JobRecord>>,
    /// Jobs accepted but not yet flushed a terminal event.
    outstanding: AtomicU64,
    draining: AtomicBool,
    cfg: ServiceConfig,
}

impl ServiceState {
    fn status_event(&self) -> String {
        let (queued, running) = {
            let jobs = self.jobs.lock().expect("jobs map lock poisoned");
            let queued = jobs
                .values()
                .filter(|r| r.shared.state.load(Ordering::Relaxed) == STATE_QUEUED)
                .count() as u64;
            (queued, jobs.len() as u64 - queued)
        };
        let cs = self.cache.stats();
        event_with(
            "status",
            vec![
                (
                    "jobs",
                    Value::Object(vec![
                        ("queued".to_string(), Value::UInt(queued)),
                        ("running".to_string(), Value::UInt(running)),
                        (
                            "outstanding".to_string(),
                            Value::UInt(self.outstanding.load(Ordering::Relaxed)),
                        ),
                        ("submitted".to_string(), Value::UInt(self.sup.submitted())),
                    ]),
                ),
                (
                    "cache",
                    Value::Object(vec![
                        ("hits".to_string(), Value::UInt(cs.hits)),
                        ("misses".to_string(), Value::UInt(cs.misses)),
                        ("evictions".to_string(), Value::UInt(cs.evictions)),
                        ("entries".to_string(), Value::UInt(cs.entries)),
                        ("bytes".to_string(), Value::UInt(cs.bytes)),
                        (
                            "budget_bytes".to_string(),
                            cs.budget_bytes.map_or(Value::Null, Value::UInt),
                        ),
                    ]),
                ),
                ("workers", Value::UInt(self.cfg.workers as u64)),
                ("respawns", Value::UInt(self.sup.respawns())),
                (
                    "draining",
                    Value::Bool(self.draining.load(Ordering::Relaxed)),
                ),
            ],
        )
    }

    fn list_event(&self) -> String {
        let jobs = self.jobs.lock().expect("jobs map lock poisoned");
        let mut rows: Vec<(u64, Value)> = jobs
            .iter()
            .map(|(&id, r)| {
                let state = match r.shared.state.load(Ordering::Relaxed) {
                    STATE_QUEUED => "queued",
                    _ => "running",
                };
                let mut fields = vec![
                    ("job_id".to_string(), Value::UInt(id)),
                    ("name".to_string(), Value::Str(r.shared.name.clone())),
                    (
                        "family".to_string(),
                        Value::Str(r.shared.family.to_string()),
                    ),
                    ("state".to_string(), Value::Str(state.to_string())),
                    (
                        "cycle".to_string(),
                        r.shared.progress.cycle().map_or(Value::Null, Value::UInt),
                    ),
                ];
                if let Some(t) = &r.shared.tag {
                    fields.push(("tag".to_string(), Value::Str(t.clone())));
                }
                (id, Value::Object(fields))
            })
            .collect();
        drop(jobs);
        rows.sort_by_key(|(id, _)| *id);
        event_with(
            "jobs",
            vec![(
                "jobs",
                Value::Array(rows.into_iter().map(|(_, v)| v).collect()),
            )],
        )
    }
}

/// One connection's request loop.
fn handle_connection(stream: UnixStream, state: Arc<ServiceState>) {
    let writer: Writer = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => return,
    };
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let req = match parse_request(&line) {
            Ok(req) => req,
            Err(e) => {
                send(&writer, &event_error(e.code, &e.detail, None));
                continue;
            }
        };
        match req {
            Request::Ping => send(&writer, &event_pong()),
            Request::Status => send(&writer, &state.status_event()),
            Request::List => send(&writer, &state.list_event()),
            Request::Cancel { job_id } => {
                let jobs = state.jobs.lock().expect("jobs map lock poisoned");
                match jobs.get(&job_id) {
                    Some(rec) => {
                        rec.shared.cancel.cancel();
                        drop(jobs);
                        send(&writer, &event_cancel_requested(job_id));
                    }
                    None => {
                        drop(jobs);
                        send(
                            &writer,
                            &event_error(
                                ErrorCode::UnknownJob,
                                &format!(
                                    "job {job_id} is not tracked (unknown or already finished)"
                                ),
                                Some(job_id),
                            ),
                        );
                    }
                }
            }
            Request::Submit {
                spec,
                timeout_s,
                tag,
            } => {
                if state.draining.load(Ordering::Acquire) {
                    send(
                        &writer,
                        &event_error(
                            ErrorCode::ShuttingDown,
                            "daemon is draining after SIGTERM; not accepting new jobs",
                            None,
                        ),
                    );
                    continue;
                }
                let family = spec.family();
                let token = CancelToken::new();
                let progress = Progress::new();
                let work_inner = supervised_work(
                    spec,
                    timeout_s,
                    Arc::clone(&state.cache),
                    Some(&token),
                    Some(progress.clone()),
                );
                // Hold the jobs lock across submit + insert so the reaper
                // (which takes the same lock to find the writer) can never
                // observe a report for a job not yet in the map.
                let mut jobs = state.jobs.lock().expect("jobs map lock poisoned");
                if state.draining.load(Ordering::Acquire) {
                    drop(jobs);
                    send(
                        &writer,
                        &event_error(
                            ErrorCode::ShuttingDown,
                            "daemon is draining after SIGTERM; not accepting new jobs",
                            None,
                        ),
                    );
                    continue;
                }
                // Successful submits are numbered densely, so the count so
                // far is exactly the id the pool will assign.
                let name = format!("{family}-{}", state.sup.submitted());
                let shared = Arc::new(JobShared {
                    name: name.clone(),
                    family,
                    tag,
                    state: AtomicU8::new(STATE_QUEUED),
                    progress,
                    cancel: token,
                    progress_sent: AtomicU64::new(u64::MAX),
                });
                let mark = Arc::clone(&shared);
                let work: Arc<Work> = Arc::new(move |intr| {
                    mark.state.store(STATE_RUNNING, Ordering::Relaxed);
                    work_inner(intr)
                });
                match state.sup.submit(&name, timeout_s, work) {
                    Ok(id) => {
                        state.outstanding.fetch_add(1, Ordering::AcqRel);
                        jobs.insert(
                            id,
                            JobRecord {
                                shared: Arc::clone(&shared),
                                writer: Arc::clone(&writer),
                            },
                        );
                        // Still under the jobs lock: the reaper and the
                        // progress pump reach a job only through this map,
                        // so neither can write its `result` or `progress`
                        // ahead of `accepted`. Lock order: jobs, then writer.
                        send(
                            &writer,
                            &event_accepted(id, family, &name, shared.tag.as_deref()),
                        );
                        drop(jobs);
                    }
                    Err(JobError::QueueFull { retry_after_ms }) => {
                        drop(jobs);
                        send(
                            &writer,
                            &event_error(
                                ErrorCode::QueueFull,
                                &format!(
                                    "job queue is full ({} slots); retry after {retry_after_ms} ms",
                                    state.cfg.queue_cap
                                ),
                                None,
                            ),
                        );
                    }
                    Err(e) => {
                        drop(jobs);
                        send(
                            &writer,
                            &event_error(ErrorCode::JobFailed, &e.to_string(), None),
                        );
                    }
                }
            }
        }
    }
}

/// Route one terminal report to the submitting connection.
fn reap(state: &ServiceState, report: JobReport) {
    let record = state
        .jobs
        .lock()
        .expect("jobs map lock poisoned")
        .remove(&report.id);
    let Some(record) = record else {
        // Can't happen (submit inserts before the worker can run), but a
        // missing record must still balance the outstanding counter.
        state.outstanding.fetch_sub(1, Ordering::AcqRel);
        return;
    };
    let tag = record.shared.tag.as_deref();
    let line = match &report.result {
        Ok(s) => event_result(
            report.id,
            s.cached,
            s.fingerprint,
            report.attempts,
            &s.json,
            tag,
        ),
        Err(JobError::Cancelled { detail }) => {
            event_error(ErrorCode::Cancelled, detail, Some(report.id))
        }
        Err(JobError::Panicked { payload }) => event_error(
            ErrorCode::JobFailed,
            &format!("panicked: {payload}"),
            Some(report.id),
        ),
        Err(e) => event_error(ErrorCode::JobFailed, &e.to_string(), Some(report.id)),
    };
    send(&record.writer, &line);
    // Decrement only after the terminal event is flushed: the SIGTERM
    // drain waits on this counter, so every accepted job's outcome is on
    // the wire before the daemon exits.
    state.outstanding.fetch_sub(1, Ordering::AcqRel);
}

/// Stream `progress` events for every tracked job whose probe advanced.
fn pump_progress(state: &ServiceState) {
    let jobs = state.jobs.lock().expect("jobs map lock poisoned");
    let snapshot: Vec<(u64, Arc<JobShared>, Writer)> = jobs
        .iter()
        .map(|(&id, r)| (id, Arc::clone(&r.shared), Arc::clone(&r.writer)))
        .collect();
    drop(jobs);
    for (id, shared, writer) in snapshot {
        if let Some(cycle) = shared.progress.cycle() {
            if shared.progress_sent.swap(cycle, Ordering::Relaxed) != cycle {
                send(&writer, &event_progress(id, cycle));
            }
        }
    }
}

/// Run the daemon on `cfg.socket` until the `shutdown` latch (or the
/// process-wide SIGTERM latch, see [`install_sigterm`]) trips, then drain:
/// refuse new jobs, flush every outstanding job's terminal event, shut the
/// pool down, and remove the socket file.
///
/// # Errors
/// Socket setup failures (bind/permission); everything after the listener
/// is up is handled, not returned.
pub fn serve(cfg: ServiceConfig, shutdown: Arc<AtomicBool>) -> std::io::Result<()> {
    // A stale socket file from a crashed daemon would fail the bind.
    if cfg.socket.exists() {
        std::fs::remove_file(&cfg.socket)?;
    }
    let listener = UnixListener::bind(&cfg.socket)?;
    listener.set_nonblocking(true)?;

    let state = Arc::new(ServiceState {
        sup: Supervisor::new(SupervisorConfig {
            workers: cfg.workers,
            queue_cap: cfg.queue_cap,
        }),
        cache: Arc::new(if cfg.cache_budget_bytes > 0 {
            ResultCache::with_budget_bytes(cfg.cache_budget_bytes)
        } else {
            ResultCache::new()
        }),
        jobs: Mutex::new(HashMap::new()),
        outstanding: AtomicU64::new(0),
        draining: AtomicBool::new(false),
        cfg: cfg.clone(),
    });

    let stop = Arc::new(AtomicBool::new(false));
    let reaper = {
        let state = Arc::clone(&state);
        let stop = Arc::clone(&stop);
        std::thread::Builder::new()
            .name("psyncd-reaper".to_string())
            .spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    if let Some(report) = state.sup.recv_timeout(Duration::from_millis(50)) {
                        reap(&state, report);
                    }
                }
            })
            .expect("spawn reaper thread")
    };
    let pump = {
        let state = Arc::clone(&state);
        let stop = Arc::clone(&stop);
        std::thread::Builder::new()
            .name("psyncd-progress".to_string())
            .spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    pump_progress(&state);
                    std::thread::sleep(Duration::from_millis(25));
                }
            })
            .expect("spawn progress pump")
    };

    eprintln!(
        "psyncd: listening on {} ({} worker(s), queue {}, cache budget {} bytes)",
        cfg.socket.display(),
        cfg.workers,
        cfg.queue_cap,
        cfg.cache_budget_bytes,
    );
    let tripped = || SIGTERM.load(Ordering::Acquire) || shutdown.load(Ordering::Acquire);
    while !tripped() {
        match listener.accept() {
            Ok((stream, _addr)) => {
                let state = Arc::clone(&state);
                let _ = std::thread::Builder::new()
                    .name("psyncd-conn".to_string())
                    .spawn(move || handle_connection(stream, state));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) => {
                eprintln!("psyncd: accept failed: {e}");
                std::thread::sleep(Duration::from_millis(25));
            }
        }
    }

    // Graceful drain: refuse new submits, then wait for every accepted
    // job's terminal event to be flushed by the reaper.
    state.draining.store(true, Ordering::Release);
    // Barrier: any submit that raced past the draining check has finished
    // inserting once we can take the jobs lock.
    drop(state.jobs.lock().expect("jobs map lock poisoned"));
    eprintln!(
        "psyncd: SIGTERM — draining {} outstanding job(s)...",
        state.outstanding.load(Ordering::Acquire)
    );
    while state.outstanding.load(Ordering::Acquire) > 0 {
        std::thread::sleep(Duration::from_millis(25));
    }
    stop.store(true, Ordering::Release);
    let _ = reaper.join();
    let _ = pump.join();
    state.sup.shutdown();
    let _ = std::fs::remove_file(&cfg.socket);
    eprintln!("psyncd: drained, exiting");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};

    /// Longest a test client waits for one event: a lost event fails the
    /// test instead of blocking it forever.
    const READ_TIMEOUT: Duration = Duration::from_secs(60);

    fn temp_socket(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("psyncd-test-{}-{tag}.sock", std::process::id()))
    }

    struct Client {
        writer: UnixStream,
        reader: BufReader<UnixStream>,
    }

    impl Client {
        fn connect(path: &PathBuf) -> Client {
            // The daemon thread needs a moment to bind.
            for _ in 0..200 {
                if let Ok(s) = UnixStream::connect(path) {
                    s.set_read_timeout(Some(READ_TIMEOUT))
                        .expect("set read timeout");
                    let reader = BufReader::new(s.try_clone().expect("clone stream"));
                    return Client { writer: s, reader };
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            panic!("daemon did not come up on {}", path.display());
        }

        fn send(&mut self, line: &str) {
            writeln!(self.writer, "{line}").expect("write request");
        }

        fn recv(&mut self) -> Value {
            let mut line = String::new();
            self.reader.read_line(&mut line).expect("read event");
            assert!(!line.is_empty(), "daemon closed the connection");
            serde_json::from_str(line.trim_end()).expect("event is JSON")
        }

        /// Read events until one of `kinds`; returns it.
        fn recv_until(&mut self, kinds: &[&str]) -> Value {
            loop {
                let ev = self.recv();
                let kind = ev
                    .get("event")
                    .and_then(Value::as_str)
                    .expect("event field")
                    .to_string();
                if kinds.contains(&kind.as_str()) {
                    return ev;
                }
            }
        }
    }

    fn with_daemon(tag: &str, cfg: ServiceConfig, f: impl FnOnce(&PathBuf)) {
        let socket = temp_socket(tag);
        let cfg = ServiceConfig {
            socket: socket.clone(),
            ..cfg
        };
        let shutdown = Arc::new(AtomicBool::new(false));
        let latch = Arc::clone(&shutdown);
        let daemon = std::thread::spawn(move || serve(cfg, latch));
        f(&socket);
        shutdown.store(true, Ordering::Release);
        daemon.join().expect("daemon thread").expect("serve ok");
        assert!(!socket.exists(), "socket file removed on drain");
    }

    #[test]
    fn ping_status_and_errors_over_the_socket() {
        with_daemon("ping", ServiceConfig::default(), |socket| {
            let mut c = Client::connect(socket);
            c.send(r#"{"v":1,"verb":"ping"}"#);
            assert_eq!(c.recv().get("event").and_then(Value::as_str), Some("pong"));

            c.send("garbage");
            let ev = c.recv();
            assert_eq!(ev.get("code").and_then(Value::as_str), Some("bad_json"));

            c.send(r#"{"v":9,"verb":"ping"}"#);
            let ev = c.recv();
            assert_eq!(ev.get("code").and_then(Value::as_str), Some("bad_version"));

            c.send(r#"{"v":1,"verb":"cancel","job_id":42}"#);
            let ev = c.recv();
            assert_eq!(ev.get("code").and_then(Value::as_str), Some("unknown_job"));

            c.send(r#"{"v":1,"verb":"status"}"#);
            let ev = c.recv();
            assert_eq!(ev.get("event").and_then(Value::as_str), Some("status"));
            assert_eq!(
                ev.get("cache")
                    .and_then(|c| c.get("misses"))
                    .and_then(Value::as_u64),
                Some(0)
            );
            assert_eq!(ev.get("draining").and_then(Value::as_bool), Some(false));
        });
    }

    #[test]
    fn submit_runs_then_identical_resubmit_hits_the_cache() {
        with_daemon("cache", ServiceConfig::default(), |socket| {
            let mut c = Client::connect(socket);
            let submit = r#"{"v":1,"verb":"submit","spec":{"family":"table3","procs":16,"row_len":8},"tag":"a"}"#;
            c.send(submit);
            let acc = c.recv_until(&["accepted", "error"]);
            assert_eq!(acc.get("event").and_then(Value::as_str), Some("accepted"));
            assert_eq!(acc.get("family").and_then(Value::as_str), Some("table3"));
            let first = c.recv_until(&["result", "error"]);
            assert_eq!(first.get("event").and_then(Value::as_str), Some("result"));
            assert_eq!(first.get("cached").and_then(Value::as_bool), Some(false));
            assert_eq!(first.get("tag").and_then(Value::as_str), Some("a"));

            c.send(submit);
            c.recv_until(&["accepted"]);
            let second = c.recv_until(&["result", "error"]);
            assert_eq!(second.get("cached").and_then(Value::as_bool), Some(true));
            // Byte-identical result document and fingerprint.
            assert_eq!(
                serde_json::to_string(first.get("result").unwrap()).unwrap(),
                serde_json::to_string(second.get("result").unwrap()).unwrap(),
            );
            assert_eq!(
                first.get("fingerprint").and_then(Value::as_str),
                second.get("fingerprint").and_then(Value::as_str),
            );

            c.send(r#"{"v":1,"verb":"status"}"#);
            let status = c.recv_until(&["status"]);
            let cache = status.get("cache").expect("cache stats");
            assert_eq!(cache.get("misses").and_then(Value::as_u64), Some(1));
            assert!(cache.get("hits").and_then(Value::as_u64).unwrap_or(0) >= 1);
        });
    }

    #[test]
    fn accepted_precedes_every_result_on_a_cache_hit() {
        // Every resubmit is a cache hit that finishes at once, racing its
        // own `accepted` onto the wire. The queue holds them all.
        const RESUBMITS: usize = 200;
        let cfg = ServiceConfig {
            queue_cap: RESUBMITS,
            ..ServiceConfig::default()
        };
        with_daemon("order", cfg, |socket| {
            let mut c = Client::connect(socket);
            let submit =
                r#"{"v":1,"verb":"submit","spec":{"family":"table3","procs":16,"row_len":8}}"#;
            c.send(submit);
            c.recv_until(&["result", "error"]);
            for _ in 0..RESUBMITS {
                c.send(submit);
            }
            let mut accepted = std::collections::HashSet::new();
            let mut results = 0;
            while results < RESUBMITS {
                let ev = c.recv();
                let id = ev.get("job_id").and_then(Value::as_u64);
                match ev.get("event").and_then(Value::as_str) {
                    Some("accepted") => assert!(accepted.insert(id.expect("job id"))),
                    Some(kind @ ("progress" | "result")) => {
                        let id = id.expect("job id");
                        assert!(accepted.contains(&id), "job {id}: {kind} before accepted");
                        results += usize::from(kind == "result");
                    }
                    other => panic!("unexpected event {other:?}: {ev:?}"),
                }
            }
        });
    }

    #[test]
    fn cancel_interrupts_a_running_job() {
        // One worker so the job is alone; a paper-sized mesh gives the
        // cancel plenty of simulation to land in.
        let cfg = ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        };
        with_daemon("cancel", cfg, |socket| {
            let mut c = Client::connect(socket);
            c.send(
                r#"{"v":1,"verb":"submit","spec":{"family":"table3","procs":256,"row_len":256}}"#,
            );
            let acc = c.recv_until(&["accepted"]);
            let id = acc.get("job_id").and_then(Value::as_u64).expect("job id");
            // Cancel only once the mesh is polling its interrupt: a cancel
            // that lands while the job is still queued stops it before the
            // attempt starts, which is not the path under test.
            let running = c.recv_until(&["progress", "result", "error"]);
            assert_eq!(
                running.get("event").and_then(Value::as_str),
                Some("progress"),
                "job reports progress before it finishes: {running:?}"
            );
            c.send(&format!(r#"{{"v":1,"verb":"cancel","job_id":{id}}}"#));
            let mut saw_cancel_ack = false;
            let terminal = loop {
                let ev = c.recv();
                match ev.get("event").and_then(Value::as_str) {
                    Some("cancel_requested") => saw_cancel_ack = true,
                    Some("result") | Some("error") => break ev,
                    _ => {}
                }
            };
            assert!(saw_cancel_ack);
            assert_eq!(
                terminal.get("event").and_then(Value::as_str),
                Some("error"),
                "cancelled job must not produce a result"
            );
            assert_eq!(
                terminal.get("code").and_then(Value::as_str),
                Some("cancelled")
            );
            assert!(terminal
                .get("detail")
                .and_then(Value::as_str)
                .is_some_and(|d| d.contains("Cancelled")));
        });
    }

    #[test]
    fn drain_flushes_inflight_results_before_exit() {
        let socket = temp_socket("drain");
        let cfg = ServiceConfig {
            socket: socket.clone(),
            workers: 1,
            ..ServiceConfig::default()
        };
        let shutdown = Arc::new(AtomicBool::new(false));
        let latch = Arc::clone(&shutdown);
        let daemon = std::thread::spawn(move || serve(cfg, latch));
        let mut c = Client::connect(&socket);
        c.send(r#"{"v":1,"verb":"submit","spec":{"family":"table3","procs":16,"row_len":8}}"#);
        c.recv_until(&["accepted"]);
        // Trip the latch while the job is (likely) still running: the
        // terminal event must still arrive before the daemon exits.
        shutdown.store(true, Ordering::Release);
        let terminal = c.recv_until(&["result", "error"]);
        assert_eq!(
            terminal.get("event").and_then(Value::as_str),
            Some("result")
        );
        daemon.join().expect("daemon thread").expect("serve ok");
        // Submits after the drain are refused (fresh connection: the old
        // socket is gone).
        assert!(!socket.exists());
    }
}
