//! Supervised job execution for experiment batches.
//!
//! A [`Supervisor`] owns a small pool of worker threads fed from a
//! **bounded** queue. Each submitted job runs with:
//!
//! * **panic isolation** — the job body runs under `catch_unwind`; a panic
//!   becomes a structured [`JobError::Panicked`] report (payload string
//!   preserved) and the worker *respawns itself* with a fresh stack before
//!   exiting, so one poisoned experiment cannot take the pool down;
//! * **a per-job deadline** — `timeout_s` arms a [`Deadline`] inside the
//!   [`Interrupt`] handed to the job, which the fabrics poll at cycle
//!   granularity;
//! * **one attempt** — a job body runs once. The simulators are
//!   deterministic (fault draws included), so running a failed body again
//!   would replay the same failure;
//! * **backpressure** — submitting to a full queue fails fast with
//!   [`JobError::QueueFull`] carrying a suggested retry delay, instead of
//!   blocking the producer;
//! * **cooperative cancellation** — [`Supervisor::cancel_all`] trips a
//!   shared [`CancelToken`]; running jobs are
//!   cancelled mid-simulation by their interrupt, queued jobs report
//!   [`JobError::Cancelled`] without running, and the batch drains cleanly
//!   (the SIGINT path in `run_batch`).
//!
//! Every submitted job produces exactly one [`JobReport`], success or not —
//! the invariant the drain loop counts on.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Duration;

use sim_core::cancel::{CancelToken, CancelWatch, Deadline, Interrupt};

/// Producer-side delay [`JobError::QueueFull`] suggests before a resubmit,
/// milliseconds.
const QUEUE_FULL_RETRY_MS: u64 = 10;

/// Pool sizing.
#[derive(Debug, Clone, Copy)]
pub struct SupervisorConfig {
    /// Worker threads (≥ 1).
    pub workers: usize,
    /// Bounded queue capacity; a submit beyond this fails with
    /// [`JobError::QueueFull`].
    pub queue_cap: usize,
}

/// What a job body returns on success.
#[derive(Debug, Clone)]
pub struct JobSuccess {
    /// The result bytes (JSON) the job produced or fetched from the cache.
    pub json: String,
    /// Whether the bytes came from the result cache.
    pub cached: bool,
    /// FNV-1a fingerprint of `json` (the perf-gate witness).
    pub fingerprint: u64,
}

/// How a job body failed; the supervisor reports each variant as its
/// matching [`JobError`].
#[derive(Debug, Clone)]
pub enum WorkError {
    /// The job's interrupt fired (deadline, cancel-all token, …).
    Cancelled {
        /// The fabric's structured cancellation message.
        detail: String,
    },
    /// Any other failure (bad configuration, fabric error, simulation bug).
    Fatal {
        /// What went wrong.
        detail: String,
    },
}

impl std::fmt::Display for WorkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkError::Cancelled { detail } => write!(f, "Cancelled: {detail}"),
            WorkError::Fatal { detail } => write!(f, "{detail}"),
        }
    }
}

impl std::error::Error for WorkError {}

/// Terminal failure recorded in a [`JobReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The job body panicked; the worker respawned.
    Panicked {
        /// The panic payload, stringified.
        payload: String,
    },
    /// The job was cancelled (deadline or batch-wide cancel).
    Cancelled {
        /// The structured cancellation message.
        detail: String,
    },
    /// The job body returned a [`WorkError::Fatal`].
    Failed {
        /// What went wrong.
        detail: String,
    },
    /// The submit was rejected: the bounded queue is full. Carries a
    /// suggested producer-side delay before resubmitting.
    QueueFull {
        /// Suggested wait before retrying the submit, milliseconds.
        retry_after_ms: u64,
    },
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Panicked { payload } => write!(f, "panicked: {payload}"),
            JobError::Cancelled { detail } => write!(f, "Cancelled: {detail}"),
            JobError::Failed { detail } => write!(f, "failed: {detail}"),
            JobError::QueueFull { retry_after_ms } => {
                write!(f, "queue full; retry after {retry_after_ms} ms")
            }
        }
    }
}

impl std::error::Error for JobError {}

/// One report per submitted job — the supervisor's only output channel.
#[derive(Debug)]
pub struct JobReport {
    /// The id `submit` returned.
    pub id: u64,
    /// The job's name.
    pub name: String,
    /// Attempts made: 1, or 0 when cancelled before the job started.
    pub attempts: u32,
    /// The outcome.
    pub result: Result<JobSuccess, JobError>,
}

/// A job body: takes the interrupt the supervisor armed for it (deadline +
/// batch cancel token; `None` when neither is configured) and returns the
/// result bytes.
pub type Work = dyn Fn(Option<Interrupt>) -> Result<JobSuccess, WorkError> + Send + Sync;

struct Job {
    id: u64,
    name: String,
    timeout_s: Option<f64>,
    work: Arc<Work>,
}

/// Queue states: open (accepting + serving), or closed (serve remainder,
/// then workers exit).
struct Queue {
    jobs: VecDeque<Job>,
    closed: bool,
}

struct Shared {
    cfg: SupervisorConfig,
    queue: Mutex<Queue>,
    queue_changed: Condvar,
    reports: mpsc::Sender<JobReport>,
    cancel: CancelToken,
    /// Watch armed at pool construction: any `cancel_all` after that is
    /// visible to every worker.
    watch: CancelWatch,
    live_workers: Mutex<usize>,
    workers_changed: Condvar,
    respawns: AtomicU64,
}

impl Shared {
    fn pop(&self) -> Option<Job> {
        let mut q = self.queue.lock().expect("queue lock poisoned");
        loop {
            if let Some(job) = q.jobs.pop_front() {
                return Some(job);
            }
            if q.closed {
                return None;
            }
            q = self.queue_changed.wait(q).expect("queue lock poisoned");
        }
    }
}

/// The worker pool. Dropping it without calling [`Supervisor::shutdown`]
/// closes the queue and detaches the workers (they finish the backlog).
pub struct Supervisor {
    shared: Arc<Shared>,
    /// Behind a mutex so a `Supervisor` can be shared (`Arc`) across the
    /// daemon's connection handlers and reaper thread; only one consumer
    /// drains reports at a time.
    reports: Mutex<mpsc::Receiver<JobReport>>,
    next_id: AtomicU64,
    submitted: AtomicU64,
}

impl Supervisor {
    /// Spawn the pool.
    ///
    /// # Panics
    /// On `workers == 0` or `queue_cap == 0` (a misconfigured harness, not
    /// a runtime condition), or if the OS refuses to spawn a thread.
    pub fn new(cfg: SupervisorConfig) -> Self {
        assert!(cfg.workers >= 1, "supervisor needs at least one worker");
        assert!(cfg.queue_cap >= 1, "queue capacity must be positive");
        let (tx, rx) = mpsc::channel();
        let cancel = CancelToken::new();
        let shared = Arc::new(Shared {
            cfg,
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                closed: false,
            }),
            queue_changed: Condvar::new(),
            reports: tx,
            watch: cancel.watch(),
            cancel,
            live_workers: Mutex::new(cfg.workers),
            workers_changed: Condvar::new(),
            respawns: AtomicU64::new(0),
        });
        for idx in 0..cfg.workers {
            spawn_worker(Arc::clone(&shared), idx, 0);
        }
        Supervisor {
            shared,
            reports: Mutex::new(rx),
            next_id: AtomicU64::new(0),
            submitted: AtomicU64::new(0),
        }
    }

    /// Enqueue a job. Returns its id, or [`JobError::QueueFull`] when the
    /// bounded queue is at capacity (nothing is enqueued; resubmit after
    /// the suggested delay).
    pub fn submit(
        &self,
        name: impl Into<String>,
        timeout_s: Option<f64>,
        work: Arc<Work>,
    ) -> Result<u64, JobError> {
        let name = name.into();
        let mut q = self.shared.queue.lock().expect("queue lock poisoned");
        assert!(!q.closed, "submit after shutdown");
        if q.jobs.len() >= self.shared.cfg.queue_cap {
            return Err(JobError::QueueFull {
                retry_after_ms: QUEUE_FULL_RETRY_MS,
            });
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        q.jobs.push_back(Job {
            id,
            name,
            timeout_s,
            work,
        });
        drop(q);
        self.submitted.fetch_add(1, Ordering::Relaxed);
        self.shared.queue_changed.notify_one();
        Ok(id)
    }

    /// Jobs accepted so far (each will produce exactly one report).
    pub fn submitted(&self) -> u64 {
        self.submitted.load(Ordering::Relaxed)
    }

    /// Workers respawned after a panic so far.
    pub fn respawns(&self) -> u64 {
        self.shared.respawns.load(Ordering::Relaxed)
    }

    /// Trip the batch-wide cancel token: running jobs are interrupted at
    /// their fabrics' next poll, queued jobs report `Cancelled` without
    /// running. Safe to call from a signal-handler-adjacent context (the
    /// token is a single atomic store).
    pub fn cancel_all(&self) {
        self.shared.cancel.cancel();
        // Wake idle workers so a cancelled empty batch still drains.
        self.shared.queue_changed.notify_all();
    }

    /// Wait up to `timeout` for the next report. `None` on timeout or when
    /// every worker has exited and no report is pending.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<JobReport> {
        self.reports
            .lock()
            .expect("report receiver lock poisoned")
            .recv_timeout(timeout)
            .ok()
    }

    /// Close the queue, wait for the workers to finish the backlog, and
    /// return every report not yet consumed via
    /// [`Supervisor::recv_timeout`], in completion order. The supervisor
    /// stays queryable afterwards ([`Supervisor::respawns`] etc.), but
    /// further submits panic.
    pub fn shutdown(&self) -> Vec<JobReport> {
        {
            let mut q = self.shared.queue.lock().expect("queue lock poisoned");
            q.closed = true;
        }
        self.shared.queue_changed.notify_all();
        {
            let mut live = self
                .shared
                .live_workers
                .lock()
                .expect("worker count lock poisoned");
            while *live > 0 {
                live = self
                    .shared
                    .workers_changed
                    .wait(live)
                    .expect("worker count lock poisoned");
            }
        }
        self.reports
            .lock()
            .expect("report receiver lock poisoned")
            .try_iter()
            .collect()
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        // Close the queue so idle workers exit instead of blocking forever;
        // busy workers finish the backlog detached.
        if let Ok(mut q) = self.shared.queue.lock() {
            q.closed = true;
        }
        self.shared.queue_changed.notify_all();
    }
}

fn spawn_worker(shared: Arc<Shared>, idx: usize, generation: u64) {
    std::thread::Builder::new()
        // `run_batch` suppresses default panic-hook noise for threads with
        // this name prefix, so keep it in sync with the bin.
        .name(format!("sup-worker-{idx}-g{generation}"))
        .spawn(move || worker_loop(shared, idx, generation))
        .expect("spawn supervisor worker");
}

fn worker_loop(shared: Arc<Shared>, idx: usize, generation: u64) {
    while let Some(job) = shared.pop() {
        let report = run_job(&shared, &job);
        let panicked = matches!(report.result, Err(JobError::Panicked { .. }));
        // The receiver outlives the workers (the Supervisor holds it until
        // shutdown returns); a send failure means the whole pool was
        // abandoned, in which case dropping the report is the only option.
        let _ = shared.reports.send(report);
        if panicked {
            // Replace ourselves with a fresh stack: bump the live count
            // *before* this thread exits so shutdown can never observe a
            // moment with the worker missing.
            {
                let mut live = shared
                    .live_workers
                    .lock()
                    .expect("worker count lock poisoned");
                *live += 1;
            }
            shared.respawns.fetch_add(1, Ordering::Relaxed);
            spawn_worker(Arc::clone(&shared), idx, generation + 1);
            break;
        }
    }
    let mut live = shared
        .live_workers
        .lock()
        .expect("worker count lock poisoned");
    *live -= 1;
    drop(live);
    shared.workers_changed.notify_all();
}

/// Run one job to a terminal report: cancel check, deadline, panic
/// isolation.
fn run_job(shared: &Shared, job: &Job) -> JobReport {
    let report = |attempts, result| JobReport {
        id: job.id,
        name: job.name.clone(),
        attempts,
        result,
    };
    // Batch-wide cancellation wins before starting work.
    if shared.watch.is_cancelled() {
        return report(
            0,
            Err(JobError::Cancelled {
                detail: "batch cancelled before the attempt started".to_string(),
            }),
        );
    }
    let mut intr = Interrupt::new().with_watch(shared.watch.clone());
    if let Some(s) = job.timeout_s {
        intr = intr.with_deadline(Deadline::after_secs_f64(s));
    }
    let result = match catch_unwind(AssertUnwindSafe(|| (job.work)(Some(intr)))) {
        Err(payload) => Err(JobError::Panicked {
            payload: panic_payload_string(payload.as_ref()),
        }),
        Ok(Ok(success)) => Ok(success),
        Ok(Err(WorkError::Cancelled { detail })) => Err(JobError::Cancelled { detail }),
        Ok(Err(WorkError::Fatal { detail })) => Err(JobError::Failed { detail }),
    };
    report(1, result)
}

/// Stringify a `catch_unwind` payload: `&str` and `String` payloads (the
/// ones `panic!` produces) verbatim, anything else a placeholder.
fn panic_payload_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::fnv1a64;
    use std::sync::atomic::AtomicU32;

    fn quiet_cfg() -> SupervisorConfig {
        SupervisorConfig {
            workers: 2,
            queue_cap: 8,
        }
    }

    fn ok_work(json: &str) -> Arc<Work> {
        let json = json.to_string();
        Arc::new(move |_| {
            Ok(JobSuccess {
                fingerprint: fnv1a64(json.as_bytes()),
                json: json.clone(),
                cached: false,
            })
        })
    }

    #[test]
    fn completes_jobs_and_reports_each_exactly_once() {
        let sup = Supervisor::new(quiet_cfg());
        for i in 0..5 {
            sup.submit(format!("job-{i}"), None, ok_work(&format!("r{i}")))
                .unwrap();
        }
        let reports = sup.shutdown();
        assert_eq!(reports.len(), 5);
        let mut names: Vec<String> = reports.iter().map(|r| r.name.clone()).collect();
        names.sort();
        assert_eq!(
            names,
            (0..5).map(|i| format!("job-{i}")).collect::<Vec<_>>()
        );
        for r in &reports {
            let s = r.result.as_ref().expect("all jobs succeed");
            assert_eq!(r.attempts, 1);
            assert!(!s.cached);
            assert_eq!(s.fingerprint, fnv1a64(s.json.as_bytes()));
        }
    }

    #[test]
    fn panic_is_isolated_and_worker_respawns() {
        let sup = Supervisor::new(SupervisorConfig {
            workers: 1,
            ..quiet_cfg()
        });
        sup.submit(
            "boom",
            None,
            Arc::new(|_| panic!("forced panic: supervisor test")),
        )
        .unwrap();
        // The pool must still serve work after the panic: same single
        // worker slot, fresh thread.
        sup.submit("after", None, ok_work("fine")).unwrap();
        let reports = sup.shutdown();
        assert_eq!(reports.len(), 2);
        let boom = reports.iter().find(|r| r.name == "boom").unwrap();
        match &boom.result {
            Err(JobError::Panicked { payload }) => {
                assert_eq!(payload, "forced panic: supervisor test");
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
        let after = reports.iter().find(|r| r.name == "after").unwrap();
        assert!(after.result.is_ok(), "pool survives the panic");
        assert_eq!(sup.respawns(), 1, "exactly one worker was replaced");
    }

    #[test]
    fn fatal_failure_runs_once_and_is_failed() {
        let sup = Supervisor::new(quiet_cfg());
        let calls = Arc::new(AtomicU32::new(0));
        let c = Arc::clone(&calls);
        sup.submit(
            "hopeless",
            None,
            Arc::new(move |_| {
                c.fetch_add(1, Ordering::SeqCst);
                Err(WorkError::Fatal {
                    detail: "always down".to_string(),
                })
            }),
        )
        .unwrap();
        let reports = sup.shutdown();
        assert_eq!(reports[0].attempts, 1);
        assert_eq!(calls.load(Ordering::SeqCst), 1, "the body runs once");
        match &reports[0].result {
            Err(err @ JobError::Failed { detail }) => {
                assert_eq!(detail, "always down");
                assert_eq!(err.to_string(), "failed: always down");
            }
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    #[test]
    fn deadline_is_armed_and_cancels_the_attempt() {
        let sup = Supervisor::new(quiet_cfg());
        sup.submit(
            "deadline",
            Some(0.0),
            Arc::new(|intr| {
                let mut intr = intr.expect("timeout arms an interrupt");
                match intr.check(0) {
                    Some(cause) => Err(WorkError::Cancelled {
                        detail: format!("Cancelled at poll 0 ({cause})"),
                    }),
                    None => Err(WorkError::Fatal {
                        detail: "expired deadline did not fire".to_string(),
                    }),
                }
            }),
        )
        .unwrap();
        let reports = sup.shutdown();
        match &reports[0].result {
            Err(JobError::Cancelled { detail }) => {
                assert!(detail.contains("deadline exceeded"), "{detail}");
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
        assert_eq!(reports[0].attempts, 1);
    }

    #[test]
    fn queue_full_is_reported_with_backpressure_hint() {
        let sup = Supervisor::new(SupervisorConfig {
            workers: 1,
            queue_cap: 1,
        });
        // Park the single worker so the queue cannot drain.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g = Arc::clone(&gate);
        sup.submit(
            "parked",
            None,
            Arc::new(move |_| {
                let (lock, cv) = &*g;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
                Ok(JobSuccess {
                    json: "{}".to_string(),
                    cached: false,
                    fingerprint: fnv1a64(b"{}"),
                })
            }),
        )
        .unwrap();
        // Give the worker a moment to take "parked" off the queue, then
        // fill the single slot and overflow it.
        std::thread::sleep(Duration::from_millis(20));
        sup.submit("queued", None, ok_work("q")).unwrap();
        let err = sup.submit("overflow", None, ok_work("o")).unwrap_err();
        match err {
            JobError::QueueFull { retry_after_ms } => {
                assert_eq!(retry_after_ms, QUEUE_FULL_RETRY_MS)
            }
            other => panic!("expected QueueFull, got {other:?}"),
        }
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        let reports = sup.shutdown();
        assert_eq!(reports.len(), 2, "the rejected job was never enqueued");
    }

    #[test]
    fn cancel_all_drains_queued_jobs_without_running_them() {
        // One worker parked on a gate; three more jobs queued behind it.
        let sup = Supervisor::new(SupervisorConfig {
            workers: 1,
            ..quiet_cfg()
        });
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g = Arc::clone(&gate);
        let ran = Arc::new(AtomicU32::new(0));
        sup.submit(
            "parked",
            None,
            Arc::new(move |intr| {
                let (lock, cv) = &*g;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
                // After the gate opens the batch is cancelled: a polling
                // fabric would see it immediately.
                let mut intr = intr.expect("cancel token arms the interrupt");
                match intr.check(0) {
                    Some(cause) => Err(WorkError::Cancelled {
                        detail: format!("Cancelled mid-run ({cause})"),
                    }),
                    None => Err(WorkError::Fatal {
                        detail: "cancel_all not visible".to_string(),
                    }),
                }
            }),
        )
        .unwrap();
        for i in 0..3 {
            let ran = Arc::clone(&ran);
            sup.submit(
                format!("queued-{i}"),
                None,
                Arc::new(move |_| {
                    ran.fetch_add(1, Ordering::SeqCst);
                    Ok(JobSuccess {
                        json: "{}".to_string(),
                        cached: false,
                        fingerprint: fnv1a64(b"{}"),
                    })
                }),
            )
            .unwrap();
        }
        sup.cancel_all();
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        let reports = sup.shutdown();
        assert_eq!(reports.len(), 4, "every submitted job reports");
        assert_eq!(ran.load(Ordering::SeqCst), 0, "queued work never ran");
        for r in &reports {
            assert!(
                matches!(r.result, Err(JobError::Cancelled { .. })),
                "{}: {:?}",
                r.name,
                r.result
            );
        }
    }
}
