//! The `psyncd` wire protocol: versioned newline-delimited JSON.
//!
//! Every request and event is one JSON object on one line. Requests carry
//! a `v` version field ([`WIRE_VERSION`]) and a `verb`; unknown fields are
//! tolerated everywhere (a newer client can decorate requests without
//! breaking an older daemon), while unknown *verbs* and version mismatches
//! are structured errors. Events echo the version and carry an `event`
//! discriminator; failures carry a machine-readable [`ErrorCode`] plus a
//! human-readable detail.
//!
//! ```text
//! → {"v":1,"verb":"submit","spec":{"family":"table3","procs":16,"row_len":8}}
//! ← {"v":1,"event":"accepted","job_id":0,"family":"table3","name":"table3-0"}
//! ← {"v":1,"event":"progress","job_id":0,"cycle":512}
//! ← {"v":1,"event":"result","job_id":0,"cached":false,"fingerprint":"fnv1a64:…","attempts":1,"result":{…}}
//! ```
//!
//! The full schema is documented in DESIGN.md §14. Everything here is pure
//! string/tree manipulation, unit-tested without a socket.

use serde::Value;

use crate::cache::fingerprint_hex;
use crate::jobs::JobSpec;

/// Protocol version: bumped on any incompatible change to the request or
/// event shapes. A request with a different `v` is rejected with
/// [`ErrorCode::BadVersion`] naming both versions.
pub const WIRE_VERSION: u64 = 1;

/// Machine-readable failure vocabulary carried by `error` events. The wire
/// spelling ([`ErrorCode::as_str`]) is a stable API: clients dispatch on
/// it, so variants are append-only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request line was not valid JSON.
    BadJson,
    /// The request's `v` field is missing or not [`WIRE_VERSION`].
    BadVersion,
    /// The request's `verb` is missing or not in the vocabulary.
    UnknownVerb,
    /// The submit's `spec` (or another request field) failed validation.
    BadSpec,
    /// `cancel` named a job the daemon is not tracking (unknown id, or the
    /// job already reached a terminal event).
    UnknownJob,
    /// The supervisor's bounded queue is full; retry after the suggested
    /// delay in the detail.
    QueueFull,
    /// The daemon is draining after SIGTERM and accepts no new work.
    ShuttingDown,
    /// The job was cancelled (deadline, `cancel` verb, or daemon drain).
    Cancelled,
    /// The job panicked or failed; detail has the cause.
    JobFailed,
}

impl ErrorCode {
    /// The stable wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadJson => "bad_json",
            ErrorCode::BadVersion => "bad_version",
            ErrorCode::UnknownVerb => "unknown_verb",
            ErrorCode::BadSpec => "bad_spec",
            ErrorCode::UnknownJob => "unknown_job",
            ErrorCode::QueueFull => "queue_full",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Cancelled => "cancelled",
            ErrorCode::JobFailed => "job_failed",
        }
    }
}

/// A structured request failure: code plus human-readable detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    /// The machine-readable code.
    pub code: ErrorCode,
    /// What went wrong, for humans.
    pub detail: String,
}

impl ProtocolError {
    fn new(code: ErrorCode, detail: impl Into<String>) -> Self {
        ProtocolError {
            code,
            detail: detail.into(),
        }
    }
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run an experiment; the daemon streams `accepted` → `progress`* →
    /// `result`/`error` back on the submitting connection.
    Submit {
        /// The validated experiment spec.
        spec: JobSpec,
        /// Optional per-job deadline, seconds.
        timeout_s: Option<f64>,
        /// Optional opaque client tag, echoed on `accepted` and `result`.
        tag: Option<String>,
    },
    /// Daemon-wide counters: job states, cache stats, workers, drain flag.
    Status,
    /// The jobs the daemon is currently tracking (queued or running).
    List,
    /// Request cooperative cancellation of a tracked job.
    Cancel {
        /// The id from that job's `accepted` event.
        job_id: u64,
    },
    /// Liveness probe; answered with `pong`.
    Ping,
}

/// Parse one request line. Unknown fields anywhere are ignored; structural
/// problems map to the [`ErrorCode`] vocabulary.
pub fn parse_request(line: &str) -> Result<Request, ProtocolError> {
    let v = serde_json::from_str(line)
        .map_err(|e| ProtocolError::new(ErrorCode::BadJson, e.to_string()))?;
    if v.as_object().is_none() {
        return Err(ProtocolError::new(
            ErrorCode::BadJson,
            "request must be a JSON object",
        ));
    }
    match v.get("v").and_then(Value::as_u64) {
        Some(WIRE_VERSION) => {}
        Some(other) => {
            return Err(ProtocolError::new(
                ErrorCode::BadVersion,
                format!("protocol version {other} not supported (daemon speaks {WIRE_VERSION})"),
            ))
        }
        None => {
            return Err(ProtocolError::new(
                ErrorCode::BadVersion,
                format!(
                    "request is missing the integer version field \"v\" (expected {WIRE_VERSION})"
                ),
            ))
        }
    }
    let verb = v.get("verb").and_then(Value::as_str).ok_or_else(|| {
        ProtocolError::new(
            ErrorCode::UnknownVerb,
            "request is missing the \"verb\" string",
        )
    })?;
    match verb {
        "submit" => {
            let spec_value = v.get("spec").ok_or_else(|| {
                ProtocolError::new(ErrorCode::BadSpec, "submit requires a \"spec\" object")
            })?;
            let spec = JobSpec::from_value(spec_value)
                .map_err(|detail| ProtocolError::new(ErrorCode::BadSpec, detail))?;
            let timeout_s = match v.get("timeout_s") {
                None | Some(Value::Null) => None,
                Some(t) => {
                    let secs = t
                        .as_f64()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or_else(|| {
                            ProtocolError::new(
                                ErrorCode::BadSpec,
                                "timeout_s must be a finite non-negative number",
                            )
                        })?;
                    Some(secs)
                }
            };
            let tag = match v.get("tag") {
                None | Some(Value::Null) => None,
                Some(t) => Some(
                    t.as_str()
                        .ok_or_else(|| {
                            ProtocolError::new(ErrorCode::BadSpec, "tag must be a string")
                        })?
                        .to_string(),
                ),
            };
            Ok(Request::Submit {
                spec,
                timeout_s,
                tag,
            })
        }
        "status" => Ok(Request::Status),
        "list" => Ok(Request::List),
        "cancel" => {
            let job_id = v.get("job_id").and_then(Value::as_u64).ok_or_else(|| {
                ProtocolError::new(
                    ErrorCode::BadSpec,
                    "cancel requires a non-negative integer \"job_id\"",
                )
            })?;
            Ok(Request::Cancel { job_id })
        }
        "ping" => Ok(Request::Ping),
        other => Err(ProtocolError::new(
            ErrorCode::UnknownVerb,
            format!("unknown verb {other:?} (expected submit/status/list/cancel/ping)"),
        )),
    }
}

/// Build a one-line event with the standard `v`/`event` envelope plus
/// `fields`, in order.
pub fn event_with(event: &str, fields: Vec<(&str, Value)>) -> String {
    let mut pairs = vec![
        ("v".to_string(), Value::UInt(WIRE_VERSION)),
        ("event".to_string(), Value::Str(event.to_string())),
    ];
    pairs.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
    serde_json::to_string(&Value::Object(pairs)).expect("events serialize")
}

/// `accepted`: the daemon took the job; `job_id` names it from here on.
pub fn event_accepted(job_id: u64, family: &str, name: &str, tag: Option<&str>) -> String {
    let mut fields = vec![
        ("job_id", Value::UInt(job_id)),
        ("family", Value::Str(family.to_string())),
        ("name", Value::Str(name.to_string())),
    ];
    if let Some(t) = tag {
        fields.push(("tag", Value::Str(t.to_string())));
    }
    event_with("accepted", fields)
}

/// `progress`: the running fabric's latest polled progress counter.
pub fn event_progress(job_id: u64, cycle: u64) -> String {
    event_with(
        "progress",
        vec![
            ("job_id", Value::UInt(job_id)),
            ("cycle", Value::UInt(cycle)),
        ],
    )
}

/// `result`: terminal success. `result_json` is the cached/deterministic
/// result document; it is re-encoded compactly so the event stays one
/// line. Identical source bytes produce identical event lines — the
/// byte-identity the integration test asserts for cache hits.
pub fn event_result(
    job_id: u64,
    cached: bool,
    fingerprint: u64,
    attempts: u32,
    result_json: &str,
    tag: Option<&str>,
) -> String {
    let result =
        serde_json::from_str(result_json).unwrap_or_else(|_| Value::Str(result_json.to_string()));
    let mut fields = vec![
        ("job_id", Value::UInt(job_id)),
        ("cached", Value::Bool(cached)),
        ("fingerprint", Value::Str(fingerprint_hex(fingerprint))),
        ("attempts", Value::UInt(u64::from(attempts))),
        ("result", result),
    ];
    if let Some(t) = tag {
        fields.push(("tag", Value::Str(t.to_string())));
    }
    event_with("result", fields)
}

/// `error`: a request or job failure, with the machine-readable code.
pub fn event_error(code: ErrorCode, detail: &str, job_id: Option<u64>) -> String {
    let mut fields = vec![("code", Value::Str(code.as_str().to_string()))];
    if let Some(id) = job_id {
        fields.push(("job_id", Value::UInt(id)));
    }
    fields.push(("detail", Value::Str(detail.to_string())));
    event_with("error", fields)
}

/// `cancel_requested`: the cancel verb was accepted; the job's terminal
/// `error` (code `cancelled`) follows on the submitting connection.
pub fn event_cancel_requested(job_id: u64) -> String {
    event_with("cancel_requested", vec![("job_id", Value::UInt(job_id))])
}

/// `pong`: liveness reply.
pub fn event_pong() -> String {
    event_with("pong", Vec::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::Table3Spec;

    #[test]
    fn submit_round_trips_spec_timeout_and_tag() {
        let req = parse_request(
            r#"{"v":1,"verb":"submit","spec":{"family":"table3","procs":16,"row_len":8},"timeout_s":2.5,"tag":"ci"}"#,
        )
        .unwrap();
        assert_eq!(
            req,
            Request::Submit {
                spec: JobSpec::Table3(Table3Spec {
                    procs: 16,
                    row_len: 8,
                    threads: 1
                }),
                timeout_s: Some(2.5),
                tag: Some("ci".to_string()),
            }
        );
    }

    #[test]
    fn bare_verbs_parse() {
        for (line, want) in [
            (r#"{"v":1,"verb":"status"}"#, Request::Status),
            (r#"{"v":1,"verb":"list"}"#, Request::List),
            (r#"{"v":1,"verb":"ping"}"#, Request::Ping),
            (
                r#"{"v":1,"verb":"cancel","job_id":7}"#,
                Request::Cancel { job_id: 7 },
            ),
        ] {
            assert_eq!(parse_request(line).unwrap(), want, "{line}");
        }
    }

    #[test]
    fn unknown_fields_are_tolerated_everywhere() {
        let req =
            parse_request(r#"{"v":1,"verb":"ping","future":"stuff","nested":{"deep":[1,2]}}"#)
                .unwrap();
        assert_eq!(req, Request::Ping);
        let req = parse_request(
            r#"{"v":1,"verb":"submit","spec":{"family":"table3","frobnicate":true},"shiny":1}"#,
        )
        .unwrap();
        assert!(matches!(req, Request::Submit { .. }));
    }

    #[test]
    fn errors_carry_the_machine_readable_code() {
        for (line, code) in [
            ("not json at all", ErrorCode::BadJson),
            ("[1,2,3]", ErrorCode::BadJson),
            (r#"{"verb":"ping"}"#, ErrorCode::BadVersion),
            (r#"{"v":99,"verb":"ping"}"#, ErrorCode::BadVersion),
            (r#"{"v":1}"#, ErrorCode::UnknownVerb),
            (r#"{"v":1,"verb":"frob"}"#, ErrorCode::UnknownVerb),
            (r#"{"v":1,"verb":"submit"}"#, ErrorCode::BadSpec),
            (
                r#"{"v":1,"verb":"submit","spec":{"family":"nope"}}"#,
                ErrorCode::BadSpec,
            ),
            (
                r#"{"v":1,"verb":"submit","spec":{"family":"table3"},"timeout_s":-1}"#,
                ErrorCode::BadSpec,
            ),
            (
                r#"{"v":1,"verb":"submit","spec":{"family":"table3"},"tag":9}"#,
                ErrorCode::BadSpec,
            ),
            (r#"{"v":1,"verb":"cancel"}"#, ErrorCode::BadSpec),
            (r#"{"v":1,"verb":"cancel","job_id":-1}"#, ErrorCode::BadSpec),
        ] {
            let err = parse_request(line).expect_err(line);
            assert_eq!(err.code, code, "{line}: {}", err.detail);
            assert!(!err.detail.is_empty());
        }
    }

    #[test]
    fn event_lines_are_single_line_versioned_json() {
        let events = [
            event_accepted(3, "table3", "table3-3", Some("t")),
            event_progress(3, 512),
            event_result(3, true, 0xff, 1, "{\n  \"x\": 1\n}", None),
            event_error(ErrorCode::QueueFull, "retry after 10 ms", None),
            event_cancel_requested(3),
            event_pong(),
        ];
        for line in &events {
            assert!(!line.contains('\n'), "{line}");
            let v = serde_json::from_str(line).expect("events are valid JSON");
            assert_eq!(v.get("v").and_then(Value::as_u64), Some(WIRE_VERSION));
            assert!(v.get("event").and_then(Value::as_str).is_some());
        }
    }

    #[test]
    fn result_event_embeds_the_document_compactly_and_reproducibly() {
        let pretty = "{\n  \"procs\": 16,\n  \"cycles\": 99\n}";
        let a = event_result(0, false, 0xaa, 1, pretty, None);
        let b = event_result(0, false, 0xaa, 1, pretty, None);
        assert_eq!(a, b, "same source bytes, same event line");
        assert!(a.contains(r#""result":{"procs":16,"cycles":99}"#), "{a}");
        assert!(a.contains(r#""fingerprint":"fnv1a64:00000000000000aa""#));
    }

    #[test]
    fn error_codes_spell_stably() {
        assert_eq!(ErrorCode::BadJson.as_str(), "bad_json");
        assert_eq!(ErrorCode::ShuttingDown.as_str(), "shutting_down");
        assert_eq!(ErrorCode::JobFailed.as_str(), "job_failed");
        let line = event_error(ErrorCode::UnknownJob, "job 9 is not tracked", Some(9));
        assert!(line.contains(r#""code":"unknown_job""#));
        assert!(line.contains(r#""job_id":9"#));
    }
}
