//! `psync_client` — command-line client for the `psyncd` experiment
//! daemon (wire schema: DESIGN.md §14).
//!
//! ```text
//! psync_client [--socket PATH] ping
//! psync_client [--socket PATH] status
//! psync_client [--socket PATH] list
//! psync_client [--socket PATH] cancel <job_id>
//! psync_client [--socket PATH] submit (--family F [--preset quick|paper] | --spec JSON)
//!                                     [--timeout-s X] [--tag T]
//! ```
//!
//! Every event the daemon streams back is echoed to stdout, one JSON line
//! each. Exit code: 0 on success (`result`/`pong`/`status`/`jobs`/
//! `cancel_requested`), 1 when the daemon answers with an `error` event or
//! the connection fails, 2 on usage errors.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::process::ExitCode;

use bench::jobs::JobSpec;
use serde::Value;

fn usage() -> String {
    let families = JobSpec::families().collect::<Vec<_>>().join("|");
    format!(
        "usage: psync_client [--socket PATH] <ping|status|list|cancel <job_id>|submit ...>\n    \
         submit: --family <{families}> [--preset quick|paper]\n            \
         | --spec '<json object>'   plus optional --timeout-s X --tag T"
    )
}

struct Invocation {
    socket: String,
    request: String,
    /// Submits keep the stream open until a terminal event arrives;
    /// one-shot verbs read a single reply.
    streaming: bool,
}

fn usage_err(msg: impl Into<String>) -> String {
    msg.into()
}

fn parse_args(args: Vec<String>) -> Result<Invocation, String> {
    let mut socket = "psyncd.sock".to_string();
    let mut rest = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--socket" => {
                socket = it
                    .next()
                    .ok_or_else(|| usage_err("--socket needs a value"))?;
            }
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            _ => rest.push(arg),
        }
    }
    let mut it = rest.into_iter();
    let verb = it.next().ok_or_else(|| usage_err("missing verb"))?;
    let (request, streaming) = match verb.as_str() {
        "ping" | "status" | "list" => {
            if it.next().is_some() {
                return Err(usage_err(format!("{verb} takes no arguments")));
            }
            (format!(r#"{{"v":1,"verb":"{verb}"}}"#), false)
        }
        "cancel" => {
            let id = it
                .next()
                .ok_or_else(|| usage_err("cancel needs a job id"))?;
            let id: u64 = id.parse().map_err(|e| format!("cancel job id: {e}"))?;
            if it.next().is_some() {
                return Err(usage_err("cancel takes exactly one job id"));
            }
            (format!(r#"{{"v":1,"verb":"cancel","job_id":{id}}}"#), false)
        }
        "submit" => {
            let mut family = None;
            let mut preset = None;
            let mut spec_json = None;
            let mut timeout_s: Option<f64> = None;
            let mut tag = None;
            while let Some(arg) = it.next() {
                let mut value =
                    |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
                match arg.as_str() {
                    "--family" => family = Some(value("--family")?),
                    "--preset" => preset = Some(value("--preset")?),
                    "--spec" => spec_json = Some(value("--spec")?),
                    "--timeout-s" => {
                        timeout_s = Some(
                            value("--timeout-s")?
                                .parse()
                                .map_err(|e| format!("--timeout-s: {e}"))?,
                        );
                    }
                    "--tag" => tag = Some(value("--tag")?),
                    other => return Err(usage_err(format!("unknown argument: {other}"))),
                }
            }
            let spec = match (family, spec_json) {
                (Some(_), Some(_)) => {
                    return Err(usage_err("--family and --spec are mutually exclusive"));
                }
                (None, None) => {
                    return Err(usage_err("submit needs --family or --spec"));
                }
                (Some(f), None) => {
                    let mut fields = vec![("family".to_string(), Value::Str(f))];
                    if let Some(p) = preset {
                        fields.push(("preset".to_string(), Value::Str(p)));
                    }
                    Value::Object(fields)
                }
                (None, Some(raw)) => {
                    if preset.is_some() {
                        return Err(usage_err("--preset only applies with --family"));
                    }
                    serde_json::from_str(&raw).map_err(|e| format!("--spec: {e}"))?
                }
            };
            let mut fields = vec![
                ("v".to_string(), Value::UInt(1)),
                ("verb".to_string(), Value::Str("submit".to_string())),
                ("spec".to_string(), spec),
            ];
            if let Some(t) = timeout_s {
                fields.push(("timeout_s".to_string(), Value::Float(t)));
            }
            if let Some(t) = tag {
                fields.push(("tag".to_string(), Value::Str(t)));
            }
            let line = serde_json::to_string(&Value::Object(fields))
                .map_err(|e| format!("encode request: {e}"))?;
            (line, true)
        }
        other => return Err(usage_err(format!("unknown verb: {other}"))),
    };
    Ok(Invocation {
        socket,
        request,
        streaming,
    })
}

fn run(inv: &Invocation) -> Result<bool, String> {
    let stream =
        UnixStream::connect(&inv.socket).map_err(|e| format!("connect {}: {e}", inv.socket))?;
    let mut writer = stream
        .try_clone()
        .map_err(|e| format!("clone stream: {e}"))?;
    writeln!(writer, "{}", inv.request).map_err(|e| format!("send request: {e}"))?;
    writer.flush().map_err(|e| format!("send request: {e}"))?;

    let reader = BufReader::new(stream);
    let mut ok = true;
    for line in reader.lines() {
        let line = line.map_err(|e| format!("read event: {e}"))?;
        if line.is_empty() {
            continue;
        }
        println!("{line}");
        let event = serde_json::from_str(&line)
            .ok()
            .as_ref()
            .and_then(|v| v.get("event"))
            .and_then(Value::as_str)
            .map(str::to_string);
        match event.as_deref() {
            Some("error") => return Ok(false),
            Some("result") => return Ok(true),
            // accepted / progress / cancel_requested keep streaming.
            _ if inv.streaming => {}
            _ => return Ok(ok),
        }
    }
    // EOF without a terminal event (daemon went away mid-stream).
    if inv.streaming {
        ok = false;
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let inv = match parse_args(std::env::args().skip(1).collect()) {
        Ok(inv) => inv,
        Err(e) => {
            eprintln!("psync_client: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(&inv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("psync_client: {e}");
            ExitCode::FAILURE
        }
    }
}
