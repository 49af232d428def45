//! `psyncd` — the experiment service daemon.
//!
//! Listens on a Unix domain socket for newline-delimited JSON requests
//! (wire schema: DESIGN.md §14), routes experiment jobs through the
//! supervised worker pool, and keeps the exact result cache warm across
//! batches. SIGTERM drains gracefully: in-flight jobs finish, their
//! results are flushed to the submitting connections, and the process
//! exits 0.
//!
//! ```text
//! psyncd [--socket PATH] [--workers N] [--queue-cap N] [--cache-bytes N]
//! ```

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use bench::service::daemon::{install_sigterm, serve, ServiceConfig};

const USAGE: &str = "usage: psyncd [--socket PATH] [--workers N] [--queue-cap N] \
                     [--cache-bytes N]";

fn parse_args() -> Result<ServiceConfig, String> {
    let mut cfg = ServiceConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--socket" => cfg.socket = PathBuf::from(value("--socket")?),
            "--workers" => {
                cfg.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
                if cfg.workers == 0 {
                    return Err("--workers must be >= 1".to_string());
                }
            }
            "--queue-cap" => {
                cfg.queue_cap = value("--queue-cap")?
                    .parse()
                    .map_err(|e| format!("--queue-cap: {e}"))?;
                if cfg.queue_cap == 0 {
                    return Err("--queue-cap must be >= 1".to_string());
                }
            }
            "--cache-bytes" => {
                cfg.cache_budget_bytes = value("--cache-bytes")?
                    .parse()
                    .map_err(|e| format!("--cache-bytes: {e}"))?;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("psyncd: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    install_sigterm();
    match serve(cfg, Arc::new(AtomicBool::new(false))) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("psyncd: {e}");
            ExitCode::FAILURE
        }
    }
}
