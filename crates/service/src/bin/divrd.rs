//! `divrd` — the diversification daemon.
//!
//! ```text
//! divrd [ADDR] [WORKERS] [--idle-timeout-ms N] [--default-deadline-ms N] [--max-frame-bytes N]
//!       [--data-dir PATH] [--recover-mode eager|lazy] [--checkpoint-interval-ms N]
//! ```
//!
//! Binds `ADDR` (default `127.0.0.1:7411`; use port `0` for an
//! ephemeral port), spawns `WORKERS` connection workers (default 4),
//! prints the bound address to stderr, and serves until its stdin
//! closes — the supervisor-friendly shutdown signal: a process manager
//! (or an operator's `Ctrl-D`) closing the pipe triggers a *graceful
//! drain* (in-flight frames finish, new frames get a retryable `503
//! draining`) followed by a final checkpoint, so the successor restarts
//! warm. See `divr_service` for the protocol.
//!
//! Exit codes: `0` after a graceful drain, `2` for a command line it
//! cannot run (usage on stderr), `1` when it cannot start — `ADDR`
//! cannot be bound or `--data-dir` cannot be opened — with
//! `divrd: cannot start: <error>` on stderr.
//!
//! Flags:
//!
//! * `--idle-timeout-ms N` — reap connections silent for `N` ms.
//! * `--default-deadline-ms N` — deadline for frames that carry no
//!   `deadline_ms` of their own (default: unbounded).
//! * `--max-frame-bytes N` — largest request frame accepted.
//! * `--data-dir PATH` — enable crash-safe durability (checksummed
//!   snapshots + write-ahead log) rooted at `PATH`; a restart recovers
//!   the registered databases and warm entries from it.
//! * `--recover-mode eager|lazy` — whether the restart rebuilds warm
//!   entries up front (`eager`, the default: first requests hit) or
//!   re-registers databases only (`lazy`: fast open, cold cache).
//! * `--checkpoint-interval-ms N` — compact the WAL into a snapshot
//!   every `N` ms (default: only on graceful drain and explicit
//!   `{"op": "checkpoint"}` frames).

use divr_service::{RecoverMode, Service, ServiceConfig};
use std::io::Read;
use std::time::Duration;

const USAGE: &str =
    "usage: divrd [ADDR] [WORKERS] [--idle-timeout-ms N] [--default-deadline-ms N] \
[--max-frame-bytes N] [--data-dir PATH] [--recover-mode eager|lazy] [--checkpoint-interval-ms N]";

/// A command line `divrd` cannot run: one line saying why, the usage
/// string, exit code 2 — before anything is bound or opened.
fn usage_error(message: &str) -> ! {
    eprintln!("divrd: {message}\n{USAGE}");
    std::process::exit(2);
}

fn flag_value(flag: &str, args: &mut std::env::Args) -> u64 {
    args.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage_error(&format!("{flag} needs an integer value")))
}

fn flag_str(flag: &str, args: &mut std::env::Args) -> String {
    args.next()
        .unwrap_or_else(|| usage_error(&format!("{flag} needs a value")))
}

fn main() {
    let mut config = ServiceConfig {
        addr: "127.0.0.1:7411".to_string(),
        ..ServiceConfig::default()
    };
    let mut positional = 0;
    let mut args = std::env::args();
    args.next(); // argv[0]
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--idle-timeout-ms" => {
                config.idle_timeout = Duration::from_millis(flag_value(&arg, &mut args));
            }
            "--default-deadline-ms" => {
                config.default_deadline_ms = Some(flag_value(&arg, &mut args));
            }
            "--max-frame-bytes" => {
                config.max_frame_bytes = flag_value(&arg, &mut args) as usize;
            }
            "--data-dir" => {
                config.data_dir = Some(flag_str(&arg, &mut args).into());
            }
            "--recover-mode" => {
                config.recover_mode = flag_str(&arg, &mut args)
                    .parse::<RecoverMode>()
                    .unwrap_or_else(|e| usage_error(&format!("--recover-mode: {e}")));
            }
            "--checkpoint-interval-ms" => {
                config.checkpoint_interval =
                    Some(Duration::from_millis(flag_value(&arg, &mut args)));
            }
            flag if flag.starts_with("--") => usage_error(&format!("unknown flag {flag}")),
            _ if positional == 0 => {
                config.addr = arg;
                positional += 1;
            }
            _ if positional == 1 => {
                config.workers = arg
                    .parse()
                    .unwrap_or_else(|_| usage_error("WORKERS must be an integer"));
                positional += 1;
            }
            other => usage_error(&format!("unexpected argument {other:?}")),
        }
    }
    // An address already in use, an unusable `--data-dir`: the
    // environment's fault, not a bug — one line and exit 1, before any
    // address is announced.
    let service = Service::start(config).unwrap_or_else(|e| {
        eprintln!("divrd: cannot start: {e}");
        std::process::exit(1);
    });
    eprintln!("divrd listening on {}", service.local_addr());

    // Block until stdin closes (EOF), then drain gracefully. Reading
    // in a loop tolerates stray bytes on the pipe; only EOF exits.
    let mut sink = [0u8; 256];
    let mut stdin = std::io::stdin().lock();
    loop {
        match stdin.read(&mut sink) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    eprintln!("divrd draining");
    service.shutdown();
    eprintln!("divrd stopped");
}
