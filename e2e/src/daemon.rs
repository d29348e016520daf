//! The stock `divrd` as a child process: spawn on an ephemeral port,
//! read its peak RSS, `SIGKILL` it, and wait until it is gone.

use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::thread::JoinHandle;

pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
    /// Held open: the daemon drains and exits when its stdin closes.
    _stdin: Option<ChildStdin>,
    stderr_drain: Option<JoinHandle<()>>,
}

impl Daemon {
    /// `divrd 127.0.0.1:0 <workers> [--data-dir <dir>]`; returns once
    /// the child has announced its listening address.
    pub fn spawn(bin: &Path, workers: usize, data_dir: Option<&Path>) -> io::Result<Daemon> {
        let mut cmd = Command::new(bin);
        cmd.arg("127.0.0.1:0")
            .arg(workers.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        if let Some(dir) = data_dir {
            cmd.arg("--data-dir").arg(dir);
        }
        let mut child = cmd.spawn()?;
        let stdin = child.stdin.take();
        let mut lines = BufReader::new(child.stderr.take().expect("stderr is piped")).lines();
        let mut seen = String::new();
        let addr = loop {
            match lines.next() {
                Some(Ok(line)) => {
                    if let Some(rest) = line.strip_prefix("divrd listening on ") {
                        break rest.trim().parse::<SocketAddr>().map_err(|e| {
                            io::Error::new(io::ErrorKind::InvalidData, e.to_string())
                        });
                    }
                    seen.push_str(&line);
                    seen.push('\n');
                }
                _ => {
                    break Err(io::Error::other(format!(
                        "divrd exited before announcing its address:\n{seen}"
                    )))
                }
            }
        };
        let addr = match addr {
            Ok(addr) => addr,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };
        // Keep reading so a later eprintln! in the child never blocks
        // on a full pipe; the thread ends when the child's stderr closes.
        let stderr_drain = std::thread::spawn(move || for _ in lines.by_ref() {});
        Ok(Daemon {
            child,
            addr,
            _stdin: stdin,
            stderr_drain: Some(stderr_drain),
        })
    }

    /// Peak resident set (`VmHWM`) in MB, from `/proc/<pid>/status`.
    pub fn rss_peak_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb / 1024.0)
    }

    /// `SIGKILL`, then wait for the process and its stderr reader.
    /// Idempotent; dropping the daemon does the same.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(handle) = self.stderr_drain.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill();
    }
}
