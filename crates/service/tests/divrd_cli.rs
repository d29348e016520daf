//! `divrd`'s command line: anything it cannot run is a one-line
//! message plus the usage string on stderr and exit code 2 — decided
//! before a socket is bound — never a panic, and never an unknown flag
//! mistaken for the bind address.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

#[test]
fn bad_command_lines_exit_2_with_usage_and_never_bind() {
    let bad: [&[&str]; 6] = [
        &["--bogus"],
        &["127.0.0.1:0", "2", "--idle-timeout-ms"],
        &["a", "b", "c"],
        &["127.0.0.1:0", "2", "extra"],
        &["--max-frame-bytes", "lots"],
        &["--recover-mode", "fast"],
    ];
    for args in bad {
        let out = Command::new(env!("CARGO_BIN_EXE_divrd"))
            .args(args)
            .stdin(Stdio::null())
            .output()
            .expect("spawn divrd");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        let mut lines = stderr.lines();
        let first = lines.next().unwrap_or_default();
        assert!(first.starts_with("divrd: "), "{args:?}: {stderr}");
        assert!(
            lines
                .next()
                .unwrap_or_default()
                .starts_with("usage: divrd "),
            "{args:?}: {stderr}"
        );
        assert!(
            !stderr.contains("listening"),
            "{args:?} bound a socket: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    }
}

#[test]
fn a_good_command_line_still_listens_and_drains() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_divrd"))
        .args(["127.0.0.1:0", "1", "--idle-timeout-ms", "500"])
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn divrd");
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr piped"));
    let mut line = String::new();
    stderr.read_line(&mut line).expect("read divrd stderr");
    assert!(
        line.starts_with("divrd listening on 127.0.0.1:"),
        "{line:?}"
    );
    // Closing stdin is the shutdown signal; a clean drain exits 0.
    drop(child.stdin.take());
    let status = child.wait().expect("wait for divrd");
    assert!(status.success(), "{status:?}");
}
