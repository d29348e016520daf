//! `divrd`'s command line: anything it cannot run is a one-line
//! message plus the usage string on stderr and exit code 2 — decided
//! before a socket is bound — never a panic, and never an unknown flag
//! mistaken for the bind address. A good command line in an
//! environment it cannot start in (address taken, unusable data
//! directory) is one line and exit code 1.

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

/// Runs `divrd` with `args` to completion and asserts the cannot-start
/// contract: exit 1, exactly one stderr line, no address announced.
fn assert_cannot_start(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_divrd"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("spawn divrd");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    assert!(
        stderr.starts_with("divrd: cannot start: "),
        "{args:?}: {stderr}"
    );
}

#[test]
fn an_address_already_in_use_exits_1_with_one_line() {
    // The test owns the listener, so the port stays taken for as long
    // as `divrd` can try.
    let holder = std::net::TcpListener::bind("127.0.0.1:0").expect("bind a port to hold");
    let addr = holder.local_addr().expect("held address").to_string();
    assert_cannot_start(&[&addr, "1"]);
}

#[test]
fn an_unusable_data_dir_exits_1_with_one_line() {
    let file = std::env::temp_dir().join(format!("divrd-cli-not-a-dir-{}", std::process::id()));
    std::fs::write(&file, b"a regular file").expect("create the file");
    let path = file.to_str().expect("utf-8 temp path");
    assert_cannot_start(&["127.0.0.1:0", "1", "--data-dir", path]);
    std::fs::remove_file(&file).expect("remove the file");
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
