//! `tklus serve-http` drains on a SIGTERM sent the moment it prints its
//! `listening on` line: scripts scrape that line to learn the port and may
//! signal right away, so the handlers must already be installed.

#![cfg(unix)]
#![allow(clippy::unwrap_used)] // test code: panics are the failure report

use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[test]
fn sigterm_right_after_listening_line_drains_and_exits_zero() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_tklus"))
        .args(["serve-http", "--posts", "300", "--seed", "7", "--addr", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    loop {
        line.clear();
        assert!(stdout.read_line(&mut line).unwrap() > 0, "exited before listening");
        if line.starts_with("listening on ") {
            break;
        }
    }
    let killed = Command::new("kill").args(["-TERM", &child.id().to_string()]).status().unwrap();
    assert!(killed.success());

    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        assert!(Instant::now() < deadline, "no exit within 60 s of SIGTERM");
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).unwrap();
    assert!(status.success(), "SIGTERM must drain and exit 0, got {status}");
    assert!(rest.contains("shutdown:"), "no drain report in: {rest}");
}
