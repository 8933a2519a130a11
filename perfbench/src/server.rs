//! The server under test: a `tklus serve-http` child process.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a server may take to print its `listening on` line.
const START_TIMEOUT: Duration = Duration::from_secs(120);
/// How long a SIGTERM drain may take before the child is killed.
const STOP_TIMEOUT: Duration = Duration::from_secs(60);

pub struct ServerProc {
    child: Child,
    pub addr: SocketAddr,
    stdout: Option<JoinHandle<Vec<String>>>,
    log: PathBuf,
}

impl ServerProc {
    /// Spawns `bin serve-http --corpus CORPUS --addr 127.0.0.1:0 [--wal DIR]`
    /// and waits for its `listening on http://ADDR` line. Returns the
    /// server, the spawn-to-listening wall time, and the CPU seconds the
    /// server had used by then. Server stderr goes to `log`.
    pub fn spawn(
        bin: &Path,
        corpus: &Path,
        wal: Option<&Path>,
        log: &Path,
    ) -> Result<(Self, Duration, f64), String> {
        let mut cmd = Command::new(bin);
        cmd.arg("serve-http").arg("--corpus").arg(corpus).args(["--addr", "127.0.0.1:0"]);
        if let Some(dir) = wal {
            cmd.arg("--wal").arg(dir);
        }
        let stderr =
            std::fs::File::create(log).map_err(|e| format!("create {}: {e}", log.display()))?;
        let start = Instant::now();
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(stderr))
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut lines = Vec::new();
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if let Some(addr) = line.strip_prefix("listening on http://") {
                    let _ = tx.send(addr.to_string());
                }
                lines.push(line);
            }
            lines
        });
        let mut proc = Self {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stdout: Some(reader),
            log: log.into(),
        };
        match rx.recv_timeout(START_TIMEOUT) {
            Ok(addr) => {
                let setup = start.elapsed();
                let cpu = proc.cpu_seconds().ok_or("cannot read the server's CPU time")?;
                proc.addr =
                    addr.parse().map_err(|e| format!("bad listen address {addr:?}: {e}"))?;
                Ok((proc, setup, cpu))
            }
            Err(_) => {
                let why = proc.log_tail();
                proc.kill();
                Err(format!("server did not start listening: {why}"))
            }
        }
    }

    /// Peak resident set size (`VmHWM`) in kB.
    pub fn peak_rss_kb(&self) -> Option<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
    }

    /// CPU time (user + system) the server has used so far, in seconds.
    pub fn cpu_seconds(&self) -> Option<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id())).ok()?;
        // Fields after the parenthesised command name: state is the first,
        // utime the 12th and stime the 13th (fields 14 and 15 of proc(5)).
        let rest: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
        let ticks: u64 = rest.get(11)?.parse::<u64>().ok()? + rest.get(12)?.parse::<u64>().ok()?;
        Some(ticks as f64 / clock_ticks_per_second())
    }

    /// SIGTERM, then wait for the graceful drain (and, with a WAL, the
    /// final seal). Returns the server's stdout lines; fails if the server
    /// exits non-zero or overruns the drain allowance.
    pub fn stop(mut self) -> Result<Vec<String>, String> {
        send_sigterm(self.child.id());
        let deadline = Instant::now() + STOP_TIMEOUT;
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => {
                    let why = self.log_tail();
                    self.kill();
                    return Err(format!("server did not drain in time: {why}"));
                }
            }
        };
        let lines = self.stdout.take().map(|h| h.join().unwrap_or_default()).unwrap_or_default();
        if !status.success() {
            return Err(format!("server exited with {status}: {}", self.log_tail()));
        }
        Ok(lines)
    }

    /// Kills the server outright (SIGKILL) and reaps it. For start-ups
    /// measured only for their set-up time: `serve-http` installs its
    /// SIGTERM handler just after printing `listening on`, so a SIGTERM
    /// sent on that line can arrive before the handler exists.
    pub fn discard(mut self) {
        self.kill();
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(h) = self.stdout.take() {
            let _ = h.join();
        }
    }

    fn log_tail(&self) -> String {
        let log = std::fs::read_to_string(&self.log).unwrap_or_default();
        let lines: Vec<&str> = log.lines().collect();
        lines[lines.len().saturating_sub(5)..].join(" | ")
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if self.stdout.is_some() {
            self.kill();
        }
    }
}

#[cfg(unix)]
fn send_sigterm(pid: u32) {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGTERM: i32 = 15;
    if let Ok(pid) = i32::try_from(pid) {
        // SAFETY: kill(2) takes plain integers and touches no memory of
        // ours; `pid` is our own child, not yet reaped, so it cannot name
        // a recycled process.
        unsafe {
            kill(pid, SIGTERM);
        }
    }
}

#[cfg(not(unix))]
fn send_sigterm(_pid: u32) {}

/// `(busy, steal)` clock ticks of all CPUs from `/proc/stat`: time the
/// guest ran, and time the host ran something else on its virtual CPUs.
pub fn host_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).map(|f| f.parse().unwrap_or(0)).collect();
    // user nice system idle iowait irq softirq steal ...
    let busy = fields.iter().take(3).sum::<u64>() + fields.get(5)? + fields.get(6)?;
    Some((busy, *fields.get(7)?))
}

/// The kernel's clock-tick rate, the unit of `/proc/<pid>/stat` times.
fn clock_ticks_per_second() -> f64 {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: sysconf(3) takes an integer and reads no memory of ours.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    if ticks > 0 {
        ticks as f64
    } else {
        100.0
    }
}

/// Total bytes of the regular files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .filter_map(Result::ok)
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// `(name, size)` of each regular file directly under `dir`.
pub fn dir_listing(dir: &Path) -> Vec<(String, u64)> {
    let Ok(entries) = std::fs::read_dir(dir) else { return Vec::new() };
    let mut out: Vec<(String, u64)> = entries
        .filter_map(Result::ok)
        .filter_map(|e| {
            let m = e.metadata().ok()?;
            m.is_file().then(|| (e.file_name().to_string_lossy().into_owned(), m.len()))
        })
        .collect();
    out.sort();
    out
}
