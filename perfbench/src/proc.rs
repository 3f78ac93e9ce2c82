//! Child processes: building the release `mpl` binary, running it with
//! its wall time and peak resident memory, and the `mpl serve` daemon.

use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// The cargo target directory, as cargo resolves it from the working
/// directory (the checkout root).
#[must_use]
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// Builds the release `mpl` binary from the checkout and returns its path.
///
/// # Errors
///
/// The working directory is not a checkout, or the build fails.
pub fn build_mpl() -> Result<PathBuf, String> {
    if !Path::new("crates/mpl-cli/Cargo.toml").is_file() {
        return Err("run from the repository root: crates/mpl-cli is missing".to_owned());
    }
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_owned());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "mpl-cli",
            "--bin",
            "mpl",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building mpl failed: {status}"));
    }
    Ok(target_dir().join("release").join("mpl"))
}

/// How a finished child ran.
#[derive(Debug)]
pub struct Finished {
    pub stdout: String,
    /// Exit code, or `None` when a signal ended the process.
    pub code: Option<i32>,
    pub wall: Duration,
    pub peak_rss_kib: u64,
}

/// `struct rusage` of Linux on 64-bit targets: two `timeval`s, then
/// fourteen `long` counters of which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
}

/// Reaps `child` with `wait4`, which alone reports the peak resident
/// memory of that one child. That peak also covers the spawning
/// process's own resident size at spawn time (Linux carries it across
/// `exec`), which is why the benchmark keeps its own footprint to a few
/// MiB and reads a long-lived daemon's peak from `/proc` instead.
/// `Child::wait` must not be called after.
fn reap(child: &Child) -> Result<(Option<i32>, u64), String> {
    let pid = i32::try_from(child.id()).map_err(|_| "pid out of range".to_owned())?;
    let mut status = 0i32;
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `pid` is our own unreaped child, and both pointers are
        // to live, writable locals of the layout `wait4` expects.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("wait4: {err}"));
        }
    }
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok((code, u64::try_from(usage.maxrss).unwrap_or(0)))
}

/// Runs `cmd` to completion, timing it from spawn to exit.
///
/// # Errors
///
/// The process cannot be spawned, read or reaped.
pub fn run(cmd: &mut Command) -> Result<Finished, String> {
    let start = Instant::now();
    let mut child = cmd
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let mut stdout = String::new();
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut stdout);
    let (code, peak_rss_kib) = reap(&child)?;
    let wall = start.elapsed();
    read.map_err(|e| format!("reading child output: {e}"))?;
    Ok(Finished {
        stdout,
        code,
        wall,
        peak_rss_kib,
    })
}

/// Peak resident memory (`VmHWM`) of process `pid` (`self` for this
/// one), in KiB.
///
/// # Errors
///
/// The process status cannot be read.
pub fn vm_hwm_kib(pid: &str) -> Result<u64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("status of process {pid}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("status of process {pid} has no VmHWM"))
}

/// A running `mpl serve` daemon on a unix socket. Dropping it kills and
/// reaps the process if [`Daemon::shutdown`] did not.
pub struct Daemon {
    child: Option<Child>,
    stdout: BufReader<ChildStdout>,
    pub socket: PathBuf,
    /// From spawn to the readiness line.
    pub ready_after: Duration,
}

impl Daemon {
    /// Spawns `mpl serve --socket SOCKET --cache-dir CACHE_DIR` at its
    /// defaults and waits for the readiness line.
    ///
    /// # Errors
    ///
    /// The daemon fails to start or prints something else first.
    pub fn spawn(mpl: &Path, socket: &Path, cache_dir: &Path) -> Result<Daemon, String> {
        let _ = std::fs::remove_file(socket);
        let start = Instant::now();
        let mut child = Command::new(mpl)
            .arg("serve")
            .arg("--socket")
            .arg(socket)
            .arg("--cache-dir")
            .arg(cache_dir)
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn mpl serve: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let ready_after = start.elapsed();
        let mut daemon = Daemon {
            child: Some(child),
            stdout,
            socket: socket.to_path_buf(),
            ready_after,
        };
        match read {
            Ok(_) if line.contains("\"type\":\"serving\"") => Ok(daemon),
            _ => {
                daemon.kill();
                Err(format!("mpl serve did not become ready: {line:?}"))
            }
        }
    }

    /// One request/response round trip on a fresh connection.
    ///
    /// # Errors
    ///
    /// Any socket failure.
    pub fn request(&self, line: &str) -> Result<String, String> {
        let mut conn = Conn::connect(&self.socket)?;
        conn.round_trip(line)
    }

    /// The daemon's peak resident memory so far, in KiB.
    ///
    /// # Errors
    ///
    /// The process status cannot be read.
    pub fn peak_rss_kib(&self) -> Result<u64, String> {
        let pid = self.child.as_ref().expect("daemon is running").id();
        vm_hwm_kib(&pid.to_string())
    }

    /// Sends `{"op":"shutdown","mode":"drain"}` and waits for the process
    /// to exit cleanly.
    ///
    /// # Errors
    ///
    /// The shutdown is refused or the process cannot be reaped.
    // `reap` waits for the child with `wait4`, which clippy cannot see.
    #[allow(clippy::zombie_processes)]
    pub fn shutdown(mut self) -> Result<(), String> {
        let reply = self.request("{\"op\":\"shutdown\",\"mode\":\"drain\"}");
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        let child = self.child.take().expect("daemon is running");
        let (code, _) = reap(&child)?;
        let reply = reply?;
        if !reply.contains("\"type\":\"shutdown\"") || code != Some(0) {
            return Err(format!("unclean shutdown ({code:?}): {reply} {rest}"));
        }
        if !rest.contains("\"completed\":true") {
            return Err(format!("drain abandoned connections: {rest}"));
        }
        Ok(())
    }

    fn kill(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill();
    }
}

/// How long a reply may take before the daemon counts as hung.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// One client connection speaking newline-framed JSON.
pub struct Conn {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Conn {
    /// Connects and waits for one `ping` round trip, so the server's
    /// connection thread is running before anything is timed.
    ///
    /// # Errors
    ///
    /// Any socket failure or a wrong `ping` reply.
    pub fn connect(socket: &Path) -> Result<Conn, String> {
        let writer = UnixStream::connect(socket)
            .map_err(|e| format!("connect {}: {e}", socket.display()))?;
        writer
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        let mut conn = Conn { writer, reader };
        let pong = conn.round_trip("{\"op\":\"ping\"}")?;
        if !pong.contains("pong") {
            return Err(format!("ping answered {pong:?}"));
        }
        Ok(conn)
    }

    /// Writes one line.
    ///
    /// # Errors
    ///
    /// Any socket failure.
    pub fn send(&mut self, line: &str) -> Result<(), String> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.writer
            .write_all(&buf)
            .map_err(|e| format!("send: {e}"))
    }

    /// Reads one line (without its newline).
    ///
    /// # Errors
    ///
    /// A socket failure, a timeout or a closed connection.
    pub fn recv(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("connection closed".to_owned()),
            Ok(_) => {
                line.truncate(line.trim_end_matches('\n').len());
                Ok(line)
            }
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    /// # Errors
    ///
    /// Any socket failure.
    pub fn round_trip(&mut self, line: &str) -> Result<String, String> {
        self.send(line)?;
        self.recv()
    }

    /// Splits into independently owned write and read halves.
    #[must_use]
    pub fn split(self) -> (UnixStream, BufReader<UnixStream>) {
        (self.writer, self.reader)
    }

    /// Reassembles the halves [`Conn::split`] returned.
    #[must_use]
    pub fn from_halves(writer: UnixStream, reader: BufReader<UnixStream>) -> Conn {
        Conn { writer, reader }
    }
}
