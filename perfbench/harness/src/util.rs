//! Seeds, order statistics, child-process accounting, and the daemon
//! client used by every workload.

use acclaim_serve::protocol::{decode_response, WireResponse};
use std::fs::File;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// SplitMix64 finalizer: a bijective 64-bit mix.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `i`-th value of input stream `stream` under the workload seed.
/// Streams keep tune seeds, warm-up seeds, and query draws independent.
pub fn derive(seed: u64, stream: u64, i: u64) -> u64 {
    splitmix64(splitmix64(seed ^ splitmix64(stream)) ^ i)
}

/// Median of `v` (mean of the middle pair for even lengths).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated `q`-quantile of `v`.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of an empty sample");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Arithmetic mean of `v`.
pub fn mean(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "mean of an empty sample");
    v.iter().sum::<f64>() / v.len() as f64
}

/// What one finished child process cost.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// Spawn to reap, seconds.
    pub wall_s: f64,
    /// User plus system CPU of the child, seconds.
    pub cpu_s: f64,
    /// Peak resident set of the child, MiB.
    pub peak_rss_mb: f64,
    /// Exited normally with status 0.
    pub success: bool,
}

mod sys {
    /// `struct timeval` on 64-bit Linux.
    #[repr(C)]
    #[derive(Default)]
    pub struct Timeval {
        pub sec: i64,
        pub usec: i64,
    }

    /// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
    #[repr(C)]
    #[derive(Default)]
    pub struct Rusage {
        pub utime: Timeval,
        pub stime: Timeval,
        pub maxrss_kb: i64,
        pub rest: [i64; 13],
    }

    extern "C" {
        pub fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    }
}

/// Reap `child` with `wait4`, which reports that child's own CPU time
/// and peak RSS (std's `wait` discards both).
fn reap(child: Child, started: Instant) -> io::Result<Usage> {
    let pid = i32::try_from(child.id()).map_err(|_| io::Error::other("pid out of range"))?;
    let mut status = 0i32;
    let mut usage = sys::Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are live, writable, and laid out
        // as the kernel's `int` and 64-bit `struct rusage`; `pid` names
        // a child this process spawned and has not reaped (`child` is
        // consumed here, so std never waits on it).
        let rc = unsafe { sys::wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    drop(child);
    let secs = |t: &sys::Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Ok(Usage {
        wall_s: started.elapsed().as_secs_f64(),
        cpu_s: secs(&usage.utime) + secs(&usage.stime),
        peak_rss_mb: usage.maxrss_kb as f64 / 1024.0,
        success: status & 0x7f == 0 && (status >> 8) & 0xff == 0,
    })
}

/// Run `program args` to completion with stdout captured and stderr
/// sent to `stderr_log`.
pub fn run_measured(
    program: &Path,
    args: &[String],
    stderr_log: &Path,
) -> io::Result<(Usage, String)> {
    let started = Instant::now();
    let mut child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::from(File::create(stderr_log)?))
        .spawn()?;
    let mut out = String::new();
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut out);
    let usage = reap(child, started)?;
    read?;
    Ok((usage, out))
}

/// `utime + stime` of a live process, seconds (`/proc/<pid>/stat`,
/// in USER_HZ = 100 ticks).
pub fn proc_cpu_s(pid: u32) -> io::Result<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // Fields after the parenthesised command name start at `state` (3).
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| io::Error::other("malformed /proc stat"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> io::Result<f64> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / 100.0)
            .ok_or_else(|| io::Error::other("malformed /proc stat"))
    };
    Ok(tick(11)? + tick(12)?)
}

/// Peak resident set (`VmHWM`) of a live process, MiB.
pub fn proc_peak_rss_mb(pid: u32) -> io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
}

/// One client connection: send a line, read a line.
pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    line: String,
}

impl Conn {
    /// Connect to the daemon's socket.
    pub fn open(socket: &Path) -> io::Result<Conn> {
        let writer = UnixStream::connect(socket)?;
        Ok(Conn {
            reader: BufReader::new(writer.try_clone()?),
            writer,
            line: String::new(),
        })
    }

    /// Send one newline-terminated request line; return the response
    /// line without its newline.
    pub fn round_trip(&mut self, request: &str) -> io::Result<&str> {
        debug_assert!(request.ends_with('\n'));
        self.writer.write_all(request.as_bytes())?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        Ok(self.line.trim_end())
    }

    /// Round trip decoded into a response.
    pub fn call(&mut self, request: &str) -> io::Result<WireResponse> {
        let line = self.round_trip(request)?;
        decode_response(line).map_err(io::Error::other)
    }
}

/// A running `acclaim serve` child, killed and reaped on drop if it was
/// not shut down cleanly.
pub struct Daemon {
    child: Option<Child>,
    /// Socket path, relative to the working directory.
    socket: PathBuf,
}

/// Request lines the harness sends verbatim.
pub const STATS_LINE: &str = "\"Stats\"\n";
pub const METRICS_LINE: &str = "\"Metrics\"\n";
pub const SHUTDOWN_LINE: &str = "\"Shutdown\"\n";

impl Daemon {
    /// Spawn the daemon on `store` and wait until it answers `Stats`.
    /// Returns the daemon and the spawn-to-first-answer time (s).
    pub fn start(
        acclaim: &Path,
        store: &Path,
        socket: &Path,
        extra: &[String],
        log: &Path,
    ) -> io::Result<(Daemon, f64)> {
        let started = Instant::now();
        let mut args: Vec<String> = vec![
            "serve".into(),
            "--quiet".into(),
            "--store".into(),
            store.display().to_string(),
            "--socket".into(),
            socket.display().to_string(),
        ];
        args.extend_from_slice(extra);
        let child = Command::new(acclaim)
            .args(&args)
            .stdin(Stdio::null())
            .stdout(Stdio::from(File::create(log)?))
            .stderr(Stdio::from(File::create(log.with_extension("err"))?))
            .spawn()?;
        let mut daemon = Daemon {
            child: Some(child),
            socket: socket.to_path_buf(),
        };
        let deadline = started + Duration::from_secs(30);
        let mut conn = loop {
            match Conn::open(socket) {
                Ok(c) => break c,
                Err(e) if Instant::now() > deadline => return Err(e),
                Err(_) => {
                    if let Some(status) = daemon
                        .child
                        .as_mut()
                        .and_then(|c| c.try_wait().ok().flatten())
                    {
                        daemon.child = None;
                        return Err(io::Error::other(format!("daemon exited early: {status}")));
                    }
                    std::thread::sleep(Duration::from_micros(50));
                }
            }
        };
        match conn.call(STATS_LINE)? {
            WireResponse::Stats { .. } => Ok((daemon, started.elapsed().as_secs_f64())),
            other => Err(io::Error::other(format!(
                "unexpected Stats reply {other:?}"
            ))),
        }
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Connect a new client.
    pub fn connect(&self) -> io::Result<Conn> {
        Conn::open(&self.socket)
    }

    /// Send `Shutdown` and wait (bounded) for the process to exit.
    /// Every other connection must already be closed.
    pub fn shutdown(mut self) -> io::Result<()> {
        let mut conn = self.connect()?;
        let reply = conn.call(SHUTDOWN_LINE)?;
        drop(conn);
        if !matches!(reply, WireResponse::Bye) {
            return Err(io::Error::other(format!(
                "unexpected Shutdown reply {reply:?}"
            )));
        }
        let mut child = self.child.take().expect("daemon still owned");
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Some(status) = child.try_wait()? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!("daemon exited with {status}")))
                };
            }
            if Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::other("daemon did not exit after Shutdown"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}
