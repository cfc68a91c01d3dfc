//! Building the product binaries and running them as child processes.
//!
//! Every child is held by a guard that ends it (SIGTERM, then SIGKILL)
//! when dropped — on success, on an error return and on a panic — and a
//! watchdog ends them all if a run outlives its time limit.

use crate::layers::{self, ProcessSpec};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// The repository root: the parent of this package's directory.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

/// Scratch space inside the checkout (ignored by git).
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Where cargo puts build output: `CARGO_TARGET_DIR` (relative to the
/// directory the benchmark was started from) or `<root>/target`.
fn target_dir(root: &Path) -> PathBuf {
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => std::env::current_dir()
            .unwrap_or_else(|_| root.to_path_buf())
            .join(dir),
        None => root.join("target"),
    }
}

/// The two release binaries the benchmark drives.
#[derive(Debug, Clone)]
pub struct Binaries {
    pub serve: PathBuf,
    pub cluster: PathBuf,
}

impl Binaries {
    fn path(&self, name: &str) -> &Path {
        match name {
            "serve" => &self.serve,
            _ => &self.cluster,
        }
    }
}

const BUILD_COMMAND: [&str; 6] = ["build", "--release", "--bin", "serve", "--bin", "cluster"];

/// Builds `serve` and `cluster` from the repository's own workspace in
/// release mode (a no-op when they are current) and refuses to go on
/// without them.
pub fn build_binaries() -> Result<Binaries, String> {
    let root = repo_root();
    let target = target_dir(&root);
    let how = format!("cargo {} (in {})", BUILD_COMMAND.join(" "), root.display());
    let output = Command::new("cargo")
        .args(BUILD_COMMAND)
        .current_dir(&root)
        .env("CARGO_TARGET_DIR", &target)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run `{how}`: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "`{how}` failed:\n{}",
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let binaries = Binaries {
        serve: target.join("release").join("serve"),
        cluster: target.join("release").join("cluster"),
    };
    for path in [&binaries.serve, &binaries.cluster] {
        if !path.is_file() {
            return Err(format!(
                "{} is missing after the build; build it with `{how}`",
                path.display()
            ));
        }
    }
    Ok(binaries)
}

/// Pids of live children, for the watchdog.
static LIVE: Mutex<Vec<u32>> = Mutex::new(Vec::new());

fn signal(pid: u32, name: &str) {
    let _ = Command::new("kill")
        .args([name, &pid.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status();
}

/// Ends the whole process, children first, if it is still running
/// after `limit` — a hung server must not hang the benchmark.
pub fn start_watchdog(limit: Duration) {
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("benchmark: still running after {limit:?}; killing children and giving up");
        for pid in LIVE.lock().map(|l| l.clone()).unwrap_or_default() {
            signal(pid, "-KILL");
        }
        std::process::exit(3);
    });
}

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

fn set_affinity(set: &CpuSet) -> Result<(), String> {
    // SAFETY: `set` points at a whole `cpu_set_t` and pid 0 is the caller.
    match unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) } {
        0 => Ok(()),
        _ => Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        )),
    }
}

/// While it lives, the calling thread — and every thread and process
/// started from it — runs on one CPU: the highest-numbered one it was
/// allowed (the lower ones take the guest's interrupts).
///
/// A closed loop over one connection never has two things to do at
/// once, so nothing is lost; what goes away is the guest scheduler's
/// choice, at each of an op's four thread hand-offs, between waking the
/// next thread on this CPU or on an idle one, which on a shared host
/// costs a hypervisor exit: `cluster_hop_20k` read a median of 205 us
/// in nine runs of ten and 71 us in the tenth, same code, same seed
/// range, depending on where the threads had landed.
pub struct OneCpu {
    before: CpuSet,
}

impl OneCpu {
    pub fn confine() -> Result<OneCpu, String> {
        let mut before: CpuSet = [0; 16];
        // SAFETY: as in `set_affinity`.
        if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut before) } != 0 {
            return Err(format!(
                "sched_getaffinity: {}",
                std::io::Error::last_os_error()
            ));
        }
        let word = before
            .iter()
            .rposition(|&w| w != 0)
            .ok_or("sched_getaffinity reported no CPU")?;
        let mut one: CpuSet = [0; 16];
        one[word] = 1 << (63 - before[word].leading_zeros());
        set_affinity(&one)?;
        Ok(OneCpu { before })
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        let _ = set_affinity(&self.before);
    }
}

/// What a child wrote to stderr, shared with its reader thread.
#[derive(Default)]
struct Log {
    lines: Mutex<Vec<String>>,
    panicked: AtomicBool,
}

/// One running server process.
pub struct Server {
    name: String,
    child: Child,
    pub addr: SocketAddr,
    pub metrics_addr: Option<SocketAddr>,
    log: Arc<Log>,
    reader: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Starts the process and waits for its `listening on` line.
    pub fn spawn(binaries: &Binaries, spec: &ProcessSpec) -> Result<Server, String> {
        let name = format!("{} {}", spec.binary, spec.args.join(" "));
        let mut child = Command::new(binaries.path(spec.binary))
            .args(&spec.args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start `{name}`: {e}"))?;
        LIVE.lock().expect("pid list").push(child.id());
        let stderr = child.stderr.take().expect("stderr is piped");
        let log = Arc::new(Log::default());
        let (tx, rx) = mpsc::channel::<(Option<SocketAddr>, SocketAddr)>();
        let wants_metrics = spec.args.iter().any(|a| a == "--metrics-addr");
        let reader = {
            let log = log.clone();
            std::thread::spawn(move || {
                let mut metrics = None;
                let mut announce = Some(tx);
                for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                    if line.contains("panic") {
                        log.panicked.store(true, Ordering::SeqCst);
                    }
                    metrics = metrics.or_else(|| layers::parse_metrics_addr(&line));
                    if let Some(addr) = layers::parse_listening(&line) {
                        if let Some(tx) = announce.take() {
                            let _ = tx.send((metrics, addr));
                        }
                    }
                    log.lines.lock().expect("log").push(line);
                }
            })
        };
        let mut server = Server {
            name,
            child,
            addr: "0.0.0.0:0".parse().expect("literal"),
            metrics_addr: None,
            log,
            reader: Some(reader),
        };
        match rx.recv_timeout(Duration::from_secs(60)) {
            Ok((metrics, addr)) => {
                server.addr = addr;
                server.metrics_addr = metrics;
                if wants_metrics && metrics.is_none() {
                    return Err(format!(
                        "`{}` never announced its metrics endpoint",
                        server.name
                    ));
                }
                Ok(server)
            }
            Err(_) => Err(format!(
                "`{}` never announced a listening address; stderr:\n{}",
                server.name,
                server.stderr_tail()
            )),
        }
    }

    fn stderr_tail(&self) -> String {
        let lines = self.log.lines.lock().expect("log");
        let from = lines.len().saturating_sub(20);
        lines[from..].join("\n")
    }

    /// Fails if the process has exited or has logged a panic.
    pub fn check_healthy(&mut self) -> Result<(), String> {
        if self.log.panicked.load(Ordering::SeqCst) {
            return Err(format!(
                "`{}` logged a panic:\n{}",
                self.name,
                self.stderr_tail()
            ));
        }
        match self.child.try_wait() {
            Ok(None) => Ok(()),
            Ok(Some(status)) => Err(format!(
                "`{}` exited early ({status}):\n{}",
                self.name,
                self.stderr_tail()
            )),
            Err(e) => Err(format!("`{}`: cannot poll: {e}", self.name)),
        }
    }

    /// Peak resident set size so far (`VmHWM`), in KiB.
    pub fn peak_rss_kib(&self) -> Result<u64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| format!("{path}: no VmHWM line"))
    }

    /// `GET /metrics` from the process's Prometheus endpoint.
    pub fn scrape_metrics(&self) -> Result<String, String> {
        let addr = self
            .metrics_addr
            .ok_or_else(|| format!("`{}` has no metrics endpoint", self.name))?;
        let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))
            .map_err(|e| format!("metrics {addr}: {e}"))?;
        let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: benchmark\r\nConnection: close\r\n\r\n")
            .map_err(|e| format!("metrics {addr}: {e}"))?;
        let mut raw = String::new();
        stream
            .read_to_string(&mut raw)
            .map_err(|e| format!("metrics {addr}: {e}"))?;
        match raw.split_once("\r\n\r\n") {
            Some((head, body)) if head.starts_with("HTTP/1.1 200") => Ok(body.to_string()),
            _ => Err(format!("metrics {addr}: unexpected response")),
        }
    }

    /// SIGTERM and wait for the graceful drain; SIGKILL after 10 s.
    /// Returns an error if the process had crashed or logged a panic.
    pub fn stop(mut self) -> Result<(), String> {
        let health = self.check_healthy();
        self.end();
        health
    }

    fn end(&mut self) {
        let pid = self.child.id();
        if matches!(self.child.try_wait(), Ok(None)) {
            signal(pid, "-TERM");
            let deadline = Instant::now() + Duration::from_secs(10);
            while matches!(self.child.try_wait(), Ok(None)) {
                if Instant::now() >= deadline {
                    let _ = self.child.kill();
                    break;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        let _ = self.child.wait();
        if let Ok(mut live) = LIVE.lock() {
            live.retain(|&p| p != pid);
        }
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.end();
    }
}

/// A directory under `benchmark/out`, removed when dropped.
pub struct TempDir(PathBuf);

static TEMP_SERIAL: AtomicU64 = AtomicU64::new(0);

impl TempDir {
    pub fn new(label: &str) -> Result<TempDir, String> {
        let path = out_dir().join(format!(
            "tmp-{label}-{}-{}",
            std::process::id(),
            TEMP_SERIAL.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(TempDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What every output records about where it was measured.
pub struct Provenance {
    pub commit: String,
    pub rustc: String,
    pub nproc: usize,
}

fn first_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program)
        .args(args)
        .current_dir(repo_root())
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    output.status.success().then(|| {
        String::from_utf8_lossy(&output.stdout)
            .lines()
            .next()
            .map(String::from)
    })?
}

pub fn provenance() -> &'static Provenance {
    static ONCE: std::sync::OnceLock<Provenance> = std::sync::OnceLock::new();
    ONCE.get_or_init(|| Provenance {
        // A benchmark checkout need not be a git repository.
        commit: first_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into()),
        rustc: first_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
    })
}
