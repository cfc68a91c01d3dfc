//! `aware-reactor`: a readiness-based TCP front end, std-only.
//!
//! The thread-per-connection front end in `aware-serve` spends one OS
//! thread (and its stack) per socket; 100K mostly-idle dashboards
//! would exhaust the box before any statistics ran. This crate is the
//! scaling answer: **one** event-loop thread multiplexes every
//! connection over raw `epoll(7)` (FFI in [`sys`], the same
//! no-libc-crate pattern as `obs`'s `signal(2)`), with per-connection
//! read/write state machines:
//!
//! * reads are nonblocking and feed an incremental decoder
//!   ([`decode::StreamDecoder`]) that tolerates arbitrary
//!   byte-boundary splits of NDJSON lines and `AWR2` frames;
//! * writes go through a per-connection output buffer with `EPOLLOUT`
//!   interest re-armed only while a partial write is outstanding;
//! * per-connection input and output caps bound memory: a peer that
//!   floods faster than it reads replies is paused (input) or
//!   disconnected (output cap — the slow-consumer contract);
//! * an optional idle timeout reaps connections that have neither
//!   read nor written for the configured duration.
//!
//! Protocol work never runs on the event loop. Each complete inbound
//! message is handed to a small pool of dispatcher threads (pinned
//! `token % DISPATCHERS`, so one connection's messages stay ordered)
//! that call into a [`ReactorService`] — `aware-serve` implements it
//! over the same `Dispatch` trait the blocking front end uses, so
//! batching and the α-investing ordering guarantees are untouched: the
//! dispatcher thread runs the command itself. One message per connection is in flight at a time;
//! replies re-enter the loop through a completion queue and an
//! `eventfd` wakeup.
//!
//! The loop only moves bytes: everything it writes to a connection is
//! the reply to a message that connection sent.

pub mod decode;
pub mod sys;

pub use decode::Inbound;

use decode::{DecoderConfig, StreamDecoder};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-connection protocol flags that travel with each message to the
/// dispatcher and back (the service mutates them; the loop keeps the
/// authoritative copy between messages).
#[derive(Debug, Clone, Default)]
pub struct ConnState {
    /// A binary connection has presented its hello frame.
    pub greeted: bool,
}

/// What the service decided about one inbound message.
pub struct Outcome {
    /// Encoded reply bytes (possibly empty — e.g. a blank NDJSON line).
    pub reply: Vec<u8>,
    /// Close the connection once the reply has been flushed.
    pub close: bool,
    /// Switch the connection's decoder to frame reassembly (the JSON
    /// hello that negotiated the binary encoding).
    pub upgrade_to_frames: bool,
}

impl Outcome {
    pub fn reply(reply: Vec<u8>) -> Outcome {
        Outcome {
            reply,
            close: false,
            upgrade_to_frames: false,
        }
    }

    pub fn close_with(reply: Vec<u8>) -> Outcome {
        Outcome {
            reply,
            close: true,
            upgrade_to_frames: false,
        }
    }

    pub fn none() -> Outcome {
        Outcome::reply(Vec::new())
    }
}

/// The protocol layer behind the reactor. Implementations must be
/// cheap to share (`&self` is called from every dispatcher thread).
pub trait ReactorService: Send + Sync + 'static {
    /// Handles one complete inbound message and returns the reply.
    /// Runs on a dispatcher thread, never on the event loop.
    fn handle(&self, state: &mut ConnState, inbound: Inbound) -> Outcome;

    /// Observability hooks (all optional).
    fn on_wakeup(&self) {}
    fn on_conn_open(&self) {}
    fn on_conn_close(&self) {}
}

/// Dispatcher threads (protocol decode/encode + command execution).
const DISPATCHERS: usize = 2;

/// Input pause threshold: stop reading once this many unparsed bytes
/// are buffered — whether or not a message is in flight — so the kernel
/// window fills and the peer blocks (backpressure to TCP instead of
/// unbounded memory). A single message legitimately larger than the cap
/// still assembles: the effective ceiling is
/// `max(IN_CAP, decoder.progress_bound())`.
const IN_CAP: usize = 1 << 20;

/// Event-loop tuning; defaults match the blocking front end's caps.
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Reap connections idle (no bytes either way) this long.
    pub idle_timeout: Option<Duration>,
    /// Per-connection message caps.
    pub decoder: DecoderConfig,
    /// Output buffer cap: a peer that never reads is disconnected once
    /// pending replies exceed this.
    pub out_cap: usize,
}

impl Default for ReactorConfig {
    fn default() -> ReactorConfig {
        ReactorConfig {
            idle_timeout: None,
            decoder: DecoderConfig::default(),
            out_cap: 16 << 20,
        }
    }
}

struct Control {
    stop: AtomicBool,
    wake: sys::WakeFd,
}

struct Work {
    token: u64,
    state: ConnState,
    inbound: Inbound,
}

struct Done {
    token: u64,
    state: ConnState,
    outcome: Outcome,
}

/// A running reactor bound to an address. Dropping it stops the loop,
/// closes every connection, and joins all threads.
pub struct ReactorServer {
    addr: SocketAddr,
    ctl: Arc<Control>,
    reactor: Option<std::thread::JoinHandle<()>>,
    dispatchers: Vec<std::thread::JoinHandle<()>>,
}

impl ReactorServer {
    /// Binds `addr` and starts the event loop plus dispatcher pool.
    pub fn bind<S: ReactorService>(
        addr: &str,
        service: S,
        cfg: ReactorConfig,
    ) -> io::Result<ReactorServer> {
        let poller = sys::Poller::new()?; // fails early on non-Linux
        let wake = sys::WakeFd::new()?;
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;

        let ctl = Arc::new(Control {
            stop: AtomicBool::new(false),
            wake,
        });
        let service = Arc::new(service);

        let (done_tx, done_rx) = mpsc::channel::<Done>();
        let mut work_tx = Vec::with_capacity(DISPATCHERS);
        let mut dispatcher_threads = Vec::with_capacity(DISPATCHERS);
        for i in 0..DISPATCHERS {
            let (tx, rx) = mpsc::channel::<Work>();
            work_tx.push(tx);
            let service = service.clone();
            let done_tx = done_tx.clone();
            let ctl = ctl.clone();
            dispatcher_threads.push(
                std::thread::Builder::new()
                    .name(format!("aware-reactor-dispatch-{i}"))
                    .spawn(move || dispatcher_loop(rx, service, done_tx, ctl))?,
            );
        }
        drop(done_tx);

        let ctl_for_loop = ctl.clone();
        let reactor = std::thread::Builder::new()
            .name("aware-reactor-loop".into())
            .spawn(move || {
                let mut reactor = Reactor {
                    cfg,
                    poller,
                    listener,
                    listener_fd: -1,
                    listener_paused_until: None,
                    service,
                    ctl: ctl_for_loop,
                    conns: HashMap::new(),
                    next_token: FIRST_CONN_TOKEN,
                    work_tx,
                    done_rx,
                };
                if let Err(e) = reactor.run() {
                    eprintln!("aware-reactor: event loop failed: {e}");
                }
            })?;

        Ok(ReactorServer {
            addr: local,
            ctl,
            reactor: Some(reactor),
            dispatchers: dispatcher_threads,
        })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for ReactorServer {
    fn drop(&mut self) {
        self.ctl.stop.store(true, Ordering::SeqCst);
        self.ctl.wake.wake();
        if let Some(t) = self.reactor.take() {
            let _ = t.join();
        }
        // The loop dropped its Work senders on exit; dispatchers drain
        // and return.
        for t in self.dispatchers.drain(..) {
            let _ = t.join();
        }
    }
}

fn dispatcher_loop<S: ReactorService>(
    rx: mpsc::Receiver<Work>,
    service: Arc<S>,
    done_tx: mpsc::Sender<Done>,
    ctl: Arc<Control>,
) {
    while let Ok(mut work) = rx.recv() {
        let inbound = work.inbound;
        let state = &mut work.state;
        // A panicking service must not wedge every connection pinned to
        // this dispatcher: catch, close that one connection, move on.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            service.handle(state, inbound)
        }))
        .unwrap_or_else(|_| Outcome::close_with(Vec::new()));
        if done_tx
            .send(Done {
                token: work.token,
                state: work.state,
                outcome,
            })
            .is_err()
        {
            return;
        }
        ctl.wake.wake();
    }
}

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKE: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// Most bytes one connection may read per readable wakeup (fairness:
/// 4 full chunks, then yield to the rest of the loop).
const READ_BUDGET_PER_WAKEUP: usize = 256 * 1024;

/// How long the listener stays deregistered after an accept failure
/// (EMFILE and friends) before the loop re-arms it.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

struct Conn {
    stream: TcpStream,
    fd: i32,
    decoder: StreamDecoder,
    /// Resident between messages; `None` while a message is in flight
    /// on a dispatcher (at most one per connection, which is what keeps
    /// per-session ordering intact).
    state: Option<ConnState>,
    out: Vec<u8>,
    sent: usize,
    read_closed: bool,
    close_after_flush: bool,
    /// Currently-armed epoll interest (MOD issued only on change).
    armed: u32,
    last_activity: Instant,
}

impl Conn {
    fn out_len(&self) -> usize {
        self.out.len() - self.sent
    }

    /// Whether inbound reads are paused for backpressure: more unparsed
    /// bytes than the input cap allows, regardless of whether a message
    /// is in flight (a pipelined flood with nothing outstanding must
    /// not buffer unboundedly either). The decoder's progress bound
    /// keeps a single over-cap message assemblable.
    fn input_paused(&self) -> bool {
        self.decoder.buffered() > IN_CAP.max(self.decoder.progress_bound())
    }
}

/// How one nonblocking read attempt ended, EINTR already retried.
/// (Kept as a standalone classification so the zero-read/EINTR edge is
/// unit-testable without a socket — the same edge the blocking front
/// end's pump pins in `aware-serve`'s `tcp.rs`.)
#[derive(Debug, PartialEq, Eq)]
enum ReadStep {
    Data(usize),
    Eof,
    WouldBlock,
    Fatal,
}

fn read_step(reader: &mut impl Read, buf: &mut [u8]) -> ReadStep {
    loop {
        match reader.read(buf) {
            Ok(0) => return ReadStep::Eof,
            Ok(n) => return ReadStep::Data(n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return ReadStep::WouldBlock,
            Err(_) => return ReadStep::Fatal,
        }
    }
}

struct Reactor<S: ReactorService> {
    cfg: ReactorConfig,
    poller: sys::Poller,
    listener: TcpListener,
    /// Cached raw fd of `listener` (set once in `run`).
    listener_fd: i32,
    /// While `Some`, the listener is deregistered from the poller after
    /// an accept failure (EMFILE and friends); the loop re-arms it once
    /// the deadline passes. Established connections keep being serviced
    /// throughout — the loop never sleeps inline.
    listener_paused_until: Option<Instant>,
    service: Arc<S>,
    ctl: Arc<Control>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    work_tx: Vec<mpsc::Sender<Work>>,
    done_rx: mpsc::Receiver<Done>,
}

impl<S: ReactorService> Reactor<S> {
    fn run(&mut self) -> io::Result<()> {
        #[cfg(unix)]
        {
            use std::os::unix::io::AsRawFd;
            self.listener_fd = self.listener.as_raw_fd();
        }
        self.poller
            .add(self.listener_fd, sys::EPOLLIN, TOKEN_LISTENER)?;
        self.poller
            .add(self.ctl.wake.fd(), sys::EPOLLIN, TOKEN_WAKE)?;

        let timeout_ms: i32 = match self.cfg.idle_timeout {
            // Tick at a quarter of the timeout so reaping is at most
            // 25% late, clamped to a sane polling band.
            Some(t) => (t.as_millis() / 4).clamp(50, 1000) as i32,
            None => -1,
        };
        let mut events = vec![sys::Event::empty(); 1024];
        let mut last_reap = Instant::now();

        loop {
            // A paused listener turns its re-arm deadline into a wait
            // bound so the backoff ends on time even on an otherwise
            // idle loop.
            let wait_ms = match self.listener_paused_until {
                Some(deadline) => {
                    let remain = deadline.saturating_duration_since(Instant::now());
                    let remain_ms = (remain.as_millis() as i64 + 1).min(i32::MAX as i64) as i32;
                    if timeout_ms < 0 {
                        remain_ms
                    } else {
                        timeout_ms.min(remain_ms)
                    }
                }
                None => timeout_ms,
            };
            let n = self.poller.wait(&mut events, wait_ms)?;
            if n > 0 {
                self.service.on_wakeup();
            }
            for event in events.iter().take(n) {
                let (token, mask) = (event.token(), event.mask());
                match token {
                    TOKEN_LISTENER => self.accept_all(),
                    TOKEN_WAKE => self.ctl.wake.drain(),
                    _ => {
                        if mask & (sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLERR | sys::EPOLLHUP)
                            != 0
                        {
                            self.handle_readable(token);
                        }
                        if mask & sys::EPOLLOUT != 0 {
                            self.handle_writable(token);
                        }
                    }
                }
            }
            self.drain_completions();
            if let Some(deadline) = self.listener_paused_until {
                if Instant::now() >= deadline {
                    self.listener_paused_until = None;
                    if self
                        .poller
                        .add(self.listener_fd, sys::EPOLLIN, TOKEN_LISTENER)
                        .is_ok()
                    {
                        // Catch up on the backlog that queued while the
                        // listener was off the poller.
                        self.accept_all();
                    } else {
                        self.listener_paused_until = Some(Instant::now() + ACCEPT_BACKOFF);
                    }
                }
            }
            if self.ctl.stop.load(Ordering::SeqCst) {
                return Ok(());
            }
            if let Some(idle) = self.cfg.idle_timeout {
                if last_reap.elapsed() >= idle / 4 {
                    self.reap_idle(idle);
                    last_reap = Instant::now();
                }
            }
        }
    }

    fn accept_all(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    #[cfg(unix)]
                    let fd = {
                        use std::os::unix::io::AsRawFd;
                        stream.as_raw_fd()
                    };
                    #[cfg(not(unix))]
                    let fd = -1;
                    let token = self.next_token;
                    self.next_token += 1;
                    let interest = sys::EPOLLIN | sys::EPOLLRDHUP;
                    if self.poller.add(fd, interest, token).is_err() {
                        continue;
                    }
                    self.conns.insert(
                        token,
                        Conn {
                            stream,
                            fd,
                            decoder: StreamDecoder::new(self.cfg.decoder.clone()),
                            state: Some(ConnState::default()),
                            out: Vec::new(),
                            sent: 0,
                            read_closed: false,
                            close_after_flush: false,
                            armed: interest,
                            last_activity: Instant::now(),
                        },
                    );
                    self.service.on_conn_open();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // EMFILE and friends: take the listener off the
                    // poller and re-arm it after a short backoff
                    // (handled in `run`). Sleeping here would stall
                    // reads, writes and completions for every
                    // established connection — an fd-exhaustion attack
                    // must not become a periodic full-loop stall.
                    let _ = self.poller.delete(self.listener_fd);
                    self.listener_paused_until = Some(Instant::now() + ACCEPT_BACKOFF);
                    return;
                }
            }
        }
    }

    fn close(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.delete(conn.fd);
            self.service.on_conn_close();
            // `conn.stream` drops here, closing the fd.
        }
    }

    fn handle_readable(&mut self, token: u64) {
        let mut chunk = [0u8; 64 * 1024];
        let mut fatal = false;
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            // Fairness bound: one readable event may consume at most
            // this much before yielding — a loopback peer that keeps
            // the socket readable (pipelined flood) must not monopolize
            // the loop thread inside a single wakeup. Level-triggered
            // epoll re-reports the fd on the next wait, so nothing is
            // lost by stopping early.
            let mut budget = READ_BUDGET_PER_WAKEUP;
            loop {
                // Input cap: buffering more than `IN_CAP` unparsed
                // bytes stops reads — in flight or not — so the kernel
                // window fills and the peer blocks, which is the
                // backpressure we want. (`update_interest` drops
                // EPOLLIN while paused; draining completions re-arms.)
                if budget == 0 || conn.input_paused() {
                    break;
                }
                match read_step(&mut conn.stream, &mut chunk) {
                    ReadStep::Data(n) => {
                        conn.decoder.push(&chunk[..n]);
                        conn.last_activity = Instant::now();
                        budget = budget.saturating_sub(n);
                    }
                    ReadStep::Eof => {
                        conn.read_closed = true;
                        break;
                    }
                    ReadStep::WouldBlock => break,
                    ReadStep::Fatal => {
                        fatal = true;
                        break;
                    }
                }
            }
        }
        if fatal {
            self.close(token);
            return;
        }
        self.pump(token);
    }

    fn handle_writable(&mut self, token: u64) {
        if !self.flush(token) {
            return;
        }
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.close_after_flush && conn.out_len() == 0 {
            self.close(token);
            return;
        }
        self.update_interest(token);
    }

    /// Flushes as much of the output buffer as the socket accepts.
    /// Returns false if the connection died (and was closed).
    fn flush(&mut self, token: u64) -> bool {
        let Some(conn) = self.conns.get_mut(&token) else {
            return false;
        };
        while conn.sent < conn.out.len() {
            match conn.stream.write(&conn.out[conn.sent..]) {
                Ok(0) => {
                    self.close(token);
                    return false;
                }
                Ok(n) => {
                    conn.sent += n;
                    conn.last_activity = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => {
                    self.close(token);
                    return false;
                }
            }
        }
        if conn.sent == conn.out.len() && conn.sent > 0 {
            conn.out.clear();
            conn.sent = 0;
            if conn.out.capacity() > (1 << 20) {
                conn.out.shrink_to(64 * 1024);
            }
        }
        true
    }

    /// Tries to move the connection forward: extract the next complete
    /// message and dispatch it, or wind the connection down at EOF.
    fn pump(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.close_after_flush {
            if conn.out_len() == 0 {
                self.close(token);
            } else {
                self.update_interest(token);
            }
            return;
        }
        if conn.state.is_some() {
            match conn.decoder.next() {
                Some(inbound) => {
                    let state = conn.state.take().expect("state resident");
                    let worker = (token % self.work_tx.len() as u64) as usize;
                    if self.work_tx[worker]
                        .send(Work {
                            token,
                            state,
                            inbound,
                        })
                        .is_err()
                    {
                        self.close(token);
                        return;
                    }
                }
                None => {
                    if conn.read_closed {
                        match conn.decoder.finish() {
                            Some(inbound) => {
                                let state = conn.state.take().expect("state resident");
                                conn.close_after_flush = true;
                                let worker = (token % self.work_tx.len() as u64) as usize;
                                if self.work_tx[worker]
                                    .send(Work {
                                        token,
                                        state,
                                        inbound,
                                    })
                                    .is_err()
                                {
                                    self.close(token);
                                    return;
                                }
                            }
                            None => {
                                if conn.out_len() == 0 {
                                    self.close(token);
                                    return;
                                }
                                conn.close_after_flush = true;
                            }
                        }
                    }
                }
            }
        }
        self.update_interest(token);
    }

    fn update_interest(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let paused = conn.input_paused();
        let mut interest = 0;
        if !conn.read_closed && !conn.close_after_flush && !paused {
            interest |= sys::EPOLLIN | sys::EPOLLRDHUP;
        }
        if conn.out_len() > 0 {
            interest |= sys::EPOLLOUT;
        }
        if interest != conn.armed {
            conn.armed = interest;
            let fd = conn.fd;
            if self.poller.modify(fd, interest, token).is_err() {
                self.close(token);
            }
        }
    }

    fn drain_completions(&mut self) {
        while let Ok(done) = self.done_rx.try_recv() {
            self.apply_completion(done);
        }
    }

    fn apply_completion(&mut self, done: Done) {
        let token = done.token;
        let Some(conn) = self.conns.get_mut(&token) else {
            return; // connection died while its message was in flight
        };
        conn.state = Some(done.state);
        if !done.outcome.reply.is_empty() {
            conn.out.extend_from_slice(&done.outcome.reply);
        }
        if done.outcome.upgrade_to_frames {
            conn.decoder.set_frames();
        }
        let over_cap = conn.out_len() > self.cfg.out_cap;
        let close_requested = done.outcome.close;
        if over_cap {
            // The peer is not reading its replies; holding more than
            // out_cap hostage is how slow consumers take servers down.
            // The connection goes, the session (server-side state)
            // stays.
            self.close(token);
            return;
        }
        if !self.flush(token) {
            return;
        }
        if close_requested {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.out_len() == 0 {
                self.close(token);
            } else {
                conn.close_after_flush = true;
                self.update_interest(token);
            }
            return;
        }
        // The decoder may already hold the next complete message
        // (pipelined traffic never waits for another readable event).
        self.pump(token);
    }

    fn reap_idle(&mut self, idle: Duration) {
        let now = Instant::now();
        let stale: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                c.state.is_some() // never reap mid-dispatch
                    && c.out_len() == 0
                    && now.duration_since(c.last_activity) >= idle
            })
            .map(|(&t, _)| t)
            .collect();
        for token in stale {
            self.close(token);
        }
    }
}

impl<S: ReactorService> Drop for Reactor<S> {
    fn drop(&mut self) {
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.close(token);
        }
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

    /// A toy line protocol: `quit` closes, anything else echoes.
    /// Exercises the loop without aware-serve.
    struct Echo;

    impl ReactorService for Echo {
        fn handle(&self, _state: &mut ConnState, inbound: Inbound) -> Outcome {
            match inbound {
                Inbound::Line(l) if l == "quit" => Outcome::close_with(b"bye\n".to_vec()),
                Inbound::Line(l) => Outcome::reply(format!("echo {l}\n").into_bytes()),
                Inbound::LineTooLong => Outcome::reply(b"too-long\n".to_vec()),
                _ => Outcome::close_with(Vec::new()),
            }
        }
    }

    fn connect(server: &ReactorServer) -> TcpStream {
        TcpStream::connect(server.local_addr()).unwrap()
    }

    #[test]
    fn echoes_lines_written_bytewise() {
        let server = ReactorServer::bind("127.0.0.1:0", Echo, ReactorConfig::default()).unwrap();
        let stream = connect(&server);
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut w = stream.try_clone().unwrap();
        for &b in b"hello reactor\n" {
            w.write_all(&[b]).unwrap();
            w.flush().unwrap();
        }
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "echo hello reactor\n");
    }

    #[test]
    fn pipelined_lines_answer_in_order() {
        let server = ReactorServer::bind("127.0.0.1:0", Echo, ReactorConfig::default()).unwrap();
        let stream = connect(&server);
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut w = stream.try_clone().unwrap();
        w.write_all(b"a\nb\nc\n").unwrap();
        for expect in ["echo a\n", "echo b\n", "echo c\n"] {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert_eq!(line, expect);
        }
    }

    #[test]
    fn close_outcome_flushes_then_closes() {
        let server = ReactorServer::bind("127.0.0.1:0", Echo, ReactorConfig::default()).unwrap();
        let stream = connect(&server);
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut w = stream.try_clone().unwrap();
        w.write_all(b"quit\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "bye\n");
        line.clear();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0, "expected EOF");
    }

    #[test]
    fn idle_connections_are_reaped() {
        let cfg = ReactorConfig {
            idle_timeout: Some(Duration::from_millis(200)),
            ..ReactorConfig::default()
        };
        let server = ReactorServer::bind("127.0.0.1:0", Echo, cfg).unwrap();
        let stream = connect(&server);
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        // The server reaps us without a byte ever flowing: read_line
        // sees EOF (Ok(0)), not a timeout.
        assert_eq!(reader.read_line(&mut line).unwrap(), 0);
    }

    #[test]
    fn read_step_retries_eintr_before_classifying() {
        struct Flaky {
            interrupts: usize,
            data: &'static [u8],
        }
        impl Read for Flaky {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.interrupts > 0 {
                    self.interrupts -= 1;
                    return Err(io::Error::from(io::ErrorKind::Interrupted));
                }
                if self.data.is_empty() {
                    return Ok(0);
                }
                let n = self.data.len().min(buf.len());
                buf[..n].copy_from_slice(&self.data[..n]);
                self.data = &self.data[n..];
                Ok(n)
            }
        }
        let mut buf = [0u8; 16];
        // EINTR storms never surface as data loss or a bogus EOF …
        let mut flaky = Flaky {
            interrupts: 3,
            data: b"A",
        };
        assert_eq!(read_step(&mut flaky, &mut buf), ReadStep::Data(1));
        assert_eq!(buf[0], b'A');
        // … and a genuine EOF after retries is still an EOF.
        assert_eq!(read_step(&mut flaky, &mut buf), ReadStep::Eof);
        let mut eof_after_eintr = Flaky {
            interrupts: 2,
            data: b"",
        };
        assert_eq!(read_step(&mut eof_after_eintr, &mut buf), ReadStep::Eof);
    }
}
