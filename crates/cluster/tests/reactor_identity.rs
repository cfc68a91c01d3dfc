//! Front-end identity for the `cluster` binary: `--reactor` must be
//! wire-invisible on both roles.
//!
//! Mirrors `crates/serve/tests/reactor_scaling.rs`'s identity half for
//! the second binary named by the ISSUE 9 acceptance criteria. Each
//! test spawns a pair of otherwise-identical processes — one
//! thread-per-connection, one `--reactor` — replays one deterministic
//! exploration transcript per protocol surface (v1 NDJSON, v2 JSON
//! lines, v2 binary frames, JSON→binary upgrade), and asserts the
//! reply streams are byte-identical.
//!
//! The router pair gets one private shard each (same seed, same rows):
//! session ids are allocated by the shard's counter, so identical
//! replay order keeps both sides' ids in lockstep, and a single-shard
//! ring routes every session identically regardless of the shard's
//! ephemeral port.

#![cfg(target_os = "linux")]

use aware_data::predicate::CmpOp;
use aware_data::value::Value;
use aware_serve::proto::{
    Batch, BatchItem, BatchMode, Command, Encoding, Envelope, FilterSpec, PolicySpec, SessionId,
    PROTOCOL_VERSION,
};
use aware_serve::{frame, wire};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::process::{Child, Command as Proc, Stdio};
use std::sync::Mutex;

/// Serializes the tests: each spawns several real processes on an
/// OS-assigned port and a box with one guaranteed core.
static SERIAL: Mutex<()> = Mutex::new(());

/// Kills a spawned process even when an assertion panics.
struct ProcGuard(Child);

impl Drop for ProcGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawns the `cluster` binary with `args`, waiting for its
/// `… listening on ADDR …` stderr announcement.
fn spawn(args: &[&str]) -> (ProcGuard, SocketAddr) {
    let mut child = Proc::new(env!("CARGO_BIN_EXE_cluster"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn the cluster binary");
    let stderr = child.stderr.take().expect("piped stderr");
    let guard = ProcGuard(child);
    let mut lines = BufReader::new(stderr).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("process exited before announcing its address")
            .expect("read stderr");
        if let Some(rest) = line.split(" listening on ").nth(1) {
            break rest
                .split_whitespace()
                .next()
                .expect("address token")
                .parse()
                .expect("parse announced address");
        }
    };
    // Keep draining stderr so the child never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines {});
    (guard, addr)
}

fn spawn_shard(reactor: bool) -> (ProcGuard, SocketAddr) {
    let mut args = vec![
        "shard",
        "--addr",
        "127.0.0.1:0",
        "--rows",
        "1200",
        "--seed",
        "7",
    ];
    if reactor {
        args.push("--reactor");
    }
    spawn(&args)
}

fn spawn_router(shard: &SocketAddr, reactor: bool) -> (ProcGuard, SocketAddr) {
    let shard = shard.to_string();
    let mut args = vec!["router", "--addr", "127.0.0.1:0", "--shard", &shard];
    if reactor {
        args.push("--reactor");
    }
    spawn(&args)
}

/// One deterministic exploration transcript per surface — the same
/// script as the serve-binary identity test, so a divergence here but
/// not there points at the router layer.
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
    // Error replies are part of the identity contract too.
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

fn assert_identical(thread_addr: SocketAddr, reactor_addr: SocketAddr) {
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

#[test]
fn shard_role_replies_are_byte_identical_across_front_ends() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (_thread_guard, thread_addr) = spawn_shard(false);
    let (_reactor_guard, reactor_addr) = spawn_shard(true);
    assert_identical(thread_addr, reactor_addr);
}

#[test]
fn router_role_replies_are_byte_identical_across_front_ends() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (_shard_a, shard_a_addr) = spawn_shard(false);
    let (_shard_b, shard_b_addr) = spawn_shard(false);
    let (_thread_guard, thread_addr) = spawn_router(&shard_a_addr, false);
    let (_reactor_guard, reactor_addr) = spawn_router(&shard_b_addr, true);
    assert_identical(thread_addr, reactor_addr);
}
