//! Hostile-client battery for the reactor front end.
//!
//! Every scenario here is an attack the thread-per-connection front
//! end survives by accident (a parked thread per victim) and the
//! reactor must survive by construction: slow-loris dribble, a peer
//! that never reads its replies, an oversized frame interrupting
//! reassembly, and abrupt FIN/RST at every protocol state. After each
//! assault the server must still answer a well-behaved client, no
//! session state may be damaged, and the connection accounting must
//! reconcile (opened == closed, gauge back to zero) — a leaked
//! connection slot is a slow death at 10K connections.

#![cfg(target_os = "linux")]

use aware_data::census::CensusGenerator;
use aware_reactor::ReactorConfig;
use aware_serve::frame;
use aware_serve::proto::{
    Batch, BatchItem, BatchMode, Command, Encoding, Envelope, PolicySpec, Reply, Response,
    PROTOCOL_VERSION,
};
use aware_serve::reactor_front::{bind_reactor_with, proto_reactor_config};
use aware_serve::service::{Service, ServiceConfig};
use aware_serve::tcp::Client;
use aware_serve::wire;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

fn served(cfg: ReactorConfig) -> (Service, aware_reactor::ReactorServer) {
    let service = Service::start(ServiceConfig::default());
    service
        .handle()
        .register_table("census", CensusGenerator::new(11).generate(1_500));
    let server = bind_reactor_with("127.0.0.1:0", service.handle(), cfg).expect("bind reactor");
    (service, server)
}

fn stats(service: &Service) -> Box<aware_serve::proto::StatsSnapshot> {
    match service.handle().call(Command::Stats) {
        Response::Stats(s) => s,
        other => panic!("stats: {other:?}"),
    }
}

/// Polls until the reactor's connection gauge drains to `expect`
/// (close accounting is asynchronous).
fn await_gauge(service: &Service, expect: u64) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let s = stats(service);
        if s.reactor_connections == expect {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "connection gauge stuck at {} (want {}) — leaked a slot",
            s.reactor_connections,
            expect
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn create_session(client: &mut Client) -> u64 {
    match client
        .call(&Command::CreateSession {
            dataset: "census".into(),
            alpha: 0.05,
            policy: PolicySpec::Fixed { gamma: 10.0 },
        })
        .expect("create session")
    {
        Response::SessionCreated { session, .. } => session,
        other => panic!("create: {other:?}"),
    }
}

/// Closes the socket with an RST instead of an orderly FIN
/// (`SO_LINGER { on, 0 }` turns `close(2)` into a reset).
fn close_with_rst(sock: TcpStream) {
    use std::os::unix::io::AsRawFd;
    #[repr(C)]
    struct Linger {
        l_onoff: i32,
        l_linger: i32,
    }
    extern "C" {
        fn setsockopt(
            fd: i32,
            level: i32,
            optname: i32,
            optval: *const core::ffi::c_void,
            optlen: u32,
        ) -> i32;
    }
    const SOL_SOCKET: i32 = 1;
    const SO_LINGER: i32 = 13;
    let linger = Linger {
        l_onoff: 1,
        l_linger: 0,
    };
    let rc = unsafe {
        setsockopt(
            sock.as_raw_fd(),
            SOL_SOCKET,
            SO_LINGER,
            (&linger as *const Linger).cast(),
            std::mem::size_of::<Linger>() as u32,
        )
    };
    assert_eq!(rc, 0, "setsockopt(SO_LINGER)");
    drop(sock);
}

/// Shrinks the socket's receive buffer so the server's replies hit
/// backpressure after a few KiB instead of megabytes.
fn shrink_rcvbuf(sock: &TcpStream) {
    use std::os::unix::io::AsRawFd;
    extern "C" {
        fn setsockopt(
            fd: i32,
            level: i32,
            optname: i32,
            optval: *const core::ffi::c_void,
            optlen: u32,
        ) -> i32;
    }
    const SOL_SOCKET: i32 = 1;
    const SO_RCVBUF: i32 = 8;
    let size: i32 = 4096;
    let rc = unsafe {
        setsockopt(
            sock.as_raw_fd(),
            SOL_SOCKET,
            SO_RCVBUF,
            (&size as *const i32).cast(),
            std::mem::size_of::<i32>() as u32,
        )
    };
    assert_eq!(rc, 0, "setsockopt(SO_RCVBUF)");
}

#[test]
fn slow_loris_one_byte_at_a_time_still_gets_its_reply() {
    let (service, server) = served(proto_reactor_config());

    let mut sock = TcpStream::connect(server.local_addr()).expect("connect");
    sock.set_nodelay(true).unwrap();
    let request = b"{\"cmd\":\"stats\"}\n";
    for &b in request.iter() {
        sock.write_all(&[b]).expect("dribble one byte");
        sock.flush().unwrap();
        std::thread::sleep(Duration::from_millis(100));
    }
    let mut line = String::new();
    BufReader::new(&sock)
        .read_line(&mut line)
        .expect("read reply");
    let reply = Reply::decode_line(line.trim_end()).expect("parse reply");
    match reply {
        Reply::Single {
            response: Response::Stats(_),
            ..
        } => {}
        other => panic!("unexpected reply: {other:?}"),
    }

    drop(sock);
    await_gauge(&service, 0);
}

#[test]
fn peer_that_never_reads_is_dropped_but_its_session_survives() {
    // A tiny output cap so the test converges in KiB, not the 16 MiB
    // an operator would use.
    let (service, server) = served(ReactorConfig {
        out_cap: 8 * 1024,
        ..proto_reactor_config()
    });
    let addr = server.local_addr();

    let mut well_behaved = Client::connect(addr).expect("connect");
    let session = create_session(&mut well_behaved);

    // The abuser: pipelines huge batches of gauge requests and never
    // reads a single reply byte.
    let sock = TcpStream::connect(addr).expect("connect abuser");
    shrink_rcvbuf(&sock);
    let mut sock = sock;
    let batch = Envelope::Batch {
        id: Some(1),
        batch: Batch {
            mode: BatchMode::Continue,
            items: (0..512)
                .map(|k| BatchItem {
                    id: Some(k),
                    cmd: Command::Gauge { session },
                })
                .collect(),
        },
    };
    let line = {
        let mut l = batch.encode_line().into_bytes();
        l.push(b'\n');
        l
    };
    let mut dropped = false;
    for _ in 0..200 {
        if sock.write_all(&line).is_err() {
            dropped = true; // server hung up on us mid-write
            break;
        }
    }
    if !dropped {
        // Writes all queued in kernel buffers; the drop shows up as
        // EOF/reset on the read side instead.
        sock.shutdown(Shutdown::Write).ok();
        let mut sink = [0u8; 4096];
        loop {
            match sock.read(&mut sink) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
        }
    }

    // The abused connection is gone; the session it was hammering is
    // not. (The well-behaved client still holds its own slot.)
    drop(sock);
    await_gauge(&service, 1);
    drop(well_behaved);
    await_gauge(&service, 0);
    let mut fresh = Client::connect(addr).expect("reconnect");
    match fresh.call(&Command::Gauge { session }).expect("gauge") {
        Response::GaugeText { session: s, .. } => assert_eq!(s, session),
        other => panic!("session damaged: {other:?}"),
    }
}

#[test]
fn oversized_frame_mid_reassembly_resyncs_the_stream() {
    let (service, server) = served(proto_reactor_config());
    let mut sock = TcpStream::connect(server.local_addr()).expect("connect");
    sock.set_nodelay(true).unwrap();

    // Greet on the binary surface.
    let hello = wire::encode_envelope(&Envelope::Hello {
        id: Some(1),
        version: PROTOCOL_VERSION,
        encoding: Encoding::Binary,
        push: false,
    });
    frame::write_frame(&mut sock, &hello).unwrap();
    let mut reader = BufReader::new(sock.try_clone().unwrap());
    match frame::read_frame(&mut reader, frame::MAX_FRAME_BYTES).unwrap() {
        frame::FrameRead::Frame(p) => match wire::decode_reply(&p).unwrap() {
            Reply::HelloAck { .. } => {}
            other => panic!("{other:?}"),
        },
        other => panic!("{other:?}"),
    }

    // Declare one byte more than the ceiling; the error reply arrives
    // while the payload is still in flight …
    let declared = frame::MAX_FRAME_BYTES as u32 + 1;
    let mut header = Vec::new();
    header.extend_from_slice(b"AWR2");
    header.push(2);
    header.extend_from_slice(&declared.to_be_bytes());
    sock.write_all(&header).unwrap();
    sock.write_all(&vec![7u8; 1024]).unwrap(); // first sliver of payload

    match frame::read_frame(&mut reader, frame::MAX_FRAME_BYTES).unwrap() {
        frame::FrameRead::Frame(p) => match wire::decode_reply(&p).unwrap() {
            Reply::Single {
                response: Response::Error(e),
                ..
            } => assert!(
                e.message.contains("exceeds"),
                "unexpected error: {}",
                e.message
            ),
            other => panic!("{other:?}"),
        },
        other => panic!("{other:?}"),
    }

    // … we keep pouring the rest of the oversized payload …
    let mut remaining = declared as usize - 1024;
    let junk = vec![7u8; 1 << 20];
    while remaining > 0 {
        let n = remaining.min(junk.len());
        sock.write_all(&junk[..n]).unwrap();
        remaining -= n;
    }

    // … and the very next frame decodes normally: the stream resynced.
    let stats_frame = wire::encode_envelope(&Envelope::Single {
        id: Some(2),
        cmd: Command::Stats,
    });
    frame::write_frame(&mut sock, &stats_frame).unwrap();
    match frame::read_frame(&mut reader, frame::MAX_FRAME_BYTES).unwrap() {
        frame::FrameRead::Frame(p) => match wire::decode_reply(&p).unwrap() {
            Reply::Single {
                id: Some(2),
                response: Response::Stats(_),
            } => {}
            other => panic!("{other:?}"),
        },
        other => panic!("{other:?}"),
    }

    drop(sock);
    drop(reader);
    await_gauge(&service, 0);
}

#[test]
fn abrupt_fin_and_rst_at_every_protocol_state_leak_nothing() {
    let (service, server) = served(proto_reactor_config());
    let addr = server.local_addr();

    let json_hello = {
        let mut l = Envelope::Hello {
            id: Some(0),
            version: PROTOCOL_VERSION,
            encoding: Encoding::Binary,
            push: false,
        }
        .encode_line()
        .into_bytes();
        l.push(b'\n');
        l
    };
    let oversize_header = {
        let mut h = Vec::new();
        h.extend_from_slice(b"AWR2");
        h.push(2);
        h.extend_from_slice(&(frame::MAX_FRAME_BYTES as u32 + 1).to_be_bytes());
        h
    };

    // Each state is "the bytes a client has sent when it dies".
    let states: Vec<(&str, Vec<u8>)> = vec![
        ("pre-first-byte", Vec::new()),
        ("mid-line", b"{\"cmd\":\"sta".to_vec()),
        ("complete-line-no-read", b"{\"cmd\":\"stats\"}\n".to_vec()),
        ("mid-frame-header", b"AWR2\x02\0".to_vec()),
        ("mid-frame-payload", {
            let mut s = Vec::new();
            frame::write_frame(
                &mut s,
                &wire::encode_envelope(&Envelope::Hello {
                    id: Some(1),
                    version: PROTOCOL_VERSION,
                    encoding: Encoding::Binary,
                    push: false,
                }),
            )
            .unwrap();
            s.truncate(s.len() - 3);
            s
        }),
        ("mid-oversize-skip", {
            let mut s = oversize_header.clone();
            s.extend_from_slice(&[9u8; 512]);
            s
        }),
        ("post-upgrade", json_hello.clone()),
    ];

    for (name, bytes) in &states {
        for rst in [false, true] {
            let mut sock = TcpStream::connect(addr).expect("connect");
            sock.set_nodelay(true).unwrap();
            if !bytes.is_empty() {
                sock.write_all(bytes).expect("write state prefix");
            }
            // Give the reactor a moment to have actually read them, so
            // the death lands in the protocol state, not the backlog.
            std::thread::sleep(Duration::from_millis(30));
            if rst {
                close_with_rst(sock);
            } else {
                sock.shutdown(Shutdown::Both).ok();
                drop(sock);
            }
            let _ = name;
        }
    }

    // Every slot drains, and the server still works.
    await_gauge(&service, 0);
    let mut client = Client::connect_with(addr, Encoding::Binary).expect("hello");
    let session = create_session(&mut client);
    match client.call(&Command::Gauge { session }).expect("gauge") {
        Response::GaugeText { .. } => {}
        other => panic!("{other:?}"),
    }

    let s = stats(&service);
    assert!(
        s.reactor_wakeups > 0,
        "the readiness loop should have recorded wakeups"
    );
}
