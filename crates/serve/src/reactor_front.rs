//! The readiness-based transport: the [`aware_reactor`] event loop
//! instead of a thread per connection.
//!
//! One protocol handler, two transports: the loop decodes each
//! connection's bytes with the same decoder the blocking front feeds
//! and hands every message to the same `conn::Handler`,
//! so both fronts answer alike by construction, a hello's `push`
//! request included (both decline it). This module is only the glue —
//! `ReactorService` for the handler, the config and binding.

use crate::conn::{decoder_config, Handler};
use crate::proto::Stat;
use crate::service::Dispatch;
use crate::tcp::TcpServer;
use aware_reactor::{ConnState, Inbound, Outcome, ReactorConfig, ReactorServer, ReactorService};

impl<H: Dispatch + Send + Sync + 'static> ReactorService for Handler<H> {
    fn handle(&self, state: &mut ConnState, inbound: Inbound) -> Outcome {
        self.respond(state, inbound)
    }

    fn on_wakeup(&self) {
        self.metrics().inc(Stat::reactor_wakeups);
    }

    fn on_conn_open(&self) {
        self.metrics().inc(Stat::reactor_connections);
    }

    fn on_conn_close(&self) {
        self.metrics().reactor_conn_closed();
    }
}

/// The reactor config carrying the protocol limits both fronts
/// enforce, so both reject the same inputs with the same messages.
pub fn proto_reactor_config() -> ReactorConfig {
    ReactorConfig {
        decoder: decoder_config(),
        ..ReactorConfig::default()
    }
}

/// Binds the reactor front end on `addr` over the dispatcher.
pub fn bind_reactor<H>(addr: &str, handle: H) -> std::io::Result<ReactorServer>
where
    H: Dispatch + Send + Sync + 'static,
{
    bind_reactor_with(addr, handle, proto_reactor_config())
}

/// [`bind_reactor`] with an explicit config — tests use this to shrink
/// buffer caps and idle timeouts to exercisable sizes.
pub fn bind_reactor_with<H>(
    addr: &str,
    handle: H,
    cfg: ReactorConfig,
) -> std::io::Result<ReactorServer>
where
    H: Dispatch + Send + Sync + 'static,
{
    ReactorServer::bind(addr, Handler::new(handle), cfg)
}

/// Either front end behind one type, so binaries can pick at runtime
/// from a `--reactor` flag without duplicating their serve loop.
pub enum ServerFront {
    /// Thread-per-connection (the default): [`crate::tcp::TcpServer`].
    Thread(TcpServer),
    /// Readiness-based event loop: [`ReactorServer`].
    Reactor(ReactorServer),
}

impl ServerFront {
    /// Binds the chosen front end over the same dispatcher. Choosing
    /// the reactor also raises the process's soft file-descriptor
    /// limit (best effort) — ten thousand idle connections need more
    /// than the usual 1024.
    pub fn bind<H>(addr: &str, handle: H, reactor: bool) -> std::io::Result<ServerFront>
    where
        H: Dispatch + Clone + Send + Sync + 'static,
    {
        if reactor {
            let _ = aware_reactor::sys::raise_nofile_limit(65_536);
            Ok(ServerFront::Reactor(bind_reactor(addr, handle)?))
        } else {
            Ok(ServerFront::Thread(TcpServer::bind(addr, handle)?))
        }
    }

    pub fn local_addr(&self) -> std::net::SocketAddr {
        match self {
            ServerFront::Thread(s) => s.local_addr(),
            ServerFront::Reactor(s) => s.local_addr(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::MAX_FRAME_BYTES;
    use crate::proto::{Command, Encoding, Envelope, PolicySpec, Reply, Response};
    use crate::service::{Service, ServiceConfig};
    use crate::tcp::Client;
    use crate::wire;
    use aware_data::census::CensusGenerator;
    use std::time::Duration;

    fn test_service(config: ServiceConfig) -> Service {
        let service = Service::start(config);
        service
            .handle()
            .register_table("census", CensusGenerator::new(7).generate(2_000));
        service
    }

    fn create(client: &mut Client) -> crate::proto::SessionId {
        match client
            .call(&Command::CreateSession {
                dataset: "census".into(),
                alpha: 0.05,
                policy: PolicySpec::Fixed { gamma: 10.0 },
            })
            .expect("create session")
        {
            Response::SessionCreated { session, .. } => session,
            other => panic!("create failed: {other:?}"),
        }
    }

    #[test]
    fn reactor_front_serves_all_three_surfaces() {
        let service = test_service(ServiceConfig::default());
        let server = bind_reactor("127.0.0.1:0", service.handle()).expect("bind reactor");
        let addr = server.local_addr();

        // v1 NDJSON, no handshake.
        let mut v1 = Client::connect(addr).expect("connect");
        let sid = create(&mut v1);
        match v1
            .call(&Command::Gauge { session: sid })
            .expect("gauge over v1")
        {
            Response::GaugeText { .. } => {}
            other => panic!("{other:?}"),
        }

        // v2 JSON and v2 binary, each its own connection and session.
        for encoding in [Encoding::Json, Encoding::Binary] {
            let mut client = Client::connect_with(addr, encoding).expect("hello");
            let sid = create(&mut client);
            match client
                .call(&Command::Gauge { session: sid })
                .expect("gauge")
            {
                Response::GaugeText { .. } => {}
                other => panic!("{other:?}"),
            }
        }
    }

    /// Sends `hello` (a JSON line or a binary-native frame) on a fresh
    /// connection and returns the raw bytes of the one reply.
    fn hello_reply_bytes(addr: std::net::SocketAddr, hello: &Envelope, frames: bool) -> Vec<u8> {
        use std::io::{BufRead, BufReader, Write};
        let mut sock = std::net::TcpStream::connect(addr).expect("connect");
        sock.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut reader = BufReader::new(sock.try_clone().expect("clone"));
        if frames {
            crate::frame::write_frame(&mut sock, &wire::encode_envelope(hello))
                .expect("write hello frame");
            match crate::frame::read_frame(&mut reader, MAX_FRAME_BYTES).expect("read frame") {
                crate::frame::FrameRead::Frame(payload) => payload,
                other => panic!("expected a frame, got {other:?}"),
            }
        } else {
            sock.write_all(format!("{}\n", hello.encode_line()).as_bytes())
                .expect("write hello line");
            let mut line = String::new();
            reader.read_line(&mut line).expect("read ack line");
            line.into_bytes()
        }
    }

    #[test]
    fn both_fronts_decline_push() {
        use crate::proto::PROTOCOL_VERSION;
        let service = test_service(ServiceConfig::default());
        let handle = service.handle();
        let reactor = bind_reactor("127.0.0.1:0", handle.clone()).expect("bind reactor");
        let thread = TcpServer::bind("127.0.0.1:0", handle).expect("bind thread front");

        for (encoding, frames) in [(Encoding::Json, false), (Encoding::Binary, true)] {
            let hello = Envelope::Hello {
                id: Some(9),
                version: PROTOCOL_VERSION,
                encoding,
                push: true,
            };
            let from_reactor = hello_reply_bytes(reactor.local_addr(), &hello, frames);
            let from_thread = hello_reply_bytes(thread.local_addr(), &hello, frames);
            assert_eq!(from_reactor, from_thread, "same ack bytes ({encoding:?})");
            let ack = if frames {
                wire::decode_reply(&from_reactor)
            } else {
                let line = String::from_utf8(from_reactor).unwrap();
                assert!(!line.contains("push"), "{line}");
                Reply::decode_line(&line)
            };
            match ack.expect("decode ack") {
                Reply::HelloAck {
                    id: Some(9),
                    push: false,
                    ..
                } => {}
                other => panic!("expected a push-declining ack, got {other:?}"),
            }
        }
    }

    /// Opens a raw connection that asks for push in its hello (an AWR2
    /// frame when `frames`, else a JSON line), creates a session, waits
    /// on another connection until the sweeper has evicted it, and checks
    /// that nothing was queued for this connection in between: the next
    /// reply it reads answers its next request.
    fn declined_push_connection_reads_only_replies(frames: bool) {
        use crate::proto::PROTOCOL_VERSION;
        use std::io::{BufRead, BufReader, Write};

        let service = test_service(ServiceConfig {
            idle_timeout: Duration::from_millis(1),
            sweep_interval: Some(Duration::from_millis(10)),
            ..ServiceConfig::default()
        });
        let server = bind_reactor("127.0.0.1:0", service.handle()).expect("bind reactor");

        let sock = std::net::TcpStream::connect(server.local_addr()).expect("connect");
        sock.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut writer = sock.try_clone().expect("clone");
        let mut reader = BufReader::new(sock);
        let mut send = |envelope: &Envelope| {
            if frames {
                crate::frame::write_frame(&mut writer, &wire::encode_envelope(envelope))
                    .expect("write frame")
            } else {
                writer
                    .write_all(format!("{}\n", envelope.encode_line()).as_bytes())
                    .expect("write line")
            }
        };
        let mut read_reply = || {
            if frames {
                match crate::frame::read_frame(&mut reader, MAX_FRAME_BYTES).expect("read frame") {
                    crate::frame::FrameRead::Frame(payload) => {
                        wire::decode_reply(&payload).expect("decode reply")
                    }
                    other => panic!("expected a frame, got {other:?}"),
                }
            } else {
                let mut line = String::new();
                reader.read_line(&mut line).expect("read line");
                Reply::decode_line(&line).expect("decode reply")
            }
        };

        let encoding = if frames {
            Encoding::Binary
        } else {
            Encoding::Json
        };
        send(&Envelope::Hello {
            id: Some(1),
            version: PROTOCOL_VERSION,
            encoding,
            push: true,
        });
        match read_reply() {
            Reply::HelloAck { push: false, .. } => {}
            other => panic!("expected a push-declining ack, got {other:?}"),
        }

        send(&Envelope::Single {
            id: Some(2),
            cmd: Command::CreateSession {
                dataset: "census".into(),
                alpha: 0.05,
                policy: PolicySpec::Fixed { gamma: 10.0 },
            },
        });
        let created = match read_reply() {
            Reply::Single {
                id: Some(2),
                response: Response::SessionCreated { session, .. },
            } => session,
            other => panic!("create failed: {other:?}"),
        };

        let mut watcher = Client::connect(server.local_addr()).expect("connect");
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            match watcher.call(&Command::Stats).expect("stats") {
                Response::Stats(s) if s.sessions_evicted >= 1 => break,
                Response::Stats(_) => {}
                other => panic!("{other:?}"),
            }
            assert!(
                std::time::Instant::now() < deadline,
                "session never evicted"
            );
            std::thread::sleep(Duration::from_millis(10));
        }

        send(&Envelope::Single {
            id: Some(3),
            cmd: Command::Gauge { session: created },
        });
        match read_reply() {
            Reply::Single {
                id: Some(3),
                response: Response::Error(e),
            } => assert_eq!(e.code, crate::error::ErrorCode::UnknownSession, "{e:?}"),
            other => panic!("expected the answer to request 3, got {other:?}"),
        }
    }

    #[test]
    fn binary_native_push_request_reads_only_reply_frames() {
        // Binary from its first byte: the hello itself is an AWR2 frame.
        declined_push_connection_reads_only_replies(true);
    }

    #[test]
    fn json_push_request_reads_only_reply_lines() {
        declined_push_connection_reads_only_replies(false);
    }

    #[test]
    fn unsubscribed_connection_never_sees_push_traffic() {
        let service = test_service(ServiceConfig {
            idle_timeout: Duration::from_millis(1),
            sweep_interval: Some(Duration::from_millis(10)),
            ..ServiceConfig::default()
        });
        let server = bind_reactor("127.0.0.1:0", service.handle()).expect("bind reactor");

        let mut c = Client::connect_with(server.local_addr(), Encoding::Binary).expect("hello");
        let _sid = create(&mut c);
        std::thread::sleep(Duration::from_millis(100));
        // The session was evicted, but this connection never opted in:
        // the next reply must be the answer to the next request, not a
        // stray push frame.
        match c.call(&Command::Stats).expect("stats") {
            Response::Stats(s) => assert!(s.sessions_evicted >= 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn eof_inside_an_oversized_payload_gets_one_error_frame_on_both_fronts() {
        use std::io::{Read, Write};
        let service = test_service(ServiceConfig::default());
        let reactor = bind_reactor("127.0.0.1:0", service.handle()).expect("bind reactor");
        let thread = TcpServer::bind("127.0.0.1:0", service.handle()).expect("bind thread front");

        for addr in [reactor.local_addr(), thread.local_addr()] {
            // An oversized header, part of its payload, then EOF.
            let mut sock = std::net::TcpStream::connect(addr).expect("connect");
            sock.write_all(&crate::frame::header(MAX_FRAME_BYTES as u32 + 1))
                .expect("write header");
            sock.write_all(&[7; 100]).expect("write partial payload");
            sock.shutdown(std::net::Shutdown::Write)
                .expect("half-close");
            let mut buf = Vec::new();
            sock.read_to_end(&mut buf).expect("read to EOF");
            let mut rest = &buf[..];
            let frame = crate::frame::read_frame(&mut rest, MAX_FRAME_BYTES).expect("read frame");
            let crate::frame::FrameRead::Frame(payload) = frame else {
                panic!("expected one reply frame, got {frame:?}");
            };
            match wire::decode_reply(&payload).expect("decode reply") {
                Reply::Single {
                    id: None,
                    response: Response::Error(e),
                } => assert!(e.message.contains("exceeds"), "got: {}", e.message),
                other => panic!("unexpected reply: {other:?}"),
            }
            assert!(rest.is_empty(), "exactly one reply frame: {buf:?}");
        }
    }

    #[test]
    fn cold_binary_connection_must_greet_through_the_reactor() {
        use std::io::{Read, Write};
        let service = test_service(ServiceConfig::default());
        let server = bind_reactor("127.0.0.1:0", service.handle()).expect("bind reactor");

        // A well-formed non-hello first frame gets one error, then EOF.
        let mut sock = std::net::TcpStream::connect(server.local_addr()).expect("connect");
        let payload = wire::encode_envelope(&Envelope::Single {
            id: Some(9),
            cmd: Command::Stats,
        });
        crate::frame::write_frame(&mut sock, &payload).expect("write frame");
        let mut buf = Vec::new();
        sock.read_to_end(&mut buf).expect("read to EOF");
        let frame =
            crate::frame::read_frame(&mut std::io::BufReader::new(&buf[..]), MAX_FRAME_BYTES)
                .expect("read reply frame");
        let crate::frame::FrameRead::Frame(payload) = frame else {
            panic!("expected one reply frame, got {frame:?}");
        };
        match wire::decode_reply(&payload).expect("decode reply") {
            Reply::Single {
                id: Some(9),
                response: Response::Error(e),
            } => assert!(
                e.message.contains("must open with a hello frame"),
                "got: {}",
                e.message
            ),
            other => panic!("unexpected reply: {other:?}"),
        }

        // Garbage after the magic byte — a full header's worth, so the
        // decoder can see the magic mismatch: one corrupt-frame error,
        // then EOF.
        let mut sock = std::net::TcpStream::connect(server.local_addr()).expect("connect");
        sock.write_all(b"AWRX\0\0\0\0\0\0\0\0")
            .expect("write garbage");
        let mut buf = Vec::new();
        sock.read_to_end(&mut buf).expect("read to EOF");
        assert!(!buf.is_empty(), "corrupt framing still gets one reply");
    }
}
