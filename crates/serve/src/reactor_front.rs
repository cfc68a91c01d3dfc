//! The readiness-based front end: the same wire protocol as
//! [`crate::tcp`], served by the [`aware_reactor`] event loop instead
//! of a thread per connection.
//!
//! [`ProtoReactorService`] is the adapter: it implements
//! [`aware_reactor::ReactorService`] over any [`Dispatch`], mirroring
//! the blocking front end's semantics *byte for byte* — same replies,
//! same error strings, same close decisions — so a transcript captured
//! against one front end replays identically against the other. The
//! framing-properties test battery in `crates/reactor/tests` holds the
//! two to that contract.
//!
//! Where the two fronts deliberately differ: the reactor front can
//! deliver frames to a connection at any time, so it *grants* the
//! hello `push` capability (when the dispatcher supports it), while
//! the blocking front honestly declines it. Granted connections
//! receive eviction notices and cache-reset announcements as id-0
//! envelopes — see [`crate::proto::PushEvent`].

use crate::error::{ErrorCode, ServeError};
use crate::frame::MAX_FRAME_BYTES;
use crate::metrics::Stage;
use crate::proto::{Encoding, Envelope, PushEvent, Reply, Response, Stat};
use crate::service::Dispatch;
use crate::tcp::{negotiate, run_batch, write_reply_frame, TcpServer, MAX_REQUEST_BYTES};
use crate::{frame, wire};
use aware_reactor::{ConnState, Inbound, Outcome, ReactorConfig, ReactorServer, ReactorService};

/// Adapts a [`Dispatch`] to the reactor's connection state machine.
pub struct ProtoReactorService<H> {
    handle: H,
}

impl<H: Dispatch> ProtoReactorService<H> {
    pub fn new(handle: H) -> Self {
        ProtoReactorService { handle }
    }

    /// One NDJSON line, mirroring `serve_ndjson`'s loop body.
    fn handle_line(&self, state: &mut ConnState, line: &str) -> Outcome {
        if line.trim().is_empty() {
            return Outcome::none();
        }
        self.handle.metrics().wire_request(Encoding::Json);
        let reply_line = match Envelope::decode_line(line) {
            Ok(Envelope::Hello {
                id,
                version,
                encoding,
                push,
            }) => match negotiate(version, encoding, Encoding::Json) {
                Ok(Reply::HelloAck {
                    version,
                    encoding,
                    max_frame,
                    ..
                }) => {
                    // Unlike the blocking front end, this one can write
                    // to a connection whenever the loop pleases, so the
                    // push capability is granted — if the client asked
                    // and the dispatcher can actually emit events.
                    let granted = push && self.handle.push_supported();
                    state.push = granted;
                    let ack = Reply::HelloAck {
                        id,
                        version,
                        encoding,
                        max_frame,
                        push: granted,
                    };
                    let mut bytes = ack.encode_line().into_bytes();
                    bytes.push(b'\n');
                    if encoding == Encoding::Binary {
                        // The ack was the last JSON line; frames from
                        // here on, both directions. The JSON hello
                        // counts as the binary greeting.
                        state.greeted = true;
                        return Outcome {
                            reply: bytes,
                            close: false,
                            upgrade_to_frames: true,
                        };
                    }
                    return Outcome::reply(bytes);
                }
                Ok(_) => unreachable!("negotiate acks with HelloAck"),
                Err(e) => {
                    self.handle.metrics().protocol_error();
                    Response::Error(e).encode_line(id)
                }
            },
            Ok(Envelope::Batch { id, batch }) => Reply::Batch {
                id,
                items: run_batch(&self.handle, batch, aware_obs::trace::adopt_or_new(id)),
            }
            .encode_line(),
            Ok(Envelope::Single { id, cmd }) => self
                .handle
                .call_traced(cmd, aware_obs::trace::adopt_or_new(id))
                .encode_line(id),
            Err(e) => {
                self.handle.metrics().protocol_error();
                Response::Error(e).encode_line(None)
            }
        };
        let encode_start = std::time::Instant::now();
        let mut bytes = reply_line.into_bytes();
        bytes.push(b'\n');
        self.handle
            .metrics()
            .observe(Stage::WireEncode, encode_start.elapsed().as_micros() as u64);
        Outcome::reply(bytes)
    }

    /// One reassembled binary frame, mirroring `serve_binary`'s loop
    /// body (minus the framing errors, which arrive as their own
    /// [`Inbound`] variants).
    fn handle_frame(&self, state: &mut ConnState, payload: &[u8]) -> Outcome {
        self.handle.metrics().wire_request(Encoding::Binary);
        let reply = match wire::decode_envelope(payload) {
            Ok(Envelope::Hello {
                id,
                version,
                encoding,
                push,
            }) => match negotiate(version, encoding, Encoding::Binary) {
                Ok(Reply::HelloAck {
                    version,
                    encoding,
                    max_frame,
                    ..
                }) => {
                    state.greeted = true;
                    let granted = push && self.handle.push_supported();
                    state.push = granted;
                    Reply::HelloAck {
                        id,
                        version,
                        encoding,
                        max_frame,
                        push: granted,
                    }
                }
                Ok(_) => unreachable!("negotiate acks with HelloAck"),
                Err(e) => {
                    self.handle.metrics().protocol_error();
                    Reply::Single {
                        id,
                        response: Response::Error(e),
                    }
                }
            },
            Ok(envelope) if !state.greeted => {
                // First frame was well-formed v2 but not a hello.
                self.handle.metrics().protocol_error();
                let id = match envelope {
                    Envelope::Batch { id, .. } | Envelope::Single { id, .. } => id,
                    Envelope::Hello { id, .. } => id,
                };
                let reply = Reply::Single {
                    id,
                    response: Response::Error(ServeError {
                        code: ErrorCode::BadRequest,
                        message: "a binary connection must open with a hello frame".into(),
                    }),
                };
                return Outcome::close_with(encode_reply_frame(&reply));
            }
            Ok(Envelope::Batch { id, batch }) => Reply::Batch {
                id,
                items: run_batch(&self.handle, batch, aware_obs::trace::adopt_or_new(id)),
            },
            Ok(Envelope::Single { id, cmd }) => Reply::Single {
                id,
                response: self
                    .handle
                    .call_traced(cmd, aware_obs::trace::adopt_or_new(id)),
            },
            Err(e) => {
                self.handle.metrics().protocol_error();
                let reply = Reply::Single {
                    id: None,
                    response: Response::Error(e),
                };
                let bytes = encode_reply_frame(&reply);
                // An un-greeted binary connection sending garbage is
                // held to the same hello-first contract as one sending
                // well-formed non-hello envelopes: one error, hang up.
                return if state.greeted {
                    Outcome::reply(bytes)
                } else {
                    Outcome::close_with(bytes)
                };
            }
        };
        let encode_start = std::time::Instant::now();
        let bytes = encode_reply_frame(&reply);
        self.handle
            .metrics()
            .observe(Stage::WireEncode, encode_start.elapsed().as_micros() as u64);
        Outcome::reply(bytes)
    }
}

/// Encodes one reply frame to bytes via the same path the blocking
/// front end writes through, so the oversize-reply fallback produces
/// identical bytes on both fronts.
fn encode_reply_frame(reply: &Reply) -> Vec<u8> {
    let mut buf = Vec::new();
    write_reply_frame(&mut buf, reply).expect("Vec<u8> writes are infallible");
    buf
}

impl<H: Dispatch + Send + Sync + 'static> ReactorService for ProtoReactorService<H> {
    type Push = PushEvent;

    fn handle(&self, state: &mut ConnState, inbound: Inbound) -> Outcome {
        match inbound {
            Inbound::Line(line) => self.handle_line(state, &line),
            Inbound::LineTooLong => {
                self.handle.metrics().protocol_error();
                let mut bytes = Response::Error(ServeError {
                    code: ErrorCode::BadRequest,
                    message: format!("request line exceeds {MAX_REQUEST_BYTES} bytes"),
                })
                .encode_line(None)
                .into_bytes();
                bytes.push(b'\n');
                Outcome::reply(bytes)
            }
            Inbound::Frame(payload) => self.handle_frame(state, &payload),
            Inbound::FrameTooLarge { declared } => {
                // The reactor's decoder already arranged to skip the
                // oversized payload; the stream stays synchronized,
                // the connection lives — same as the blocking front.
                self.handle.metrics().protocol_error();
                let reply = Reply::Single {
                    id: None,
                    response: Response::Error(ServeError {
                        code: ErrorCode::BadRequest,
                        message: format!(
                            "frame payload of {declared} bytes exceeds {MAX_FRAME_BYTES}"
                        ),
                    }),
                };
                Outcome::reply(encode_reply_frame(&reply))
            }
            Inbound::FrameCorrupt(message) => {
                // Framing is lost — answer once and hang up.
                self.handle.metrics().protocol_error();
                let reply = Reply::Single {
                    id: None,
                    response: Response::Error(ServeError {
                        code: ErrorCode::BadRequest,
                        message,
                    }),
                };
                Outcome::close_with(encode_reply_frame(&reply))
            }
        }
    }

    fn encode_push(&self, frames: bool, event: &PushEvent) -> Option<Vec<u8>> {
        let reply = Reply::Single {
            id: Some(0),
            response: Response::Push(event.clone()),
        };
        Some(if frames {
            encode_reply_frame(&reply)
        } else {
            let mut bytes = reply.encode_line().into_bytes();
            bytes.push(b'\n');
            bytes
        })
    }

    fn on_wakeup(&self) {
        self.handle.metrics().inc(Stat::reactor_wakeups);
    }

    fn on_conn_open(&self) {
        self.handle.metrics().inc(Stat::reactor_connections);
    }

    fn on_conn_close(&self) {
        self.handle.metrics().reactor_conn_closed();
    }

    fn on_push_frame(&self) {
        self.handle.metrics().inc(Stat::push_frames);
    }
}

/// The reactor config matching the protocol limits the blocking front
/// end enforces, so both fronts reject the same inputs with the same
/// messages.
pub fn proto_reactor_config() -> ReactorConfig {
    ReactorConfig {
        line_max: MAX_REQUEST_BYTES,
        frame_max: MAX_FRAME_BYTES,
        magic: frame::MAGIC,
        frame_version: frame::VERSION,
        ..ReactorConfig::default()
    }
}

/// Binds the reactor front end on `addr` and wires the dispatcher's
/// push events through to subscribed connections.
pub fn bind_reactor<H>(addr: &str, handle: H) -> std::io::Result<ReactorServer<PushEvent>>
where
    H: Dispatch + Clone + Send + Sync + 'static,
{
    bind_reactor_with(addr, handle, proto_reactor_config())
}

/// [`bind_reactor`] with an explicit config — tests use this to shrink
/// buffer caps and idle timeouts to exercisable sizes.
pub fn bind_reactor_with<H>(
    addr: &str,
    handle: H,
    cfg: ReactorConfig,
) -> std::io::Result<ReactorServer<PushEvent>>
where
    H: Dispatch + Clone + Send + Sync + 'static,
{
    // The sink has to be registered *after* binding — the push handle
    // only exists once the server does. Events emitted in the gap are
    // dropped, which is fine: no connection can have subscribed yet.
    let subscriber = handle.clone();
    let server = ReactorServer::bind(addr, ProtoReactorService::new(handle), cfg)?;
    if subscriber.push_supported() {
        let push = server.push_handle();
        subscriber.subscribe_push(Box::new(move |event: &PushEvent| push.send(event.clone())));
    }
    Ok(server)
}

/// Either front end behind one type, so binaries can pick at runtime
/// from a `--reactor` flag without duplicating their serve loop.
pub enum ServerFront {
    /// Thread-per-connection (the default): [`crate::tcp::TcpServer`].
    Thread(TcpServer),
    /// Readiness-based event loop: [`ReactorServer`].
    Reactor(ReactorServer<PushEvent>),
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
    use crate::proto::{Command, PolicySpec};
    use crate::service::{Service, ServiceConfig};
    use crate::tcp::Client;
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

    #[test]
    fn reactor_grants_push_and_blocking_declines_it() {
        let service = test_service(ServiceConfig::default());
        let handle = service.handle();
        let reactor = bind_reactor("127.0.0.1:0", handle.clone()).expect("bind reactor");
        let thread = TcpServer::bind("127.0.0.1:0", handle).expect("bind thread front");

        for encoding in [Encoding::Json, Encoding::Binary] {
            let mut c = Client::connect(reactor.local_addr()).expect("connect");
            assert!(
                c.hello_push(encoding).expect("hello"),
                "reactor front grants push ({encoding:?})"
            );

            // Not requested → not granted, even where it could be.
            let mut c = Client::connect(reactor.local_addr()).expect("connect");
            c.hello(encoding).expect("hello");
            assert!(!c.push_granted(), "push must be opt-in ({encoding:?})");

            let mut c = Client::connect(thread.local_addr()).expect("connect");
            assert!(
                !c.hello_push(encoding).expect("hello"),
                "blocking front declines push ({encoding:?})"
            );
        }
    }

    #[test]
    fn subscribed_connection_receives_idle_eviction_pushes() {
        let service = test_service(ServiceConfig {
            idle_timeout: Duration::from_millis(1),
            sweep_interval: Some(Duration::from_millis(10)),
            ..ServiceConfig::default()
        });
        let server = bind_reactor("127.0.0.1:0", service.handle()).expect("bind reactor");

        for encoding in [Encoding::Json, Encoding::Binary] {
            let mut c = Client::connect(server.local_addr()).expect("connect");
            assert!(c.hello_push(encoding).expect("hello"));
            let sid = create(&mut c);
            // The session goes idle immediately; the sweeper evicts it
            // and the eviction notice arrives as an id-0 push frame.
            let event = c.recv_push().expect("push event");
            match event {
                PushEvent::SessionEvicted { session, reason } => {
                    assert_eq!(session, sid);
                    assert_eq!(reason, "idle");
                }
                other => panic!("unexpected push: {other:?}"),
            }
        }
    }

    #[test]
    fn binary_native_subscriber_receives_pushes_as_frames() {
        use crate::proto::PROTOCOL_VERSION;
        use std::io::BufReader;

        let service = test_service(ServiceConfig {
            idle_timeout: Duration::from_millis(1),
            sweep_interval: Some(Duration::from_millis(10)),
            ..ServiceConfig::default()
        });
        let server = bind_reactor("127.0.0.1:0", service.handle()).expect("bind reactor");

        // The hello itself goes out as an AWR2 frame — the connection
        // is binary from its first byte, so it never passes through the
        // JSON→binary upgrade path. Pushes must still arrive framed:
        // an NDJSON line spliced into this stream would corrupt framing
        // ("bad frame magic") and kill the connection.
        let sock = std::net::TcpStream::connect(server.local_addr()).expect("connect");
        sock.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut writer = sock.try_clone().expect("clone");
        let mut reader = BufReader::new(sock);
        let hello = wire::encode_envelope(&Envelope::Hello {
            id: Some(1),
            version: PROTOCOL_VERSION,
            encoding: Encoding::Binary,
            push: true,
        });
        crate::frame::write_frame(&mut writer, &hello).expect("write hello frame");

        let read_reply =
            |reader: &mut BufReader<std::net::TcpStream>| match crate::frame::read_frame(
                reader,
                MAX_FRAME_BYTES,
            )
            .expect("read frame")
            {
                crate::frame::FrameRead::Frame(payload) => {
                    wire::decode_reply(&payload).expect("decode reply")
                }
                other => panic!("expected a frame, got {other:?}"),
            };
        match read_reply(&mut reader) {
            Reply::HelloAck { push: true, .. } => {}
            other => panic!("expected push-granting ack, got {other:?}"),
        }

        let payload = wire::encode_envelope(&Envelope::Single {
            id: Some(2),
            cmd: Command::CreateSession {
                dataset: "census".into(),
                alpha: 0.05,
                policy: PolicySpec::Fixed { gamma: 10.0 },
            },
        });
        crate::frame::write_frame(&mut writer, &payload).expect("write create");
        let created = match read_reply(&mut reader) {
            Reply::Single {
                id: Some(2),
                response: Response::SessionCreated { session, .. },
            } => session,
            other => panic!("create failed: {other:?}"),
        };

        // The idle sweeper evicts the session; the notice must arrive
        // as a well-formed id-0 *frame* on this never-upgraded binary
        // connection.
        match read_reply(&mut reader) {
            Reply::Single {
                id: Some(0),
                response: Response::Push(PushEvent::SessionEvicted { session, reason }),
            } => {
                assert_eq!(session, created);
                assert_eq!(reason, "idle");
            }
            other => panic!("expected framed eviction push, got {other:?}"),
        }
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
        assert!(c.take_pushes().is_empty());
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
