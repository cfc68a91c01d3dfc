//! The thread-per-connection transport, and the reference client.
//!
//! One protocol handler, two transports: the protocol itself — surface
//! detection by first byte, hello negotiation, batches, error replies,
//! the JSON→binary upgrade — lives in `conn.rs`, and this front
//! only moves bytes. Each connection gets a thread that `pump`s its
//! socket and runs its commands through the [`ServiceHandle`]: a blocking
//! read feeds the same incremental decoder the reactor front uses,
//! each decoded message goes through the shared handler, and each
//! reply leaves in one `write_all`.
//!
//! [`ServiceHandle`]: crate::service::ServiceHandle

use crate::conn::{decoder_config, Handler};
use crate::error::{ErrorCode, ServeError};
use crate::frame::{self, FrameRead, MAX_FRAME_BYTES};
use crate::proto::{
    Batch, BatchMode, Command, Encoding, Envelope, Reply, Response, PROTOCOL_VERSION,
};
use crate::service::Dispatch;
use crate::wire;
use aware_reactor::decode::StreamDecoder;
use aware_reactor::ConnState;
use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

pub use crate::conn::MAX_REQUEST_BYTES;

/// A listening TCP server bound to an address.
///
/// Dropping the server stops the accept loop and joins its thread;
/// already-open connections drain on their own threads.
pub struct TcpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl TcpServer {
    /// Binds to `addr` (e.g. `"127.0.0.1:0"` for an OS-assigned port) and
    /// starts accepting connections, each served on its own thread.
    ///
    /// Generic over [`Dispatch`]: the same front end serves an
    /// in-process [`crate::service::ServiceHandle`] and a cluster router.
    pub fn bind<H>(addr: &str, handle: H) -> std::io::Result<TcpServer>
    where
        H: Dispatch + Clone + Send + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = stop.clone();
        let accept_thread = std::thread::Builder::new()
            .name("aware-serve-accept".into())
            .spawn(move || accept_loop(listener, handle, stop_flag))?;
        Ok(TcpServer {
            addr: local,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks on the accept loop forever (the `serve` binary's main).
    pub fn join(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        if let Some(t) = self.accept_thread.take() {
            self.stop.store(true, Ordering::SeqCst);
            // Wake the blocking accept with a throwaway connection.
            let _ = TcpStream::connect(self.addr);
            let _ = t.join();
        }
    }
}

fn accept_loop<H>(listener: TcpListener, handle: H, stop: Arc<AtomicBool>)
where
    H: Dispatch + Clone + Send + 'static,
{
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match stream {
            Ok(stream) => {
                // Replies are written once per request envelope and then
                // awaited — Nagle buys nothing here and its interaction
                // with delayed ACKs costs tens of ms on multi-segment
                // batch replies.
                let _ = stream.set_nodelay(true);
                let handler = Handler::new(handle.clone());
                let _ = std::thread::Builder::new()
                    .name("aware-serve-conn".into())
                    .spawn(move || {
                        let mut stream = stream;
                        let _ = pump(&mut stream, &handler);
                    });
            }
            Err(_) => continue,
        }
    }
}

/// Serves one blocking connection until EOF, a hang-up outcome or an
/// I/O error: reads feed the decoder, every decoded message goes
/// through `handler`, every reply leaves in one `write_all`. At EOF
/// whatever the decoder still holds (a last line without its newline,
/// a truncated frame) is answered once.
pub(crate) fn pump<S, H>(stream: &mut S, handler: &Handler<H>) -> std::io::Result<()>
where
    S: Read + Write,
    H: Dispatch,
{
    let mut decoder = StreamDecoder::new(decoder_config());
    let mut state = ConnState::default();
    // No larger than the `BufReader` a blocking reader would use.
    let mut buf = [0u8; 8 * 1024];
    loop {
        let Some(inbound) = decoder.next() else {
            match stream.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => decoder.push(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
            continue;
        };
        let outcome = handler.respond(&mut state, inbound);
        stream.write_all(&outcome.reply)?;
        if outcome.close {
            return Ok(());
        }
        if outcome.upgrade_to_frames {
            decoder.set_frames();
        }
    }
    match decoder.finish() {
        Some(inbound) => stream.write_all(&handler.respond(&mut state, inbound).reply),
        None => Ok(()),
    }
}

/// A minimal blocking client for both protocol surfaces — used by
/// tests, benches, and as reference client code.
///
/// [`Client::connect`] speaks plain v1 NDJSON (no handshake);
/// [`Client::connect_with`] performs the v2 hello and can upgrade the
/// connection to binary framing. Batches go out pipelined: the whole
/// envelope is written and flushed once, then the single reply envelope
/// is read back — one wire round trip for N commands.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_id: u64,
    encoding: Encoding,
}

fn io_err(e: std::io::Error) -> ServeError {
    // A socket with a read/write timeout reports a blown deadline as
    // `WouldBlock` (unix) or `TimedOut` (windows); keep the distinction
    // in the message so callers can count timeouts separately from
    // peer-closed connections.
    let verb = match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => "deadline exceeded",
        _ => "connection lost",
    };
    ServeError {
        code: ErrorCode::Shutdown,
        message: format!("{verb}: {e}"),
    }
}

/// True when a client-side [`ServeError`] came from a blown socket
/// deadline (connect, read, or write timeout) rather than a peer that
/// closed or refused the connection.
pub fn is_deadline_error(e: &ServeError) -> bool {
    e.code == ErrorCode::Shutdown && e.message.starts_with("deadline exceeded")
}

impl Client {
    /// Connects to a serve endpoint on the v1 NDJSON surface.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?; // request→response, never coalesced
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: BufWriter::new(stream),
            next_id: 0,
            encoding: Encoding::Json,
        })
    }

    /// Connects on the v1 surface under a deadline: the TCP handshake
    /// uses `connect_timeout`, and the socket carries read/write
    /// timeouts for the connection's whole life, so no later call on
    /// this client can block past `timeout` per socket operation. A
    /// blown deadline surfaces as an I/O error (`WouldBlock`/`TimedOut`
    /// per platform), which [`Client`] maps to a lost connection.
    pub fn connect_deadline(addr: SocketAddr, timeout: Duration) -> std::io::Result<Client> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: BufWriter::new(stream),
            next_id: 0,
            encoding: Encoding::Json,
        })
    }

    /// Connects and performs the v2 hello, upgrading to binary framing
    /// when asked.
    pub fn connect_with(addr: SocketAddr, encoding: Encoding) -> Result<Client, ServeError> {
        let mut client = Client::connect(addr).map_err(io_err)?;
        client.hello(encoding)?;
        Ok(client)
    }

    /// [`Client::connect_with`] under a deadline — see
    /// [`Client::connect_deadline`] for the timeout semantics. The
    /// hello round trip itself is covered by the deadline too.
    pub fn connect_with_deadline(
        addr: SocketAddr,
        encoding: Encoding,
        timeout: Duration,
    ) -> Result<Client, ServeError> {
        let mut client = Client::connect_deadline(addr, timeout).map_err(io_err)?;
        client.hello(encoding)?;
        Ok(client)
    }

    /// The encoding this client currently speaks.
    pub fn encoding(&self) -> Encoding {
        self.encoding
    }

    /// Negotiates protocol v2 with the given encoding. The hello goes
    /// out on the connection's current surface.
    pub fn hello(&mut self, encoding: Encoding) -> Result<(), ServeError> {
        let id = self.next_id;
        self.next_id += 1;
        let hello = Envelope::Hello {
            id: Some(id),
            version: PROTOCOL_VERSION,
            encoding,
            push: false,
        };
        self.send_envelope(&hello)?;
        match self.read_reply()? {
            Reply::HelloAck {
                id: echoed,
                version,
                encoding: granted,
                ..
            } => {
                if echoed != Some(id) || version != PROTOCOL_VERSION || granted != encoding {
                    return Err(ServeError {
                        code: ErrorCode::BadRequest,
                        message: "hello ack does not match the hello".into(),
                    });
                }
                self.encoding = encoding;
                Ok(())
            }
            Reply::Single {
                response: Response::Error(e),
                ..
            } => Err(e),
            other => Err(ServeError {
                code: ErrorCode::BadRequest,
                message: format!("unexpected hello reply: {other:?}"),
            }),
        }
    }

    /// Sends one command and waits for its response, verifying the id
    /// echo.
    pub fn call(&mut self, cmd: &Command) -> Result<Response, ServeError> {
        let id = self.next_id;
        self.next_id += 1;
        self.call_with_id(cmd, id)
    }

    /// Sends one command under a caller-chosen envelope id. Envelope
    /// ids double as trace ids: an id at or above
    /// `aware_obs::trace::TRACE_MIN` is adopted by the server (and
    /// propagated by a router to its shards) as the command's trace
    /// id, so a client that stamps its own trace can grep it out of
    /// every process's slow-query log. The sequential ids `call`
    /// allocates sit far below that range and never collide.
    pub fn call_with_id(&mut self, cmd: &Command, id: u64) -> Result<Response, ServeError> {
        self.send_envelope(&Envelope::Single {
            id: Some(id),
            cmd: cmd.clone(),
        })?;
        match self.read_reply()? {
            Reply::Single {
                id: echoed,
                response,
            } => {
                if echoed != Some(id) {
                    return Err(ServeError {
                        code: ErrorCode::BadRequest,
                        message: format!("response id {echoed:?} does not match request id {id}"),
                    });
                }
                Ok(response)
            }
            other => Err(ServeError {
                code: ErrorCode::BadRequest,
                message: format!("unexpected reply shape: {other:?}"),
            }),
        }
    }

    /// Submits `cmds` as one pipelined batch — a single envelope, a
    /// single flush, a single reply — and returns the responses in
    /// submission order, verifying every id echo.
    pub fn call_batch(
        &mut self,
        cmds: &[Command],
        mode: BatchMode,
    ) -> Result<Vec<Response>, ServeError> {
        let batch_id = self.next_id;
        self.next_id += 1;
        self.call_batch_with_id(cmds, mode, batch_id)
    }

    /// Submits a pipelined batch under a caller-chosen envelope id (see
    /// [`Client::call_with_id`] for how envelope ids double as trace
    /// ids). Item ids are still allocated from the client's sequence —
    /// only the envelope id carries the trace.
    pub fn call_batch_with_id(
        &mut self,
        cmds: &[Command],
        mode: BatchMode,
        batch_id: u64,
    ) -> Result<Vec<Response>, ServeError> {
        let first_item = self.next_id;
        self.next_id += cmds.len() as u64;
        let envelope = Envelope::Batch {
            id: Some(batch_id),
            batch: Batch {
                mode,
                items: cmds
                    .iter()
                    .enumerate()
                    .map(|(i, cmd)| crate::proto::BatchItem {
                        id: Some(first_item + i as u64),
                        cmd: cmd.clone(),
                    })
                    .collect(),
            },
        };
        self.send_envelope(&envelope)?;
        match self.read_reply()? {
            Reply::Batch { id, items } => {
                if id != Some(batch_id) {
                    return Err(ServeError {
                        code: ErrorCode::BadRequest,
                        message: format!("batch reply id {id:?} does not match {batch_id}"),
                    });
                }
                if items.len() != cmds.len() {
                    return Err(ServeError {
                        code: ErrorCode::BadRequest,
                        message: format!(
                            "batch reply carries {} responses for {} commands",
                            items.len(),
                            cmds.len()
                        ),
                    });
                }
                items
                    .into_iter()
                    .enumerate()
                    .map(|(i, (item_id, response))| {
                        if item_id != Some(first_item + i as u64) {
                            return Err(ServeError {
                                code: ErrorCode::BadRequest,
                                message: format!("item {i} echoed the wrong id {item_id:?}"),
                            });
                        }
                        Ok(response)
                    })
                    .collect()
            }
            other => Err(ServeError {
                code: ErrorCode::BadRequest,
                message: format!("unexpected reply shape: {other:?}"),
            }),
        }
    }

    fn send_envelope(&mut self, envelope: &Envelope) -> Result<(), ServeError> {
        match self.encoding {
            Encoding::Json => {
                self.writer
                    .write_all(envelope.encode_line().as_bytes())
                    .map_err(io_err)?;
                self.writer.write_all(b"\n").map_err(io_err)?;
            }
            Encoding::Binary => {
                frame::write_frame(&mut self.writer, &wire::encode_envelope(envelope))
                    .map_err(io_err)?;
            }
        }
        self.writer.flush().map_err(io_err)
    }

    /// Reads the next reply off the connection.
    fn read_reply(&mut self) -> Result<Reply, ServeError> {
        match self.encoding {
            Encoding::Json => {
                let mut line = String::new();
                let n = self.reader.read_line(&mut line).map_err(io_err)?;
                if n == 0 {
                    return Err(ServeError {
                        code: ErrorCode::Shutdown,
                        message: "server closed the connection".into(),
                    });
                }
                Reply::decode_line(&line)
            }
            Encoding::Binary => {
                match frame::read_frame(&mut self.reader, MAX_FRAME_BYTES).map_err(io_err)? {
                    FrameRead::Eof => Err(ServeError {
                        code: ErrorCode::Shutdown,
                        message: "server closed the connection".into(),
                    }),
                    FrameRead::Frame(payload) => wire::decode_reply(&payload),
                    FrameRead::TooLarge { declared } => Err(ServeError {
                        code: ErrorCode::BadRequest,
                        message: format!("server sent an oversized {declared}-byte frame"),
                    }),
                    FrameRead::Corrupt(message) => Err(ServeError {
                        code: ErrorCode::BadRequest,
                        message,
                    }),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{FilterSpec, PolicySpec, TranscriptFormat};
    use crate::service::{Service, ServiceConfig};
    use aware_data::census::CensusGenerator;
    use aware_data::predicate::CmpOp;
    use aware_data::value::Value;
    use aware_reactor::decode::DecoderConfig;
    use aware_reactor::Inbound;

    fn served() -> (Service, TcpServer) {
        let service = Service::start(ServiceConfig::default());
        service
            .handle()
            .register_table("census", CensusGenerator::new(11).generate(3_000));
        let server = TcpServer::bind("127.0.0.1:0", service.handle()).unwrap();
        (service, server)
    }

    #[test]
    fn end_to_end_over_a_socket() {
        let (_service, server) = served();
        let mut client = Client::connect(server.local_addr()).unwrap();

        let sid = match client
            .call(&Command::CreateSession {
                dataset: "census".into(),
                alpha: 0.05,
                policy: PolicySpec::Fixed { gamma: 10.0 },
            })
            .unwrap()
        {
            Response::SessionCreated { session, .. } => session,
            other => panic!("{other:?}"),
        };

        match client
            .call(&Command::AddVisualization {
                session: sid,
                attribute: "education".into(),
                filter: FilterSpec::Cmp {
                    column: "salary_over_50k".into(),
                    op: CmpOp::Eq,
                    value: Value::Bool(true),
                },
            })
            .unwrap()
        {
            Response::VizAdded {
                hypothesis: Some(h),
                ..
            } => assert!(h.rejected),
            other => panic!("{other:?}"),
        }

        match client
            .call(&Command::Transcript {
                session: sid,
                format: TranscriptFormat::Text,
            })
            .unwrap()
        {
            Response::TranscriptText { text, .. } => {
                assert!(text.contains("AWARE session transcript"))
            }
            other => panic!("{other:?}"),
        }

        match client.call(&Command::Stats).unwrap() {
            Response::Stats(s) => assert_eq!(s.sessions_created, 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn malformed_lines_get_error_responses_not_disconnects() {
        let (_service, server) = served();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);

        writer
            .write_all(b"this is not json\n{\"cmd\":\"warp\"}\n\n{\"cmd\":\"stats\"}\n")
            .unwrap();
        writer.flush().unwrap();

        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let (r, _) = Response::decode_line(&line).unwrap();
        assert!(
            matches!(r, Response::Error(ref e) if e.code == ErrorCode::BadRequest),
            "{r:?}"
        );

        line.clear();
        reader.read_line(&mut line).unwrap();
        let (r, _) = Response::decode_line(&line).unwrap();
        assert!(
            matches!(r, Response::Error(ref e) if e.code == ErrorCode::UnknownCommand),
            "{r:?}"
        );

        // The empty line was skipped; the stats request still answers.
        line.clear();
        reader.read_line(&mut line).unwrap();
        let (r, _) = Response::decode_line(&line).unwrap();
        assert!(matches!(r, Response::Stats(_)), "{r:?}");
    }

    #[test]
    fn request_line_cap_is_exact_at_the_newline_chunk() {
        // A line one byte over the cap whose newline arrives in the same
        // read must still be rejected (regression: the cap was once only
        // enforced on newline-free chunks).
        let cfg = DecoderConfig {
            line_max: 10,
            ..decoder_config()
        };
        let mut decoder = StreamDecoder::new(cfg.clone());
        decoder.push(b"xxxxxxxxxxx\nok\n");
        assert_eq!(decoder.next(), Some(Inbound::LineTooLong));
        // The stream resynchronized at the newline.
        assert_eq!(decoder.next(), Some(Inbound::Line("ok".into())));
        // Exactly at the cap is accepted.
        let mut decoder = StreamDecoder::new(cfg);
        decoder.push(b"yyyyyyyyyy\n");
        assert_eq!(decoder.next(), Some(Inbound::Line("y".repeat(10))));
        assert_eq!(decoder.next(), None);
        assert_eq!(decoder.finish(), None);
    }

    #[test]
    fn oversized_request_line_is_rejected_and_stream_resyncs() {
        let (_service, server) = served();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);

        // A 2 MiB line (deeply-nested-bomb shaped) followed by a valid
        // request on the same connection.
        let bomb = "[".repeat(2 * MAX_REQUEST_BYTES);
        writer.write_all(bomb.as_bytes()).unwrap();
        writer.write_all(b"\n{\"cmd\":\"stats\"}\n").unwrap();
        writer.flush().unwrap();

        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let (r, _) = Response::decode_line(&line).unwrap();
        assert!(
            matches!(r, Response::Error(ref e) if e.code == ErrorCode::BadRequest),
            "{r:?}"
        );
        line.clear();
        reader.read_line(&mut line).unwrap();
        let (r, _) = Response::decode_line(&line).unwrap();
        match r {
            // Protocol errors are visible to the stats counters.
            Response::Stats(s) => assert!(s.errors >= 1, "{s:?}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn dropping_the_server_stops_accepting() {
        let (_service, server) = served();
        let addr = server.local_addr();
        drop(server);
        // The listener is gone: new connections are refused (or accepted
        // by nothing and immediately closed — read returns EOF).
        match TcpStream::connect(addr) {
            Err(_) => {}
            Ok(stream) => {
                let mut reader = BufReader::new(stream);
                let mut line = String::new();
                let n = reader.read_line(&mut line).unwrap_or(0);
                assert_eq!(n, 0, "no server should answer: {line}");
            }
        }
    }

    #[test]
    fn two_clients_drive_independent_sessions() {
        let (_service, server) = served();
        let mut a = Client::connect(server.local_addr()).unwrap();
        let mut b = Client::connect(server.local_addr()).unwrap();
        let make = |c: &mut Client| match c
            .call(&Command::CreateSession {
                dataset: "census".into(),
                alpha: 0.05,
                policy: PolicySpec::Fixed { gamma: 10.0 },
            })
            .unwrap()
        {
            Response::SessionCreated { session, .. } => session,
            other => panic!("{other:?}"),
        };
        let sa = make(&mut a);
        let sb = make(&mut b);
        assert_ne!(sa, sb);
        // Interleave commands; each session only sees its own.
        for (c, sid) in [(&mut a, sa), (&mut b, sb)] {
            match c.call(&Command::Gauge { session: sid }).unwrap() {
                Response::GaugeText { session, text } => {
                    assert_eq!(session, sid);
                    assert!(text.contains("no hypotheses tracked yet"));
                }
                other => panic!("{other:?}"),
            }
        }
    }

    /// A connection scripted read by read: `None` is a read that fails
    /// with `Interrupted` (the shape a pending signal gives `read(2)`),
    /// `Some(bytes)` is one read's worth of data. An exhausted script
    /// reads as EOF. Writes are collected.
    struct Scripted {
        reads: std::collections::VecDeque<Option<Vec<u8>>>,
        written: Vec<u8>,
    }

    impl Scripted {
        fn new(reads: impl IntoIterator<Item = Option<Vec<u8>>>) -> Scripted {
            Scripted {
                reads: reads.into_iter().collect(),
                written: Vec::new(),
            }
        }
    }

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.reads.pop_front() {
                None => Ok(0),
                Some(None) => Err(std::io::Error::from(ErrorKind::Interrupted)),
                Some(Some(mut bytes)) => {
                    let n = bytes.len().min(buf.len());
                    buf[..n].copy_from_slice(&bytes[..n]);
                    if n < bytes.len() {
                        self.reads.push_front(Some(bytes.split_off(n)));
                    }
                    Ok(n)
                }
            }
        }
    }

    impl Write for Scripted {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.written.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn handler() -> (Service, Handler<crate::service::ServiceHandle>) {
        let service = Service::start(ServiceConfig::default());
        service
            .handle()
            .register_table("census", CensusGenerator::new(11).generate(500));
        let handler = Handler::new(service.handle());
        (service, handler)
    }

    fn framed(envelope: &Envelope) -> Vec<u8> {
        let mut out = Vec::new();
        frame::write_frame(&mut out, &wire::encode_envelope(envelope)).unwrap();
        out
    }

    #[test]
    fn first_byte_retries_through_eintr() {
        // Surface detection must not classify (or kill) the connection
        // on a stray signal: the first byte after the interrupts decides.
        let (_service, handler) = handler();
        let hello = framed(&Envelope::Hello {
            id: Some(1),
            version: PROTOCOL_VERSION,
            encoding: Encoding::Binary,
            push: false,
        });
        let mut s = Scripted::new([None, None, None, Some(hello)]);
        pump(&mut s, &handler).unwrap();
        assert_eq!(s.written[..4], frame::MAGIC, "answered in a frame");

        let line = b"{\"cmd\":\"gauge\",\"session\":99}\n".to_vec();
        let mut s = Scripted::new([None, None, Some(line)]);
        pump(&mut s, &handler).unwrap();
        assert_eq!(s.written[0], b'{', "answered with a JSON line");

        // EINTR then clean close is still a clean zero-byte close.
        let mut s = Scripted::new([None]);
        pump(&mut s, &handler).unwrap();
        assert!(s.written.is_empty());

        // Other errors still propagate.
        struct Broken;
        impl Read for Broken {
            fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::from(ErrorKind::ConnectionReset))
            }
        }
        impl Write for Broken {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        assert_eq!(
            pump(&mut Broken, &handler).unwrap_err().kind(),
            ErrorKind::ConnectionReset
        );
    }

    #[test]
    fn eof_inside_an_oversized_payload_is_answered_once() {
        // The oversized frame is refused as soon as its header arrives;
        // the stream then ends partway through the payload being
        // skipped, which closes the connection with nothing more said.
        let (_service, handler) = handler();
        let header = frame::header(MAX_FRAME_BYTES as u32 + 1).to_vec();
        let mut s = Scripted::new([Some(header), None, Some(vec![7; 100]), Some(vec![7; 3])]);
        pump(&mut s, &handler).unwrap();
        let mut written = &s.written[..];
        let FrameRead::Frame(payload) = frame::read_frame(&mut written, MAX_FRAME_BYTES).unwrap()
        else {
            panic!("expected one reply frame: {:?}", s.written);
        };
        match wire::decode_reply(&payload).unwrap() {
            Reply::Single {
                id: None,
                response: Response::Error(e),
            } => assert_eq!(
                e.message,
                format!(
                    "frame payload of {} bytes exceeds {MAX_FRAME_BYTES}",
                    MAX_FRAME_BYTES + 1
                )
            ),
            other => panic!("{other:?}"),
        }
        assert!(written.is_empty(), "exactly one reply: {:?}", s.written);
    }

    #[test]
    fn pump_replies_do_not_depend_on_how_reads_split_the_stream() {
        // v1 lines (one blank, one malformed), then a JSON hello that
        // upgrades to binary with its frames behind it, then a frame
        // header cut short by EOF — answered once the stream ends.
        let mut stream = Vec::new();
        let create = Command::CreateSession {
            dataset: "census".into(),
            alpha: 0.05,
            policy: PolicySpec::Fixed { gamma: 10.0 },
        };
        stream.extend_from_slice(create.encode_line(Some(1)).as_bytes());
        stream.extend_from_slice(b"\n\nnot json\n");
        let hello = Envelope::Hello {
            id: Some(2),
            version: PROTOCOL_VERSION,
            encoding: Encoding::Binary,
            push: false,
        };
        stream.extend_from_slice(hello.encode_line().as_bytes());
        stream.push(b'\n');
        let gauge = Command::Gauge { session: 0 };
        stream.extend_from_slice(&framed(&Envelope::Single {
            id: Some(3),
            cmd: gauge.clone(),
        }));
        stream.extend_from_slice(&framed(&Envelope::Batch {
            id: Some(4),
            batch: Batch {
                mode: BatchMode::Continue,
                items: vec![crate::proto::BatchItem {
                    id: Some(5),
                    cmd: gauge,
                }],
            },
        }));
        stream.extend_from_slice(&frame::MAGIC);

        // The whole stream in one read: the upgrade's frames arrive in
        // the same read as the hello line.
        let (_service, handler) = self::handler();
        let mut whole = Scripted::new([Some(stream.clone())]);
        pump(&mut whole, &handler).unwrap();

        // One byte per read, an `Interrupted` before every byte.
        let (_service, handler) = self::handler();
        let mut dribbled = Scripted::new(stream.iter().flat_map(|&b| [None, Some(vec![b])]));
        pump(&mut dribbled, &handler).unwrap();

        assert_eq!(dribbled.written, whole.written);
        let text = String::from_utf8_lossy(&whole.written);
        assert!(text.contains("\"encoding\":\"binary\""), "{text}");
        assert!(
            text.contains("stream ended after 4 of 9 header bytes"),
            "{text}"
        );
        assert_eq!(text.matches("AWR2").count(), 3, "{text}");
    }
}
