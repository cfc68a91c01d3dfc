//! TCP front end: both protocol surfaces over a socket.
//!
//! One thread per connection (the worker pool behind the
//! [`ServiceHandle`] is what bounds statistical work, so connection
//! threads are thin readers/writers). The surface is auto-detected by
//! the connection's first byte:
//!
//! * `{` (or whitespace) — the NDJSON surface: v1 single commands and
//!   v2 JSON envelopes (`hello`, batches), one line per message,
//!   answered in order.
//! * `A` (the first byte of the `AWR2` frame magic) — the binary
//!   surface: length-prefixed frames carrying the compact tag codec.
//!   The first frame must be a `hello` naming the protocol version.
//!
//! A JSON `hello` requesting `"encoding":"binary"` upgrades the
//! connection in place: the ack is the last JSON line, everything after
//! it is frames — both directions.

use crate::error::{ErrorCode, ServeError};
use crate::frame::{self, FrameRead, MAX_FRAME_BYTES};
use crate::metrics::Stage;
use crate::proto::{
    Batch, BatchMode, Command, Encoding, Envelope, PushEvent, Reply, Response, PROTOCOL_VERSION,
};
use crate::service::Dispatch;
use crate::wire;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Request lines longer than this are answered with `bad_request` and
/// discarded (the reader resynchronizes at the next newline) — a client
/// cannot make the server buffer unbounded input.
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

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
    /// in-process [`ServiceHandle`] and a cluster router.
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
                let handle = handle.clone();
                let _ = std::thread::Builder::new()
                    .name("aware-serve-conn".into())
                    .spawn(move || {
                        let _ = serve_connection(stream, handle);
                    });
            }
            Err(_) => continue,
        }
    }
}

/// One capped request line, or how reading it ended.
enum RequestLine {
    Eof,
    TooLong,
    Text(String),
}

/// Reads up to the next newline, buffering at most `max` bytes. An
/// over-long line is consumed through its newline (the protocol stream
/// stays synchronized) but reported as [`RequestLine::TooLong`].
fn read_request_line(reader: &mut impl BufRead, max: usize) -> std::io::Result<RequestLine> {
    let mut buf: Vec<u8> = Vec::new();
    let mut overflow = false;
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            return Ok(if overflow {
                RequestLine::TooLong
            } else if buf.is_empty() {
                RequestLine::Eof
            } else {
                RequestLine::Text(String::from_utf8_lossy(&buf).into_owned())
            });
        }
        if let Some(pos) = chunk.iter().position(|&b| b == b'\n') {
            if !overflow {
                if buf.len() + pos > max {
                    overflow = true;
                    buf.clear();
                } else {
                    buf.extend_from_slice(&chunk[..pos]);
                }
            }
            reader.consume(pos + 1);
            return Ok(if overflow {
                RequestLine::TooLong
            } else {
                RequestLine::Text(String::from_utf8_lossy(&buf).into_owned())
            });
        }
        let len = chunk.len();
        if !overflow {
            if buf.len() + len > max {
                overflow = true;
                buf.clear();
            } else {
                buf.extend_from_slice(chunk);
            }
        }
        reader.consume(len);
    }
}

/// Validates a hello against what this server speaks on the given
/// surface; `Ok` is the ack to send back.
pub(crate) fn negotiate(
    version: u32,
    encoding: Encoding,
    surface: Encoding,
) -> Result<Reply, ServeError> {
    if version != PROTOCOL_VERSION {
        return Err(ServeError::invalid(format!(
            "unsupported protocol version {version} (this server speaks {PROTOCOL_VERSION}; \
             v1 needs no hello)"
        )));
    }
    if surface == Encoding::Binary && encoding != Encoding::Binary {
        return Err(ServeError::invalid(
            "a binary-framed connection cannot negotiate the json encoding",
        ));
    }
    Ok(Reply::HelloAck {
        id: None, // caller fills the echoed id
        version: PROTOCOL_VERSION,
        encoding,
        max_frame: MAX_FRAME_BYTES as u64,
        push: false, // granted (or not) by the front end, not here
    })
}

/// Executes a batch envelope under one trace id and pairs the
/// responses with their item ids for the reply.
pub(crate) fn run_batch<H: Dispatch>(
    handle: &H,
    batch: Batch,
    trace: u64,
) -> Vec<(Option<u64>, Response)> {
    let mut ids = Vec::with_capacity(batch.items.len());
    let mut cmds = Vec::with_capacity(batch.items.len());
    let mode = batch.mode;
    for item in batch.items {
        ids.push(item.id);
        cmds.push(item.cmd);
    }
    ids.into_iter()
        .zip(handle.call_batch_traced(cmds, mode, trace))
        .collect()
}

/// Peeks the first byte of a connection for surface auto-detection.
/// `Ok(None)` is a clean zero-byte close. A stray signal used to kill
/// the connection here: `fill_buf` surfaces `EINTR` as an error, and
/// the old code propagated it before a single byte was ever
/// classified — so a connection that raced a `SIGTERM`-adjacent signal
/// died silently instead of being served. Retry on `Interrupted`, the
/// same discipline every other read loop in this file already follows
/// via `read_line`/`read_exact`.
fn first_byte(reader: &mut impl BufRead) -> std::io::Result<Option<u8>> {
    loop {
        match reader.fill_buf() {
            Ok([]) => return Ok(None), // closed before a single byte
            Ok(bytes) => return Ok(Some(bytes[0])),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

/// Serves one connection until EOF or I/O error, auto-detecting the
/// surface from the first byte.
fn serve_connection<H: Dispatch>(stream: TcpStream, handle: H) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let writer = BufWriter::new(stream);
    let first = match first_byte(&mut reader)? {
        None => return Ok(()),
        Some(b) => b,
    };
    if first == frame::MAGIC[0] {
        return serve_binary(reader, writer, handle, false);
    }
    serve_ndjson(reader, writer, handle)
}

/// The NDJSON surface: v1 commands plus v2 JSON envelopes. Returns by
/// tail-calling into [`serve_binary`] if a hello upgrades the encoding.
fn serve_ndjson<H: Dispatch>(
    mut reader: BufReader<TcpStream>,
    mut writer: BufWriter<TcpStream>,
    handle: H,
) -> std::io::Result<()> {
    loop {
        let reply_line = match read_request_line(&mut reader, MAX_REQUEST_BYTES)? {
            RequestLine::Eof => return Ok(()),
            RequestLine::TooLong => {
                handle.metrics().protocol_error();
                Response::Error(ServeError {
                    code: ErrorCode::BadRequest,
                    message: format!("request line exceeds {MAX_REQUEST_BYTES} bytes"),
                })
                .encode_line(None)
            }
            RequestLine::Text(line) => {
                if line.trim().is_empty() {
                    continue;
                }
                handle.metrics().wire_request(Encoding::Json);
                match Envelope::decode_line(&line) {
                    Ok(Envelope::Hello {
                        id,
                        version,
                        encoding,
                        ..
                    }) => match negotiate(version, encoding, Encoding::Json) {
                        Ok(Reply::HelloAck {
                            version,
                            encoding,
                            max_frame,
                            ..
                        }) => {
                            // This front end parks a thread in a blocking
                            // read between requests, so it has nowhere to
                            // deliver asynchronous frames from: the push
                            // capability is honestly declined (the reactor
                            // front end is the one that grants it).
                            let ack = Reply::HelloAck {
                                id,
                                version,
                                encoding,
                                max_frame,
                                push: false,
                            };
                            writer.write_all(ack.encode_line().as_bytes())?;
                            writer.write_all(b"\n")?;
                            writer.flush()?;
                            if encoding == Encoding::Binary {
                                // The ack was the last JSON line; frames
                                // from here on, both directions.
                                return serve_binary(reader, writer, handle, true);
                            }
                            continue;
                        }
                        Ok(_) => unreachable!("negotiate acks with HelloAck"),
                        Err(e) => {
                            handle.metrics().protocol_error();
                            Response::Error(e).encode_line(id)
                        }
                    },
                    Ok(Envelope::Batch { id, batch }) => Reply::Batch {
                        id,
                        items: run_batch(&handle, batch, aware_obs::trace::adopt_or_new(id)),
                    }
                    .encode_line(),
                    Ok(Envelope::Single { id, cmd }) => handle
                        .call_traced(cmd, aware_obs::trace::adopt_or_new(id))
                        .encode_line(id),
                    Err(e) => {
                        handle.metrics().protocol_error();
                        Response::Error(e).encode_line(None)
                    }
                }
            }
        };
        let encode_start = std::time::Instant::now();
        writer.write_all(reply_line.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        handle
            .metrics()
            .observe(Stage::WireEncode, encode_start.elapsed().as_micros() as u64);
    }
}

/// Encodes and writes one reply frame, honouring the frame ceiling the
/// server advertises in its hello ack: a reply whose payload would
/// exceed it (a batch of thousands of transcript exports can get there
/// legitimately) is downgraded to an error reply instead of being
/// written — an oversized frame would leave the client unable to trust
/// the stream, and a > 4 GiB one would poison the u32 length field.
/// The error is explicit that the commands *did* execute and only
/// their responses were discarded.
pub(crate) fn write_reply_frame(writer: &mut impl Write, reply: &Reply) -> std::io::Result<()> {
    let payload = wire::encode_reply(reply);
    if payload.len() <= MAX_FRAME_BYTES {
        return frame::write_frame(writer, &payload);
    }
    let id = match reply {
        Reply::HelloAck { id, .. } | Reply::Batch { id, .. } | Reply::Single { id, .. } => *id,
    };
    let fallback = Reply::Single {
        id,
        response: Response::Error(ServeError {
            code: ErrorCode::BadRequest,
            message: format!(
                "reply of {} bytes exceeds the {MAX_FRAME_BYTES}-byte frame ceiling; the \
                 commands executed, but their responses were discarded — split the batch",
                payload.len()
            ),
        }),
    };
    frame::write_frame(writer, &wire::encode_reply(&fallback))
}

/// The binary surface. `greeted` is true when the connection already
/// negotiated through a JSON hello; a cold binary connection must greet
/// in its first frame so the server knows the client really speaks v2
/// (and not, say, a stray HTTP request that happens to start with 'A').
fn serve_binary<H: Dispatch>(
    mut reader: BufReader<TcpStream>,
    mut writer: BufWriter<TcpStream>,
    handle: H,
    mut greeted: bool,
) -> std::io::Result<()> {
    loop {
        let payload = match frame::read_frame(&mut reader, MAX_FRAME_BYTES)? {
            FrameRead::Eof => return Ok(()),
            FrameRead::TooLarge { declared } => {
                // The length prefix tells us exactly how much to discard;
                // the stream stays synchronized, the connection lives.
                handle.metrics().protocol_error();
                frame::skip_payload(&mut reader, declared as u64)?;
                let reply = Reply::Single {
                    id: None,
                    response: Response::Error(ServeError {
                        code: ErrorCode::BadRequest,
                        message: format!(
                            "frame payload of {declared} bytes exceeds {MAX_FRAME_BYTES}"
                        ),
                    }),
                };
                frame::write_frame(&mut writer, &wire::encode_reply(&reply))?;
                writer.flush()?;
                continue;
            }
            FrameRead::Corrupt(message) => {
                // Framing is lost — answer once and hang up.
                handle.metrics().protocol_error();
                let reply = Reply::Single {
                    id: None,
                    response: Response::Error(ServeError {
                        code: ErrorCode::BadRequest,
                        message,
                    }),
                };
                let _ = frame::write_frame(&mut writer, &wire::encode_reply(&reply));
                let _ = writer.flush();
                return Ok(());
            }
            FrameRead::Frame(payload) => payload,
        };
        handle.metrics().wire_request(Encoding::Binary);
        let reply = match wire::decode_envelope(&payload) {
            Ok(Envelope::Hello {
                id,
                version,
                encoding,
                ..
            }) => match negotiate(version, encoding, Encoding::Binary) {
                Ok(Reply::HelloAck {
                    version,
                    encoding,
                    max_frame,
                    ..
                }) => {
                    greeted = true;
                    // Push is declined on this front end — see the JSON
                    // hello arm for why.
                    Reply::HelloAck {
                        id,
                        version,
                        encoding,
                        max_frame,
                        push: false,
                    }
                }
                Ok(_) => unreachable!("negotiate acks with HelloAck"),
                Err(e) => {
                    handle.metrics().protocol_error();
                    Reply::Single {
                        id,
                        response: Response::Error(e),
                    }
                }
            },
            Ok(envelope) if !greeted => {
                // First frame was well-formed v2 but not a hello.
                handle.metrics().protocol_error();
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
                frame::write_frame(&mut writer, &wire::encode_reply(&reply))?;
                writer.flush()?;
                return Ok(());
            }
            Ok(Envelope::Batch { id, batch }) => Reply::Batch {
                id,
                items: run_batch(&handle, batch, aware_obs::trace::adopt_or_new(id)),
            },
            Ok(Envelope::Single { id, cmd }) => Reply::Single {
                id,
                response: handle.call_traced(cmd, aware_obs::trace::adopt_or_new(id)),
            },
            Err(e) => {
                handle.metrics().protocol_error();
                let reply = Reply::Single {
                    id: None,
                    response: Response::Error(e),
                };
                if !greeted {
                    // An un-greeted binary connection sending garbage is
                    // held to the same hello-first contract as one
                    // sending well-formed non-hello envelopes: one
                    // error, then hang up.
                    write_reply_frame(&mut writer, &reply)?;
                    writer.flush()?;
                    return Ok(());
                }
                reply
            }
        };
        let encode_start = std::time::Instant::now();
        write_reply_frame(&mut writer, &reply)?;
        writer.flush()?;
        handle
            .metrics()
            .observe(Stage::WireEncode, encode_start.elapsed().as_micros() as u64);
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
    push_granted: bool,
    pushes: std::collections::VecDeque<PushEvent>,
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
            push_granted: false,
            pushes: std::collections::VecDeque::new(),
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
            push_granted: false,
            pushes: std::collections::VecDeque::new(),
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
        self.hello_opts(encoding, false).map(|_| ())
    }

    /// [`Client::hello`] that also requests the server-push capability.
    /// Returns whether the server granted it (the thread-per-connection
    /// front end declines; the reactor front end grants). A declined
    /// request is not an error — the connection works normally, it just
    /// won't receive unsolicited id-0 frames.
    pub fn hello_push(&mut self, encoding: Encoding) -> Result<bool, ServeError> {
        self.hello_opts(encoding, true)
    }

    fn hello_opts(&mut self, encoding: Encoding, push: bool) -> Result<bool, ServeError> {
        let id = self.next_id;
        self.next_id += 1;
        let hello = Envelope::Hello {
            id: Some(id),
            version: PROTOCOL_VERSION,
            encoding,
            push,
        };
        self.send_envelope(&hello)?;
        match self.read_reply()? {
            Reply::HelloAck {
                id: echoed,
                version,
                encoding: granted,
                push: push_granted,
                ..
            } => {
                if echoed != Some(id) || version != PROTOCOL_VERSION || granted != encoding {
                    return Err(ServeError {
                        code: ErrorCode::BadRequest,
                        message: "hello ack does not match the hello".into(),
                    });
                }
                self.encoding = encoding;
                self.push_granted = push_granted;
                Ok(push_granted)
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

    /// Whether the server granted the push capability on this
    /// connection's hello.
    pub fn push_granted(&self) -> bool {
        self.push_granted
    }

    /// Push events received so far, drained in arrival order. Pushes
    /// are interleaved with replies on the wire; [`Client::read_reply`]
    /// stashes any id-0 push frame it encounters while waiting for a
    /// response, so this is where they surface.
    pub fn take_pushes(&mut self) -> Vec<PushEvent> {
        self.pushes.drain(..).collect()
    }

    /// Blocks until a push event arrives (or the socket's read timeout
    /// fires, for clients built with `connect_deadline`). Any stashed
    /// event is returned immediately.
    pub fn recv_push(&mut self) -> Result<PushEvent, ServeError> {
        if let Some(event) = self.pushes.pop_front() {
            return Ok(event);
        }
        match self.read_reply_raw()? {
            Reply::Single {
                id: Some(0),
                response: Response::Push(event),
            } => Ok(event),
            // A non-push reply here means the server answered a request
            // we never sent.
            other => Err(ServeError {
                code: ErrorCode::BadRequest,
                message: format!("unsolicited non-push reply while waiting for a push: {other:?}"),
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

    /// Reads the next reply to a request, stashing any server-push
    /// frames that arrive in between. Push frames always carry envelope
    /// id 0 and a `Push` response — a shape no request reply can take
    /// (the id-0 hello is acked with a `HelloAck`), so the dispatch is
    /// unambiguous.
    fn read_reply(&mut self) -> Result<Reply, ServeError> {
        loop {
            match self.read_reply_raw()? {
                Reply::Single {
                    id: Some(0),
                    response: Response::Push(event),
                } => self.pushes.push_back(event),
                reply => return Ok(reply),
            }
        }
    }

    fn read_reply_raw(&mut self) -> Result<Reply, ServeError> {
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

    fn served() -> (Service, TcpServer) {
        let service = Service::start(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
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
        // buffered chunk must still be rejected (regression: the cap was
        // once only enforced on newline-free chunks).
        let mut input = std::io::Cursor::new({
            let mut v = vec![b'x'; 10 + 1];
            v.push(b'\n');
            v.extend_from_slice(b"ok\n");
            v
        });
        match read_request_line(&mut input, 10).unwrap() {
            RequestLine::TooLong => {}
            RequestLine::Text(t) => panic!("accepted over-cap line of {} bytes", t.len()),
            RequestLine::Eof => panic!("eof"),
        }
        // The stream resynchronized at the newline.
        match read_request_line(&mut input, 10).unwrap() {
            RequestLine::Text(t) => assert_eq!(t, "ok"),
            other => panic!("{:?}", std::mem::discriminant(&other)),
        }
        // Exactly at the cap is accepted.
        let mut input = std::io::Cursor::new(
            vec![b'y'; 10]
                .into_iter()
                .chain(*b"\n")
                .collect::<Vec<u8>>(),
        );
        match read_request_line(&mut input, 10).unwrap() {
            RequestLine::Text(t) => assert_eq!(t.len(), 10),
            _ => panic!("at-cap line must pass"),
        }
        assert!(matches!(
            read_request_line(&mut input, 10).unwrap(),
            RequestLine::Eof
        ));
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

    /// A reader whose first `n` reads fail with `Interrupted` before
    /// the payload flows — the shape a pending signal gives `read(2)`.
    struct InterruptedReader {
        interrupts: usize,
        data: &'static [u8],
    }

    impl std::io::Read for InterruptedReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.interrupts > 0 {
                self.interrupts -= 1;
                return Err(std::io::Error::from(std::io::ErrorKind::Interrupted));
            }
            let n = self.data.len().min(buf.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    #[test]
    fn first_byte_retries_through_eintr() {
        // Surface auto-detection must not classify (or kill) the
        // connection on a stray signal: the first byte after the
        // interrupts decides.
        let mut r = BufReader::new(InterruptedReader {
            interrupts: 3,
            data: b"AWR2",
        });
        assert_eq!(first_byte(&mut r).unwrap(), Some(b'A'));

        let mut r = BufReader::new(InterruptedReader {
            interrupts: 2,
            data: b"{\"cmd\":\"stats\"}\n",
        });
        assert_eq!(first_byte(&mut r).unwrap(), Some(b'{'));

        // EINTR then clean close is still a clean zero-byte close.
        let mut r = BufReader::new(InterruptedReader {
            interrupts: 1,
            data: b"",
        });
        assert_eq!(first_byte(&mut r).unwrap(), None);

        // Other errors still propagate.
        struct Broken;
        impl std::io::Read for Broken {
            fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::from(std::io::ErrorKind::ConnectionReset))
            }
        }
        let mut r = BufReader::new(Broken);
        assert_eq!(
            first_byte(&mut r).unwrap_err().kind(),
            std::io::ErrorKind::ConnectionReset
        );
    }
}
