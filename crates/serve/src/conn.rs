//! The connection protocol, written once.
//!
//! [`Handler`] answers one decoded inbound message — an NDJSON line or
//! a binary frame from [`aware_reactor::decode::StreamDecoder`], or the
//! decoder's report of an over-long line, an oversized frame or lost
//! framing — with the reply bytes and the connection-level decision
//! ([`Outcome`]: hang up, or switch the decoder to frames). It holds
//! every protocol rule: hello negotiation, the rule that a binary
//! connection must open with a hello, batch and single dispatch, the
//! error replies, and the JSON→binary upgrade.
//!
//! Two transports drive it, each with a decoder built by
//! [`decoder_config`]: the thread-per-connection front
//! ([`crate::tcp`]) pumps a blocking socket through it, and the reactor
//! front ([`crate::reactor_front`]) hands it messages from the event
//! loop. Neither transport sends anything but replies, so both answer
//! every message alike — a hello's `push` request included, which the
//! ack always declines.

use crate::error::{ErrorCode, ServeError};
use crate::frame::{self, HEADER_LEN, MAX_FRAME_BYTES};
use crate::metrics::{Metrics, Stage};
use crate::proto::{Batch, Encoding, Envelope, Reply, Response, PROTOCOL_VERSION};
use crate::service::Dispatch;
use crate::wire;
use aware_reactor::decode::DecoderConfig;
use aware_reactor::{ConnState, Inbound, Outcome};

/// Request lines longer than this are answered with `bad_request` and
/// discarded (the decoder resynchronizes at the next newline) — a client
/// cannot make the server buffer unbounded input.
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

/// The decoder limits both transports enforce, so both reject the same
/// inputs with the same messages.
pub(crate) fn decoder_config() -> DecoderConfig {
    DecoderConfig {
        line_max: MAX_REQUEST_BYTES,
        frame_max: MAX_FRAME_BYTES,
    }
}

/// The protocol handler over a [`Dispatch`].
pub(crate) struct Handler<H> {
    handle: H,
}

impl<H: Dispatch> Handler<H> {
    pub(crate) fn new(handle: H) -> Handler<H> {
        Handler { handle }
    }

    /// The dispatcher's counter block, for transport-level accounting.
    pub(crate) fn metrics(&self) -> &Metrics {
        self.handle.metrics()
    }

    /// Answers one inbound message.
    pub(crate) fn respond(&self, state: &mut ConnState, inbound: Inbound) -> Outcome {
        let (surface, envelope) = match inbound {
            Inbound::Line(line) if line.trim().is_empty() => return Outcome::none(),
            Inbound::Line(line) => (Encoding::Json, Envelope::decode_line(&line)),
            Inbound::Frame(payload) => (Encoding::Binary, wire::decode_envelope(&payload)),
            // The decoder consumed the line through its newline; the
            // stream stays synchronized, the connection lives.
            Inbound::LineTooLong => {
                let message = format!("request line exceeds {MAX_REQUEST_BYTES} bytes");
                return self.refuse(Encoding::Json, message, false);
            }
            // The decoder skips exactly the declared payload; the
            // stream stays synchronized, the connection lives.
            Inbound::FrameTooLarge { declared } => {
                let message =
                    format!("frame payload of {declared} bytes exceeds {MAX_FRAME_BYTES}");
                return self.refuse(Encoding::Binary, message, false);
            }
            // Framing is lost: answer once and hang up.
            Inbound::FrameCorrupt(message) => return self.refuse(Encoding::Binary, message, true),
        };
        self.handle.metrics().wire_request(surface);
        // A cold binary connection must greet in its first frame, so the
        // server knows the client really speaks v2 (and not, say, a stray
        // HTTP request that happens to start with 'A'). Anything else
        // gets one error, then the server hangs up.
        let greeted = state.greeted || surface == Encoding::Json;
        let mut close = false;
        let mut upgrade_to_frames = false;
        let reply = match envelope {
            Ok(Envelope::Hello {
                id,
                version,
                encoding,
                ..
            }) => match negotiate(version, encoding, surface) {
                Ok(()) => {
                    state.greeted = true;
                    // The ack is the last JSON line of an upgrading
                    // connection; frames from here on, both directions.
                    upgrade_to_frames = surface == Encoding::Json && encoding == Encoding::Binary;
                    Reply::HelloAck {
                        id,
                        version: PROTOCOL_VERSION,
                        encoding,
                        max_frame: MAX_FRAME_BYTES as u64,
                        // No server pushes: a request for it is declined.
                        push: false,
                    }
                }
                Err(e) => self.error(id, e),
            },
            Ok(Envelope::Batch { id, .. } | Envelope::Single { id, .. }) if !greeted => {
                close = true;
                let message = "a binary connection must open with a hello frame";
                self.error(id, bad_request(message.into()))
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
                close = !greeted;
                self.error(None, e)
            }
        };
        Outcome {
            reply: self.encode(surface, &reply),
            close,
            upgrade_to_frames,
        }
    }

    /// A protocol-level error reply, counted as one.
    fn error(&self, id: Option<u64>, e: ServeError) -> Reply {
        self.handle.metrics().protocol_error();
        Reply::Single {
            id,
            response: Response::Error(e),
        }
    }

    /// Answers a framing defect the decoder reported.
    fn refuse(&self, surface: Encoding, message: String, close: bool) -> Outcome {
        let reply = self.error(None, bad_request(message));
        Outcome {
            reply: self.encode(surface, &reply),
            close,
            upgrade_to_frames: false,
        }
    }

    /// [`encode_reply`], timed: the only place the `wire_encode` stage
    /// is recorded, one sample per reply.
    fn encode(&self, surface: Encoding, reply: &Reply) -> Vec<u8> {
        let start = std::time::Instant::now();
        let bytes = encode_reply(surface, reply);
        self.handle
            .metrics()
            .observe(Stage::WireEncode, start.elapsed().as_micros() as u64);
        bytes
    }
}

fn bad_request(message: String) -> ServeError {
    ServeError {
        code: ErrorCode::BadRequest,
        message,
    }
}

/// Validates a hello against what this server speaks on the given
/// surface.
fn negotiate(version: u32, encoding: Encoding, surface: Encoding) -> Result<(), ServeError> {
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
    Ok(())
}

/// Executes a batch envelope under one trace id and pairs the
/// responses with their item ids for the reply.
fn run_batch<H: Dispatch>(handle: &H, batch: Batch, trace: u64) -> Vec<(Option<u64>, Response)> {
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

/// One reply as the bytes of the given surface: a JSON line with its
/// newline, or one frame, header and payload in a single buffer.
///
/// A frame honours the ceiling the server advertises in its hello ack:
/// a reply whose payload would exceed it (a batch of thousands of
/// transcript exports can get there legitimately) is downgraded to an
/// error reply instead. An oversized frame would leave the client
/// unable to trust the stream, and a > 4 GiB one would poison the u32
/// length field. The error is explicit that the commands *did* execute
/// and only their responses were discarded.
pub(crate) fn encode_reply(surface: Encoding, reply: &Reply) -> Vec<u8> {
    if surface == Encoding::Json {
        let mut line = reply.encode_line().into_bytes();
        line.push(b'\n');
        return line;
    }
    let mut buf = wire::encode_reply_after(vec![0; HEADER_LEN], reply);
    let len = buf.len() - HEADER_LEN;
    if len <= MAX_FRAME_BYTES {
        buf[..HEADER_LEN].copy_from_slice(&frame::header(len as u32));
        return buf;
    }
    let (Reply::HelloAck { id, .. } | Reply::Batch { id, .. } | Reply::Single { id, .. }) = reply;
    let fallback = Reply::Single {
        id: *id,
        response: Response::Error(bad_request(format!(
            "reply of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte frame ceiling; the \
             commands executed, but their responses were discarded — split the batch"
        ))),
    };
    encode_reply(surface, &fallback)
}
