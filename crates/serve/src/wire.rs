//! The compact tag-based binary codec for protocol v2 payloads.
//!
//! Each frame payload (see [`crate::frame`] for the outer framing) is
//! one [`Envelope`] or [`Reply`], encoded with four primitives:
//!
//! * unsigned integers as LEB128 varints (`session`, counts, ids);
//! * signed integers zig-zag folded, then varint;
//! * `f64` as its 8 IEEE-754 bytes, little-endian — p-values survive
//!   bit-exactly, no decimal detour;
//! * strings and transcripts as a varint byte length + UTF-8 bytes.
//!
//! Every composite value opens with a one-byte tag. The codec is
//! self-contained (no lengths besides string/collection counts), so a
//! decoder either consumes exactly the payload or reports the byte
//! offset where it lost the plot. Decoding is hardened the same way the
//! JSON parser is: filter nesting is depth-capped and batch item counts
//! honour [`MAX_BATCH_ITEMS`], so a hostile frame cannot blow the stack
//! or fan out unbounded work.
//!
//! This module holds the primitives, the envelopes and the recursive
//! policy / filter / value codecs. The per-message payloads are not
//! written here: `Writer::{command, response}` and
//! `Reader::{command, response}` are generated from the message table
//! in [`crate::proto`], where a new message is one row.

use crate::error::{ErrorCode, ServeError};
use crate::proto::{
    protocol_version, Batch, BatchItem, BatchMode, Encoding, Envelope, FilterSpec, PolicySpec,
    Reply, MAX_BATCH_ITEMS,
};
use aware_data::predicate::CmpOp;
use aware_data::value::Value;

/// Decoded-filter nesting ceiling, mirroring the JSON parser's.
const MAX_FILTER_DEPTH: usize = 128;

// Envelope tags.
const TAG_HELLO: u8 = 0x01;
const TAG_BATCH: u8 = 0x02;
const TAG_SINGLE: u8 = 0x03;

// Reply tags.
const TAG_HELLO_ACK: u8 = 0x81;
const TAG_BATCH_REPLY: u8 = 0x82;
const TAG_SINGLE_REPLY: u8 = 0x83;

/// Encodes a request envelope into one frame payload.
pub fn encode_envelope(envelope: &Envelope) -> Vec<u8> {
    let mut w = Writer::new();
    match envelope {
        Envelope::Hello {
            id,
            version,
            encoding,
            push,
        } => {
            w.u8(TAG_HELLO);
            w.opt_varint(*id);
            w.varint(*version as u64);
            w.u8(encoding_tag(*encoding));
            // Optional trailing capability byte — written only when set,
            // so a hello without it keeps its historical bytes. Push is
            // retired: every server declines the request.
            if *push {
                w.u8(1);
            }
        }
        Envelope::Batch { id, batch } => {
            w.u8(TAG_BATCH);
            w.opt_varint(*id);
            w.u8(match batch.mode {
                BatchMode::Continue => 0,
                BatchMode::FailFast => 1,
            });
            w.varint(batch.items.len() as u64);
            for item in &batch.items {
                w.opt_varint(item.id);
                w.command(&item.cmd);
            }
        }
        Envelope::Single { id, cmd } => {
            w.u8(TAG_SINGLE);
            w.opt_varint(*id);
            w.command(cmd);
        }
    }
    w.buf
}

/// Encodes a reply envelope into one frame payload.
pub fn encode_reply(reply: &Reply) -> Vec<u8> {
    encode_reply_after(Vec::new(), reply)
}

/// [`encode_reply`] appended to `prefix` — room for a frame header, so
/// a reply frame is built in one buffer.
pub(crate) fn encode_reply_after(prefix: Vec<u8>, reply: &Reply) -> Vec<u8> {
    let mut w = Writer { buf: prefix };
    match reply {
        Reply::HelloAck {
            id,
            version,
            encoding,
            max_frame,
            push,
        } => {
            w.u8(TAG_HELLO_ACK);
            w.opt_varint(*id);
            w.varint(*version as u64);
            w.u8(encoding_tag(*encoding));
            w.varint(*max_frame);
            // Mirror of the hello capability byte: present only when
            // push was granted, which no server does any more.
            if *push {
                w.u8(1);
            }
        }
        Reply::Batch { id, items } => {
            w.u8(TAG_BATCH_REPLY);
            w.opt_varint(*id);
            w.varint(items.len() as u64);
            for (item_id, response) in items {
                w.opt_varint(*item_id);
                w.response(response);
            }
        }
        Reply::Single { id, response } => {
            w.u8(TAG_SINGLE_REPLY);
            w.opt_varint(*id);
            w.response(response);
        }
    }
    w.buf
}

/// Decodes one frame payload as a request envelope.
pub fn decode_envelope(payload: &[u8]) -> Result<Envelope, ServeError> {
    let mut r = Reader::new(payload);
    let envelope = match r.u8("envelope tag")? {
        TAG_HELLO => {
            let id = r.opt_varint("hello id")?;
            let version = r.varint("hello version")?;
            let encoding = r.encoding()?;
            // Lenient capability decode: the push byte is optional and
            // trailing, so hellos from pre-push clients (which simply
            // end here) parse exactly as before.
            let push = if r.has_more() {
                r.u8("hello push capability")? != 0
            } else {
                false
            };
            Envelope::Hello {
                id,
                version: protocol_version(version),
                encoding,
                push,
            }
        }
        TAG_BATCH => {
            let id = r.opt_varint("batch id")?;
            let mode = match r.u8("batch mode")? {
                0 => BatchMode::Continue,
                1 => BatchMode::FailFast,
                other => return Err(r.bad(format!("unknown batch mode {other}"))),
            };
            let count = r.varint("batch item count")? as usize;
            if count > MAX_BATCH_ITEMS {
                return Err(ServeError::invalid(format!(
                    "batch of {count} items exceeds the {MAX_BATCH_ITEMS}-item ceiling"
                )));
            }
            let mut items = Vec::with_capacity(count.min(1024));
            for _ in 0..count {
                let id = r.opt_varint("item id")?;
                let cmd = r.command()?;
                items.push(BatchItem { id, cmd });
            }
            Envelope::Batch {
                id,
                batch: Batch { mode, items },
            }
        }
        TAG_SINGLE => {
            let id = r.opt_varint("single id")?;
            let cmd = r.command()?;
            Envelope::Single { id, cmd }
        }
        other => return Err(r.bad(format!("unknown envelope tag 0x{other:02x}"))),
    };
    r.finish()?;
    Ok(envelope)
}

/// Decodes one frame payload as a reply envelope.
pub fn decode_reply(payload: &[u8]) -> Result<Reply, ServeError> {
    let mut r = Reader::new(payload);
    let reply = match r.u8("reply tag")? {
        TAG_HELLO_ACK => {
            let id = r.opt_varint("hello id")?;
            let version = r.varint("hello version")?;
            let encoding = r.encoding()?;
            let max_frame = r.varint("max_frame")?;
            let push = if r.has_more() {
                r.u8("hello ack push capability")? != 0
            } else {
                false
            };
            Reply::HelloAck {
                id,
                version: protocol_version(version),
                encoding,
                max_frame,
                push,
            }
        }
        TAG_BATCH_REPLY => {
            let id = r.opt_varint("batch id")?;
            let count = r.varint("response count")? as usize;
            if count > MAX_BATCH_ITEMS {
                return Err(ServeError::invalid(format!(
                    "batch reply of {count} items exceeds the {MAX_BATCH_ITEMS}-item ceiling"
                )));
            }
            let mut items = Vec::with_capacity(count.min(1024));
            for _ in 0..count {
                let item_id = r.opt_varint("item id")?;
                let response = r.response()?;
                items.push((item_id, response));
            }
            Reply::Batch { id, items }
        }
        TAG_SINGLE_REPLY => {
            let id = r.opt_varint("single id")?;
            let response = r.response()?;
            Reply::Single { id, response }
        }
        other => return Err(r.bad(format!("unknown reply tag 0x{other:02x}"))),
    };
    r.finish()?;
    Ok(reply)
}

fn encoding_tag(encoding: Encoding) -> u8 {
    match encoding {
        Encoding::Json => 0,
        Encoding::Binary => 1,
    }
}

fn cmp_op_tag(op: CmpOp) -> u8 {
    match op {
        CmpOp::Eq => 1,
        CmpOp::Neq => 2,
        CmpOp::Lt => 3,
        CmpOp::Le => 4,
        CmpOp::Gt => 5,
        CmpOp::Ge => 6,
    }
}

// -- writer -----------------------------------------------------------------

/// The tag-codec byte writer. `pub(crate)` so the session-snapshot
/// codec ([`crate::snapshot`]) reuses the exact same primitives (and
/// the policy/filter encoders below) instead of inventing a dialect.
pub(crate) struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub(crate) fn new() -> Writer {
        Writer { buf: Vec::new() }
    }

    /// The bytes written so far.
    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub(crate) fn u8(&mut self, b: u8) {
        self.buf.push(b);
    }

    pub(crate) fn varint(&mut self, mut n: u64) {
        loop {
            let byte = (n & 0x7f) as u8;
            n >>= 7;
            if n == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    pub(crate) fn zigzag(&mut self, n: i64) {
        self.varint(((n << 1) ^ (n >> 63)) as u64);
    }

    pub(crate) fn opt_varint(&mut self, n: Option<u64>) {
        match n {
            None => self.u8(0),
            Some(n) => {
                self.u8(1);
                self.varint(n);
            }
        }
    }

    pub(crate) fn f64(&mut self, x: f64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Fixed-width little-endian u64 (content fingerprints).
    pub(crate) fn raw_u64(&mut self, x: u64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    pub(crate) fn str(&mut self, s: &str) {
        self.varint(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Raw byte string: varint length + bytes (snapshot images).
    pub(crate) fn bytes(&mut self, b: &[u8]) {
        self.varint(b.len() as u64);
        self.buf.extend_from_slice(b);
    }

    pub(crate) fn value(&mut self, v: &Value) {
        match v {
            Value::Int(i) => {
                self.u8(0);
                self.zigzag(*i);
            }
            Value::Float(x) => {
                self.u8(1);
                self.f64(*x);
            }
            Value::Bool(b) => {
                self.u8(2);
                self.u8(*b as u8);
            }
            Value::Str(s) => {
                self.u8(3);
                self.str(s);
            }
        }
    }

    pub(crate) fn policy(&mut self, p: &PolicySpec) {
        match *p {
            PolicySpec::Fixed { gamma } => {
                self.u8(1);
                self.f64(gamma);
            }
            PolicySpec::Farsighted { beta } => {
                self.u8(2);
                self.f64(beta);
            }
            PolicySpec::Hopeful { delta } => {
                self.u8(3);
                self.f64(delta);
            }
            PolicySpec::EpsilonHybrid {
                gamma,
                delta,
                epsilon,
                window,
            } => {
                self.u8(4);
                self.f64(gamma);
                self.f64(delta);
                self.f64(epsilon);
                self.opt_varint(window.map(|w| w as u64));
            }
            PolicySpec::PsiSupport { gamma, psi } => {
                self.u8(5);
                self.f64(gamma);
                self.f64(psi);
            }
        }
    }

    pub(crate) fn filter(&mut self, f: &FilterSpec) {
        match f {
            FilterSpec::True => self.u8(0),
            FilterSpec::Cmp { column, op, value } => {
                self.u8(cmp_op_tag(*op));
                self.str(column);
                self.value(value);
            }
            FilterSpec::In { column, values } => {
                self.u8(7);
                self.str(column);
                self.varint(values.len() as u64);
                for v in values {
                    self.value(v);
                }
            }
            FilterSpec::Between { column, lo, hi } => {
                self.u8(8);
                self.str(column);
                self.f64(*lo);
                self.f64(*hi);
            }
            FilterSpec::Not(inner) => {
                self.u8(9);
                self.filter(inner);
            }
            FilterSpec::And(parts) => {
                self.u8(10);
                self.varint(parts.len() as u64);
                for p in parts {
                    self.filter(p);
                }
            }
            FilterSpec::Or(parts) => {
                self.u8(11);
                self.varint(parts.len() as u64);
                for p in parts {
                    self.filter(p);
                }
            }
        }
    }
}

// -- reader -----------------------------------------------------------------

pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    pub(crate) fn bad(&self, message: impl Into<String>) -> ServeError {
        ServeError {
            code: ErrorCode::BadRequest,
            message: format!("binary payload at byte {}: {}", self.pos, message.into()),
        }
    }

    /// Whether any undecoded bytes remain — used for optional trailing
    /// capability bytes (the hello `push` flag) that must stay lenient.
    pub(crate) fn has_more(&self) -> bool {
        self.pos < self.bytes.len()
    }

    pub(crate) fn finish(&self) -> Result<(), ServeError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(self.bad(format!(
                "{} trailing bytes after the message",
                self.bytes.len() - self.pos
            )))
        }
    }

    pub(crate) fn u8(&mut self, what: &str) -> Result<u8, ServeError> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| self.bad(format!("truncated payload reading {what}")))?;
        self.pos += 1;
        Ok(b)
    }

    pub(crate) fn varint(&mut self, what: &str) -> Result<u64, ServeError> {
        let mut out: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.u8(what)?;
            if shift == 63 && byte > 1 {
                return Err(self.bad(format!("varint overflow reading {what}")));
            }
            out |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(out);
            }
            shift += 7;
            if shift > 63 {
                return Err(self.bad(format!("varint longer than 10 bytes reading {what}")));
            }
        }
    }

    pub(crate) fn zigzag(&mut self, what: &str) -> Result<i64, ServeError> {
        let n = self.varint(what)?;
        Ok((n >> 1) as i64 ^ -((n & 1) as i64))
    }

    pub(crate) fn opt_varint(&mut self, what: &str) -> Result<Option<u64>, ServeError> {
        match self.u8(what)? {
            0 => Ok(None),
            1 => Ok(Some(self.varint(what)?)),
            other => Err(self.bad(format!("bad optional flag {other} for {what}"))),
        }
    }

    pub(crate) fn f64(&mut self, what: &str) -> Result<f64, ServeError> {
        Ok(f64::from_le_bytes(self.raw8(what)?))
    }

    /// Fixed-width little-endian u64 (content fingerprints — uniformly
    /// distributed, so a varint would only pad them).
    pub(crate) fn u64_le(&mut self, what: &str) -> Result<u64, ServeError> {
        Ok(u64::from_le_bytes(self.raw8(what)?))
    }

    fn raw8(&mut self, what: &str) -> Result<[u8; 8], ServeError> {
        if self.pos + 8 > self.bytes.len() {
            return Err(self.bad(format!("truncated payload reading {what}")));
        }
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&self.bytes[self.pos..self.pos + 8]);
        self.pos += 8;
        Ok(raw)
    }

    pub(crate) fn str(&mut self, what: &str) -> Result<String, ServeError> {
        let len = self.varint(what)? as usize;
        // Compare against the remainder, never `pos + len` — a hostile
        // length near u64::MAX must be an error, not an overflow.
        if len > self.bytes.len() - self.pos {
            return Err(self.bad(format!("string length {len} overruns payload in {what}")));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + len])
            .map_err(|_| self.bad(format!("invalid UTF-8 in {what}")))?
            .to_string();
        self.pos += len;
        Ok(s)
    }

    /// Raw byte string: varint length + bytes. Same hostile-length
    /// hardening as [`Reader::str`], minus the UTF-8 requirement.
    pub(crate) fn byte_string(&mut self, what: &str) -> Result<Vec<u8>, ServeError> {
        let len = self.varint(what)? as usize;
        if len > self.bytes.len() - self.pos {
            return Err(self.bad(format!(
                "byte string length {len} overruns payload in {what}"
            )));
        }
        let out = self.bytes[self.pos..self.pos + len].to_vec();
        self.pos += len;
        Ok(out)
    }

    fn encoding(&mut self) -> Result<Encoding, ServeError> {
        match self.u8("encoding")? {
            0 => Ok(Encoding::Json),
            1 => Ok(Encoding::Binary),
            other => Err(self.bad(format!("unknown encoding tag {other}"))),
        }
    }

    pub(crate) fn value(&mut self) -> Result<Value, ServeError> {
        Ok(match self.u8("value tag")? {
            0 => Value::Int(self.zigzag("int value")?),
            1 => Value::Float(self.f64("float value")?),
            2 => Value::Bool(self.u8("bool value")? != 0),
            3 => Value::Str(self.str("string value")?),
            other => return Err(self.bad(format!("unknown value tag {other}"))),
        })
    }

    pub(crate) fn policy(&mut self) -> Result<PolicySpec, ServeError> {
        Ok(match self.u8("policy tag")? {
            1 => PolicySpec::Fixed {
                gamma: self.f64("gamma")?,
            },
            2 => PolicySpec::Farsighted {
                beta: self.f64("beta")?,
            },
            3 => PolicySpec::Hopeful {
                delta: self.f64("delta")?,
            },
            4 => PolicySpec::EpsilonHybrid {
                gamma: self.f64("gamma")?,
                delta: self.f64("delta")?,
                epsilon: self.f64("epsilon")?,
                window: self.opt_varint("window")?.map(|w| w as usize),
            },
            5 => PolicySpec::PsiSupport {
                gamma: self.f64("gamma")?,
                psi: self.f64("psi")?,
            },
            other => return Err(self.bad(format!("unknown policy tag {other}"))),
        })
    }

    pub(crate) fn filter(&mut self, depth: usize) -> Result<FilterSpec, ServeError> {
        if depth > MAX_FILTER_DEPTH {
            return Err(self.bad(format!(
                "filter nesting deeper than {MAX_FILTER_DEPTH} levels"
            )));
        }
        let tag = self.u8("filter tag")?;
        Ok(match tag {
            0 => FilterSpec::True,
            1..=6 => {
                let op = match tag {
                    1 => CmpOp::Eq,
                    2 => CmpOp::Neq,
                    3 => CmpOp::Lt,
                    4 => CmpOp::Le,
                    5 => CmpOp::Gt,
                    _ => CmpOp::Ge,
                };
                FilterSpec::Cmp {
                    column: self.str("filter column")?,
                    op,
                    value: self.value()?,
                }
            }
            7 => {
                let column = self.str("filter column")?;
                let count = self.varint("in-list count")? as usize;
                let mut values = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    values.push(self.value()?);
                }
                FilterSpec::In { column, values }
            }
            8 => FilterSpec::Between {
                column: self.str("filter column")?,
                lo: self.f64("between lo")?,
                hi: self.f64("between hi")?,
            },
            9 => FilterSpec::Not(Box::new(self.filter(depth + 1)?)),
            10 | 11 => {
                let count = self.varint("junction arity")? as usize;
                let mut parts = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    parts.push(self.filter(depth + 1)?);
                }
                if tag == 10 {
                    FilterSpec::And(parts)
                } else {
                    FilterSpec::Or(parts)
                }
            }
            other => return Err(self.bad(format!("unknown filter tag {other}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{
        Command, HypothesisReport, PushEvent, Response, Stat, StatsSnapshot, TranscriptFormat,
    };

    fn round_trip_envelope(envelope: Envelope) {
        let bytes = encode_envelope(&envelope);
        assert_eq!(decode_envelope(&bytes).unwrap(), envelope);
    }

    fn round_trip_reply(reply: Reply) {
        let bytes = encode_reply(&reply);
        assert_eq!(decode_reply(&bytes).unwrap(), reply);
    }

    #[test]
    fn envelopes_round_trip() {
        round_trip_envelope(Envelope::Hello {
            id: Some(1),
            version: 2,
            encoding: Encoding::Binary,
            push: false,
        });
        round_trip_envelope(Envelope::Hello {
            id: Some(2),
            version: 3,
            encoding: Encoding::Binary,
            push: true,
        });
        round_trip_envelope(Envelope::Single {
            id: None,
            cmd: Command::Stats,
        });
        round_trip_envelope(Envelope::Batch {
            id: Some(9),
            batch: Batch {
                mode: BatchMode::FailFast,
                items: vec![
                    BatchItem {
                        id: Some(0),
                        cmd: Command::CreateSession {
                            dataset: "census".into(),
                            alpha: 0.05,
                            policy: PolicySpec::EpsilonHybrid {
                                gamma: 10.0,
                                delta: 5.0,
                                epsilon: 0.5,
                                window: Some(8),
                            },
                        },
                    },
                    BatchItem {
                        id: None,
                        cmd: Command::AddVisualization {
                            session: u64::MAX,
                            attribute: "edu".into(),
                            filter: FilterSpec::And(vec![
                                FilterSpec::Cmp {
                                    column: "age".into(),
                                    op: CmpOp::Ge,
                                    value: Value::Int(-40),
                                },
                                FilterSpec::Not(Box::new(FilterSpec::In {
                                    column: "race".into(),
                                    values: vec![Value::Str("é😀".into()), Value::Bool(true)],
                                })),
                                FilterSpec::Between {
                                    column: "hours".into(),
                                    lo: 1.5,
                                    hi: 60.0,
                                },
                                FilterSpec::Or(vec![FilterSpec::True]),
                            ]),
                        },
                    },
                    BatchItem {
                        id: Some(u64::MAX),
                        cmd: Command::Transcript {
                            session: 3,
                            format: TranscriptFormat::Text,
                        },
                    },
                ],
            },
        });
    }

    #[test]
    fn replies_round_trip() {
        round_trip_reply(Reply::HelloAck {
            id: None,
            version: 2,
            encoding: Encoding::Binary,
            max_frame: 8 << 20,
            push: false,
        });
        round_trip_reply(Reply::HelloAck {
            id: Some(7),
            version: 3,
            encoding: Encoding::Binary,
            max_frame: 8 << 20,
            push: true,
        });
        round_trip_reply(Reply::Single {
            id: Some(0),
            response: Response::Push(PushEvent::SessionEvicted {
                session: 7,
                reason: "idle".into(),
            }),
        });
        round_trip_reply(Reply::Single {
            id: Some(0),
            response: Response::Push(PushEvent::CacheReset {
                dataset: "census".into(),
            }),
        });
        round_trip_reply(Reply::Batch {
            id: Some(4),
            items: vec![
                (
                    Some(0),
                    Response::VizAdded {
                        session: 1,
                        viz: 2,
                        wealth: 0.0475,
                        hypothesis: Some(HypothesisReport {
                            id: 0,
                            test: "chi-square".into(),
                            statistic: 223.4,
                            p_value: 4.9e-324, // bit-exactness at the subnormal edge
                            bid: 0.004,
                            rejected: true,
                            effect_size: 0.21,
                            support_fraction: 1.0,
                            wealth_after: 0.09,
                        }),
                    },
                ),
                (
                    None,
                    Response::Error(ServeError {
                        code: ErrorCode::Aborted,
                        message: "skipped".into(),
                    }),
                ),
                (
                    Some(2),
                    Response::Stats(Box::new(StatsSnapshot {
                        batches: 3,
                        batch_size_hist: [1, 0, 2, 0, 9],
                        ..Default::default()
                    })),
                ),
            ],
        });
        round_trip_reply(Reply::Single {
            id: Some(7),
            response: Response::GaugeText {
                session: 0,
                text: "┌─ AWARE risk gauge ─┐".into(),
            },
        });
    }

    #[test]
    fn cluster_commands_and_replies_round_trip() {
        round_trip_envelope(Envelope::Single {
            id: Some(1),
            cmd: Command::CreateSessionAs {
                session: 9_000,
                dataset: "census".into(),
                alpha: 0.05,
                policy: PolicySpec::Fixed { gamma: 10.0 },
            },
        });
        round_trip_envelope(Envelope::Single {
            id: None,
            cmd: Command::ExportSession { session: 7 },
        });
        round_trip_envelope(Envelope::Single {
            id: Some(2),
            cmd: Command::ImportSession {
                session: 7,
                image: vec![0x41, 0x57, 0x52, 0x53, 0x02, 0x00, 0xff],
            },
        });
        round_trip_envelope(Envelope::Single {
            id: Some(3),
            cmd: Command::ListDatasets,
        });
        round_trip_envelope(Envelope::Single {
            id: Some(4),
            cmd: Command::JoinShard {
                addr: "127.0.0.1:7879".into(),
            },
        });
        round_trip_envelope(Envelope::Single {
            id: Some(5),
            cmd: Command::LeaveShard {
                addr: "127.0.0.1:7879".into(),
            },
        });
        round_trip_reply(Reply::Single {
            id: Some(1),
            response: Response::SessionExported {
                session: 7,
                image: (0..=255u8).collect(),
            },
        });
        round_trip_reply(Reply::Single {
            id: Some(2),
            response: Response::SessionImported {
                session: 7,
                wealth: 0.0475,
            },
        });
        round_trip_reply(Reply::Single {
            id: Some(3),
            response: Response::Datasets {
                datasets: vec![
                    crate::proto::DatasetInfo {
                        name: "census".into(),
                        rows: 20_000,
                        fingerprint: u64::MAX,
                    },
                    crate::proto::DatasetInfo {
                        name: "retail".into(),
                        rows: 3,
                        fingerprint: 0,
                    },
                ],
                next_session: 42,
            },
        });
        round_trip_reply(Reply::Single {
            id: Some(4),
            response: Response::Rebalanced {
                addr: "127.0.0.1:7879".into(),
                joined: true,
                migrated: 12,
            },
        });
        // The router's stats counters ride the scalar list bit-exactly.
        round_trip_reply(Reply::Single {
            id: Some(5),
            response: Response::Stats(Box::new(StatsSnapshot {
                forwarded: u64::MAX,
                migrations: 3,
                shard_errors: 1,
                uptime_seconds: 86_400,
                latency_p50_us: 120,
                latency_p90_us: 900,
                latency_p99_us: 4_500,
                latency_p999_us: 21_000,
                slow_queries: 2,
                replicas_live: 14,
                replication_lag_max_epochs: 2,
                promotions: 1,
                hedged_reads: 4_096,
                ..Default::default()
            })),
        });
    }

    #[test]
    fn replication_commands_and_replies_round_trip() {
        round_trip_envelope(Envelope::Single {
            id: Some(1),
            cmd: Command::ReplicateSession {
                session: 7,
                epoch: 300,
                image: vec![0x41, 0x57, 0x52, 0x53, 0x02, 0x00, 0xff],
            },
        });
        round_trip_envelope(Envelope::Single {
            id: Some(2),
            cmd: Command::PromoteReplica { session: 7 },
        });
        round_trip_envelope(Envelope::Single {
            id: None,
            cmd: Command::DropReplica { session: 7 },
        });
        round_trip_envelope(Envelope::Single {
            id: Some(3),
            cmd: Command::SnapshotSession { session: 7 },
        });
        round_trip_envelope(Envelope::Single {
            id: Some(4),
            cmd: Command::ListSessions,
        });
        round_trip_envelope(Envelope::Single {
            id: Some(5),
            cmd: Command::Gossip {
                from: "127.0.0.1:7878".into(),
                generation: 12,
                members: vec![
                    crate::proto::MemberInfo {
                        addr: "127.0.0.1:7001".into(),
                        status: crate::proto::MemberStatus::Alive,
                        incarnation: 3,
                    },
                    crate::proto::MemberInfo {
                        addr: "127.0.0.1:7002".into(),
                        status: crate::proto::MemberStatus::Dead,
                        incarnation: u64::MAX,
                    },
                ],
            },
        });
        round_trip_reply(Reply::Single {
            id: Some(1),
            response: Response::SessionReplicated {
                session: 7,
                epoch: 300,
            },
        });
        round_trip_reply(Reply::Single {
            id: Some(2),
            response: Response::ReplicaPromoted {
                session: 7,
                epoch: 300,
                wealth: 0.0375,
            },
        });
        round_trip_reply(Reply::Single {
            id: None,
            response: Response::ReplicaDropped { session: 7 },
        });
        round_trip_reply(Reply::Single {
            id: Some(3),
            response: Response::Sessions {
                sessions: vec![
                    crate::proto::SessionEntry {
                        session: 1,
                        replica: false,
                        epoch: 0,
                    },
                    crate::proto::SessionEntry {
                        session: 9,
                        replica: true,
                        epoch: u64::MAX,
                    },
                ],
            },
        });
        round_trip_reply(Reply::Single {
            id: Some(4),
            response: Response::GossipView {
                generation: 12,
                members: vec![crate::proto::MemberInfo {
                    addr: "127.0.0.1:7001".into(),
                    status: crate::proto::MemberStatus::Suspect,
                    incarnation: 0,
                }],
            },
        });
        // A hostile member status byte is rejected, not mapped.
        let mut w = Writer::new();
        w.u8(TAG_SINGLE_REPLY);
        w.opt_varint(None);
        w.u8(17); // Response::GossipView tag
        w.varint(0); // generation
        w.varint(1); // one member
        w.str("127.0.0.1:1");
        w.u8(7); // no such status
        w.varint(0);
        assert!(decode_reply(&w.buf).is_err());
    }

    #[test]
    fn stats_field_count_prefix_tolerates_older_and_newer_peers() {
        // Hand-build a Single(Stats) reply whose scalar-counter list is
        // shorter (older peer) or longer (newer peer) than this build's
        // `Stat::COUNT`: both must decode, defaulting the missing
        // counters and skipping the surplus.
        // 14 = a pre-persistence peer, 20 = a PR-5-era peer (cluster
        // counters but no observability scalars), 26 = a PR-6-era peer
        // (no replication scalars), 30 = a PR-7-era peer (no resilience
        // scalars), 33 = a PR-8-era peer (no reactor scalars), 40 = a
        // future peer with three counters we don't know yet.
        for count in [14usize, 20, 26, 30, 33, 40] {
            let mut w = Writer::new();
            w.u8(TAG_SINGLE_REPLY);
            w.opt_varint(Some(9));
            w.u8(7); // Response::Stats tag
            w.varint(count as u64);
            for i in 0..count {
                w.varint(100 + i as u64);
            }
            for i in 0..5u64 {
                w.varint(i);
            }
            let reply = decode_reply(&w.buf).unwrap();
            let Reply::Single {
                id: Some(9),
                response: Response::Stats(s),
            } = reply
            else {
                panic!("expected Single(Stats), got {reply:?}");
            };
            assert_eq!(s.sessions_created, 100);
            assert_eq!(s.binary_frames, 113);
            // Fields beyond the sender's count default to zero; fields
            // beyond ours are skipped.
            if count < 20 {
                assert_eq!(s.cache_hits, 0);
                assert_eq!(s.cache_misses, 0);
                assert_eq!(s.persisted, 0);
                assert_eq!(s.forwarded, 0);
                assert_eq!(s.shard_errors, 0);
            } else {
                assert_eq!(s.cache_hits, 114);
                assert_eq!(s.cache_misses, 115);
                assert_eq!(s.persisted, 116);
                assert_eq!(s.forwarded, 117);
                assert_eq!(s.migrations, 118);
                assert_eq!(s.shard_errors, 119);
            }
            if count < 26 {
                assert_eq!(s.uptime_seconds, 0);
                assert_eq!(s.latency_p999_us, 0);
                assert_eq!(s.slow_queries, 0);
            } else {
                assert_eq!(s.uptime_seconds, 120);
                assert_eq!(s.latency_p50_us, 121);
                assert_eq!(s.latency_p90_us, 122);
                assert_eq!(s.latency_p99_us, 123);
                assert_eq!(s.latency_p999_us, 124);
                assert_eq!(s.slow_queries, 125);
            }
            if count < 30 {
                assert_eq!(s.replicas_live, 0);
                assert_eq!(s.replication_lag_max_epochs, 0);
                assert_eq!(s.promotions, 0);
                assert_eq!(s.hedged_reads, 0);
            } else {
                assert_eq!(s.replicas_live, 126);
                assert_eq!(s.replication_lag_max_epochs, 127);
                assert_eq!(s.promotions, 128);
                assert_eq!(s.hedged_reads, 129);
            }
            if count < 33 {
                assert_eq!(s.shard_timeouts, 0);
                assert_eq!(s.breaker_opens, 0);
                assert_eq!(s.breaker_shed, 0);
            } else {
                assert_eq!(s.shard_timeouts, 130);
                assert_eq!(s.breaker_opens, 131);
                assert_eq!(s.breaker_shed, 132);
            }
            if count < Stat::COUNT {
                assert_eq!(s.reactor_connections, 0);
                assert_eq!(s.push_frames, 0);
                assert_eq!(s.drr_deferrals, 0);
            } else {
                assert_eq!(s.reactor_connections, 133);
                assert_eq!(s.reactor_wakeups, 134);
                assert_eq!(s.push_frames, 135);
                assert_eq!(s.drr_deferrals, 136);
            }
            assert_eq!(s.batch_size_hist, [0, 1, 2, 3, 4]);
        }
        // An absurd count is rejected before any allocation.
        let mut w = Writer::new();
        w.u8(TAG_SINGLE_REPLY);
        w.opt_varint(None);
        w.u8(7);
        w.varint(10_000);
        assert!(decode_reply(&w.buf).is_err());
    }

    #[test]
    fn truncations_are_rejected_at_every_prefix() {
        let bytes = encode_envelope(&Envelope::Batch {
            id: Some(3),
            batch: Batch {
                mode: BatchMode::Continue,
                items: vec![BatchItem {
                    id: Some(1),
                    cmd: Command::AddVisualization {
                        session: 300,
                        attribute: "sex".into(),
                        filter: FilterSpec::Between {
                            column: "age".into(),
                            lo: 18.0,
                            hi: 30.0,
                        },
                    },
                }],
            },
        });
        for cut in 0..bytes.len() {
            assert!(
                decode_envelope(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        // …and trailing garbage is rejected too.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode_envelope(&padded).is_err());
    }

    #[test]
    fn hostile_payloads_are_rejected() {
        // Unknown envelope tag.
        assert!(decode_envelope(&[0x7f]).is_err());
        // Unknown command tag inside a single.
        assert!(matches!(
            decode_envelope(&[TAG_SINGLE, 0, 99]),
            Err(e) if e.code == ErrorCode::UnknownCommand
        ));
        // Batch claiming more items than the ceiling.
        let mut bomb = vec![TAG_BATCH, 0, 0];
        let mut w = Writer::new();
        w.varint(MAX_BATCH_ITEMS as u64 + 1);
        bomb.extend_from_slice(&w.buf);
        assert!(matches!(
            decode_envelope(&bomb),
            Err(e) if e.code == ErrorCode::InvalidArgument
        ));
        // A deeply nested Not-chain must hit the depth ceiling, not the
        // stack guard: add_visualization with 100k Not tags.
        let mut deep = vec![TAG_SINGLE, 0, 2, 0];
        let mut w = Writer::new();
        w.str("sex");
        deep.extend_from_slice(&w.buf);
        deep.extend(std::iter::repeat_n(9u8, 100_000));
        deep.push(0);
        let err = decode_envelope(&deep).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        // Varint overflow (11 continuation bytes).
        let overflow = [
            TAG_SINGLE, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
        ];
        assert!(decode_envelope(&overflow).is_err());
        // A string claiming a near-u64::MAX length must be a clean
        // error, not an arithmetic overflow: create_session whose
        // dataset length varint is u64::MAX - 1.
        let mut huge = vec![TAG_SINGLE, 0, 1];
        let mut w = Writer::new();
        w.varint(u64::MAX - 1);
        huge.extend_from_slice(&w.buf);
        match decode_envelope(&huge) {
            Err(e) => assert!(e.message.contains("overruns"), "{e}"),
            Ok(v) => panic!("decoded {v:?}"),
        }
    }

    #[test]
    fn hello_versions_past_u32_clamp_on_both_surfaces() {
        let past = (1u64 << 32) + 3;
        let hello = Envelope::decode_line(&format!(
            "{{\"cmd\":\"hello\",\"version\":{past},\"encoding\":\"binary\"}}"
        ));
        assert!(matches!(
            hello,
            Ok(Envelope::Hello {
                version: u32::MAX,
                ..
            })
        ));
        let ack = Reply::decode_line(&format!(
            "{{\"ok\":true,\"hello\":{{\"version\":{past},\"encoding\":\"binary\",\"max_frame\":8}}}}"
        ));
        assert!(matches!(
            ack,
            Ok(Reply::HelloAck {
                version: u32::MAX,
                ..
            })
        ));

        let mut w = Writer::new();
        w.u8(TAG_HELLO);
        w.opt_varint(None);
        w.varint(past);
        w.u8(encoding_tag(Encoding::Binary));
        let hello = decode_envelope(&w.buf);
        assert!(matches!(
            hello,
            Ok(Envelope::Hello {
                version: u32::MAX,
                ..
            })
        ));
        let mut w = Writer::new();
        w.u8(TAG_HELLO_ACK);
        w.opt_varint(None);
        w.varint(past);
        w.u8(encoding_tag(Encoding::Binary));
        w.varint(8);
        let ack = decode_reply(&w.buf);
        assert!(matches!(
            ack,
            Ok(Reply::HelloAck {
                version: u32::MAX,
                ..
            })
        ));
    }

    #[test]
    fn readme_hex_example_is_accurate() {
        // The README's worked frame example must match the codec bytes.
        let payload = encode_envelope(&Envelope::Single {
            id: Some(5),
            cmd: Command::Gauge { session: 7 },
        });
        assert_eq!(payload, [0x03, 0x01, 0x05, 0x04, 0x07]);
        let mut framed = Vec::new();
        crate::frame::write_frame(&mut framed, &payload).unwrap();
        assert_eq!(
            framed,
            [0x41, 0x57, 0x52, 0x32, 0x02, 0, 0, 0, 5, 0x03, 0x01, 0x05, 0x04, 0x07]
        );
    }

    #[test]
    fn singles_are_compact() {
        // The envelope layer should cost bytes, not the payload: a gauge
        // command with an id fits in a handful of bytes.
        let bytes = encode_envelope(&Envelope::Single {
            id: Some(5),
            cmd: Command::Gauge { session: 7 },
        });
        assert!(bytes.len() <= 6, "{} bytes: {bytes:?}", bytes.len());
    }
}
