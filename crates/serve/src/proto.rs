//! The typed command/response protocol of the serving layer, and its
//! line-delimited JSON (NDJSON) wire encoding.
//!
//! ## v1: one command per line
//!
//! One request per line, one response per line, in order. Every request
//! object carries a `"cmd"` discriminator plus command-specific fields
//! and an optional client-chosen `"id"` echoed verbatim on the response;
//! responses carry `"ok"` plus either the payload or an `"error"`
//! object. The full grammar with one example per command lives in the
//! repository README.
//!
//! ## v2: versioned envelopes
//!
//! Protocol v2 wraps commands in an [`Envelope`]: a `hello` negotiation
//! message, a [`Batch`] carrying N ordered commands (with per-item ids
//! and a [`BatchMode`]), or a bare single command (every v1 request is
//! a valid v2 envelope). Replies mirror the shape as [`Reply`]. The
//! envelope layer is encoding-agnostic — the same types travel as JSON
//! lines (this module) or as length-prefixed binary frames
//! ([`crate::frame`] + [`crate::wire`]), negotiated per connection by
//! the hello handshake and auto-detected by first byte.
//!
//! Filters travel as a small predicate AST (`FilterSpec`) mirroring
//! `aware_data::predicate::Predicate`, and policies as a tagged
//! `PolicySpec` naming one of the paper's five investing rules.
//!
//! ## One message table
//!
//! Every command and response is declared once, as a row of the
//! `message_table!` invocation in this module: binary tag, wire name
//! (or, for a response, the JSON key that identifies it), fields. The
//! [`Command`] and [`Response`] enums, [`COMMAND_KINDS`], and both
//! surfaces' per-message codecs are generated from the rows; each field
//! type's codec is written once, behind the crate-private `Field` trait.
//! A new message is one row. The envelopes, the recursive filter codec
//! and the stats scalar list stay hand-written and serve as field
//! codecs.

use crate::error::{ErrorCode, ServeError};
use crate::json::Json;
use crate::wire::{Reader, Writer};
use aware_core::hypothesis::TestRecord;
use aware_data::predicate::{CmpOp, Predicate};
use aware_data::value::Value;
use aware_mht::investing::policies::{EpsilonHybrid, Farsighted, Fixed, Hopeful, SupportScaled};
use aware_mht::investing::InvestingPolicy;
use aware_obs::expose::{Decode, Kind, Merge, MetricDef};

/// Identifier of a live session, allocated by the service.
pub type SessionId = u64;

/// A boxed investing policy that can move between threads: a session's
/// commands run on whichever connection thread or reactor dispatcher
/// received them.
pub type BoxedPolicy = Box<dyn InvestingPolicy + Send>;

/// The protocol version spoken after a successful hello handshake.
/// Version 1 is the implicit NDJSON single-command surface and needs no
/// hello. Version 3 kept version 2's envelope/batch/framing design but
/// changed the binary `stats` payload (the scalar-counter list became
/// count-prefixed and gained `cache_hits`/`cache_misses`), so version-2
/// peers are refused at the handshake instead of mis-decoding stats.
pub const PROTOCOL_VERSION: u32 = 3;

/// Hard ceiling on items per batch envelope, enforced at decode time on
/// both encodings — a client cannot make one wire message fan out into
/// unbounded dispatch work.
pub const MAX_BATCH_ITEMS: usize = 4096;

/// Wire encoding of a connection, negotiated by the `hello` handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Encoding {
    /// Line-delimited JSON — the v1 surface and the debug default.
    #[default]
    Json,
    /// `AWR2` length-prefixed frames with the compact tag codec.
    Binary,
}

impl Encoding {
    pub fn as_str(self) -> &'static str {
        match self {
            Encoding::Json => "json",
            Encoding::Binary => "binary",
        }
    }

    pub fn parse(s: &str) -> Option<Encoding> {
        match s {
            "json" => Some(Encoding::Json),
            "binary" => Some(Encoding::Binary),
            _ => None,
        }
    }
}

/// How a batch reacts to a failing item.
///
/// Fail-fast honours the same boundary as the ordering guarantee: it
/// aborts the *same-session command stream* that failed (later items
/// addressed to that stream answer [`ErrorCode::Aborted`]), while items
/// for other sessions — which execute in parallel and share no
/// statistical state — still run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchMode {
    /// Every item executes; errors are reported per item.
    #[default]
    Continue,
    /// After an item errors, later same-session items are skipped.
    FailFast,
}

impl BatchMode {
    pub fn as_str(self) -> &'static str {
        match self {
            BatchMode::Continue => "continue",
            BatchMode::FailFast => "fail_fast",
        }
    }

    pub fn parse(s: &str) -> Option<BatchMode> {
        match s {
            "continue" => Some(BatchMode::Continue),
            "fail_fast" => Some(BatchMode::FailFast),
            _ => None,
        }
    }
}

/// One command inside a batch, with its client-chosen item id.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchItem {
    pub id: Option<u64>,
    pub cmd: Command,
}

/// An ordered batch of commands sharing one wire round trip.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    pub mode: BatchMode,
    pub items: Vec<BatchItem>,
}

/// A v2 request envelope: everything a client can put on the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum Envelope {
    /// Version/encoding negotiation. `push` is a retired request for
    /// server-push frames: it is still decoded leniently (an optional
    /// JSON field, an optional trailing binary byte) so hellos from
    /// clients that set it keep working, and every server declines it
    /// in its ack. [`crate::tcp::Client`] never sets it.
    Hello {
        id: Option<u64>,
        version: u32,
        encoding: Encoding,
        push: bool,
    },
    /// N ordered commands, one round trip.
    Batch { id: Option<u64>, batch: Batch },
    /// A bare v1 command (every v1 request is a valid envelope).
    Single { id: Option<u64>, cmd: Command },
}

/// A v2 reply envelope, mirroring [`Envelope`].
// Stats responses carry the full snapshot inline; a Reply is built,
// encoded, and dropped on the spot, so the size gap never costs a copy.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Successful negotiation: the server's accepted version/encoding
    /// and its frame-size ceiling for the binary surface.
    HelloAck {
        id: Option<u64>,
        version: u32,
        encoding: Encoding,
        max_frame: u64,
        /// Whether the server granted server push. Always false: no
        /// front end pushes; the field stays for wire compatibility.
        push: bool,
    },
    /// Ordered responses, one per batch item, with item ids echoed.
    Batch {
        id: Option<u64>,
        items: Vec<(Option<u64>, Response)>,
    },
    /// A bare v1 response.
    Single { id: Option<u64>, response: Response },
}

impl Envelope {
    /// Encodes as one JSON request line.
    pub fn encode_line(&self) -> String {
        match self {
            Envelope::Hello {
                id,
                version,
                encoding,
                push,
            } => {
                let mut pairs = Vec::new();
                if let Some(id) = id {
                    pairs.push(("id", Json::Num(*id as f64)));
                }
                pairs.push(("cmd", Json::Str("hello".into())));
                pairs.push(("version", Json::Num(*version as f64)));
                pairs.push(("encoding", Json::Str(encoding.as_str().into())));
                // Emitted only when requested: a non-push hello stays
                // byte-identical to what older clients send.
                if *push {
                    pairs.push(("push", Json::Bool(true)));
                }
                Json::obj(pairs).to_string()
            }
            Envelope::Batch { id, batch } => {
                let mut pairs = Vec::new();
                if let Some(id) = id {
                    pairs.push(("id", Json::Num(*id as f64)));
                }
                pairs.push(("mode", Json::Str(batch.mode.as_str().into())));
                pairs.push((
                    "batch",
                    Json::Arr(
                        batch
                            .items
                            .iter()
                            .map(|item| id_first(item.cmd.to_json(), item.id))
                            .collect(),
                    ),
                ));
                Json::obj(pairs).to_string()
            }
            Envelope::Single { id, cmd } => cmd.encode_line(*id),
        }
    }

    /// Decodes a parsed request object into an envelope.
    pub fn from_json(v: &Json) -> Result<Envelope, ServeError> {
        let id = v.get("id").and_then(Json::as_u64);
        if let Some(items) = v.get("batch") {
            let items = items
                .as_arr()
                .ok_or_else(|| ServeError::invalid("'batch' must be an array of requests"))?;
            if items.len() > MAX_BATCH_ITEMS {
                return Err(ServeError::invalid(format!(
                    "batch of {} items exceeds the {MAX_BATCH_ITEMS}-item ceiling",
                    items.len()
                )));
            }
            let mode = match v.get("mode") {
                None => BatchMode::Continue,
                Some(m) => m.as_str().and_then(BatchMode::parse).ok_or_else(|| {
                    ServeError::invalid("'mode' must be \"continue\" or \"fail_fast\"")
                })?,
            };
            let items = items
                .iter()
                .map(|item| {
                    Ok(BatchItem {
                        id: item.get("id").and_then(Json::as_u64),
                        cmd: Command::from_json(item)?,
                    })
                })
                .collect::<Result<Vec<_>, ServeError>>()?;
            return Ok(Envelope::Batch {
                id,
                batch: Batch { mode, items },
            });
        }
        if v.get("cmd").and_then(Json::as_str) == Some("hello") {
            let version = req(v, "version", "hello")?;
            let encoding = match v.get("encoding") {
                None => Encoding::Json,
                Some(e) => e.as_str().and_then(Encoding::parse).ok_or_else(|| {
                    ServeError::invalid("hello 'encoding' must be \"json\" or \"binary\"")
                })?,
            };
            return Ok(Envelope::Hello {
                id,
                version: protocol_version(version),
                encoding,
                // Lenient: absent (or non-bool) means not requested, so
                // old clients keep decoding unchanged.
                push: lenient(v, "push", false),
            });
        }
        Ok(Envelope::Single {
            id,
            cmd: Command::from_json(v)?,
        })
    }

    /// Parses one request line into an envelope.
    pub fn decode_line(line: &str) -> Result<Envelope, ServeError> {
        Envelope::from_json(&parse_line(line)?)
    }
}

impl Reply {
    /// Encodes as one JSON response line.
    pub fn encode_line(&self) -> String {
        match self {
            Reply::HelloAck {
                id,
                version,
                encoding,
                max_frame,
                push,
            } => {
                let mut pairs = Vec::new();
                if let Some(id) = id {
                    pairs.push(("id", Json::Num(*id as f64)));
                }
                pairs.push(("ok", Json::Bool(true)));
                let mut hello = vec![
                    ("version", Json::Num(*version as f64)),
                    ("encoding", Json::Str(encoding.as_str().into())),
                    ("max_frame", Json::Num(*max_frame as f64)),
                ];
                if *push {
                    hello.push(("push", Json::Bool(true)));
                }
                pairs.push(("hello", Json::obj(hello)));
                Json::obj(pairs).to_string()
            }
            Reply::Batch { id, items } => {
                let mut pairs = Vec::new();
                if let Some(id) = id {
                    pairs.push(("id", Json::Num(*id as f64)));
                }
                pairs.push(("ok", Json::Bool(true)));
                pairs.push((
                    "responses",
                    Json::Arr(
                        items
                            .iter()
                            .map(|(id, response)| id_first(response.to_json(), *id))
                            .collect(),
                    ),
                ));
                Json::obj(pairs).to_string()
            }
            Reply::Single { id, response } => response.encode_line(*id),
        }
    }

    /// Decodes a parsed response object into a reply envelope.
    pub fn from_json(v: &Json) -> Result<Reply, ServeError> {
        let id = v.get("id").and_then(Json::as_u64);
        if let Some(hello) = v.get("hello") {
            return Ok(Reply::HelloAck {
                id,
                version: protocol_version(req(hello, "version", "hello")?),
                encoding: Encoding::parse(req_str(hello, "encoding", "hello")?)
                    .ok_or_else(|| ServeError::invalid("unknown hello encoding"))?,
                max_frame: req(hello, "max_frame", "hello")?,
                push: lenient(hello, "push", false),
            });
        }
        if let Some(items) = v.get("responses") {
            let items = items
                .as_arr()
                .ok_or_else(|| ServeError::invalid("'responses' must be an array"))?
                .iter()
                .map(|item| {
                    Ok((
                        item.get("id").and_then(Json::as_u64),
                        Response::from_json(item)?,
                    ))
                })
                .collect::<Result<Vec<_>, ServeError>>()?;
            return Ok(Reply::Batch { id, items });
        }
        Ok(Reply::Single {
            id,
            response: Response::from_json(v)?,
        })
    }

    /// Parses one response line into a reply envelope.
    pub fn decode_line(line: &str) -> Result<Reply, ServeError> {
        Reply::from_json(&parse_line(line)?)
    }
}

/// A decoded protocol version, shared by all four hello decoders.
/// Anything past `u32::MAX` reads as `u32::MAX`, which no server
/// speaks, so negotiation refuses it instead of wrapping it onto a
/// version that exists.
pub(crate) fn protocol_version(n: u64) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}

/// Which transcript rendering the client wants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TranscriptFormat {
    /// The stable CSV audit log.
    Csv,
    /// The human-readable text report (summary + gauge).
    Text,
}

impl TranscriptFormat {
    pub fn as_str(self) -> &'static str {
        match self {
            TranscriptFormat::Csv => "csv",
            TranscriptFormat::Text => "text",
        }
    }
}

/// One of the paper's five α-investing rules, by wire name.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicySpec {
    /// γ-fixed: bid wealth/γ.
    Fixed { gamma: f64 },
    /// β-farsighted: bid a β-fraction of the affordable maximum.
    Farsighted { beta: f64 },
    /// δ-hopeful: re-invest the wealth held at the last rejection.
    Hopeful { delta: f64 },
    /// ε-hybrid of γ-fixed and δ-hopeful.
    EpsilonHybrid {
        gamma: f64,
        delta: f64,
        epsilon: f64,
        window: Option<usize>,
    },
    /// ψ-support–scaled γ-fixed.
    PsiSupport { gamma: f64, psi: f64 },
}

impl PolicySpec {
    /// Instantiates the policy (validating its parameters).
    pub fn build(&self) -> Result<BoxedPolicy, ServeError> {
        let invalid = |e: aware_mht::MhtError| ServeError {
            code: ErrorCode::InvalidArgument,
            message: format!("invalid policy parameters: {e}"),
        };
        Ok(match *self {
            PolicySpec::Fixed { gamma } => Box::new(Fixed::new(gamma)),
            PolicySpec::Farsighted { beta } => Box::new(Farsighted::new(beta).map_err(invalid)?),
            PolicySpec::Hopeful { delta } => Box::new(Hopeful::new(delta)),
            PolicySpec::EpsilonHybrid {
                gamma,
                delta,
                epsilon,
                window,
            } => Box::new(EpsilonHybrid::new(gamma, delta, epsilon, window).map_err(invalid)?),
            PolicySpec::PsiSupport { gamma, psi } => {
                Box::new(SupportScaled::new(Fixed::new(gamma), psi).map_err(invalid)?)
            }
        })
    }
}

impl Field for PolicySpec {
    fn to_json(&self) -> Json {
        match *self {
            PolicySpec::Fixed { gamma } => Json::obj(vec![
                ("kind", Json::Str("fixed".into())),
                ("gamma", Json::Num(gamma)),
            ]),
            PolicySpec::Farsighted { beta } => Json::obj(vec![
                ("kind", Json::Str("farsighted".into())),
                ("beta", Json::Num(beta)),
            ]),
            PolicySpec::Hopeful { delta } => Json::obj(vec![
                ("kind", Json::Str("hopeful".into())),
                ("delta", Json::Num(delta)),
            ]),
            PolicySpec::EpsilonHybrid {
                gamma,
                delta,
                epsilon,
                window,
            } => {
                let mut pairs = vec![
                    ("kind", Json::Str("epsilon_hybrid".into())),
                    ("gamma", Json::Num(gamma)),
                    ("delta", Json::Num(delta)),
                    ("epsilon", Json::Num(epsilon)),
                ];
                if let Some(w) = window {
                    pairs.push(("window", Json::Num(w as f64)));
                }
                Json::obj(pairs)
            }
            PolicySpec::PsiSupport { gamma, psi } => Json::obj(vec![
                ("kind", Json::Str("psi_support".into())),
                ("gamma", Json::Num(gamma)),
                ("psi", Json::Num(psi)),
            ]),
        }
    }

    fn from_json(v: Option<&Json>, key: &str, _: &str) -> Result<Self, ServeError> {
        let v = v.ok_or_else(|| absent(key))?;
        let kind = req_str(v, "kind", "policy")?;
        let num = |field: &str| req(v, field, "policy");
        Ok(match kind {
            "fixed" => PolicySpec::Fixed {
                gamma: num("gamma")?,
            },
            "farsighted" => PolicySpec::Farsighted { beta: num("beta")? },
            "hopeful" => PolicySpec::Hopeful {
                delta: num("delta")?,
            },
            "epsilon_hybrid" => PolicySpec::EpsilonHybrid {
                gamma: num("gamma")?,
                delta: num("delta")?,
                epsilon: num("epsilon")?,
                window: match v.get("window") {
                    None => None,
                    Some(Json::Null) => None,
                    Some(w) => Some(w.as_u64().ok_or_else(|| {
                        ServeError::invalid("policy.window must be a non-negative integer")
                    })? as usize),
                },
            },
            "psi_support" => PolicySpec::PsiSupport {
                gamma: num("gamma")?,
                psi: num("psi")?,
            },
            other => {
                return Err(ServeError::invalid(format!(
                    "unknown policy kind '{other}' (expected fixed | farsighted | hopeful | \
                     epsilon_hybrid | psi_support)"
                )))
            }
        })
    }

    fn write(&self, w: &mut Writer) {
        w.policy(self);
    }

    fn read(r: &mut Reader, _: &str) -> Result<Self, ServeError> {
        r.policy()
    }
}

/// Wire-level predicate AST.
#[derive(Debug, Clone, PartialEq)]
pub enum FilterSpec {
    True,
    Cmp {
        column: String,
        op: CmpOp,
        value: Value,
    },
    In {
        column: String,
        values: Vec<Value>,
    },
    Between {
        column: String,
        lo: f64,
        hi: f64,
    },
    Not(Box<FilterSpec>),
    And(Vec<FilterSpec>),
    Or(Vec<FilterSpec>),
}

fn cmp_op_name(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Eq => "eq",
        CmpOp::Neq => "neq",
        CmpOp::Lt => "lt",
        CmpOp::Le => "le",
        CmpOp::Gt => "gt",
        CmpOp::Ge => "ge",
    }
}

fn cmp_op_parse(name: &str) -> Option<CmpOp> {
    Some(match name {
        "eq" => CmpOp::Eq,
        "neq" => CmpOp::Neq,
        "lt" => CmpOp::Lt,
        "le" => CmpOp::Le,
        "gt" => CmpOp::Gt,
        "ge" => CmpOp::Ge,
        _ => return None,
    })
}

fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Int(i) => Json::Num(*i as f64),
        Value::Float(x) => Json::Num(*x),
        Value::Bool(b) => Json::Bool(*b),
        Value::Str(s) => Json::Str(s.clone()),
    }
}

fn value_from_json(v: &Json) -> Result<Value, ServeError> {
    Ok(match v {
        Json::Bool(b) => Value::Bool(*b),
        Json::Str(s) => Value::Str(s.clone()),
        // Integral JSON numbers become Int (categorical/integer columns
        // compare by exact value); anything fractional stays Float.
        Json::Num(n) if n.fract() == 0.0 && n.abs() <= i64::MAX as f64 => Value::Int(*n as i64),
        Json::Num(n) => Value::Float(*n),
        _ => return Err(ServeError::invalid("filter value must be a scalar")),
    })
}

impl FilterSpec {
    /// Converts an engine predicate back into the wire AST — the exact
    /// inverse of `FilterSpec::into_predicate` (both ASTs mirror each
    /// other node for node). The snapshot codec leans on this so
    /// persisted sessions reuse the hardened wire filter codec instead
    /// of growing a second predicate serializer.
    pub fn from_predicate(p: &Predicate) -> FilterSpec {
        match p {
            Predicate::True => FilterSpec::True,
            Predicate::Cmp { column, op, value } => FilterSpec::Cmp {
                column: column.clone(),
                op: *op,
                value: value.clone(),
            },
            Predicate::In { column, values } => FilterSpec::In {
                column: column.clone(),
                values: values.clone(),
            },
            Predicate::Between { column, lo, hi } => FilterSpec::Between {
                column: column.clone(),
                lo: *lo,
                hi: *hi,
            },
            Predicate::Not(inner) => FilterSpec::Not(Box::new(FilterSpec::from_predicate(inner))),
            Predicate::And(parts) => {
                FilterSpec::And(parts.iter().map(FilterSpec::from_predicate).collect())
            }
            Predicate::Or(parts) => {
                FilterSpec::Or(parts.iter().map(FilterSpec::from_predicate).collect())
            }
        }
    }

    /// Converts to the engine predicate.
    pub fn to_predicate(&self) -> Predicate {
        self.clone().into_predicate()
    }

    /// Converts to the engine predicate by move: the tree's strings and
    /// values are reused, none is copied.
    pub(crate) fn into_predicate(self) -> Predicate {
        match self {
            FilterSpec::True => Predicate::True,
            FilterSpec::Cmp { column, op, value } => Predicate::Cmp { column, op, value },
            FilterSpec::In { column, values } => Predicate::In { column, values },
            FilterSpec::Between { column, lo, hi } => Predicate::Between { column, lo, hi },
            FilterSpec::Not(inner) => Predicate::Not(Box::new(inner.into_predicate())),
            FilterSpec::And(parts) => {
                Predicate::And(parts.into_iter().map(FilterSpec::into_predicate).collect())
            }
            FilterSpec::Or(parts) => {
                Predicate::Or(parts.into_iter().map(FilterSpec::into_predicate).collect())
            }
        }
    }
}

impl Field for FilterSpec {
    fn to_json(&self) -> Json {
        match self {
            FilterSpec::True => Json::obj(vec![("op", Json::Str("true".into()))]),
            FilterSpec::Cmp { column, op, value } => Json::obj(vec![
                ("op", Json::Str(cmp_op_name(*op).into())),
                ("column", Json::Str(column.clone())),
                ("value", value_to_json(value)),
            ]),
            FilterSpec::In { column, values } => Json::obj(vec![
                ("op", Json::Str("in".into())),
                ("column", Json::Str(column.clone())),
                (
                    "values",
                    Json::Arr(values.iter().map(value_to_json).collect()),
                ),
            ]),
            FilterSpec::Between { column, lo, hi } => Json::obj(vec![
                ("op", Json::Str("between".into())),
                ("column", Json::Str(column.clone())),
                ("lo", Json::Num(*lo)),
                ("hi", Json::Num(*hi)),
            ]),
            FilterSpec::Not(inner) => Json::obj(vec![
                ("op", Json::Str("not".into())),
                ("arg", inner.to_json()),
            ]),
            FilterSpec::And(parts) => Json::obj(vec![
                ("op", Json::Str("and".into())),
                (
                    "args",
                    Json::Arr(parts.iter().map(FilterSpec::to_json).collect()),
                ),
            ]),
            FilterSpec::Or(parts) => Json::obj(vec![
                ("op", Json::Str("or".into())),
                (
                    "args",
                    Json::Arr(parts.iter().map(FilterSpec::to_json).collect()),
                ),
            ]),
        }
    }

    fn from_json(v: Option<&Json>, key: &str, _: &str) -> Result<Self, ServeError> {
        let v = v.ok_or_else(|| absent(key))?;
        let op = req_str(v, "op", "filter")?;
        if let Some(cmp) = cmp_op_parse(op) {
            return Ok(FilterSpec::Cmp {
                column: req(v, "column", "filter")?,
                op: cmp,
                value: value_from_json(
                    v.get("value")
                        .ok_or_else(|| ServeError::invalid("filter missing 'value'"))?,
                )?,
            });
        }
        Ok(match op {
            "true" => FilterSpec::True,
            "in" => FilterSpec::In {
                column: req(v, "column", "filter")?,
                values: v
                    .get("values")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| ServeError::invalid("filter 'in' needs a 'values' array"))?
                    .iter()
                    .map(value_from_json)
                    .collect::<Result<_, _>>()?,
            },
            "between" => FilterSpec::Between {
                column: req(v, "column", "filter")?,
                lo: req(v, "lo", "filter")?,
                hi: req(v, "hi", "filter")?,
            },
            "not" => {
                let arg = v
                    .get("arg")
                    .ok_or_else(|| ServeError::invalid("filter 'not' needs 'arg'"))?;
                FilterSpec::Not(Box::new(Self::from_json(Some(arg), "arg", "filter")?))
            }
            "and" | "or" => {
                let parts = v
                    .get("args")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| ServeError::invalid("filter and/or needs an 'args' array"))?
                    .iter()
                    .map(|part| Self::from_json(Some(part), "args", "filter"))
                    .collect::<Result<Vec<_>, _>>()?;
                if op == "and" {
                    FilterSpec::And(parts)
                } else {
                    FilterSpec::Or(parts)
                }
            }
            other => return Err(ServeError::invalid(format!("unknown filter op '{other}'"))),
        })
    }

    fn write(&self, w: &mut Writer) {
        w.filter(self);
    }

    fn read(r: &mut Reader, _: &str) -> Result<Self, ServeError> {
        r.filter(0)
    }
}

// -- the message table ------------------------------------------------------

/// One field type's codec on both surfaces: the four functions the
/// message table calls for every field it declares.
pub(crate) trait Field: Sized {
    /// The field's JSON value.
    fn to_json(&self) -> Json;
    /// Decodes member `key` of a `ctx` object; `v` is `None` when the
    /// member is absent.
    fn from_json(v: Option<&Json>, key: &str, ctx: &str) -> Result<Self, ServeError>;
    /// Appends the field's `AWR2` bytes.
    fn write(&self, w: &mut Writer);
    /// Reads the field's `AWR2` bytes; `what` names it in errors.
    fn read(r: &mut Reader, what: &str) -> Result<Self, ServeError>;
}

/// What a table field decodes to when its JSON member is absent or
/// unreadable.
enum Fallback<T> {
    /// Nothing: the field's codec reports the problem.
    Required,
    /// An absent member decodes as this value.
    Missing(T),
    /// An absent or unreadable member decodes as this value.
    Lenient(T),
}

use Fallback::{Lenient, Missing, Required};

fn json_field<T: Field>(
    v: &Json,
    key: &str,
    ctx: &str,
    fallback: Fallback<T>,
) -> Result<T, ServeError> {
    let member = v.get(key);
    match fallback {
        Missing(value) if member.is_none() => Ok(value),
        Lenient(value) => Ok(T::from_json(member, key, ctx).unwrap_or(value)),
        _ => T::from_json(member, key, ctx),
    }
}

/// Declares every command and response once. A row gives the binary
/// tag, the wire name (commands) or the JSON key whose presence
/// identifies the response, the variant and its fields. A field may
/// rename its JSON key (`as "gauge"`, also its name in binary decode
/// errors) and give its JSON decode a [`Fallback`]. A response row
/// marked `+"key"` carries that key as a constant `true` after its
/// first field, and is identified by it.
///
/// Command rows are in [`Command::kind_index`] order. Response rows are
/// in the order [`Response::from_json`] tries their keys; the error
/// row has none, since `"ok":false` identifies it. Tags are explicit,
/// so rows can move without changing a byte.
///
/// The macro generates both enums, [`COMMAND_KINDS`],
/// [`Command::kind_index`], and the `to_json` / `from_json` of both enums
/// and the `AWR2` encoders and decoders of both, each a loop over the
/// rows calling [`Field`].
macro_rules! message_table {
    (
        commands {$(
            $(#[$cdoc:meta])*
            $ctag:literal $cname:literal $C:ident
                $({ $($cf:ident: $cty:ty $(= $cfall:expr)?),+ $(,)? })?,
        )+}
        responses {$(
            $(#[$rdoc:meta])*
            $rtag:literal $($rkey:literal)? $(+ $rmark:literal)? $R:ident
                $({ $($rf:ident: $rty:ty $(as $rjson:literal)? $(= $rfall:expr)?),+ $(,)? })?
                $(($rt:ident: $rtty:ty))?,
        )+}
    ) => {
        /// A request to the service.
        #[derive(Debug, Clone, PartialEq)]
        pub enum Command {
            $($(#[$cdoc])* $C $({ $($cf: $cty),+ })?,)+
        }

        /// A reply from the service.
        #[derive(Debug, Clone, PartialEq)]
        pub enum Response {
            $($(#[$rdoc])* $R $({ $($rf: $rty),+ })? $(($rtty))?,)+
        }

        /// The command rows, numbered in order.
        #[derive(Clone, Copy)]
        enum CommandKind {
            $($C,)+
        }

        impl CommandKind {
            const COUNT: usize = [$(CommandKind::$C,)+].len();
        }

        /// Wire names of every command, in [`Command::kind_index`] order.
        /// Metrics key their per-kind latency histograms by this index, and
        /// the exposition endpoint labels the resulting summaries with these
        /// names.
        pub const COMMAND_KINDS: [&str; CommandKind::COUNT] = [$($cname,)+];

        impl Command {
            /// Index into [`COMMAND_KINDS`] — the key the per-command-kind
            /// latency histograms are bucketed by.
            pub fn kind_index(&self) -> usize {
                match self {
                    $(Command::$C { .. } => CommandKind::$C as usize,)+
                }
            }

            /// Encodes as a request object (without an `id`).
            pub fn to_json(&self) -> Json {
                match self {
                    $(Command::$C $({ $($cf),+ })? => Json::obj(vec![
                        ("cmd", Json::Str($cname.into())),
                        $($((stringify!($cf), Field::to_json($cf)),)+)?
                    ]),)+
                }
            }

            /// Decodes a parsed request object.
            pub fn from_json(v: &Json) -> Result<Command, ServeError> {
                Ok(match req_str(v, "cmd", "request")? {
                    $($cname => Command::$C $({$(
                        $cf: json_field(v, stringify!($cf), "request", message_table!(@fallback $($cfall)?))?,
                    )+})?,)+
                    other => {
                        return Err(ServeError {
                            code: ErrorCode::UnknownCommand,
                            message: format!("unknown command '{other}'"),
                        })
                    }
                })
            }
        }

        impl Response {
            /// Encodes as a response object (without an `id`).
            pub fn to_json(&self) -> Json {
                match self {
                    $(Response::$R $({ $($rf),+ })? $(($rt))? => {
                        #[allow(unused_mut)]
                        let mut pairs = vec![
                            ("ok", Json::Bool(self.is_ok())),
                            $($((message_table!(@key $rf $($rjson)?), Field::to_json($rf)),)+)?
                            $((stringify!($rt), Field::to_json($rt)),)?
                        ];
                        // A marker key follows the row's first field.
                        $(pairs.insert(2, ($rmark, Json::Bool(true)));)?
                        Json::obj(pairs)
                    })+
                }
            }

            /// Decodes a parsed response object (the per-item payload of a batch
            /// reply, or one v1 response line minus its id).
            pub fn from_json(v: &Json) -> Result<Response, ServeError> {
                let ok = v
                    .get("ok")
                    .and_then(Json::as_bool)
                    .ok_or_else(|| ServeError::invalid("response missing 'ok'"))?;
                if !ok {
                    return Ok(Response::Error(Field::from_json(v.get("error"), "error", "response")?));
                }
                $(if message_table!(@has v $($rkey)? $($rmark)?) {
                    return Ok(Response::$R $({$(
                        $rf: json_field(
                            v,
                            message_table!(@key $rf $($rjson)?),
                            "response",
                            message_table!(@fallback $($rfall)?),
                        )?,
                    )+})? $((json_field(v, stringify!($rt), "response", Required)?))?);
                })+
                Err(ServeError::invalid("unrecognized response shape"))
            }
        }

        impl Writer {
            pub(crate) fn command(&mut self, cmd: &Command) {
                match cmd {
                    $(Command::$C $({ $($cf),+ })? => {
                        self.u8($ctag);
                        $($(Field::write($cf, self);)+)?
                    })+
                }
            }

            pub(crate) fn response(&mut self, response: &Response) {
                match response {
                    $(Response::$R $({ $($rf),+ })? $(($rt))? => {
                        self.u8($rtag);
                        $($(Field::write($rf, self);)+)?
                        $(Field::write($rt, self);)?
                    })+
                }
            }
        }

        impl Reader<'_> {
            pub(crate) fn command(&mut self) -> Result<Command, ServeError> {
                Ok(match self.u8("command tag")? {
                    $($ctag => Command::$C $({ $($cf: Field::read(self, stringify!($cf))?),+ })?,)+
                    other => {
                        return Err(ServeError {
                            code: ErrorCode::UnknownCommand,
                            message: format!("unknown command tag {other}"),
                        })
                    }
                })
            }

            pub(crate) fn response(&mut self) -> Result<Response, ServeError> {
                Ok(match self.u8("response tag")? {
                    $($rtag => Response::$R
                        $({ $($rf: Field::read(self, message_table!(@key $rf $($rjson)?))?),+ })?
                        $((Field::read(self, stringify!($rt))?))?,)+
                    other => return Err(self.bad(format!("unknown response tag {other}"))),
                })
            }
        }
    };
    (@key $f:ident) => { stringify!($f) };
    (@key $f:ident $key:literal) => { $key };
    (@fallback) => { Required };
    (@fallback $fallback:expr) => { $fallback };
    (@has $v:ident) => { false };
    (@has $v:ident $key:literal) => { $v.get($key).is_some() };
}

message_table! {
    commands {
        /// Opens a session over a registered dataset.
        1 "create_session" CreateSession { dataset: String, alpha: f64, policy: PolicySpec },
        /// Opens a session under a caller-chosen id — the cluster router's
        /// create path: the router allocates cluster-wide ids so the
        /// consistent-hash ring can place the session before any shard has
        /// seen it. Refused (`invalid_argument`) when the id is already
        /// live or persisted on the shard.
        8 "create_session_as" CreateSessionAs {
            session: SessionId,
            dataset: String,
            alpha: f64,
            policy: PolicySpec,
        },
        /// Places a visualization; may derive and test a hypothesis.
        2 "add_visualization" AddVisualization {
            session: SessionId,
            attribute: String,
            filter: FilterSpec = Missing(FilterSpec::True),
        },
        /// Swaps the session's bidding policy for subsequent tests.
        3 "set_policy" SetPolicy { session: SessionId, policy: PolicySpec },
        /// Renders the session's risk gauge.
        4 "gauge" Gauge { session: SessionId },
        /// Exports the session transcript.
        5 "transcript" Transcript {
            session: SessionId,
            format: TranscriptFormat = Missing(TranscriptFormat::Csv),
        },
        /// Closes (removes) a session.
        6 "close_session" CloseSession { session: SessionId },
        /// Quiesces a session (after every earlier command of it), removes
        /// it from the shard (memory *and* snapshot store), returns its complete
        /// `AWRS` snapshot image — the shard-handoff half of a migration.
        /// After a successful export the session answers `unknown_session`
        /// here; the wealth ledger lives in the returned bytes.
        9 "export_session" ExportSession { session: SessionId },
        /// Installs an exported `AWRS` image under `session` (which must
        /// equal the id inside the image). Restore runs the full snapshot
        /// validation battery (selections are derived lazily, through the
        /// dataset's shared `EvalCache`, by the first test that needs
        /// them); the shard's id allocator is bumped above the imported id.
        10 "import_session" ImportSession { session: SessionId, image: Vec<u8> },
        /// Lists registered datasets (name, rows, content fingerprint) and
        /// the shard's next free session id — the roster a router checks
        /// before admitting a shard to the ring.
        11 "list_datasets" ListDatasets,
        /// Admits a shard to a cluster router's ring, migrating exactly the
        /// remapped sessions onto it. A plain `aware-serve` shard answers
        /// `invalid_argument` — only routers rebalance.
        12 "join_shard" JoinShard { addr: String },
        /// Removes a shard from a cluster router's ring, migrating its
        /// sessions to the surviving shards first.
        13 "leave_shard" LeaveShard { addr: String },
        /// Server-wide metrics counters.
        7 "stats" Stats,
        /// Ships an `AWRS` snapshot image to a warm replica. The receiving
        /// shard runs the image through the full restore validator (decode,
        /// dataset fingerprint, ledger re-validation) and **refuses** any
        /// image that fails it — a diverged replica is discarded, never
        /// adopted. `epoch` is the monotonic replication epoch: a replica
        /// refuses any epoch older than the one it already holds, and
        /// re-applying the current epoch is an idempotent ack.
        14 "replicate_session" ReplicateSession { session: SessionId, epoch: u64, image: Vec<u8> },
        /// Installs the replica image this shard holds for `session` as the
        /// live session — the failover half of replication. The image is
        /// re-read from its durable home and re-validated at promotion
        /// time; a tampered or diverged image answers `corrupt_snapshot`
        /// and the replica is discarded (never adopted as a ledger).
        15 "promote_replica" PromoteReplica { session: SessionId },
        /// Discards the replica image this shard holds for `session`
        /// (topology moved the replica elsewhere, or the session closed).
        /// Idempotent: dropping an absent replica is still an ack.
        16 "drop_replica" DropReplica { session: SessionId },
        /// Returns the session's complete `AWRS` snapshot image *without*
        /// removing the session — the non-destructive half of
        /// `export_session`, used by the router's replication cadence.
        17 "snapshot_session" SnapshotSession { session: SessionId },
        /// Lists every session this shard knows about — live or persisted
        /// primaries plus held replica images with their epochs. A
        /// restarting router scans shards with this to rebuild placement
        /// instead of starting blind.
        18 "list_sessions" ListSessions,
        /// Membership gossip: the sender's roster view (ring generation +
        /// per-shard health). The receiver merges the higher generation and
        /// answers with its own view, so peers converge on the ring.
        19 "gossip" Gossip { from: String, generation: u64, members: Vec<MemberInfo> },
    }
    responses {
        /// A retired server-push notification (an id-0 envelope). No
        /// server emits it any more; the row keeps its codec so captured
        /// corpora still decode, and tag 18 is never reused.
        18 "push" Push(push: PushEvent),
        7 "stats" Stats(stats: Box<StatsSnapshot>),
        /// The complete `AWRS` snapshot image of a just-exported (and now
        /// removed) session.
        9 "image" SessionExported { session: SessionId, image: Vec<u8> },
        /// A successfully imported session, reporting the wealth its
        /// restored ledger carries.
        10 +"imported" SessionImported { session: SessionId, wealth: f64 },
        /// Ack of a `replicate_session`: the shard durably holds the image
        /// for this epoch and the image survived the full restore
        /// validator.
        13 +"replicated" SessionReplicated { session: SessionId, epoch: u64 },
        /// A replica image installed as the live session by
        /// `promote_replica`, reporting the epoch of the promoted image
        /// and the wealth its re-validated ledger carries.
        14 +"promoted" ReplicaPromoted { session: SessionId, epoch: u64, wealth: f64 },
        /// Ack of a `drop_replica` (idempotent).
        15 +"dropped" ReplicaDropped { session: SessionId },
        /// Every session the shard knows about (`list_sessions`).
        16 "sessions" Sessions { sessions: Vec<SessionEntry> },
        /// The receiver's membership view after merging a `gossip`.
        17 "members" GossipView { generation: u64, members: Vec<MemberInfo> },
        /// The dataset roster plus the shard's next free session id.
        11 "datasets" Datasets { datasets: Vec<DatasetInfo>, next_session: u64 },
        /// Outcome of a `join_shard`/`leave_shard` rebalance.
        12 "joined" Rebalanced { addr: String, joined: bool, migrated: u64 },
        4 "gauge" GaugeText {
            session: SessionId,
            text: String as "gauge" = Lenient(String::new()),
        },
        5 "transcript" TranscriptText {
            session: SessionId,
            format: TranscriptFormat = Lenient(TranscriptFormat::Csv),
            text: String as "transcript" = Lenient(String::new()),
        },
        2 "viz" VizAdded {
            session: SessionId,
            viz: u64,
            wealth: f64,
            hypothesis: Option<HypothesisReport>,
        },
        6 "hypotheses" SessionClosed { session: SessionId, hypotheses: u64, discoveries: u64 },
        // Every row above that carries `wealth` or `policy` is told apart first.
        1 "wealth" SessionCreated { session: SessionId, wealth: f64, policy: String },
        3 "policy" PolicySet { session: SessionId, policy: String = Lenient(String::new()) },
        8 Error(error: ServeError),
    }
}

impl Command {
    /// The session this command addresses, if any — the dispatcher keys
    /// ordering and per-session exclusion on it.
    pub fn session(&self) -> Option<SessionId> {
        match *self {
            Command::CreateSessionAs { session, .. }
            | Command::AddVisualization { session, .. }
            | Command::SetPolicy { session, .. }
            | Command::Gauge { session }
            | Command::Transcript { session, .. }
            | Command::CloseSession { session }
            | Command::ExportSession { session }
            | Command::ImportSession { session, .. }
            | Command::ReplicateSession { session, .. }
            | Command::PromoteReplica { session }
            | Command::DropReplica { session }
            | Command::SnapshotSession { session } => Some(session),
            Command::CreateSession { .. }
            | Command::Stats
            | Command::ListDatasets
            | Command::ListSessions
            | Command::JoinShard { .. }
            | Command::LeaveShard { .. }
            | Command::Gossip { .. } => None,
        }
    }

    /// Wire name of the command.
    pub fn name(&self) -> &'static str {
        COMMAND_KINDS[self.kind_index()]
    }

    /// Encodes as one request line (with optional client id).
    pub fn encode_line(&self, id: Option<u64>) -> String {
        id_first(self.to_json(), id).to_string()
    }

    /// Parses one request line; returns the command and the echoed id.
    pub fn decode_line(line: &str) -> Result<(Command, Option<u64>), ServeError> {
        let v = parse_line(line)?;
        let id = v.get("id").and_then(Json::as_u64);
        Ok((Command::from_json(&v)?, id))
    }
}

impl Response {
    /// True for non-error responses.
    pub fn is_ok(&self) -> bool {
        !matches!(self, Response::Error(_))
    }

    /// Encodes as one response line (echoing the request id, if any).
    pub fn encode_line(&self, id: Option<u64>) -> String {
        id_first(self.to_json(), id).to_string()
    }

    /// Decodes one response line (used by clients and tests); returns the
    /// response and the echoed id.
    pub fn decode_line(line: &str) -> Result<(Response, Option<u64>), ServeError> {
        let v = parse_line(line)?;
        let id = v.get("id").and_then(Json::as_u64);
        Ok((Response::from_json(&v)?, id))
    }
}

/// `json` with `"id"` first when there is one.
fn id_first(mut json: Json, id: Option<u64>) -> Json {
    if let (Some(id), Json::Obj(pairs)) = (id, &mut json) {
        pairs.insert(0, ("id".to_string(), Json::Num(id as f64)));
    }
    json
}

fn parse_line(line: &str) -> Result<Json, ServeError> {
    Json::parse(line.trim()).map_err(|e| ServeError {
        code: ErrorCode::BadRequest,
        message: e.to_string(),
    })
}

/// The tested-hypothesis payload inside a [`Response::VizAdded`].
#[derive(Debug, Clone, PartialEq)]
pub struct HypothesisReport {
    pub id: u64,
    pub test: String,
    pub statistic: f64,
    pub p_value: f64,
    pub bid: f64,
    pub rejected: bool,
    pub effect_size: f64,
    pub support_fraction: f64,
    pub wealth_after: f64,
}

impl HypothesisReport {
    /// Builds from a session test record.
    pub fn from_record(id: u64, record: &TestRecord) -> HypothesisReport {
        HypothesisReport {
            id,
            test: record.outcome.kind.to_string(),
            statistic: record.outcome.statistic,
            p_value: record.outcome.p_value,
            bid: record.bid,
            rejected: record.decision.is_rejection(),
            effect_size: record.outcome.effect_size,
            support_fraction: record.support_fraction,
            wealth_after: record.wealth_after,
        }
    }
}

/// Upper edges of the batch-size histogram buckets reported in
/// [`StatsSnapshot::batch_size_hist`]: sizes 1, 2–8, 9–64, 65–256, and
/// everything larger. The edges match the serve bench's batch sizes.
pub const BATCH_SIZE_BUCKETS: [u64; 4] = [1, 8, 64, 256];

/// Health of one cluster member as carried by `gossip` — SWIM-style
/// three-state so one missed probe (suspect) doesn't flap the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberStatus {
    Alive,
    Suspect,
    Dead,
}

impl MemberStatus {
    /// Wire byte / JSON number for the status.
    pub fn as_u8(self) -> u8 {
        match self {
            MemberStatus::Alive => 0,
            MemberStatus::Suspect => 1,
            MemberStatus::Dead => 2,
        }
    }

    /// Decodes the wire byte; unknown values are rejected.
    pub fn from_u8(b: u8) -> Result<MemberStatus, ServeError> {
        Ok(match b {
            0 => MemberStatus::Alive,
            1 => MemberStatus::Suspect,
            2 => MemberStatus::Dead,
            other => {
                return Err(ServeError::invalid(format!(
                    "unknown member status {other} (expected 0 | 1 | 2)"
                )))
            }
        })
    }

    /// Human-readable name (log lines, metrics labels).
    pub fn as_str(self) -> &'static str {
        match self {
            MemberStatus::Alive => "alive",
            MemberStatus::Suspect => "suspect",
            MemberStatus::Dead => "dead",
        }
    }
}

/// One cluster member in a `gossip` exchange.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemberInfo {
    /// The member's address, as named at `join_shard` time.
    pub addr: String,
    pub status: MemberStatus,
    /// Monotone per-member counter: a higher incarnation wins a merge,
    /// so a refuted suspicion can override a stale `suspect` claim.
    pub incarnation: u64,
}

/// One session in a `list_sessions` reply: a primary copy (live or
/// persisted on the shard) or a held replica image with its
/// replication epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionEntry {
    pub session: SessionId,
    /// True when this shard holds only a replica image of the session.
    pub replica: bool,
    /// Replication epoch of the held image (0 for primaries — the
    /// epoch is the router's bookkeeping, not the shard's).
    pub epoch: u64,
}

/// One registered dataset as reported by [`Command::ListDatasets`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetInfo {
    pub name: String,
    pub rows: u64,
    /// Content fingerprint ([`aware_data::table::Table::fingerprint`]):
    /// a router admits a shard only when its roster fingerprints match,
    /// and a session import refuses a mismatched table.
    pub fingerprint: u64,
}

/// Health and traffic of one backend shard, as reported in a cluster
/// router's `stats`. Rides the JSON surface only — the binary stats
/// payload stays the count-prefixed scalar list, so pre-cluster peers
/// keep decoding it untouched.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShardHealth {
    /// The shard's address, as named at `join_shard` time.
    pub addr: String,
    /// False once the router has observed a connection-level failure
    /// that its health probe has not yet cleared.
    pub healthy: bool,
    /// Live sessions the shard reported on its last successful probe.
    pub sessions_live: u64,
    /// Commands this router forwarded to the shard.
    pub forwarded: u64,
    /// Connection-level failures observed against the shard.
    pub errors: u64,
}

/// Per-session risk telemetry, as reported in `stats` — the
/// information-usage view of PAPERS.md made operational: risk is a
/// gauge to export while the exploration runs, not just a terminal
/// verdict. JSON-surface only, like [`ShardHealth`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SessionRisk {
    pub session: SessionId,
    pub dataset: String,
    /// Remaining α-wealth.
    pub wealth: f64,
    /// Hypotheses tested so far.
    pub tests_run: u64,
    /// Rejections (discoveries) so far.
    pub discoveries: u64,
    /// Cumulative α spent: the sum of every test's bid — the
    /// information-usage-style readout of how much error budget the
    /// exploration has consumed to date.
    pub risk_spent: f64,
}

/// Declares the `stats` scalars — once. Each row is one scalar: its
/// name, whether a JSON reply must carry it, how a router merges it
/// across shards, how the exposition endpoint shows it, and its help
/// text. Row order is the binary wire position, so rows are append
/// only. The macro generates [`StatsSnapshot`]'s named fields, the
/// [`Stat`] index, and [`SCALARS`]; every rendering (JSON, binary,
/// [`StatsSnapshot::merge`], both `/metrics` endpoints, the atomic
/// block in [`crate::metrics::Metrics`]) is a loop over those.
macro_rules! scalar_table {
    ($($(#[$doc:meta])* $name:ident: $decode:ident, $merge:ident, $kind:ident, $help:literal;)*) => {
        /// Server-wide counters, as returned by [`Command::Stats`].
        ///
        /// `PartialEq` only (no `Eq`): [`SessionRisk`] carries `f64` gauges.
        #[derive(Debug, Clone, PartialEq, Default)]
        pub struct StatsSnapshot {
            $(#[doc = $help] $(#[$doc])* pub $name: u64,)*
            /// Batch sizes by bucket; edges in [`BATCH_SIZE_BUCKETS`].
            pub batch_size_hist: [u64; 5],
            /// Per-shard health breakdown (cluster routers only; empty on a
            /// plain serve). JSON-surface only: the binary stats payload is
            /// the scalar list + histogram, unchanged.
            pub shards: Vec<ShardHealth>,
            /// Per-session risk telemetry (capped at the busiest
            /// [`MAX_RISK_SESSIONS`] by id). JSON-surface only, like `shards`.
            pub sessions: Vec<SessionRisk>,
        }

        /// Index of one scalar: its row in [`SCALARS`], its position on
        /// the binary wire, its slot in the server's atomic block.
        /// Variants are spelled exactly as the field they index.
        #[allow(non_camel_case_types)]
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Stat {
            $($name,)*
        }

        /// The declared scalars, in wire order.
        pub const SCALARS: [MetricDef; Stat::COUNT] = [
            $(MetricDef {
                name: stringify!($name),
                decode: Decode::$decode,
                merge: Merge::$merge,
                kind: Kind::$kind,
                help: $help,
            },)*
        ];

        impl Stat {
            pub const COUNT: usize = [$(Stat::$name,)*].len();
        }

        impl StatsSnapshot {
            /// Every scalar's value, in [`SCALARS`] order.
            pub fn scalars(&self) -> [u64; Stat::COUNT] {
                [$(self.$name,)*]
            }

            /// Every scalar's slot, in [`SCALARS`] order.
            pub fn scalars_mut(&mut self) -> [&mut u64; Stat::COUNT] {
                [$(&mut self.$name,)*]
            }
        }
    };
}

scalar_table! {
    sessions_created: Required, Sum, Counter, "Sessions created.";
    sessions_closed: Required, Sum, Counter, "Sessions closed.";
    sessions_evicted: Required, Sum, Counter, "Sessions evicted.";
    sessions_live: Required, Sum, Gauge, "Live sessions.";
    commands: Required, Sum, Counter, "Commands accepted.";
    hypotheses_tested: Required, Sum, Counter, "Hypotheses tested.";
    discoveries: Required, Sum, Counter, "Hypotheses rejected (discoveries).";
    rejected_by_budget: Required, Sum, Counter, "Tests refused for exhausted wealth.";
    errors: Required, Sum, Counter, "Error responses.";
    /// A single `call` counts as a batch of one.
    batches: Lenient, Sum, Counter, "Dispatch units accepted.";
    batch_commands: Lenient, Sum, Counter, "Commands carried inside those dispatch units.";
    /// Session capacity exhausted with nothing evictable.
    overloaded: Lenient, Sum, Counter, "Work refused by backpressure.";
    ndjson_requests: Lenient, Sum, Counter, "Wire messages received on the NDJSON surface.";
    binary_frames: Lenient, Sum, Counter, "Wire frames received on the binary surface.";
    /// Summed over every registered dataset's shared cache. Hidden: a
    /// serve exposes it per dataset, a router as the cluster total.
    cache_hits: Lenient, Sum, Hidden, "Evaluation-cache probes answered from the cache.";
    cache_misses: Lenient, Sum, Hidden, "Evaluation-cache probes that had to evaluate cold.";
    /// Both live sessions that have been snapshotted and sessions
    /// spilled out of memory. Zero without a `--data-dir`, which is
    /// why the endpoint shows it (as `aware_persisted_sessions`) only
    /// when a store is configured.
    persisted: Lenient, Sum, Hidden, "Sessions with a durable snapshot on disk.";
    /// Always 0 on a plain `aware-serve`.
    forwarded: Lenient, Sum, Counter, "Commands a cluster router forwarded to backend shards.";
    migrations: Lenient, Sum, Counter, "Sessions a router migrated between shards while rebalancing.";
    shard_errors: Lenient, Sum, Counter, "Connection-level shard failures a router observed.";
    /// Since the registry epoch on a serve, since start on a router
    /// (summing shard uptimes would be meaningless).
    uptime_seconds: Lenient, RouterOwned, Gauge, "Whole seconds since the process started.";
    /// Queue wait + execute, merged across every command kind and
    /// reconstructed from the server's log-linear histograms (relative
    /// error ≤ 1/16). A router reports the max over itself and its
    /// shards. Hidden: the endpoint serves the full distributions.
    latency_p50_us: Lenient, Max, Hidden, "Command latency p50, microseconds.";
    latency_p90_us: Lenient, Max, Hidden, "Command latency p90, microseconds.";
    latency_p99_us: Lenient, Max, Hidden, "Command latency p99, microseconds.";
    latency_p999_us: Lenient, Max, Hidden, "Command latency p99.9, microseconds.";
    /// Each one also emitted a slow-query record.
    slow_queries: Lenient, Sum, Counter, "Commands that crossed the --slow-ms threshold.";
    replicas_live: Lenient, Sum, Gauge, "Replica images held for sessions whose primary lives elsewhere.";
    /// 0 means every session's replicas have acked its latest image.
    /// Only a router sees the acks; always 0 on a plain serve.
    replication_lag_max_epochs: Lenient, RouterOwned, Gauge, "Worst replication staleness across sessions, in epochs.";
    promotions: Lenient, Sum, Counter, "Replica images promoted to live sessions by failover.";
    /// Retired with hedged reads: always 0. The slot stays so the wire
    /// layout and exposition do not move.
    hedged_reads: Lenient, Sum, Counter, "Retired (always 0): replicas are standby images that only promotion reads, so no read is answered from one.";
    /// Connect, read, or write timeout. Counted in a router's shard
    /// pools; always 0 on a plain serve, but a shard that is itself a
    /// router (tiered topologies) sums through.
    shard_timeouts: Lenient, Sum, Counter, "Shard round trips abandoned on a blown deadline.";
    breaker_opens: Lenient, Sum, Counter, "Circuit-breaker open transitions across a router's shards.";
    breaker_shed: Lenient, Sum, Counter, "Calls shed without touching the network while a breaker was open.";
    /// 0 under thread-per-connection.
    reactor_connections: Lenient, Sum, Gauge, "Connections currently open on the reactor front end.";
    reactor_wakeups: Lenient, Sum, Counter, "Readiness wakeups the reactor event loop has serviced.";
    /// Retired with server push: always 0. The slot stays so the wire
    /// layout and exposition do not move.
    push_frames: Lenient, Sum, Counter, "Retired (always 0): no front end pushes frames; every hello's push request is declined.";
    /// Retired with the worker pool's deficit round-robin: always 0.
    /// The slot stays so the wire layout and exposition do not move.
    drr_deferrals: Lenient, Sum, Counter, "Retired (always 0): commands now run on their caller's thread, with no worker queue to defer.";
}

/// Cap on the per-session risk rows a `stats` reply carries: enough
/// for dashboards, bounded so a 65k-session server doesn't ship a
/// megabyte of telemetry per scrape.
pub const MAX_RISK_SESSIONS: usize = 128;

impl StatsSnapshot {
    /// Folds one cluster participant's snapshot into this total, each
    /// scalar by its declared rule; batch-size buckets add.
    pub fn merge(&mut self, other: &StatsSnapshot) {
        let values = other.scalars();
        for ((def, slot), value) in SCALARS.iter().zip(self.scalars_mut()).zip(values) {
            match def.merge {
                Merge::Sum => *slot += value,
                Merge::Max => *slot = (*slot).max(value),
                Merge::RouterOwned => {}
            }
        }
        for (slot, n) in self.batch_size_hist.iter_mut().zip(other.batch_size_hist) {
            *slot += n;
        }
    }
}

/// The payload of the retired [`Response::Push`] row; kept only so its
/// codec still decodes captured frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PushEvent {
    /// A session was evicted from memory (`reason` is `"idle"` or
    /// `"lru"`). With persistence the session spilled to disk and a
    /// later command restores it lazily; without, its budget is gone —
    /// either way the dashboard should know its gauge is stale.
    SessionEvicted { session: SessionId, reason: String },
    /// A dataset was re-registered: its shared evaluation cache was
    /// rebuilt, so any client-side caching keyed on the old dataset
    /// fingerprint is invalid.
    CacheReset { dataset: String },
}

// -- field codecs -----------------------------------------------------------

impl Field for u64 {
    fn to_json(&self) -> Json {
        Json::Num(*self as f64)
    }
    fn from_json(v: Option<&Json>, key: &str, ctx: &str) -> Result<Self, ServeError> {
        v.and_then(Json::as_u64)
            .ok_or_else(|| missing("integer", key, ctx))
    }
    fn write(&self, w: &mut Writer) {
        w.varint(*self);
    }
    fn read(r: &mut Reader, what: &str) -> Result<Self, ServeError> {
        r.varint(what)
    }
}

impl Field for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
    fn from_json(v: Option<&Json>, key: &str, ctx: &str) -> Result<Self, ServeError> {
        v.and_then(Json::as_f64)
            .ok_or_else(|| missing("numeric", key, ctx))
    }
    fn write(&self, w: &mut Writer) {
        w.f64(*self);
    }
    fn read(r: &mut Reader, what: &str) -> Result<Self, ServeError> {
        r.f64(what)
    }
}

impl Field for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
    fn from_json(v: Option<&Json>, key: &str, ctx: &str) -> Result<Self, ServeError> {
        json_str(v, key, ctx).map(str::to_string)
    }
    fn write(&self, w: &mut Writer) {
        w.str(self);
    }
    fn read(r: &mut Reader, what: &str) -> Result<Self, ServeError> {
        r.str(what)
    }
}

impl Field for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
    fn from_json(v: Option<&Json>, key: &str, _: &str) -> Result<Self, ServeError> {
        v.and_then(Json::as_bool)
            .ok_or_else(|| ServeError::invalid(format!("bad '{key}'")))
    }
    fn write(&self, w: &mut Writer) {
        w.u8(*self as u8);
    }
    fn read(r: &mut Reader, what: &str) -> Result<Self, ServeError> {
        Ok(r.u8(what)? != 0)
    }
}

/// Snapshot images: raw on `AWR2`, lowercase hex on JSON.
impl Field for Vec<u8> {
    fn to_json(&self) -> Json {
        Json::Str(hex_encode(self))
    }
    fn from_json(v: Option<&Json>, key: &str, ctx: &str) -> Result<Self, ServeError> {
        hex_decode(json_str(v, key, ctx)?)
    }
    fn write(&self, w: &mut Writer) {
        w.bytes(self);
    }
    fn read(r: &mut Reader, what: &str) -> Result<Self, ServeError> {
        r.byte_string(what)
    }
}

impl Field for TranscriptFormat {
    fn to_json(&self) -> Json {
        Json::Str(self.as_str().into())
    }
    fn from_json(v: Option<&Json>, key: &str, ctx: &str) -> Result<Self, ServeError> {
        // A format that is not a string has always read as csv.
        match v.ok_or_else(|| missing("string", key, ctx))?.as_str() {
            None | Some("csv") => Ok(TranscriptFormat::Csv),
            Some("text") => Ok(TranscriptFormat::Text),
            Some(other) => Err(ServeError::invalid(format!(
                "unknown transcript format '{other}' (expected csv | text)"
            ))),
        }
    }
    fn write(&self, w: &mut Writer) {
        w.u8(matches!(self, TranscriptFormat::Text) as u8);
    }
    fn read(r: &mut Reader, _: &str) -> Result<Self, ServeError> {
        match r.u8("transcript format")? {
            0 => Ok(TranscriptFormat::Csv),
            1 => Ok(TranscriptFormat::Text),
            other => Err(r.bad(format!("unknown transcript format {other}"))),
        }
    }
}

impl Field for Option<HypothesisReport> {
    fn to_json(&self) -> Json {
        let Some(h) = self else {
            return Json::Null;
        };
        Json::obj(vec![
            ("id", Json::Num(h.id as f64)),
            ("test", Json::Str(h.test.clone())),
            ("statistic", Json::Num(h.statistic)),
            ("p_value", Json::Num(h.p_value)),
            ("bid", Json::Num(h.bid)),
            ("rejected", Json::Bool(h.rejected)),
            ("effect_size", Json::Num(h.effect_size)),
            ("support_fraction", Json::Num(h.support_fraction)),
            ("wealth_after", Json::Num(h.wealth_after)),
        ])
    }
    fn from_json(v: Option<&Json>, _: &str, _: &str) -> Result<Self, ServeError> {
        let h = match v {
            None | Some(Json::Null) => return Ok(None),
            Some(h) => h,
        };
        let ctx = "hypothesis";
        Ok(Some(HypothesisReport {
            id: req(h, "id", ctx)?,
            test: req(h, "test", ctx)?,
            statistic: req(h, "statistic", ctx)?,
            p_value: req(h, "p_value", ctx)?,
            bid: req(h, "bid", ctx)?,
            rejected: req(h, "rejected", ctx)?,
            effect_size: req(h, "effect_size", ctx)?,
            support_fraction: req(h, "support_fraction", ctx)?,
            wealth_after: req(h, "wealth_after", ctx)?,
        }))
    }
    fn write(&self, w: &mut Writer) {
        let Some(h) = self else {
            return w.u8(0);
        };
        w.u8(1);
        w.varint(h.id);
        w.str(&h.test);
        w.f64(h.statistic);
        w.f64(h.p_value);
        w.f64(h.bid);
        w.u8(h.rejected as u8);
        w.f64(h.effect_size);
        w.f64(h.support_fraction);
        w.f64(h.wealth_after);
    }
    fn read(r: &mut Reader, _: &str) -> Result<Self, ServeError> {
        match r.u8("hypothesis flag")? {
            0 => Ok(None),
            1 => Ok(Some(HypothesisReport {
                id: r.varint("hypothesis id")?,
                test: r.str("test")?,
                statistic: r.f64("statistic")?,
                p_value: r.f64("p_value")?,
                bid: r.f64("bid")?,
                rejected: r.u8("rejected")? != 0,
                effect_size: r.f64("effect_size")?,
                support_fraction: r.f64("support_fraction")?,
                wealth_after: r.f64("wealth_after")?,
            })),
            other => Err(r.bad(format!("bad hypothesis flag {other}"))),
        }
    }
}

impl Field for Vec<MemberInfo> {
    fn to_json(&self) -> Json {
        Json::Arr(
            self.iter()
                .map(|m| {
                    Json::obj(vec![
                        ("addr", Json::Str(m.addr.clone())),
                        ("status", Json::Num(f64::from(m.status.as_u8()))),
                        ("incarnation", Json::Num(m.incarnation as f64)),
                    ])
                })
                .collect(),
        )
    }
    /// An absent or non-array roster is empty.
    fn from_json(v: Option<&Json>, _: &str, _: &str) -> Result<Self, ServeError> {
        let Some(items) = v.and_then(Json::as_arr) else {
            return Ok(Vec::new());
        };
        items
            .iter()
            .map(|m| {
                Ok(MemberInfo {
                    addr: req(m, "addr", "member")?,
                    status: MemberStatus::from_u8(
                        u8::try_from(req::<u64>(m, "status", "member")?)
                            .map_err(|_| ServeError::invalid("member status out of range"))?,
                    )?,
                    incarnation: lenient(m, "incarnation", 0),
                })
            })
            .collect()
    }
    fn write(&self, w: &mut Writer) {
        write_list(w, self, |w, m| {
            w.str(&m.addr);
            w.u8(m.status.as_u8());
            w.varint(m.incarnation);
        });
    }
    fn read(r: &mut Reader, _: &str) -> Result<Self, ServeError> {
        read_list(r, "member count", 4096, |r| {
            Ok(MemberInfo {
                addr: r.str("member addr")?,
                status: MemberStatus::from_u8(r.u8("member status")?)?,
                incarnation: r.varint("member incarnation")?,
            })
        })
    }
}

impl Field for Vec<DatasetInfo> {
    fn to_json(&self) -> Json {
        Json::Arr(
            self.iter()
                .map(|d| {
                    Json::obj(vec![
                        ("name", Json::Str(d.name.clone())),
                        ("rows", Json::Num(d.rows as f64)),
                        // u64 fingerprints exceed f64's exact integer
                        // range; hex keeps the bits.
                        ("fingerprint", Json::Str(format!("{:016x}", d.fingerprint))),
                    ])
                })
                .collect(),
        )
    }
    fn from_json(v: Option<&Json>, key: &str, _: &str) -> Result<Self, ServeError> {
        json_array(v, key)?
            .iter()
            .map(|d| {
                Ok(DatasetInfo {
                    name: req(d, "name", "dataset")?,
                    rows: req(d, "rows", "dataset")?,
                    fingerprint: u64::from_str_radix(req_str(d, "fingerprint", "dataset")?, 16)
                        .map_err(|_| ServeError::invalid("bad dataset fingerprint"))?,
                })
            })
            .collect()
    }
    fn write(&self, w: &mut Writer) {
        write_list(w, self, |w, d| {
            w.str(&d.name);
            w.varint(d.rows);
            // Fixed 8 bytes, not varint: fingerprints are uniformly
            // distributed, varints would only pad.
            w.raw_u64(d.fingerprint);
        });
    }
    fn read(r: &mut Reader, _: &str) -> Result<Self, ServeError> {
        read_list(r, "dataset count", usize::MAX, |r| {
            Ok(DatasetInfo {
                name: r.str("dataset name")?,
                rows: r.varint("dataset rows")?,
                fingerprint: r.u64_le("dataset fingerprint")?,
            })
        })
    }
}

impl Field for Vec<SessionEntry> {
    fn to_json(&self) -> Json {
        Json::Arr(
            self.iter()
                .map(|s| {
                    Json::obj(vec![
                        ("session", Json::Num(s.session as f64)),
                        ("replica", Json::Bool(s.replica)),
                        ("epoch", Json::Num(s.epoch as f64)),
                    ])
                })
                .collect(),
        )
    }
    fn from_json(v: Option<&Json>, key: &str, _: &str) -> Result<Self, ServeError> {
        json_array(v, key)?
            .iter()
            .map(|s| {
                Ok(SessionEntry {
                    session: req(s, "session", "session entry")?,
                    replica: lenient(s, "replica", false),
                    epoch: lenient(s, "epoch", 0),
                })
            })
            .collect()
    }
    fn write(&self, w: &mut Writer) {
        write_list(w, self, |w, s| {
            w.varint(s.session);
            w.u8(s.replica as u8);
            w.varint(s.epoch);
        });
    }
    fn read(r: &mut Reader, _: &str) -> Result<Self, ServeError> {
        read_list(r, "session count", usize::MAX, |r| {
            Ok(SessionEntry {
                session: r.varint("session")?,
                replica: r.u8("replica flag")? != 0,
                epoch: r.varint("epoch")?,
            })
        })
    }
}

impl Field for Box<StatsSnapshot> {
    fn to_json(&self) -> Json {
        let mut pairs: Vec<(&str, Json)> = SCALARS
            .iter()
            .zip(self.scalars())
            .map(|(def, value)| (def.name, Json::Num(value as f64)))
            .collect();
        pairs.push((
            "batch_size_hist",
            Json::Arr(
                self.batch_size_hist
                    .iter()
                    .map(|&n| Json::Num(n as f64))
                    .collect(),
            ),
        ));
        if !self.shards.is_empty() {
            pairs.push((
                "shards",
                Json::Arr(
                    self.shards
                        .iter()
                        .map(|s| {
                            Json::obj(vec![
                                ("addr", Json::Str(s.addr.clone())),
                                ("healthy", Json::Bool(s.healthy)),
                                ("sessions_live", Json::Num(s.sessions_live as f64)),
                                ("forwarded", Json::Num(s.forwarded as f64)),
                                ("errors", Json::Num(s.errors as f64)),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        if !self.sessions.is_empty() {
            pairs.push((
                "sessions",
                Json::Arr(
                    self.sessions
                        .iter()
                        .map(|s| {
                            Json::obj(vec![
                                ("session", Json::Num(s.session as f64)),
                                ("dataset", Json::Str(s.dataset.clone())),
                                ("wealth", Json::Num(s.wealth)),
                                ("tests_run", Json::Num(s.tests_run as f64)),
                                ("discoveries", Json::Num(s.discoveries as f64)),
                                ("risk_spent", Json::Num(s.risk_spent)),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        Json::obj(pairs)
    }
    fn from_json(v: Option<&Json>, key: &str, _: &str) -> Result<Self, ServeError> {
        let v = v.ok_or_else(|| absent(key))?;
        let mut snapshot = StatsSnapshot::default();
        for (def, slot) in SCALARS.iter().zip(snapshot.scalars_mut()) {
            *slot = match def.decode {
                Decode::Required => req(v, def.name, "stats")?,
                Decode::Lenient => lenient(v, def.name, 0),
            };
        }
        if let Some(buckets) = v.get("batch_size_hist").and_then(Json::as_arr) {
            for (slot, bucket) in snapshot.batch_size_hist.iter_mut().zip(buckets) {
                *slot = bucket.as_u64().unwrap_or(0);
            }
        }
        let rows = |key: &str| v.get(key).and_then(Json::as_arr).unwrap_or_default();
        snapshot.shards = rows("shards")
            .iter()
            .map(|s| {
                Ok(ShardHealth {
                    addr: req(s, "addr", "shard health")?,
                    healthy: lenient(s, "healthy", false),
                    sessions_live: lenient(s, "sessions_live", 0),
                    forwarded: lenient(s, "forwarded", 0),
                    errors: lenient(s, "errors", 0),
                })
            })
            .collect::<Result<_, ServeError>>()?;
        snapshot.sessions = rows("sessions")
            .iter()
            .map(|s| {
                Ok(SessionRisk {
                    session: req(s, "session", "session risk")?,
                    dataset: lenient(s, "dataset", String::new()),
                    wealth: lenient(s, "wealth", 0.0),
                    tests_run: lenient(s, "tests_run", 0),
                    discoveries: lenient(s, "discoveries", 0),
                    risk_spent: lenient(s, "risk_spent", 0.0),
                })
            })
            .collect::<Result<_, ServeError>>()?;
        Ok(Box::new(snapshot))
    }
    fn write(&self, w: &mut Writer) {
        // The scalar-counter list is count-prefixed so the set can grow
        // (as cache_hits/cache_misses did) without a framing break:
        // readers take the counters they know and skip the rest.
        w.varint(Stat::COUNT as u64);
        for n in self.scalars() {
            w.varint(n);
        }
        for n in self.batch_size_hist {
            w.varint(n);
        }
    }
    fn read(r: &mut Reader, _: &str) -> Result<Self, ServeError> {
        // Decode the counters this build knows, default the missing
        // (older peer), skip the surplus (newer peer).
        let count = r.varint("stats field count")? as usize;
        if count > 256 {
            return Err(r.bad(format!("stats field count {count} exceeds cap")));
        }
        let mut stats = StatsSnapshot::default();
        let mut slots = stats.scalars_mut();
        for position in 0..count {
            let value = r.varint("stats field")?;
            if let Some(slot) = slots.get_mut(position) {
                **slot = value;
            }
        }
        for slot in &mut stats.batch_size_hist {
            *slot = r.varint("stats histogram")?;
        }
        Ok(Box::new(stats))
    }
}

impl Field for PushEvent {
    fn to_json(&self) -> Json {
        match self {
            PushEvent::SessionEvicted { session, reason } => Json::obj(vec![
                ("event", Json::Str("session_evicted".into())),
                ("session", Json::Num(*session as f64)),
                ("reason", Json::Str(reason.clone())),
            ]),
            PushEvent::CacheReset { dataset } => Json::obj(vec![
                ("event", Json::Str("cache_reset".into())),
                ("dataset", Json::Str(dataset.clone())),
            ]),
        }
    }
    fn from_json(v: Option<&Json>, key: &str, _: &str) -> Result<Self, ServeError> {
        let push = v.ok_or_else(|| absent(key))?;
        match push.get("event").and_then(Json::as_str) {
            Some("session_evicted") => Ok(PushEvent::SessionEvicted {
                session: req(push, "session", "push")?,
                reason: req(push, "reason", "push")?,
            }),
            Some("cache_reset") => Ok(PushEvent::CacheReset {
                dataset: req(push, "dataset", "push")?,
            }),
            _ => Err(ServeError::invalid("unknown push event")),
        }
    }
    fn write(&self, w: &mut Writer) {
        match self {
            PushEvent::SessionEvicted { session, reason } => {
                w.u8(1);
                w.varint(*session);
                w.str(reason);
            }
            PushEvent::CacheReset { dataset } => {
                w.u8(2);
                w.str(dataset);
            }
        }
    }
    fn read(r: &mut Reader, _: &str) -> Result<Self, ServeError> {
        match r.u8("push event kind")? {
            1 => Ok(PushEvent::SessionEvicted {
                session: r.varint("session")?,
                reason: r.str("eviction reason")?,
            }),
            2 => Ok(PushEvent::CacheReset {
                dataset: r.str("dataset")?,
            }),
            other => Err(r.bad(format!("unknown push event kind {other}"))),
        }
    }
}

impl Field for ServeError {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("code", Json::Str(self.code.as_str().into())),
            ("message", Json::Str(self.message.clone())),
        ])
    }
    fn from_json(v: Option<&Json>, key: &str, _: &str) -> Result<Self, ServeError> {
        let err = v.ok_or_else(|| absent(key))?;
        Ok(ServeError {
            code: ErrorCode::parse(req_str(err, "code", "error")?),
            message: req(err, "message", "error")?,
        })
    }
    fn write(&self, w: &mut Writer) {
        w.str(self.code.as_str());
        w.str(&self.message);
    }
    fn read(r: &mut Reader, _: &str) -> Result<Self, ServeError> {
        Ok(ServeError {
            code: ErrorCode::parse(&r.str("error code")?),
            message: r.str("error message")?,
        })
    }
}

fn write_list<T>(w: &mut Writer, items: &[T], item: impl Fn(&mut Writer, &T)) {
    w.varint(items.len() as u64);
    for each in items {
        item(w, each);
    }
}

/// Reads a count-prefixed list, refusing a count over `cap` before
/// allocating anything.
fn read_list<T>(
    r: &mut Reader,
    what: &str,
    cap: usize,
    item: impl Fn(&mut Reader) -> Result<T, ServeError>,
) -> Result<Vec<T>, ServeError> {
    let count = r.varint(what)? as usize;
    if count > cap {
        return Err(r.bad(format!("{what} {count} exceeds cap")));
    }
    let mut items = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        items.push(item(r)?);
    }
    Ok(items)
}

// -- byte-string helpers ----------------------------------------------------

/// Lowercase hex of `bytes` — how snapshot images travel on the JSON
/// surface (the binary surface carries them raw, length-prefixed).
pub fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push(char::from_digit(u32::from(b >> 4), 16).unwrap());
        out.push(char::from_digit(u32::from(b & 0xf), 16).unwrap());
    }
    out
}

/// Inverse of [`hex_encode`]; rejects odd lengths and non-hex digits.
pub fn hex_decode(text: &str) -> Result<Vec<u8>, ServeError> {
    let bytes = text.as_bytes();
    if !bytes.len().is_multiple_of(2) {
        return Err(ServeError::invalid("hex byte string has odd length"));
    }
    let digit = |b: u8| -> Result<u8, ServeError> {
        (b as char)
            .to_digit(16)
            .map(|d| d as u8)
            .ok_or_else(|| ServeError::invalid(format!("invalid hex digit '{}'", b as char)))
    };
    bytes
        .chunks_exact(2)
        .map(|pair| Ok((digit(pair[0])? << 4) | digit(pair[1])?))
        .collect()
}

// -- field helpers ----------------------------------------------------------

fn missing(kind: &str, key: &str, ctx: &str) -> ServeError {
    ServeError::invalid(format!("{ctx} missing {kind} field '{key}'"))
}

/// The error of a composite field whose member is absent.
fn absent(key: &str) -> ServeError {
    ServeError::invalid(format!("missing '{key}'"))
}

fn json_str<'a>(v: Option<&'a Json>, key: &str, ctx: &str) -> Result<&'a str, ServeError> {
    v.and_then(Json::as_str)
        .ok_or_else(|| missing("string", key, ctx))
}

fn req_str<'a>(v: &'a Json, key: &str, ctx: &str) -> Result<&'a str, ServeError> {
    json_str(v.get(key), key, ctx)
}

fn req<T: Field>(v: &Json, key: &str, ctx: &str) -> Result<T, ServeError> {
    T::from_json(v.get(key), key, ctx)
}

/// Member `key` of `v`, or `value` when it is absent or unreadable.
fn lenient<T: Field>(v: &Json, key: &str, value: T) -> T {
    T::from_json(v.get(key), key, "").unwrap_or(value)
}

fn json_array<'a>(v: Option<&'a Json>, key: &str) -> Result<&'a [Json], ServeError> {
    v.and_then(Json::as_arr)
        .ok_or_else(|| ServeError::invalid(format!("'{key}' must be an array")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_cmd(cmd: Command) {
        let line = cmd.encode_line(Some(7));
        let (decoded, id) = Command::decode_line(&line).unwrap();
        assert_eq!(decoded, cmd, "{line}");
        assert_eq!(id, Some(7));
    }

    #[test]
    fn commands_round_trip() {
        round_trip_cmd(Command::CreateSession {
            dataset: "census".into(),
            alpha: 0.05,
            policy: PolicySpec::Fixed { gamma: 10.0 },
        });
        round_trip_cmd(Command::AddVisualization {
            session: 3,
            attribute: "education".into(),
            filter: FilterSpec::And(vec![
                FilterSpec::Cmp {
                    column: "salary_over_50k".into(),
                    op: CmpOp::Eq,
                    value: Value::Bool(true),
                },
                FilterSpec::Not(Box::new(FilterSpec::Between {
                    column: "age".into(),
                    lo: 18.0,
                    hi: 30.0,
                })),
                FilterSpec::In {
                    column: "race".into(),
                    values: vec![Value::Str("White".into()), Value::Str("Asian".into())],
                },
            ]),
        });
        round_trip_cmd(Command::SetPolicy {
            session: 2,
            policy: PolicySpec::EpsilonHybrid {
                gamma: 10.0,
                delta: 5.0,
                epsilon: 0.5,
                window: Some(8),
            },
        });
        round_trip_cmd(Command::CreateSessionAs {
            session: 123,
            dataset: "census".into(),
            alpha: 0.05,
            policy: PolicySpec::Fixed { gamma: 10.0 },
        });
        round_trip_cmd(Command::ExportSession { session: 5 });
        round_trip_cmd(Command::ImportSession {
            session: 5,
            image: vec![0x00, 0x7f, 0xff, 0x41],
        });
        round_trip_cmd(Command::ListDatasets);
        round_trip_cmd(Command::JoinShard {
            addr: "10.0.0.7:7878".into(),
        });
        round_trip_cmd(Command::LeaveShard {
            addr: "10.0.0.7:7878".into(),
        });
        round_trip_cmd(Command::Gauge { session: 1 });
        round_trip_cmd(Command::Transcript {
            session: 1,
            format: TranscriptFormat::Text,
        });
        round_trip_cmd(Command::CloseSession { session: 9 });
        round_trip_cmd(Command::Stats);
        round_trip_cmd(Command::ReplicateSession {
            session: 5,
            epoch: 12,
            image: vec![0x41, 0x57, 0x52, 0x53, 0x02],
        });
        round_trip_cmd(Command::PromoteReplica { session: 5 });
        round_trip_cmd(Command::DropReplica { session: 5 });
        round_trip_cmd(Command::SnapshotSession { session: 5 });
        round_trip_cmd(Command::ListSessions);
        round_trip_cmd(Command::Gossip {
            from: "127.0.0.1:7878".into(),
            generation: 4,
            members: vec![
                MemberInfo {
                    addr: "127.0.0.1:7001".into(),
                    status: MemberStatus::Alive,
                    incarnation: 3,
                },
                MemberInfo {
                    addr: "127.0.0.1:7002".into(),
                    status: MemberStatus::Suspect,
                    incarnation: 0,
                },
            ],
        });
    }

    #[test]
    fn responses_round_trip() {
        for resp in [
            Response::SessionCreated {
                session: 1,
                wealth: 0.0475,
                policy: "γ-fixed(γ=10)".into(),
            },
            Response::VizAdded {
                session: 1,
                viz: 0,
                wealth: 0.0475,
                hypothesis: None,
            },
            Response::VizAdded {
                session: 1,
                viz: 1,
                wealth: 0.09,
                hypothesis: Some(HypothesisReport {
                    id: 0,
                    test: "chi-square-independence".into(),
                    statistic: 223.4,
                    p_value: 1e-9,
                    bid: 0.004,
                    rejected: true,
                    effect_size: 0.21,
                    support_fraction: 1.0,
                    wealth_after: 0.09,
                }),
            },
            Response::PolicySet {
                session: 1,
                policy: "δ-hopeful(δ=5)".into(),
            },
            Response::GaugeText {
                session: 1,
                text: "┌─ AWARE risk gauge ─┐\n│ …".into(),
            },
            Response::TranscriptText {
                session: 1,
                format: TranscriptFormat::Csv,
                text: "hypothesis,status\nH0,tested\n".into(),
            },
            Response::SessionClosed {
                session: 1,
                hypotheses: 4,
                discoveries: 2,
            },
            Response::SessionExported {
                session: 3,
                image: vec![0x41, 0x57, 0x52, 0x53, 0x02],
            },
            Response::SessionImported {
                session: 3,
                wealth: 0.0475,
            },
            Response::Datasets {
                datasets: vec![DatasetInfo {
                    name: "census".into(),
                    rows: 20_000,
                    fingerprint: 0xdead_beef_0bad_cafe,
                }],
                next_session: 17,
            },
            Response::Rebalanced {
                addr: "127.0.0.1:7879".into(),
                joined: false,
                migrated: 2,
            },
            Response::SessionReplicated {
                session: 5,
                epoch: 12,
            },
            Response::ReplicaPromoted {
                session: 5,
                epoch: 12,
                wealth: 0.0375,
            },
            Response::ReplicaDropped { session: 5 },
            Response::Sessions {
                sessions: vec![
                    SessionEntry {
                        session: 3,
                        replica: false,
                        epoch: 0,
                    },
                    SessionEntry {
                        session: 9,
                        replica: true,
                        epoch: 7,
                    },
                ],
            },
            Response::GossipView {
                generation: 4,
                members: vec![MemberInfo {
                    addr: "127.0.0.1:7001".into(),
                    status: MemberStatus::Dead,
                    incarnation: 9,
                }],
            },
            Response::Stats(Box::new(StatsSnapshot {
                sessions_created: 10,
                commands: 55,
                forwarded: 1_000,
                migrations: 7,
                shard_errors: 2,
                replicas_live: 9,
                replication_lag_max_epochs: 1,
                promotions: 2,
                hedged_reads: 140,
                shards: vec![
                    ShardHealth {
                        addr: "127.0.0.1:7001".into(),
                        healthy: true,
                        sessions_live: 12,
                        forwarded: 600,
                        errors: 0,
                    },
                    ShardHealth {
                        addr: "127.0.0.1:7002".into(),
                        healthy: false,
                        sessions_live: 0,
                        forwarded: 400,
                        errors: 2,
                    },
                ],
                ..Default::default()
            })),
            Response::Error(ServeError {
                code: ErrorCode::UnknownSession,
                message: "no session 99".into(),
            }),
        ] {
            let line = resp.encode_line(Some(42));
            let (decoded, id) = Response::decode_line(&line).unwrap();
            assert_eq!(decoded, resp, "{line}");
            assert_eq!(id, Some(42));
        }
    }

    /// Walks the declared table: scalar *i*, alone set to a distinct
    /// value, must survive both codecs under its own name, decode as
    /// strictly as declared, merge by its declared rule, and appear on
    /// the exposition under its declared family and type.
    #[test]
    fn every_declared_scalar_round_trips_merges_and_exposes_as_declared() {
        assert_eq!(SCALARS[Stat::cache_hits as usize].name, "cache_hits");
        assert_eq!(Stat::drr_deferrals as usize, Stat::COUNT - 1);
        for (i, def) in SCALARS.iter().enumerate() {
            let value = 1_000 + i as u64;
            let mut stats = StatsSnapshot::default();
            *stats.scalars_mut()[i] = value;
            let reply = Reply::Single {
                id: Some(1),
                response: Response::Stats(Box::new(stats.clone())),
            };

            let line = reply.encode_line();
            let pair = format!("\"{}\":{value},", def.name);
            assert!(line.contains(&pair), "{line}");
            assert_eq!(Reply::decode_line(&line).as_ref(), Ok(&reply));
            let payload = crate::wire::encode_reply(&reply);
            assert_eq!(crate::wire::decode_reply(&payload).as_ref(), Ok(&reply));

            let without = Reply::decode_line(&line.replace(&pair, ""));
            match def.decode {
                Decode::Required => assert!(without.is_err(), "{} is required", def.name),
                Decode::Lenient => {
                    let zeroed = Reply::Single {
                        id: Some(1),
                        response: Response::Stats(Box::default()),
                    };
                    assert_eq!(without, Ok(zeroed), "{} is lenient", def.name);
                }
            }

            for ours in [7, 5_000] {
                let mut total = StatsSnapshot::default();
                *total.scalars_mut()[i] = ours;
                total.merge(&stats);
                let expected = match def.merge {
                    Merge::Sum => ours + value,
                    Merge::Max => ours.max(value),
                    Merge::RouterOwned => ours,
                };
                assert_eq!(total.scalars()[i], expected, "{} merge", def.name);
            }

            let mut render = aware_obs::expose::TextRender::new();
            render.scalars(&SCALARS, &stats.scalars());
            let body = render.finish();
            let kind = match def.kind {
                Kind::Counter => "counter",
                Kind::Gauge => "gauge",
                Kind::Hidden => {
                    assert!(!body.contains(&value.to_string()), "{} is hidden", def.name);
                    continue;
                }
            };
            let family = def.family().expect("a shown scalar has a family");
            assert!(family.contains(def.name), "{family}");
            assert!(
                body.contains(&format!("# TYPE {family} {kind}\n")),
                "{body}"
            );
            assert!(body.contains(&format!("\n{family} {value}\n")), "{body}");
        }
    }

    #[test]
    fn replication_stats_fields_decode_leniently() {
        // A stats reply from a pre-replication server omits the four
        // replication scalars entirely; the lenient decode pins them
        // to 0 rather than erroring — the JSON half of the fifth
        // no-version-bump extension.
        let old = Response::Stats(Box::new(StatsSnapshot {
            sessions_created: 3,
            commands: 12,
            ..Default::default()
        }));
        let mut line = old.encode_line(None);
        for field in [
            "\"replicas_live\":0,",
            "\"replication_lag_max_epochs\":0,",
            "\"promotions\":0,",
            "\"hedged_reads\":0,",
        ] {
            assert!(line.contains(field), "{line}");
            line = line.replace(field, "");
        }
        let (decoded, _) = Response::decode_line(&line).unwrap();
        assert_eq!(decoded, old, "missing replication fields decode as 0");

        // And a reply that carries them round-trips bit-for-bit.
        let new = Response::Stats(Box::new(StatsSnapshot {
            replicas_live: 4,
            replication_lag_max_epochs: 2,
            promotions: 1,
            hedged_reads: 77,
            ..Default::default()
        }));
        let (decoded, _) = Response::decode_line(&new.encode_line(None)).unwrap();
        assert_eq!(decoded, new);
    }

    #[test]
    fn resilience_stats_fields_decode_leniently() {
        // The JSON half of the sixth no-version-bump extension: a stats
        // reply from a pre-resilience server omits the deadline/breaker
        // scalars entirely; the lenient decode pins them to 0.
        let old = Response::Stats(Box::new(StatsSnapshot {
            sessions_created: 3,
            commands: 12,
            ..Default::default()
        }));
        let mut line = old.encode_line(None);
        for field in [
            "\"shard_timeouts\":0,",
            "\"breaker_opens\":0,",
            "\"breaker_shed\":0,",
        ] {
            assert!(line.contains(field), "{line}");
            line = line.replace(field, "");
        }
        let (decoded, _) = Response::decode_line(&line).unwrap();
        assert_eq!(decoded, old, "missing resilience fields decode as 0");

        // And a reply that carries them round-trips bit-for-bit.
        let new = Response::Stats(Box::new(StatsSnapshot {
            shard_timeouts: 21,
            breaker_opens: 3,
            breaker_shed: 450,
            ..Default::default()
        }));
        let (decoded, _) = Response::decode_line(&new.encode_line(None)).unwrap();
        assert_eq!(decoded, new);
    }

    #[test]
    fn policy_specs_build_real_policies() {
        assert_eq!(
            PolicySpec::Fixed { gamma: 10.0 }.build().unwrap().name(),
            "γ-fixed(γ=10)"
        );
        assert!(PolicySpec::Farsighted { beta: 0.5 }.build().is_ok());
        assert!(PolicySpec::Farsighted { beta: 1.5 }.build().is_err());
        assert!(PolicySpec::Hopeful { delta: 2.0 }.build().is_ok());
        assert!(PolicySpec::PsiSupport {
            gamma: 10.0,
            psi: 0.5
        }
        .build()
        .is_ok());
        assert!(PolicySpec::PsiSupport {
            gamma: 10.0,
            psi: -0.5
        }
        .build()
        .is_err());
        assert!(PolicySpec::EpsilonHybrid {
            gamma: 10.0,
            delta: 5.0,
            epsilon: 2.0,
            window: None
        }
        .build()
        .is_err());
    }

    #[test]
    fn filters_lower_to_predicates() {
        let f = FilterSpec::Not(Box::new(FilterSpec::Cmp {
            column: "sex".into(),
            op: CmpOp::Eq,
            value: Value::Str("Male".into()),
        }));
        assert_eq!(f.to_predicate(), Predicate::eq("sex", "Male").negate());
        assert_eq!(FilterSpec::True.to_predicate(), Predicate::True);
    }

    /// One draw in `0..n` from a splitmix64 stream.
    fn draw(state: &mut u64, n: u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }

    /// A random filter tree of at most `depth` nested levels, every
    /// node kind and value type included (the proptest shim has no
    /// recursive strategies, so the tree is drawn from a seed).
    fn random_filter(state: &mut u64, depth: u32) -> FilterSpec {
        let column = ["sex", "age", "ấge😀", ""][draw(state, 4) as usize].to_string();
        let value = match draw(state, 4) {
            0 => Value::Int(draw(state, 1 << 40) as i64 - (1 << 39)),
            1 => Value::Float(draw(state, 1 << 20) as f64 / 7.0 - 1e5),
            2 => Value::Bool(draw(state, 2) == 1),
            _ => Value::Str(["Male", "Ph,D \"x\"", "", "😀"][draw(state, 4) as usize].into()),
        };
        let parts = |state: &mut u64| -> Vec<FilterSpec> {
            (0..draw(state, 4))
                .map(|_| random_filter(state, depth - 1))
                .collect()
        };
        match draw(state, if depth == 0 { 4 } else { 7 }) {
            0 => FilterSpec::True,
            1 => FilterSpec::Cmp {
                column,
                op: [CmpOp::Eq, CmpOp::Neq, CmpOp::Lt, CmpOp::Ge][draw(state, 4) as usize],
                value,
            },
            2 => FilterSpec::In {
                column,
                values: vec![value; draw(state, 3) as usize],
            },
            3 => FilterSpec::Between {
                column,
                lo: -(draw(state, 100) as f64) / 4.0,
                hi: draw(state, 100) as f64 * 1.5,
            },
            4 => FilterSpec::Not(Box::new(random_filter(state, depth - 1))),
            5 => FilterSpec::And(parts(state)),
            _ => FilterSpec::Or(parts(state)),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The by-move lowering the snapshot decoder uses builds the
        /// very predicate the cloning one does, and both invert
        /// `from_predicate`.
        #[test]
        fn into_predicate_equals_to_predicate(seed in 0u64..u64::MAX) {
            let mut state = seed;
            let spec = random_filter(&mut state, 3);
            let cloned = spec.to_predicate();
            proptest::prop_assert_eq!(FilterSpec::from_predicate(&cloned), spec.clone());
            proptest::prop_assert_eq!(spec.into_predicate(), cloned);
        }
    }

    #[test]
    fn malformed_requests_are_rejected() {
        assert!(Command::decode_line("not json").is_err());
        assert!(Command::decode_line("{\"cmd\":\"warp\"}").is_err());
        assert!(
            Command::decode_line("{\"cmd\":\"gauge\"}").is_err(),
            "missing session"
        );
        assert!(Command::decode_line(
            "{\"cmd\":\"create_session\",\"dataset\":\"x\",\"alpha\":0.05,\
             \"policy\":{\"kind\":\"nope\"}}"
        )
        .is_err());
    }

    #[test]
    fn a_session_of_two_to_the_64_is_refused() {
        // 2^64 is not u64::MAX, the router's session-free route key.
        let err = Command::decode_line("{\"cmd\":\"gauge\",\"session\":18446744073709551616}")
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::InvalidArgument);
        assert_eq!(err.message, "request missing integer field 'session'");
    }

    #[test]
    fn missing_filter_defaults_to_unfiltered() {
        let (cmd, _) = Command::decode_line(
            "{\"cmd\":\"add_visualization\",\"session\":0,\"attribute\":\"sex\"}",
        )
        .unwrap();
        assert_eq!(
            cmd,
            Command::AddVisualization {
                session: 0,
                attribute: "sex".into(),
                filter: FilterSpec::True
            }
        );
    }
}
