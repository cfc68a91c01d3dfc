//! The golden message corpus: one sample of every command and response
//! tag, plus hellos, acks, a batch and a batch reply, each in both
//! encodings, captured from the hand-written per-message codecs before
//! they were replaced by one declared message table. The fixtures under
//! `tests/fixtures/message-corpus/` are never regenerated:
//!
//! * `requests.ndjson` / `replies.ndjson` hold one JSON line per sample,
//!   in sample order;
//! * `requests.awr2` / `replies.awr2` hold one `AWR2` frame per sample;
//! * `mutations.tsv` pins how the decoders treat damaged samples. A JSON
//!   mutation deletes one object member, or replaces its value with
//!   `null`, `true`, `"x"`, `1.5`, `7`, `[]` or `{}`; it reaches top-level
//!   members and the members of objects one level down (the first element
//!   of an array counts). A binary mutation cuts the payload short, or
//!   overwrites one byte with `0xff` or `0x00`. Each row names the sample,
//!   the mutation and the outcome: `ok` with an FNV-1a hash of the decoded
//!   value's re-encoding on the same surface, or `err` with the error code
//!   and message. A JSON reply's rejection records its code alone: a
//!   client branches on the code, and the reply decoder words some
//!   messages differently since the codecs are generated.
//!
//! Every sample must encode to its fixture bytes and decode from them to
//! itself on both surfaces, and every mutation must keep its outcome.

use aware_data::predicate::CmpOp;
use aware_data::value::Value;
use aware_serve::frame::{self, FrameRead, MAX_FRAME_BYTES};
use aware_serve::json::Json;
use aware_serve::proto::{
    Batch, BatchItem, BatchMode, Command, DatasetInfo, Encoding, Envelope, FilterSpec,
    HypothesisReport, MemberInfo, MemberStatus, PolicySpec, PushEvent, Reply, Response,
    SessionEntry, SessionRisk, ShardHealth, StatsSnapshot, TranscriptFormat, COMMAND_KINDS,
    PROTOCOL_VERSION,
};
use aware_serve::{wire, ErrorCode, ServeError};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/message-corpus")
}

fn single(id: u64, cmd: Command) -> Envelope {
    Envelope::Single { id: Some(id), cmd }
}

fn answer(id: u64, response: Response) -> Reply {
    Reply::Single {
        id: Some(id),
        response,
    }
}

/// A filter with every node kind, every comparison and every value type.
fn every_filter_node() -> FilterSpec {
    let cmp = |op, value| FilterSpec::Cmp {
        column: "age".into(),
        op,
        value,
    };
    FilterSpec::And(vec![
        FilterSpec::True,
        cmp(CmpOp::Eq, Value::Str("Bachelors".into())),
        cmp(CmpOp::Neq, Value::Bool(false)),
        cmp(CmpOp::Lt, Value::Int(-40)),
        cmp(CmpOp::Le, Value::Float(17.5)),
        cmp(CmpOp::Gt, Value::Int(3)),
        cmp(CmpOp::Ge, Value::Float(-0.25)),
        FilterSpec::In {
            column: "race".into(),
            values: vec![Value::Str("é😀".into()), Value::Int(2), Value::Bool(true)],
        },
        FilterSpec::Not(Box::new(FilterSpec::Between {
            column: "hours".into(),
            lo: 1.5,
            hi: 60.25,
        })),
        FilterSpec::Or(vec![
            FilterSpec::In {
                column: "sex".into(),
                values: vec![],
            },
            FilterSpec::Not(Box::new(FilterSpec::True)),
        ]),
    ])
}

fn members() -> Vec<MemberInfo> {
    vec![
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
        MemberInfo {
            addr: "127.0.0.1:7003".into(),
            status: MemberStatus::Dead,
            incarnation: 9,
        },
    ]
}

fn requests() -> Vec<(&'static str, Envelope)> {
    let epsilon = |window| PolicySpec::EpsilonHybrid {
        gamma: 10.0,
        delta: 5.0,
        epsilon: 0.5,
        window,
    };
    vec![
        (
            "hello",
            Envelope::Hello {
                id: Some(1),
                version: PROTOCOL_VERSION,
                encoding: Encoding::Binary,
                push: false,
            },
        ),
        (
            "hello-push",
            Envelope::Hello {
                id: None,
                version: PROTOCOL_VERSION,
                encoding: Encoding::Json,
                push: true,
            },
        ),
        (
            "create-session",
            single(
                2,
                Command::CreateSession {
                    dataset: "census".into(),
                    alpha: 0.05,
                    policy: PolicySpec::Fixed { gamma: 10.0 },
                },
            ),
        ),
        (
            "create-session-as",
            single(
                3,
                Command::CreateSessionAs {
                    session: 9_000,
                    dataset: "census".into(),
                    alpha: 0.1,
                    policy: PolicySpec::Farsighted { beta: 0.25 },
                },
            ),
        ),
        (
            "add-visualization",
            single(
                4,
                Command::AddVisualization {
                    session: 7,
                    attribute: "education".into(),
                    filter: every_filter_node(),
                },
            ),
        ),
        (
            "add-visualization-unfiltered",
            single(
                5,
                Command::AddVisualization {
                    session: 7,
                    attribute: "sex".into(),
                    filter: FilterSpec::True,
                },
            ),
        ),
        (
            "set-policy-hopeful",
            single(
                6,
                Command::SetPolicy {
                    session: 7,
                    policy: PolicySpec::Hopeful { delta: 5.5 },
                },
            ),
        ),
        (
            "set-policy-epsilon-window",
            single(
                7,
                Command::SetPolicy {
                    session: 7,
                    policy: epsilon(Some(8)),
                },
            ),
        ),
        (
            "set-policy-epsilon",
            single(
                8,
                Command::SetPolicy {
                    session: 7,
                    policy: epsilon(None),
                },
            ),
        ),
        (
            "set-policy-psi",
            single(
                9,
                Command::SetPolicy {
                    session: 7,
                    policy: PolicySpec::PsiSupport {
                        gamma: 10.0,
                        psi: 0.5,
                    },
                },
            ),
        ),
        ("gauge", single(10, Command::Gauge { session: 7 })),
        (
            "transcript-csv",
            single(
                11,
                Command::Transcript {
                    session: 7,
                    format: TranscriptFormat::Csv,
                },
            ),
        ),
        (
            "transcript-text",
            single(
                12,
                Command::Transcript {
                    session: 7,
                    format: TranscriptFormat::Text,
                },
            ),
        ),
        (
            "close-session",
            single(13, Command::CloseSession { session: 7 }),
        ),
        (
            "export-session",
            single(14, Command::ExportSession { session: 7 }),
        ),
        (
            "import-session",
            single(
                15,
                Command::ImportSession {
                    session: 7,
                    image: vec![0x41, 0x57, 0x52, 0x53, 0x00, 0xff],
                },
            ),
        ),
        ("list-datasets", single(16, Command::ListDatasets)),
        (
            "join-shard",
            single(
                17,
                Command::JoinShard {
                    addr: "10.0.0.7:7878".into(),
                },
            ),
        ),
        (
            "leave-shard",
            single(
                18,
                Command::LeaveShard {
                    addr: "10.0.0.8:7878".into(),
                },
            ),
        ),
        ("stats", single(19, Command::Stats)),
        (
            "replicate-session",
            single(
                20,
                Command::ReplicateSession {
                    session: 7,
                    epoch: 300,
                    image: vec![0x41, 0x57, 0x52, 0x53, 0x02],
                },
            ),
        ),
        (
            "promote-replica",
            single(21, Command::PromoteReplica { session: 7 }),
        ),
        (
            "drop-replica",
            single(22, Command::DropReplica { session: 7 }),
        ),
        (
            "snapshot-session",
            single(23, Command::SnapshotSession { session: 7 }),
        ),
        ("list-sessions", single(24, Command::ListSessions)),
        (
            "gossip",
            single(
                25,
                Command::Gossip {
                    from: "127.0.0.1:7878".into(),
                    generation: 12,
                    members: members(),
                },
            ),
        ),
        (
            "single-without-id",
            Envelope::Single {
                id: None,
                cmd: Command::Gauge { session: 3 },
            },
        ),
        (
            "batch",
            Envelope::Batch {
                id: Some(26),
                batch: Batch {
                    mode: BatchMode::FailFast,
                    items: vec![
                        BatchItem {
                            id: Some(0),
                            cmd: Command::Gauge { session: 1 },
                        },
                        BatchItem {
                            id: None,
                            cmd: Command::SetPolicy {
                                session: 1,
                                policy: PolicySpec::Fixed { gamma: 4.0 },
                            },
                        },
                        BatchItem {
                            id: Some(2),
                            cmd: Command::Transcript {
                                session: 1,
                                format: TranscriptFormat::Text,
                            },
                        },
                    ],
                },
            },
        ),
        (
            "batch-continue",
            Envelope::Batch {
                id: None,
                batch: Batch {
                    mode: BatchMode::Continue,
                    items: vec![BatchItem {
                        id: Some(1),
                        cmd: Command::Stats,
                    }],
                },
            },
        ),
    ]
}

fn hypothesis() -> HypothesisReport {
    HypothesisReport {
        id: 4,
        test: "chi-square-independence".into(),
        statistic: 223.4,
        p_value: 4.9e-324,
        bid: 0.004,
        rejected: true,
        effect_size: 0.21,
        support_fraction: 0.75,
        wealth_after: 0.0915,
    }
}

fn stats() -> StatsSnapshot {
    let mut stats = StatsSnapshot::default();
    for (i, slot) in stats.scalars_mut().into_iter().enumerate() {
        *slot = 1_000 + i as u64;
    }
    stats.batch_size_hist = [5, 4, 3, 2, 1];
    stats.shards = vec![
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
    ];
    stats.sessions = vec![SessionRisk {
        session: 7,
        dataset: "census".into(),
        wealth: 0.0375,
        tests_run: 9,
        discoveries: 2,
        risk_spent: 0.0125,
    }];
    stats
}

fn replies() -> Vec<(&'static str, Reply)> {
    vec![
        (
            "hello-ack",
            Reply::HelloAck {
                id: Some(1),
                version: PROTOCOL_VERSION,
                encoding: Encoding::Binary,
                max_frame: 8 << 20,
                push: false,
            },
        ),
        (
            "hello-ack-push",
            Reply::HelloAck {
                id: None,
                version: PROTOCOL_VERSION,
                encoding: Encoding::Json,
                max_frame: 8 << 20,
                push: true,
            },
        ),
        (
            "session-created",
            answer(
                2,
                Response::SessionCreated {
                    session: 7,
                    wealth: 0.0475,
                    policy: "γ-fixed(γ=10)".into(),
                },
            ),
        ),
        (
            "viz-added",
            answer(
                3,
                Response::VizAdded {
                    session: 7,
                    viz: 0,
                    wealth: 0.0475,
                    hypothesis: None,
                },
            ),
        ),
        (
            "viz-added-hypothesis",
            answer(
                4,
                Response::VizAdded {
                    session: 7,
                    viz: 1,
                    wealth: 0.0915,
                    hypothesis: Some(hypothesis()),
                },
            ),
        ),
        (
            "policy-set",
            answer(
                5,
                Response::PolicySet {
                    session: 7,
                    policy: "δ-hopeful(δ=5)".into(),
                },
            ),
        ),
        (
            "gauge-text",
            answer(
                6,
                Response::GaugeText {
                    session: 7,
                    text: "┌─ AWARE risk gauge ─┐\n│ \"wealth\" 0.04\t…".into(),
                },
            ),
        ),
        (
            "transcript-csv",
            answer(
                7,
                Response::TranscriptText {
                    session: 7,
                    format: TranscriptFormat::Csv,
                    text: "hypothesis,status\nH0,tested\n".into(),
                },
            ),
        ),
        (
            "transcript-text",
            answer(
                8,
                Response::TranscriptText {
                    session: 7,
                    format: TranscriptFormat::Text,
                    text: "AWARE session 7\n".into(),
                },
            ),
        ),
        (
            "session-closed",
            answer(
                9,
                Response::SessionClosed {
                    session: 7,
                    hypotheses: 4,
                    discoveries: 2,
                },
            ),
        ),
        ("stats", answer(10, Response::Stats(Box::new(stats())))),
        (
            "error",
            answer(
                11,
                Response::Error(ServeError {
                    code: ErrorCode::UnknownSession,
                    message: "no session 99 (never created, closed, or evicted)".into(),
                }),
            ),
        ),
        (
            "session-exported",
            answer(
                12,
                Response::SessionExported {
                    session: 7,
                    image: vec![0x41, 0x57, 0x52, 0x53, 0x00, 0xff],
                },
            ),
        ),
        (
            "session-imported",
            answer(
                13,
                Response::SessionImported {
                    session: 7,
                    wealth: 0.0475,
                },
            ),
        ),
        (
            "datasets",
            answer(
                14,
                Response::Datasets {
                    datasets: vec![
                        DatasetInfo {
                            name: "census".into(),
                            rows: 20_000,
                            fingerprint: 0xdead_beef_0bad_cafe,
                        },
                        DatasetInfo {
                            name: "retail".into(),
                            rows: 3,
                            fingerprint: 0,
                        },
                    ],
                    next_session: 17,
                },
            ),
        ),
        (
            "rebalanced",
            answer(
                15,
                Response::Rebalanced {
                    addr: "127.0.0.1:7879".into(),
                    joined: true,
                    migrated: 12,
                },
            ),
        ),
        (
            "session-replicated",
            answer(
                16,
                Response::SessionReplicated {
                    session: 7,
                    epoch: 300,
                },
            ),
        ),
        (
            "replica-promoted",
            answer(
                17,
                Response::ReplicaPromoted {
                    session: 7,
                    epoch: 300,
                    wealth: 0.0375,
                },
            ),
        ),
        (
            "replica-dropped",
            answer(18, Response::ReplicaDropped { session: 7 }),
        ),
        (
            "sessions",
            answer(
                19,
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
            ),
        ),
        (
            "gossip-view",
            answer(
                20,
                Response::GossipView {
                    generation: 12,
                    members: members(),
                },
            ),
        ),
        (
            "push-session-evicted",
            answer(
                0,
                Response::Push(PushEvent::SessionEvicted {
                    session: 7,
                    reason: "idle".into(),
                }),
            ),
        ),
        (
            "push-cache-reset",
            answer(
                0,
                Response::Push(PushEvent::CacheReset {
                    dataset: "census".into(),
                }),
            ),
        ),
        (
            "single-without-id",
            Reply::Single {
                id: None,
                response: Response::ReplicaDropped { session: 3 },
            },
        ),
        (
            "batch-reply",
            Reply::Batch {
                id: Some(26),
                items: vec![
                    (
                        Some(0),
                        Response::GaugeText {
                            session: 1,
                            text: "gauge".into(),
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
                        Response::PolicySet {
                            session: 1,
                            policy: "γ-fixed(γ=4)".into(),
                        },
                    ),
                ],
            },
        ),
    ]
}

/// The binary `stats` payload carries only the scalars and the batch-size
/// histogram; the per-shard and per-session rows ride JSON alone.
fn binary_view(reply: &Reply) -> Reply {
    let strip = |response: &Response| match response {
        Response::Stats(stats) => Response::Stats(Box::new(StatsSnapshot {
            shards: Vec::new(),
            sessions: Vec::new(),
            ..(**stats).clone()
        })),
        other => other.clone(),
    };
    match reply {
        Reply::Single { id, response } => Reply::Single {
            id: *id,
            response: strip(response),
        },
        Reply::Batch { id, items } => Reply::Batch {
            id: *id,
            items: items.iter().map(|(i, r)| (*i, strip(r))).collect(),
        },
        other => other.clone(),
    }
}

/// The corpus's name for a response's variant; a new variant fails to
/// compile here until it has a sample.
fn response_kind(response: &Response) -> &'static str {
    match response {
        Response::SessionCreated { .. } => "session_created",
        Response::VizAdded { .. } => "viz_added",
        Response::PolicySet { .. } => "policy_set",
        Response::GaugeText { .. } => "gauge_text",
        Response::TranscriptText { .. } => "transcript_text",
        Response::SessionClosed { .. } => "session_closed",
        Response::SessionExported { .. } => "session_exported",
        Response::SessionImported { .. } => "session_imported",
        Response::Datasets { .. } => "datasets",
        Response::Rebalanced { .. } => "rebalanced",
        Response::SessionReplicated { .. } => "session_replicated",
        Response::ReplicaPromoted { .. } => "replica_promoted",
        Response::ReplicaDropped { .. } => "replica_dropped",
        Response::Sessions { .. } => "sessions",
        Response::GossipView { .. } => "gossip_view",
        Response::Stats(_) => "stats",
        Response::Push(_) => "push",
        Response::Error(_) => "error",
    }
}

fn read_lines(name: &str) -> Vec<String> {
    std::fs::read_to_string(fixtures().join(name))
        .unwrap_or_else(|e| panic!("{name}: {e}"))
        .lines()
        .map(str::to_string)
        .collect()
}

fn read_frames(name: &str) -> Vec<Vec<u8>> {
    let bytes = std::fs::read(fixtures().join(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
    let mut cursor = std::io::Cursor::new(bytes);
    let mut frames = Vec::new();
    loop {
        match frame::read_frame(&mut cursor, MAX_FRAME_BYTES).expect("fixture frame") {
            FrameRead::Frame(payload) => frames.push(payload),
            FrameRead::Eof => return frames,
            other => panic!("{name}: {other:?}"),
        }
    }
}

#[test]
fn every_command_and_response_tag_has_a_sample() {
    let commands: BTreeSet<&str> = requests()
        .iter()
        .flat_map(|(_, envelope)| match envelope {
            Envelope::Single { cmd, .. } => vec![cmd.name()],
            Envelope::Batch { batch, .. } => batch.items.iter().map(|i| i.cmd.name()).collect(),
            Envelope::Hello { .. } => vec![],
        })
        .collect();
    assert_eq!(commands.len(), 19);
    assert_eq!(commands, COMMAND_KINDS.into_iter().collect());
    let responses: BTreeSet<&str> = replies()
        .iter()
        .flat_map(|(_, reply)| match reply {
            Reply::Single { response, .. } => vec![response_kind(response)],
            Reply::Batch { items, .. } => items.iter().map(|(_, r)| response_kind(r)).collect(),
            Reply::HelloAck { .. } => vec![],
        })
        .collect();
    assert_eq!(responses.len(), 18);
}

#[test]
fn requests_match_the_parent_captured_bytes_on_both_surfaces() {
    let samples = requests();
    let lines = read_lines("requests.ndjson");
    let frames = read_frames("requests.awr2");
    assert_eq!(lines.len(), samples.len());
    assert_eq!(frames.len(), samples.len());
    for (((name, envelope), line), payload) in samples.iter().zip(&lines).zip(&frames) {
        assert_eq!(&envelope.encode_line(), line, "{name}: JSON encode");
        assert_eq!(
            Envelope::decode_line(line).as_ref(),
            Ok(envelope),
            "{name}: JSON decode"
        );
        assert_eq!(
            &wire::encode_envelope(envelope),
            payload,
            "{name}: AWR2 encode"
        );
        assert_eq!(
            wire::decode_envelope(payload).as_ref(),
            Ok(envelope),
            "{name}: AWR2 decode"
        );
    }
}

#[test]
fn replies_match_the_parent_captured_bytes_on_both_surfaces() {
    let samples = replies();
    let lines = read_lines("replies.ndjson");
    let frames = read_frames("replies.awr2");
    assert_eq!(lines.len(), samples.len());
    assert_eq!(frames.len(), samples.len());
    for (((name, reply), line), payload) in samples.iter().zip(&lines).zip(&frames) {
        assert_eq!(&reply.encode_line(), line, "{name}: JSON encode");
        assert_eq!(
            Reply::decode_line(line).as_ref(),
            Ok(reply),
            "{name}: JSON decode"
        );
        assert_eq!(&wire::encode_reply(reply), payload, "{name}: AWR2 encode");
        assert_eq!(
            wire::decode_reply(payload),
            Ok(binary_view(reply)),
            "{name}: AWR2 decode"
        );
    }
}

// -- mutations --------------------------------------------------------------

#[derive(Clone, Copy, PartialEq)]
enum Surface {
    JsonRequest,
    JsonReply,
    BinaryRequest,
    BinaryReply,
}

impl Surface {
    fn parse(s: &str) -> Surface {
        match s {
            "json-request" => Surface::JsonRequest,
            "json-reply" => Surface::JsonReply,
            "binary-request" => Surface::BinaryRequest,
            "binary-reply" => Surface::BinaryReply,
            other => panic!("unknown surface {other:?}"),
        }
    }

    /// Decodes `input` and renders the outcome as the fixture spells it.
    fn outcome(self, input: &[u8]) -> String {
        let text = || std::str::from_utf8(input).expect("JSON input is UTF-8");
        let reencoded = match self {
            Surface::JsonRequest => {
                Envelope::decode_line(text()).map(|e| e.encode_line().into_bytes())
            }
            Surface::JsonReply => Reply::decode_line(text()).map(|r| r.encode_line().into_bytes()),
            Surface::BinaryRequest => {
                wire::decode_envelope(input).map(|e| wire::encode_envelope(&e))
            }
            Surface::BinaryReply => wire::decode_reply(input).map(|r| wire::encode_reply(&r)),
        };
        match reencoded {
            Ok(bytes) => format!("ok\t{:016x}", fnv1a(&bytes)),
            Err(e) if self == Surface::JsonReply => format!("err\t{}", e.code.as_str()),
            Err(e) => format!("err\t{}\t{}", e.code.as_str(), e.message),
        }
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The replacement values of a JSON mutation, by name.
fn replacement(name: &str) -> Json {
    match name {
        "null" => Json::Null,
        "true" => Json::Bool(true),
        "str" => Json::Str("x".into()),
        "frac" => Json::Num(1.5),
        "int" => Json::Num(7.0),
        "arr" => Json::Arr(vec![]),
        "obj" => Json::Obj(vec![]),
        other => panic!("unknown replacement {other:?}"),
    }
}

/// Applies `op` (`del` or a replacement name) to the member at the
/// dot-separated `path`; a numeric segment indexes an array.
fn mutate(json: &mut Json, path: &str, op: &str) {
    let (head, rest) = match path.split_once('.') {
        Some((head, rest)) => (head, Some(rest)),
        None => (path, None),
    };
    match (json, rest) {
        (Json::Arr(items), Some(rest)) => {
            mutate(&mut items[head.parse::<usize>().unwrap()], rest, op)
        }
        (Json::Obj(pairs), rest) => {
            let at = pairs
                .iter()
                .position(|(k, _)| k == head)
                .expect("path member");
            match (rest, op) {
                (Some(rest), _) => mutate(&mut pairs[at].1, rest, op),
                (None, "del") => {
                    pairs.remove(at);
                }
                (None, op) => pairs[at].1 = replacement(op),
            }
        }
        _ => panic!("path {path:?} leaves the document"),
    }
}

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect()
}

/// The damaged input a mutation row describes.
fn mutated_input(surface: Surface, original: &[u8], mutation: &str) -> Vec<u8> {
    match surface {
        Surface::JsonRequest | Surface::JsonReply => {
            let (path, op) = mutation.rsplit_once(' ').expect("PATH OP");
            let mut json = Json::parse(std::str::from_utf8(original).unwrap()).unwrap();
            mutate(&mut json, path, op);
            json.to_string().into_bytes()
        }
        Surface::BinaryRequest | Surface::BinaryReply => {
            let words: Vec<&str> = mutation.split(' ').collect();
            match words[..] {
                ["cut", at] => original[..at.parse::<usize>().unwrap()].to_vec(),
                ["set", at, byte] => {
                    let mut bytes = original.to_vec();
                    bytes[at.parse::<usize>().unwrap()] = unhex(byte)[0];
                    bytes
                }
                _ => panic!("unknown binary mutation {mutation:?}"),
            }
        }
    }
}

/// Each sample's fixture bytes on `surface`, by sample name.
fn originals(surface: Surface) -> Vec<(&'static str, Vec<u8>)> {
    let (names, encoded): (Vec<&str>, Vec<Vec<u8>>) = match surface {
        Surface::JsonRequest => (
            requests().iter().map(|(n, _)| *n).collect(),
            read_lines("requests.ndjson")
                .into_iter()
                .map(String::into_bytes)
                .collect(),
        ),
        Surface::JsonReply => (
            replies().iter().map(|(n, _)| *n).collect(),
            read_lines("replies.ndjson")
                .into_iter()
                .map(String::into_bytes)
                .collect(),
        ),
        Surface::BinaryRequest => (
            requests().iter().map(|(n, _)| *n).collect(),
            read_frames("requests.awr2"),
        ),
        Surface::BinaryReply => (
            replies().iter().map(|(n, _)| *n).collect(),
            read_frames("replies.awr2"),
        ),
    };
    names.into_iter().zip(encoded).collect()
}

#[test]
fn damaged_samples_keep_their_parent_captured_outcomes() {
    let surfaces = [
        "json-request",
        "json-reply",
        "binary-request",
        "binary-reply",
    ]
    .map(|s| (s, originals(Surface::parse(s))));
    let rows = read_lines("mutations.tsv");
    assert!(rows.len() > 1_000, "{} mutation rows", rows.len());
    for row in &rows {
        let fields: Vec<&str> = row.splitn(4, '\t').collect();
        let [surface, sample, mutation, expected] = fields[..] else {
            panic!("bad mutation row {row:?}");
        };
        let (_, samples) = surfaces
            .iter()
            .find(|(s, _)| *s == surface)
            .expect("surface");
        let (_, original) = samples.iter().find(|(n, _)| *n == sample).expect("sample");
        let surface = Surface::parse(surface);
        let input = mutated_input(surface, original, mutation);
        assert_eq!(surface.outcome(&input), expected, "{sample} {mutation}");
    }
}
