//! Protocol v2 negotiation, framing, and codec-identity tests.
//!
//! Three layers are exercised here:
//!
//! 1. **codec identity** — a property test drives randomly generated
//!    command batches (and reply batches) through both encodings and
//!    asserts encode→decode is the identity;
//! 2. **negotiation** — malformed hellos, v1/v2 auto-detection by first
//!    byte, and the JSON→binary in-place upgrade, over real sockets;
//! 3. **framing hostility** — truncated and oversized binary frames
//!    against a live server.

use aware_data::census::CensusGenerator;
use aware_data::predicate::CmpOp;
use aware_data::value::Value;
use aware_serve::frame::{self, FrameRead, MAX_FRAME_BYTES};
use aware_serve::proto::{
    Batch, BatchItem, BatchMode, Command, DatasetInfo, Encoding, Envelope, FilterSpec,
    HypothesisReport, MemberInfo, MemberStatus, PolicySpec, PushEvent, Reply, SessionEntry,
    StatsSnapshot, TranscriptFormat, PROTOCOL_VERSION,
};
use aware_serve::service::{Service, ServiceConfig};
use aware_serve::tcp::{Client, TcpServer};
use aware_serve::{wire, ErrorCode, Response, ServeError};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::TcpStream;

// -- random protocol values (seeded LCG, so every case is a fresh but
// -- reproducible structure) ------------------------------------------------

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn pick(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    /// A float that survives the JSON path: finite, and never integral
    /// (integral JSON numbers decode as `Value::Int` by design). The
    /// draw is a multiple of 1/64 and the offset is 1/128, so the sum
    /// is always an odd multiple of 1/128 — it cannot round to an
    /// integer.
    fn fractional(&mut self) -> f64 {
        (self.pick(2_000_000) as f64 - 1_000_000.0) / 64.0 + 0.0078125
    }

    /// Ids stay under 2^53 so the JSON number path is exact.
    fn id(&mut self) -> Option<u64> {
        match self.pick(3) {
            0 => None,
            _ => Some(self.next() % (1 << 53)),
        }
    }

    fn string(&mut self) -> String {
        const ALPHABET: [&str; 12] = [
            "a", "B", "7", "_", " ", "\"", "\\", "\n", "é", "😀", "─", "salary",
        ];
        (0..self.pick(12))
            .map(|_| ALPHABET[self.pick(ALPHABET.len())])
            .collect()
    }

    fn value(&mut self) -> Value {
        match self.pick(4) {
            0 => Value::Int(self.next() as i64 - (1 << 30)),
            1 => Value::Float(self.fractional()),
            2 => Value::Bool(self.pick(2) == 0),
            _ => Value::Str(self.string()),
        }
    }

    fn filter(&mut self, depth: usize) -> FilterSpec {
        let branchy = if depth < 3 { 7 } else { 4 };
        match self.pick(branchy) {
            0 => FilterSpec::True,
            1 => FilterSpec::Cmp {
                column: self.string(),
                op: [
                    CmpOp::Eq,
                    CmpOp::Neq,
                    CmpOp::Lt,
                    CmpOp::Le,
                    CmpOp::Gt,
                    CmpOp::Ge,
                ][self.pick(6)],
                value: self.value(),
            },
            2 => FilterSpec::Between {
                column: self.string(),
                lo: self.fractional(),
                hi: self.fractional(),
            },
            3 => FilterSpec::In {
                column: self.string(),
                values: (0..self.pick(4)).map(|_| self.value()).collect(),
            },
            4 => FilterSpec::Not(Box::new(self.filter(depth + 1))),
            5 => FilterSpec::And(
                (0..1 + self.pick(3))
                    .map(|_| self.filter(depth + 1))
                    .collect(),
            ),
            _ => FilterSpec::Or(
                (0..1 + self.pick(3))
                    .map(|_| self.filter(depth + 1))
                    .collect(),
            ),
        }
    }

    fn policy(&mut self) -> PolicySpec {
        match self.pick(5) {
            0 => PolicySpec::Fixed {
                gamma: self.fractional(),
            },
            1 => PolicySpec::Farsighted {
                beta: self.fractional(),
            },
            2 => PolicySpec::Hopeful {
                delta: self.fractional(),
            },
            3 => PolicySpec::EpsilonHybrid {
                gamma: self.fractional(),
                delta: self.fractional(),
                epsilon: self.fractional(),
                window: match self.pick(2) {
                    0 => None,
                    _ => Some(self.pick(64)),
                },
            },
            _ => PolicySpec::PsiSupport {
                gamma: self.fractional(),
                psi: self.fractional(),
            },
        }
    }

    /// A snapshot-image stand-in: raw bytes, every value possible.
    fn bytes(&mut self) -> Vec<u8> {
        (0..self.pick(16)).map(|_| self.next() as u8).collect()
    }

    fn members(&mut self) -> Vec<MemberInfo> {
        (0..self.pick(4))
            .map(|_| MemberInfo {
                addr: self.string(),
                status: [
                    MemberStatus::Alive,
                    MemberStatus::Suspect,
                    MemberStatus::Dead,
                ][self.pick(3)],
                incarnation: self.next(),
            })
            .collect()
    }

    /// Every command variant; the drill-down command is drawn twice as
    /// often, since it carries the filter tree.
    fn command(&mut self) -> Command {
        let session = self.next() % (1 << 53);
        match self.pick(20) {
            0 => Command::CreateSession {
                dataset: self.string(),
                alpha: self.fractional(),
                policy: self.policy(),
            },
            1 | 2 => Command::AddVisualization {
                session,
                attribute: self.string(),
                filter: self.filter(0),
            },
            3 => Command::SetPolicy {
                session,
                policy: self.policy(),
            },
            4 => Command::Gauge { session },
            5 => Command::Transcript {
                session,
                format: [TranscriptFormat::Csv, TranscriptFormat::Text][self.pick(2)],
            },
            6 => Command::CloseSession { session },
            7 => Command::Stats,
            8 => Command::CreateSessionAs {
                session,
                dataset: self.string(),
                alpha: self.fractional(),
                policy: self.policy(),
            },
            9 => Command::ExportSession { session },
            10 => Command::ImportSession {
                session,
                image: self.bytes(),
            },
            11 => Command::ListDatasets,
            12 => Command::JoinShard {
                addr: self.string(),
            },
            13 => Command::LeaveShard {
                addr: self.string(),
            },
            14 => Command::ReplicateSession {
                session,
                epoch: self.next(),
                image: self.bytes(),
            },
            15 => Command::PromoteReplica { session },
            16 => Command::DropReplica { session },
            17 => Command::SnapshotSession { session },
            18 => Command::ListSessions,
            _ => Command::Gossip {
                from: self.string(),
                generation: self.next(),
                members: self.members(),
            },
        }
    }

    fn batch(&mut self) -> Envelope {
        Envelope::Batch {
            id: self.id(),
            batch: Batch {
                mode: [BatchMode::Continue, BatchMode::FailFast][self.pick(2)],
                items: (0..self.pick(24))
                    .map(|_| BatchItem {
                        id: self.id(),
                        cmd: self.command(),
                    })
                    .collect(),
            },
        }
    }

    /// Every response variant; the drill-down reply is drawn twice as
    /// often, since it carries the hypothesis report.
    fn response(&mut self) -> Response {
        let session = self.next() % (1 << 53);
        match self.pick(19) {
            0 => Response::SessionCreated {
                session,
                wealth: self.fractional(),
                policy: self.string(),
            },
            1 | 2 => Response::VizAdded {
                session,
                viz: self.next() % (1 << 53),
                wealth: self.fractional(),
                hypothesis: match self.pick(2) {
                    0 => None,
                    _ => Some(HypothesisReport {
                        id: self.next() % (1 << 53),
                        test: self.string(),
                        statistic: self.fractional(),
                        // Stress the exponent-notation JSON path and
                        // binary bit-exactness with a subnormal-tiny
                        // p-value.
                        p_value: self.fractional().abs() * 1e-300,
                        bid: self.fractional(),
                        rejected: self.pick(2) == 0,
                        effect_size: self.fractional(),
                        support_fraction: self.fractional(),
                        wealth_after: self.fractional(),
                    }),
                },
            },
            3 => Response::PolicySet {
                session,
                policy: self.string(),
            },
            4 => Response::GaugeText {
                session,
                text: self.string(),
            },
            5 => Response::TranscriptText {
                session,
                format: [TranscriptFormat::Csv, TranscriptFormat::Text][self.pick(2)],
                text: self.string(),
            },
            6 => Response::SessionClosed {
                session,
                hypotheses: self.next(),
                discoveries: self.next(),
            },
            7 => {
                let mut stats = StatsSnapshot::default();
                for slot in stats.scalars_mut() {
                    *slot = self.next();
                }
                for slot in &mut stats.batch_size_hist {
                    *slot = self.next();
                }
                Response::Stats(Box::new(stats))
            }
            8 => Response::Error(ServeError {
                code: ErrorCode::parse(
                    ["bad_request", "unknown_session", "aborted", "overloaded"][self.pick(4)],
                ),
                message: self.string(),
            }),
            9 => Response::SessionExported {
                session,
                image: self.bytes(),
            },
            10 => Response::SessionImported {
                session,
                wealth: self.fractional(),
            },
            11 => Response::Datasets {
                datasets: (0..self.pick(3))
                    .map(|_| DatasetInfo {
                        name: self.string(),
                        rows: self.next(),
                        // All 64 bits: the JSON surface carries it as hex.
                        fingerprint: (self.next() << 33) ^ self.next(),
                    })
                    .collect(),
                next_session: self.next(),
            },
            12 => Response::Rebalanced {
                addr: self.string(),
                joined: self.pick(2) == 0,
                migrated: self.next(),
            },
            13 => Response::SessionReplicated {
                session,
                epoch: self.next(),
            },
            14 => Response::ReplicaPromoted {
                session,
                epoch: self.next(),
                wealth: self.fractional(),
            },
            15 => Response::ReplicaDropped { session },
            16 => Response::Sessions {
                sessions: (0..self.pick(4))
                    .map(|_| SessionEntry {
                        session: self.next(),
                        replica: self.pick(2) == 0,
                        epoch: self.next(),
                    })
                    .collect(),
            },
            17 => Response::GossipView {
                generation: self.next(),
                members: self.members(),
            },
            _ => Response::Push(match self.pick(2) {
                0 => PushEvent::SessionEvicted {
                    session,
                    reason: self.string(),
                },
                _ => PushEvent::CacheReset {
                    dataset: self.string(),
                },
            }),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Encode→decode identity for random command batches, both encodings.
    #[test]
    fn random_batches_round_trip_in_both_encodings(seed in 0u64..u64::MAX) {
        let envelope = Lcg(seed).batch();
        // Binary: byte-level identity of the structure.
        let decoded = wire::decode_envelope(&wire::encode_envelope(&envelope));
        prop_assert_eq!(decoded.as_ref(), Ok(&envelope));
        // JSON: one line, same structure back.
        let line = envelope.encode_line();
        let decoded = Envelope::decode_line(&line);
        prop_assert_eq!(decoded.as_ref(), Ok(&envelope), "line: {}", line);
    }

    /// Encode→decode identity for random reply batches, both encodings.
    #[test]
    fn random_replies_round_trip_in_both_encodings(seed in 0u64..u64::MAX) {
        let mut rng = Lcg(seed ^ 0xD1B54A32D192ED03);
        let items = (0..rng.pick(16))
            .map(|_| (rng.id(), rng.response()))
            .collect::<Vec<_>>();
        let reply = Reply::Batch { id: rng.id(), items };
        let decoded = wire::decode_reply(&wire::encode_reply(&reply));
        prop_assert_eq!(decoded.as_ref(), Ok(&reply));
        let line = reply.encode_line();
        let decoded = Reply::decode_line(&line);
        prop_assert_eq!(decoded.as_ref(), Ok(&reply), "line: {}", line);
    }

    /// A frame survives transport byte-for-byte around any payload.
    #[test]
    fn frames_carry_arbitrary_payloads(seed in 0u64..u64::MAX) {
        let mut rng = Lcg(seed);
        let payload: Vec<u8> = (0..rng.pick(4096)).map(|_| rng.next() as u8).collect();
        let mut framed = Vec::new();
        frame::write_frame(&mut framed, &payload).unwrap();
        let mut cursor = std::io::Cursor::new(framed);
        match frame::read_frame(&mut cursor, MAX_FRAME_BYTES).unwrap() {
            FrameRead::Frame(read) => prop_assert_eq!(read, payload),
            other => return Err(TestCaseError::fail(format!("{other:?}"))),
        }
    }
}

/// The `stats` reply is wire-frozen. The fixtures are the NDJSON line
/// and AWR2 payload of a snapshot with scalar *i* = 100 + *i*, captured
/// at the last commit that wrote every scalar out by hand in each
/// rendering; the table-driven codecs must reproduce them byte for
/// byte, and decode them back to the same snapshot.
#[test]
fn stats_reply_matches_the_golden_fixtures() {
    let mut stats = StatsSnapshot::default();
    for (i, slot) in stats.scalars_mut().into_iter().enumerate() {
        *slot = 100 + i as u64;
    }
    stats.batch_size_hist = [1, 2, 3, 4, 5];
    let reply = Reply::Single {
        id: Some(7),
        response: Response::Stats(Box::new(stats)),
    };
    let line = include_str!("fixtures/stats-reply.ndjson").trim_end();
    let payload = include_bytes!("fixtures/stats-reply.awr2");
    assert_eq!(reply.encode_line(), line);
    assert_eq!(wire::encode_reply(&reply), payload);
    assert_eq!(Reply::decode_line(line).as_ref(), Ok(&reply));
    assert_eq!(wire::decode_reply(payload).as_ref(), Ok(&reply));
}

// -- live-socket negotiation ------------------------------------------------

fn served() -> (Service, TcpServer) {
    let service = Service::start(ServiceConfig::default());
    service
        .handle()
        .register_table("census", CensusGenerator::new(23).generate(1_500));
    let server = TcpServer::bind("127.0.0.1:0", service.handle()).unwrap();
    (service, server)
}

#[test]
fn malformed_hellos_are_rejected_without_killing_the_connection() {
    let (_service, server) = served();
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = BufWriter::new(stream);

    // Wrong version.
    writer
        .write_all(b"{\"id\":1,\"cmd\":\"hello\",\"version\":99,\"encoding\":\"json\"}\n")
        .unwrap();
    // Unknown encoding.
    writer
        .write_all(b"{\"id\":2,\"cmd\":\"hello\",\"version\":3,\"encoding\":\"morse\"}\n")
        .unwrap();
    // Missing version entirely.
    writer.write_all(b"{\"cmd\":\"hello\"}\n").unwrap();
    // The connection must still answer plain v1 afterwards.
    writer.write_all(b"{\"id\":3,\"cmd\":\"stats\"}\n").unwrap();
    writer.flush().unwrap();

    let mut line = String::new();
    for expected_id in [Some(1), None, None] {
        line.clear();
        reader.read_line(&mut line).unwrap();
        let (r, id) = Response::decode_line(&line).unwrap();
        match r {
            Response::Error(e) => {
                assert_eq!(e.code, ErrorCode::InvalidArgument, "{line}");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(id, expected_id, "{line}");
    }
    line.clear();
    reader.read_line(&mut line).unwrap();
    let (r, id) = Response::decode_line(&line).unwrap();
    assert!(matches!(r, Response::Stats(_)), "{r:?}");
    assert_eq!(id, Some(3));
}

#[test]
fn first_byte_separates_the_surfaces() {
    let (_service, server) = served();
    // '{' → NDJSON v1, no handshake needed.
    let mut v1 = Client::connect(server.local_addr()).unwrap();
    assert!(matches!(
        v1.call(&Command::Stats).unwrap(),
        Response::Stats(_)
    ));
    // 'A' (frame magic) → binary v2, hello-first.
    let mut v2 = Client::connect_with(server.local_addr(), Encoding::Binary).unwrap();
    assert_eq!(v2.encoding(), Encoding::Binary);
    match v2.call(&Command::Stats).unwrap() {
        Response::Stats(s) => {
            assert!(s.binary_frames >= 1, "{s:?}");
            assert!(s.ndjson_requests >= 1, "{s:?}");
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn json_hello_upgrades_the_connection_to_binary_in_place() {
    let (_service, server) = served();
    let mut client = Client::connect(server.local_addr()).unwrap();
    // Starts as JSON…
    assert!(matches!(
        client.call(&Command::Stats).unwrap(),
        Response::Stats(_)
    ));
    // …upgrades mid-connection…
    client.hello(Encoding::Binary).unwrap();
    assert_eq!(client.encoding(), Encoding::Binary);
    // …and keeps serving the same session space over frames.
    let responses = client
        .call_batch(
            &[
                Command::CreateSession {
                    dataset: "census".into(),
                    alpha: 0.05,
                    policy: PolicySpec::Fixed { gamma: 10.0 },
                },
                Command::Stats,
            ],
            BatchMode::Continue,
        )
        .unwrap();
    assert!(matches!(responses[0], Response::SessionCreated { .. }));
    assert!(matches!(responses[1], Response::Stats(_)));
}

#[test]
fn json_batches_execute_in_order_with_item_ids() {
    let (_service, server) = served();
    let mut client = Client::connect_with(server.local_addr(), Encoding::Json).unwrap();
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
    let responses = client
        .call_batch(
            &[
                Command::AddVisualization {
                    session: sid,
                    attribute: "education".into(),
                    filter: FilterSpec::Cmp {
                        column: "salary_over_50k".into(),
                        op: CmpOp::Eq,
                        value: Value::Bool(true),
                    },
                },
                Command::Gauge { session: sid },
                Command::Transcript {
                    session: sid,
                    format: TranscriptFormat::Csv,
                },
            ],
            BatchMode::Continue,
        )
        .unwrap();
    assert!(matches!(
        responses[0],
        Response::VizAdded {
            hypothesis: Some(_),
            ..
        }
    ));
    assert!(matches!(responses[1], Response::GaugeText { .. }));
    assert!(matches!(responses[2], Response::TranscriptText { .. }));
}

#[test]
fn cold_binary_connection_must_greet_first() {
    let (_service, server) = served();
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = BufWriter::new(stream);
    // A well-formed frame that is not a hello.
    let payload = wire::encode_envelope(&Envelope::Single {
        id: Some(1),
        cmd: Command::Stats,
    });
    frame::write_frame(&mut writer, &payload).unwrap();
    writer.flush().unwrap();
    match frame::read_frame(&mut reader, MAX_FRAME_BYTES).unwrap() {
        FrameRead::Frame(bytes) => match wire::decode_reply(&bytes).unwrap() {
            Reply::Single {
                response: Response::Error(e),
                ..
            } => assert!(e.message.contains("hello"), "{e}"),
            other => panic!("{other:?}"),
        },
        other => panic!("{other:?}"),
    }
    // The server hangs up after the protocol violation.
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());
}

#[test]
fn truncated_frames_close_the_connection_but_not_the_server() {
    let (_service, server) = served();
    {
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut writer = BufWriter::new(stream.try_clone().unwrap());
        // A frame header promising 100 bytes, followed by only 3.
        writer.write_all(b"AWR2\x02").unwrap();
        writer.write_all(&100u32.to_be_bytes()).unwrap();
        writer.write_all(b"abc").unwrap();
        writer.flush().unwrap();
        drop(writer);
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        // The server answers a corrupt-frame error (or just closes —
        // both end with EOF on our side, never a hang).
        let mut reader = BufReader::new(stream);
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).unwrap();
        if !rest.is_empty() {
            let mut cursor = std::io::Cursor::new(rest);
            match frame::read_frame(&mut cursor, MAX_FRAME_BYTES).unwrap() {
                FrameRead::Frame(bytes) => match wire::decode_reply(&bytes).unwrap() {
                    Reply::Single {
                        response: Response::Error(e),
                        ..
                    } => assert_eq!(e.code, ErrorCode::BadRequest),
                    other => panic!("{other:?}"),
                },
                other => panic!("{other:?}"),
            }
        }
    }
    // A fresh connection still works.
    let mut client = Client::connect_with(server.local_addr(), Encoding::Binary).unwrap();
    assert!(client.call(&Command::Stats).unwrap().is_ok());
}

#[test]
fn oversized_frames_are_rejected_and_the_stream_resynchronizes() {
    let (_service, server) = served();
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = BufWriter::new(stream);

    // Greet properly first.
    let hello = wire::encode_envelope(&Envelope::Hello {
        id: Some(1),
        version: PROTOCOL_VERSION,
        encoding: Encoding::Binary,
        push: false,
    });
    frame::write_frame(&mut writer, &hello).unwrap();
    writer.flush().unwrap();
    match frame::read_frame(&mut reader, MAX_FRAME_BYTES).unwrap() {
        FrameRead::Frame(bytes) => {
            assert!(matches!(
                wire::decode_reply(&bytes).unwrap(),
                Reply::HelloAck { .. }
            ));
        }
        other => panic!("{other:?}"),
    }

    // A frame one byte over the cap: header + (cap + 1) junk bytes.
    let oversize = MAX_FRAME_BYTES + 1;
    writer.write_all(b"AWR2\x02").unwrap();
    writer.write_all(&(oversize as u32).to_be_bytes()).unwrap();
    let chunk = vec![0u8; 64 * 1024];
    let mut sent = 0;
    while sent < oversize {
        let n = chunk.len().min(oversize - sent);
        writer.write_all(&chunk[..n]).unwrap();
        sent += n;
    }
    // Then a valid frame on the same connection.
    let stats = wire::encode_envelope(&Envelope::Single {
        id: Some(2),
        cmd: Command::Stats,
    });
    frame::write_frame(&mut writer, &stats).unwrap();
    writer.flush().unwrap();

    match frame::read_frame(&mut reader, MAX_FRAME_BYTES).unwrap() {
        FrameRead::Frame(bytes) => match wire::decode_reply(&bytes).unwrap() {
            Reply::Single {
                response: Response::Error(e),
                ..
            } => {
                assert_eq!(e.code, ErrorCode::BadRequest);
                assert!(e.message.contains("exceeds"), "{e}");
            }
            other => panic!("{other:?}"),
        },
        other => panic!("{other:?}"),
    }
    // The declared length let the server skip the junk exactly: the
    // follow-up frame answers normally.
    match frame::read_frame(&mut reader, MAX_FRAME_BYTES).unwrap() {
        FrameRead::Frame(bytes) => match wire::decode_reply(&bytes).unwrap() {
            Reply::Single {
                id: Some(2),
                response: Response::Stats(_),
            } => {}
            other => panic!("{other:?}"),
        },
        other => panic!("{other:?}"),
    }
}

#[test]
fn binary_surface_refuses_a_json_downgrade() {
    let (_service, server) = served();
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = BufWriter::new(stream);
    let hello = wire::encode_envelope(&Envelope::Hello {
        id: Some(1),
        version: PROTOCOL_VERSION,
        encoding: Encoding::Json,
        push: false,
    });
    frame::write_frame(&mut writer, &hello).unwrap();
    writer.flush().unwrap();
    match frame::read_frame(&mut reader, MAX_FRAME_BYTES).unwrap() {
        FrameRead::Frame(bytes) => match wire::decode_reply(&bytes).unwrap() {
            Reply::Single {
                response: Response::Error(e),
                ..
            } => assert_eq!(e.code, ErrorCode::InvalidArgument),
            other => panic!("{other:?}"),
        },
        other => panic!("{other:?}"),
    }
}
