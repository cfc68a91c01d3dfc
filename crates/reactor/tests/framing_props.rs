//! The protocol state-machine battery for the reactor's incremental
//! decoders and the reactor front end as a whole.
//!
//! Two layers:
//!
//! 1. **Chop invariance** (pure, no sockets): random valid-and-hostile
//!    v1/v2 byte streams are decoded whole, chopped at *every* byte
//!    boundary, and re-split into random coalescings — the observable
//!    [`Inbound`] sequence must be identical for every chop, including
//!    across a JSON→binary hello upgrade whose frame bytes were already
//!    buffered.
//! 2. **Front-end identity** (live sockets): the same pipelined
//!    transcript, written in random chunkings, is replayed against the
//!    blocking thread-per-connection front end and the reactor front
//!    end over identically-seeded services — the reply byte streams
//!    must match byte for byte, on every surface (v1 NDJSON, v2 JSON,
//!    v2 binary, and the mid-stream upgrade), whether or not the hello
//!    requests server push (both fronts decline it). Both fronts drive one
//!    protocol handler, so this layer checks the two transports; the
//!    handler itself is checked against bytes captured before it was
//!    shared, in `crates/serve/tests/connection_corpus.rs`.
//!
//! `AWARE_PROPTEST_CASES` raises the case count (the CI nightly-style
//! job runs these hot); the default keeps `cargo test` quick.

use aware_data::census::CensusGenerator;
use aware_data::predicate::CmpOp;
use aware_data::value::Value;
use aware_reactor::decode::{DecoderConfig, StreamDecoder};
use aware_reactor::Inbound;
use aware_serve::frame;
use aware_serve::proto::{
    Batch, BatchItem, BatchMode, Command, Encoding, Envelope, FilterSpec, PolicySpec,
    PROTOCOL_VERSION,
};
use aware_serve::reactor_front::bind_reactor;
use aware_serve::service::{Service, ServiceConfig};
use aware_serve::tcp::TcpServer;
use aware_serve::wire;
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};

/// `AWARE_PROPTEST_CASES` overrides the per-property case count.
fn cases(default: u32) -> u32 {
    std::env::var("AWARE_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

// -- seeded random structures (same idiom as serve's protocol_v2) -----------

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
}

fn frame_bytes(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    frame::write_frame(&mut out, payload).unwrap();
    out
}

/// Splits `stream` into `pieces` random contiguous chunks (some may be
/// empty — a 0-byte read must be harmless).
fn random_chunks(stream: &[u8], rng: &mut Lcg, pieces: usize) -> Vec<Vec<u8>> {
    let mut cuts: Vec<usize> = (0..pieces.saturating_sub(1))
        .map(|_| rng.pick(stream.len() + 1))
        .collect();
    cuts.sort_unstable();
    let mut out = Vec::new();
    let mut prev = 0;
    for cut in cuts {
        out.push(stream[prev..cut].to_vec());
        prev = cut;
    }
    out.push(stream[prev..].to_vec());
    out
}

/// Decodes a chunked stream, honouring upgrade requests: when a decoded
/// line equals `upgrade_after`, the decoder switches to frames — the
/// consumer-driven mid-stream upgrade.
fn decode_chunks(
    chunks: &[Vec<u8>],
    cfg: DecoderConfig,
    upgrade_after: Option<&str>,
) -> Vec<Inbound> {
    let mut d = StreamDecoder::new(cfg);
    let mut out = Vec::new();
    for chunk in chunks {
        d.push(chunk);
        while let Some(m) = d.next() {
            let upgrade = matches!((&m, upgrade_after), (Inbound::Line(l), Some(u)) if l == u);
            out.push(m);
            if upgrade {
                d.set_frames();
            }
        }
    }
    if let Some(m) = d.finish() {
        out.push(m);
    }
    out
}

/// A mixed stream: the surface prefix, hostile elements included.
fn build_stream(rng: &mut Lcg, cfg: &DecoderConfig) -> (Vec<u8>, Option<String>) {
    match rng.pick(3) {
        // NDJSON lines: normal, empty, overlong, binary garbage inside.
        0 => {
            let mut s = Vec::new();
            // First byte must not be the magic byte, or detection flips.
            s.extend_from_slice(b"{\"id\":1}\n");
            for _ in 0..rng.pick(8) {
                match rng.pick(4) {
                    0 => s.extend_from_slice(b"\n"),
                    1 => {
                        let long = vec![b'x'; cfg.line_max + 1 + rng.pick(32)];
                        s.extend_from_slice(&long);
                        s.push(b'\n');
                    }
                    2 => {
                        let n = rng.pick(40);
                        for _ in 0..n {
                            let b = (rng.next() % 255) as u8;
                            s.push(if b == b'\n' { b'.' } else { b });
                        }
                        s.push(b'\n');
                    }
                    _ => s.extend_from_slice(b"{\"cmd\":\"stats\"}\n"),
                }
            }
            if rng.pick(3) == 0 {
                s.extend_from_slice(b"trailing partial line with no newline");
            }
            (s, None)
        }
        // Binary frames: normal, empty, oversized, maybe corrupt tail.
        1 => {
            let mut s = Vec::new();
            for _ in 0..1 + rng.pick(6) {
                if rng.pick(5) == 0 {
                    let big = vec![9u8; cfg.frame_max + 1 + rng.pick(16)];
                    s.extend_from_slice(&frame_bytes(&big));
                } else {
                    let payload: Vec<u8> = (0..rng.pick(64)).map(|_| rng.next() as u8).collect();
                    s.extend_from_slice(&frame_bytes(&payload));
                }
            }
            match rng.pick(4) {
                // Truncated mid-header or mid-payload.
                0 => {
                    let cut = s.len() - rng.pick(8).min(s.len() - 1) - 1;
                    s.truncate(cut.max(1));
                }
                // Corrupt magic/version at a frame boundary.
                1 => s.extend_from_slice(b"AWRX\x02\0\0\0\0"),
                2 => s.extend_from_slice(b"AWR2\x09\0\0\0\0"),
                _ => {}
            }
            (s, None)
        }
        // Hello upgrade: lines, then the upgrade marker, then frames.
        _ => {
            let marker = "{\"cmd\":\"hello\",\"version\":3,\"encoding\":\"binary\"}";
            let mut s = Vec::new();
            for _ in 0..rng.pick(3) {
                s.extend_from_slice(b"{\"cmd\":\"stats\"}\n");
            }
            s.extend_from_slice(marker.as_bytes());
            s.push(b'\n');
            for _ in 0..rng.pick(4) {
                let payload: Vec<u8> = (0..rng.pick(48)).map(|_| rng.next() as u8).collect();
                s.extend_from_slice(&frame_bytes(&payload));
            }
            (s, Some(marker.to_string()))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(48)))]

    /// The decoded message sequence is invariant under chopping the
    /// stream at EVERY byte boundary (two-piece sweep) and under
    /// random multi-piece coalescings.
    #[test]
    fn decoding_is_chop_invariant(seed in 0u64..u64::MAX) {
        let mut rng = Lcg(seed);
        let cfg = DecoderConfig {
            line_max: 96,
            frame_max: 128,
        };
        let (stream, upgrade) = build_stream(&mut rng, &cfg);
        let upgrade = upgrade.as_deref();

        let reference = decode_chunks(
            std::slice::from_ref(&stream), cfg.clone(), upgrade);

        // Exhaustive two-piece sweep: every byte boundary.
        for cut in 0..=stream.len() {
            let halves = vec![stream[..cut].to_vec(), stream[cut..].to_vec()];
            let got = decode_chunks(&halves, cfg.clone(), upgrade);
            prop_assert_eq!(
                &got, &reference,
                "diverged at cut {} of {} (seed {})", cut, stream.len(), seed
            );
        }

        // Random coalescings, including byte-at-a-time.
        for pieces in [stream.len().max(1), 2 + rng.pick(9)] {
            let chunks = random_chunks(&stream, &mut rng, pieces);
            let got = decode_chunks(&chunks, cfg.clone(), upgrade);
            prop_assert_eq!(&got, &reference, "coalescing diverged (seed {})", seed);
        }
    }
}

// -- live front-end identity ------------------------------------------------

/// One surface of the protocol, as a transcript prefix.
#[derive(Clone, Copy, Debug)]
enum Surface {
    V1,
    V2Json,
    V2Binary,
    Upgrade,
}

impl Lcg {
    fn filter(&mut self) -> FilterSpec {
        match self.pick(4) {
            0 => FilterSpec::True,
            1 => FilterSpec::Cmp {
                column: "salary_over_50k".into(),
                op: [CmpOp::Eq, CmpOp::Neq][self.pick(2)],
                value: Value::Bool(true),
            },
            2 => FilterSpec::Cmp {
                column: "hours_per_week".into(),
                op: [CmpOp::Lt, CmpOp::Ge][self.pick(2)],
                value: Value::Int(40),
            },
            _ => FilterSpec::Between {
                column: "age".into(),
                lo: 20.0 + self.pick(20) as f64,
                hi: 50.0 + self.pick(20) as f64,
            },
        }
    }

    /// A deterministic-response command against known sessions.
    /// Session-creating commands stay OUT of batches so session-id
    /// allocation order (a global counter) cannot race across workers.
    fn op(&mut self, sessions: &[u64]) -> Command {
        let session = sessions[self.pick(sessions.len())];
        match self.pick(5) {
            0 | 1 => Command::AddVisualization {
                session,
                attribute: ["education", "sex", "race", "occupation"][self.pick(4)].into(),
                filter: self.filter(),
            },
            2 => Command::SetPolicy {
                session,
                policy: PolicySpec::Fixed {
                    gamma: 4.0 + self.pick(8) as f64,
                },
            },
            3 => Command::Gauge { session },
            // Commands against a session that never existed: the error
            // reply is part of the identity contract too.
            _ => Command::Gauge {
                session: 1_000_000 + self.next() % 1000,
            },
        }
    }
}

/// Builds one pipelined transcript: raw bytes to write, given the
/// session ids this connection will create (ids are allocated
/// sequentially per service, so the caller pre-computes them). `push`
/// sets the hello's push request, if the surface has a hello.
fn build_transcript(rng: &mut Lcg, surface: Surface, push: bool, first_session: u64) -> Vec<u8> {
    let mut out = Vec::new();
    let hello = |encoding: Encoding| Envelope::Hello {
        id: Some(0),
        version: PROTOCOL_VERSION,
        encoding,
        push,
    };
    let binary = match surface {
        Surface::V1 => false,
        Surface::V2Json => {
            out.extend_from_slice(hello(Encoding::Json).encode_line().as_bytes());
            out.push(b'\n');
            false
        }
        Surface::V2Binary => {
            out.extend_from_slice(&frame_bytes(&wire::encode_envelope(&hello(
                Encoding::Binary,
            ))));
            true
        }
        Surface::Upgrade => {
            out.extend_from_slice(hello(Encoding::Binary).encode_line().as_bytes());
            out.push(b'\n');
            true
        }
    };

    let push_envelope = |out: &mut Vec<u8>, envelope: &Envelope| {
        if binary {
            out.extend_from_slice(&frame_bytes(&wire::encode_envelope(envelope)));
        } else {
            out.extend_from_slice(envelope.encode_line().as_bytes());
            out.push(b'\n');
        }
    };

    // One session created up front (as a Single, never in a batch),
    // sometimes a second mid-stream.
    let create = Command::CreateSession {
        dataset: "census".into(),
        alpha: 0.05,
        policy: PolicySpec::Fixed { gamma: 10.0 },
    };
    push_envelope(
        &mut out,
        &Envelope::Single {
            id: Some(1),
            cmd: create.clone(),
        },
    );
    let mut sessions = vec![first_session];
    let envelopes = 2 + rng.pick(6) as u64;
    for next_id in 2..2 + envelopes {
        let id = Some(next_id);
        if sessions.len() < 2 && rng.pick(4) == 0 {
            sessions.push(first_session + sessions.len() as u64);
            push_envelope(
                &mut out,
                &Envelope::Single {
                    id,
                    cmd: create.clone(),
                },
            );
        } else if rng.pick(3) == 0 {
            let items = (0..1 + rng.pick(5))
                .map(|k| BatchItem {
                    id: Some(100 * next_id + k as u64),
                    cmd: rng.op(&sessions),
                })
                .collect();
            push_envelope(
                &mut out,
                &Envelope::Batch {
                    id,
                    batch: Batch {
                        mode: [BatchMode::Continue, BatchMode::FailFast][rng.pick(2)],
                        items,
                    },
                },
            );
        } else {
            push_envelope(
                &mut out,
                &Envelope::Single {
                    id,
                    cmd: rng.op(&sessions),
                },
            );
        }
    }
    if !binary && rng.pick(3) == 0 {
        // A malformed line: the error reply is deterministic too.
        out.extend_from_slice(b"{\"cmd\":\"no_such_command\"}\n");
    }
    out
}

/// Writes the transcript in the given chunks, half-closes, reads every
/// reply byte the server produces.
fn replay(addr: SocketAddr, chunks: &[Vec<u8>]) -> Vec<u8> {
    let mut sock = TcpStream::connect(addr).expect("connect");
    sock.set_nodelay(true).unwrap();
    for chunk in chunks {
        sock.write_all(chunk).expect("write transcript chunk");
    }
    sock.shutdown(Shutdown::Write).expect("half-close");
    let mut replies = Vec::new();
    sock.read_to_end(&mut replies).expect("read replies");
    replies
}

/// Two identically-seeded services, one behind each front end. Shared
/// across property cases: both sides replay the same transcripts in
/// the same order, so their session state stays in lockstep.
/// A blocking-front service and a reactor-front service, identically
/// seeded.
type FrontPair = (
    (Service, TcpServer),
    (Service, aware_reactor::ReactorServer),
);

fn identical_pair() -> FrontPair {
    let mk = || {
        let service = Service::start(ServiceConfig::default());
        service
            .handle()
            .register_table("census", CensusGenerator::new(23).generate(1_500));
        service
    };
    let blocking = mk();
    let reactor = mk();
    let tcp = TcpServer::bind("127.0.0.1:0", blocking.handle()).expect("bind tcp");
    let rct = bind_reactor("127.0.0.1:0", reactor.handle()).expect("bind reactor");
    ((blocking, tcp), (reactor, rct))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(24)))]

    /// Replies from the reactor front end are byte-identical to the
    /// blocking front end for the same transcript — across surfaces,
    /// pipelining, and arbitrary write chunkings.
    #[test]
    fn reactor_replies_match_blocking_front_byte_for_byte(seed in 0u64..u64::MAX) {
        use std::sync::OnceLock;
        static PAIR: OnceLock<FrontPair> = OnceLock::new();
        static NEXT_SESSION: std::sync::atomic::AtomicU64 =
            std::sync::atomic::AtomicU64::new(1);

        let pair = PAIR.get_or_init(identical_pair);
        let mut rng = Lcg(seed);
        let surface = [
            Surface::V1,
            Surface::V2Json,
            Surface::V2Binary,
            Surface::Upgrade,
        ][rng.pick(4)];
        let push = rng.pick(2) == 0;
        // Up to 2 sessions are created per transcript; reserve both ids
        // whether or not the second create is drawn, so the prediction
        // can never drift from the services' global counters.
        let first_session =
            NEXT_SESSION.fetch_add(2, std::sync::atomic::Ordering::SeqCst);
        let transcript = build_transcript(&mut rng, surface, push, first_session);

        // Different chunkings per side on purpose: byte-boundary splits
        // must be unobservable in the reply stream.
        let pieces = 1 + rng.pick(6);
        let blocking_chunks = random_chunks(&transcript, &mut rng, pieces);
        let pieces = 1 + rng.pick(12);
        let reactor_chunks = random_chunks(&transcript, &mut rng, pieces);

        let expect = replay(pair.0 .1.local_addr(), &blocking_chunks);
        let got = replay(pair.1 .1.local_addr(), &reactor_chunks);
        prop_assert_eq!(
            &got, &expect,
            "reply streams diverged (surface {:?}, push {}, seed {}, transcript {} bytes)",
            surface, push, seed, transcript.len()
        );
        prop_assert!(!expect.is_empty(), "transcript produced no replies");
    }
}

/// The auto-detect first byte must survive 0-byte reads: a connection
/// that dribbles its first byte after several empty reads (EINTR
/// wakeups on the blocking front, spurious readiness on the reactor)
/// still detects the surface from the real first byte. Pins the seed
/// bug where the blocking read path trusted a 0-byte read's buffer.
#[test]
fn first_byte_detection_survives_empty_reads() {
    let mut d = StreamDecoder::new(DecoderConfig::default());
    for _ in 0..3 {
        d.push(&[]); // a 0-byte read
        assert_eq!(d.next(), None);
        assert!(!d.is_frames());
    }
    d.push(b"AWR2");
    assert!(d.next().is_none());
    assert!(d.is_frames(), "first real byte picks the binary surface");

    let mut d = StreamDecoder::new(DecoderConfig::default());
    d.push(&[]);
    assert_eq!(d.next(), None);
    d.push(b"{\"cmd\":\"stats\"}\n");
    assert_eq!(
        d.next(),
        Some(Inbound::Line("{\"cmd\":\"stats\"}".into())),
        "first real byte picks the NDJSON surface"
    );
}
