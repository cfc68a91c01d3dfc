//! Observability conformance: the metrics exposition endpoint serves
//! parseable Prometheus text with the families the README documents,
//! latency histograms fill and surface through `stats`, slow commands
//! count, and per-session risk telemetry rides the JSON stats surface.

use aware_data::census::CensusGenerator;
use aware_data::predicate::CmpOp;
use aware_data::value::Value;
use aware_obs::expose::{validate_exposition, MetricsServer};
use aware_serve::proto::{BatchMode, Command, FilterSpec, PolicySpec, Response, SCALARS};
use aware_serve::service::{Service, ServiceConfig};
use std::io::{Read, Write};
use std::net::TcpStream;

fn served(slow_ms: Option<u64>) -> Service {
    let service = Service::start(ServiceConfig {
        slow_ms,
        ..ServiceConfig::default()
    });
    service
        .handle()
        .register_table("census", CensusGenerator::new(11).generate(3_000));
    service
}

fn create(service: &Service) -> u64 {
    match service.handle().call(Command::CreateSession {
        dataset: "census".into(),
        alpha: 0.05,
        policy: PolicySpec::Fixed { gamma: 10.0 },
    }) {
        Response::SessionCreated { session, .. } => session,
        other => panic!("{other:?}"),
    }
}

fn viz(session: u64) -> Command {
    Command::AddVisualization {
        session,
        attribute: "education".into(),
        filter: FilterSpec::Cmp {
            column: "salary_over_50k".into(),
            op: CmpOp::Eq,
            value: Value::Bool(true),
        },
    }
}

/// Plain-socket HTTP GET — the same shape the CI curl step performs.
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    raw
}

#[test]
fn metrics_endpoint_serves_valid_exposition_over_http() {
    let service = served(None);
    let handle = service.handle();
    let sid = create(&service);
    assert!(handle.call(viz(sid)).is_ok());

    let h = handle.clone();
    let metrics = MetricsServer::bind("127.0.0.1:0", move || h.metrics_text()).unwrap();
    let raw = http_get(metrics.local_addr(), "/metrics");
    assert!(raw.starts_with("HTTP/1.1 200 OK"), "{raw}");
    let body = raw.split("\r\n\r\n").nth(1).unwrap_or("");
    let samples =
        validate_exposition(body).unwrap_or_else(|e| panic!("invalid exposition: {e}\n{body}"));
    assert!(samples > 10, "only {samples} samples:\n{body}");

    // The families the README's metrics table names must be present.
    for family in [
        "aware_up",
        "aware_uptime_seconds",
        "aware_sessions_live",
        "aware_commands_total",
        "aware_slow_queries_total",
        "aware_command_latency_us",
        "aware_stage_latency_us",
        "aware_cache_hits_total",
        "aware_session_wealth",
        "aware_batch_size",
    ] {
        assert!(
            body.contains(&format!("# TYPE {family} ")),
            "family {family} missing:\n{body}"
        );
    }
    // The one command kind that ran is labeled; stages all present.
    assert!(body.contains("kind=\"add_visualization\""), "{body}");
    for stage in ["queue_wait", "execute", "wire_encode", "snapshot_flush"] {
        assert!(body.contains(&format!("stage=\"{stage}\"")), "{body}");
    }
    assert!(body.contains("dataset=\"census\""), "{body}");

    // Unknown paths 404; bare / serves the same body.
    let miss = http_get(metrics.local_addr(), "/nope");
    assert!(miss.starts_with("HTTP/1.1 404"), "{miss}");
    let root = http_get(metrics.local_addr(), "/");
    assert!(root.starts_with("HTTP/1.1 200 OK"), "{root}");
}

#[test]
fn latency_and_slow_query_telemetry_reach_the_stats_snapshot() {
    // slow_ms = 0: every command is past the threshold, so the counter
    // must track command execution exactly.
    let service = served(Some(0));
    let handle = service.handle();
    let sid = create(&service);
    for _ in 0..3 {
        assert!(handle.call(viz(sid)).is_ok());
    }
    match handle.call(Command::Stats) {
        Response::Stats(s) => {
            assert!(s.slow_queries >= 4, "create + 3 viz: {}", s.slow_queries);
            assert!(s.latency_p99_us >= s.latency_p50_us);
            assert!(s.latency_p999_us > 0, "histograms must have filled");
            // Per-session risk telemetry: one row, spent wealth visible.
            assert_eq!(s.sessions.len(), 1);
            let row = &s.sessions[0];
            assert_eq!(row.session, sid);
            assert_eq!(row.dataset, "census");
            assert_eq!(row.tests_run, 3);
            // Three tests ran, so α was bid three times; the cumulative
            // spend is positive even though discoveries earn wealth back.
            assert!(row.wealth > 0.0);
            assert!(row.risk_spent > 0.0);
            assert_eq!(row.discoveries, 3);
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn session_risk_rows_round_trip_the_json_stats_surface() {
    let service = served(None);
    let handle = service.handle();
    let sid = create(&service);
    assert!(handle.call(viz(sid)).is_ok());
    match handle.call(Command::Stats) {
        Response::Stats(s) => {
            let line = Response::Stats(s.clone()).encode_line(None);
            assert!(line.contains("\"sessions\""), "{line}");
            let (decoded, _) = Response::decode_line(&line).unwrap();
            match decoded {
                Response::Stats(back) => {
                    assert_eq!(back.sessions.len(), s.sessions.len());
                    assert_eq!(back.sessions[0].session, sid);
                    assert_eq!(back.uptime_seconds, s.uptime_seconds);
                    assert_eq!(back.latency_p999_us, s.latency_p999_us);
                }
                other => panic!("{other:?}"),
            }
        }
        other => panic!("{other:?}"),
    }
}

/// The exposition may only grow. The fixture is what the last commit
/// with a hand-written scalar block served after this exact command
/// stream — every `# TYPE` line plus every sample that does not
/// depend on the clock — and each of those lines must still be served
/// unchanged.
#[test]
fn exposition_is_a_superset_of_the_hand_written_one() {
    let service = Service::start(ServiceConfig::default());
    let handle = service.handle();
    handle.register_table("census", CensusGenerator::new(11).generate(3_000));
    let (a, b) = (create(&service), create(&service));
    for _ in 0..3 {
        assert!(handle.call(viz(a)).is_ok());
    }
    assert!(handle.call(Command::Gauge { session: b }).is_ok());
    assert!(!handle.call(Command::Gauge { session: 999 }).is_ok());
    let replies = handle.call_batch_mode(
        vec![viz(b), Command::Gauge { session: a }, viz(b)],
        BatchMode::Continue,
    );
    assert!(replies.iter().all(Response::is_ok));
    assert!(handle.call(Command::CloseSession { session: a }).is_ok());
    assert!(handle.call(Command::Stats).is_ok());

    let body = handle.metrics_text();
    validate_exposition(&body).unwrap_or_else(|e| panic!("invalid exposition: {e}\n{body}"));
    let served: std::collections::HashSet<&str> = body.lines().collect();
    for line in include_str!("fixtures/serve-exposition-parent.txt").lines() {
        assert!(served.contains(line), "no longer served: {line}\n{body}");
    }
}

/// `wire_encode` times one thing on every front and surface: the
/// encode of one reply. Exactly one sample per reply — hello acks and
/// protocol errors included, none for a blank line.
#[cfg(target_os = "linux")]
#[test]
fn wire_encode_records_one_sample_per_reply_on_every_front_and_surface() {
    use aware_serve::frame::{self, FrameRead, MAX_FRAME_BYTES};
    use aware_serve::proto::{Batch, BatchItem, Encoding, Envelope, PROTOCOL_VERSION};
    use aware_serve::service::Dispatch;
    use aware_serve::{wire, ServerFront};
    use std::io::{BufRead, BufReader};

    let hello = |encoding| Envelope::Hello {
        id: Some(1),
        version: PROTOCOL_VERSION,
        encoding,
        push: false,
    };
    let create = Envelope::Single {
        id: Some(2),
        cmd: Command::CreateSession {
            dataset: "census".into(),
            alpha: 0.05,
            policy: PolicySpec::Fixed { gamma: 10.0 },
        },
    };
    let batch = Envelope::Batch {
        id: Some(3),
        batch: Batch {
            mode: BatchMode::Continue,
            items: [0, 99]
                .map(|session| BatchItem {
                    id: Some(4 + session),
                    cmd: Command::Gauge { session },
                })
                .to_vec(),
        },
    };
    // Four replies per surface: the hello ack, a single, a batch and a
    // protocol error.
    let mut json = Vec::new();
    for envelope in [&hello(Encoding::Json), &create, &batch] {
        json.extend_from_slice(envelope.encode_line().as_bytes());
        json.push(b'\n');
    }
    json.extend_from_slice(b"\nnot json\n");
    let mut binary = Vec::new();
    for envelope in [&hello(Encoding::Binary), &create, &batch] {
        frame::write_frame(&mut binary, &wire::encode_envelope(envelope)).unwrap();
    }
    frame::write_frame(&mut binary, &[0xff]).unwrap();

    for reactor in [true, false] {
        for (surface, stream) in [(Encoding::Json, &json), (Encoding::Binary, &binary)] {
            let lane = format!("reactor={reactor}, {surface:?}");
            let service = served(None);
            let server = ServerFront::bind("127.0.0.1:0", service.handle(), reactor).unwrap();
            let mut sock = TcpStream::connect(server.local_addr()).unwrap();
            sock.write_all(stream).unwrap();
            let mut reader = BufReader::new(sock);
            for _ in 0..4 {
                if surface == Encoding::Json {
                    let mut line = String::new();
                    reader.read_line(&mut line).unwrap();
                    assert!(line.ends_with('\n'), "{lane}: {line:?}");
                } else {
                    let reply = frame::read_frame(&mut reader, MAX_FRAME_BYTES).unwrap();
                    assert!(matches!(reply, FrameRead::Frame(_)), "{lane}: {reply:?}");
                }
            }
            let handle = service.handle();
            let [.., (name, wire_encode)] = handle.metrics().stages();
            assert_eq!(name, "wire_encode");
            assert_eq!(wire_encode.count(), 4, "{lane}");
        }
    }
}

/// The README's Observability table is the operator's index of the
/// endpoint: every scalar the table walk exposes must be listed there
/// under its family name.
#[test]
fn readme_metrics_table_is_accurate() {
    let readme = include_str!("../../../README.md");
    for family in SCALARS.iter().filter_map(|def| def.family()) {
        assert!(
            readme.contains(&format!("| `{family}`")),
            "README.md Observability table is missing `{family}`"
        );
    }
}
