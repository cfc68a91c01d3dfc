//! Protocol conformance: the real `serve` binary, driven end-to-end on
//! both surfaces.
//!
//! The test spawns the production binary (not an in-process server),
//! waits for it to announce its port, then runs the same exploration
//! script twice against it — once as a v1 NDJSON client writing raw
//! request lines, once as a v2 binary-framed client submitting one
//! pipelined batch — and asserts the resulting gauges and transcripts
//! are byte-identical. The two sessions share the server's one census
//! table, so any divergence is protocol-induced by construction.
//!
//! CI runs this as its protocol-conformance step:
//! `cargo test -p aware-serve --test conformance`.

use aware_data::predicate::CmpOp;
use aware_data::value::Value;
use aware_serve::proto::{
    BatchMode, Command, Encoding, FilterSpec, PolicySpec, Response, SessionId, TranscriptFormat,
};
use aware_serve::tcp::Client;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command as Proc, Stdio};

/// Kills the spawned server even when an assertion panics.
struct ServerGuard(Child);

impl Drop for ServerGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn spawn_server() -> (ServerGuard, SocketAddr) {
    let mut child = Proc::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--addr", "127.0.0.1:0", "--rows", "1500", "--seed", "7"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn the serve binary");
    let stderr = child.stderr.take().expect("piped stderr");
    let guard = ServerGuard(child);
    let mut lines = BufReader::new(stderr).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("serve exited before announcing its address")
            .expect("read serve stderr");
        if let Some(rest) = line.strip_prefix("aware-serve listening on ") {
            let addr = rest
                .split_whitespace()
                .next()
                .expect("address token")
                .parse()
                .expect("parse announced address");
            break addr;
        }
    };
    // Keep draining stderr so the child can never block on a full pipe.
    std::thread::spawn(move || for _ in lines {});
    (guard, addr)
}

/// The exploration script, session id patched in per client. The
/// filters hit both planted dependencies and null views, so transcripts
/// carry rejections, acceptances, and a policy swap.
fn script(session: SessionId) -> Vec<Command> {
    let eq = |column: &str, value: Value| FilterSpec::Cmp {
        column: column.into(),
        op: CmpOp::Eq,
        value,
    };
    vec![
        Command::AddVisualization {
            session,
            attribute: "sex".into(),
            filter: FilterSpec::True,
        },
        Command::AddVisualization {
            session,
            attribute: "education".into(),
            filter: eq("salary_over_50k", Value::Bool(true)),
        },
        Command::AddVisualization {
            session,
            attribute: "race".into(),
            filter: eq("survey_wave", Value::Str("Wave-2".into())),
        },
        Command::SetPolicy {
            session,
            policy: PolicySpec::Hopeful { delta: 5.0 },
        },
        Command::AddVisualization {
            session,
            attribute: "marital_status".into(),
            filter: FilterSpec::Between {
                column: "age".into(),
                lo: 25.0,
                hi: 45.0,
            },
        },
        Command::AddVisualization {
            session,
            attribute: "occupation".into(),
            filter: eq("native_region", Value::Str("South".into())),
        },
        Command::Gauge { session },
        Command::Transcript {
            session,
            format: TranscriptFormat::Csv,
        },
        Command::Transcript {
            session,
            format: TranscriptFormat::Text,
        },
    ]
}

fn create_command() -> Command {
    Command::CreateSession {
        dataset: "census".into(),
        alpha: 0.05,
        policy: PolicySpec::Fixed { gamma: 10.0 },
    }
}

/// gauge, csv, text — the session's observable final state.
type Transcripts = (String, String, String);

fn collect(responses: &[Response]) -> Transcripts {
    let n = responses.len();
    let gauge = match &responses[n - 3] {
        Response::GaugeText { text, .. } => text.clone(),
        other => panic!("{other:?}"),
    };
    let csv = match &responses[n - 2] {
        Response::TranscriptText { text, .. } => text.clone(),
        other => panic!("{other:?}"),
    };
    let text = match &responses[n - 1] {
        Response::TranscriptText { text, .. } => text.clone(),
        other => panic!("{other:?}"),
    };
    (gauge, csv, text)
}

/// v1: raw NDJSON lines, one round trip per command.
fn drive_v1(addr: SocketAddr) -> Transcripts {
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = BufWriter::new(stream);
    let mut id = 0u64;
    let mut call = |cmd: &Command| -> Response {
        let line = cmd.encode_line(Some(id));
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        let (response, echoed) = Response::decode_line(&reply).unwrap();
        assert_eq!(echoed, Some(id), "{reply}");
        id += 1;
        response
    };
    let session = match call(&create_command()) {
        Response::SessionCreated { session, .. } => session,
        other => panic!("{other:?}"),
    };
    let responses: Vec<Response> = script(session).iter().map(&mut call).collect();
    for r in &responses {
        assert!(r.is_ok(), "{r:?}");
    }
    collect(&responses)
}

/// v2: binary framing, the whole script pipelined as one batch.
fn drive_v2(addr: SocketAddr) -> Transcripts {
    let mut client = Client::connect_with(addr, Encoding::Binary).unwrap();
    let session = match client.call(&create_command()).unwrap() {
        Response::SessionCreated { session, .. } => session,
        other => panic!("{other:?}"),
    };
    let responses = client
        .call_batch(&script(session), BatchMode::FailFast)
        .unwrap();
    for r in &responses {
        assert!(r.is_ok(), "{r:?}");
    }
    collect(&responses)
}

#[test]
fn v1_and_v2_transcripts_are_byte_identical() {
    let (_guard, addr) = spawn_server();
    let (v1_gauge, v1_csv, v1_text) = drive_v1(addr);
    let (v2_gauge, v2_csv, v2_text) = drive_v2(addr);
    assert!(
        v1_csv.lines().count() > 1,
        "script produced an empty transcript: {v1_csv}"
    );
    assert_eq!(v1_gauge, v2_gauge, "gauges diverged between surfaces");
    assert_eq!(v1_csv, v2_csv, "CSV transcripts diverged between surfaces");
    assert_eq!(
        v1_text, v2_text,
        "text transcripts diverged between surfaces"
    );
    // The v2 run replayed the same filters over the same dataset as the
    // v1 run, so the shared per-dataset evaluation cache was warm: the
    // server must report hits, and the transcript equality above is what
    // proves those hits changed nothing.
    let mut client = Client::connect_with(addr, Encoding::Binary).unwrap();
    match client.call(&Command::Stats).unwrap() {
        Response::Stats(s) => {
            assert!(
                s.cache_hits > 0,
                "warm second run reported no cache hits: {s:?}"
            );
            assert!(
                s.cache_misses > 0,
                "the cold first run must have missed: {s:?}"
            );
        }
        other => panic!("{other:?}"),
    }
}
