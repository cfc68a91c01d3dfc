//! Crash-recovery conformance: the real `serve` binary, killed hard.
//!
//! Persistence only counts if it survives the failure mode it was
//! built for, so this suite spawns the production binary with a
//! `--data-dir` in synchronous-snapshot mode, drives sessions over TCP
//! mid-exploration, **SIGKILLs** the process, restarts it over the same
//! directory, and asserts:
//!
//! * continued sessions produce gauge/CSV/text transcripts
//!   byte-identical to a never-killed reference server replaying the
//!   same commands (α-wealth, ledger, policy state, and hypothesis
//!   history all survived the kill);
//! * session-id allocation resumes above every persisted id;
//! * a snapshot file torn at a pseudo-random byte recovers cleanly to
//!   the previous generation — `corrupt_snapshot` handling, never a
//!   panic and never a silently reset wealth — and a session whose
//!   every generation is torn answers `corrupt_snapshot` while the
//!   server keeps serving.
//!
//! CI runs this as its crash-recovery step:
//! `cargo test -p aware-serve --release --test crash_recovery`.

use aware_data::predicate::CmpOp;
use aware_data::value::Value;
use aware_serve::proto::{Command, FilterSpec, PolicySpec, Response, SessionId, TranscriptFormat};
use aware_serve::tcp::Client;
use aware_serve::ErrorCode;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command as Proc, Stdio};

/// Kills the spawned server even when an assertion panics.
struct ServerGuard(Child);

impl ServerGuard {
    /// The crash under test: SIGKILL, no shutdown hooks, no flush.
    fn kill_hard(mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

impl Drop for ServerGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn spawn_server(data_dir: &Path) -> (ServerGuard, SocketAddr) {
    let mut child = Proc::new(env!("CARGO_BIN_EXE_serve"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--rows",
            "1200",
            "--seed",
            "7",
            "--snapshot-every",
            "0", // synchronous: every mutation is on disk before its reply
        ])
        .arg("--data-dir")
        .arg(data_dir)
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
            break rest
                .split_whitespace()
                .next()
                .expect("address token")
                .parse()
                .expect("parse announced address");
        }
    };
    std::thread::spawn(move || for _ in lines {});
    (guard, addr)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "aware-crash-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn create_session(client: &mut Client) -> SessionId {
    match client
        .call(&Command::CreateSession {
            dataset: "census".into(),
            alpha: 0.05,
            policy: PolicySpec::Fixed { gamma: 10.0 },
        })
        .unwrap()
    {
        Response::SessionCreated { session, .. } => session,
        other => panic!("create failed: {other:?}"),
    }
}

fn eq(column: &str, value: Value) -> FilterSpec {
    FilterSpec::Cmp {
        column: column.into(),
        op: CmpOp::Eq,
        value,
    }
}

/// The per-session exploration: planted dependencies, null views, a
/// policy swap — rejections and acceptances both land in the ledger.
fn script(session: SessionId) -> Vec<Command> {
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
    ]
}

/// Index at which the crash interrupts each session's script.
const CUT: usize = 3;

fn run(client: &mut Client, commands: &[Command]) {
    for cmd in commands {
        let response = client.call(cmd).unwrap();
        assert!(response.is_ok(), "{cmd:?} -> {response:?}");
    }
}

/// gauge + csv + text — the session's complete observable state.
fn transcripts(client: &mut Client, session: SessionId) -> (String, String, String) {
    let gauge = match client.call(&Command::Gauge { session }).unwrap() {
        Response::GaugeText { text, .. } => text,
        other => panic!("{other:?}"),
    };
    let csv = match client
        .call(&Command::Transcript {
            session,
            format: TranscriptFormat::Csv,
        })
        .unwrap()
    {
        Response::TranscriptText { text, .. } => text,
        other => panic!("{other:?}"),
    };
    let text = match client
        .call(&Command::Transcript {
            session,
            format: TranscriptFormat::Text,
        })
        .unwrap()
    {
        Response::TranscriptText { text, .. } => text,
        other => panic!("{other:?}"),
    };
    (gauge, csv, text)
}

#[test]
fn sigkill_mid_exploration_loses_nothing() {
    // --- The crashing run: two sessions, killed mid-script.
    let dir = temp_dir("sigkill");
    let (server, addr) = spawn_server(&dir);
    let mut client = Client::connect(addr).unwrap();
    let a = create_session(&mut client);
    let b = create_session(&mut client);
    run(&mut client, &script(a)[..CUT]);
    run(&mut client, &script(b)[..CUT]);
    drop(client);
    server.kill_hard(); // SIGKILL: no flush, no goodbye

    // --- Restart over the same directory; both sessions continue.
    let (server, addr) = spawn_server(&dir);
    let mut client = Client::connect(addr).unwrap();
    run(&mut client, &script(a)[CUT..]);
    run(&mut client, &script(b)[CUT..]);
    let continued_a = transcripts(&mut client, a);
    let continued_b = transcripts(&mut client, b);
    // Ids keep allocating above the persisted ones — a restart must
    // never hand a returning client's id to a stranger.
    let fresh = create_session(&mut client);
    assert!(fresh > a.max(b), "fresh id {fresh} collides with {a}/{b}");
    drop(client);
    drop(server);

    // --- Reference: a never-killed server replays the same commands.
    let ref_dir = temp_dir("sigkill-ref");
    let (server, addr) = spawn_server(&ref_dir);
    let mut client = Client::connect(addr).unwrap();
    let ra = create_session(&mut client);
    let rb = create_session(&mut client);
    assert_eq!((ra, rb), (a, b), "id allocation must be deterministic");
    run(&mut client, &script(ra));
    run(&mut client, &script(rb));
    let reference_a = transcripts(&mut client, ra);
    let reference_b = transcripts(&mut client, rb);
    drop(client);
    drop(server);

    assert!(
        reference_a.1.lines().count() > 1,
        "reference transcript is empty: {}",
        reference_a.1
    );
    assert_eq!(
        continued_a, reference_a,
        "session {a}: transcripts diverged across the SIGKILL"
    );
    assert_eq!(
        continued_b, reference_b,
        "session {b}: transcripts diverged across the SIGKILL"
    );

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&ref_dir);
}

/// The snapshot files of `session`, newest generation first.
fn generations(dir: &Path, session: SessionId) -> Vec<PathBuf> {
    let prefix = format!("sess-{session}.g");
    let mut files: Vec<(u64, PathBuf)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter_map(|path| {
            let name = path.file_name()?.to_string_lossy().into_owned();
            let gen: u64 = name
                .strip_prefix(&prefix)?
                .strip_suffix(".awrs")?
                .parse()
                .ok()?;
            Some((gen, path))
        })
        .collect();
    files.sort_by_key(|(gen, _)| std::cmp::Reverse(*gen));
    files.into_iter().map(|(_, path)| path).collect()
}

/// Tears `path` at a pseudo-random byte (deterministically derived from
/// the file length, so failures reproduce). The byte-exhaustive proof
/// that *every* truncation point decodes to `corrupt_snapshot` lives in
/// the codec's unit tests; this exercises one point end to end.
fn tear(path: &Path) {
    let bytes = std::fs::read(path).unwrap();
    let cut = (bytes.len() * 7919 + 17) % bytes.len();
    std::fs::write(path, &bytes[..cut]).unwrap();
}

#[test]
fn torn_snapshot_recovers_to_previous_generation_never_resets_wealth() {
    let dir = temp_dir("torn");
    let (server, addr) = spawn_server(&dir);
    let mut client = Client::connect(addr).unwrap();
    let sid = create_session(&mut client);
    // Drive the script, capturing the CSV transcript after every step:
    // capture[k] is the exact state a generation written after step k+1
    // must restore to.
    let steps = script(sid);
    let mut capture: Vec<String> = Vec::new();
    for cmd in &steps {
        let response = client.call(cmd).unwrap();
        assert!(response.is_ok(), "{response:?}");
        capture.push(transcripts(&mut client, sid).1);
    }
    drop(client);
    server.kill_hard();

    // Tear the newest generation at a pseudo-random byte.
    let gens = generations(&dir, sid);
    assert!(gens.len() >= 2, "sync mode must keep two generations");
    tear(&gens[0]);

    // Restart: the session restores from the previous generation — the
    // state after the second-to-last mutation, wealth intact.
    let (server, addr) = spawn_server(&dir);
    let mut client = Client::connect(addr).unwrap();
    let (_, csv, _) = transcripts(&mut client, sid);
    assert_eq!(
        csv,
        capture[steps.len() - 2],
        "torn newest generation must fall back to the previous one"
    );
    assert_ne!(csv, capture[steps.len() - 1], "the torn write is lost");
    assert!(
        csv.lines().count() > 1,
        "fallback restored an empty (reset!) session: {csv}"
    );
    drop(client);
    server.kill_hard();

    // Tear every remaining generation: the session becomes
    // unrecoverable and must say so — corrupt_snapshot, not a fresh
    // budget, not unknown_session, and the server itself stays up.
    for path in generations(&dir, sid) {
        tear(&path);
    }
    let (server, addr) = spawn_server(&dir);
    let mut client = Client::connect(addr).unwrap();
    match client.call(&Command::Gauge { session: sid }).unwrap() {
        Response::Error(e) => assert_eq!(e.code, ErrorCode::CorruptSnapshot, "{e}"),
        other => panic!("an unreadable ledger must never answer with state: {other:?}"),
    }
    // The server survives the corrupt file and keeps serving.
    let fresh = create_session(&mut client);
    match client.call(&Command::Gauge { session: fresh }).unwrap() {
        Response::GaugeText { .. } => {}
        other => panic!("{other:?}"),
    }
    match client.call(&Command::Stats).unwrap() {
        Response::Stats(s) => assert!(s.persisted >= 1),
        other => panic!("{other:?}"),
    }
    drop(client);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
