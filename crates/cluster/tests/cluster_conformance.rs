//! Multi-process cluster conformance: real binaries, real sockets,
//! real SIGKILL.
//!
//! The cluster's contract is that a client cannot tell a router from a
//! single `aware-serve` process — same wire protocol, same per-session
//! ordering, same observable state, byte for byte. This suite spawns
//! the production `cluster` binary (three shard processes + one router
//! process, each with identical census content), drives interactive
//! explorations through the router on both wire surfaces, and diffs
//! every session's gauge/CSV/text transcripts against a single-process
//! replay of the same commands:
//!
//! * routed transcripts must be **byte-identical** to the
//!   single-process run;
//! * a `join_shard` mid-exploration migrates **only** the ring-
//!   remapped slice of sessions (asserted from the `migrations`
//!   counter), and every session — migrated ones included — continues
//!   byte-identically afterwards;
//! * a SIGKILLed shard answers `unavailable` (never `unknown_session`,
//!   never a fresh budget), shows up unhealthy in the router's
//!   per-shard stats breakdown, and leaves every other shard serving;
//! * with `--replicas 1`, a SIGKILLed *primary* is failed over
//!   automatically: its sessions promote from their warm replicas and
//!   the continued transcripts stay **byte-identical** to an
//!   uninterrupted single-process replay;
//! * a deliberately-corrupted replica image is *refused* at promotion
//!   time — the stranded session answers `corrupt_snapshot`, never a
//!   fresh budget, while untampered sessions promote fine.
//!
//! CI runs this as its cluster conformance step:
//! `cargo test -p aware-cluster --release --test cluster_conformance`.

use aware_data::predicate::CmpOp;
use aware_data::value::Value;
use aware_serve::proto::{
    BatchMode, Command, Encoding, FilterSpec, PolicySpec, Response, SessionId, TranscriptFormat,
};
use aware_serve::tcp::Client;
use aware_serve::ErrorCode;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command as Proc, Stdio};

/// Serializes the two tests. They spawn real processes on OS-assigned
/// ports, and a port freed by one test's SIGKILL can be handed to the
/// other test's concurrently-spawned shard — the killed router would
/// then "reconnect" to a foreign server and see `unknown_session`
/// where a transport failure belongs. Running one cluster at a time
/// removes the reassignment window.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Kills a spawned process even when an assertion panics.
struct ProcGuard(Child);

impl ProcGuard {
    fn kill_hard(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

impl Drop for ProcGuard {
    fn drop(&mut self) {
        self.kill_hard();
    }
}

/// Spawns the `cluster` binary with `args`, waiting for its
/// `… listening on ADDR …` stderr announcement.
fn spawn(args: &[&str]) -> (ProcGuard, SocketAddr) {
    let mut child = Proc::new(env!("CARGO_BIN_EXE_cluster"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn the cluster binary");
    let stderr = child.stderr.take().expect("piped stderr");
    let guard = ProcGuard(child);
    let mut lines = BufReader::new(stderr).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("process exited before announcing its address")
            .expect("read stderr");
        if let Some(rest) = line.split(" listening on ").nth(1) {
            break rest
                .split_whitespace()
                .next()
                .expect("address token")
                .parse()
                .expect("parse announced address");
        }
    };
    // Keep draining stderr so the child never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines {});
    (guard, addr)
}

/// Shared capture of a child's stderr, line by line.
type LogBuf = std::sync::Arc<std::sync::Mutex<Vec<String>>>;

/// Like [`spawn`], but keeps every stderr line (the metrics-endpoint
/// announcement precedes the listening line, and the trace-propagation
/// test greps structured slow-query records out of both processes'
/// logs).
fn spawn_logged(args: &[&str]) -> (ProcGuard, SocketAddr, LogBuf) {
    let mut child = Proc::new(env!("CARGO_BIN_EXE_cluster"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn the cluster binary");
    let stderr = child.stderr.take().expect("piped stderr");
    let guard = ProcGuard(child);
    let mut lines = BufReader::new(stderr).lines();
    let log: LogBuf = Default::default();
    let addr = loop {
        let line = lines
            .next()
            .expect("process exited before announcing its address")
            .expect("read stderr");
        log.lock().unwrap().push(line.clone());
        if let Some(rest) = line.split(" listening on ").nth(1) {
            break rest
                .split_whitespace()
                .next()
                .expect("address token")
                .parse()
                .expect("parse announced address");
        }
    };
    let sink = log.clone();
    std::thread::spawn(move || {
        for line in lines.map_while(Result::ok) {
            sink.lock().unwrap().push(line);
        }
    });
    (guard, addr, log)
}

/// Trace ids from captured `slow_query` records whose line also
/// contains `needle`.
fn slow_traces(log: &LogBuf, needle: &str) -> Vec<String> {
    log.lock()
        .unwrap()
        .iter()
        .filter(|line| line.contains("event=slow_query") && line.contains(needle))
        .filter_map(|line| {
            line.split_whitespace()
                .find_map(|token| token.strip_prefix("trace="))
                .map(str::to_string)
        })
        .collect()
}

/// Polls until `probe` returns `Some` or ~10 s elapse.
fn wait_for<T>(mut probe: impl FnMut() -> Option<T>) -> Option<T> {
    for _ in 0..200 {
        if let Some(value) = probe() {
            return Some(value);
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    None
}

fn spawn_shard() -> (ProcGuard, SocketAddr) {
    spawn(&[
        "shard",
        "--addr",
        "127.0.0.1:0",
        "--rows",
        "1200",
        "--seed",
        "7",
    ])
}

fn spawn_router(shards: &[SocketAddr]) -> (ProcGuard, SocketAddr) {
    let mut args: Vec<String> = vec!["router".into(), "--addr".into(), "127.0.0.1:0".into()];
    for shard in shards {
        args.push("--shard".into());
        args.push(shard.to_string());
    }
    let refs: Vec<&str> = args.iter().map(String::as_str).collect();
    spawn(&refs)
}

/// A shard with a snapshot store (replica images land on disk, where
/// the corruption test can tamper with them). Sync snapshots so every
/// state change is on disk before the reply.
fn spawn_shard_with_store(dir: &std::path::Path) -> (ProcGuard, SocketAddr) {
    spawn(&[
        "shard",
        "--addr",
        "127.0.0.1:0",
        "--rows",
        "1200",
        "--seed",
        "7",
        "--data-dir",
        dir.to_str().unwrap(),
        "--snapshot-every",
        "0",
    ])
}

/// A router with warm replication on and a fast probe cadence, so
/// failover completes within the test's polling window.
fn spawn_router_replicated(shards: &[SocketAddr]) -> (ProcGuard, SocketAddr) {
    let mut args: Vec<String> = vec![
        "router".into(),
        "--addr".into(),
        "127.0.0.1:0".into(),
        "--replicas".into(),
        "1".into(),
        "--probe-secs".into(),
        "1".into(),
    ];
    for shard in shards {
        args.push("--shard".into());
        args.push(shard.to_string());
    }
    let refs: Vec<&str> = args.iter().map(String::as_str).collect();
    spawn(&refs)
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

/// Per-session exploration, varied by the session's creation index so
/// sessions are distinguishable: planted dependencies, null views, and
/// a policy swap all land in the ledger.
fn script(session: SessionId, variant: usize) -> Vec<Command> {
    let wave = format!("Wave-{}", (variant % 4) + 1);
    vec![
        Command::AddVisualization {
            session,
            attribute: ["sex", "race", "education", "occupation"][variant % 4].into(),
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
            filter: eq("survey_wave", Value::Str(wave)),
        },
        Command::SetPolicy {
            session,
            policy: PolicySpec::Hopeful {
                delta: 3.0 + variant as f64,
            },
        },
        Command::AddVisualization {
            session,
            attribute: "marital_status".into(),
            filter: FilterSpec::Between {
                column: "age".into(),
                lo: 20.0 + variant as f64,
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

/// The step index at which the mid-run `join_shard` interrupts.
const CUT: usize = 3;
/// Enough sessions that the 3→4-shard join remapping neither zero nor
/// all of them is a statistical certainty (expected remap fraction is
/// the joiner's vnode share, ≈ ¼; even at the 2×-imbalance worst case
/// the zero-remap probability is < 10⁻³·⁵ — with the typical share it
/// is ≈ 10⁻⁷) — the assertions below must never flake on the
/// port-dependent ring layout.
const SESSIONS: usize = 60;

/// gauge + csv + text — a session's complete observable state.
fn transcripts(client: &mut Client, session: SessionId) -> (String, String, String) {
    let gauge = match client.call(&Command::Gauge { session }).unwrap() {
        Response::GaugeText { text, .. } => text,
        other => panic!("{other:?}"),
    };
    let grab = |client: &mut Client, format| match client
        .call(&Command::Transcript { session, format })
        .unwrap()
    {
        Response::TranscriptText { text, .. } => text,
        other => panic!("{other:?}"),
    };
    let csv = grab(client, TranscriptFormat::Csv);
    let text = grab(client, TranscriptFormat::Text);
    (gauge, csv, text)
}

/// Drives the first `CUT` steps of every session — step-major and
/// batched (one mixed-session batch per step), so the routed run
/// exercises the envelope layer and cross-shard fan-out — then the
/// remaining steps as singles.
fn drive(client: &mut Client, sids: &[SessionId], range: std::ops::Range<usize>, batched: bool) {
    for step in range {
        let cmds: Vec<Command> = sids
            .iter()
            .enumerate()
            .map(|(variant, &sid)| script(sid, variant)[step].clone())
            .collect();
        if batched {
            for response in client.call_batch(&cmds, BatchMode::Continue).unwrap() {
                assert!(response.is_ok(), "{response:?}");
            }
        } else {
            for cmd in &cmds {
                let response = client.call(cmd).unwrap();
                assert!(response.is_ok(), "{cmd:?} -> {response:?}");
            }
        }
    }
}

/// Cluster-wide stats, fetched over the v1 NDJSON surface: the
/// per-shard health breakdown rides JSON only (the binary payload is
/// deliberately frozen as the count-prefixed scalar list).
fn cluster_stats(router_addr: SocketAddr) -> aware_serve::proto::StatsSnapshot {
    let mut client = Client::connect(router_addr).unwrap();
    match client.call(&Command::Stats).unwrap() {
        Response::Stats(stats) => *stats,
        other => panic!("{other:?}"),
    }
}

#[test]
fn routed_cluster_is_byte_identical_to_single_process_serve() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // --- The cluster: three shard processes behind one router process.
    let (_s1, a1) = spawn_shard();
    let (_s2, a2) = spawn_shard();
    let (_s3, a3) = spawn_shard();
    let (_router, router_addr) = spawn_router(&[a1, a2, a3]);

    // Binary framing for the drive; a plain v1 NDJSON connection reads
    // some transcripts later, proving both surfaces cross the hop.
    let mut client = Client::connect_with(router_addr, Encoding::Binary).unwrap();
    let sids: Vec<SessionId> = (0..SESSIONS).map(|_| create_session(&mut client)).collect();
    drive(&mut client, &sids, 0..CUT, true);

    // --- Mid-exploration rebalance: a fourth shard joins.
    let (_s4, a4) = spawn_shard();
    let migrated = match client
        .call(&Command::JoinShard {
            addr: a4.to_string(),
        })
        .unwrap()
    {
        Response::Rebalanced {
            joined, migrated, ..
        } => {
            assert!(joined);
            migrated
        }
        other => panic!("join_shard failed: {other:?}"),
    };
    // Only the remapped slice moves: some sessions, never all of them.
    // (With 10 sessions over a 3→4 shard ring, both extremes are
    // astronomically unlikely *and* would each indicate a broken ring.)
    assert!(migrated > 0, "a 4th shard must take over some sessions");
    assert!(
        migrated < SESSIONS as u64,
        "a join must not reshuffle every session ({migrated} of {SESSIONS})"
    );
    let stats = cluster_stats(router_addr);
    assert_eq!(
        stats.migrations, migrated,
        "stats.migrations must record exactly the rebalance's moves"
    );
    assert_eq!(stats.sessions_live as usize, SESSIONS);
    assert_eq!(stats.shards.len(), 4);
    assert!(stats.shards.iter().all(|s| s.healthy), "{:?}", stats.shards);

    // --- Continue every session (migrated ones included) to the end.
    drive(&mut client, &sids, CUT..script(0, 0).len(), false);
    let routed: Vec<_> = sids
        .iter()
        .map(|&sid| transcripts(&mut client, sid))
        .collect();

    // The v1 NDJSON surface reads the same bytes through the router.
    let mut v1 = Client::connect(router_addr).unwrap();
    for (&sid, routed) in sids.iter().zip(&routed) {
        assert_eq!(
            transcripts(&mut v1, sid),
            *routed,
            "v1 and v2 surfaces disagree through the router"
        );
    }

    // --- Reference: one single-process serve replays the same commands.
    let (_reference, ref_addr) = spawn_shard();
    let mut reference = Client::connect_with(ref_addr, Encoding::Binary).unwrap();
    let ref_sids: Vec<SessionId> = (0..SESSIONS)
        .map(|_| create_session(&mut reference))
        .collect();
    assert_eq!(
        ref_sids, sids,
        "router id allocation must match a fresh serve's"
    );
    drive(&mut reference, &ref_sids, 0..script(0, 0).len(), false);
    for (i, &sid) in ref_sids.iter().enumerate() {
        let expected = transcripts(&mut reference, sid);
        assert_eq!(
            routed[i], expected,
            "session {sid}: routed transcripts diverged from the single-process replay \
             (the cluster hop, batching, or migration changed observable state)"
        );
        assert!(
            expected.1.lines().count() > 1,
            "reference transcript is empty: {}",
            expected.1
        );
    }

    // --- Error contract across the hop: closed is unknown, not 5xx-ish.
    assert!(client
        .call(&Command::CloseSession { session: sids[0] })
        .unwrap()
        .is_ok());
    match client.call(&Command::Gauge { session: sids[0] }).unwrap() {
        Response::Error(e) => assert_eq!(e.code, ErrorCode::UnknownSession),
        other => panic!("{other:?}"),
    }

    // --- A healthy leave drains the joiner: everything it took over
    // migrates back out, and every surviving session keeps serving
    // byte-identical state.
    match client
        .call(&Command::LeaveShard {
            addr: a4.to_string(),
        })
        .unwrap()
    {
        Response::Rebalanced {
            joined,
            migrated: drained,
            ..
        } => {
            assert!(!joined);
            assert!(
                drained >= migrated.saturating_sub(1),
                "the joiner held at least the sessions it took ({drained} vs {migrated}; \
                 one may have been closed)"
            );
        }
        other => panic!("leave_shard failed: {other:?}"),
    }
    for (i, &sid) in sids.iter().enumerate().skip(1) {
        assert_eq!(
            transcripts(&mut client, sid),
            routed[i],
            "session {sid} changed state across the leave"
        );
    }
}

/// Plain-socket HTTP GET against a metrics endpoint — the same shape
/// the CI conformance step's curl performs.
fn http_get(addr: SocketAddr, path: &str) -> String {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    raw
}

/// The observability contract across the hop: the router stamps every
/// forwarded envelope with a trace id, the shard adopts it, and at
/// `--slow-ms 0` both processes emit `slow_query` records carrying the
/// *same* `trace=` token — one grep follows a command across process
/// boundaries. The router's `--metrics-addr` endpoint must also serve
/// a parseable merged-plus-per-shard exposition.
#[test]
fn router_stamped_trace_id_appears_in_the_shards_slow_query_log() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (_shard, shard_addr, shard_log) = spawn_logged(&[
        "shard",
        "--addr",
        "127.0.0.1:0",
        "--rows",
        "1200",
        "--seed",
        "7",
        "--slow-ms",
        "0",
    ]);
    let shard = shard_addr.to_string();
    let (_router, router_addr, router_log) = spawn_logged(&[
        "router",
        "--addr",
        "127.0.0.1:0",
        "--shard",
        &shard,
        "--slow-ms",
        "0",
        "--metrics-addr",
        "127.0.0.1:0",
    ]);

    let mut client = Client::connect_with(router_addr, Encoding::Binary).unwrap();
    let sid = create_session(&mut client);
    let response = client.call(&script(sid, 0)[1]).unwrap();
    assert!(response.is_ok(), "{response:?}");

    // At --slow-ms 0 every forwarded command is a slow query. Take the
    // router's record for the visualization …
    let trace = wait_for(|| slow_traces(&router_log, "kind=add_visualization").pop())
        .expect("router never logged a slow add_visualization record");
    // … and find the identical trace id in the shard's own record.
    let shard_line = wait_for(|| {
        shard_log
            .lock()
            .unwrap()
            .iter()
            .find(|l| l.contains("event=slow_query") && l.contains(&format!("trace={trace}")))
            .cloned()
    })
    .unwrap_or_else(|| {
        panic!(
            "trace {trace} missing from the shard's slow-query log:\n{}",
            shard_log.lock().unwrap().join("\n")
        )
    });
    // The shard side carries the execution detail the router can't see.
    assert!(
        shard_line.contains("kind=add_visualization"),
        "{shard_line}"
    );
    assert!(shard_line.contains("dataset=census"), "{shard_line}");
    assert!(shard_line.contains("fingerprint="), "{shard_line}");

    // The router announced its metrics endpoint before the listening
    // line; curl it and validate the exposition parses.
    let metrics_addr: SocketAddr = router_log
        .lock()
        .unwrap()
        .iter()
        .find_map(|l| l.split("metrics exposition on http://").nth(1))
        .map(|rest| rest.trim_end_matches("/metrics").parse().unwrap())
        .expect("router announced no metrics endpoint");
    let raw = http_get(metrics_addr, "/metrics");
    assert!(raw.starts_with("HTTP/1.1 200 OK"), "{raw}");
    let body = raw.split("\r\n\r\n").nth(1).unwrap_or("");
    let samples = aware_obs::expose::validate_exposition(body)
        .unwrap_or_else(|e| panic!("invalid exposition: {e}\n{body}"));
    assert!(samples > 5, "only {samples} samples:\n{body}");
    // Merged view plus the per-shard breakdown, labeled by address.
    assert!(body.contains("# TYPE aware_router_latency_us "), "{body}");
    assert!(body.contains("aware_slow_queries_total"), "{body}");
    assert!(body.contains(&format!("shard=\"{shard}\"")), "{body}");
}

#[test]
fn sigkilled_shard_answers_unavailable_and_the_rest_keep_serving() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut shards = [spawn_shard(), spawn_shard(), spawn_shard()];
    let addrs: Vec<SocketAddr> = shards.iter().map(|(_, addr)| *addr).collect();
    let (_router, router_addr) = spawn_router(&addrs);
    let mut client = Client::connect_with(router_addr, Encoding::Binary).unwrap();

    let sids: Vec<SessionId> = (0..18).map(|_| create_session(&mut client)).collect();
    for (variant, &sid) in sids.iter().enumerate() {
        let response = client.call(&script(sid, variant)[1]).unwrap();
        assert!(response.is_ok(), "{response:?}");
    }

    // Pick a victim shard that actually holds sessions, then SIGKILL it.
    let stats = cluster_stats(router_addr);
    let victim_addr = stats
        .shards
        .iter()
        .find(|s| s.sessions_live > 0)
        .expect("18 sessions over 3 shards: someone holds sessions")
        .addr
        .clone();
    let victim_index = addrs
        .iter()
        .position(|a| a.to_string() == victim_addr)
        .expect("victim is one of ours");
    shards[victim_index].0.kill_hard();

    // Sessions on the dead shard answer `unavailable` — the ledger is
    // on the dead shard, and a fresh budget is the one forbidden
    // answer. Sessions elsewhere keep serving.
    let mut ok = 0;
    let mut unavailable = 0;
    for &sid in &sids {
        match client.call(&Command::Gauge { session: sid }).unwrap() {
            Response::GaugeText { .. } => ok += 1,
            Response::Error(e) => {
                assert_eq!(e.code, ErrorCode::Unavailable, "{e}");
                unavailable += 1;
            }
            other => panic!("{other:?}"),
        }
    }
    assert!(ok > 0, "surviving shards must keep serving");
    assert!(
        unavailable > 0,
        "the dead shard's sessions must be unavailable"
    );

    // The router's per-shard breakdown marks exactly the victim dead.
    let stats = cluster_stats(router_addr);
    let dead: Vec<_> = stats.shards.iter().filter(|s| !s.healthy).collect();
    assert_eq!(dead.len(), 1, "{:?}", stats.shards);
    assert_eq!(dead[0].addr, victim_addr);
    assert!(stats.shard_errors > 0);

    // Leaving the dead shard is refused: migration needs its data, and
    // dropping it from the ring would orphan ledgers silently.
    match client
        .call(&Command::LeaveShard {
            addr: victim_addr.clone(),
        })
        .unwrap()
    {
        Response::Error(e) => assert_eq!(e.code, ErrorCode::Unavailable, "{e}"),
        other => panic!("leave of a dead shard must be refused: {other:?}"),
    }

    // Leaving a *healthy* shard while a dead one is still in the ring
    // can only partially migrate (sessions that remap onto the dead
    // shard cannot move): the router reports the rebalance incomplete
    // — and, crucially, loses nothing. Every session still answers
    // either its state or `unavailable`; none becomes unknown, none
    // gets a fresh budget.
    let healthy_addr = stats
        .shards
        .iter()
        .find(|s| s.healthy && s.sessions_live > 0)
        .map(|s| s.addr.clone());
    if let Some(addr) = healthy_addr {
        match client.call(&Command::LeaveShard { addr }).unwrap() {
            Response::Rebalanced { joined, .. } => assert!(!joined), // all moves dodged the dead shard
            Response::Error(e) => {
                assert_eq!(e.code, ErrorCode::Unavailable);
                assert!(e.message.contains("incomplete"), "{e}");
            }
            other => panic!("{other:?}"),
        }
        let mut still_ok = 0;
        for &sid in &sids {
            match client.call(&Command::Gauge { session: sid }).unwrap() {
                Response::GaugeText { .. } => still_ok += 1,
                Response::Error(e) => assert_eq!(e.code, ErrorCode::Unavailable, "{e}"),
                other => panic!("{other:?}"),
            }
        }
        assert!(
            still_ok >= ok,
            "a partial leave may only move sessions to healthy shards ({still_ok} < {ok})"
        );
    }
}

/// A fresh per-test scratch directory under the OS temp root.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("aware-conformance-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The sessions across the whole cluster that a kill must not stall:
/// polls until every one of `sids` answers its gauge again (promotion
/// has replaced the dead primary), panicking on the two forbidden
/// answers — `unknown_session` (the ledger vanished) and a gauge from
/// a *fresh* session (the ledger was reset: full starting wealth, no
/// views — exactly the adaptive-reuse attack a failover must prevent).
fn wait_all_serving(client: &mut Client, sids: &[SessionId]) {
    wait_for(|| {
        for &sid in sids {
            match client.call(&Command::Gauge { session: sid }).unwrap() {
                Response::GaugeText { .. } => {}
                Response::Error(e) if e.code == ErrorCode::Unavailable => return None,
                other => panic!("session {sid} during failover: {other:?}"),
            }
        }
        Some(())
    })
    .expect("failover did not restore service within the polling window");
}

/// Tentpole proof, part 1: warm replication + automatic failover is
/// *invisible* to a client. Three shard processes behind a replicated
/// router; mid-exploration the router SIGKILLs cannot be told apart
/// from a slow network — sessions on the killed primary promote from
/// their replicas automatically and every transcript stays
/// byte-identical to an uninterrupted single-process replay.
#[test]
fn sigkilled_primary_fails_over_and_transcripts_match_single_process_replay() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut shards = [spawn_shard(), spawn_shard(), spawn_shard()];
    let addrs: Vec<SocketAddr> = shards.iter().map(|(_, addr)| *addr).collect();
    let (_router, router_addr) = spawn_router_replicated(&addrs);
    let mut client = Client::connect_with(router_addr, Encoding::Binary).unwrap();

    const HA_SESSIONS: usize = 18;
    let sids: Vec<SessionId> = (0..HA_SESSIONS)
        .map(|_| create_session(&mut client))
        .collect();
    drive(&mut client, &sids, 0..CUT, true);

    // Wait for the replication cadence to catch up: every session's
    // image shipped and acked at its latest epoch.
    wait_for(|| {
        let stats = cluster_stats(router_addr);
        (stats.replicas_live as usize == HA_SESSIONS && stats.replication_lag_max_epochs == 0)
            .then_some(())
    })
    .expect("replication never caught up (lag > 0 or images missing)");

    // SIGKILL a shard that actually holds sessions, mid-exploration.
    let stats = cluster_stats(router_addr);
    let victim_addr = stats
        .shards
        .iter()
        .find(|s| s.sessions_live > 0)
        .expect("18 sessions over 3 shards: someone holds sessions")
        .addr
        .clone();
    let victim_index = addrs
        .iter()
        .position(|a| a.to_string() == victim_addr)
        .expect("victim is one of ours");
    shards[victim_index].0.kill_hard();

    // Automatic failover: suspect → confirm → promote. No operator
    // action; the only client-visible artifact is a brief
    // `unavailable` window while death is being confirmed. Gauges
    // alone don't prove promotion (a session whose primary survived
    // answers either way), so first wait for the router to finish the
    // failover — dead shard out of the ring, promotions recorded —
    // then for every session to answer.
    wait_for(|| {
        let stats = cluster_stats(router_addr);
        (stats.shards.len() == 2 && stats.promotions > 0).then_some(())
    })
    .expect("the router never completed the failover");
    wait_all_serving(&mut client, &sids);

    // Continue every session to the end and read the full transcripts.
    drive(&mut client, &sids, CUT..script(0, 0).len(), false);
    let routed: Vec<_> = sids
        .iter()
        .map(|&sid| transcripts(&mut client, sid))
        .collect();

    // The router promoted (at least one session lived on the victim),
    // dropped the dead shard from the ring, and lost nobody.
    let stats = cluster_stats(router_addr);
    assert!(stats.promotions > 0, "no promotion recorded: {stats:?}");
    assert_eq!(stats.sessions_live as usize, HA_SESSIONS);
    assert_eq!(stats.shards.len(), 2, "{:?}", stats.shards);
    assert!(stats.shards.iter().all(|s| s.healthy), "{:?}", stats.shards);

    // --- Reference: one single-process serve, never interrupted.
    let (_reference, ref_addr) = spawn_shard();
    let mut reference = Client::connect_with(ref_addr, Encoding::Binary).unwrap();
    let ref_sids: Vec<SessionId> = (0..HA_SESSIONS)
        .map(|_| create_session(&mut reference))
        .collect();
    assert_eq!(ref_sids, sids);
    drive(&mut reference, &ref_sids, 0..script(0, 0).len(), false);
    for (i, &sid) in ref_sids.iter().enumerate() {
        let expected = transcripts(&mut reference, sid);
        assert_eq!(
            routed[i], expected,
            "session {sid}: transcripts diverged across the failover — the promoted \
             replica did not carry the exact wealth ledger"
        );
    }
}

/// Tentpole proof, part 2: the Hardt–Ullman rule under failover. A
/// replica image deliberately corrupted on disk is *refused* at
/// promotion time — the stranded session answers `corrupt_snapshot`
/// forever after (never `unknown_session`, never a fresh budget),
/// while every untampered session on the same dead primary promotes
/// and continues byte-identically.
#[test]
fn tampered_replica_image_is_refused_at_promotion_never_adopted() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let dirs = [scratch_dir("tamper-a"), scratch_dir("tamper-b")];
    let mut shards = [
        spawn_shard_with_store(&dirs[0]),
        spawn_shard_with_store(&dirs[1]),
    ];
    let addrs: Vec<SocketAddr> = shards.iter().map(|(_, addr)| *addr).collect();
    let (_router, router_addr) = spawn_router_replicated(&addrs);
    let mut client = Client::connect_with(router_addr, Encoding::Binary).unwrap();

    const T_SESSIONS: usize = 16;
    let sids: Vec<SessionId> = (0..T_SESSIONS)
        .map(|_| create_session(&mut client))
        .collect();
    drive(&mut client, &sids, 0..2, false);
    wait_for(|| {
        let stats = cluster_stats(router_addr);
        (stats.replicas_live as usize == T_SESSIONS && stats.replication_lag_max_epochs == 0)
            .then_some(())
    })
    .expect("replication never caught up (lag > 0 or images missing)");

    // With two shards and R=1, the survivor's `repl-<id>.e<epoch>.awrs`
    // files are exactly the victim's sessions. Pick a victim that holds
    // sessions; its replicas live in the other shard's data dir.
    let stats = cluster_stats(router_addr);
    let victim_addr = stats
        .shards
        .iter()
        .find(|s| s.sessions_live > 0)
        .expect("16 sessions over 2 shards: someone holds sessions")
        .addr
        .clone();
    let victim_index = addrs
        .iter()
        .position(|a| a.to_string() == victim_addr)
        .expect("victim is one of ours");
    let survivor_dir = &dirs[1 - victim_index];
    let mut victim_replicas: Vec<(SessionId, std::path::PathBuf)> = std::fs::read_dir(survivor_dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter_map(|path| {
            let name = path.file_name()?.to_str()?;
            let id: SessionId = name
                .strip_prefix("repl-")?
                .split_once(".e")?
                .0
                .parse()
                .ok()?;
            Some((id, path))
        })
        .collect();
    victim_replicas.sort();
    assert!(
        !victim_replicas.is_empty(),
        "survivor holds no replica images in {survivor_dir:?}"
    );

    // Record every session's observable state before the failure …
    let before: Vec<_> = sids
        .iter()
        .map(|&sid| transcripts(&mut client, sid))
        .collect();

    // … then corrupt ONE victim session's replica image on disk (flip
    // a byte mid-file) and SIGKILL its primary.
    let (tampered, tampered_path) = victim_replicas[0].clone();
    let mut bytes = std::fs::read(&tampered_path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&tampered_path, &bytes).unwrap();
    shards[victim_index].0.kill_hard();

    // The tampered session must converge to `corrupt_snapshot`: the
    // image fails restore validation at promotion, the replica is
    // discarded, and with no next-best epoch left the session strands.
    // `unavailable` is legal only *during* the confirmation window;
    // `unknown_session` or a served gauge would be adoption of a
    // corrupt ledger — the one forbidden outcome.
    wait_for(
        || match client.call(&Command::Gauge { session: tampered }).unwrap() {
            Response::Error(e) if e.code == ErrorCode::Unavailable => None,
            Response::Error(e) => {
                assert_eq!(e.code, ErrorCode::CorruptSnapshot, "{e}");
                Some(())
            }
            other => panic!("tampered session {tampered} was adopted: {other:?}"),
        },
    )
    .expect("tampered session never answered corrupt_snapshot");

    // Mutations are refused the same way — no write path resurrects it.
    match client.call(&script(tampered, 0)[4]).unwrap() {
        Response::Error(e) => assert_eq!(e.code, ErrorCode::CorruptSnapshot, "{e}"),
        other => panic!("{other:?}"),
    }

    // Every *untampered* session — the victim's included — promotes
    // and serves its exact pre-kill state. (The tampered session
    // strands *first* — victims fail over in id order and it holds the
    // lowest id — so wait for the full failover before asserting the
    // promotion count.)
    wait_for(|| {
        let stats = cluster_stats(router_addr);
        (stats.shards.len() == 1 && stats.promotions as usize >= victim_replicas.len() - 1)
            .then_some(())
    })
    .expect("untampered victim sessions never finished promoting");
    let untampered: Vec<SessionId> = sids.iter().copied().filter(|&s| s != tampered).collect();
    wait_all_serving(&mut client, &untampered);
    for &sid in &untampered {
        assert_eq!(
            transcripts(&mut client, sid),
            before[sid as usize],
            "session {sid} changed state across the failover"
        );
    }

    drop(shards);
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}
