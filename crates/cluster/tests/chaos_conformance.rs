//! Chaos conformance: the resilience tentpole proven against real
//! processes, real sockets, and a deterministic fault injector.
//!
//! Three escalating proofs:
//!
//! * **Frozen shard** (SIGSTOP, the failure SIGKILL tests can't see):
//!   a shard that accepts connections but never answers must blow the
//!   `--shard-timeout-ms` deadline and answer `unavailable` within
//!   ~2× the budget — never `unknown_session`, never a fresh budget —
//!   and the timeouts must count as missed probes in the shard pool
//!   so the frozen shard converges to confirmed-dead and fails over
//!   exactly like a
//!   SIGKILLed one, with byte-identical continued transcripts.
//! * **Chaos proxy** (`aware-chaos`): a seeded TCP fault proxy on the
//!   router→shard hop drops, resets, stalls, and delays. Stranded
//!   commands answer `unavailable`; every answer that does get
//!   through carries the exact pre-chaos ledger; and once the proxy
//!   goes transparent the cluster replays byte-identically against an
//!   undisturbed single-process reference.
//! * **Property** (seeded schedules): for arbitrary seeds and fault
//!   probabilities, a client driving gauges *through* the proxy never
//!   sees `unknown_session` for a live session, never sees a reset
//!   ledger, and reads byte-identical transcripts after healing.
//!
//! CI runs this alongside `cluster_conformance` as the chaos step:
//! `cargo test -p aware-cluster --release --test chaos_conformance`.

use aware_chaos::{ChaosProxy, FaultSpec};
use aware_data::census::CensusGenerator;
use aware_data::predicate::CmpOp;
use aware_data::value::Value;
use aware_serve::proto::{
    Command, Encoding, FilterSpec, PolicySpec, Response, SessionId, TranscriptFormat,
};
use aware_serve::service::{Service, ServiceConfig};
use aware_serve::tcp::{Client, TcpServer};
use aware_serve::ErrorCode;
use proptest::prelude::*;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command as Proc, Stdio};
use std::time::{Duration, Instant};

/// One cluster of real processes at a time (see `cluster_conformance`
/// for why: OS port reuse across a kill window).
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Kills a spawned process even when an assertion panics. SIGKILL
/// also reaps SIGSTOPped children — a stopped process cannot block it.
struct ProcGuard(Child);

impl ProcGuard {
    fn freeze(&self) {
        let status = Proc::new("kill")
            .args(["-STOP", &self.0.id().to_string()])
            .status()
            .expect("run kill -STOP");
        assert!(status.success(), "SIGSTOP failed");
        // `kill` returns once the signal is queued, not once it has
        // acted: until the thread that dequeues it runs, the process's
        // other threads can still execute — and acknowledge — a
        // command whose effect then dies with the frozen process.
        // Wait until every thread reports stopped.
        let tasks = format!("/proc/{}/task", self.0.id());
        wait_for(|| {
            let stopped = std::fs::read_dir(&tasks).ok()?.all(|task| {
                task.ok()
                    .and_then(|t| std::fs::read_to_string(t.path().join("stat")).ok())
                    // pid (comm) STATE …; comm may itself hold spaces.
                    .and_then(|stat| {
                        stat.rsplit(')')
                            .next()
                            .map(|rest| rest.trim_start().starts_with('T'))
                    })
                    .unwrap_or(false)
            });
            stopped.then_some(())
        })
        .expect("the process never stopped");
    }
}

impl Drop for ProcGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawns the `cluster` binary, waiting for its `… listening on ADDR`
/// stderr announcement.
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
    std::thread::spawn(move || for _ in lines {});
    (guard, addr)
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

/// A replicated router with a tight deadline budget and fast probes,
/// so a frozen shard is suspected, confirmed, and failed over within
/// the test's polling window.
fn spawn_router(
    shards: &[SocketAddr],
    timeout_ms: u64,
    replicas: usize,
) -> (ProcGuard, SocketAddr) {
    let mut args: Vec<String> = vec![
        "router".into(),
        "--addr".into(),
        "127.0.0.1:0".into(),
        "--probe-secs".into(),
        "1".into(),
        "--shard-timeout-ms".into(),
        timeout_ms.to_string(),
        "--replicas".into(),
        replicas.to_string(),
    ];
    for shard in shards {
        args.push("--shard".into());
        args.push(shard.to_string());
    }
    let refs: Vec<&str> = args.iter().map(String::as_str).collect();
    spawn(&refs)
}

/// Polls until `probe` returns `Some` or ~20 s elapse (breaker backoff
/// after a chaos window can hold service off for a few seconds).
fn wait_for<T>(mut probe: impl FnMut() -> Option<T>) -> Option<T> {
    for _ in 0..400 {
        if let Some(value) = probe() {
            return Some(value);
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    None
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

/// Per-session exploration, varied by creation index (same shape as
/// the cluster conformance script: planted dependencies, a policy
/// swap, and range filters all land in the ledger).
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
    ]
}

/// The step at which the fault interrupts the exploration.
const CUT: usize = 3;

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

fn drive(client: &mut Client, sids: &[SessionId], range: std::ops::Range<usize>) {
    for step in range {
        for (variant, &sid) in sids.iter().enumerate() {
            let cmd = script(sid, variant)[step].clone();
            let response = client.call(&cmd).unwrap();
            assert!(response.is_ok(), "{cmd:?} -> {response:?}");
        }
    }
}

fn cluster_stats(router_addr: SocketAddr) -> aware_serve::proto::StatsSnapshot {
    let mut client = Client::connect(router_addr).unwrap();
    match client.call(&Command::Stats).unwrap() {
        Response::Stats(stats) => *stats,
        other => panic!("{other:?}"),
    }
}

/// Replays every session's full script on one undisturbed
/// single-process shard and returns its transcripts — the byte-level
/// ground truth the faulted cluster must match.
fn reference_transcripts(sids: &[SessionId], steps: usize) -> Vec<(String, String, String)> {
    let (_reference, ref_addr) = spawn_shard();
    let mut reference = Client::connect_with(ref_addr, Encoding::Binary).unwrap();
    let ref_sids: Vec<SessionId> = (0..sids.len())
        .map(|_| create_session(&mut reference))
        .collect();
    assert_eq!(ref_sids, sids, "id allocation must match");
    drive(&mut reference, &ref_sids, 0..steps);
    ref_sids
        .iter()
        .map(|&sid| transcripts(&mut reference, sid))
        .collect()
}

/// Tentpole proof, part 1: a FROZEN shard (SIGSTOP — the TCP stack
/// keeps accepting, the process never answers) blows the deadline,
/// answers `unavailable` within ~2× the budget, and then converges to
/// confirmed-dead and fails over exactly like a SIGKILLed shard.
#[test]
fn frozen_shard_blows_the_deadline_then_fails_over_like_a_dead_one() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const BUDGET_MS: u64 = 500;
    const N: usize = 12;

    let shards = [spawn_shard(), spawn_shard(), spawn_shard()];
    let addrs: Vec<SocketAddr> = shards.iter().map(|(_, addr)| *addr).collect();
    let (_router, router_addr) = spawn_router(&addrs, BUDGET_MS, 1);
    let mut client = Client::connect_with(router_addr, Encoding::Binary).unwrap();

    let sids: Vec<SessionId> = (0..N).map(|_| create_session(&mut client)).collect();
    drive(&mut client, &sids, 0..CUT);

    // Replication must be caught up before the freeze, so the promoted
    // images carry exactly the pre-freeze ledgers.
    wait_for(|| {
        let stats = cluster_stats(router_addr);
        (stats.replicas_live as usize == N && stats.replication_lag_max_epochs == 0).then_some(())
    })
    .expect("replication never caught up");

    // Freeze a shard that holds sessions. SIGSTOP is the nastier
    // sibling of SIGKILL: connects succeed (kernel backlog), writes
    // land in its socket buffers, and nothing ever answers.
    let stats = cluster_stats(router_addr);
    let victim_addr = stats
        .shards
        .iter()
        .find(|s| s.sessions_live > 0)
        .expect("12 sessions over 3 shards: someone holds sessions")
        .addr
        .clone();
    let victim_index = addrs
        .iter()
        .position(|a| a.to_string() == victim_addr)
        .expect("victim is one of ours");
    shards[victim_index].0.freeze();

    // Mutations against the frozen shard must come back `unavailable`
    // within ~2× the deadline budget — a mutation goes to its primary
    // once and is never retried, so the bound is one blown deadline
    // plus margin.
    // The two forbidden answers are `unknown_session` and success with
    // a fresh ledger; both would mean the deadline path minted state.
    let mut stranded: Vec<usize> = Vec::new();
    for (variant, &sid) in sids.iter().enumerate() {
        let cmd = script(sid, variant)[CUT].clone();
        let started = Instant::now();
        match client.call(&cmd).unwrap() {
            response if response.is_ok() => {}
            Response::Error(e) => {
                assert_eq!(e.code, ErrorCode::Unavailable, "{e}");
                let elapsed = started.elapsed().as_millis() as u64;
                assert!(
                    elapsed < 2 * BUDGET_MS + 500,
                    "unavailable took {elapsed} ms against a {BUDGET_MS} ms budget"
                );
                stranded.push(variant);
            }
            other => panic!("{other:?}"),
        }
    }
    assert!(!stranded.is_empty(), "the frozen shard held sessions");

    // The blown deadlines are visible: timeout counters while the
    // frozen shard's pool is alive, or — if its probe-miss count
    // already confirmed it dead — a shrunk ring with promotions recorded.
    let stats = cluster_stats(router_addr);
    assert!(
        stats.shard_timeouts > 0 || stats.shards.len() == 2,
        "no timeout evidence: {stats:?}"
    );

    // Deadline timeouts feed suspicion: the frozen shard converges to
    // confirmed-dead and fails over with NO operator action — exactly
    // the SIGKILL path, proven here for a process that still accepts.
    wait_for(|| {
        let stats = cluster_stats(router_addr);
        (stats.shards.len() == 2 && stats.promotions > 0).then_some(())
    })
    .expect("the frozen shard never failed over");
    wait_for(|| {
        for &sid in &sids {
            match client.call(&Command::Gauge { session: sid }).unwrap() {
                Response::GaugeText { .. } => {}
                Response::Error(e) if e.code == ErrorCode::Unavailable => return None,
                other => panic!("session {sid} during failover: {other:?}"),
            }
        }
        Some(())
    })
    .expect("failover did not restore service");

    // The stranded step never reached the frozen process, so replaying
    // it now is its first execution; then finish every script.
    for variant in stranded {
        let response = client.call(&script(sids[variant], variant)[CUT]).unwrap();
        assert!(response.is_ok(), "{response:?}");
    }
    drive(&mut client, &sids, CUT + 1..script(0, 0).len());
    let routed: Vec<_> = sids
        .iter()
        .map(|&sid| transcripts(&mut client, sid))
        .collect();

    // Byte-identical to an undisturbed single-process replay: the
    // freeze, the deadline, and the failover are invisible in the
    // ledger.
    let expected = reference_transcripts(&sids, script(0, 0).len());
    for (i, &sid) in sids.iter().enumerate() {
        assert_eq!(
            routed[i], expected[i],
            "session {sid}: transcripts diverged across the frozen-shard failover"
        );
    }
}

/// Tentpole proof, part 2: a seeded chaos proxy on the router→shard
/// hop strands and stalls commands, but every answer that gets
/// through carries the exact ledger, and after the proxy goes
/// transparent the cluster replays byte-identically.
#[test]
fn chaos_proxied_shard_strands_but_never_resets_and_heals_byte_identically() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const N: usize = 8;

    let (_shard, shard_addr) = spawn_shard();
    let spec =
        FaultSpec::parse("delay=1..20@0.2,stall=300@0.05,drop@0.2,reset@0.1,trunc@0.05").unwrap();
    let proxy = ChaosProxy::spawn(shard_addr, 2017, spec).unwrap();
    proxy.set_transparent(true); // clean setup first
    let (_router, router_addr) = spawn_router(&[proxy.addr()], 500, 0);
    let mut client = Client::connect_with(router_addr, Encoding::Binary).unwrap();

    let sids: Vec<SessionId> = (0..N).map(|_| create_session(&mut client)).collect();
    drive(&mut client, &sids, 0..CUT);
    let before: Vec<_> = sids
        .iter()
        .map(|&sid| transcripts(&mut client, sid))
        .collect();

    // Arm the proxy and hammer idempotent reads. The client talks to
    // the *router* on a clean socket — every fault lives on the
    // router→shard hop, so the client sees only in-band answers. Legal
    // answers: the exact pre-chaos gauge, or `unavailable` (stranded,
    // shed, or reset). Forbidden: `unknown_session`, and any gauge
    // text that differs from the pre-chaos ledger (a reset budget).
    proxy.set_transparent(false);
    let mut served = 0u32;
    let mut stranded = 0u32;
    for round in 0..3 {
        for (i, &sid) in sids.iter().enumerate() {
            match client.call(&Command::Gauge { session: sid }).unwrap() {
                Response::GaugeText { text, .. } => {
                    assert_eq!(
                        text, before[i].0,
                        "session {sid} ledger drifted under chaos"
                    );
                    served += 1;
                }
                Response::Error(e) => {
                    assert_eq!(e.code, ErrorCode::Unavailable, "round {round}: {e}");
                    stranded += 1;
                }
                other => panic!("{other:?}"),
            }
        }
    }
    assert!(
        proxy.stats().faults() > 0,
        "the armed proxy injected nothing (served {served}, stranded {stranded})"
    );

    // Heal. The shard process never died, so once probes get through
    // again a successful probe resets its miss count and the breaker's
    // half-open probe closes the circuit — no operator action.
    proxy.set_transparent(true);
    wait_for(|| {
        for &sid in &sids {
            match client.call(&Command::Gauge { session: sid }).unwrap() {
                Response::GaugeText { .. } => {}
                Response::Error(e) if e.code == ErrorCode::Unavailable => return None,
                other => panic!("session {sid} after healing: {other:?}"),
            }
        }
        Some(())
    })
    .expect("service never recovered after the proxy went transparent");

    // Ledgers unchanged by the whole ordeal, then finish the scripts
    // and diff against the undisturbed single-process reference.
    for (i, &sid) in sids.iter().enumerate() {
        assert_eq!(
            transcripts(&mut client, sid),
            before[i],
            "session {sid} changed state under a read-only chaos window"
        );
    }
    drive(&mut client, &sids, CUT..script(0, 0).len());
    let routed: Vec<_> = sids
        .iter()
        .map(|&sid| transcripts(&mut client, sid))
        .collect();
    let expected = reference_transcripts(&sids, script(0, 0).len());
    for (i, &sid) in sids.iter().enumerate() {
        assert_eq!(
            routed[i], expected[i],
            "session {sid}: transcripts diverged across the chaos window"
        );
    }
}

/// One in-process serve stack behind a chaos proxy, for the property
/// below: returns (service handle keep-alives, proxy, session id,
/// pre-chaos transcripts).
struct ChaosRig {
    _service: Service,
    _server: TcpServer,
    proxy: ChaosProxy,
    session: SessionId,
    before: (String, String, String),
}

fn chaos_rig(seed: u64, spec: FaultSpec) -> ChaosRig {
    let service = Service::start(ServiceConfig::default());
    let handle = service.handle();
    handle.register_table("census", CensusGenerator::new(5).generate(800));
    let server = TcpServer::bind("127.0.0.1:0", handle).unwrap();
    let proxy = ChaosProxy::spawn(server.local_addr(), seed, spec).unwrap();
    proxy.set_transparent(true);

    let mut client = Client::connect(proxy.addr()).unwrap();
    let session = create_session(&mut client);
    drive(&mut client, &[session], 0..CUT);
    let before = transcripts(&mut client, session);
    ChaosRig {
        _service: service,
        _server: server,
        proxy,
        session,
        before,
    }
}

/// A gauge through the armed proxy, reconnecting on transport faults:
/// `Ok(Some(text))` when an answer got through, `Ok(None)` when the
/// attempt was stranded (timeout, reset, garbage). The deadline-bound
/// client guarantees a dropped response can't hang the property.
fn gauge_through_chaos(proxy_addr: SocketAddr, session: SessionId) -> Option<String> {
    let budget = Duration::from_millis(300);
    let mut client = Client::connect_deadline(proxy_addr, budget).ok()?;
    match client.call(&Command::Gauge { session }) {
        Ok(Response::GaugeText { text, .. }) => Some(text),
        Ok(Response::Error(e)) => {
            // In-band errors cross the proxy too; the live session may
            // be reported unavailable, never unknown.
            assert_ne!(
                e.code,
                ErrorCode::UnknownSession,
                "live session {session} answered unknown_session under chaos"
            );
            None
        }
        Ok(other) => panic!("{other:?}"),
        Err(_) => None, // transport fault: stranded
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Under ANY seeded fault schedule, a live session never answers
    /// `unknown_session`, every gauge that gets through carries the
    /// exact pre-chaos ledger, and after healing a fresh connection
    /// reads byte-identical transcripts.
    #[test]
    fn seeded_chaos_schedules_never_reset_a_ledger(
        seed in 1u64..1_000_000,
        p_drop in 0.05f64..0.35,
        p_reset in 0.05f64..0.25,
    ) {
        // No bit flips here: a flipped byte in a *request* can turn one
        // session id into another, and the `unknown_session` that
        // correctly answers the mutated id would be indistinguishable
        // from the forbidden one. Content-corrupting faults are proven
        // at the proxy's own unit level; this property is about
        // stranding faults.
        let spec = FaultSpec {
            p_drop,
            p_reset,
            p_truncate: 0.05,
            ..FaultSpec::default()
        };
        let rig = chaos_rig(seed, spec);

        rig.proxy.set_transparent(false);
        let mut served = 0u32;
        for _ in 0..6 {
            if let Some(text) = gauge_through_chaos(rig.proxy.addr(), rig.session) {
                prop_assert_eq!(
                    &text, &rig.before.0,
                    "seed {}: ledger drifted under chaos", seed
                );
                served += 1;
            }
        }
        let _ = served; // any mix of served/stranded is legal

        // Healed: a fresh connection replays the exact bytes.
        rig.proxy.set_transparent(true);
        let mut client = Client::connect(rig.proxy.addr()).unwrap();
        prop_assert_eq!(
            transcripts(&mut client, rig.session),
            rig.before.clone(),
            "seed {}: transcripts diverged after healing", seed
        );
    }
}
