//! The determinism-under-concurrency smoke test.
//!
//! The α-investing guarantee is sequential *per session*: hypothesis
//! j's bid is a function of the wealth left by hypotheses 1..j−1, so a
//! server may only scale across sessions, never reorder within one.
//! This test drives ≥ 64 sessions from ≥ 8 client threads (≥ 10 000
//! commands total, interleaved across sessions, route stripes, registry
//! shards, and one shared table) and then asserts that every session's
//! final gauge and transcripts are **byte-identical** to a
//! single-threaded replay of that session's exact command stream on a
//! fresh service.

use aware_data::census::{CensusGenerator, EDUCATION, MARITAL, RACE, REGION, WAVE};
use aware_data::predicate::CmpOp;
use aware_data::table::Table;
use aware_data::value::Value;
use aware_serve::proto::{Command, FilterSpec, PolicySpec, SessionId, TranscriptFormat};
use aware_serve::service::{Service, ServiceConfig};
use aware_serve::{Response, ServiceHandle};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const SESSIONS: usize = 72;
const THREADS: usize = 12;
const STEPS_PER_SESSION: usize = 150;
const TABLE_ROWS: usize = 3_000;
const TABLE_SEED: u64 = 4217;

/// Tiny deterministic generator for command scripts (independent of the
/// workspace RNG so the script is fixed forever).
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
        (self.next() % n as u64) as usize
    }
}

fn eq(column: &str, value: Value) -> FilterSpec {
    FilterSpec::Cmp {
        column: column.into(),
        op: CmpOp::Eq,
        value,
    }
}

/// The deterministic per-session exploration script. `session`
/// placeholder 0 — the driver rewrites ids after `create_session`.
fn session_script(index: usize) -> Vec<Command> {
    let mut rng = Lcg(0x5EED ^ (index as u64).wrapping_mul(0x9E3779B97F4A7C15));
    let mut script = Vec::with_capacity(STEPS_PER_SESSION);
    for step in 0..STEPS_PER_SESSION {
        let cmd = match step % 15 {
            // A read command every few steps keeps the recency stamps and
            // render paths in the concurrent mix.
            4 => Command::Gauge { session: 0 },
            9 => Command::Transcript {
                session: 0,
                format: TranscriptFormat::Csv,
            },
            // An occasional policy swap (wealth/ledger carry over).
            12 => Command::SetPolicy {
                session: 0,
                policy: match rng.pick(3) {
                    0 => PolicySpec::Fixed {
                        gamma: 5.0 + rng.pick(20) as f64,
                    },
                    1 => PolicySpec::Hopeful {
                        delta: 2.0 + rng.pick(10) as f64,
                    },
                    _ => PolicySpec::PsiSupport {
                        gamma: 10.0,
                        psi: 0.5,
                    },
                },
            },
            _ => {
                let attribute = [
                    "sex",
                    "education",
                    "marital_status",
                    "occupation",
                    "race",
                    "native_region",
                    "age",
                    "hours_per_week",
                    "salary_over_50k",
                ][rng.pick(9)];
                let filter = match rng.pick(8) {
                    0 => FilterSpec::True,
                    1 => eq("salary_over_50k", Value::Bool(true)),
                    2 => eq("race", Value::Str(RACE[rng.pick(RACE.len())].into())),
                    3 => eq(
                        "education",
                        Value::Str(EDUCATION[rng.pick(EDUCATION.len())].into()),
                    ),
                    4 => eq("survey_wave", Value::Str(WAVE[rng.pick(WAVE.len())].into())),
                    5 => {
                        let lo = 18.0 + rng.pick(40) as f64;
                        FilterSpec::Between {
                            column: "age".into(),
                            lo,
                            hi: lo + 12.0,
                        }
                    }
                    6 => FilterSpec::Not(Box::new(eq(
                        "marital_status",
                        Value::Str(MARITAL[rng.pick(MARITAL.len())].into()),
                    ))),
                    _ => FilterSpec::And(vec![
                        eq("sex", Value::Str(["Male", "Female"][rng.pick(2)].into())),
                        eq(
                            "native_region",
                            Value::Str(REGION[rng.pick(REGION.len())].into()),
                        ),
                    ]),
                };
                Command::AddVisualization {
                    session: 0,
                    attribute: attribute.into(),
                    filter,
                }
            }
        };
        script.push(cmd);
    }
    script
}

fn with_session_id(cmd: &Command, sid: SessionId) -> Command {
    let mut cmd = cmd.clone();
    match &mut cmd {
        Command::AddVisualization { session, .. }
        | Command::SetPolicy { session, .. }
        | Command::Gauge { session }
        | Command::Transcript { session, .. }
        | Command::CloseSession { session } => *session = sid,
        // This suite's random scripts only produce the session-stream
        // commands above (plus creates handled by the caller).
        _ => {}
    }
    cmd
}

/// Final observable state of one session: gauge + both transcripts.
#[derive(PartialEq)]
struct Fingerprint {
    gauge: String,
    csv: String,
    text: String,
}

fn shared_table() -> Arc<Table> {
    Arc::new(CensusGenerator::new(TABLE_SEED).generate(TABLE_ROWS))
}

fn create_session(handle: &ServiceHandle) -> SessionId {
    match handle.call(Command::CreateSession {
        dataset: "census".into(),
        alpha: 0.05,
        policy: PolicySpec::Fixed { gamma: 10.0 },
    }) {
        Response::SessionCreated { session, .. } => session,
        other => panic!("create_session failed: {other:?}"),
    }
}

/// Runs `script` against an existing session, returning its fingerprint.
/// Command errors (wealth exhaustion under an aggressive policy draw)
/// are part of the deterministic record, not failures.
fn drive(
    handle: &ServiceHandle,
    sid: SessionId,
    script: &[Command],
    commands: &AtomicU64,
) -> Fingerprint {
    for cmd in script {
        let response = handle.call(with_session_id(cmd, sid));
        commands.fetch_add(1, Ordering::Relaxed);
        if let Response::Error(e) = &response {
            assert!(
                matches!(e.code, aware_serve::ErrorCode::WealthExhausted),
                "unexpected error for {cmd:?}: {e}"
            );
        }
    }
    let gauge = match handle.call(Command::Gauge { session: sid }) {
        Response::GaugeText { text, .. } => text,
        other => panic!("{other:?}"),
    };
    let csv = match handle.call(Command::Transcript {
        session: sid,
        format: TranscriptFormat::Csv,
    }) {
        Response::TranscriptText { text, .. } => text,
        other => panic!("{other:?}"),
    };
    let text = match handle.call(Command::Transcript {
        session: sid,
        format: TranscriptFormat::Text,
    }) {
        Response::TranscriptText { text, .. } => text,
        other => panic!("{other:?}"),
    };
    commands.fetch_add(3, Ordering::Relaxed);
    Fingerprint { gauge, csv, text }
}

#[test]
fn concurrent_sessions_replay_byte_identically() {
    let table = shared_table();

    // --- Concurrent run: 12 threads × 6 sessions each, command-major
    // interleaving within each thread so its sessions' commands mix on
    // the route stripes.
    let service = Service::start(ServiceConfig::default());
    let handle = service.handle();
    handle.register_shared("census", table.clone());
    let commands = Arc::new(AtomicU64::new(0));

    let mut fingerprints: Vec<Option<Fingerprint>> = (0..SESSIONS).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut chunks: Vec<&mut [Option<Fingerprint>]> = Vec::new();
        let per_thread = SESSIONS / THREADS;
        let mut rest = &mut fingerprints[..];
        for _ in 0..THREADS {
            let (head, tail) = rest.split_at_mut(per_thread);
            chunks.push(head);
            rest = tail;
        }
        for (t, chunk) in chunks.into_iter().enumerate() {
            let handle = handle.clone();
            let commands = commands.clone();
            scope.spawn(move || {
                let base = t * per_thread;
                let scripts: Vec<Vec<Command>> =
                    (0..per_thread).map(|i| session_script(base + i)).collect();
                let sids: Vec<SessionId> =
                    (0..per_thread).map(|_| create_session(&handle)).collect();
                commands.fetch_add(per_thread as u64, Ordering::Relaxed);
                // Command-major: step k of every owned session before
                // step k+1 of any — maximal cross-session interleaving.
                for step in 0..STEPS_PER_SESSION {
                    for (script, sid) in scripts.iter().zip(&sids) {
                        let response = handle.call(with_session_id(&script[step], *sid));
                        commands.fetch_add(1, Ordering::Relaxed);
                        if let Response::Error(e) = &response {
                            assert!(
                                matches!(e.code, aware_serve::ErrorCode::WealthExhausted),
                                "unexpected error: {e}"
                            );
                        }
                    }
                }
                for (i, sid) in sids.iter().enumerate() {
                    let gauge = match handle.call(Command::Gauge { session: *sid }) {
                        Response::GaugeText { text, .. } => text,
                        other => panic!("{other:?}"),
                    };
                    let csv = match handle.call(Command::Transcript {
                        session: *sid,
                        format: TranscriptFormat::Csv,
                    }) {
                        Response::TranscriptText { text, .. } => text,
                        other => panic!("{other:?}"),
                    };
                    let text = match handle.call(Command::Transcript {
                        session: *sid,
                        format: TranscriptFormat::Text,
                    }) {
                        Response::TranscriptText { text, .. } => text,
                        other => panic!("{other:?}"),
                    };
                    commands.fetch_add(3, Ordering::Relaxed);
                    chunk[i] = Some(Fingerprint { gauge, csv, text });
                }
            });
        }
    });
    let total_commands = commands.load(Ordering::Relaxed);
    assert!(
        total_commands >= 10_000,
        "acceptance floor: drove only {total_commands} commands"
    );
    match handle.call(Command::Stats) {
        Response::Stats(s) => {
            assert_eq!(s.sessions_created as usize, SESSIONS);
            assert!(s.hypotheses_tested > 0);
            assert!(s.discoveries > 0, "planted dependencies must surface");
            // 72 sessions over one census share one evaluation cache:
            // the overlapping filter draws must have produced warm hits,
            // and the replay below then proves warm results are
            // byte-identical to a cold single-threaded run.
            assert!(s.cache_hits > 0, "shared-cache run reported no hits: {s:?}");
        }
        other => panic!("{other:?}"),
    }
    drop(handle);
    service.shutdown();

    // --- Sequential replay: one thread, one session at a time, same
    // table bytes, same scripts.
    let replay_service = Service::start(ServiceConfig::default());
    let replay = replay_service.handle();
    replay.register_shared("census", table);
    let replay_commands = AtomicU64::new(0);
    for (index, concurrent) in fingerprints.iter().enumerate() {
        let script = session_script(index);
        let sid = create_session(&replay);
        let sequential = drive(&replay, sid, &script, &replay_commands);
        let concurrent = concurrent
            .as_ref()
            .expect("driver thread filled every slot");
        assert_eq!(
            concurrent.gauge, sequential.gauge,
            "session {index}: gauge diverged under concurrency"
        );
        assert_eq!(
            concurrent.csv, sequential.csv,
            "session {index}: CSV transcript diverged under concurrency"
        );
        assert_eq!(
            concurrent.text, sequential.text,
            "session {index}: text transcript diverged under concurrency"
        );
    }
}

/// The v2 counterpart: the same byte-identity guarantee must hold when
/// commands arrive through `call_batch` in *mixed-session* batches —
/// same-session items execute as one unit, cross-session units run one
/// after another, and every session's final state must equal a v1
/// single-threaded replay of its command stream.
#[test]
fn batched_mixed_session_replay_matches_v1() {
    const BATCH_SESSIONS: usize = 24;
    const BATCH_THREADS: usize = 8;
    const PER_THREAD: usize = BATCH_SESSIONS / BATCH_THREADS;
    /// Steps of every owned session per batch: each submitted batch
    /// interleaves CHUNK_STEPS commands from each of the thread's
    /// sessions, step-major, so one wire message mixes sessions.
    const CHUNK_STEPS: usize = 5;

    let table = shared_table();
    let service = Service::start(ServiceConfig::default());
    let handle = service.handle();
    handle.register_shared("census", table.clone());

    let mut fingerprints: Vec<Option<Fingerprint>> = (0..BATCH_SESSIONS).map(|_| None).collect();
    std::thread::scope(|scope| {
        for (t, chunk) in fingerprints.chunks_mut(PER_THREAD).enumerate() {
            let handle = handle.clone();
            scope.spawn(move || {
                let base = t * PER_THREAD;
                let scripts: Vec<Vec<Command>> =
                    (0..PER_THREAD).map(|i| session_script(base + i)).collect();
                // All of this thread's sessions open in one batch.
                let created = handle.call_batch(vec![
                    Command::CreateSession {
                        dataset: "census".into(),
                        alpha: 0.05,
                        policy: PolicySpec::Fixed { gamma: 10.0 },
                    };
                    PER_THREAD
                ]);
                let sids: Vec<SessionId> = created
                    .iter()
                    .map(|r| match r {
                        Response::SessionCreated { session, .. } => *session,
                        other => panic!("batched create failed: {other:?}"),
                    })
                    .collect();
                // Step-major mixed batches across the owned sessions.
                for start in (0..STEPS_PER_SESSION).step_by(CHUNK_STEPS) {
                    let steps =
                        (start..STEPS_PER_SESSION.min(start + CHUNK_STEPS)).flat_map(|step| {
                            scripts
                                .iter()
                                .zip(&sids)
                                .map(move |(script, sid)| with_session_id(&script[step], *sid))
                        });
                    for response in handle.call_batch(steps.collect()) {
                        if let Response::Error(e) = &response {
                            assert!(
                                matches!(e.code, aware_serve::ErrorCode::WealthExhausted),
                                "unexpected error in batch: {e}"
                            );
                        }
                    }
                }
                // Fingerprints read back through a batch as well.
                for (i, sid) in sids.iter().enumerate() {
                    let mut reads = handle.call_batch(vec![
                        Command::Gauge { session: *sid },
                        Command::Transcript {
                            session: *sid,
                            format: TranscriptFormat::Csv,
                        },
                        Command::Transcript {
                            session: *sid,
                            format: TranscriptFormat::Text,
                        },
                    ]);
                    let text = match reads.pop() {
                        Some(Response::TranscriptText { text, .. }) => text,
                        other => panic!("{other:?}"),
                    };
                    let csv = match reads.pop() {
                        Some(Response::TranscriptText { text, .. }) => text,
                        other => panic!("{other:?}"),
                    };
                    let gauge = match reads.pop() {
                        Some(Response::GaugeText { text, .. }) => text,
                        other => panic!("{other:?}"),
                    };
                    chunk[i] = Some(Fingerprint { gauge, csv, text });
                }
            });
        }
    });
    drop(handle);
    service.shutdown();

    // v1 replay: one thread, single `call`s, one session at a time.
    let replay_service = Service::start(ServiceConfig::default());
    let replay = replay_service.handle();
    replay.register_shared("census", table);
    let replay_commands = AtomicU64::new(0);
    for (index, batched) in fingerprints.iter().enumerate() {
        let script = session_script(index);
        let sid = create_session(&replay);
        let sequential = drive(&replay, sid, &script, &replay_commands);
        let batched = batched.as_ref().expect("driver thread filled every slot");
        assert_eq!(
            batched.gauge, sequential.gauge,
            "session {index}: gauge diverged under batching"
        );
        assert_eq!(
            batched.csv, sequential.csv,
            "session {index}: CSV transcript diverged under batching"
        );
        assert_eq!(
            batched.text, sequential.text,
            "session {index}: text transcript diverged under batching"
        );
    }
}

/// Persistence under concurrency: a capacity-squeezed service spills
/// LRU victims to disk while multi-threaded load keeps creating
/// sessions; touching a spilled session must restore byte-identical
/// state without probing the shared `EvalCache` (restore derives no
/// selection, so a read-only touch leaves its hit and miss counters
/// unchanged), the restored sessions must continue exactly as
/// never-evicted twins do — deriving their selections lazily, through
/// cache hits on the prefixes the load phase left warm — and no
/// snapshot file may carry anything outside the bitmap-free grammar.
#[test]
fn lru_spill_under_load_restores_byte_identical_state() {
    const SPILL_SESSIONS: usize = 24;
    const SPILL_THREADS: usize = 6;
    const PER_THREAD: usize = SPILL_SESSIONS / SPILL_THREADS;
    const SPILL_STEPS: usize = 24;
    const CAPACITY: u64 = 8;

    let dir = std::env::temp_dir().join(format!(
        "aware-spill-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let table = shared_table();
    let service = Service::start(ServiceConfig {
        max_sessions: CAPACITY,
        data_dir: Some(dir.clone()),
        ..Default::default()
    });
    let handle = service.handle();
    handle.register_shared("census", table);
    let commands = Arc::new(AtomicU64::new(0));

    // --- Load phase: 6 threads create+drive 24 sessions through an
    // 8-slot registry, forcing ≥ 16 LRU spills to disk.
    let mut driven: Vec<Option<(SessionId, Fingerprint)>> =
        (0..SPILL_SESSIONS).map(|_| None).collect();
    std::thread::scope(|scope| {
        for (t, chunk) in driven.chunks_mut(PER_THREAD).enumerate() {
            let handle = handle.clone();
            let commands = commands.clone();
            scope.spawn(move || {
                let base = t * PER_THREAD;
                for (i, slot) in chunk.iter_mut().enumerate() {
                    let sid = create_session(&handle);
                    let script = session_script(base + i);
                    let fingerprint = drive(&handle, sid, &script[..SPILL_STEPS], &commands);
                    *slot = Some((sid, fingerprint));
                }
            });
        }
    });
    // Concurrent creates may overshoot evictions by a little (the cap
    // is a resource bound, not an exact count), so the live count ends
    // at or just under capacity — never over.
    let live = handle.live_sessions();
    assert!(
        (1..=CAPACITY).contains(&live),
        "live sessions {live} escaped the {CAPACITY} cap"
    );
    let cache_counters = |handle: &ServiceHandle| match handle.call(Command::Stats) {
        Response::Stats(s) => (s.cache_hits, s.cache_misses),
        other => panic!("{other:?}"),
    };
    match handle.call(Command::Stats) {
        Response::Stats(s) => {
            assert!(
                s.sessions_evicted >= (SPILL_SESSIONS as u64 - CAPACITY),
                "expected ≥ {} spills, saw {}",
                SPILL_SESSIONS as u64 - CAPACITY,
                s.sessions_evicted
            );
            assert!(
                s.persisted >= SPILL_SESSIONS as u64 - CAPACITY,
                "every evicted session must be parked on disk: {s:?}"
            );
        }
        other => panic!("{other:?}"),
    }

    // --- Touch phase: every session — most of them spilled by now —
    // must come back byte-identical, and restoring it for a read-only
    // touch derives no selection.
    let before_touch = cache_counters(&handle);
    let replay_commands = AtomicU64::new(0);
    for entry in &driven {
        let (sid, recorded) = entry.as_ref().expect("driver filled every slot");
        let restored = drive(&handle, *sid, &[], &replay_commands);
        assert!(
            recorded == &restored,
            "session {sid}: state changed across spill/restore\n\
             gauge equal: {}\ncsv equal: {}\ntext equal: {}",
            recorded.gauge == restored.gauge,
            recorded.csv == restored.csv,
            recorded.text == restored.text,
        );
    }
    assert_eq!(
        cache_counters(&handle),
        before_touch,
        "a restore or a read-only touch probed the shared EvalCache"
    );

    // --- Continue phase: every session takes its next steps (each
    // re-restored from disk as the others evict it) and must decide
    // exactly as a never-evicted twin on an uncapped service, its
    // lazily derived selections hitting the prefixes left warm.
    let twins = Service::start(ServiceConfig::default());
    let twin_handle = twins.handle();
    twin_handle.register_shared("census", shared_table());
    let next = SPILL_STEPS..SPILL_STEPS + 6;
    for (i, entry) in driven.iter().enumerate() {
        let (sid, _) = entry.as_ref().expect("driver filled every slot");
        let script = session_script(i);
        let resumed = drive(&handle, *sid, &script[next.clone()], &replay_commands);
        let twin = create_session(&twin_handle);
        let live = drive(&twin_handle, twin, &script[..next.end], &replay_commands);
        assert!(
            resumed == live,
            "session {sid}: continued differently after spill/restore"
        );
    }
    let after_continue = cache_counters(&handle);
    assert!(
        after_continue.0 > before_touch.0,
        "lazy derivation must hit the warm prefixes: {before_touch:?} -> {after_continue:?}"
    );
    drop(twin_handle);
    twins.shutdown();

    // --- Format audit: every snapshot file on disk must be exactly the
    // bitmap-free grammar — decode must succeed and re-encoding must
    // reproduce the file byte for byte, so no byte of any file can be a
    // serialized selection.
    let mut audited = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        let bytes = std::fs::read(&path).unwrap();
        let image = aware_serve::snapshot::decode(&bytes)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(
            aware_serve::snapshot::encode(&image),
            bytes,
            "{}: snapshot bytes outside the grammar",
            path.display()
        );
        audited += 1;
    }
    assert!(
        audited >= (SPILL_SESSIONS - CAPACITY as usize),
        "only {audited} snapshot files on disk"
    );

    drop(handle);
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

fn temp_data_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("aware-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A session whose wealth outlasts thousands of tests.
fn create_long_session(handle: &ServiceHandle) -> SessionId {
    match handle.call(Command::CreateSession {
        dataset: "census".into(),
        alpha: 0.05,
        policy: PolicySpec::Fixed { gamma: 100_000.0 },
    }) {
        Response::SessionCreated { session, .. } => session,
        other => panic!("create_session failed: {other:?}"),
    }
}

/// A testable view distinct per `n`: an age band sliding by one year.
fn age_band(session: SessionId, n: usize) -> Command {
    let lo = 18.0 + (n % 40) as f64;
    Command::AddVisualization {
        session,
        attribute: ["education", "race", "sex", "marital_status"][n % 4].into(),
        filter: FilterSpec::Between {
            column: "age".into(),
            lo,
            hi: lo + 5.0 + (n / 40 % 7) as f64,
        },
    }
}

fn transcript_of(handle: &ServiceHandle, sid: SessionId, format: TranscriptFormat) -> String {
    match handle.call(Command::Transcript {
        session: sid,
        format,
    }) {
        Response::TranscriptText { text, .. } => text,
        other => panic!("transcript of {sid}: {other:?}"),
    }
}

/// Asserts that `sid`'s ledger, read back through `export_session`,
/// holds every decision in `acked` exactly once and nothing else, and
/// that its wealth chains from the opening wealth.
fn assert_ledger_holds(
    handle: &ServiceHandle,
    sid: SessionId,
    acked: &[aware_serve::proto::HypothesisReport],
) {
    let image = match handle.call(Command::ExportSession { session: sid }) {
        Response::SessionExported { image, .. } => aware_serve::snapshot::decode(&image).unwrap(),
        other => panic!("export of {sid}: {other:?}"),
    };
    let ledger = image.session.machine.ledger;
    let key = |p: f64, bid: f64, after: f64| (p.to_bits(), bid.to_bits(), after.to_bits());
    let mut on_ledger: Vec<_> = ledger
        .iter()
        .map(|e| key(e.p_value, e.bid, e.wealth_after))
        .collect();
    let mut from_acks: Vec<_> = acked
        .iter()
        .map(|r| key(r.p_value, r.bid, r.wealth_after))
        .collect();
    on_ledger.sort_unstable();
    from_acks.sort_unstable();
    assert_eq!(
        on_ledger,
        from_acks,
        "session {sid}: ledger of {} entries vs {} acked decisions",
        ledger.len(),
        acked.len()
    );
    let mut ids: Vec<u64> = acked.iter().map(|r| r.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(
        ids.len(),
        acked.len(),
        "session {sid}: a hypothesis id was acked twice"
    );
    if let Some(first) = ledger.first() {
        assert!((first.wealth_before - 0.0475).abs() < 1e-12, "{first:?}");
    }
    for pair in ledger.windows(2) {
        assert_eq!(
            pair[0].wealth_after.to_bits(),
            pair[1].wealth_before.to_bits(),
            "session {sid}: wealth chain broken at entry {}",
            pair[1].index
        );
    }
}

/// Per-route exclusion under spill churn: 8 threads hammer 4 durable
/// sessions through a 2-session registry, so two threads' calls for
/// one session race for its stripe and every other command restores a
/// spilled session while another evicts one. Two commands of one
/// session running at once could restore two copies of its ledger;
/// acked decisions would then be lost or doubled.
#[test]
fn route_exclusion_keeps_one_ledger_per_session_under_spill_churn() {
    const ROUTE_SESSIONS: usize = 4;
    const ROUTE_THREADS: usize = 8;
    const ROUNDS: usize = 12;
    let dir = temp_data_dir("route-exclusion");
    let start = || {
        let service = Service::start(ServiceConfig {
            max_sessions: 2,
            data_dir: Some(dir.clone()),
            ..Default::default()
        });
        service.handle().register_shared("census", shared_table());
        service
    };
    let service = start();
    let handle = service.handle();
    let sids: Vec<SessionId> = (0..ROUTE_SESSIONS)
        .map(|_| create_long_session(&handle))
        .collect();
    let acked = std::sync::Mutex::new(vec![Vec::new(); ROUTE_SESSIONS]);
    std::thread::scope(|scope| {
        for t in 0..ROUTE_THREADS {
            let (handle, sids, acked) = (&handle, &sids, &acked);
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    for (s, &sid) in sids.iter().enumerate() {
                        match handle.call(age_band(sid, t * ROUNDS + round)) {
                            Response::VizAdded {
                                hypothesis: Some(report),
                                ..
                            } => acked.lock().unwrap()[s].push(report),
                            Response::VizAdded { .. } => {}
                            other => panic!("session {sid}: {other:?}"),
                        }
                        match handle.call(Command::Gauge { session: sid }) {
                            Response::GaugeText { session, .. } => assert_eq!(session, sid),
                            other => panic!("session {sid}: {other:?}"),
                        }
                    }
                }
            });
        }
    });
    let acked = acked.into_inner().unwrap();
    let transcripts = |handle: &ServiceHandle| -> Vec<(String, String)> {
        sids.iter()
            .map(|&sid| {
                (
                    transcript_of(handle, sid, TranscriptFormat::Csv),
                    transcript_of(handle, sid, TranscriptFormat::Text),
                )
            })
            .collect()
    };
    let before = transcripts(&handle);
    match handle.call(Command::Stats) {
        Response::Stats(s) => assert!(s.sessions_evicted > 0, "no spill churn: {s:?}"),
        other => panic!("{other:?}"),
    }
    drop(handle);
    service.shutdown();

    let service = start();
    let handle = service.handle();
    assert!(
        transcripts(&handle) == before,
        "a restart over the same data dir changed a transcript"
    );
    for (s, &sid) in sids.iter().enumerate() {
        assert!(!acked[s].is_empty(), "session {sid} acked no decision");
        assert_ledger_holds(&handle, sid, &acked[s]);
    }
    drop(handle);
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Shutdown drains admitted callers: with a periodic snapshot interval
/// far longer than the test, only the shutdown flush persists anything,
/// so every decision acked while shutdown ran — run at once or after a
/// wait for its stripe — must
/// be in the ledger after a restart, and callers arriving after it get
/// `shutdown`.
#[test]
fn shutdown_flushes_every_decision_acked_while_it_ran() {
    const CALLERS: usize = 4;
    let dir = temp_data_dir("shutdown-drain");
    let start = || {
        let service = Service::start(ServiceConfig {
            data_dir: Some(dir.clone()),
            snapshot_every: Some(std::time::Duration::from_secs(3_600)),
            ..Default::default()
        });
        service.handle().register_shared("census", shared_table());
        service
    };
    let service = start();
    let handle = service.handle();
    let sids: Vec<SessionId> = (0..CALLERS).map(|_| create_long_session(&handle)).collect();
    let acks = AtomicU64::new(0);
    let acked: Vec<Vec<aware_serve::proto::HypothesisReport>> = std::thread::scope(|scope| {
        let callers: Vec<_> = sids
            .iter()
            .map(|&sid| {
                let (handle, acks) = (handle.clone(), &acks);
                scope.spawn(move || {
                    let mut acked = Vec::new();
                    for n in 0.. {
                        match handle.call(age_band(sid, n)) {
                            Response::VizAdded { hypothesis, .. } => {
                                acked.extend(hypothesis);
                                acks.fetch_add(1, Ordering::SeqCst);
                            }
                            Response::Error(e) => {
                                assert_eq!(e.code, aware_serve::ErrorCode::Shutdown, "{e}");
                                break;
                            }
                            other => panic!("{other:?}"),
                        }
                    }
                    acked
                })
            })
            .collect();
        while acks.load(Ordering::SeqCst) < 200 {
            std::thread::yield_now();
        }
        service.shutdown();
        callers.into_iter().map(|c| c.join().unwrap()).collect()
    });
    match handle.call(age_band(sids[0], 0)) {
        Response::Error(e) => assert_eq!(e.code, aware_serve::ErrorCode::Shutdown),
        other => panic!("a late caller was served: {other:?}"),
    }
    drop(handle);

    let service = start();
    let handle = service.handle();
    for (sid, acked) in sids.iter().zip(&acked) {
        assert_ledger_holds(&handle, *sid, acked);
    }
    drop(handle);
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Session-free sanity floor for the constants above — keeps the
/// acceptance numbers from silently eroding in refactors.
#[test]
#[allow(clippy::assertions_on_constants)] // asserting the constants is the point
fn smoke_parameters_meet_acceptance_floor() {
    assert!(SESSIONS >= 64);
    assert!(THREADS >= 8);
    assert!(
        SESSIONS.is_multiple_of(THREADS),
        "sessions must split evenly across threads"
    );
    // create + steps + 3 reads per session.
    assert!(SESSIONS * (STEPS_PER_SESSION + 4) >= 10_000);
}
