//! One run against the real binaries: deploy, drive the seeded stream
//! closed-loop over one connection, check every reply, and reduce the
//! samples to the end-to-end metrics.

use crate::layers::{
    self, Client, Command, Encoding, Response, SessionId, SharedTable, StatsSnapshot,
    TranscriptFormat, VizReply,
};
use crate::oracle::{self, Recorded};
use crate::procs::{Binaries, OneCpu, Server, TempDir};
use crate::summary::{self, QuietHalf, Sample};
use crate::workload::{self, Generator, Item, Kind, Script, Spec, Step};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Windows the measured interval is split into: one second each at the
/// benchmark's 15 s, the period of the servers' background rounds.
pub const WINDOWS: usize = 15;

/// The commands one step puts on the wire, given the session id each
/// slot maps to.
pub fn commands_of(step: &Step, gamma: f64, sid: impl Fn(u64) -> SessionId) -> Vec<Command> {
    match step {
        Step::Create { .. } => vec![layers::create_session(gamma)],
        Step::Viz { slot, view, .. } => {
            vec![layers::add_visualization(
                sid(*slot),
                view.attribute,
                &view.filter,
            )]
        }
        Step::Close { slot } => vec![Command::CloseSession {
            session: sid(*slot),
        }],
        Step::Batch { items, .. } => items
            .iter()
            .map(|(slot, item)| {
                let session = sid(*slot);
                match item {
                    Item::Gauge => Command::Gauge { session },
                    Item::SetPolicy { gamma } => Command::SetPolicy {
                        session,
                        policy: layers::fixed(*gamma),
                    },
                    Item::TranscriptCsv => Command::Transcript {
                        session,
                        format: TranscriptFormat::Csv,
                    },
                }
            })
            .collect(),
    }
}

pub fn encoding(spec: &Spec) -> Encoding {
    if spec.json {
        Encoding::Json
    } else {
        Encoding::Binary
    }
}

/// The server processes of one run, client-facing process first.
pub struct Deployment {
    binaries: Binaries,
    spec: Spec,
    metrics: bool,
    pub servers: Vec<Server>,
    // Declared after `servers`: the directory outlives the processes.
    data_dir: Option<TempDir>,
}

impl Deployment {
    /// Starts the workload's processes and times set-up: from the spawn
    /// of the first process to the first successful `create_session`
    /// reply (dataset generation, bind, router joins).
    pub fn start(
        binaries: &Binaries,
        spec: &Spec,
        metrics: bool,
    ) -> Result<(Deployment, f64), String> {
        let data_dir = match spec.kind {
            Kind::DurableEvict20k => Some(TempDir::new("data")?),
            _ => None,
        };
        let started = Instant::now();
        let mut deployment = Deployment {
            binaries: binaries.clone(),
            spec: *spec,
            metrics,
            servers: Vec::new(),
            data_dir,
        };
        deployment.spawn_all()?;
        let mut client = layers::connect(deployment.addr(), encoding(spec))?;
        let session = match client.call(&layers::create_session(spec.gamma)) {
            Ok(Response::SessionCreated { session, .. }) => session,
            other => return Err(format!("set-up create_session: {other:?}")),
        };
        let setup_s = started.elapsed().as_secs_f64();
        match client.call(&Command::CloseSession { session }) {
            Ok(Response::SessionClosed { .. }) => Ok((deployment, setup_s)),
            other => Err(format!("set-up close_session: {other:?}")),
        }
    }

    fn spawn_all(&mut self) -> Result<(), String> {
        let rows = self.spec.rows;
        if self.spec.kind == Kind::ClusterHop20k {
            let shards = [
                Server::spawn(&self.binaries, &layers::shard_process(rows, self.metrics))?,
                Server::spawn(&self.binaries, &layers::shard_process(rows, self.metrics))?,
            ];
            let addrs: Vec<SocketAddr> = shards.iter().map(|s| s.addr).collect();
            let router = Server::spawn(
                &self.binaries,
                &layers::router_process(&addrs, self.metrics),
            )?;
            self.servers.push(router);
            self.servers.extend(shards);
        } else {
            let dir = self.data_dir.as_ref().map(TempDir::path);
            self.servers.push(Server::spawn(
                &self.binaries,
                &layers::serve_process(rows, dir, self.metrics),
            )?);
        }
        Ok(())
    }

    /// Where clients connect: the router, or the one server.
    pub fn addr(&self) -> SocketAddr {
        self.servers[0].addr
    }

    /// SIGTERM every process (graceful drain) and start them again over
    /// the same data directory.
    pub fn restart(&mut self) -> Result<(), String> {
        for server in self.servers.drain(..) {
            server.stop()?;
        }
        self.spawn_all()
    }

    pub fn check_healthy(&mut self) -> Result<(), String> {
        self.servers.iter_mut().try_for_each(Server::check_healthy)
    }

    /// Σ `VmHWM` over the server processes, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let kib: u64 = self
            .servers
            .iter()
            .map(Server::peak_rss_kib)
            .sum::<Result<u64, String>>()?;
        Ok(kib as f64 / 1024.0)
    }

    pub fn stop(self) -> Result<(), String> {
        let mut result = Ok(());
        for server in self.servers {
            result = result.and(server.stop());
        }
        result
    }
}

/// How long to load a deployment.
#[derive(Debug, Clone, Copy)]
pub struct LoadPlan {
    /// Discarded lead-in after priming.
    pub warmup: Duration,
    pub measure: Duration,
}

/// A session still open when the load stopped.
#[derive(Debug, Clone, Copy)]
pub struct LiveSession {
    pub slot: u64,
    pub session: SessionId,
    /// Views placed so far.
    pub age: usize,
}

/// The loaded deployment's client-side record. Sample times count
/// from the end of priming.
#[derive(Default)]
pub struct LoadOutcome {
    pub samples: Vec<Sample>,
    /// Operations sent: timed ops plus every untimed step that failed.
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub recorded: Vec<Recorded>,
    pub live: Vec<LiveSession>,
}

impl LoadOutcome {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 5 {
            self.problems.push(what);
        }
    }
}

/// The texts an oracle session must answer `gauge` and `transcript`
/// with once it is primed. On the workloads that read sessions instead
/// of testing on them the state is constant from then on, so one gauge
/// rendering per γ the session can be under, and one transcript, cover
/// every reply it will ever give.
struct Expect {
    gauges: Vec<(f64, String)>,
    csv: String,
}

impl Expect {
    /// Replays the first `age` views of `slot` through the oracle and
    /// renders it under each of `gammas`.
    fn of(gen: &Generator, table: &SharedTable, slot: u64, age: usize, gammas: &[f64]) -> Expect {
        let mut session = layers::oracle_session(table, gen.spec.gamma);
        for view in gen.views(slot).iter().take(age) {
            let _ = layers::session_add_viz(&mut session, view.attribute, &view.filter);
        }
        Expect {
            gauges: gammas
                .iter()
                .map(|&gamma| {
                    layers::session_set_policy(&mut session, gamma);
                    (gamma, layers::session_gauge(&session))
                })
                .collect(),
            csv: layers::session_transcript_csv(&session),
        }
    }

    fn gauge_matches(&self, gamma: f64, text: &str) -> bool {
        self.gauges
            .iter()
            .any(|(g, expected)| *g == gamma && expected == text)
    }
}

/// Checks one batch reply item by item; `Err` names the first defect.
fn check_batch(
    gauge_gamma: f64,
    items: &[(u64, Item)],
    sessions: &HashMap<u64, SessionId>,
    responses: &[Response],
    expect: &HashMap<u64, Expect>,
) -> Result<(), String> {
    if responses.len() != items.len() {
        return Err(format!(
            "{} commands answered with {} replies",
            items.len(),
            responses.len()
        ));
    }
    for ((slot, item), response) in items.iter().zip(responses) {
        let sid = sessions[slot];
        let expected = expect.get(slot);
        let ok = match (item, response) {
            (Item::Gauge, Response::GaugeText { session, text }) => {
                *session == sid && expected.is_none_or(|e| e.gauge_matches(gauge_gamma, text))
            }
            (Item::SetPolicy { .. }, Response::PolicySet { session, .. }) => *session == sid,
            (
                Item::TranscriptCsv,
                Response::TranscriptText {
                    session,
                    format: TranscriptFormat::Csv,
                    text,
                },
            ) => *session == sid && expected.is_none_or(|e| *text == e.csv),
            _ => false,
        };
        if !ok {
            let mut shown = format!("{response:?}");
            shown.truncate(200);
            return Err(format!("{item:?} of slot {slot}: {shown}"));
        }
    }
    Ok(())
}

/// The closed loop: priming, then timed ops until the plan's time is up.
fn drive(addr: SocketAddr, gen: &Generator, table: &SharedTable, plan: LoadPlan) -> LoadOutcome {
    let mut out = LoadOutcome::default();
    let mut client = match layers::connect(addr, encoding(&gen.spec)) {
        Ok(client) => Some(client),
        Err(e) => {
            out.attempted += 1;
            out.fail(e);
            None
        }
    };
    let mut script = Script::new(gen);
    let mut sessions: HashMap<u64, SessionId> = HashMap::new();
    let mut ages: HashMap<u64, usize> = HashMap::new();
    let mut expect: HashMap<u64, Expect> = HashMap::new();
    let mut pending = script.next_step();

    // Priming: everything before the first timed step.
    while let Some(c) = client.as_mut() {
        if pending.is_timed() {
            break;
        }
        if !untimed_step(c, gen, &pending, &mut sessions, &mut ages, &mut out) {
            client = None;
            break;
        }
        pending = script.next_step();
    }
    // Where the timed ops read primed sessions, their answers are known
    // now: γ alternates 100/101 on the dashboard, never changes elsewhere.
    let gammas: &[f64] = match gen.spec.kind {
        Kind::DashboardBatch5k => &[100.0, 101.0],
        _ => &[gen.spec.gamma],
    };
    if matches!(pending, Step::Batch { .. }) {
        for (&slot, &age) in ages.iter().filter(|(&slot, _)| gen.is_oracle(slot)) {
            expect.insert(slot, Expect::of(gen, table, slot, age, gammas));
        }
    }
    let origin = Instant::now();
    let total = plan.warmup + plan.measure;

    while let Some(c) = client.as_mut() {
        if origin.elapsed() >= total {
            break;
        }
        if !pending.is_timed() {
            if !untimed_step(c, gen, &pending, &mut sessions, &mut ages, &mut out) {
                break;
            }
            pending = script.next_step();
            continue;
        }
        let cmds = commands_of(&pending, gen.spec.gamma, |slot| sessions[&slot]);
        out.attempted += 1;
        let begin = Instant::now();
        let result = match &cmds[..] {
            [cmd] => c.call(cmd).map(|r| vec![r]),
            many => c.call_batch(many, layers::BatchMode::Continue),
        };
        let end = Instant::now();
        let responses = match result {
            Ok(responses) => responses,
            Err(e) => {
                out.fail(format!("transport: {}", e.message));
                break;
            }
        };
        let verdict = match &pending {
            Step::Viz { slot, index, .. } => check_viz(
                gen,
                *slot,
                *index,
                sessions[slot],
                &responses[0],
                &mut out.recorded,
            )
            .map(|()| {
                ages.insert(*slot, index + 1);
            }),
            Step::Batch { serial, items } => {
                // Dashboard gauges run before their batch's policy swap:
                // they see the γ the previous batch installed.
                let gauge_gamma = match (gen.spec.kind, *serial) {
                    (Kind::DashboardBatch5k, 0) => gen.spec.gamma,
                    (Kind::DashboardBatch5k, n) => workload::dashboard_gamma(n - 1),
                    _ => gen.spec.gamma,
                };
                check_batch(gauge_gamma, items, &sessions, &responses, &expect)
            }
            _ => unreachable!("only timed steps reach here"),
        };
        match verdict {
            // A failed op has no latency: it is missing from every percentile.
            Err(what) => out.fail(what),
            Ok(()) => out.samples.push(Sample {
                end_ns: (end - origin).as_nanos() as u64,
                latency_ns: (end - begin).as_nanos() as u64,
            }),
        }
        pending = script.next_step();
    }
    out.live = sessions
        .iter()
        .map(|(&slot, &session)| LiveSession {
            slot,
            session,
            age: ages.get(&slot).copied().unwrap_or(0),
        })
        .collect();
    out
}

/// Checks an `add_visualization` reply's shape and keeps it for the
/// oracle if the slot is one the oracle replays.
fn check_viz(
    gen: &Generator,
    slot: u64,
    index: usize,
    sid: SessionId,
    response: &Response,
    recorded: &mut Vec<Recorded>,
) -> Result<(), String> {
    let reply: VizReply = layers::viz_reply(response, sid)
        .filter(|r| r.viz == index as u64)
        .ok_or_else(|| format!("view {index} of slot {slot}: {response:?}"))?;
    if gen.is_oracle(slot) {
        recorded.push(Recorded { slot, index, reply });
    }
    Ok(())
}

/// Create, close, or an untimed priming view. False on a dead
/// connection.
fn untimed_step(
    client: &mut Client,
    gen: &Generator,
    step: &Step,
    sessions: &mut HashMap<u64, SessionId>,
    ages: &mut HashMap<u64, usize>,
    out: &mut LoadOutcome,
) -> bool {
    let cmds = commands_of(step, gen.spec.gamma, |slot| sessions[&slot]);
    let response = match client.call(&cmds[0]) {
        Ok(response) => response,
        Err(e) => {
            out.attempted += 1;
            out.fail(format!("transport: {}", e.message));
            return false;
        }
    };
    let verdict = match (step, &response) {
        (Step::Create { slot }, Response::SessionCreated { session, .. }) => {
            sessions.insert(*slot, *session);
            ages.insert(*slot, 0);
            Ok(())
        }
        (Step::Close { slot }, Response::SessionClosed { session, .. })
            if sessions.get(slot) == Some(session) =>
        {
            sessions.remove(slot);
            ages.remove(slot);
            Ok(())
        }
        (Step::Viz { slot, index, .. }, _) => check_viz(
            gen,
            *slot,
            *index,
            sessions[slot],
            &response,
            &mut out.recorded,
        )
        .map(|()| {
            ages.insert(*slot, index + 1);
        }),
        _ => Err(format!("{step:?}: {response:?}")),
    };
    if let Err(what) = verdict {
        out.attempted += 1;
        out.fail(what);
    }
    true
}

/// Drives the closed loop against `addr` for the planned time, on a
/// thread of its own; `each_second` runs on the calling thread once a
/// second while it does (health checks, scrapes).
pub fn load(
    addr: SocketAddr,
    gen: &Generator,
    table: &SharedTable,
    plan: LoadPlan,
    mut each_second: impl FnMut() -> Result<(), String>,
) -> Result<LoadOutcome, String> {
    let done = AtomicBool::new(false);
    let caller = std::thread::current();
    std::thread::scope(|scope| {
        let client = scope.spawn(|| {
            let outcome = drive(addr, gen, table, plan);
            done.store(true, Ordering::SeqCst);
            caller.unpark();
            outcome
        });
        let mut health = Ok(());
        let mut due = Instant::now() + Duration::from_secs(1);
        while !done.load(Ordering::SeqCst) && health.is_ok() {
            std::thread::park_timeout(due.saturating_duration_since(Instant::now()));
            if Instant::now() >= due {
                due += Duration::from_secs(1);
                health = each_second();
            }
        }
        let outcome = client
            .join()
            .map_err(|_| "the client thread panicked".to_string());
        health.and(outcome)
    })
}

impl LoadOutcome {
    pub fn quiet_half(&self, plan: LoadPlan) -> Result<QuietHalf, String> {
        let window_ns = plan.measure.as_nanos() as u64 / WINDOWS as u64;
        summary::quiet_half(
            &self.samples,
            plan.warmup.as_nanos() as u64,
            window_ns,
            WINDOWS,
        )
        .ok_or_else(|| "half of the measurement windows completed no operation".to_string())
    }
}

/// After `durable_evict_20k`: SIGTERM the server, restart it on the
/// same data directory, and compare every live session's transcript
/// and gauge (which shows its wealth) with the oracle's. Returns
/// `(sessions checked, mismatches, first few defects)`.
pub fn check_after_restart(
    deployment: &mut Deployment,
    gen: &Generator,
    table: &SharedTable,
    live: &[LiveSession],
) -> Result<(u64, u64, Vec<String>), String> {
    deployment.restart()?;
    let mut client = layers::connect(deployment.addr(), encoding(&gen.spec))?;
    let mut mismatches = 0;
    let mut problems = Vec::new();
    for s in live {
        let (gauge, csv) = oracle::replay_texts(gen, table, s.slot, s.age);
        let got_csv = client.call(&Command::Transcript {
            session: s.session,
            format: TranscriptFormat::Csv,
        });
        let got_gauge = client.call(&Command::Gauge { session: s.session });
        let ok = matches!(&got_csv, Ok(Response::TranscriptText { text, .. }) if *text == csv)
            && matches!(&got_gauge, Ok(Response::GaugeText { text, .. }) if *text == gauge);
        if !ok {
            mismatches += 1;
            if problems.len() < 5 {
                problems.push(format!(
                    "after restart, session {} (slot {}, {} views) differs from the oracle",
                    s.session, s.slot, s.age
                ));
            }
        }
    }
    Ok((live.len() as u64, mismatches, problems))
}

/// Server-side counters of the client-facing process.
pub fn server_stats(addr: SocketAddr, spec: &Spec) -> Result<StatsSnapshot, String> {
    let mut client = layers::connect(addr, encoding(spec))?;
    match client.call(&Command::Stats) {
        Ok(Response::Stats(stats)) => Ok(*stats),
        other => Err(format!("stats: {other:?}")),
    }
}

/// The end-to-end figures of one untraced run.
pub struct EndToEnd {
    pub op_p50_us: f64,
    pub op_p99_us: f64,
    pub ops_per_s: f64,
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub oracle_decisions: u64,
    /// Samples the percentiles rest on.
    pub pooled: usize,
}

/// Set-ups per run, of which the median is reported: at least 3, and
/// more — up to 9 — while they fit in `SETUP_BUDGET`, so the workloads
/// whose set-up is a few milliseconds of process spawn get the most
/// repeats.
const SETUPS: std::ops::RangeInclusive<usize> = 3..=9;
const SETUP_BUDGET: Duration = Duration::from_millis(1500);

/// The whole untraced run: timed set-ups (the last one is kept and
/// loaded), the load, the oracle and the restart check.
pub fn end_to_end(
    binaries: &Binaries,
    spec: &Spec,
    seed: u64,
    plan: LoadPlan,
) -> Result<EndToEnd, String> {
    let began = Instant::now();
    let gen = Generator::new(*spec, seed);
    let table = layers::census(spec.rows);
    let one_cpu = spec.one_cpu.then(OneCpu::confine).transpose()?;
    let mut setups = Vec::new();
    let setting_up = Instant::now();
    let mut deployment = loop {
        let (deployment, setup_s) = Deployment::start(binaries, spec, false)?;
        setups.push(setup_s);
        let enough = setups.len() >= *SETUPS.end()
            || (setups.len() >= *SETUPS.start() && setting_up.elapsed() >= SETUP_BUDGET);
        if enough {
            break deployment;
        }
        deployment.stop()?;
    };

    let addr = deployment.addr();
    let loading = Instant::now();
    let outcome = load(addr, &gen, &table, plan, || deployment.check_healthy())?;
    let loaded = Instant::now();
    let quiet = outcome.quiet_half(plan)?;
    eprintln!(
        "benchmark: per-window ops/s {:?}",
        quiet
            .window_ops_per_s
            .iter()
            .map(|r| r.round() as u64)
            .collect::<Vec<_>>()
    );
    let peak_rss_mb = deployment.peak_rss_mb()?;

    let mut attempted = outcome.attempted;
    let mut failed = outcome.failed;
    let mut problems = outcome.problems;
    if spec.kind == Kind::DurableEvict20k {
        let (checked, bad, why) =
            check_after_restart(&mut deployment, &gen, &table, &outcome.live)?;
        attempted += checked;
        failed += bad;
        problems.extend(why);
    }
    deployment.stop()?;
    // The oracle's two threads get both cores back.
    drop(one_cpu);

    let stopped = Instant::now();
    let verdict = oracle::verify(&gen, &table, &outcome.recorded);
    eprintln!(
        "benchmark: phases: set-up x{} {:.1} s, load {:.1} s, after-load checks {:.1} s, oracle {:.1} s",
        setups.len(),
        (loading - began).as_secs_f64(),
        (loaded - loading).as_secs_f64(),
        (stopped - loaded).as_secs_f64(),
        stopped.elapsed().as_secs_f64(),
    );
    failed += verdict.mismatches;
    problems.extend(verdict.problems);

    Ok(EndToEnd {
        op_p50_us: quiet.p50_ns / 1e3,
        op_p99_us: quiet.p99_ns / 1e3,
        ops_per_s: quiet.ops_per_s,
        setup_s: summary::median(&setups),
        peak_rss_mb,
        attempted,
        failed: failed.min(attempted),
        problems,
        oracle_decisions: verdict.decisions,
        pooled: quiet.pooled,
    })
}
