//! The pinned surface: every product entry point the benchmark calls.
//!
//! Nothing else in this package names an `aware_*` crate (a unit test
//! greps for it), so an issue that changes a product API edits this one
//! file and knows exactly what the benchmark depends on:
//!
//! | crate | entry points |
//! |---|---|
//! | binaries | `serve --addr --rows [--data-dir --snapshot-every --max-sessions] [--metrics-addr]`, `cluster shard --addr --rows [--metrics-addr]`, `cluster router --addr --shard.. --replicas --probe-secs [--metrics-addr]`, the `listening on ADDR` and `metrics exposition on http://ADDR/metrics` stderr lines, `GET /metrics` with `aware_stage_latency_us{stage,quantile}` |
//! | `aware-data` | `CensusGenerator::new(2017).generate`, `Predicate::eval`, `EvalCache::{new, selection, invariants, counters, stats}`, `hist::{numeric_histogram_with_bounds, categorical_histogram}`, `Table::{rows, fingerprint}`, `Bitmap::count_ones` |
//! | `aware-stats` | `tests::chi_square_gof` |
//! | `aware-mht` | `AlphaInvesting::{new, test_with_support, snapshot, restore}` |
//! | `aware-core` | `Session::{uncached, shared_with_cache, add_visualization, replace_policy, wealth, snapshot, restore}`, `gauge::render`, `transcript::export_csv` |
//! | `aware-serve` | `tcp::{Client, TcpServer}`, `ServerFront::bind(.., true)`, `Service::start`, `ServiceHandle::{call, call_batch_mode, register_shared, metrics_text}`, `proto::{Command, Response, Envelope, Reply, Batch, BatchItem, BatchMode, Encoding, FilterSpec, PolicySpec, TranscriptFormat, HypothesisReport, StatsSnapshot}`, `Envelope::{encode_line, decode_line}`, `Reply::{encode_line, decode_line}`, `wire::{encode_envelope, decode_envelope, encode_reply, decode_reply}`, `frame::{HEADER_LEN, write_frame}`, `snapshot::{SessionImage, encode, decode}`, `store::SnapshotStore::{open, save, load}` |
//! | `aware-reactor` | `decode::{StreamDecoder, DecoderConfig, Inbound}` |
//! | `aware-cluster` | `ring::Ring::{with_members, route}`, `router::{Router, RouterConfig, RouterHandle}` (joined through `Dispatch::call`, served by `TcpServer`) |
//! | `aware-obs` | `hist::LatencyHistogram::{new, record}`, `log::init` |

use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

pub use aware_data::predicate::CmpOp;
pub use aware_data::value::Value;
pub use aware_serve::proto::{
    BatchMode, Command, Encoding, FilterSpec, PolicySpec, Response, SessionId, StatsSnapshot,
    TranscriptFormat,
};
pub use aware_serve::tcp::Client;

use aware_cluster::ring::Ring;
use aware_cluster::router::{Router, RouterConfig, RouterHandle};
use aware_core::session::{Session, SessionSnapshot};
use aware_data::bitmap::Bitmap;
use aware_data::cache::EvalCache;
use aware_data::census::CensusGenerator;
use aware_data::hist::Histogram;
use aware_data::predicate::Predicate;
use aware_data::table::Table;
use aware_mht::investing::{AlphaInvesting, MachineSnapshot};
use aware_obs::hist::LatencyHistogram;
use aware_reactor::decode::{DecoderConfig, Inbound, StreamDecoder};
use aware_serve::proto::{Batch, BatchItem, BoxedPolicy, Envelope, Reply};
use aware_serve::reactor_front::ServerFront;
use aware_serve::service::{Dispatch, Service, ServiceConfig, ServiceHandle};
use aware_serve::snapshot::SessionImage;
use aware_serve::store::SnapshotStore;
use aware_serve::tcp::TcpServer;
use aware_stats::tests::TestOutcome;

/// Every session in the benchmark controls mFDR at this level.
pub const ALPHA: f64 = 0.05;
/// The one dataset both binaries register.
pub const DATASET: &str = "census";
/// The binaries' default `--seed`, which the benchmark never overrides:
/// the in-process oracle must generate the table the server generated.
const CENSUS_SEED: u64 = 2017;
/// Bytes an `AWR2` frame adds around its payload.
pub const FRAME_OVERHEAD: usize = aware_serve::frame::HEADER_LEN;

// -- the binaries' command lines -----------------------------------------

/// How one server process of a deployment is started.
pub struct ProcessSpec {
    /// `serve` or `cluster`.
    pub binary: &'static str,
    pub args: Vec<String>,
}

fn with_metrics(mut args: Vec<String>, metrics: bool) -> Vec<String> {
    if metrics {
        args.extend(["--metrics-addr".into(), "127.0.0.1:0".into()]);
    }
    args
}

/// `serve` on an ephemeral port with default flags; `data_dir` switches
/// on the durable configuration (synchronous snapshots, 32 resident
/// sessions) that `durable_evict_20k` measures.
pub fn serve_process(rows: usize, data_dir: Option<&Path>, metrics: bool) -> ProcessSpec {
    let mut args: Vec<String> = vec![
        "--addr".into(),
        "127.0.0.1:0".into(),
        "--rows".into(),
        rows.to_string(),
    ];
    if let Some(dir) = data_dir {
        args.extend([
            "--data-dir".into(),
            dir.display().to_string(),
            "--snapshot-every".into(),
            "0".into(),
            "--max-sessions".into(),
            DURABLE_MAX_SESSIONS.to_string(),
        ]);
    }
    ProcessSpec {
        binary: "serve",
        args: with_metrics(args, metrics),
    }
}

/// Resident-session cap of the durable configuration.
pub const DURABLE_MAX_SESSIONS: u64 = 32;

pub fn shard_process(rows: usize, metrics: bool) -> ProcessSpec {
    let args = vec![
        "shard".into(),
        "--addr".into(),
        "127.0.0.1:0".into(),
        "--rows".into(),
        rows.to_string(),
    ];
    ProcessSpec {
        binary: "cluster",
        args: with_metrics(args, metrics),
    }
}

pub fn router_process(shards: &[SocketAddr], metrics: bool) -> ProcessSpec {
    let mut args: Vec<String> = vec!["router".into(), "--addr".into(), "127.0.0.1:0".into()];
    for shard in shards {
        args.extend(["--shard".into(), shard.to_string()]);
    }
    args.extend([
        "--replicas".into(),
        "1".into(),
        "--probe-secs".into(),
        "1".into(),
    ]);
    ProcessSpec {
        binary: "cluster",
        args: with_metrics(args, metrics),
    }
}

/// Address announced on a server's stderr once it is bound.
pub fn parse_listening(line: &str) -> Option<SocketAddr> {
    let rest = line.split("listening on ").nth(1)?;
    rest.split_whitespace().next()?.parse().ok()
}

/// Address of the Prometheus endpoint announced under `--metrics-addr`.
pub fn parse_metrics_addr(line: &str) -> Option<SocketAddr> {
    let rest = line.split("metrics exposition on http://").nth(1)?;
    rest.split('/').next()?.parse().ok()
}

/// The p50 of one `aware_stage_latency_us` stage in a `/metrics` body.
pub fn stage_p50_us(metrics_body: &str, stage: &str) -> Option<f64> {
    let needle = format!("aware_stage_latency_us{{stage=\"{stage}\",quantile=\"0.5\"}} ");
    metrics_body
        .lines()
        .find_map(|line| line.strip_prefix(&needle)?.trim().parse().ok())
}

// -- commands and replies -------------------------------------------------

pub fn fixed(gamma: f64) -> PolicySpec {
    PolicySpec::Fixed { gamma }
}

pub fn create_session(gamma: f64) -> Command {
    Command::CreateSession {
        dataset: DATASET.into(),
        alpha: ALPHA,
        policy: fixed(gamma),
    }
}

pub fn add_visualization(session: SessionId, attribute: &str, filter: &FilterSpec) -> Command {
    Command::AddVisualization {
        session,
        attribute: attribute.into(),
        filter: filter.clone(),
    }
}

/// What a client keeps of one `add_visualization` reply: the fields the
/// oracle compares, as bits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VizReply {
    pub viz: u64,
    pub wealth: f64,
    pub decision: Option<Decision>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    pub p_value: f64,
    pub bid: f64,
    pub rejected: bool,
    pub wealth_after: f64,
}

/// Extracts the compared fields; `None` for any other reply shape.
pub fn viz_reply(response: &Response, session: SessionId) -> Option<VizReply> {
    match response {
        Response::VizAdded {
            session: echoed,
            viz,
            wealth,
            hypothesis,
        } if *echoed == session => Some(VizReply {
            viz: *viz,
            wealth: *wealth,
            decision: hypothesis.as_ref().map(|h| Decision {
                p_value: h.p_value,
                bid: h.bid,
                rejected: h.rejected,
                wealth_after: h.wealth_after,
            }),
        }),
        _ => None,
    }
}

pub fn connect(addr: SocketAddr, encoding: Encoding) -> Result<Client, String> {
    Client::connect_with_deadline(addr, encoding, Duration::from_secs(30))
        .map_err(|e| format!("connect {addr}: {}", e.message))
}

// -- aware-data ------------------------------------------------------------

pub type SharedTable = Arc<Table>;

/// The table the binaries generate for `--rows rows`.
pub fn census(rows: usize) -> SharedTable {
    Arc::new(CensusGenerator::new(CENSUS_SEED).generate(rows))
}

pub type Cache = EvalCache;
pub type Selection = Arc<Bitmap>;

pub fn new_cache() -> Arc<Cache> {
    Arc::new(EvalCache::new())
}

pub fn to_predicate(filter: &FilterSpec) -> Predicate {
    filter.to_predicate()
}

pub fn predicate_eval(table: &Table, pred: &Predicate) -> Option<Bitmap> {
    pred.eval(table).ok()
}

pub fn cache_selection(cache: &Cache, table: &Table, pred: &Predicate) -> Option<Selection> {
    cache.selection(table, pred).ok()
}

/// `(hits, misses)` probe counters.
pub fn cache_counters(cache: &Cache) -> (u64, u64) {
    cache.counters()
}

/// Selection bitmaps resident in the cache.
pub fn cache_entries(cache: &Cache) -> u64 {
    cache.stats().selections
}

pub type Invariants = Arc<aware_data::cache::ColumnInvariants>;

/// The memoized full-table facts of `attribute`: global proportions
/// and, for numeric columns, the bin bounds.
pub fn cache_invariants(cache: &Cache, table: &Table, attribute: &str) -> Option<Invariants> {
    cache.invariants(table, attribute).ok()
}

/// Histogram of `attribute` under `selection`, by the kernel the engine
/// picks: fixed bins over the memoized bounds for numeric columns, one
/// bucket per label otherwise.
pub fn histogram(
    table: &Table,
    attribute: &str,
    selection: &Bitmap,
    invariants: &Invariants,
) -> Option<Histogram> {
    match invariants.bounds {
        Some(bounds) => aware_data::hist::numeric_histogram_with_bounds(
            table,
            attribute,
            Some(selection),
            aware_data::hist::DEFAULT_NUMERIC_BINS,
            bounds,
        ),
        None => aware_data::hist::categorical_histogram(table, attribute, Some(selection)),
    }
    .ok()
}

pub fn support_fraction(table: &Table, selection: &Bitmap) -> f64 {
    (selection.count_ones() as f64 / table.rows() as f64).clamp(f64::MIN_POSITIVE, 1.0)
}

// -- aware-stats -------------------------------------------------------------

pub fn chi_square_gof(histogram: &Histogram, invariants: &Invariants) -> Option<TestOutcome> {
    aware_stats::tests::chi_square_gof(&histogram.counts(), &invariants.proportions).ok()
}

// -- aware-mht ---------------------------------------------------------------

pub type Machine = AlphaInvesting<BoxedPolicy>;

fn build_policy(gamma: f64) -> BoxedPolicy {
    fixed(gamma).build().expect("a positive gamma is valid")
}

pub fn new_machine(gamma: f64) -> Machine {
    AlphaInvesting::new(ALPHA, 1.0 - ALPHA, build_policy(gamma)).expect("alpha is in (0, 1)")
}

/// One α-investing decision; false once the wealth is exhausted.
pub fn machine_decide(machine: &mut Machine, p_value: f64, support: f64) -> bool {
    machine.test_with_support(p_value, support).is_ok()
}

pub fn machine_snapshot(machine: &Machine) -> MachineSnapshot {
    machine.snapshot()
}

/// Full ledger re-validation; returns the ledger length on success.
pub fn machine_restore(snapshot: MachineSnapshot, gamma: f64) -> Option<usize> {
    let entries = snapshot.ledger.len();
    AlphaInvesting::restore(snapshot, build_policy(gamma), 0)
        .ok()
        .map(|_| entries)
}

// -- aware-core --------------------------------------------------------------

pub type CoreSession = Session<BoxedPolicy>;

/// The oracle's session: no cache, no service, no wire.
pub fn oracle_session(table: &Arc<Table>, gamma: f64) -> CoreSession {
    Session::uncached(table.clone(), ALPHA, build_policy(gamma)).expect("alpha is in (0, 1)")
}

pub fn cached_session(table: &Arc<Table>, cache: &Arc<Cache>, gamma: f64) -> CoreSession {
    Session::shared_with_cache(table.clone(), ALPHA, build_policy(gamma), cache.clone())
        .expect("alpha is in (0, 1)")
}

/// `Session::add_visualization`, reduced to the fields a reply carries.
pub fn session_add_viz(
    session: &mut CoreSession,
    attribute: &str,
    filter: &FilterSpec,
) -> Option<VizReply> {
    let outcome = session
        .add_visualization(attribute, filter.to_predicate())
        .ok()?;
    Some(VizReply {
        viz: outcome.viz.0,
        wealth: session.wealth(),
        decision: outcome.hypothesis.map(|(_, record)| Decision {
            p_value: record.outcome.p_value,
            bid: record.bid,
            rejected: record.decision.is_rejection(),
            wealth_after: record.wealth_after,
        }),
    })
}

pub fn session_set_policy(session: &mut CoreSession, gamma: f64) {
    session.replace_policy(build_policy(gamma));
}

pub fn session_gauge(session: &CoreSession) -> String {
    aware_core::gauge::render(session)
}

pub fn session_transcript_csv(session: &CoreSession) -> String {
    aware_core::transcript::export_csv(session)
}

pub fn session_snapshot(session: &CoreSession) -> SessionSnapshot {
    session.snapshot()
}

pub fn session_restore(
    table: &Arc<Table>,
    cache: &Arc<Cache>,
    snapshot: SessionSnapshot,
    gamma: f64,
) -> Option<CoreSession> {
    Session::restore(
        table.clone(),
        Some(cache.clone()),
        snapshot,
        build_policy(gamma),
        0,
    )
    .ok()
}

// -- aware-serve: snapshot image and store ----------------------------------

pub fn session_image(
    id: SessionId,
    table: &Table,
    gamma: f64,
    session: SessionSnapshot,
) -> SessionImage {
    SessionImage {
        id,
        dataset: DATASET.into(),
        fingerprint: Some(table.fingerprint()),
        policy: fixed(gamma),
        policy_since: 0,
        session,
    }
}

pub fn image_encode(image: &SessionImage) -> Vec<u8> {
    aware_serve::snapshot::encode(image)
}

pub fn image_decode(bytes: &[u8]) -> Option<SessionImage> {
    aware_serve::snapshot::decode(bytes).ok()
}

pub type Store = SnapshotStore;

pub fn store_open(dir: &Path) -> Result<Store, String> {
    SnapshotStore::open(dir).map_err(|e| format!("open snapshot store {}: {e}", dir.display()))
}

/// tmp + fsync + rename + directory fsync.
pub fn store_save(store: &Store, image: &SessionImage) -> bool {
    store.save(image).is_ok()
}

pub fn store_load(store: &Store, id: SessionId) -> Option<SessionImage> {
    store.load(id).ok()
}

// -- aware-serve: codecs ------------------------------------------------------

/// One request as the reference client frames it.
pub fn envelope(id: u64, cmds: &[Command]) -> Envelope {
    match cmds {
        [cmd] => Envelope::Single {
            id: Some(id),
            cmd: cmd.clone(),
        },
        _ => Envelope::Batch {
            id: Some(id),
            batch: Batch {
                mode: BatchMode::Continue,
                items: cmds
                    .iter()
                    .enumerate()
                    .map(|(i, cmd)| BatchItem {
                        id: Some(id + 1 + i as u64),
                        cmd: cmd.clone(),
                    })
                    .collect(),
            },
        },
    }
}

/// The reply envelope a server frames for `responses` to [`envelope`].
pub fn reply(id: u64, responses: &[Response]) -> Reply {
    match responses {
        [response] => Reply::Single {
            id: Some(id),
            response: response.clone(),
        },
        _ => Reply::Batch {
            id: Some(id),
            items: responses
                .iter()
                .enumerate()
                .map(|(i, r)| (Some(id + 1 + i as u64), r.clone()))
                .collect(),
        },
    }
}

/// Appends `payload` as one `AWR2` frame.
pub fn frame_into(out: &mut Vec<u8>, payload: &[u8]) {
    aware_serve::frame::write_frame(out, payload).expect("writing to a Vec cannot fail");
}

pub fn wire_encode_envelope(envelope: &Envelope) -> Vec<u8> {
    aware_serve::wire::encode_envelope(envelope)
}

pub fn wire_decode_envelope(payload: &[u8]) -> bool {
    aware_serve::wire::decode_envelope(payload).is_ok()
}

pub fn wire_encode_reply(reply: &Reply) -> Vec<u8> {
    aware_serve::wire::encode_reply(reply)
}

pub fn wire_decode_reply(payload: &[u8]) -> bool {
    aware_serve::wire::decode_reply(payload).is_ok()
}

pub fn json_encode_envelope(envelope: &Envelope) -> String {
    envelope.encode_line()
}

pub fn json_decode_envelope(line: &str) -> bool {
    Envelope::decode_line(line).is_ok()
}

pub fn json_encode_reply(reply: &Reply) -> String {
    reply.encode_line()
}

pub fn json_decode_reply(line: &str) -> bool {
    Reply::decode_line(line).is_ok()
}

// -- aware-reactor ------------------------------------------------------------

pub type Decoder = StreamDecoder;

pub fn new_decoder() -> Decoder {
    StreamDecoder::new(DecoderConfig::default())
}

/// Feeds one framed message and pulls it back out; false if the
/// decoder did not yield exactly that one message.
pub fn decoder_roundtrip(decoder: &mut Decoder, bytes: &[u8]) -> bool {
    decoder.push(bytes);
    matches!(
        decoder.next(),
        Some(Inbound::Line(_)) | Some(Inbound::Frame(_))
    ) && decoder.next().is_none()
}

// -- aware-serve: in-process service and front ends --------------------------

/// The service configuration the `serve` binary builds from its flags.
fn service_config(data_dir: Option<&Path>) -> ServiceConfig {
    let mut config = ServiceConfig {
        sweep_interval: Some(Duration::from_secs(5)),
        ..ServiceConfig::default()
    };
    if let Some(dir) = data_dir {
        config.data_dir = Some(dir.to_path_buf());
        config.snapshot_every = Some(Duration::ZERO);
        config.max_sessions = DURABLE_MAX_SESSIONS;
    }
    config
}

/// An in-process service over `table`, configured as the binary would
/// be. Dropping it joins the workers.
pub struct LocalService {
    service: Option<Service>,
    pub handle: ServiceHandle,
}

impl LocalService {
    pub fn start(table: &Arc<Table>, data_dir: Option<&Path>) -> LocalService {
        let service = Service::start(service_config(data_dir));
        let handle = service.handle();
        handle.register_shared(DATASET, table.clone());
        LocalService {
            service: Some(service),
            handle,
        }
    }

    pub fn metrics_text(&self) -> String {
        self.handle.metrics_text()
    }
}

impl Drop for LocalService {
    fn drop(&mut self) {
        if let Some(service) = self.service.take() {
            service.shutdown();
        }
    }
}

/// Anything that executes commands in-process: a service or a router.
pub trait Executor {
    fn execute(&self, cmd: Command) -> Response;
    fn execute_batch(&self, cmds: Vec<Command>) -> Vec<Response>;
}

impl Executor for LocalService {
    fn execute(&self, cmd: Command) -> Response {
        self.handle.call(cmd)
    }
    fn execute_batch(&self, cmds: Vec<Command>) -> Vec<Response> {
        self.handle.call_batch_mode(cmds, BatchMode::Continue)
    }
}

/// A loopback TCP front end over a [`LocalService`]: the thread front
/// (`TcpServer`) or the reactor (`ServerFront::bind(.., true)`).
pub struct LocalFront {
    pub addr: SocketAddr,
    _thread: Option<TcpServer>,
    _reactor: Option<ServerFront>,
    _service: LocalService,
}

impl LocalFront {
    pub fn bind(service: LocalService, reactor: bool) -> Result<LocalFront, String> {
        let handle = service.handle.clone();
        let (thread, front, addr) = if reactor {
            let front = ServerFront::bind("127.0.0.1:0", handle, true)
                .map_err(|e| format!("bind reactor front: {e}"))?;
            let addr = front.local_addr();
            (None, Some(front), addr)
        } else {
            let server = TcpServer::bind("127.0.0.1:0", handle)
                .map_err(|e| format!("bind thread front: {e}"))?;
            let addr = server.local_addr();
            (Some(server), None, addr)
        };
        Ok(LocalFront {
            addr,
            _thread: thread,
            _reactor: front,
            _service: service,
        })
    }
}

/// Executes over a loopback socket through the reference client.
pub struct ClientExecutor(pub std::cell::RefCell<Client>);

impl Executor for ClientExecutor {
    fn execute(&self, cmd: Command) -> Response {
        match self.0.borrow_mut().call(&cmd) {
            Ok(response) => response,
            Err(e) => Response::Error(e),
        }
    }
    fn execute_batch(&self, cmds: Vec<Command>) -> Vec<Response> {
        match self.0.borrow_mut().call_batch(&cmds, BatchMode::Continue) {
            Ok(responses) => responses,
            Err(e) => vec![Response::Error(e)],
        }
    }
}

// -- aware-cluster --------------------------------------------------------------

/// The cluster binary's two roles in-process: shards behind their thread
/// front ends, and a router — configured as `cluster router --replicas 1
/// --probe-secs 1` would be — behind its own, as the binary serves it.
/// Clients reach it at `addr`, so a command crosses two sockets, as it
/// does against the real deployment.
pub struct LocalCluster {
    pub addr: SocketAddr,
    _front: TcpServer,
    _router: Router,
    _shards: Vec<LocalFront>,
}

impl LocalCluster {
    /// One shard per entry of `data_dirs`, durable where a directory
    /// is given.
    pub fn start(table: &Arc<Table>, data_dirs: &[Option<&Path>]) -> Result<LocalCluster, String> {
        let shards = data_dirs
            .iter()
            .map(|dir| LocalFront::bind(LocalService::start(table, *dir), false))
            .collect::<Result<Vec<_>, _>>()?;
        let router = Router::start(RouterConfig {
            replicas: 1,
            probe_interval: Some(Duration::from_secs(1)),
            ..RouterConfig::default()
        });
        let handle: RouterHandle = router.handle();
        for shard in &shards {
            match Dispatch::call(
                &handle,
                Command::JoinShard {
                    addr: shard.addr.to_string(),
                },
            ) {
                Response::Rebalanced { .. } => {}
                other => return Err(format!("join shard {}: {other:?}", shard.addr)),
            }
        }
        let front = TcpServer::bind("127.0.0.1:0", handle)
            .map_err(|e| format!("bind router front: {e}"))?;
        Ok(LocalCluster {
            addr: front.local_addr(),
            _front: front,
            _router: router,
            _shards: shards,
        })
    }
}

pub type HashRing = Ring;

pub fn ring(members: &[&str]) -> HashRing {
    Ring::with_members(aware_cluster::ring::DEFAULT_VNODES, members.iter().copied())
}

pub fn ring_route(ring: &HashRing, id: SessionId) -> bool {
    ring.route(id).is_some()
}

// -- aware-obs ---------------------------------------------------------------------

/// In-process services log through the process-wide logger; only
/// warnings and errors are worth a benchmark's stderr.
pub fn quiet_logs() {
    aware_obs::log::init(aware_obs::log::Level::Warn, false);
}

pub type ObsHistogram = LatencyHistogram;

pub fn obs_histogram() -> ObsHistogram {
    LatencyHistogram::new()
}

pub fn obs_record(histogram: &ObsHistogram, micros: u64) {
    histogram.record(micros);
}

#[cfg(test)]
mod tests {
    /// The promise in this module's header: no other source file of the
    /// package names a product crate.
    #[test]
    fn only_this_file_names_a_product_crate() {
        let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        for entry in std::fs::read_dir(&src).unwrap() {
            let path = entry.unwrap().path();
            if path.file_name().unwrap() == "layers.rs" {
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            let offender = text.lines().find(|l| l.contains(concat!("aware", "_")));
            assert_eq!(offender, None, "{}", path.display());
        }
    }

    #[test]
    fn stderr_lines_of_the_binaries_parse() {
        use super::*;
        let line = "aware-serve listening on 127.0.0.1:40123 (2 workers, 65536 max sessions)";
        assert_eq!(parse_listening(line), "127.0.0.1:40123".parse().ok());
        let line = "aware-cluster-shard listening on 127.0.0.1:7 (20000 census rows, seed 2017)";
        assert_eq!(parse_listening(line), "127.0.0.1:7".parse().ok());
        assert_eq!(parse_listening("generating census dataset"), None);
        let line = "metrics exposition on http://127.0.0.1:9100/metrics";
        assert_eq!(parse_metrics_addr(line), "127.0.0.1:9100".parse().ok());
        let body = "# TYPE aware_stage_latency_us summary\n\
                    aware_stage_latency_us{stage=\"execute\",quantile=\"0.5\"} 91\n\
                    aware_stage_latency_us{stage=\"execute\",quantile=\"0.9\"} 200\n";
        assert_eq!(stage_p50_us(body, "execute"), Some(91.0));
        assert_eq!(stage_p50_us(body, "queue_wait"), None);
    }
}
