//! # aware-serve
//!
//! The serving layer of the AWARE reproduction: many concurrent
//! interactive exploration sessions — each with its own α-investing
//! mFDR budget — behind one multi-threaded service.
//!
//! The paper's guarantee (*Zhao et al., SIGMOD 2017*) is **per
//! session** and **sequential**: within a session, hypothesis j's bid
//! depends on the wealth left by hypotheses 1..j−1, and a decision
//! once shown is never revised. Hardt & Ullman's hardness result for
//! interactive reuse makes the isolation boundary load-bearing:
//! sessions must not share statistical state. The service therefore
//! serializes commands *within* a session (a per-session stripe mutex
//! held while a command runs) while running distinct sessions in
//! parallel on their callers' threads, and shares
//! only the immutable dataset (`Arc<Table>` — 1 000 sessions over one
//! census cost one table).
//!
//! Layout:
//!
//! * [`proto`] — the typed [`proto::Command`]/[`proto::Response`] API,
//!   the protocol-v2 [`proto::Envelope`]/[`proto::Batch`] layer
//!   (batched commands, hello negotiation), and the line-delimited
//!   JSON codec (hand-rolled; the crate is std-only by design). Its
//!   message table declares each command and response once and
//!   generates the per-message codecs of both encodings.
//! * [`frame`] — the v2 binary framing: `AWR2` magic, version byte,
//!   u32 length prefix.
//! * [`wire`] — the compact tag-based binary codec the frames carry.
//! * [`service`] — the dispatcher, which runs every command on its
//!   caller's thread under a per-session stripe
//!   ([`service::ServiceHandle::call_batch`]: same-session commands as
//!   one unit; a single command is a batch of one), session
//!   admission with sampled-LRU eviction, and idle-timeout sweeps.
//! * [`registry`] — the sharded session registry
//!   (`RwLock<HashMap<…>>` shards of `Mutex<Session>` entries).
//! * `conn` — the connection protocol, written once: hello
//!   negotiation, batch and single dispatch, error replies and the
//!   JSON→binary upgrade, from decoded message to reply bytes.
//! * [`tcp`] — the thread-per-connection transport (a blocking pump
//!   through `conn`) and a reference client with pipelined batches.
//! * [`reactor_front`] — the same handler behind the `aware-reactor`
//!   epoll event loop (`--reactor` on the binary): thousands of
//!   mostly-idle connections on a handful of threads, answering
//!   exactly as the blocking front does.
//! * [`snapshot`] — the durable `AWRS` session-snapshot codec
//!   (versioned, length-prefixed, checksummed; reuses the wire's tag
//!   codec) and [`store`] — the write-ahead snapshot directory
//!   (atomic tmp+rename+fsync, two generations per session) that lets
//!   sessions survive restarts and LRU eviction spill to disk instead
//!   of dropping α-wealth.
//! * [`metrics`] — lock-free server counters behind the `stats`
//!   command, including per-encoding and batch-size telemetry.
//! * [`json`] — the minimal JSON value/parser/writer the NDJSON
//!   surface rides on.
//!
//! ## Example
//!
//! ```
//! use aware_data::census::CensusGenerator;
//! use aware_serve::proto::{Command, FilterSpec, PolicySpec, Response};
//! use aware_serve::service::{Service, ServiceConfig};
//!
//! let service = Service::start(ServiceConfig { max_sessions: 1_024, ..Default::default() });
//! let handle = service.handle();
//! handle.register_table("census", CensusGenerator::new(1).generate(2_000));
//!
//! let session = match handle.call(Command::CreateSession {
//!     dataset: "census".into(),
//!     alpha: 0.05,
//!     policy: PolicySpec::Fixed { gamma: 10.0 },
//! }) {
//!     Response::SessionCreated { session, .. } => session,
//!     other => panic!("{other:?}"),
//! };
//! let reply = handle.call(Command::AddVisualization {
//!     session,
//!     attribute: "education".into(),
//!     filter: FilterSpec::True,
//! });
//! assert!(reply.is_ok());
//! ```

mod conn;
pub mod error;
pub mod frame;
pub mod json;
pub mod metrics;
pub mod proto;
pub mod reactor_front;
pub mod registry;
pub mod service;
pub mod snapshot;
pub mod store;
pub mod tcp;
pub mod wire;

pub use error::{ErrorCode, ServeError};
pub use proto::{
    Batch, BatchItem, BatchMode, Command, Encoding, Envelope, PolicySpec, Reply, Response,
    SessionId,
};
pub use reactor_front::ServerFront;
pub use service::{Dispatch, Service, ServiceConfig, ServiceHandle};
