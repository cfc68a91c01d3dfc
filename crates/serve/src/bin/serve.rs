//! The `serve` binary: AWARE multi-session exploration service over TCP.
//!
//! ```text
//! serve [--addr 127.0.0.1:7878] [--rows 20000] [--seed 2017]
//!       [--max-sessions N] [--idle-timeout-secs S]
//!       [--data-dir DIR] [--snapshot-every SECS]
//!       [--log-level LEVEL] [--log-json] [--slow-ms MS]
//!       [--metrics-addr HOST:PORT] [--reactor]
//! ```
//!
//! The process body is [`aware_serve::launch::run`], which `cluster
//! shard` runs too; only the default `--addr` and the names differ.
//!
//! `--reactor` swaps the thread-per-connection front end for the
//! epoll-based event loop in `aware-reactor`: thousands of mostly-idle
//! connections on a handful of threads. The wire protocol is
//! byte-identical either way; both fronts decline a hello's `push`
//! request, since no server pushes.
//!
//! Observability: `--log-level` (debug|info|warn|error, default info)
//! and `--log-json` control the structured stderr logger; `--slow-ms`
//! emits a `slow_query` record (with trace id, stage timings, and
//! cache deltas) for every command at or past the threshold;
//! `--metrics-addr` serves Prometheus text exposition over HTTP GET.
//!
//! With `--data-dir`, sessions are durable: eviction spills to disk,
//! commands addressing spilled sessions restore them lazily, and a
//! restart over the same directory resumes every session.
//! `--snapshot-every SECS` sets the background snapshot cadence
//! (default 30 s); `--snapshot-every 0` makes every mutating command
//! write its snapshot before the response is released.
//!
//! Registers a synthetic census dataset (the workspace's stand-in for
//! UCI Adult) under the name `census` and speaks both protocol
//! surfaces documented in the repository README — v1 NDJSON and v2
//! envelopes (JSON or AWR2 binary frames), auto-detected per
//! connection by first byte. Try v1 with netcat:
//!
//! ```text
//! $ echo '{"id":1,"cmd":"create_session","dataset":"census","alpha":0.05,
//!          "policy":{"kind":"fixed","gamma":10}}' | nc 127.0.0.1 7878
//! ```
//!
//! A bad flag or a failed bind exits 2; SIGTERM/SIGINT drains (stop
//! accepting, flush dirty sessions, log `drain_complete`) and exits 0.

use aware_serve::launch::{run, Role};

fn main() {
    let role = Role {
        command: "serve",
        banner: "aware-serve",
        name: "serve",
    };
    run(&role, "127.0.0.1:7878", std::env::args().skip(1));
}
