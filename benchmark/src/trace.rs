//! The traced run: per-layer metrics, layer = crate.
//!
//! Two parts. (a) An in-process *peel ladder*: the first operations of
//! the seeded stream are executed once at every public boundary,
//! innermost first — statistics and data kernels, the α-investing
//! machine, the core session, the service dispatcher, a loopback socket
//! through each front end, a router over in-process shards — with an
//! in-memory span around each call. Every level keeps its own state
//! (cache, sessions, service), fed the same commands in the same order,
//! so the span of an outer level encloses what the inner levels timed
//! and a layer's **self time** is its span minus the spans it encloses.
//! (b) Two passes over the real binaries, one plain and one with
//! `--metrics-addr` scraped once a second, for the server's own stage
//! histograms and counters and for the cost of being observed.
//!
//! Spans are recorded from the benchmark's side of each boundary; spans
//! inside the product are a later change.

use crate::layers::{self, Command, Executor, Response, SessionId, SharedTable};
use crate::metrics::Reported;
use crate::procs::{self, Binaries, OneCpu, TempDir};
use crate::run::{self, commands_of, Deployment, LoadPlan};
use crate::summary::median;
use crate::workload::{Generator, Kind, Script, Spec, Step, BATCH_ITEMS};
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// One timed call. `op` is the index of the step (in the ladder's step
/// list) the call served; spans of one step share it.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub op: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, once linked.
    pub parent: Option<usize>,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn span<T>(&mut self, op: usize, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.origin.elapsed();
        let value = f();
        let end = self.origin.elapsed();
        self.spans.push(Span {
            op: op as u32,
            name,
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
            parent: None,
        });
        value
    }
}

// Span names. The same string is the span's name in the trace file.
const PREDICATE_EVAL: &str = "data.predicate_eval";
const SELECTION: &str = "data.selection";
const SELECTION_REHIT: &str = "data.selection_rehit";
const SELECTION_UNWARMED: &str = "data.selection_unwarmed";
const INVARIANTS: &str = "data.invariants";
const HISTOGRAM: &str = "data.histogram";
const PVALUE: &str = "stats.pvalue";
const DECIDE: &str = "mht.decide";
const MACHINE_RESTORE: &str = "mht.restore";
const ADD_VIZ: &str = "core.add_viz";
const SNAPSHOT: &str = "core.snapshot";
const RESTORE: &str = "core.restore";
const GAUGE: &str = "core.gauge";
const IMAGE_ENCODE: &str = "serve.image_encode";
const IMAGE_DECODE: &str = "serve.image_decode";
const STORE_SAVE: &str = "serve.store_save";
const STORE_LOAD: &str = "serve.store_load";
const DISPATCH: &str = "serve.dispatch";
const BATCH_DISPATCH: &str = "serve.batch_dispatch";
const WIRE_REQUEST_ENCODE: &str = "client.wire_encode";
const WIRE_DECODE: &str = "serve.wire_decode";
const WIRE_ENCODE: &str = "serve.wire_encode";
const WIRE_REPLY_DECODE: &str = "client.wire_decode";
const JSON_REQUEST_ENCODE: &str = "client.json_encode";
const JSON_DECODE: &str = "serve.json_decode";
const JSON_ENCODE: &str = "serve.json_encode";
const JSON_REPLY_DECODE: &str = "client.json_decode";
const STREAM_DECODE: &str = "reactor.decode";
const FRONT: &str = "serve.front";
const REACTOR_FRONT: &str = "reactor.front";
const HOP: &str = "cluster.hop";

const KERNELS: [&str; 5] = [SELECTION, INVARIANTS, HISTOGRAM, PVALUE, DECIDE];
/// What a durable server wraps around a command. The store encodes
/// inside `save` and decodes inside `load`, so the image codec spans
/// nest under the store spans.
const DURABLE_PIECES: [&str; 5] = [SNAPSHOT, STORE_SAVE, STORE_LOAD, RESTORE, GAUGE];
const WIRE_CODEC: [&str; 4] = [
    WIRE_REQUEST_ENCODE,
    WIRE_DECODE,
    WIRE_ENCODE,
    WIRE_REPLY_DECODE,
];
const JSON_CODEC: [&str; 4] = [
    JSON_REQUEST_ENCODE,
    JSON_DECODE,
    JSON_ENCODE,
    JSON_REPLY_DECODE,
];

/// Which span encloses which, for this workload. Only what the real
/// request path nests is linked: the snapshot pieces sit under dispatch
/// only when the server runs durable, and only the codec of the
/// workload's own encoding sits under the front end.
fn parent_of(spec: &Spec, name: &str) -> Option<&'static str> {
    let durable = spec.kind == Kind::DurableEvict20k;
    let codec: &[&str] = if spec.json { &JSON_CODEC } else { &WIRE_CODEC };
    if KERNELS.contains(&name) {
        Some(ADD_VIZ)
    } else if name == IMAGE_ENCODE {
        Some(STORE_SAVE)
    } else if name == IMAGE_DECODE {
        Some(STORE_LOAD)
    } else if name == ADD_VIZ || (durable && DURABLE_PIECES.contains(&name)) {
        Some(DISPATCH)
    } else if name == DISPATCH || codec.contains(&name) {
        Some(FRONT)
    } else if name == FRONT {
        Some(HOP)
    } else {
        None
    }
}

/// Sets every span's `parent` to the span of the same step its layer
/// is enclosed by.
pub fn link_parents(spec: &Spec, spans: &mut [Span]) {
    let index: HashMap<(&'static str, u32), usize> = spans
        .iter()
        .enumerate()
        .map(|(i, s)| ((s.name, s.op), i))
        .collect();
    for span in spans.iter_mut() {
        span.parent = parent_of(spec, span.name).and_then(|p| index.get(&(p, span.op)).copied());
    }
}

/// Self time of every span: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<i64> {
    let mut selfs: Vec<i64> = spans.iter().map(|s| s.duration() as i64).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            selfs[parent] -= span.duration() as i64;
        }
    }
    selfs
}

/// The ladder's raw material besides spans.
#[derive(Default)]
struct Counts {
    natural_hits: u64,
    natural_misses: u64,
    miss_ns: Vec<f64>,
    hit_ns: Vec<f64>,
    rows_scanned: Vec<f64>,
    restore_ns_per_entry: Vec<f64>,
    cache_bytes: f64,
    image_bytes: Vec<f64>,
    request_bytes_per_cmd: Vec<f64>,
    reply_bytes_per_cmd: Vec<f64>,
    batch_ns_per_cmd: Vec<f64>,
    metrics_render_ns: Vec<f64>,
    obs_record_ns: f64,
    ring_route_ns: f64,
}

/// The run's first steps, up to `ladder_ops` timed ones.
pub fn ladder_steps(gen: &Generator) -> Vec<Step> {
    let mut script = Script::new(gen);
    let mut steps = Vec::new();
    let mut timed = 0;
    while timed < gen.spec.ladder_ops {
        let step = script.next_step();
        timed += step.is_timed() as usize;
        steps.push(step);
    }
    steps
}

fn clause_keys(filter: &layers::FilterSpec) -> Vec<String> {
    match filter {
        layers::FilterSpec::And(parts) => parts.iter().map(|p| format!("{p:?}")).collect(),
        other => vec![format!("{other:?}")],
    }
}

/// What every ladder level is given.
struct Inputs<'a> {
    gen: &'a Generator,
    table: &'a SharedTable,
    /// The run's first steps: what the level executes under spans.
    steps: &'a [Step],
    /// Filters fed to the level's cache first; see [`warm_filters`].
    warm: &'a [layers::FilterSpec],
}

/// Distinct filters of the same seeded stream over other sessions. In a
/// real run a warm-up precedes the measurement, so every level's cache
/// is fed these before its traced steps: the ladder then sees the hit
/// ratio the run's steady state has (close to 1 on the chain workloads;
/// still 0 on `cold_scan_1m`, whose filters never repeat whatever came
/// before).
fn warm_filters(gen: &Generator) -> Vec<layers::FilterSpec> {
    let mut script = Script::from_slot(gen, 1 << 32);
    let mut seen = HashSet::new();
    let mut filters = Vec::new();
    let mut views = 0;
    while views < 4 * gen.spec.ladder_ops && filters.len() < gen.spec.ladder_ops / 2 {
        if let Step::Viz { view, .. } = script.next_step() {
            views += 1;
            if seen.insert(format!("{:?}", view.filter)) {
                filters.push(view.filter);
            }
        }
    }
    filters
}

const WARM_ATTRIBUTE: &str = "age";

fn warm_cache(cache: &layers::Cache, table: &SharedTable, filters: &[layers::FilterSpec]) {
    for filter in filters {
        layers::cache_selection(cache, table, &layers::to_predicate(filter));
    }
    layers::cache_invariants(cache, table, WARM_ATTRIBUTE);
}

/// Warms a service's (or cluster's) cache through its own commands:
/// throwaway sessions whose γ is large enough never to run dry.
fn warm_executor(exec: &impl Executor, filters: &[layers::FilterSpec]) -> Result<(), String> {
    let session = match exec.execute(layers::create_session(1e9)) {
        Response::SessionCreated { session, .. } => session,
        other => return Err(format!("ladder warm-up: {other:?}")),
    };
    for filter in filters {
        let reply = exec.execute(layers::add_visualization(session, WARM_ATTRIBUTE, filter));
        if !reply.is_ok() {
            return Err(format!("ladder warm-up: {reply:?}"));
        }
    }
    exec.execute(Command::CloseSession { session });
    Ok(())
}

/// Level 0: the kernels a rule-2 test is made of, called one by one;
/// then the selection probes again on an unwarmed cache; then — in a
/// pass of its own, so that its full scans do not evict what the cached
/// kernels were about to read — the uncached predicate evaluation.
fn level_kernels(l: &Inputs, t: &mut Tracer, c: &mut Counts) {
    let Inputs {
        gen,
        table,
        steps,
        warm,
    } = *l;
    let cache = layers::new_cache();
    warm_cache(&cache, table, warm);
    let mut machines: HashMap<u64, layers::Machine> = HashMap::new();
    let mut seen_clauses: HashSet<String> = warm.iter().flat_map(clause_keys).collect();
    let rows = gen.spec.rows as f64;
    for (op, step) in steps.iter().enumerate() {
        match step {
            Step::Create { slot } => {
                machines.insert(*slot, layers::new_machine(gen.spec.gamma));
            }
            Step::Close { slot } => {
                if let Some(machine) = machines.remove(slot) {
                    time_machine_restore(gen, &machine, op, t, c);
                }
            }
            Step::Batch { .. } => {}
            Step::Viz { slot, view, .. } => {
                let pred = layers::to_predicate(&view.filter);
                let (_, misses_before) = layers::cache_counters(&cache);
                let began = Instant::now();
                let selection = t.span(op, SELECTION, || {
                    layers::cache_selection(&cache, table, &pred)
                });
                let took = began.elapsed().as_nanos() as f64;
                let missed = layers::cache_counters(&cache).1 > misses_before;
                let fresh = clause_keys(&view.filter)
                    .into_iter()
                    .filter(|k| seen_clauses.insert(k.clone()))
                    .count();
                c.rows_scanned
                    .push(if missed { fresh as f64 * rows } else { 0.0 });
                if missed {
                    c.natural_misses += 1;
                } else {
                    c.natural_hits += 1;
                    c.hit_ns.push(took);
                }
                let Some(selection) = selection else { continue };
                let invariants = t.span(op, INVARIANTS, || {
                    layers::cache_invariants(&cache, table, view.attribute)
                });
                let Some(invariants) = invariants else {
                    continue;
                };
                let histogram = t.span(op, HISTOGRAM, || {
                    layers::histogram(table, view.attribute, &selection, &invariants)
                });
                let Some(histogram) = histogram else { continue };
                let outcome = t.span(op, PVALUE, || {
                    layers::chi_square_gof(&histogram, &invariants)
                });
                if let (Some(outcome), Some(machine)) = (outcome, machines.get_mut(slot)) {
                    let support = layers::support_fraction(table, &selection);
                    t.span(op, DECIDE, || {
                        layers::machine_decide(machine, outcome.p_value, support)
                    });
                }
                if missed {
                    // The same probe again is a hit by construction: a
                    // hit sample even on a workload that never hits.
                    let again = Instant::now();
                    t.span(op, SELECTION_REHIT, || {
                        layers::cache_selection(&cache, table, &pred)
                    });
                    c.hit_ns.push(again.elapsed().as_nanos() as f64);
                }
            }
        }
    }
    for machine in machines.values() {
        time_machine_restore(gen, machine, steps.len(), t, c);
    }
    c.cache_bytes = layers::cache_entries(&cache) as f64 * (gen.spec.rows as f64 / 8.0).ceil();
    drop(cache);
    // What a miss costs, on every workload: the same probes against a
    // cache that was never warmed, so the first visit of each filter
    // misses even where the steady state only hits.
    let unwarmed = layers::new_cache();
    for (op, step) in steps.iter().enumerate() {
        if let Step::Viz { view, .. } = step {
            let pred = layers::to_predicate(&view.filter);
            let (_, misses_before) = layers::cache_counters(&unwarmed);
            let began = Instant::now();
            t.span(op, SELECTION_UNWARMED, || {
                layers::cache_selection(&unwarmed, table, &pred)
            });
            if layers::cache_counters(&unwarmed).1 > misses_before {
                c.miss_ns.push(began.elapsed().as_nanos() as f64);
            }
        }
    }
    drop(unwarmed);
    for (op, step) in steps.iter().enumerate() {
        if let Step::Viz { view, .. } = step {
            let pred = layers::to_predicate(&view.filter);
            t.span(op, PREDICATE_EVAL, || layers::predicate_eval(table, &pred));
        }
    }
}

fn time_machine_restore(
    gen: &Generator,
    machine: &layers::Machine,
    op: usize,
    t: &mut Tracer,
    c: &mut Counts,
) {
    let snapshot = layers::machine_snapshot(machine);
    let began = Instant::now();
    let entries = t.span(op, MACHINE_RESTORE, || {
        layers::machine_restore(snapshot, gen.spec.gamma)
    });
    if let Some(entries) = entries.filter(|&n| n > 0) {
        c.restore_ns_per_entry
            .push(began.elapsed().as_nanos() as f64 / entries as f64);
    }
}

/// Level 1: `Session::add_visualization`, and what a durable server
/// wraps around commands: after a mutation the write side (snapshot →
/// image → `save`), before a command on a spilled session the read side
/// (`load` → image → restore). On the durable workload both are timed
/// where the server does them — a write per priming view, a read and a
/// gauge rendering per timed `gauge`; elsewhere once per session, so
/// that every workload reports them.
fn level_core(l: &Inputs, t: &mut Tracer, c: &mut Counts) -> Result<(), String> {
    let Inputs {
        gen,
        table,
        steps,
        warm,
    } = *l;
    let cache = layers::new_cache();
    warm_cache(&cache, table, warm);
    let dir = TempDir::new("ladder-store")?;
    let store = layers::store_open(dir.path())?;
    let durable = gen.spec.kind == Kind::DurableEvict20k;
    let mut sessions: HashMap<u64, layers::CoreSession> = HashMap::new();
    let mut images: HashMap<u64, Vec<u8>> = HashMap::new();
    let gamma = gen.spec.gamma;
    let mut write_side = |slot: u64, session: &layers::CoreSession, op: usize, t: &mut Tracer| {
        let snapshot = t.span(op, SNAPSHOT, || layers::session_snapshot(session));
        let image = layers::session_image(slot, table, gamma, snapshot);
        let bytes = t.span(op, IMAGE_ENCODE, || layers::image_encode(&image));
        c.image_bytes.push(bytes.len() as f64);
        t.span(op, STORE_SAVE, || layers::store_save(&store, &image));
        bytes
    };
    let read_side = |slot: u64, bytes: &[u8], op: usize, t: &mut Tracer| {
        let image = t.span(op, STORE_LOAD, || layers::store_load(&store, slot));
        t.span(op, IMAGE_DECODE, || layers::image_decode(bytes));
        let restored = image.and_then(|image| {
            t.span(op, RESTORE, || {
                layers::session_restore(table, &cache, image.session, gamma)
            })
        });
        if let Some(session) = restored {
            t.span(op, GAUGE, || layers::session_gauge(&session));
        }
    };
    for (op, step) in steps.iter().enumerate() {
        match step {
            Step::Create { slot } => {
                let session = layers::cached_session(table, &cache, gamma);
                if durable {
                    images.insert(*slot, write_side(*slot, &session, op, t));
                }
                sessions.insert(*slot, session);
            }
            Step::Viz { slot, view, .. } => {
                let session = sessions.get_mut(slot).expect("views follow their create");
                t.span(op, ADD_VIZ, || {
                    layers::session_add_viz(session, view.attribute, &view.filter)
                });
                if durable {
                    images.insert(*slot, write_side(*slot, session, op, t));
                }
            }
            Step::Close { slot } => {
                if let Some(session) = sessions.remove(slot).filter(|_| !durable) {
                    let bytes = write_side(*slot, &session, op, t);
                    read_side(*slot, &bytes, op, t);
                }
            }
            Step::Batch { items, .. } => {
                if let ([(slot, _)], true) = (&items[..], durable) {
                    read_side(*slot, &images[slot], op, t);
                }
            }
        }
    }
    if !durable {
        for (slot, session) in &sessions {
            let bytes = write_side(*slot, session, steps.len(), t);
            read_side(*slot, &bytes, steps.len(), t);
        }
    }
    Ok(())
}

/// Replays `steps` through `exec`, a span named `name` around every
/// view and batch. Returns each step's responses.
fn replay(
    exec: &impl Executor,
    gen: &Generator,
    steps: &[Step],
    name: &'static str,
    t: &mut Tracer,
) -> Result<Vec<Vec<Response>>, String> {
    let mut sessions: HashMap<u64, SessionId> = HashMap::new();
    let mut all = Vec::with_capacity(steps.len());
    for (op, step) in steps.iter().enumerate() {
        let mut cmds = commands_of(step, gen.spec.gamma, |slot| sessions[&slot]);
        let responses = match step {
            Step::Create { .. } | Step::Close { .. } => vec![exec.execute(cmds.remove(0))],
            Step::Viz { .. } => vec![t.span(op, name, || exec.execute(cmds.remove(0)))],
            Step::Batch { .. } if cmds.len() == 1 => {
                vec![t.span(op, name, || exec.execute(cmds.remove(0)))]
            }
            Step::Batch { .. } => t.span(op, name, || exec.execute_batch(cmds)),
        };
        if let Some(bad) = responses.iter().find(|r| !r.is_ok()) {
            return Err(format!(
                "ladder level {name}, step {op} ({step:?}): {bad:?}"
            ));
        }
        match (step, &responses[0]) {
            (Step::Create { slot }, Response::SessionCreated { session, .. }) => {
                sessions.insert(*slot, *session);
            }
            (Step::Close { slot }, _) => {
                sessions.remove(slot);
            }
            _ => {}
        }
        all.push(responses);
    }
    Ok(all)
}

fn durable_dir(spec: &Spec, label: &str) -> Result<Option<TempDir>, String> {
    (spec.kind == Kind::DurableEvict20k)
        .then(|| TempDir::new(label))
        .transpose()
}

/// Level 2: `ServiceHandle::call` / `call_batch_mode`, configured as
/// the binary is for this workload.
fn level_dispatch(
    l: &Inputs,
    t: &mut Tracer,
    c: &mut Counts,
) -> Result<Vec<Vec<Response>>, String> {
    let Inputs {
        gen,
        table,
        steps,
        warm,
    } = *l;
    let dir = durable_dir(&gen.spec, "ladder-dispatch")?;
    let service = layers::LocalService::start(table, dir.as_ref().map(TempDir::path));
    warm_executor(&service, warm)?;
    let responses = replay(&service, gen, steps, DISPATCH, t)?;
    for _ in 0..20 {
        let began = Instant::now();
        std::hint::black_box(service.metrics_text());
        c.metrics_render_ns.push(began.elapsed().as_nanos() as f64);
    }
    Ok(responses)
}

/// Level 2b: the same views as 64-item batches through `call_batch`
/// (creates run ahead of their batch, closes after it). The dashboard
/// workload's ops already are such batches, timed at level 2.
fn level_batch_dispatch(l: &Inputs, t: &mut Tracer, c: &mut Counts) -> Result<(), String> {
    let Inputs {
        gen,
        table,
        steps,
        warm,
    } = *l;
    let service = layers::LocalService::start(table, None);
    warm_executor(&service, warm)?;
    let mut sessions: HashMap<u64, SessionId> = HashMap::new();
    let mut batch: Vec<Command> = Vec::with_capacity(BATCH_ITEMS);
    let mut closes: Vec<Command> = Vec::new();
    for (op, step) in steps.iter().enumerate() {
        let cmd = commands_of(step, gen.spec.gamma, |slot| sessions[&slot]).remove(0);
        match step {
            Step::Create { slot } => match service.execute(cmd) {
                Response::SessionCreated { session, .. } => {
                    sessions.insert(*slot, session);
                }
                other => return Err(format!("ladder batch level: {other:?}")),
            },
            Step::Viz { .. } => batch.push(cmd),
            Step::Close { .. } => closes.push(cmd),
            Step::Batch { .. } => continue,
        }
        if batch.len() == BATCH_ITEMS {
            let began = Instant::now();
            let responses = t.span(op, BATCH_DISPATCH, || {
                service.execute_batch(std::mem::take(&mut batch))
            });
            c.batch_ns_per_cmd
                .push(began.elapsed().as_nanos() as f64 / BATCH_ITEMS as f64);
            if let Some(bad) = responses.iter().find(|r| !r.is_ok()) {
                return Err(format!("ladder batch level: {bad:?}"));
            }
            for close in closes.drain(..) {
                service.execute(close);
            }
        }
    }
    Ok(())
}

/// Level 3: both codecs and the reactor's stream decoder over every
/// view and batch, with the responses level 2 produced.
fn level_codec(
    gen: &Generator,
    steps: &[Step],
    responses: &[Vec<Response>],
    t: &mut Tracer,
    c: &mut Counts,
) {
    let mut decoder_json = layers::new_decoder();
    let mut decoder_wire = layers::new_decoder();
    let mut sessions: HashMap<u64, SessionId> = HashMap::new();
    for (op, (step, responses)) in steps.iter().zip(responses).enumerate() {
        if let (Step::Create { slot }, Response::SessionCreated { session, .. }) =
            (step, &responses[0])
        {
            sessions.insert(*slot, *session);
        }
        if !matches!(step, Step::Viz { .. } | Step::Batch { .. }) {
            continue;
        }
        let cmds = commands_of(step, gen.spec.gamma, |slot| sessions[&slot]);
        let id = op as u64 * 100;
        let envelope = layers::envelope(id, &cmds);
        let reply = layers::reply(id, responses);

        let request = t.span(op, WIRE_REQUEST_ENCODE, || {
            layers::wire_encode_envelope(&envelope)
        });
        t.span(op, WIRE_DECODE, || layers::wire_decode_envelope(&request));
        let answer = t.span(op, WIRE_ENCODE, || layers::wire_encode_reply(&reply));
        t.span(op, WIRE_REPLY_DECODE, || layers::wire_decode_reply(&answer));

        let request_line = t.span(op, JSON_REQUEST_ENCODE, || {
            layers::json_encode_envelope(&envelope)
        });
        t.span(op, JSON_DECODE, || {
            layers::json_decode_envelope(&request_line)
        });
        let answer_line = t.span(op, JSON_ENCODE, || layers::json_encode_reply(&reply));
        t.span(op, JSON_REPLY_DECODE, || {
            layers::json_decode_reply(&answer_line)
        });

        // On the wire: a frame header around binary payloads, a newline
        // after JSON lines.
        let mut framed = Vec::with_capacity(request.len() + layers::FRAME_OVERHEAD);
        let (request_len, reply_len, decoder) = if gen.spec.json {
            framed.extend_from_slice(request_line.as_bytes());
            framed.push(b'\n');
            (framed.len(), answer_line.len() + 1, &mut decoder_json)
        } else {
            layers::frame_into(&mut framed, &request);
            (
                framed.len(),
                answer.len() + layers::FRAME_OVERHEAD,
                &mut decoder_wire,
            )
        };
        if step.is_timed() {
            c.request_bytes_per_cmd
                .push(request_len as f64 / cmds.len() as f64);
            c.reply_bytes_per_cmd
                .push(reply_len as f64 / cmds.len() as f64);
        }
        t.span(op, STREAM_DECODE, || {
            layers::decoder_roundtrip(decoder, &framed)
        });
    }
}

/// Levels 4 and 5: the reference client over a loopback socket against
/// an in-process server, thread front then reactor front.
fn level_front(l: &Inputs, reactor: bool, t: &mut Tracer) -> Result<(), String> {
    let Inputs {
        gen,
        table,
        steps,
        warm,
    } = *l;
    let dir = durable_dir(&gen.spec, "ladder-front")?;
    let service = layers::LocalService::start(table, dir.as_ref().map(TempDir::path));
    let front = layers::LocalFront::bind(service, reactor)?;
    let client = layers::connect(front.addr, run::encoding(&gen.spec))?;
    let exec = layers::ClientExecutor(std::cell::RefCell::new(client));
    warm_executor(&exec, warm)?;
    replay(
        &exec,
        gen,
        steps,
        if reactor { REACTOR_FRONT } else { FRONT },
        t,
    )
    .map(|_| ())
}

/// Level 6: the reference client against a router front end over two
/// in-process shards — the thread-front path plus one more hop.
fn level_hop(l: &Inputs, t: &mut Tracer) -> Result<(), String> {
    let Inputs {
        gen,
        table,
        steps,
        warm,
    } = *l;
    let dirs = [
        durable_dir(&gen.spec, "ladder-shard")?,
        durable_dir(&gen.spec, "ladder-shard")?,
    ];
    let cluster = layers::LocalCluster::start(
        table,
        &dirs.each_ref().map(|d| d.as_ref().map(TempDir::path)),
    )?;
    let client = layers::connect(cluster.addr, run::encoding(&gen.spec))?;
    let exec = layers::ClientExecutor(std::cell::RefCell::new(client));
    warm_executor(&exec, warm)?;
    replay(&exec, gen, steps, HOP, t).map(|_| ())
}

fn time_per_call(calls: u32, mut f: impl FnMut(u32)) -> f64 {
    let began = Instant::now();
    for i in 0..calls {
        f(i);
    }
    began.elapsed().as_nanos() as f64 / calls as f64
}

/// Runs every level. Returns the linked spans and the side counts.
fn ladder(gen: &Generator, table: &SharedTable) -> Result<(Vec<Span>, Counts, Vec<Step>), String> {
    let mut c = Counts::default();
    let steps = ladder_steps(gen);
    let warm = warm_filters(gen);
    let l = Inputs {
        gen,
        table,
        steps: &steps,
        warm: &warm,
    };
    let mut t = Tracer::new();
    level_kernels(&l, &mut t, &mut c);
    level_core(&l, &mut t, &mut c)?;
    let responses = level_dispatch(&l, &mut t, &mut c)?;
    if gen.spec.kind != Kind::DashboardBatch5k {
        level_batch_dispatch(&l, &mut t, &mut c)?;
    }
    level_codec(gen, &steps, &responses, &mut t, &mut c);
    drop(responses);
    level_front(&l, false, &mut t)?;
    level_front(&l, true, &mut t)?;
    level_hop(&l, &mut t)?;

    let histogram = layers::obs_histogram();
    c.obs_record_ns = time_per_call(100_000, |i| {
        layers::obs_record(&histogram, u64::from(i % 5_000))
    });
    let ring = layers::ring(&["127.0.0.1:7001", "127.0.0.1:7002"]);
    c.ring_route_ns = time_per_call(100_000, |i| {
        std::hint::black_box(layers::ring_route(&ring, u64::from(i)));
    });

    let mut spans = t.spans;
    link_parents(&gen.spec, &mut spans);
    Ok((spans, c, steps))
}

/// Median duration (or self time) of the spans called `name`, over the
/// steps `keep` selects. `None` when there is no such span.
fn median_of(
    spans: &[Span],
    values: &[i64],
    name: &str,
    keep: impl Fn(usize) -> bool,
) -> Option<f64> {
    let picked: Vec<f64> = spans
        .iter()
        .zip(values)
        .filter(|(s, _)| s.name == name && keep(s.op as usize))
        .map(|(_, &v)| v as f64)
        .collect();
    (!picked.is_empty()).then(|| median(&picked))
}

/// What the passes over the real binaries add.
struct BinaryPasses {
    untraced_p50_us: f64,
    untraced_ops_per_s: f64,
    traced_ops_per_s: f64,
    stage_p50_us: [f64; 4],
    stats: layers::StatsSnapshot,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

const STAGES: [&str; 4] = ["queue_wait", "execute", "snapshot_flush", "wire_encode"];

fn binary_passes(
    binaries: &Binaries,
    gen: &Generator,
    table: &SharedTable,
    plan: LoadPlan,
) -> Result<BinaryPasses, String> {
    let mut attempted = 0;
    let mut failed = 0;
    let mut problems = Vec::new();
    let mut pass =
        |metrics: bool| -> Result<(f64, f64, [f64; 4], Option<layers::StatsSnapshot>), String> {
            let (mut deployment, _) = Deployment::start(binaries, &gen.spec, metrics)?;
            let addr = deployment.addr();
            let outcome = run::load(addr, gen, table, plan, || {
                deployment.check_healthy()?;
                if metrics {
                    // Being observed: a scrape a second, as a collector would.
                    for server in &deployment.servers {
                        server.scrape_metrics()?;
                    }
                }
                Ok(())
            })?;
            attempted += outcome.attempted;
            failed += outcome.failed;
            problems.extend(outcome.problems.iter().cloned());
            let quiet = outcome.quiet_half(plan)?;
            let mut stages = [0.0f64; 4];
            let mut stats = None;
            if metrics {
                // Stage histograms live where commands execute: the one
                // process, or the shards behind a router (the worst shard
                // is reported, as the router does for its own quantiles).
                for server in &deployment.servers {
                    let body = server.scrape_metrics()?;
                    for (slot, stage) in stages.iter_mut().zip(STAGES) {
                        if let Some(v) = layers::stage_p50_us(&body, stage) {
                            *slot = slot.max(v);
                        }
                    }
                }
                stats = Some(run::server_stats(addr, &gen.spec)?);
            }
            deployment.stop()?;
            Ok((quiet.p50_ns / 1e3, quiet.ops_per_s, stages, stats))
        };
    // Which pass goes first alternates with the seed, so drift over a
    // run does not always favour the same side.
    let traced_first = gen.seed % 2 == 1;
    let first = pass(traced_first)?;
    let second = pass(!traced_first)?;
    let (traced, untraced) = if traced_first {
        (first, second)
    } else {
        (second, first)
    };
    Ok(BinaryPasses {
        untraced_p50_us: untraced.0,
        untraced_ops_per_s: untraced.1,
        traced_ops_per_s: traced.1,
        stage_p50_us: traced.2,
        stats: traced.3.expect("the traced pass reads stats"),
        attempted,
        failed,
        problems,
    })
}

/// The traced run's result.
pub struct Traced {
    pub metrics: Vec<Reported>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub spans: Vec<Span>,
    /// Median self time of every layer on the request path, fattest
    /// first.
    pub path_selfs: Vec<(&'static str, f64)>,
}

/// The spans whose self times add up to one operation on this workload.
fn request_path(spec: &Spec) -> Vec<&'static str> {
    let mut path = Vec::new();
    if spec.kind != Kind::DashboardBatch5k {
        path.extend(KERNELS);
        path.push(ADD_VIZ);
    }
    if spec.kind == Kind::DurableEvict20k {
        path.extend(DURABLE_PIECES);
        path.extend([IMAGE_ENCODE, IMAGE_DECODE]);
    }
    path.push(DISPATCH);
    path.extend(if spec.json { JSON_CODEC } else { WIRE_CODEC });
    path.push(FRONT);
    if spec.kind == Kind::ClusterHop20k {
        path.push(HOP);
    }
    path
}

pub fn traced(
    binaries: &Binaries,
    spec: &Spec,
    seed: u64,
    plan: LoadPlan,
) -> Result<Traced, String> {
    let gen = Generator::new(*spec, seed);
    let _one_cpu = spec.one_cpu.then(OneCpu::confine).transpose()?;
    let began = Instant::now();
    let table = layers::census(spec.rows);
    let census_gen_s = began.elapsed().as_secs_f64();
    let (spans, c, steps) = ladder(&gen, &table)?;
    let selfs = self_times(&spans);
    let durations: Vec<i64> = spans.iter().map(|s| s.duration() as i64).collect();
    let passes = binary_passes(binaries, &gen, &table, plan)?;

    let is_viz = |op: usize| matches!(steps.get(op), Some(Step::Viz { .. }));
    let is_timed = |op: usize| steps.get(op).is_some_and(Step::is_timed);
    let any = |_: usize| true;
    let commands = |op: usize| match steps.get(op) {
        Some(Step::Batch { items, .. }) => items.len() as f64,
        _ => 1.0,
    };
    let per_command = |name: &str| {
        let picked: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name && is_timed(s.op as usize))
            .map(|s| s.duration() as f64 / commands(s.op as usize))
            .collect();
        (!picked.is_empty()).then(|| median(&picked))
    };
    let dur = |name: &str, keep: &dyn Fn(usize) -> bool| median_of(&spans, &durations, name, keep);
    let own = |name: &str, keep: &dyn Fn(usize) -> bool| median_of(&spans, &selfs, name, keep);
    let med = |v: &[f64]| (!v.is_empty()).then(|| median(v));
    let mean = |v: &[f64]| (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64);

    // A front end's self time: its span minus dispatch and codec, which
    // for the reactor means borrowing the thread front's children.
    let reactor_self = {
        let children: f64 = std::iter::once(DISPATCH)
            .chain(if spec.json { JSON_CODEC } else { WIRE_CODEC })
            .filter_map(|name| dur(name, &is_timed))
            .sum();
        dur(REACTOR_FRONT, &is_timed).map(|d| d - children)
    };
    // The hop's self time off the cluster workload: router call minus
    // the direct loopback call (on it, the linked self time says so).
    let hop_self = match spec.kind {
        Kind::ClusterHop20k => own(HOP, &is_timed),
        _ => dur(HOP, &is_timed)
            .zip(dur(FRONT, &is_timed))
            .map(|(h, f)| h - f),
    };

    let path = request_path(spec);
    let mut path_selfs: Vec<(&'static str, f64)> = path
        .iter()
        .filter_map(|&name| own(name, &is_timed).map(|v| (name, v)))
        .collect();
    if path_selfs.is_empty() {
        return Err("the ladder recorded no span on the request path".into());
    }
    path_selfs.sort_by(|a, b| b.1.total_cmp(&a.1));
    let layer_sum_ns: f64 = path_selfs.iter().map(|(_, v)| v).sum();

    let probes = (passes.stats.cache_hits + passes.stats.cache_misses) as f64;
    let natural = (c.natural_hits + c.natural_misses) as f64;
    let values: Vec<(&'static str, Option<f64>)> = vec![
        ("data.selection_miss_ns", med(&c.miss_ns)),
        ("data.selection_hit_ns", med(&c.hit_ns)),
        ("data.predicate_eval_ns", dur(PREDICATE_EVAL, &is_viz)),
        ("data.histogram_ns", dur(HISTOGRAM, &is_viz)),
        ("data.invariants_ns", dur(INVARIANTS, &is_viz)),
        (
            "data.cache_hit_ratio",
            Some(c.natural_hits as f64 / natural),
        ),
        (
            "data.server_probe_hit_ratio",
            Some(passes.stats.cache_hits as f64 / probes),
        ),
        ("data.rows_scanned_per_op", mean(&c.rows_scanned)),
        ("data.census_gen_s", Some(census_gen_s)),
        ("data.cache_bytes", Some(c.cache_bytes)),
        ("stats.pvalue_ns", dur(PVALUE, &is_viz)),
        ("mht.decide_ns", dur(DECIDE, &is_viz)),
        ("mht.restore_ns_per_entry", med(&c.restore_ns_per_entry)),
        ("core.add_viz_self_ns", own(ADD_VIZ, &is_viz)),
        ("core.snapshot_ns", dur(SNAPSHOT, &any)),
        ("core.restore_ns", dur(RESTORE, &any)),
        ("core.gauge_render_ns", dur(GAUGE, &any)),
        ("serve.wire_decode_ns", per_command(WIRE_DECODE)),
        ("serve.wire_encode_ns", per_command(WIRE_ENCODE)),
        ("serve.json_decode_ns", per_command(JSON_DECODE)),
        ("serve.json_encode_ns", per_command(JSON_ENCODE)),
        (
            "serve.request_bytes_per_cmd",
            mean(&c.request_bytes_per_cmd),
        ),
        ("serve.reply_bytes_per_cmd", mean(&c.reply_bytes_per_cmd)),
        ("serve.dispatch_self_ns", own(DISPATCH, &is_viz)),
        (
            "serve.batch_dispatch_ns_per_cmd",
            med(&c.batch_ns_per_cmd).or_else(|| per_command(DISPATCH)),
        ),
        ("serve.front_self_ns", own(FRONT, &is_timed)),
        ("serve.image_encode_ns", dur(IMAGE_ENCODE, &any)),
        ("serve.image_decode_ns", dur(IMAGE_DECODE, &any)),
        ("serve.image_bytes", med(&c.image_bytes)),
        ("serve.store_save_ns", dur(STORE_SAVE, &any)),
        ("serve.store_load_ns", dur(STORE_LOAD, &any)),
        ("serve.stage_queue_wait_us", Some(passes.stage_p50_us[0])),
        ("serve.stage_execute_us", Some(passes.stage_p50_us[1])),
        (
            "serve.stage_snapshot_flush_us",
            Some(passes.stage_p50_us[2]),
        ),
        ("serve.stage_wire_encode_us", Some(passes.stage_p50_us[3])),
        (
            "serve.sessions_evicted",
            Some(passes.stats.sessions_evicted as f64),
        ),
        ("serve.persisted", Some(passes.stats.persisted as f64)),
        ("reactor.decode_ns", dur(STREAM_DECODE, &is_timed)),
        ("reactor.front_self_ns", reactor_self),
        ("cluster.ring_route_ns", Some(c.ring_route_ns)),
        ("cluster.hop_self_ns", hop_self),
        ("cluster.forwarded", Some(passes.stats.forwarded as f64)),
        (
            "cluster.shard_errors",
            Some(passes.stats.shard_errors as f64),
        ),
        (
            "cluster.replication_lag_max_epochs",
            Some(passes.stats.replication_lag_max_epochs as f64),
        ),
        ("obs.record_ns", Some(c.obs_record_ns)),
        ("obs.metrics_render_ns", med(&c.metrics_render_ns)),
        (
            "trace.layer_sum_share",
            Some(layer_sum_ns / 1e3 / passes.untraced_p50_us),
        ),
        (
            "trace.overhead_share",
            Some((passes.untraced_ops_per_s - passes.traced_ops_per_s) / passes.untraced_ops_per_s),
        ),
    ];
    let mut metrics = Vec::with_capacity(values.len());
    for (declared, (name, value)) in crate::metrics::PER_LAYER.iter().zip(values) {
        assert_eq!(
            declared.name, name,
            "PER_LAYER and the traced values are listed in one order"
        );
        let value = value.ok_or_else(|| format!("the traced run has no sample for {name}"))?;
        metrics.push(Reported {
            name: declared.name,
            unit: declared.unit,
            value,
        });
    }
    Ok(Traced {
        metrics,
        attempted: passes.attempted,
        failed: passes.failed,
        problems: passes.problems,
        spans,
        path_selfs,
    })
}

/// Writes the spans as one JSON document: provenance, then one object
/// per span with its parent's index.
pub fn write_spans(spec: &Spec, seed: u64, spans: &[Span]) -> Result<std::path::PathBuf, String> {
    use std::fmt::Write as _;
    let p = procs::provenance();
    let mut out = String::with_capacity(spans.len() * 96);
    let _ = write!(
        out,
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"commit\": \"{}\", \"nproc\": {}, \"rustc\": \"{}\", \"spans\": [",
        spec.name, p.commit, p.nproc, p.rustc
    );
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{}\n{{\"op\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
            if i == 0 { "" } else { "," },
            s.op,
            s.name,
            s.start_ns,
            s.end_ns
        );
    }
    out.push_str("\n]}\n");
    let dir = procs::out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}.json", spec.name));
    std::fs::write(&path, out).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::SPECS;

    fn span(op: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            op,
            name,
            start_ns,
            end_ns,
            parent: None,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_what_it_encloses() {
        let spec = crate::workload::spec("shared_drill_100k").unwrap();
        // Step 0, innermost first, as the ladder records them; step 1
        // has only a dispatch span.
        let mut spans = vec![
            span(0, SELECTION, 0, 30),
            span(0, HISTOGRAM, 40, 60),
            span(0, ADD_VIZ, 100, 170),
            span(0, DISPATCH, 200, 300),
            span(0, WIRE_DECODE, 310, 315),
            span(0, JSON_DECODE, 320, 390),
            span(0, FRONT, 400, 600),
            span(1, DISPATCH, 700, 710),
        ];
        link_parents(&spec, &mut spans);
        assert_eq!(spans[0].parent, Some(2));
        assert_eq!(spans[2].parent, Some(3));
        assert_eq!(spans[4].parent, Some(6));
        assert_eq!(
            spans[5].parent, None,
            "the other encoding's codec is off the path"
        );
        assert_eq!(spans[6].parent, None, "no hop span for this step");
        assert_eq!(spans[7].parent, None);
        let selfs = self_times(&spans);
        assert_eq!(selfs[2], 70 - 30 - 20);
        assert_eq!(selfs[3], 100 - 70);
        assert_eq!(selfs[6], 200 - 100 - 5);
        // Selfs along the tree add up to the root.
        assert_eq!(
            selfs[0] + selfs[1] + selfs[2] + selfs[3] + selfs[4] + selfs[6],
            200
        );
    }

    #[test]
    fn snapshot_pieces_nest_under_dispatch_only_when_durable() {
        let durable = crate::workload::spec("durable_evict_20k").unwrap();
        let plain = crate::workload::spec("cold_scan_1m").unwrap();
        assert_eq!(parent_of(&durable, STORE_SAVE), Some(DISPATCH));
        assert_eq!(parent_of(&plain, STORE_SAVE), None);
        assert_eq!(parent_of(&plain, JSON_DECODE), None);
        assert_eq!(
            parent_of(
                &crate::workload::spec("dashboard_batch_5k").unwrap(),
                JSON_DECODE
            ),
            Some(FRONT)
        );
    }

    /// The whole ladder, every workload, at a fiftieth of the size: every
    /// level runs, nothing errors, and every span the metrics read exists.
    #[test]
    fn ladder_runs_every_level_on_every_workload() {
        for spec in SPECS {
            let gen = Generator::new(spec.scaled(0.02), 5);
            let table = layers::census(gen.spec.rows);
            let (spans, c, steps) =
                ladder(&gen, &table).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            for name in [
                PREDICATE_EVAL,
                SELECTION,
                INVARIANTS,
                HISTOGRAM,
                PVALUE,
                DECIDE,
                MACHINE_RESTORE,
                ADD_VIZ,
                SNAPSHOT,
                RESTORE,
                IMAGE_ENCODE,
                IMAGE_DECODE,
                STORE_SAVE,
                STORE_LOAD,
                DISPATCH,
                WIRE_DECODE,
                WIRE_ENCODE,
                JSON_DECODE,
                JSON_ENCODE,
                STREAM_DECODE,
                FRONT,
                REACTOR_FRONT,
                HOP,
            ] {
                assert!(
                    spans.iter().any(|s| s.name == name),
                    "{}: no {name} span",
                    spec.name
                );
            }
            assert!(steps.iter().filter(|s| s.is_timed()).count() >= gen.spec.ladder_ops);
            assert!(c.natural_hits + c.natural_misses > 0);
            assert!(!c.image_bytes.is_empty() && !c.request_bytes_per_cmd.is_empty());
        }
    }
}
