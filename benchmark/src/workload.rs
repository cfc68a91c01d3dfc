//! The five seeded workloads: what the client connection sends, as a
//! pure function of `(workload, seed)`.
//!
//! The server sees only the commands. Session ids are assigned by the
//! server, so the generator names sessions by *slot* (a number unique
//! within a run) and the driver substitutes the id the server returned.

use crate::layers::{CmpOp, FilterSpec, Value};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Items in one `dashboard_batch_5k` batch: 8 sessions × 8 commands.
pub const BATCH_ITEMS: usize = 64;
const DASHBOARD_SESSIONS: u64 = 8;

/// Drill-down chains shared by every session of a run.
pub const CHAINS: usize = 32;
pub const CHAIN_STEPS: usize = 12;

/// Live sessions in `durable_evict_20k`: three times the server's
/// resident cap.
const DURABLE_SESSIONS: u64 = 96;

const ATTRIBUTES: [&str; 10] = [
    "age",
    "sex",
    "education",
    "marital_status",
    "occupation",
    "hours_per_week",
    "salary_over_50k",
    "race",
    "native_region",
    "survey_wave",
];

const CATEGORICALS: [(&str, &[&str]); 6] = [
    (
        "education",
        &["HS", "Some-College", "Bachelor", "Master", "PhD"],
    ),
    (
        "marital_status",
        &["Never-Married", "Married", "Divorced", "Widowed"],
    ),
    (
        "occupation",
        &[
            "Service",
            "Manual",
            "Clerical",
            "Professional",
            "Managerial",
        ],
    ),
    (
        "race",
        &["Group-A", "Group-B", "Group-C", "Group-D", "Group-E"],
    ),
    (
        "native_region",
        &["North", "South", "East", "West", "Overseas"],
    ),
    ("survey_wave", &["Wave-1", "Wave-2", "Wave-3", "Wave-4"]),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ColdScan1m,
    SharedDrill100k,
    DashboardBatch5k,
    DurableEvict20k,
    ClusterHop20k,
}

/// Everything fixed about one workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub kind: Kind,
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: the layer the workload stresses.
    pub why: &'static str,
    /// `--rows` of every server process.
    pub rows: usize,
    /// NDJSON v2 envelopes instead of `AWR2` frames.
    pub json: bool,
    /// γ of every session's `Fixed` policy: large enough that the
    /// wealth never exhausts within a session's lifetime.
    pub gamma: f64,
    /// Timed operations the in-process peel ladder replays.
    pub ladder_ops: usize,
    /// The oracle replays one session in this many: one in 8 where that
    /// fits the run's time budget, fewer on the fast workloads (whose
    /// runs hold 80k+ ops), more on `cold_scan_1m` (whose runs hold
    /// ~2.7k) and all on `durable_evict_20k` (whose tests are its 2 256
    /// priming views), so that every `AWR2` run compares 1 300 to
    /// 12 500 decisions.
    pub oracle_one_in: u64,
    /// Client and servers all run on one CPU (see `procs::OneCpu`). Not
    /// on `cold_scan_1m`: its op is milliseconds of scanning, which
    /// where threads wake does not move, and a scan split over the
    /// cores — on the ROADMAP — has to be able to show.
    pub one_cpu: bool,
    /// Views in one session's lifetime: a whole chain on the drill-down
    /// workloads, the dashboard's priming tests, and on
    /// `durable_evict_20k` the range ledger lengths are staggered over.
    pub session_views: usize,
}

pub const SPECS: [Spec; 5] = [
    Spec {
        kind: Kind::ColdScan1m,
        name: "cold_scan_1m",
        why: "never-repeating 3-clause filters over 1M rows: EvalCache misses, so aware-data predicate kernels and histograms do most of each op",
        rows: 1_000_000,
        json: false,
        gamma: 100.0,
        ladder_ops: 64,
        oracle_one_in: 2,
        one_cpu: false,
        session_views: 16,
    },
    Spec {
        kind: Kind::SharedDrill100k,
        name: "shared_drill_100k",
        why: "32 shared 12-step drill-down chains (Zipf) over 100k rows: EvalCache hits, so histogram, p-value, alpha-investing, dispatch and socket share each op",
        rows: 100_000,
        json: false,
        gamma: 100.0,
        ladder_ops: 1920,
        oracle_one_in: 32,
        one_cpu: true,
        session_views: CHAIN_STEPS,
    },
    Spec {
        kind: Kind::DashboardBatch5k,
        name: "dashboard_batch_5k",
        why: "64-item NDJSON batches of gauge/set_policy/transcript over 5k rows: kernels idle, so the JSON codec, batch dispatch and front end do everything",
        rows: 5_000,
        json: true,
        gamma: 100.0,
        ladder_ops: 64,
        oracle_one_in: 8,
        one_cpu: true,
        session_views: 8,
    },
    Spec {
        kind: Kind::DurableEvict20k,
        name: "durable_evict_20k",
        why: "96 durable sessions over a 32-session cap: every op reads a spilled session's image back, re-validates its whole ledger, renders its gauge and evicts another",
        rows: 20_000,
        json: false,
        gamma: 1000.0,
        ladder_ops: 480,
        oracle_one_in: 1,
        one_cpu: true,
        session_views: 48,
    },
    Spec {
        kind: Kind::ClusterHop20k,
        name: "cluster_hop_20k",
        why: "the drill-down stream through router + 2 shards with 1 replica at 20k rows: the kernel is small, so router locks, pool, re-encode and the extra hop dominate",
        rows: 20_000,
        json: false,
        gamma: 100.0,
        ladder_ops: 1920,
        oracle_one_in: 16,
        one_cpu: true,
        session_views: CHAIN_STEPS,
    },
];

pub fn spec(name: &str) -> Option<Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

impl Spec {
    /// The same workload at a fraction of its size, for `--check` and
    /// the unit tests. `scale` 1.0 is the benchmark itself.
    pub fn scaled(mut self, scale: f64) -> Spec {
        self.rows = ((self.rows as f64 * scale) as usize).max(2_000);
        if self.kind == Kind::DurableEvict20k {
            // Priming writes a snapshot per view, 2 256 fsyncs at full
            // size, and the traced run primes seven times over.
            self.session_views = ((self.session_views as f64 * scale) as usize).max(4);
        }
        let unit = if self.kind == Kind::DashboardBatch5k {
            1
        } else {
            16
        };
        self.ladder_ops = ((self.ladder_ops as f64 * scale) as usize).max(unit);
        self
    }
}

/// One visualization: an attribute under a filter.
#[derive(Debug, Clone, PartialEq)]
pub struct View {
    pub attribute: &'static str,
    pub filter: FilterSpec,
}

/// One command of a dashboard batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Item {
    Gauge,
    SetPolicy { gamma: f64 },
    TranscriptCsv,
}

/// One thing the connection does next.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    Create {
        slot: u64,
    },
    /// View `index` of session `slot`. Untimed views age a session to
    /// its steady state during warm-up.
    Viz {
        slot: u64,
        index: usize,
        view: View,
        timed: bool,
    },
    Close {
        slot: u64,
    },
    /// One timed round trip carrying these commands, the run's
    /// `serial`-th; a single command goes out unbatched.
    Batch {
        serial: u64,
        items: Vec<(u64, Item)>,
    },
}

impl Step {
    /// True for the operations the latency metrics are about.
    pub fn is_timed(&self) -> bool {
        matches!(self, Step::Viz { timed: true, .. } | Step::Batch { .. })
    }
}

fn mix(seed: u64, stream: u64) -> u64 {
    // SplitMix64 finalizer over the pair: nearby (seed, stream) pairs
    // must not give correlated generators.
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(0x2545_F491_4F6C_DD1D);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn strs(labels: &[&str]) -> Vec<Value> {
    labels.iter().map(|l| Value::Str((*l).into())).collect()
}

/// `labels` without its last, which the census generator makes the
/// rarest. No seeded choice here: the labels' frequencies differ by up
/// to 11 points, so which one a clause drops would move how many rows
/// survive it — and its text, which the transcripts carry — with the
/// seed.
fn all_but_last(column: &str, labels: &[&str]) -> FilterSpec {
    FilterSpec::In {
        column: column.into(),
        values: strs(&labels[..labels.len() - 1]),
    }
}

fn cmp(column: &str, op: CmpOp, value: Value) -> FilterSpec {
    FilterSpec::Cmp {
        column: column.into(),
        op,
        value,
    }
}

/// The 12 clause forms of a drill-down chain, each over its own column
/// and operator. A numeric form's seeded parameter ranges over literals
/// of nearly equal selectivity and a categorical form has none, so a
/// chain's cost profile — how many rows survive each step, which the
/// histogram kernel's time follows, and how long its transcript is — is
/// the same for every seed while the numeric literals differ.
fn chain_clause(form: usize, rng: &mut SmallRng) -> FilterSpec {
    match form {
        0 => FilterSpec::Between {
            column: "age".into(),
            lo: rng.gen_range(18..=20) as f64,
            hi: rng.gen_range(78..=80) as f64,
        },
        1 => cmp(
            "hours_per_week",
            CmpOp::Ge,
            Value::Int(rng.gen_range(18..=24)),
        ),
        2 => cmp(
            "hours_per_week",
            CmpOp::Le,
            Value::Int(rng.gen_range(56..=62)),
        ),
        3 => cmp(
            "hours_per_week",
            CmpOp::Neq,
            Value::Int(rng.gen_range(28..=32)),
        ),
        4 => cmp("age", CmpOp::Neq, Value::Int(rng.gen_range(30..=60))),
        5 => FilterSpec::In {
            column: "sex".into(),
            values: strs(&["Male", "Female"]),
        },
        n => {
            let (column, labels) = CATEGORICALS[n - 6];
            all_but_last(column, labels)
        }
    }
}

/// The seeded, immutable part of a workload's stream.
#[derive(Debug, Clone)]
pub struct Generator {
    pub spec: Spec,
    pub seed: u64,
    /// `chains[c][k]` is clause `k` of chain `c`.
    chains: Vec<Vec<FilterSpec>>,
    /// Cumulative Zipf(s = 1) weights over the chains.
    zipf: Vec<f64>,
}

impl Generator {
    pub fn new(spec: Spec, seed: u64) -> Generator {
        let chains = (0..CHAINS)
            .map(|c| {
                let mut rng = SmallRng::seed_from_u64(mix(seed, 0xC4A1 + c as u64));
                // Which column narrows first is a rotation fixed by the
                // chain's rank, not drawn from the seed: see `chain_clause`.
                (0..CHAIN_STEPS)
                    .map(|k| (k + 5 * c) % CHAIN_STEPS)
                    .map(|form| chain_clause(form, &mut rng))
                    .collect()
            })
            .collect();
        let mut total = 0.0;
        let mut zipf: Vec<f64> = (1..=CHAINS)
            .map(|rank| {
                total += 1.0 / rank as f64;
                total
            })
            .collect();
        for w in &mut zipf {
            *w /= total;
        }
        Generator {
            spec,
            seed,
            chains,
            zipf,
        }
    }

    /// Step `k` of chain `c`: the conjunction of clauses `0..=k`.
    pub fn chain_filter(&self, chain: usize, step: usize) -> FilterSpec {
        let clauses = &self.chains[chain][..=step];
        match clauses {
            [only] => only.clone(),
            many => FilterSpec::And(many.to_vec()),
        }
    }

    /// The chain a Zipf(1) draw `u ∈ [0, 1)` lands on.
    pub fn zipf_chain(&self, u: f64) -> usize {
        self.zipf
            .iter()
            .position(|&cum| u < cum)
            .unwrap_or(CHAINS - 1)
    }

    /// Every view of session `slot`, in order — a pure function of
    /// `(seed, slot)`, which is what lets the oracle replay a session
    /// without having watched the run.
    pub fn views(&self, slot: u64) -> Vec<View> {
        let mut rng = SmallRng::seed_from_u64(mix(self.seed, slot));
        let n = self.spec.session_views;
        match self.spec.kind {
            Kind::ColdScan1m => (0..n)
                .map(|i| cold_view(slot * n as u64 + i as u64, &mut rng))
                .collect(),
            Kind::SharedDrill100k | Kind::ClusterHop20k | Kind::DashboardBatch5k => {
                // Thousands of sessions a run draw their chain; the
                // dashboard's eight take the first eight, or which
                // chains they drew would set the run's reply sizes.
                let chain = match self.spec.kind {
                    Kind::DashboardBatch5k => slot as usize % CHAINS,
                    _ => self.zipf_chain(rng.gen::<f64>()),
                };
                (0..n)
                    .map(|k| View {
                        attribute: ATTRIBUTES[(chain + k) % ATTRIBUTES.len()],
                        filter: self.chain_filter(chain, k),
                    })
                    .collect()
            }
            Kind::DurableEvict20k => {
                let chain = slot as usize % CHAINS;
                (0..n)
                    .map(|i| View {
                        // 48 views over 12 cached prefixes: the attribute
                        // moves on each lap so no view repeats.
                        attribute: ATTRIBUTES
                            [(chain + i + 3 * (i / CHAIN_STEPS)) % ATTRIBUTES.len()],
                        filter: self.chain_filter(chain, i % CHAIN_STEPS),
                    })
                    .collect()
            }
        }
    }

    /// True when the oracle replays `slot`: one slot in `oracle_one_in`,
    /// which one chosen by the seed.
    pub fn is_oracle(&self, slot: u64) -> bool {
        let n = self.spec.oracle_one_in;
        slot % n == self.seed % n
    }
}

/// A filter no other view of the run shares: every clause carries the
/// view's serial number — as a sub-integer offset on numeric bounds
/// (ages and hours are whole numbers, so the selection is that of the
/// rounded bounds) and as an unknown label in the `In` list (which the
/// kernel ignores) — so each one is a distinct cache key.
fn cold_view(serial: u64, rng: &mut SmallRng) -> View {
    let frac = (serial + 1) as f64 / (1u64 << 24) as f64;
    let lo = rng.gen_range(18..=40) as f64;
    let width = rng.gen_range(15..=35) as f64;
    let age = FilterSpec::Between {
        column: "age".into(),
        lo: lo + frac,
        hi: lo + width + frac,
    };
    let hours = if rng.gen_bool(0.5) {
        cmp(
            "hours_per_week",
            CmpOp::Ge,
            Value::Float(rng.gen_range(25..=35) as f64 + frac),
        )
    } else {
        cmp(
            "hours_per_week",
            CmpOp::Le,
            Value::Float(rng.gen_range(45..=55) as f64 + frac),
        )
    };
    let (column, labels) = CATEGORICALS[rng.gen_range(0..CATEGORICALS.len())];
    let first = rng.gen_range(0..labels.len());
    let take = rng.gen_range(2..labels.len());
    let mut values: Vec<Value> = (0..take)
        .map(|i| Value::Str(labels[(first + i) % labels.len()].into()))
        .collect();
    values.push(Value::Str(format!("~{serial}")));
    let category = FilterSpec::In {
        column: column.into(),
        values,
    };
    View {
        attribute: ATTRIBUTES[rng.gen_range(0..ATTRIBUTES.len())],
        filter: FilterSpec::And(vec![age, hours, category]),
    }
}

/// The connection's endless sequence of steps.
pub struct Script {
    gen: Generator,
    /// Slot of the first session it opens; the following ones count up.
    first_slot: u64,
    queue: VecDeque<Step>,
    /// Sessions opened so far.
    opened: u64,
    batches: u64,
    /// `durable_evict_20k`: the session at each round-robin position.
    positions: Vec<u64>,
    cursor: usize,
}

impl Script {
    /// What the run's one client connection sends.
    pub fn new(gen: &Generator) -> Script {
        Script::from_slot(gen, 0)
    }

    /// The same kind of stream over other sessions — other draws from
    /// the seed — for feeding a cache what a run's warm-up would have.
    pub fn from_slot(gen: &Generator, first_slot: u64) -> Script {
        Script {
            gen: gen.clone(),
            first_slot,
            queue: VecDeque::new(),
            opened: 0,
            batches: 0,
            positions: Vec::new(),
            cursor: 0,
        }
    }

    fn open_slot(&mut self) -> u64 {
        let slot = self.first_slot + self.opened;
        self.opened += 1;
        slot
    }

    pub fn next_step(&mut self) -> Step {
        loop {
            if let Some(step) = self.queue.pop_front() {
                return step;
            }
            match self.gen.spec.kind {
                Kind::ColdScan1m | Kind::SharedDrill100k | Kind::ClusterHop20k => {
                    self.refill_session()
                }
                Kind::DashboardBatch5k => self.refill_dashboard(),
                Kind::DurableEvict20k => self.refill_durable(),
            }
        }
    }

    /// Open a session, place every view, close it.
    fn refill_session(&mut self) {
        let slot = self.open_slot();
        self.queue.push_back(Step::Create { slot });
        for (index, view) in self.gen.views(slot).into_iter().enumerate() {
            self.queue.push_back(Step::Viz {
                slot,
                index,
                view,
                timed: true,
            });
        }
        self.queue.push_back(Step::Close { slot });
    }

    /// First call: open and prime the long-lived sessions. Afterwards:
    /// one batch — per session 6 gauges, a policy swap (γ alternating
    /// 100/101 by batch, so the swap is never a no-op) and a transcript.
    /// No further tests run, so every session's state stays as primed.
    fn refill_dashboard(&mut self) {
        if self.opened == 0 {
            for _ in 0..DASHBOARD_SESSIONS {
                let slot = self.open_slot();
                self.queue.push_back(Step::Create { slot });
                for (index, view) in self.gen.views(slot).into_iter().enumerate() {
                    self.queue.push_back(Step::Viz {
                        slot,
                        index,
                        view,
                        timed: false,
                    });
                }
            }
            return;
        }
        let gamma = dashboard_gamma(self.batches);
        let mut items = Vec::with_capacity(BATCH_ITEMS);
        for s in 0..DASHBOARD_SESSIONS {
            let slot = self.first_slot + s;
            items.extend(std::iter::repeat_n((slot, Item::Gauge), 6));
            items.push((slot, Item::SetPolicy { gamma }));
            items.push((slot, Item::TranscriptCsv));
        }
        self.queue.push_back(Step::Batch {
            serial: self.batches,
            items,
        });
        self.batches += 1;
    }

    /// First call: open 96 sessions and age the one at position `p` by
    /// `p % 48` untimed tests — 2 256 synchronous snapshot writes — so
    /// ledger lengths are spread over 0..48. Afterwards:
    /// visit the sessions round-robin with one timed `gauge` each. With 96
    /// sessions over a 32-session cap every visit finds its session
    /// spilled: the server reads its image back, re-validates the whole
    /// ledger, renders, and evicts another session.
    ///
    /// The timed op reads and the writes are priming because fsync here
    /// is not steady: on this box the same seed gave a median
    /// `add_visualization` of 1.7 to 3.7 ms from one run to the next
    /// (disk latency drifting ±20 % within a minute), which no regression bound
    /// the benchmark may declare could hold.
    fn refill_durable(&mut self) {
        if self.positions.is_empty() {
            for p in 0..DURABLE_SESSIONS as usize {
                let slot = self.open_slot();
                self.queue.push_back(Step::Create { slot });
                let age = p % self.gen.spec.session_views;
                for (index, view) in self.gen.views(slot).into_iter().take(age).enumerate() {
                    self.queue.push_back(Step::Viz {
                        slot,
                        index,
                        view,
                        timed: false,
                    });
                }
                self.positions.push(slot);
            }
            return;
        }
        let slot = self.positions[self.cursor];
        self.cursor = (self.cursor + 1) % self.positions.len();
        self.queue.push_back(Step::Batch {
            serial: self.batches,
            items: vec![(slot, Item::Gauge)],
        });
        self.batches += 1;
    }
}

/// γ that batch `serial` installs; gauges of batch `serial` still see
/// the γ of the batch before (100 at creation).
pub fn dashboard_gamma(serial: u64) -> f64 {
    if serial.is_multiple_of(2) {
        101.0
    } else {
        100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers;
    use std::collections::HashSet;

    /// The first `n` steps of a script as the bytes the reference
    /// client would frame them in (slots standing in for session ids).
    fn stream_bytes(kind_name: &str, seed: u64, first_slot: u64, n: usize) -> Vec<u8> {
        let gen = Generator::new(spec(kind_name).unwrap(), seed);
        let mut script = Script::from_slot(&gen, first_slot);
        let mut out = Vec::new();
        for id in 0..n as u64 {
            let cmds = crate::run::commands_of(&script.next_step(), gen.spec.gamma, |slot| slot);
            out.extend(layers::wire_encode_envelope(&layers::envelope(id, &cmds)));
        }
        out
    }

    #[test]
    fn same_seed_gives_byte_identical_streams_and_other_seeds_differ() {
        for spec in SPECS {
            let a = stream_bytes(spec.name, 7, 0, 300);
            assert_eq!(a, stream_bytes(spec.name, 7, 0, 300), "{}", spec.name);
            assert_ne!(a, stream_bytes(spec.name, 8, 0, 300), "{}", spec.name);
            assert_ne!(a, stream_bytes(spec.name, 7, 1 << 32, 300), "{}", spec.name);
        }
    }

    #[test]
    fn cold_scan_predicates_never_repeat() {
        let gen = Generator::new(spec("cold_scan_1m").unwrap(), 11);
        let mut seen = HashSet::new();
        for first_slot in [0, 1 << 32] {
            let mut script = Script::from_slot(&gen, first_slot);
            for _ in 0..5_000 {
                if let Step::Viz { view, .. } = script.next_step() {
                    let FilterSpec::And(clauses) = &view.filter else {
                        panic!("cold views are conjunctions");
                    };
                    for clause in clauses.iter().chain([&view.filter]) {
                        assert!(seen.insert(format!("{clause:?}")), "repeated {clause:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn chain_steps_extend_their_prefix() {
        let gen = Generator::new(spec("shared_drill_100k").unwrap(), 3);
        for chain in 0..CHAINS {
            let mut columns = HashSet::new();
            for step in 1..CHAIN_STEPS {
                let FilterSpec::And(now) = gen.chain_filter(chain, step) else {
                    panic!("steps past the first are conjunctions");
                };
                assert_eq!(now.len(), step + 1);
                match gen.chain_filter(chain, step - 1) {
                    FilterSpec::And(before) => assert_eq!(before[..], now[..step]),
                    single => assert_eq!(single, now[0]),
                }
                columns.insert(
                    format!("{:?}", now[step])
                        .split('"')
                        .nth(1)
                        .map(String::from),
                );
            }
            assert!(columns.len() >= 7, "chain {chain} narrows too few columns");
        }
    }

    #[test]
    fn zipf_favours_the_first_chains() {
        let gen = Generator::new(spec("shared_drill_100k").unwrap(), 5);
        let mut hits = [0u32; CHAINS];
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..40_000 {
            hits[gen.zipf_chain(rng.gen::<f64>())] += 1;
        }
        // Zipf(1) over 32: rank 1 draws 1/H(32) ≈ 24.6 %, rank 2 half that.
        let share = |rank: usize| hits[rank - 1] as f64 / 40_000.0;
        assert!((share(1) - 0.246).abs() < 0.02, "{}", share(1));
        assert!((share(2) - 0.123).abs() < 0.02, "{}", share(2));
        assert!(hits.iter().all(|&h| h > 0));
        assert_eq!(gen.zipf_chain(0.999_999_9), CHAINS - 1);
    }

    #[test]
    fn durable_script_staggers_ledgers_then_only_reads() {
        let gen = Generator::new(spec("durable_evict_20k").unwrap(), 2);
        let mut script = Script::new(&gen);
        let mut ages: Vec<(u64, usize)> = Vec::new();
        let mut step = script.next_step();
        while !step.is_timed() {
            match step {
                Step::Create { slot } => {
                    assert_eq!(slot, ages.len() as u64);
                    ages.push((slot, 0));
                }
                Step::Viz { slot, index, .. } => {
                    let last = ages.last_mut().unwrap();
                    assert_eq!((last.0, last.1), (slot, index), "views arrive in order");
                    last.1 += 1;
                }
                other => panic!("unexpected priming step {other:?}"),
            }
            step = script.next_step();
        }
        let lengths: Vec<usize> = ages.iter().map(|(_, age)| *age).collect();
        assert_eq!(lengths, (0..48).chain(0..48).collect::<Vec<_>>());
        // Two laps of reads, every session once per lap, in order.
        for lap in 0..2u64 {
            for (p, (slot, _)) in ages.iter().enumerate() {
                assert_eq!(
                    step,
                    Step::Batch {
                        serial: lap * 96 + p as u64,
                        items: vec![(*slot, Item::Gauge)]
                    }
                );
                step = script.next_step();
            }
        }
    }

    #[test]
    fn one_slot_in_n_is_an_oracle_slot() {
        for spec in SPECS {
            for seed in [1, 2, 9] {
                let gen = Generator::new(spec, seed);
                let slots = 10 * spec.oracle_one_in;
                let picked = (0..slots).filter(|&slot| gen.is_oracle(slot)).count() as u64;
                assert_eq!(picked, 10, "{}", spec.name);
            }
        }
    }
}
