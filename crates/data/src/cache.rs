//! Shared per-dataset evaluation cache.
//!
//! Interactive exploration is redundant by construction: Eve's step-N
//! filter is her step-N−1 filter plus one clause (Fig. 1 of the paper),
//! a thousand concurrent sessions explore the *same* census, and every
//! rule-2 test compares against the *same* global histogram. The control
//! cost of multiple-hypothesis tracking is unavoidable (Hardt & Ullman
//! 2014); the data cost is not. This module memoizes everything that is
//! invariant for one immutable table:
//!
//! * **selection bitmaps**, keyed by a canonical predicate fingerprint
//!   (`And`/`Or` flattened, deduplicated, and order-normalized, double
//!   negation collapsed) so `B ∧ A` hits the entry `A ∧ B` created;
//! * **incremental chain evaluation**: on a miss, `A∧B∧C` is computed as
//!   `cached(A∧B) ∧ eval(C)` — each step of a growing filter chain pays
//!   one clause, not the whole conjunction, and every prefix is left
//!   warm for the next step. What a miss stores is the prefixes: `A`,
//!   `A∧B` and `A∧B∧C`, not `B` or `C` alone. A later clause that is
//!   already resident is used, but one that is not is evaluated into the
//!   bitmap that becomes the next prefix, so a cold n-clause chain
//!   allocates n bitmaps, not 2n − 1;
//! * **negations** are never stored: `¬p` is served as `not()` of the
//!   cached positive (the paper's dashed inverted-selection link);
//! * **per-attribute invariants**: the global histogram, its bucket
//!   proportions (what `chi_square_gof` consumes on every rule-2 call),
//!   and the full-column numeric min/max that bin edges derive from.
//!   The heaviest invariant of all, the partition of the rows into the
//!   attribute's buckets, lives one level down: the column's bucket
//!   index on the [`Table`] itself (see [`crate::hist`]), where uncached
//!   sessions find it too. The global histogram and the bounds memoized
//!   here are read from that index.
//!
//! The bitmap cache is lock-striped (fingerprint hash → stripe) and
//! LRU-bounded per stripe, so a long exploration cannot grow it without
//! bound and concurrent sessions contend only when they hash together.
//! The cache holds no reference to its table; pair one cache with one
//! immutable [`Table`] (the serving layer stores them side by side) —
//! feeding tables of different row counts through one cache panics on
//! the bitmap length assertions downstream.
//!
//! Everything served from the cache is **bit-identical** to a cold
//! evaluation: bitmaps are exact, and invariants are computed by the
//! same kernels in the same order, so downstream p-values match
//! byte-for-byte (the equivalence property suite enforces this).

use crate::bitmap::Bitmap;
use crate::column::ColumnType;
use crate::hash::fnv1a;
use crate::hist::{
    categorical_histogram, numeric_bounds, numeric_histogram_with_bounds, Histogram,
    DEFAULT_NUMERIC_BINS,
};
use crate::predicate::Predicate;
use crate::table::Table;
use crate::value::Value;
use crate::Result;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Canonical fingerprint of a predicate: a structural encoding that is
/// invariant under conjunction/disjunction order, nesting, duplication,
/// and double negation, plus a precomputed 64-bit hash for striping.
/// Equality compares the full encoding, so hash collisions can never
/// alias two different selections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    hash: u64,
    bytes: Box<[u8]>,
}

impl std::hash::Hash for Fingerprint {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl Fingerprint {
    /// Fingerprints one predicate.
    pub fn of(pred: &Predicate) -> Fingerprint {
        Fingerprint::from_bytes(canonical(pred))
    }

    /// Fingerprints the conjunction (or disjunction) of a clause slice —
    /// how chain evaluation names the prefix `A∧B` of `A∧B∧C` without
    /// cloning predicates into a temporary `Predicate::And`.
    fn of_parts(parts: &[Predicate], conjunctive: bool) -> Fingerprint {
        Fingerprint::from_bytes(canonical_parts(parts, conjunctive))
    }

    fn from_bytes(bytes: Vec<u8>) -> Fingerprint {
        Fingerprint {
            hash: fnv1a(&bytes),
            bytes: bytes.into_boxed_slice(),
        }
    }

    /// The precomputed structural hash (used for stripe selection).
    pub fn hash(&self) -> u64 {
        self.hash
    }
}

// Canonical encoding tags. `TAG_TRUE` doubles as the encoding of an
// empty (or fully elided) conjunction.
const TAG_TRUE: u8 = 0;
const TAG_CMP: u8 = 1;
const TAG_IN: u8 = 2;
const TAG_BETWEEN: u8 = 3;
const TAG_NOT: u8 = 4;
const TAG_AND: u8 = 5;
const TAG_OR: u8 = 6;

fn push_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn push_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Int(i) => {
            out.push(0);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(x) => {
            out.push(1);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Bool(b) => {
            out.push(2);
            out.push(*b as u8);
        }
        Value::Str(s) => {
            out.push(3);
            push_str(out, s);
        }
    }
}

/// Canonical bytes of one predicate.
fn canonical(pred: &Predicate) -> Vec<u8> {
    match pred {
        Predicate::True => vec![TAG_TRUE],
        Predicate::Cmp { column, op, value } => {
            let mut out = vec![TAG_CMP, *op as u8];
            push_str(&mut out, column);
            push_value(&mut out, value);
            out
        }
        Predicate::In { column, values } => {
            // Set membership is a disjunction of equalities: sort and dedupe
            // the listed values so `{a,b}` and `{b,a,b}` share an entry.
            let mut encoded: Vec<Vec<u8>> = values
                .iter()
                .map(|v| {
                    let mut one = Vec::new();
                    push_value(&mut one, v);
                    one
                })
                .collect();
            encoded.sort_unstable();
            encoded.dedup();
            let mut out = vec![TAG_IN];
            push_str(&mut out, column);
            out.extend_from_slice(&(encoded.len() as u32).to_le_bytes());
            for one in encoded {
                out.extend_from_slice(&one);
            }
            out
        }
        Predicate::Between { column, lo, hi } => {
            let mut out = vec![TAG_BETWEEN];
            push_str(&mut out, column);
            out.extend_from_slice(&lo.to_bits().to_le_bytes());
            out.extend_from_slice(&hi.to_bits().to_le_bytes());
            out
        }
        Predicate::Not(inner) => {
            // Collapse ¬¬p structurally.
            let mut node: &Predicate = inner;
            let mut negated = true;
            while let Predicate::Not(next) = node {
                node = next;
                negated = !negated;
            }
            let inner_bytes = canonical(node);
            if negated {
                let mut out = vec![TAG_NOT];
                out.extend_from_slice(&inner_bytes);
                out
            } else {
                inner_bytes
            }
        }
        Predicate::And(parts) => canonical_parts(parts, true),
        Predicate::Or(parts) => canonical_parts(parts, false),
    }
}

/// Canonical bytes of a conjunction (`conjunctive`) or disjunction of
/// `parts`: flatten same-kind nesting, drop conjunction identities
/// (`True`), sort children by their encodings, dedupe.
fn canonical_parts(parts: &[Predicate], conjunctive: bool) -> Vec<u8> {
    let mut children: Vec<Vec<u8>> = Vec::with_capacity(parts.len());
    collect_children(parts, conjunctive, &mut children);
    children.sort_unstable();
    children.dedup();
    match children.len() {
        0 if conjunctive => vec![TAG_TRUE], // empty conjunction ≡ ⊤
        1 => children.pop().expect("one child"),
        n => {
            let mut out = vec![if conjunctive { TAG_AND } else { TAG_OR }];
            out.extend_from_slice(&(n as u32).to_le_bytes());
            for child in children {
                out.extend_from_slice(&child);
            }
            out
        }
    }
}

fn collect_children(parts: &[Predicate], conjunctive: bool, out: &mut Vec<Vec<u8>>) {
    for p in parts {
        match p {
            Predicate::And(inner) if conjunctive => collect_children(inner, true, out),
            Predicate::Or(inner) if !conjunctive => collect_children(inner, false, out),
            Predicate::True if conjunctive => {} // ⊤ is the ∧ identity
            other => {
                let bytes = canonical(other);
                // A nested node may itself canonicalize to ⊤ (e.g.
                // `And([])`): still the identity.
                if !(conjunctive && bytes == [TAG_TRUE]) {
                    out.push(bytes);
                }
            }
        }
    }
}

/// Memoized full-table facts about one attribute — everything a rule-2
/// goodness-of-fit test needs that does not depend on the selection.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnInvariants {
    /// The unfiltered histogram (dictionary buckets, or
    /// [`DEFAULT_NUMERIC_BINS`] fixed-width bins for numeric columns).
    pub histogram: Histogram,
    /// `histogram.proportions()`, precomputed once.
    pub proportions: Vec<f64>,
    /// Full-column `(min, max)` for numeric columns (bin edges derive
    /// from it); `None` for categorical/bool columns.
    pub bounds: Option<(f64, f64)>,
}

/// Point-in-time cache counters, surfaced through the serving layer's
/// `stats` command.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Probes answered from the cache.
    pub hits: u64,
    /// Probes that had to evaluate.
    pub misses: u64,
    /// Selection bitmaps currently resident.
    pub selections: u64,
    /// Attribute invariant sets currently resident.
    pub invariants: u64,
}

/// A selection as [`EvalCache::resolve`] found it.
enum Resolved {
    /// Resident in the cache (or just stored by a nested chain).
    Shared(Arc<Bitmap>),
    /// Evaluated by this call and owned by it. The fingerprint names a
    /// missed clause that may be stored; ⊤ and negations carry none.
    Fresh(Bitmap, Option<Fingerprint>),
}

struct Entry {
    bitmap: Arc<Bitmap>,
    last_used: u64,
}

#[derive(Default)]
struct Stripe {
    map: HashMap<Fingerprint, Entry>,
    tick: u64,
}

/// The shared per-dataset evaluation cache. One instance pairs with one
/// immutable [`Table`]; clone the `Arc` into every session exploring
/// that dataset.
pub struct EvalCache {
    stripes: Vec<Mutex<Stripe>>,
    per_stripe_capacity: usize,
    invariants: RwLock<HashMap<String, Arc<ColumnInvariants>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for EvalCache {
    fn default() -> Self {
        EvalCache::new()
    }
}

/// Default bound on resident selection bitmaps. Generous for a single
/// session (hundreds of exploration steps) while keeping worst-case
/// memory modest: 1024 bitmaps over a 1M-row table ≈ 128 MiB, over the
/// 5k-row bench census ≈ 640 KiB.
pub const DEFAULT_SELECTION_CAPACITY: usize = 1024;

/// Default stripe count: enough that the connection threads and reactor
/// dispatchers probing one dataset's cache at once rarely wait on the
/// same mutex, small enough that per-stripe LRU stays meaningful.
pub const DEFAULT_STRIPES: usize = 16;

impl EvalCache {
    /// A cache with default capacity and striping.
    pub fn new() -> EvalCache {
        EvalCache::with_capacity(DEFAULT_SELECTION_CAPACITY, DEFAULT_STRIPES)
    }

    /// A cache bounded to roughly `capacity` selection bitmaps across
    /// `stripes` lock stripes (each stripe holds `capacity / stripes`,
    /// rounded up, evicting its least-recently-used entry beyond that).
    pub fn with_capacity(capacity: usize, stripes: usize) -> EvalCache {
        let stripes = stripes.clamp(1, capacity.max(1));
        EvalCache {
            per_stripe_capacity: capacity.div_ceil(stripes).max(1),
            stripes: (0..stripes)
                .map(|_| Mutex::new(Stripe::default()))
                .collect(),
            invariants: RwLock::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Evaluates `pred` over `table`, serving and feeding the cache.
    ///
    /// The returned bitmap is bit-identical to `pred.eval(table)`; the
    /// only difference is where the bits came from.
    pub fn selection(&self, table: &Table, pred: &Predicate) -> Result<Arc<Bitmap>> {
        match self.resolve(table, pred)? {
            Resolved::Shared(bitmap) => Ok(bitmap),
            Resolved::Fresh(bitmap, Some(fp)) => self.store(fp, bitmap),
            Resolved::Fresh(bitmap, None) => Ok(Arc::new(bitmap)),
        }
    }

    /// `pred`'s bitmap with every probe [`EvalCache::selection`] makes,
    /// leaving the store of a missed clause to the caller.
    fn resolve(&self, table: &Table, pred: &Predicate) -> Result<Resolved> {
        Ok(match pred {
            // ⊤ is cheaper to rebuild than to look up.
            Predicate::True => Resolved::Fresh(Bitmap::ones(table.rows()), None),
            // ¬p: not() of the cached positive, never stored.
            Predicate::Not(inner) => Resolved::Fresh(self.selection(table, inner)?.not(), None),
            Predicate::And(parts) if parts.len() >= 2 => {
                Resolved::Shared(self.chain(table, parts, true)?)
            }
            Predicate::Or(parts) if parts.len() >= 2 => {
                Resolved::Shared(self.chain(table, parts, false)?)
            }
            other => {
                let fp = Fingerprint::of(other);
                match self.lookup(&fp) {
                    Some(hit) => Resolved::Shared(hit),
                    None => Resolved::Fresh(other.eval(table)?, Some(fp)),
                }
            }
        })
    }

    /// Chain evaluation of an n-ary conjunction/disjunction: find the
    /// longest cached prefix, then extend it one clause at a time,
    /// storing every prefix (the first clause is prefix 1) but no later
    /// clause. Cold cost equals the naive fold; warm cost is one
    /// word-level combine per *new* clause.
    fn chain(&self, table: &Table, parts: &[Predicate], conjunctive: bool) -> Result<Arc<Bitmap>> {
        let full = Fingerprint::of_parts(parts, conjunctive);
        if let Some(hit) = self.lookup(&full) {
            return Ok(hit);
        }
        let n = parts.len();
        let mut acc = self.selection(table, &parts[0])?;
        for k in 2..n {
            let fp = Fingerprint::of_parts(&parts[..k], conjunctive);
            if let Some(hit) = self.lookup(&fp) {
                acc = hit;
                continue;
            }
            acc = self.store(fp, self.extend(table, &acc, &parts[k - 1], conjunctive)?)?;
        }
        // Final clause: the full fingerprint already missed above, so
        // extend and store without re-probing.
        self.store(full, self.extend(table, &acc, &parts[n - 1], conjunctive)?)
    }

    /// `prefix ∧ clause` (or `∨`) as a new bitmap; a clause that is not
    /// resident is not stored.
    fn extend(
        &self,
        table: &Table,
        prefix: &Bitmap,
        clause: &Predicate,
        conjunctive: bool,
    ) -> Result<Bitmap> {
        Ok(match self.resolve(table, clause)? {
            Resolved::Shared(clause) if conjunctive => prefix.and(&clause),
            Resolved::Shared(clause) => prefix.or(&clause),
            Resolved::Fresh(mut own, _) => {
                if conjunctive {
                    own.and_assign(prefix);
                } else {
                    own.or_assign(prefix);
                }
                own
            }
        })
    }

    /// The memoized full-table invariants of one attribute.
    pub fn invariants(&self, table: &Table, attribute: &str) -> Result<Arc<ColumnInvariants>> {
        if let Some(hit) = self.invariants.read().unwrap().get(attribute) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(hit.clone());
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let computed = Arc::new(compute_invariants(table, attribute)?);
        let mut map = self.invariants.write().unwrap();
        // A racing computation may have landed first; keep the incumbent
        // so every consumer shares one allocation.
        Ok(map.entry(attribute.to_owned()).or_insert(computed).clone())
    }

    /// Just the hit/miss counters, read from plain atomics — no stripe
    /// or invariants locks. This is what a `stats` poll should use:
    /// [`EvalCache::stats`] additionally reports occupancy, which costs
    /// one lock per stripe and briefly contends with the hot path.
    pub fn counters(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Counter and occupancy snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            selections: self
                .stripes
                .iter()
                .map(|s| s.lock().unwrap().map.len() as u64)
                .sum(),
            invariants: self.invariants.read().unwrap().len() as u64,
        }
    }

    // -- internals ---------------------------------------------------------

    fn stripe(&self, fp: &Fingerprint) -> &Mutex<Stripe> {
        &self.stripes[(fp.hash() as usize) % self.stripes.len()]
    }

    fn lookup(&self, fp: &Fingerprint) -> Option<Arc<Bitmap>> {
        let mut stripe = self.stripe(fp).lock().unwrap();
        stripe.tick += 1;
        let tick = stripe.tick;
        match stripe.map.get_mut(fp) {
            Some(entry) => {
                entry.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry.bitmap.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn store(&self, fp: Fingerprint, bitmap: Bitmap) -> Result<Arc<Bitmap>> {
        let arc = Arc::new(bitmap);
        let mut stripe = self.stripe(&fp).lock().unwrap();
        stripe.tick += 1;
        let tick = stripe.tick;
        stripe.map.insert(
            fp,
            Entry {
                bitmap: arc.clone(),
                last_used: tick,
            },
        );
        if stripe.map.len() > self.per_stripe_capacity {
            // LRU eviction: stripes are small (capacity/stripes), so a
            // linear scan for the oldest entry beats maintaining an
            // ordered side structure on every touch.
            if let Some(oldest) = stripe
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                stripe.map.remove(&oldest);
            }
        }
        Ok(arc)
    }
}

fn compute_invariants(table: &Table, attribute: &str) -> Result<ColumnInvariants> {
    let (histogram, bounds) = match table.column_type(attribute)? {
        ColumnType::Int64 | ColumnType::Float64 => {
            let bounds = numeric_bounds(table, attribute)?;
            let h = numeric_histogram_with_bounds(
                table,
                attribute,
                None,
                DEFAULT_NUMERIC_BINS,
                bounds,
            )?;
            (h, Some(bounds))
        }
        _ => (categorical_histogram(table, attribute, None)?, None),
    };
    let proportions = histogram.proportions();
    Ok(ColumnInvariants {
        histogram,
        proportions,
        bounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::hist::numeric_histogram;
    use crate::predicate::CmpOp;
    use crate::table::TableBuilder;

    fn demo() -> Table {
        TableBuilder::new()
            .push("age", Column::Int64(vec![25, 40, 31, 60, 18, 45, 33, 52]))
            .push(
                "edu",
                Column::categorical_from_strs(&[
                    "HS", "PhD", "HS", "Master", "PhD", "HS", "Master", "HS",
                ]),
            )
            .push(
                "rich",
                Column::Bool(vec![false, true, false, true, false, true, false, true]),
            )
            .build()
            .unwrap()
    }

    fn eq(col: &str, v: &str) -> Predicate {
        Predicate::eq(col, v)
    }

    #[test]
    fn fingerprints_normalize_order_nesting_and_duplicates() {
        let a = eq("edu", "PhD");
        let b = Predicate::eq("rich", true);
        let c = Predicate::between("age", 30.0, 50.0);
        let ab_c = Predicate::And(vec![a.clone(), b.clone(), c.clone()]);
        let cba = Predicate::And(vec![c.clone(), b.clone(), a.clone()]);
        let nested = Predicate::And(vec![Predicate::And(vec![c.clone(), a.clone()]), b.clone()]);
        let duped = Predicate::And(vec![a.clone(), b.clone(), c.clone(), a.clone()]);
        let with_true = Predicate::And(vec![a.clone(), Predicate::True, b.clone(), c.clone()]);
        let fp = Fingerprint::of(&ab_c);
        assert_eq!(fp, Fingerprint::of(&cba));
        assert_eq!(fp, Fingerprint::of(&nested));
        assert_eq!(fp, Fingerprint::of(&duped));
        assert_eq!(fp, Fingerprint::of(&with_true));
        // Or sorts too, but never equals the And.
        assert_eq!(
            Fingerprint::of(&Predicate::Or(vec![a.clone(), b.clone()])),
            Fingerprint::of(&Predicate::Or(vec![b.clone(), a.clone()]))
        );
        assert_ne!(
            Fingerprint::of(&Predicate::Or(vec![a.clone(), b.clone()])),
            Fingerprint::of(&Predicate::And(vec![a.clone(), b.clone()]))
        );
        // Single-element combinators collapse to their element.
        assert_eq!(
            Fingerprint::of(&Predicate::And(vec![a.clone()])),
            Fingerprint::of(&a)
        );
        // Double negation collapses; single negation does not.
        let not_a = a.clone().negate();
        assert_eq!(
            Fingerprint::of(&Predicate::Not(Box::new(not_a.clone()))),
            Fingerprint::of(&a)
        );
        assert_ne!(Fingerprint::of(&not_a), Fingerprint::of(&a));
        // In is order/duplication-insensitive.
        let in1 = Predicate::In {
            column: "edu".into(),
            values: vec![Value::from("HS"), Value::from("PhD")],
        };
        let in2 = Predicate::In {
            column: "edu".into(),
            values: vec![Value::from("PhD"), Value::from("HS"), Value::from("PhD")],
        };
        assert_eq!(Fingerprint::of(&in1), Fingerprint::of(&in2));
        // Empty conjunction is ⊤.
        assert_eq!(
            Fingerprint::of(&Predicate::And(vec![])),
            Fingerprint::of(&Predicate::True)
        );
    }

    #[test]
    fn selection_hits_after_miss_and_matches_eval() {
        let t = demo();
        let cache = EvalCache::new();
        let p = eq("edu", "HS").and(Predicate::eq("rich", true));
        let cold = cache.selection(&t, &p).unwrap();
        assert_eq!(*cold, p.eval(&t).unwrap());
        let stats = cache.stats();
        assert_eq!(stats.hits, 0);
        assert!(stats.misses > 0);
        let warm = cache.selection(&t, &p).unwrap();
        assert_eq!(cold, warm);
        assert!(cache.stats().hits >= 1);
        // Same clauses, different order: still a hit.
        let reordered = Predicate::eq("rich", true).and(eq("edu", "HS"));
        let hits_before = cache.stats().hits;
        let same = cache.selection(&t, &reordered).unwrap();
        assert_eq!(*same, p.eval(&t).unwrap());
        assert!(cache.stats().hits > hits_before);
    }

    #[test]
    fn chain_extension_reuses_the_prefix() {
        let t = demo();
        let cache = EvalCache::new();
        let step1 = eq("edu", "HS");
        let step2 = step1.clone().and(Predicate::eq("rich", true));
        let step3 = step2.clone().and(Predicate::between("age", 20.0, 60.0));
        cache.selection(&t, &step1).unwrap();
        cache.selection(&t, &step2).unwrap();
        let misses_before = cache.stats().misses;
        let sel = cache.selection(&t, &step3).unwrap();
        assert_eq!(*sel, step3.eval(&t).unwrap());
        // Step 3 paid: one full-chain probe miss, one prefix hit, one
        // new-clause miss — never a re-evaluation of the prefix clauses.
        let stats = cache.stats();
        assert!(
            stats.misses - misses_before <= 2,
            "chain re-evaluated its prefix: {stats:?}"
        );
    }

    #[test]
    fn a_chain_miss_stores_its_prefixes_not_its_clauses() {
        let t = demo();
        let cache = EvalCache::new();
        let a = eq("edu", "HS");
        let b = Predicate::eq("rich", true);
        let c = Predicate::between("age", 20.0, 60.0);
        let abc = Predicate::And(vec![a.clone(), b.clone(), c.clone()]);
        assert_eq!(*cache.selection(&t, &abc).unwrap(), abc.eval(&t).unwrap());
        // Probed: A∧B∧C, A, A∧B, B, C. Resident: A, A∧B, A∧B∧C.
        assert_eq!(cache.counters(), (0, 5));
        assert_eq!(cache.stats().selections, 3);
        let ab = Predicate::And(vec![a.clone(), b.clone()]);
        for prefix in [&a, &ab, &abc] {
            cache.selection(&t, prefix).unwrap();
        }
        assert_eq!(cache.counters(), (3, 5), "every prefix hits");
        // The second clause alone was never stored; this probe stores it.
        let b_alone = cache.selection(&t, &b).unwrap();
        assert_eq!(cache.counters(), (3, 6));
        assert_eq!(cache.stats().selections, 4);

        // A resident later clause is used as is, not stored again.
        let phd_b = Predicate::And(vec![eq("edu", "PhD"), b.clone()]);
        assert_eq!(
            *cache.selection(&t, &phd_b).unwrap(),
            phd_b.eval(&t).unwrap()
        );
        assert_eq!(cache.counters(), (4, 8), "probed PhD∧B, PhD, B (hit)");
        assert_eq!(cache.stats().selections, 6, "added PhD and PhD∧B");
        assert!(Arc::ptr_eq(&b_alone, &cache.selection(&t, &b).unwrap()));

        // Drill-down chains that grow, repeat, reorder and negate probe
        // exactly as they would if every clause were stored (10 hits, 10
        // misses). Only a clause reused alone, or first in another chain,
        // after it was a later clause probes differently, as B did above.
        let cache = EvalCache::new();
        let d = Predicate::cmp("age", CmpOp::Ge, Value::Int(30));
        let not_phd = eq("edu", "PhD").negate();
        let chains = [
            abc.clone(),
            a.clone(),
            ab.clone(),
            Predicate::And(vec![a.clone(), b.clone(), c.clone(), d.clone()]),
            Predicate::And(vec![c.clone(), b.clone(), a.clone()]),
            Predicate::And(vec![a.clone(), b.clone(), not_phd.clone()]),
            Predicate::Or(vec![a.clone(), not_phd.clone()]),
        ];
        for chain in &chains {
            assert_eq!(
                *cache.selection(&t, chain).unwrap(),
                chain.eval(&t).unwrap()
            );
        }
        assert_eq!(cache.counters(), (10, 10));
    }

    #[test]
    fn negation_is_derived_not_stored() {
        let t = demo();
        let cache = EvalCache::new();
        let p = eq("edu", "PhD");
        let negated = p.clone().negate();
        let n1 = cache.selection(&t, &negated).unwrap();
        assert_eq!(*n1, negated.eval(&t).unwrap());
        // Only the positive is resident; the negative was derived.
        assert_eq!(cache.stats().selections, 1);
        // And the positive is warm now.
        let hits = cache.stats().hits;
        cache.selection(&t, &p).unwrap();
        assert!(cache.stats().hits > hits);
    }

    #[test]
    fn lru_eviction_bounds_residency() {
        let t = demo();
        let cache = EvalCache::with_capacity(4, 1);
        for lo in 0..20 {
            let p = Predicate::between("age", lo as f64, 99.0);
            cache.selection(&t, &p).unwrap();
        }
        assert!(cache.stats().selections <= 4);
        // Still correct after eviction churn.
        let p = Predicate::between("age", 3.0, 99.0);
        assert_eq!(*cache.selection(&t, &p).unwrap(), p.eval(&t).unwrap());
    }

    #[test]
    fn invariants_match_direct_computation() {
        let t = demo();
        let cache = EvalCache::new();
        let inv = cache.invariants(&t, "age").unwrap();
        let direct = numeric_histogram(&t, "age", None, DEFAULT_NUMERIC_BINS).unwrap();
        assert_eq!(inv.histogram, direct);
        assert_eq!(inv.proportions, direct.proportions());
        assert_eq!(inv.bounds, Some((18.0, 60.0)));
        let inv2 = cache.invariants(&t, "age").unwrap();
        assert!(Arc::ptr_eq(&inv, &inv2), "second lookup shares the Arc");
        let edu = cache.invariants(&t, "edu").unwrap();
        assert_eq!(
            edu.histogram,
            categorical_histogram(&t, "edu", None).unwrap()
        );
        assert_eq!(edu.bounds, None);
        assert_eq!(cache.stats().invariants, 2);
        // Errors are not cached.
        assert!(cache.invariants(&t, "ghost").is_err());
        assert_eq!(cache.stats().invariants, 2);
    }

    #[test]
    fn errors_propagate_and_are_never_cached() {
        let t = demo();
        let cache = EvalCache::new();
        let bad = Predicate::cmp("edu", CmpOp::Lt, Value::from("HS"));
        assert!(cache.selection(&t, &bad).is_err());
        assert_eq!(cache.stats().selections, 0);
        // A chain fails on its bad clause and caches only the good prefix.
        let chain = eq("edu", "HS").and(bad.clone());
        assert!(cache.selection(&t, &chain).is_err());
        assert_eq!(cache.stats().selections, 1);
    }
}

#[cfg(test)]
mod equivalence {
    use super::*;
    use crate::predicate::{arbitrary, arbitrary::Gen, reference};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Cold, warm, and incrementally-extended cache paths all agree
        /// with the scalar reference — on bitmaps and on errors — under
        /// random tables × random ASTs, including LRU-eviction churn
        /// from a deliberately tiny cache.
        #[test]
        fn cached_eval_matches_scalar_reference(
            seed in 0u64..u64::MAX,
            rows in 0usize..200,
        ) {
            let mut g = Gen(seed);
            let table = arbitrary::table(&mut g, rows);
            let small = EvalCache::with_capacity(8, 2);
            let big = EvalCache::new();
            for _ in 0..4 {
                let pred = arbitrary::predicate(&mut g, 3);
                let oracle = reference::eval(&pred, &table);
                for cache in [&small, &big] {
                    // Twice: the second pass exercises the warm path.
                    for pass in 0..2 {
                        match (cache.selection(&table, &pred), &oracle) {
                            (Ok(got), Ok(want)) => prop_assert_eq!(
                                &*got, want, "pass {} diverged on {}", pass, &pred
                            ),
                            (Err(got), Err(want)) => prop_assert_eq!(
                                &got, want, "pass {} error diverged on {}", pass, &pred
                            ),
                            (got, _) => prop_assert!(
                                false, "pass {} Ok/Err mismatch on {}: {:?}", pass, &pred, got
                            ),
                        }
                    }
                }
                // Growing-chain extension (the Eve workload shape).
                let extended = pred.clone().and(arbitrary::predicate(&mut g, 1));
                let oracle = reference::eval(&extended, &table);
                match (big.selection(&table, &extended), oracle) {
                    (Ok(got), Ok(want)) => prop_assert_eq!(&*got, &want),
                    (Err(got), Err(want)) => prop_assert_eq!(got, want),
                    (got, want) => prop_assert!(false, "chain mismatch: {:?} vs {:?}", got, want),
                }
            }
        }
    }
}
