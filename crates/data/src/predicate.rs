//! Filter predicates — the AST behind a chain of linked visualizations.
//!
//! In the paper's Figure 1, Eve drags out "salary > 50k", then "education =
//! PhD", then "marital-status ≠ Married"; each step is one [`Predicate`] and
//! the chain is their conjunction. The dashed-line "inverted selection" of
//! step C is [`Predicate::Not`]. Predicates render to compact strings
//! (`salary_over_50k=true ∧ education=PhD`) which the hypothesis tracker
//! uses as human-readable labels in the risk gauge.

use crate::bitmap::Bitmap;
use crate::column::Column;
use crate::table::Table;
use crate::value::Value;
use crate::{DataError, Result};

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Neq,
    /// Less than (numeric only).
    Lt,
    /// Less or equal (numeric only).
    Le,
    /// Greater than (numeric only).
    Gt,
    /// Greater or equal (numeric only).
    Ge,
}

impl CmpOp {
    #[cfg(test)]
    pub(crate) const ALL: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Neq,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];

    fn symbol(&self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Neq => "≠",
            CmpOp::Lt => "<",
            CmpOp::Le => "≤",
            CmpOp::Gt => ">",
            CmpOp::Ge => "≥",
        }
    }
}

/// A filter over table rows.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Matches every row (the empty filter chain).
    True,
    /// Column-vs-literal comparison.
    Cmp {
        /// Column name.
        column: String,
        /// Operator.
        op: CmpOp,
        /// Literal to compare against.
        value: Value,
    },
    /// Column value is one of the listed literals.
    In {
        /// Column name.
        column: String,
        /// Accepted values.
        values: Vec<Value>,
    },
    /// Numeric column in the inclusive range `[lo, hi]` — a histogram
    /// brush selection.
    Between {
        /// Column name.
        column: String,
        /// Lower bound (inclusive).
        lo: f64,
        /// Upper bound (inclusive).
        hi: f64,
    },
    /// Logical negation (the paper's dashed "inverted selection" link).
    Not(Box<Predicate>),
    /// Conjunction of sub-filters (a chain of linked visualizations).
    And(Vec<Predicate>),
    /// Disjunction of sub-filters.
    Or(Vec<Predicate>),
}

impl Predicate {
    /// Convenience constructor for a comparison.
    pub fn cmp(column: impl Into<String>, op: CmpOp, value: Value) -> Predicate {
        Predicate::Cmp {
            column: column.into(),
            op,
            value,
        }
    }

    /// Convenience constructor for equality — the most common filter.
    pub fn eq(column: impl Into<String>, value: impl Into<Value>) -> Predicate {
        Predicate::cmp(column, CmpOp::Eq, value.into())
    }

    /// Convenience constructor for a numeric brush.
    pub fn between(column: impl Into<String>, lo: f64, hi: f64) -> Predicate {
        Predicate::Between {
            column: column.into(),
            lo,
            hi,
        }
    }

    /// Negates this predicate.
    pub fn negate(self) -> Predicate {
        match self {
            Predicate::Not(inner) => *inner, // ¬¬p = p
            other => Predicate::Not(Box::new(other)),
        }
    }

    /// Conjoins another predicate onto this one, flattening nested `And`s.
    ///
    /// Every arm is O(1) amortized (the old `p ∧ And(b)` case shifted the
    /// whole vector to keep written order); conjunction is commutative
    /// and the evaluation cache orders clauses canonically at fingerprint
    /// time, so clause order is cosmetic.
    pub fn and(self, other: Predicate) -> Predicate {
        match (self, other) {
            (Predicate::True, p) | (p, Predicate::True) => p,
            (Predicate::And(mut a), Predicate::And(b)) => {
                a.extend(b);
                Predicate::And(a)
            }
            (Predicate::And(mut a), p) | (p, Predicate::And(mut a)) => {
                a.push(p);
                Predicate::And(a)
            }
            (a, b) => Predicate::And(vec![a, b]),
        }
    }

    /// True when this is the empty filter.
    pub fn is_trivial(&self) -> bool {
        matches!(self, Predicate::True)
    }

    /// Evaluates the predicate to a selection bitmap over `table`.
    ///
    /// Leaves are index-first. Equality and membership over dictionary
    /// and bool columns are an OR (or complement) of the column's
    /// bucket-index bitmaps; every comparison, `Between` and `In` over a
    /// numeric column is a word-parallel compare over its rank
    /// bit-slices. No row is read either way. Only a column without an
    /// index — a dictionary of too many labels, a numeric column of too
    /// many distinct values or with a `NaN`/`±inf` cell — runs the
    /// word-packed scan: 64 rows fold into one `u64` per inner-loop trip
    /// with no `Vec<bool>` intermediate, and `In` scans once against a
    /// membership set. Both kernels give the bits of the `f64`
    /// comparison (`Int64` cells as `x as f64`): a `NaN` literal matches
    /// nothing (everything under `≠`), `-0.0` equals `0.0`, `±inf`
    /// literals order as usual. Boolean combinators stay word-at-a-time
    /// on the packed bitmaps.
    pub fn eval(&self, table: &Table) -> Result<Bitmap> {
        let rows = table.rows();
        match self {
            Predicate::True => Ok(Bitmap::ones(rows)),
            Predicate::Cmp { column, op, value } => eval_cmp(table, column, *op, value),
            Predicate::In { column, values } => eval_in(table, column, values),
            Predicate::Between { column, lo, hi } => {
                let (lo, hi) = (*lo, *hi);
                let at = table.column_index(column)?;
                if let Some(ranks) = table.rank_slices(at) {
                    return Ok(ranks.between(lo, hi));
                }
                match table.column_at(at) {
                    Column::Int64(v) => Ok(pack(v, |x| {
                        let x = x as f64;
                        x >= lo && x <= hi
                    })),
                    Column::Float64(v) => Ok(pack(v, |x| x >= lo && x <= hi)),
                    other => Err(DataError::TypeMismatch {
                        column: column.clone(),
                        expected: "numeric (int64/float64)",
                        actual: other.column_type().name(),
                    }),
                }
            }
            Predicate::Not(inner) => Ok(inner.eval(table)?.not()),
            // Seeded from the first clause's bitmap; an empty list is
            // the combinator's identity.
            Predicate::And(parts) => {
                let mut parts = parts.iter();
                let Some(first) = parts.next() else {
                    return Ok(Bitmap::ones(rows));
                };
                let mut acc = first.eval(table)?;
                for p in parts {
                    acc.and_assign(&p.eval(table)?);
                }
                Ok(acc)
            }
            Predicate::Or(parts) => {
                let mut parts = parts.iter();
                let Some(first) = parts.next() else {
                    return Ok(Bitmap::zeros(rows));
                };
                let mut acc = first.eval(table)?;
                for p in parts {
                    acc.or_assign(&p.eval(table)?);
                }
                Ok(acc)
            }
        }
    }
}

/// Packs `pred(vals[i])` into a bitmap 64 rows per word. `chunks(64)`
/// keeps the inner loop bounds-check-free so simple predicates
/// auto-vectorize.
#[inline]
fn pack<T: Copy>(vals: &[T], pred: impl Fn(T) -> bool) -> Bitmap {
    let words = vals
        .chunks(64)
        .map(|chunk| {
            let mut w = 0u64;
            for (i, &v) in chunk.iter().enumerate() {
                w |= (pred(v) as u64) << i;
            }
            w
        })
        .collect();
    Bitmap::from_words(words, vals.len())
}

/// Comparison kernel over a numeric slice: the operator is matched once,
/// outside the scan, so each arm is a tight branch-free loop.
#[inline]
fn pack_cmp<T: Copy>(vals: &[T], op: CmpOp, rhs: f64, conv: impl Fn(T) -> f64) -> Bitmap {
    match op {
        CmpOp::Eq => pack(vals, |x| conv(x) == rhs),
        CmpOp::Neq => pack(vals, |x| conv(x) != rhs),
        CmpOp::Lt => pack(vals, |x| conv(x) < rhs),
        CmpOp::Le => pack(vals, |x| conv(x) <= rhs),
        CmpOp::Gt => pack(vals, |x| conv(x) > rhs),
        CmpOp::Ge => pack(vals, |x| conv(x) >= rhs),
    }
}

/// `Eq` → `false`, `Neq` → `true`: the only comparisons dictionary and
/// bool columns support.
fn negated(op: CmpOp, constraint: &'static str) -> Result<bool> {
    match op {
        CmpOp::Eq => Ok(false),
        CmpOp::Neq => Ok(true),
        _ => Err(DataError::InvalidArgument {
            context: "Predicate::eval",
            constraint,
        }),
    }
}

fn eval_cmp(table: &Table, column: &str, op: CmpOp, value: &Value) -> Result<Bitmap> {
    let at = table.column_index(column)?;
    let col = table.column_at(at);
    let mismatch = || DataError::TypeMismatch {
        column: column.to_owned(),
        expected: value.type_name(),
        actual: col.column_type().name(),
    };
    // Only a numeric column has rank slices, and they answer every
    // comparison over it; one without them is scanned below.
    if let Some(ranks) = table.rank_slices(at) {
        return Ok(ranks.cmp(op, value.as_f64().ok_or_else(mismatch)?));
    }
    match col {
        Column::Int64(v) => {
            let rhs = value.as_f64().ok_or_else(mismatch)?;
            Ok(pack_cmp(v, op, rhs, |x| x as f64))
        }
        Column::Float64(v) => {
            let rhs = value.as_f64().ok_or_else(mismatch)?;
            Ok(pack_cmp(v, op, rhs, |x| x))
        }
        // Dictionary and bool equality is a bucket of the column's
        // index (or its complement), not a scan.
        Column::Bool(_) => {
            let rhs = value.as_bool().ok_or_else(mismatch)?;
            let negate = negated(op, "bool columns support only =/≠")?;
            let index = table
                .bucket_index(at)?
                .expect("bool columns are always indexed");
            Ok(index.bucket((rhs != negate) as usize).clone())
        }
        Column::Categorical { labels, codes } => {
            let rhs = value.as_str().ok_or_else(mismatch)?;
            let negate = negated(op, "categorical columns support only =/≠")?;
            let Some(target) = labels.iter().position(|l| l == rhs) else {
                // An unknown label equals no row and differs from all.
                return Ok(if negate {
                    Bitmap::ones(codes.len())
                } else {
                    Bitmap::zeros(codes.len())
                });
            };
            Ok(match table.bucket_index(at)? {
                Some(index) if negate => index.bucket(target).not(),
                Some(index) => index.bucket(target).clone(),
                // A dictionary too large to index is scanned.
                None => {
                    let code = target as u32;
                    pack(codes, |c| (c == code) != negate)
                }
            })
        }
    }
}

/// Set-membership kernel. Dictionary and bool columns OR the listed
/// buckets of the column's index, numeric columns the listed values'
/// rank equalities; a column without an index scans once against a
/// pre-resolved value set.
fn eval_in(table: &Table, column: &str, values: &[Value]) -> Result<Bitmap> {
    let at = table.column_index(column)?;
    let col = table.column_at(at);
    let mismatch = |value: &Value| DataError::TypeMismatch {
        column: column.to_owned(),
        expected: value.type_name(),
        actual: col.column_type().name(),
    };
    if let Some(ranks) = table.rank_slices(at) {
        return Ok(ranks.member_of(&numeric_set(column, col, values)?.0));
    }
    match col {
        Column::Int64(v) => {
            let set = numeric_set(column, col, values)?;
            Ok(pack(v, |x| set.contains_value(x as f64)))
        }
        Column::Float64(v) => {
            let set = numeric_set(column, col, values)?;
            Ok(pack(v, |x| set.contains_value(x)))
        }
        Column::Bool(_) => {
            // member[0] ⇔ `false` is listed, member[1] ⇔ `true` is listed.
            let mut member = [false; 2];
            for value in values {
                let rhs = value.as_bool().ok_or_else(|| mismatch(value))?;
                member[rhs as usize] = true;
            }
            let index = table
                .bucket_index(at)?
                .expect("bool columns are always indexed");
            Ok(index.union(&member))
        }
        Column::Categorical { labels, codes } => {
            // One flag per dictionary code.
            let mut member = vec![false; labels.len()];
            for value in values {
                let rhs = value.as_str().ok_or_else(|| mismatch(value))?;
                if let Some(i) = labels.iter().position(|l| l == rhs) {
                    member[i] = true;
                }
            }
            Ok(match table.bucket_index(at)? {
                Some(index) => index.union(&member),
                None => pack(codes, |c| member[c as usize]),
            })
        }
    }
}

/// The resolved numeric membership set of an `In` predicate. Kept as a
/// plain slice scanned with `==` (not a sorted/bitwise structure) so
/// `-0.0`/`0.0` and every other IEEE equality edge matches the scalar
/// semantics exactly; listed values are few.
struct NumericSet(Vec<f64>);

impl NumericSet {
    #[inline]
    fn contains_value(&self, x: f64) -> bool {
        self.0.contains(&x)
    }
}

fn numeric_set(column: &str, col: &Column, values: &[Value]) -> Result<NumericSet> {
    let mut set = Vec::with_capacity(values.len());
    for value in values {
        let rhs = value.as_f64().ok_or_else(|| DataError::TypeMismatch {
            column: column.to_owned(),
            expected: value.type_name(),
            actual: col.column_type().name(),
        })?;
        if !set.contains(&rhs) {
            set.push(rhs);
        }
    }
    Ok(NumericSet(set))
}

impl std::fmt::Display for Predicate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Predicate::True => write!(f, "⊤"),
            Predicate::Cmp { column, op, value } => {
                write!(f, "{column}{}{value}", op.symbol())
            }
            Predicate::In { column, values } => {
                write!(f, "{column}∈{{")?;
                for (i, v) in values.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "}}")
            }
            Predicate::Between { column, lo, hi } => write!(f, "{column}∈[{lo},{hi}]"),
            Predicate::Not(inner) => write!(f, "¬({inner})"),
            Predicate::And(parts) => {
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ∧ ")?;
                    }
                    write!(f, "{p}")?;
                }
                Ok(())
            }
            Predicate::Or(parts) => {
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ∨ ")?;
                    }
                    write!(f, "({p})")?;
                }
                Ok(())
            }
        }
    }
}

/// The scalar reference evaluator: row-at-a-time, bit-at-a-time, no
/// word packing anywhere. It exists solely as the oracle for the
/// equivalence property suite — the vectorized kernels must produce
/// bit-identical bitmaps (and identical errors) on every input.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// Scalar comparison, one row at a time.
    fn eval_f64(op: CmpOp, a: f64, b: f64) -> bool {
        match op {
            CmpOp::Eq => a == b,
            CmpOp::Neq => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }

    pub fn eval(pred: &Predicate, table: &Table) -> Result<Bitmap> {
        let rows = table.rows();
        match pred {
            Predicate::True => {
                let mut b = Bitmap::zeros(rows);
                for i in 0..rows {
                    b.set(i);
                }
                Ok(b)
            }
            Predicate::Cmp { column, op, value } => scalar_cmp(table, column, *op, value),
            Predicate::In { column, values } => {
                table.column(column)?;
                let mut acc = Bitmap::zeros(rows);
                for v in values {
                    let one = scalar_cmp(table, column, CmpOp::Eq, v)?;
                    for i in 0..rows {
                        if one.get(i) {
                            acc.set(i);
                        }
                    }
                }
                Ok(acc)
            }
            Predicate::Between { column, lo, hi } => {
                let col = table.column(column)?;
                match col {
                    Column::Int64(_) | Column::Float64(_) => {
                        let mut b = Bitmap::zeros(rows);
                        for i in 0..rows {
                            let x = col.numeric_at(i).expect("numeric column");
                            if x >= *lo && x <= *hi {
                                b.set(i);
                            }
                        }
                        Ok(b)
                    }
                    other => Err(DataError::TypeMismatch {
                        column: column.clone(),
                        expected: "numeric (int64/float64)",
                        actual: other.column_type().name(),
                    }),
                }
            }
            Predicate::Not(inner) => {
                let pos = eval(inner, table)?;
                let mut b = Bitmap::zeros(rows);
                for i in 0..rows {
                    if !pos.get(i) {
                        b.set(i);
                    }
                }
                Ok(b)
            }
            Predicate::And(parts) => {
                let mut acc = eval(&Predicate::True, table)?;
                for p in parts {
                    let one = eval(p, table)?;
                    for i in 0..rows {
                        if !one.get(i) {
                            acc.clear(i);
                        }
                    }
                }
                Ok(acc)
            }
            Predicate::Or(parts) => {
                let mut acc = Bitmap::zeros(rows);
                for p in parts {
                    let one = eval(p, table)?;
                    for i in 0..rows {
                        if one.get(i) {
                            acc.set(i);
                        }
                    }
                }
                Ok(acc)
            }
        }
    }

    fn scalar_cmp(table: &Table, column: &str, op: CmpOp, value: &Value) -> Result<Bitmap> {
        let col = table.column(column)?;
        let mismatch = || DataError::TypeMismatch {
            column: column.to_owned(),
            expected: value.type_name(),
            actual: col.column_type().name(),
        };
        let rows = col.len();
        let mut b = Bitmap::zeros(rows);
        match col {
            Column::Int64(v) => {
                let rhs = value.as_f64().ok_or_else(mismatch)?;
                for (i, &x) in v.iter().enumerate() {
                    if eval_f64(op, x as f64, rhs) {
                        b.set(i);
                    }
                }
            }
            Column::Float64(v) => {
                let rhs = value.as_f64().ok_or_else(mismatch)?;
                for (i, &x) in v.iter().enumerate() {
                    if eval_f64(op, x, rhs) {
                        b.set(i);
                    }
                }
            }
            Column::Bool(v) => {
                let rhs = value.as_bool().ok_or_else(mismatch)?;
                for (i, &x) in v.iter().enumerate() {
                    let hit = match op {
                        CmpOp::Eq => x == rhs,
                        CmpOp::Neq => x != rhs,
                        _ => {
                            return Err(DataError::InvalidArgument {
                                context: "Predicate::eval",
                                constraint: "bool columns support only =/≠",
                            })
                        }
                    };
                    if hit {
                        b.set(i);
                    }
                }
            }
            Column::Categorical { labels, codes } => {
                let rhs = value.as_str().ok_or_else(mismatch)?;
                let target = labels.iter().position(|l| l == rhs).map(|i| i as u32);
                for (i, &c) in codes.iter().enumerate() {
                    let hit = match (op, target) {
                        (CmpOp::Eq, Some(t)) => c == t,
                        (CmpOp::Eq, None) => false,
                        (CmpOp::Neq, Some(t)) => c != t,
                        (CmpOp::Neq, None) => true,
                        _ => {
                            return Err(DataError::InvalidArgument {
                                context: "Predicate::eval",
                                constraint: "categorical columns support only =/≠",
                            })
                        }
                    };
                    if hit {
                        b.set(i);
                    }
                }
            }
        }
        Ok(b)
    }
}

/// Deterministic generators for random tables and predicate ASTs, shared
/// by the equivalence suites here and in [`crate::cache`].
#[cfg(test)]
pub(crate) mod arbitrary {
    use super::*;
    use crate::column::Column;
    use crate::table::TableBuilder;

    /// Splitmix-style generator, independent of the workspace RNG so the
    /// case corpus is a pure function of the drawn seed.
    pub struct Gen(pub u64);

    impl Gen {
        pub fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        }

        pub fn pick(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    pub const LABELS: [&str; 4] = ["a", "b", "c", "d"];
    pub const FLOATS: [f64; 5] = [-1.5, 0.0, 2.5, 7.25, 64.0];
    /// Literals no finite column holds: unordered, beyond every cell on
    /// either side, and the other zero.
    pub const EDGES: [f64; 6] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, -1e9, 1e9];
    pub const COLUMNS: [&str; 8] = ["i", "f", "m", "n", "b", "c", "w", "ghost"];
    /// Distinct values of `m`: enough for 7 rank slices.
    pub const MANY: usize = 100;
    /// Labels of the wide dictionary `w`: too many for a bucket index,
    /// so its leaves take the scan kernels.
    pub const WIDE_LABELS: usize = 40;

    /// The `k`-th value of `m`'s grid, `-10.0, -9.5, … 39.5`; `0.0` is
    /// on it.
    fn many(k: usize) -> f64 {
        k as f64 * 0.5 - 10.0
    }

    /// A small table over one column of each type (plus adversarial
    /// lengths: 0, tail-word, multi-word row counts all occur). `m` has
    /// [`MANY`] distinct values and both zeros; `n` is `f` with
    /// non-finite cells, which no index covers.
    pub fn table(g: &mut Gen, rows: usize) -> Table {
        let ints: Vec<i64> = (0..rows).map(|_| g.pick(6) as i64 - 2).collect();
        let floats: Vec<f64> = (0..rows).map(|_| FLOATS[g.pick(FLOATS.len())]).collect();
        let many: Vec<f64> = (0..rows)
            .map(|_| match many(g.pick(MANY)) {
                zero if zero == 0.0 && g.pick(2) == 0 => -0.0,
                v => v,
            })
            .collect();
        let wild: Vec<f64> = (0..rows)
            .map(|_| match g.pick(8) {
                0 => EDGES[g.pick(3)],
                _ => FLOATS[g.pick(FLOATS.len())],
            })
            .collect();
        let bools: Vec<bool> = (0..rows).map(|_| g.pick(2) == 0).collect();
        let cats: Vec<&str> = (0..rows).map(|_| LABELS[g.pick(LABELS.len())]).collect();
        // `w` starts with `LABELS`, so drawn string literals hit it too.
        let wide_labels = (0..WIDE_LABELS)
            .map(|l| LABELS.get(l).map_or(format!("w{l}"), |s| s.to_string()))
            .collect();
        let wide = (0..rows).map(|_| g.pick(WIDE_LABELS) as u32).collect();
        TableBuilder::new()
            .push("i", Column::Int64(ints))
            .push("f", Column::Float64(floats))
            .push("m", Column::Float64(many))
            .push("n", Column::Float64(wild))
            .push("b", Column::Bool(bools))
            .push("c", Column::categorical_from_strs(&cats))
            .push("w", Column::categorical_from_codes(wide_labels, wide))
            .build()
            .expect("generated table is well-formed")
    }

    /// A numeric literal: a cell value of `f` or `m`, a value strictly
    /// between two of `m`'s, or an [`EDGES`] one.
    pub fn float(g: &mut Gen) -> f64 {
        match g.pick(4) {
            0 => FLOATS[g.pick(FLOATS.len())],
            1 => many(g.pick(MANY)),
            2 => many(g.pick(MANY)) + 0.25,
            _ => EDGES[g.pick(EDGES.len())],
        }
    }

    pub fn value(g: &mut Gen) -> Value {
        match g.pick(5) {
            0 => Value::Int(g.pick(6) as i64 - 2),
            1 | 2 => Value::Float(float(g)),
            3 => Value::Bool(g.pick(2) == 0),
            // "zz" is never a column label: exercises the unknown-label
            // arms of the categorical kernels.
            _ => Value::Str(["a", "b", "c", "d", "zz"][g.pick(5)].into()),
        }
    }

    pub fn predicate(g: &mut Gen, depth: usize) -> Predicate {
        let ops = CmpOp::ALL;
        // Leaves only at the depth floor; combinators otherwise.
        let variant = if depth == 0 { g.pick(10) } else { g.pick(16) };
        match variant {
            0..=5 => Predicate::Cmp {
                column: COLUMNS[g.pick(COLUMNS.len())].into(),
                op: ops[g.pick(ops.len())],
                value: value(g),
            },
            6 | 7 => {
                let column = COLUMNS[g.pick(COLUMNS.len())].into();
                let k = g.pick(4);
                Predicate::In {
                    column,
                    values: (0..k).map(|_| value(g)).collect(),
                }
            }
            // Bounds in drawn order: `lo > hi` and `lo == hi` occur.
            8 => Predicate::Between {
                column: COLUMNS[g.pick(COLUMNS.len())].into(),
                lo: float(g),
                hi: float(g),
            },
            9 => Predicate::True,
            10 => Predicate::Not(Box::new(predicate(g, depth - 1))),
            11..=13 => {
                let k = g.pick(4);
                Predicate::And((0..k).map(|_| predicate(g, depth - 1)).collect())
            }
            _ => {
                let k = g.pick(4);
                Predicate::Or((0..k).map(|_| predicate(g, depth - 1)).collect())
            }
        }
    }
}

#[cfg(test)]
mod equivalence {
    use super::arbitrary::Gen;
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The kernels agree with the scalar reference on every random
        /// table × random AST — bit-identical bitmaps on success,
        /// identical errors on failure — whether a leaf is the first
        /// use of its column's index (`cold`: a fresh table per
        /// predicate) or finds every index already built (`warm`). One
        /// case in eight has thousands of rows, so the rank-slice
        /// kernels run several blocks and a ragged last one.
        #[test]
        fn vectorized_eval_matches_scalar_reference(
            seed in 0u64..u64::MAX,
            rows in (0usize..200, 0usize..8)
                .prop_map(|(rows, pick)| if pick == 0 { 100 * rows + 257 } else { rows }),
        ) {
            let mut g = Gen(seed);
            let warm = super::arbitrary::table(&mut g, rows);
            for at in 0..warm.num_columns() {
                // `n`'s is the cached error of its first non-finite cell.
                let built = warm.bucket_index(at);
                prop_assert!(built.is_ok() || warm.column_names()[at] == "n");
            }
            for (column, sliced) in [("i", true), ("f", true), ("m", true), ("c", false)] {
                let at = warm.column_index(column).expect("generated column");
                prop_assert_eq!(warm.rank_slices(at).is_some(), sliced, "slices of {}", column);
            }
            let names: Vec<&str> = warm.column_names().iter().map(String::as_str).collect();
            for _ in 0..4 {
                let pred = super::arbitrary::predicate(&mut g, 3);
                let cold = warm.project(&names).expect("same columns");
                prop_assert_eq!(cold.index_bytes(), 0);
                let slow = reference::eval(&pred, &warm);
                prop_assert_eq!(pred.eval(&cold), slow.clone(), "cold diverged on {}", &pred);
                prop_assert_eq!(pred.eval(&warm), slow, "warm diverged on {}", &pred);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::table::TableBuilder;

    fn demo() -> Table {
        TableBuilder::new()
            .push("age", Column::Int64(vec![25, 40, 31, 60, 18]))
            .push(
                "salary",
                Column::Float64(vec![30.0, 80.0, 55.0, 20.0, 10.0]),
            )
            .push(
                "education",
                Column::categorical_from_strs(&["HS", "PhD", "Master", "HS", "Bachelor"]),
            )
            .push(
                "over_50k",
                Column::Bool(vec![false, true, true, false, false]),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn numeric_comparisons() {
        let t = demo();
        let sel = Predicate::cmp("age", CmpOp::Ge, Value::from(31i64))
            .eval(&t)
            .unwrap();
        assert_eq!(sel.iter_ones().collect::<Vec<_>>(), vec![1, 2, 3]);
        let sel = Predicate::cmp("salary", CmpOp::Lt, Value::from(30.0))
            .eval(&t)
            .unwrap();
        assert_eq!(sel.iter_ones().collect::<Vec<_>>(), vec![3, 4]);
        // Int column compared against float literal coerces.
        let sel = Predicate::cmp("age", CmpOp::Eq, Value::from(40.0))
            .eval(&t)
            .unwrap();
        assert_eq!(sel.count_ones(), 1);
    }

    #[test]
    fn categorical_and_bool_comparisons() {
        let t = demo();
        let sel = Predicate::eq("education", "HS").eval(&t).unwrap();
        assert_eq!(sel.iter_ones().collect::<Vec<_>>(), vec![0, 3]);
        let sel = Predicate::cmp("education", CmpOp::Neq, Value::from("HS"))
            .eval(&t)
            .unwrap();
        assert_eq!(sel.iter_ones().collect::<Vec<_>>(), vec![1, 2, 4]);
        // Unknown label: = matches nothing, ≠ matches everything.
        assert_eq!(
            Predicate::eq("education", "Kindergarten")
                .eval(&t)
                .unwrap()
                .count_ones(),
            0
        );
        assert_eq!(
            Predicate::cmp("education", CmpOp::Neq, Value::from("Kindergarten"))
                .eval(&t)
                .unwrap()
                .count_ones(),
            5
        );
        let sel = Predicate::eq("over_50k", true).eval(&t).unwrap();
        assert_eq!(sel.iter_ones().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn type_errors_are_reported() {
        let t = demo();
        assert!(matches!(
            Predicate::eq("education", 5i64).eval(&t),
            Err(DataError::TypeMismatch { .. })
        ));
        assert!(matches!(
            Predicate::cmp("over_50k", CmpOp::Lt, Value::from(true)).eval(&t),
            Err(DataError::InvalidArgument { .. })
        ));
        assert!(matches!(
            Predicate::cmp("education", CmpOp::Gt, Value::from("HS")).eval(&t),
            Err(DataError::InvalidArgument { .. })
        ));
        assert!(Predicate::eq("ghost", 1i64).eval(&t).is_err());
        assert!(matches!(
            Predicate::between("education", 0.0, 1.0).eval(&t),
            Err(DataError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn in_on_unknown_column_errors_even_with_no_values() {
        // Intentional change with the single-scan membership kernel:
        // the column is resolved before the value list is consulted, so
        // an unknown column is always an error. (The old per-value scan
        // returned Ok(zeros) for an empty list because it never touched
        // the column; at the session layer both shapes were Untestable.)
        let t = demo();
        let empty_in = Predicate::In {
            column: "ghost".into(),
            values: vec![],
        };
        assert!(matches!(
            empty_in.eval(&t),
            Err(DataError::UnknownColumn { .. })
        ));
        // On a known column, an empty list still selects nothing.
        let none = Predicate::In {
            column: "education".into(),
            values: vec![],
        };
        assert_eq!(none.eval(&t).unwrap().count_ones(), 0);
    }

    #[test]
    fn between_and_in() {
        let t = demo();
        let sel = Predicate::between("age", 20.0, 40.0).eval(&t).unwrap();
        assert_eq!(sel.iter_ones().collect::<Vec<_>>(), vec![0, 1, 2]);
        let sel = Predicate::In {
            column: "education".into(),
            values: vec![Value::from("PhD"), Value::from("Master")],
        }
        .eval(&t)
        .unwrap();
        assert_eq!(sel.iter_ones().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn logical_composition() {
        let t = demo();
        let phd_or_hs = Predicate::Or(vec![
            Predicate::eq("education", "PhD"),
            Predicate::eq("education", "HS"),
        ]);
        assert_eq!(phd_or_hs.eval(&t).unwrap().count_ones(), 3);

        let young_high = Predicate::cmp("age", CmpOp::Lt, Value::from(45i64))
            .and(Predicate::eq("over_50k", true));
        assert_eq!(
            young_high.eval(&t).unwrap().iter_ones().collect::<Vec<_>>(),
            vec![1, 2]
        );

        let not_that = young_high.clone().negate();
        assert_eq!(not_that.eval(&t).unwrap().count_ones(), 3);
        // Double negation restores the predicate structurally.
        assert_eq!(not_that.negate(), young_high);
    }

    #[test]
    fn and_flattening_and_true_elision() {
        let a = Predicate::eq("education", "PhD");
        let b = Predicate::eq("over_50k", true);
        let c = Predicate::between("age", 30.0, 50.0);
        let chained = a.clone().and(b.clone()).and(c.clone());
        match &chained {
            Predicate::And(parts) => assert_eq!(parts.len(), 3),
            other => panic!("expected flattened And, got {other:?}"),
        }
        assert_eq!(Predicate::True.and(a.clone()), a);
        assert_eq!(a.clone().and(Predicate::True), a);
        assert!(Predicate::True.is_trivial());
        assert!(!a.is_trivial());
    }

    #[test]
    fn display_renders_chains() {
        let p = Predicate::eq("education", "PhD").and(Predicate::eq("marital", "Married").negate());
        assert_eq!(p.to_string(), "education=PhD ∧ ¬(marital=Married)");
        let q = Predicate::between("age", 18.0, 65.0);
        assert_eq!(q.to_string(), "age∈[18,65]");
        let r = Predicate::In {
            column: "edu".into(),
            values: vec![Value::from("HS"), Value::from("PhD")],
        };
        assert_eq!(r.to_string(), "edu∈{HS,PhD}");
        assert_eq!(Predicate::True.to_string(), "⊤");
    }

    /// Every numeric leaf shape over `column` against each of
    /// `literals`, checked against the scalar reference.
    fn assert_numeric_leaves_match_reference(t: &Table, column: &str, literals: &[Value]) {
        let mut preds = vec![Predicate::In {
            column: column.into(),
            values: literals.to_vec(),
        }];
        for a in literals {
            preds.extend(CmpOp::ALL.map(|op| Predicate::cmp(column, op, a.clone())));
            for b in literals {
                let (lo, hi) = (a.as_f64().unwrap(), b.as_f64().unwrap());
                preds.push(Predicate::between(column, lo, hi));
            }
        }
        for pred in preds {
            let got = pred.eval(t);
            assert!(got.is_ok(), "{pred} is not an error: {got:?}");
            assert_eq!(got, reference::eval(&pred, t), "{pred}");
        }
    }

    #[test]
    fn a_non_finite_column_keeps_the_scan_and_never_errors() {
        let cells = [
            1.0,
            f64::NAN,
            2.5,
            f64::INFINITY,
            -3.0,
            f64::NEG_INFINITY,
            2.5,
        ];
        let t = TableBuilder::new()
            .push("x", Column::Float64(cells.repeat(19)))
            .build()
            .unwrap();
        let literals = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            2.5,
            0.0,
            -3.0,
            7.0,
        ]
        .map(Value::Float);
        assert_numeric_leaves_match_reference(&t, "x", &literals);
        // A histogram caches the index's `NonFinite`; the leaves still
        // scan past it.
        assert!(matches!(
            crate::hist::histogram(&t, "x", None),
            Err(DataError::NonFinite { .. })
        ));
        assert_numeric_leaves_match_reference(&t, "x", &literals);
        assert_eq!(t.index_bytes(), 0);
    }

    #[test]
    fn the_65_537th_distinct_value_leaves_the_column_to_the_scan() {
        let literals = [-1.0, 0.0, 100.5, 65_535.0, 65_536.0, 1e9].map(Value::Float);
        let bins_only =
            |rows: usize| crate::hist::DEFAULT_NUMERIC_BINS * (rows.div_ceil(64) * 8 + 8);
        for (rows, sliced) in [(65_536usize, true), (65_537, false)] {
            let t = TableBuilder::new()
                .push("x", Column::Float64((0..rows).map(|i| i as f64).collect()))
                .build()
                .unwrap();
            assert_numeric_leaves_match_reference(&t, "x", &literals);
            // The column's bins are indexed either way; 16 slices and
            // the values themselves only under the rule.
            let ranks = if sliced { 16 * rows / 8 + rows * 8 } else { 0 };
            assert_eq!(t.index_bytes(), bins_only(rows) + ranks, "{rows} rows");
        }
    }

    #[test]
    fn int_cells_that_round_to_one_f64_share_a_rank() {
        const BIG: i64 = 1 << 53;
        let cells = vec![
            BIG,
            BIG + 1,
            BIG + 2,
            -BIG - 1,
            -BIG,
            i64::MAX,
            i64::MIN,
            0,
            BIG - 1,
        ];
        let t = TableBuilder::new()
            .push("x", Column::Int64(cells.repeat(15)))
            .build()
            .unwrap();
        let mut literals = [BIG, BIG + 1, BIG + 2, -BIG - 1, i64::MAX, i64::MIN, 0].map(Value::Int);
        literals[6] = Value::Float(BIG as f64);
        assert_numeric_leaves_match_reference(&t, "x", &literals);
        // 2⁵³ and 2⁵³ + 1 are one `f64`: one rank, so `=` selects both.
        let sel = Predicate::eq("x", BIG + 1).eval(&t).unwrap();
        assert_eq!(sel.count_ones(), 2 * 15);
        assert!(t.index_bytes() > 0);
    }

    #[test]
    fn a_failing_later_clause_fails_the_combinator() {
        let t = demo();
        let good = Predicate::eq("over_50k", true);
        let bad = Predicate::eq("ghost", 1i64);
        for parts in [vec![good.clone(), bad.clone()], vec![bad, good]] {
            assert!(Predicate::And(parts.clone()).eval(&t).is_err());
            assert!(Predicate::Or(parts).eval(&t).is_err());
        }
    }

    #[test]
    fn conjunction_of_empty_parts_is_all_rows() {
        let t = demo();
        assert_eq!(Predicate::And(vec![]).eval(&t).unwrap().count_ones(), 5);
        assert_eq!(Predicate::Or(vec![]).eval(&t).unwrap().count_ones(), 0);
        assert_eq!(Predicate::True.eval(&t).unwrap().count_ones(), 5);
    }
}
