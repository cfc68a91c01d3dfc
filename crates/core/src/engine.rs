//! Executes a hypothesis' statistical test against the data engine.
//!
//! This is the bridge between `NullSpec` (what question is being asked)
//! and `aware-stats` (how the p-value is computed):
//!
//! * rule-2 hypotheses run a χ² goodness-of-fit of the filtered histogram
//!   against the whole-dataset proportions;
//! * rule-3 hypotheses run a χ² independence test on the stacked 2×k
//!   histogram counts of the two linked selections;
//! * mean-equality overrides run a Welch t-test on the numeric attribute
//!   under the two filters.
//!
//! Numeric attributes are histogrammed with the same fixed-width bins for
//! every selection (bin edges derive from the full column), so the χ²
//! bucket universes always align.

use crate::hypothesis::{NullSpec, ShiftMethod};
use crate::Result;
use aware_data::bitmap::Bitmap;
use aware_data::cache::EvalCache;
use aware_data::column::ColumnType;
use aware_data::hist::{
    categorical_histogram, contingency_rows, histogram, numeric_histogram_with_bounds, Histogram,
    DEFAULT_NUMERIC_BINS,
};
use aware_data::predicate::Predicate;
use aware_data::table::Table;
use aware_stats::exact::fisher_exact;
use aware_stats::nonparametric::{ks_two_sample, mann_whitney_u};
use aware_stats::tests::{
    chi_square_gof, chi_square_independence, welch_t_test, Alternative, TestOutcome,
};
use std::sync::Arc;

/// Below this minimum expected cell count on a 2×2 table, the χ²
/// approximation is replaced by Fisher's exact test — the classical
/// "expected ≥ 5" rule. Small tables are exactly where interactive
/// exploration of filtered sub-populations ends up (§5.7's motivation).
pub const FISHER_EXPECTED_THRESHOLD: f64 = 5.0;

/// Result of executing a hypothesis' test: the statistical outcome plus
/// the support fraction `|j|/|n|` the ψ-support rule consumes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Execution {
    /// The statistical test outcome.
    pub outcome: TestOutcome,
    /// Rows involved in the test divided by total table rows, in (0, 1].
    pub support_fraction: f64,
}

/// Runs the test described by `spec` against `table`.
///
/// `cache` is the dataset's shared [`EvalCache`]: selections come from
/// (and feed) the fingerprint-keyed bitmap cache, and full-table
/// invariants — global histograms, bucket proportions, numeric bin
/// bounds — are memoized instead of rescanned. Passing `None` evaluates
/// everything cold; both paths are bit-identical by construction (and by
/// the equivalence property suites).
///
/// Errors (insufficient data, empty selections, zero variance) propagate
/// so the session can mark the hypothesis `Untestable` *without* spending
/// any α-wealth.
pub fn execute(table: &Table, spec: &NullSpec, cache: Option<&EvalCache>) -> Result<Execution> {
    match spec {
        NullSpec::NoFilterEffect { attribute, filter } => {
            let selection = eval_selection(table, filter, cache)?;
            // The χ² reference distribution is a per-dataset invariant:
            // the global bucket proportions of the attribute. One cache
            // probe serves both the proportions and the bin bounds.
            let (inv, global);
            let (bounds, proportions) = match cache {
                Some(c) => {
                    inv = c.invariants(table, attribute)?;
                    (inv.bounds, &inv.proportions)
                }
                None => {
                    global = histogram(table, attribute, None)?.proportions();
                    (histogram_bounds(table, attribute, cache)?, &global)
                }
            };
            let filtered = select_histogram(table, attribute, &selection, bounds)?;
            let outcome = chi_square_gof(&filtered.counts(), proportions)?;
            Ok(Execution {
                outcome,
                support_fraction: fraction(selected(&filtered), table.rows()),
            })
        }
        NullSpec::NoDistributionDifference {
            attribute,
            filter_a,
            filter_b,
        } => {
            let sel_a = eval_selection(table, filter_a, cache)?;
            let sel_b = eval_selection(table, filter_b, cache)?;
            // Bin bounds are resolved once for both selections.
            let bounds = histogram_bounds(table, attribute, cache)?;
            let hist_a = select_histogram(table, attribute, &sel_a, bounds)?;
            let hist_b = select_histogram(table, attribute, &sel_b, bounds)?;
            let rows = contingency_rows(&hist_a, &hist_b)?;
            let outcome = if let Some(square) = as_sparse_2x2(&hist_a, &hist_b) {
                fisher_exact(square)?
            } else {
                chi_square_independence(&rows)?
            };
            let union = selected(&hist_a) + selected(&hist_b) - sel_a.count_ones_and(&sel_b);
            Ok(Execution {
                outcome,
                support_fraction: fraction(union, table.rows()),
            })
        }
        NullSpec::MeanEquality {
            attribute,
            filter_a,
            filter_b,
        } => {
            let sel_a = eval_selection(table, filter_a, cache)?;
            let sel_b = eval_selection(table, filter_b, cache)?;
            let xs = table.numeric_values(attribute, Some(&sel_a))?;
            let ys = table.numeric_values(attribute, Some(&sel_b))?;
            let outcome = welch_t_test(&xs, &ys, Alternative::TwoSided)?;
            Ok(Execution {
                outcome,
                support_fraction: fraction(union_count(&sel_a, &sel_b), table.rows()),
            })
        }
        NullSpec::IndependenceWithin {
            attribute_a,
            attribute_b,
            filter,
            use_g_test,
        } => {
            let selection = eval_selection(table, filter, cache)?;
            let ct =
                aware_data::crosstab::crosstab(table, attribute_a, attribute_b, Some(&selection))?;
            let outcome = if *use_g_test {
                aware_stats::exact::g_test_independence(ct.rows())?
            } else {
                chi_square_independence(ct.rows())?
            };
            Ok(Execution {
                outcome,
                support_fraction: fraction(selection.count_ones(), table.rows()),
            })
        }
        NullSpec::NoGroupMeanDifference {
            value_attribute,
            group_attribute,
            filter,
        } => {
            let selection = eval_selection(table, filter, cache)?;
            let groups = aware_data::agg::grouped_values(
                table,
                group_attribute,
                value_attribute,
                Some(&selection),
            )?;
            let outcome = aware_stats::anova::one_way_anova(&groups)?;
            Ok(Execution {
                outcome,
                support_fraction: fraction(selection.count_ones(), table.rows()),
            })
        }
        NullSpec::StochasticEquality {
            attribute,
            filter_a,
            filter_b,
            method,
        } => {
            let sel_a = eval_selection(table, filter_a, cache)?;
            let sel_b = eval_selection(table, filter_b, cache)?;
            let xs = table.numeric_values(attribute, Some(&sel_a))?;
            let ys = table.numeric_values(attribute, Some(&sel_b))?;
            let outcome = match method {
                ShiftMethod::MannWhitney => mann_whitney_u(&xs, &ys, Alternative::TwoSided)?,
                ShiftMethod::KolmogorovSmirnov => ks_two_sample(&xs, &ys)?,
            };
            Ok(Execution {
                outcome,
                support_fraction: fraction(union_count(&sel_a, &sel_b), table.rows()),
            })
        }
    }
}

/// Filter evaluation, through the cache when one is attached.
fn eval_selection(
    table: &Table,
    filter: &Predicate,
    cache: Option<&EvalCache>,
) -> Result<Arc<Bitmap>> {
    match cache {
        Some(c) => Ok(c.selection(table, filter)?),
        None => Ok(Arc::new(filter.eval(table)?)),
    }
}

/// Detects a 2×2 comparison too sparse for the χ² approximation: both
/// histograms have exactly two buckets and some expected cell is below
/// [`FISHER_EXPECTED_THRESHOLD`]. Returns the count table when Fisher's
/// exact test should take over.
fn as_sparse_2x2(a: &Histogram, b: &Histogram) -> Option<[[u64; 2]; 2]> {
    if a.num_buckets() != 2 || b.num_buckets() != 2 {
        return None;
    }
    let (ca, cb) = (a.counts(), b.counts());
    let square = [[ca[0], ca[1]], [cb[0], cb[1]]];
    let n = (ca[0] + ca[1] + cb[0] + cb[1]) as f64;
    if n == 0.0 {
        return None;
    }
    let row = [(ca[0] + ca[1]) as f64, (cb[0] + cb[1]) as f64];
    let col = [(ca[0] + cb[0]) as f64, (ca[1] + cb[1]) as f64];
    let min_expected = row
        .iter()
        .flat_map(|r| col.iter().map(move |c| r * c / n))
        .fold(f64::INFINITY, f64::min);
    (min_expected < FISHER_EXPECTED_THRESHOLD).then_some(square)
}

/// Resolves the fixed bin bounds a numeric attribute's histograms share
/// (`None` for categorical/bool attributes): one cache probe — or one
/// min/max scan, cold — reused for every selection of the same test.
fn histogram_bounds(
    table: &Table,
    attribute: &str,
    cache: Option<&EvalCache>,
) -> Result<Option<(f64, f64)>> {
    match table.column_type(attribute)? {
        ColumnType::Int64 | ColumnType::Float64 => match cache {
            Some(c) => Ok(Some(
                c.invariants(table, attribute)?
                    .bounds
                    .expect("numeric column has bounds"),
            )),
            None => Ok(Some(aware_data::hist::numeric_bounds(table, attribute)?)),
        },
        _ => Ok(None),
    }
}

/// Histogram of an attribute over a selection, with pre-resolved bounds
/// (`Some` ⇔ numeric attribute, from [`histogram_bounds`]).
fn select_histogram(
    table: &Table,
    attribute: &str,
    selection: &Bitmap,
    bounds: Option<(f64, f64)>,
) -> Result<Histogram> {
    let h = match bounds {
        Some(b) => numeric_histogram_with_bounds(
            table,
            attribute,
            Some(selection),
            DEFAULT_NUMERIC_BINS,
            b,
        )?,
        None => categorical_histogram(table, attribute, Some(selection))?,
    };
    Ok(h)
}

/// `|selection|`, read back from a histogram taken under it: every
/// selected row falls in exactly one bucket, and the counting kernel
/// already counted the selection once to pick its strategy.
fn selected(histogram: &Histogram) -> usize {
    histogram.total() as usize
}

/// Rows covered by either selection: `|A| + |B| − |A ∩ B|`, with the
/// intersection counted word-at-a-time — no intersection bitmap is ever
/// allocated. For the partitioned filters rule 3 produces (`f` vs `¬f`)
/// this equals the plain sum; for overlapping filters it is the honest
/// union instead of a clamped double count.
fn union_count(a: &Bitmap, b: &Bitmap) -> usize {
    a.count_ones() + b.count_ones() - a.count_ones_and(b)
}

/// Clamped support fraction, kept in (0, 1].
fn fraction(selected: usize, total: usize) -> f64 {
    if total == 0 {
        return 1.0;
    }
    (selected as f64 / total as f64).clamp(f64::MIN_POSITIVE, 1.0)
}

/// Convenience constructor for the common user override: compare the mean
/// of `attribute` between a filter and its negation.
pub fn mean_comparison(attribute: &str, filter: Predicate) -> NullSpec {
    let negated = filter.clone().negate();
    NullSpec::MeanEquality {
        attribute: attribute.to_owned(),
        filter_a: filter,
        filter_b: negated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aware_data::census::CensusGenerator;
    use aware_data::column::Column;
    use aware_data::table::TableBuilder;
    use aware_stats::tests::TestKind;

    fn census() -> Table {
        CensusGenerator::new(21).generate(8_000)
    }

    #[test]
    fn rule2_execution_detects_planted_effect() {
        let t = census();
        let spec = NullSpec::NoFilterEffect {
            attribute: "education".into(),
            filter: Predicate::eq("salary_over_50k", true),
        };
        let exec = execute(&t, &spec, None).unwrap();
        assert_eq!(exec.outcome.kind, TestKind::ChiSquareGof);
        // education ⟂̸ salary by construction: overwhelming evidence.
        assert!(exec.outcome.p_value < 1e-8, "p = {}", exec.outcome.p_value);
        assert!(exec.support_fraction > 0.0 && exec.support_fraction <= 1.0);
    }

    #[test]
    fn rule2_execution_null_attribute_is_quiet() {
        let t = census();
        let spec = NullSpec::NoFilterEffect {
            attribute: "race".into(),
            filter: Predicate::eq("salary_over_50k", true),
        };
        let exec = execute(&t, &spec, None).unwrap();
        // race ⟂ salary: p should not be extreme (fails w.p. ~1e-4).
        assert!(exec.outcome.p_value > 1e-4, "p = {}", exec.outcome.p_value);
    }

    #[test]
    fn rule3_execution_runs_independence_test() {
        let t = census();
        let f = Predicate::eq("salary_over_50k", true);
        let spec = NullSpec::NoDistributionDifference {
            attribute: "education".into(),
            filter_a: f.clone(),
            filter_b: f.negate(),
        };
        let exec = execute(&t, &spec, None).unwrap();
        assert_eq!(exec.outcome.kind, TestKind::ChiSquareIndependence);
        assert!(exec.outcome.p_value < 1e-8);
        // The two selections partition the table: support ≈ 1.
        assert!((exec.support_fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rule3_numeric_attribute_uses_aligned_bins() {
        let t = census();
        let f = Predicate::eq("salary_over_50k", true);
        let spec = NullSpec::NoDistributionDifference {
            attribute: "age".into(),
            filter_a: f.clone(),
            filter_b: f.negate(),
        };
        let exec = execute(&t, &spec, None).unwrap();
        // age ⟂̸ salary by construction.
        assert!(exec.outcome.p_value < 1e-6, "p = {}", exec.outcome.p_value);
    }

    #[test]
    fn mean_equality_runs_welch_t() {
        let t = census();
        let spec = mean_comparison("hours_per_week", Predicate::eq("sex", "Male"));
        let exec = execute(&t, &spec, None).unwrap();
        assert_eq!(exec.outcome.kind, TestKind::WelchT);
        // Planted: men average +2.5 hours.
        assert!(exec.outcome.p_value < 1e-6, "p = {}", exec.outcome.p_value);
        assert!(exec.outcome.effect_size > 0.0);
    }

    #[test]
    fn empty_selection_is_untestable_not_a_panic() {
        let t = census();
        let spec = NullSpec::NoFilterEffect {
            attribute: "sex".into(),
            filter: Predicate::eq("education", "Kindergarten"), // matches nothing
        };
        assert!(execute(&t, &spec, None).is_err());
    }

    #[test]
    fn mean_equality_on_categorical_attribute_errors() {
        let t = census();
        let spec = NullSpec::MeanEquality {
            attribute: "education".into(),
            filter_a: Predicate::eq("sex", "Male"),
            filter_b: Predicate::eq("sex", "Female"),
        };
        assert!(execute(&t, &spec, None).is_err());
    }

    #[test]
    fn zero_variance_numeric_is_untestable() {
        let t = TableBuilder::new()
            .push("flat", Column::Float64(vec![1.0; 100]))
            .push("grp", Column::Bool((0..100).map(|i| i % 2 == 0).collect()))
            .build()
            .unwrap();
        let spec = NullSpec::MeanEquality {
            attribute: "flat".into(),
            filter_a: Predicate::eq("grp", true),
            filter_b: Predicate::eq("grp", false),
        };
        assert!(execute(&t, &spec, None).is_err());
    }

    #[test]
    fn independence_within_runs_crosstab_tests() {
        let t = census();
        for use_g_test in [false, true] {
            let spec = NullSpec::IndependenceWithin {
                attribute_a: "education".into(),
                attribute_b: "salary_over_50k".into(),
                filter: Predicate::True,
                use_g_test,
            };
            let exec = execute(&t, &spec, None).unwrap();
            let expected = if use_g_test {
                TestKind::GTest
            } else {
                TestKind::ChiSquareIndependence
            };
            assert_eq!(exec.outcome.kind, expected);
            assert!(exec.outcome.p_value < 1e-10, "p = {}", exec.outcome.p_value);
        }
        // Restricted to a sub-population, support shrinks and a null pair
        // stays quiet.
        let spec = NullSpec::IndependenceWithin {
            attribute_a: "race".into(),
            attribute_b: "native_region".into(),
            filter: Predicate::eq("sex", "Female"),
            use_g_test: false,
        };
        let exec = execute(&t, &spec, None).unwrap();
        assert!(exec.support_fraction < 0.6);
        assert!(exec.outcome.p_value > 1e-4, "p = {}", exec.outcome.p_value);
        // Numeric attributes are rejected by the crosstab.
        let spec = NullSpec::IndependenceWithin {
            attribute_a: "age".into(),
            attribute_b: "salary_over_50k".into(),
            filter: Predicate::True,
            use_g_test: false,
        };
        assert!(execute(&t, &spec, None).is_err());
    }

    #[test]
    fn group_mean_difference_runs_anova() {
        let t = census();
        // hours | education: planted +1.4h per education level.
        let spec = NullSpec::NoGroupMeanDifference {
            value_attribute: "hours_per_week".into(),
            group_attribute: "education".into(),
            filter: Predicate::True,
        };
        let exec = execute(&t, &spec, None).unwrap();
        assert_eq!(exec.outcome.kind, TestKind::OneWayAnova);
        assert!(exec.outcome.p_value < 1e-8, "p = {}", exec.outcome.p_value);
        assert!((exec.support_fraction - 1.0).abs() < 1e-12);

        // hours | race: no planted dependence — quiet.
        let spec = NullSpec::NoGroupMeanDifference {
            value_attribute: "hours_per_week".into(),
            group_attribute: "race".into(),
            filter: Predicate::True,
        };
        let exec = execute(&t, &spec, None).unwrap();
        assert!(exec.outcome.p_value > 1e-4, "p = {}", exec.outcome.p_value);

        // Filtered variant restricts support.
        let spec = NullSpec::NoGroupMeanDifference {
            value_attribute: "hours_per_week".into(),
            group_attribute: "sex".into(),
            filter: Predicate::eq("education", "PhD"),
        };
        let exec = execute(&t, &spec, None).unwrap();
        assert!(exec.support_fraction < 0.2);
        // Grouping by a numeric attribute errors cleanly.
        let spec = NullSpec::NoGroupMeanDifference {
            value_attribute: "hours_per_week".into(),
            group_attribute: "age".into(),
            filter: Predicate::True,
        };
        assert!(execute(&t, &spec, None).is_err());
    }

    #[test]
    fn stochastic_equality_runs_nonparametric_tests() {
        let t = census();
        for (method, kind) in [
            (ShiftMethod::MannWhitney, TestKind::MannWhitneyU),
            (ShiftMethod::KolmogorovSmirnov, TestKind::KolmogorovSmirnov),
        ] {
            let spec = NullSpec::StochasticEquality {
                attribute: "hours_per_week".into(),
                filter_a: Predicate::eq("sex", "Male"),
                filter_b: Predicate::eq("sex", "Female"),
                method,
            };
            let exec = execute(&t, &spec, None).unwrap();
            assert_eq!(exec.outcome.kind, kind);
            // Planted +2.5h shift for men: both tests detect it at n≈8k.
            assert!(
                exec.outcome.p_value < 1e-4,
                "{kind}: p = {}",
                exec.outcome.p_value
            );
        }
        // Categorical attribute errors cleanly.
        let spec = NullSpec::StochasticEquality {
            attribute: "education".into(),
            filter_a: Predicate::eq("sex", "Male"),
            filter_b: Predicate::eq("sex", "Female"),
            method: ShiftMethod::MannWhitney,
        };
        assert!(execute(&t, &spec, None).is_err());
    }

    #[test]
    fn sparse_2x2_pairs_fall_back_to_fisher_exact() {
        // A tiny table where a bool×bool comparison has expected cells < 5.
        let flags: Vec<bool> = (0..16).map(|i| i % 2 == 0).collect();
        let outcome: Vec<bool> = (0..16).map(|i| i < 4).collect();
        let t = TableBuilder::new()
            .push("grp", Column::Bool(flags))
            .push("hit", Column::Bool(outcome))
            .build()
            .unwrap();
        let spec = NullSpec::NoDistributionDifference {
            attribute: "hit".into(),
            filter_a: Predicate::eq("grp", true),
            filter_b: Predicate::eq("grp", false),
        };
        let exec = execute(&t, &spec, None).unwrap();
        assert_eq!(
            exec.outcome.kind,
            TestKind::FisherExact,
            "sparse table uses Fisher"
        );
        // A large well-filled table keeps the χ² path.
        let t = census();
        let f = Predicate::eq("sex", "Male");
        let spec = NullSpec::NoDistributionDifference {
            attribute: "salary_over_50k".into(),
            filter_a: f.clone(),
            filter_b: f.negate(),
        };
        let exec = execute(&t, &spec, None).unwrap();
        assert_eq!(exec.outcome.kind, TestKind::ChiSquareIndependence);
    }

    #[test]
    fn cached_execution_is_byte_identical_to_cold() {
        use aware_data::cache::EvalCache;
        let t = census();
        let f = Predicate::eq("salary_over_50k", true);
        let chain = f
            .clone()
            .and(Predicate::eq("sex", "Male"))
            .and(Predicate::between("age", 25.0, 55.0));
        let specs = vec![
            NullSpec::NoFilterEffect {
                attribute: "education".into(),
                filter: chain.clone(),
            },
            NullSpec::NoFilterEffect {
                attribute: "age".into(),
                filter: f.clone(),
            },
            NullSpec::NoDistributionDifference {
                attribute: "age".into(),
                filter_a: f.clone(),
                filter_b: f.clone().negate(),
            },
            mean_comparison("hours_per_week", chain.clone()),
            NullSpec::IndependenceWithin {
                attribute_a: "education".into(),
                attribute_b: "marital_status".into(),
                filter: chain.clone(),
                use_g_test: false,
            },
            NullSpec::NoGroupMeanDifference {
                value_attribute: "hours_per_week".into(),
                group_attribute: "education".into(),
                filter: f.clone(),
            },
            NullSpec::StochasticEquality {
                attribute: "hours_per_week".into(),
                filter_a: f.clone(),
                filter_b: f.clone().negate(),
                method: ShiftMethod::MannWhitney,
            },
        ];
        let cache = EvalCache::new();
        for spec in &specs {
            // Byte-identical rendering (NaN-tolerant, still catches any
            // ULP of drift in p-values, statistics, or support).
            let cold = format!("{:?}", execute(&t, spec, None).unwrap());
            let first = format!("{:?}", execute(&t, spec, Some(&cache)).unwrap());
            let warm = format!("{:?}", execute(&t, spec, Some(&cache)).unwrap());
            assert_eq!(cold, first, "first cached run diverged");
            assert_eq!(cold, warm, "warm cached run diverged");
        }
        let stats = cache.stats();
        assert!(stats.hits > 0, "second pass must hit: {stats:?}");
    }

    #[test]
    fn support_fraction_is_the_union_of_the_two_selections() {
        use aware_data::predicate::CmpOp;
        // Overlapping filters: support is |A ∪ B|, not a clamped sum.
        let t = census();
        let spec = NullSpec::MeanEquality {
            attribute: "hours_per_week".into(),
            filter_a: Predicate::cmp("age", CmpOp::Ge, aware_data::value::Value::from(30i64)),
            filter_b: Predicate::cmp("age", CmpOp::Ge, aware_data::value::Value::from(50i64)),
        };
        let exec = execute(&t, &spec, None).unwrap();
        let a = Predicate::cmp("age", CmpOp::Ge, aware_data::value::Value::from(30i64))
            .eval(&t)
            .unwrap();
        let expected = a.count_ones() as f64 / t.rows() as f64;
        // B ⊆ A, so the union is exactly A.
        assert!((exec.support_fraction - expected).abs() < 1e-12);
    }

    #[test]
    fn support_fraction_reflects_selection_size() {
        let t = census();
        let spec = NullSpec::NoFilterEffect {
            attribute: "sex".into(),
            filter: Predicate::eq("education", "PhD"),
        };
        let exec = execute(&t, &spec, None).unwrap();
        // PhDs are ~4% of the population.
        assert!(exec.support_fraction < 0.15, "{}", exec.support_fraction);
        assert!(exec.support_fraction > 0.005, "{}", exec.support_fraction);
    }
}
