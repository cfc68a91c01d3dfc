//! Hypothesis model: what AWARE tracks for every (implicit or explicit)
//! statistical question raised during exploration.

use crate::viz::VizId;
use aware_data::predicate::Predicate;
use aware_mht::Decision;
use aware_stats::power::FlipEstimate;
use aware_stats::tests::TestOutcome;
use std::fmt;

/// Identifier of a hypothesis within a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HypothesisId(pub u64);

impl std::fmt::Display for HypothesisId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "H{}", self.0)
    }
}

/// The null hypothesis attached to a visualization (or typed by the user).
#[derive(Debug, Clone, PartialEq)]
pub enum NullSpec {
    /// Heuristic rule 2: "the filter makes no difference — the filtered
    /// distribution of `attribute` equals the whole-dataset distribution."
    /// Tested with a χ² goodness-of-fit.
    NoFilterEffect {
        /// The visualized attribute.
        attribute: String,
        /// The filter chain under test.
        filter: Predicate,
    },
    /// Heuristic rule 3: "the distributions of `attribute` under the two
    /// (negated) filters are the same." Tested with a χ² independence test
    /// on the stacked 2×k counts.
    NoDistributionDifference {
        /// The visualized attribute.
        attribute: String,
        /// Filter of the first linked visualization.
        filter_a: Predicate,
        /// Filter of the second (negated) visualization.
        filter_b: Predicate,
    },
    /// User override: "the *means* of `attribute` under the two filters are
    /// equal" — the t-test Eve runs in step F of the paper's Figure 1.
    MeanEquality {
        /// The numeric attribute compared.
        attribute: String,
        /// Filter of the first population.
        filter_a: Predicate,
        /// Filter of the second population.
        filter_b: Predicate,
    },
    /// "`attribute_a` and `attribute_b` are independent within `filter`" —
    /// the head-on form of the paper's intro examples ("people with a
    /// Ph.D. earn more"), tested with χ² (or the likelihood-ratio G-test)
    /// on the direct r×c crosstab.
    IndependenceWithin {
        /// First categorical/boolean attribute.
        attribute_a: String,
        /// Second categorical/boolean attribute.
        attribute_b: String,
        /// Sub-population restriction ([`Predicate::True`] for none).
        filter: Predicate,
        /// Use the likelihood-ratio G-test instead of Pearson χ².
        use_g_test: bool,
    },
    /// "The mean of `value_attribute` is the same in every category of
    /// `group_attribute` (within `filter`)" — the k-group generalization
    /// of the step-F t-test, tested with one-way ANOVA. Another §9
    /// "other default hypothesis".
    NoGroupMeanDifference {
        /// The numeric attribute whose group means are compared.
        value_attribute: String,
        /// The categorical/boolean grouping attribute.
        group_attribute: String,
        /// Sub-population restriction ([`Predicate::True`] for none).
        filter: Predicate,
    },
    /// User override with a nonparametric two-sample test — the "other
    /// types of default hypothesis" the paper's §9 leaves as future work.
    /// Appropriate when the numeric attribute is skewed or the question is
    /// about the whole distribution rather than the mean.
    StochasticEquality {
        /// The numeric attribute compared.
        attribute: String,
        /// Filter of the first population.
        filter_a: Predicate,
        /// Filter of the second population.
        filter_b: Predicate,
        /// Which nonparametric test to run.
        method: ShiftMethod,
    },
}

/// Nonparametric method for [`NullSpec::StochasticEquality`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShiftMethod {
    /// Mann–Whitney U (rank-sum): sensitive to location shift.
    MannWhitney,
    /// Two-sample Kolmogorov–Smirnov: sensitive to any distributional
    /// difference.
    KolmogorovSmirnov,
}

impl NullSpec {
    /// Gauge label for the null, e.g. `sex|salary_over_50k=true = sex`.
    pub fn null_label(&self) -> String {
        self.label(false)
    }

    /// Gauge label for the alternative (`=` becomes `<>`).
    pub fn alternative_label(&self) -> String {
        self.label(true)
    }

    fn label(&self, alternative: bool) -> String {
        let mut out = String::new();
        let _ = self.write_label(&mut out, alternative);
        out
    }

    /// Writes the null's gauge label — or, with `alternative`, the
    /// alternative's — straight into `out`: [`NullSpec::null_label`] /
    /// [`NullSpec::alternative_label`] without the intermediate string.
    pub(crate) fn write_label(&self, out: &mut impl fmt::Write, alternative: bool) -> fmt::Result {
        let (equal, across, independent) = if alternative {
            ("<>", "differs", "⊥̸")
        } else {
            ("=", "equal", "⊥")
        };
        // The two labels over one sub-population print it only when set.
        fn within(out: &mut impl fmt::Write, filter: &Predicate) -> fmt::Result {
            if filter.is_trivial() {
                Ok(())
            } else {
                write!(out, " | {filter}")
            }
        }
        match self {
            NullSpec::NoFilterEffect { attribute, filter } => {
                write!(out, "{attribute}|{filter} {equal} {attribute}")
            }
            NullSpec::NoDistributionDifference {
                attribute,
                filter_a,
                filter_b,
            } => write!(out, "{attribute}|{filter_a} {equal} {attribute}|{filter_b}"),
            NullSpec::MeanEquality {
                attribute,
                filter_a,
                filter_b,
            } => write!(
                out,
                "mean({attribute})|{filter_a} {equal} mean({attribute})|{filter_b}"
            ),
            NullSpec::StochasticEquality {
                attribute,
                filter_a,
                filter_b,
                ..
            } => write!(
                out,
                "dist({attribute})|{filter_a} {equal} dist({attribute})|{filter_b}"
            ),
            NullSpec::NoGroupMeanDifference {
                value_attribute,
                group_attribute,
                filter,
            } => {
                write!(
                    out,
                    "mean({value_attribute}) {across} across {group_attribute}"
                )?;
                within(out, filter)
            }
            NullSpec::IndependenceWithin {
                attribute_a,
                attribute_b,
                filter,
                ..
            } => {
                write!(out, "{attribute_a} {independent} {attribute_b}")?;
                within(out, filter)
            }
        }
    }

    /// The attribute whose distribution the hypothesis concerns.
    pub fn attribute(&self) -> &str {
        match self {
            NullSpec::NoFilterEffect { attribute, .. }
            | NullSpec::NoDistributionDifference { attribute, .. }
            | NullSpec::MeanEquality { attribute, .. }
            | NullSpec::StochasticEquality { attribute, .. } => attribute,
            NullSpec::NoGroupMeanDifference {
                value_attribute, ..
            } => value_attribute,
            NullSpec::IndependenceWithin { attribute_a, .. } => attribute_a,
        }
    }
}

/// Everything recorded about an executed test, frozen at execution time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TestRecord {
    /// The statistical outcome (statistic, p-value, effect size, support).
    pub outcome: TestOutcome,
    /// The α-investing bid `αⱼ` this hypothesis was granted.
    pub bid: f64,
    /// The final decision (never revised).
    pub decision: Decision,
    /// Wealth after the payout/charge.
    pub wealth_after: f64,
    /// Fraction of the table supporting the test (`|j|/|n|`).
    pub support_fraction: f64,
    /// The `n_H1` annotation: how much more data would flip the decision.
    pub flip: Option<FlipEstimate>,
}

/// Lifecycle state of a hypothesis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HypothesisStatus {
    /// Tested; the embedded record is immutable.
    Tested(TestRecord),
    /// The statistical test could not run (empty selection, zero variance
    /// …). No wealth was spent.
    Untestable,
    /// Superseded by a later hypothesis (heuristic rule 3 or a user
    /// override). The original decision — if any — still stands in the
    /// investing ledger; the gauge just stops featuring it.
    Superseded {
        /// The hypothesis that replaced this one.
        by: HypothesisId,
    },
    /// Deleted by the user ("this was just descriptive"). Spent wealth is
    /// *not* refunded — refunds would break the mFDR guarantee.
    Deleted,
}

/// A tracked hypothesis.
#[derive(Debug, Clone, PartialEq)]
pub struct Hypothesis {
    /// Session-unique id (dense, in creation order).
    pub id: HypothesisId,
    /// The null being tested.
    pub null: NullSpec,
    /// The visualization that spawned it, when heuristic-derived.
    pub source: Option<VizId>,
    /// Lifecycle state.
    pub status: HypothesisStatus,
    /// Starred by the user as an "important discovery" (§6).
    pub bookmarked: bool,
}

impl Hypothesis {
    /// True when the hypothesis is live (tested or untestable, not
    /// superseded/deleted).
    pub fn is_active(&self) -> bool {
        matches!(
            self.status,
            HypothesisStatus::Tested(_) | HypothesisStatus::Untestable
        )
    }

    /// The test record if the hypothesis was tested (superseded hypotheses
    /// keep theirs — the decision already happened).
    pub fn record(&self) -> Option<&TestRecord> {
        match &self.status {
            HypothesisStatus::Tested(r) => Some(r),
            _ => None,
        }
    }

    /// True when the hypothesis is an active discovery (null rejected).
    pub fn is_discovery(&self) -> bool {
        self.is_active()
            && self
                .record()
                .map(|r| r.decision.is_rejection())
                .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aware_data::predicate::Predicate;
    use aware_stats::tests::TestKind;

    fn spec() -> NullSpec {
        NullSpec::NoFilterEffect {
            attribute: "sex".into(),
            filter: Predicate::eq("salary_over_50k", true),
        }
    }

    fn record(decision: Decision) -> TestRecord {
        TestRecord {
            outcome: TestOutcome {
                kind: TestKind::ChiSquareGof,
                statistic: 7.2,
                df: 2.0,
                p_value: 0.027,
                effect_size: 0.2,
                support: 500,
            },
            bid: 0.0047,
            decision,
            wealth_after: 0.04,
            support_fraction: 0.5,
            flip: None,
        }
    }

    #[test]
    fn labels_follow_figure_2_style() {
        let s = spec();
        assert_eq!(s.null_label(), "sex|salary_over_50k=true = sex");
        assert_eq!(s.alternative_label(), "sex|salary_over_50k=true <> sex");
        assert_eq!(s.attribute(), "sex");

        let s = NullSpec::MeanEquality {
            attribute: "age".into(),
            filter_a: Predicate::eq("salary_over_50k", true),
            filter_b: Predicate::eq("salary_over_50k", false),
        };
        assert!(s.null_label().starts_with("mean(age)|"));
        assert!(s.alternative_label().contains("<>"));

        let s = NullSpec::NoDistributionDifference {
            attribute: "sex".into(),
            filter_a: Predicate::eq("x", true),
            filter_b: Predicate::eq("x", false),
        };
        assert_eq!(s.null_label(), "sex|x=true = sex|x=false");
    }

    #[test]
    fn lifecycle_predicates() {
        let mut h = Hypothesis {
            id: HypothesisId(1),
            null: spec(),
            source: None,
            status: HypothesisStatus::Tested(record(Decision::Reject)),
            bookmarked: false,
        };
        assert!(h.is_active());
        assert!(h.is_discovery());
        assert!(h.record().is_some());

        h.status = HypothesisStatus::Tested(record(Decision::Accept));
        assert!(!h.is_discovery());

        h.status = HypothesisStatus::Superseded {
            by: HypothesisId(2),
        };
        assert!(!h.is_active());
        assert!(!h.is_discovery());
        assert!(h.record().is_none());

        h.status = HypothesisStatus::Deleted;
        assert!(!h.is_active());

        h.status = HypothesisStatus::Untestable;
        assert!(h.is_active());
        assert!(!h.is_discovery());
        assert_eq!(h.id.to_string(), "H1");
    }
}
