//! Uniform procedure registry.
//!
//! The experiment harness runs a dozen procedures over thousands of
//! replicated p-value streams. [`ProcedureSpec`] gives every procedure one
//! value-level description with a uniform `run(alpha, p_values)` interface,
//! so benches and figures iterate a `Vec<ProcedureSpec>` instead of
//! hand-wiring each type.

use crate::decision::Decision;
use crate::fdr_batch::{benjamini_hochberg, benjamini_yekutieli};
use crate::fwer::{bonferroni, hochberg, holm, sidak};
use crate::gai::{GaiSchedule, GeneralizedInvesting};
use crate::investing::policies::{
    best_foot_forward, psi_support, EpsilonHybrid, Farsighted, Fixed, Hopeful,
};
use crate::investing::AlphaInvesting;
use crate::online::{Lond, LordPlusPlus};
use crate::pcer::pcer;
use crate::sequential::{AlphaSpending, ForwardStop};
use crate::Result;

/// A value-level description of any procedure in the crate.
#[derive(Debug, Clone, PartialEq)]
pub enum ProcedureSpec {
    /// No multiple-testing control.
    Pcer,
    /// Bonferroni FWER control.
    Bonferroni,
    /// Šidák FWER control.
    Sidak,
    /// Holm step-down FWER control.
    Holm,
    /// Hochberg step-up FWER control.
    Hochberg,
    /// Benjamini–Hochberg FDR control (the paper's "BHFDR").
    BenjaminiHochberg,
    /// Benjamini–Yekutieli FDR control under dependence.
    BenjaminiYekutieli,
    /// Streaming Bonferroni at `α·2⁻ʲ`.
    AlphaSpending,
    /// Sequential FDR / ForwardStop (the paper's "SeqFDR").
    ForwardStop,
    /// α-investing, best-foot-forward (β-farsighted with β = 0).
    BestFootForward,
    /// α-investing, Investing Rule 1.
    Farsighted {
        /// Wealth fraction preserved per acceptance.
        beta: f64,
    },
    /// α-investing, Investing Rule 2.
    Fixed {
        /// Number of acceptances the initial wealth survives.
        gamma: f64,
    },
    /// α-investing, Investing Rule 3.
    Hopeful {
        /// Hope horizon.
        delta: f64,
    },
    /// α-investing, Investing Rule 4.
    Hybrid {
        /// γ-fixed arm parameter.
        gamma: f64,
        /// δ-hopeful arm parameter.
        delta: f64,
        /// Randomness threshold on the rejection rate.
        epsilon: f64,
        /// Sliding window (`None` = unlimited, the paper's setting).
        window: Option<usize>,
    },
    /// α-investing, Investing Rule 5 (over γ-fixed).
    PsiSupport {
        /// Base γ-fixed parameter.
        gamma: f64,
        /// Support-discount exponent.
        psi: f64,
    },
    /// LOND online FDR (extension, post-paper).
    Lond,
    /// LORD++ online FDR (extension, post-paper).
    LordPlusPlus,
    /// Generalized α-investing with the linear-penalty schedule
    /// (extension; Aharoni & Rosset, the paper's ref \[1\]).
    GaiLinearPenalty {
        /// Budget-spreading factor, as in γ-fixed.
        gamma: f64,
    },
}

impl ProcedureSpec {
    /// Short label used in figure/table headers; matches the paper's
    /// procedure names where one exists.
    pub fn label(&self) -> String {
        match self {
            ProcedureSpec::Pcer => "PCER".into(),
            ProcedureSpec::Bonferroni => "Bonferroni".into(),
            ProcedureSpec::Sidak => "Sidak".into(),
            ProcedureSpec::Holm => "Holm".into(),
            ProcedureSpec::Hochberg => "Hochberg".into(),
            ProcedureSpec::BenjaminiHochberg => "BHFDR".into(),
            ProcedureSpec::BenjaminiYekutieli => "BYFDR".into(),
            ProcedureSpec::AlphaSpending => "AlphaSpend".into(),
            ProcedureSpec::ForwardStop => "SeqFDR".into(),
            ProcedureSpec::BestFootForward => "BestFoot".into(),
            ProcedureSpec::Farsighted { .. } => "Farsighted".into(),
            ProcedureSpec::Fixed { .. } => "Fixed".into(),
            ProcedureSpec::Hopeful { .. } => "Hopeful".into(),
            ProcedureSpec::Hybrid { .. } => "Hybrid".into(),
            ProcedureSpec::PsiSupport { .. } => "Support".into(),
            ProcedureSpec::Lond => "LOND".into(),
            ProcedureSpec::LordPlusPlus => "LORD++".into(),
            ProcedureSpec::GaiLinearPenalty { .. } => "GAI-linear".into(),
        }
    }

    /// True when the procedure can run on a stream without knowing `m`.
    pub fn is_incremental(&self) -> bool {
        !matches!(
            self,
            ProcedureSpec::Bonferroni
                | ProcedureSpec::Sidak
                | ProcedureSpec::Holm
                | ProcedureSpec::Hochberg
                | ProcedureSpec::BenjaminiHochberg
                | ProcedureSpec::BenjaminiYekutieli
        )
        // PCER is trivially incremental (each decision depends only on its
        // own p-value).
    }

    /// True when announced decisions are never revised — the property the
    /// paper requires of an IDE procedure. ForwardStop is the one
    /// incremental-but-non-interactive member.
    pub fn is_interactive(&self) -> bool {
        self.is_incremental() && !matches!(self, ProcedureSpec::ForwardStop)
    }

    /// True for α-investing family members (they control mFDR, and consume
    /// per-test support fractions).
    pub fn is_alpha_investing(&self) -> bool {
        matches!(
            self,
            ProcedureSpec::BestFootForward
                | ProcedureSpec::Farsighted { .. }
                | ProcedureSpec::Fixed { .. }
                | ProcedureSpec::Hopeful { .. }
                | ProcedureSpec::Hybrid { .. }
                | ProcedureSpec::PsiSupport { .. }
        )
    }

    /// Runs the procedure over a p-value stream at level `alpha`,
    /// returning the *final* decision for every hypothesis (full support).
    pub fn run(&self, alpha: f64, p_values: &[f64]) -> Result<Vec<Decision>> {
        let support = vec![1.0; p_values.len()];
        self.run_with_support(alpha, p_values, &support)
    }

    /// Runs the procedure with per-test support fractions. Non-investing
    /// procedures ignore the fractions.
    pub fn run_with_support(
        &self,
        alpha: f64,
        p_values: &[f64],
        support_fractions: &[f64],
    ) -> Result<Vec<Decision>> {
        let eta = 1.0 - alpha;
        match self {
            ProcedureSpec::Pcer => pcer(p_values, alpha),
            ProcedureSpec::Bonferroni => bonferroni(p_values, alpha),
            ProcedureSpec::Sidak => sidak(p_values, alpha),
            ProcedureSpec::Holm => holm(p_values, alpha),
            ProcedureSpec::Hochberg => hochberg(p_values, alpha),
            ProcedureSpec::BenjaminiHochberg => benjamini_hochberg(p_values, alpha),
            ProcedureSpec::BenjaminiYekutieli => benjamini_yekutieli(p_values, alpha),
            ProcedureSpec::AlphaSpending => AlphaSpending::decide_stream(alpha, p_values),
            ProcedureSpec::ForwardStop => ForwardStop::decide_stream(alpha, p_values),
            ProcedureSpec::BestFootForward => AlphaInvesting::new(alpha, eta, best_foot_forward())?
                .decide_stream_with_support(p_values, support_fractions),
            ProcedureSpec::Farsighted { beta } => {
                AlphaInvesting::new(alpha, eta, Farsighted::new(*beta)?)?
                    .decide_stream_with_support(p_values, support_fractions)
            }
            ProcedureSpec::Fixed { gamma } => AlphaInvesting::new(alpha, eta, Fixed::new(*gamma))?
                .decide_stream_with_support(p_values, support_fractions),
            ProcedureSpec::Hopeful { delta } => {
                AlphaInvesting::new(alpha, eta, Hopeful::new(*delta))?
                    .decide_stream_with_support(p_values, support_fractions)
            }
            ProcedureSpec::Hybrid {
                gamma,
                delta,
                epsilon,
                window,
            } => AlphaInvesting::new(
                alpha,
                eta,
                EpsilonHybrid::new(*gamma, *delta, *epsilon, *window)?,
            )?
            .decide_stream_with_support(p_values, support_fractions),
            ProcedureSpec::PsiSupport { gamma, psi } => {
                AlphaInvesting::new(alpha, eta, psi_support(*gamma, *psi)?)?
                    .decide_stream_with_support(p_values, support_fractions)
            }
            ProcedureSpec::Lond => Lond::decide_stream(alpha, p_values),
            ProcedureSpec::LordPlusPlus => LordPlusPlus::decide_stream(alpha, p_values),
            ProcedureSpec::GaiLinearPenalty { gamma } => {
                GeneralizedInvesting::new(alpha, eta, GaiSchedule::LinearPenalty { gamma: *gamma })?
                    .decide_stream(p_values)
            }
        }
    }

    /// The static baselines of Exp.1a / Figure 3.
    pub fn exp1a_procedures() -> Vec<ProcedureSpec> {
        vec![
            ProcedureSpec::Pcer,
            ProcedureSpec::Bonferroni,
            ProcedureSpec::BenjaminiHochberg,
        ]
    }

    /// The incremental procedures of Exp.1b–1c / Figures 4–5, with the
    /// paper's §7.2 parameter choices.
    pub fn exp1b_procedures() -> Vec<ProcedureSpec> {
        vec![
            ProcedureSpec::ForwardStop,
            ProcedureSpec::Farsighted { beta: 0.25 },
            ProcedureSpec::Fixed { gamma: 10.0 },
            ProcedureSpec::Hopeful { delta: 10.0 },
            ProcedureSpec::Hybrid {
                gamma: 10.0,
                delta: 10.0,
                epsilon: 0.5,
                window: None,
            },
            ProcedureSpec::PsiSupport {
                gamma: 10.0,
                psi: 0.5,
            },
        ]
    }

    /// Extension set for the ablation benches (not in the paper).
    pub fn extension_procedures() -> Vec<ProcedureSpec> {
        vec![
            ProcedureSpec::Lond,
            ProcedureSpec::LordPlusPlus,
            ProcedureSpec::BestFootForward,
            ProcedureSpec::GaiLinearPenalty { gamma: 10.0 },
        ]
    }
}

impl std::fmt::Display for ProcedureSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::num_rejections;

    fn every_spec() -> Vec<ProcedureSpec> {
        let mut v = ProcedureSpec::exp1a_procedures();
        v.extend(ProcedureSpec::exp1b_procedures());
        v.extend(ProcedureSpec::extension_procedures());
        v.push(ProcedureSpec::Sidak);
        v.push(ProcedureSpec::Holm);
        v.push(ProcedureSpec::Hochberg);
        v.push(ProcedureSpec::BenjaminiYekutieli);
        v.push(ProcedureSpec::AlphaSpending);
        v
    }

    #[test]
    fn all_specs_run_and_return_one_decision_per_p_value() {
        let ps = [0.0001, 0.3, 0.02, 0.9, 0.004, 0.6, 0.01];
        for spec in every_spec() {
            let ds = spec.run(0.05, &ps).unwrap();
            assert_eq!(ds.len(), ps.len(), "{spec}");
        }
    }

    #[test]
    fn strong_signal_is_found_by_everyone() {
        // One overwhelming p-value in a sea of nulls: every procedure must
        // reject it (first position avoids ForwardStop order effects).
        let mut ps = vec![1e-15];
        ps.extend(vec![0.8; 5]);
        for spec in every_spec() {
            let ds = spec.run(0.05, &ps).unwrap();
            assert!(ds[0].is_rejection(), "{spec} missed the obvious signal");
        }
    }

    #[test]
    fn taxonomy_flags_match_the_paper() {
        assert!(!ProcedureSpec::BenjaminiHochberg.is_incremental());
        assert!(!ProcedureSpec::Bonferroni.is_incremental());
        assert!(ProcedureSpec::Pcer.is_incremental());
        assert!(ProcedureSpec::ForwardStop.is_incremental());
        assert!(!ProcedureSpec::ForwardStop.is_interactive());
        for spec in ProcedureSpec::exp1b_procedures() {
            if spec != ProcedureSpec::ForwardStop {
                assert!(spec.is_interactive(), "{spec} should be interactive");
                assert!(spec.is_alpha_investing(), "{spec}");
            }
        }
        assert!(!ProcedureSpec::Lond.is_alpha_investing());
        assert!(ProcedureSpec::Lond.is_interactive());
    }

    #[test]
    fn labels_are_unique() {
        let specs = every_spec();
        let mut labels: Vec<String> = specs.iter().map(|s| s.label()).collect();
        labels.sort();
        let before = labels.len();
        labels.dedup();
        assert_eq!(labels.len(), before, "duplicate labels");
    }

    #[test]
    fn support_fractions_only_affect_investing_procedures() {
        let ps = [0.004, 0.03, 0.6, 0.01, 0.2];
        let full = vec![1.0; ps.len()];
        let thin = vec![0.05; ps.len()];
        // BH ignores support.
        let spec = ProcedureSpec::BenjaminiHochberg;
        assert_eq!(
            spec.run_with_support(0.05, &ps, &full).unwrap(),
            spec.run_with_support(0.05, &ps, &thin).unwrap()
        );
        // ψ-support discounts bids → fewer (or equal) rejections on thin data.
        let spec = ProcedureSpec::PsiSupport {
            gamma: 10.0,
            psi: 0.5,
        };
        let r_full = num_rejections(&spec.run_with_support(0.05, &ps, &full).unwrap());
        let r_thin = num_rejections(&spec.run_with_support(0.05, &ps, &thin).unwrap());
        assert!(r_thin <= r_full);
        assert!(r_full >= 1);
    }

    #[test]
    fn invalid_alpha_propagates() {
        for spec in every_spec() {
            assert!(spec.run(0.0, &[0.5]).is_err(), "{spec}");
        }
    }
}
