//! Generalized α-investing (Aharoni & Rosset 2014) — the paper's
//! reference \[1\], implemented as an extension.
//!
//! Foster & Stine's procedure couples three quantities rigidly: the test
//! level `αⱼ`, the acceptance charge `αⱼ/(1−αⱼ)`, and the rejection payout
//! `ω`. Generalized α-investing decouples them: each test `j` pays a
//! penalty `φⱼ` (always), is tested at level `αⱼ`, and earns a payout `ψⱼ`
//! if the null is rejected.
//!
//! The admissibility condition follows from making
//! `A(j) = α·(R(j) + η) − V(j) − W(j)` a submartingale (the Foster–Stine
//! proof skeleton). Under a true null, rejection happens w.p. ≤ αⱼ, so
//! `E[ΔA] = αⱼ·α − αⱼ − (−φⱼ + αⱼψⱼ) ≥ 0 ⇔ φⱼ ≥ αⱼ(1 + ψⱼ − α)`; under a
//! true alternative the worst case is rejection w.p. 1, giving
//! `φⱼ ≥ ψⱼ − α`. Hence
//!
//! ```text
//! ψⱼ ≤ min( φⱼ + α ,  φⱼ/αⱼ + α − 1 )        with W(0) = α·η
//! ```
//!
//! Foster–Stine (with ω = α) is the boundary case `φⱼ = αⱼ/(1−αⱼ)`,
//! `ψⱼ = φⱼ + α`, where both bounds coincide — verified by a unit test
//! below. The built-in [`GaiSchedule::LinearPenalty`] instance exercises
//! the freedom the generalization adds: it pays only `φⱼ = αⱼ` per test
//! (cheaper than the Foster–Stine charge `αⱼ/(1−αⱼ)`) in exchange for the
//! reduced payout `ψⱼ = α` — a trade no classic α-investing rule can
//! express.

use crate::decision::Decision;
use crate::{check_alpha, check_p_value, MhtError, Result};

/// A (φ, α, ψ) schedule for generalized α-investing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GaiSchedule {
    /// Foster–Stine coupling: level `a`, penalty `a/(1−a)` on acceptance
    /// — expressed in GAI form (penalty paid always, payout returned on
    /// rejection). Produces wealth trajectories identical to
    /// [`crate::investing::AlphaInvesting`] with a fixed bid `a`.
    FosterStine {
        /// The per-test level.
        level: f64,
    },
    /// The genuinely-generalized instance: test at the constant γ-fixed
    /// level `a* = W(0)/(γ + W(0))` but pay only the *linear* penalty
    /// `φ = a*` (instead of Foster–Stine's `a*/(1−a*)`), capping the
    /// payout at `ψ = α` as the admissibility condition then requires.
    /// Total null-test capacity rises from γ to γ + W(0) units while the
    /// net reward per discovery drops from α to α − a* — a trade-off point
    /// no classic α-investing rule can express.
    LinearPenalty {
        /// Number of initial-wealth units the budget is spread over,
        /// exactly as in γ-fixed.
        gamma: f64,
    },
}

/// One step of a generalized α-investing procedure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaiStep {
    /// 0-based test index.
    pub index: usize,
    /// Penalty paid for this test.
    pub phi: f64,
    /// Level the hypothesis was tested at.
    pub level: f64,
    /// Payout granted on rejection.
    pub psi: f64,
    /// The decision.
    pub decision: Decision,
    /// Wealth after the step.
    pub wealth_after: f64,
}

/// Generalized α-investing machine.
#[derive(Debug, Clone)]
pub struct GeneralizedInvesting {
    alpha: f64,
    omega: f64,
    initial_wealth: f64,
    wealth: f64,
    schedule: GaiSchedule,
    steps: Vec<GaiStep>,
}

impl GeneralizedInvesting {
    /// Creates the machine controlling `mFDR_η` at `alpha` with
    /// `W(0) = alpha·eta` and `ω = alpha`.
    pub fn new(alpha: f64, eta: f64, schedule: GaiSchedule) -> Result<GeneralizedInvesting> {
        check_alpha(alpha, "GeneralizedInvesting")?;
        if !(eta > 0.0 && eta <= 1.0) {
            return Err(MhtError::InvalidParameter {
                context: "GeneralizedInvesting",
                constraint: "0 < eta <= 1",
                value: eta,
            });
        }
        match schedule {
            GaiSchedule::FosterStine { level } => {
                if !(level > 0.0 && level < 1.0) {
                    return Err(MhtError::InvalidParameter {
                        context: "GaiSchedule::FosterStine",
                        constraint: "0 < level < 1",
                        value: level,
                    });
                }
            }
            GaiSchedule::LinearPenalty { gamma } => {
                if !(gamma > 0.0) || !gamma.is_finite() {
                    return Err(MhtError::InvalidParameter {
                        context: "GaiSchedule::LinearPenalty",
                        constraint: "gamma > 0",
                        value: gamma,
                    });
                }
            }
        }
        Ok(GeneralizedInvesting {
            alpha,
            omega: alpha,
            initial_wealth: alpha * eta,
            wealth: alpha * eta,
            schedule,
            steps: Vec::new(),
        })
    }

    /// Current wealth.
    pub fn wealth(&self) -> f64 {
        self.wealth
    }

    /// Steps taken so far (append-only).
    pub fn steps(&self) -> &[GaiStep] {
        &self.steps
    }

    /// True while some positive penalty is affordable.
    pub fn can_continue(&self) -> bool {
        self.wealth > crate::investing::WEALTH_EPSILON
    }

    /// The (φ, α, ψ) triple the schedule would use right now.
    pub fn next_parameters(&self) -> (f64, f64, f64) {
        match self.schedule {
            GaiSchedule::FosterStine { level } => {
                let phi = level / (1.0 - level);
                (phi, level, phi + self.omega)
            }
            GaiSchedule::LinearPenalty { gamma } => {
                let level = self.initial_wealth / (gamma + self.initial_wealth);
                // φ = level makes the admissibility bound
                // φ/level + α − 1 = α, so the payout caps at exactly α.
                (level, level, self.alpha)
            }
        }
    }

    /// Tests the next hypothesis. The decision is final.
    pub fn test(&mut self, p: f64) -> Result<GaiStep> {
        check_p_value(p, "GeneralizedInvesting::test")?;
        if !self.can_continue() {
            return Err(MhtError::WealthExhausted {
                tests_run: self.steps.len(),
                remaining_wealth: self.wealth.max(0.0),
            });
        }
        let (phi, level, psi) = self.next_parameters();
        if phi > self.wealth + 1e-12 {
            return Err(MhtError::WealthExhausted {
                tests_run: self.steps.len(),
                remaining_wealth: self.wealth,
            });
        }
        // Enforce the generalized-investing payout constraint structurally:
        // ψ ≤ min(φ + α, φ/α_j + α − 1).
        debug_assert!(
            psi <= (phi + self.alpha).min(phi / level + self.alpha - 1.0) + 1e-12,
            "schedule violates the admissibility condition"
        );

        let decision = Decision::from_threshold(p, level);
        self.wealth -= phi;
        if decision.is_rejection() {
            self.wealth += psi;
        }
        self.wealth = self.wealth.max(0.0);
        let step = GaiStep {
            index: self.steps.len(),
            phi,
            level,
            psi,
            decision,
            wealth_after: self.wealth,
        };
        self.steps.push(step);
        Ok(step)
    }

    /// Runs a whole stream, accepting-by-default after exhaustion.
    pub fn decide_stream(&mut self, p_values: &[f64]) -> Result<Vec<Decision>> {
        let mut out = Vec::with_capacity(p_values.len());
        for &p in p_values {
            match self.test(p) {
                Ok(step) => out.push(step.decision),
                Err(MhtError::WealthExhausted { .. }) => out.push(Decision::Accept),
                Err(e) => return Err(e),
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::investing::policies::Fixed;
    use crate::investing::AlphaInvesting;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn foster_stine_schedule_matches_alpha_investing() {
        // The GAI machine with the F-S coupling must produce the exact
        // same wealth trajectory as AlphaInvesting with the same fixed bid.
        let level = 0.0475 / (10.0 + 0.0475); // γ-fixed(10)'s bid
        let mut gai =
            GeneralizedInvesting::new(0.05, 0.95, GaiSchedule::FosterStine { level }).unwrap();
        let mut fs = AlphaInvesting::new(0.05, 0.95, Fixed::new(10.0)).unwrap();
        let ps = [0.9, 0.001, 0.5, 0.3, 1e-6, 0.8];
        for &p in &ps {
            let g = gai.test(p).unwrap();
            let f = fs.test(p).unwrap();
            assert_eq!(g.decision, f.decision);
            assert!(
                (g.wealth_after - f.wealth_after).abs() < 1e-12,
                "wealth diverged: {} vs {}",
                g.wealth_after,
                f.wealth_after
            );
        }
    }

    #[test]
    fn linear_penalty_parameters_satisfy_the_constraint() {
        let mut gai =
            GeneralizedInvesting::new(0.05, 0.95, GaiSchedule::LinearPenalty { gamma: 10.0 })
                .unwrap();
        for i in 0..12 {
            let (phi, level, psi) = gai.next_parameters();
            assert!(phi > 0.0 && level > 0.0 && level < 1.0);
            assert!(
                psi <= (phi + 0.05).min(phi / level + 0.05 - 1.0) + 1e-12,
                "step {i}: psi {psi} violates the bound"
            );
            // LinearPenalty sits exactly on the second bound.
            assert!((psi - (phi / level + 0.05 - 1.0)).abs() < 1e-12);
            let p = if i % 4 == 0 { 1e-9 } else { 0.9 };
            gai.test(p).unwrap();
            assert!(gai.wealth() >= 0.0);
        }
    }

    #[test]
    fn linear_penalty_trades_cheaper_losses_for_smaller_rewards() {
        // Same level as γ-fixed(10) but the cheaper linear penalty: after
        // the same all-null stream, the LinearPenalty machine retains
        // strictly more wealth at every step…
        let mut gai =
            GeneralizedInvesting::new(0.05, 0.95, GaiSchedule::LinearPenalty { gamma: 10.0 })
                .unwrap();
        let mut fs = AlphaInvesting::new(0.05, 0.95, Fixed::new(10.0)).unwrap();
        for i in 0..9 {
            let g = gai.test(0.9).unwrap();
            let f = fs.test(0.9).unwrap();
            assert!(
                g.wealth_after > f.wealth_after,
                "step {i}: LinearPenalty {} vs γ-fixed {}",
                g.wealth_after,
                f.wealth_after
            );
            // Identical decisions — the levels are the same.
            assert_eq!(g.decision, f.decision);
        }
        // …its total null capacity is γ + W(0) budget units (vs γ):
        // cumulative penalties after 9 tests differ by 9·(charge − φ).
        let a_star = 0.0475 / (10.0 + 0.0475);
        let expected_gap = 9.0 * (a_star / (1.0 - a_star) - a_star);
        assert!((gai.wealth() - fs.wealth() - expected_gap).abs() < 1e-12);
        // …and its reward per discovery is smaller: ψ − φ = α − a* < α.
        let (phi, _, psi) = gai.next_parameters();
        assert!((psi - phi - (0.05 - a_star)).abs() < 1e-12);
    }

    #[test]
    fn empirical_false_discovery_control_under_null() {
        let mut rng = SmallRng::seed_from_u64(0x6A11);
        let sessions = 2500;
        let mut total_rejections = 0usize;
        for _ in 0..sessions {
            let mut gai =
                GeneralizedInvesting::new(0.05, 0.95, GaiSchedule::LinearPenalty { gamma: 10.0 })
                    .unwrap();
            for _ in 0..60 {
                let p: f64 = rng.gen();
                match gai.test(p) {
                    Ok(_) => {}
                    Err(MhtError::WealthExhausted { .. }) => break,
                    Err(e) => panic!("{e}"),
                }
            }
            total_rejections += gai
                .steps()
                .iter()
                .filter(|s| s.decision.is_rejection())
                .count();
        }
        let mean_v = total_rejections as f64 / sessions as f64;
        assert!(mean_v <= 0.05 + 0.015, "E[V] = {mean_v}");
    }

    #[test]
    fn validation_and_stream_padding() {
        assert!(
            GeneralizedInvesting::new(0.0, 0.95, GaiSchedule::LinearPenalty { gamma: 10.0 })
                .is_err()
        );
        assert!(
            GeneralizedInvesting::new(0.05, 0.0, GaiSchedule::LinearPenalty { gamma: 10.0 })
                .is_err()
        );
        assert!(
            GeneralizedInvesting::new(0.05, 0.95, GaiSchedule::LinearPenalty { gamma: 0.0 })
                .is_err()
        );
        assert!(
            GeneralizedInvesting::new(0.05, 0.95, GaiSchedule::FosterStine { level: 0.0 }).is_err()
        );
        let mut gai =
            GeneralizedInvesting::new(0.05, 0.95, GaiSchedule::FosterStine { level: 0.02 })
                .unwrap();
        assert!(gai.test(1.5).is_err());
        // F-S with a fixed level exhausts; the stream pads with accepts.
        let ds = gai.decide_stream(&[0.9; 20]).unwrap();
        assert_eq!(ds.len(), 20);
        assert!(ds.iter().all(|d| !d.is_rejection()));
    }
}
