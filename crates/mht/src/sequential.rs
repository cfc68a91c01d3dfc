//! Incremental procedures that predate α-investing (§4.2–4.3).
//!
//! * [`AlphaSpending`] — the streaming Bonferroni variant that tests the
//!   j-th hypothesis at `α·2⁻ʲ`. Interactive (decisions are final) but the
//!   threshold decays exponentially, so power dies within a dozen tests.
//! * [`ForwardStop`] — the Sequential FDR rule of G'Sell et al. \[15\]:
//!   reject the longest prefix whose average surprisal
//!   `(1/k)·Σᵢ≤ₖ −ln(1−pᵢ)` stays at or below α. Incremental but
//!   **non-interactive**: a small p-value arriving late can pull the
//!   running average down and flip earlier acceptances into rejections,
//!   which is exactly the behaviour the paper's §5 rules out for an IDE.

use crate::decision::Decision;
use crate::{check_alpha, check_p_value, Result};

// ---------------------------------------------------------------------------
// α-spending
// ---------------------------------------------------------------------------

/// Streaming Bonferroni: hypothesis `j` (1-based) is tested at `α·2⁻ʲ`.
///
/// Σⱼ α·2⁻ʲ = α, so FWER is controlled at `α` for any (even infinite)
/// number of hypotheses without knowing `m` upfront.
#[derive(Debug, Clone)]
pub struct AlphaSpending {
    alpha: f64,
    tests_run: u32,
}

impl AlphaSpending {
    /// Creates the procedure at level `alpha`.
    pub fn new(alpha: f64) -> Result<AlphaSpending> {
        check_alpha(alpha, "AlphaSpending::new")?;
        Ok(AlphaSpending {
            alpha,
            tests_run: 0,
        })
    }

    /// Threshold that will be applied to the *next* hypothesis.
    pub fn next_threshold(&self) -> f64 {
        // α·2^{-(j+1)} for the upcoming (j+1)-th test; saturates at 0 once
        // the exponent exceeds f64 range, which is statistically honest.
        self.alpha * (0.5f64).powi(self.tests_run.saturating_add(1).min(i32::MAX as u32) as i32)
    }

    /// Tests the next hypothesis in the stream. The decision is final.
    pub fn test_next(&mut self, p: f64) -> Result<Decision> {
        check_p_value(p, "AlphaSpending::test_next")?;
        let threshold = self.next_threshold();
        self.tests_run += 1;
        Ok(Decision::from_threshold(p, threshold))
    }

    /// Number of hypotheses tested so far.
    pub fn tests_run(&self) -> usize {
        self.tests_run as usize
    }

    /// Runs the whole stream, returning one final decision per p-value.
    pub fn decide_stream(alpha: f64, p_values: &[f64]) -> Result<Vec<Decision>> {
        let mut proc = AlphaSpending::new(alpha)?;
        p_values.iter().map(|&p| proc.test_next(p)).collect()
    }
}

// ---------------------------------------------------------------------------
// ForwardStop (Sequential FDR)
// ---------------------------------------------------------------------------

/// Sequential FDR via the ForwardStop rule of G'Sell et al. (2016).
///
/// After observing `p₁…pₘ` in stream order, let
/// `Ŷₖ = (1/k)·Σ_{i≤k} −ln(1−pᵢ)` and `k̂ = max{k : Ŷₖ ≤ α}`; reject
/// hypotheses `1…k̂`. Controls FDR at `α` when the p-values are independent.
#[derive(Debug, Clone)]
pub struct ForwardStop {
    alpha: f64,
    surprisal_sum: f64,
    observed: Vec<f64>,
    k_hat: usize,
}

impl ForwardStop {
    /// Creates the procedure at level `alpha`.
    pub fn new(alpha: f64) -> Result<ForwardStop> {
        check_alpha(alpha, "ForwardStop::new")?;
        Ok(ForwardStop {
            alpha,
            surprisal_sum: 0.0,
            observed: Vec::new(),
            k_hat: 0,
        })
    }

    /// Observes the next p-value in the stream.
    pub fn observe(&mut self, p: f64) -> Result<()> {
        check_p_value(p, "ForwardStop::observe")?;
        // −ln(1−p) diverges at p = 1; clamp so one uninformative test does
        // not poison the running sum with infinity.
        let clamped = p.min(1.0 - 1e-16);
        self.surprisal_sum += -(1.0 - clamped).ln();
        self.observed.push(p);
        let k = self.observed.len();
        if self.surprisal_sum / k as f64 <= self.alpha {
            self.k_hat = k;
        }
        Ok(())
    }

    /// Current rejection-prefix length `k̂`.
    pub fn k_hat(&self) -> usize {
        self.k_hat
    }

    /// Number of p-values observed.
    pub fn observed(&self) -> usize {
        self.observed.len()
    }

    /// Current decisions: reject the first `k̂` hypotheses.
    ///
    /// Note these are *provisional* — observing further p-values may grow
    /// `k̂` and overturn earlier acceptances (never earlier rejections).
    pub fn decisions(&self) -> Vec<Decision> {
        (0..self.observed.len())
            .map(|i| {
                if i < self.k_hat {
                    Decision::Reject
                } else {
                    Decision::Accept
                }
            })
            .collect()
    }

    /// Runs the whole stream and returns the final decisions.
    pub fn decide_stream(alpha: f64, p_values: &[f64]) -> Result<Vec<Decision>> {
        let mut proc = ForwardStop::new(alpha)?;
        for &p in p_values {
            proc.observe(p)?;
        }
        Ok(proc.decisions())
    }
}

/// Convenience: detects whether feeding `p_values` one-by-one would ever
/// overturn a previously announced acceptance — used by tests and docs to
/// demonstrate why ForwardStop is non-interactive.
pub fn forward_stop_overturns(alpha: f64, p_values: &[f64]) -> Result<bool> {
    let mut proc = ForwardStop::new(alpha)?;
    let mut prev_decisions: Vec<Decision> = Vec::new();
    for &p in p_values {
        proc.observe(p)?;
        let now = proc.decisions();
        for (i, prev) in prev_decisions.iter().enumerate() {
            if *prev == Decision::Accept && now[i] == Decision::Reject {
                return Ok(true);
            }
        }
        prev_decisions = now;
    }
    Ok(false)
}

impl std::fmt::Display for ForwardStop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ForwardStop(α={}, k̂={}/{})",
            self.alpha,
            self.k_hat,
            self.observed.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::num_rejections;

    #[test]
    fn alpha_spending_thresholds_halve() {
        let mut proc = AlphaSpending::new(0.05).unwrap();
        assert!((proc.next_threshold() - 0.025).abs() < 1e-15);
        proc.test_next(0.5).unwrap();
        assert!((proc.next_threshold() - 0.0125).abs() < 1e-15);
        proc.test_next(0.5).unwrap();
        assert!((proc.next_threshold() - 0.00625).abs() < 1e-15);
        assert_eq!(proc.tests_run(), 2);
    }

    #[test]
    fn alpha_spending_decisions() {
        // Thresholds: .025, .0125, .00625, .003125 …
        let ds = AlphaSpending::decide_stream(0.05, &[0.02, 0.02, 0.001, 0.004]).unwrap();
        assert_eq!(
            ds,
            vec![
                Decision::Reject,
                Decision::Accept,
                Decision::Reject,
                Decision::Accept
            ]
        );
    }

    #[test]
    fn alpha_spending_total_budget_bounded() {
        // The sum of all thresholds never exceeds α.
        let mut proc = AlphaSpending::new(0.05).unwrap();
        let mut total = 0.0;
        for _ in 0..200 {
            total += proc.next_threshold();
            proc.test_next(0.9).unwrap();
        }
        assert!(total <= 0.05 + 1e-12, "spent {total}");
    }

    #[test]
    fn forward_stop_hand_worked() {
        // Surprisals: −ln(1−p). p=.01 → .01005; p=.02 → .0202; p=.5 → .693.
        // k=1: avg .01005 ≤ .05 ✓ → k̂=1
        // k=2: avg (.01005+.0202)/2 = .0151 ✓ → k̂=2
        // k=3: avg (.0303+.693)/3 = .2411 ✗ → k̂ stays 2.
        let mut proc = ForwardStop::new(0.05).unwrap();
        for &p in &[0.01, 0.02, 0.5] {
            proc.observe(p).unwrap();
        }
        assert_eq!(proc.k_hat(), 2);
        assert_eq!(
            proc.decisions(),
            vec![Decision::Reject, Decision::Reject, Decision::Accept]
        );
        assert!(proc.to_string().contains("k̂=2"));
    }

    #[test]
    fn forward_stop_is_order_sensitive() {
        // The same multiset of p-values gives different rejection counts in
        // different orders — the §4.3 criticism of Sequential FDR.
        let good_order = [0.001, 0.002, 0.003, 0.9];
        let bad_order = [0.9, 0.001, 0.002, 0.003];
        let a = num_rejections(&ForwardStop::decide_stream(0.05, &good_order).unwrap());
        let b = num_rejections(&ForwardStop::decide_stream(0.05, &bad_order).unwrap());
        assert_eq!(a, 3);
        assert_eq!(b, 0, "leading high p-value poisons the prefix average");
    }

    #[test]
    fn forward_stop_overturns_acceptances() {
        // p₁ = .12 alone: avg surprisal .1278 > .05 → accepted.
        // Three tiny p-values later the prefix average drops below .05 and
        // H₁ flips to rejected — the non-interactive behaviour.
        let ps = [0.12, 0.0001, 0.0001, 0.0001];
        assert!(forward_stop_overturns(0.05, &ps).unwrap());
        // A monotone stream never overturns.
        assert!(!forward_stop_overturns(0.05, &[0.001, 0.2, 0.5, 0.9]).unwrap());
    }

    #[test]
    fn forward_stop_p_equal_one_is_finite() {
        let mut proc = ForwardStop::new(0.05).unwrap();
        proc.observe(1.0).unwrap();
        proc.observe(0.0).unwrap();
        assert_eq!(proc.observed(), 2);
        // Sum is finite; decisions well-defined.
        assert_eq!(proc.decisions().len(), 2);
    }

    #[test]
    fn validation() {
        assert!(AlphaSpending::new(0.0).is_err());
        assert!(ForwardStop::new(1.0).is_err());
        let mut p = ForwardStop::new(0.05).unwrap();
        assert!(p.observe(1.2).is_err());
        let mut s = AlphaSpending::new(0.05).unwrap();
        assert!(s.test_next(-0.1).is_err());
    }

    #[test]
    fn alpha_spending_many_tests_saturate_to_zero_threshold() {
        let mut proc = AlphaSpending::new(0.05).unwrap();
        for _ in 0..1100 {
            proc.test_next(0.5).unwrap();
        }
        assert_eq!(proc.next_threshold(), 0.0);
        // Even p = 0 … well, p = 0 would still reject (0 ≤ 0); p > 0 cannot.
        assert_eq!(proc.test_next(1e-300).unwrap(), Decision::Accept);
    }
}
