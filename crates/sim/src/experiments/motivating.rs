//! The §1 motivating example, verified by Monte-Carlo.
//!
//! "Assume an analyst tests 100 potential correlations, 10 of them being
//! true, with per-test α = 0.05 and power 0.8. The user will find ≈ 13
//! correlations of which ≈ 5 (≈ 40%) are bogus."
//!
//! Expected values: E\[R\] = 10·0.8 + 90·0.05 = 12.5 discoveries,
//! E\[V\] = 4.5, so the expected false share is 4.5/12.5 = 36% — the paper
//! rounds to "≈ 40%". The experiment simulates the setting with one-sided
//! z-tests calibrated to power 0.8 and reports theoretical vs measured,
//! plus what Bonferroni and BH would have done on the same streams.

use crate::metrics::{aggregate, RepMetrics};
use crate::report::Figure;
use crate::runner::{par_map, RunConfig};
use aware_mht::registry::ProcedureSpec;
use aware_stats::special::inv_normal_cdf;
use aware_stats::summary::MeanCi;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Tests per session.
pub const M: usize = 100;
/// True correlations among them.
pub const TRUE_EFFECTS: usize = 10;
/// Per-test significance level.
pub const ALPHA: f64 = 0.05;
/// Target per-test power for the true effects.
pub const POWER: f64 = 0.8;

/// Generates one session of p-values matching the §1 parameters exactly:
/// one-sided z-tests where alternatives carry non-centrality
/// `z_{1−α} + z_{power}` (power is then `power` by construction).
pub fn generate_session(seed: u64) -> (Vec<f64>, Vec<bool>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let ncp = inv_normal_cdf(1.0 - ALPHA) + inv_normal_cdf(POWER);
    let mut ps = Vec::with_capacity(M);
    let mut truth = Vec::with_capacity(M);
    for i in 0..M {
        let alt = i < TRUE_EFFECTS;
        let z = sample_normal(&mut rng) + if alt { ncp } else { 0.0 };
        ps.push(aware_stats::special::normal_sf(z));
        truth.push(alt);
    }
    (ps, truth)
}

fn sample_normal(rng: &mut SmallRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Runs the experiment; one figure comparing theory, PCER, Bonferroni, BH.
pub fn run(cfg: &RunConfig) -> Vec<Figure> {
    let specs = [
        ProcedureSpec::Pcer,
        ProcedureSpec::Bonferroni,
        ProcedureSpec::BenjaminiHochberg,
        ProcedureSpec::Fixed { gamma: 10.0 },
    ];
    let mut fig = Figure::new(
        "§1 motivating example — 100 tests, 10 true, power 0.8",
        "metric",
        std::iter::once("theory (PCER)".to_string())
            .chain(specs.iter().map(|s| s.label()))
            .collect(),
    );

    // Theoretical PCER row values.
    let theory_r = TRUE_EFFECTS as f64 * POWER + (M - TRUE_EFFECTS) as f64 * ALPHA;
    let theory_v = (M - TRUE_EFFECTS) as f64 * ALPHA;
    let theory_share = theory_v / theory_r;

    // Monte-Carlo for each procedure.
    let per_spec: Vec<Vec<RepMetrics>> = specs
        .iter()
        .map(|spec| {
            par_map(cfg, |seed| {
                let (ps, truth) = generate_session(seed);
                let ds = spec.run(ALPHA, &ps).expect("valid p-values");
                RepMetrics::score(&ds, &truth)
            })
        })
        .collect();

    let exact = |v: f64| {
        Some(MeanCi {
            mean: v,
            half_width: 0.0,
            level: cfg.ci_level,
        })
    };
    let agg: Vec<_> = per_spec
        .iter()
        .map(|reps| aggregate(reps, cfg.ci_level))
        .collect();

    fig.push_row(
        "avg discoveries",
        std::iter::once(exact(theory_r))
            .chain(agg.iter().map(|a| Some(a.avg_discoveries)))
            .collect(),
    );
    fig.push_row(
        "avg false-discovery share",
        std::iter::once(exact(theory_share))
            .chain(agg.iter().map(|a| Some(a.avg_fdr)))
            .collect(),
    );
    fig.push_row(
        "avg power",
        std::iter::once(exact(POWER))
            .chain(agg.iter().map(|a| a.avg_power))
            .collect(),
    );
    vec![fig]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pcer_matches_paper_arithmetic() {
        let cfg = RunConfig {
            reps: 400,
            ..RunConfig::default()
        };
        let figs = run(&cfg);
        let fig = &figs[0];
        // Column 1 is simulated PCER.
        let disc = fig.rows[0].cells[1].unwrap().mean;
        assert!((disc - 12.5).abs() < 0.5, "E[R] = {disc}, paper says ≈13");
        let share = fig.rows[1].cells[1].unwrap().mean;
        assert!(
            (0.30..0.45).contains(&share),
            "false share {share}, paper says ≈40%"
        );
        let power = fig.rows[2].cells[1].unwrap().mean;
        assert!((power - 0.8).abs() < 0.03, "power {power}");
    }

    #[test]
    fn corrections_cut_the_false_share() {
        let cfg = RunConfig {
            reps: 300,
            ..RunConfig::default()
        };
        let figs = run(&cfg);
        let fig = &figs[0];
        let pcer_share = fig.rows[1].cells[1].unwrap().mean;
        let bonf_share = fig.rows[1].cells[2].unwrap().mean;
        let bh_share = fig.rows[1].cells[3].unwrap().mean;
        let invest_share = fig.rows[1].cells[4].unwrap().mean;
        assert!(bonf_share < 0.05, "Bonferroni share {bonf_share}");
        assert!(bh_share <= 0.05 + 0.02, "BH share {bh_share}");
        assert!(invest_share <= 0.05 + 0.02, "γ-fixed share {invest_share}");
        assert!(
            pcer_share > 4.0 * bh_share,
            "correction should slash the share"
        );
    }

    #[test]
    fn session_generation_shape() {
        let (ps, truth) = generate_session(5);
        assert_eq!(ps.len(), M);
        assert_eq!(truth.iter().filter(|&&t| t).count(), TRUE_EFFECTS);
        assert!(ps.iter().all(|p| (0.0..=1.0).contains(p)));
        assert_eq!(generate_session(5), generate_session(5));
    }
}
