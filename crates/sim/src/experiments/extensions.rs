//! Post-paper online-FDR procedures vs the paper's α-investing rules
//! (extension; the §9 "developing new testing procedures" future work).
//!
//! LOND and LORD++ grew directly out of the α-investing line and control
//! the *actual* FDR (not only mFDR) online; generalized α-investing
//! (Aharoni & Rosset — the paper's own ref \[1\]) relaxes the
//! penalty/payout coupling. This experiment runs all of them on the
//! Exp.1b workloads so the paper's rules can be read side by side with
//! their successors.

use super::{panel_figure, synthetic_grid};
use crate::report::{Figure, Panel};
use crate::runner::RunConfig;
use crate::workload::SyntheticWorkload;
use aware_mht::registry::ProcedureSpec;

pub use super::exp1a::M_SWEEP;

/// The comparison set.
pub fn procedures() -> Vec<ProcedureSpec> {
    vec![
        ProcedureSpec::Fixed { gamma: 10.0 },
        ProcedureSpec::Hybrid {
            gamma: 10.0,
            delta: 10.0,
            epsilon: 0.5,
            window: None,
        },
        ProcedureSpec::BestFootForward,
        ProcedureSpec::GaiLinearPenalty { gamma: 10.0 },
        ProcedureSpec::Lond,
        ProcedureSpec::LordPlusPlus,
    ]
}

/// Runs the comparison on 25% and 75% null workloads.
pub fn run(cfg: &RunConfig) -> Vec<Figure> {
    let procedures = procedures();
    let mut figures = Vec::new();
    for (null_fraction, tag) in [(0.25, "25% Null"), (0.75, "75% Null")] {
        let sweep: Vec<(String, SyntheticWorkload)> = M_SWEEP
            .iter()
            .map(|&m| {
                (
                    m.to_string(),
                    SyntheticWorkload::paper_default(m, null_fraction),
                )
            })
            .collect();
        let grid = synthetic_grid(&sweep, &procedures, cfg);
        for panel in [Panel::Fdr, Panel::Power] {
            figures.push(panel_figure(
                format!(
                    "Extensions — online FDR vs α-investing, {tag}: {}",
                    panel.title()
                ),
                "num hypotheses",
                &procedures,
                &grid,
                panel,
            ));
        }
    }
    figures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_extension_controls_fdr() {
        let cfg = RunConfig {
            reps: 120,
            ..RunConfig::default()
        };
        let figs = run(&cfg);
        assert_eq!(figs.len(), 4);
        // Match the panel name, not the figure family name (which itself
        // contains the string "FDR").
        for fig in figs.iter().filter(|f| f.title.ends_with("Avg. FDR")) {
            for row in &fig.rows {
                for (series, cell) in fig.series.iter().zip(&row.cells) {
                    let ci = cell.unwrap();
                    assert!(
                        ci.mean <= 0.05 + 2.0 * ci.half_width + 0.02,
                        "{series} at m={}: FDR {}",
                        row.x,
                        ci.mean
                    );
                }
            }
        }
    }

    #[test]
    fn lord_is_competitive_on_signal_rich_streams() {
        // LORD++'s payout redistribution makes it strong when discoveries
        // are frequent: at 25% null, m = 64, it should be within striking
        // distance of γ-fixed.
        let cfg = RunConfig {
            reps: 150,
            ..RunConfig::default()
        };
        let figs = run(&cfg);
        let power = figs
            .iter()
            .find(|f| f.title.contains("25%") && f.title.ends_with("Avg. Power"))
            .unwrap();
        let last = power.rows.last().unwrap();
        let series = &power.series;
        let of = |name: &str| {
            last.cells[series.iter().position(|s| s == name).unwrap()]
                .unwrap()
                .mean
        };
        let fixed = of("Fixed");
        let lord = of("LORD++");
        assert!(lord > fixed * 0.5, "LORD++ {lord} vs Fixed {fixed}");
        // Best-foot-forward dies early: far below everything at m = 64.
        let bff = of("BestFoot");
        assert!(bff < fixed, "BestFoot {bff} should trail Fixed {fixed}");
    }
}
