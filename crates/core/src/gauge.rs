//! The risk gauge — a textual rendering of the paper's Figure 2.
//!
//! The gauge shows the procedure summary (policy, α budget, remaining
//! wealth) and one entry per hypothesis: color-coded decision, the
//! alternative/null labels, p-value vs granted bid, effect size with its
//! qualitative magnitude, the `n_H1` squares, and star/status markers.
//! Terminal color is deliberately avoided — the string renders anywhere a
//! test log does.
//!
//! The gauge is re-shown after every interaction, and only its header
//! can change between two reads of an append-only ledger. So there are
//! two entry points over the same pieces (header, one entry line per
//! hypothesis, footer): [`render`] formats everything from a `&Session`,
//! [`render_memo`] takes `&mut Session` and reuses the entry lines the
//! session has already rendered. They return the same bytes.

use crate::hypothesis::{Hypothesis, HypothesisStatus};
use crate::nh1::render_squares;
use crate::session::{LedgerText, Session};
use aware_mht::investing::InvestingPolicy;
use aware_stats::effect::EffectMagnitude;
use std::fmt::Write as _;

/// Renders the full risk gauge for a session, from scratch: every entry
/// is formatted on every call. This is the reference the memoised
/// [`render_memo`] is checked against.
pub fn render<P: InvestingPolicy>(session: &Session<P>) -> String {
    let mut out = String::new();
    header(&mut out, session);
    for h in session.hypotheses() {
        entry_line(&mut out, h);
    }
    footer(&mut out);
    out
}

/// [`render`], byte for byte, for a caller that holds the session
/// mutably and re-reads the gauge after every interaction: the entry
/// lines come from the session's ledger-text memo, so a refresh formats
/// only the entries added since the last one. The header is rendered
/// fresh each time (wealth, policy and counts are the part that moves).
pub fn render_memo<P: InvestingPolicy>(session: &mut Session<P>) -> String {
    let mut out = String::new();
    header(&mut out, session);
    session.append_ledger_text(LedgerText::GaugeLines, &mut out);
    footer(&mut out);
    out
}

/// The procedure summary above the entry list.
fn header<P: InvestingPolicy>(out: &mut String, session: &Session<P>) {
    let wealth_pct = session.wealth() * 100.0;
    let alpha_pct = session.alpha() * 100.0;
    let _ = writeln!(
        out,
        "┌─ AWARE risk gauge ─────────────────────────────────────"
    );
    let _ = writeln!(
        out,
        "│ policy {}   mFDR budget α = {alpha_pct:.1}%   wealth {wealth_pct:.2}%",
        session.policy_name(),
    );
    let _ = writeln!(
        out,
        "│ hypotheses {}   discoveries {}   can continue: {}",
        session.hypotheses().len(),
        session.discovery_count(),
        if session.can_continue() {
            "yes"
        } else {
            "NO — stop exploring"
        },
    );
    let _ = writeln!(
        out,
        "├────────────────────────────────────────────────────────"
    );
    if session.hypotheses().is_empty() {
        let _ = writeln!(out, "│ (no hypotheses tracked yet)");
    }
}

fn footer(out: &mut String) {
    out.push_str("└────────────────────────────────────────────────────────");
}

/// One line of the entry list, written straight into `out`.
pub(crate) fn entry_line(out: &mut String, h: &Hypothesis) {
    out.push_str("│ ");
    // Writing into a `String` cannot fail.
    let _ = write_entry(out, h);
    out.push('\n');
}

fn write_entry(out: &mut String, h: &Hypothesis) -> std::fmt::Result {
    let mark = match &h.status {
        HypothesisStatus::Tested(r) if r.decision.is_rejection() => "[✓]",
        HypothesisStatus::Tested(_) => "[✗]",
        HypothesisStatus::Untestable => "[–]",
        HypothesisStatus::Superseded { .. } => "[⇢]",
        HypothesisStatus::Deleted => "[␡]",
    };
    write!(out, "{mark} {} ", h.id)?;
    h.null.write_label(out, false)?;
    match &h.status {
        HypothesisStatus::Tested(r) => {
            out.push_str("  H1: ");
            h.null.write_label(out, true)?;
            let effect = r.outcome.effect_size;
            write!(
                out,
                "  p={:.4} vs α_j={:.4}  {}={effect:.3} ({})",
                r.outcome.p_value,
                r.bid,
                effect_name(r),
                EffectMagnitude::classify(effect),
            )?;
            if let Some(flip) = &r.flip {
                write!(out, "  {}", render_squares(flip))?;
            }
        }
        HypothesisStatus::Untestable => out.push_str("  (not testable on this data)"),
        HypothesisStatus::Superseded { by } => write!(out, "  (superseded by H{})", by.0)?,
        HypothesisStatus::Deleted => out.push_str("  (declared descriptive)"),
    }
    if h.bookmarked {
        out.push_str(" ★");
    }
    Ok(())
}

fn effect_name(r: &crate::hypothesis::TestRecord) -> &'static str {
    use aware_stats::tests::TestKind;
    match r.outcome.kind {
        TestKind::ChiSquareGof | TestKind::ChiSquareIndependence | TestKind::GTest => "cramér's v",
        TestKind::TwoProportionZ | TestKind::ExactBinomial => "cohen's h",
        TestKind::FisherExact => "phi",
        TestKind::MannWhitneyU => "rank-biserial r",
        TestKind::KolmogorovSmirnov => "ks D",
        TestKind::OneWayAnova => "η",
        _ => "cohen's d",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aware_data::census::CensusGenerator;
    use aware_data::predicate::Predicate;
    use aware_mht::investing::policies::Fixed;

    #[test]
    fn gauge_renders_all_states() {
        let table = CensusGenerator::new(8).generate(6_000);
        let mut s = Session::new(table, 0.05, Fixed::new(10.0)).unwrap();
        s.add_visualization("sex", Predicate::True).unwrap(); // descriptive
        let f = Predicate::eq("salary_over_50k", true);
        let (m1, _) = s
            .add_visualization("education", f.clone())
            .unwrap()
            .hypothesis
            .unwrap();
        s.add_visualization("education", f.clone().negate())
            .unwrap(); // supersedes m1
        let (del, _) = s
            .add_visualization("race", Predicate::eq("sex", "Female"))
            .unwrap()
            .hypothesis
            .unwrap();
        s.delete_hypothesis(del).unwrap();
        s.add_visualization("sex", Predicate::eq("education", "Kindergarten"))
            .unwrap(); // untestable
        let (star, _) = s
            .add_visualization("marital_status", Predicate::eq("education", "PhD"))
            .unwrap()
            .hypothesis
            .unwrap();
        s.bookmark(star).unwrap();

        let text = render(&s);
        assert!(text.contains("AWARE risk gauge"));
        assert!(text.contains("γ-fixed"));
        assert!(text.contains("α = 5.0%"));
        assert!(text.contains("[✓]"), "discovery mark:\n{text}");
        assert!(text.contains("[⇢]"), "superseded mark:\n{text}");
        assert!(text.contains("[␡]"), "deleted mark:\n{text}");
        assert!(text.contains("[–]"), "untestable mark:\n{text}");
        assert!(text.contains('★'), "bookmark star:\n{text}");
        assert!(text.contains("<>"), "alternative labels:\n{text}");
        // m1 line carries the superseding pointer.
        assert!(text.contains(&format!("superseded by H{}", m1.0 + 1)));
    }

    #[test]
    fn empty_session_gauge() {
        let table = CensusGenerator::new(9).generate(100);
        let s = Session::new(table, 0.05, Fixed::new(10.0)).unwrap();
        let text = render(&s);
        assert!(text.contains("no hypotheses tracked yet"));
        assert!(text.contains("can continue: yes"));
    }

    #[test]
    fn exhausted_session_warns() {
        let table = CensusGenerator::new(10).generate(2_000);
        let mut s = Session::new(table, 0.05, Fixed::new(1.0)).unwrap();
        for wave in ["Wave-1", "Wave-2"] {
            let _ = s.add_visualization("race", Predicate::eq("survey_wave", wave));
            if !s.can_continue() {
                break;
            }
        }
        if !s.can_continue() {
            assert!(render(&s).contains("stop exploring"));
        }
    }
}
