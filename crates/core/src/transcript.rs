//! Session transcripts: an exportable audit log of every hypothesis.
//!
//! The paper's §3 requires that "the user should be able to see the
//! hypotheses the system assumed so far, their p-values, effect sizes and
//! if they are considered significant". The risk gauge shows that live;
//! this module makes it durable — a CSV any statistician can audit, with
//! one row per hypothesis in test order, including the α-investing
//! bookkeeping that justifies each decision.
//!
//! [`export_csv`] / [`export_text`] render from scratch; the `_memo`
//! variants take `&mut Session` and reuse the rows (gauge lines) the
//! session's ledger-text memo already holds. Both are the same header
//! plus one `row` per hypothesis, so the bytes are identical.

use crate::gauge;
use crate::hypothesis::{Hypothesis, HypothesisStatus};
use crate::session::{LedgerText, Session};
use aware_mht::investing::InvestingPolicy;
use std::fmt::Write as _;

/// CSV header of the transcript format.
pub const TRANSCRIPT_HEADER: &str = "hypothesis,status,null,alternative,test,statistic,df,\
p_value,bid,decision,wealth_after,support_fraction,effect_size,bookmarked,source_viz";

/// Exports the session's hypothesis ledger as CSV (stable column set; see
/// [`TRANSCRIPT_HEADER`]), formatting every row on every call.
pub fn export_csv<P: InvestingPolicy>(session: &Session<P>) -> String {
    let mut out = csv_header();
    for h in session.hypotheses() {
        row(&mut out, h);
    }
    out
}

/// [`export_csv`], byte for byte, with the rows taken from the session's
/// ledger-text memo.
pub fn export_csv_memo<P: InvestingPolicy>(session: &mut Session<P>) -> String {
    let mut out = csv_header();
    session.append_ledger_text(LedgerText::CsvRows, &mut out);
    out
}

fn csv_header() -> String {
    let mut out = String::from(TRANSCRIPT_HEADER);
    out.push('\n');
    out
}

/// One CSV row (with its line terminator) of the transcript.
pub(crate) fn row(out: &mut String, h: &Hypothesis) {
    let (status, test, stat, df, p, bid, decision, wealth, support, effect) = match &h.status {
        HypothesisStatus::Tested(r) => (
            "tested".to_string(),
            r.outcome.kind.to_string(),
            fmt(r.outcome.statistic),
            fmt(r.outcome.df),
            fmt(r.outcome.p_value),
            fmt(r.bid),
            r.decision.to_string(),
            fmt(r.wealth_after),
            fmt(r.support_fraction),
            fmt(r.outcome.effect_size),
        ),
        HypothesisStatus::Untestable => blank_row("untestable"),
        HypothesisStatus::Superseded { by } => blank_row(&format!("superseded-by-H{}", by.0)),
        HypothesisStatus::Deleted => blank_row("deleted"),
    };
    let _ = writeln!(
        out,
        "H{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
        h.id.0,
        status,
        quote(&h.null.null_label()),
        quote(&h.null.alternative_label()),
        test,
        stat,
        df,
        p,
        bid,
        decision,
        wealth,
        support,
        effect,
        h.bookmarked,
        h.source.map(|v| format!("viz#{}", v.0)).unwrap_or_default(),
    );
}

/// Exports a human-readable audit: session summary, visualization list,
/// and the rendered risk gauge.
pub fn export_text<P: InvestingPolicy>(session: &Session<P>) -> String {
    let mut out = text_preamble(session);
    let _ = writeln!(out, "\n{}", gauge::render(session));
    out
}

/// [`export_text`], byte for byte, over [`gauge::render_memo`].
pub fn export_text_memo<P: InvestingPolicy>(session: &mut Session<P>) -> String {
    let mut out = text_preamble(session);
    let _ = writeln!(out, "\n{}", gauge::render_memo(session));
    out
}

/// Everything of the text transcript above the gauge.
fn text_preamble<P: InvestingPolicy>(session: &Session<P>) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "AWARE session transcript");
    let _ = writeln!(
        out,
        "policy: {}   α = {}   wealth: {:.6}   hypotheses: {}   discoveries: {}",
        session.policy_name(),
        session.alpha(),
        session.wealth(),
        session.hypotheses().len(),
        session.discovery_count(),
    );
    let _ = writeln!(out, "\nvisualizations:");
    for v in session.visualizations() {
        let _ = writeln!(out, "  {} {}", v.id, v.label());
    }
    out
}

/// A superseded/deleted/untestable row keeps its label columns but blanks
/// out the numeric ones. Superseded hypotheses' original decisions remain
/// in the investing ledger; the transcript records the *current* status.
fn blank_row(
    status: &str,
) -> (
    String,
    String,
    String,
    String,
    String,
    String,
    String,
    String,
    String,
    String,
) {
    (
        status.to_string(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
    )
}

fn fmt(v: f64) -> String {
    if v.is_nan() {
        String::new()
    } else {
        format!("{v}")
    }
}

/// RFC 4180: a field holding a separator, a quote or a line break is
/// quoted (an unquoted `\n` in a label would split one hypothesis into
/// two rows of the audit record).
fn quote(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aware_data::census::CensusGenerator;
    use aware_data::predicate::Predicate;
    use aware_mht::investing::policies::Fixed;

    fn populated_session() -> Session<Fixed> {
        let table = CensusGenerator::new(61).generate(5_000);
        let mut s = Session::new(table, 0.05, Fixed::new(10.0)).unwrap();
        s.add_visualization("sex", Predicate::True).unwrap();
        let f = Predicate::eq("salary_over_50k", true);
        let (m1, _) = s
            .add_visualization("education", f.clone())
            .unwrap()
            .hypothesis
            .unwrap();
        s.add_visualization("education", f.negate()).unwrap(); // supersedes m1
        let (d, _) = s
            .add_visualization("race", Predicate::eq("sex", "Female"))
            .unwrap()
            .hypothesis
            .unwrap();
        s.delete_hypothesis(d).unwrap();
        let _ = m1;
        let last = s.hypotheses().last().unwrap().id;
        let _ = last;
        s
    }

    #[test]
    fn csv_has_one_row_per_hypothesis() {
        let s = populated_session();
        let csv = export_csv(&s);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], TRANSCRIPT_HEADER);
        assert_eq!(lines.len() - 1, s.hypotheses().len());
        // Field count is constant across rows.
        let fields = TRANSCRIPT_HEADER.split(',').count();
        for line in &lines[1..] {
            // Quoted commas only appear in labels; count conservatively by
            // stripping quoted sections first.
            let mut in_quotes = false;
            let mut count = 1;
            for c in line.chars() {
                match c {
                    '"' => in_quotes = !in_quotes,
                    ',' if !in_quotes => count += 1,
                    _ => {}
                }
            }
            assert_eq!(count, fields, "row: {line}");
        }
    }

    #[test]
    fn labels_with_line_breaks_stay_one_csv_row() {
        use aware_data::value::Value;
        let table = CensusGenerator::new(62).generate(3_000);
        let mut s = Session::new(table, 0.05, Fixed::new(10.0)).unwrap();
        // Unknown labels are accepted and match no row; the known label
        // beside them keeps the view testable.
        for odd in ["Ph\nD", "Ph\r\nD", "Ph,D", "Ph\"D"] {
            let filter = Predicate::In {
                column: "education".into(),
                values: vec![Value::from("Bachelors"), Value::from(odd)],
            };
            s.add_visualization("sex", filter).unwrap();
            s.add_visualization("race", Predicate::eq("education", odd))
                .unwrap();
        }
        assert_eq!(s.hypotheses().len(), 8);
        let csv = export_csv(&s);
        // Quote-aware record split: a line break inside quotes belongs
        // to the field, not to the record structure.
        let mut rows = 0;
        let mut in_quotes = false;
        for c in csv.chars() {
            match c {
                '"' => in_quotes = !in_quotes,
                '\n' if !in_quotes => rows += 1,
                _ => {}
            }
        }
        assert!(!in_quotes, "unbalanced quotes:\n{csv}");
        assert_eq!(rows, s.hypotheses().len() + 1, "{csv}");
    }

    #[test]
    fn csv_reflects_statuses_and_bookmarks() {
        let mut s = populated_session();
        let star = s.discoveries()[0].id;
        s.bookmark(star).unwrap();
        let csv = export_csv(&s);
        assert!(csv.contains("tested"));
        assert!(csv.contains("superseded-by-H"));
        assert!(csv.contains("deleted"));
        assert!(csv.contains("chi-square"));
        assert!(csv.contains(",true,"), "bookmark column:\n{csv}");
        // The deleted row blanks its numeric columns.
        let deleted_line = csv.lines().find(|l| l.contains("deleted")).unwrap();
        assert!(deleted_line.contains(",,,"), "{deleted_line}");
    }

    #[test]
    fn text_transcript_is_complete() {
        let s = populated_session();
        let text = export_text(&s);
        assert!(text.contains("AWARE session transcript"));
        assert!(text.contains("policy: γ-fixed"));
        assert!(text.contains("visualizations:"));
        assert!(text.contains("viz#0 sex"));
        assert!(text.contains("AWARE risk gauge"));
    }

    #[test]
    fn transcript_csv_parses_back_with_data_engine() {
        // The transcript is itself valid CSV per our own reader.
        let s = populated_session();
        let csv = export_csv(&s);
        let table = aware_data::csv::read_csv(csv.as_bytes()).unwrap();
        assert_eq!(table.rows(), s.hypotheses().len());
        assert_eq!(
            table.column_names().len(),
            TRANSCRIPT_HEADER.split(',').count()
        );
        assert_eq!(table.column_names()[0], "hypothesis");
    }
}
