//! The AWARE exploration session — the system's public entry point.
//!
//! A session owns a table, an α-investing machine, and the hypothesis
//! tracker. Its contract mirrors the paper's §3 design goals:
//!
//! 1. every hypothesis the heuristics derive is visible, labelled, and
//!    annotated with p-value / effect size / `n_H1`;
//! 2. **decisions are never revised**: the investing ledger is
//!    append-only, and superseding or deleting a hypothesis does not
//!    reopen its test;
//! 3. the remaining α-wealth is always on display, and when it runs out
//!    the session refuses further tests (`AwareError::is_wealth_exhausted`)
//!    rather than silently degrading the guarantee;
//! 4. users can bookmark "important discoveries"; by the paper's
//!    Theorem 1 the bookmarked subset inherits the mFDR bound as long as
//!    bookmarking doesn't peek at p-values.

use crate::engine::{execute, Execution};
use crate::error::AwareError;
use crate::heuristics::{derive_default_hypothesis, Derived};
use crate::hypothesis::{Hypothesis, HypothesisId, HypothesisStatus, NullSpec, TestRecord};
use crate::nh1;
use crate::viz::{Visualization, VizId};
use crate::{gauge, transcript, Result};
use aware_data::cache::EvalCache;
use aware_data::table::Table;
use aware_mht::investing::{AlphaInvesting, InvestingPolicy, MachineSnapshot};
use aware_mht::MhtError;
use std::sync::Arc;

/// Frozen, serializable image of a session: the investing machine's
/// snapshot plus the visualization and hypothesis histories. This is
/// *all* the state a session owns — deliberately, no selection bitmaps
/// and nothing sized by the table: selections are a pure function of
/// the stored predicates, derived lazily through the per-dataset
/// [`EvalCache`] by the first test that needs them, so a snapshot's
/// size tracks the exploration, never the data. The ledger-text memo is
/// likewise absent: it is derived from `hypotheses` and refills on the
/// restored session's reads.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSnapshot {
    /// The α-investing machine: parameters + full ledger.
    pub machine: MachineSnapshot,
    /// Every visualization ever placed, in order (ids are dense).
    pub visualizations: Vec<Visualization>,
    /// Every hypothesis ever tracked, in order (ids are dense).
    pub hypotheses: Vec<Hypothesis>,
}

/// One product of the [`LedgerMemo`]: the rendered text of
/// `hypotheses[..upto]`.
#[derive(Default)]
struct MemoBody {
    text: String,
    upto: usize,
}

/// Which per-entry rendering of the ledger a memoised read wants.
#[derive(Clone, Copy)]
pub(crate) enum LedgerText {
    /// One `│ …` gauge list line per hypothesis ([`gauge::entry_line`]).
    GaugeLines,
    /// One CSV row per hypothesis ([`transcript::row`]).
    CsvRows,
}

/// The ledger-text memo: a tested entry's text never changes while the
/// ledger only grows, so the gauge lines and CSV rows already rendered
/// are kept and a read renders only the entries appended since. Each
/// product is filled lazily, on its own reads. The memo is derived
/// state: the four non-append mutations clear it, and it is not part of
/// [`SessionSnapshot`] — a restored session starts cold.
#[derive(Default)]
struct LedgerMemo {
    /// A session's first read renders from scratch and retains nothing:
    /// a session restored to answer one gauge and then evicted again
    /// must not pay (time or memory) for text it never reuses.
    read_before: bool,
    gauge: MemoBody,
    csv: MemoBody,
}

impl LedgerMemo {
    fn clear(&mut self) {
        self.gauge = MemoBody::default();
        self.csv = MemoBody::default();
    }
}

/// Outcome of placing a visualization: its id plus the report of the
/// hypothesis test the heuristics triggered (if any).
#[derive(Debug, Clone, PartialEq)]
pub struct VizOutcome {
    /// Id of the freshly placed visualization.
    pub viz: VizId,
    /// The derived hypothesis' id and its test record, when one was
    /// created. `None` for rule-1 descriptive views.
    pub hypothesis: Option<(HypothesisId, TestRecord)>,
}

/// An interactive exploration session with automatic mFDR control.
///
/// The table is held behind an [`Arc`] so a serving layer can run
/// thousands of sessions over one in-memory dataset without cloning it;
/// single-session callers pass an owned [`Table`] to [`Session::new`] and
/// never see the sharing.
pub struct Session<P> {
    table: Arc<Table>,
    cache: Option<Arc<EvalCache>>,
    investing: AlphaInvesting<P>,
    visualizations: Vec<Visualization>,
    hypotheses: Vec<Hypothesis>,
    /// Rendered gauge lines / CSV rows of a prefix of `hypotheses`;
    /// derived, never snapshotted (see [`LedgerMemo`]).
    memo: LedgerMemo,
}

impl<P: InvestingPolicy> Session<P> {
    /// Opens a session over `table`, controlling mFDR at `alpha` with
    /// `η = 1 − α` (which also yields weak FWER control) under `policy`.
    pub fn new(table: Table, alpha: f64, policy: P) -> Result<Session<P>> {
        Session::shared(Arc::new(table), alpha, policy)
    }

    /// Opens a session over an already-shared table with a private
    /// evaluation cache (chain prefixes and global histograms are still
    /// reused *within* the session). The multi-session serving layer
    /// uses [`Session::shared_with_cache`] instead, so N sessions over
    /// one census share one cache as well as one table.
    pub fn shared(table: Arc<Table>, alpha: f64, policy: P) -> Result<Session<P>> {
        let cache = Arc::new(EvalCache::new());
        Session::shared_with_cache(table, alpha, policy, cache)
    }

    /// Opens a session over a shared table *and* a shared per-dataset
    /// evaluation cache: a thousand sessions over one census warm (and
    /// are warmed by) the same selection bitmaps and invariants.
    pub fn shared_with_cache(
        table: Arc<Table>,
        alpha: f64,
        policy: P,
        cache: Arc<EvalCache>,
    ) -> Result<Session<P>> {
        let investing = AlphaInvesting::new(alpha, 1.0 - alpha, policy)?;
        Ok(Session {
            table,
            cache: Some(cache),
            investing,
            visualizations: Vec::new(),
            hypotheses: Vec::new(),
            memo: LedgerMemo::default(),
        })
    }

    /// Opens a session that evaluates everything cold — the scalar
    /// reference path the equivalence suites compare cached sessions
    /// against. Statistically indistinguishable from a cached session;
    /// only slower.
    pub fn uncached(table: Arc<Table>, alpha: f64, policy: P) -> Result<Session<P>> {
        let investing = AlphaInvesting::new(alpha, 1.0 - alpha, policy)?;
        Ok(Session {
            table,
            cache: None,
            investing,
            visualizations: Vec::new(),
            hypotheses: Vec::new(),
            memo: LedgerMemo::default(),
        })
    }

    /// The table being explored.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// The evaluation cache in use, if any.
    pub fn cache(&self) -> Option<&Arc<EvalCache>> {
        self.cache.as_ref()
    }

    /// Remaining α-wealth.
    pub fn wealth(&self) -> f64 {
        self.investing.wealth()
    }

    /// The session's target level α.
    pub fn alpha(&self) -> f64 {
        self.investing.alpha()
    }

    /// Name of the investing policy in use.
    pub fn policy_name(&self) -> String {
        self.investing.policy_name()
    }

    /// Swaps the bidding policy for subsequent tests, returning the old
    /// one. Wealth, ledger, and every announced decision are untouched —
    /// the mFDR guarantee is policy-agnostic (any affordable bid sequence
    /// qualifies), so an interactive user may change rules mid-session.
    pub fn replace_policy(&mut self, policy: P) -> P {
        self.investing.replace_policy(policy)
    }

    /// True while the wealth can still fund at least some test.
    pub fn can_continue(&self) -> bool {
        self.investing.can_continue()
    }

    /// All visualizations placed so far, in order.
    pub fn visualizations(&self) -> &[Visualization] {
        &self.visualizations
    }

    /// All hypotheses ever tracked (including superseded/deleted), in
    /// creation order.
    pub fn hypotheses(&self) -> &[Hypothesis] {
        &self.hypotheses
    }

    /// Active discoveries: tested, null rejected, not superseded/deleted.
    pub fn discoveries(&self) -> Vec<&Hypothesis> {
        self.hypotheses
            .iter()
            .filter(|h| h.is_discovery())
            .collect()
    }

    /// Number of active discoveries, without collecting them.
    pub fn discovery_count(&self) -> usize {
        self.hypotheses.iter().filter(|h| h.is_discovery()).count()
    }

    /// Places a visualization of `attribute` under `filter`, applying the
    /// §2.3 heuristics. If a hypothesis is derived it is tested
    /// immediately through the α-investing machine.
    ///
    /// When the underlying statistical test cannot run (empty selection,
    /// zero variance …) the hypothesis is recorded as `Untestable`, no
    /// wealth is charged, and the outcome reports no test — degenerate
    /// views are an ordinary part of exploration, not an error.
    pub fn add_visualization(
        &mut self,
        attribute: impl Into<String>,
        filter: aware_data::predicate::Predicate,
    ) -> Result<VizOutcome> {
        // Validate the attribute exists before recording anything.
        let attribute = attribute.into();
        self.table.column(&attribute)?;

        let viz = Visualization {
            id: VizId(self.visualizations.len() as u64),
            attribute,
            filter,
        };
        let derived = derive_default_hypothesis(&self.visualizations, &viz);
        let viz_id = viz.id;
        self.visualizations.push(viz);

        match derived {
            Derived::Descriptive => Ok(VizOutcome {
                viz: viz_id,
                hypothesis: None,
            }),
            Derived::FilterEffect(spec) => {
                let h = self.track_and_test(spec, Some(viz_id))?;
                Ok(VizOutcome {
                    viz: viz_id,
                    hypothesis: h,
                })
            }
            Derived::LinkedComparison {
                spec,
                partner_index,
            } => {
                // Rule 3 supersedes the partner's rule-2 hypothesis.
                let partner_viz = self.visualizations[partner_index].id;
                let h = self.track_and_test(spec, Some(viz_id))?;
                if let Some((new_id, _)) = h {
                    self.supersede_hypotheses_of(partner_viz, new_id);
                }
                Ok(VizOutcome {
                    viz: viz_id,
                    hypothesis: h,
                })
            }
        }
    }

    /// Adds and immediately tests a user-specified hypothesis that is not
    /// tied to a visualization (an explicit question).
    pub fn add_hypothesis(&mut self, spec: NullSpec) -> Result<(HypothesisId, TestRecord)> {
        match self.track_and_test(spec, None)? {
            Some(pair) => Ok(pair),
            None => {
                let id = self.hypotheses.last().expect("just tracked").id;
                Err(AwareError::InvalidHypothesisState {
                    id: id.0,
                    expected: "testable",
                })
            }
        }
    }

    /// Replaces a hypothesis with a user-corrected one (the paper's m4 →
    /// m4′ override: Eve switches the default χ² distribution comparison
    /// to a t-test on mean age). The old hypothesis is marked superseded —
    /// its already-spent budget stays spent — and the new spec is tested
    /// with a fresh bid.
    pub fn override_hypothesis(
        &mut self,
        id: HypothesisId,
        spec: NullSpec,
    ) -> Result<(HypothesisId, TestRecord)> {
        let idx = self.hypothesis_index(id)?;
        if !self.hypotheses[idx].is_active() {
            return Err(AwareError::InvalidHypothesisState {
                id: id.0,
                expected: "active",
            });
        }
        let source = self.hypotheses[idx].source;
        let new = self.track_and_test(spec, source)?;
        match new {
            Some((new_id, record)) => {
                self.hypotheses[idx].status = HypothesisStatus::Superseded { by: new_id };
                self.memo.clear();
                Ok((new_id, record))
            }
            None => {
                let new_id = self.hypotheses.last().expect("just tracked").id;
                // The replacement was untestable; keep the original active.
                Err(AwareError::InvalidHypothesisState {
                    id: new_id.0,
                    expected: "testable",
                })
            }
        }
    }

    /// Deletes a hypothesis: the user declares the visualization was just
    /// descriptive. Spent wealth is *not* refunded (a refund would break
    /// the mFDR guarantee — the test did happen).
    pub fn delete_hypothesis(&mut self, id: HypothesisId) -> Result<()> {
        let idx = self.hypothesis_index(id)?;
        if !self.hypotheses[idx].is_active() {
            return Err(AwareError::InvalidHypothesisState {
                id: id.0,
                expected: "active",
            });
        }
        self.hypotheses[idx].status = HypothesisStatus::Deleted;
        self.memo.clear();
        Ok(())
    }

    /// Bookmarks (stars) a hypothesis as an important discovery.
    pub fn bookmark(&mut self, id: HypothesisId) -> Result<()> {
        let idx = self.hypothesis_index(id)?;
        self.hypotheses[idx].bookmarked = true;
        self.memo.clear();
        Ok(())
    }

    /// Removes a bookmark.
    pub fn unbookmark(&mut self, id: HypothesisId) -> Result<()> {
        let idx = self.hypothesis_index(id)?;
        self.hypotheses[idx].bookmarked = false;
        self.memo.clear();
        Ok(())
    }

    /// The bookmarked discoveries — the §6 "important discoveries" whose
    /// mFDR is controlled at the same level α by Theorem 1.
    pub fn important_discoveries(&self) -> Vec<&Hypothesis> {
        self.hypotheses
            .iter()
            .filter(|h| h.bookmarked && h.is_discovery())
            .collect()
    }

    /// Looks up a hypothesis by id.
    pub fn hypothesis(&self, id: HypothesisId) -> Result<&Hypothesis> {
        Ok(&self.hypotheses[self.hypothesis_index(id)?])
    }

    /// Number of hypothesis tests actually charged through the investing
    /// machine (untestable hypotheses don't count). A persistence layer
    /// records this when a policy is swapped, so a later
    /// [`Session::restore`] knows where the new policy's observation
    /// history starts.
    pub fn tests_run(&self) -> usize {
        self.investing.tests_run()
    }

    /// Captures the session's exact state for persistence. The snapshot
    /// holds predicates, ledger rows, and hypothesis records — never
    /// selection bitmaps; see [`SessionSnapshot`].
    pub fn snapshot(&self) -> SessionSnapshot {
        SessionSnapshot {
            machine: self.investing.snapshot(),
            visualizations: self.visualizations.clone(),
            hypotheses: self.hypotheses.clone(),
        }
    }

    /// Rebuilds a session from a snapshot over (a fresh handle to) its
    /// table and per-dataset evaluation cache.
    ///
    /// `policy` is a freshly built instance of the policy that was
    /// active at snapshot time and `observe_from` the ledger index at
    /// which it was installed (see [`AlphaInvesting::restore`]); the
    /// round trip is exact — gauge, CSV, and text transcripts of a
    /// restored session are byte-identical to the original's, and so is
    /// every future decision.
    ///
    /// Selections are neither deserialized nor derived here: restore
    /// touches no table data, and the first later test that needs a
    /// selection derives it through `cache` from the longest cached
    /// prefix of its chain — the path a never-evicted session takes.
    /// Validation failures (non-dense ids, a reference to a missing
    /// visualization or hypothesis, a ledger the machine refuses)
    /// surface as [`MhtError::CorruptSnapshot`].
    pub fn restore(
        table: Arc<Table>,
        cache: Option<Arc<EvalCache>>,
        snapshot: SessionSnapshot,
        policy: P,
        observe_from: usize,
    ) -> Result<Session<P>> {
        let SessionSnapshot {
            machine,
            visualizations,
            hypotheses,
        } = snapshot;
        let corrupt = |violation: &'static str, index: usize| {
            AwareError::Mht(MhtError::CorruptSnapshot { violation, index })
        };
        for (i, viz) in visualizations.iter().enumerate() {
            if viz.id.0 as usize != i {
                return Err(corrupt("visualization ids are not dense", i));
            }
        }
        // Every reference a transcript prints must name a real object:
        // a hypothesis' source an existing visualization, a supersede a
        // *later* hypothesis (live sessions only ever supersede by the
        // hypothesis they just appended).
        let mut tested = 0usize;
        for (i, h) in hypotheses.iter().enumerate() {
            if h.id.0 as usize != i {
                return Err(corrupt("hypothesis ids are not dense", i));
            }
            if h.source.is_some_and(|v| v.0 >= visualizations.len() as u64) {
                return Err(corrupt("hypothesis source names no visualization", i));
            }
            match h.status {
                HypothesisStatus::Tested(_) => tested += 1,
                HypothesisStatus::Superseded { by }
                    if by.0 <= i as u64 || by.0 >= hypotheses.len() as u64 =>
                {
                    return Err(corrupt("superseded by no later hypothesis", i));
                }
                _ => {}
            }
        }
        if tested > machine.ledger.len() {
            return Err(corrupt(
                "more tested hypotheses than ledger entries",
                tested,
            ));
        }
        // Transcripts render from the per-hypothesis records, so each
        // `Tested` record must literally be one of the ledger's rows —
        // otherwise a tampered snapshot could display p-values, bids,
        // decisions, or wealth the ledger never produced. Records appear
        // in ledger order, so greedy subsequence matching is exact
        // (superseded/untestable hypotheses may skip ledger entries but
        // never reorder them).
        let mut unmatched = machine.ledger.as_slice();
        for (i, h) in hypotheses.iter().enumerate() {
            if let HypothesisStatus::Tested(rec) = &h.status {
                let found = unmatched.iter().position(|e| {
                    e.p_value.to_bits() == rec.outcome.p_value.to_bits()
                        && e.bid.to_bits() == rec.bid.to_bits()
                        && e.decision == rec.decision
                        && e.wealth_after.to_bits() == rec.wealth_after.to_bits()
                });
                match found {
                    Some(at) => unmatched = &unmatched[at + 1..],
                    None => {
                        return Err(corrupt("hypothesis record matches no ledger entry", i));
                    }
                }
            }
        }
        let investing = AlphaInvesting::restore(machine, policy, observe_from)?;
        Ok(Session {
            table,
            cache,
            investing,
            visualizations,
            hypotheses,
            memo: LedgerMemo::default(),
        })
    }

    // -- internals ---------------------------------------------------------

    fn hypothesis_index(&self, id: HypothesisId) -> Result<usize> {
        // Ids are dense indices by construction.
        let idx = id.0 as usize;
        if idx < self.hypotheses.len() {
            Ok(idx)
        } else {
            Err(AwareError::UnknownHypothesis { id: id.0 })
        }
    }

    /// Appends the per-entry text of the whole ledger to `out` — the
    /// body of the memoised gauge and transcript reads. Renders only
    /// the entries appended since this product was last read, except on
    /// the session's first read (see [`LedgerMemo::read_before`]).
    pub(crate) fn append_ledger_text(&mut self, which: LedgerText, out: &mut String) {
        let (body, render): (_, fn(&mut String, &Hypothesis)) = match which {
            LedgerText::GaugeLines => (&mut self.memo.gauge, gauge::entry_line),
            LedgerText::CsvRows => (&mut self.memo.csv, transcript::row),
        };
        if !std::mem::replace(&mut self.memo.read_before, true) {
            for h in &self.hypotheses {
                render(out, h);
            }
            return;
        }
        for h in &self.hypotheses[body.upto..] {
            render(&mut body.text, h);
        }
        body.upto = self.hypotheses.len();
        out.push_str(&body.text);
    }

    fn supersede_hypotheses_of(&mut self, viz: VizId, by: HypothesisId) {
        self.memo.clear();
        for h in &mut self.hypotheses {
            if h.source == Some(viz) && h.is_active() && h.id != by {
                h.status = HypothesisStatus::Superseded { by };
            }
        }
    }

    /// Runs `spec` through the engine and the investing machine, recording
    /// a new hypothesis. Returns `None` when the spec is untestable
    /// (recorded as such, nothing charged).
    fn track_and_test(
        &mut self,
        spec: NullSpec,
        source: Option<VizId>,
    ) -> Result<Option<(HypothesisId, TestRecord)>> {
        let id = HypothesisId(self.hypotheses.len() as u64);

        let execution: Option<Execution> = match execute(&self.table, &spec, self.cache.as_deref())
        {
            Ok(e) => Some(e),
            Err(AwareError::Stats(_)) | Err(AwareError::Data(_)) => None,
            Err(other) => return Err(other),
        };

        let Some(exec) = execution else {
            self.hypotheses.push(Hypothesis {
                id,
                null: spec,
                source,
                status: HypothesisStatus::Untestable,
                bookmarked: false,
            });
            return Ok(None);
        };

        // Budget the p-value through α-investing. Wealth exhaustion is a
        // hard stop the caller must see.
        let entry = match self
            .investing
            .test_with_support(exec.outcome.p_value, exec.support_fraction)
        {
            Ok(entry) => entry,
            Err(e @ MhtError::WealthExhausted { .. }) => {
                // Roll back the visualization bookkeeping? No: the view
                // exists, only the hypothesis is untracked. Record it as
                // untestable so the gauge shows what was asked.
                self.hypotheses.push(Hypothesis {
                    id,
                    null: spec,
                    source,
                    status: HypothesisStatus::Untestable,
                    bookmarked: false,
                });
                return Err(e.into());
            }
            Err(e) => return Err(e.into()),
        };

        let flip = nh1::estimate(&exec.outcome, entry.bid).ok();
        let record = TestRecord {
            outcome: exec.outcome,
            bid: entry.bid,
            decision: entry.decision,
            wealth_after: entry.wealth_after,
            support_fraction: exec.support_fraction,
            flip,
        };
        self.hypotheses.push(Hypothesis {
            id,
            null: spec,
            source,
            status: HypothesisStatus::Tested(record),
            bookmarked: false,
        });
        Ok(Some((id, record)))
    }
}

impl<P: InvestingPolicy> std::fmt::Debug for Session<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("rows", &self.table.rows())
            .field("policy", &self.policy_name())
            .field("wealth", &self.wealth())
            .field("visualizations", &self.visualizations.len())
            .field("hypotheses", &self.hypotheses.len())
            .finish()
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use aware_data::census::{CensusGenerator, ATTRIBUTES, EDUCATION, MARITAL, RACE};
    use aware_data::predicate::Predicate;
    use aware_mht::investing::policies::Fixed;
    use proptest::prelude::*;

    /// Arbitrary exploration actions over the census schema.
    fn action() -> impl Strategy<Value = (usize, usize, usize, bool)> {
        (0..ATTRIBUTES.len(), 0..3usize, 0..5usize, any::<bool>())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Three sessions replay the same random exploration: one cold
        /// (no cache), one with a fresh shared cache, one *reusing* that
        /// now-warm cache. Every observable — gauge, CSV transcript,
        /// text transcript — must be byte-identical across all three,
        /// which is the session-level proof that cached evaluation never
        /// changes a p-value, a bid, or a decision.
        #[test]
        fn cached_and_cold_sessions_render_byte_identical_transcripts(
            actions in proptest::collection::vec(action(), 1..14),
        ) {
            use crate::{gauge, transcript};
            let table = Arc::new(CensusGenerator::new(7).generate(900));
            let cache = Arc::new(aware_data::cache::EvalCache::new());
            let replay = |cache: Option<Arc<aware_data::cache::EvalCache>>|
                -> Result<(String, String, String)> {
                let mut s = match cache {
                    Some(c) => Session::shared_with_cache(
                        table.clone(), 0.05, Fixed::new(10.0), c)?,
                    None => Session::uncached(table.clone(), 0.05, Fixed::new(10.0))?,
                };
                for &(attr_i, filter_kind, value_i, negate) in &actions {
                    let attribute = ATTRIBUTES[attr_i];
                    let filter = match filter_kind {
                        0 => Predicate::eq("education", EDUCATION[value_i % EDUCATION.len()]),
                        1 => Predicate::eq("marital_status", MARITAL[value_i % MARITAL.len()]),
                        _ => Predicate::eq("race", RACE[value_i % RACE.len()]),
                    };
                    let filter = if negate { filter.negate() } else { filter };
                    match s.add_visualization(attribute, filter) {
                        Ok(_) => {}
                        Err(e) if e.is_wealth_exhausted() => break,
                        Err(e) => return Err(e),
                    }
                }
                Ok((
                    gauge::render(&s),
                    transcript::export_csv(&s),
                    transcript::export_text(&s),
                ))
            };
            let cold = replay(None).unwrap();
            let fresh = replay(Some(cache.clone())).unwrap();
            let warm = replay(Some(cache.clone())).unwrap();
            prop_assert_eq!(&cold, &fresh, "fresh-cache session diverged from cold");
            prop_assert_eq!(&cold, &warm, "warm-cache session diverged from cold");
            // The third replay ran against a cache warmed by the second.
            prop_assert!(cache.stats().hits > 0);
        }
    }

    /// One step of the memo-equivalence property: `(op, a, b, negate,
    /// reads)`. `reads` is a bit mask of the memoised reads (gauge, csv,
    /// text) the lagging session performs after the step.
    fn memo_step() -> impl Strategy<Value = (usize, usize, usize, bool, usize)> {
        (0..12usize, 0..64usize, 0..5usize, any::<bool>(), 0..8usize)
    }

    /// Checks the memoised reads selected by `reads` against the
    /// from-scratch renderers.
    fn check_memo_reads(s: &mut Session<Fixed>, reads: usize) -> std::result::Result<(), String> {
        use crate::{gauge, transcript};
        let mismatch = |what: &str, memo: String, scratch: String| {
            if memo == scratch {
                Ok(())
            } else {
                Err(format!(
                    "memoised {what} diverged:\n{memo}\n-- from scratch:\n{scratch}"
                ))
            }
        };
        if reads & 1 != 0 {
            mismatch("gauge", gauge::render_memo(s), gauge::render(s))?;
        }
        if reads & 2 != 0 {
            mismatch(
                "csv",
                transcript::export_csv_memo(s),
                transcript::export_csv(s),
            )?;
        }
        if reads & 4 != 0 {
            mismatch(
                "text",
                transcript::export_text_memo(s),
                transcript::export_text(s),
            )?;
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The ledger-text memo never shows: under random appends
        /// (including rule-3 views that supersede), overrides, deletes,
        /// bookmark flips, policy swaps and snapshot→restore, a memoised
        /// gauge / CSV / text read equals the from-scratch renderer byte
        /// for byte. Two sessions replay the same steps: one is read in
        /// full after every step (memo always current), the other only
        /// at random points (memo lagging by several entries, or
        /// cleared and not yet refilled).
        #[test]
        fn memoised_reads_equal_from_scratch_renders(
            steps in proptest::collection::vec(memo_step(), 1..24),
        ) {
            let table = Arc::new(CensusGenerator::new(11).generate(900));
            let cache = Arc::new(aware_data::cache::EvalCache::new());
            for lagging in [false, true] {
                let mut s = Session::shared_with_cache(
                    table.clone(), 0.05, Fixed::new(10.0), cache.clone()).unwrap();
                let (mut gamma, mut since) = (10.0, 0usize);
                for &(op, a, b, negate, reads) in &steps {
                    let n = s.hypotheses().len();
                    let pick = HypothesisId((a % n.max(1)) as u64);
                    // Errors (unknown id, inactive hypothesis, exhausted
                    // wealth) are part of the walk: a refused mutation
                    // must leave the memo as valid as an applied one.
                    match op {
                        0..=3 => {
                            let filter = match a % 3 {
                                0 => Predicate::eq("education", EDUCATION[b % EDUCATION.len()]),
                                1 => Predicate::eq("marital_status", MARITAL[b % MARITAL.len()]),
                                _ => Predicate::eq("race", RACE[b % RACE.len()]),
                            };
                            let filter = if negate { filter.negate() } else { filter };
                            let _ = s.add_visualization(ATTRIBUTES[a % ATTRIBUTES.len()], filter);
                        }
                        4 | 5 => {
                            // The negation of an earlier view on the same
                            // attribute: rule 3, supersedes its partner.
                            if let Some(v) = s.visualizations().get(a % s.visualizations().len().max(1)) {
                                let (attribute, filter) = (v.attribute.clone(), v.filter.clone().negate());
                                let _ = s.add_visualization(attribute, filter);
                            }
                        }
                        6 => {
                            let f = Predicate::eq("sex", "Male");
                            let _ = s.override_hypothesis(pick, NullSpec::MeanEquality {
                                attribute: "age".into(),
                                filter_a: f.clone(),
                                filter_b: f.negate(),
                            });
                        }
                        7 => { let _ = s.delete_hypothesis(pick); }
                        8 => { let _ = s.bookmark(pick); }
                        9 => { let _ = s.unbookmark(pick); }
                        10 => {
                            gamma = 10.0 + b as f64;
                            since = s.tests_run();
                            s.replace_policy(Fixed::new(gamma));
                        }
                        _ => {
                            s = Session::restore(
                                table.clone(), Some(cache.clone()), s.snapshot(),
                                Fixed::new(gamma), since).unwrap();
                        }
                    }
                    let reads = if lagging { reads } else { 7 };
                    check_memo_reads(&mut s, reads).map_err(TestCaseError::fail)?;
                }
                check_memo_reads(&mut s, 7).map_err(TestCaseError::fail)?;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// No sequence of visualizations panics; wealth never goes
        /// negative; decisions never change once recorded; hypothesis ids
        /// stay dense.
        #[test]
        fn random_exploration_never_breaks_invariants(actions in proptest::collection::vec(action(), 1..12)) {
            let table = CensusGenerator::new(99).generate(800);
            let mut s = Session::new(table, 0.05, Fixed::new(10.0)).unwrap();
            let mut frozen: Vec<(usize, aware_mht::Decision)> = Vec::new();
            for (attr_i, filter_kind, value_i, negate) in actions {
                let attribute = ATTRIBUTES[attr_i];
                let filter = match filter_kind {
                    0 => Predicate::eq("education", EDUCATION[value_i % EDUCATION.len()]),
                    1 => Predicate::eq("marital_status", MARITAL[value_i % MARITAL.len()]),
                    _ => Predicate::eq("race", RACE[value_i % RACE.len()]),
                };
                let filter = if negate { filter.negate() } else { filter };
                match s.add_visualization(attribute, filter) {
                    Ok(_) => {}
                    Err(e) if e.is_wealth_exhausted() => break,
                    Err(e) => return Err(TestCaseError::fail(format!("unexpected error: {e}"))),
                }
                prop_assert!(s.wealth() >= 0.0);
                // Previously frozen decisions are untouched.
                for &(idx, decision) in &frozen {
                    let now = s.hypotheses()[idx]
                        .record()
                        .map(|r| r.decision);
                    if let Some(now) = now {
                        prop_assert_eq!(now, decision, "decision {} changed", idx);
                    }
                }
                // Refresh the frozen snapshot.
                frozen = s
                    .hypotheses()
                    .iter()
                    .enumerate()
                    .filter_map(|(i, h)| h.record().map(|r| (i, r.decision)))
                    .collect();
                // Ids are dense and ordered.
                for (i, h) in s.hypotheses().iter().enumerate() {
                    prop_assert_eq!(h.id.0 as usize, i);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aware_data::census::CensusGenerator;
    use aware_data::predicate::Predicate;
    use aware_mht::investing::policies::Fixed;
    use aware_mht::Decision;

    fn session() -> Session<Fixed> {
        let table = CensusGenerator::new(33).generate(8_000);
        Session::new(table, 0.05, Fixed::new(10.0)).unwrap()
    }

    #[test]
    fn rule1_view_creates_no_hypothesis_and_spends_nothing() {
        let mut s = session();
        let w0 = s.wealth();
        let out = s.add_visualization("sex", Predicate::True).unwrap();
        assert!(out.hypothesis.is_none());
        assert_eq!(s.wealth(), w0);
        assert_eq!(s.hypotheses().len(), 0);
        assert_eq!(s.visualizations().len(), 1);
    }

    #[test]
    fn rule2_view_tests_and_spends_or_earns() {
        let mut s = session();
        let w0 = s.wealth();
        let out = s
            .add_visualization("education", Predicate::eq("salary_over_50k", true))
            .unwrap();
        let (id, record) = out.hypothesis.expect("rule 2 hypothesis");
        // Planted dependency: should be discovered.
        assert_eq!(record.decision, Decision::Reject);
        assert!(s.wealth() > w0, "payout should grow wealth");
        assert!(s.hypothesis(id).unwrap().is_discovery());
        assert_eq!(s.discoveries().len(), 1);
        assert!(record.flip.is_some());
    }

    #[test]
    fn rule3_pair_supersedes_partner() {
        let mut s = session();
        let f = Predicate::eq("salary_over_50k", true);
        let b = s.add_visualization("education", f.clone()).unwrap();
        let (m1, _) = b.hypothesis.unwrap();
        let c = s.add_visualization("education", f.negate()).unwrap();
        let (m1_prime, _) = c.hypothesis.unwrap();
        assert_ne!(m1, m1_prime);
        match s.hypothesis(m1).unwrap().status {
            HypothesisStatus::Superseded { by } => assert_eq!(by, m1_prime),
            ref other => panic!("m1 should be superseded, is {other:?}"),
        }
        // Only the superseding hypothesis counts as a discovery now.
        assert_eq!(s.discoveries().len(), 1);
        assert_eq!(s.discoveries()[0].id, m1_prime);
    }

    #[test]
    fn override_to_t_test_replaces_default() {
        let mut s = session();
        let f = Predicate::eq("salary_over_50k", true);
        let out = s.add_visualization("age", f.clone()).unwrap();
        let (m4, _) = out.hypothesis.unwrap();
        let (m4_prime, record) = s
            .override_hypothesis(
                m4,
                NullSpec::MeanEquality {
                    attribute: "age".into(),
                    filter_a: f.clone(),
                    filter_b: f.clone().negate(),
                },
            )
            .unwrap();
        assert_eq!(record.outcome.kind, aware_stats::tests::TestKind::WelchT);
        assert!(matches!(
            s.hypothesis(m4).unwrap().status,
            HypothesisStatus::Superseded { by } if by == m4_prime
        ));
        // Double-override of a superseded hypothesis is rejected.
        let again = s.override_hypothesis(
            m4,
            NullSpec::NoFilterEffect {
                attribute: "age".into(),
                filter: f,
            },
        );
        assert!(matches!(
            again,
            Err(AwareError::InvalidHypothesisState { .. })
        ));
    }

    #[test]
    fn delete_marks_without_refund() {
        let mut s = session();
        let out = s
            .add_visualization("race", Predicate::eq("salary_over_50k", true))
            .unwrap();
        let (id, record) = out.hypothesis.unwrap();
        let wealth_after_test = s.wealth();
        assert_eq!(wealth_after_test, record.wealth_after);
        s.delete_hypothesis(id).unwrap();
        assert_eq!(s.wealth(), wealth_after_test, "no refund on delete");
        assert!(!s.hypothesis(id).unwrap().is_active());
        assert!(s.delete_hypothesis(id).is_err(), "double delete");
    }

    #[test]
    fn bookmarks_select_important_discoveries() {
        let mut s = session();
        let (d1, r1) = s
            .add_visualization("education", Predicate::eq("salary_over_50k", true))
            .unwrap()
            .hypothesis
            .unwrap();
        assert_eq!(r1.decision, Decision::Reject);
        let out2 = s
            .add_visualization("marital_status", Predicate::eq("education", "PhD"))
            .unwrap();
        let (d2, _) = out2.hypothesis.unwrap();
        s.bookmark(d1).unwrap();
        s.bookmark(d2).unwrap();
        let important = s.important_discoveries();
        // Only *discoveries* among the bookmarked count.
        assert!(important.iter().all(|h| h.is_discovery()));
        assert!(important.iter().any(|h| h.id == d1));
        s.unbookmark(d1).unwrap();
        assert!(!s.important_discoveries().iter().any(|h| h.id == d1));
        assert!(s.bookmark(HypothesisId(99)).is_err());
    }

    #[test]
    fn untestable_views_cost_nothing() {
        let mut s = session();
        let w0 = s.wealth();
        let out = s
            .add_visualization("sex", Predicate::eq("education", "Kindergarten"))
            .unwrap();
        assert!(out.hypothesis.is_none());
        assert_eq!(s.wealth(), w0);
        assert_eq!(s.hypotheses().len(), 1);
        assert!(matches!(
            s.hypotheses()[0].status,
            HypothesisStatus::Untestable
        ));
    }

    #[test]
    fn unknown_attribute_is_rejected_before_tracking() {
        let mut s = session();
        assert!(s.add_visualization("ghost", Predicate::True).is_err());
        assert_eq!(s.visualizations().len(), 0);
    }

    #[test]
    fn wealth_exhaustion_surfaces_as_stop_signal() {
        // γ = 1: a single null-ish acceptance drains the wealth.
        let table = CensusGenerator::new(34).generate(4_000);
        let mut s = Session::new(table, 0.05, Fixed::new(1.0)).unwrap();
        // Test a true-null attribute repeatedly until exhaustion.
        let mut exhausted = false;
        for i in 0..5 {
            let filter = Predicate::eq("survey_wave", format!("Wave-{}", (i % 4) + 1).as_str());
            match s.add_visualization("race", filter) {
                Ok(_) => {}
                Err(e) if e.is_wealth_exhausted() => {
                    exhausted = true;
                    break;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(exhausted, "wealth should run out with gamma=1 on null data");
        assert!(!s.can_continue());
    }

    #[test]
    fn decisions_are_immutable_across_session_growth() {
        let mut s = session();
        let f = Predicate::eq("salary_over_50k", true);
        let (id, record) = s
            .add_visualization("education", f)
            .unwrap()
            .hypothesis
            .unwrap();
        let decision_before = record.decision;
        // A pile of further exploration…
        for attr in ["marital_status", "occupation", "race", "native_region"] {
            let _ = s.add_visualization(attr, Predicate::eq("sex", "Female"));
        }
        // …must not touch the first decision.
        let after = s.hypothesis(id).unwrap().record().unwrap().decision;
        assert_eq!(decision_before, after);
    }

    #[test]
    fn stochastic_override_flows_through_session() {
        use crate::hypothesis::ShiftMethod;
        let mut s = session();
        let f = Predicate::eq("sex", "Male");
        let (id, _) = s
            .add_visualization("hours_per_week", f.clone())
            .unwrap()
            .hypothesis
            .unwrap();
        let (_, rec) = s
            .override_hypothesis(
                id,
                NullSpec::StochasticEquality {
                    attribute: "hours_per_week".into(),
                    filter_a: f.clone(),
                    filter_b: f.negate(),
                    method: ShiftMethod::MannWhitney,
                },
            )
            .unwrap();
        assert_eq!(rec.outcome.kind, aware_stats::tests::TestKind::MannWhitneyU);
        assert!(
            rec.outcome.p_value < 0.01,
            "planted hours shift: p = {}",
            rec.outcome.p_value
        );
    }

    #[test]
    fn snapshot_restore_round_trips_transcripts_and_future_behaviour() {
        use crate::{gauge, transcript};
        let table = Arc::new(CensusGenerator::new(55).generate(2_000));
        let cache = Arc::new(aware_data::cache::EvalCache::new());
        let actions: Vec<(&str, Predicate)> = vec![
            ("sex", Predicate::True),
            ("education", Predicate::eq("salary_over_50k", true)),
            ("race", Predicate::eq("survey_wave", "Wave-2")),
            ("sex", Predicate::eq("education", "Kindergarten")), // untestable
            ("marital_status", Predicate::eq("sex", "Female")),
            ("occupation", Predicate::eq("race", "White")),
        ];
        for cut in 0..=actions.len() {
            let mut original =
                Session::shared_with_cache(table.clone(), 0.05, Fixed::new(10.0), cache.clone())
                    .unwrap();
            for (attr, filter) in &actions[..cut] {
                original.add_visualization(*attr, filter.clone()).unwrap();
            }
            let mut restored = Session::restore(
                table.clone(),
                Some(cache.clone()),
                original.snapshot(),
                Fixed::new(10.0),
                0,
            )
            .unwrap();
            // Byte-identical observables at the cut …
            assert_eq!(gauge::render(&original), gauge::render(&restored));
            assert_eq!(
                transcript::export_csv(&original),
                transcript::export_csv(&restored)
            );
            assert_eq!(
                transcript::export_text(&original),
                transcript::export_text(&restored)
            );
            // … and identical futures beyond it.
            for (attr, filter) in &actions[cut..] {
                let a = original.add_visualization(*attr, filter.clone()).unwrap();
                let b = restored.add_visualization(*attr, filter.clone()).unwrap();
                assert_eq!(a, b, "cut {cut}");
            }
            assert_eq!(
                transcript::export_csv(&original),
                transcript::export_csv(&restored),
                "post-restore exploration diverged at cut {cut}"
            );
        }
    }

    #[test]
    fn restore_derives_no_selection_until_a_test_needs_one() {
        use crate::{gauge, transcript};
        let table = Arc::new(CensusGenerator::new(56).generate(1_500));
        let cache = Arc::new(aware_data::cache::EvalCache::new());
        let open = || {
            Session::shared_with_cache(table.clone(), 0.05, Fixed::new(10.0), cache.clone())
                .unwrap()
        };
        let step1 = Predicate::eq("salary_over_50k", true);
        let step2 = step1.clone().and(Predicate::eq("sex", "Female"));
        let step3 = step2
            .clone()
            .and(Predicate::eq("marital_status", "Married"));
        let (mut evicted, mut twin) = (open(), open());
        for s in [&mut evicted, &mut twin] {
            s.add_visualization("education", step1.clone()).unwrap();
            s.add_visualization("race", step2.clone()).unwrap();
        }
        let snapshot = evicted.snapshot();
        drop(evicted);
        // A restore and a read-only touch derive nothing: the cache
        // counters do not move.
        let before = cache.counters();
        let mut restored = Session::restore(
            table.clone(),
            Some(cache.clone()),
            snapshot,
            Fixed::new(10.0),
            0,
        )
        .unwrap();
        for _ in 0..2 {
            gauge::render_memo(&mut restored);
            transcript::export_csv_memo(&mut restored);
            transcript::export_text_memo(&mut restored);
        }
        assert_eq!(
            cache.counters(),
            before,
            "restore or a read probed the cache"
        );
        // The next test derives its selection lazily, from the chain
        // prefix the live session left warm: one prefix hit (plus the
        // attribute's invariants), misses only for the full chain and
        // its new clause …
        let lazy = restored
            .add_visualization("education", step3.clone())
            .unwrap();
        let after = cache.counters();
        assert!(after.0 >= before.0 + 2, "{before:?} -> {after:?}");
        assert_eq!(after.1, before.1 + 2, "{before:?} -> {after:?}");
        // … and decides bit-identically to the never-evicted twin.
        let live = twin.add_visualization("education", step3).unwrap();
        assert_eq!(lazy, live);
        assert_eq!(
            transcript::export_csv(&restored),
            transcript::export_csv(&twin)
        );
    }

    #[test]
    fn tampered_session_snapshots_are_refused() {
        let table = Arc::new(CensusGenerator::new(57).generate(1_000));
        let mut s = Session::shared(table.clone(), 0.05, Fixed::new(10.0)).unwrap();
        s.add_visualization("education", Predicate::eq("salary_over_50k", true))
            .unwrap();
        let good = s.snapshot();
        // Wealth forgery is caught by the machine-level validation.
        let mut forged = good.clone();
        forged.machine.ledger[0].wealth_after *= 2.0;
        assert!(matches!(
            Session::restore(table.clone(), None, forged, Fixed::new(10.0), 0),
            Err(AwareError::Mht(MhtError::CorruptSnapshot { .. }))
        ));
        // Non-dense hypothesis ids are caught at the session level.
        let mut shuffled = good.clone();
        shuffled.hypotheses[0].id = HypothesisId(9);
        assert!(matches!(
            Session::restore(table.clone(), None, shuffled, Fixed::new(10.0), 0),
            Err(AwareError::Mht(MhtError::CorruptSnapshot { .. }))
        ));
        // A forged *hypothesis record* (the ledger untouched) must be
        // refused too: transcripts render from these records, so each
        // one must literally be a ledger row.
        let mut display_forged = good.clone();
        match &mut display_forged.hypotheses[0].status {
            HypothesisStatus::Tested(rec) => rec.wealth_after *= 2.0,
            other => panic!("fixture hypothesis should be tested, is {other:?}"),
        }
        assert!(matches!(
            Session::restore(table.clone(), None, display_forged, Fixed::new(10.0), 0),
            Err(AwareError::Mht(MhtError::CorruptSnapshot { .. }))
        ));
        // Dangling references a transcript would print as `viz#99` or
        // `superseded-by-H99`: a source past the visualizations, and a
        // supersede by a missing, the same, or an earlier hypothesis.
        let mut dangling = vec![good.clone()];
        dangling[0].hypotheses[0].source = Some(VizId(99));
        for by in [99, 0] {
            let mut forged = good.clone();
            forged.hypotheses[0].status = HypothesisStatus::Superseded {
                by: HypothesisId(by),
            };
            dangling.push(forged);
        }
        let mut earlier = good.clone();
        earlier.hypotheses.push(Hypothesis {
            id: HypothesisId(1),
            status: HypothesisStatus::Superseded {
                by: HypothesisId(0),
            },
            ..earlier.hypotheses[0].clone()
        });
        dangling.push(earlier);
        for forged in dangling {
            assert!(matches!(
                Session::restore(table.clone(), None, forged, Fixed::new(10.0), 0),
                Err(AwareError::Mht(MhtError::CorruptSnapshot { .. }))
            ));
        }
        assert!(Session::restore(table, None, good, Fixed::new(10.0), 0).is_ok());
    }

    #[test]
    fn explicit_hypotheses_without_visualization() {
        let mut s = session();
        let (id, record) = s
            .add_hypothesis(NullSpec::MeanEquality {
                attribute: "hours_per_week".into(),
                filter_a: Predicate::eq("sex", "Male"),
                filter_b: Predicate::eq("sex", "Female"),
            })
            .unwrap();
        assert!(record.outcome.p_value < 0.05);
        assert!(s.hypothesis(id).unwrap().source.is_none());
        assert_eq!(s.visualizations().len(), 0);
    }
}
