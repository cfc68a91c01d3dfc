//! The snapshot round-trip battery.
//!
//! Two layers of proof:
//!
//! * a property test replays random explorations (random census
//!   tables × random command streams, with mid-stream policy swaps)
//!   through `snapshot → encode → decode → restore` at **every**
//!   step-k cut point and requires the gauge/CSV/text transcripts of
//!   the resumed session to be byte-identical to the uninterrupted
//!   reference — persistence must be invisible;
//! * golden fixtures pin the version-1 file format: the checked-in
//!   bytes under `tests/fixtures/` must decode to a known image and
//!   the current encoder must reproduce them byte for byte, so any
//!   grammar change forces a version bump + migration instead of
//!   silently orphaning old files.

use aware_core::hypothesis::{
    Hypothesis, HypothesisId, HypothesisStatus, NullSpec, ShiftMethod, TestRecord,
};
use aware_core::session::{Session, SessionSnapshot};
use aware_core::viz::{Visualization, VizId};
use aware_data::cache::EvalCache;
use aware_data::census::{CensusGenerator, EDUCATION, MARITAL, RACE};
use aware_data::predicate::{CmpOp, Predicate};
use aware_data::table::Table;
use aware_data::value::Value;
use aware_mht::investing::{LedgerEntry, MachineSnapshot};
use aware_mht::Decision;
use aware_serve::proto::{BoxedPolicy, PolicySpec};
use aware_serve::snapshot::{self, SessionImage};
use aware_serve::{ErrorCode, ServeError};
use aware_stats::power::{FlipDirection, FlipEstimate};
use aware_stats::tests::{TestKind, TestOutcome};
use proptest::prelude::*;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Round-trip property: snapshot→restore at every cut point is invisible
// ---------------------------------------------------------------------------

/// One exploration step: a visualization or a policy swap.
#[derive(Debug, Clone)]
enum Action {
    Viz {
        attr: &'static str,
        filter: Predicate,
    },
    Policy(PolicySpec),
}

/// Mirrors the serving layer's per-session persistence bookkeeping: the
/// active policy spec and the ledger index it was installed at.
struct Replay {
    session: Session<BoxedPolicy>,
    fingerprint: u64,
    policy: PolicySpec,
    policy_since: u64,
}

impl Replay {
    fn open(table: Arc<Table>, cache: Arc<EvalCache>) -> Replay {
        let policy = PolicySpec::Fixed { gamma: 10.0 };
        let fingerprint = table.fingerprint();
        let session =
            Session::shared_with_cache(table, 0.05, policy.build().unwrap(), cache).unwrap();
        Replay {
            session,
            fingerprint,
            policy,
            policy_since: 0,
        }
    }

    fn from_image(table: Arc<Table>, cache: Arc<EvalCache>, image: SessionImage) -> Replay {
        let boxed = image.policy.build().unwrap();
        let fingerprint = table.fingerprint();
        if let Some(stamped) = image.fingerprint {
            assert_eq!(stamped, fingerprint, "fixture table drifted");
        }
        let session = Session::restore(
            table,
            Some(cache),
            image.session,
            boxed,
            image.policy_since as usize,
        )
        .expect("restore a freshly encoded snapshot");
        Replay {
            session,
            fingerprint,
            policy: image.policy,
            policy_since: image.policy_since,
        }
    }

    /// Applies one action; `false` means the α-wealth ran out and the
    /// exploration stops (exactly as the reference replay stops).
    fn apply(&mut self, action: &Action) -> bool {
        match action {
            Action::Viz { attr, filter } => {
                match self.session.add_visualization(*attr, filter.clone()) {
                    Ok(_) => true,
                    Err(e) if e.is_wealth_exhausted() => false,
                    Err(e) => panic!("unexpected session error: {e}"),
                }
            }
            Action::Policy(spec) => {
                self.session.replace_policy(spec.build().unwrap());
                self.policy = spec.clone();
                self.policy_since = self.session.tests_run() as u64;
                true
            }
        }
    }

    fn image(&self) -> SessionImage {
        SessionImage {
            id: 77,
            dataset: "census".into(),
            fingerprint: Some(self.fingerprint),
            policy: self.policy.clone(),
            policy_since: self.policy_since,
            session: self.session.snapshot(),
        }
    }

    fn transcripts(&self) -> (String, String, String) {
        (
            aware_core::gauge::render(&self.session),
            aware_core::transcript::export_csv(&self.session),
            aware_core::transcript::export_text(&self.session),
        )
    }
}

fn action() -> impl Strategy<Value = Action> {
    (0..10usize, 0..4usize, 0..6usize, any::<bool>()).prop_map(|(kind, attr_i, value_i, negate)| {
        match kind {
            // One step in ten swaps the policy — streams with and
            // without replaced policies are both generated.
            9 => Action::Policy(match value_i % 5 {
                0 => PolicySpec::Fixed { gamma: 8.0 },
                1 => PolicySpec::Hopeful { delta: 5.0 },
                2 => PolicySpec::EpsilonHybrid {
                    gamma: 10.0,
                    delta: 5.0,
                    epsilon: 0.5,
                    window: Some(4),
                },
                3 => PolicySpec::Farsighted { beta: 0.25 },
                _ => PolicySpec::PsiSupport {
                    gamma: 10.0,
                    psi: 0.5,
                },
            }),
            _ => {
                let attr = ["education", "race", "marital_status", "hours_per_week"][attr_i];
                let filter = match value_i % 4 {
                    0 => Predicate::eq("salary_over_50k", true),
                    1 => Predicate::eq("education", EDUCATION[value_i % EDUCATION.len()]),
                    2 => Predicate::eq("marital_status", MARITAL[value_i % MARITAL.len()]),
                    _ => Predicate::eq("race", RACE[value_i % RACE.len()]),
                };
                let filter = if negate { filter.negate() } else { filter };
                Action::Viz { attr, filter }
            }
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For every cut point k of a random exploration, running k steps,
    /// snapshotting through the real file codec, restoring, and running
    /// the remaining steps must produce gauge/CSV/text transcripts
    /// byte-identical to the uninterrupted reference session.
    #[test]
    fn snapshot_restore_at_every_cut_point_is_invisible(
        seed in 0u64..1_000,
        rows in 300usize..700,
        actions in proptest::collection::vec(action(), 1..10),
    ) {
        let table = Arc::new(CensusGenerator::new(seed).generate(rows));
        let cache = Arc::new(EvalCache::new());

        // Uninterrupted reference.
        let mut reference = Replay::open(table.clone(), cache.clone());
        for a in &actions {
            if !reference.apply(a) {
                break;
            }
        }
        let want = reference.transcripts();

        for cut in 0..=actions.len() {
            let mut head = Replay::open(table.clone(), cache.clone());
            let mut exhausted_early = false;
            for a in &actions[..cut] {
                if !head.apply(a) {
                    exhausted_early = true;
                    break;
                }
            }
            // Through the real file bytes, not just the structs.
            let image = head.image();
            let bytes = snapshot::encode(&image);
            let decoded = snapshot::decode(&bytes).unwrap();
            prop_assert_eq!(&decoded, &image, "codec round trip at cut {}", cut);

            let mut resumed = Replay::from_image(table.clone(), cache.clone(), decoded);
            prop_assert_eq!(
                head.transcripts(),
                resumed.transcripts(),
                "restored state differs at cut {}",
                cut
            );
            if !exhausted_early {
                for a in &actions[cut..] {
                    if !resumed.apply(a) {
                        break;
                    }
                }
            }
            prop_assert_eq!(
                &resumed.transcripts(),
                &want,
                "resumed exploration diverged from the uninterrupted run at cut {}",
                cut
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Golden fixtures: version-1 bytes are pinned forever
// ---------------------------------------------------------------------------

/// A hand-built image exercising every corner of the snapshot grammar:
/// all six null-spec variants, all four hypothesis statuses, both flip
/// directions, every predicate node type, and the most complex policy
/// spec. The values are arbitrary but frozen — they only need to be
/// *stable*, not statistically meaningful. The fingerprint is a frozen
/// constant (version 2 field; the version-1 fixture carries none).
fn fixture_image() -> SessionImage {
    let salary = Predicate::eq("salary_over_50k", true);
    let chain = Predicate::And(vec![
        salary.clone(),
        Predicate::Not(Box::new(Predicate::eq("education", "PhD"))),
        Predicate::Between {
            column: "age".into(),
            lo: 18.5,
            hi: 64.0,
        },
        Predicate::Or(vec![
            Predicate::In {
                column: "race".into(),
                values: vec![Value::Str("White".into()), Value::Str("Asian".into())],
            },
            Predicate::Cmp {
                column: "hours_per_week".into(),
                op: CmpOp::Ge,
                value: Value::Int(-40),
            },
        ]),
    ]);
    let tested = TestRecord {
        outcome: TestOutcome {
            kind: TestKind::ChiSquareGof,
            statistic: 223.4375,
            df: 15.0,
            p_value: 4.9e-324, // subnormal edge: bit-exactness matters
            effect_size: 0.21875,
            support: 1_337,
        },
        bid: 0.004724409448818898,
        decision: Decision::Reject,
        wealth_after: 0.0975,
        support_fraction: 0.66845703125,
        flip: Some(FlipEstimate {
            direction: FlipDirection::ToAcceptance,
            factor: 11.5,
            additional_observations: 14_043,
        }),
    };
    let accepted = TestRecord {
        outcome: TestOutcome {
            kind: TestKind::WelchT,
            statistic: -0.71875,
            df: f64::NAN, // NaN df must survive bit-exactly too
            p_value: 0.47265625,
            effect_size: -0.015625,
            support: 512,
        },
        bid: 0.0093994140625,
        decision: Decision::Accept,
        wealth_after: 0.08801269531250001,
        support_fraction: 0.25,
        flip: Some(FlipEstimate {
            direction: FlipDirection::ToRejection,
            factor: 7.75,
            additional_observations: 3_456,
        }),
    };
    SessionImage {
        id: 42,
        dataset: "census".into(),
        fingerprint: Some(0x1bad_b002_dead_f00d),
        policy: PolicySpec::EpsilonHybrid {
            gamma: 10.0,
            delta: 5.0,
            epsilon: 0.5,
            window: Some(8),
        },
        policy_since: 1,
        session: SessionSnapshot {
            machine: MachineSnapshot {
                alpha: 0.05,
                eta: 0.95,
                omega: 0.05,
                ledger: vec![
                    LedgerEntry {
                        index: 0,
                        p_value: 4.9e-324,
                        bid: 0.004724409448818898,
                        decision: Decision::Reject,
                        wealth_before: 0.0475,
                        wealth_after: 0.0975,
                    },
                    LedgerEntry {
                        index: 1,
                        p_value: 0.47265625,
                        bid: 0.0093994140625,
                        decision: Decision::Accept,
                        wealth_before: 0.0975,
                        wealth_after: 0.08801269531250001,
                    },
                ],
            },
            visualizations: vec![
                Visualization {
                    id: VizId(0),
                    attribute: "sex".into(),
                    filter: Predicate::True,
                },
                Visualization {
                    id: VizId(1),
                    attribute: "education".into(),
                    filter: chain.clone(),
                },
                Visualization {
                    id: VizId(2),
                    attribute: "ấge😀".into(), // non-ASCII survives
                    filter: salary.clone().negate(),
                },
            ],
            hypotheses: vec![
                Hypothesis {
                    id: HypothesisId(0),
                    null: NullSpec::NoFilterEffect {
                        attribute: "education".into(),
                        filter: chain,
                    },
                    source: Some(VizId(1)),
                    status: HypothesisStatus::Superseded {
                        by: HypothesisId(1),
                    },
                    bookmarked: false,
                },
                Hypothesis {
                    id: HypothesisId(1),
                    null: NullSpec::NoDistributionDifference {
                        attribute: "education".into(),
                        filter_a: salary.clone(),
                        filter_b: salary.clone().negate(),
                    },
                    source: Some(VizId(2)),
                    status: HypothesisStatus::Tested(tested),
                    bookmarked: true,
                },
                Hypothesis {
                    id: HypothesisId(2),
                    null: NullSpec::MeanEquality {
                        attribute: "age".into(),
                        filter_a: salary.clone(),
                        filter_b: salary.clone().negate(),
                    },
                    source: None,
                    status: HypothesisStatus::Tested(accepted),
                    bookmarked: false,
                },
                Hypothesis {
                    id: HypothesisId(3),
                    null: NullSpec::IndependenceWithin {
                        attribute_a: "education".into(),
                        attribute_b: "salary_over_50k".into(),
                        filter: Predicate::True,
                        use_g_test: true,
                    },
                    source: None,
                    status: HypothesisStatus::Untestable,
                    bookmarked: false,
                },
                Hypothesis {
                    id: HypothesisId(4),
                    null: NullSpec::NoGroupMeanDifference {
                        value_attribute: "hours_per_week".into(),
                        group_attribute: "occupation".into(),
                        filter: salary.clone(),
                    },
                    source: None,
                    status: HypothesisStatus::Deleted,
                    bookmarked: false,
                },
                Hypothesis {
                    id: HypothesisId(5),
                    null: NullSpec::StochasticEquality {
                        attribute: "hours_per_week".into(),
                        filter_a: salary.clone(),
                        filter_b: salary.negate(),
                        method: ShiftMethod::KolmogorovSmirnov,
                    },
                    source: None,
                    status: HypothesisStatus::Untestable,
                    bookmarked: true,
                },
            ],
        },
    }
}

fn fixture_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// NaN-tolerant equality: the fixture's Welch record carries a NaN df,
/// which `PartialEq` would (correctly) refuse to equate. Compare via
/// the encoder instead — bit-exact f64 serialization makes the byte
/// strings the canonical identity.
fn assert_images_equal(a: &SessionImage, b: &SessionImage) {
    assert_eq!(snapshot::encode(a), snapshot::encode(b));
}

#[test]
fn golden_v1_fixture_is_pinned() {
    // The version-1 bytes are *frozen*: written by the PR 4 encoder,
    // never regenerated. What this pins is the migration path — a v1
    // file (which predates table fingerprints) must keep decoding to
    // exactly the old image, with `fingerprint: None`.
    let mut image = fixture_image();
    image.fingerprint = None;
    let path = fixture_path("session-v1.awrs");
    let pinned = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing frozen version-1 fixture {} ({e}) — these bytes cannot be \
             regenerated (the encoder now writes version 2); restore them from git",
            path.display()
        )
    });
    assert_eq!(pinned[4], 1, "fixture must stay a version-1 file");
    assert_images_equal(&snapshot::decode(&pinned).unwrap(), &image);
}

#[test]
fn golden_v2_fixture_is_pinned() {
    let image = fixture_image();
    let bytes = snapshot::encode(&image);
    let path = fixture_path("session-v2.awrs");
    if std::env::var_os("REGEN_FIXTURES").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &bytes).unwrap();
    }
    let pinned = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); run with REGEN_FIXTURES=1 after a \
             deliberate format change — and bump SNAPSHOT_VERSION + write a migration",
            path.display()
        )
    });
    // Decoder compatibility: the checked-in version-2 bytes must keep
    // decoding to exactly this image …
    assert_images_equal(&snapshot::decode(&pinned).unwrap(), &image);
    // … and encoder stability: today's encoder must still produce the
    // version-2 bytes. If this fails, the format changed — that is a
    // version bump plus a migration, never a silent break.
    assert_eq!(
        bytes, pinned,
        "snapshot encoder no longer reproduces the version-2 fixture"
    );
}

#[test]
fn golden_fixture_of_a_real_exploration_restores() {
    // A second fixture captured from a real census exploration (seed
    // 2017, 1 000 rows) by the PR 4 (version 1) encoder — frozen, not
    // regenerable: decoding must succeed forever, and restoring must
    // reproduce the wealth the file itself records.
    let path = fixture_path("census-session-v1.awrs");
    let bytes = std::fs::read(&path).expect("checked-in census fixture");
    assert_eq!(bytes[4], 1, "fixture must stay a version-1 file");
    let image = snapshot::decode(&bytes).unwrap();
    assert_eq!(image.dataset, "census");
    assert_eq!(image.policy, PolicySpec::Hopeful { delta: 5.0 });
    let recorded_wealth = image
        .session
        .machine
        .ledger
        .last()
        .expect("fixture has tests")
        .wealth_after;
    // Restore over a regenerated table (the census generator is
    // deterministic) — the restored session's wealth must equal the
    // wealth frozen in the file, bit for bit.
    let table = Arc::new(CensusGenerator::new(2017).generate(1_000));
    let session: Session<BoxedPolicy> = Session::restore(
        table,
        Some(Arc::new(EvalCache::new())),
        image.session.clone(),
        image.policy.build().unwrap(),
        image.policy_since as usize,
    )
    .unwrap();
    assert_eq!(session.wealth().to_bits(), recorded_wealth.to_bits());
    assert_eq!(session.hypotheses().len(), image.session.hypotheses.len());
}

// ---------------------------------------------------------------------------
// Render bytes pinned against the parent commit
// ---------------------------------------------------------------------------

/// The gauge, CSV and text transcripts of `session`, from scratch and
/// through the ledger-text memo (first read, then a memoised re-read),
/// must equal the files under `tests/fixtures/` byte for byte. Those
/// files were rendered by the parent commit of the in-place label
/// writer (PR 25) and are never regenerated: the oracle and every
/// other suite compare this renderer with itself, these compare it with
/// a previous build.
fn assert_renders_pinned(name: &str, mut session: Session<BoxedPolicy>) {
    use aware_core::{gauge, transcript};
    let pinned = |ext: &str| {
        let path = fixture_path(&format!("{name}.{ext}"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing parent-captured render fixture {} ({e}) — restore it from git",
                path.display()
            )
        })
    };
    let (gauge_txt, csv, text) = (pinned("gauge.txt"), pinned("csv"), pinned("text.txt"));
    assert_eq!(gauge::render(&session), gauge_txt, "{name}: gauge");
    assert_eq!(transcript::export_csv(&session), csv, "{name}: csv");
    assert_eq!(transcript::export_text(&session), text, "{name}: text");
    for read in ["first", "memoised"] {
        assert_eq!(
            gauge::render_memo(&mut session),
            gauge_txt,
            "{name}: {read} gauge"
        );
        assert_eq!(
            transcript::export_csv_memo(&mut session),
            csv,
            "{name}: {read} csv"
        );
        assert_eq!(
            transcript::export_text_memo(&mut session),
            text,
            "{name}: {read} text"
        );
    }
}

/// A fresh exploration touching every label and status the renderers
/// know: all six null-spec kinds (both label forms of the two that
/// print a filter only when it is non-trivial), all four statuses,
/// bookmarks, both `n_H1` flip directions, and a label the CSV must
/// quote.
fn render_tour(table: Arc<Table>) -> Session<BoxedPolicy> {
    let policy = PolicySpec::Fixed { gamma: 10.0 }.build().unwrap();
    let mut s = Session::shared(table, 0.05, policy).unwrap();
    let salary = Predicate::eq("salary_over_50k", true);
    s.add_visualization("sex", Predicate::True).unwrap();
    s.add_visualization("education", salary.clone()).unwrap();
    s.add_visualization("education", salary.clone().negate())
        .unwrap(); // rule 3: supersedes H0
    let (female, _) = s
        .add_visualization("race", Predicate::eq("sex", "Female"))
        .unwrap()
        .hypothesis
        .unwrap();
    s.delete_hypothesis(female).unwrap();
    s.bookmark(female).unwrap();
    s.add_visualization("sex", Predicate::eq("education", "Kindergarten"))
        .unwrap(); // untestable
    let (phd, _) = s
        .add_visualization("marital_status", Predicate::eq("education", "PhD"))
        .unwrap()
        .hypothesis
        .unwrap();
    s.bookmark(phd).unwrap();
    s.add_visualization("race", Predicate::eq("survey_wave", "Wave-2"))
        .unwrap();
    let quoted = Predicate::In {
        column: "education".into(),
        values: vec![Value::from("Bachelor"), Value::from("Ph,D \"hons\"")],
    };
    s.add_visualization("sex", quoted).unwrap();
    let (age, _) = s
        .add_visualization("age", salary.clone())
        .unwrap()
        .hypothesis
        .unwrap();
    s.override_hypothesis(
        age,
        NullSpec::MeanEquality {
            attribute: "age".into(),
            filter_a: salary.clone(),
            filter_b: salary.clone().negate(),
        },
    )
    .unwrap();
    let male = Predicate::eq("sex", "Male");
    for (filter, use_g_test) in [(Predicate::True, false), (male.clone(), true)] {
        s.add_hypothesis(NullSpec::IndependenceWithin {
            attribute_a: "education".into(),
            attribute_b: "native_region".into(),
            filter,
            use_g_test,
        })
        .unwrap();
    }
    for filter in [Predicate::True, male.clone()] {
        s.add_hypothesis(NullSpec::NoGroupMeanDifference {
            value_attribute: "hours_per_week".into(),
            group_attribute: "occupation".into(),
            filter,
        })
        .unwrap();
    }
    let (shift, _) = s
        .add_hypothesis(NullSpec::StochasticEquality {
            attribute: "hours_per_week".into(),
            filter_a: male.clone(),
            filter_b: male.clone().negate(),
            method: ShiftMethod::MannWhitney,
        })
        .unwrap();
    s.bookmark(shift).unwrap();
    s.add_hypothesis(NullSpec::StochasticEquality {
        attribute: "age".into(),
        filter_a: Predicate::eq("survey_wave", "Wave-1"),
        filter_b: Predicate::eq("survey_wave", "Wave-3"),
        method: ShiftMethod::KolmogorovSmirnov,
    })
    .unwrap();
    s
}

#[test]
fn gauge_and_transcript_bytes_match_the_parent_commit() {
    // The restored real exploration (PR 4's census fixture) …
    let bytes = std::fs::read(fixture_path("census-session-v1.awrs")).unwrap();
    let image = snapshot::decode(&bytes).unwrap();
    let census = Session::restore(
        Arc::new(CensusGenerator::new(2017).generate(1_000)),
        Some(Arc::new(EvalCache::new())),
        image.session,
        image.policy.build().unwrap(),
        image.policy_since as usize,
    )
    .unwrap();
    assert_renders_pinned("census-session-v1", census);

    // … and the tour, whose coverage is checked rather than assumed.
    let table = Arc::new(CensusGenerator::new(2017).generate(6_000));
    let tour = render_tour(table.clone());
    let hs = tour.hypotheses();
    let kinds: std::collections::HashSet<_> =
        hs.iter().map(|h| std::mem::discriminant(&h.null)).collect();
    assert_eq!(kinds.len(), 6, "every null-spec kind");
    let statuses: [fn(&HypothesisStatus) -> bool; 4] = [
        |s| matches!(s, HypothesisStatus::Tested(_)),
        |s| matches!(s, HypothesisStatus::Untestable),
        |s| matches!(s, HypothesisStatus::Superseded { .. }),
        |s| matches!(s, HypothesisStatus::Deleted),
    ];
    for status in statuses {
        assert!(hs.iter().any(|h| status(&h.status)));
    }
    for direction in [FlipDirection::ToRejection, FlipDirection::ToAcceptance] {
        assert!(hs
            .iter()
            .filter_map(|h| h.record()?.flip)
            .any(|f| f.direction == direction));
    }
    assert!(hs.iter().any(|h| h.bookmarked && h.is_discovery()));
    assert!(hs.iter().any(|h| h.bookmarked && !h.is_active()));
    // Through the snapshot codec and a restore, the bytes still hold.
    let image = SessionImage {
        id: 25,
        dataset: "census".into(),
        fingerprint: None,
        policy: PolicySpec::Fixed { gamma: 10.0 },
        policy_since: 0,
        session: tour.snapshot(),
    };
    let decoded = snapshot::decode(&snapshot::encode(&image)).unwrap();
    let restored = Session::restore(
        table,
        None,
        decoded.session,
        decoded.policy.build().unwrap(),
        0,
    )
    .unwrap();
    assert_renders_pinned("render-tour", tour);
    assert_renders_pinned("render-tour", restored);
}

#[test]
fn corrupt_files_decode_to_corrupt_snapshot_errors() {
    let bytes = snapshot::encode(&fixture_image());
    let is_corrupt = |r: Result<SessionImage, ServeError>| matches!(r, Err(e) if e.code == ErrorCode::CorruptSnapshot);
    assert!(is_corrupt(snapshot::decode(&[])));
    assert!(is_corrupt(snapshot::decode(b"AWR2not-a-snapshot")));
    assert!(is_corrupt(snapshot::decode(&bytes[..bytes.len() - 1])));
    let mut flipped = bytes.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x10;
    assert!(is_corrupt(snapshot::decode(&flipped)));
    let mut versioned = bytes;
    versioned[4] = 99;
    assert!(is_corrupt(snapshot::decode(&versioned)));
}
