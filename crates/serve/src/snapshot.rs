//! The durable session-snapshot format (`AWRS`, version 1).
//!
//! One snapshot file is one session image:
//!
//! ```text
//! offset 0   magic    "AWRS"           (4 bytes)
//! offset 4   version  0x01             (1 byte)
//! offset 5   length   u32 big-endian   (payload bytes that follow)
//! offset 9   checksum u64 little-endian (FNV-1a over the payload)
//! offset 17  payload                   (tag codec, see below)
//! ```
//!
//! The payload reuses the protocol-v2 tag codec of [`crate::wire`] —
//! LEB128 varints, bit-exact little-endian `f64`s, length-prefixed
//! UTF-8 strings, and the existing policy/filter encoders — so the
//! wealth ledger survives persistence exactly as it survives the wire:
//! bit for bit. The length prefix makes truncation detectable and the
//! checksum makes any other corruption detectable; both decode to
//! [`ErrorCode::CorruptSnapshot`], never a panic and never a silently
//! reset wealth.
//!
//! What is stored: the session id, its dataset name, the active
//! [`PolicySpec`] (plus the ledger index it was installed at, so
//! stateful policies replay the right observation history), the
//! α-investing machine snapshot, and the visualization/hypothesis
//! histories. What is deliberately **not** stored: selection bitmaps or
//! anything else sized by the table — a selection is derived lazily
//! from its stored predicate, through the per-dataset `EvalCache`, by
//! the first test after restore that needs it, so snapshot size tracks
//! the exploration, never the data.
//!
//! Version discipline: any change to the payload grammar must bump
//! [`SNAPSHOT_VERSION`] and keep a decoder for version 1 — the golden
//! fixture under `tests/fixtures/` pins the version-1 bytes.

use crate::error::{ErrorCode, ServeError};
use crate::proto::{FilterSpec, PolicySpec, SessionId};
use crate::wire::{Reader, Writer};
use aware_core::hypothesis::{
    Hypothesis, HypothesisId, HypothesisStatus, NullSpec, ShiftMethod, TestRecord,
};
use aware_core::session::SessionSnapshot;
use aware_core::viz::{Visualization, VizId};
use aware_data::hash::fnv1a;
use aware_mht::investing::{LedgerEntry, MachineSnapshot};
use aware_mht::Decision;
use aware_stats::power::{FlipDirection, FlipEstimate};
use aware_stats::tests::{TestKind, TestOutcome};

/// Snapshot-file magic. Distinct from the wire's `AWR2` so a snapshot
/// file accidentally fed to a socket (or vice versa) fails loudly.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"AWRS";

/// Current snapshot format version. Version 2 added the dataset
/// content fingerprint (an `Option<u64>` right after the dataset
/// name); version-1 files still decode, with [`SessionImage::
/// fingerprint`] `None` — they were written before tables could be
/// fingerprinted, so restore extends them the trust they always had.
pub const SNAPSHOT_VERSION: u8 = 2;

/// Oldest snapshot version this build still decodes.
pub const SNAPSHOT_VERSION_MIN: u8 = 1;

/// Bytes before the payload: magic + version + u32 length + u64 FNV-1a.
pub const SNAPSHOT_HEADER_LEN: usize = 17;

/// Hard ceiling on a snapshot payload — a corrupted length prefix must
/// not ask the loader to allocate gigabytes.
pub const MAX_SNAPSHOT_BYTES: usize = 64 << 20;

/// Everything the serving layer persists about one session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionImage {
    /// The session's registry id.
    pub id: SessionId,
    /// Name of the dataset the session explores; restore re-attaches
    /// the registered table and shared evaluation cache by this name.
    pub dataset: String,
    /// Content fingerprint of the dataset's table at snapshot time
    /// ([`aware_data::table::Table::fingerprint`]). Restore and import
    /// refuse a registered table whose fingerprint differs — a wealth
    /// ledger replayed against changed data is a corrupt ledger, and
    /// for cross-shard migration this is what proves both shards hold
    /// the *same* table, not merely one with the same name. `None` for
    /// version-1 files, which predate fingerprinting.
    pub fingerprint: Option<u64>,
    /// The investing policy active at snapshot time.
    pub policy: PolicySpec,
    /// Ledger index at which `policy` was installed: the restore
    /// replays `observe` for entries from here on (0 = active since the
    /// session opened).
    pub policy_since: u64,
    /// The session state proper.
    pub session: SessionSnapshot,
}

/// Encodes a session image into complete snapshot-file bytes.
pub fn encode(image: &SessionImage) -> Vec<u8> {
    let mut w = Writer::new();
    w.varint(image.id);
    w.str(&image.dataset);
    // Version 2: the dataset fingerprint. Fixed 8 bytes (fingerprints
    // are uniformly distributed; a varint would only pad them).
    match image.fingerprint {
        None => w.u8(0),
        Some(fp) => {
            w.u8(1);
            w.raw_u64(fp);
        }
    }
    w.policy(&image.policy);
    w.varint(image.policy_since);
    machine(&mut w, &image.session.machine);
    w.varint(image.session.visualizations.len() as u64);
    for viz in &image.session.visualizations {
        w.str(&viz.attribute);
        w.filter(&FilterSpec::from_predicate(&viz.filter));
    }
    w.varint(image.session.hypotheses.len() as u64);
    for h in &image.session.hypotheses {
        hypothesis(&mut w, h);
    }
    let payload = w.into_bytes();

    let mut out = Vec::with_capacity(SNAPSHOT_HEADER_LEN + payload.len());
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    out.push(SNAPSHOT_VERSION);
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(&fnv1a(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Decodes complete snapshot-file bytes. Every failure — truncation,
/// checksum mismatch, unknown version, codec error — is a
/// [`ErrorCode::CorruptSnapshot`].
pub fn decode(bytes: &[u8]) -> Result<SessionImage, ServeError> {
    let corrupt = |message: String| ServeError {
        code: ErrorCode::CorruptSnapshot,
        message,
    };
    if bytes.len() < SNAPSHOT_HEADER_LEN {
        return Err(corrupt(format!(
            "file of {} bytes is shorter than the {SNAPSHOT_HEADER_LEN}-byte header",
            bytes.len()
        )));
    }
    if bytes[..4] != SNAPSHOT_MAGIC {
        return Err(corrupt(format!(
            "bad snapshot magic {:02x}{:02x}{:02x}{:02x} (expected \"AWRS\")",
            bytes[0], bytes[1], bytes[2], bytes[3]
        )));
    }
    let version = bytes[4];
    if !(SNAPSHOT_VERSION_MIN..=SNAPSHOT_VERSION).contains(&version) {
        return Err(corrupt(format!(
            "unsupported snapshot version {version} (this build reads \
             {SNAPSHOT_VERSION_MIN}..={SNAPSHOT_VERSION})"
        )));
    }
    let declared = u32::from_be_bytes([bytes[5], bytes[6], bytes[7], bytes[8]]) as usize;
    if declared > MAX_SNAPSHOT_BYTES {
        return Err(corrupt(format!(
            "declared payload of {declared} bytes exceeds the {MAX_SNAPSHOT_BYTES}-byte ceiling"
        )));
    }
    let payload = &bytes[SNAPSHOT_HEADER_LEN..];
    if payload.len() != declared {
        return Err(corrupt(format!(
            "payload is {} bytes but the header declares {declared} (torn write?)",
            payload.len()
        )));
    }
    let mut checksum = [0u8; 8];
    checksum.copy_from_slice(&bytes[9..17]);
    let expected = u64::from_le_bytes(checksum);
    let actual = fnv1a(payload);
    if actual != expected {
        return Err(corrupt(format!(
            "payload checksum {actual:016x} does not match header {expected:016x}"
        )));
    }
    decode_payload(payload, version).map_err(|e| corrupt(e.message))
}

fn decode_payload(payload: &[u8], version: u8) -> Result<SessionImage, ServeError> {
    let mut r = Reader::new(payload);
    let id = r.varint("session id")?;
    let dataset = r.str("dataset name")?;
    let fingerprint = if version >= 2 {
        match r.u8("fingerprint flag")? {
            0 => None,
            1 => Some(r.u64_le("dataset fingerprint")?),
            other => return Err(ServeError::invalid(format!("bad fingerprint flag {other}"))),
        }
    } else {
        None // version 1 predates table fingerprinting
    };
    let policy = r.policy()?;
    let policy_since = r.varint("policy_since")?;
    let machine = read_machine(&mut r)?;
    let viz_count = r.varint("visualization count")? as usize;
    let mut visualizations = Vec::with_capacity(viz_count.min(1024));
    for i in 0..viz_count {
        let attribute = r.str("visualization attribute")?;
        let filter = r.filter(0)?.into_predicate();
        visualizations.push(Visualization {
            id: VizId(i as u64),
            attribute,
            filter,
        });
    }
    let hyp_count = r.varint("hypothesis count")? as usize;
    let mut hypotheses = Vec::with_capacity(hyp_count.min(1024));
    for i in 0..hyp_count {
        hypotheses.push(read_hypothesis(&mut r, i as u64)?);
    }
    r.finish()?;
    Ok(SessionImage {
        id,
        dataset,
        fingerprint,
        policy,
        policy_since,
        session: SessionSnapshot {
            machine,
            visualizations,
            hypotheses,
        },
    })
}

// -- machine ----------------------------------------------------------------

fn machine(w: &mut Writer, m: &MachineSnapshot) {
    w.f64(m.alpha);
    w.f64(m.eta);
    w.f64(m.omega);
    w.varint(m.ledger.len() as u64);
    for e in &m.ledger {
        w.f64(e.p_value);
        w.f64(e.bid);
        w.u8(e.decision.is_rejection() as u8);
        w.f64(e.wealth_before);
        w.f64(e.wealth_after);
    }
}

fn read_machine(r: &mut Reader) -> Result<MachineSnapshot, ServeError> {
    let alpha = r.f64("alpha")?;
    let eta = r.f64("eta")?;
    let omega = r.f64("omega")?;
    let count = r.varint("ledger length")? as usize;
    let mut ledger = Vec::with_capacity(count.min(1024));
    for index in 0..count {
        ledger.push(LedgerEntry {
            index,
            p_value: r.f64("ledger p_value")?,
            bid: r.f64("ledger bid")?,
            decision: read_decision(r)?,
            wealth_before: r.f64("ledger wealth_before")?,
            wealth_after: r.f64("ledger wealth_after")?,
        });
    }
    Ok(MachineSnapshot {
        alpha,
        eta,
        omega,
        ledger,
    })
}

fn read_decision(r: &mut Reader) -> Result<Decision, ServeError> {
    match r.u8("decision")? {
        0 => Ok(Decision::Accept),
        1 => Ok(Decision::Reject),
        other => Err(ServeError::invalid(format!("unknown decision tag {other}"))),
    }
}

// -- hypotheses -------------------------------------------------------------

fn predicate(w: &mut Writer, p: &aware_data::predicate::Predicate) {
    w.filter(&FilterSpec::from_predicate(p));
}

fn null_spec(w: &mut Writer, spec: &NullSpec) {
    match spec {
        NullSpec::NoFilterEffect { attribute, filter } => {
            w.u8(1);
            w.str(attribute);
            predicate(w, filter);
        }
        NullSpec::NoDistributionDifference {
            attribute,
            filter_a,
            filter_b,
        } => {
            w.u8(2);
            w.str(attribute);
            predicate(w, filter_a);
            predicate(w, filter_b);
        }
        NullSpec::MeanEquality {
            attribute,
            filter_a,
            filter_b,
        } => {
            w.u8(3);
            w.str(attribute);
            predicate(w, filter_a);
            predicate(w, filter_b);
        }
        NullSpec::IndependenceWithin {
            attribute_a,
            attribute_b,
            filter,
            use_g_test,
        } => {
            w.u8(4);
            w.str(attribute_a);
            w.str(attribute_b);
            predicate(w, filter);
            w.u8(*use_g_test as u8);
        }
        NullSpec::NoGroupMeanDifference {
            value_attribute,
            group_attribute,
            filter,
        } => {
            w.u8(5);
            w.str(value_attribute);
            w.str(group_attribute);
            predicate(w, filter);
        }
        NullSpec::StochasticEquality {
            attribute,
            filter_a,
            filter_b,
            method,
        } => {
            w.u8(6);
            w.str(attribute);
            predicate(w, filter_a);
            predicate(w, filter_b);
            w.u8(match method {
                ShiftMethod::MannWhitney => 0,
                ShiftMethod::KolmogorovSmirnov => 1,
            });
        }
    }
}

fn read_predicate(r: &mut Reader) -> Result<aware_data::predicate::Predicate, ServeError> {
    Ok(r.filter(0)?.into_predicate())
}

fn read_null_spec(r: &mut Reader) -> Result<NullSpec, ServeError> {
    Ok(match r.u8("null-spec tag")? {
        1 => NullSpec::NoFilterEffect {
            attribute: r.str("attribute")?,
            filter: read_predicate(r)?,
        },
        2 => NullSpec::NoDistributionDifference {
            attribute: r.str("attribute")?,
            filter_a: read_predicate(r)?,
            filter_b: read_predicate(r)?,
        },
        3 => NullSpec::MeanEquality {
            attribute: r.str("attribute")?,
            filter_a: read_predicate(r)?,
            filter_b: read_predicate(r)?,
        },
        4 => NullSpec::IndependenceWithin {
            attribute_a: r.str("attribute_a")?,
            attribute_b: r.str("attribute_b")?,
            filter: read_predicate(r)?,
            use_g_test: r.u8("use_g_test")? != 0,
        },
        5 => NullSpec::NoGroupMeanDifference {
            value_attribute: r.str("value_attribute")?,
            group_attribute: r.str("group_attribute")?,
            filter: read_predicate(r)?,
        },
        6 => NullSpec::StochasticEquality {
            attribute: r.str("attribute")?,
            filter_a: read_predicate(r)?,
            filter_b: read_predicate(r)?,
            method: match r.u8("shift method")? {
                0 => ShiftMethod::MannWhitney,
                1 => ShiftMethod::KolmogorovSmirnov,
                other => {
                    return Err(ServeError::invalid(format!(
                        "unknown shift-method tag {other}"
                    )))
                }
            },
        },
        other => {
            return Err(ServeError::invalid(format!(
                "unknown null-spec tag {other}"
            )))
        }
    })
}

fn test_kind_tag(kind: TestKind) -> u8 {
    match kind {
        TestKind::WelchT => 1,
        TestKind::StudentT => 2,
        TestKind::OneSampleT => 3,
        TestKind::ZTest => 4,
        TestKind::ChiSquareGof => 5,
        TestKind::ChiSquareIndependence => 6,
        TestKind::TwoProportionZ => 7,
        TestKind::MannWhitneyU => 8,
        TestKind::KolmogorovSmirnov => 9,
        TestKind::FisherExact => 10,
        TestKind::GTest => 11,
        TestKind::OneWayAnova => 12,
        TestKind::ExactBinomial => 13,
    }
}

fn read_test_kind(r: &mut Reader) -> Result<TestKind, ServeError> {
    Ok(match r.u8("test kind")? {
        1 => TestKind::WelchT,
        2 => TestKind::StudentT,
        3 => TestKind::OneSampleT,
        4 => TestKind::ZTest,
        5 => TestKind::ChiSquareGof,
        6 => TestKind::ChiSquareIndependence,
        7 => TestKind::TwoProportionZ,
        8 => TestKind::MannWhitneyU,
        9 => TestKind::KolmogorovSmirnov,
        10 => TestKind::FisherExact,
        11 => TestKind::GTest,
        12 => TestKind::OneWayAnova,
        13 => TestKind::ExactBinomial,
        other => {
            return Err(ServeError::invalid(format!(
                "unknown test-kind tag {other}"
            )))
        }
    })
}

fn record(w: &mut Writer, rec: &TestRecord) {
    w.u8(test_kind_tag(rec.outcome.kind));
    w.f64(rec.outcome.statistic);
    w.f64(rec.outcome.df);
    w.f64(rec.outcome.p_value);
    w.f64(rec.outcome.effect_size);
    w.varint(rec.outcome.support as u64);
    w.f64(rec.bid);
    w.u8(rec.decision.is_rejection() as u8);
    w.f64(rec.wealth_after);
    w.f64(rec.support_fraction);
    match &rec.flip {
        None => w.u8(0),
        Some(flip) => {
            w.u8(1);
            w.u8(match flip.direction {
                FlipDirection::ToRejection => 0,
                FlipDirection::ToAcceptance => 1,
            });
            w.f64(flip.factor);
            w.varint(flip.additional_observations);
        }
    }
}

fn read_record(r: &mut Reader) -> Result<TestRecord, ServeError> {
    let kind = read_test_kind(r)?;
    let outcome = TestOutcome {
        kind,
        statistic: r.f64("statistic")?,
        df: r.f64("df")?,
        p_value: r.f64("p_value")?,
        effect_size: r.f64("effect_size")?,
        support: r.varint("support")? as usize,
    };
    let bid = r.f64("bid")?;
    let decision = read_decision(r)?;
    let wealth_after = r.f64("wealth_after")?;
    let support_fraction = r.f64("support_fraction")?;
    let flip = match r.u8("flip flag")? {
        0 => None,
        1 => Some(FlipEstimate {
            direction: match r.u8("flip direction")? {
                0 => FlipDirection::ToRejection,
                1 => FlipDirection::ToAcceptance,
                other => {
                    return Err(ServeError::invalid(format!(
                        "unknown flip-direction tag {other}"
                    )))
                }
            },
            factor: r.f64("flip factor")?,
            additional_observations: r.varint("flip additional_observations")?,
        }),
        other => return Err(ServeError::invalid(format!("bad flip flag {other}"))),
    };
    Ok(TestRecord {
        outcome,
        bid,
        decision,
        wealth_after,
        support_fraction,
        flip,
    })
}

fn hypothesis(w: &mut Writer, h: &Hypothesis) {
    null_spec(w, &h.null);
    w.opt_varint(h.source.map(|v| v.0));
    match &h.status {
        HypothesisStatus::Tested(rec) => {
            w.u8(0);
            record(w, rec);
        }
        HypothesisStatus::Untestable => w.u8(1),
        HypothesisStatus::Superseded { by } => {
            w.u8(2);
            w.varint(by.0);
        }
        HypothesisStatus::Deleted => w.u8(3),
    }
    w.u8(h.bookmarked as u8);
}

fn read_hypothesis(r: &mut Reader, id: u64) -> Result<Hypothesis, ServeError> {
    let null = read_null_spec(r)?;
    let source = r.opt_varint("source viz")?.map(VizId);
    let status = match r.u8("hypothesis status")? {
        0 => HypothesisStatus::Tested(read_record(r)?),
        1 => HypothesisStatus::Untestable,
        2 => HypothesisStatus::Superseded {
            by: HypothesisId(r.varint("superseded-by id")?),
        },
        3 => HypothesisStatus::Deleted,
        other => {
            return Err(ServeError::invalid(format!(
                "unknown hypothesis-status tag {other}"
            )))
        }
    };
    let bookmarked = r.u8("bookmarked")? != 0;
    Ok(Hypothesis {
        id: HypothesisId(id),
        null,
        source,
        status,
        bookmarked,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aware_data::census::CensusGenerator;
    use aware_data::predicate::Predicate;
    use std::sync::Arc;

    fn sample_image() -> SessionImage {
        let table: Arc<aware_data::table::Table> =
            Arc::new(CensusGenerator::new(11).generate(1_200));
        let policy = PolicySpec::Fixed { gamma: 10.0 };
        let mut session =
            aware_core::session::Session::shared(table.clone(), 0.05, policy.build().unwrap())
                .unwrap();
        session.add_visualization("sex", Predicate::True).unwrap();
        session
            .add_visualization("education", Predicate::eq("salary_over_50k", true))
            .unwrap();
        session
            .add_visualization("race", Predicate::eq("survey_wave", "Wave-1"))
            .unwrap();
        session
            .add_visualization("sex", Predicate::eq("education", "Kindergarten"))
            .unwrap();
        SessionImage {
            id: 42,
            dataset: "census".into(),
            fingerprint: Some(table.fingerprint()),
            policy,
            policy_since: 0,
            session: session.snapshot(),
        }
    }

    #[test]
    fn images_round_trip() {
        let image = sample_image();
        let bytes = encode(&image);
        let decoded = decode(&bytes).unwrap();
        assert_eq!(decoded, image);
    }

    #[test]
    fn truncation_at_every_byte_is_corrupt_never_a_panic() {
        let bytes = encode(&sample_image());
        for cut in 0..bytes.len() {
            match decode(&bytes[..cut]) {
                Err(e) => assert_eq!(e.code, ErrorCode::CorruptSnapshot, "cut {cut}"),
                Ok(_) => panic!("a {cut}-byte prefix of a {}-byte file decoded", bytes.len()),
            }
        }
    }

    #[test]
    fn bit_flips_fail_the_checksum() {
        let bytes = encode(&sample_image());
        // Flip one bit in every byte of the payload; the checksum (or
        // the codec) must reject every single mutation.
        for i in SNAPSHOT_HEADER_LEN..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[i] ^= 0x40;
            assert!(
                decode(&mutated).is_err(),
                "flipped bit at byte {i} went unnoticed"
            );
        }
        // Header corruption too: magic, version, length, checksum.
        for i in 0..SNAPSHOT_HEADER_LEN {
            let mut mutated = bytes.clone();
            mutated[i] ^= 0x01;
            assert!(decode(&mutated).is_err(), "header byte {i}");
        }
    }

    #[test]
    fn unknown_version_is_refused() {
        for version in [0u8, SNAPSHOT_VERSION + 1, 99] {
            let mut bytes = encode(&sample_image());
            bytes[4] = version;
            let err = decode(&bytes).unwrap_err();
            assert_eq!(err.code, ErrorCode::CorruptSnapshot);
            assert!(err.message.contains("version"), "{err}");
        }
    }

    /// Re-encodes an image in the version-1 grammar (no fingerprint
    /// field) by hand, reusing the very encoders `encode` uses.
    fn encode_v1(image: &SessionImage) -> Vec<u8> {
        let mut w = Writer::new();
        w.varint(image.id);
        w.str(&image.dataset);
        // v1 grammar: policy follows the dataset name directly.
        w.policy(&image.policy);
        w.varint(image.policy_since);
        machine(&mut w, &image.session.machine);
        w.varint(image.session.visualizations.len() as u64);
        for viz in &image.session.visualizations {
            w.str(&viz.attribute);
            w.filter(&FilterSpec::from_predicate(&viz.filter));
        }
        w.varint(image.session.hypotheses.len() as u64);
        for h in &image.session.hypotheses {
            hypothesis(&mut w, h);
        }
        let payload = w.into_bytes();
        let mut out = Vec::with_capacity(SNAPSHOT_HEADER_LEN + payload.len());
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.push(1); // version 1
        out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        out.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    #[test]
    fn version_1_files_still_decode_with_no_fingerprint() {
        let mut image = sample_image();
        let v1_bytes = encode_v1(&image);
        let decoded = decode(&v1_bytes).unwrap();
        // A v1 file carries no fingerprint; everything else survives.
        image.fingerprint = None;
        assert_eq!(decoded, image);
        // And re-encoding the migrated image writes a version-2 file.
        let reencoded = encode(&decoded);
        assert_eq!(reencoded[4], SNAPSHOT_VERSION);
        assert_eq!(decode(&reencoded).unwrap(), decoded);
    }

    #[test]
    fn snapshot_size_is_independent_of_table_size() {
        // The format's core promise: nothing in the file scales with the
        // dataset. The same exploration over a 60× larger table must
        // produce a byte-for-byte *identically sized* snapshot — which
        // is only possible because selections are stored as predicates,
        // never as bitmaps.
        let snap_for = |rows: usize| {
            let table = Arc::new(CensusGenerator::new(3).generate(rows));
            let mut s = aware_core::session::Session::shared(
                table,
                0.05,
                PolicySpec::Fixed { gamma: 10.0 }.build().unwrap(),
            )
            .unwrap();
            s.add_visualization("education", Predicate::eq("salary_over_50k", true))
                .unwrap();
            s.add_visualization("race", Predicate::eq("sex", "Female"))
                .unwrap();
            encode(&SessionImage {
                id: 1,
                dataset: "census".into(),
                // A fixed fingerprint, NOT the table's: the real one is
                // table-content-dependent, and this test's whole point
                // is that nothing else in the file scales with (or even
                // varies by) the data.
                fingerprint: Some(0xfeed_beef_dead_cafe),
                policy: PolicySpec::Fixed { gamma: 10.0 },
                policy_since: 0,
                session: s.snapshot(),
            })
        };
        let small = snap_for(500);
        let large = snap_for(30_000);
        // The only size dependence on the table is O(log n): varint row
        // counts (`support`, `n_H1`). A single serialized bitmap of the
        // large table would add ~3 750 bytes; the actual delta is the
        // width of a few varints.
        let delta = large.len().abs_diff(small.len());
        assert!(
            delta < 16,
            "snapshot size must track the exploration, not the data \
             ({} vs {} bytes)",
            small.len(),
            large.len()
        );
        assert!(large.len() < 30_000 / 8, "{} bytes", large.len());
    }
}
