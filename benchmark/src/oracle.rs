//! The independent check: replay a session's commands in-process
//! through an uncached `aware-core` session — no cache, no service, no
//! wire — and compare every decision the server announced.

use crate::layers::{self, Decision, SharedTable, VizReply};
use crate::workload::Generator;
use std::collections::BTreeMap;

/// One `add_visualization` reply the server gave for an oracle slot.
#[derive(Debug, Clone, Copy)]
pub struct Recorded {
    pub slot: u64,
    /// Position of the view in the session's script.
    pub index: usize,
    pub reply: VizReply,
}

#[derive(Debug, Default)]
pub struct Verdict {
    /// α-investing decisions compared (replies that carried a test).
    pub decisions: u64,
    pub mismatches: u64,
    pub problems: Vec<String>,
}

/// `AWR2` carries floats as bits, so they must match as bits; NDJSON
/// prints and re-parses them, so a relative 1e-12 is allowed there.
fn same(a: f64, b: f64, exact: bool) -> bool {
    a.to_bits() == b.to_bits() || (!exact && (a - b).abs() <= 1e-12 * a.abs().max(b.abs()))
}

fn same_reply(server: &VizReply, oracle: &VizReply, exact: bool) -> bool {
    let decisions = match (&server.decision, &oracle.decision) {
        (None, None) => true,
        (Some(s), Some(o)) => same_decision(s, o, exact),
        _ => false,
    };
    decisions && server.viz == oracle.viz && same(server.wealth, oracle.wealth, exact)
}

fn same_decision(s: &Decision, o: &Decision, exact: bool) -> bool {
    s.rejected == o.rejected
        && same(s.p_value, o.p_value, exact)
        && same(s.bid, o.bid, exact)
        && same(s.wealth_after, o.wealth_after, exact)
}

fn verify_slots(
    gen: &Generator,
    table: &SharedTable,
    slots: &[(&u64, &Vec<(usize, VizReply)>)],
) -> Verdict {
    let exact = !gen.spec.json;
    let mut verdict = Verdict::default();
    for (&slot, replies) in slots {
        let mut session = layers::oracle_session(table, gen.spec.gamma);
        let views = gen.views(slot);
        let mut next = replies.iter().peekable();
        for (index, view) in views.iter().enumerate() {
            if next.peek().is_none() {
                break;
            }
            let expected = layers::session_add_viz(&mut session, view.attribute, &view.filter);
            while let Some((_, got)) = next.next_if(|(i, _)| *i == index) {
                verdict.decisions += got.decision.is_some() as u64;
                if expected.as_ref().is_some_and(|e| same_reply(got, e, exact)) {
                    continue;
                }
                verdict.mismatches += 1;
                if verdict.problems.len() < 5 {
                    verdict.problems.push(format!(
                        "oracle: slot {slot} view {index}: server {got:?}, oracle {expected:?}"
                    ));
                }
            }
        }
        // Replies the script has no view for (or out of order).
        verdict.mismatches += next.count() as u64;
    }
    verdict
}

/// Replays every recorded session and compares reply by reply, on two
/// threads (the box has two cores).
pub fn verify(gen: &Generator, table: &SharedTable, recorded: &[Recorded]) -> Verdict {
    let mut by_slot: BTreeMap<u64, Vec<(usize, VizReply)>> = BTreeMap::new();
    for r in recorded {
        by_slot.entry(r.slot).or_default().push((r.index, r.reply));
    }
    for replies in by_slot.values_mut() {
        replies.sort_by_key(|(index, _)| *index);
    }
    let slots: Vec<_> = by_slot.iter().collect();
    let halves = slots.chunks(slots.len().div_ceil(2).max(1));
    let verdicts: Vec<Verdict> = std::thread::scope(|scope| {
        let handles: Vec<_> = halves
            .map(|half| scope.spawn(move || verify_slots(gen, table, half)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("oracle thread"))
            .collect()
    });
    let mut total = Verdict::default();
    for v in verdicts {
        total.decisions += v.decisions;
        total.mismatches += v.mismatches;
        total.problems.extend(v.problems);
    }
    total
}

/// The gauge and CSV transcript session `slot` must show after its
/// first `age` views.
pub fn replay_texts(
    gen: &Generator,
    table: &SharedTable,
    slot: u64,
    age: usize,
) -> (String, String) {
    let mut session = layers::oracle_session(table, gen.spec.gamma);
    for view in gen.views(slot).iter().take(age) {
        let _ = layers::session_add_viz(&mut session, view.attribute, &view.filter);
    }
    (
        layers::session_gauge(&session),
        layers::session_transcript_csv(&session),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{spec, Generator};

    fn recorded_by_a_faithful_server(
        gen: &Generator,
        table: &SharedTable,
        slot: u64,
    ) -> Vec<Recorded> {
        // A cached session stands in for the server: different code
        // path from the oracle's, same answers required.
        let cache = layers::new_cache();
        let mut session = layers::cached_session(table, &cache, gen.spec.gamma);
        gen.views(slot)
            .iter()
            .enumerate()
            .map(|(index, view)| Recorded {
                slot,
                index,
                reply: layers::session_add_viz(&mut session, view.attribute, &view.filter).unwrap(),
            })
            .collect()
    }

    #[test]
    fn faithful_replies_pass_and_a_forged_wealth_is_caught() {
        let gen = Generator::new(spec("shared_drill_100k").unwrap().scaled(0.05), 4);
        let table = layers::census(gen.spec.rows);
        let mut recorded = recorded_by_a_faithful_server(&gen, &table, 6);
        recorded.extend(recorded_by_a_faithful_server(&gen, &table, 9));
        let ok = verify(&gen, &table, &recorded);
        assert_eq!(ok.mismatches, 0, "{:?}", ok.problems);
        assert!(ok.decisions >= 20, "only {} decisions", ok.decisions);

        // One ulp of minted wealth in one reply is one failed operation.
        let d = recorded[5].reply.decision.as_mut().unwrap();
        d.wealth_after = f64::from_bits(d.wealth_after.to_bits() + 1);
        let forged = verify(&gen, &table, &recorded);
        assert_eq!(forged.mismatches, 1);

        // A reply for a view the script does not have is a mismatch too.
        recorded.push(Recorded {
            slot: 6,
            index: 99,
            reply: recorded[0].reply,
        });
        assert_eq!(verify(&gen, &table, &recorded).mismatches, 2);
    }
}
