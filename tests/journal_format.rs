//! Pins the journal format: one record per [`Edit`] variant, as the JSON
//! bytes an existing store holds on disk and a leader ships to its
//! followers. Every edit must encode to exactly these strings and decode
//! back to the same value, so stores and followers written before any
//! refactor of the edit type keep working.

use em_core::{
    decode_record, CmpOp, DebugSession, Edit, FeatureDef, FeatureId, OrderingAlgo, PredId,
    Predicate, RuleId, SessionConfig, SessionSnapshot,
};
use em_similarity::{Measure, TokenScheme};
use em_types::{AttrId, CandidateSet, Record, Schema, Table};

/// A one-rule session's snapshot: the payload of `Restore`.
fn snapshot() -> SessionSnapshot {
    let schema = Schema::new(["title", "code"]);
    let mut a = Table::new("A", schema.clone());
    a.push(Record::new("a1", ["apple ipod nano", "MC037"]));
    let mut b = Table::new("B", schema);
    b.push(Record::new("b1", ["aple ipod nano", "MC037"]));
    let cands = CandidateSet::cartesian(&a, &b);
    let mut s = DebugSession::new(a, b, cands, SessionConfig::default());
    s.add_rule_text("jaccard_ws(title, title) >= 0.6 AND exact(code, code) >= 1")
        .unwrap();
    s.snapshot()
}

/// Every variant with the bytes it has always been journaled as.
fn golden() -> Vec<(Edit, &'static str)> {
    vec![
        (
            Edit::InternFeature {
                def: FeatureDef::new(
                    Measure::Jaccard(TokenScheme::Whitespace),
                    AttrId(0),
                    AttrId(1),
                ),
            },
            r#"{"InternFeature":{"def":{"measure":{"Jaccard":"Whitespace"},"attr_a":0,"attr_b":1}}}"#,
        ),
        (
            Edit::AddRule {
                preds: vec![
                    Predicate::new(FeatureId(0), CmpOp::Ge, 0.6),
                    Predicate::new(FeatureId(1), CmpOp::Le, 0.25),
                ],
            },
            r#"{"AddRule":{"preds":[{"feature":0,"op":"Ge","threshold":0.6},{"feature":1,"op":"Le","threshold":0.25}]}}"#,
        ),
        (
            Edit::RemoveRule { rid: RuleId(3) },
            r#"{"RemoveRule":{"rid":3}}"#,
        ),
        (
            Edit::AddPredicate {
                rid: RuleId(2),
                pred: Predicate::new(FeatureId(4), CmpOp::Gt, 0.5),
            },
            r#"{"AddPredicate":{"rid":2,"pred":{"feature":4,"op":"Gt","threshold":0.5}}}"#,
        ),
        (
            Edit::RemovePredicate { pid: PredId(7) },
            r#"{"RemovePredicate":{"pid":7}}"#,
        ),
        (
            Edit::SetThreshold {
                pid: PredId(5),
                threshold: 0.85,
            },
            r#"{"SetThreshold":{"pid":5,"threshold":0.85}}"#,
        ),
        (Edit::Undo, r#""Undo""#),
        (Edit::Resume, r#""Resume""#),
        (Edit::RunFull, r#""RunFull""#),
        (Edit::Simplify, r#""Simplify""#),
        (
            Edit::Optimize {
                algo: OrderingAlgo::Random(9),
            },
            r#"{"Optimize":{"algo":{"Random":9}}}"#,
        ),
        (
            Edit::Optimize {
                algo: OrderingAlgo::GreedyReduction,
            },
            r#"{"Optimize":{"algo":"GreedyReduction"}}"#,
        ),
        (
            Edit::Restore {
                snapshot: snapshot(),
            },
            r#"{"Restore":{"snapshot":{"function":{"rules":[{"id":0,"preds":[{"id":0,"pred":{"feature":0,"op":"Ge","threshold":0.6}},{"id":1,"pred":{"feature":1,"op":"Ge","threshold":1}}]}],"next_rule":1,"next_pred":2},"features":[[0,{"measure":{"Jaccard":"Whitespace"},"attr_a":0,"attr_b":0}],[1,{"measure":"Exact","attr_a":1,"attr_b":1}]],"quarantined":[]}}}"#,
        ),
    ]
}

#[test]
fn every_edit_encodes_to_its_journal_bytes() {
    for (edit, bytes) in golden() {
        assert_eq!(serde_json::to_string(&edit).unwrap(), bytes, "{edit:?}");
    }
}

#[test]
fn journal_bytes_decode_to_the_same_edit() {
    for (edit, bytes) in golden() {
        let decoded = decode_record(bytes.as_bytes()).unwrap();
        assert_eq!(format!("{decoded:?}"), format!("{edit:?}"), "{bytes}");
    }
}

#[test]
fn the_golden_covers_every_variant() {
    let covered: std::collections::BTreeSet<String> = golden()
        .iter()
        .map(|(edit, _)| {
            let debug = format!("{edit:?}");
            let end = debug.find([' ', '{', '(']).unwrap_or(debug.len());
            debug[..end].to_string()
        })
        .collect();
    // One arm per variant: adding a variant without a golden fails to
    // compile here.
    let every = |e: &Edit| match e {
        Edit::InternFeature { .. }
        | Edit::AddRule { .. }
        | Edit::RemoveRule { .. }
        | Edit::AddPredicate { .. }
        | Edit::RemovePredicate { .. }
        | Edit::SetThreshold { .. }
        | Edit::Undo
        | Edit::Resume
        | Edit::RunFull
        | Edit::Simplify
        | Edit::Optimize { .. }
        | Edit::Restore { .. } => (),
    };
    golden().iter().for_each(|(e, _)| every(e));
    assert_eq!(covered.len(), 12, "{covered:?}");
}
