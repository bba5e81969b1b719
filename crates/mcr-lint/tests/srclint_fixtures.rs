//! Fixture-based coverage for every srclint rule: each rule ships one
//! positive snippet (must be flagged, with that rule's code and nothing
//! else) and one negative snippet (must stay clean). Adding a rule
//! without fixtures fails the completeness test at the bottom.

use mcr_lint::srclint::{
    self, RULE_EDGE_OVERSHOOT, RULE_PANICKING_WORKER, RULE_TRUNCATING_CAST, RULE_UNBOUNDED_NET_READ,
};
use std::path::PathBuf;

/// Every rule, with the short fixture stem and the path label the rule
/// cares about (the sweep rule only fires in `sweep.rs`).
const RULES: [(&str, &str, &str); 4] = [
    (
        RULE_TRUNCATING_CAST,
        "truncating-cast",
        "crates/demo/src/lib.rs",
    ),
    (
        RULE_PANICKING_WORKER,
        "panicking-sweep-worker",
        "crates/demo/src/sweep.rs",
    ),
    (
        RULE_EDGE_OVERSHOOT,
        "edge-overshoot-guard",
        "crates/demo/src/lib.rs",
    ),
    (
        RULE_UNBOUNDED_NET_READ,
        "unbounded-net-read",
        "crates/demo/src/lib.rs",
    ),
];

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {}: {e}", path.display()))
}

#[test]
fn positive_fixtures_trip_exactly_their_rule() {
    for (code, stem, label) in RULES {
        let text = fixture(&format!("{stem}_pos.rs"));
        let diags = srclint::lint_file(label, &text);
        assert!(!diags.is_empty(), "{stem}: positive fixture not flagged");
        for d in &diags {
            assert_eq!(
                d.code, code,
                "{stem}: positive fixture tripped a different rule: {d}"
            );
        }
    }
}

#[test]
fn negative_fixtures_stay_clean() {
    for (_, stem, label) in RULES {
        let text = fixture(&format!("{stem}_neg.rs"));
        let diags = srclint::lint_file(label, &text);
        assert!(
            diags.is_empty(),
            "{stem}: negative fixture flagged: {diags:?}"
        );
    }
}

#[test]
fn context_gated_rules_need_their_context() {
    // The sweep-worker positive snippet is clean outside a sweep.rs file.
    let sweep = fixture("panicking-sweep-worker_pos.rs");
    assert!(srclint::lint_file("crates/demo/src/lib.rs", &sweep).is_empty());
}

#[test]
fn every_rule_constant_has_fixtures() {
    // Guards against a new rule landing without fixture coverage: the
    // rule constants live in one module, and this list must track them.
    let covered: Vec<&str> = RULES.iter().map(|(code, _, _)| *code).collect();
    for code in [
        RULE_TRUNCATING_CAST,
        RULE_PANICKING_WORKER,
        RULE_EDGE_OVERSHOOT,
        RULE_UNBOUNDED_NET_READ,
    ] {
        assert!(covered.contains(&code), "rule {code} has no fixtures");
        let stem = code.strip_prefix("src/").unwrap_or(code);
        fixture(&format!("{stem}_pos.rs"));
        fixture(&format!("{stem}_neg.rs"));
    }
}
