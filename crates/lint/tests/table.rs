//! The protocol-table analyzer against fixture controllers: structural
//! rules (incomplete-match, dead-arm, unknown-variant, unreachable-state)
//! and the coverage diff against an `rcc-verify` census.

use rcc_lint::{run, LintConfig, LintOutput};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn lint(name: &str, coverage: Option<&str>) -> Result<LintOutput, String> {
    run(&LintConfig {
        root: fixture(name),
        coverage: coverage.map(|c| fixture(name).join(c)),
    })
}

#[test]
fn table_rules_fire() {
    let out = lint("table", None).expect("fixture lints");
    let rules: Vec<&str> = out.findings.iter().map(|f| f.rule).collect();
    for expected in [
        "incomplete-match",
        "dead-arm",
        "unknown-variant",
        "unreachable-state",
    ] {
        assert!(rules.contains(&expected), "missing {expected}: {rules:?}");
    }
    // The duplicate Data arm is the dead one; Phantom is the unknown
    // variant; Ghost is the unreferenced state; the ignored wildcard
    // leaves the unnamed response events uncovered.
    let msg_of = |rule: &str| -> String {
        out.findings
            .iter()
            .filter(|f| f.rule == rule)
            .map(|f| f.message.clone())
            .collect::<Vec<_>>()
            .join("; ")
    };
    assert!(msg_of("dead-arm").contains("Data"));
    assert!(msg_of("unknown-variant").contains("Phantom"));
    assert!(msg_of("unreachable-state").contains("Ghost"));
    assert!(msg_of("incomplete-match").contains("StoreAck"));
}

#[test]
fn matrix_reflects_the_fixture_controller() {
    let out = lint("table", None).expect("fixture lints");
    assert_eq!(out.controllers.len(), 1);
    let ct = &out.controllers[0];
    assert_eq!(
        (ct.protocol.as_str(), ct.controller.as_str()),
        ("rcc", "l1")
    );
    assert!(ct.states.iter().any(|s| s == "Ghost"));
    assert!(out.matrix_json.contains("\"RespPayload\""));
    assert!(out.matrix_json.contains("\"wildcard\": true"));
}

#[test]
fn full_coverage_has_no_gaps() {
    let out = lint("coverage", Some("full.tsv")).expect("fixture lints");
    assert!(out.gaps.is_empty(), "{:?}", out.gaps);
    assert!(out.findings.is_empty(), "{:?}", out.findings);
    assert!(out.matrix_json.contains("\"coverage\""));
}

#[test]
fn missing_transition_becomes_a_named_gap() {
    let out = lint("coverage", Some("partial.tsv")).expect("fixture lints");
    assert_eq!(out.gaps.len(), 1);
    assert_eq!(out.gaps[0].event, "Atomic");
    let gap_findings: Vec<_> = out
        .findings
        .iter()
        .filter(|f| f.rule == "coverage-gap")
        .collect();
    assert_eq!(gap_findings.len(), 1);
    assert!(gap_findings[0].message.contains("Atomic"));
    assert!(out.matrix_json.contains("\"gaps\": [\n"));
}

#[test]
fn malformed_coverage_is_rejected() {
    let err = lint("coverage", Some("malformed.tsv")).expect_err("must reject");
    assert!(err.contains("count"), "unexpected error: {err}");
}

/// The workspace's controller transition tables, one line per
/// controller's states and one per (enum, variant) arm, without source
/// lines: an edit that moves code but changes no transition leaves this
/// text as it was.
fn workspace_transitions() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = run(&LintConfig {
        root,
        coverage: None,
    })
    .expect("workspace lints");
    let mut s = String::new();
    for ct in &out.controllers {
        let (p, c) = (&ct.protocol, &ct.controller);
        s.push_str(&format!("{p} {c} states [{}]\n", ct.states.join(", ")));
        for (ename, t) in &ct.tables {
            for (variant, (status, _line)) in &t.variants {
                s.push_str(&format!(
                    "{p} {c} {ename} wildcard={} {variant} {}\n",
                    t.wildcard,
                    status.as_str()
                ));
            }
        }
    }
    s
}

/// Pins the extracted transition tables of every controller. A change
/// that alters a transition regenerates the snapshot with
/// `UPDATE_GOLDEN=1 cargo test -p rcc-lint --test table` and shows the
/// diff in review.
#[test]
fn workspace_transition_tables_are_pinned() {
    let snapshot = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/snapshots/transitions.txt");
    let got = workspace_transitions();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(snapshot.parent().expect("has a parent")).expect("mkdir");
        std::fs::write(&snapshot, &got).expect("write snapshot");
        return;
    }
    let want = std::fs::read_to_string(&snapshot).expect("read tests/snapshots/transitions.txt");
    if got != want {
        let diff: Vec<String> = want
            .lines()
            .filter(|l| !got.lines().any(|g| g == *l))
            .map(|l| format!("- {l}"))
            .chain(
                got.lines()
                    .filter(|l| !want.lines().any(|w| w == *l))
                    .map(|l| format!("+ {l}")),
            )
            .collect();
        panic!(
            "controller transition tables changed — if intentional, regenerate with \
             `UPDATE_GOLDEN=1 cargo test -p rcc-lint --test table`:\n{}",
            diff.join("\n")
        );
    }
}
