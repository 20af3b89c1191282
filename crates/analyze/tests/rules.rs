//! Fixture-based self-tests: each rule runs against a `good` tree that
//! must come back clean and a `bad` tree whose seeded violations must
//! be reported with exact rule names, paths, and line numbers. The
//! fixture corpus lives under `tests/fixtures/`, which the workspace
//! walker skips, so the seeded violations never leak into real runs.

use std::path::PathBuf;
use xorbas_analyze::{run, Config, Report};

fn fixture(rule_dir: &str, case: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(rule_dir)
        .join(case)
}

fn run_rule(rule_dir: &str, case: &str, rule: &'static str) -> Report {
    run(&Config::for_rule(fixture(rule_dir, case), rule)).expect("fixture tree loads")
}

/// `(rule, path, line)` triples of a report's surviving diagnostics.
fn keys(report: &Report) -> Vec<(&str, &str, usize)> {
    report
        .diagnostics
        .iter()
        .map(|d| (d.rule, d.path.as_str(), d.line))
        .collect()
}

fn assert_clean(report: &Report) {
    assert!(
        report.diagnostics.is_empty(),
        "expected a clean run, got:\n{}",
        report.render_human()
    );
}

// ----- unsafe-containment -------------------------------------------

#[test]
fn unsafe_containment_good_tree_is_clean() {
    // The good tree exercises the lexer's tricky cases: `unsafe` in a
    // doc comment, a plain string, and a raw string are all ignored.
    assert_clean(&run_rule(
        "unsafe_containment",
        "good",
        "unsafe-containment",
    ));
}

#[test]
fn unsafe_containment_flags_stray_unsafe_and_missing_header() {
    let report = run_rule("unsafe_containment", "bad", "unsafe-containment");
    assert_eq!(
        keys(&report),
        vec![
            ("unsafe-containment", "crates/core/src/lib.rs", 1),
            ("unsafe-containment", "crates/core/src/ptr.rs", 4),
        ]
    );
    assert!(report.diagnostics[0]
        .message
        .contains("#![forbid(unsafe_code)]"));
    assert!(report.diagnostics[1].message.contains("allowlisted"));
}

// ----- safety-comment-coverage --------------------------------------

#[test]
fn safety_comments_good_tree_is_clean() {
    assert_clean(&run_rule(
        "safety_comments",
        "good",
        "safety-comment-coverage",
    ));
}

#[test]
fn safety_comments_flags_missing_contracts() {
    let report = run_rule("safety_comments", "bad", "safety-comment-coverage");
    // Line 6: `SAFETY:` inside a string literal two lines up does not
    // count as a contract. Lines 10/11: undocumented unsafe fn and its
    // body block. Line 14: `#[target_feature]` without a contract.
    assert_eq!(
        keys(&report),
        vec![
            ("safety-comment-coverage", "src/ops.rs", 6),
            ("safety-comment-coverage", "src/ops.rs", 10),
            ("safety-comment-coverage", "src/ops.rs", 11),
            ("safety-comment-coverage", "src/ops.rs", 14),
        ]
    );
}

// ----- hot-path-no-alloc --------------------------------------------

#[test]
fn hot_path_good_tree_is_clean() {
    // Allocation in `#[cfg(test)]` items inside a region, and anywhere
    // outside the annotated regions, is legal.
    assert_clean(&run_rule("hot_path", "good", "hot-path-no-alloc"));
}

#[test]
fn hot_path_flags_alloc_tokens_and_dangling_markers() {
    let report = run_rule("hot_path", "bad", "hot-path-no-alloc");
    assert_eq!(
        keys(&report),
        vec![
            ("hot-path-no-alloc", "src/hot.rs", 5),
            ("hot-path-no-alloc", "src/hot.rs", 6),
            ("hot-path-no-alloc", "src/hot.rs", 9),
        ]
    );
    assert!(report.diagnostics[0].message.contains("`.to_vec`"));
    assert!(report.diagnostics[1].message.contains("`.clone(`"));
    assert!(report.diagnostics[2].message.contains("never closed"));
}

// ----- no-panic-in-lib ----------------------------------------------

#[test]
fn no_panic_good_tree_allows_its_one_site() {
    // Doc-comment, string-literal, and `#[cfg(test)]` unwraps are not
    // counted; the single real site carries an allow with a reason.
    let report = run_rule("no_panic", "good", "no-panic-in-lib");
    assert_clean(&report);
    assert_eq!(report.suppressed.len(), 1);
    assert_eq!(report.suppressed[0].diagnostic.line, 6);
}

#[test]
fn no_panic_flags_every_unallowed_site() {
    let report = run_rule("no_panic", "bad", "no-panic-in-lib");
    assert_eq!(
        keys(&report),
        vec![
            ("no-panic-in-lib", "crates/foo/src/lib.rs", 9),
            ("no-panic-in-lib", "crates/foo/src/lib.rs", 9),
        ]
    );
    assert!(report.diagnostics[0].message.contains("`.unwrap()`"));
    assert!(report.diagnostics[1].message.contains("`.expect(`"));
    assert_eq!(report.suppressed.len(), 1);
}

// ----- directive hygiene and suppressions ---------------------------

#[test]
fn malformed_directives_are_violations_and_valid_allows_suppress() {
    let report = run_rule("directives", "bad", "unsafe-containment");
    assert_eq!(
        keys(&report),
        vec![
            ("xlint-directive", "src/hygiene.rs", 3),
            ("xlint-directive", "src/hygiene.rs", 6),
            ("xlint-directive", "src/hygiene.rs", 9),
        ]
    );
    assert!(report.diagnostics[0].message.contains("requires a reason"));
    assert!(report.diagnostics[1].message.contains("unknown rule"));
    assert!(report.diagnostics[2]
        .message
        .contains("unrecognized xlint directive"));
    // The well-formed allow on line 12 moved the unsafe hit on line 13
    // into the suppressed list, reason intact.
    assert_eq!(report.suppressed.len(), 1);
    let s = &report.suppressed[0];
    assert_eq!(
        (
            s.diagnostic.rule,
            s.diagnostic.path.as_str(),
            s.diagnostic.line
        ),
        ("unsafe-containment", "src/hygiene.rs", 13)
    );
    assert_eq!(s.reason, "audited fixture escape hatch");
}

// ----- the real workspace -------------------------------------------

#[test]
fn the_shipped_workspace_is_clean_and_allows_only_the_engine_setup_sites() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = run(&Config {
        root,
        ..Config::default()
    })
    .expect("workspace loads");
    assert_clean(&report);
    let suppressed: Vec<(&str, &str)> = report
        .suppressed
        .iter()
        .map(|s| (s.diagnostic.rule, s.diagnostic.path.as_str()))
        .collect();
    assert_eq!(
        suppressed,
        vec![("no-panic-in-lib", "crates/sim/src/engine/mod.rs"); 2],
        "the only inline suppressions are the two set-up sites in the engine"
    );
}
