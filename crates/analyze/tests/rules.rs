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
fn no_panic_good_tree_matches_its_baseline() {
    // Doc-comment, string-literal, and `#[cfg(test)]` unwraps are not
    // counted; the single real site is covered by the fixture baseline.
    assert_clean(&run_rule("no_panic", "good", "no-panic-in-lib"));
}

#[test]
fn no_panic_flags_exceeded_and_stale_allowances() {
    let report = run_rule("no_panic", "bad", "no-panic-in-lib");
    assert_eq!(
        keys(&report),
        vec![
            ("no-panic-in-lib", "crates/analyze/no_panic_baseline.txt", 3),
            ("no-panic-in-lib", "crates/baz/src/lib.rs", 1),
            ("no-panic-in-lib", "crates/foo/src/lib.rs", 4),
        ]
    );
    assert!(report.diagnostics[0]
        .message
        .contains("`crates/bar/src/lib.rs` is clean"));
    assert!(report.diagnostics[1]
        .message
        .contains("2 allowed but only 1 present"));
    assert!(report.diagnostics[2]
        .message
        .contains("2 panic-capable call(s) exceed the baseline's 1"));
}

#[test]
fn no_panic_update_baseline_ratchets() {
    // Build a throwaway tree, generate its baseline, verify the run is
    // then clean, and verify new debt fails against it.
    let root = std::env::temp_dir().join(format!("xlint-ratchet-{}", std::process::id()));
    let src_dir = root.join("crates/foo/src");
    std::fs::create_dir_all(&src_dir).expect("fixture tree");
    std::fs::create_dir_all(root.join("crates/analyze")).expect("fixture tree");
    std::fs::write(
        src_dir.join("lib.rs"),
        "pub fn f(v: Option<u8>) -> u8 {\n    v.unwrap()\n}\n",
    )
    .expect("fixture file");

    let mut cfg = Config::for_rule(&root, "no-panic-in-lib");
    cfg.update_baseline = true;
    assert_clean(&run(&cfg).expect("update run"));

    cfg.update_baseline = false;
    assert_clean(&run(&cfg).expect("ratcheted run"));

    std::fs::write(
        src_dir.join("lib.rs"),
        "pub fn f(v: Option<u8>) -> u8 {\n    v.unwrap()\n}\npub fn g() {\n    panic!()\n}\n",
    )
    .expect("fixture file");
    let report = run(&cfg).expect("debt run");
    assert_eq!(
        keys(&report),
        vec![("no-panic-in-lib", "crates/foo/src/lib.rs", 2)]
    );

    let _ = std::fs::remove_dir_all(&root);
}

// ----- env-knob-registry --------------------------------------------

#[test]
fn env_knobs_good_tree_is_clean() {
    assert_clean(&run_rule("env_knobs", "good", "env-knob-registry"));
}

#[test]
fn env_knobs_flags_undocumented_and_ghost_knobs() {
    let report = run_rule("env_knobs", "bad", "env-knob-registry");
    assert_eq!(
        keys(&report),
        vec![
            ("env-knob-registry", "docs/ARCHITECTURE.md", 3),
            ("env-knob-registry", "src/knobs.rs", 4),
        ]
    );
    assert!(report.diagnostics[0]
        .message
        .contains("`XORBAS_GHOST_KNOB` is documented but never read"));
    assert!(report.diagnostics[1]
        .message
        .contains("`XORBAS_SECRET_TUNING` is read here but not documented"));
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
fn the_shipped_workspace_is_clean_with_zero_suppressions() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = run(&Config {
        root,
        ..Config::default()
    })
    .expect("workspace loads");
    assert_clean(&report);
    assert!(
        report.suppressed.is_empty(),
        "the shipped tree must not need inline suppressions"
    );
}
