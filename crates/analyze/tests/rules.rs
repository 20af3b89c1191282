//! The analyzer's only entry point, and its self-tests.
//!
//! Fixture tests: each rule runs against a `good` tree that must come
//! back clean and a `bad` tree whose seeded violations must be reported
//! with exact rule names, paths, and line numbers. The fixture corpus
//! lives under `tests/fixtures/`, which the workspace walker skips, so
//! the seeded violations never leak into real runs.
//!
//! Shipped-workspace tests: every rule over this repository, plus the
//! pins on what clippy enforces in its place (each crate root's no-panic
//! header and its only two exceptions) and on the hot-path marker list.

use std::path::PathBuf;
use xorbas_analyze::workspace::{Directive, SourceFile, Workspace};
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
    // Line 4: undocumented unsafe fn (its body block on line 5 is
    // clippy's `undocumented_unsafe_blocks`, not this rule's). Line 9:
    // an unsafe trait whose doc names no contract. Line 11:
    // `#[target_feature]` without a contract.
    assert_eq!(
        keys(&report),
        vec![
            ("safety-comment-coverage", "src/ops.rs", 4),
            ("safety-comment-coverage", "src/ops.rs", 9),
            ("safety-comment-coverage", "src/ops.rs", 11),
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

// ----- directive hygiene --------------------------------------------

#[test]
fn unknown_directives_are_violations_and_suppress_nothing() {
    let report = run_rule("directives", "bad", "unsafe-containment");
    assert_eq!(
        keys(&report),
        vec![
            ("xlint-directive", "src/hygiene.rs", 4),
            ("xlint-directive", "src/hygiene.rs", 7),
            ("unsafe-containment", "src/hygiene.rs", 8),
        ]
    );
    assert!(report.diagnostics[0]
        .message
        .contains("unrecognized xlint directive `xlint::frobnicate"));
    assert!(report.diagnostics[1]
        .message
        .contains("unrecognized xlint directive `xlint::allow("));
}

#[test]
fn an_unknown_rule_name_is_an_error() {
    let err = run(&Config::for_rule(
        fixture("hot_path", "good"),
        "no-panic-in-lib",
    ))
    .expect_err("the rule was deleted");
    assert!(err.to_string().contains("unknown rule `no-panic-in-lib`"));
}

// ----- the real workspace -------------------------------------------

/// Clippy's panic-capable-call lints, which every crate root denies
/// outside `cfg(test)`.
const NO_PANIC_LINTS: [&str; 6] = [
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
    "clippy::unreachable",
    "clippy::todo",
    "clippy::unimplemented",
];

fn shipped_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn shipped_workspace() -> Workspace {
    Workspace::load(&shipped_root()).expect("workspace loads")
}

/// A library or binary root of a workspace package: `src/lib.rs`,
/// `src/main.rs` or `src/bin/*.rs`, at the top or under `crates/<name>/`.
fn is_crate_root(rel: &str) -> bool {
    let segs: Vec<&str> = rel.split('/').collect();
    let in_package = match segs.as_slice() {
        ["crates", _, rest @ ..] => rest,
        all => all,
    };
    matches!(
        in_package,
        ["src", "lib.rs" | "main.rs"] | ["src", "bin", _]
    )
}

/// A file's code channel as one string, comments dropped and literal
/// contents blanked, one `\n` per source line.
fn code_of(f: &SourceFile) -> String {
    f.lines.iter().map(|l| format!("{}\n", l.code)).collect()
}

/// The text inside the parentheses that `s` opens with.
fn paren_args(s: &str) -> &str {
    let mut depth = 0;
    for (i, c) in s.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    return &s[1..i];
                }
            }
            _ => {}
        }
    }
    s
}

/// Every lint-level attribute that names a no-panic lint, as `(path,
/// level, the fn it sits on)`; crate-level attributes report `""`.
/// `#[expect(` and `cfg_attr(…, deny(` count, `.expect(` calls do not.
fn no_panic_lint_levels(ws: &Workspace) -> Vec<(String, &'static str, String)> {
    let mut out = Vec::new();
    for f in &ws.files {
        let code = code_of(f);
        for level in ["allow", "expect", "warn", "deny", "forbid"] {
            for (at, _) in code.match_indices(&format!("{level}(")) {
                let before = code[..at].trim_end();
                if !(before.ends_with('[') || before.ends_with(',')) {
                    continue;
                }
                let args = paren_args(&code[at + level.len()..]);
                let names_one = args
                    .split(|c: char| !(c.is_alphanumeric() || c == '_' || c == ':'))
                    .any(|tok| NO_PANIC_LINTS.contains(&tok));
                if !names_one {
                    continue;
                }
                let inner = before.rfind("#![") > before.rfind("#[");
                let item = if inner {
                    String::new()
                } else {
                    let after = &code[at..];
                    let name = after.find("fn ").map_or("", |i| &after[i + 3..]);
                    name.chars()
                        .take_while(|c| c.is_alphanumeric() || *c == '_')
                        .collect()
                };
                out.push((f.rel.clone(), level, item));
            }
        }
    }
    out.sort();
    out
}

#[test]
fn the_shipped_workspace_is_clean() {
    let report = run(&Config {
        root: shipped_root(),
        ..Config::default()
    })
    .expect("workspace loads");
    assert_clean(&report);
}

#[test]
fn every_crate_root_denies_panics_outside_tests() {
    let header = format!("#![cfg_attr(not(test),deny({}))]", NO_PANIC_LINTS.join(","));
    let ws = shipped_workspace();
    let roots: Vec<&SourceFile> = ws.files.iter().filter(|f| is_crate_root(&f.rel)).collect();
    assert!(roots
        .iter()
        .any(|f| f.rel == "crates/node/src/bin/load_gen.rs"));
    let missing: Vec<&str> = roots
        .iter()
        .filter(|f| {
            let code: String = code_of(f).split_whitespace().collect();
            !code.replace(",)", ")").contains(&header)
        })
        .map(|f| f.rel.as_str())
        .collect();
    assert!(
        missing.is_empty(),
        "crate roots without `{header}`: {missing:?}"
    );
}

#[test]
fn the_no_panic_lints_are_expected_only_at_the_engine_setup_fns() {
    let ws = shipped_workspace();
    let exceptions: Vec<(String, &str, String)> = no_panic_lint_levels(&ws)
        .into_iter()
        .filter(|(rel, level, item)| !(is_crate_root(rel) && *level == "deny" && item.is_empty()))
        .collect();
    let engine = "crates/sim/src/engine/mod.rs".to_owned();
    assert_eq!(
        exceptions,
        vec![
            (engine.clone(), "expect", "load_raided_file".to_owned()),
            (engine, "expect", "new".to_owned()),
        ],
        "a no-panic lint may be relaxed only by the two engine set-up `#[expect]`s"
    );
}

#[test]
fn every_hot_path_marker_is_required() {
    let ws = shipped_workspace();
    let mut found: Vec<(&str, &str)> = ws
        .files
        .iter()
        .flat_map(|f| {
            f.directives.iter().filter_map(|(_, d)| match d {
                Directive::HotPathItem { name } | Directive::HotPathBegin { name } => {
                    Some((f.rel.as_str(), name.as_str()))
                }
                _ => None,
            })
        })
        .collect();
    found.sort();
    found.dedup();
    let mut required = Config::default().required_hot_paths.to_vec();
    required.sort();
    assert_eq!(
        found, required,
        "every `xlint::hot-path` marker in the tree is listed in `Config::required_hot_paths`"
    );
}
