//! Analyzer configuration: which rules run, and the project-specific
//! anchors they check against. The defaults encode this
//! repository's policy; the fixture tests override `root` and narrow
//! `rules` to exercise one rule at a time.

use std::path::PathBuf;

/// Names of every shipped rule, in reporting order.
pub const ALL_RULES: [&str; 4] = [
    "unsafe-containment",
    "safety-comment-coverage",
    "hot-path-no-alloc",
    "no-panic-in-lib",
];

/// Meta-rule name for malformed `xlint::` directives themselves.
pub const DIRECTIVE_RULE: &str = "xlint-directive";

#[derive(Debug, Clone)]
pub struct Config {
    /// Workspace root to analyze.
    pub root: PathBuf,
    /// Enabled rules (subset of [`ALL_RULES`]).
    pub rules: Vec<&'static str>,
    /// Files allowed to contain `unsafe` (relative, forward slashes).
    pub unsafe_allowlist: Vec<String>,
    /// `(file, marker)` pairs: each file must carry a
    /// `xlint::hot-path(marker)` annotation so the guarantee cannot be
    /// deleted silently.
    pub required_hot_paths: Vec<(String, String)>,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            root: PathBuf::from("."),
            rules: ALL_RULES.to_vec(),
            unsafe_allowlist: vec![
                // The single sanctioned unsafe surface: the SIMD kernels.
                "crates/gf/src/simd.rs".to_owned(),
                // The counting global allocator behind the zero-alloc pins.
                "crates/core/tests/zero_alloc.rs".to_owned(),
            ],
            required_hot_paths: vec![
                (
                    "crates/core/src/session.rs".to_owned(),
                    "session-replay".to_owned(),
                ),
                (
                    "crates/gf/src/slice_ops.rs".to_owned(),
                    "payload-ops".to_owned(),
                ),
                (
                    "crates/gf/src/simd.rs".to_owned(),
                    "scalar-kernels".to_owned(),
                ),
                ("crates/gf/src/simd.rs".to_owned(), "x86-kernels".to_owned()),
                (
                    "crates/sim/src/engine/mod.rs".to_owned(),
                    "event-loop".to_owned(),
                ),
                (
                    "crates/sim/src/network.rs".to_owned(),
                    "rate-recompute".to_owned(),
                ),
                (
                    "crates/sim/src/network/fill.rs".to_owned(),
                    "rate-recompute".to_owned(),
                ),
                (
                    "crates/node/src/server.rs".to_owned(),
                    "serve-read".to_owned(),
                ),
                (
                    "crates/node/src/stripe_io.rs".to_owned(),
                    "repair-stream".to_owned(),
                ),
                (
                    "crates/node/src/client.rs".to_owned(),
                    "put-stream".to_owned(),
                ),
                (
                    "crates/node/src/repair.rs".to_owned(),
                    "scrub-stream".to_owned(),
                ),
            ],
        }
    }
}

impl Config {
    /// A configuration for one rule over an arbitrary tree — what the
    /// fixture self-tests use.
    pub fn for_rule(root: impl Into<PathBuf>, rule: &'static str) -> Self {
        Self {
            root: root.into(),
            rules: vec![rule],
            required_hot_paths: Vec::new(),
            ..Self::default()
        }
    }
}
