//! Analyzer configuration: which rules run, and the project-specific
//! anchors they check against. The defaults encode this
//! repository's policy; the fixture tests override `root` and narrow
//! `rules` to exercise one rule at a time.

use std::path::PathBuf;

/// Names of every shipped rule, in reporting order.
pub const ALL_RULES: [&str; 3] = [
    "unsafe-containment",
    "safety-comment-coverage",
    "hot-path-no-alloc",
];

/// Meta-rule name for unrecognized `xlint::` directives themselves.
pub const DIRECTIVE_RULE: &str = "xlint-directive";

#[derive(Debug, Clone)]
pub struct Config {
    /// Workspace root to analyze.
    pub root: PathBuf,
    /// Enabled rules (subset of [`ALL_RULES`]).
    pub rules: Vec<&'static str>,
    /// Files allowed to contain `unsafe` (relative, forward slashes).
    pub unsafe_allowlist: &'static [&'static str],
    /// `(file, marker)` pairs: each file must carry a
    /// `xlint::hot-path(marker)` annotation so the guarantee cannot be
    /// deleted silently. The shipped-workspace test pins this list to
    /// the markers in the tree, so a new marker must be added here.
    pub required_hot_paths: &'static [(&'static str, &'static str)],
}

impl Default for Config {
    fn default() -> Self {
        Self {
            root: PathBuf::from("."),
            rules: ALL_RULES.to_vec(),
            unsafe_allowlist: &[
                // The single sanctioned unsafe surface: the SIMD kernels.
                "crates/gf/src/simd.rs",
                // The counting global allocator behind the zero-alloc pins.
                "crates/core/tests/zero_alloc.rs",
            ],
            required_hot_paths: &[
                ("crates/core/src/session.rs", "session-replay"),
                ("crates/gf/src/slice_ops.rs", "payload-ops"),
                ("crates/gf/src/simd.rs", "scalar-kernels"),
                ("crates/gf/src/simd.rs", "x86-kernels"),
                ("crates/sim/src/engine/mod.rs", "event-loop"),
                ("crates/sim/src/network.rs", "rate-recompute"),
                ("crates/sim/src/network/fill.rs", "rate-recompute"),
                ("crates/node/src/server.rs", "serve-read"),
                ("crates/node/src/stripe_io.rs", "repair-stream"),
                ("crates/node/src/client.rs", "put-stream"),
                ("crates/node/src/client.rs", "repair-stream"),
                ("crates/node/src/protocol.rs", "repair-stream"),
                ("crates/node/src/protocol.rs", "serve-read"),
                ("crates/node/src/protocol.rs", "chunk-digest"),
                ("crates/node/src/repair.rs", "scrub-stream"),
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
            required_hot_paths: &[],
            ..Self::default()
        }
    }
}
