//! The shipped rules. Each rule is a function from the loaded
//! [`Workspace`](crate::workspace::Workspace) to diagnostics; the
//! engine in [`crate::run`] decides which run.

pub mod hot_path;
pub mod safety_comments;
pub mod unsafe_containment;

/// True when `needle` occurs in `hay` as a whole word (not embedded in
/// a longer identifier).
pub(crate) fn has_word(hay: &str, needle: &str) -> bool {
    find_word(hay, needle, 0).is_some()
}

/// Finds the next whole-word occurrence of `needle` at or after `from`.
pub(crate) fn find_word(hay: &str, needle: &str, from: usize) -> Option<usize> {
    let bytes = hay.as_bytes();
    let mut start = from;
    while let Some(pos) = hay.get(start..).and_then(|h| h.find(needle)) {
        let at = start + pos;
        let before_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
        let after = at + needle.len();
        let after_ok = after >= bytes.len() || !is_ident_byte(bytes[after]);
        if before_ok && after_ok {
            return Some(at);
        }
        start = at + needle.len();
    }
    None
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}
