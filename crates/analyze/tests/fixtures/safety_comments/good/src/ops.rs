//! Fixture: every unsafe item states its contract.

/// Reads one byte.
///
/// # Safety
///
/// `p` must be valid for reads.
pub unsafe fn read(p: *const u8) -> u8 {
    // SAFETY: the caller upholds validity.
    unsafe { *p }
}

/// Safe to define: value-only shuffle, callable anywhere.
#[target_feature(enable = "ssse3")]
pub fn shuffle() {}

/// A bare `unsafe impl` is clippy's, not this rule's.
pub struct Token;
unsafe impl Send for Token {}
