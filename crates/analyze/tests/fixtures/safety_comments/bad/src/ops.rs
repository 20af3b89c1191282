//! Fixture: seeded safety-contract violations.

/// Reads one byte, contract forgotten. The block inside is clippy's.
pub unsafe fn undocumented(p: *const u8) -> u8 {
    unsafe { *p }
}

/// Marks types; what implementers promise is never said.
pub unsafe trait Marker {}

#[target_feature(enable = "avx2")]
pub fn wide() {}
