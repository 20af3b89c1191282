//! Fixture: directive hygiene. Prose naming `xlint::allow` is not a
//! directive; a leading one is unknown and suppresses nothing.

// xlint::frobnicate the lexer
pub fn unknown_directive() {}

// xlint::allow(unsafe-containment): there is no escape hatch
pub fn escape(p: *const u8) -> u8 { unsafe { *p } }
