//! Fixture: one allowed site, and two sites on one line without an allow.

pub fn allowed(v: Option<u8>) -> u8 {
    // xlint::allow(no-panic-in-lib): fixture escape hatch
    v.unwrap()
}

pub fn double(a: Option<u8>, b: Option<u8>) -> u8 {
    a.unwrap() + b.expect("b")
}
