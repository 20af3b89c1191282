//! Fixture: exactly one panic-capable call, under an allow with a reason.
//! Prose saying `.unwrap()` is not counted.

pub fn risky(v: Option<u8>) -> u8 {
    // xlint::allow(no-panic-in-lib): fixture escape hatch
    v.unwrap()
}

pub fn graceful(v: Option<u8>) -> u8 {
    let prose = ".unwrap() inside a string literal is not counted";
    let _ = prose;
    v.unwrap_or(0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_in_tests_is_free() {
        assert_eq!(Some(3u8).unwrap(), 3);
    }
}
