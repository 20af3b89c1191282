//! Fixture: every knob read is documented.

pub fn backend_pinned() -> bool {
    std::env::var("XORBAS_KERNEL_BACKEND").is_ok()
}
