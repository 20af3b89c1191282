//! Fixture: complete, correctly wired dispatch tables.

pub struct KernelSuite {
    pub backend: KernelBackend,
    pub xor_multi: fn(),
    pub mul_multi: fn(),
}

pub enum KernelBackend {
    Scalar,
    Ssse3,
    Avx2,
}

impl KernelBackend {
    pub const ALL: [KernelBackend; 3] = [
        KernelBackend::Scalar,
        KernelBackend::Ssse3,
        KernelBackend::Avx2,
    ];
}

fn scalar_xor_multi() {}
fn scalar_mul_multi() {}
fn ssse3_xor_multi() {}
fn ssse3_mul_multi() {}
fn avx2_xor_multi() {}
fn avx2_mul_multi() {}

static SCALAR_SUITE: KernelSuite = KernelSuite {
    backend: KernelBackend::Scalar,
    xor_multi: scalar_xor_multi,
    mul_multi: scalar_mul_multi,
};

static SSSE3_SUITE: KernelSuite = KernelSuite {
    backend: KernelBackend::Ssse3,
    xor_multi: ssse3_xor_multi,
    mul_multi: ssse3_mul_multi,
};

static AVX2_SUITE: KernelSuite = KernelSuite {
    backend: KernelBackend::Avx2,
    xor_multi: avx2_xor_multi,
    mul_multi: avx2_mul_multi,
};
