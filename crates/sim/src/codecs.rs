//! The simulator's historical name for [`xorbas_core::Codec`]. The codec
//! object lives in core now; this path stays because the frozen
//! `benchmark/` harness imports it.

pub use xorbas_core::Codec as CodecInstance;
