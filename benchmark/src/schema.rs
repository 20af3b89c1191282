//! What the benchmark declares: its workloads, its end-to-end metrics
//! with their regression bounds, and its per-layer metrics with the
//! end-to-end metric and workload each one should move. `BENCHMARK.json`
//! at the repository root says the same thing to the driver; a test
//! holds the two together.

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`, and the
/// default of `--seconds`).
pub const RUN_SECONDS: u64 = 12;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "put_stream",
        why: "write path: 40 MiB puts into 20 loopback servers; node client/server/chunk_store/protocol/wal do ~90% of the work, core ~10%",
    },
    Workload {
        name: "read_mix",
        why: "read path with one server dead: 4 direct reads to 1 degraded (5 fetches + a light replay); a write-path gain that costs reads shows here",
    },
    Workload {
        name: "repair_drain",
        why: "the paper's headline: time and bytes to rebuild a dead server, LRC against RS(10,4); node repair + directory dominate, client idle",
    },
    Workload {
        name: "codec_stream",
        why: "in-memory encode_into and session replay, narrow and wide; core + gf do all the work, so a codec gain shows here and barely moves put_stream",
    },
    Workload {
        name: "sim_warehouse",
        why: "3000-node warehouse scenario, RS then LRC: the simulator's repair and flow-settlement path, where event cost grows with the backlog",
    },
    Workload {
        name: "sim_serving",
        why: "60-node serving scenario, ~600k Zipf reads per run: the same engine's per-read hot path with the repair path nearly idle",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// The same five on every workload; `README.md` says what each is on
/// each workload.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "alt_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "work_per_s",
        unit: "unit/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "io_amp",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.001,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric this one should move …
    pub moves: &'static str,
    /// … on this workload, whose traced run also reports it. On every
    /// other workload the layer did not do this work and it reads 0.
    pub on: &'static str,
}

const fn row(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
    on: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
        on,
    }
}

use Better::{Higher, Lower};

pub const PER_LAYER: [PerLayer; 95] = [
    // The workloads' own numbers under the names the issue gave them.
    row("put_MiBps", "MiB/s", Higher, "work_per_s", "put_stream"),
    row("put_p50_ms", "ms", Lower, "op_p50_ms", "put_stream"),
    row(
        "stored_bytes_per_user_byte",
        "ratio",
        Lower,
        "io_amp",
        "put_stream",
    ),
    row("read_direct_p50_ms", "ms", Lower, "op_p50_ms", "read_mix"),
    row("read_direct_p90_ms", "ms", Lower, "op_p50_ms", "read_mix"),
    row(
        "read_degraded_p50_ms",
        "ms",
        Lower,
        "alt_p50_ms",
        "read_mix",
    ),
    row(
        "read_degraded_p90_ms",
        "ms",
        Lower,
        "alt_p50_ms",
        "read_mix",
    ),
    row(
        "repair_MiBps",
        "MiB/s",
        Higher,
        "work_per_s",
        "repair_drain",
    ),
    row("repair_read_amp", "ratio", Lower, "io_amp", "repair_drain"),
    row("encode_MiBps", "MiB/s", Higher, "op_p50_ms", "codec_stream"),
    row(
        "encode_wide_MiBps",
        "MiB/s",
        Higher,
        "work_per_s",
        "codec_stream",
    ),
    row(
        "decode_light_MiBps",
        "MiB/s",
        Higher,
        "alt_p50_ms",
        "codec_stream",
    ),
    row(
        "decode_heavy_MiBps",
        "MiB/s",
        Higher,
        "work_per_s",
        "codec_stream",
    ),
    row(
        "sim_days_per_s",
        "1/s",
        Higher,
        "work_per_s",
        "sim_warehouse",
    ),
    // host: the ceilings the ratios divide by; they should move nothing.
    row(
        "host.memcpy_MiBps",
        "MiB/s",
        Higher,
        "work_per_s",
        "put_stream",
    ),
    row(
        "host.file_write_MiBps",
        "MiB/s",
        Higher,
        "work_per_s",
        "put_stream",
    ),
    row(
        "host.loopback_MiBps",
        "MiB/s",
        Higher,
        "work_per_s",
        "put_stream",
    ),
    // gf: kernel rates, source MiB consumed per second.
    row(
        "gf.xor_into_MiBps",
        "MiB/s",
        Higher,
        "alt_p50_ms",
        "codec_stream",
    ),
    row(
        "gf.mul_acc_MiBps",
        "MiB/s",
        Higher,
        "work_per_s",
        "codec_stream",
    ),
    row(
        "gf.mul_acc_multi10_MiBps",
        "MiB/s",
        Higher,
        "op_p50_ms",
        "codec_stream",
    ),
    row(
        "gf.mul_acc16_MiBps",
        "MiB/s",
        Higher,
        "work_per_s",
        "codec_stream",
    ),
    row(
        "gf.mul_acc16_multi8_MiBps",
        "MiB/s",
        Higher,
        "work_per_s",
        "codec_stream",
    ),
    // core: encode per family and geometry, against the kernel roof.
    row(
        "core.encode_MiBps.rs_10_4",
        "MiB/s",
        Higher,
        "work_per_s",
        "codec_stream",
    ),
    row(
        "core.encode_MiBps.lrc_10_6_5",
        "MiB/s",
        Higher,
        "op_p50_ms",
        "codec_stream",
    ),
    row(
        "core.encode_MiBps.pb_10_4",
        "MiB/s",
        Higher,
        "work_per_s",
        "codec_stream",
    ),
    row(
        "core.encode_MiBps.lrc_wide",
        "MiB/s",
        Higher,
        "work_per_s",
        "codec_stream",
    ),
    row(
        "core.encode_MiBps.rs_200_60",
        "MiB/s",
        Higher,
        "work_per_s",
        "codec_stream",
    ),
    row(
        "core.encode_MiBps.lrc_10_6_5.64k",
        "MiB/s",
        Higher,
        "op_p50_ms",
        "codec_stream",
    ),
    row(
        "core.encode_par2_MiBps.lrc_10_6_5",
        "MiB/s",
        Higher,
        "op_p50_ms",
        "codec_stream",
    ),
    row(
        "core.encode_roof_ratio.rs_10_4",
        "ratio",
        Higher,
        "work_per_s",
        "codec_stream",
    ),
    row(
        "core.encode_roof_ratio.lrc_10_6_5",
        "ratio",
        Higher,
        "op_p50_ms",
        "codec_stream",
    ),
    row(
        "core.encode_roof_ratio.rs_200_60",
        "ratio",
        Higher,
        "work_per_s",
        "codec_stream",
    ),
    // core: session replay (repaired-lane MiB/s) and compile cost.
    row(
        "core.replay_MiBps.lrc_light",
        "MiB/s",
        Higher,
        "alt_p50_ms",
        "codec_stream",
    ),
    row(
        "core.replay_MiBps.lrc_heavy2",
        "MiB/s",
        Higher,
        "work_per_s",
        "codec_stream",
    ),
    row(
        "core.replay_MiBps.rs_heavy",
        "MiB/s",
        Higher,
        "work_per_s",
        "codec_stream",
    ),
    row(
        "core.replay_MiBps.pb_data1",
        "MiB/s",
        Higher,
        "work_per_s",
        "codec_stream",
    ),
    row(
        "core.replay_MiBps.lrc_wide_light",
        "MiB/s",
        Higher,
        "work_per_s",
        "codec_stream",
    ),
    row(
        "core.replay_MiBps.rs_200_60_heavy",
        "MiB/s",
        Higher,
        "work_per_s",
        "codec_stream",
    ),
    row(
        "core.session_compile_us.lrc_light",
        "us",
        Lower,
        "setup_s",
        "codec_stream",
    ),
    row(
        "core.session_compile_us.rs_heavy",
        "us",
        Lower,
        "setup_s",
        "codec_stream",
    ),
    row(
        "core.session_compile_us.rs_200_60_heavy",
        "us",
        Lower,
        "setup_s",
        "codec_stream",
    ),
    // node, bottom up: protocol, chunk store, log and directory, wire.
    row(
        "protocol.chunk_digest_MiBps",
        "MiB/s",
        Higher,
        "work_per_s",
        "put_stream",
    ),
    row(
        "protocol.frame_MiBps",
        "MiB/s",
        Higher,
        "work_per_s",
        "put_stream",
    ),
    row(
        "chunk_store.put_MiBps",
        "MiB/s",
        Higher,
        "work_per_s",
        "put_stream",
    ),
    row(
        "chunk_store.get_MiBps",
        "MiB/s",
        Higher,
        "op_p50_ms",
        "read_mix",
    ),
    row(
        "wal.append_stripe_us",
        "us",
        Lower,
        "op_p50_ms",
        "put_stream",
    ),
    row(
        "wal.append_manifest_us",
        "us",
        Lower,
        "op_p50_ms",
        "put_stream",
    ),
    row("wal.replay_ms", "ms", Lower, "setup_s", "repair_drain"),
    row(
        "directory.place_stripe_us",
        "us",
        Lower,
        "op_p50_ms",
        "put_stream",
    ),
    row(
        "directory.scan_lost_us",
        "us",
        Lower,
        "work_per_s",
        "repair_drain",
    ),
    row("wire.ping_us", "us", Lower, "op_p50_ms", "put_stream"),
    row("wire.put_chunk_us", "us", Lower, "op_p50_ms", "put_stream"),
    row("wire.get_chunk_us", "us", Lower, "op_p50_ms", "read_mix"),
    // client: which stage is behind a put or a degraded read.
    row(
        "client.put_share.encode",
        "share",
        Lower,
        "op_p50_ms",
        "put_stream",
    ),
    row(
        "client.put_share.digest",
        "share",
        Lower,
        "op_p50_ms",
        "put_stream",
    ),
    row(
        "client.put_share.wire",
        "share",
        Lower,
        "op_p50_ms",
        "put_stream",
    ),
    row(
        "client.put_share.store",
        "share",
        Lower,
        "op_p50_ms",
        "put_stream",
    ),
    row(
        "client.put_unattributed_share",
        "share",
        Lower,
        "op_p50_ms",
        "put_stream",
    ),
    row(
        "client.put_roof_ratio",
        "ratio",
        Higher,
        "work_per_s",
        "put_stream",
    ),
    row(
        "client.put_host_write_ms",
        "ms",
        Lower,
        "op_p50_ms",
        "put_stream",
    ),
    row("client.put_p90_ms", "ms", Lower, "op_p50_ms", "put_stream"),
    row("client.get_p50_ms", "ms", Lower, "alt_p50_ms", "put_stream"),
    row(
        "client.read_direct_p99_ms",
        "ms",
        Lower,
        "op_p50_ms",
        "read_mix",
    ),
    row(
        "client.read_degraded_p99_ms",
        "ms",
        Lower,
        "alt_p50_ms",
        "read_mix",
    ),
    row(
        "client.degraded_fetches_per_read",
        "count",
        Lower,
        "io_amp",
        "read_mix",
    ),
    row(
        "client.read_degraded_over_direct",
        "ratio",
        Lower,
        "alt_p50_ms",
        "read_mix",
    ),
    row(
        "client.read_degraded_p50_ms.rs_10_4",
        "ms",
        Lower,
        "alt_p50_ms",
        "read_mix",
    ),
    // repair agent: counters of the LRC drains, and the RS baseline.
    row(
        "repair.chunks_per_s",
        "1/s",
        Higher,
        "work_per_s",
        "repair_drain",
    ),
    row(
        "repair.chunks_repaired",
        "count",
        Higher,
        "work_per_s",
        "repair_drain",
    ),
    row(
        "repair.light_repairs",
        "count",
        Higher,
        "io_amp",
        "repair_drain",
    ),
    row(
        "repair.heavy_repairs",
        "count",
        Lower,
        "io_amp",
        "repair_drain",
    ),
    row(
        "repair.failed_attempts",
        "count",
        Lower,
        "op_p50_ms",
        "repair_drain",
    ),
    row("repair.rounds", "count", Lower, "op_p50_ms", "repair_drain"),
    row("repair.detect_ms", "ms", Lower, "op_p50_ms", "repair_drain"),
    row(
        "repair.drain_p50_s",
        "s",
        Lower,
        "op_p50_ms",
        "repair_drain",
    ),
    row(
        "repair.read_amp.rs_10_4",
        "ratio",
        Lower,
        "alt_p50_ms",
        "repair_drain",
    ),
    row(
        "repair.MiBps.rs_10_4",
        "MiB/s",
        Higher,
        "alt_p50_ms",
        "repair_drain",
    ),
    // sim, warehouse scenario.
    row(
        "sim.events_per_s.rs_10_4",
        "1/s",
        Higher,
        "op_p50_ms",
        "sim_warehouse",
    ),
    row(
        "sim.events_per_s.lrc_10_6_5",
        "1/s",
        Higher,
        "alt_p50_ms",
        "sim_warehouse",
    ),
    row(
        "sim.events_per_s.rs_10_4.d14",
        "1/s",
        Higher,
        "op_p50_ms",
        "sim_warehouse",
    ),
    row(
        "sim.events.rs_10_4",
        "count",
        Lower,
        "op_p50_ms",
        "sim_warehouse",
    ),
    row(
        "sim.events.lrc_10_6_5",
        "count",
        Lower,
        "alt_p50_ms",
        "sim_warehouse",
    ),
    row("sim.load_s", "s", Lower, "work_per_s", "sim_warehouse"),
    row(
        "sim.blocks_read_per_lost_block.rs_10_4",
        "ratio",
        Lower,
        "io_amp",
        "sim_warehouse",
    ),
    row(
        "sim.blocks_read_per_lost_block.lrc_10_6_5",
        "ratio",
        Lower,
        "io_amp",
        "sim_warehouse",
    ),
    row(
        "sim.plan_lookup_ns",
        "ns",
        Lower,
        "work_per_s",
        "sim_warehouse",
    ),
    // sim, serving scenario.
    row(
        "sim.serving_reads_per_s",
        "1/s",
        Higher,
        "work_per_s",
        "sim_serving",
    ),
    row(
        "sim.serving_events_per_s.lrc",
        "1/s",
        Higher,
        "op_p50_ms",
        "sim_serving",
    ),
    row(
        "sim.serving_events_per_s.rs",
        "1/s",
        Higher,
        "alt_p50_ms",
        "sim_serving",
    ),
    row(
        "sim.serving_degraded_fraction",
        "share",
        Lower,
        "io_amp",
        "sim_serving",
    ),
    row(
        "sim.serving_direct_ms",
        "ms",
        Lower,
        "io_amp",
        "sim_serving",
    ),
    row(
        "sim.zipf_sample_ns",
        "ns",
        Lower,
        "work_per_s",
        "sim_serving",
    ),
    // Reported by every workload's traced run.
    row(
        "host.speed_factor",
        "ratio",
        Higher,
        "op_p50_ms",
        "put_stream",
    ),
    row(
        "trace.overhead_share",
        "share",
        Lower,
        "op_p50_ms",
        "put_stream",
    ),
    row("trace.spans", "count", Lower, "op_p50_ms", "put_stream"),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn benchmark_json() -> Value {
        let path = crate::cluster::package_dir().join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 << 10, "BENCHMARK.json is over 64 KiB");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn str_field<'a>(v: &'a Value, key: &str) -> &'a str {
        v.get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("{key} missing in {v}"))
    }

    fn keys(v: &Value) -> Vec<&str> {
        v.as_object()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect()
    }

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn benchmark_json_declares_what_the_harness_reports() {
        let doc = benchmark_json();
        assert_eq!(
            keys(&doc),
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(RUN_SECONDS as f64)
        );
        let paths = doc.get("paths").and_then(Value::as_array).expect("paths");
        assert_eq!(paths, [Value::Str("benchmark".into())]);

        let workloads = doc
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (got, want) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(keys(got), ["name", "why"]);
            assert_eq!(str_field(got, "name"), want.name);
            assert_eq!(str_field(got, "why"), want.why);
        }

        let e2e = doc
            .get("end_to_end")
            .and_then(Value::as_array)
            .expect("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (got, want) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(keys(got), ["name", "unit", "better", "bound"]);
            assert_eq!(str_field(got, "name"), want.name);
            assert_eq!(str_field(got, "unit"), want.unit);
            assert_eq!(str_field(got, "better"), want.better.as_str());
            assert_eq!(got.get("bound").and_then(Value::as_f64), Some(want.bound));
        }

        let layers = doc
            .get("per_layer")
            .and_then(Value::as_array)
            .expect("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (got, want) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(keys(got), ["name", "unit", "better"]);
            assert_eq!(str_field(got, "name"), want.name);
            assert_eq!(str_field(got, "unit"), want.unit);
            assert_eq!(str_field(got, "better"), want.better.as_str());
        }
    }

    #[test]
    fn the_declaration_is_inside_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &names {
            assert!(name_ok(name), "bad name {name:?}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");

        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "why of {}",
                w.name
            );
        }
        assert!(end_to_end("setup_s").is_some_and(|m| m.unit == "s" && m.better == Better::Lower));
        for m in &END_TO_END {
            assert!(unit_ok(m.unit), "unit of {}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "bound of {}", m.name);
        }
        for m in &PER_LAYER {
            assert!(unit_ok(m.unit), "unit of {}", m.name);
            assert!(
                end_to_end(m.moves).is_some(),
                "{} moves an undeclared metric",
                m.name
            );
            assert!(
                workload(m.on).is_some(),
                "{} names an undeclared workload",
                m.name
            );
        }
    }

    #[test]
    fn names_the_contract_refuses_are_caught() {
        assert!(name_ok("core.encode_MiBps.lrc_10_6_5.64k"));
        assert!(!name_ok(".hidden"));
        assert!(!name_ok("has space"));
        assert!(!name_ok(&"x".repeat(65)));
        assert!(unit_ok("MiB/s") && unit_ok("1/s") && unit_ok("%"));
        assert!(!unit_ok("MiB per s") && !unit_ok(""));
    }
}
