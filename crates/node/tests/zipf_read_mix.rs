//! Serving-plane integration test: a Zipf-skewed read mix against a
//! real loopback cluster with one chunk server killed mid-run. The
//! sim's [`ZipfSampler`] picks hot chunks, every read's wall latency
//! lands in a [`Percentiles`] recorder, and the gate is the serving
//! SLO: zero failed reads and a p999 under the configured deadline
//! even while a fifth of the lanes are being served degraded.

mod common;

use common::{test_file, Cluster, CHUNK};
use std::time::Instant;
use xorbas_core::CodeSpec;
use xorbas_node::client::ReadKind;
use xorbas_node::ClusterClient;
use xorbas_sim::{Percentiles, ZipfSampler};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

const STRIPES: usize = 4;
const WARM_READS: usize = 150;
const DEGRADED_READS: usize = 850;
/// Generous loopback deadline: a degraded read moves ~5 chunks of
/// 64 KiB over local TCP plus one XOR decode, which is single-digit
/// milliseconds on any machine; the slack absorbs CI scheduler noise.
const P999_DEADLINE_MS: f64 = 1500.0;

#[test]
fn zipf_read_mix_survives_a_dead_server_within_deadline() {
    let cluster = Cluster::boot(5, "zipfmix");
    let spec = CodeSpec::LRC_10_6_5;
    let k = spec.data_blocks();
    let mut client = cluster.client(spec);

    let data = test_file(STRIPES * k * CHUNK);
    let manifest = client.put(&data).unwrap();
    assert_eq!(manifest.stripes.len(), STRIPES);

    // The readable population is every (stripe, data lane) chunk. The
    // Zipf rank-to-chunk assignment is a seeded shuffle, so the hot set
    // is arbitrary but the run is reproducible.
    let mut rng = StdRng::seed_from_u64(0x21F_0407);
    let mut chunks: Vec<(usize, u32)> = (0..STRIPES)
        .flat_map(|s| (0..k as u32).map(move |l| (s, l)))
        .collect();
    chunks.shuffle(&mut rng);
    let zipf = ZipfSampler::new(chunks.len(), 1.1);

    let mut latency = Percentiles::new();
    let mut buf = Vec::new();
    let mut direct = 0u64;
    let mut degraded = 0u64;
    let read_one = |client: &mut ClusterClient,
                    rng: &mut StdRng,
                    latency: &mut Percentiles,
                    direct: &mut u64,
                    degraded: &mut u64,
                    buf: &mut Vec<u8>| {
        let (stripe_idx, lane) = chunks[zipf.sample_rank(rng)];
        let stripe = manifest.stripes[stripe_idx].id;
        let t0 = Instant::now();
        // `unwrap` IS the zero-failed-reads gate: any read error fails
        // the test on the spot.
        let kind = client.read_data_chunk(stripe, lane, buf).unwrap();
        latency.record(t0.elapsed().as_secs_f64() * 1e3);
        match kind {
            ReadKind::Direct => *direct += 1,
            ReadKind::Degraded { .. } => *degraded += 1,
        }
        let start = (stripe_idx * k + lane as usize) * CHUNK;
        assert_eq!(
            &buf[..CHUNK],
            &data[start..start + CHUNK],
            "payload must be exact"
        );
    };

    // Warm phase: all-healthy reads.
    for _ in 0..WARM_READS {
        read_one(
            &mut client,
            &mut rng,
            &mut latency,
            &mut direct,
            &mut degraded,
            &mut buf,
        );
    }
    assert_eq!(degraded, 0, "healthy cluster serves everything directly");

    // Kill one server and keep reading the same skewed mix.
    cluster.servers[4].kill();
    for _ in 0..DEGRADED_READS {
        read_one(
            &mut client,
            &mut rng,
            &mut latency,
            &mut direct,
            &mut degraded,
            &mut buf,
        );
    }
    assert!(
        degraded > 0,
        "the dead server held data lanes of the hot set"
    );
    assert!(direct > 0, "surviving lanes still serve directly");

    let s = latency.summary();
    assert_eq!(s.count, WARM_READS + DEGRADED_READS, "every read completed");
    assert!(
        s.p999 < P999_DEADLINE_MS,
        "p999 {} ms blows the {} ms deadline (p50 {} ms, max {} ms)",
        s.p999,
        P999_DEADLINE_MS,
        s.p50,
        s.max
    );

    cluster.teardown();
}
