//! Simulator configuration.

use xorbas_core::CodeSpec;

/// How repair tasks choose which surviving blocks to stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadPolicy {
    /// Read exactly the blocks the codec's repair plan requires
    /// (`k` for RS heavy decode, the repair group for light decode).
    Minimal,
    /// Mirror the deployed HDFS-RAID BlockFixer: heavy-decoder tasks open
    /// streams to *all* surviving blocks of the stripe ("even when a
    /// single block is corrupt, the BlockFixer opens streams to all 13
    /// other blocks", §3.1.2). Light-decoder tasks still read only their
    /// repair group.
    Deployed,
}

/// Cluster-level physical configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Number of worker (DataNode/TaskTracker) nodes.
    pub nodes: usize,
    /// Number of racks nodes are spread over (round-robin).
    pub racks: usize,
    /// Per-node NIC bandwidth, bits/s, applied to ingress and egress
    /// separately (full duplex).
    pub nic_bps: f64,
    /// Aggregate bandwidth of the shared top-level switch, bits/s —
    /// "hundreds of machines can share a single top-level switch which
    /// becomes saturated" (§5.2.3).
    pub core_bps: f64,
    /// MapReduce computation slots per node.
    pub map_slots_per_node: usize,
    /// HDFS block size, bytes.
    pub block_bytes: u64,
}

impl ClusterConfig {
    /// The EC2 setup of §5.2: 50 slaves of m1.small, 64 MB blocks.
    /// EC2 gives no topology information, so all nodes share one "rack"
    /// domain behind a common switch.
    pub fn ec2(nodes: usize) -> Self {
        Self {
            nodes,
            racks: 1,
            nic_bps: 100e6, // m1.small-era "low" network performance
            core_bps: 1e9,  // one shared top-level switch ≈ the paper's γ
            map_slots_per_node: 2,
            block_bytes: 64 << 20,
        }
    }

    /// The Facebook test cluster of §5.3: 35 nodes, 256 MB blocks.
    fn facebook_test(nodes: usize) -> Self {
        Self {
            nodes,
            racks: 5,
            nic_bps: 1e9,
            core_bps: 8e9,
            map_slots_per_node: 2,
            block_bytes: 256 << 20,
        }
    }
}

/// A warehouse-scale cluster preset with *scaled block granularity*.
///
/// The paper's production context is the Facebook warehouse cluster:
/// "more than 3000 nodes ... storing more than 30 PB" (§1), with 256 MB
/// blocks and "a median of 20 node failures per day" (Fig. 1). Tracking
/// all ~120 M physical blocks individually would dominate simulation
/// cost without changing the metrics the paper reports, so this preset
/// simulates at coarser *block granularity*: one simulated block stands
/// for [`ClusterScale::block_scale`] physical blocks placed together
/// (the same aggregation a placement group / chunk server performs).
///
/// What the scaling preserves and what it approximates:
///
/// * **Repair traffic and storage bytes are exact** — a simulated block
///   carries `block_scale × physical_block_bytes` bytes, so every
///   bytes-read / bytes-moved metric matches the full-resolution run.
/// * **Failure and placement granularity is coarser** — a node holds
///   `~1/block_scale` as many distinct blocks, so block-count-based
///   statistics (e.g. stripes touched per failure) are scaled down by
///   the same factor; repair *durations* stretch accordingly because a
///   coarse block streams through one NIC serially where `block_scale`
///   physical blocks would fan out. Use moderate scales (or 1) when
///   duration microstructure matters.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterScale {
    /// Worker nodes in the fleet.
    pub nodes: usize,
    /// Racks (round-robin assignment).
    pub racks: usize,
    /// Per-node NIC bandwidth, bits/s.
    pub nic_bps: f64,
    /// Aggregate fabric (core) bandwidth, bits/s. Warehouse fabrics are
    /// multi-switch fat trees, not the single saturable top-level switch
    /// of the §5.2 EC2 testbed, so this is provisioned at aggregate
    /// bisection scale.
    pub core_bps: f64,
    /// MapReduce slots per node.
    pub map_slots_per_node: usize,
    /// Physical HDFS block size, bytes (the warehouse used 256 MB).
    pub physical_block_bytes: u64,
    /// Physical blocks represented by one simulated block.
    pub block_scale: u64,
    /// Total *stored* bytes (data + parity) the namespace is loaded to.
    pub total_bytes: u64,
}

impl ClusterScale {
    /// The paper's Facebook warehouse cluster: 3000 nodes, 30 PB stored,
    /// 256 MB physical blocks, simulated at 512-block granularity
    /// (~229k simulated blocks, ~76 per node — a simulated year's
    /// storm of daily failures stays event-bound).
    pub fn facebook_warehouse() -> Self {
        Self {
            nodes: 3000,
            racks: 150,
            nic_bps: 1e9,
            core_bps: 2e12,
            map_slots_per_node: 2,
            physical_block_bytes: 256 << 20,
            block_scale: 512,
            total_bytes: 30_000_000_000_000_000, // 30 PB
        }
    }

    /// A wide-stripe testbed: 300 nodes — enough machines that a
    /// 260-lane stripe (e.g. [`CodeSpec::LRC_WIDE`] or
    /// [`CodeSpec::RS_200_60`]) still spreads roughly one block per
    /// node — with a namespace small enough (~35 simulated blocks per
    /// node at 64-physical-block granularity) for a multi-seed
    /// Monte-Carlo comparison to run inside a unit test.
    pub fn wide_stripe_testbed() -> Self {
        Self {
            nodes: 300,
            racks: 30,
            nic_bps: 1e9,
            core_bps: 2e11,
            map_slots_per_node: 2,
            physical_block_bytes: 256 << 20,
            block_scale: 64,
            total_bytes: 180_000_000_000_000, // 180 TB stored
        }
    }

    /// Bytes per simulated block.
    fn sim_block_bytes(&self) -> u64 {
        self.physical_block_bytes * self.block_scale
    }

    /// Total simulated blocks the namespace holds at `total_bytes`.
    fn sim_blocks_total(&self) -> usize {
        (self.total_bytes / self.sim_block_bytes()) as usize
    }

    /// Simulated *data* blocks to load so that stored bytes (data plus
    /// parity) reach `total_bytes` under `code` — both schemes fill the
    /// same 30 PB footprint, as a capacity-bound warehouse would.
    pub fn data_blocks_for(&self, code: CodeSpec) -> usize {
        let total = self.sim_blocks_total();
        total * code.data_blocks() / code.total_blocks()
    }

    /// The equivalent flat [`ClusterConfig`].
    fn cluster_config(&self) -> ClusterConfig {
        ClusterConfig {
            nodes: self.nodes,
            racks: self.racks,
            nic_bps: self.nic_bps,
            core_bps: self.core_bps,
            map_slots_per_node: self.map_slots_per_node,
            block_bytes: self.sim_block_bytes(),
        }
    }
}

/// Compute-speed model for task types, in bytes/second processed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputeRates {
    /// XOR light-decode throughput.
    pub xor_bps: f64,
    /// Reed-Solomon (heavy) decode throughput. The paper found "HDFS RS
    /// and Xorbas have very similar CPU requirements" — the Vandermonde
    /// solve is cheap — so this defaults close to XOR speed.
    pub rs_decode_bps: f64,
    /// WordCount map throughput (calibrated to m1.small-era Hadoop,
    /// where a 64 MB map task takes several minutes).
    pub wordcount_bps: f64,
}

impl ComputeRates {
    /// Decode throughput of a light (XOR) or heavy (RS solve) repair.
    pub(crate) fn decode_bps(&self, light: bool) -> f64 {
        if light {
            self.xor_bps
        } else {
            self.rs_decode_bps
        }
    }
}

impl Default for ComputeRates {
    fn default() -> Self {
        Self {
            xor_bps: 400e6,
            rs_decode_bps: 300e6,
            wordcount_bps: 150e3,
        }
    }
}

/// Full simulation configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// The cluster.
    pub cluster: ClusterConfig,
    /// The redundancy scheme files are RAIDed with.
    pub code: CodeSpec,
    /// Stream-selection policy for repairs.
    pub read_policy: ReadPolicy,
    /// Delay between a failure and the BlockFixer dispatching repairs.
    pub detection_delay_secs: f64,
    /// Compute model.
    pub compute: ComputeRates,
    /// Store local parities even when their whole group is zero padding.
    /// The deployed HDFS-Xorbas did this (which is why §5.3 measured 27%
    /// extra storage on small files instead of the ideal 13%); our
    /// default elides such all-zero parities.
    pub pad_local_parities: bool,
    /// Cluster-wide cap on concurrently *running* repair/relocation
    /// tasks (0 = unlimited). Deployed HDFS throttles re-replication
    /// (`dfs.namenode.replication.max-streams`) so a mass failure
    /// cannot commandeer every map slot and NIC at once; the cap also
    /// bounds the flow-level network's working set on burst days.
    /// Workload jobs are never throttled.
    pub max_concurrent_repairs: usize,
    /// When true, every block carries a small real payload and repairs
    /// run the actual codecs, verifying restored bytes (test mode).
    pub verify_payloads: bool,
    /// Payload bytes per block in verify mode.
    pub payload_bytes: usize,
    /// RNG seed (placement, failure choice).
    pub seed: u64,
}

impl SimConfig {
    /// EC2-experiment defaults for the given scheme.
    pub fn ec2(code: CodeSpec) -> Self {
        Self {
            cluster: ClusterConfig::ec2(50),
            code,
            read_policy: ReadPolicy::Deployed,
            pad_local_parities: false,
            detection_delay_secs: 30.0,
            compute: ComputeRates::default(),
            max_concurrent_repairs: 0,
            verify_payloads: false,
            payload_bytes: 64,
            seed: 0x0E1EFA17,
        }
    }

    /// Warehouse-scale defaults for the given scheme, from a
    /// [`ClusterScale`] preset. Uses the deployed BlockFixer's read
    /// policy (the warehouse ran HDFS-RAID) and a 15-minute detection
    /// delay (the paper: blocks are repaired "after a 15 minute
    /// timeout"). Compute rates are multiplied by the block granularity:
    /// one simulated block stands for [`ClusterScale::block_scale`]
    /// physical blocks whose map/decode tasks run in parallel across the
    /// fleet, so per-coarse-block compute must not serialize them.
    pub fn scaled(scale: &ClusterScale, code: CodeSpec) -> Self {
        let base = ComputeRates::default();
        let s = scale.block_scale as f64;
        Self {
            cluster: scale.cluster_config(),
            code,
            read_policy: ReadPolicy::Deployed,
            pad_local_parities: false,
            detection_delay_secs: 15.0 * 60.0,
            compute: ComputeRates {
                xor_bps: base.xor_bps * s,
                rs_decode_bps: base.rs_decode_bps * s,
                wordcount_bps: base.wordcount_bps * s,
            },
            max_concurrent_repairs: 512,
            verify_payloads: false,
            payload_bytes: 64,
            seed: 0x3000_FACE,
        }
    }

    /// Facebook-test-cluster defaults for the given scheme.
    pub fn facebook(code: CodeSpec) -> Self {
        Self {
            cluster: ClusterConfig::facebook_test(35),
            code,
            read_policy: ReadPolicy::Deployed,
            pad_local_parities: false,
            detection_delay_secs: 30.0,
            compute: ComputeRates::default(),
            max_concurrent_repairs: 0,
            verify_payloads: false,
            payload_bytes: 64,
            seed: 0xFACEB00C,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ec2_defaults_match_section_5_2() {
        let c = ClusterConfig::ec2(50);
        assert_eq!(c.nodes, 50);
        assert_eq!(c.block_bytes, 64 << 20);
    }

    #[test]
    fn facebook_defaults_match_section_5_3() {
        let c = ClusterConfig::facebook_test(35);
        assert_eq!(c.nodes, 35);
        assert_eq!(c.block_bytes, 256 << 20);
    }

    #[test]
    fn sim_config_carries_scheme() {
        let cfg = SimConfig::ec2(CodeSpec::RS_10_4);
        assert_eq!(cfg.code, CodeSpec::RS_10_4);
        assert_eq!(cfg.read_policy, ReadPolicy::Deployed);
    }

    #[test]
    fn warehouse_preset_matches_paper_scale() {
        let s = ClusterScale::facebook_warehouse();
        assert_eq!(s.nodes, 3000);
        assert_eq!(s.physical_block_bytes, 256 << 20);
        // 30 PB at 512-block granularity: ~218k simulated blocks of
        // 128 GiB each, ~73 per node.
        assert_eq!(s.sim_block_bytes(), (256 << 20) * 512);
        let blocks = s.sim_blocks_total();
        assert!((210_000..230_000).contains(&blocks), "{blocks}");
        assert!((65..80).contains(&(blocks / s.nodes)));
        // Both schemes fill the same stored footprint.
        let lrc_data = s.data_blocks_for(CodeSpec::LRC_10_6_5);
        let rs_data = s.data_blocks_for(CodeSpec::RS_10_4);
        let stored = |data: usize, n: usize, k: usize| data * n / k;
        let lrc_stored = stored(lrc_data, 16, 10);
        let rs_stored = stored(rs_data, 14, 10);
        assert!((lrc_stored as f64 / rs_stored as f64 - 1.0).abs() < 0.01);
    }

    #[test]
    fn scaled_config_uses_deployed_policy_and_long_detection() {
        let cfg = SimConfig::scaled(&ClusterScale::facebook_warehouse(), CodeSpec::LRC_10_6_5);
        assert_eq!(cfg.cluster.nodes, 3000);
        assert_eq!(cfg.read_policy, ReadPolicy::Deployed);
        assert_eq!(cfg.detection_delay_secs, 900.0);
    }
}
