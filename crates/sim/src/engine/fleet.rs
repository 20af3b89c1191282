//! The machines: who is up, who is draining, where rebuilt blocks may
//! land, and what a dead node's disk held.

use rand::rngs::StdRng;

use crate::fasthash::FastMap;
use crate::hdfs::{BlockId, Hdfs, NodeId, Placement, StripeId};

pub(super) struct Fleet {
    alive: Vec<bool>,
    /// Nodes being decommissioned: still serving reads, no new blocks.
    draining: Vec<bool>,
    /// `alive && !draining`, maintained incrementally for placement.
    placeable: Vec<bool>,
    placement: Placement,
    /// Blocks each dead node held at kill time. A node that returns
    /// with its disk re-attaches whatever the BlockFixer has not
    /// already repaired elsewhere; a replacement machine discards the
    /// entry — it has an empty disk.
    transient_inventory: FastMap<NodeId, Vec<BlockId>>,
    /// Reused scratch for placement-exclusion node lists.
    exclude: Vec<NodeId>,
}

impl Fleet {
    pub(super) fn new(nodes: usize, racks: usize) -> Self {
        Self {
            alive: vec![true; nodes],
            draining: vec![false; nodes],
            placeable: vec![true; nodes],
            placement: Placement::new(nodes, racks),
            transient_inventory: FastMap::default(),
            exclude: Vec::new(),
        }
    }

    pub(super) fn alive(&self) -> &[bool] {
        &self.alive
    }

    /// The live nodes, ascending.
    pub(super) fn alive_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.alive.len()).filter(|&n| self.alive[n])
    }

    pub(super) fn is_alive(&self, node: NodeId) -> bool {
        self.alive[node]
    }

    pub(super) fn is_draining(&self, node: NodeId) -> bool {
        self.draining[node]
    }

    pub(super) fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Takes a live node down, remembering its disk contents in case it
    /// returns transiently.
    pub(super) fn kill(&mut self, node: NodeId, disk: Vec<BlockId>) {
        self.alive[node] = false;
        self.placeable[node] = false;
        self.transient_inventory.insert(node, disk);
    }

    /// Brings a dead node back as a full member of the fleet — alive,
    /// not draining, accepting blocks — and hands over the disk
    /// contents recorded at its kill (the caller re-attaches them for a
    /// transient return and drops them for a replacement machine).
    /// `None` if the node was not down.
    pub(super) fn rejoin(&mut self, node: NodeId) -> Option<Vec<BlockId>> {
        if self.alive[node] {
            return None;
        }
        self.alive[node] = true;
        self.draining[node] = false;
        self.placeable[node] = true;
        Some(self.transient_inventory.remove(&node).unwrap_or_default())
    }

    /// Marks a live node as draining; false if it is dead or already
    /// draining.
    pub(super) fn start_drain(&mut self, node: NodeId) -> bool {
        if !self.alive[node] || self.draining[node] {
            return false;
        }
        self.draining[node] = true;
        self.placeable[node] = false;
        true
    }

    /// A node for a rebuilt block of `stripe`: off the nodes the stripe
    /// already occupies when one exists, anywhere placeable otherwise.
    pub(super) fn place_rebuilt(
        &mut self,
        hdfs: &Hdfs,
        stripe: StripeId,
        rng: &mut StdRng,
    ) -> Option<NodeId> {
        hdfs.stripe_nodes_into(stripe, &mut self.exclude);
        self.placement
            .place_one(&self.placeable, &self.exclude, rng)
            .or_else(|| self.placement.place_one(&self.placeable, &[], rng))
    }
}

#[cfg(test)]
mod tests {
    use xorbas_core::CodeSpec;

    use crate::{SimConfig, SimTime, Simulation};

    #[test]
    fn rejoin_resets_draining_and_placeable_for_revive_and_restore() {
        // A node that was draining when it died comes back as an
        // ordinary member whether it is replaced or merely rebooted.
        for with_disk in [false, true] {
            let mut sim = Simulation::new(SimConfig::ec2(CodeSpec::LRC_10_6_5));
            sim.decommission_node_at(SimTime::from_secs(1), 2, true);
            sim.kill_node_at(SimTime::from_secs(2), 2);
            sim.run_until(SimTime::from_secs(3));
            assert!(!sim.fleet.is_alive(2) && sim.fleet.is_draining(2));
            assert!(!sim.fleet.placeable[2]);
            if with_disk {
                sim.restore_node_at(SimTime::from_secs(4), 2);
            } else {
                sim.revive_node_at(SimTime::from_secs(4), 2);
            }
            sim.run_until_idle(SimTime::from_mins(10));
            assert!(sim.fleet.is_alive(2));
            assert!(!sim.fleet.is_draining(2), "a rejoined node is not draining");
            assert!(sim.fleet.placeable[2], "a rejoined node accepts blocks");
            assert_eq!(sim.fleet.rejoin(2), None, "rejoining a live node no-ops");
        }
    }
}
