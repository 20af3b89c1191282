//! `f`-way replication as an erasure code: the `[n, 1]` repetition code.
//!
//! The paper's baseline (§4, Table 1) is 3-replication. Treating it as
//! the degenerate code it is — one data lane, every "parity" lane a
//! copy — lets the simulator and the chunk servers plan, compile and
//! replay replica repairs through the same [`ErasureCodec`] surface as
//! RS and LRC stripes instead of a private branch each.

use crate::codec::{
    check_data_lanes, check_parity_lanes, normalize_indices, normalize_repair_request,
    ErasureCodec, RepairPlan, RepairTask,
};
use crate::error::{CodeError, Result};
use crate::session::{CompiledStep, RepairSession};
use crate::spec::CodeSpec;
use xorbas_gf::{Field, Gf256};

/// `replicas`-way replication: lane 0 is the block, lanes `1..replicas`
/// are byte-identical copies. Any single surviving lane repairs all the
/// others, each by one whole-lane read.
#[derive(Debug, Clone)]
pub struct Replication {
    replicas: usize,
}

impl Replication {
    /// `replicas` total copies; at least 2, or there is nothing to
    /// repair from.
    pub fn new(replicas: usize) -> Result<Self> {
        CodeSpec::Replication { replicas }.validate()?;
        Ok(Self { replicas })
    }
}

impl ErasureCodec for Replication {
    fn data_blocks(&self) -> usize {
        1
    }

    fn total_blocks(&self) -> usize {
        self.replicas
    }

    fn spec(&self) -> CodeSpec {
        CodeSpec::Replication {
            replicas: self.replicas,
        }
    }

    fn encode_into(&self, data: &[&[u8]], parity: &mut [&mut [u8]]) -> Result<()> {
        let len = check_data_lanes(data, 1)?;
        check_parity_lanes(parity, self.replicas - 1, len)?;
        for lane in parity.iter_mut() {
            lane.copy_from_slice(data[0]);
        }
        Ok(())
    }

    /// One light task per target, each reading the first surviving
    /// replica. Targets keep the caller's order.
    fn repair_plan_for(&self, unavailable: &[usize], targets: &[usize]) -> Result<RepairPlan> {
        let (unavailable, _) = normalize_repair_request(unavailable, targets, self.replicas)?;
        let survivor = (0..self.replicas)
            .find(|p| !unavailable.contains(p))
            .ok_or(CodeError::Unrecoverable {
                erased: unavailable,
            })?;
        Ok(RepairPlan {
            missing: targets.to_vec(),
            tasks: targets
                .iter()
                .map(|&t| RepairTask {
                    repairs: vec![t],
                    reads: vec![survivor],
                    half_reads: vec![],
                    light: true,
                })
                .collect(),
        })
    }

    fn repair_session(&self, unavailable: &[usize]) -> Result<RepairSession> {
        let missing = normalize_indices(unavailable, self.replicas)?;
        let plan = self.repair_plan(&missing)?;
        // A copy is the linear step `target = 1 · survivor`; the field
        // only names the kernel, every field's ONE copies bytes.
        let steps = plan
            .tasks
            .iter()
            .map(|t| CompiledStep {
                target: t.repairs[0],
                sources: vec![(t.reads[0], Gf256::ONE.index())],
            })
            .collect();
        Ok(RepairSession::from_parts::<Gf256>(
            self.replicas,
            missing,
            plan,
            steps,
            0,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::owned;

    #[test]
    fn plan_copies_one_survivor() {
        let c = Replication::new(3).unwrap();
        let plan = c.repair_plan_for(&[0, 2], &[0, 2]).unwrap();
        assert_eq!(plan.tasks.len(), 2);
        for t in &plan.tasks {
            assert_eq!(t.reads, vec![1]);
            assert!(t.light);
        }
        assert_eq!(plan.blocks_read(), 1);
        assert!(matches!(
            c.repair_plan_for(&[0, 1, 2], &[0]),
            Err(CodeError::Unrecoverable { .. })
        ));
        assert!(c.repair_plan_for(&[3], &[3]).is_err(), "lane out of range");
    }

    #[test]
    fn rejects_degenerate_replication() {
        assert!(Replication::new(1).is_err());
        assert!(Replication::new(0).is_err());
    }

    #[test]
    fn encode_copies_and_session_restores() {
        let c = Replication::new(3).unwrap();
        let stripe = owned::encode(&c, &[vec![7u8, 8, 9]]).unwrap();
        assert_eq!(stripe, vec![vec![7u8, 8, 9]; 3]);

        let mut lanes = stripe.clone();
        let session = owned::repair(&c, &mut lanes, &[2, 0]).unwrap();
        assert_eq!(session.missing(), &[0, 2]);
        assert_eq!(session.solve_count(), 0);
        assert_eq!(lanes, stripe);

        // Shape errors are typed, like every other codec's.
        assert!(matches!(
            owned::encode(&c, &[vec![1u8], vec![2u8]]),
            Err(CodeError::ShardCountMismatch { .. })
        ));
    }
}
