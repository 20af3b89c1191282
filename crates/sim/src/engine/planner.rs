//! Repair planning: the codec, the pattern memo in front of it, and the
//! scratch both need.
//!
//! Every plan lookup in the engine goes `scan` → `plan` (or through
//! [`Planner::degraded_read`], which is that pair plus the lane → block
//! mapping). The planner borrows the namespace it reads; it is the one
//! place the engine lists a stripe's unavailable positions.

use std::rc::Rc;

use xorbas_core::{CodeError, Codec, RepairPlan};

use crate::fasthash::FastMap;
use crate::hdfs::{BlockId, Hdfs, Position, StripeId};

pub(super) struct Planner {
    codec: Codec,
    /// Repair plans, keyed by the `unavailable ++ [MAX] ++ targets`
    /// pattern encoding. Wide stripes make *planning* itself expensive —
    /// an RS(200, 60) heavy plan runs a 200-column rank selection — and
    /// the simulator replays the same few patterns across thousands of
    /// stripes. `Rc` keeps cache hits clone-free.
    cache: FastMap<Vec<usize>, Rc<RepairPlan>>,
    /// Reused key encoding: hits allocate nothing, only a miss copies
    /// the key into the cache.
    key: Vec<usize>,
    /// The unavailable positions of the stripe last scanned.
    unavailable: Vec<usize>,
}

impl Planner {
    pub(super) fn new(codec: Codec) -> Self {
        Self {
            codec,
            cache: FastMap::default(),
            key: Vec::new(),
            unavailable: Vec::new(),
        }
    }

    pub(super) fn codec(&self) -> &Codec {
        &self.codec
    }

    /// Lists `stripe`'s unavailable positions (ascending); the list
    /// stays the planning context until the next scan.
    pub(super) fn scan(&mut self, hdfs: &Hdfs, stripe: StripeId) -> &[usize] {
        hdfs.unavailable_positions_into(stripe, &mut self.unavailable);
        &self.unavailable
    }

    /// [`Codec::repair_plan_for`] of `targets` against the last scan,
    /// through the pattern memo, plus whether the lookup hit it (the
    /// serving path charges a plan-compile latency penalty on cold
    /// failure patterns). Recoverable plans are cached once and shared
    /// out by `Rc`; unrecoverable patterns stay uncached (they abandon
    /// the stripe exactly once). `usize::MAX` separates the two index
    /// lists of the key, which never contain it.
    pub(super) fn plan(&mut self, targets: &[usize]) -> Result<(Rc<RepairPlan>, bool), CodeError> {
        self.key.clear();
        self.key.extend_from_slice(&self.unavailable);
        self.key.push(usize::MAX);
        self.key.extend_from_slice(targets);
        if let Some(plan) = self.cache.get(self.key.as_slice()) {
            return Ok((Rc::clone(plan), true));
        }
        let plan = Rc::new(self.codec.repair_plan_for(&self.unavailable, targets)?);
        self.cache.insert(self.key.clone(), Rc::clone(&plan));
        Ok((plan, false))
    }

    /// What rebuilding `stripe`'s position `pos` in memory fetches: the
    /// real blocks behind the plan's
    /// [`fetch_lanes`](RepairPlan::fetch_lanes) (virtual positions read
    /// for free), whether the plan is all-light, and whether the memo
    /// hit. `draining` plans around `pos` although it is still readable
    /// (a scheduled-repair drain never touches the draining node).
    pub(super) fn degraded_read(
        &mut self,
        hdfs: &Hdfs,
        stripe: StripeId,
        pos: usize,
        draining: bool,
    ) -> Result<(Vec<BlockId>, bool, bool), CodeError> {
        self.scan(hdfs, stripe);
        if draining {
            self.unavailable.push(pos);
            self.unavailable.sort_unstable();
        }
        let (plan, cache_hit) = self.plan(&[pos])?;
        let positions = hdfs.positions(stripe);
        let read_blocks = plan
            .fetch_lanes()
            .filter_map(|p| match positions[p] {
                Position::Real(b) => Some(b),
                Position::Virtual => None,
            })
            .collect();
        Ok((read_blocks, plan.is_light(), cache_hit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use xorbas_core::CodeSpec;

    use crate::hdfs::Placement;

    /// One full LRC(10,6,5) stripe on 20 nodes, and its planner.
    fn one_stripe() -> (Hdfs, Planner) {
        let code = CodeSpec::LRC_10_6_5;
        let mut hdfs = Hdfs::new(20);
        hdfs.create_raided_file(
            "f",
            10,
            code,
            1 << 20,
            &Placement::new(20, 1),
            &[true; 20],
            &mut StdRng::seed_from_u64(1),
            |real, mask| code.virtual_mask_into(real, mask),
            |_, _| None,
        )
        .expect("20 nodes hold one stripe");
        (hdfs, Planner::new(Codec::build(code).expect("valid spec")))
    }

    #[test]
    fn a_hit_shares_the_cached_plan_and_allocates_no_key() {
        let (mut hdfs, mut planner) = one_stripe();
        hdfs.drop_block(3);
        assert_eq!(planner.scan(&hdfs, 0), [3]);
        let (cold, hit) = planner.plan(&[3]).expect("single loss is recoverable");
        assert!(!hit);
        let key_buffer = planner.key.as_ptr();
        planner.scan(&hdfs, 0);
        let (warm, hit) = planner.plan(&[3]).expect("single loss is recoverable");
        assert!(hit);
        assert!(Rc::ptr_eq(&cold, &warm), "hits share the one cached plan");
        assert_eq!(planner.cache.len(), 1);
        assert_eq!(
            planner.key.as_ptr(),
            key_buffer,
            "the key scratch is reused"
        );
    }

    #[test]
    fn an_unrecoverable_pattern_is_not_cached() {
        let (mut hdfs, mut planner) = one_stripe();
        for b in 0..5 {
            hdfs.drop_block(b); // one whole local group: beyond any decoder
        }
        hdfs.drop_block(10);
        planner.scan(&hdfs, 0);
        assert!(planner.plan(&[0]).is_err());
        assert!(planner.cache.is_empty());
    }

    #[test]
    fn a_draining_read_never_fetches_the_block_it_rebuilds() {
        let (hdfs, mut planner) = one_stripe();
        let Position::Real(block) = hdfs.positions(0)[2] else {
            panic!("full stripes have no virtual positions");
        };
        let (reads, light, _) = planner
            .degraded_read(&hdfs, 0, 2, true)
            .expect("a healthy stripe rebuilds any one block");
        assert!(light);
        assert_eq!(reads.len(), 5, "the rest of the local group");
        assert!(!reads.contains(&block));
        // The position is readable, so without the flag there is
        // nothing to plan around and the codec refuses the request.
        assert!(planner.degraded_read(&hdfs, 0, 2, false).is_err());
    }
}
