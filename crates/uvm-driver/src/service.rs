//! Per-VABlock service planning.
//!
//! The driver services a batch as one ordered walk over its sorted
//! VABlock groups. Right before each group's commit (allocation,
//! eviction, migration, state commit, timer charges), [`plan_group`]
//! computes the group's [`ServicePlan`] — faulted/prefetch masks,
//! density-tree resolution, allocation-unit scan, per-page
//! migration/zero/map costs — from the block's current state. A plan is
//! therefore never stale: no other group commits between its planning
//! and its commit.

use crate::address_space::ManagedSpace;
use crate::batch::FaultGroup;
use crate::prefetch::{compute_prefetch, ResolvedPrefetch};
use gpu_model::PageMask;
use sim_engine::units::PAGES_PER_VABLOCK;
use sim_engine::{CostModel, SimDuration};

/// One VABlock's planned service window within a batch. All fields are
/// inline — a plan never touches the heap.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ServicePlan {
    /// New (valid, non-resident) faulted pages of the block.
    pub faulted: PageMask,
    /// Pages the prefetcher adds on top of `faulted`.
    pub prefetch: PageMask,
    /// `faulted ∪ prefetch` — every page to migrate.
    pub to_migrate: PageMask,
    /// Bit *i* set = allocation unit *i* of the block needs fresh
    /// physical backing (has pages to migrate and none backed yet).
    pub units_to_back: PageMask,
    /// `to_migrate.count()`, cached for the commit.
    pub pages: u64,
    /// Zeroing cost of one freshly backed allocation unit.
    pub zero_cost: SimDuration,
    /// Host→device migration cost of the `pages` pages.
    pub migrate_cost: SimDuration,
    /// Mapping + membar + LRU-update cost of the `pages` pages.
    pub map_cost: SimDuration,
}

impl ServicePlan {
    /// True when the batch holds no serviceable fault for the block
    /// (every faulted page was invalid or already resident).
    pub fn is_noop(&self) -> bool {
        self.faulted.is_empty()
    }
}

/// Compute one fault group's service plan from the current state of its
/// block. Pure with respect to the driver: reads `space`, writes only
/// `plan`.
pub(crate) fn plan_group(
    space: &ManagedSpace,
    policy: ResolvedPrefetch,
    cost: &CostModel,
    granularity: usize,
    group: &FaultGroup,
    plan: &mut ServicePlan,
) {
    let vb = group.block;
    // SoA: pull exactly the three hot masks planning reads; the cold
    // provenance arrays are never touched on this path.
    let valid = space.valid(vb);
    let resident = space.resident(vb);
    let backed = space.backed(vb);
    // One plan is reused across the groups of a batch without
    // re-initialisation, so every field the commit can read is
    // (re)written here. A noop plan only needs `faulted` (what `is_noop`
    // checks) — the commit reads nothing else from it.
    plan.faulted = group.fault_mask.intersect(valid).difference(resident);
    if plan.faulted.is_empty() {
        return;
    }
    plan.prefetch = compute_prefetch(policy, resident, &plan.faulted, valid);
    plan.to_migrate = plan.faulted.union(&plan.prefetch);
    plan.units_to_back = PageMask::EMPTY;
    for (unit, unit_start) in (0..PAGES_PER_VABLOCK).step_by(granularity).enumerate() {
        if plan.to_migrate.count_range(unit_start, granularity) > 0
            && backed.count_range(unit_start, granularity) == 0
        {
            plan.units_to_back.set(unit);
        }
    }
    plan.pages = plan.to_migrate.count() as u64;
    plan.zero_cost = cost.page_zero(granularity as u64);
    plan.migrate_cost = cost.migrate_h2d(plan.pages);
    plan.map_cost = cost.map_pages(plan.pages) + cost.lru_update();
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_model::VaBlockIdx;
    use sim_engine::units::VABLOCK_SIZE;

    #[test]
    fn default_plan_is_noop() {
        let p = ServicePlan::default();
        assert!(p.is_noop());
        assert_eq!(p.pages, 0);
        assert!(p.units_to_back.is_empty());
    }

    #[test]
    fn plan_with_faults_is_not_noop() {
        let mut p = ServicePlan::default();
        p.faulted.set(3);
        assert!(!p.is_noop());
    }

    #[test]
    fn plan_matches_block_state() {
        let mut space = ManagedSpace::new();
        space.alloc(4 * VABLOCK_SIZE, "plan");
        // Page 5 already resident: only page 6 faults, whole block unbacked.
        space.resident_mut(VaBlockIdx(1)).set(5);
        space.backed_mut(VaBlockIdx(1)).set(5);
        space.sync_block_residency(VaBlockIdx(1));
        let mut fault_mask = PageMask::EMPTY;
        fault_mask.set(5);
        fault_mask.set(6);
        let group = FaultGroup {
            block: VaBlockIdx(1),
            fault_mask,
            write_mask: PageMask::EMPTY,
            num_entries: 2,
        };
        let mut plan = ServicePlan::default();
        plan_group(
            &space,
            ResolvedPrefetch::Disabled,
            &CostModel::default(),
            16,
            &group,
            &mut plan,
        );
        assert!(plan.faulted.get(6) && !plan.faulted.get(5));
        assert_eq!(plan.pages, 1);
        // Unit 0 (pages 0..16) holds both the fault and the already-backed
        // page 5 — no fresh backing needed for it.
        assert!(plan.units_to_back.is_empty());
    }
}
