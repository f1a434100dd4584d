//! Property-based tests for the UVM driver's data structures and
//! algorithms: the density tree against per-leaf brute-force counts, the
//! prefetcher against a reference node-count tree walk, the LRU against a
//! reference model, PMA accounting invariants, prefetch output laws, and
//! batch-gather conservation.

use gpu_model::{
    AccessType, FaultBuffer, FaultBufferConfig, FaultEntry, GlobalPage, PageMask, VaBlockIdx,
};
use proptest::prelude::*;
use sim_engine::units::VABLOCK_SIZE;
use sim_engine::{CostModel, SimRng, SimTime};
use uvm_driver::prefetch::{compute_prefetch, upgrade_to_big_pages, DensityTree, ResolvedPrefetch};
use uvm_driver::{batch, LruList, ManagedSpace, Pma};

fn mask_from(indices: &[usize]) -> PageMask {
    let mut m = PageMask::EMPTY;
    for &i in indices {
        m.set(i);
    }
    m
}

// ---------- Density tree ----------

proptest! {
    #[test]
    fn tree_counts_match_naive_popcounts(idx in proptest::collection::vec(0usize..512, 0..300)) {
        let m = mask_from(&idx);
        let tree = DensityTree::from_mask(&m);
        for level in 0..=9usize {
            let len = 1usize << level;
            for node in 0..(512 >> level) {
                let naive = (node * len..(node + 1) * len).filter(|&l| m.get(l)).count();
                prop_assert_eq!(
                    tree.count(level, node) as usize,
                    naive,
                    "level {} node {}", level, node
                );
            }
        }
    }

    #[test]
    fn region_for_returns_largest_qualifying_ancestor(
        idx in proptest::collection::vec(0usize..512, 1..300),
        leaf in 0usize..512,
        threshold in 1u8..=100,
    ) {
        // Ensure the leaf itself is faulted (occupied).
        let mut all = idx.clone();
        all.push(leaf);
        let m = mask_from(&all);
        let tree = DensityTree::from_mask(&m);
        let (lvl, node) = tree.region_for(leaf, threshold);
        // The chosen region contains the leaf.
        prop_assert!(DensityTree::leaves_of(lvl, node).contains(&leaf));
        // Any region beyond the (0, leaf) fallback strictly qualifies.
        if (lvl, node) != (0, leaf) {
            let count = tree.count(lvl, node) as u32;
            prop_assert!(count * 100 > threshold as u32 * (1u32 << lvl));
        }
        // No larger ancestor qualifies.
        let mut a = leaf >> (lvl + 1);
        for l in lvl + 1..=9 {
            let c = tree.count(l, a) as u32;
            prop_assert!(
                c * 100 <= threshold as u32 * (1u32 << l),
                "larger ancestor at level {} also qualifies", l
            );
            a >>= 1;
        }
    }

    #[test]
    fn saturate_equals_rebuild_from_filled_mask(
        idx in proptest::collection::vec(0usize..512, 0..300),
        level in 0usize..=9,
        node_seed in any::<u64>(),
    ) {
        let node = (node_seed as usize) % (512 >> level);
        let mut m = mask_from(&idx);
        let mut tree = DensityTree::from_mask(&m);
        tree.saturate(level, node);
        let range = DensityTree::leaves_of(level, node);
        m.set_range(range.start, range.end - range.start);
        prop_assert_eq!(tree, DensityTree::from_mask(&m));
    }

    #[test]
    fn prefetch_matches_reference_tree_walk(
        resident_idx in proptest::collection::vec(0usize..512, 0..200),
        faulted_idx in proptest::collection::vec(0usize..512, 0..64),
        valid_idx in proptest::collection::vec(0usize..512, 0..512),
        threshold in 1u8..=100,
        big_pages in any::<bool>(),
    ) {
        let resident = mask_from(&resident_idx);
        let faulted = mask_from(&faulted_idx);
        let valid = mask_from(&valid_idx);
        let policy = ResolvedPrefetch::Density { threshold, big_pages };
        prop_assert_eq!(
            compute_prefetch(policy, &resident, &faulted, &valid),
            reference::compute_prefetch(threshold, big_pages, &resident, &faulted, &valid)
        );
    }
}

/// The density prefetcher as a flat array of 1023 node counts: built
/// bottom-up from the occupancy mask, walked leaf to root per fault, and
/// saturated by filling the region and adding the increase to every
/// ancestor. Independent of `DensityTree`, so it pins the mask-backed
/// tree to the paper's count semantics.
mod reference {
    use super::*;

    const LEVELS: usize = 9;

    fn offset(level: usize) -> usize {
        1024 - (1024 >> level)
    }

    struct Tree([u16; 1023]);

    impl Tree {
        fn build(m: &PageMask) -> Tree {
            let mut c = [0u16; 1023];
            for (leaf, count) in c.iter_mut().take(512).enumerate() {
                *count = m.get(leaf) as u16;
            }
            for level in 1..=LEVELS {
                for i in 0..(512 >> level) {
                    c[offset(level) + i] =
                        c[offset(level - 1) + 2 * i] + c[offset(level - 1) + 2 * i + 1];
                }
            }
            Tree(c)
        }

        fn region_for(&self, leaf: usize, threshold: u8) -> (usize, usize) {
            let mut best = (0, leaf);
            for level in 0..=LEVELS {
                let idx = leaf >> level;
                if self.0[offset(level) + idx] as u32 * 100 > threshold as u32 * (1u32 << level) {
                    best = (level, idx);
                }
            }
            best
        }

        fn saturate(&mut self, level: usize, idx: usize) {
            let delta = (1u16 << level) - self.0[offset(level) + idx];
            for l in 0..=level {
                let n = 1usize << (level - l);
                for node in idx * n..(idx + 1) * n {
                    self.0[offset(l) + node] = 1 << l;
                }
            }
            for l in level + 1..=LEVELS {
                self.0[offset(l) + (idx >> (l - level))] += delta;
            }
        }
    }

    pub fn compute_prefetch(
        threshold: u8,
        big_pages: bool,
        resident: &PageMask,
        faulted: &PageMask,
        valid: &PageMask,
    ) -> PageMask {
        let mut marked = if big_pages {
            upgrade_to_big_pages(faulted).intersect(valid)
        } else {
            *faulted
        };
        let mut tree = Tree::build(&resident.union(faulted).union(&marked));
        for leaf in (0..512).filter(|&l| faulted.get(l)) {
            let (level, idx) = tree.region_for(leaf, threshold);
            if level > 0 {
                for l in idx << level..(idx + 1) << level {
                    marked.set(l);
                }
                tree.saturate(level, idx);
            }
        }
        marked
            .intersect(valid)
            .difference(resident)
            .difference(faulted)
    }
}

// ---------- Big-page upgrade ----------

proptest! {
    #[test]
    fn bigpage_upgrade_laws(idx in proptest::collection::vec(0usize..512, 0..128)) {
        let f = mask_from(&idx);
        let up = upgrade_to_big_pages(&f);
        // Superset of the faults.
        prop_assert!(f.difference(&up).is_empty());
        // Exactly the union of 16-page regions containing a fault.
        for bp in 0..32 {
            let has_fault = f.count_range(bp * 16, 16) > 0;
            prop_assert_eq!(up.count_range(bp * 16, 16), if has_fault { 16 } else { 0 });
        }
        // Idempotent.
        prop_assert_eq!(upgrade_to_big_pages(&up), up);
    }
}

// ---------- Prefetch output laws ----------

proptest! {
    #[test]
    fn prefetch_output_laws(
        resident in proptest::collection::vec(0usize..512, 0..128),
        faulted in proptest::collection::vec(0usize..512, 1..64),
        threshold in 1u8..=100,
        big_pages in any::<bool>(),
        valid_prefix in 64usize..=512,
    ) {
        let resident = mask_from(&resident);
        let mut valid = PageMask::EMPTY;
        for i in 0..valid_prefix {
            valid.set(i);
        }
        // Keep inputs consistent: faults on valid, non-resident pages.
        let faulted = mask_from(&faulted).intersect(&valid).difference(&resident);
        prop_assume!(!faulted.is_empty());
        let resident = resident.intersect(&valid);

        let policy = ResolvedPrefetch::Density { threshold, big_pages };
        let out = compute_prefetch(policy, &resident, &faulted, &valid);
        prop_assert!(out.intersect(&resident).is_empty(), "never re-fetches resident");
        prop_assert!(out.intersect(&faulted).is_empty(), "never includes the faults");
        prop_assert!(out.difference(&valid).is_empty(), "stays inside the allocation");
        // Threshold 100 with no big pages can never exceed 100% density.
        if threshold == 100 && !big_pages {
            prop_assert!(out.is_empty());
        }
    }

    #[test]
    fn lower_threshold_never_prefetches_less(
        faulted in proptest::collection::vec(0usize..512, 1..32),
        t_lo in 1u8..=50,
        t_hi in 51u8..=100,
    ) {
        let faulted = mask_from(&faulted);
        let lo = compute_prefetch(
            ResolvedPrefetch::Density { threshold: t_lo, big_pages: true },
            &PageMask::EMPTY,
            &faulted,
            &PageMask::FULL,
        );
        let hi = compute_prefetch(
            ResolvedPrefetch::Density { threshold: t_hi, big_pages: true },
            &PageMask::EMPTY,
            &faulted,
            &PageMask::FULL,
        );
        prop_assert!(hi.difference(&lo).is_empty(), "aggressive ⊇ conservative");
    }
}

// ---------- LRU vs reference model ----------

#[derive(Debug, Clone)]
enum LruOp {
    Touch(u64),
    PopLru,
    Remove(u64),
}

fn arb_ops(blocks: u64) -> impl Strategy<Value = Vec<LruOp>> {
    proptest::collection::vec(
        prop_oneof![
            (0..blocks).prop_map(LruOp::Touch),
            Just(LruOp::PopLru),
            (0..blocks).prop_map(LruOp::Remove),
        ],
        0..200,
    )
}

proptest! {
    #[test]
    fn lru_matches_reference_model(ops in arb_ops(16)) {
        let mut lru = LruList::new(16);
        // Reference: Vec ordered MRU -> LRU.
        let mut model: Vec<u64> = Vec::new();
        for op in ops {
            match op {
                LruOp::Touch(b) => {
                    lru.touch(VaBlockIdx(b));
                    model.retain(|&x| x != b);
                    model.insert(0, b);
                }
                LruOp::PopLru => {
                    let got = lru.pop_lru().map(|v| v.0);
                    let want = model.pop();
                    prop_assert_eq!(got, want);
                }
                LruOp::Remove(b) => {
                    let got = lru.remove(VaBlockIdx(b));
                    let want = model.contains(&b);
                    model.retain(|&x| x != b);
                    prop_assert_eq!(got, want);
                }
            }
            prop_assert_eq!(lru.len(), model.len());
            let mut order: Vec<u64> = lru.iter_lru().map(|v| v.0).collect();
            order.reverse();
            prop_assert_eq!(&order, &model);
        }
    }
}

// ---------- PMA accounting ----------

proptest! {
    #[test]
    fn pma_invariants_hold_under_alloc_free(
        ops in proptest::collection::vec(any::<bool>(), 1..200),
        capacity_blocks in 1u64..64,
    ) {
        let capacity = capacity_blocks * VABLOCK_SIZE;
        let mut pma = Pma::new(capacity);
        let cost = CostModel::default();
        let mut rng = SimRng::from_seed(11);
        let mut live = 0u64;
        for alloc in ops {
            if alloc {
                match pma.alloc(VABLOCK_SIZE, &cost, &mut rng) {
                    Ok(_) => live += 1,
                    Err(e) => {
                        prop_assert!(live * VABLOCK_SIZE + VABLOCK_SIZE > capacity);
                        prop_assert_eq!(e.available, capacity - live * VABLOCK_SIZE);
                    }
                }
            } else if live > 0 {
                pma.free(VABLOCK_SIZE);
                live -= 1;
            }
            prop_assert_eq!(pma.in_use(), live * VABLOCK_SIZE);
            prop_assert!(pma.in_use() <= pma.reserved());
            prop_assert!(pma.reserved() <= pma.capacity());
        }
    }
}

// ---------- Batch gather conservation ----------

proptest! {
    #[test]
    fn gather_conserves_and_dedups(
        pages in proptest::collection::vec(0u64..(8 * 512), 0..300),
        batch_size in 1usize..300,
    ) {
        let mut space = ManagedSpace::new();
        space.alloc(8 * VABLOCK_SIZE, "data");
        let mut buf = FaultBuffer::new(FaultBufferConfig {
            capacity: 4096,
            ready_delay: sim_engine::SimDuration::ZERO,
        });
        for (i, &p) in pages.iter().enumerate() {
            buf.push(FaultEntry {
                page: GlobalPage(p),
                access: if i % 3 == 0 { AccessType::Write } else { AccessType::Read },
                timestamp: SimTime::ZERO,
                utlb: (i % 4) as u32,
            });
        }
        let mut arena = batch::BatchArena::default();
        batch::gather_into(&mut buf, batch_size, SimTime::ZERO, &mut space, &mut arena);
        let b = &arena.batch;
        // Conservation: every fetched entry is a new page or a duplicate.
        prop_assert_eq!(b.fetched, pages.len().min(batch_size) as u64);
        let new_pages: u64 = b.groups.iter().map(|g| g.fault_mask.count() as u64).sum();
        prop_assert_eq!(new_pages + b.duplicates, b.fetched);
        // Groups sorted, masks disjoint across groups, writes ⊆ faults.
        let mut last = None;
        for g in &b.groups {
            if let Some(prev) = last {
                prop_assert!(g.block > prev, "groups ascend");
            }
            last = Some(g.block);
            prop_assert!(!g.fault_mask.is_empty());
            prop_assert!(g.write_mask.difference(&g.fault_mask).is_empty());
        }
        // The fetched prefix of distinct pages matches the group masks.
        let distinct: std::collections::BTreeSet<u64> = pages
            .iter()
            .take(batch_size)
            .copied()
            .collect();
        let in_groups: u64 = b.groups.iter().map(|g| g.fault_mask.count() as u64).sum();
        prop_assert_eq!(in_groups as usize, distinct.len());
    }
}
