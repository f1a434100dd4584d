//! The two-stage UVM prefetcher (paper §IV-A): 64 KB big-page upgrade,
//! then the per-VABlock density tree.
//!
//! Also implements the paper's §VI-B4 *adaptive prefetching* suggestion as
//! an optional mode: aggressive threshold while the footprint fits in GPU
//! memory, prefetching disabled once oversubscribed.

pub mod bigpage;
pub mod tree;

use gpu_model::PageMask;
use serde::{Deserialize, Serialize};

pub use bigpage::upgrade_to_big_pages;
pub use tree::DensityTree;

/// Default density threshold (driver load-time parameter; 1–100).
pub const DEFAULT_THRESHOLD: u8 = 51;

/// Prefetching policy selected at driver load time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PrefetchPolicy {
    /// No prefetching: only faulted pages migrate.
    Disabled,
    /// The stock two-stage prefetcher.
    Density {
        /// Density threshold in percent (default 51).
        threshold: u8,
        /// Enable the stage-1 big-page upgrade (stock driver: on).
        big_pages: bool,
    },
    /// A literature-baseline next-N prefetcher that trusts *fault order*:
    /// each fault pulls in the following `degree` pages of its VABlock.
    /// The paper argues (§VI-A) such order-based schemes break down when
    /// faults arrive scrambled from thousands of parallel warps — this
    /// policy exists to quantify that claim against the density scheme.
    Sequential {
        /// Pages prefetched after each faulted page.
        degree: u16,
    },
    /// Paper §VI-B4: adapt to the subscription ratio — aggressive
    /// prefetching when undersubscribed, none when oversubscribed.
    Adaptive {
        /// Threshold used while the footprint fits in GPU memory
        /// (the paper observes threshold 1 "rivals explicit transfer").
        undersubscribed_threshold: u8,
    },
}

impl Default for PrefetchPolicy {
    fn default() -> Self {
        PrefetchPolicy::Density {
            threshold: DEFAULT_THRESHOLD,
            big_pages: true,
        }
    }
}

/// The policy after resolving adaptivity against the subscription ratio.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ResolvedPrefetch {
    /// No prefetching.
    Disabled,
    /// Density prefetching with a fixed threshold.
    Density {
        /// Density threshold in percent.
        threshold: u8,
        /// Stage-1 big-page upgrade enabled.
        big_pages: bool,
    },
    /// Next-N sequential prefetching in fault order.
    Sequential {
        /// Pages prefetched after each faulted page.
        degree: u16,
    },
}

impl PrefetchPolicy {
    /// Short policy label for telemetry (the exposition `policy` label).
    pub fn label(self) -> &'static str {
        match self {
            PrefetchPolicy::Disabled => "disabled",
            PrefetchPolicy::Density { .. } => "density",
            PrefetchPolicy::Sequential { .. } => "sequential",
            PrefetchPolicy::Adaptive { .. } => "adaptive",
        }
    }

    /// Resolve the policy given the footprint/GPU-memory subscription
    /// ratio (1.0 = exactly full).
    pub fn resolve(self, subscription_ratio: f64) -> ResolvedPrefetch {
        match self {
            PrefetchPolicy::Disabled => ResolvedPrefetch::Disabled,
            PrefetchPolicy::Density {
                threshold,
                big_pages,
            } => {
                assert!((1..=100).contains(&threshold), "threshold must be 1-100");
                ResolvedPrefetch::Density {
                    threshold,
                    big_pages,
                }
            }
            PrefetchPolicy::Sequential { degree } => ResolvedPrefetch::Sequential { degree },
            PrefetchPolicy::Adaptive {
                undersubscribed_threshold,
            } => {
                assert!(
                    (1..=100).contains(&undersubscribed_threshold),
                    "threshold must be 1-100"
                );
                if subscription_ratio <= 1.0 {
                    ResolvedPrefetch::Density {
                        threshold: undersubscribed_threshold,
                        big_pages: true,
                    }
                } else {
                    ResolvedPrefetch::Disabled
                }
            }
        }
    }
}

/// Compute the pages to prefetch for one VABlock during one batch.
///
/// * `resident` — pages already on the GPU.
/// * `faulted` — new (non-duplicate) faulted pages in this batch.
/// * `valid` — pages of the block that belong to a live allocation.
///
/// Returns the prefetch mask: pages to migrate *in addition to* the
/// faulted ones (never overlapping `resident` or `faulted`).
pub fn compute_prefetch(
    policy: ResolvedPrefetch,
    resident: &PageMask,
    faulted: &PageMask,
    valid: &PageMask,
) -> PageMask {
    if faulted.is_empty() {
        return PageMask::EMPTY;
    }
    let (threshold, big_pages) = match policy {
        ResolvedPrefetch::Disabled => return PageMask::EMPTY,
        ResolvedPrefetch::Sequential { degree } => {
            // Next-N in fault order: pull the pages following each fault
            // within the VABlock (the classic OS readahead shape). Each
            // run is marked word-at-a-time.
            let mut marked = PageMask::EMPTY;
            for leaf in faulted.iter_set() {
                let end = (leaf + 1 + degree as usize).min(sim_engine::units::PAGES_PER_VABLOCK);
                marked.set_span(leaf + 1, end - (leaf + 1));
            }
            return marked
                .intersect(valid)
                .difference(resident)
                .difference(faulted);
        }
        ResolvedPrefetch::Density {
            threshold,
            big_pages,
        } => (threshold, big_pages),
    };

    // Stage 1: big-page upgrade (clipped to the allocation).
    let mut marked = if big_pages {
        upgrade_to_big_pages(faulted).intersect(valid)
    } else {
        *faulted
    };

    // Stage 2: density tree over everything on the GPU or pending. Each
    // fault grows `marked` to its qualifying region, saturating the tree
    // so later faults in the batch observe pending prefetches.
    let mut tree = DensityTree::from_mask(&resident.union(faulted).union(&marked));
    for leaf in faulted.iter_set() {
        let (level, idx) = tree.region_for(leaf, threshold);
        if level > 0 {
            let range = DensityTree::leaves_of(level, idx);
            marked.set_range(range.start, range.end - range.start);
            tree.saturate(level, idx);
        }
    }

    marked
        .intersect(valid)
        .difference(resident)
        .difference(faulted)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mask_of(leaves: &[usize]) -> PageMask {
        let mut m = PageMask::EMPTY;
        for &l in leaves {
            m.set(l);
        }
        m
    }

    const STOCK: ResolvedPrefetch = ResolvedPrefetch::Density {
        threshold: DEFAULT_THRESHOLD,
        big_pages: true,
    };

    #[test]
    fn disabled_prefetches_nothing() {
        let f = mask_of(&[1, 2, 3]);
        let out = compute_prefetch(
            ResolvedPrefetch::Disabled,
            &PageMask::EMPTY,
            &f,
            &PageMask::FULL,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn lone_fault_prefetches_its_big_page() {
        let f = mask_of(&[20]);
        let out = compute_prefetch(STOCK, &PageMask::EMPTY, &f, &PageMask::FULL);
        // Big page 1 covers 16..32; the faulted page itself is excluded.
        assert_eq!(out.count(), 15);
        assert!(out.get(16) && out.get(31) && !out.get(20));
    }

    #[test]
    fn big_page_upgrades_feed_the_tree() {
        // Faults in big pages 0 and 1 upgrade to 32 pending pages: the
        // level-5 subtree (32 leaves) is then 100% occupied, and the
        // level-6 subtree (64 leaves) at 32/64 = 50% does NOT exceed 51.
        let f = mask_of(&[0, 16]);
        let out = compute_prefetch(STOCK, &PageMask::EMPTY, &f, &PageMask::FULL);
        assert_eq!(out.count(), 30, "two big pages minus two faults");
        // A third fault in big page 2 pushes the level-6 subtree to
        // 48/64 = 75% > 51%: the full 64-leaf region is fetched.
        let f = mask_of(&[0, 16, 32]);
        let out = compute_prefetch(STOCK, &PageMask::EMPTY, &f, &PageMask::FULL);
        assert_eq!(out.count(), 64 - 3);
        assert!(out.get(63));
    }

    #[test]
    fn residency_contributes_to_density() {
        // 256 pages already resident (first half). One fault at 256 with
        // its big-page upgrade (256..272) gives the upper half 16/256 =
        // 6.25%; root = (256 + 16)/512 = 53.1% > 51% -> whole block.
        let mut resident = PageMask::EMPTY;
        resident.set_range(0, 256);
        let f = mask_of(&[256]);
        let out = compute_prefetch(STOCK, &resident, &f, &PageMask::FULL);
        assert_eq!(out.count(), 512 - 256 - 1, "rest of the block fetched");
    }

    #[test]
    fn prefetch_never_includes_resident_or_invalid() {
        let mut valid = PageMask::EMPTY;
        valid.set_range(0, 64);
        let mut resident = mask_of(&[1, 2]);
        resident.or_with(&PageMask::EMPTY);
        let f = mask_of(&[0]);
        let out = compute_prefetch(STOCK, &resident, &f, &valid);
        assert!(out.intersect(&resident).is_empty());
        assert!(out.difference(&valid).is_empty());
        assert!(!out.get(0));
    }

    #[test]
    fn threshold_one_is_aggressive() {
        let f = mask_of(&[100]);
        let aggressive = ResolvedPrefetch::Density {
            threshold: 1,
            big_pages: true,
        };
        let out = compute_prefetch(aggressive, &PageMask::EMPTY, &f, &PageMask::FULL);
        // With threshold 1 a single fault's big page (16/512 = 3.1% at the
        // root > 1%) cascades to the entire VABlock.
        assert_eq!(out.count(), 511);
    }

    #[test]
    fn no_big_pages_only_tree() {
        let f = mask_of(&[7]);
        let no_bp = ResolvedPrefetch::Density {
            threshold: DEFAULT_THRESHOLD,
            big_pages: false,
        };
        let out = compute_prefetch(no_bp, &PageMask::EMPTY, &f, &PageMask::FULL);
        assert!(
            out.is_empty(),
            "a lone fault with no upgrade fetches nothing extra"
        );
    }

    #[test]
    fn adaptive_resolution() {
        let p = PrefetchPolicy::Adaptive {
            undersubscribed_threshold: 1,
        };
        assert_eq!(
            p.resolve(0.8),
            ResolvedPrefetch::Density {
                threshold: 1,
                big_pages: true
            }
        );
        assert_eq!(p.resolve(1.2), ResolvedPrefetch::Disabled);
        assert_eq!(
            PrefetchPolicy::Disabled.resolve(0.5),
            ResolvedPrefetch::Disabled
        );
    }

    #[test]
    fn sequential_prefetches_next_n() {
        let f = mask_of(&[10, 100]);
        let seq = ResolvedPrefetch::Sequential { degree: 4 };
        let out = compute_prefetch(seq, &PageMask::EMPTY, &f, &PageMask::FULL);
        let got: Vec<usize> = out.iter_set().collect();
        assert_eq!(got, vec![11, 12, 13, 14, 101, 102, 103, 104]);
    }

    #[test]
    fn sequential_clips_at_block_end_and_excludes_resident() {
        let f = mask_of(&[510]);
        let mut resident = PageMask::EMPTY;
        resident.set(511);
        let seq = ResolvedPrefetch::Sequential { degree: 8 };
        let out = compute_prefetch(seq, &resident, &f, &PageMask::FULL);
        assert!(out.is_empty(), "511 resident, nothing past the block");
        let out = compute_prefetch(seq, &PageMask::EMPTY, &f, &PageMask::FULL);
        assert_eq!(out.iter_set().collect::<Vec<_>>(), vec![511]);
    }

    #[test]
    fn sequential_resolution_passes_through() {
        let p = PrefetchPolicy::Sequential { degree: 16 };
        assert_eq!(p.resolve(0.5), ResolvedPrefetch::Sequential { degree: 16 });
        assert_eq!(p.resolve(2.0), ResolvedPrefetch::Sequential { degree: 16 });
    }

    #[test]
    fn empty_faults_prefetch_nothing() {
        let out = compute_prefetch(STOCK, &PageMask::EMPTY, &PageMask::EMPTY, &PageMask::FULL);
        assert!(out.is_empty());
    }
}
