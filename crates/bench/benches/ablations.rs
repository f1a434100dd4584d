//! Criterion benches for the ablation studies of DESIGN.md's design
//! choices (the paper's §VI "paths forward"), plus microbenchmarks of the
//! driver's hot data structures so algorithmic regressions in the
//! prefetch tree, page masks, or LRU show up immediately.

use bench::experiments::{ablations, Scale};
use criterion::{criterion_group, criterion_main, Criterion};
use gpu_model::{PageMask, VaBlockIdx};
use std::hint::black_box;
use uvm_driver::prefetch::{compute_prefetch, DensityTree, ResolvedPrefetch};
use uvm_driver::LruList;

const SCALE: Scale = Scale::QUICK;

fn bench_ablation_replay(c: &mut Criterion) {
    c.benchmark_group("ablation_replay_policies")
        .sample_size(10)
        .bench_function("regen", |b| {
            b.iter(|| black_box(ablations::ablation_replay(SCALE)))
        });
}

fn bench_ablation_threshold(c: &mut Criterion) {
    c.benchmark_group("ablation_density_threshold")
        .sample_size(10)
        .bench_function("regen", |b| {
            b.iter(|| black_box(ablations::ablation_threshold(SCALE)))
        });
}

fn bench_ablation_granularity(c: &mut Criterion) {
    c.benchmark_group("ablation_alloc_granularity")
        .sample_size(10)
        .bench_function("regen", |b| {
            b.iter(|| black_box(ablations::ablation_granularity(SCALE)))
        });
}

fn bench_ablation_eviction(c: &mut Criterion) {
    c.benchmark_group("ablation_eviction_aging")
        .sample_size(10)
        .bench_function("regen", |b| {
            b.iter(|| black_box(ablations::ablation_eviction(SCALE)))
        });
}

fn bench_ablation_batch_size(c: &mut Criterion) {
    c.benchmark_group("ablation_batch_size")
        .sample_size(10)
        .bench_function("regen", |b| {
            b.iter(|| black_box(ablations::ablation_batch_size(SCALE)))
        });
}

// ---- Hot data-structure microbenchmarks ----

fn bench_density_tree(c: &mut Criterion) {
    let mut mask = PageMask::EMPTY;
    for i in (0..512).step_by(3) {
        mask.set(i);
    }
    let mut g = c.benchmark_group("micro_density_tree");
    g.bench_function("from_mask", |b| {
        b.iter(|| black_box(DensityTree::from_mask(black_box(&mask))))
    });
    let tree = DensityTree::from_mask(&mask);
    g.bench_function("region_for", |b| {
        b.iter(|| {
            for leaf in (0..512).step_by(7) {
                black_box(tree.region_for(black_box(leaf), 51));
            }
        })
    });
    g.bench_function("compute_prefetch_per_vablock", |b| {
        let mut faulted = PageMask::EMPTY;
        for i in (0..512).step_by(37) {
            faulted.set(i);
        }
        let resident = mask.difference(&faulted);
        b.iter(|| {
            black_box(compute_prefetch(
                ResolvedPrefetch::Density {
                    threshold: 51,
                    big_pages: true,
                },
                black_box(&resident),
                black_box(&faulted),
                &PageMask::FULL,
            ))
        })
    });
    g.bench_function("compute_prefetch_dense_streaming", |b| {
        // A streaming block: the lower half resident and the next big
        // page faulted. 272/512 pages tip the root over 51%, so the walk
        // saturates the whole block and 240 pages are prefetched.
        let mut resident = PageMask::EMPTY;
        resident.set_range(0, 256);
        let mut faulted = PageMask::EMPTY;
        faulted.set_range(256, 16);
        b.iter(|| {
            black_box(compute_prefetch(
                ResolvedPrefetch::Density {
                    threshold: 51,
                    big_pages: true,
                },
                black_box(&resident),
                black_box(&faulted),
                &PageMask::FULL,
            ))
        })
    });
    g.finish();
}

fn bench_page_mask(c: &mut Criterion) {
    let mut a = PageMask::EMPTY;
    let mut bm = PageMask::EMPTY;
    for i in (0..512).step_by(2) {
        a.set(i);
    }
    for i in (0..512).step_by(5) {
        bm.set(i);
    }
    let mut g = c.benchmark_group("micro_page_mask");
    g.bench_function("count", |b| b.iter(|| black_box(black_box(&a).count())));
    g.bench_function("union_difference", |b| {
        b.iter(|| black_box(black_box(&a).union(&bm).difference(&bm)))
    });
    g.bench_function("iter_set", |b| {
        b.iter(|| black_box(black_box(&a).iter_set().sum::<usize>()))
    });
    g.finish();
}

fn bench_lru(c: &mut Criterion) {
    c.benchmark_group("micro_lru")
        .bench_function("touch_churn", |b| {
            let mut lru = LruList::new(4096);
            for i in 0..4096 {
                lru.touch(VaBlockIdx(i));
            }
            let mut i = 0u64;
            b.iter(|| {
                i = (i * 2654435761 + 1) % 4096;
                lru.touch(VaBlockIdx(black_box(i)));
                if i.is_multiple_of(7) {
                    if let Some(v) = lru.pop_lru() {
                        lru.touch(v);
                    }
                }
            })
        });
}

criterion_group!(
    ablations_and_micro,
    bench_ablation_replay,
    bench_ablation_threshold,
    bench_ablation_granularity,
    bench_ablation_eviction,
    bench_ablation_batch_size,
    bench_density_tree,
    bench_page_mask,
    bench_lru,
);
criterion_main!(ablations_and_micro);
