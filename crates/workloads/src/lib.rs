//! # workloads
//!
//! Page-granularity access-trace generators for the eight benchmarks the
//! paper evaluates (§III-B): the regular and random synthetic page-touch
//! kernels, cuBLAS SGEMM, GPU-STREAM triad, cuFFT (forward + inverse),
//! TeaLeaf, HPGMG, and the cuSPARSE dense→CSR + SpMM kernel.
//!
//! Each generator allocates its buffers through the managed-memory API
//! (exactly as a CUDA application calls `cudaMallocManaged`) and produces
//! a [`gpu_model::WorkloadTrace`]: the page-access pattern
//! the kernel presents *to the UVM driver*. Numerics are not simulated —
//! the paper's analysis depends only on which pages are touched, in what
//! order, by which concurrent blocks (see DESIGN.md's substitution table).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod common;
pub mod cufft;
pub mod cusparse;
pub mod hpgmg;
pub mod random;
pub mod regular;
pub mod sgemm;
pub mod stream;
pub mod tealeaf;

use gpu_model::WorkloadTrace;
use serde::{Deserialize, Serialize};
use sim_engine::units::PAGE_SIZE;
use sim_engine::SimRng;
use uvm_driver::ManagedSpace;

pub use cufft::CufftParams;
pub use cusparse::CusparseParams;
pub use hpgmg::HpgmgParams;
pub use random::RandomParams;
pub use regular::RegularParams;
pub use sgemm::SgemmParams;
pub use stream::StreamParams;
pub use tealeaf::TealeafParams;

/// The eight benchmark kinds of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WorkloadKind {
    /// Regular page-touch kernel.
    Regular,
    /// Random (unique-page) page-touch kernel.
    Random,
    /// cuBLAS-style tiled SGEMM.
    Sgemm,
    /// GPU-STREAM triad.
    Stream,
    /// cuFFT forward + inverse.
    Cufft,
    /// TeaLeaf heat-conduction solver.
    Tealeaf,
    /// HPGMG geometric multigrid.
    Hpgmg,
    /// cuSPARSE dense→CSR + SpMM.
    Cusparse,
}

impl WorkloadKind {
    /// All kinds, in the paper's Table I order.
    pub const ALL: [WorkloadKind; 8] = [
        WorkloadKind::Regular,
        WorkloadKind::Random,
        WorkloadKind::Sgemm,
        WorkloadKind::Stream,
        WorkloadKind::Cufft,
        WorkloadKind::Tealeaf,
        WorkloadKind::Hpgmg,
        WorkloadKind::Cusparse,
    ];

    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            WorkloadKind::Regular => "regular",
            WorkloadKind::Random => "random",
            WorkloadKind::Sgemm => "sgemm",
            WorkloadKind::Stream => "stream",
            WorkloadKind::Cufft => "cufft",
            WorkloadKind::Tealeaf => "tealeaf",
            WorkloadKind::Hpgmg => "hpgmg",
            WorkloadKind::Cusparse => "cusparse",
        }
    }
}

/// A fully parameterised workload, ready to generate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Workload {
    /// Regular page-touch.
    Regular(RegularParams),
    /// Random page-touch.
    Random(RandomParams),
    /// Tiled SGEMM.
    Sgemm(SgemmParams),
    /// STREAM triad.
    Stream(StreamParams),
    /// FFT forward + inverse.
    Cufft(CufftParams),
    /// TeaLeaf solver.
    Tealeaf(TealeafParams),
    /// Multigrid V-cycles.
    Hpgmg(HpgmgParams),
    /// Sparse conversion + SpMM.
    Cusparse(CusparseParams),
}

fn round_down(v: u64, multiple: u64) -> u64 {
    (v / multiple).max(1) * multiple
}

impl Workload {
    /// The workload's kind.
    pub fn kind(&self) -> WorkloadKind {
        match self {
            Workload::Regular(_) => WorkloadKind::Regular,
            Workload::Random(_) => WorkloadKind::Random,
            Workload::Sgemm(_) => WorkloadKind::Sgemm,
            Workload::Stream(_) => WorkloadKind::Stream,
            Workload::Cufft(_) => WorkloadKind::Cufft,
            Workload::Tealeaf(_) => WorkloadKind::Tealeaf,
            Workload::Hpgmg(_) => WorkloadKind::Hpgmg,
            Workload::Cusparse(_) => WorkloadKind::Cusparse,
        }
    }

    /// Table label.
    pub fn name(&self) -> &'static str {
        self.kind().label()
    }

    /// Total managed bytes the workload will allocate.
    pub fn footprint_bytes(&self) -> u64 {
        match self {
            Workload::Regular(p) => p.bytes,
            Workload::Random(p) => p.bytes,
            Workload::Sgemm(p) => p.footprint_bytes(),
            Workload::Stream(p) => 3 * p.bytes_per_vector,
            Workload::Cufft(p) => 2 * p.bytes.div_ceil(PAGE_SIZE).next_power_of_two() * PAGE_SIZE,
            Workload::Tealeaf(p) => p.footprint_bytes(),
            Workload::Hpgmg(p) => p.footprint_bytes(),
            Workload::Cusparse(p) => p.footprint_bytes(),
        }
    }

    /// Size a workload of `kind` to approximately `bytes` of managed
    /// footprint (problem dimensions are rounded to tile/power-of-two
    /// constraints, so the realised footprint can deviate slightly;
    /// consult [`footprint_bytes`](Self::footprint_bytes) for the truth).
    pub fn with_footprint(kind: WorkloadKind, bytes: u64) -> Workload {
        match kind {
            WorkloadKind::Regular => Workload::Regular(RegularParams {
                bytes,
                ..RegularParams::default()
            }),
            WorkloadKind::Random => Workload::Random(RandomParams {
                bytes,
                ..RandomParams::default()
            }),
            WorkloadKind::Sgemm => {
                // 3 * 4 * n^2 = bytes.
                let tile = 256;
                let n = round_down((bytes as f64 / 12.0).sqrt() as u64, tile) as usize;
                Workload::Sgemm(SgemmParams {
                    n,
                    tile: tile as usize,
                    ..SgemmParams::default()
                })
            }
            WorkloadKind::Stream => Workload::Stream(StreamParams {
                bytes_per_vector: bytes / 3,
            }),
            WorkloadKind::Cufft => {
                // Two buffers, each a power-of-two page count.
                let pages = ((bytes / 2) / PAGE_SIZE).max(1);
                let pages = if pages.is_power_of_two() {
                    pages
                } else {
                    pages.next_power_of_two() / 2
                };
                Workload::Cufft(CufftParams {
                    bytes: pages * PAGE_SIZE,
                    ..CufftParams::default()
                })
            }
            WorkloadKind::Tealeaf => {
                let arrays = 5u64;
                let n =
                    round_down((bytes as f64 / (arrays as f64 * 8.0)).sqrt() as u64, 256) as usize;
                Workload::Tealeaf(TealeafParams {
                    n,
                    arrays: arrays as usize,
                    tile: 128,
                    ..TealeafParams::default()
                })
            }
            WorkloadKind::Hpgmg => {
                // sum of levels ~ (4/3) * 8 n^2.
                let n = round_down((bytes as f64 * 3.0 / 32.0).sqrt() as u64, 256) as usize;
                Workload::Hpgmg(HpgmgParams {
                    n,
                    ..HpgmgParams::default()
                })
            }
            WorkloadKind::Cusparse => {
                // 3 dense (12 n^2) + csr (~0.8 n^2 at 10%).
                let n = round_down((bytes as f64 / 12.8).sqrt() as u64, 128) as usize;
                Workload::Cusparse(CusparseParams {
                    n,
                    ..CusparseParams::default()
                })
            }
        }
    }

    /// Allocate the workload's buffers in `space` and build its trace.
    pub fn generate(&self, space: &mut ManagedSpace, rng: &mut SimRng) -> WorkloadTrace {
        match self {
            Workload::Regular(p) => regular::generate(p, space),
            Workload::Random(p) => random::generate(p, space, rng),
            Workload::Sgemm(p) => sgemm::generate(p, space),
            Workload::Stream(p) => stream::generate(p, space),
            Workload::Cufft(p) => cufft::generate(p, space),
            Workload::Tealeaf(p) => tealeaf::generate(p, space),
            Workload::Hpgmg(p) => hpgmg::generate(p, space, rng),
            Workload::Cusparse(p) => cusparse::generate(p, space, rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_engine::units::{GIB, MIB};

    #[test]
    fn with_footprint_hits_target_within_tolerance() {
        for kind in WorkloadKind::ALL {
            let target = GIB;
            let w = Workload::with_footprint(kind, target);
            let got = w.footprint_bytes() as f64 / target as f64;
            assert!(
                (0.4..1.6).contains(&got),
                "{}: footprint ratio {got:.2} out of tolerance",
                w.name()
            );
        }
    }

    #[test]
    fn footprint_matches_generated_allocations() {
        for kind in WorkloadKind::ALL {
            let w = Workload::with_footprint(kind, 64 * MIB);
            let mut space = ManagedSpace::new();
            let mut rng = SimRng::from_seed(5);
            let t = w.generate(&mut space, &mut rng);
            let allocated: u64 = space.ranges().iter().map(|r| r.num_pages).sum();
            assert_eq!(
                t.footprint_pages,
                allocated,
                "{}: trace footprint vs allocations",
                w.name()
            );
            let declared = w.footprint_bytes().div_ceil(PAGE_SIZE);
            let ratio = allocated as f64 / declared as f64;
            assert!(
                (0.95..1.05).contains(&ratio),
                "{}: declared {declared} vs allocated {allocated}",
                w.name()
            );
        }
    }

    #[test]
    fn all_kinds_generate_nonempty_traces() {
        for kind in WorkloadKind::ALL {
            let w = Workload::with_footprint(kind, 64 * MIB);
            let mut space = ManagedSpace::new();
            let mut rng = SimRng::from_seed(5);
            let t = w.generate(&mut space, &mut rng);
            assert!(t.num_blocks() > 0, "{}", w.name());
            assert!(t.total_accesses() > 0, "{}", w.name());
            assert_eq!(t.name, w.name());
        }
    }

    #[test]
    fn traces_hold_no_spare_capacity() {
        // Table I's size at scale 128: 0.6 × (12 GiB / 128).
        let bytes = 12 * GIB / 128 * 6 / 10;
        for kind in WorkloadKind::ALL {
            let w = Workload::with_footprint(kind, bytes);
            let mut space = ManagedSpace::new();
            let mut rng = SimRng::from_seed(5);
            let t = w.generate(&mut space, &mut rng);
            let packed = 4 * t.total_accesses() + 8 * t.total_steps() + 16 * t.num_blocks() as u64;
            assert!(
                t.heap_bytes() as u64 <= packed + 64,
                "{}: {} heap bytes for {} bytes of trace",
                w.name(),
                t.heap_bytes(),
                packed
            );
        }
    }

    #[test]
    fn labels_unique() {
        let mut labels: Vec<&str> = WorkloadKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 8);
    }
}
