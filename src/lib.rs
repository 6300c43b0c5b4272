//! # spmv-tune
//!
//! Facade crate of the `spmv-tune` workspace: a matrix- and
//! architecture-adaptive SpMV optimizer reproducing
//! *Elafrou, Goumas, Koziris — "Performance Analysis and Optimization
//! of Sparse Matrix-Vector Multiplication on Modern Multi- and
//! Many-Core Processors" (IPDPS 2017)*.
//!
//! The workspace re-exported here:
//!
//! * [`sparse`] — formats ([`sparse::Csr`], delta-compressed CSR,
//!   long-row decomposition, SELL-C-σ), generators, MatrixMarket
//!   I/O, structural features (paper Table 2);
//! * [`machine`] — machine models with KNC / KNL / Broadwell presets
//!   (paper Table 1), cache simulator, STREAM microbenchmark;
//! * [`kernels`] — parallel SpMV kernels: baseline CSR plus the
//!   optimization pool (vectorization, software prefetch, index
//!   compression, decomposition, scheduling policies);
//! * [`sim`] — deterministic performance simulator producing the
//!   per-class bounds (`P_MB`, `P_ML`, `P_IMB`, `P_CMP`, `P_peak`) of
//!   paper §III-B;
//! * [`mod@reference`] — MKL-like comparison baselines (plain CSR and a
//!   simulated Inspector-Executor);
//! * [`tuner`] — the paper's contribution: bottleneck classification
//!   (profile-guided rules and a CART feature-guided classifier) and
//!   the end-to-end adaptive optimizer;
//! * [`solvers`] — CG / BiCGSTAB / GMRES iterative solvers used for
//!   the amortization study (paper §IV-D).
//!
//! ## Quickstart
//!
//! ```
//! use spmv_tune::prelude::*;
//!
//! // A small FEM-like matrix.
//! let a = spmv_tune::sparse::gen::banded(2_000, 8, 0.9, 42).unwrap();
//!
//! // Pick a platform (here: Knights Landing with flat HBM).
//! let machine = MachineModel::knl();
//!
//! // Let the feature-guided optimizer pick optimizations.
//! let optimizer = Optimizer::feature_guided(&machine);
//! let tuned = optimizer.optimize(&a);
//!
//! // Run SpMV through the tuned kernel.
//! let x = vec![1.0; a.ncols()];
//! let mut y = vec![0.0; a.nrows()];
//! tuned.kernel().run(&x, &mut y);
//! # assert!(y.iter().all(|v| v.is_finite()));
//! ```

pub use spmv_kernels as kernels;
pub use spmv_machine as machine;
pub use spmv_ref as reference;
pub use spmv_sim as sim;
pub use spmv_solvers as solvers;
pub use spmv_sparse as sparse;
pub use spmv_tuner as tuner;

/// Commonly used items, importable with one `use`.
pub mod prelude {
    pub use spmv_kernels::schedule::Schedule;
    pub use spmv_kernels::variant::{KernelVariant, Optimization};
    pub use spmv_machine::model::MachineModel;
    pub use spmv_sparse::{Coo, Csr, DecomposedCsr, DeltaCsr, FeatureVector};
    pub use spmv_tuner::class::{Bottleneck, ClassSet};
    pub use spmv_tuner::optimizer::{Optimizer, TunedSpmv};
}
