//! # spmv-tuner
//!
//! The paper's contribution: a lightweight, matrix- and
//! architecture-adaptive SpMV optimizer that treats optimization
//! selection as a multiclass, multilabel classification problem over
//! performance *bottlenecks* (not optimizations):
//!
//! * [`class`] — the four bottleneck classes `MB`, `ML`, `IMB`, `CMP`
//!   (§III-A) and their mapping to the optimization pool (§III-E);
//! * [`bounds`] — collection of the per-class performance bounds,
//!   either by real micro-benchmark runs on the host or through the
//!   `spmv-sim` cost model for the paper's platforms (§III-B);
//! * [`profile`] — the rule-based profile-guided classifier with its
//!   grid-searched `T_ML` / `T_IMB` hyper-parameters (§III-C);
//! * [`dtree`] — a from-scratch CART decision tree (Gini impurity,
//!   label-powerset multi-label handling);
//! * [`featclf`] — the feature-guided classifier trained on Table 2
//!   structural features, with Leave-One-Out cross-validation and the
//!   Exact / Partial match ratios of §IV-B;
//! * [`optimizer`] — end-to-end optimizers: profile-guided,
//!   feature-guided, oracle and the two trivial sweeps, producing
//!   runnable kernels via `spmv-kernels`;
//! * [`amortize`] — the solver-iteration amortization model of §IV-D
//!   (`N_iters,min = t_pre / (t_MKL − t_optimizer)`), extended with
//!   [`amortize::TuneCost`] so menu-search time is charged too;
//! * [`menu`] — the microkernel menu search: bound-pruned candidate
//!   timing over `spmv_kernels::micro`'s explicit-SIMD menu, with
//!   per-matrix cached winning [`menu::KernelPlan`]s.

pub mod amortize;
pub mod bounds;
pub mod class;
pub mod dtree;
pub mod featclf;
pub mod menu;
pub mod optimizer;
pub mod partitioned;
pub mod profile;

pub use class::{Bottleneck, ClassSet};
pub use featclf::FeatureGuidedClassifier;
pub use menu::{KernelPlan, MenuTrace};
pub use optimizer::{Optimizer, TunedSpmv};
pub use partitioned::PartitionedMlDetector;
pub use profile::{ProfileClassifier, Thresholds};
