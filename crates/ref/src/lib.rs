//! # spmv-ref
//!
//! MKL-like reference baselines — the comparison points of the paper's
//! evaluation (§IV-C). Intel MKL itself is closed-source and
//! x86-binary only, so this crate implements behavioural stand-ins
//! (substitutions documented in DESIGN.md):
//!
//! * [`mkl_csr::MklLikeCsr`] — stands in for `mkl_dcsrmv()`: a plain
//!   parallel CSR kernel with equal-row-count static partitioning and
//!   no structure inspection;
//! * [`simulate::simulate_inspector`] — stands in for the MKL
//!   Inspector-Executor `mkl_sparse_d_mv()` inside the `spmv-sim`
//!   cost model: an inspection phase reads row-length statistics,
//!   rebalances the partitioning and, for regular matrices, pays a
//!   format conversion; its preprocessing cost is charged to the
//!   amortization study.
//!
//! The [`simulate`] module also mirrors the MKL-CSR baseline inside
//! the cost model, so the multi-platform experiments (paper Fig. 5,
//! Table 4) can include both.

pub mod mkl_csr;
pub mod simulate;

pub use mkl_csr::MklLikeCsr;
