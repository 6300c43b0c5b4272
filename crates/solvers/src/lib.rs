//! # spmv-solvers
//!
//! Iterative Krylov solvers built on the workspace's SpMV kernels.
//!
//! The paper motivates its low-overhead design with exactly these
//! consumers (§IV-D): CG / GMRES-type methods call SpMV once (or
//! twice) per iteration, and *preconditioned* runs may converge in
//! dozens of iterations — too few to amortize heavyweight autotuning.
//! This crate provides the solver side of that experiment plus
//! realistic example applications:
//!
//! * [`fn@cg`] — Conjugate Gradient (SPD systems);
//! * [`fn@bicgstab`] — BiCGSTAB (general systems);
//! * [`fn@gmres`] — restarted GMRES(m);
//! * [`eigen::power_method`] — dominant-eigenpair approximation;
//! * [`jacobi::Jacobi`] — diagonal preconditioner;
//! * [`op::LinOp`] — the operator abstraction every solver consumes,
//!   implemented by [`spmv_sparse::Csr`] and by every
//!   [`spmv_kernels::variant::SpmvKernel`].
//!
//! Every dense-vector pass (dots, axpys, the fused Krylov updates)
//! runs through [`spmv_kernels::dense`]: on the same engine team as
//! the SpMV, with reductions that are bitwise the same for every
//! thread count. The crate runs no serial vector passes of its own.

pub mod bicgstab;
pub mod cg;
pub mod eigen;
pub mod gmres;
pub mod jacobi;
pub mod op;

pub use bicgstab::bicgstab;
pub use cg::cg;
pub use eigen::power_method;
pub use gmres::gmres;
pub use jacobi::Jacobi;
pub use op::{LinOp, SolveStats};
