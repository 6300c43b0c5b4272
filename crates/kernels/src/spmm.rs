//! Multi-vector CSR SpMM kernel for request batching.
//!
//! The serving plane (see `crates/serve`) coalesces concurrent SpMV
//! requests against the same registered matrix into one sparse
//! matrix × dense block product `Y = A · X`: the matrix is streamed
//! once for the whole batch instead of once per request, amortizing
//! the dominant memory traffic the same way Nagasaka & Azad's KNL
//! sparse-product kernels do. With `k` coalesced requests the kernel
//! performs `k` dependent accumulations per matrix element at the
//! cost of one traversal, so at equal thread count the batched path
//! moves `(bytes_A / k + bytes_xy)` per request instead of
//! `(bytes_A + bytes_xy)`.
//!
//! # Layout
//!
//! [`SpmmKernel::run_multi`] takes `k` *separate* vectors and reads
//! and writes them in place: requests arrive and results leave as
//! independent vectors, so the batch pays no transpose into an
//! interleaved block. Each worker walks its rows once and, per row,
//! computes all `k` row sums while the row's columns and values are
//! cache-hot.
//!
//! # Determinism contract
//!
//! Every output element is accumulated in the *same order* as the
//! serial reference [`Csr::spmv`]: per row, per request, column by
//! column. Results are therefore **bitwise identical** to `k`
//! independent serial SpMVs regardless of thread count or batch
//! composition — the property the serving plane's exact mode
//! advertises, and what lets batching be transparent to clients.

use std::ops::Range;

use spmv_sparse::{Csr, MaybeValidated};

use crate::baseline::{checked_fallback, row_sum_scalar, witness_plan};
use crate::engine::Plan;
use crate::schedule::{Schedule, ThreadTimes, YPtr};

/// Largest batch width the serving scheduler coalesces. The kernel
/// itself accepts any `k`; this is the sizing hint shared with the
/// request scheduler so accumulator stripes stay register-friendly.
pub const MAX_BATCH: usize = 8;

/// Parallel CSR × dense-block kernel (`Y = A · X`, `k` vectors).
///
/// Holds a precomputed [`Plan`] like the single-vector kernels, so a
/// registered matrix pays partitioning once and serves batches of any
/// width from the warm pool.
pub struct SpmmKernel<'a> {
    a: MaybeValidated<&'a Csr>,
    plan: Plan,
}

impl<'a> SpmmKernel<'a> {
    /// Builds a batch kernel over the process-wide engine for
    /// `nthreads`, with the same nnz-balanced row partition as the
    /// baseline SpMV kernel.
    pub fn new(a: &'a Csr, nthreads: usize) -> SpmmKernel<'a> {
        let a = MaybeValidated::new(a);
        let plan = witness_plan(&a, Schedule::NnzBalanced, nthreads, |a| a.rowptr());
        SpmmKernel { a, plan }
    }

    /// Rows of the underlying matrix.
    pub fn nrows(&self) -> usize {
        self.a.get().nrows()
    }

    /// Columns of the underlying matrix.
    pub fn ncols(&self) -> usize {
        self.a.get().ncols()
    }

    /// Whether the validated (parallel fast-path) representation is
    /// active; unvalidated matrices fall back to serial checked code.
    pub fn is_validated(&self) -> bool {
        self.a.is_validated()
    }

    /// Computes `y_j = A · x_j` for `k` independent vectors: each
    /// `xs[j]` is read in place and each `ys[j]` written directly.
    ///
    /// Accumulation order per vector is the serial reference's (row
    /// by row, column by column), so every `ys[j]` is bitwise
    /// identical to `A.spmv(xs[j])` regardless of thread count or
    /// batch composition.
    ///
    /// # Panics
    /// On shape mismatch, `k == 0`, or `xs.len() != ys.len()`.
    pub fn run_multi(&self, xs: &[&[f64]], ys: &mut [Vec<f64>]) -> ThreadTimes {
        let a = *self.a.get();
        let k = xs.len();
        assert!(k > 0, "batch width must be at least 1");
        assert_eq!(ys.len(), k, "one output vector per input vector");
        for x in xs {
            assert_eq!(x.len(), a.ncols(), "x length");
        }
        for y in ys.iter() {
            assert_eq!(y.len(), a.nrows(), "y length");
        }
        match &self.a {
            MaybeValidated::Validated(v) => {
                let a = *v.get();
                let yps: Vec<YPtr> = ys.iter_mut().map(|y| YPtr(y.as_mut_ptr())).collect();
                self.plan.execute_labeled("spmm", |range| {
                    multi_worker(a, range, xs, &yps);
                })
            }
            MaybeValidated::Unvalidated(a) => checked_fallback(self.plan.nthreads(), || {
                // Serial checked fallback: literally the reference.
                for (x, y) in xs.iter().zip(ys.iter_mut()) {
                    a.spmv(x, y);
                }
            }),
        }
    }
}

/// One worker's share of the separate-vector batch product: whole
/// rows, every `ys[j][i]` written by exactly one thread. The row's
/// column/value slices stay cache-hot across the `k` passes, so the
/// matrix still streams from memory once per batch.
fn multi_worker(a: &Csr, range: Range<usize>, xs: &[&[f64]], ys: &[YPtr]) {
    for i in range {
        let (cols, vals) = a.row(i);
        for (x, y) in xs.iter().zip(ys) {
            let acc = row_sum_scalar(cols, vals, x);
            // SAFETY: the plan hands each worker disjoint row ranges
            // and every `ys[j]` points at a live `nrows` buffer
            // (asserted in `run_multi`), so `ys[j][i]` is written
            // exclusively by this worker and stays in bounds.
            unsafe { y.write(i, acc) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_sparse::gen;

    /// Deterministic pseudo-random vector (no RNG dependency needed).
    fn lcg_x(n: usize, seed: u64) -> Vec<f64> {
        let mut s = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (0..n)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((s >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0
            })
            .collect()
    }

    /// Runs `run_multi` on `k` vectors and asserts every output is
    /// bitwise the serial reference product.
    fn assert_bitwise_matches_serial(a: &Csr, nthreads: usize, k: usize) {
        let xs: Vec<Vec<f64>> = (0..k).map(|j| lcg_x(a.ncols(), j as u64 + 1)).collect();
        let x_refs: Vec<&[f64]> = xs.iter().map(|x| x.as_slice()).collect();
        let mut ys: Vec<Vec<f64>> = (0..k).map(|_| vec![0.0; a.nrows()]).collect();
        let kernel = SpmmKernel::new(a, nthreads);
        assert!(kernel.is_validated());
        kernel.run_multi(&x_refs, &mut ys);
        for (j, (x, y)) in xs.iter().zip(&ys).enumerate() {
            let mut y_ref = vec![0.0; a.nrows()];
            a.spmv(x, &mut y_ref);
            for (i, (got, want)) in y.iter().zip(&y_ref).enumerate() {
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "row {i} vector {j} diverges from serial reference"
                );
            }
        }
    }

    #[test]
    fn run_multi_is_bitwise_serial() {
        let a = gen::banded(400, 5, 0.9, 7).unwrap();
        for nthreads in [1, 3, 4] {
            for k in [1, 2, 4, MAX_BATCH] {
                assert_bitwise_matches_serial(&a, nthreads, k);
            }
        }
    }

    #[test]
    fn powerlaw_batch_matches_serial() {
        let a = gen::powerlaw(600, 7, 2.0, 11).unwrap();
        assert_bitwise_matches_serial(&a, 4, 6);
    }

    #[test]
    fn empty_rows_are_zeroed_in_every_output() {
        let a = Csr::from_raw(3, 3, vec![0, 1, 1, 2], vec![0, 2], vec![5.0, 7.0]).unwrap();
        let xs = [vec![1.0; 3], vec![2.0; 3], vec![0.5; 3]];
        let x_refs: Vec<&[f64]> = xs.iter().map(|x| x.as_slice()).collect();
        let mut ys = vec![vec![9.0; 3]; 3];
        SpmmKernel::new(&a, 2).run_multi(&x_refs, &mut ys);
        assert_eq!(ys[0], [5.0, 0.0, 7.0]);
        assert_eq!(ys[1], [10.0, 0.0, 14.0]);
        assert_eq!(ys[2], [2.5, 0.0, 3.5]);
    }

    #[test]
    fn corrupt_rowptr_never_drives_partitioning() {
        // A row pointer whose partial sums overflow must not reach the
        // nnz-balanced partitioner: the unvalidated matrix plans over
        // nothing and runs the serial checked fallback instead.
        let a = Csr::from_raw_unchecked(3, 3, vec![0, 0, usize::MAX - 1, 5], vec![0], vec![1.0]);
        let kernel = SpmmKernel::new(&a, 3);
        assert!(!kernel.is_validated());
    }

    #[test]
    #[should_panic(expected = "x length")]
    fn shape_mismatch_panics() {
        let a = Csr::identity(4);
        let xs = [vec![1.0; 7], vec![1.0; 7]];
        let x_refs: Vec<&[f64]> = xs.iter().map(|x| x.as_slice()).collect();
        let mut ys = vec![vec![0.0; 4]; 2];
        SpmmKernel::new(&a, 1).run_multi(&x_refs, &mut ys);
    }
}
