//! Parallel SpMV over SELL-C-σ — the second extension format of the
//! plug-and-play pool (see `spmv_sparse::sellcs`).

use std::ops::Range;

use spmv_sparse::sellcs::SellCs;
use spmv_sparse::MaybeValidated;

use crate::baseline::{checked_fallback, witness_plan, InnerLoop};
use crate::engine::Plan;
use crate::schedule::{Schedule, ThreadTimes, YPtr};
use crate::variant::{Format, KernelConfig, SpmvKernel};

/// Parallel SELL-C-σ kernel. Owns the converted matrix and a
/// precomputed [`Plan`] over chunks (balanced by stored slots).
///
/// The chunk structure — including the permutation being a bijection,
/// which the parallel scatter relies on for write disjointness — is
/// verified once at construction; only a [`spmv_sparse::Validated`]
/// witness admits the parallel unchecked scatter, anything else falls
/// back to the serial fully-checked [`SellCs::spmv`].
#[derive(Debug)]
pub struct SellKernel {
    s: MaybeValidated<SellCs>,
    plan: Plan,
    /// Dispatch label: the id of the kernel config this kernel runs.
    label: String,
}

impl SellKernel {
    /// Wraps a converted matrix.
    pub fn new(s: SellCs, nthreads: usize, schedule: Schedule) -> SellKernel {
        let s = MaybeValidated::new(s);
        let format = Format::Sell { chunk: s.get().chunk_size() };
        let label = KernelConfig { format, row: InnerLoop::Scalar, schedule }.id();
        let plan = witness_plan(&s, schedule, nthreads, |s| s.chunk_slots_ptr());
        SellKernel { s, plan, label }
    }

    /// Whether the matrix passed structural verification (and the
    /// kernel therefore runs the parallel unchecked fast path).
    pub fn is_validated(&self) -> bool {
        self.s.is_validated()
    }

    fn worker(&self, s: &SellCs, chunks: Range<usize>, x: &[f64], y: YPtr) {
        if chunks.is_empty() {
            return;
        }
        // Each chunk scatters to a disjoint set of original rows (the
        // validated permutation is a bijection and chunks partition
        // the sorted order), so concurrent workers never write the
        // same element.
        //
        let mut scatter = |row: usize, value: f64| {
            // SAFETY: rows from distinct chunk ranges are disjoint
            // and the buffer is the caller's live `&mut [f64]`.
            unsafe { y.write(row, value) };
        };
        // SAFETY: this path is only reached with a Validated witness
        // (chunk geometry in bounds, columns < ncols or SELL_PAD, perm
        // a bijection) and `x.len() == ncols` was asserted by
        // `run_timed`.
        unsafe { s.spmv_chunks_scatter_unchecked(chunks, x, &mut scatter) };
    }
}

impl SpmvKernel for SellKernel {
    fn run_timed(&self, x: &[f64], y: &mut [f64]) -> ThreadTimes {
        assert_eq!(x.len(), self.s.get().ncols(), "x length");
        assert_eq!(y.len(), self.s.get().nrows(), "y length");
        match &self.s {
            MaybeValidated::Validated(v) => {
                let s = v.get();
                let yp = YPtr(y.as_mut_ptr());
                self.plan.execute_labeled(&self.label, |chunks| {
                    self.worker(s, chunks, x, yp);
                })
            }
            MaybeValidated::Unvalidated(s) => checked_fallback(self.plan.nthreads(), || {
                s.spmv(x, y);
            }),
        }
    }

    fn name(&self) -> String {
        let s = self.s.get();
        format!("sell-{}-{}[{:?}]", s.chunk_size(), s.sigma(), self.plan.schedule())
    }

    fn nrows(&self) -> usize {
        self.s.get().nrows()
    }

    fn ncols(&self) -> usize {
        self.s.get().ncols()
    }

    fn format_bytes(&self) -> usize {
        self.s.get().footprint_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_sparse::gen;

    fn check(a: &spmv_sparse::Csr, chunk: usize, sigma: usize, nthreads: usize) {
        let s = SellCs::from_csr(a, chunk, sigma).unwrap();
        let k = SellKernel::new(s, nthreads, Schedule::NnzBalanced);
        let x: Vec<f64> = (0..a.ncols()).map(|i| 0.5 + (i % 7) as f64).collect();
        let mut expect = vec![0.0; a.nrows()];
        a.spmv(&x, &mut expect);
        let mut y = vec![0.0; a.nrows()];
        k.run(&x, &mut y);
        for (i, (u, v)) in y.iter().zip(&expect).enumerate() {
            assert!((u - v).abs() < 1e-9, "C={chunk} t={nthreads} row {i}: {u} vs {v}");
        }
    }

    #[test]
    fn matches_serial_for_shapes_and_threads() {
        let a = gen::powerlaw(900, 7, 1.9, 4).unwrap();
        for (c, s) in [(4, 64), (8, 256), (16, 900)] {
            for t in [1, 2, 4] {
                check(&a, c, s, t);
            }
        }
    }

    #[test]
    fn skewed_matrix_with_dynamic_schedule() {
        let a = gen::circuit(1_500, 2, 0.3, 5, 3).unwrap();
        let s = SellCs::from_csr(&a, 8, 128).unwrap();
        let k = SellKernel::new(s, 3, Schedule::Dynamic { chunk: 5 });
        let x = vec![1.0; 1_500];
        let mut expect = vec![0.0; 1_500];
        a.spmv(&x, &mut expect);
        let mut y = vec![0.0; 1_500];
        k.run(&x, &mut y);
        for (u, v) in y.iter().zip(&expect) {
            assert!((u - v).abs() < 1e-9);
        }
        assert!(k.name().starts_with("sell-8-128"));
    }

    #[test]
    fn timing_reports_every_thread() {
        let a = gen::banded(400, 4, 1.0, 2).unwrap();
        let s = SellCs::from_csr(&a, 4, 32).unwrap();
        let k = SellKernel::new(s, 2, Schedule::NnzBalanced);
        let x = vec![1.0; 400];
        let mut y = vec![0.0; 400];
        let t = k.run_timed(&x, &mut y);
        assert_eq!(t.seconds.len(), 2);
    }
}
