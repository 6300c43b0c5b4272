//! Two-phase decomposed SpMV kernel — the paper's `IMB`-class
//! optimization for highly uneven row lengths (paper Fig. 6).
//!
//! Phase 1 runs the usual row-parallel SpMV over the short part
//! through the CSR kernels' one row traversal (long rows are present
//! but empty, so their `y` entries are written as 0 and then
//! overwritten). Phase 2 computes every long row with
//! *all* threads: each thread takes an element chunk of each long
//! row, and the partial sums are reduced afterwards.

use std::sync::Mutex;

use spmv_sparse::{DecomposedCsr, MaybeValidated};

use crate::baseline::{checked_fallback, witness_plan, InnerLoop};
use crate::engine::Plan;
use crate::schedule::{Schedule, ThreadTimes, YPtr};
use crate::variant::SpmvKernel;

/// Parallel decomposed SpMV kernel. Owns the decomposition product
/// and a precomputed [`Plan`] for the short-part phase; the long
/// phase dispatches raw per-worker tasks on the same engine, so both
/// phases share one warm thread team.
///
/// The decomposition — short part, long-row chaining, and the
/// short/long disjointness both phases rely on — is verified once at
/// construction; only a [`spmv_sparse::Validated`] witness admits the
/// parallel unchecked path, anything else falls back to the serial
/// fully-checked [`DecomposedCsr::spmv`].
#[derive(Debug)]
pub struct DecomposedKernel {
    d: MaybeValidated<DecomposedCsr>,
    plan: Plan,
    flavor: InnerLoop,
}

impl DecomposedKernel {
    /// Wraps a decomposed matrix.
    pub fn new(
        d: DecomposedCsr,
        nthreads: usize,
        schedule: Schedule,
        flavor: InnerLoop,
    ) -> DecomposedKernel {
        let d = MaybeValidated::new(d);
        let plan = witness_plan(&d, schedule, nthreads, |d| d.short().rowptr());
        let flavor = flavor.gather_checked(d.get().ncols());
        DecomposedKernel { d, plan, flavor }
    }

    /// Whether the matrix passed structural verification (and the
    /// kernel therefore runs the parallel unchecked fast path).
    pub fn is_validated(&self) -> bool {
        self.d.is_validated()
    }

    /// Phase 2: computes all long rows with an all-threads split and
    /// returns per-thread busy seconds. Dispatches on the same
    /// persistent engine as the short phase (no scoped spawning).
    /// Only called on the validated path.
    fn long_phase(&self, d: &DecomposedCsr, x: &[f64], y: &mut [f64]) -> Vec<f64> {
        let long_rows = d.long_rows();
        let nthreads = self.plan.nthreads();
        if long_rows.is_empty() {
            return vec![0.0; nthreads];
        }
        let nlong = long_rows.len();
        // Each worker fills its own partial-sum vector; slot `t` keeps
        // the reduction order deterministic (t = 0..nthreads), so the
        // result is bitwise-stable across runs.
        let partials: Mutex<Vec<Option<Vec<f64>>>> = Mutex::new(vec![None; nthreads]);
        let times = self.plan.engine().run(&|t| {
            let mut local = vec![0.0f64; nlong];
            for (k, lr) in d.long_rows().iter().enumerate() {
                let len = lr.end - lr.start;
                let per = len.div_ceil(nthreads);
                let s = (t * per).min(len);
                let e = ((t + 1) * per).min(len);
                if s < e {
                    // SAFETY: this path is only reached with a
                    // Validated witness (long rows chain inside the
                    // long arrays, long columns < ncols == x.len())
                    // and `lr` comes from `d.long_rows()`.
                    local[k] = unsafe { d.long_row_partial_unchecked(lr, s..e, x) };
                }
            }
            partials.lock().expect("partials lock")[t] = Some(local);
        });
        // Reduction of partial sums (cheap: nthreads * nlong adds).
        let partials = partials.into_inner().expect("partials lock");
        for (k, lr) in long_rows.iter().enumerate() {
            let mut sum = 0.0;
            for slot in &partials {
                sum += slot.as_ref().expect("every worker deposited")[k];
            }
            y[lr.row as usize] = sum;
        }
        times.seconds
    }
}

impl SpmvKernel for DecomposedKernel {
    fn run_timed(&self, x: &[f64], y: &mut [f64]) -> ThreadTimes {
        assert_eq!(x.len(), self.d.get().ncols(), "x length");
        assert_eq!(y.len(), self.d.get().nrows(), "y length");
        match &self.d {
            MaybeValidated::Validated(v) => {
                let d = v.get();
                let yp = YPtr(y.as_mut_ptr());
                let mut times = self.plan.execute(|range| {
                    // SAFETY: the decomposition carries a Validated
                    // witness (the short part's columns are < ncols ==
                    // x.len(), asserted above); `execute` hands each
                    // worker disjoint row ranges of a live `y` of
                    // `nrows` elements; the flavor is gather-checked.
                    unsafe { self.flavor.run_rows::<1>(d.short(), range, &[x], &[yp]) };
                });
                let long_secs = self.long_phase(d, x, y);
                for (a, b) in times.seconds.iter_mut().zip(long_secs) {
                    *a += b;
                }
                times
            }
            MaybeValidated::Unvalidated(d) => checked_fallback(self.plan.nthreads(), || {
                d.spmv(x, y);
            }),
        }
    }

    fn name(&self) -> String {
        format!(
            "decomposed[{} long rows,{:?}]",
            self.d.get().long_rows().len(),
            self.plan.schedule()
        )
    }

    fn nrows(&self) -> usize {
        self.d.get().nrows()
    }

    fn ncols(&self) -> usize {
        self.d.get().ncols()
    }

    fn format_bytes(&self) -> usize {
        let d = self.d.get();
        d.short().footprint_bytes() + d.long_nnz() * (4 + 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use spmv_sparse::gen;
    use spmv_sparse::Csr;

    fn check(a: &Csr, threshold: usize, nthreads: usize) {
        let d = DecomposedCsr::split(a, threshold).unwrap();
        let k = DecomposedKernel::new(d, nthreads, Schedule::NnzBalanced, InnerLoop::Scalar);
        let mut rng = SmallRng::seed_from_u64(1);
        let x: Vec<f64> = (0..a.ncols()).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut y_ref = vec![0.0; a.nrows()];
        a.spmv(&x, &mut y_ref);
        let mut y = vec![0.0; a.nrows()];
        k.run(&x, &mut y);
        for (i, (u, v)) in y.iter().zip(&y_ref).enumerate() {
            assert!((u - v).abs() < 1e-9, "row {i}: {u} vs {v}");
        }
    }

    #[test]
    fn circuit_matrix_matches_serial() {
        let a = gen::circuit(2000, 3, 0.4, 5, 7).unwrap();
        for nthreads in [1, 2, 4] {
            check(&a, 50, nthreads);
        }
    }

    #[test]
    fn no_long_rows_degenerates_gracefully() {
        let a = gen::banded(300, 2, 1.0, 3).unwrap();
        check(&a, 100, 3); // threshold above all rows: long part empty
    }

    #[test]
    fn everything_long() {
        let a = gen::block_dense(64, 16, 0, 5).unwrap();
        check(&a, 1, 4); // all rows long
    }

    #[test]
    fn unrolled_flavor_matches() {
        let a = gen::circuit(1000, 2, 0.5, 4, 11).unwrap();
        let d = DecomposedCsr::split(&a, 32).unwrap();
        let k = DecomposedKernel::new(d, 4, Schedule::Guided, InnerLoop::Unrolled);
        let x: Vec<f64> = (0..1000).map(|i| (i as f64).cos()).collect();
        let mut y_ref = vec![0.0; 1000];
        a.spmv(&x, &mut y_ref);
        let mut y = vec![0.0; 1000];
        k.run(&x, &mut y);
        for (u, v) in y.iter().zip(&y_ref) {
            assert!((u - v).abs() < 1e-9);
        }
    }

    #[test]
    fn timing_includes_both_phases() {
        let a = gen::circuit(1500, 2, 0.5, 4, 13).unwrap();
        let d = DecomposedCsr::split(&a, 32).unwrap();
        let k = DecomposedKernel::new(d, 2, Schedule::NnzBalanced, InnerLoop::Scalar);
        let x = vec![1.0; 1500];
        let mut y = vec![0.0; 1500];
        let t = k.run_timed(&x, &mut y);
        assert_eq!(t.seconds.len(), 2);
        assert!(t.max() > 0.0);
    }
}
