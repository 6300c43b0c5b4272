//! Parallel SpMV over delta-compressed CSR — the paper's `MB`-class
//! kernel ("column index compression through delta encoding +
//! vectorization").
//!
//! The format conversion happens when a kernel config is lowered (see
//! [`crate::variant::KernelConfig`]) and its cost is reported as
//! preprocessing time; this module only executes.

use std::ops::Range;

use spmv_sparse::{DeltaCsr, MaybeValidated};

use crate::baseline::{checked_fallback, witness_plan, InnerLoop};
use crate::engine::Plan;
use crate::schedule::{Schedule, ThreadTimes, YPtr};
use crate::variant::{Format, KernelConfig, SpmvKernel};

/// Parallel delta-compressed SpMV kernel. Owns its compressed matrix
/// (the conversion product) and a precomputed [`Plan`].
///
/// The delta streams are structurally verified once at construction;
/// only a [`spmv_sparse::Validated`] witness admits the parallel
/// unchecked decode path, anything else falls back to the serial
/// fully-checked [`DeltaCsr::spmv`].
#[derive(Debug)]
pub struct DeltaKernel {
    d: MaybeValidated<DeltaCsr>,
    plan: Plan,
    /// Dispatch label: the id of the kernel config this kernel runs.
    label: String,
}

impl DeltaKernel {
    /// Wraps a compressed matrix.
    pub fn new(d: DeltaCsr, nthreads: usize, schedule: Schedule) -> DeltaKernel {
        let d = MaybeValidated::new(d);
        let plan = witness_plan(&d, schedule, nthreads, |d| d.rowptr());
        let label = KernelConfig { format: Format::Delta, row: InnerLoop::Scalar, schedule }.id();
        DeltaKernel { d, plan, label }
    }

    /// Access to the compressed matrix (for footprint reporting).
    pub fn matrix(&self) -> &DeltaCsr {
        self.d.get()
    }

    /// Scheduling policy.
    pub fn schedule(&self) -> Schedule {
        self.plan.schedule()
    }

    /// Worker thread count.
    pub fn nthreads(&self) -> usize {
        self.plan.nthreads()
    }

    /// Whether the matrix passed structural verification (and the
    /// kernel therefore runs the parallel unchecked fast path).
    pub fn is_validated(&self) -> bool {
        self.d.is_validated()
    }

    fn worker(&self, d: &DeltaCsr, range: Range<usize>, x: &[f64], y: YPtr) {
        if range.is_empty() {
            return;
        }
        // SAFETY: ranges from the plan are disjoint, so this sub-slice
        // is exclusively owned by this worker; the buffer outlives the
        // dispatch (it is the caller's `&mut [f64]`).
        let out = unsafe { y.subslice(range.start, range.len()) };
        // SAFETY: this path is only reached with a Validated witness
        // (the delta streams decode to in-bounds columns with exact
        // exception-cursor positions) and `x.len() == ncols` was
        // asserted by `run_timed`.
        unsafe { d.spmv_rows_into_unchecked(range, x, out) };
    }
}

impl SpmvKernel for DeltaKernel {
    fn run_timed(&self, x: &[f64], y: &mut [f64]) -> ThreadTimes {
        assert_eq!(x.len(), self.d.get().ncols(), "x length");
        assert_eq!(y.len(), self.d.get().nrows(), "y length");
        match &self.d {
            MaybeValidated::Validated(v) => {
                let d = v.get();
                let yp = YPtr(y.as_mut_ptr());
                self.plan.execute_labeled(&self.label, |range| {
                    self.worker(d, range, x, yp);
                })
            }
            MaybeValidated::Unvalidated(d) => checked_fallback(self.plan.nthreads(), || {
                d.spmv(x, y);
            }),
        }
    }

    fn name(&self) -> String {
        format!("delta[{:?},{:?}]", self.d.get().width(), self.plan.schedule())
    }

    fn nrows(&self) -> usize {
        self.d.get().nrows()
    }

    fn ncols(&self) -> usize {
        self.d.get().ncols()
    }

    fn format_bytes(&self) -> usize {
        self.d.get().footprint_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use spmv_sparse::gen;

    #[test]
    fn matches_serial_csr() {
        let a = gen::banded(700, 6, 0.7, 2).unwrap();
        let d = DeltaCsr::from_csr(&a).unwrap();
        let k = DeltaKernel::new(d, 4, Schedule::NnzBalanced);
        let mut rng = SmallRng::seed_from_u64(8);
        let x: Vec<f64> = (0..a.ncols()).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut y_ref = vec![0.0; a.nrows()];
        a.spmv(&x, &mut y_ref);
        let mut y = vec![0.0; a.nrows()];
        k.run(&x, &mut y);
        for (u, v) in y.iter().zip(&y_ref) {
            assert!((u - v).abs() < 1e-10);
        }
    }

    #[test]
    fn works_with_escapes_and_dynamic_schedule() {
        let a = gen::random_uniform(400, 12, 3).unwrap(); // wide gaps -> escapes
        let d = DeltaCsr::from_csr(&a).unwrap();
        let k = DeltaKernel::new(d, 3, Schedule::Dynamic { chunk: 13 });
        let x: Vec<f64> = (0..400).map(|i| (i as f64 * 0.1).cos()).collect();
        let mut y_ref = vec![0.0; 400];
        a.spmv(&x, &mut y_ref);
        let mut y = vec![0.0; 400];
        k.run(&x, &mut y);
        for (u, v) in y.iter().zip(&y_ref) {
            assert!((u - v).abs() < 1e-10);
        }
    }

    #[test]
    fn reports_compressed_footprint() {
        let a = gen::banded(512, 8, 1.0, 1).unwrap();
        let d = DeltaCsr::from_csr(&a).unwrap();
        let k = DeltaKernel::new(d, 2, Schedule::NnzBalanced);
        assert!(k.format_bytes() < a.footprint_bytes());
        assert!(k.name().contains("delta"));
    }
}
