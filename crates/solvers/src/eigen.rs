//! Dominant-eigenpair approximation by the power method.
//!
//! The paper's introduction names "the approximation of eigenvalues
//! of large sparse matrices" as a core SpMV consumer; the power
//! method is its simplest instance — one SpMV per iteration, so every
//! SpMV optimization translates one-for-one into eigensolver
//! throughput.

use spmv_kernels::dense::{dot_chunk, Passes};

use crate::op::LinOp;

/// Result of a power-method run.
#[derive(Debug, Clone, PartialEq)]
pub struct EigenResult {
    /// Approximated dominant eigenvalue (Rayleigh quotient).
    pub eigenvalue: f64,
    /// Normalised eigenvector approximation.
    pub eigenvector: Vec<f64>,
    /// Iterations executed.
    pub iterations: usize,
    /// Final iterate change `‖v_{k+1} − v_k‖`.
    pub delta: f64,
    /// Whether the tolerance was met within the budget.
    pub converged: bool,
}

/// Runs power iteration on `a` from the all-ones start vector.
///
/// * `tol` — convergence threshold on the iterate change;
/// * `max_iter` — iteration budget.
///
/// # Panics
/// Panics if the operator is not square or has zero dimension.
pub fn power_method(a: &impl LinOp, tol: f64, max_iter: usize) -> EigenResult {
    let n = a.nrows();
    assert_eq!(a.ncols(), n, "power method needs a square operator");
    assert!(n > 0, "empty operator");

    let mut vp = Passes::new(n);
    let mut v = vec![1.0 / (n as f64).sqrt(); n];
    let mut w = vec![0.0f64; n];
    let mut lambda = 0.0f64;
    let mut delta = f64::INFINITY;
    for it in 1..=max_iter {
        a.apply(&v, &mut w);
        // The Rayleigh quotient `v·Av` of the unit iterate, and ‖Av‖.
        let [vw, ww] =
            vp.pass("power.dot", [], [&v, &w], |[], [v, w]| [dot_chunk(v, w), dot_chunk(w, w)]);
        let norm = ww.sqrt();
        if norm < f64::MIN_POSITIVE {
            // Hit the null space: report a zero eigenvalue.
            return EigenResult {
                eigenvalue: 0.0,
                eigenvector: v,
                iterations: it,
                delta,
                converged: true,
            };
        }
        lambda = vw;
        // Normalise w and measure ‖v − w‖ on the normalised chunk.
        let inv = 1.0 / norm;
        let [d2] = vp.pass("power.update", [&mut w], [&v], |[w], [v]| {
            for wi in w.iter_mut() {
                *wi *= inv;
            }
            [v.iter().zip(&*w).map(|(x, y)| (x - y) * (x - y)).sum()]
        });
        delta = d2.sqrt();
        std::mem::swap(&mut v, &mut w);
        if delta <= tol {
            return EigenResult {
                eigenvalue: lambda,
                eigenvector: v,
                iterations: it,
                delta,
                converged: true,
            };
        }
    }
    EigenResult {
        eigenvalue: lambda,
        eigenvector: v,
        iterations: max_iter,
        delta,
        converged: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_sparse::{Coo, Csr};
    use std::cell::Cell;

    /// Counts the operator applications the power method makes: one
    /// per iteration.
    struct Counting<'a> {
        a: &'a Csr,
        calls: Cell<usize>,
    }

    impl LinOp for Counting<'_> {
        fn nrows(&self) -> usize {
            self.a.nrows()
        }

        fn ncols(&self) -> usize {
            self.a.ncols()
        }

        fn apply(&self, x: &[f64], y: &mut [f64]) {
            self.calls.set(self.calls.get() + 1);
            self.a.spmv(x, y);
        }
    }

    #[test]
    fn diagonal_matrix_dominant_eigenvalue() {
        let mut coo = Coo::new(4, 4).unwrap();
        for (i, d) in [1.0, 3.0, 7.0, 2.0].iter().enumerate() {
            coo.push(i, i, *d).unwrap();
        }
        let a = Csr::from_coo(&coo);
        let r = power_method(&a, 1e-12, 10_000);
        assert!(r.converged);
        assert!((r.eigenvalue - 7.0).abs() < 1e-6, "{}", r.eigenvalue);
        // Eigenvector concentrates on index 2.
        assert!(r.eigenvector[2].abs() > 0.999);
    }

    #[test]
    fn symmetric_2x2_known_spectrum() {
        // [[2, 1], [1, 2]] has eigenvalues 3 and 1.
        let a =
            Csr::from_raw(2, 2, vec![0, 2, 4], vec![0, 1, 0, 1], vec![2.0, 1.0, 1.0, 2.0]).unwrap();
        let op = Counting { a: &a, calls: Cell::new(0) };
        let r = power_method(&op, 1e-13, 10_000);
        assert!((r.eigenvalue - 3.0).abs() < 1e-8, "{}", r.eigenvalue);
        assert_eq!(op.calls.get(), r.iterations);
    }

    #[test]
    fn laplacian_spectral_radius_bound() {
        // 5-point Laplacian eigenvalues lie in (0, 8).
        let a = spmv_sparse::gen::stencil_2d(20, 20).unwrap();
        let op = Counting { a: &a, calls: Cell::new(0) };
        let r = power_method(&op, 1e-10, 20_000);
        assert!(r.converged);
        assert!(r.eigenvalue > 6.0 && r.eigenvalue < 8.0, "{}", r.eigenvalue);
        assert_eq!(op.calls.get(), r.iterations);
    }

    #[test]
    fn budget_exhaustion_reported() {
        let a = spmv_sparse::gen::stencil_2d(15, 15).unwrap();
        let r = power_method(&a, 0.0, 3);
        assert!(!r.converged);
        assert_eq!(r.iterations, 3);
    }

    #[test]
    fn zero_matrix_reports_zero() {
        let a = Csr::from_raw(3, 3, vec![0, 0, 0, 0], vec![], vec![]).unwrap();
        let r = power_method(&a, 1e-10, 10);
        assert_eq!(r.eigenvalue, 0.0);
        assert!(r.converged);
    }
}
