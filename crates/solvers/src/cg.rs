//! (Preconditioned) Conjugate Gradient for SPD systems.
//!
//! After each `apply`, an iteration makes three passes over the
//! vectors, each on the engine team in chunks whose reductions are
//! bitwise independent of the thread count (`spmv_kernels::dense`):
//!
//! * (A) `p·Ap` — label `cg.dot`;
//! * (B) `x += αp`, `r −= αAp` and `r·r`, with `z = M⁻¹r` and `r·z`
//!   fused in when a Jacobi preconditioner is given — `cg.update`;
//! * (C) `p = z + βp` — `cg.direction`.
//!
//! Without a preconditioner `z` is `r` itself: no copy, no second
//! dot, no `z` vector. The initial residual `b − Ax` is formed in `r`
//! by applying into it, so no `Ax` scratch exists either.

use spmv_kernels::dense::{dot_chunk, Passes};

use crate::jacobi::Jacobi;
use crate::op::{LinOp, SolveStats};

/// Solves `A x = b` with CG, starting from `x` (used as the initial
/// guess and overwritten with the solution).
///
/// * `precond` — optional Jacobi preconditioner;
/// * `tol` — relative residual target `‖r‖/‖b‖`;
/// * `max_iter` — iteration budget.
///
/// # Panics
/// Panics if the operator is not square or dimensions disagree.
pub fn cg(
    a: &impl LinOp,
    b: &[f64],
    x: &mut [f64],
    precond: Option<&Jacobi>,
    tol: f64,
    max_iter: usize,
) -> SolveStats {
    let n = a.nrows();
    assert_eq!(a.ncols(), n, "CG needs a square operator");
    assert_eq!(b.len(), n, "b length");
    assert_eq!(x.len(), n, "x length");
    solve(&mut Passes::new(n), a, b, x, precond, tol, max_iter)
}

/// [`cg`] with its vector passes on `vp`.
fn solve(
    vp: &mut Passes,
    a: &impl LinOp,
    b: &[f64],
    x: &mut [f64],
    precond: Option<&Jacobi>,
    tol: f64,
    max_iter: usize,
) -> SolveStats {
    let n = b.len();
    let bnorm = vp.norm2("cg.dot", b).max(f64::MIN_POSITIVE);
    // The preconditioner's inverse diagonal and its `z = M⁻¹r`.
    let mut pre = precond.map(|m| (m.inv_diag(), vec![0.0; n]));
    let mut r = vec![0.0; n];
    let mut p = vec![0.0; n];
    a.apply(x, &mut r);
    // r = b − Ax, z = M⁻¹r, p = z.
    let [rr, mut rz] = match &mut pre {
        Some((d, z)) => vp.pass("cg.update", [&mut r, z, &mut p], [b, d], |[r, z, p], [b, d]| {
            for (ri, bi) in r.iter_mut().zip(b) {
                *ri = bi - *ri;
            }
            for (((zi, pi), ri), di) in z.iter_mut().zip(p.iter_mut()).zip(&*r).zip(d) {
                *zi = ri * di;
                *pi = *zi;
            }
            [dot_chunk(r, r), dot_chunk(r, z)]
        }),
        None => vp.pass("cg.update", [&mut r, &mut p], [b], |[r, p], [b]| {
            for ((ri, pi), bi) in r.iter_mut().zip(p.iter_mut()).zip(b) {
                *ri = bi - *ri;
                *pi = *ri;
            }
            let rr = dot_chunk(r, r);
            [rr, rr]
        }),
    };
    let mut history = Vec::new();
    let mut residual = rr.sqrt() / bnorm;
    if residual <= tol {
        return SolveStats { iterations: 0, residual, converged: true, history };
    }

    let mut ap = vec![0.0; n];
    for it in 1..=max_iter {
        a.apply(&p, &mut ap);
        let pap = vp.dot("cg.dot", &p, &ap);
        if pap <= 0.0 {
            // Not SPD (or breakdown): stop with what we have.
            return SolveStats { iterations: it - 1, residual, converged: false, history };
        }
        let alpha = rz / pap;
        let step = |x: &mut [f64], r: &mut [f64], p: &[f64], ap: &[f64]| {
            for (xi, pi) in x.iter_mut().zip(p) {
                *xi += alpha * pi;
            }
            for (ri, api) in r.iter_mut().zip(ap) {
                *ri -= alpha * api;
            }
        };
        let [rr, rz_new] = match &mut pre {
            Some((d, z)) => {
                vp.pass("cg.update", [&mut *x, &mut r, z], [&p, &ap, d], |[x, r, z], [p, ap, d]| {
                    step(x, r, p, ap);
                    for ((zi, ri), di) in z.iter_mut().zip(&*r).zip(d) {
                        *zi = ri * di;
                    }
                    [dot_chunk(r, r), dot_chunk(r, z)]
                })
            }
            None => vp.pass("cg.update", [&mut *x, &mut r], [&p, &ap], |[x, r], [p, ap]| {
                step(x, r, p, ap);
                let rr = dot_chunk(r, r);
                [rr, rr]
            }),
        };
        residual = rr.sqrt() / bnorm;
        history.push(residual);
        if residual <= tol {
            return SolveStats { iterations: it, residual, converged: true, history };
        }
        let beta = rz_new / rz;
        rz = rz_new;
        let z = pre.as_ref().map_or(&r, |(_, z)| z);
        vp.pass("cg.direction", [&mut p], [z], |[p], [z]| {
            for (pi, zi) in p.iter_mut().zip(z) {
                *pi = zi + beta * *pi;
            }
            []
        });
    }
    SolveStats { iterations: max_iter, residual, converged: false, history }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_sparse::gen;

    #[test]
    fn solves_laplacian() {
        let a = gen::stencil_2d(20, 20).unwrap();
        let n = a.nrows();
        let x_true: Vec<f64> = (0..n).map(|i| ((i % 7) as f64) - 3.0).collect();
        let mut b = vec![0.0; n];
        a.spmv(&x_true, &mut b);
        let mut x = vec![0.0; n];
        let stats = cg(&a, &b, &mut x, None, 1e-10, 2_000);
        assert!(stats.converged, "residual {}", stats.residual);
        for (u, v) in x.iter().zip(&x_true) {
            assert!((u - v).abs() < 1e-6);
        }
    }

    #[test]
    fn jacobi_preconditioning_reduces_iterations() {
        let a = gen::banded(800, 3, 1.0, 5).unwrap();
        // Symmetrize: A + A^T is SPD thanks to diagonal dominance.
        let at = a.transpose();
        let mut coo = a.to_coo();
        for (r, c, v) in at.to_coo().iter() {
            coo.push(r, c, v).unwrap();
        }
        let spd = spmv_sparse::Csr::from_coo(&coo);
        assert!(spd.is_symmetric(1e-10));
        let n = spd.nrows();
        let b = vec![1.0; n];
        let mut x0 = vec![0.0; n];
        let plain = cg(&spd, &b, &mut x0, None, 1e-8, 5_000);
        let m = Jacobi::new(&spd);
        let mut x1 = vec![0.0; n];
        let pre = cg(&spd, &b, &mut x1, Some(&m), 1e-8, 5_000);
        assert!(plain.converged && pre.converged);
        assert!(pre.iterations <= plain.iterations, "{} vs {}", pre.iterations, plain.iterations);
    }

    #[test]
    fn zero_rhs_converges_immediately() {
        let a = gen::stencil_2d(5, 5).unwrap();
        let b = vec![0.0; 25];
        let mut x = vec![0.0; 25];
        let stats = cg(&a, &b, &mut x, None, 1e-12, 100);
        assert!(stats.converged);
        assert_eq!(stats.iterations, 0);
    }

    #[test]
    fn respects_iteration_budget() {
        let a = gen::stencil_2d(30, 30).unwrap();
        let b = vec![1.0; 900];
        let mut x = vec![0.0; 900];
        let stats = cg(&a, &b, &mut x, None, 1e-14, 3);
        assert!(!stats.converged);
        assert_eq!(stats.iterations, 3);
        assert_eq!(stats.history.len(), 3);
    }

    #[test]
    fn history_is_monotone_for_spd() {
        let a = gen::stencil_2d(15, 15).unwrap();
        let b = vec![1.0; 225];
        let mut x = vec![0.0; 225];
        let stats = cg(&a, &b, &mut x, None, 1e-10, 1_000);
        assert!(stats.converged);
        // CG residuals are not strictly monotone, but the trend must
        // be decreasing: final << initial.
        assert!(stats.history.last().unwrap() < &stats.history[0]);
    }

    /// Plain and Jacobi-preconditioned CG over a system of many
    /// chunks (past the inline cutoff, with a ragged tail) leave the
    /// same bits in `x` and take the same iterations on 1, 2 and 3
    /// threads.
    #[test]
    fn solves_are_bitwise_independent_of_the_team() {
        use spmv_kernels::dense::{CHUNK, INLINE_CHUNKS};
        use spmv_kernels::ExecEngine;
        use std::sync::Arc;

        let a = gen::banded(INLINE_CHUNKS * CHUNK + 3001, 3, 1.0, 5).unwrap();
        let (at, mut coo) = (a.transpose(), a.to_coo());
        for (r, c, v) in at.to_coo().iter() {
            coo.push(r, c, v).unwrap();
        }
        let spd = spmv_sparse::Csr::from_coo(&coo);
        let n = spd.nrows();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 13) as f64 * 0.125).collect();
        let m = Jacobi::new(&spd);
        for precond in [None, Some(&m)] {
            let runs: Vec<_> = (1..=3)
                .map(|t| {
                    let mut vp = Passes::with_engine(n, Arc::new(ExecEngine::new(t)));
                    let mut x = vec![0.0; n];
                    let st = solve(&mut vp, &spd, &b, &mut x, precond, 1e-10, 500);
                    assert!(st.converged, "t={t}: residual {}", st.residual);
                    let bits: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
                    (st.iterations, st.residual.to_bits(), bits)
                })
                .collect();
            assert!(runs.windows(2).all(|w| w[0] == w[1]), "precond {}", precond.is_some());
        }
    }
}
