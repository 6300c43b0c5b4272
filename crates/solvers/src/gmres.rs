//! Restarted GMRES(m) for general systems.
//!
//! Arnoldi with modified Gram-Schmidt and Givens-rotation updates of
//! the Hessenberg least-squares problem. Every vector pass runs on
//! the engine team through `spmv_kernels::dense`; each Gram–Schmidt
//! subtraction also takes the next projection (or `‖w‖²` after the
//! last) from the updated chunk, so step `k` makes `k + 2` passes.
//! The Arnoldi basis is allocated once per solve and the new basis
//! vector is built in place.

use spmv_kernels::dense::{dot_chunk, Passes};

use crate::jacobi::Jacobi;
use crate::op::{LinOp, SolveStats};

/// Solves `A x = b` with restarted GMRES from initial guess `x`
/// (overwritten with the solution).
///
/// * `restart` — Krylov subspace dimension `m` between restarts;
/// * `tol` — relative residual target;
/// * `max_iter` — total inner-iteration budget across restarts.
///
/// Convergence is only reported once the recomputed true residual
/// `‖b − Ax‖/‖b‖` is within `tol`; a cycle whose recurrence estimate
/// reaches `tol` without it restarts.
///
/// # Panics
/// Panics if the operator is not square, dimensions disagree, or
/// `restart == 0`.
pub fn gmres(
    a: &impl LinOp,
    b: &[f64],
    x: &mut [f64],
    precond: Option<&Jacobi>,
    restart: usize,
    tol: f64,
    max_iter: usize,
) -> SolveStats {
    let n = a.nrows();
    assert_eq!(a.ncols(), n, "GMRES needs a square operator");
    assert_eq!(b.len(), n, "b length");
    assert_eq!(x.len(), n, "x length");
    assert!(restart > 0, "restart must be positive");

    let m = restart;
    let mut vp = Passes::new(n);
    let bnorm = vp.norm2("gmres.dot", b).max(f64::MIN_POSITIVE);
    let d = precond.map(Jacobi::inv_diag);
    let mut history = Vec::new();
    let mut total_iters = 0usize;

    // Arnoldi basis (m+1 vectors), Hessenberg in compact form
    // (h[i][j]) and Givens rotations, reused by every restart.
    let mut v = vec![vec![0.0f64; n]; m + 1];
    let mut h = vec![vec![0.0f64; m]; m + 1];
    let mut cs = vec![0.0f64; m];
    let mut sn = vec![0.0f64; m];
    let mut g = vec![0.0f64; m + 1];

    loop {
        // v0 = M⁻¹(b − Ax); the true residual is ‖b − Ax‖.
        a.apply(x, &mut v[0]);
        let [raw2, beta2] = match d {
            Some(d) => vp.pass("gmres.update", [&mut v[0]], [b, d], |[r], [b, d]| {
                for (ri, bi) in r.iter_mut().zip(b) {
                    *ri = bi - *ri;
                }
                let raw2 = dot_chunk(r, r);
                for (ri, di) in r.iter_mut().zip(d) {
                    *ri *= di;
                }
                [raw2, dot_chunk(r, r)]
            }),
            None => vp.pass("gmres.update", [&mut v[0]], [b], |[r], [b]| {
                for (ri, bi) in r.iter_mut().zip(b) {
                    *ri = bi - *ri;
                }
                let raw2 = dot_chunk(r, r);
                [raw2, raw2]
            }),
        };
        let mut residual = raw2.sqrt() / bnorm;
        if residual <= tol || total_iters >= max_iter {
            return SolveStats {
                iterations: total_iters,
                residual,
                converged: residual <= tol,
                history,
            };
        }
        let beta = beta2.sqrt();
        divide(&mut vp, &mut v[0], beta);
        g.fill(0.0);
        g[0] = beta;

        let mut k_used = 0usize;
        for k in 0..m {
            if total_iters >= max_iter {
                break;
            }
            total_iters += 1;
            // w = M⁻¹ A v_k, built in place as v[k+1], with w·v_0.
            let (basis, rest) = v.split_at_mut(k + 1);
            let w = &mut rest[0][..];
            a.apply(&basis[k], w);
            let mut hik = match d {
                Some(d) => vp.pass("gmres.mgs", [&mut *w], [d, &basis[0]], |[w], [d, v0]| {
                    for (wi, di) in w.iter_mut().zip(d) {
                        *wi *= di;
                    }
                    [dot_chunk(w, v0)]
                })[0],
                None => vp.dot("gmres.mgs", w, &basis[0]),
            };
            // Modified Gram-Schmidt.
            for i in 0..=k {
                h[i][k] = hik;
                let sub = |w: &mut [f64], vi: &[f64]| {
                    for (wj, vj) in w.iter_mut().zip(vi) {
                        *wj -= hik * vj;
                    }
                };
                [hik] = match basis.get(i + 1) {
                    Some(next) => {
                        vp.pass("gmres.mgs", [&mut *w], [&basis[i], next], |[w], [vi, next]| {
                            sub(w, vi);
                            [dot_chunk(w, next)]
                        })
                    }
                    None => vp.pass("gmres.mgs", [&mut *w], [&basis[i]], |[w], [vi]| {
                        sub(w, vi);
                        [dot_chunk(w, w)]
                    }),
                };
            }
            let wnorm = hik.sqrt();
            h[k + 1][k] = wnorm;
            // Apply previous Givens rotations to column k.
            for i in 0..k {
                let t = cs[i] * h[i][k] + sn[i] * h[i + 1][k];
                h[i + 1][k] = -sn[i] * h[i][k] + cs[i] * h[i + 1][k];
                h[i][k] = t;
            }
            // New rotation to eliminate h[k+1][k].
            let denom = (h[k][k] * h[k][k] + wnorm * wnorm).sqrt().max(f64::MIN_POSITIVE);
            cs[k] = h[k][k] / denom;
            sn[k] = wnorm / denom;
            h[k][k] = denom;
            g[k + 1] = -sn[k] * g[k];
            g[k] *= cs[k];
            k_used = k + 1;

            residual = g[k + 1].abs() / bnorm;
            history.push(residual);

            if wnorm < f64::MIN_POSITIVE {
                break; // happy breakdown: exact solution in the space
            }
            if residual <= tol {
                break;
            }
            divide(&mut vp, w, wnorm);
        }

        // Back-substitution for y, then x += V y. The next cycle's
        // true residual decides convergence.
        let mut y = vec![0.0f64; k_used];
        for i in (0..k_used).rev() {
            let mut s = g[i];
            for j in i + 1..k_used {
                s -= h[i][j] * y[j];
            }
            y[i] = s / h[i][i];
        }
        for (yj, vj) in y.iter().zip(&v) {
            vp.axpy("gmres.update", *yj, vj, x);
        }
    }
}

/// `v /= s`.
fn divide(vp: &mut Passes, v: &mut [f64], s: f64) {
    vp.pass("gmres.update", [v], [], |[v], []| {
        for vi in v.iter_mut() {
            *vi /= s;
        }
        []
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_sparse::gen;

    #[test]
    fn solves_nonsymmetric_system() {
        let a = gen::random_uniform(300, 6, 5).unwrap();
        let x_true: Vec<f64> = (0..300).map(|i| (i as f64 * 0.01).sin()).collect();
        let mut b = vec![0.0; 300];
        a.spmv(&x_true, &mut b);
        let mut x = vec![0.0; 300];
        let stats = gmres(&a, &b, &mut x, None, 30, 1e-10, 3_000);
        assert!(stats.converged, "residual {}", stats.residual);
        for (u, v) in x.iter().zip(&x_true) {
            assert!((u - v).abs() < 1e-6);
        }
    }

    #[test]
    fn restart_changes_trajectory_but_still_converges() {
        let a = gen::circuit(400, 2, 0.2, 4, 9).unwrap();
        let b = vec![1.0; 400];
        for m in [5, 20, 60] {
            let mut x = vec![0.0; 400];
            let stats = gmres(&a, &b, &mut x, None, m, 1e-9, 5_000);
            assert!(stats.converged, "m={m}, residual {}", stats.residual);
            // Convergence means the true residual, not the estimate.
            let mut ax = vec![0.0; 400];
            a.spmv(&x, &mut ax);
            let true_res = ax.iter().zip(&b).map(|(u, v)| (v - u) * (v - u)).sum::<f64>().sqrt()
                / b.iter().map(|v| v * v).sum::<f64>().sqrt();
            assert!(true_res <= 1e-9, "m={m}: true residual {true_res}");
        }
    }

    #[test]
    fn preconditioning_reduces_iterations_on_scaled_system() {
        // A badly diagonal-scaled system where Jacobi shines.
        let base = gen::banded(500, 2, 1.0, 3).unwrap();
        let (nr, nc, rowptr, colind, mut values) = base.into_raw();
        // Scale row i by 10^(i % 3).
        for i in 0..nr {
            let f = 10.0f64.powi((i % 3) as i32);
            for v in &mut values[rowptr[i]..rowptr[i + 1]] {
                *v *= f;
            }
        }
        let a = spmv_sparse::Csr::from_raw(nr, nc, rowptr, colind, values).unwrap();
        let b = vec![1.0; 500];
        let mut x0 = vec![0.0; 500];
        let plain = gmres(&a, &b, &mut x0, None, 30, 1e-9, 4_000);
        let m = Jacobi::new(&a);
        let mut x1 = vec![0.0; 500];
        let pre = gmres(&a, &b, &mut x1, Some(&m), 30, 1e-9, 4_000);
        assert!(pre.converged);
        assert!(
            !plain.converged || pre.iterations <= plain.iterations,
            "pre {} vs plain {}",
            pre.iterations,
            plain.iterations
        );
    }

    #[test]
    fn exact_guess_returns_immediately() {
        let a = gen::banded(100, 2, 1.0, 3).unwrap();
        let x_true = vec![1.5; 100];
        let mut b = vec![0.0; 100];
        a.spmv(&x_true, &mut b);
        let mut x = x_true.clone();
        let stats = gmres(&a, &b, &mut x, None, 10, 1e-12, 100);
        assert!(stats.converged);
        assert_eq!(stats.iterations, 0);
    }

    #[test]
    #[should_panic(expected = "restart")]
    fn zero_restart_panics() {
        let a = gen::banded(10, 1, 1.0, 1).unwrap();
        let b = vec![1.0; 10];
        let mut x = vec![0.0; 10];
        gmres(&a, &b, &mut x, None, 0, 1e-8, 10);
    }
}
